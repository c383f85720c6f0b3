"""Coupled dynamical systems on graph limits.

Build weighted index spaces and coupling kernels, discretize them into
finite coupled ODE systems (including fiber-measure systems and sampled
random graphs), integrate the dynamics, and audit the symmetry structure:
automorphism checks, equivariance and invariance drift, twisted equilibria,
and the infinity-to-one norm bounds that control how faithfully large
sampled networks inherit the symmetries of their limit.
"""

__version__ = "0.1.0"

from .errors import DegenerateFiberError, NumericError, SizeLimitError
from .space import IndexSpace, make_finite_space, make_grid_space, uniform_space
from .kernels import BlockKernel, ConstantKernel, GeodesicKernel, Kernel, MatrixKernel, \
    canonical_embedding, geodesic_kernel, kernel_from_spec
from .systems import CoupledSystem, adjacency_matrix, discretize, disjoint_union, from_rows, \
    sample_er
from .dynamics import ModelFunctions, Trajectory, integrate, kuramoto_model, rhs
from .norms import NormResult, ghost_bound, gronwall_bound, inf_to_one_norm_exact, \
    inf_to_one_norm_lower, l1_distance
from .symmetry import AutomorphismReport, ClusterSubspace, FixedPointSubspace, \
    ImageSubspace, IndexMap, PartitionSubspace, check_automorphism, equivariance_audit, \
    grid_shift_map, identity_map, interval_reflection_map, invariance_audit, permutation_map, \
    project_fixed, pullback, scaling_map, sphere_reflection_map, sphere_rotation_map, \
    subspace_distance, swap_map, torus_flip_map, torus_rotation_map
from .graphop import graphop_from_weighted, spherical_graphop
from .meanfield import MeasureState, integrate_meanfield, meanfield_rhs, measure_distance
from .experiments import ExperimentReport, continuity_experiment, ghost_experiment, \
    symmetry_drift_experiment, twisted_residual, twisted_state
