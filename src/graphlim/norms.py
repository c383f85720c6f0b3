"""Weighted L1 distances, infinity-to-one kernel norms, and growth bounds.

The infinity-to-one norm of a symmetric matrix D on a weighted space is

    max over f, g in {-1,+1}^n of | sum_ij mu_i mu_j D_ij f_i g_j |,

the vertex maximum of the bilinear form over the product of cubes. The
exact routine enumerates g, last sign fixed to +1 (the form is odd in g),
and scores sum_i |(B g)_i|, the value at f = sign(B g), as one column of
partial sums over the low free signs plus one over the high ones: O(n
2^(n-1)) adds and O(n 2^(n/2)) memory, no BLAS, so the result does not
depend on the thread count. Among tied optima the witness may differ from
earlier versions' (a matrix-product scan); the value agrees to rounding.
The heuristic alternates sign improvements from random starts and always
returns a lower bound.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import SizeLimitError
from .space import IndexSpace

EXACT_NORM_MAX_N = 24
_LOW_BITS = 12


def l1_distance(space: IndexSpace, u, v):
    """Weighted L1 distance sum_j mu_j |u_j - v_j|; (k, n) stacks give k, each row summed alone."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape[-1:] != (space.n,) or v.shape != u.shape or u.ndim > 2:
        raise ValueError("state length does not match the space")
    d = np.sum(space.weights * np.abs(u - v), axis=-1)
    return float(d) if u.ndim == 1 else d


@dataclass(frozen=True)
class NormResult:
    """Norm value with the sign vectors that achieve it.

    ``value`` equals the bilinear form evaluated at (witness_f, witness_g);
    an empty witness (heuristic with zero restarts) reports value 0.
    """

    value: float
    method: str
    witness_f: np.ndarray
    witness_g: np.ndarray

    def to_json(self) -> str:
        return json.dumps({
            "value": self.value,
            "method": self.method,
            "witness_f": [int(v) for v in np.atleast_1d(self.witness_f)],
            "witness_g": [int(v) for v in np.atleast_1d(self.witness_g)],
        })


def _bilinear_matrix(space: IndexSpace, matrix) -> np.ndarray:
    d = np.asarray(matrix, dtype=np.float64)
    if d.shape != (space.n, space.n):
        raise ValueError("matrix shape does not match the space")
    b = np.subtract(d, d.T, out=np.empty_like(d))  # d's memory order, as mu[:, None] * d gives
    if float(np.max(np.abs(b, out=b), initial=0.0)) > 1e-12:
        raise ValueError("matrix must be symmetric")
    mu = space.weights
    np.multiply(mu[:, None], d, out=b)  # one n x n buffer: the skew check, then the product
    b *= mu[None, :]
    return b


def _sign(v: np.ndarray) -> np.ndarray:
    # ties at zero resolve to +1
    return np.where(v >= 0, 1.0, -1.0)


def _sign_sums(b: np.ndarray, cols: range, base: np.ndarray) -> np.ndarray:
    # column c: base + sum_j g_j b[:, j] over cols, g_j = -1 where bit j - cols.start
    # of c is set; the exact scan's candidate id is low column + 2^k high column
    out = base[:, None]
    for j in cols:
        out = np.concatenate((out + b[:, j:j + 1], out - b[:, j:j + 1]), axis=1)
    return out


def inf_to_one_norm_exact(space: IndexSpace, matrix) -> NormResult:
    """Exact vertex maximum for n <= 24; the lowest maximal candidate id wins."""
    b = _bilinear_matrix(space, matrix)
    n = space.n
    if n > EXACT_NORM_MAX_N:
        raise SizeLimitError(
            f"exact norm enumerates 2^(n-1) sign vectors and is limited to "
            f"n <= {EXACT_NORM_MAX_N}; use inf_to_one_norm_lower for larger n"
        )
    k = min(_LOW_BITS, n - 1)
    low = _sign_sums(b, range(k), np.zeros(n))
    high = _sign_sums(b, range(k, n - 1), b[:, n - 1])
    # buf is stored twice per column below; on a 64-byte boundary its vector stores split
    # no cache line (n = 23: 75-84 ms a scan, 97-103 ms wherever the heap misaligned it)
    raw = np.empty(low.size + 8)
    start = -raw.ctypes.data % 64 // 8
    buf = raw[start:start + low.size].reshape(low.shape)
    best_score, best_id = -1.0, 0
    for h in range(high.shape[1]):
        scores = np.abs(np.add(low, high[:, h:h + 1], out=buf), out=buf).sum(axis=0)
        c = int(np.argmax(scores))
        if scores[c] > best_score:
            best_score, best_id = float(scores[c]), c + (h << k)
    best_g = np.append(1.0 - 2.0 * ((best_id >> np.arange(n - 1)) & 1), 1.0)
    f = _sign(b @ best_g)
    return NormResult(float(abs(f @ b @ best_g)), "exact_bruteforce", f, best_g)


def inf_to_one_norm_lower(space: IndexSpace, matrix, restarts: int = 16,
                          seed: int = 0) -> NormResult:
    """Alternating sign improvement from seeded random starts.

    Always a lower bound on the exact norm; restarts=0 returns 0 with an
    empty witness. Deterministic for a fixed (restarts, seed).
    """
    b = _bilinear_matrix(space, matrix)
    n = space.n
    if restarts < 0:
        raise ValueError("restarts must be nonnegative")
    if restarts == 0:
        return NormResult(0.0, "greedy_alternation", np.zeros(0), np.zeros(0))
    rng = np.random.Generator(np.random.Philox(seed))
    best = None
    for _ in range(restarts):
        g = 1.0 - 2.0 * (rng.random(n) < 0.5)
        for _ in range(200):
            f = _sign(b @ g)
            g_next = _sign(b.T @ f)
            if np.array_equal(g_next, g):
                break
            g = g_next
        f = _sign(b @ g)
        value = float(abs(f @ b @ g))
        if best is None or value > best.value:
            best = NormResult(value, "greedy_alternation", f, g)
    return best


def gronwall_bound(d0: float, norm_wu: float, t) -> float | np.ndarray:
    """Trajectory distance bound (d0 + 2 t norm) e^{2t} for sine coupling."""
    t = np.asarray(t, dtype=np.float64)
    if d0 < 0 or norm_wu < 0 or np.any(t < 0):
        raise ValueError("gronwall_bound needs nonnegative inputs")
    out = (d0 + 2.0 * t * norm_wu) * np.exp(2.0 * t)
    return float(out) if out.ndim == 0 else out


def ghost_bound(d0: float, norm_wu: float, t) -> float | np.ndarray:
    """Symmetry-deviation bound: twice the trajectory distance bound."""
    out = gronwall_bound(d0, norm_wu, t)
    return 2.0 * out
