import json

import numpy as np
import pytest

from graphlim import FixedPointSubspace, discretize, equivariance_audit, geodesic_kernel, \
    grid_shift_map, invariance_audit, kuramoto_model, make_grid_space, project_fixed, \
    torus_flip_map
from graphlim.cli import main


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_twisted_command(tmp_path):
    cfg = write_config(tmp_path, {
        "command": "twisted",
        "resolution": [30, 30],
        "delta": 0.15,
        "q": [1, 3],
    })
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["passed"] is True
    assert report["measured"][0] <= 1e-12
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "twisted"
    assert manifest["exit_status"] == 0
    assert list(manifest) == ["version", "command", "config", "seeds", "threads",
                              "wall_clock_s", "timestamp", "exit_status"]


def test_missing_field_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "command": "ghost", "n": 16, "p": 0.5, "seed": 3,
        "map": {"type": "swap", "i": 0, "j": 1},
        "u0": {"kind": "constant", "value": 1.0},
        "t_end": 2.0,
    })
    assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "step" in capsys.readouterr().err
    manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
    assert manifest["exit_status"] == 2
    assert manifest["error"] == "ConfigError: field 'step': missing"
    assert sorted(p.name for p in (tmp_path / "o").iterdir()) == ["manifest.json"]


def test_unknown_command_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, {"command": "fly"})
    assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "command" in capsys.readouterr().err


def test_malformed_json_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "line" in capsys.readouterr().err


def test_missing_file_exits_2(tmp_path, capsys):
    assert main(["run", str(tmp_path / "absent.json")]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_ghost_command_and_rerun_byte_identical(tmp_path):
    cfg = write_config(tmp_path, {
        "command": "ghost", "n": 16, "p": 0.5, "seed": 3,
        "map": {"type": "swap", "i": 0, "j": 1},
        "u0": {"kind": "constant", "value": 1.0},
        "t_end": 1.0, "step": 0.01, "sample_every": 10,
    })
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert main(["run", cfg, "--out", str(out1)]) == 0
    assert main(["run", cfg, "--out", str(out2)]) == 0
    assert (out1 / "series.csv").read_bytes() == (out2 / "series.csv").read_bytes()
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
    report = json.loads((out1 / "report.json").read_text())
    assert report["passed"] is True


def test_rerun_writes_new_artifact_files(tmp_path):
    import os
    cfg = {"command": "ghost", "n": 16, "p": 0.5, "seed": 3,
           "map": {"type": "swap", "i": 0, "j": 1}, "u0": {"kind": "constant", "value": 1.0},
           "t_end": 1.0, "step": 0.01, "sample_every": 10}
    out = tmp_path / "out"
    assert main(["run", write_config(tmp_path, cfg), "--out", str(out)]) == 0
    names = ("report.json", "series.csv", "manifest.json")
    old = {name: (out / name).read_bytes() for name in names}
    for name in names:
        os.link(out / name, tmp_path / f"old-{name}")
    assert main(["run", write_config(tmp_path, dict(cfg, seed=4)), "--out", str(out)]) == 0
    for name in names:  # the rerun unlinks each artifact instead of truncating it
        assert (tmp_path / f"old-{name}").read_bytes() == old[name], name
        assert (out / name).read_bytes() != old[name], name
    assert json.loads((out / "report.json").read_text())["parameters"]["seed"] == 4


def test_simulate_command(tmp_path):
    cfg = write_config(tmp_path, {
        "command": "simulate",
        "space": {"geometry": "interval", "resolution": [8]},
        "kernel": {"variant": "constant", "value": 1.0},
        "model": {"omega": 0.0, "alpha": 0.3},
        "u0": {"kind": "random_uniform", "seed": 5},
        "t_end": 0.5, "step": 0.01, "sample_every": 10,
    })
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out)]) == 0
    lines = (out / "trajectory.csv").read_text().strip().splitlines()
    assert lines[0].startswith("t,u_0")
    assert len(lines) == 7  # header + 6 samples


@pytest.mark.parametrize("system, omega", [
    ({"er": {"n": 12, "p": 0.0, "seed": 1}}, 0.5),
    ({"space": {"geometry": "interval", "resolution": [8]},
      "kernel": {"variant": "constant", "value": 0.0}}, 1.0),
], ids=["er_p0", "constant_zero"])
def test_uncoupled_network_simulates(tmp_path, system, omega):
    cfg = write_config(tmp_path, {"command": "simulate", **system, "model": {"omega": omega},
                                  "u0": {"kind": "random_uniform", "seed": 5},
                                  "t_end": 0.2, "step": 0.05})
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out)]) == 0
    traj = np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1)
    assert traj.shape[0] == 5 and np.all(np.isfinite(traj))
    assert np.allclose(traj[-1, 1:] - traj[0, 1:], 0.2 * omega, rtol=0, atol=1e-12)


def test_spherical_graphop_nan_halfwidth_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "command": "simulate",
        "spherical_graphop": {"space": {"geometry": "sphere2", "resolution": [60]},
                              "band_halfwidth": float("nan")},
        "u0": {"kind": "constant", "value": 0.0}, "t_end": 0.1, "step": 0.05,
    })
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out)]) == 2
    assert "band_halfwidth must be positive" in capsys.readouterr().err
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["error"] == "ValueError: band_halfwidth must be positive"


def test_audit_automorphism_expectation(tmp_path):
    base = {
        "command": "audit", "audit": "automorphism",
        "space": {"geometry": "interval", "resolution": [6]},
        "kernel": {"variant": "constant", "value": 0.5},
        "map": {"type": "interval_reflection"},
    }
    ok = write_config(tmp_path, dict(base, expect="graphon_automorphism"), "ok.json")
    assert main(["run", ok, "--out", str(tmp_path / "o1")]) == 0
    bad = write_config(tmp_path, dict(base, expect="neither"), "bad.json")
    assert main(["run", bad, "--out", str(tmp_path / "o2")]) == 1


def test_bad_tolerances_and_verdicts_are_config_errors(tmp_path, capsys):
    # JSON decodes NaN; a negative or NaN tolerance would fail every comparison (exit 1)
    automorphism = {
        "command": "audit", "audit": "automorphism",
        "space": {"geometry": "interval", "resolution": [6]},
        "kernel": {"variant": "constant", "value": 0.5},
        "map": {"type": "interval_reflection"},
    }
    equivariance = {
        "command": "audit", "audit": "equivariance",
        "er": {"n": 12, "p": 0.5, "seed": 3},
        "map": {"type": "swap", "i": 0, "j": 1},
        "u0": {"kind": "random_uniform", "seed": 2},
        "t_end": 0.1, "step": 0.01,
    }
    twisted = {"command": "twisted", "resolution": [6, 6], "delta": 0.2, "q": [1, 1]}
    cases = [
        (dict(automorphism, tol=-1), "tol", "expected a finite nonnegative number, got -1"),
        (dict(automorphism, tol=float("nan")), "tol",
         "expected a finite nonnegative number, got nan"),
        (dict(automorphism, tol=float("inf")), "tol",
         "expected a finite nonnegative number, got inf"),
        (dict(equivariance, threshold=-1), "threshold",
         "expected a finite nonnegative number, got -1"),
        (dict(equivariance, threshold=float("nan")), "threshold",
         "expected a finite nonnegative number, got nan"),
        (dict(automorphism, tol=10 ** 400), "tol",
         f"expected a finite nonnegative number, got {10 ** 400!r}"),
        (dict(twisted, tolerance=-1e-12), "tolerance",
         "expected a finite nonnegative number, got -1e-12"),
        (dict(automorphism, expect="graphon"), "expect",
         "unknown verdict 'graphon'; expected one of ['graphon_automorphism', "
         "'graphop_automorphism', 'measure_preserving_only', 'neither']"),
    ]
    for k, (doc, field, message) in enumerate(cases):
        out = tmp_path / f"o{k}"
        assert main(["run", write_config(tmp_path, doc), "--out", str(out)]) == 2, doc
        assert repr(field) in capsys.readouterr().err
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["exit_status"] == 2
        assert manifest["error"] == f"ConfigError: field {field!r}: {message}"
        assert sorted(p.name for p in out.iterdir()) == ["manifest.json"]
    ok = dict(automorphism, tol=0, expect="measure_preserving_only")
    assert main(["run", write_config(tmp_path, ok), "--out", str(tmp_path / "ok")]) == 1


def test_audit_equivariance_threshold(tmp_path):
    cfg = write_config(tmp_path, {
        "command": "audit", "audit": "equivariance",
        "er": {"n": 12, "p": 0.5, "seed": 3},
        "map": {"type": "permutation", "targets": [5, 0, 7, 2, 9, 4, 11, 6, 1, 8, 3, 10]},
        "u0": {"kind": "random_uniform", "seed": 2},
        "t_end": 2.0, "step": 0.01, "threshold": 1e-8,
    })
    assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 1
    report = json.loads((tmp_path / "o" / "report.json").read_text())
    assert report["passed"] is False


def test_meanfield_command(tmp_path):
    cfg = write_config(tmp_path, {
        "command": "meanfield",
        "space": {"geometry": "abstract", "weights": [1, 1, 1]},
        "kernel": {"variant": "constant", "value": 1.0},
        "particles": {"seed": 4, "count": 3},
        "t_end": 0.2, "step": 0.01, "sample_every": 10,
    })
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out)]) == 0
    lines = (out / "particles.csv").read_text().strip().splitlines()
    assert lines[0] == "t,node,particle,value"


def test_norms_command(tmp_path):
    cfg = write_config(tmp_path, {
        "command": "norms",
        "matrix": [[0.5, 0.5], [0.5, 0.5]],
        "method": "exact",
    })
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out)]) == 0
    doc = json.loads((out / "norm.json").read_text())
    assert doc["value"] == pytest.approx(0.5, abs=1e-12)
    assert doc["method"] == "exact_bruteforce"


def test_norms_restarts_past_the_cap_exit_2(tmp_path, capsys):
    cfg = write_config(tmp_path, {"command": "norms", "matrix": [[0.5, 0.5], [0.5, 0.5]],
                                  "method": "lower", "restarts": 2 ** 16 + 1})
    assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "field 'restarts': must lie in [0, 65536]" in capsys.readouterr().err


def test_norms_of_a_non_finite_matrix_exit_2(tmp_path, capsys):
    # a NaN used to pass the symmetry check and be written as "value": NaN, which is not JSON
    for method in ("exact", "lower"):
        doc = {"command": "norms", "matrix": [[0.0, float("nan")], [1.0, 0.0]], "method": method}
        cfg = write_config(tmp_path, doc, f"{method}.json")
        assert main(["run", cfg, "--out", str(tmp_path / method)]) == 2
        assert "matrix must be finite" in capsys.readouterr().err


def test_u0_kind_decides_the_state(tmp_path, capsys):
    # a state's kind is read as given: a stray "values" field neither rescues an
    # unknown kind nor overrides a constant
    base = {"command": "simulate", "space": {"geometry": "abstract", "weights": [1, 1]},
            "kernel": {"variant": "constant", "value": 0.5}, "t_end": 0.1, "step": 0.1}
    bogus = write_config(tmp_path, dict(base, u0={"kind": "bogus", "values": [0, 1]}), "b.json")
    assert main(["run", bogus, "--out", str(tmp_path / "bogus")]) == 2
    assert "field 'u0.kind': unknown initial state kind 'bogus'" in capsys.readouterr().err
    for name, u0 in (("constant", {"kind": "constant", "value": 3, "values": [0, 1]}),
                     ("plain", {"values": [3, 3]})):
        cfg = write_config(tmp_path, dict(base, u0=u0), f"{name}.json")
        assert main(["run", cfg, "--out", str(tmp_path / name)]) == 0
        rows = (tmp_path / name / "trajectory.csv").read_text().splitlines()
        assert rows[1].split(",")[1:] == ["3.0", "3.0"], rows[:2]


def test_continuity_command(tmp_path):
    cfg = write_config(tmp_path, {
        "command": "continuity",
        "space": {"geometry": "abstract", "weights": [1, 1, 1, 1]},
        "kernel_w": {"variant": "constant", "value": 1.0},
        "kernel_u": {"variant": "constant", "value": 0.0},
        "u0": {"kind": "random_uniform", "seed": 1},
        "v0": {"kind": "random_uniform", "seed": 1},
        "t_end": 0.5, "step": 0.01,
    })
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["passed"] is True


def test_map_indices_out_of_range_exit_2(tmp_path, capsys):
    ghost = {
        "command": "ghost", "n": 16, "p": 0.5, "seed": 3,
        "u0": {"kind": "constant", "value": 1.0}, "t_end": 0.1, "step": 0.01,
    }
    audit = {
        "command": "audit", "audit": "automorphism",
        "space": {"geometry": "torus", "resolution": [6, 6]},
        "kernel": {"variant": "geodesic", "delta": 0.2},
    }
    cases = [(dict(ghost, map={"type": "swap", "i": -1, "j": 0}), "swap index i -1"),
             (dict(ghost, map={"type": "swap", "i": 0, "j": 99}), "swap index j 99"),
             (dict(audit, map={"type": "torus_flip", "axis": -1}), "flip axis -1"),
             (dict(audit, map={"type": "torus_flip", "axis": 5}), "flip axis 5")]
    for k, (doc, message) in enumerate(cases):
        out = tmp_path / f"o{k}"
        assert main(["run", write_config(tmp_path, doc), "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["exit_status"] == 2
        assert manifest["error"].startswith(f"ValueError: {message} is out of range")


def test_non_finite_span_exits_2(tmp_path, capsys):
    simulate = {"command": "simulate", "space": {"geometry": "abstract", "weights": [0.5, 0.5]},
                "kernel": {"variant": "constant", "value": 1.0}, "u0": [0.0, 1.0],
                "t_end": 1.0, "step": 0.01}
    meanfield = {"command": "meanfield", "space": {"geometry": "interval", "resolution": [3]},
                 "kernel": {"variant": "constant", "value": 0.5},
                 "particles": {"seed": 1, "count": 2}, "t_end": 1.0, "step": 0.01}
    cases = [(dict(simulate, t_end=float("inf")), "t_end must be finite, got inf"),
             (dict(simulate, step=float("nan")), "step must be finite, got nan"),
             (dict(meanfield, t_end=float("-inf")), "t_end must be finite, got -inf")]
    for k, (doc, message) in enumerate(cases):
        out = tmp_path / f"o{k}"
        assert main(["run", write_config(tmp_path, doc), "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["exit_status"] == 2
        assert manifest["error"] == f"ValueError: {message}"


def test_loose_grid_resolutions_exit_2(tmp_path, capsys):
    # an int cast read [6.5, 6] as a 6x6 grid and [True, 6] as 1x6, both exit 0
    simulate = {"command": "simulate", "kernel": {"variant": "geodesic", "delta": 0.2},
                "u0": {"kind": "constant", "value": 0.0}, "t_end": 0.1, "step": 0.05}
    twisted = {"command": "twisted", "delta": 0.2, "q": [1, 1]}
    cases = [(dict(simulate, space={"geometry": "torus", "resolution": [6.5, 6]}),
              "resolution must be integers"),
             (dict(simulate, space={"geometry": "torus", "resolution": [True, 6]}),
              "resolution must be integers"),
             (dict(simulate, space={"geometry": "interval", "resolution": [6, 6]}),
              "interval resolution must be a flat list of exactly one entry"),
             (dict(simulate, space={"geometry": "sphere2", "resolution": [40, 2]}),
              "sphere2 resolution must be a flat list of exactly one entry"),
             (dict(twisted, resolution=[]), "torus resolution must be a flat list of at least"),
             (dict(twisted, resolution=[[3, 3]]), "torus resolution must be a flat list"),
             (dict(twisted, resolution=[6, 6.5]), "resolution must be integers"),
             (dict(simulate, space={"geometry": "sphere2", "resolution": [10 ** 20]}),
              "resolution must be integers, not booleans or fractions: whole numbers within "
              "int64")]
    for k, (doc, message) in enumerate(cases):
        out = tmp_path / f"o{k}"
        assert main(["run", write_config(tmp_path, doc), "--out", str(out)]) == 2, doc
        assert message in capsys.readouterr().err
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["exit_status"] == 2 and message in manifest["error"]


def test_ghost_backward_span_exits_2_before_integrating(tmp_path, capsys):
    doc = {"command": "ghost", "n": 23, "p": 0.5, "seed": 3,
           "map": {"type": "swap", "i": 0, "j": 1}, "u0": {"kind": "constant", "value": 1.0},
           "t_end": -1, "step": 0.01}
    out = tmp_path / "o"
    assert main(["run", write_config(tmp_path, doc), "--out", str(out)]) == 2
    assert "t_end must be positive" in capsys.readouterr().err
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["exit_status"] == 2
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json"]


def test_span_whose_step_count_overflows_exits_2(tmp_path, capsys):
    doc = {"command": "simulate", "space": {"geometry": "abstract", "weights": [0.5, 0.5]},
           "kernel": {"variant": "constant", "value": 1.0}, "u0": [0.0, 1.0],
           "t_end": 1e300, "step": 1e-300}
    out = tmp_path / "o"
    assert main(["run", write_config(tmp_path, doc), "--out", str(out)]) == 2
    assert "t_end / step must be finite" in capsys.readouterr().err
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["exit_status"] == 2
    assert manifest["error"] == "ValueError: t_end / step must be finite, got 1e+300 / 1e-300"


def test_span_whose_samples_exceed_memory_exits_2(tmp_path, capsys):
    doc = {"command": "simulate", "space": {"geometry": "abstract", "weights": [0.5, 0.5]},
           "kernel": {"variant": "constant", "value": 1.0}, "u0": [0.0, 1.0],
           "t_end": 1e12, "step": 1e-3}
    out = tmp_path / "o"
    assert main(["run", write_config(tmp_path, doc), "--out", str(out)]) == 2
    message = ("t_end=1000000000000.0, step=0.001 and sample_every=1 ask for "
               "1000000000000001 samples, more than memory holds")
    assert message in capsys.readouterr().err
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["exit_status"] == 2
    assert manifest["error"] == f"ValueError: {message}"


def test_er_whose_edge_keys_overflow_exits_2(tmp_path, capsys):
    doc = {"command": "simulate", "er": {"n": 10**20, "p": 0.5, "seed": 1},
           "u0": {"kind": "random_uniform", "seed": 1}, "t_end": 0.1, "step": 0.05}
    out = tmp_path / "o"
    assert main(["run", write_config(tmp_path, doc), "--out", str(out)]) == 2
    message = "n=100000000000000000000 is too large: the edge keys row * n + col must fit in int64"
    assert message in capsys.readouterr().err
    assert json.loads((out / "manifest.json").read_text())["error"] == f"ValueError: {message}"


@pytest.mark.parametrize("bounds, field, status", [
    ({"low": float("nan")}, "low", 2),
    ({"high": float("nan")}, "high", 2),
    ({"low": float("-inf")}, "low", 2),
    ({"high": float("inf")}, "high", 2),
    ({"high": 10**400}, "high", 2),  # a JSON integer past the float range
    ({"low": -1e308, "high": 1e308}, "high", 2),  # high - low overflows
    ({"low": 1e308, "high": -1e308}, "high", 2),
    ({"low": -1e308, "high": 1e307}, None, 0),
], ids=["nan_low", "nan_high", "inf_low", "inf_high", "big_int_high", "span", "negative_span",
        "wide_finite"])
def test_random_uniform_bounds_must_be_finite(tmp_path, capsys, bounds, field, status):
    doc = {"command": "simulate", "space": {"geometry": "abstract", "weights": [0.5, 0.5]},
           "kernel": {"variant": "constant", "value": 1.0},
           "u0": {"kind": "random_uniform", "seed": 1, **bounds}, "t_end": 0.1, "step": 0.05}
    out = tmp_path / "o"
    assert main(["run", write_config(tmp_path, doc), "--out", str(out)]) == status
    error = json.loads((out / "manifest.json").read_text()).get("error")
    if field is None:
        assert error is None
    else:
        assert error.startswith(f"ConfigError: field 'u0.{field}': ")
        assert f"'u0.{field}'" in capsys.readouterr().err


def test_non_integer_indices_exit_2(tmp_path, capsys):
    # numpy's int cast would run [1, 0], a shift by [1, 0] and blocks [[0, 1], [2, 3]]
    audit = {"command": "audit", "audit": "automorphism",
             "space": {"geometry": "interval", "resolution": [4]},
             "kernel": {"variant": "constant", "value": 0.5}}
    invariance = {"command": "audit", "audit": "invariance",
                  "space": {"geometry": "interval", "resolution": [4]},
                  "kernel": {"variant": "constant", "value": 0.5},
                  "u0": [1.0, 1.0, 2.0, 2.0], "t_end": 0.1, "step": 0.01}
    torus = {"geometry": "torus", "resolution": [3, 3]}
    cases = [(dict(audit, map={"type": "permutation", "targets": [1.7, 0.2, 2, 3]}),
              "map targets"),
             (dict(audit, map={"type": "permutation", "targets": [1, 0, True, 3]}),
              "map targets"),
             (dict(audit, space=torus, map={"type": "shift", "steps": [1.9, 0]}),
              "shift steps"),
             (dict(invariance, subspace={"type": "cluster", "blocks": [[0.6, 1.2], [2, 3]]}),
              "cluster blocks"),
             # whole numbers past int64 exited 3 (scaling, sphere rotation) or named no range
             (dict(audit, space=torus, map={"type": "shift", "steps": [10 ** 20, 0]}),
              "shift steps"),
             (dict(audit, map={"type": "permutation", "targets": [2 ** 63, 0, 2, 3]}),
              "map targets"),
             (dict(audit, map={"type": "scaling", "factor": 10 ** 20}), "scaling factor"),
             (dict(audit, space={"geometry": "sphere2", "resolution": [40]},
                   map={"type": "sphere_rotation", "steps": 10 ** 20}), "rotation steps")]
    for k, (doc, what) in enumerate(cases):
        out = tmp_path / f"o{k}"
        assert main(["run", write_config(tmp_path, doc), "--out", str(out)]) == 2
        message = f"{what} must be integers, not booleans or fractions: whole numbers within int64"
        assert message in capsys.readouterr().err
        assert json.loads((out / "manifest.json").read_text())["error"] == \
            f"ValueError: {message}"
    ok = dict(audit, map={"type": "permutation", "targets": [1, 0, 3, 2]},
              expect="graphon_automorphism")
    assert main(["run", write_config(tmp_path, ok), "--out", str(tmp_path / "ok")]) == 0


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
def test_internal_error_exits_3(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "command": "simulate",
        "space": {"geometry": "abstract", "weights": [0.5, 0.5]},
        "kernel": {"variant": "constant", "value": 1.0},
        "model": {"omega": 1e308},
        "u0": [1e308, 1e308],
        "t_end": 10, "step": 1.0,
    })
    assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 3
    assert "internal error: NumericError" in capsys.readouterr().err
    manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
    assert manifest["exit_status"] == 3
    assert manifest["error"].startswith("NumericError: non-finite state")
    assert manifest["config"]["model"] == {"omega": 1e308}


def test_kernel_spec_errors_name_the_field(tmp_path, capsys):
    base = {
        "command": "simulate",
        "space": {"geometry": "torus", "resolution": [6, 6]},
        "u0": {"kind": "constant", "value": 0.0},
        "t_end": 0.1, "step": 0.05,
    }
    for kernel, field in (({"variant": "geodesic"}, "delta"),
                          ({"variant": "geodesic", "delta": "wide"}, "delta"),
                          ({"variant": "canonical"}, "adjacency")):
        cfg = write_config(tmp_path, dict(base, kernel=kernel))
        assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 2
        assert repr(field) in capsys.readouterr().err
    explicit = dict(base, kernel={"variant": "geodesic", "geometry": "torus", "dim": 2,
                                  "delta": 0.2})
    assert main(["run", write_config(tmp_path, explicit), "--out", str(tmp_path / "o")]) == 0


def test_kernel_spec_values_out_of_domain_exit_2(tmp_path, capsys):
    # NaN passes a plain `<= 0` test, and a dim the geometry fixes used to be replaced
    cases = [("torus", {"variant": "geodesic", "delta": float("nan")}, "delta"),
             ("interval", {"variant": "block", "boundaries": [0.0, float("nan"), 1.0],
                           "values": [[1.0, 0.0], [0.0, 1.0]]}, "boundaries"),
             ("interval", {"variant": "geodesic", "delta": 0.2, "dim": 3}, "dim"),
             ("sphere2", {"variant": "geodesic", "delta": 0.2, "dim": 2}, "dim"),
             ("torus", {"variant": "geodesic", "delta": 0.2, "dim": 0}, "dim"),
             ("torus", {"variant": "geodesic", "delta": 0.2, "dim": -1}, "dim")]
    for k, (geometry, kernel, field) in enumerate(cases):
        doc = {"command": "simulate", "space": {"geometry": geometry, "resolution": [6]},
               "kernel": kernel, "u0": {"kind": "constant", "value": 0.0},
               "t_end": 0.1, "step": 0.05}
        out = tmp_path / f"o{k}"
        assert main(["run", write_config(tmp_path, doc), "--out", str(out)]) == 2, kernel
        assert repr(field) in capsys.readouterr().err
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["error"].startswith(f"ConfigError: field {field!r}: ")


def test_model_fields_must_be_numbers(tmp_path, capsys):
    base = {
        "command": "simulate",
        "space": {"geometry": "interval", "resolution": [4]},
        "kernel": {"variant": "constant", "value": 1.0},
        "u0": {"kind": "constant", "value": 0.0},
        "t_end": 0.1, "step": 0.05,
    }
    for model, field in (({"omega": "1.0"}, "omega"), ({"alpha": "0.3"}, "alpha")):
        out = tmp_path / field
        assert main(["run", write_config(tmp_path, dict(base, model=model)),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and repr(field) in err
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["exit_status"] == 2
        assert manifest["error"].startswith(f"ConfigError: field {field!r}: expected")
    ok = dict(base, model={"omega": 1, "alpha": 0.3})
    assert main(["run", write_config(tmp_path, ok), "--out", str(tmp_path / "ok")]) == 0


def test_internal_key_error_exits_3(tmp_path, capsys, monkeypatch):
    import graphlim.cli as cli

    def broken(cfg, out):
        return {}["missing"]

    monkeypatch.setitem(cli._COMMANDS, "simulate", broken)
    cfg = write_config(tmp_path, {"command": "simulate"})
    assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert "internal error: KeyError" in err and "config error" not in err
    manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
    assert manifest["exit_status"] == 3
    assert manifest["error"] == "KeyError: 'missing'"


def test_bools_are_not_numbers(tmp_path, capsys):
    base = {
        "command": "simulate",
        "space": {"geometry": "interval", "resolution": [4]},
        "kernel": {"variant": "constant", "value": 1.0},
        "u0": {"kind": "constant", "value": 0.0},
        "t_end": 0.1, "step": 0.05,
    }
    er = dict(base, er={"n": True, "p": 0.5, "seed": 1})
    del er["space"], er["kernel"]
    for doc, field, expected in ((dict(base, model={"omega": True}), "omega", "number"),
                                 (dict(base, t_end=True), "t_end", "number"),
                                 (er, "n", "integer")):
        out = tmp_path / field
        assert main(["run", write_config(tmp_path, doc), "--out", str(out)]) == 2
        assert repr(field) in capsys.readouterr().err
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["exit_status"] == 2
        assert manifest["error"] == \
            f"ConfigError: field {field!r}: expected {expected}, got boolean"


def test_config_errors_name_json_types():
    from graphlim.errors import ConfigError, config_field
    cases = [("x", int, "expected integer, got string"),
             (1.5, int, "expected integer, got number"),
             (2, str, "expected string, got integer"),
             (None, (int, float), "expected number, got null"),
             ([1], dict, "expected object, got array"),
             ("x", (dict, list), "expected object or array, got string"),
             (False, float, "expected number, got boolean")]
    for value, types, message in cases:
        with pytest.raises(ConfigError) as err:
            config_field({"f": value}, "f", types)
        assert str(err.value) == f"field 'f': {message}"
    assert config_field({"f": True}, "f", bool) is True


def test_optional_scalars_are_type_checked(tmp_path, capsys):
    ghost = {
        "command": "ghost", "n": 16, "p": 0.5, "seed": 3,
        "map": {"type": "swap", "i": 0, "j": 1},
        "u0": {"kind": "constant", "value": 1.0},
        "t_end": 1.0, "step": 0.01, "sample_every": "5",
    }
    audit = {
        "command": "audit", "audit": "equivariance",
        "er": {"n": 12, "p": 0.5, "seed": 3},
        "map": {"type": "swap", "i": 0, "j": 1},
        "u0": {"kind": "random_uniform", "seed": 2},
        "t_end": 2.0, "step": 0.01, "threshold": "1e-8",
    }
    for doc, field in ((ghost, "sample_every"), (audit, "threshold")):
        out = tmp_path / field
        assert main(["run", write_config(tmp_path, doc), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and repr(field) in err
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["exit_status"] == 2
        assert manifest["error"].startswith(f"ConfigError: field {field!r}: expected")
        assert sorted(p.name for p in out.iterdir()) == ["manifest.json"]


REPORT_KEYS = ["name", "parameters", "times", "measured", "bound", "comparison", "passed",
               "notes"]
TORUS = {"space": {"geometry": "torus", "resolution": [8, 8]},
         "kernel": {"variant": "geodesic", "delta": 0.3},
         "model": {"omega": 0.5, "alpha": 0.2}}
EQUIVARIANCE = dict(TORUS, command="audit", audit="equivariance",
                    map={"type": "shift", "steps": [3, 1]},
                    u0={"kind": "random_uniform", "seed": 5},
                    t_end=0.5, step=0.01, sample_every=5, threshold=1e-8)
INVARIANCE = dict(TORUS, command="audit", audit="invariance",
                  subspace={"type": "fixed", "maps": [{"type": "torus_flip", "axis": 0}]},
                  t_end=0.5, step=0.01, sample_every=10, threshold=1e-10)
VERDICT_CONFIGS = {
    "twisted": {"command": "twisted", "resolution": [12, 12], "delta": 0.2, "q": [1, 2]},
    "ghost": {"command": "ghost", "n": 10, "p": 0.5, "seed": 3,
              "map": {"type": "swap", "i": 0, "j": 1},
              "u0": {"kind": "constant", "value": 1.0},
              "t_end": 0.3, "step": 0.01, "sample_every": 10},
    "continuity": {"command": "continuity",
                   "space": {"geometry": "abstract", "weights": [1, 1, 1, 1]},
                   "kernel_w": {"variant": "constant", "value": 1.0},
                   "kernel_u": {"variant": "constant", "value": 0.5},
                   "u0": {"kind": "random_uniform", "seed": 1},
                   "v0": {"kind": "random_uniform", "seed": 2},
                   "t_end": 0.2, "step": 0.01, "sample_every": 4},
    "equivariance": EQUIVARIANCE,
}


def _invariance_state():
    space = make_grid_space("torus", (8, 8))
    u = np.random.Generator(np.random.Philox(9)).uniform(0, 2 * np.pi, space.n)
    return space, project_fixed([torus_flip_map(space, 0)], u)


def _run_verdict(tmp_path, name, doc):
    out = tmp_path / name
    assert main(["run", write_config(tmp_path, doc, f"{name}.json"),
                 "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    rows = (out / "series.csv").read_text().splitlines()
    return report, rows


def test_every_verdict_command_writes_one_report_schema(tmp_path):
    _, u0 = _invariance_state()
    configs = dict(VERDICT_CONFIGS, invariance=dict(INVARIANCE, u0=u0.tolist()))
    reports = {}
    for name, doc in configs.items():
        report, rows = reports[name] = _run_verdict(tmp_path, name, doc)
        assert list(report) == REPORT_KEYS, name
        assert report["passed"] is True, name
        assert len(report["times"]) == len(report["measured"]) == len(report["bound"])
        assert rows[0] == "t,measured,bound"
        assert len(rows) == 1 + len(report["times"]), name
        assert float(rows[1].split(",")[1]) == report["measured"][0]
    twisted, rows = reports["twisted"]
    assert twisted["times"] == [0.0] and twisted["bound"] == [1e-12]
    assert len(rows) == 2


def test_cli_audits_keep_the_series_behind_the_audit_value(tmp_path):
    space, u_inv = _invariance_state()
    system = discretize(geodesic_kernel("torus", 0.3, dim=2), space)
    model = kuramoto_model(0.5, 0.2)

    report, _ = _run_verdict(tmp_path, "equivariance", EQUIVARIANCE)
    u0 = np.random.Generator(np.random.Philox(5)).uniform(0.0, 2.0 * np.pi, space.n)
    expected = equivariance_audit(system, model, grid_shift_map(space, [3, 1]), u0,
                                  0.5, 0.01, 5)
    assert max(report["measured"]) == expected
    assert len(report["times"]) == 11

    report, _ = _run_verdict(tmp_path, "invariance", dict(INVARIANCE, u0=u_inv.tolist()))
    subspace = FixedPointSubspace([torus_flip_map(space, 0)])
    expected = invariance_audit(system, model, subspace, u_inv, 0.5, 0.01, 10)
    assert max(report["measured"]) == expected
    assert len(report["times"]) == 6


def test_audit_without_threshold_is_informational(tmp_path):
    doc = dict(EQUIVARIANCE)
    del doc["threshold"]
    report, rows = _run_verdict(tmp_path, "informational", doc)
    assert report["passed"] is None and report["bound"] is None
    assert report["comparison"] == "informational"
    assert rows[1].endswith(",")


def test_threads_is_no_longer_an_option(tmp_path, capsys, monkeypatch):
    cfg = write_config(tmp_path, {"command": "twisted", "resolution": [30, 30], "delta": 0.15,
                                  "q": [1, 3]})
    assert main(["run", cfg, "--out", str(tmp_path / "flag"), "--threads", "3"]) == 2
    assert "unrecognized arguments: --threads 3" in capsys.readouterr().err
    assert not (tmp_path / "flag").exists()
    monkeypatch.setenv("GRAPHLIM_THREADS", "two")
    assert main(["run", cfg, "--out", str(tmp_path / "env")]) == 0
    assert json.loads((tmp_path / "env" / "manifest.json").read_text())["threads"] is None


def test_maps_of_another_size_are_config_errors(tmp_path, capsys):
    # a 3-target permutation on a 5-node system: the fixed subspace used to exit 1
    # (a failed comparison) and the image subspace 0 with passed: true
    short = {"type": "permutation", "targets": [1, 0, 2]}
    er = {"er": {"n": 5, "p": 0.5, "seed": 1}}
    invariance = dict(er, command="audit", audit="invariance",
                      u0={"kind": "constant", "value": 1.0}, t_end=0.1, step=0.01,
                      threshold=1e-10)
    cases = [(dict(invariance, subspace={"type": "fixed", "maps": [short]}), "maps"),
             (dict(invariance, subspace={"type": "image", "map": short}), "map"),
             (dict(er, command="audit", audit="automorphism", map=short), "map"),
             (dict(er, command="audit", audit="equivariance", map=short,
                   u0={"kind": "constant", "value": 1.0}, t_end=0.1, step=0.01), "map"),
             ({"command": "ghost", "n": 5, "p": 0.5, "seed": 1, "map": short,
               "u0": {"kind": "constant", "value": 1.0}, "t_end": 0.1, "step": 0.01}, "map")]
    for k, (doc, field) in enumerate(cases):
        out = tmp_path / f"o{k}"
        assert main(["run", write_config(tmp_path, doc), "--out", str(out)]) == 2, doc
        message = f"field {field!r}: map acts on 3 nodes, the space has 5"
        assert message in capsys.readouterr().err
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["exit_status"] == 2 and manifest["error"] == f"ConfigError: {message}"
        assert sorted(p.name for p in out.iterdir()) == ["manifest.json"]


def test_map_parameters_past_their_period_keep_the_automorphism_verdict(tmp_path):
    # int64 arithmetic on the raw parameter made these non-permutations: verdict "neither"
    audit = {"command": "audit", "audit": "automorphism",
             "kernel": {"variant": "constant", "value": 0.5},
             "expect": "graphon_automorphism"}
    cases = [dict(audit, space={"geometry": "interval", "resolution": [5]},
                  map={"type": "shift", "steps": [2 ** 63 - 1]}),
             dict(audit, space={"geometry": "interval", "resolution": [6]},
                  map={"type": "scaling", "factor": 2 ** 62 + 1})]
    for k, doc in enumerate(cases):
        out = tmp_path / f"o{k}"
        assert main(["run", write_config(tmp_path, doc), "--out", str(out)]) == 0
        assert json.loads((out / "report.json").read_text())["verdict"] == "graphon_automorphism"
