import json

import pytest

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
    assert report["residual"] <= 1e-12
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "twisted"
    assert manifest["exit_status"] == 0


def test_missing_field_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "command": "ghost", "n": 16, "p": 0.5, "seed": 3,
        "map": {"type": "swap", "i": 0, "j": 1},
        "u0": {"kind": "constant", "value": 1.0},
        "t_end": 2.0,
    })
    assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "step" in capsys.readouterr().err


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
