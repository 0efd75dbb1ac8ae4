import csv
import hashlib
import os

import numpy as np
import pytest
import scipy.linalg

from pncalc import cli, linalg, spectra

X1 = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)
X2 = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)


@pytest.fixture
def mats(tmp_path):
    p1 = tmp_path / "x1.cmat"
    p2 = tmp_path / "x2.cmat"
    linalg.write_cmat(p1, X1)
    linalg.write_cmat(p2, X2)
    return p1, p2


def write_config(tmp_path, name, sections):
    path = tmp_path / name
    lines = []
    for section, keys in sections.items():
        lines.append(f"[{section}]")
        lines.extend(f"{k} = {v}" for k, v in keys.items())
        lines.append("")
    path.write_text("\n".join(lines))
    return path


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_decompose_golden(tmp_path, mats, capsys):
    cfg = write_config(tmp_path, "dec.ini", {"input": {"matrix": mats[0]}})
    out = tmp_path / "out"
    assert cli.main(["decompose", "--config", str(cfg), "--out", str(out)]) == 0
    assert "1 component(s)" in capsys.readouterr().out
    dec = spectra.read_decomposition(out / "decomposition.txt")
    assert len(dec.components) == 1
    comp = dec.components[0]
    assert abs(comp.eigenvalue - 1.0) <= 1e-10
    assert comp.index == 2 and comp.multiplicity == 2
    rows = read_csv(out / "residuals.csv")
    assert rows[0] == ["invariant", "measured", "bound", "ok"]
    assert all(r[3] == "true" for r in rows[1:])


def test_decompose_residuals_are_the_decompose_report(tmp_path, mats):
    cfg = write_config(tmp_path, "dec.ini", {"input": {"matrix": mats[0]}})
    out = tmp_path / "out"
    assert cli.main(["decompose", "--config", str(cfg), "--out", str(out)]) == 0
    # the pndec record round-trips bitwise, so verifying the read-back
    # decomposition reproduces the report decompose wrote
    dec = spectra.read_decomposition(out / "decomposition.txt")
    report = spectra.verify_decomposition(X1, dec)
    rows = read_csv(out / "residuals.csv")[1:]
    assert [r[0] for r in rows] == sorted(report)
    for name, measured, bound, _ in rows:
        assert (float(measured), float(bound)) == report[name]


def test_manifest_checksums(tmp_path, mats):
    cfg = write_config(tmp_path, "dec.ini", {"input": {"matrix": mats[0]}})
    out = tmp_path / "out"
    assert cli.main(["decompose", "--config", str(cfg), "--out", str(out)]) == 0
    rows = read_csv(out / "manifest.csv")
    assert rows[0] == ["filename", "sha256"]
    names = [r[0] for r in rows[1:]]
    assert names == sorted(names)
    assert set(names) == {"decomposition.txt", "residuals.csv"}
    for name, digest in rows[1:]:
        with open(out / name, "rb") as fh:
            assert hashlib.sha256(fh.read()).hexdigest() == digest


def test_funcalc_exp_jordan(tmp_path, mats):
    cfg = write_config(tmp_path, "fc.ini", {
        "input": {"matrix": mats[0]},
        "function": {"spec": "exp(z1)"},
    })
    out = tmp_path / "out"
    assert cli.main(["funcalc", "--config", str(cfg), "--out", str(out)]) == 0
    val = linalg.read_cmat(out / "value_spectral.cmat")
    e = np.exp(1.0)
    assert np.linalg.norm(val - np.array([[e, e], [0, e]]), 2) <= 1e-12
    rows = read_csv(out / "crosscheck.csv")
    assert rows[1][4] == "true"


def test_funcalc_contour_missing_spectrum_exit3(tmp_path, mats, capsys):
    cfg = write_config(tmp_path, "fc.ini", {
        "input": {"matrix": mats[0]},
        "function": {"spec": "exp(z1)"},
        "contour": {"center": "10+0j", "radius": 1.0},
    })
    out = tmp_path / "out"
    assert cli.main(["funcalc", "--config", str(cfg), "--out", str(out)]) == 3
    assert "error [precondition]" in capsys.readouterr().err


def test_funcalc_tolerance_exit4_keeps_artifacts(tmp_path, mats, capsys):
    # an unreachable tolerance must fail loudly but still record what ran
    cfg = write_config(tmp_path, "fc.ini", {
        "input": {"matrix": mats[0]},
        "function": {"spec": "exp(z1)"},
        "contour": {"nodes": 16},
        "params": {"tol": "1e-30"},
    })
    out = tmp_path / "out"
    assert cli.main(["funcalc", "--config", str(cfg), "--out", str(out)]) == 4
    assert "error [tolerance]" in capsys.readouterr().err
    assert (out / "manifest.csv").exists()
    assert read_csv(out / "crosscheck.csv")[1][4] == "false"


def test_lift_calc_golden_pair(tmp_path, mats):
    cfg = write_config(tmp_path, "lift.ini", {
        "input": {"matrix_1": mats[0], "matrix_2": mats[1]},
        "function": {"spec": "exp(z1+z2)"},
    })
    out = tmp_path / "out"
    assert cli.main(["lift-calc", "--config", str(cfg), "--out", str(out)]) == 0
    val = linalg.read_cmat(out / "value.cmat")
    expect = np.kron(scipy.linalg.expm(X1), scipy.linalg.expm(X2))
    assert np.linalg.norm(val - expect, 2) <= 1e-9
    parts = [linalg.read_cmat(out / f"{k}.cmat") for k in ("s0", "s_mixed", "s_full")]
    assert np.linalg.norm(val - sum(parts), 2) <= 1e-10
    ledger = read_csv(out / "term_ledger.csv")
    assert ledger[0][:2] == ["lambda_1_re", "lambda_2_re"]
    assert len(ledger) == 5  # header + one row per multi-index of the pair


def test_lift_calc_cap_exit3(tmp_path, mats):
    cfg = write_config(tmp_path, "lift.ini", {
        "input": {"matrix_1": mats[0], "matrix_2": mats[1]},
        "function": {"spec": "exp(z1+z2)"},
        "params": {"cap": 2},
    })
    assert cli.main(["lift-calc", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 3


def test_oracle_check_explicit_pair(tmp_path, mats):
    cfg = write_config(tmp_path, "oc.ini", {
        "input": {"matrix_1": mats[0], "matrix_2": mats[1]},
        "function": {"spec": "exp(z1+z2)"},
    })
    out = tmp_path / "out"
    assert cli.main(["oracle-check", "--config", str(cfg), "--out", str(out)]) == 0
    rows = read_csv(out / "oracle_report.csv")
    assert rows[0][0] == "case"
    assert len(rows) == 2 and rows[1][-1] == "true"


def test_oracle_check_random_deterministic(tmp_path):
    cfg = write_config(tmp_path, "oc.ini", {
        "function": {"spec": "exp(z1+z2)"},
        "random": {"count": 3, "dim": 3, "seed": 11},
    })
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["oracle-check", "--config", str(cfg), "--out", str(out_a)]) == 0
    assert cli.main(["oracle-check", "--config", str(cfg), "--out", str(out_b)]) == 0
    assert (out_a / "oracle_report.csv").read_bytes() == \
        (out_b / "oracle_report.csv").read_bytes()
    assert (out_a / "manifest.csv").read_bytes() == (out_b / "manifest.csv").read_bytes()
    assert len(read_csv(out_a / "oracle_report.csv")) == 4
    # a different seed must actually change the sampled cases
    out_c = tmp_path / "c"
    assert cli.main(["oracle-check", "--config", str(cfg), "--out", str(out_c),
                     "--seed", "12"]) == 0
    assert (out_a / "oracle_report.csv").read_bytes() != \
        (out_c / "oracle_report.csv").read_bytes()


def test_converge_manifests_byte_identical(tmp_path):
    cfg = write_config(tmp_path, "cv.ini", {
        "model": {"kind": "harmonic", "ref_dim": 32},
        "function": {"spec": "exp(-z1)"},
        "experiment": {"n_list": "2, 4", "probes": 2, "stability": "false"},
    })
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["converge", "--config", str(cfg), "--out", str(out_a)]) == 0
    assert cli.main(["converge", "--config", str(cfg), "--out", str(out_b)]) == 0
    names = sorted(os.listdir(out_a))
    assert names == sorted(os.listdir(out_b))
    assert any(n.endswith("_level.csv") for n in names)
    for name in names:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_converge_multi_runs(tmp_path):
    cfg = write_config(tmp_path, "cm.ini", {
        "model_1": {"kind": "harmonic", "ref_dim": 16},
        "model_2": {"kind": "harmonic", "ref_dim": 16},
        "function": {"spec": "exp(-z1-z2)"},
        "experiment": {"n_list": "2, 3", "cluster_size_1": 2,
                       "cluster_size_2": 2, "probes": 2},
    })
    out = tmp_path / "out"
    assert cli.main(["converge-multi", "--config", str(cfg), "--out", str(out)]) == 0
    multi = [n for n in os.listdir(out) if n.endswith("_multi.csv")]
    assert len(multi) == 1
    rows = read_csv(out / multi[0])
    assert rows[0][0] == "n" and len(rows) == 3


def test_regularize_runs(tmp_path):
    cfg = write_config(tmp_path, "rg.ini", {
        "model": {"kind": "complex_harmonic", "ref_dim": 32},
        "experiment": {"eps_list": "1e-1, 1e-2, 1e-3", "probes": 2},
    })
    out = tmp_path / "out"
    assert cli.main(["regularize", "--config", str(cfg), "--out", str(out)]) == 0
    reg = [n for n in os.listdir(out) if n.endswith("_regularize.csv")]
    rows = read_csv(out / reg[0])
    assert rows[0][0] == "eps" and len(rows) == 4
    assert all(r[-1] == "true" for r in rows[1:])


def test_unknown_key_exit2_no_artifacts(tmp_path, mats, capsys):
    cfg = write_config(tmp_path, "dec.ini", {
        "input": {"matrix": mats[0]},
        "params": {"bogus": 3},
    })
    out = tmp_path / "out"
    assert cli.main(["decompose", "--config", str(cfg), "--out", str(out)]) == 2
    assert "error [config]" in capsys.readouterr().err
    assert not out.exists()


def test_unknown_section_exit2(tmp_path, mats):
    cfg = write_config(tmp_path, "dec.ini", {
        "input": {"matrix": mats[0]},
        "extras": {"x": 1},
    })
    assert cli.main(["decompose", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 2


def test_missing_required_key_exit2(tmp_path, mats, capsys):
    cfg = write_config(tmp_path, "fc.ini", {"input": {"matrix": mats[0]}})
    assert cli.main(["funcalc", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 2
    assert "spec" in capsys.readouterr().err


def test_bad_value_type_exit2(tmp_path, mats):
    cfg = write_config(tmp_path, "dec.ini", {
        "input": {"matrix": mats[0]},
        "params": {"tol_dec": "plenty"},
    })
    assert cli.main(["decompose", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 2


def test_decompose_and_lift_calc_have_no_nodes_key(tmp_path, mats, capsys):
    # projectors come from the Schur form; no quadrature node count is read
    configs = {
        "decompose": {"input": {"matrix": mats[0]}, "params": {"nodes": 128}},
        "lift-calc": {"input": {"matrix_1": mats[0]},
                      "function": {"spec": "exp(z1)"}, "params": {"nodes": 128}},
    }
    for command, sections in configs.items():
        cfg = write_config(tmp_path, f"{command}.ini", sections)
        assert cli.main([command, "--config", str(cfg),
                         "--out", str(tmp_path / command)]) == 2
        assert "unknown key 'nodes'" in capsys.readouterr().err


def test_missing_config_file_exit2(tmp_path, capsys):
    assert cli.main(["decompose", "--config", str(tmp_path / "nope.ini"),
                     "--out", str(tmp_path / "out")]) == 2
    assert "error [config]" in capsys.readouterr().err


def test_missing_matrix_file_exit2(tmp_path):
    cfg = write_config(tmp_path, "dec.ini",
                       {"input": {"matrix": tmp_path / "nope.cmat"}})
    assert cli.main(["decompose", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 2


def test_negative_seed_exit2(tmp_path, mats, capsys):
    cfg = write_config(tmp_path, "dec.ini", {"input": {"matrix": mats[0]}})
    assert cli.main(["decompose", "--config", str(cfg),
                     "--out", str(tmp_path / "out"), "--seed", "-1"]) == 2
    assert "seed" in capsys.readouterr().err


def test_env_override(tmp_path, mats, monkeypatch):
    cfg = write_config(tmp_path, "fc.ini", {
        "input": {"matrix": mats[0]},
        "function": {"spec": "exp(z1)"},
        "contour": {"nodes": 16},
    })
    out = tmp_path / "out"
    assert cli.main(["funcalc", "--config", str(cfg), "--out", str(out)]) == 0
    monkeypatch.setenv("PNCALC_PARAMS__TOL", "1e-30")
    assert cli.main(["funcalc", "--config", str(cfg),
                     "--out", str(tmp_path / "out2")]) == 4
