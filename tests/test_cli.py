import csv
import hashlib
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg

from pncalc import approx, calculus, cli, functions, linalg, spectra, synth
from test_linalg import count_factorizations

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


def test_decompose_keeps_factors_and_writes_3n2_entries(tmp_path, monkeypatch):
    # k = n: every component has multiplicity 1
    n = 32
    x = synth.random_diagonalizable(np.random.default_rng(32), n, spread=2.0)
    linalg.write_cmat(tmp_path / "x.cmat", x)
    cfg = write_config(tmp_path, "dec.ini", {"input": {"matrix": tmp_path / "x.cmat"}})
    decs = []
    real = spectra.decompose

    def spy(*args, **kwargs):
        decs.append(real(*args, **kwargs))
        return decs[-1]

    monkeypatch.setattr(spectra, "decompose", spy)
    out = tmp_path / "out"
    assert cli.main(["decompose", "--config", str(cfg), "--out", str(out)]) == 0
    [dec] = decs
    assert len(dec.components) == n
    for c in dec.components:
        assert "projector" not in c.__dict__ and "nilpotent" not in c.__dict__
    lines = (out / "decomposition.txt").read_text().splitlines()
    entries = [line for line in lines if line[:1] in "-0123456789"]
    assert len(entries) == 3 * n * n


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


def test_artifacts_are_hashed_as_they_are_written(tmp_path):
    out = tmp_path / "out"
    writer = cli.ArtifactWriter(str(out))
    m = synth.random_hermitian(np.random.default_rng(5), 7)
    writer.emit("m.cmat", lambda p, sha: linalg.write_cmat(p, m, sha))
    writer.emit("t.csv", lambda p, sha: linalg._write_csv(p, [["a", "b"], ["1", "2"]], sha))
    written = {name: (out / name).read_bytes() for name in ("m.cmat", "t.csv")}
    # finalize reads nothing back: clobbered files keep their written digests
    for name in written:
        (out / name).write_bytes(b"clobbered")
    writer.finalize()
    assert read_csv(out / "manifest.csv") == [["filename", "sha256"]] + [
        [name, hashlib.sha256(data).hexdigest()] for name, data in sorted(written.items())]


def test_main_reuses_one_parser(tmp_path, mats, monkeypatch, capsys):
    def refuse():
        raise AssertionError("parser rebuilt")

    monkeypatch.setattr(cli, "build_parser", refuse)
    cfg = write_config(tmp_path, "dec.ini", {"input": {"matrix": mats[0]}})
    for i in range(2):
        assert cli.main(["decompose", "--config", str(cfg), "--out", str(tmp_path / f"o{i}")]) == 0
        with pytest.raises(SystemExit) as exc:
            cli.main(["decompose", "--config", str(cfg)])
        assert exc.value.code == 2
        assert "usage: pncalc decompose" in capsys.readouterr().err


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


def test_funcalc_factors_its_matrix_once(tmp_path, mats, monkeypatch):
    # the decomposition, the contour and the quadrature read one factorization
    calls = count_factorizations(monkeypatch)
    cfg = write_config(tmp_path, "fc.ini", {
        "input": {"matrix": mats[0]},
        "function": {"spec": "exp(z1)"},
    })
    assert cli.main(["funcalc", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert calls == [(X1.shape, X1.tobytes())]


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


def _lift_calc_formatting(tmp_path, monkeypatch, factors, spec):
    """Run lift-calc on `factors`; returns the output dir, its manifest
    digests and the number of floats the formatting kernel printed."""
    paths = {}
    for j, x in enumerate(factors):
        paths[f"matrix_{j + 1}"] = tmp_path / f"x{j + 1}.cmat"
        linalg.write_cmat(paths[f"matrix_{j + 1}"], x)
    cfg = write_config(tmp_path, "lift.ini", {"input": paths, "function": {"spec": spec},
                                               "params": {"cluster_tol": 0.01}})
    printed = []
    real = linalg._format_floats
    monkeypatch.setattr(linalg, "_format_floats", lambda v: printed.append(v.size) or real(v))
    out = tmp_path / "out"
    assert cli.main(["lift-calc", "--config", str(cfg), "--out", str(out)]) == 0
    digests = dict(read_csv(out / "manifest.csv")[1:])
    for name, digest in digests.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest
    return out, digests, sum(printed)


def test_lift_calc_formats_each_distinct_matrix_once(tmp_path, monkeypatch):
    # index-1 factors: s_mixed = s_full = 0 and value = s0 bit for bit, so one
    # matrix is formatted, one zero matrix takes the cached text, and the
    # other two files are byte copies with the same digests
    rng = np.random.default_rng(31)
    factors = [synth.random_diagonalizable(rng, 6), synth.random_hermitian(rng, 5)]
    out, digests, printed = _lift_calc_formatting(tmp_path, monkeypatch, factors,
                                                  "exp(0.5*z1+z2)")
    assert printed == 2 * 30 ** 2
    text = {k: (out / f"{k}.cmat").read_bytes() for k in ("value", "s0", "s_mixed", "s_full")}
    assert text["s0"] == text["value"] and text["s_full"] == text["s_mixed"]
    assert digests["s0.cmat"] == digests["value.cmat"]
    assert digests["s_full.cmat"] == digests["s_mixed.cmat"]
    assert not linalg.read_cmat(out / "s_mixed.cmat").any()


def test_lift_calc_formats_every_part_of_a_jordan_pair(tmp_path, monkeypatch):
    factors = [X1 + 0.5 * np.eye(2), synth.jordan_block(0.3j, 3, 0.5)]
    out, digests, printed = _lift_calc_formatting(tmp_path, monkeypatch, factors,
                                                  "exp(0.5*z1+z2)")
    assert printed == 4 * 2 * 6 ** 2
    result = calculus.func_multivariate(functions.parse_function("exp(0.5*z1+z2)"),
                                        calculus.lift(factors, cluster_tol=0.01))
    for name in ("value", "s0", "s_mixed", "s_full"):
        assert linalg.read_cmat(out / f"{name}.cmat").tobytes() == getattr(result, name).tobytes()
    assert len({digests[f"{k}.cmat"] for k in ("value", "s0", "s_mixed", "s_full")}) == 4


def test_artifact_writer_copies_only_equal_bytes(tmp_path, monkeypatch):
    # every cmat, copies too, goes through `emit`, which the benchmark times
    emitted = []
    real = cli.ArtifactWriter.emit
    monkeypatch.setattr(cli.ArtifactWriter, "emit",
                        lambda self, name, fn: emitted.append(name) or real(self, name, fn))
    writer = cli.ArtifactWriter(str(tmp_path / "out"))
    m = np.zeros((2, 3), dtype=complex)
    writer.emit_cmat("a.cmat", m)
    writer.emit_cmat("b.cmat", m.reshape(3, 2))  # same bytes, other shape
    writer.emit_cmat("c.cmat", np.negative(m))   # -0.0 everywhere
    writer.emit_cmat("d.cmat", m.copy())
    writer.finalize()
    digests = dict(read_csv(tmp_path / "out" / "manifest.csv")[1:])
    assert len({digests[k] for k in ("a.cmat", "b.cmat", "c.cmat")}) == 3
    assert digests["d.cmat"] == digests["a.cmat"]
    assert emitted == ["a.cmat", "b.cmat", "c.cmat", "d.cmat"]
    for name in digests:
        want = linalg.read_cmat(tmp_path / "out" / name)
        assert (tmp_path / "out" / name).read_bytes() == reference_cmat(want)


def reference_cmat(m):
    return "".join([f"{m.shape[0]} {m.shape[1]}\n"] + [
        f"{v.real:.16e} {v.imag:.16e}\n" for v in m.ravel()]).encode()


def test_lift_calc_cap_exit3(tmp_path, mats):
    cfg = write_config(tmp_path, "lift.ini", {
        "input": {"matrix_1": mats[0], "matrix_2": mats[1]},
        "function": {"spec": "exp(z1+z2)"},
        "params": {"cap": 2},
    })
    assert cli.main(["lift-calc", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 3


@pytest.mark.parametrize("command,key", [("funcalc", "matrix"), ("lift-calc", "matrix_1"),
                                         ("oracle-check", "matrix_1")])
def test_non_finite_f_exit3(tmp_path, capsys, command, key):
    linalg.write_cmat(tmp_path / "x.cmat", np.array([[1, 1], [0, 2]], dtype=complex))
    cfg = write_config(tmp_path, "nf.ini", {"input": {key: tmp_path / "x.cmat"},
                                            "function": {"spec": "exp(800*z1)"}})
    with np.errstate(over="ignore", invalid="ignore"):
        assert cli.main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 3
    assert ("error [precondition]: f = exp(800.0*z1) is not finite on the eigenvalue grid"
            in capsys.readouterr().err)


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


@pytest.mark.parametrize("spec", ["exp(z1+z2+z3+z4)", "prod(sin(z1+z2+z3),exp(0.5*z4-z5))"])
def test_oracle_check_random_cases_take_every_factor_of_f(tmp_path, spec):
    # random cases draw f.arity factors, four and five here
    cfg = write_config(tmp_path, "oc.ini", {
        "function": {"spec": spec},
        "random": {"count": 3, "dim": 3, "max_index": 3, "seed": 7},
    })
    out = tmp_path / "out"
    assert cli.main(["oracle-check", "--config", str(cfg), "--out", str(out)]) == 0
    header, *rows = read_csv(out / "oracle_report.csv")
    arity = functions.parse_function(spec).arity
    assert len(rows) == 3
    assert all(len(r[1].split("x")) == arity and r[-1] == "true" for r in rows)


def test_oracle_check_factors_each_matrix_once(tmp_path, monkeypatch):
    # r = 3: the decompositions, the contours and the quadrature read one
    # factorization per input matrix, and its certificate takes the one
    # SVD of that matrix (the series route takes that of X - c I, c != 0)
    factors = [X1, X2 + 0.5 * np.eye(2), synth.random_factor(np.random.default_rng(3), 3, 2, 3.0)]
    paths = {}
    for j, x in enumerate(factors):
        linalg.write_cmat(tmp_path / f"x{j}.cmat", x)
        paths[f"matrix_{j + 1}"] = tmp_path / f"x{j}.cmat"
    cfg = write_config(tmp_path, "oc.ini", {
        "input": paths, "function": {"spec": "exp(z1+z2+z3)"}})
    calls = count_factorizations(monkeypatch)
    norms = []
    real = linalg.op_norm
    for module in (linalg, spectra, calculus, approx):
        monkeypatch.setattr(module, "op_norm", lambda a: norms.append(a) or real(a))
    assert cli.main(["oracle-check", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert calls == [(x.shape, x.tobytes()) for x in factors]
    for x in factors:
        assert sum(np.array_equal(a, x) for a in norms) == 1


def test_converge_multi_refuses_past_the_tensor_cap(tmp_path, monkeypatch, capsys):
    # two 128-dim models: N = 16384, whose N x N arrays would be 4 GiB each
    def refuse(*args, **kwargs):
        raise AssertionError("the study factored a matrix")

    monkeypatch.setattr(approx, "_resolvent_stacks", refuse)
    cfg = write_config(tmp_path, "cm.ini", {
        "model_1": {"kind": "harmonic", "ref_dim": 128},
        "model_2": {"kind": "harmonic", "ref_dim": 128},
        "function": {"spec": "exp(-z1-z2)"},
        "experiment": {"n_list": "2, 3", "cluster_size_1": 2,
                       "cluster_size_2": 2, "probes": 2},
    })
    out = tmp_path / "out"
    assert cli.main(["converge-multi", "--config", str(cfg), "--out", str(out)]) == 3
    assert "tensor dimension 16384 exceeds the cap 4096" in capsys.readouterr().err


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


def _expected_converge_columns(command, cfg):
    # c_f, eps_global and eps_cluster recomputed in this process from the
    # public pieces: error_constant(_multi), resolvent_error, and eps_cluster
    # as ||(X_n_padded - X) R(z0) P_c|| with P_c = riesz_projector on the
    # measurement contour
    if command == "converge":
        mods, zs, sizes = [cfg["model"]], [cfg["experiment"]["z0"]], ["cluster_size"]
    else:
        mods = [cfg["model_1"], cfg["model_2"]]
        zs = [cfg["experiment"]["z0_1"], cfg["experiment"]["z0_2"]]
        sizes = ["cluster_size_1", "cluster_size_2"]
    exp = cfg["experiment"]
    models = [approx.build_model(m["kind"], m["ref_dim"]) for m in mods]
    contours = [approx.lowest_cluster_contour(m, exp[k], nodes=exp["nodes"])
                for m, k in zip(models, sizes)]
    f = functions.parse_function(cfg["function"]["spec"])
    if command == "converge":
        c_f = approx.error_constant(f, models[0], contours[0], exp["n_list"])
    else:
        c_f = approx.error_constant_multi(f, models, contours, exp["n_list"])
    p_cs = [spectra.riesz_projector(m.matrix_ref, approx._meas_contour(c))
            for m, c in zip(models, contours)]
    eps = []
    for n in exp["n_list"]:
        eps_g, eps_c = 0.0, 0.0
        for m, z0, p_c in zip(models, zs, p_cs):
            eps_g += approx.resolvent_error(m, n, z0)
            d = (approx.compress(m, n).x_n_padded - m.matrix_ref) @ linalg.resolvent(
                m.matrix_ref, z0)
            eps_c += linalg.op_norm(d @ p_c)
        eps.append((repr(eps_g), repr(eps_c)))
    return repr(c_f), eps


def test_converge_columns_pinned(tmp_path):
    # c_f, eps_global and eps_cluster of a small converge and converge-multi
    # run: bitwise equal to the public functions' values in this process, and
    # within 1e-12 relative of recorded values, whose last bits follow the BLAS
    # build and thread count they were recorded with
    cv = write_config(tmp_path, "cv.ini", {
        "model": {"kind": "complex_harmonic", "ref_dim": 32},
        "function": {"spec": "exp(-z1)"},
        "experiment": {"n_list": "4, 8, 16", "probes": 2, "stability": "false"},
    })
    cm = write_config(tmp_path, "cm.ini", {
        "model_1": {"kind": "harmonic", "ref_dim": 16},
        "model_2": {"kind": "complex_harmonic", "ref_dim": 16},
        "function": {"spec": "exp(-z1-z2)"},
        "experiment": {"n_list": "2, 4, 8", "cluster_size_1": 2,
                       "cluster_size_2": 2, "probes": 2},
    })
    recorded = {
        "converge": (352.2478831590003, [
            (1.0005870762187825, 1.7034027275969716),
            (1.0230437724148556, 0.5929728864998817),
            (1.0442983236591104, 0.0466073987397651)]),
        "converge-multi": (127.072193527545, [
            (1.965590888000022, 0.7453569782449222),
            (1.9692494585315194, 0.41893234267483326),
            (1.991794802697267, 0.12240850347458268)]),
    }
    for command, path in (("converge", cv), ("converge-multi", cm)):
        out = tmp_path / command
        assert cli.main([command, "--config", str(path), "--out", str(out)]) == 0
        [name] = [n for n in os.listdir(out) if n.endswith(("_level.csv", "_multi.csv"))]
        header, *rows = read_csv(out / name)
        col = {h: i for i, h in enumerate(header)}
        got_c_f = [r[col["c_f"]] for r in rows]
        got_eps = [(r[col["eps_global"]], r[col["eps_cluster"]]) for r in rows]
        c_f, eps = _expected_converge_columns(
            command, cli.load_config(str(path), cli.SCHEMAS[command]))
        assert got_c_f == [c_f] * len(eps)
        assert got_eps == eps
        rec_c_f, rec_eps = recorded[command]
        assert float(c_f) == pytest.approx(rec_c_f, rel=1e-12)
        assert [tuple(map(float, e)) for e in got_eps] == [
            pytest.approx(e, rel=1e-12) for e in rec_eps]


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


# sha256 of manifest.csv (the digest of every artifact) for four seeded runs:
# decompose recorded with the per-entry "%.16e" writers that the formatting
# kernel replaced, converge and regularize with the SVD of every node and
# resolvent norm that the certified bounds now prune, lift-calc with the
# spectral assembly from the component factors (its sums run in another
# order than the dense term stacks' did, so value, s0 and the ledger norms
# moved in their last digits) and its Hermitian factor decomposed from its
# certified eigh (value and s0 moved by 6e-15 relative, s_mixed and s_full
# kept their bytes, that factor's ledger eigenvalues became exactly real);
# converge again with f(X_n) folded at its own size and embedded with zeros
# instead of the padded fold (func_error_norm moved by at most 3e-17, every
# other column kept its bytes); the numbers underneath come from LAPACK, so
# the digests hold for the pinned numpy 2.4 / scipy 1.17 / OpenBLAS 0.3.31
# build on x86_64
SEEDED_MANIFEST_SHA256 = {
    "decompose": "7406e2df45925af428601513830253294a0e71cdc42b0e69289c7ede5f1ace00",
    "lift-calc": "1fe91b382ab0711214154f4ed435a8361d9b7c0555de4b5e0d9ca8a960bf3339",
    "converge": "05ab96d69a0067508033877daf56df3cd2670cd72a3bcfd673c15b100fe13a56",
    "regularize": "e09aaee2bc06c78c50275d8b1f968eeb15194a2efcb21cdd583de0e181b69575",
}


def _seeded_config(tmp_path, command):
    rng = np.random.default_rng(2024)
    if command == "converge":
        return write_config(tmp_path, "cv.ini", {
            "model": {"kind": "complex_harmonic", "ref_dim": 32},
            "function": {"spec": "exp(-0.9*z1)"},
            "experiment": {"z0": "-1.25", "n_list": "4, 8", "probes": 2},
        })
    if command == "regularize":
        # K = D G: seeded, decaying rows, modestly bounded next to X
        g = (rng.normal(size=(32, 32)) + 1j * rng.normal(size=(32, 32))) / np.sqrt(32)
        linalg.write_cmat(tmp_path / "k.cmat", g / np.arange(1.0, 33.0)[:, None])
        return write_config(tmp_path, "rg.ini", {
            "model": {"kind": "complex_harmonic", "ref_dim": 32},
            "perturbation": {"kind": "file", "path": tmp_path / "k.cmat"},
            "experiment": {"z0": "-1.25", "eps_list": "1e-1, 1e-2, 1e-3", "probes": 2},
        })
    if command == "decompose":
        linalg.write_cmat(tmp_path / "x.cmat", synth.random_diagonalizable(rng, 16, spread=3.0))
        return write_config(tmp_path, "dec.ini", {"input": {"matrix": tmp_path / "x.cmat"}})
    linalg.write_cmat(tmp_path / "a.cmat", synth.random_diagonalizable(rng, 6))
    linalg.write_cmat(tmp_path / "b.cmat", synth.random_hermitian(rng, 5))
    return write_config(tmp_path, "lift.ini", {
        "input": {"matrix_1": tmp_path / "a.cmat", "matrix_2": tmp_path / "b.cmat"},
        "function": {"spec": "exp(0.5*z1+z2)"},
    })


@pytest.mark.parametrize("command", sorted(SEEDED_MANIFEST_SHA256))
def test_seeded_artifacts_keep_their_bytes(tmp_path, command):
    cfg = _seeded_config(tmp_path, command)
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(cfg), "--out", str(out)]) == 0
    digest = hashlib.sha256((out / "manifest.csv").read_bytes()).hexdigest()
    assert digest == SEEDED_MANIFEST_SHA256[command]


def test_cli_import_leaves_out_scipy_signal():
    # scipy.signal takes about 1 s to import, and no module of the package
    # needs it
    src = os.path.dirname(os.path.dirname(cli.__file__))
    code = "import sys, pncalc.cli; print('scipy.signal' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "False"
