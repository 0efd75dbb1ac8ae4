import csv

import numpy as np
import pytest

from pncalc import approx, calculus, functions, linalg, spectra
from pncalc.errors import ConfigError, PreconditionError

parse = functions.parse_function


def test_harmonic_model_is_exact_diagonal():
    m = approx.build_model("harmonic", 32)
    expect = np.diag(2.0 * np.arange(32) + 1.0).astype(complex)
    assert np.linalg.norm(m.matrix_ref - expect, 2) <= 1e-12


def test_anharmonic_model_is_hermitian_banded():
    m = approx.build_model("anharmonic_x4", 32)
    x = m.matrix_ref
    assert np.linalg.norm(x - x.conj().T, 2) <= 1e-12 * np.linalg.norm(x, 2)
    # x^4 couples |n> to |n +/- 4> at most
    for k in range(5, 32):
        assert np.max(np.abs(np.diag(x, k))) <= 1e-12


def test_complex_harmonic_model_banded_non_normal():
    m = approx.build_model("complex_harmonic", 32)
    x = m.matrix_ref
    for k in range(3, 32):
        assert np.max(np.abs(np.diag(x, k))) <= 1e-12
    nn = np.linalg.norm(x @ x.conj().T - x.conj().T @ x, 2)
    assert nn > 1e-6 * np.linalg.norm(x, 2) ** 2
    # numerical range stays in the right half plane: field-of-values samples
    rng = np.random.default_rng(31)
    v = rng.normal(size=(32, 20)) + 1j * rng.normal(size=(32, 20))
    v /= np.linalg.norm(v, axis=0)
    rayleigh = np.einsum("ik,ij,jk->k", v.conj(), x, v)
    assert np.min(rayleigh.real) > 0.0


def test_jordan_toy_structure():
    m = approx.build_model("jordan_toy", 4)
    lams = np.linalg.eigvals(m.matrix_ref)
    assert sorted(np.round(lams, 6).tolist(), key=lambda z: (z.real, z.imag)) == \
        pytest.approx([1j, 1j, 1.0, 1.0], abs=1e-4)
    with pytest.raises(PreconditionError):
        approx.build_model("jordan_toy", 8)


def test_build_model_validations():
    with pytest.raises(PreconditionError):
        approx.build_model("harmonic", 8)  # below the minimum reference size
    with pytest.raises(ConfigError):
        approx.build_model("nonsense", 32)
    with pytest.raises(ConfigError):
        approx.build_model("custom_file", 4)  # needs a path


def test_custom_file_model(tmp_path):
    x = np.diag([1.0, 2.0, 3.0, 4.0]).astype(complex)
    path = tmp_path / "x.cmat"
    linalg.write_cmat(path, x)
    m = approx.build_model("custom_file", 4, path=str(path))
    assert np.array_equal(m.matrix_ref, x)
    with pytest.raises(ConfigError):
        approx.build_model("custom_file", 8, path=str(path))  # dim mismatch


def test_guard_band_invariance():
    # enlarging the guard must not change the retained block
    a = approx.build_model("anharmonic_x4", 24, guard=4).matrix_ref
    b = approx.build_model("anharmonic_x4", 24, guard=12).matrix_ref
    assert np.array_equal(a, b)


def test_compress_bounds_and_padding():
    m = approx.build_model("harmonic", 32)
    tp = approx.compress(m, 5)
    assert tp.x_n.shape == (5, 5)
    assert np.array_equal(tp.x_n_padded[:5, :5], tp.x_n)
    assert np.max(np.abs(tp.x_n_padded[5:, :])) == 0.0
    for bad in (0, 17, 32):
        with pytest.raises(PreconditionError):
            approx.compress(m, bad)


def test_resolvent_error_closed_form():
    # harmonic is diagonal: eps_n = max_{k >= n} |2k+1| / |z0 - (2k+1)|
    m = approx.build_model("harmonic", 32)
    tp = approx.compress(m, 4)
    eps = approx.resolvent_error(m, tp, -1.0)
    ks = np.arange(4, 32)
    expect = np.max((2 * ks + 1.0) / np.abs(-1.0 - (2 * ks + 1.0)))
    assert eps == pytest.approx(expect, rel=1e-12)


def test_lowest_cluster_contour_separates():
    m = approx.build_model("harmonic", 32)
    c = approx.lowest_cluster_contour(m, 3)
    lams = approx.reference_eigenvalues(m)
    inside = np.abs(lams - c.center) < c.radius
    assert int(np.sum(inside)) == 3
    assert abs(c.center - 0.0) > c.radius  # padding eigenvalue stays outside


def test_error_constant_formula_reconstruction():
    m = approx.build_model("harmonic", 32)
    f = parse("exp(-z1)")
    contour = approx.lowest_cluster_contour(m, 3)
    c_f = approx.error_constant(f, m, contour, [4, 8])
    zs = contour.points()
    m_f = float(np.max(np.abs(np.exp(-zs))))
    sup_ref = max(np.linalg.norm(np.linalg.inv(z * np.eye(32) - m.matrix_ref), 2)
                  for z in zs)
    sups = [sup_ref]
    for n in (4, 8):
        xn = m.matrix_ref[:n, :n]
        sups.append(max(np.linalg.norm(np.linalg.inv(z * np.eye(n) - xn), 2)
                        for z in zs))
    expect = contour.radius * m_f * max(sups[1:]) * sup_ref
    assert c_f == pytest.approx(expect, rel=1e-10)


def test_level_experiment_harmonic():
    m = approx.build_model("harmonic", 32)
    f = parse("exp(-z1)")
    contour = approx.lowest_cluster_contour(m, 3)
    rep = approx.level_experiment(m, f, -1.0, contour, [1, 2, 3, 4, 8],
                                  probes=approx.default_probes(32, 3))
    assert rep.level1_pass and rep.level2_pass
    by_n = {r.n: r for r in rep.rows}
    # probes inside the cluster are exact once n covers it
    assert max(by_n[3].probe_errors) <= 1e-14
    assert max(by_n[8].probe_errors) <= 1e-14
    assert by_n[1].probe_errors[1] > 1e-3
    assert rep.reference_stability == 0.0
    for r in rep.rows:
        assert r.func_error_norm <= r.bound_rhs


@pytest.mark.parametrize("kind", ["harmonic", "anharmonic_x4", "complex_harmonic"])
@pytest.mark.parametrize("ref_dim", [32, 64])
def test_truncation_integral_matches_padded_dunford(kind, ref_dim):
    # the padded truncation solved at size n equals the ref_dim-sized integral
    m = approx.build_model(kind, ref_dim)
    f = parse("exp(-z1)")
    cluster = approx._meas_contour(approx.lowest_cluster_contour(m, 3))
    around_zero = approx._meas_contour(spectra.Contour(0.0, 2.0))
    for n in (3, 8, 16):
        tp = approx.compress(m, n)
        for contour in (cluster, around_zero):
            got = approx._truncation_integral(f, tp, contour)
            want = calculus.dunford(f, tp.x_n_padded, contour, require_full=False)
            assert linalg.op_norm(got - want) <= 1e-12 * (1.0 + linalg.op_norm(want))
        # the padding eigenvalue 0 is enclosed: its block is f(0) I
        pad = got[n:, n:]
        assert np.allclose(pad, np.eye(ref_dim - n), rtol=0.0, atol=1e-12)
        assert np.max(np.abs(got[:n, n:])) == 0.0 and np.max(np.abs(got[n:, :n])) == 0.0


def test_level_experiment_refuses_contour_on_padding_eigenvalue():
    # the circle passes 0.05 from 0, inside the guard band 0.05 * 2.05, while
    # every eigenvalue of the reference and of X_n stays clear of it
    m = approx.build_model("harmonic", 32)
    contour = spectra.Contour(2.0, 2.05, 64)
    lams = approx.reference_eigenvalues(m)
    assert np.min(contour.circle_distance(lams)) > spectra.CIRCLE_GUARD * contour.radius
    with pytest.raises(PreconditionError, match="quadrature circle"):
        approx.level_experiment(m, parse("exp(-z1)"), -1.0, contour, [2, 4])


def test_level_experiment_solves_truncations_at_their_own_size(monkeypatch):
    m = approx.build_model("complex_harmonic", 64)
    f = parse("exp(-z1)")
    contour = approx.lowest_cluster_contour(m, 3)
    meas_nodes = approx._meas_contour(contour).nodes
    stacks = []

    def spy(x, zs):
        stacks.append((x.shape[0], np.size(zs), np.array_equal(x, m.matrix_ref)))
        return linalg.resolvent_at_nodes(x, zs)

    for module in (approx, calculus, spectra):
        monkeypatch.setattr(module, "resolvent_at_nodes", spy)
    n_list = [3, 4, 8, 16, 32]
    approx.level_experiment(m, f, -1.0, contour, n_list)
    full = [s for s in stacks if s[0] == 64]
    # one measurement stack gives both P_c and f on the reference ...
    assert [s for s in full if s[1] == meas_nodes] == [(64, meas_nodes, True)]
    # ... and no truncation is solved at ref_dim
    assert all(is_ref for _, _, is_ref in full)
    for n in n_list:
        assert (n, meas_nodes, False) in stacks


def test_level_experiment_monotone_on_banded_model():
    # quartic coupling needs deeper truncations before probes hit 1e-6
    m = approx.build_model("anharmonic_x4", 96)
    f = parse("exp(-z1)")
    contour = approx.lowest_cluster_contour(m, 3)
    rep = approx.level_experiment(m, f, -1.0, contour, [16, 32, 48],
                                  stability_check=False)
    assert rep.level1_pass
    seq = [max(r.probe_errors) for r in rep.rows]
    assert seq == sorted(seq, reverse=True)
    assert seq[-1] < 1e-6


def test_perturbation_experiment_bound_holds():
    m = approx.build_model("jordan_toy", 4)
    f = parse("exp(-z1)")
    contour = spectra.Contour(center=0.5 + 0.5j, radius=2.0, nodes=64)
    rep = approx.perturbation_experiment(m.matrix_ref, np.eye(4, dtype=complex),
                                         [1e-1, 1e-2, 1e-3], f, -1.0, contour)
    assert rep.level2_pass
    for row in rep.rows:
        assert row.func_error_norm <= row.bound_rhs
        assert row.func_error_norm > 0.0  # the family genuinely moves


def test_multivariate_experiment_additive_bound():
    m1 = approx.build_model("harmonic", 16)
    m2 = approx.build_model("harmonic", 16)
    f = parse("exp(-z1-z2)")
    c1 = approx.lowest_cluster_contour(m1, 2)
    c2 = approx.lowest_cluster_contour(m2, 2)
    rep = approx.multivariate_experiment([m1, m2], f, [-1.0, -1.0], [c1, c2],
                                         [2, 3, 4])
    assert rep.level2_pass and rep.level1_pass
    with pytest.raises(PreconditionError):
        approx.multivariate_experiment([m1], f, [-1.0], [c1], [2])


def test_regularization_sweep_bounds_and_order():
    m = approx.build_model("complex_harmonic", 32)
    k = np.diag(1.0 / np.arange(1.0, 33.0)).astype(complex)
    rep = approx.regularization_sweep(m.matrix_ref, k, [1e-1, 1e-3, 1e-2], -1.0)
    assert [row.eps for row in rep.rows] == [1e-1, 1e-2, 1e-3]  # sorted desc
    assert rep.strictly_decreasing and rep.bound_pass
    for row in rep.rows:
        for err, bnd in zip(row.probe_errors, row.probe_bounds):
            assert err <= bnd
    big_k = 100.0 * np.eye(32, dtype=complex) * linalg.op_norm(m.matrix_ref)
    with pytest.raises(PreconditionError):
        approx.regularization_sweep(m.matrix_ref, big_k, [1e-2], -1.0)


def test_convergence_csv_layout(tmp_path):
    m = approx.build_model("harmonic", 32)
    f = parse("exp(-z1)")
    contour = approx.lowest_cluster_contour(m, 3)
    rep = approx.level_experiment(m, f, -1.0, contour, [2, 4],
                                  probes=approx.default_probes(32, 2),
                                  stability_check=False)
    path = tmp_path / "level.csv"
    approx.write_convergence_csv(path, rep)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["n", "eps_global", "eps_cluster", "func_error_norm",
                       "probe_err_0", "probe_err_1", "c_f", "bound_rhs", "level2_ok"]
    assert len(rows) == 3
    assert rows[1][0] == "2" and rows[2][0] == "4"
    assert rows[1][8] in ("true", "false")
    # floats use repr: parse back exactly
    assert float(rows[1][1]) == rep.rows[0].eps_global


def test_regularization_csv_layout(tmp_path):
    m = approx.build_model("harmonic", 32)
    k = np.diag(1.0 / np.arange(1.0, 33.0)).astype(complex)
    rep = approx.regularization_sweep(m.matrix_ref, k, [1e-2, 1e-3], -1.0,
                                      probes=approx.default_probes(32, 2))
    path = tmp_path / "reg.csv"
    approx.write_regularization_csv(path, rep)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["eps", "probe_err_0", "probe_err_1",
                       "probe_bound_0", "probe_bound_1", "norm_error", "ok"]
    assert len(rows) == 3


def test_default_probes_are_basis_vectors():
    probes = approx.default_probes(6, 3)
    assert len(probes) == 3
    for i, u in enumerate(probes):
        assert np.linalg.norm(u) == 1.0
        assert u[i] == 1.0
