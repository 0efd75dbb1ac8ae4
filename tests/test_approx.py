import csv
import tracemalloc

import numpy as np
import pytest

from pncalc import approx, calculus, functions, linalg, spectra
from pncalc.errors import (
    ConfigError,
    ContourTooCloseError,
    PreconditionError,
    ToleranceError,
)

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
    # the stack of X_n, read with z^-1 I on the padding, folds to the
    # ref_dim-sized integral
    m = approx.build_model(kind, ref_dim)
    f = parse("exp(-z1)")
    cluster = approx._meas_contour(approx.lowest_cluster_contour(m, 3))
    around_zero = approx._meas_contour(spectra.Contour(0.0, 2.0))
    for n in (3, 8, 16):
        tp = approx.compress(m, n)
        for contour in (cluster, around_zero):
            [stack] = spectra._resolvent_stacks(tp.x_n, contour, eigenvalues=tp.eigenvalues)
            got = approx._padded_fold(f, [stack], [ref_dim])
            want = calculus.dunford(f, tp.x_n_padded, contour, require_full=False)
            assert linalg.op_norm(got - want) <= 1e-12 * (1.0 + linalg.op_norm(want))
        # the padding eigenvalue 0 is enclosed: its block is f(0) I
        pad = got[n:, n:]
        assert np.allclose(pad, np.eye(ref_dim - n), rtol=0.0, atol=1e-12)
        assert np.max(np.abs(got[:n, n:])) == 0.0 and np.max(np.abs(got[n:, :n])) == 0.0


def test_padded_fold_matches_padded_dunford_multivariate():
    # two factors, each read on its leading block or on its padding diagonal
    models = [approx.build_model("harmonic", 16), approx.build_model("complex_harmonic", 16)]
    f = parse("exp(-z1-2*z2)")
    contours = [approx._meas_contour(c) for c in (
        approx.lowest_cluster_contour(models[0], 2), spectra.Contour(0.0, 2.0))]
    for n in (3, 5):
        points = [approx.compress(m, n) for m in models]
        stacks = [spectra._resolvent_stacks(tp.x_n, c, eigenvalues=tp.eigenvalues)[0]
                  for tp, c in zip(points, contours)]
        got = approx._padded_fold(f, stacks, [16, 16])
        system = calculus.lift([tp.x_n_padded for tp in points])
        want = calculus.dunford_multivariate(f, system, contours, require_full=False)
        assert linalg.op_norm(got - want) <= 1e-12 * (1.0 + linalg.op_norm(want))


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

    monkeypatch.setattr(spectra, "resolvent_at_nodes", spy)
    n_list = [3, 4, 8, 16, 32]
    approx.level_experiment(m, f, -1.0, contour, n_list)
    full = [s for s in stacks if s[0] == 64]
    # one measurement stack gives both P_c and f on the reference ...
    assert [s for s in full if s[1] == meas_nodes] == [(64, meas_nodes, True)]
    # ... and no truncation is solved at ref_dim
    assert all(is_ref for _, _, is_ref in full)
    for n in n_list:
        assert (n, meas_nodes, False) in stacks


def test_error_family_refuses_contour_node_on_eigenvalue():
    # node 0 of the circle is 3, an eigenvalue of the reference: every C_f
    # route screens before it solves, so none reaches a singular solve
    m = approx.build_model("harmonic", 32)
    f = parse("exp(-z1)")
    contour = spectra.Contour(2.0, 1.0, 64)
    assert contour.points()[0] == 3.0
    with pytest.raises(ContourTooCloseError, match="quadrature circle"):
        approx.error_constant(f, m, contour, [4, 8])
    with pytest.raises(ContourTooCloseError, match="quadrature circle"):
        approx.perturbation_experiment(m.matrix_ref, np.eye(32, dtype=complex),
                                       [1e-2, 1e-3], f, -1.0, contour)
    with pytest.raises(ContourTooCloseError, match="quadrature circle"):
        approx.error_constant_multi(parse("exp(-z1-z2)"), [m, m], [contour, contour],
                                    [4, 8])


def test_one_stack_per_matrix_and_node_count(monkeypatch):
    calls = []

    def spy(x, zs):
        calls.append((x.shape, x.tobytes(), np.size(zs)))
        return linalg.resolvent_at_nodes(x, zs)

    monkeypatch.setattr(spectra, "resolvent_at_nodes", spy)
    f = parse("exp(-z1)")
    m = approx.build_model("harmonic", 32)
    n_list = [2, 3, 4, 8, 16]
    contour = approx.lowest_cluster_contour(m, 3)
    approx.level_experiment(m, f, -1.0, contour, n_list, stability_check=False)
    # one measurement stack per matrix: the reference and each X_n at size n;
    # C_f reads its sups from them, and the padding needs no 1 x 1 integral
    meas = approx._meas_contour(contour).nodes
    assert len(calls) == len(set(calls)) == 1 + len(n_list)
    assert all(nodes == meas for _, _, nodes in calls)
    assert sorted(shape for shape, _, _ in calls) == [(n, n) for n in n_list] + [(32, 32)]

    calls.clear()
    models = [m, approx.build_model("complex_harmonic", 32)]
    contours = [approx.lowest_cluster_contour(mod, 2) for mod in models]
    n_list = [2, 4, 8]
    approx.multivariate_experiment(models, parse("exp(-z1-z2)"), [-1.0, -1.0],
                                   contours, n_list)
    # per factor: the reference, and each X_n at (n, n), never padded to ref_dim
    assert len(calls) == len(set(calls)) == 2 * (1 + len(n_list))
    meas = approx._meas_contour(contours[0]).nodes
    assert all(nodes == meas for _, _, nodes in calls)
    for mod in models:
        assert (mod.matrix_ref.shape, mod.matrix_ref.tobytes(), meas) in calls
        for n in n_list:
            x_n = mod.matrix_ref[:n, :n]
            assert ((n, n), x_n.tobytes(), meas) in calls
    assert sum(1 for shape, _, _ in calls if shape == (32, 32)) == 2

    calls.clear()
    x = np.array([[1.0, 1.0], [0.0, 2.0]], dtype=complex)
    calculus.dunford(f, x, spectra.Contour(1.5, 2.0, 32), verify=True)
    # node doubling reads the 64 nodes from the factorization of the 32
    assert calls == [((2, 2), x.tobytes(), 32)]


@pytest.mark.parametrize("kind,ref_dim", [("harmonic", 32), ("complex_harmonic", 64)])
def test_experiment_c_f_equals_error_constant(kind, ref_dim):
    # the sups read from every k-th measurement node are the declared-node sups
    m = approx.build_model(kind, ref_dim)
    f = parse("exp(-z1)")
    contour = approx.lowest_cluster_contour(m, 3)
    n_list = [3, 4, 8, ref_dim // 2]
    rep = approx.level_experiment(m, f, -1.0, contour, n_list, stability_check=False)
    assert rep.c_f == approx.error_constant(f, m, contour, n_list)


def test_multivariate_c_f_equals_error_constant_multi():
    models = [approx.build_model("harmonic", 32), approx.build_model("complex_harmonic", 32)]
    f = parse("exp(-z1-z2)")
    contours = [approx.lowest_cluster_contour(mod, 2) for mod in models]
    n_list = [2, 4, 8]
    rep = approx.multivariate_experiment(models, f, [-1.0, -1.0], contours, n_list)
    assert rep.c_f == approx.error_constant_multi(f, models, contours, n_list)


def test_c_f_sup_takes_few_node_svds(monkeypatch):
    # only the maximum over the picked nodes is read: nodes whose certified
    # bound lies under the running maximum take no SVD
    picked, svds = [], []
    real_max, real_norm = linalg._max_norm, np.linalg.norm

    def count_norm(a, ord=None, *args, **kwargs):
        if ord == 2:
            svds.append(1)
        return real_norm(a, ord, *args, **kwargs)

    def spy(inv, sup=0.0):
        picked.append(len(inv))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(np.linalg, "norm", count_norm)
            return real_max(inv, sup)

    monkeypatch.setattr(linalg, "_max_norm", spy)
    m = approx.build_model("complex_harmonic", 128)
    contour = approx.lowest_cluster_contour(m, 3)
    approx.level_experiment(m, parse("exp(-z1)"), -1.25, contour, [8, 16, 32])
    # the reference and three truncations, twice: the half-size rerun
    # shares every n
    assert sum(picked) == 8 * contour.nodes
    assert 8 <= len(svds) <= sum(picked) // 10


@pytest.mark.parametrize("power", [1, 2])
@pytest.mark.parametrize("seed", range(4))
def test_norm_gate_decides_like_the_svds(seed, power):
    rng = np.random.default_rng(seed)
    a, m = (rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9)) for _ in range(2))
    m *= 10.0 ** (seed - 1)
    ratio = linalg.op_norm(a) / max(linalg.op_norm(m), 1.0) ** power
    # far from the threshold the bounds decide; next to it the SVDs do
    for factor in (1e-3, 1.0 - 1e-12, 1.0, 1.0 + 1e-12, 1e3):
        tol = ratio * factor
        want = linalg.op_norm(a) <= tol * max(linalg.op_norm(m), 1.0) ** power
        assert approx._norm_at_most(a, tol, m, power) == want


def test_oscillator_gates_still_refuse():
    harmonic = approx.build_model("harmonic", 32).matrix_ref
    skew = harmonic.copy()
    skew[0, 1] += 1e-6
    with pytest.raises(ToleranceError, match=r"not hermitian \(1\.000e-06\)"):
        approx._check_oscillator("harmonic", skew)
    shifted = harmonic.copy()
    shifted[3, 3] += 1e-6
    with pytest.raises(ToleranceError, match="deviates from diag"):
        approx._check_oscillator("harmonic", shifted)
    normal = np.diag(np.arange(1.0, 33.0) * (1.0 + 1.0j))
    with pytest.raises(ToleranceError, match="unexpectedly normal"):
        approx._check_oscillator("complex_harmonic", normal)


@pytest.mark.parametrize("nodes", [16, 48, 64, 100, 128, 200])
def test_meas_contour_is_power_of_two_refinement(nodes):
    for center, radius in ((0.0, 1.0), (3.0 - 0.5j, 2.5), (-1.25 + 7.0j, 0.3)):
        contour = spectra.Contour(center, radius, nodes)
        meas = approx._meas_contour(contour)
        k = meas.nodes // nodes
        assert meas.nodes == k * nodes and k & (k - 1) == 0
        # the smallest such refinement with at least max(256, 2 * nodes) nodes
        assert meas.nodes >= max(256, 2 * nodes) > meas.nodes // 2
        assert (meas.center, meas.radius) == (contour.center, contour.radius)
        assert np.array_equal(meas.points()[::k], contour.points())


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


# the bracket is exact in exact arithmetic; its ends and the dense SVD each
# carry rounding of order eps * ||d||
_ROUNDING = 1e-14


def _orthonormal(rng, dim, k):
    return np.linalg.qr(rng.normal(size=(dim, k)) + 1j * rng.normal(size=(dim, k)))[0]


@pytest.mark.parametrize("seed", range(6))
def test_norm_bracket_encloses_dense_norm(seed):
    rng = np.random.default_rng(seed)
    dim, k = 40, 3
    qa, qb = _orthonormal(rng, dim, 2 * k), _orthonormal(rng, dim, 2 * k)
    core = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
    inside = qa[:, :k] @ core @ qb[:, :k].conj().T
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    eye = np.eye(dim)
    outside = (eye - qa @ qa.conj().T) @ g @ (eye - qb @ qb.conj().T)
    outside /= np.linalg.norm(outside)
    for delta in (0.0, 1e-13, 1e-9, 1e-3, 1.0):
        d = inside + delta * outside
        dense = linalg.op_norm(d)
        lower, upper = approx._norm_bracket(d, qa, qb)
        assert lower <= dense * (1.0 + _ROUNDING) and dense <= upper * (1.0 + _ROUNDING)
        if delta >= 1e-9:
            # mass outside the bases: the dense norm, exactly
            assert lower == upper == dense
        else:
            assert upper - lower <= 1e-10 * lower
    # an unrelated basis always falls back to the dense norm
    other = _orthonormal(rng, dim, 2 * k)
    assert approx._norm_bracket(inside, other, other) == (linalg.op_norm(inside),) * 2
    # a bracket that lies wholly under the floor is kept, mass outside or not
    tiny = 1e-17 * (inside + outside)
    lower, upper = approx._norm_bracket(tiny, qa, qb, floor=1e-14)
    dense = linalg.op_norm(tiny)
    assert lower <= dense * (1.0 + _ROUNDING) and dense <= upper <= 1e-14
    assert upper - lower > 1e-10 * lower


def test_level2_check_reads_upper_end():
    # (n, eps_global, eps_cluster, lower, upper, probe errors): the bound
    # c_f * eps_cluster * (1 + slack) + floor lies between the two ends
    points = [(4, 1.0, 1.0, 0.9, 1.1, [0.0]), (8, 1.0, 1.0, 0.9, 0.95, [0.0])]
    rep = approx._report("harmonic", parse("exp(-z1)"), -1.0, 1.0, 0.0, points, 1)
    assert [row.level2_ok for row in rep.rows] == [False, True]
    assert [row.func_error_norm for row in rep.rows] == [0.9, 0.9]
    assert not rep.level2_pass


def test_thin_bracket_takes_no_tensor_sized_svd(monkeypatch):
    # criterion 07's inputs: every norm on the 1024-dim tensor space comes
    # from the thin bracket
    big = []
    norm, svd = np.linalg.norm, np.linalg.svd

    def spy_norm(x, ord=None, axis=None, keepdims=False):
        if ord == 2:
            big.append(max(np.shape(x)[-2:]))
        return norm(x, ord, axis, keepdims)

    def spy_svd(a, *args, **kwargs):
        big.append(max(np.shape(a)[-2:]))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", spy_norm)
    monkeypatch.setattr(np.linalg, "svd", spy_svd)
    models = [approx.build_model("harmonic", 32), approx.build_model("harmonic", 32)]
    f = parse("exp(-z1-z2)")
    contours = [approx.lowest_cluster_contour(m, 3) for m in models]
    rep = approx.multivariate_experiment(models, f, [-1.0, -1.0], contours,
                                         [2, 3, 4, 6, 8, 12, 16])
    assert rep.level2_pass and big and max(big) < 1024

    # a contour around the padding eigenvalue 0 puts f(0) on the padding
    # block: those rows fall back to the dense norm
    models = [approx.build_model("harmonic", 16), approx.build_model("harmonic", 16)]
    contours = [spectra.Contour(0.5, 2.0), approx.lowest_cluster_contour(models[1], 2)]
    big.clear()
    n_list = [2, 4]
    rep = approx.multivariate_experiment(models, f, [-1.0, -1.0], contours, n_list)
    assert big.count(256) == len(n_list)
    floor, dense = _dense_errors(models, f, contours, n_list)
    for row, want in zip(rep.rows, dense):
        assert row.func_error_norm == row.func_error_upper > floor
        assert abs(row.func_error_norm - want) <= 1e-12 * want


def _dense_errors(models, f, contours, n_list):
    """The measurement floor and each ||f(X_n) - f(X)||: dense SVDs of node
    folds of explicitly padded stacks blockdiag((zI - X_n)^{-1}, z^{-1} I)."""
    meas = [approx._meas_contour(c) for c in contours]
    ref = [spectra._resolvent_stacks(m.matrix_ref, c, eigenvalues=m.eigenvalues)[0]
           for m, c in zip(models, meas)]
    g_ref = calculus._node_fold(f, ref)
    errors = []
    for n in n_list:
        stacks = []
        for m, c in zip(models, meas):
            tp = approx.compress(m, n)
            zs, w, rs = spectra._resolvent_stacks(tp.x_n, c, eigenvalues=tp.eigenvalues)[0]
            padded = np.zeros((zs.size, m.ref_dim, m.ref_dim), dtype=complex)
            padded[:, :n, :n] = rs
            padded[:, np.arange(n, m.ref_dim), np.arange(n, m.ref_dim)] = (1.0 / zs)[:, None]
            stacks.append((zs, w, padded))
        errors.append(linalg.op_norm(calculus._node_fold(f, stacks) - g_ref))
    return approx._MEAS_FLOOR * (1.0 + linalg.op_norm(g_ref)), errors


@pytest.mark.parametrize("kinds,ref_dim,n_list", [
    (["complex_harmonic"], 64, [3, 4, 6, 8, 16, 32]),
    (["complex_harmonic"], 128, [8, 16, 32]),
    (["harmonic", "complex_harmonic"], 32, [4, 8]),
], ids=["complex_harmonic-64", "complex_harmonic-128", "harmonic+complex_harmonic-32"])
def test_thin_bracket_matches_dense_norms(kinds, ref_dim, n_list):
    models = [approx.build_model(k, ref_dim) for k in kinds]
    f = parse("exp(-z1)" if len(kinds) == 1 else "exp(-z1-z2)")
    contours = [approx.lowest_cluster_contour(m, 3) for m in models]
    if len(models) == 1:
        rep = approx.level_experiment(models[0], f, -1.0, contours[0], n_list,
                                      stability_check=False)
    else:
        rep = approx.multivariate_experiment(models, f, [-1.0] * 2, contours, n_list)
    floor, dense = _dense_errors(models, f, contours, n_list)
    for row, want in zip(rep.rows, dense):
        lower, upper = row.func_error_norm, row.func_error_upper
        assert lower <= upper
        if want > floor:
            assert abs(lower - want) <= 1e-10 * want
        else:
            assert lower <= floor and want <= floor
        assert row.level2_ok == (upper <= row.bound_rhs)


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


def test_one_factor_study_holds_one_chunk_of_resolvents():
    # n = 128 on 256 nodes: the stack of the resolvents would be 67 MB; the
    # contraction builds one chunk of inverses at a time, and the next only
    # after the last is freed
    m = approx.build_model("complex_harmonic", 128)
    contour = approx.lowest_cluster_contour(m, 3)
    meas = approx._meas_contour(contour)
    assert meas.nodes == 256
    f = parse("exp(-z1)")
    tracemalloc.start()
    try:
        stacks = spectra._resolvent_stacks(m.matrix_ref, meas, eigenvalues=m.eigenvalues)
        approx._fold_and_reads(f, stacks, [meas.nodes // contour.nodes], [128])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * linalg._CHUNK_BYTES < 16 * 256 * 128 ** 2 // 4
