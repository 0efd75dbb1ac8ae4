import csv
import itertools
import tracemalloc

import numpy as np
import pytest

from pncalc import approx, calculus, functions, linalg, spectra
from test_linalg import count_factorizations
from pncalc.errors import (
    ConfigError,
    ContourTooCloseError,
    DimensionCapError,
    PreconditionError,
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
    lams = np.sort_complex(m.eigenvalues)
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
    # the fold of X_n at its own size, embedded with zeros, is f(X_n) (+) 0:
    # the integral of the unpadded X_n on the leading block
    m = approx.build_model(kind, ref_dim)
    cluster = approx._meas_contour(approx.lowest_cluster_contour(m, 3))
    around_zero = approx._meas_contour(spectra.Contour(0.0, 2.0))
    for f, n in itertools.product([parse("exp(-z1)"), parse("ratio(exp(-z1),poly{0:20,1:-1})")],
                                  (3, 8, 16)):
        tp = approx.compress(m, n)
        for contour in (cluster, around_zero):
            stack = spectra._resolvent_stacks(tp._factored, contour)
            rows = calculus._axis_rows(f, [stack])
            got = approx._fold_and_reads(f, [stack], [1], rows, [ref_dim])[0]
            want = embedded(calculus.dunford(f, tp.x_n, contour, require_full=False),
                            [n], [ref_dim])
            assert linalg.op_norm(got - want) <= 1e-12 * (1.0 + linalg.op_norm(want))
        # the padding eigenvalue 0 of X_n (+) 0 is enclosed, but enters no
        # integrand: its rows and columns are exactly 0
        assert np.max(np.abs(got[n:, :])) == 0.0 and np.max(np.abs(got[:, n:])) == 0.0


def embedded(a, sizes, dims):
    """a, an operator on the tensor space of `sizes`, embedded with zeros
    into the leading block of the tensor space of `dims`."""
    out = np.zeros(tuple(dims) * 2, dtype=complex)
    out[tuple(slice(n) for n in sizes) * 2] = a.reshape(list(sizes) * 2)
    return out.reshape(int(np.prod(dims)), -1)


def test_padded_fold_matches_padded_dunford_multivariate():
    # two factors: the fold of the unpadded X_n, embedded with zeros, whether
    # f folds per term or, without usable terms, over the node tuples
    models = [approx.build_model("harmonic", 16), approx.build_model("complex_harmonic", 16)]
    contours = [approx._meas_contour(c) for c in (
        approx.lowest_cluster_contour(models[0], 2), spectra.Contour(0.0, 2.0))]
    dense = "poly{" + ",".join(f"({i},{j}):{0.1 * (i + 2 * j + 1)}"
                               for i in range(6) for j in range(6 - i)) + "}"
    # an exp has one Taylor term; a ratio has none, and a product of two
    # 21-monomial polynomials 441 on 256 nodes: both fold the dense stacks
    for spec, terms in (("exp(-z1-2*z2)", 1),
                        ("ratio(exp(-z1-2*z2),poly{(0,0):6,(1,0):-1,(0,1):0.5})", None),
                        (f"prod({dense},{dense})", 441)):
        f = parse(spec)
        got_terms = f.taylor_terms([c.points() for c in contours], 0)
        assert (got_terms if terms is None else len(got_terms)) == terms, spec
        for n in (3, 5):
            points = [approx.compress(m, n) for m in models]
            stacks = [spectra._resolvent_stacks(tp._factored, c)
                      for tp, c in zip(points, contours)]
            rows = calculus._axis_rows(f, stacks)
            assert (rows is None) == (terms != 1), spec
            got = approx._fold_and_reads(f, stacks, [1, 1], rows, [16, 16])[0]
            system = calculus.lift([tp.x_n for tp in points])
            want = embedded(calculus.dunford_multivariate(f, system, contours,
                                                          require_full=False), [n, n], [16, 16])
            assert linalg.op_norm(got - want) <= 1e-12 * (1.0 + linalg.op_norm(want)), spec


def test_level_experiment_runs_contour_next_to_padding_eigenvalue():
    # the circle passes 0.05 from 0, inside the guard band 0.05 * 2.05, while
    # every eigenvalue of the reference and of X_n stays clear of it: 0 is
    # in no integrand, and each row compares f(X_n) (+) 0 with f(X)
    m = approx.build_model("anharmonic_x4", 32)
    contour = spectra.Contour(2.0, 2.05, 64)
    lams = np.sort_complex(m.eigenvalues)
    assert np.min(contour.circle_distance(lams)) > spectra.CIRCLE_GUARD * contour.radius
    f = parse("exp(-z1)")
    n_list = [2, 4, 8, 16]
    probes = approx.default_probes(32)
    rep = approx.level_experiment(m, f, -1.0, contour, n_list, probes=probes,
                                  stability_check=False)
    meas = approx._meas_contour(contour)
    g_ref = calculus.dunford(f, m.matrix_ref, meas, require_full=False)
    floor = approx._MEAS_FLOOR * (1.0 + linalg.op_norm(g_ref))
    for row, n in zip(rep.rows, n_list):
        g_n = calculus.dunford(f, approx.compress(m, n).x_n, meas, require_full=False)
        d = embedded(g_n, [n], [32]) - g_ref
        want = linalg.op_norm(d)
        assert want > floor and abs(row.func_error_norm - want) <= 1e-10 * want
        for got, u in zip(row.probe_errors, probes):
            assert abs(got - np.linalg.norm(d @ u)) <= 1e-12 * (1.0 + want)


def test_level_experiment_solves_truncations_at_their_own_size(monkeypatch):
    calls = count_factorizations(monkeypatch)
    stacks = []
    real = approx._resolvent_stacks

    def spy(factored, contour, **kwargs):
        stacks.append((len(factored.q), contour.nodes))
        return real(factored, contour, **kwargs)

    monkeypatch.setattr(approx, "_resolvent_stacks", spy)
    m = approx.build_model("complex_harmonic", 64)
    contour = approx.lowest_cluster_contour(m, 3)
    meas_nodes = approx._meas_contour(contour).nodes
    n_list = [3, 4, 8, 16, 32]
    approx.level_experiment(m, parse("exp(-z1)"), -1.0, contour, n_list)
    # one factorization per matrix, at its own size: the reference and each
    # X_n, then the half-size reference and its X_n of the stability rerun;
    # no truncation is factored at ref_dim
    half = [n for n in n_list if n <= 16]
    want = sorted([64] + n_list + [32] + half)
    assert sorted(shape[0] for shape, _ in calls) == want
    assert [x for shape, x in calls if shape[0] == 64] == [m.matrix_ref.tobytes()]
    # one measurement stack per factorization gives P_c, f and the C_f sup
    assert sorted(stacks) == [(n, meas_nodes) for n in want]


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
    calls = count_factorizations(monkeypatch)
    stacks = []
    real = approx._resolvent_stacks

    def spy(factored, contour, **kwargs):
        stacks.append((factored, contour.nodes))  # kept alive: ids stay distinct
        return real(factored, contour, **kwargs)

    monkeypatch.setattr(approx, "_resolvent_stacks", spy)
    f = parse("exp(-z1)")
    m = approx.build_model("harmonic", 32)
    n_list = [2, 3, 4, 8, 16]
    contour = approx.lowest_cluster_contour(m, 3)
    approx.level_experiment(m, f, -1.0, contour, n_list, stability_check=False)
    # one factorization and one measurement stack per matrix: the reference
    # and each X_n at size n; C_f reads its sups from them, and the padding
    # needs no 1 x 1 integral
    meas = approx._meas_contour(contour).nodes
    assert len(calls) == len(set(calls)) == 1 + len(n_list)
    assert sorted(shape for shape, _ in calls) == [(n, n) for n in n_list] + [(32, 32)]
    assert len(stacks) == len({id(fac) for fac, _ in stacks}) == 1 + len(n_list)
    assert all(nodes == meas for _, nodes in stacks)

    calls.clear()
    stacks.clear()
    models = [approx.build_model("harmonic", 32), approx.build_model("complex_harmonic", 32)]
    contours = [approx.lowest_cluster_contour(mod, 2) for mod in models]
    n_list = [2, 4, 8]
    approx.multivariate_experiment(models, parse("exp(-z1-z2)"), [-1.0, -1.0],
                                   contours, n_list)
    # per factor: the reference, and each X_n at (n, n), never padded to ref_dim
    assert len(calls) == len(set(calls)) == 2 * (1 + len(n_list))
    assert len(stacks) == len({id(fac) for fac, _ in stacks}) == 2 * (1 + len(n_list))
    meas = approx._meas_contour(contours[0]).nodes
    assert all(nodes == meas for _, nodes in stacks)
    for mod in models:
        assert (mod.matrix_ref.shape, mod.matrix_ref.tobytes()) in calls
        for n in n_list:
            x_n = mod.matrix_ref[:n, :n]
            assert ((n, n), x_n.tobytes()) in calls
    assert sum(1 for shape, _ in calls if shape == (32, 32)) == 2

    calls.clear()
    x = np.array([[1.0, 1.0], [0.0, 2.0]], dtype=complex)
    calculus.dunford(f, x, spectra.Contour(1.5, 2.0, 32), verify=True)
    # node doubling reads the 64 nodes from the factorization of the 32
    assert calls == [((2, 2), x.tobytes())]


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
    with pytest.raises(ConfigError, match="got 3 models, 3 z0s, 2 contours"):
        approx.multivariate_experiment([m1, m2, m2], f, [-1.0] * 3, [c1, c2], [2])


def test_three_factor_study_passes_level_two(tmp_path):
    # N = 16 * 8 * 8 = 1024; the 8-dim factor is the leading block of the
    # 16-dim model, itself the exact compression of the oscillator
    big = approx.build_model("anharmonic_x4", 16)
    path = tmp_path / "x8.cmat"
    linalg.write_cmat(path, big.matrix_ref[:8, :8])
    small = approx.build_model("custom_file", 8, path=path)
    models = [big, small, small]
    contours = [approx.lowest_cluster_contour(m, 2) for m in models]
    rep = approx.multivariate_experiment(models, parse("exp(-z1-z2-z3)"), [-1.0] * 3,
                                         contours, [2, 3, 4])
    assert rep.level2_pass
    errors = [row.func_error_norm for row in rep.rows]
    assert errors[0] > errors[-1] > 0.0


def test_study_refuses_a_ratio_on_three_factors(monkeypatch):
    # a ratio has no Taylor terms, so three factors fold over the node
    # tuples, 256^3 of them on the measurement contours: the quadrature's cost
    # guard refuses that from f and the contours alone, before any factorization
    calls = count_factorizations(monkeypatch)
    for name in ("_resolvent_stacks", "resolvent", "resolvent_at_nodes"):
        monkeypatch.setattr(approx, name, _refuse)
    f = parse("ratio(poly{(0,0,0):1},poly{(0,0,0):20,(1,0,0):1,(0,1,1):1})")
    models = [approx.build_model("harmonic", 16)] * 3
    contours = [spectra.Contour(1.0, 1.5, 16)] * 3
    with pytest.raises(PreconditionError, match=r"^quadrature cost guard: 16777216 node "
                       r"tuples exceed budget 300000$"):
        approx.multivariate_experiment(models, f, [-1.0] * 3, contours, [2])
    assert calls == [] and "_factored" not in vars(models[0])


def _refuse(*args, **kwargs):
    raise AssertionError("a matrix was factored")


def test_multivariate_experiment_refuses_past_the_tensor_cap(monkeypatch):
    # four 16-dim factors: N = 65536, whose N x N arrays would be 64 GiB each
    for name in ("_resolvent_stacks", "resolvent", "resolvent_at_nodes"):
        monkeypatch.setattr(approx, name, _refuse)
    models = [approx.build_model("harmonic", 16)] * 4
    contours = [spectra.Contour(1.0, 1.5, 64)] * 4
    with pytest.raises(DimensionCapError,
                       match=r"^tensor dimension 65536 exceeds the cap 4096$"):
        approx.multivariate_experiment(models, parse("exp(-z1-z2-z3-z4)"), [-1.0] * 4,
                                       contours, [2])


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

    # a contour around the padding eigenvalue 0 of X_n (+) 0: that eigenvalue
    # enters no integrand, so these rows keep the thin bracket too
    models = [approx.build_model("complex_harmonic", 16), approx.build_model("harmonic", 16)]
    contours = [spectra.Contour(0.5, 2.0), approx.lowest_cluster_contour(models[1], 2)]
    big.clear()
    n_list = [2, 4]
    rep = approx.multivariate_experiment(models, f, [-1.0, -1.0], contours, n_list)
    assert big and max(big) < 256
    floor, dense = _dense_errors(models, f, contours, n_list)
    for row, want in zip(rep.rows, dense):
        assert floor < row.func_error_norm <= row.func_error_upper
        assert row.func_error_upper - row.func_error_norm <= 1e-10 * row.func_error_norm
        assert abs(row.func_error_norm - want) <= 1e-12 * want


def _dense_errors(models, f, contours, n_list):
    """The measurement floor and each ||f(X_n) (+) 0 - f(X)||: dense SVDs of
    node folds of the stacks of X_n, explicitly embedded with zeros."""
    meas = [approx._meas_contour(c) for c in contours]
    ref = [(zs, w, rs.dense()) for zs, w, rs in
           (spectra._resolvent_stacks(m._factored, c) for m, c in zip(models, meas))]
    g_ref = _dense_fold(f, ref)
    errors = []
    for n in n_list:
        stacks = []
        for m, c in zip(models, meas):
            tp = approx.compress(m, n)
            zs, w, rs = spectra._resolvent_stacks(tp._factored, c)
            padded = np.zeros((zs.size, m.ref_dim, m.ref_dim), dtype=complex)
            padded[:, :n, :n] = rs.dense()
            stacks.append((zs, w, padded))
        errors.append(linalg.op_norm(_dense_fold(f, stacks) - g_ref))
    return approx._MEAS_FLOOR * (1.0 + linalg.op_norm(g_ref)), errors


def _dense_fold(f, stacks):
    return calculus._kron_fold(calculus._node_coeffs(f, stacks), [rs for _, _, rs in stacks])


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
    for dim, count in ((6, 3), (1024, 4)):
        probes = approx.default_probes(dim, count)
        assert len(probes) == count
        for i, u in enumerate(probes):
            assert np.linalg.norm(u) == 1.0
            assert u[i] == 1.0
            # no probe keeps a dim x dim identity alive
            assert (u if u.base is None else u.base).size <= count * dim


def test_two_factor_study_holds_g_ref_and_one_d():
    # N = 1024: each N x N complex array is 16 MiB; the study keeps f(X) and
    # the current d, and forms its residual norm in row slabs
    models = [approx.build_model("harmonic", 32)] * 2
    contours = [approx.lowest_cluster_contour(m, 3) for m in models]
    f = parse("exp(-z1-0.9*z2)")
    tracemalloc.start()
    try:
        approx.multivariate_experiment(models, f, [-1.2, -1.2], contours, [4, 8, 16],
                                       probes=approx.default_probes(1024, 4))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * 1024 ** 2 * 16


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
        stack = spectra._resolvent_stacks(linalg.resolvent_at_nodes(m.matrix_ref, ()), meas)
        rows = calculus._axis_rows(f, [stack])
        approx._fold_and_reads(f, [stack], [meas.nodes // contour.nodes], rows, [128])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * linalg._CHUNK_BYTES < 16 * 256 * 128 ** 2 // 4
