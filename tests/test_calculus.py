import csv
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from pncalc import approx, calculus, functions, linalg, spectra, synth
from pncalc.errors import (
    ConfigError,
    DimensionCapError,
    DomainError,
    PreconditionError,
)

parse = functions.parse_function

X1 = np.array([[1, 1], [0, 1]], dtype=complex)
X2 = np.array([[0, 0], [1, 0]], dtype=complex)


def _golden_pair_values():
    # four-term expansion on the lifted pair: f_ox = sum over alpha of
    # d^alpha f(1, 0)/alpha! * N1^a1 kron N2^a2 (both projectors are I)
    i4 = np.eye(4, dtype=complex)
    n1 = np.kron(X1 - np.eye(2), np.eye(2))
    n2 = np.kron(np.eye(2), X2)
    e = np.e
    return {
        "poly{(1,1):1}": n2 + n1 @ n2,
        "exp(z1+z2)": e * (i4 + n1 + n2 + n1 @ n2),
        "prod(exp(z1),poly{(0,0):1,(0,1):1})": e * (i4 + n1 + n2 + n1 @ n2),
        "poly{(0,1):1,(1,1):2,(2,1):1}": 4 * n2 + 4 * n1 @ n2,
        # 1/(4 - z1 - z2): d^alpha f(1, 0) = |alpha|! / 3^(|alpha| + 1)
        "ratio(poly{(0,0):1},poly{(0,0):4,(1,0):-1,(0,1):-1})":
            i4 / 3 + n1 / 9 + n2 / 9 + 2 * n1 @ n2 / 27,
    }


def _enclosing(x, nodes=64):
    lams = linalg.eig(x).eigenvalues
    c = complex(lams.mean())
    rmax = float(np.max(np.abs(lams - c)))
    return spectra.Contour(center=c, radius=1.5 * rmax + 0.5, nodes=nodes)


def test_golden_pair_all_routes():
    system = calculus.lift([X1, X2])
    contours = [spectra.Contour(center=1.0, radius=1.0, nodes=64),
                spectra.Contour(center=0.0, radius=1.0, nodes=64)]
    for spec, gold in _golden_pair_values().items():
        f = parse(spec)
        spectral = calculus.func_multivariate(f, system).value
        quad = calculus.dunford_multivariate(f, system, contours)
        series = calculus.power_series_apply(f, system)
        for val in (spectral, quad, series):
            assert np.linalg.norm(val - gold, 2) <= 1e-9, spec


def test_jordan_index_sweep_matches_expm():
    # f(J) for a nu x nu Jordan block needs d^k f(lambda)/k! up to k = nu - 1
    # (Higham, Functions of Matrices, ch. 1); on a pair of blocks the
    # assembly reads mixed orders up to (nu - 1, nu - 1)
    rng = np.random.default_rng(12)
    f = parse("exp(z1+z2)")
    t0 = time.perf_counter()
    for nu in range(2, 13):
        blocks = []
        for _ in range(2):
            lam = complex(*rng.uniform(-0.5, 0.5, size=2))
            q, _ = np.linalg.qr(rng.normal(size=(nu, nu)))
            blocks.append(q @ (lam * np.eye(nu) + 0.3 * np.eye(nu, k=1)) @ q.T)
        system = calculus.lift(blocks, cluster_tol=0.5)
        val = calculus.func_multivariate(f, system).value
        ref = np.kron(expm(blocks[0]), expm(blocks[1]))
        assert np.linalg.norm(val - ref, 2) <= 1e-12 * np.linalg.norm(ref, 2), nu
    assert time.perf_counter() - t0 < 2.0


def test_dunford_reproduces_nilpotent_jordan():
    # quadrature of exp around a defective eigenvalue recovers the full
    # Jordan column: exp(J_2(0)) = [[1, 1], [0, 1]]
    j = np.array([[0, 1], [0, 0]], dtype=complex)
    c = spectra.Contour(center=0.0, radius=1.0, nodes=128)
    val = calculus.dunford(parse("exp(z1)"), j, c)
    assert np.linalg.norm(val - np.array([[1, 1], [0, 1]]), 2) <= 1e-12


def test_func_univariate_matches_expm():
    rng = np.random.default_rng(21)
    x = synth.random_diagonalizable(rng, 5, cond=4.0)
    dec = spectra.decompose(x, cluster_tol=1e-4 * max(1.0, linalg.op_norm(x)))
    val = calculus.func_univariate(parse("exp(z1)"), dec).value
    assert np.linalg.norm(val - expm(x), 2) <= 1e-9 * max(1.0, np.linalg.norm(expm(x), 2))


def test_three_term_split_returns_components():
    system = calculus.lift([X1, X2])
    res = calculus.func_multivariate(parse("exp(z1+z2)"), system)
    s0, s_mixed, s_full = calculus.three_term_split(res)
    assert np.array_equal(s0, res.s0)
    assert np.array_equal(s_mixed, res.s_mixed)
    assert np.array_equal(s_full, res.s_full)
    # on the golden pair: s0 = e * I, mixed = e (N1 + N2), full = e N1 N2
    n1 = np.kron(X1 - np.eye(2), np.eye(2))
    n2 = np.kron(np.eye(2), X2)
    assert np.linalg.norm(s0 - np.e * np.eye(4), 2) <= 1e-12
    assert np.linalg.norm(s_mixed - np.e * (n1 + n2), 2) <= 1e-12
    assert np.linalg.norm(s_full - np.e * (n1 @ n2), 2) <= 1e-12


def test_split_sums_to_value_and_r1_convention():
    system = calculus.lift([X1, X2])
    res = calculus.func_multivariate(parse("exp(z1+z2)"), system)
    recon = res.s0 + res.s_mixed + res.s_full
    assert np.linalg.norm(res.value - recon, 2) <= 1e-13 * max(1.0, np.linalg.norm(res.value, 2))
    # r = 1: no partial-support multi-indices exist
    dec = spectra.decompose(X1)
    one = calculus.func_univariate(parse("exp(z1)"), dec)
    assert np.linalg.norm(one.s_mixed, 2) == 0.0
    assert np.linalg.norm(one.s_full, 2) > 0.0  # the nilpotent column


def test_hermitian_factors_collapse_to_s0():
    rng = np.random.default_rng(22)
    factors = [synth.random_hermitian(rng, 3), synth.random_hermitian(rng, 4)]
    system = calculus.lift(factors)
    res = calculus.func_multivariate(parse("exp(-z1-z2)"), system)
    scale = np.linalg.norm(res.value, 2)
    assert np.linalg.norm(res.s_mixed, 2) <= 1e-10 * scale
    assert np.linalg.norm(res.s_full, 2) <= 1e-10 * scale
    # cross-check against direct eigendecompositions
    gold = np.kron(expm(-factors[0]), expm(-factors[1]))
    assert np.linalg.norm(res.value - gold, 2) <= 1e-10 * scale


def test_linearity_in_the_function():
    system = calculus.lift([X1, X2])
    f = parse("exp(z1+z2)")
    g = parse("poly{(1,1):1,(0,2):-0.5}")
    combo = functions.Sum(f, g)
    lhs = calculus.func_multivariate(combo, system).value
    rhs = (calculus.func_multivariate(f, system).value
           + calculus.func_multivariate(g, system).value)
    assert np.linalg.norm(lhs - rhs, 2) <= 1e-12 * max(1.0, np.linalg.norm(rhs, 2))


def test_coordinate_and_constant_functions():
    system = calculus.lift([X1, X2])
    z1 = calculus.func_multivariate(parse("poly{(1,0):1}"), system).value
    assert np.linalg.norm(z1 - system.lifted_matrix(0), 2) <= 1e-12
    one = calculus.func_multivariate(parse("poly{(0,0):1}"), system).value
    assert np.linalg.norm(one - np.eye(4), 2) <= 1e-12


def test_morphism_product_rule():
    # f*g applied to the family equals f applied times g applied
    rng = np.random.default_rng(23)
    factors = [synth.random_diagonalizable(rng, 3, cond=3.0),
               synth.random_hermitian(rng, 3)]
    ctol = 1e-4 * max(1.0, max(linalg.op_norm(m) for m in factors))
    system = calculus.lift(factors, cluster_tol=ctol)
    g = parse("poly{(0,1):1,(0,0):1}")
    fg = parse("prod(exp(z1),poly{(0,1):1,(0,0):1})")  # parser pads exp to arity 2
    lhs = calculus.func_multivariate(fg, system).value
    rhs = (calculus.func_multivariate(parse("exp(z1+0*z2)"), system).value
           @ calculus.func_multivariate(g, system).value)
    assert np.linalg.norm(lhs - rhs, 2) <= 1e-10 * max(1.0, np.linalg.norm(rhs, 2))


def test_lift_validations():
    with pytest.raises(ConfigError):
        calculus.lift([])
    with pytest.raises(DimensionCapError):
        calculus.lift([np.eye(70, dtype=complex), np.eye(70, dtype=complex)])
    system = calculus.lift([X1, X2])
    with pytest.raises(ConfigError):
        calculus.func_multivariate(parse("exp(z1)"), system)  # arity mismatch


def test_lifts_commute_exactly():
    rng = np.random.default_rng(24)
    factors = [synth.random_hermitian(rng, 4), synth.random_diagonalizable(rng, 3),
               synth.random_hermitian(rng, 2)]
    system = calculus.lift(factors, cluster_tol=1e-4 * 4)
    for i in range(3):
        for j in range(i + 1, 3):
            li, lj = system.lifted_matrix(i), system.lifted_matrix(j)
            comm = li @ lj - lj @ li
            assert np.max(np.abs(comm)) == 0.0  # bitwise, by kron structure


def test_dunford_requires_enclosure():
    x = np.diag([0.0, 5.0]).astype(complex)
    c = spectra.Contour(center=0.0, radius=1.0, nodes=64)
    with pytest.raises(PreconditionError):
        calculus.dunford(parse("exp(z1)"), x, c)  # eigenvalue 5 left outside
    # partial mode restricts to the enclosed cluster instead
    val = calculus.dunford(parse("exp(z1)"), x, c, require_full=False)
    assert np.linalg.norm(val - np.diag([1.0, 0.0]), 2) <= 1e-12


def test_dunford_rejects_pole_inside():
    x = np.diag([0.0, 0.5]).astype(complex)
    c = spectra.Contour(center=0.0, radius=1.0, nodes=64)
    f = parse("ratio(poly{0:1},poly{0:0.75,1:-1})")  # pole at 0.75
    with pytest.raises(DomainError):
        calculus.dunford(f, x, c)


def test_dunford_multivariate_budget_guard():
    system = calculus.lift([X1, X2, X2])
    contours = [spectra.Contour(center=0.5, radius=2.0, nodes=128)] * 3
    with pytest.raises(PreconditionError):
        calculus.dunford_multivariate(parse("exp(z1+z2+z3)"), system, contours)


def test_power_series_divergence_detected():
    from pncalc.errors import TailBoundError
    x = np.diag([0.0, 2.0]).astype(complex)
    system = calculus.lift([x])
    f = parse("ratio(poly{0:1},poly{0:1.2,1:-1})")  # pole at 1.2 inside the spread
    with pytest.raises((TailBoundError, DomainError)):
        calculus.power_series_apply(f, system, center=(0.0,))


def test_term_ledger_csv(tmp_path):
    system = calculus.lift([X1, X2])
    res = calculus.func_multivariate(parse("exp(z1+z2)"), system)
    assert len(res.term_ledger) == 4  # two q-levels per factor
    path = tmp_path / "ledger.csv"
    calculus.write_term_ledger(path, res)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["lambda_1_re", "lambda_2_re", "lambda_1_im", "lambda_2_im",
                       "alpha_1", "alpha_2", "contribution_norm"]
    assert len(rows) == 5
    # magnitude of the alpha = (0,0) term is |f(1,0)| * ||P1 kron P2|| = e
    lead = [r for r in rows[1:] if r[4] == "0" and r[5] == "0"]
    assert len(lead) == 1
    assert float(lead[0][6]) == pytest.approx(np.e, rel=1e-12)


def test_power_series_agrees_on_entire_functions():
    rng = np.random.default_rng(25)
    x = synth.random_jordan_matrix(rng, 4, max_index=2, cond=4.0)[0]
    system = calculus.lift([x], cluster_tol=1e-3 * max(1.0, linalg.op_norm(x)))
    f = parse("sin(0.3*z1)")
    series = calculus.power_series_apply(f, system)
    spectral = calculus.func_multivariate(f, system).value
    assert np.linalg.norm(series - spectral, 2) <= 1e-10 * max(1.0, np.linalg.norm(spectral, 2))


def test_power_series_certifies_product_beyond_unit_radius():
    # ||X1 - c1 I|| > 1: an FFT coefficient floor near 1e-17 would grow like
    # radius^k and stall the tail bound
    x1 = np.array([[-1.0, 1.0], [0.0, 1.5]], dtype=complex)
    x2 = np.array([[0.5, 1.0], [0.0, -0.5]], dtype=complex)
    system = calculus.lift([x1, x2])
    center = [complex(np.mean(d.eigenvalues)) for d in system.decompositions]
    assert linalg.op_norm(x1 - center[0] * np.eye(2)) > 1.0
    f = parse("prod(exp(z1),poly{(0,0):1,(0,1):1})")
    series = calculus.power_series_apply(f, system)
    expect = np.kron(expm(x1), np.eye(2) + x2)
    assert np.linalg.norm(series - expect, 2) <= 1e-10 * np.linalg.norm(expect, 2)


def test_dunford_multivariate_broadcasts_constant_and_one_variable_specs():
    # the node grid is sparse; each spec must still fill the full 3-axis shape
    system = calculus.lift([X1, X2, X2])
    contours = [spectra.Contour(center=1.0, radius=1.0, nodes=32),
                spectra.Contour(center=0.0, radius=1.0, nodes=32),
                spectra.Contour(center=0.0, radius=1.0, nodes=32)]
    for spec in ("poly{(0,0,0):2}", "sin(z3)"):
        f = parse(spec)
        spectral = calculus.func_multivariate(f, system).value
        quad = calculus.dunford_multivariate(f, system, contours)
        assert quad.shape == (8, 8)
        assert np.linalg.norm(quad - spectral, 2) <= 1e-12, spec


def test_three_factor_fold_never_forms_the_node_tuple_tensor():
    # 64^3 node tuples are a 4 MB coefficient tensor; a ratio has no axis
    # terms, so the fold takes it one first-factor slab at a time and must
    # keep the whole tensor's bits
    x3 = np.array([[2, 1, 0], [0, 2, 1], [0, 0, 2]], dtype=complex)
    factors = [x3, X2, np.diag([0.5, -0.5, 1j, -1j]).astype(complex)]
    f = parse("ratio(prod(exp(z1+2*z2-z3),sin(z2+0.5*z3)),"
              "poly{(0,0,0):20,(1,0,0):1,(0,1,1):1})")
    assert f.axis_terms([np.ones(2)] * 3) is None
    stacks = [spectra._resolvent_stacks(x, _enclosing(x))[0] for x in factors]
    whole = calculus._kron_fold(calculus._node_coeffs(f, stacks),
                                [np.asarray(rs) for _, _, rs in stacks])
    tracemalloc.start()
    try:
        fold = calculus._node_fold(f, stacks)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(fold, whole)
    assert peak < 16 * 64 ** 3 // 4


def _refuse_decompose(*args, **kwargs):
    raise AssertionError("decompose called")


def test_quadrature_routes_decompose_nothing(monkeypatch):
    monkeypatch.setattr(calculus, "decompose", _refuse_decompose)
    system = calculus.lift([X1, X2])
    contours = [spectra.Contour(center=1.0, radius=1.0, nodes=64),
                spectra.Contour(center=0.0, radius=1.0, nodes=64)]
    f = parse("exp(z1+z2)")
    gold = _golden_pair_values()["exp(z1+z2)"]
    quad = calculus.dunford_multivariate(f, system, contours)
    assert np.linalg.norm(quad - gold, 2) <= 1e-9
    m1 = approx.build_model("harmonic", 16)
    m2 = approx.build_model("harmonic", 16)
    c1 = approx.lowest_cluster_contour(m1, 2)
    c2 = approx.lowest_cluster_contour(m2, 2)
    rep = approx.multivariate_experiment([m1, m2], parse("exp(-z1-z2)"),
                                         [-1.0, -1.0], [c1, c2], [2, 3])
    assert rep.level2_pass


def test_each_factor_decomposed_once(monkeypatch):
    seen = []

    def counting(x, **kwargs):
        seen.append(x)
        return spectra.decompose(x, **kwargs)

    monkeypatch.setattr(calculus, "decompose", counting)
    system = calculus.lift([X1, X2])
    assert seen == []
    f = parse("exp(z1+z2)")
    calculus.func_multivariate(f, system)
    calculus.power_series_apply(f, system)
    assert len(seen) == 2
    assert all(a is b for a, b in zip(seen, system.factors))


# ---------------------------------------------------------------------------
# separable folds: f = sum_t prod_j g_tj(z_j) folds as sum_t kron_j of
# one-factor contractions, which must match the fold on all node tuples

_COEFFS = ("1", "-1", "0.5", "-0.5", "0.5j", "(0.3-0.4j)")


def _affine(draw, r):
    # every variable appears, with a coefficient that may be 0, so the spec
    # has arity r
    terms = [f"{draw(st.sampled_from(('0',) + _COEFFS))}*z{j + 1}" for j in range(r)]
    return "+".join(terms + [draw(st.sampled_from(("0", "0.25", "-0.5j")))])


@st.composite
def _separable_specs(draw, r, depth=2):
    head = draw(st.sampled_from(("exp", "sin", "cos", "poly", "sum", "prod")
                                if depth else ("exp", "sin", "cos", "poly")))
    if head in ("sum", "prod"):
        return (f"{head}({draw(_separable_specs(r, depth - 1))},"
                f"{draw(_separable_specs(r, depth - 1))})")
    if head == "poly":
        monomials = draw(st.lists(st.tuples(*[st.integers(0, 2)] * r), min_size=1,
                                  max_size=3, unique=True))
        return "poly{" + ",".join(
            f"({','.join(map(str, a))}):{draw(st.sampled_from(_COEFFS))}"
            for a in monomials) + "}"
    return f"{head}({_affine(draw, r)})"


def _factor(kind, rng, dim):
    if kind == "jordan":
        return synth.random_jordan_matrix(rng, dim, max_index=3)[0]
    if kind == "hermitian":
        return synth.random_hermitian(rng, dim, scale=0.4)
    return synth.random_diagonalizable(rng, dim)


def _dense_fold(f, stacks):
    return calculus._kron_fold(calculus._node_coeffs(f, stacks),
                               [np.asarray(rs) for _, _, rs in stacks])


@settings(max_examples=40, deadline=None)
@given(st.data(), st.integers(2, 3), st.integers(0, 2 ** 31 - 1))
def test_separable_fold_matches_the_node_tuple_fold(data, r, seed):
    f = parse(data.draw(_separable_specs(r)))
    assert f.arity == r and f.axis_terms([np.ones(2)] * r) is not None
    rng = np.random.default_rng(seed)
    kinds = data.draw(st.lists(st.sampled_from(("jordan", "hermitian", "diagonalizable")),
                               min_size=r, max_size=r))
    factors = [_factor(kind, rng, int(rng.integers(2, 5))) for kind in kinds]
    stacks = [spectra._resolvent_stacks(x, _enclosing(x, 32))[0] for x in factors]
    want = _dense_fold(f, stacks)
    got = calculus._node_fold(f, stacks)
    assert linalg.op_norm(got - want) <= 1e-12 * (1.0 + linalg.op_norm(want))


@settings(max_examples=15, deadline=None)
@given(_separable_specs(2), st.sampled_from((3, 5)))
def test_separable_padded_fold_matches_the_padded_dense_fold(spec, n):
    # each factor is read on its leading n x n block and on its padding
    f = parse(spec)
    models = [approx.build_model("harmonic", 16), approx.build_model("complex_harmonic", 16)]
    contours = [approx._meas_contour(c) for c in (
        approx.lowest_cluster_contour(models[0], 2), spectra.Contour(0.0, 2.0))]
    points = [approx.compress(m, n) for m in models]
    stacks = [spectra._resolvent_stacks(tp.x_n, c, eigenvalues=tp.eigenvalues)[0]
              for tp, c in zip(points, contours)]
    fold, projectors, sups = approx._fold_and_reads(f, stacks, [4, 4], [16, 16])
    want = approx._padded_fold(f, stacks, [16, 16])
    assert linalg.op_norm(fold - want) <= 1e-12 * (1.0 + linalg.op_norm(want))
    # the term rows leave the projector and the sup of the same pass unchanged
    for (_, w, rs), p, sup in zip(stacks, projectors, sups):
        [[p_alone], sup_alone] = rs.contract([w], 4)
        assert np.array_equal(p, p_alone) and sup == sup_alone


def test_axis_terms_of_each_node():
    zs = [np.array([0.3 + 0.1j, -1.2, 2j]), np.array([0.5, -0.7j])]
    grid = np.meshgrid(*zs, indexing="ij")
    counts = {"poly{(0,0):1,(2,1):-0.5,(1,0):2}": 3, "exp(2*z1-z2+1)": 1,
              "sin(z1+0.5j*z2)": 2, "cos(z2-1)": 2,
              "sum(exp(z1),poly{(0,1):3})": 2, "prod(sin(z1+z2),poly{(1,1):1,(0,0):2})": 4}
    for spec, count in counts.items():
        f = parse(spec)
        terms = f.axis_terms(zs)
        assert len(terms) == count, spec
        value = sum(np.multiply.outer(a, b) for a, b in terms)
        assert np.allclose(value, f(*grid), rtol=1e-14, atol=1e-14), spec
    assert parse("ratio(poly{(0,0):1},poly{(0,0):4,(1,0):-1})").axis_terms(zs) is None
    assert parse("sum(exp(z1+z2),ratio(poly{(0,0):1},poly{(0,0):4,(0,1):1}))"
                 ).axis_terms(zs) is None


def test_only_specs_without_few_axis_terms_fold_dense_stacks(monkeypatch):
    dense_calls = []
    real = linalg.NodeResolvents.dense

    def spy(self):
        dense_calls.append(self.t.shape)
        return real(self)

    monkeypatch.setattr(linalg.NodeResolvents, "dense", spy)
    x3 = np.array([[2, 1, 0], [0, 2, 1], [0, 0, 2]], dtype=complex)
    system = calculus.lift([x3, X2, X1])
    contours = [_enclosing(x, 16) for x in system.factors]
    big = "poly{" + ",".join(f"({i},{i % 2},0):1" for i in range(5)) + "}"
    for spec, dense in [
            ("exp(z1+2*z2-z3)", False), ("sin(z1-z3)", False), (
                "prod(cos(z1+z2),sum(poly{(1,0,1):1,(0,2,0):0.5},exp(z3)))", False),
            # 16 terms on 16 nodes are still separable, 25 are not
            ("prod(poly{(0,0,0):1,(1,0,0):1,(0,1,0):1,(0,0,1):1},"
             "poly{(0,0,0):1,(2,0,0):1,(0,2,0):1,(0,0,2):1})", False),
            (f"prod({big},{big})", True),
            ("ratio(exp(z1+z2+z3),poly{(0,0,0):20,(1,1,0):1})", True)]:
        f = parse(spec)
        dense_calls.clear()
        value = calculus.dunford_multivariate(f, system, contours)
        assert dense_calls == ([(3, 3), (2, 2), (2, 2)] if dense else []), spec
        spectral = calculus.func_multivariate(f, system).value
        assert linalg.op_norm(value - spectral) <= 1e-8 * (1.0 + linalg.op_norm(spectral)), spec

    # the truncation study of an exp spec folds its references and truncations
    # from the contracted blocks alone
    dense_calls.clear()
    models = [approx.build_model("harmonic", 32), approx.build_model("complex_harmonic", 32)]
    contours = [approx.lowest_cluster_contour(m, 2) for m in models]
    approx.multivariate_experiment(models, parse("exp(-z1-z2)"), [-1.0, -1.0], contours,
                                   [2, 4, 8])
    assert dense_calls == []
