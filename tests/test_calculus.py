import csv
import functools
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from pncalc import approx, calculus, functions, linalg, spectra, synth
from test_linalg import count_factorizations
from pncalc.errors import (
    ConfigError,
    DimensionCapError,
    DomainError,
    PreconditionError,
    QuadratureError,
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


def _lifted(factors, j):
    """The dense lift I x..x X_j x..x I of factor j."""
    eyes = [np.eye(len(x)) for x in factors]
    return functools.reduce(np.kron, eyes[:j] + [factors[j]] + eyes[j + 1:])


def _enclosing(x, nodes=64):
    lams = linalg.eig(x).eigenvalues
    c = complex(lams.mean())
    rmax = float(np.max(np.abs(lams - c)))
    return spectra.Contour(center=c, radius=1.5 * rmax + 0.5, nodes=nodes)


def _stacks(factors, nodes=64):
    """One screened stack per factor on its enclosing contour."""
    return [spectra._resolvent_stacks(linalg.resolvent_at_nodes(x, ()), _enclosing(x, nodes))
            for x in factors]


def _node_fold(f, stacks):
    return calculus._node_fold(f, stacks, calculus._axis_rows(f, stacks))


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


def test_split_sums_to_value_and_r1_convention():
    system = calculus.lift([X1, X2])
    res = calculus.func_multivariate(parse("exp(z1+z2)"), system)
    recon = res.s0 + res.s_mixed + res.s_full
    assert np.linalg.norm(res.value - recon, 2) <= 1e-13 * max(1.0, np.linalg.norm(res.value, 2))
    # on the golden pair: s0 = e * I, mixed = e (N1 + N2), full = e N1 N2
    n1 = np.kron(X1 - np.eye(2), np.eye(2))
    n2 = np.kron(np.eye(2), X2)
    assert np.linalg.norm(res.s0 - np.e * np.eye(4), 2) <= 1e-12
    assert np.linalg.norm(res.s_mixed - np.e * (n1 + n2), 2) <= 1e-12
    assert np.linalg.norm(res.s_full - np.e * (n1 @ n2), 2) <= 1e-12
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
    assert np.linalg.norm(z1 - _lifted(system.factors, 0), 2) <= 1e-12
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
    # boundary: 64 * 64 = 4096 = KRON_CAP lifts
    assert calculus.lift([np.eye(64), np.eye(64)]).tensor_dim == linalg.KRON_CAP
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
            li, lj = _lifted(system.factors, i), _lifted(system.factors, j)
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


@pytest.mark.parametrize("spec,route,where", [
    ("exp(800*z1)", "assembly", "on the eigenvalue grid"),
    ("exp(800*z1)", "dunford", "on the contour nodes"),
    ("exp(800*z1)", "quadrature", "on the quadrature nodes"),
    ("exp(800*z1+z2)", "quadrature", "on the quadrature nodes"),
    ("ratio(exp(800*z1+z2+z3),poly{(0,0,0):1})", "quadrature", "on the quadrature nodes"),
    ("exp(800*z1)", "series", "at the series center"),
    ("ratio(exp(800*z1),poly{0:1})", "series", "at the series center"),
])
def test_non_finite_f_is_a_domain_error(spec, route, where):
    # e^800 overflows: each route refuses on f's values or Taylor
    # coefficients (the quadrature on its Taylor terms' rows at two factors,
    # on node-tuple slabs at three), before any N x N array is formed
    x = np.array([[1, 1], [0, 2]], dtype=complex)
    f = parse(spec)
    system = calculus.lift([x] * f.arity)
    contour = spectra.Contour(center=1.5, radius=1.5, nodes=32)
    run = {"assembly": lambda: calculus.func_multivariate(f, system),
           "dunford": lambda: calculus.dunford(f, x, contour),
           "quadrature": lambda: calculus.dunford_multivariate(f, system, [contour] * f.arity),
           "series": lambda: calculus.power_series_apply(f, system)}[route]
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(DomainError, match=rf"^f = .* is not finite {where}$"):
        run()


def test_dunford_doubling_gate():
    # 16 trapezoid nodes on the unit circle leave 0.88 between the rule and
    # its doubling on an eigenvalue 0.07 inside it; at 0.2, 32 nodes agree
    # with 64 to rounding
    f = parse("exp(z1)")
    x = np.diag([0.0, 0.93]).astype(complex)
    with pytest.raises(QuadratureError, match=r"^dunford quadrature unstable under "
                       r"node doubling \(8\.799e-01\)$"):
        calculus.dunford(f, x, spectra.Contour(0.0, 1.0, 16), verify=True)
    x = np.diag([0.0, 0.2]).astype(complex)
    val = calculus.dunford(f, x, spectra.Contour(0.0, 1.0, 32), verify=True)
    assert np.linalg.norm(val - expm(x), 2) <= 1e-12


def test_dunford_multivariate_budget_guard():
    # only the fold over node tuples is capped: a ratio at 128^3 of them is
    # refused, while a spec with Taylor terms folds per factor and runs
    system = calculus.lift([X1, X2, X2])
    contours = [spectra.Contour(center=0.5, radius=2.0, nodes=128)] * 3
    ratio = parse("ratio(poly{(0,0,0):1},poly{(0,0,0):20,(1,0,0):1,(0,1,1):1})")
    with pytest.raises(PreconditionError, match=r"^quadrature cost guard: 2097152 node "
                       r"tuples exceed budget 300000$"):
        calculus.dunford_multivariate(ratio, system, contours)
    f = parse("exp(z1+z2+z3)")
    quad = calculus.dunford_multivariate(f, system, contours)
    spectral = calculus.func_multivariate(f, system).value
    assert np.linalg.norm(quad - spectral, 2) <= 1e-12 * np.linalg.norm(spectral, 2)


def test_budget_refusal_factors_nothing(monkeypatch):
    # the cost guard is decided from f and the contours alone: the refused
    # ratio reads no factorization of any factor
    calls = count_factorizations(monkeypatch)
    system = calculus.lift([X1, X2, X2])
    contours = [spectra.Contour(center=0.5, radius=2.0, nodes=128)] * 3
    ratio = parse("ratio(poly{(0,0,0):1},poly{(0,0,0):20,(1,0,0):1,(0,1,1):1})")
    with pytest.raises(PreconditionError, match=r"^quadrature cost guard: 2097152 node "
                       r"tuples exceed budget 300000$"):
        calculus.dunford_multivariate(ratio, system, contours)
    assert calls == [] and "factorizations" not in vars(system)


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
    assert f.taylor_terms([np.ones(2)] * 3, 0) is None
    stacks = _stacks(factors)
    whole = calculus._kron_fold(calculus._node_coeffs(f, stacks),
                                [rs.dense() for _, _, rs in stacks])
    tracemalloc.start()
    try:
        fold = _node_fold(f, stacks)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(fold, whole)
    assert peak < 16 * 64 ** 3 // 4


def test_three_factor_ratio_fold_holds_a_few_results():
    # dims (2, 16, 16), N = 512: one sub-fold per first-factor node is
    # 64 (N/2)^2 entries, 16 N^2; n_1^2 = 4 of them at a time are N^2
    rng = np.random.default_rng(2620)
    factors = [synth.random_hermitian(rng, d).astype(complex) for d in (2, 16, 16)]
    factors = [x / linalg.op_norm(x) for x in factors]
    f = parse("ratio(prod(exp(z1+2*z2-z3),sin(z2+0.5*z3)),"
              "poly{(0,0,0):20,(1,0,0):1,(0,1,1):1})")
    stacks = _stacks(factors)
    peak = _peak_bytes(lambda: _node_fold(f, stacks))
    assert peak < 8 * 512 ** 2 * 16
    system = calculus.lift(factors)
    fold = _node_fold(f, stacks)
    spectral = calculus.func_multivariate(f, system).value
    assert np.linalg.norm(fold - spectral, 2) <= 1e-12 * np.linalg.norm(spectral, 2)


@pytest.mark.parametrize("spec, dims", [
    ("exp(z1+z2+z3+z4)", (3, 4, 3, 4)),
    ("prod(sin(z1+0.5*z2),poly{(0,0,0,0):1,(0,0,1,1):1})", (2, 3, 4, 3)),
    ("exp(0.3*z1-z2+z3+0.5*z4-z5)", (3, 3, 3, 3, 3)),
    ("prod(cos(z1-z5),exp(z2+z3+z4))", (2, 3, 2, 4, 3)),
])
def test_three_routes_agree_beyond_three_factors(spec, dims):
    rng = np.random.default_rng(sum(dims))
    factors = [synth.random_factor(rng, d, max_index=3, cond=3.0) for d in dims]
    system = calculus.lift(factors,
                           cluster_tol=1e-3 * max(1.0, max(linalg.op_norm(x) for x in factors)))
    f = parse(spec)
    spectral = calculus.func_multivariate(f, system).value
    quad = calculus.dunford_multivariate(f, system, [_enclosing(x) for x in factors])
    series = calculus.power_series_apply(f, system)
    norm = linalg.op_norm(spectral)
    assert linalg.op_norm(quad - spectral) <= 1e-12 * norm
    assert linalg.op_norm(series - spectral) <= 1e-12 * norm


def _refuse_decompose(*args, **kwargs):
    raise AssertionError("decompose called")


def test_quadrature_routes_decompose_nothing(monkeypatch):
    monkeypatch.setattr(calculus, "decompose", _refuse_decompose)
    monkeypatch.setattr(spectra, "decompose", _refuse_decompose)
    calls = count_factorizations(monkeypatch)
    system = calculus.lift([X1, X2])
    contours = [spectra.Contour(center=1.0, radius=1.0, nodes=64),
                spectra.Contour(center=0.0, radius=1.0, nodes=64)]
    f = parse("exp(z1+z2)")
    gold = _golden_pair_values()["exp(z1+z2)"]
    quad = calculus.dunford_multivariate(f, system, contours)
    assert np.linalg.norm(quad - gold, 2) <= 1e-9
    # the quadrature reads each factor's one factorization, and nothing else
    assert calls == [(x.shape, x.tobytes()) for x in (X1, X2)]
    assert "decompositions" not in vars(system)
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
        seen.append((x, kwargs["factored"]))
        return spectra.decompose(x, **kwargs)

    monkeypatch.setattr(calculus, "decompose", counting)
    calls = count_factorizations(monkeypatch)
    system = calculus.lift([X1, X2])
    assert seen == [] and calls == []
    f = parse("exp(z1+z2)")
    calculus.func_multivariate(f, system)
    calculus.power_series_apply(f, system)
    calculus.dunford_multivariate(f, system, [_enclosing(x) for x in (X1, X2)])
    # one factorization per factor: its decomposition and the quadrature
    # read it, and the series route takes none
    assert calls == [(x.shape, x.tobytes()) for x in (X1, X2)]
    assert len(seen) == 2
    assert all(a is b for (a, _), b in zip(seen, system.factors))
    assert all(fac is b for (_, fac), b in zip(seen, system.factorizations))


# ---------------------------------------------------------------------------
# spectral assembly from the component factors, against the dense route


def _dense_assembly(f, decompositions):
    """(value, [s0, s_mixed, s_full], ledger) by the dense route: each term's
    P or N^q as an n x n matrix with an n x n SVD norm, one Kronecker fold per
    part, coefficients from one Taylor box per term."""
    terms = [[(c, q) for c in dec.components for q in range(c.index)] for dec in decompositions]
    stacks = [np.stack([c.projector if q == 0 else np.linalg.matrix_power(c.nilpotent, q)
                        for c, q in ts]) for ts in terms]
    norms = [[linalg.op_norm(b) for b in s] for s in stacks]
    coeffs = np.zeros([len(ts) for ts in terms], dtype=complex)
    ledger = []
    for t in np.ndindex(coeffs.shape):
        picked = [ts[i] for ts, i in zip(terms, t)]
        box = functions.taylor_coefficients(f, [c.eigenvalue for c, _ in picked],
                                            max(c.index for c, _ in picked) - 1)
        alpha = tuple(q for _, q in picked)
        coeffs[t] = box[alpha]
        ledger.append((tuple(c.eigenvalue for c, _ in picked), alpha,
                       abs(coeffs[t]) * np.prod([n[i] for n, i in zip(norms, t)])))
    powers = np.array(np.meshgrid(*[[q for _, q in ts] for ts in terms], indexing="ij"))
    some, every = powers.any(axis=0), powers.all(axis=0)
    split = [calculus._kron_fold(np.where(mask, coeffs, 0.0), stacks)
             for mask in (~some, some & ~every, every)]
    return sum(split), split, ledger


def _assembly_system(rng, r, deep):
    # with `deep`, the first factor is one Jordan block of index 6
    dims = {1: (2, 10), 2: (2, 7), 3: (2, 4)}[r]
    factors = []
    for _ in range(r):
        kind, dim = rng.integers(0, 3), int(rng.integers(*dims))
        if kind == 0:
            factors.append(synth.random_jordan_matrix(rng, dim, max_index=6, cond=3.0)[0])
        elif kind == 1:
            factors.append(synth.random_hermitian(rng, dim, scale=0.4))
        else:
            factors.append(synth.random_diagonalizable(rng, dim))
    if deep:
        s = synth.conditioned_similarity(rng, 6, 3.0)
        factors[0] = s @ synth.jordan_block(0.2 + 0.1j, 6, 0.3) @ np.linalg.inv(s)
    tol = 1e-2 * max(1.0, max(linalg.op_norm(x) for x in factors))
    return calculus.lift(factors, cluster_tol=tol)


_ASSEMBLY_SPECS = {1: ("exp(z1)", "ratio(poly{0:1},poly{0:4,1:-1})"),
                   2: ("exp(0.5*z1+z2)", "prod(sin(z1),poly{(0,0):1,(0,1):2,(1,1):-1})"),
                   3: ("exp(z1-z2+0.3*z3)", "prod(cos(z1+z2),poly{(0,0,1):1,(0,0,0):1})")}


def test_factored_assembly_matches_the_dense_route():
    rng = np.random.default_rng(2617)
    deepest = 0
    for case in range(24):
        r = 1 + case % 3
        system = _assembly_system(rng, r, case < 3)
        f = parse(_ASSEMBLY_SPECS[r][case // 3 % 2])
        deepest = max([deepest] + [c.index for d in system.decompositions for c in d.components])
        res = (calculus.func_univariate(f, system.decompositions[0]) if r == 1
               else calculus.func_multivariate(f, system))
        value, split, ledger = _dense_assembly(f, system.decompositions)
        bound = 1e-13 * (1.0 + linalg.op_norm(value))
        for got, want in zip((res.value, res.s0, res.s_mixed, res.s_full), [value] + split):
            assert linalg.op_norm(got - want) <= bound, case
        assert [(e.eigenvalues, e.alpha) for e in res.term_ledger] == [e[:2] for e in ledger]
        for e, (_, _, norm) in zip(res.term_ledger, ledger):
            assert abs(e.norm - norm) <= 1e-12 * norm, case
    assert deepest == 6


def test_assembly_reads_only_the_component_factors(monkeypatch):
    def refuse(self):
        raise AssertionError("dense component operator read")

    monkeypatch.setattr(spectra.SpectralComponent, "projector", property(refuse))
    monkeypatch.setattr(spectra.SpectralComponent, "nilpotent", property(refuse))
    rng = np.random.default_rng(2618)
    blocks = [synth.random_jordan_matrix(rng, dim, max_index=3, cond=3.0)[0] for dim in (5, 4, 3)]
    tol = 1e-2 * max(linalg.op_norm(x) for x in blocks)
    dec = spectra.decompose(blocks[0], cluster_tol=tol)
    assert max(c.index for c in dec.components) > 1
    one = calculus.func_univariate(parse("exp(z1)"), dec).value
    assert linalg.op_norm(one - expm(blocks[0])) <= 1e-10 * linalg.op_norm(expm(blocks[0]))
    for spec, factors in (("exp(z1+z2)", blocks[:2]), ("exp(z1+z2+z3)", blocks)):
        value = calculus.func_multivariate(parse(spec), calculus.lift(factors, cluster_tol=tol)).value
        want = functools.reduce(np.kron, [expm(x) for x in factors])
        assert linalg.op_norm(value - want) <= 1e-10 * linalg.op_norm(want), spec


def _peak_bytes(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_assembly_memory_stays_quadratic_in_the_dimension():
    # a dense stack of every component's P is k n^2 entries (128 n^2 here);
    # the factored fold holds a few n x n arrays
    rng = np.random.default_rng(2619)
    x = synth.random_diagonalizable(rng, 128, spread=3.0, min_sep=0.15)
    dec = spectra.decompose(x)
    assert len(dec.components) == 128
    peak = _peak_bytes(lambda: calculus.func_univariate(parse("exp(z1)"), dec))
    assert peak < 16 * 128 ** 2 * 16
    jordan = np.array([[0.3, 1.0], [0.0, 0.3]], dtype=complex)
    system = calculus.lift([jordan, x])
    system.decompositions
    peak = _peak_bytes(lambda: calculus.func_multivariate(parse("exp(0.5*z1+z2)"), system))
    assert peak < 16 * 256 ** 2 * 16


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
                               [rs.dense() for _, _, rs in stacks])


@settings(max_examples=40, deadline=None)
@given(st.data(), st.integers(2, 3), st.integers(0, 2 ** 31 - 1))
def test_separable_fold_matches_the_node_tuple_fold(data, r, seed):
    f = parse(data.draw(_separable_specs(r)))
    assert f.arity == r and f.taylor_terms([np.ones(2)] * r, 0) is not None
    rng = np.random.default_rng(seed)
    kinds = data.draw(st.lists(st.sampled_from(("jordan", "hermitian", "diagonalizable")),
                               min_size=r, max_size=r))
    factors = [_factor(kind, rng, int(rng.integers(2, 5))) for kind in kinds]
    stacks = _stacks(factors, 32)
    want = _dense_fold(f, stacks)
    got = _node_fold(f, stacks)
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
    stacks = [spectra._resolvent_stacks(tp._factored, c, eigenvalues=tp.eigenvalues)
              for tp, c in zip(points, contours)]
    fold, projectors, sups = approx._fold_and_reads(f, stacks, [4, 4], [16, 16])
    system = calculus.lift([tp.x_n_padded for tp in points])
    want = calculus.dunford_multivariate(f, system, contours, require_full=False)
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
        terms = f.taylor_terms(zs, 0)
        assert len(terms) == count, spec
        value = sum(np.multiply.outer(a[:, 0], b[:, 0]) for a, b in terms)
        assert np.allclose(value, f(*grid), rtol=1e-14, atol=1e-14), spec
    assert parse("ratio(poly{(0,0):1},poly{(0,0):4,(1,0):-1})").taylor_terms(zs, 0) is None
    assert parse("sum(exp(z1+z2),ratio(poly{(0,0):1},poly{(0,0):4,(0,1):1}))"
                 ).taylor_terms(zs, 0) is None


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


# ---------------------------------------------------------------------------
# Taylor terms: one per-axis coefficient source for the assembly and series


def _exp_spec(r, scale=0.3):
    return "exp(" + "+".join(f"{scale}*z{j + 1}" for j in range(r)) + ")"


def _grid_shells(w, ks):
    """Shell sums over |alpha|_inf = k read from a full index grid."""
    level = np.maximum.reduce(np.meshgrid(*[np.arange(n) for n in w.shape], indexing="ij"))
    return np.array([w[level == k].sum() for k in ks])


def test_series_shell_bounds_against_the_index_grid():
    rng = np.random.default_rng(2627)
    for shape in ((9,), (6, 6), (5, 5, 5)):
        w = rng.random(shape)
        assert np.allclose(calculus._box_shells(w, [2, 3, 4]), _grid_shells(w, [2, 3, 4]),
                           rtol=1e-14, atol=0)
    # one exp term: the per-axis bound is the box's shell sum; several terms
    # bound it from above
    center, radii, ks = [0.2 + 0.1j, -0.3, 0.4j], np.array([0.7, 1.3, 0.9]), [5, 6, 7]
    for spec, exact in (("exp(0.5*z1-z2+(0.3+0.2j)*z3)", True),
                        ("prod(sin(z1+z2-z3),poly{(0,0,0):1,(1,1,0):2,(0,0,2):-0.5})", False)):
        f = parse(spec)
        scale = radii[:, None] ** np.arange(8.0)
        rows = np.array([[row[0] for row in term]
                         for term in f.taylor_terms([np.array([c]) for c in center], 7)])
        bound = calculus._term_shells(np.abs(rows) * scale, ks)
        box = np.abs(functions.taylor_coefficients(f, center, 7))
        shells = _grid_shells(box * functools.reduce(np.multiply.outer, scale), ks)
        if exact:
            assert np.allclose(bound, shells, rtol=1e-13, atol=0), spec
        else:
            assert np.all(bound >= shells) and np.all(bound < 10 * shells), spec


def test_series_on_four_and_five_factors_holds_about_one_result():
    # the factored series forms no coefficient box and no N x N array per
    # power: past its one N x N result it holds per-factor pieces
    for dim, r in ((6, 4), (5, 5)):
        rng = np.random.default_rng(2621)
        factors = [synth.random_factor(rng, dim, 3, 3.0) for _ in range(r)]
        system = calculus.lift(factors, cluster_tol=1e-3 * max(
            1.0, max(linalg.op_norm(x) for x in factors)))
        system.decompositions
        f = parse(_exp_spec(r))
        out = []
        t0 = time.perf_counter()
        peak = _peak_bytes(lambda: out.append(calculus.power_series_apply(f, system)))
        elapsed = time.perf_counter() - t0
        n = dim ** r
        assert peak < 1.5 * 16 * n * n, (dim, r, peak / (16 * n * n))
        if r == 5:
            assert elapsed < 1.0
            continue
        spectral = calculus.func_multivariate(f, system).value
        assert linalg.op_norm(out[0] - spectral) <= 1e-12 * linalg.op_norm(spectral)


_ORACLE_SHAPE_SPECS = {
    2: ("exp(z1+z2)", "sin(z1+0.5*z2)", "poly{(1,1): 1, (2,0): 0.25}",
        "prod(exp(z1), poly{(0,0): 1, (0,1): 1})"),
    3: ("exp(z1+z2+z3)", "sin(z1+z2-z3)", "poly{(1,1,1): 1, (0,0,2): 0.5}",
        "prod(exp(z1), poly{(0,0,0): 1, (0,1,1): 1})")}


def _oracle_shape_factor(rng, dim, kind):
    if kind == 0:
        return np.diag(synth.separated_eigenvalues(rng, dim)).astype(complex)
    if kind == 1:
        return synth.random_hermitian(rng, dim, 0.5).astype(complex)
    if kind == 2:
        return synth.random_jordan_matrix(rng, dim, 3, 6.0)[0]
    return synth.random_diagonalizable(rng, dim, 6.0)


def test_series_certifies_every_oracle_spec_from_its_terms():
    # the per-term shell bound is no smaller than the box's shells; it must
    # still certify the oracle's cases (dims 2..6, four factor families)
    rng = np.random.default_rng(2623)
    for r, specs in _ORACLE_SHAPE_SPECS.items():
        for which, spec in enumerate(specs):
            f = parse(spec)
            for case in range(3):
                factors = [_oracle_shape_factor(rng, int(rng.integers(2, 7)),
                                                (which + case + j) % 4) for j in range(r)]
                system = calculus.lift(factors, cluster_tol=1e-3 * max(
                    1.0, max(linalg.op_norm(x) for x in factors)))
                series = calculus.power_series_apply(f, system)
                spectral = calculus.func_multivariate(f, system).value
                assert linalg.op_norm(series - spectral) <= 1e-9 * (
                    1.0 + linalg.op_norm(spectral)), (spec, case)


def test_ratio_series_keeps_its_dense_box_and_cap():
    # a ratio has no Taylor terms: its series reads one coefficient grid per
    # cap, and the shell sums taken from slices certify at the cap the index
    # grid did
    caps = []
    rng = np.random.default_rng(2625)
    factors = [0.5 * synth.random_jordan_matrix(rng, d, max_index=3, cond=3.0)[0]
               for d in (3, 2, 4)]
    system = calculus.lift(factors, cluster_tol=1e-2)
    assert [max(c.index for c in d.components) for d in system.decompositions] == [3, 2, 3]
    f = parse("ratio(poly{(0,0,0):1},poly{(0,0,0):4,(1,0,0):-1,(0,1,0):-1,(0,0,1):-1})")
    grid = f.taylor_grid
    f.taylor_grid = lambda centers, cap: caps.append(cap) or grid(centers, cap)
    series = calculus.power_series_apply(f, system)
    assert caps == [11, 17]   # caps 8 and 14, each read 3 degrees further
    spectral = calculus.func_multivariate(f, system).value
    quad = calculus.dunford_multivariate(f, system, [_enclosing(x) for x in factors])
    scale = 1.0 + linalg.op_norm(spectral)
    assert linalg.op_norm(series - spectral) <= 1e-12 * scale
    assert linalg.op_norm(quad - spectral) <= 1e-10 * scale
    # four factors, past the quadrature's reach: the series against the
    # assembly, both from the divided grid
    factors = [0.5 * synth.random_jordan_matrix(rng, d, max_index=3, cond=3.0)[0]
               for d in (3, 2, 3, 2)]
    system = calculus.lift(factors, cluster_tol=1e-2)
    assert max(c.index for d in system.decompositions for c in d.components) > 1
    f = parse("ratio(exp(0.3*z1+0.3*z2+0.3*z3+0.3*z4),"
              "poly{(0,0,0,0):8,(1,0,0,0):1,(0,1,0,0):1,(0,0,1,0):1,(0,0,0,1):1})")
    series = calculus.power_series_apply(f, system)
    spectral = calculus.func_multivariate(f, system).value
    assert linalg.op_norm(series - spectral) <= 1e-12 * linalg.op_norm(spectral)


def test_series_of_a_product_with_a_ratio_certifies():
    # the box is one division of exact term grids, N = e^(z1+z2) (e^(z1/2-z2)
    # + cos(z1+z2)) by D = 1, so its shells decay until the tail certifies
    f = parse("prod(ratio(exp(z1+z2),poly{(0,0):1}),sum(exp(0.5*z1-z2),cos(z1+z2)))")
    for seed in range(4):
        rng = np.random.default_rng(seed)
        factors = [synth.random_factor(rng, rng.integers(2, 5), 3, 6.0) for _ in range(2)]
        system = calculus.lift(factors, cluster_tol=1e-3 * max(
            1.0, max(linalg.op_norm(x) for x in factors)))
        series = calculus.power_series_apply(f, system)
        spectral = calculus.func_multivariate(f, system).value
        assert linalg.op_norm(series - spectral) <= 1e-12 * linalg.op_norm(spectral), seed


def test_assembly_takes_its_coefficients_from_one_terms_call(monkeypatch):
    def refuse(*args):
        raise AssertionError("per-tuple Taylor box")

    rng = np.random.default_rng(2624)
    for spec, dims in (("prod(sin(z1-z2),poly{(0,0):1,(1,1):0.5})", (5, 4)),
                       ("exp(0.5*z1-z2+0.3*z3)", (4, 3, 3)),
                       ("ratio(exp(0.5*z1-z2),poly{(0,0):5,(1,0):1,(0,1):-1})", (5, 4))):
        factors = [synth.random_jordan_matrix(rng, d, max_index=3, cond=3.0)[0] for d in dims]
        system = calculus.lift(factors, cluster_tol=1e-2 * max(linalg.op_norm(x) for x in factors))
        assert max(c.index for d in system.decompositions for c in d.components) > 1
        f = parse(spec)
        quad = calculus.dunford_multivariate(f, system, [_enclosing(x) for x in factors])
        calls, grids = [], []
        terms, grid = f.taylor_terms, f.taylor_grid
        f.taylor_terms = lambda centers, cap: calls.append(cap) or terms(centers, cap)
        f.taylor_grid = lambda centers, cap: grids.append(cap) or grid(centers, cap)
        with monkeypatch.context() as m:
            m.setattr(functions.AnalyticFunction, "taylor_box", refuse)
            value = calculus.func_multivariate(f, system).value
        assert len(calls) == len(grids) == 1, spec
        assert linalg.op_norm(value - quad) <= 1e-10 * (1.0 + linalg.op_norm(value)), spec
    # coefficients are zero from each component's index on: an index-3 and an
    # index-1 component (3 + 1 columns) against an index-2 one (2 columns)
    # give s0 4*2 entries, s_mixed 3*2*2 + 4*2 and s_full 3*2*2
    parts = []
    real = calculus._fold_powers
    monkeypatch.setattr(calculus, "_fold_powers", lambda k, *args: parts.append(k) or real(k, *args))
    x = synth.block_diag([synth.jordan_block(0.2, 3, 0.3), np.array([[0.9]])])
    system = calculus.lift([x, synth.jordan_block(-0.1, 2, 0.3)], cluster_tol=1e-3)
    calculus.func_multivariate(parse("exp(z1+z2)"), system)
    assert [np.count_nonzero(k) for k in parts] == [8, 20, 12]
    # an index-1 system builds no terms
    system = calculus.lift([synth.random_hermitian(rng, 4), synth.random_diagonalizable(rng, 3)],
                           cluster_tol=1e-4)
    f = parse("exp(z1+z2)")
    f.taylor_terms = refuse
    calculus.func_multivariate(f, system)


def test_assembly_of_a_stiff_exp_over_a_wide_spectrum():
    # Re(-10 z1) spans 1500 over the eigenvalues {0 (index 2), 150}: every
    # coefficient stays finite, and the Jordan block's e^0 (1 - 10 N) survives
    x1 = synth.block_diag([synth.jordan_block(0.0, 2, 1.0), np.array([[150.0]])])
    x2 = synth.jordan_block(1.0, 2, 1.0)
    cases = [("exp(-10*z1)", [x1], None, expm(-10 * x1), 1e-13),
             ("exp(-10*z1+0.5*z2)", [x1, x2], None,
              np.kron(expm(-10 * x1), expm(0.5 * x2)), 1e-13)]
    # a 2 x 2 Jordan block lifted with a 6- and a 64-dimensional partner
    rng = np.random.default_rng(2626)
    jordan = np.array([[0.3, 1.0], [0.0, 0.3]], dtype=complex)
    for second in (synth.random_jordan_matrix(rng, 6, max_index=3)[0],
                   synth.random_diagonalizable(rng, 64, spread=3.0, min_sep=0.15)):
        cases.append(("exp(0.5*z1+z2)", [jordan, second],
                      1e-3 * max(1.0, linalg.op_norm(second)),
                      np.kron(expm(0.5 * jordan), expm(second)), 1e-10))
    for spec, factors, ctol, want, tol in cases:
        value = calculus.func_multivariate(parse(spec), calculus.lift(factors, cluster_tol=ctol)).value
        assert np.all(np.isfinite(value)), spec
        assert linalg.op_norm(value - want) <= tol * linalg.op_norm(want), spec


def test_quadrature_of_a_stiff_exp_near_the_float_exponent_limit():
    # f(z) = exp(z1 - z2) is near 1 on these spectra, yet exp(z1) and
    # exp(-z2) alone leave the float range at every node: the quadrature's
    # per-axis rows take the Taylor terms' split about the nodes' means
    x1 = 710 * np.eye(2) + np.array([[0.3, 1.0], [0.0, -0.2]])
    x2 = 710 * np.eye(3) + np.diag([0.1, -0.4, 0.25j])
    system = calculus.lift([x1, x2])
    f = parse("exp(z1-z2)")
    quad = calculus.dunford_multivariate(f, system, [_enclosing(x, 64) for x in system.factors])
    want = calculus.func_multivariate(f, system).value
    assert np.all(np.isfinite(quad))
    assert linalg.op_norm(quad - want) <= 1e-12 * linalg.op_norm(want)


def test_series_folds_the_box_of_a_spec_with_more_terms_than_powers(monkeypatch):
    # the factored sum costs about N^2 per Taylor term and the box's fold
    # (cap + 1) N^2: a degree-4 polynomial with 15 monomials folds its box,
    # and an exp (one term) or a product of two sums (9 terms) is factored
    routes = []
    for name in ("_kron_fold", "_kron_sum"):
        real = getattr(calculus, name)
        monkeypatch.setattr(calculus, name,
                            functools.partial(lambda real, name, *a: routes.append(name)
                                              or real(*a), real, name))
    dense = "poly{" + ",".join(f"({i},{j}):{(i + 2 * j + 1) / 10}"
                               for i in range(5) for j in range(5 - i)) + "}"
    rng = np.random.default_rng(2628)
    factors = [0.5 * synth.random_jordan_matrix(rng, d, max_index=3, cond=3.0)[0]
               for d in (5, 4)]
    system = calculus.lift(factors, cluster_tol=1e-2)
    for spec, route in ((dense, "_kron_fold"), ("exp(0.3*z1-0.2*z2)", "_kron_sum"),
                        ("prod(sum(exp(z1),cos(z1-z2)),sum(sin(0.5*z2),poly{(1,1):2}))",
                         "_kron_sum")):
        f = parse(spec)
        routes.clear()
        series = calculus.power_series_apply(f, system)
        assert routes[0] == route, spec
        spectral = calculus.func_multivariate(f, system).value
        assert linalg.op_norm(series - spectral) <= 1e-12 * (1.0 + linalg.op_norm(spectral)), spec
