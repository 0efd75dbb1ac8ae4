"""End-to-end acceptance checks.

Each test prints exactly one PASS/FAIL line carrying the measured values at
the stated tolerance, plus the elapsed time where a budget applies, so a
plain `pytest -s tests/test_acceptance.py` reads as a checklist.
"""

import time

import numpy as np
import scipy.linalg

from pncalc import approx, calculus, cli, functions, linalg, spectra, synth

parse = functions.parse_function

X1 = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)
X2 = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)


def report(num, name, ok, detail, elapsed=None, budget=None):
    timing = ""
    if elapsed is not None:
        timing = f" ({elapsed:.2f}s" + (f" < {budget:g}s)" if budget else ")")
        if budget is not None:
            ok = ok and elapsed < budget
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {name}: {detail}{timing}"
    print(flush=True)
    print(line, flush=True)
    assert ok, line


def enclosing(x, nodes=64):
    lams = np.linalg.eigvals(x)
    center = complex(np.mean(lams))
    radius = 1.5 * float(np.max(np.abs(lams - center))) + 0.5
    return spectra.Contour(center=center, radius=radius, nodes=nodes)


def all_routes(f, factors, cluster_tol=None):
    system = calculus.lift(factors, cluster_tol=cluster_tol)
    spectral = calculus.func_multivariate(f, system).value
    contours = [enclosing(m) for m in factors]
    quad = calculus.dunford_multivariate(f, system, contours)
    series = calculus.power_series_apply(f, system)
    return spectral, quad, series


def test_criterion_01_golden_pair():
    t0 = time.perf_counter()
    e = float(np.e)
    # hand coefficients: (f, d1 f, d2 f, d1 d2 f) evaluated at (1, 0)
    cases = [
        ("poly{(1,1): 1}", (0.0, 0.0, 1.0, 1.0)),
        ("exp(z1+z2)", (e, e, e, e)),
        ("prod(exp(z1), poly{(0,0): 1, (0,1): 1})", (e, e, e, e)),
        ("poly{(0,1): 1, (1,1): 2, (2,1): 1}", (0.0, 0.0, 4.0, 4.0)),
    ]
    i2 = np.eye(2, dtype=complex)
    n1, n2 = X1 - i2, X2
    worst = 0.0
    for spec, (c00, c10, c01, c11) in cases:
        hand = (c00 * np.kron(i2, i2) + c10 * np.kron(n1, i2)
                + c01 * np.kron(i2, n2) + c11 * np.kron(n1, n2))
        routes = all_routes(parse(spec), [X1, X2]) + (hand,)
        for i in range(4):
            for j in range(i + 1, 4):
                worst = max(worst, linalg.op_norm(routes[i] - routes[j]))
    report(1, "golden pair, four routes", worst <= 1e-9,
           f"max pairwise diff {worst:.3e} <= 1e-9 over {len(cases)} functions",
           time.perf_counter() - t0, 1.0)


def test_criterion_02_oracle_triangle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260814)
    specs = {
        1: ["exp(z1)", "sin(z1)", "poly{(0,): 1, (1,): 2, (3,): 0.5}",
            "prod(exp(z1), poly{(0,): 1, (1,): 1})"],
        2: ["exp(z1+z2)", "poly{(1,1): 1, (2,0): 0.25}",
            "prod(exp(z1), poly{(0,0): 1, (0,1): 1})",
            "sum(exp(z1+z2), poly{(1,0): 1})"],
    }
    worst = 0.0
    for i in range(50):
        r = 1 + i % 2
        factors = [synth.random_factor(rng, int(rng.integers(2, 7)))
                   for _ in range(r)]
        f = parse(specs[r][i % 4])
        ct = 1e-3 * max(1.0, max(linalg.op_norm(m) for m in factors))
        a, b, c = all_routes(f, factors, cluster_tol=ct)
        scale = 1.0 + linalg.op_norm(a)
        diff = max(linalg.op_norm(a - b), linalg.op_norm(a - c),
                   linalg.op_norm(b - c))
        worst = max(worst, diff / scale)
    report(2, "oracle triangle, 50 systems", worst <= 1e-8,
           f"max relative discrepancy {worst:.3e} <= 1e-8",
           time.perf_counter() - t0, 30.0)


def test_criterion_03_decomposition_invariants():
    t0 = time.perf_counter()
    rng = np.random.default_rng(3)
    worst_ratio, herm_index, herm_nil = 0.0, 1, 0.0
    for i in range(200):
        dim = int(rng.integers(2, 9))
        family = i % 4
        if family == 0:
            x = np.diag(synth.separated_eigenvalues(rng, dim, spread=1.5,
                                                    min_sep=0.2))
            ct = None
        elif family == 1:
            x = synth.random_hermitian(rng, dim)
            ct = None
        elif family == 2:
            x, _ = synth.random_jordan_matrix(rng, dim, max_index=min(4, dim))
            ct = 1e-3 * max(1.0, linalg.op_norm(x))
        else:
            # random spectrum under a conditioned similarity: an unconditioned
            # gaussian can land arbitrarily close to defective, where no
            # fixed-tolerance decomposition contract is meetable
            x = synth.random_diagonalizable(rng, dim)
            ct = None
        dec = spectra.decompose(x, cluster_tol=ct)
        for measured, bound in spectra.verify_decomposition(x, dec).values():
            if bound > 0:
                worst_ratio = max(worst_ratio, measured / bound)
            elif measured > 0:
                worst_ratio = np.inf
        if family == 1:
            scale = max(linalg.op_norm(x), 1e-300)
            for comp in dec.components:
                herm_index = max(herm_index, comp.index)
                herm_nil = max(herm_nil, linalg.op_norm(comp.nilpotent) / scale)
    ok = worst_ratio <= 1.0 and herm_index == 1 and herm_nil <= 1e-10
    report(3, "decomposition invariants, 200 matrices", ok,
           f"worst residual/bound {worst_ratio:.2e} <= 1; hermitian max index "
           f"{herm_index} == 1, max ||N||/||X|| {herm_nil:.3e} <= 1e-10",
           time.perf_counter() - t0, 30.0)


def test_criterion_04_self_adjoint_collapse():
    rng = np.random.default_rng(44)
    h1 = synth.random_hermitian(rng, 5)
    h2 = synth.random_hermitian(rng, 4)
    worst_split, worst_direct = 0.0, 0.0
    for spec in ("exp(z1+z2)", "poly{(1,1): 1, (2,0): 0.5, (0,3): 0.25}"):
        f = parse(spec)
        system = calculus.lift([h1, h2])
        res = calculus.func_multivariate(f, system)
        s0, s_mixed, s_full = three = res.s0, res.s_mixed, res.s_full
        scale = linalg.op_norm(res.value)
        worst_split = max(worst_split, linalg.op_norm(s_mixed) / scale,
                          linalg.op_norm(s_full) / scale)
        l1, u1 = np.linalg.eigh(h1)
        l2, u2 = np.linalg.eigh(h2)
        direct = np.zeros((20, 20), dtype=complex)
        for i in range(5):
            p_i = np.outer(u1[:, i], u1[:, i].conj())
            for j in range(4):
                q_j = np.outer(u2[:, j], u2[:, j].conj())
                direct += complex(f(l1[i], l2[j])) * np.kron(p_i, q_j)
        worst_direct = max(worst_direct, linalg.op_norm(res.value - direct))
        assert linalg.op_norm(res.value - sum(three)) <= 1e-12 * scale
    ok = worst_split <= 1e-10 and worst_direct <= 1e-10
    report(4, "self-adjoint collapse", ok,
           f"max (||s_mixed||+||s_full||)/||value|| {worst_split:.3e} <= 1e-10; "
           f"max diff vs eigendecomposition {worst_direct:.3e} <= 1e-10")


def test_criterion_05_harmonic_oscillator():
    m = approx.build_model("harmonic", 64)
    lams = np.sort(np.sort_complex(m.eigenvalues).real)
    lam_err = float(np.max(np.abs(lams - (2.0 * np.arange(64) + 1.0))))
    f = parse("exp(-z1)")
    contour = approx.lowest_cluster_contour(m, 3)
    rep = approx.level_experiment(m, f, -1.0, contour,
                                  [3, 4, 5, 6, 8, 12, 16, 24, 32],
                                  probes=approx.default_probes(64, 4))
    probe_worst = max(max(r.probe_errors) for r in rep.rows)
    ok = lam_err <= 1e-12 and probe_worst <= 1e-14
    report(5, "harmonic oscillator", ok,
           f"max |lambda - (2n+1)| {lam_err:.3e} <= 1e-12; "
           f"probe errors for n >= 3 max {probe_worst:.3e} <= 1e-14")


def test_criterion_06_level2_perturbation_bound():
    t0 = time.perf_counter()
    m = approx.build_model("jordan_toy", 4)
    rng = np.random.default_rng(6)
    e_rand = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    e_rand /= linalg.op_norm(e_rand)
    contour = spectra.Contour(center=0.5 + 0.5j, radius=2.0, nodes=64)
    ok, worst, c_fs = True, 0.0, []
    for e_mat in (np.eye(4, dtype=complex), e_rand):
        rep = approx.perturbation_experiment(m.matrix_ref, e_mat,
                                             [1e-1, 1e-2, 1e-3, 1e-4],
                                             parse("exp(-z1)"), -1.0, contour)
        ok = ok and rep.level2_pass
        worst = max(worst, max(r.func_error_norm / r.bound_rhs for r in rep.rows))
        c_fs.append(rep.c_f)
    report(6, "level-2 bound on jordan_toy family", ok,
           f"C_f {c_fs[0]:.3f} (E=I) / {c_fs[1]:.3f} (random E); "
           f"max error/bound {worst:.3e} <= 1 over deltas 1e-1..1e-4",
           time.perf_counter() - t0, 10.0)


def test_criterion_07_multivariate_bound_and_factorization():
    t0 = time.perf_counter()
    m1 = approx.build_model("harmonic", 32)
    m2 = approx.build_model("harmonic", 32)
    f = parse("exp(-z1-z2)")
    contours = [approx.lowest_cluster_contour(m, 3) for m in (m1, m2)]
    rep = approx.multivariate_experiment([m1, m2], f, [-1.0, -1.0], contours,
                                         [2, 3, 4, 6, 8, 12, 16])
    ratios = [r.func_error_norm / r.bound_rhs for r in rep.rows]
    system = calculus.lift([m1.matrix_ref, m2.matrix_ref])
    value = calculus.func_multivariate(f, system).value
    expect = np.kron(scipy.linalg.expm(-m1.matrix_ref),
                     scipy.linalg.expm(-m2.matrix_ref))
    fact = linalg.op_norm(value - expect)
    ok = rep.level2_pass and fact <= 1e-9 and value.shape[0] <= 4096
    report(7, "multivariate additive bound", ok,
           f"max error/bound {max(ratios):.3e} <= 1 over n; "
           f"exp factorization diff {fact:.3e} <= 1e-9; tensor dim {value.shape[0]}",
           time.perf_counter() - t0, 60.0)


def test_criterion_08_complex_harmonic():
    m64 = approx.build_model("complex_harmonic", 64)
    m128 = approx.build_model("complex_harmonic", 128)
    x = m64.matrix_ref
    normality = linalg.op_norm(x @ x.conj().T - x.conj().T @ x)
    floor = 1e-6 * linalg.op_norm(x) ** 2
    lam64 = min(np.sort_complex(m64.eigenvalues), key=abs)
    lam128 = min(np.sort_complex(m128.eigenvalues), key=abs)
    drift = abs(lam64 - lam128) / abs(lam128)
    contour = approx.lowest_cluster_contour(m128, 3)
    rep = approx.level_experiment(m128, parse("exp(-z1)"), -1.0, contour,
                                  [8, 16, 24, 32, 48, 64],
                                  stability_check=False)
    seq = [max(r.probe_errors) for r in rep.rows]
    monotone = all(b <= a for a, b in zip(seq, seq[1:]))
    ok = normality > floor and drift <= 1e-3 and monotone and seq[-1] <= 1e-6
    report(8, "complex harmonic oscillator", ok,
           f"non-normality {normality:.3e} > {floor:.3e}; eigenvalue drift "
           f"{drift:.3e} <= 1e-3; probes {seq[0]:.2e} -> {seq[-1]:.2e} "
           f"monotone, final <= 1e-6")


def test_criterion_09_regularization_sweep():
    t0 = time.perf_counter()
    m = approx.build_model("complex_harmonic", 64)
    k = np.diag(1.0 / np.arange(1.0, 65.0)).astype(complex)
    rep = approx.regularization_sweep(m.matrix_ref, k,
                                      [1e-1, 1e-2, 1e-3, 1e-4], -1.0)
    firsts = [row.probe_errors[0] for row in rep.rows]
    ok = rep.strictly_decreasing and rep.bound_pass
    report(9, "regularization sweep", ok,
           f"probe errors strictly decreasing {firsts[0]:.2e} -> {firsts[-1]:.2e}; "
           f"identity bound holds at every eps",
           time.perf_counter() - t0, 20.0)


def test_criterion_10_cli_determinism(tmp_path):
    cfg = tmp_path / "cv.ini"
    cfg.write_text("\n".join([
        "[model]", "kind = harmonic", "ref_dim = 32", "",
        "[function]", "spec = exp(-z1)", "",
        "[experiment]", "n_list = 2, 4, 8", "probes = 2", "stability = false",
    ]))
    runs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        assert cli.main(["converge", "--config", str(cfg), "--out", str(out)]) == 0
        runs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    ok = runs[0] == runs[1] and "manifest.csv" in runs[0]
    report(10, "CLI determinism", ok,
           f"two runs, {len(runs[0])} artifacts each, byte-identical manifests")
