import functools
import itertools
import struct
import warnings
from math import comb, factorial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pncalc import functions
from pncalc.errors import ConfigError, DomainError

parse = functions.parse_function


def test_parse_polynomial_exact_coefficients():
    f = parse("poly{0:1,1:-0.5,3:2.25}")
    assert f.arity == 1
    assert f.table == {(0,): 1.0 + 0.0j, (1,): -0.5 + 0.0j, (3,): 2.25 + 0.0j}
    f2 = parse("poly{(0,0):1,(2,1):-1j}")
    assert f2.arity == 2
    assert f2.table == {(0, 0): 1.0 + 0.0j, (2, 1): -1.0j}


def test_parse_affine_forms():
    f = parse("exp(z1+2*z2)")
    assert f.arity == 2
    assert f(0.0, 0.0) == pytest.approx(1.0)
    assert f(1.0, 1.0) == pytest.approx(np.exp(3.0))
    g = parse("sin(-z1+0.5)")
    assert g(0.25 + 0.0j) == pytest.approx(np.sin(0.25))
    h = parse("exp((1+2j)*z1)")
    assert h(1.0) == pytest.approx(np.exp(1.0 + 2.0j))


def test_parse_composites_and_arity_padding():
    f = parse("sum(exp(z1),poly{(0,1):1})")  # arity-1 exp padded to arity 2
    assert f.arity == 2
    assert f(1.0, 2.0) == pytest.approx(np.e + 2.0)
    g = parse("ratio(poly{0:1},poly{0:2,1:-1})")  # 1 / (2 - z)
    assert g(0.0) == pytest.approx(0.5)
    assert g(1.0 + 1.0j) == pytest.approx(1.0 / (1.0 - 1.0j))


def test_parse_rejects_malformed():
    for bad in ("exp(z1", "poly{0:}", "frob(z1)", "poly{(0,1:1}", "", "exp()", "exp(z1*z2)",
                "exp(z1**2)", "poly{(1.5,0):1}", "poly{**a}", "poly{0:nan}", "exp(z1) junk",
                "exp(1e999)", "poly{0:0x" + "f" * 4000 + "}", "exp(z100)",
                "sum(" * 201 + "exp(z1)" + ",exp(z1))" * 201):
        with pytest.raises(ConfigError):
            parse(bad)


_SPEC_TOKENS = ["poly", "exp", "sin", "sum", "ratio", "(", ")", "{", "}", ",", ":", "*", "**",
                "+", "-", "/", " ", "z1", "z2", "z0", "a", "2", "0.5", "1j", "1e999", "nan",
                "or ", "if ", "'\\d'", "[", ".", "_"]


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(max_size=24),
                 st.lists(st.sampled_from(_SPEC_TOKENS), max_size=12).map("".join)))
@example("poly{**a}")
@example("2z1")
@example("exp(2or z1)")
@example("exp('\\d')")
def test_any_text_is_a_function_or_a_config_error(spec):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            assert isinstance(parse(spec), functions.AnalyticFunction)
        except ConfigError:
            pass
    assert not caught, [str(w.message) for w in caught]


def test_spec_is_never_evaluated(tmp_path):
    target = str(tmp_path / "x")
    for spec in (f"exp(open({target!r}, 'w'))", f"poly{{0:open({target!r}, 'w')}}",
                 f"__import__('pathlib').Path({target!r}).touch()",
                 f"sum(exp(z1), __import__('os').mkdir({target!r}))"):
        with pytest.raises(ConfigError):
            parse(spec)
    assert not (tmp_path / "x").exists()


def test_signs_fold_into_literals():
    # as complex("-0.9") reads them: the sign goes to the part it precedes
    const = parse("exp(-z1)").affine.const
    assert struct.pack("<dd", const.real, const.imag) == struct.pack("<dd", 0.0, 0.0)
    coeff = parse("exp(-0.9*z1)").affine.coeffs[0]
    assert struct.pack("<dd", coeff.real, coeff.imag) == struct.pack("<dd", -0.9, 0.0)


def test_spec_round_trip_preserves_values():
    specs = [
        "poly{0:1,2:(-1-1j)}",
        "exp(-z1+0.25*z2)",
        "prod(sin(z1),cos(z2))",
        "ratio(poly{(1,0):1},poly{(0,0):4,(0,1):1})",
        "sum(exp(z1+z2),poly{(1,1):-2})",
        # a zero last coefficient is written, so the arity comes back
        "exp(z1+0*z2)",
        "exp(0*z2)",  # exp(0.0) at arity 2
    ]
    rng = np.random.default_rng(7)
    for s in specs:
        f = parse(s)
        g = parse(f.to_spec())
        assert g.arity == f.arity
        pts = rng.normal(size=(5, f.arity)) + 1j * rng.normal(size=(5, f.arity))
        for p in pts:
            assert complex(f(*p)) == pytest.approx(complex(g(*p)), abs=1e-13)


def _derivative(f, point, alpha):
    """d^alpha f at `point`, as alpha! times the Taylor coefficient a_alpha."""
    box = functions.taylor_coefficients(f, point, max(alpha))
    return complex(np.prod([factorial(q) for q in alpha]) * box[tuple(alpha)])


def _cauchy_derivative(f, point, alpha, nodes=128):
    """d^alpha f at `point` by iterated Cauchy quadrature on circles of
    radius 0.3 times the distance to the nearest declared pole along each
    differentiated variable (1 where there is none), taken at `nodes` and
    2 * `nodes` nodes per variable, which must agree within 1e-8."""
    pt = [complex(c) for c in point]
    support = [j for j, q in enumerate(alpha) if q > 0]
    radii = {}
    for j in support:
        poles = f.axis_poles(j, pt)
        radii[j] = 0.3 * float(np.min(np.abs(poles - pt[j]))) if poles.size else 1.0
        assert radii[j] > 0

    def integral(n):
        th = 2.0 * np.pi * np.arange(n) / n
        grids = np.meshgrid(*[th for _ in support], indexing="ij")
        coords = list(pt)
        weight = np.ones_like(grids[0], dtype=complex)
        for axis, j in enumerate(support):
            q = alpha[j]
            coords[j] = pt[j] + radii[j] * np.exp(1j * grids[axis])
            weight = weight * (factorial(q) / (n * radii[j] ** q) * np.exp(-1j * q * grids[axis]))
        return complex(np.sum(weight * f(*coords)))

    coarse, fine = integral(nodes), integral(2 * nodes)
    assert abs(fine - coarse) <= 1e-8 * (1.0 + abs(fine)), alpha
    return fine


def test_mixed_partial_exp_closed_form():
    # d^(1,2) exp(z1 + 2 z2) = 1 * 2^2 * exp(z1 + 2 z2) -> 4 at the origin
    f = parse("exp(z1+2*z2)")
    val = _derivative(f, (0.0, 0.0), (1, 2))
    assert val == pytest.approx(4.0, abs=1e-12)
    assert _derivative(f, (0.0, 0.0), (0, 0)) == pytest.approx(1.0)


def test_mixed_partial_polynomial_table():
    # d^(2,1) [z1^2 z2 + z1] = 2, constant in z
    f = parse("poly{(2,1):1,(1,0):1}")
    assert _derivative(f, (0.7, -0.3), (2, 1)) == pytest.approx(2.0, abs=1e-12)
    assert _derivative(f, (0.7, -0.3), (3, 0)) == pytest.approx(0.0, abs=1e-12)


def test_mixed_partial_finite_difference_consistency():
    f = parse("prod(exp(z1),sin(z2))")
    h = 1e-5
    pt = (0.3, 0.4)
    fd = (complex(f(0.3 + h, 0.4)) - complex(f(0.3 - h, 0.4))) / (2 * h)
    assert _derivative(f, pt, (1, 0)) == pytest.approx(fd, abs=1e-6)


def test_cauchy_contour_matches_closed_form():
    cases = [
        ("exp(z1+z2)", (0.1, -0.2), (2, 1)),
        ("sin(0.5*z1)", (0.4,), (3,)),
        ("ratio(poly{0:1},poly{0:3,1:-1})", (0.0,), (2,)),  # 1/(3-z)
        ("prod(exp(z1),sin(z2))", (0.2, -0.3), (3, 2)),
        ("ratio(poly{(0,0):1},poly{(0,0):4,(1,0):-1,(0,1):-1})", (0.1, 0.2), (2, 1)),
    ]
    for spec, pt, alpha in cases:
        f = parse(spec)
        a = _derivative(f, pt, alpha)
        b = _cauchy_derivative(f, pt, alpha)
        assert abs(a - b) <= 1e-10 * (1.0 + abs(a)), spec


def test_taylor_coefficients_geometric():
    # 1/(3-z) about 0: coefficients 3^-(k+1)
    f = parse("ratio(poly{0:1},poly{0:3,1:-1})")
    coeffs = functions.taylor_coefficients(f, (0.0,), 8)
    expect = 3.0 ** -(np.arange(9.0) + 1.0)
    assert np.max(np.abs(coeffs - expect)) <= 1e-12
    # a grid with a center on the pole z = 3
    with pytest.raises(DomainError):
        f.taylor_grid([np.array([0.0, 3.0])], 2)


def test_taylor_coefficients_polynomial_rebase():
    # (1+z)^2 about center 1: (1+z)^2 = 4 + 4(z-1) + (z-1)^2
    f = parse("poly{0:1,1:2,2:1}")
    coeffs = functions.taylor_coefficients(f, (1.0,), 3)
    assert np.allclose(coeffs, [4.0, 4.0, 1.0, 0.0])


def test_taylor_coefficients_product_convolution():
    f = parse("prod(exp(z1),exp(z1))")  # = exp(2 z1)
    coeffs = functions.taylor_coefficients(f, (0.0,), 6)
    expect = np.array([2.0 ** k / factorial(k) for k in range(7)])
    assert np.max(np.abs(coeffs - expect)) <= 1e-12
    # (exp(z1 + z2) / 1) exp(z1 - z2) = exp(2 z1), a product under which a
    # ratio sits: 2^k e^(2 c1) / k! on the first column, zeros elsewhere
    center, cap = [0.3 + 0.1j, -0.2 + 0.4j], 6
    box = parse("prod(ratio(exp(z1+z2),poly{(0,0):1}), exp(z1-z2))").taylor_box(center, cap)
    want = np.zeros((cap + 1, cap + 1), dtype=complex)
    want[:, 0] = np.exp(2.0 * center[0]) * expect
    assert np.max(np.abs(box - want)) <= 1e-14 * np.max(np.abs(want))


def test_taylor_box_product_with_sparse_factor_is_exact():
    # exp(z1) * (1 + z2) about c: a[i, 0] = e^c1 (1 + c2) / i!, a[i, 1] = e^c1 / i!
    f = parse("prod(exp(z1),poly{(0,0):1,(0,1):1})")
    c1, c2 = 0.3 + 0.2j, -0.5 + 0.1j
    cap = 40
    box = functions.taylor_coefficients(f, (c1, c2), cap)
    from math import factorial
    expect = np.zeros((cap + 1, cap + 1), dtype=complex)
    for i in range(cap + 1):
        expect[i, 0] = np.exp(c1) * (1.0 + c2) / factorial(i)
        expect[i, 1] = np.exp(c1) / factorial(i)
    assert np.all(box[:, 2:] == 0.0)
    rel = np.abs(box[:, :2] - expect[:, :2]) / np.abs(expect[:, :2])
    assert np.max(rel) <= 1e-14


def test_assert_analytic_on_detects_pole():
    f = parse("ratio(poly{0:1},poly{0:1,1:-1})")  # pole at z = 1
    f.assert_analytic_on([3.0], [1.0])  # disk around 3 misses it
    with pytest.raises(DomainError):
        f.assert_analytic_on([0.0], [1.5])
    with pytest.raises(DomainError):
        f.assert_analytic_on([0.0], [1.0])  # pole on the margin band
    # a product of polynomials: the slices of (1 - z1)(2 + z2 - z1)
    g = parse("ratio(poly{(0,0):1},prod(poly{(0,0):1,(1,0):-1},poly{(0,0):2,(0,1):1,(1,0):-1}))")
    assert np.allclose(np.sort_complex(g.axis_poles(0, [0.5, 0.25j])), [1.0, 2.0 + 0.25j])
    assert np.allclose(g.axis_poles(1, [0.5, 0.25j]), [-1.5])


def test_as_multi_index_validation():
    assert functions.as_multi_index((1, 2), 2) == (1, 2)
    with pytest.raises(ConfigError):
        functions.as_multi_index((1,), 2)
    with pytest.raises(ConfigError):
        functions.as_multi_index((-1, 0), 2)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 4), st.integers(0, 2 ** 31 - 1))
def test_partial_linearity_property(order, seed):
    # d^k (a f + b g) = a d^k f + b d^k g on a random sum of polynomials
    rng = np.random.default_rng(seed)
    a, b = complex(rng.normal(), rng.normal()), complex(rng.normal(), rng.normal())
    f = functions.Polynomial({(0,): a, (2,): 2 * a, (3,): -a}, 1)
    g = functions.Polynomial({(1,): b, (2,): -b}, 1)
    s = functions.Sum(f, g)
    z = complex(rng.normal(), rng.normal())
    lhs = _derivative(s, (z,), (order,))
    rhs = _derivative(f, (z,), (order,)) + _derivative(g, (z,), (order,))
    assert lhs == pytest.approx(rhs, abs=1e-10 * (1 + abs(rhs)))


def test_vectorized_evaluation_matches_scalar():
    f = parse("prod(exp(z1),poly{(0,1):1})")
    z1 = np.array([[0.1, 0.2], [0.3, 0.4]], dtype=complex)
    z2 = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
    grid = np.asarray(f(z1, z2), dtype=complex)
    for i in range(2):
        for j in range(2):
            assert grid[i, j] == pytest.approx(np.exp(z1[i, j]) * z2[i, j])


def _dense_reference_box(f, center, cap):
    """The per-class dense Taylor boxes that came before Taylor terms."""
    r = f.arity
    if isinstance(f, functions.Polynomial):
        box = np.zeros((cap + 1,) * r, dtype=complex)
        for alpha, c in f.table.items():
            for beta in itertools.product(*(range(min(a, cap) + 1) for a in alpha)):
                w = c
                for j in range(r):
                    w *= comb(alpha[j], beta[j]) * center[j] ** (alpha[j] - beta[j])
                box[beta] += w
        return box
    if isinstance(f, functions.ExpAffine):
        box = np.array(np.exp(f.affine(center)), dtype=complex)
        for c in f.affine.coeffs:
            box = np.multiply.outer(box, [c ** q / float(factorial(q)) for q in range(cap + 1)])
        return box
    if isinstance(f, (functions.SinAffine, functions.CosAffine)):
        up, dn = (_dense_reference_box(functions.ExpAffine(f.affine.scaled(s), r), center, cap)
                  for s in (1j, -1j))
        return (up - dn) / 2j if isinstance(f, functions.SinAffine) else (up + dn) / 2.0
    a = _dense_reference_box(f.left, center, cap)
    b = _dense_reference_box(f.right, center, cap)
    if isinstance(f, functions.Sum):
        return a + b
    out = np.zeros_like(a)
    if isinstance(f, functions.Product):
        for shift in zip(*np.nonzero(b)):
            dst = tuple(slice(s, None) for s in shift)
            src = tuple(slice(0, cap + 1 - s) for s in shift)
            out[dst] += b[shift] * a[src]
        return out
    for alpha in np.ndindex(a.shape):   # ratio: series division
        low = tuple(slice(0, k + 1) for k in alpha)
        rev = tuple(slice(k, None, -1) for k in alpha)
        out[alpha] = (a[alpha] - np.sum(b[low] * out[rev][low])) / b[(0,) * r]
    return out


_BOX_SPECS = ["poly{(0,0):1,(2,1):-0.5,(1,0):2,(3,3):(0.5-1j)}", "exp(2*z1-z2+1)",
              "sin(z1+0.5j*z2-0.3)", "cos((0.3+0.2j)*z2-1)", "sum(exp(z1),poly{(0,1):3})",
              "prod(sin(z1+z2),poly{(1,1):1,(0,0):2})", "prod(exp(z1+z2),exp(z1-z2))",
              "sum(prod(cos(z1-0.3*z2),sum(exp(0.5*z1),sin(z2))),prod(poly{(2,0):1},exp(-z2)))",
              "ratio(poly{(0,0):1},poly{(0,0):4,(1,0):-1,(0,1):-1})",
              "prod(ratio(exp(z1),poly{(0,0):3,(0,1):1}),sum(sin(z2),poly{(1,1):2}))",
              "ratio(ratio(exp(z1+z2),poly{(0,0):3,(1,0):1}),sum(cos(z1),poly{(0,0):2}))",
              "sum(ratio(poly{(0,0):1},poly{(0,0):4,(1,0):-1}),ratio(exp(z2),poly{(0,0):5,(0,1):1}))",
              "prod(ratio(exp(z1+z2),poly{(0,0):1}), exp(z1-z2))"]


def test_taylor_terms_match_the_dense_boxes():
    for spec in _BOX_SPECS:
        f = parse(spec)
        for center, cap in (((0.3 + 0.1j, -0.2 + 0.4j), 0), ((0.3 + 0.1j, -0.2 + 0.4j), 9),
                            ((1.5, -2.0), 5)):
            want = _dense_reference_box(f, center, cap)
            got = functions.taylor_coefficients(f, center, cap)
            assert np.max(np.abs(got - want)) <= 1e-14 * (1.0 + np.max(np.abs(want))), spec
        # every center of a per-axis grid, from one call
        axes = [np.array([0.3 + 0.1j, -0.7, 1.2j]), np.array([0.5, -0.4 - 0.2j])]
        grid = f.taylor_grid(axes, 6)
        terms = f.taylor_terms(axes, 6)
        assert (terms is None) == ("ratio" in spec), spec
        for idx in itertools.product(*(range(len(x)) for x in axes)):
            want = _dense_reference_box(f, [x[i] for x, i in zip(axes, idx)], 6)
            got = [grid[idx]] + ([] if terms is None else [sum(
                functools.reduce(np.multiply.outer, [row[i] for row, i in zip(term, idx)])
                for term in terms)])
            for box in got:
                assert np.max(np.abs(box - want)) <= 1e-14 * (1.0 + np.max(np.abs(want))), spec
    # exp(z1 - z2) = 1 at (800, 800), though e^800 overflows on either axis alone
    f = parse("exp(z1-z2)")
    box = functions.taylor_coefficients(f, (800.0, 800.0), 4)
    assert np.all(np.isfinite(box))
    assert np.max(np.abs(box - _dense_reference_box(f, (800.0, 800.0), 4))) <= 1e-14
    near = [np.array([799.5, 800.0, 800.5])] * 2
    got = sum(functools.reduce(np.multiply.outer, [row[1] for row in term])
              for term in f.taylor_terms(near, 4))
    assert np.all(np.isfinite(got)) and np.max(np.abs(got - box)) <= 1e-14


@st.composite
def _trees(draw, arity, depth, safe=False):
    """A random function tree of at most `depth` binary nodes; a `safe` one
    does not vanish where every |z_j| <= 1/2, so it can be a denominator."""
    coeff = st.floats(-1.0, 1.0)
    kinds = ["exp", "poly", "prod", "ratio"] if safe else [
        "poly", "exp", "sin", "cos", "sum", "prod", "ratio"]
    kind = draw(st.sampled_from(kinds[:2 if safe else 4] if depth == 0 else kinds))
    if kind == "poly":
        monomials = draw(st.lists(st.tuples(*[st.integers(0, 2)] * arity), min_size=1,
                                  max_size=3))
        if safe:   # 3 + at most three monomials of size <= 1/2 each on the disk
            table = {(0,) * arity: 3.0, **{m: 0.5 * draw(coeff) for m in monomials if any(m)}}
        else:
            table = {m: draw(coeff) for m in monomials}
        return functions.Polynomial(table, arity)
    if kind in ("exp", "sin", "cos"):
        affine = functions._Affine([draw(coeff) for _ in range(arity)], draw(coeff))
        cls = {"exp": functions.ExpAffine, "sin": functions.SinAffine, "cos": functions.CosAffine}
        return cls[kind](affine, arity)
    left = draw(_trees(arity, depth - 1, safe))
    right = draw(_trees(arity, depth - 1, safe or kind == "ratio"))
    return {"sum": functions.Sum, "prod": functions.Product, "ratio": functions.Ratio}[kind](
        left, right)


@settings(max_examples=40, deadline=None)
@given(st.data(), st.integers(1, 3), st.integers(0, 3), st.integers(0, 6))
def test_random_trees_match_the_dense_boxes(data, arity, depth, cap):
    # sums, products and ratios nested to any depth: the coefficient grid on
    # two centers per axis against the per-class dense boxes at each center
    f = data.draw(_trees(arity, depth))
    part = st.floats(-0.35, 0.35)
    axes = [np.array([complex(data.draw(part), data.draw(part)) for _ in range(2)])
            for _ in range(arity)]
    grid = f.taylor_grid(axes, cap)
    for idx in itertools.product(range(2), repeat=arity):
        want = _dense_reference_box(f, [x[i] for x, i in zip(axes, idx)], cap)
        assert np.max(np.abs(grid[idx] - want)) <= 1e-13 * (1.0 + np.max(np.abs(want))), \
            f.to_spec()


def test_exp_taylor_terms_split_a_wide_axis_into_runs():
    # Re(-10 z1) spans 4000 over these centers, past the float exponent
    # range: e^(c (x - m)) about one mean would overflow on one side and
    # underflow on the other, so each run of the axis gets its own term
    f = parse("exp(-10*z1+0.5*z2+1)")
    axes = [np.array([0.0, 150.0, 0.3 + 0.2j, 400.0, 151.0]), np.array([1.0, -2.0 + 1j])]
    terms = f.taylor_terms(axes, 3)
    assert len(terms) == 3   # runs {0, 0.3 + 0.2j}, {150, 151}, {400}
    for idx in itertools.product(*(range(len(x)) for x in axes)):
        got = sum(functools.reduce(np.multiply.outer, [row[i] for row, i in zip(term, idx)])
                  for term in terms)
        want = _dense_reference_box(f, [x[i] for x, i in zip(axes, idx)], 3)
        assert np.all(np.isfinite(got))
        assert np.max(np.abs(got - want)) <= 1e-14 * (1.0 + np.max(np.abs(want))), idx
    # one run per axis: one term, its scalar f at the axes' means
    assert len(f.taylor_terms([np.array([0.0, 3.0]), np.array([1.0])], 3)) == 1


def _tree_bits(f, zero_sign=False):
    """f's classes, arities, exponent tuples and coefficient bit patterns;
    with `zero_sign` False a -0.0 part counts as +0.0 (x + 0.0)."""
    def bits(c):
        c = complex(c) if zero_sign else complex(c) + 0.0
        return struct.pack("<dd", c.real, c.imag)
    head = (type(f).__name__, f.arity)
    if isinstance(f, functions.Polynomial):
        return head + tuple((a, bits(c)) for a, c in sorted(f.table.items()))
    if hasattr(f, "affine"):
        return head + tuple(map(bits, f.affine.coeffs)) + (bits(f.affine.const),)
    return head + (_tree_bits(f.left, zero_sign), _tree_bits(f.right, zero_sign))


@settings(max_examples=60, deadline=None)
@given(st.data(), st.integers(1, 3), st.integers(0, 3))
def test_random_trees_round_trip_through_their_spec(data, arity, depth):
    # to_spec writes no zero term of an affine form but the last variable's,
    # as 0.0: a drawn -0.0 comes back as +0.0, and every other bit of every
    # coefficient, and the arity, come back as they were
    f = data.draw(_trees(arity, depth))
    g = parse(f.to_spec())
    assert g.to_spec() == f.to_spec()
    assert _tree_bits(g, zero_sign=True) == _tree_bits(f)
