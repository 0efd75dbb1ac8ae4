"""Analytic scalar functions of several complex variables.

The builtin family is a tiny closed expression algebra: polynomials in
coefficient-table form, exp/sin/cos of affine combinations, ratios of
polynomials with declared (per-variable) pole sets, plus sums and products.
Every node knows three things the calculus needs:

* vectorized evaluation,
* its Taylor coefficients d^alpha f / alpha! at every center of a per-axis
  grid (`taylor_grid`), the one source of derivative coefficients for the
  spectral assembly, the power-series route and `taylor_coefficients`.  A
  tree without a ratio has Taylor terms (`taylor_terms`): the coefficients
  as a finite sum of products of one per-axis coefficient vector each.  A
  polynomial has one term per monomial, exp of an affine argument one
  (more on an axis whose centers spread widely), sin and cos two; sums
  concatenate terms and products pair them.  Its grid is their
  contraction, and the multivariate quadrature reads
  f = sum_t prod_j g_tj(z_j) on its nodes as the order-0 column.  A tree
  holding a ratio is rewritten as one fraction N/D of trees with terms
  (`_fraction`), and its grid is one series division of N's grid by D's
  terms, shell by shell in total degree,
* declared poles along each variable, for the analyticity checks.

`parse_function` reads a tree from its spec string (`to_spec` writes one)
with Python's expression parser, and never evaluates it.

`partial` (each node differentiates to another node) is kept as public
API; the calculus does not use it.

Multi-indices are plain int tuples throughout.
"""
from __future__ import annotations

import ast
import itertools
import sys
import warnings
from math import comb, factorial

import numpy as np

from .errors import ConfigError, DomainError

_DEN_FLOOR = 1e-250
# relative widening of the polydisk inside which a declared pole is refused
_POLE_MARGIN = 0.05
# the widest spread of Re(c_j x_j) over the centers of one axis that one
# Taylor term of exp(c . z + d) covers (`ExpAffine.taylor_terms`)
_EXP_RUN_SPAN = 32.0


def _inv_factorials(cap: int) -> np.ndarray:
    """1/q! for q = 0..cap, read from one table that grows on first need
    (0 past q = 170, where q! leaves the float range)."""
    global _INV_FACTORIALS
    if len(_INV_FACTORIALS) <= cap:
        _INV_FACTORIALS = np.array([1.0 / float(factorial(q)) if q <= 170 else 0.0
                                    for q in range(max(cap + 1, 2 * len(_INV_FACTORIALS)))])
    return _INV_FACTORIALS[:cap + 1]


_INV_FACTORIALS = np.ones(1)


def _runs(v: np.ndarray, span: float) -> list[np.ndarray | slice]:
    """Indices of v in runs of its sorted values, each run spanning at most
    `span` from its first value; one run, all of v as slice(None), when all
    of v does."""
    if np.ptp(v) <= span:
        return [slice(None)]
    runs, start = [], None
    for i in np.argsort(v, kind="stable"):
        if start is None or v[i] - start > span:
            runs.append([])
            start = v[i]
        runs[-1].append(i)
    return [np.array(run) for run in runs]


def _convolve_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Product of truncated series along the last axis, broadcast over the
    others: out[..., k] = sum_q a[..., q] b[..., k - q].

    Summed over the nonzero columns of the sparser side, so the product is
    exact where one side is a polynomial.
    """
    used_a, used_b = (np.flatnonzero(x.reshape(-1, x.shape[-1]).any(axis=0)) for x in (a, b))
    if used_a.size < used_b.size:
        a, b, used_b = b, a, used_a
    out = np.zeros(np.broadcast_shapes(a.shape, b.shape), dtype=complex)
    width = a.shape[-1]
    for q in used_b:
        out[..., q:] += b[..., q, None] * a[..., :width - q]
    return out


def _contract(terms) -> np.ndarray:
    """The coefficient grid sum_t outer_j terms[t][j] of Taylor terms, on
    axes (centers_1..r, powers_1..r)."""
    rows = [np.array([term[j] for term in terms]) for j in range(len(terms[0]))]
    grid = rows[0]   # (terms, centers, powers), then each later axis's pair appended
    for j, row in enumerate(rows[1:], 1):
        grid = grid[..., None, None] * row.reshape(len(terms), *(1,) * (2 * j), *row.shape[1:])
    r = len(rows)
    return grid.sum(axis=0).transpose([*range(0, 2 * r, 2), *range(1, 2 * r, 2)])


def _divide(num: np.ndarray, den) -> np.ndarray:
    """The coefficient grid of the series quotient num / den, from num's
    grid and den's Taylor terms on the same centers.

    Shell s of total degree is (num - den q) / d0 on that shell, with q
    holding its final shells below s: den's coefficients past its constant
    d0 reach only lower shells of q.  den q is, per term of den, one
    lower-triangular Toeplitz product per axis, batched over the centers
    and taken on the powers up to s.
    """
    r, width = num.ndim // 2, num.shape[-1]
    d0 = _contract([[row[:, :1] for row in term] for term in den])[(Ellipsis,) + (0,) * r]
    if np.any(np.abs(d0) < _DEN_FLOOR):
        raise DomainError("series center sits on a pole of the denominator")
    lag = np.subtract.outer(np.arange(width), np.arange(width))
    toeplitz = [[np.where(lag >= 0, row[:, np.maximum(lag, 0)], 0) for row in term]
                for term in den]
    degree = sum(np.indices((width,) * r))
    q = np.zeros_like(num)
    for s in range(r * (width - 1) + 1):
        m = min(s, width - 1) + 1
        low = (slice(None),) * r + (slice(0, m),) * r
        dq = 0
        for term in toeplitz:
            x = q[low]
            for j, t in enumerate(term):
                x = np.moveaxis(x, (j, r + j), (0, 1))
                x = np.moveaxis(np.matmul(t[:, :m, :m], x.reshape(*x.shape[:2], -1))
                                .reshape(x.shape), (0, 1), (j, r + j))
            dq = dq + x
        shell = degree[(slice(0, m),) * r] == s
        q[low][..., shell] = (num[low][..., shell] - dq[..., shell]) / d0[..., None]
    return q


def _times(a, b):
    """The product tree a b of two sides of a fraction, None standing for 1."""
    return a if b is None else b if a is None else Product(a, b)


def as_multi_index(alpha, arity: int) -> tuple[int, ...]:
    """Validate a multi-index: `arity` nonnegative ints."""
    t = tuple(int(a) for a in alpha)
    if len(t) != arity or any(a < 0 for a in t):
        raise ConfigError(f"bad multi-index {alpha!r} for arity {arity}")
    return t


def _broadcast_point(point, arity):
    pt = tuple(np.asarray(p, dtype=complex) for p in point)
    if len(pt) != arity:
        raise ConfigError(f"point has {len(pt)} coordinates, function has arity {arity}")
    return pt


class AnalyticFunction:
    """Base node: arity, evaluation, partials, Taylor boxes, spec string."""

    arity: int
    _name = ""   # the head of its spec

    def __init__(self, arity: int):
        if arity < 1:
            raise ConfigError("arity must be at least 1")
        self.arity = int(arity)
        self._partial_cache: dict[int, AnalyticFunction] = {}

    # subclass surface -----------------------------------------------------
    def _eval(self, pt):
        raise NotImplementedError

    def _partial(self, j: int) -> "AnalyticFunction":
        raise NotImplementedError

    def to_spec(self) -> str:
        raise NotImplementedError

    def axis_poles(self, j: int, point) -> np.ndarray:
        """Poles along coordinate j with the other coordinates frozen at `point`."""
        return np.array([], dtype=complex)

    def max_degree(self):
        """Per-variable degree bound tuple, or None for transcendental nodes."""
        return None

    def taylor_terms(self, centers, cap: int) -> list[list[np.ndarray]] | None:
        """The Taylor coefficients of f as a sum of per-axis products.

        `centers` holds one 1-D array of center values per variable.  The
        result lists, per term t, one (len(centers[j]), cap+1) array per
        axis j, with the term's scalar on axis 0, so that the coefficient
        d^beta f / beta! at (centers[0][i_0], .., centers[r-1][i_r-1]) is
        sum_t prod_j terms[t][j][i_j, beta_j] for |beta|_inf <= cap; None
        when f holds a ratio.
        """
        return None

    def _fraction(self) -> tuple["AnalyticFunction", "AnalyticFunction | None"]:
        """f as N / D with N and D trees without a ratio; D is None, for 1,
        on a tree without one."""
        return self, None

    # shared machinery -----------------------------------------------------
    def __call__(self, *zs):
        return self._eval(_broadcast_point(zs, self.arity))

    def taylor_grid(self, centers, cap: int) -> np.ndarray:
        """The Taylor coefficients d^beta f / beta!, |beta|_inf <= cap, at
        every center of a per-axis grid, on axes (centers_1..r, powers_1..r).

        `centers` holds one 1-D array of center values per variable.  The
        grid is the contraction of f's Taylor terms when it has them; a tree
        holding a ratio divides the grid of its fraction's numerator by the
        denominator's terms (`_divide`; DomainError where the denominator
        vanishes at a center).
        """
        terms = self.taylor_terms(centers, cap)
        if terms is not None:
            return _contract(terms)
        num, den = self._fraction()
        return _divide(_contract(num.taylor_terms(centers, cap)), den.taylor_terms(centers, cap))

    def taylor_box(self, center, cap: int) -> np.ndarray:
        """Box of Taylor coefficients a_beta at `center`, shape (cap+1,)*arity:
        the grid of that one center (`taylor_grid`)."""
        grid = self.taylor_grid([np.array([c], dtype=complex) for c in center], cap)
        return grid.reshape((cap + 1,) * self.arity)

    def partial(self, j: int) -> "AnalyticFunction":
        if not 0 <= j < self.arity:
            raise ConfigError(f"variable index {j} out of range for arity {self.arity}")
        if j not in self._partial_cache:
            self._partial_cache[j] = self._partial(j)
        return self._partial_cache[j]

    def assert_analytic_on(self, centers, radii) -> None:
        """Fail when a declared pole is within (1 + _POLE_MARGIN) radii of a center."""
        centers = [complex(c) for c in centers]
        if len(centers) != self.arity or len(radii) != self.arity:
            raise ConfigError("polydisk spec does not match function arity")
        for j in range(self.arity):
            poles = self.axis_poles(j, centers)
            reach = radii[j] * (1.0 + _POLE_MARGIN)
            if poles.size and float(np.min(np.abs(poles - centers[j]))) <= reach:
                raise DomainError(
                    f"pole along z{j + 1} inside or near the polydisk "
                    f"(radius {radii[j]:g})")

    def __repr__(self):
        return f"<{type(self).__name__} {self.to_spec()}>"


class Polynomial(AnalyticFunction):
    """Coefficient table {multi-index: coefficient}."""
    _name = "poly"

    def __init__(self, table: dict, arity: int):
        super().__init__(arity)
        self.table = {}
        for alpha, c in table.items():
            alpha = as_multi_index(alpha if isinstance(alpha, tuple) else (alpha,), arity)
            c = complex(c)
            if c != 0:
                self.table[alpha] = self.table.get(alpha, 0) + c
        if not self.table:
            self.table = {(0,) * arity: 0j}

    def _eval(self, pt):
        acc = 0
        for alpha, c in self.table.items():
            term = np.full_like(pt[0], c, dtype=complex) if np.ndim(pt[0]) else c
            for j, a in enumerate(alpha):
                if a:
                    term = term * pt[j] ** a
            acc = acc + term
        return acc + np.zeros(np.broadcast_shapes(*(np.shape(p) for p in pt)), dtype=complex)

    def _partial(self, j):
        out = {}
        for alpha, c in self.table.items():
            if alpha[j] > 0:
                beta = alpha[:j] + (alpha[j] - 1,) + alpha[j + 1:]
                out[beta] = out.get(beta, 0) + c * alpha[j]
        return Polynomial(out, self.arity)

    def taylor_terms(self, centers, cap):
        # z^a = sum_q comb(a, q) x^(a - q) (z - x)^q about x, for every
        # monomial and center of an axis at once
        alphas = np.array(list(self.table), dtype=int)
        binom = np.array([[comb(a, k) for k in range(cap + 1)] for a in range(alphas.max() + 1)],
                         dtype=float)
        q = np.arange(cap + 1)
        axes = []
        for x, a in zip(centers, alphas.T):
            x = np.asarray(x, dtype=complex)
            axes.append(binom[a][:, None] * x[:, None] ** np.maximum(a[:, None] - q, 0)[:, None])
        axes[0] *= np.array(list(self.table.values()), dtype=complex)[:, None, None]
        return [list(rows) for rows in zip(*axes)]

    def max_degree(self):
        return tuple(max(a[j] for a in self.table) for j in range(self.arity))

    def to_spec(self):
        parts = []
        for alpha in sorted(self.table):
            key = str(alpha[0]) if self.arity == 1 else "(" + ",".join(map(str, alpha)) + ")"
            parts.append(f"{key}:{_fmt_num(self.table[alpha])}")
        return self._name + "{" + ",".join(parts) + "}"


class _Affine:
    """c . z + d, the argument of the transcendental nodes."""

    def __init__(self, coeffs, const):
        self.coeffs = tuple(complex(c) for c in coeffs)
        self.const = complex(const)

    def __call__(self, pt):
        acc = self.const + np.zeros(np.broadcast_shapes(*(np.shape(p) for p in pt)), dtype=complex)
        for c, z in zip(self.coeffs, pt):
            if c != 0:
                acc = acc + c * z
        return acc

    def scaled(self, s):
        return _Affine([s * c for c in self.coeffs], s * self.const)

    def to_spec(self):
        parts = []
        last = len(self.coeffs) - 1
        for j, c in enumerate(self.coeffs):
            if c == 0:
                if 0 < j == last:  # the parser reads the arity from the last zj
                    parts.append(f"0.0*z{j + 1}")
                continue
            if c == 1:
                parts.append(f"z{j + 1}")
            elif c == -1:
                parts.append(f"-z{j + 1}")
            else:
                parts.append(f"{_fmt_num(c)}*z{j + 1}")
        if self.const != 0 or not parts:
            parts.append(_fmt_num(self.const))
        spec = parts[0]
        for p in parts[1:]:
            spec += p if p.startswith("-") else "+" + p
        return spec


class _AffineTranscendental(AnalyticFunction):
    def __init__(self, affine: _Affine, arity: int):
        super().__init__(arity)
        if len(affine.coeffs) != arity:
            raise ConfigError("affine coefficient count does not match arity")
        self.affine = affine

    def to_spec(self):
        return f"{self._name}({self.affine.to_spec()})"


class ExpAffine(_AffineTranscendental):
    _name = "exp"

    def _eval(self, pt):
        return np.exp(self.affine(pt))

    def taylor_terms(self, centers, cap):
        # exp(c . z + d) = exp(c . m + d) prod_j exp(c_j (x_j - m_j)) exp(c_j (z_j - x_j))
        # about x.  Each axis's centers are split into runs over which
        # Re(c_j x_j) spans at most _EXP_RUN_SPAN, with one term per tuple of
        # runs, m_j the mean of its run on axis j and its rows 0 off the runs.
        # One mean for a whole axis could overflow a row where f is finite;
        # within a run a row is at most e^span off c_j^q / q! and the scalar
        # at most e^(r span) off f, so the products stay in range wherever
        # |log |f|| < 709 - 2 r span.  At one center per axis the rows are
        # c_j^q / q! and the scalar is f(x).
        coeffs = self.affine.coeffs
        centers = [np.asarray(x, dtype=complex) for x in centers]
        q = np.arange(cap + 1)
        powers = [c ** q * _inv_factorials(cap) for c in coeffs]
        runs = [_runs((c * x).real, _EXP_RUN_SPAN) for c, x in zip(coeffs, centers)]
        terms = []
        for pick in itertools.product(*runs):
            rows, exponent = [], 0
            for c, x, run, p in zip(coeffs, centers, pick, powers):
                m = x[run].mean()
                row = np.zeros((len(x), cap + 1), dtype=complex)
                row[run] = np.exp(c * (x[run] - m))[:, None] * p
                rows.append(row)
                exponent += c * m
            rows[0] *= np.exp(exponent + self.affine.const)
            terms.append(rows)
        return terms

    def _partial(self, j):
        return Product(Polynomial({(0,) * self.arity: self.affine.coeffs[j]}, self.arity), self)


class _Trigonometric(_AffineTranscendental):
    """A weighted sum w_+ exp(i a) + w_- exp(-i a) of the affine argument a;
    subclasses set `_weights` = (w_+, w_-)."""

    def _exp_parts(self):
        return [(ExpAffine(self.affine.scaled(s), self.arity), w)
                for s, w in zip((1j, -1j), self._weights)]

    def taylor_terms(self, centers, cap):
        return [t for e, w in self._exp_parts()
                for t in _scaled_terms(e.taylor_terms(centers, cap), w)]


def _scaled_terms(terms, s):
    """Taylor terms times the scalar s, which goes on axis 0."""
    return [[s * term[0], *term[1:]] for term in terms]


class SinAffine(_Trigonometric):
    _name = "sin"
    _weights = (1 / 2j, -1 / 2j)   # sin(a) = (e^{ia} - e^{-ia}) / 2i

    def _eval(self, pt):
        return np.sin(self.affine(pt))

    def _partial(self, j):
        return Product(Polynomial({(0,) * self.arity: self.affine.coeffs[j]}, self.arity),
                       CosAffine(self.affine, self.arity))


class CosAffine(_Trigonometric):
    _name = "cos"
    _weights = (0.5, 0.5)   # cos(a) = (e^{ia} + e^{-ia}) / 2

    def _eval(self, pt):
        return np.cos(self.affine(pt))

    def _partial(self, j):
        return Product(Polynomial({(0,) * self.arity: -self.affine.coeffs[j]}, self.arity),
                       SinAffine(self.affine, self.arity))


class _Binary(AnalyticFunction):
    def __init__(self, left: AnalyticFunction, right: AnalyticFunction):
        if left.arity != right.arity:
            raise ConfigError(
                f"arity mismatch in {self._name}: {left.arity} vs {right.arity}")
        super().__init__(left.arity)
        self.left = left
        self.right = right

    def axis_poles(self, j, point):
        return np.concatenate([self.left.axis_poles(j, point),
                               self.right.axis_poles(j, point)])

    def to_spec(self):
        return f"{self._name}({self.left.to_spec()},{self.right.to_spec()})"


class Sum(_Binary):
    _name = "sum"

    def _eval(self, pt):
        return self.left._eval(pt) + self.right._eval(pt)

    def taylor_terms(self, centers, cap):
        left = self.left.taylor_terms(centers, cap)
        right = None if left is None else self.right.taylor_terms(centers, cap)
        if right is None:
            return None
        return left + right

    def _partial(self, j):
        return Sum(self.left.partial(j), self.right.partial(j))

    def _fraction(self):
        (a, b), (c, d) = self.left._fraction(), self.right._fraction()
        return Sum(_times(a, d), _times(c, b)), _times(b, d)

    def max_degree(self):
        a, b = self.left.max_degree(), self.right.max_degree()
        if a is None or b is None:
            return None
        return tuple(max(x, y) for x, y in zip(a, b))


class Product(_Binary):
    _name = "prod"

    def _eval(self, pt):
        return self.left._eval(pt) * self.right._eval(pt)

    def taylor_terms(self, centers, cap):
        left = self.left.taylor_terms(centers, cap)
        right = None if left is None else self.right.taylor_terms(centers, cap)
        if right is None:
            return None
        # every pair of terms at once, (left term, right term, center, power) per axis
        axes = [_convolve_rows(np.stack([s[j] for s in left])[:, None],
                               np.stack([t[j] for t in right])[None])
                for j in range(self.arity)]
        return [list(rows) for rows in zip(*(a.reshape(-1, *a.shape[2:]) for a in axes))]

    def _partial(self, j):
        return Sum(Product(self.left.partial(j), self.right),
                   Product(self.left, self.right.partial(j)))

    def _fraction(self):
        (a, b), (c, d) = self.left._fraction(), self.right._fraction()
        return _times(a, c), _times(b, d)

    def max_degree(self):
        a, b = self.left.max_degree(), self.right.max_degree()
        if a is None or b is None:
            return None
        return tuple(x + y for x, y in zip(a, b))


class Ratio(_Binary):
    """left/right with poles declared per variable from the denominator.

    Pole locations along an axis are the roots of the denominator as a
    univariate polynomial in that variable with the remaining coordinates
    frozen; this is exactly the slice geometry the contour-enclosure checks
    need.
    """
    _name = "ratio"

    def _eval(self, pt):
        den = self.right._eval(pt)
        if np.any(np.abs(den) < _DEN_FLOOR):
            raise DomainError("rational function evaluated on a pole")
        return self.left._eval(pt) / den

    def _partial(self, j):
        num = Sum(Product(self.left.partial(j), self.right),
                  Product(Polynomial({(0,) * self.arity: -1.0}, self.arity),
                          Product(self.left, self.right.partial(j))))
        return Ratio(num, Product(self.right, self.right))

    def _fraction(self):
        (a, b), (c, d) = self.left._fraction(), self.right._fraction()
        return _times(a, d), _times(b, c)

    def axis_poles(self, j, point):
        inherited = super().axis_poles(j, point)
        own = _slice_roots(self.right, j, point)
        return np.concatenate([inherited, own])


def _slice_roots(den: AnalyticFunction, j: int, point) -> np.ndarray:
    """Roots of `den` in variable j with the other coordinates frozen, read
    from its Taylor box at `point`; none for a denominator that is not a
    polynomial (the quadrature's doubling certificate still guards)."""
    deg = den.max_degree()
    if deg is None:
        return np.array([], dtype=complex)
    pt = [complex(c) for c in point]
    box = den.taylor_box(pt, max(deg))
    return _poly_roots(box[(0,) * j + (slice(None),) + (0,) * (den.arity - j - 1)]) + pt[j]


def _poly_roots(coeffs) -> np.ndarray:
    c = np.asarray(coeffs, dtype=complex)   # ascending powers
    nz = np.nonzero(np.abs(c) > 0)[0]
    if nz.size == 0 or nz.max() == 0:
        return np.array([], dtype=complex)
    c = c[: nz.max() + 1]
    return np.roots(c[::-1])


def taylor_coefficients(f: AnalyticFunction, center, degree_cap: int) -> np.ndarray:
    """Taylor coefficient box a_alpha of f at `center`, |alpha|_inf <= cap.

    Shape (degree_cap+1,)*arity; entry alpha is d^alpha f(center)/alpha!.
    The box is f's coefficient grid at that one center
    (`AnalyticFunction.taylor_grid`): the contraction of its Taylor terms,
    or, for a tree that holds a ratio, one series division of its fraction.
    """
    if degree_cap < 0:
        raise ConfigError("degree cap must be nonnegative")
    center = _broadcast_point(center, f.arity)
    return f.taylor_box([complex(c) for c in center], int(degree_cap))


# ---------------------------------------------------------------------------
# mini-language


def _fmt_num(z: complex) -> str:
    z = complex(z)
    if z.imag == 0:
        return repr(z.real)
    if z.real == 0:
        return repr(z.imag) + "j"
    sign = "+" if z.imag >= 0 else "-"
    return f"({z.real!r}{sign}{abs(z.imag)!r}j)"


_HEADS = {c._name: c for c in (Polynomial, ExpAffine, SinAffine, CosAffine, Sum, Product, Ratio)}


def parse_function(spec: str) -> AnalyticFunction:
    """Parse the function mini-language.

    Grammar: poly{(i,j,..):coeff,..} | exp(affine) | sin(affine) | cos(affine)
    | ratio(f,g) | prod(f,g) | sum(f,g); affine is a +/- chain of
    [coeff*]zN terms and constants; numbers are python complex literals,
    parenthesized when they mix real and imaginary parts.

    Python's expression parser reads the spec, and its tree is walked;
    nothing is evaluated.  Any other construct, a number that is not finite
    and nesting past 200 parentheses raise ConfigError.
    """
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            tree = ast.parse(spec.strip().replace("{", "({").replace("}", "})"), mode="eval")
    except (SyntaxError, ValueError, MemoryError, RecursionError) as exc:
        # MemoryError and RecursionError: nesting past the parser's stack
        raise ConfigError(f"function spec {spec!r} does not parse: {exc}") from None
    return _read(tree.body)


def _read(node: ast.expr) -> AnalyticFunction:
    """The function of a head call; a poly table is its dict argument."""
    name = node.func.id if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) else None
    cls = _HEADS.get(name)
    if cls is None:
        raise ConfigError(f"expected a function head, got {name or type(node).__name__!r}")
    want = 2 if issubclass(cls, _Binary) else 1
    if node.keywords or len(node.args) != want:
        raise ConfigError(f"{name} takes {want} argument(s)")
    if want == 2:
        return cls(*_match_arity(_read(node.args[0]), _read(node.args[1])))
    if cls is not Polynomial:
        return cls(*_read_affine(node.args[0]))
    table = node.args[0]
    if not isinstance(table, ast.Dict) or not table.keys or None in table.keys:
        raise ConfigError("poly takes a nonempty {exponents: coefficient} table")
    alphas = [tuple(int(_text(k, (int,))) for k in (key.elts if isinstance(key, ast.Tuple)
                                                     else [key])) for key in table.keys]
    coeffs: dict[tuple[int, ...], complex] = {}
    for alpha, value in zip(alphas, table.values):
        coeffs[alpha] = coeffs.get(alpha, 0) + _number(value)
    return Polynomial(coeffs, len(alphas[0]))


def _read_affine(node: ast.expr) -> tuple[_Affine, int]:
    """c . z + d and its arity, from a +/- chain of zN, number*zN and number
    terms, walked without recursion; each term is added to its sum in order."""
    coeffs, const, stack = {}, 0j, [(node, False)]
    while stack:
        node, negative = _unsigned(*stack.pop())
        if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub)):
            stack += [(node.right, negative ^ isinstance(node.op, ast.Sub)), (node.left, negative)]
        elif isinstance(node, ast.Name):
            j = _variable(node)
            coeffs[j] = coeffs.get(j, 0) + (-1.0 if negative else 1.0)
        elif (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)
              and isinstance(node.right, ast.Name)):
            j = _variable(node.right)
            coeffs[j] = coeffs.get(j, 0) + _number(node.left, negative)
        else:
            const += _number(node, negative)
    arity = max(coeffs, default=1)
    return _Affine([coeffs.get(j + 1, 0j) for j in range(arity)], const), arity


def _variable(node: ast.Name) -> int:
    """j of the variable zj, 1 <= j <= 99 (an affine form lists j coefficients)."""
    j = node.id[1:]
    if node.id[:1] != "z" or not (j.isdecimal() and len(j) <= 2 and int(j) >= 1):
        raise ConfigError(f"unknown variable {node.id!r}; variables are z1 .. z99")
    return int(j)


def _unsigned(node: ast.expr, negative: bool = False) -> tuple[ast.expr, bool]:
    """node without its leading signs, and whether they and `negative` negate it."""
    while isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
        negative ^= isinstance(node.op, ast.USub)
        node = node.operand
    return node, negative


def _text(node: ast.expr, types, negative: bool = False) -> str:
    """The text of a signed literal of one of `types`: its sign and repr."""
    node, negative = _unsigned(node, negative)
    value = node.value if isinstance(node, ast.Constant) else None
    if type(value) not in types or not abs(value) <= sys.float_info.max:
        raise ConfigError(f"expected a finite {'/'.join(t.__name__ for t in types)} literal")
    return ("-" if negative else "+") + repr(value)


def _number(node: ast.expr, negative: bool = False) -> complex:
    """The value complex() reads from a signed number's text: a real or an
    imaginary literal, or the two joined by + or -.  Each sign goes to the
    part it precedes, so complex("-0.9") keeps a +0.0 imaginary part."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub)) and not negative:
        text = (_text(node.left, (int, float))
                + _text(node.right, (complex,), isinstance(node.op, ast.Sub)))
    else:
        text = _text(node, (int, float, complex), negative)
    return complex(text)


def _match_arity(left: AnalyticFunction, right: AnalyticFunction):
    """Pad the lower-arity side; affine specs leave trailing variables implicit."""
    if left.arity == right.arity:
        return left, right
    target = max(left.arity, right.arity)
    return _pad_arity(left, target), _pad_arity(right, target)


def _pad_arity(f: AnalyticFunction, arity: int) -> AnalyticFunction:
    if f.arity == arity:
        return f
    if isinstance(f, Polynomial):
        pad = arity - f.arity
        return Polynomial({a + (0,) * pad: c for a, c in f.table.items()}, arity)
    if isinstance(f, _AffineTranscendental):
        aff = _Affine(list(f.affine.coeffs) + [0j] * (arity - f.arity), f.affine.const)
        return type(f)(aff, arity)
    if isinstance(f, _Binary):
        return type(f)(_pad_arity(f.left, arity), _pad_arity(f.right, arity))
    raise ConfigError(f"cannot extend {type(f).__name__} to arity {arity}")
