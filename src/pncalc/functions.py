"""Analytic scalar functions of several complex variables.

The builtin family is a tiny closed expression algebra: polynomials in
coefficient-table form, exp/sin/cos of affine combinations, ratios of
polynomials with declared (per-variable) pole sets, plus sums and products.
Every node knows four things the calculus needs:

* vectorized evaluation,
* Taylor coefficient boxes at a center (series algebra: shift, convolution,
  series division); entry alpha is d^alpha f / alpha!, the one source of
  derivative coefficients for the spectral assembly, the power-series
  oracle and `mixed_partial`,
* declared poles along each variable, for the analyticity checks,
* its axis terms: f as a finite sum of products of one-variable functions,
  f = sum_t prod_j g_tj(z_j), evaluated on per-axis nodes (`axis_terms`).
  A polynomial has one term per monomial, exp of an affine argument one,
  sin and cos two; sums concatenate terms and products multiply them
  pairwise.  Ratios have none.  The multivariate quadrature folds such an f
  factor by factor instead of on the grid of node tuples.

A Cauchy-integral route computes mixed partials by iterated contour
quadrature with a node-doubling certificate; it exists so the Taylor boxes
can be cross-checked.  `partial` (each node differentiates to another node)
is kept as public API; the calculus does not use it.

Multi-indices are plain int tuples throughout.
"""
from __future__ import annotations

import itertools
import re
from math import comb, factorial, prod

import numpy as np

from .errors import ConfigError, DomainError, QuadratureError

CAUCHY_NODES = 128
_CAUCHY_DOUBLING_TOL = 1e-8
_DEN_FLOOR = 1e-250
# A product box whose sparser factor has at most this many nonzero
# coefficients is convolved exactly, by summing shifted copies of the other
# factor; FFT convolution leaves a coefficient floor near 1e-17 that stops
# the power-series tail bound from decaying.
SPARSE_CONVOLVE_NONZEROS = 8


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

    def taylor_box(self, center, cap: int) -> np.ndarray:
        """Box of Taylor coefficients a_beta, shape (cap+1,)*arity."""
        raise NotImplementedError

    def to_spec(self) -> str:
        raise NotImplementedError

    def axis_poles(self, j: int, point) -> np.ndarray:
        """Poles along coordinate j with the other coordinates frozen at `point`."""
        return np.array([], dtype=complex)

    def max_degree(self):
        """Per-variable degree bound tuple, or None for transcendental nodes."""
        return None

    def axis_terms(self, zs) -> list[list[np.ndarray]] | None:
        """f as a sum of products of one-variable functions on per-axis nodes.

        `zs` holds one 1-D node array per variable.  The result lists, per
        term t, the values g_tj(zs[j]) for every axis j, with the term's
        scalar on axis 0, so that f(z_1, .., z_r) = sum_t prod_j g_tj(z_j)
        on every node tuple; None when f is not separable this way.
        """
        return None

    # shared machinery -----------------------------------------------------
    def __call__(self, *zs):
        return self._eval(_broadcast_point(zs, self.arity))

    def partial(self, j: int) -> "AnalyticFunction":
        if not 0 <= j < self.arity:
            raise ConfigError(f"variable index {j} out of range for arity {self.arity}")
        if j not in self._partial_cache:
            self._partial_cache[j] = self._partial(j)
        return self._partial_cache[j]

    def mixed_partial(self, point, alpha, strategy: str | None = None,
                      nodes: int = CAUCHY_NODES) -> complex:
        """d^alpha f at `point`.

        strategy: None reads alpha! * a_alpha from the Taylor box at `point`;
        "cauchy_contour" forces iterated contour quadrature (per-variable
        circles of radius 0.3 * distance-to-singularity, 1 for entire
        directions) with a node-doubling stability certificate.
        """
        alpha = as_multi_index(alpha, self.arity)
        pt = _broadcast_point(point, self.arity)
        if strategy is None:
            box = taylor_coefficients(self, pt, max(alpha))
            return complex(prod(factorial(q) for q in alpha) * box[alpha])
        if strategy == "cauchy_contour":
            coarse = self._cauchy_partial(pt, alpha, nodes)
            fine = self._cauchy_partial(pt, alpha, 2 * nodes)
            if abs(fine - coarse) > _CAUCHY_DOUBLING_TOL * (1.0 + abs(fine)):
                raise QuadratureError(
                    f"cauchy derivative for alpha={alpha} unstable under node doubling "
                    f"({abs(fine - coarse):.3e} relative to {abs(fine):.3e})")
            return fine
        raise ConfigError(f"unknown derivative strategy {strategy!r}")

    def _cauchy_partial(self, pt, alpha, nodes):
        support = [j for j, q in enumerate(alpha) if q > 0]
        if not support:
            return complex(self._eval(pt))
        radii = {}
        for j in support:
            d = self.axis_pole_distance(j, pt)
            radii[j] = 1.0 if not np.isfinite(d) else 0.3 * d
            if radii[j] <= 0:
                raise DomainError(f"derivative point sits on a singularity along z{j + 1}")
        th = 2.0 * np.pi * np.arange(nodes) / nodes
        grids = np.meshgrid(*[th for _ in support], indexing="ij")
        coords = list(pt)
        weight = np.ones_like(grids[0], dtype=complex)
        for axis, j in enumerate(support):
            q = alpha[j]
            coords[j] = pt[j] + radii[j] * np.exp(1j * grids[axis])
            weight = weight * (factorial(q) / (nodes * radii[j] ** q)
                               * np.exp(-1j * q * grids[axis]))
        vals = self._eval(tuple(coords))
        return complex(np.sum(weight * vals))

    def axis_pole_distance(self, j: int, point) -> float:
        poles = self.axis_poles(j, point)
        if poles.size == 0:
            return np.inf
        return float(np.min(np.abs(poles - np.asarray(point[j], dtype=complex))))

    def assert_analytic_on(self, centers, radii, margin: float = 0.05) -> None:
        """Fail when a declared pole touches the closed polydisk (with margin)."""
        centers = [complex(c) for c in centers]
        if len(centers) != self.arity or len(radii) != self.arity:
            raise ConfigError("polydisk spec does not match function arity")
        for j in range(self.arity):
            poles = self.axis_poles(j, centers)
            if poles.size and float(np.min(np.abs(poles - centers[j]))) <= radii[j] * (1.0 + margin):
                raise DomainError(
                    f"pole along z{j + 1} inside or near the polydisk "
                    f"(radius {radii[j]:g})")

    def __repr__(self):
        return f"<{type(self).__name__} {self.to_spec()}>"


def _empty_box(arity, cap):
    return np.zeros((cap + 1,) * arity, dtype=complex)


class Polynomial(AnalyticFunction):
    """Coefficient table {multi-index: coefficient}."""

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

    def axis_terms(self, zs):
        zs = [np.asarray(z, dtype=complex) for z in zs]
        return [[c * zs[0] ** alpha[0], *(z ** a for z, a in zip(zs[1:], alpha[1:]))]
                for alpha, c in self.table.items()]

    def _partial(self, j):
        out = {}
        for alpha, c in self.table.items():
            if alpha[j] > 0:
                beta = alpha[:j] + (alpha[j] - 1,) + alpha[j + 1:]
                out[beta] = out.get(beta, 0) + c * alpha[j]
        return Polynomial(out, self.arity)

    def taylor_box(self, center, cap):
        center = [complex(c) for c in center]
        box = _empty_box(self.arity, cap)
        for alpha, c in self.table.items():
            for beta in itertools.product(*(range(min(a, cap) + 1) for a in alpha)):
                w = c
                for j in range(self.arity):
                    w *= comb(alpha[j], beta[j]) * center[j] ** (alpha[j] - beta[j])
                box[beta] += w
        return box

    def max_degree(self):
        return tuple(max(a[j] for a in self.table) for j in range(self.arity))

    def to_spec(self):
        parts = []
        for alpha in sorted(self.table):
            key = str(alpha[0]) if self.arity == 1 else "(" + ",".join(map(str, alpha)) + ")"
            parts.append(f"{key}:{_fmt_num(self.table[alpha])}")
        return "poly{" + ",".join(parts) + "}"


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
        for j, c in enumerate(self.coeffs):
            if c == 0:
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
    _name = ""

    def __init__(self, affine: _Affine, arity: int):
        super().__init__(arity)
        if len(affine.coeffs) != arity:
            raise ConfigError("affine coefficient count does not match arity")
        self.affine = affine

    def to_spec(self):
        return f"{self._name}({self.affine.to_spec()})"

    def _exp_terms(self, s, zs):
        """The axis terms of exp(s * affine)."""
        return ExpAffine(self.affine.scaled(s), self.arity).axis_terms(zs)


def _scaled_terms(terms, s):
    """Axis terms times the scalar s, which goes on axis 0."""
    return [[s * term[0], *term[1:]] for term in terms]


class ExpAffine(_AffineTranscendental):
    _name = "exp"

    def _eval(self, pt):
        return np.exp(self.affine(pt))

    def axis_terms(self, zs):
        # exp(c . z + d) = exp(c_1 z_1 + d) prod_{j > 1} exp(c_j z_j)
        c = self.affine.coeffs
        zs = [np.asarray(z, dtype=complex) for z in zs]
        return [[np.exp(c[0] * zs[0] + self.affine.const),
                 *(np.exp(cj * z) for cj, z in zip(c[1:], zs[1:]))]]

    def _partial(self, j):
        return Product(Polynomial({(0,) * self.arity: self.affine.coeffs[j]}, self.arity), self)

    def taylor_box(self, center, cap):
        w0 = complex(np.exp(self.affine([complex(c) for c in center])))
        axes = []
        for j in range(self.arity):
            k = np.arange(cap + 1)
            # factorial(21) overflows int64; round each exact integer to float
            fact = np.array([float(factorial(int(q))) for q in k])
            axes.append(self.affine.coeffs[j] ** k / fact)
        box = np.array(w0, dtype=complex)
        for ax in axes:
            box = np.multiply.outer(box, ax)
        return box.reshape((cap + 1,) * self.arity)


class SinAffine(_AffineTranscendental):
    _name = "sin"

    def _eval(self, pt):
        return np.sin(self.affine(pt))

    def axis_terms(self, zs):
        # sin(a) = (e^{ia} - e^{-ia}) / 2i
        return (_scaled_terms(self._exp_terms(1j, zs), 1 / 2j)
                + _scaled_terms(self._exp_terms(-1j, zs), -1 / 2j))

    def _partial(self, j):
        return Product(Polynomial({(0,) * self.arity: self.affine.coeffs[j]}, self.arity),
                       CosAffine(self.affine, self.arity))

    def taylor_box(self, center, cap):
        up = ExpAffine(self.affine.scaled(1j), self.arity).taylor_box(center, cap)
        dn = ExpAffine(self.affine.scaled(-1j), self.arity).taylor_box(center, cap)
        return (up - dn) / 2j


class CosAffine(_AffineTranscendental):
    _name = "cos"

    def _eval(self, pt):
        return np.cos(self.affine(pt))

    def axis_terms(self, zs):
        # cos(a) = (e^{ia} + e^{-ia}) / 2
        return (_scaled_terms(self._exp_terms(1j, zs), 0.5)
                + _scaled_terms(self._exp_terms(-1j, zs), 0.5))

    def _partial(self, j):
        return Product(Polynomial({(0,) * self.arity: -self.affine.coeffs[j]}, self.arity),
                       SinAffine(self.affine, self.arity))

    def taylor_box(self, center, cap):
        up = ExpAffine(self.affine.scaled(1j), self.arity).taylor_box(center, cap)
        dn = ExpAffine(self.affine.scaled(-1j), self.arity).taylor_box(center, cap)
        return (up + dn) / 2.0


class _Binary(AnalyticFunction):
    _name = ""

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

    def axis_terms(self, zs):
        left, right = self.left.axis_terms(zs), self.right.axis_terms(zs)
        if left is None or right is None:
            return None
        return left + right

    def _partial(self, j):
        return Sum(self.left.partial(j), self.right.partial(j))

    def taylor_box(self, center, cap):
        return self.left.taylor_box(center, cap) + self.right.taylor_box(center, cap)

    def max_degree(self):
        a, b = self.left.max_degree(), self.right.max_degree()
        if a is None or b is None:
            return None
        return tuple(max(x, y) for x, y in zip(a, b))


class Product(_Binary):
    _name = "prod"

    def _eval(self, pt):
        return self.left._eval(pt) * self.right._eval(pt)

    def axis_terms(self, zs):
        left, right = self.left.axis_terms(zs), self.right.axis_terms(zs)
        if left is None or right is None:
            return None
        return [[a * b for a, b in zip(s, t)] for s in left for t in right]

    def _partial(self, j):
        return Sum(Product(self.left.partial(j), self.right),
                   Product(self.left, self.right.partial(j)))

    def taylor_box(self, center, cap):
        a = self.left.taylor_box(center, cap)
        b = self.right.taylor_box(center, cap)
        if np.count_nonzero(a) < np.count_nonzero(b):
            a, b = b, a
        nonzero = np.nonzero(b)
        if nonzero[0].size > SPARSE_CONVOLVE_NONZEROS:
            # imported here: scipy.signal takes about 1 s to import, and only
            # dense products of boxes reach this line
            from scipy.signal import fftconvolve
            full = fftconvolve(a, b)
            return np.ascontiguousarray(full[(slice(0, cap + 1),) * self.arity])
        out = np.zeros(a.shape, dtype=complex)
        for shift in zip(*nonzero):
            dst = tuple(slice(s, None) for s in shift)
            src = tuple(slice(0, cap + 1 - s) for s in shift)
            out[dst] += b[shift] * a[src]
        return out

    def max_degree(self):
        a, b = self.left.max_degree(), self.right.max_degree()
        if a is None or b is None:
            return None
        return tuple(x + y for x, y in zip(a, b))


class Ratio(_Binary):
    """left/right with poles declared per variable from the denominator.

    Pole locations along an axis are the roots of the denominator as a
    univariate polynomial in that variable with the remaining coordinates
    frozen; this is exactly the slice geometry the iterated Cauchy quadrature
    and the contour-enclosure checks need.
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

    def taylor_box(self, center, cap):
        num = self.left.taylor_box(center, cap)
        den = self.right.taylor_box(center, cap)
        d0 = den[(0,) * self.arity]
        if abs(d0) < _DEN_FLOOR:
            raise DomainError("series center sits on a pole of the denominator")
        q = np.zeros_like(num)
        for alpha in np.ndindex(num.shape):
            low = tuple(slice(0, a + 1) for a in alpha)
            rev = tuple(slice(a, None, -1) for a in alpha)
            conv = np.sum(den[low] * q[rev][low])
            q[alpha] = (num[alpha] - conv) / d0
        return q

    def axis_poles(self, j, point):
        inherited = super().axis_poles(j, point)
        own = _slice_roots(self.right, j, point)
        return np.concatenate([inherited, own])


def _slice_roots(den: AnalyticFunction, j: int, point) -> np.ndarray:
    """Roots of `den` in variable j with the other coordinates frozen."""
    if not isinstance(den, Polynomial):
        # transcendental or composite denominator: fall back to a sampled
        # slice if it is effectively polynomial along this axis; otherwise
        # report no declared poles (the doubling certificate still guards).
        box = None
        try:
            deg = den.max_degree()
            if deg is not None:
                centered = [complex(c) for c in point]
                box = den.taylor_box(centered, max(deg))
        except (ConfigError, DomainError):
            box = None
        if box is None:
            return np.array([], dtype=complex)
        sel = [0] * den.arity
        coeffs = []
        for k in range(box.shape[0]):
            sel[j] = k
            coeffs.append(box[tuple(sel)])
        roots = _poly_roots(coeffs)
        return roots + complex(point[j])
    pt = [complex(c) for c in point]
    deg = max(alpha[j] for alpha in den.table)
    coeffs = np.zeros(deg + 1, dtype=complex)
    for alpha, c in den.table.items():
        w = c
        for i, a in enumerate(alpha):
            if i != j:
                w *= pt[i] ** a
        coeffs[alpha[j]] += w
    return _poly_roots(coeffs)


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


def _parse_number(text: str, where: str) -> complex:
    t = text.strip()
    if t.startswith("(") and t.endswith(")"):
        t = t[1:-1].strip()
    try:
        return complex(t.replace(" ", ""))
    except ValueError as exc:
        raise ConfigError(f"bad number {text!r} in {where}") from exc


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str):
        self.skip_ws()
        if not self.text.startswith(ch, self.pos):
            raise ConfigError(f"expected {ch!r} at position {self.pos} in function spec")
        self.pos += len(ch)

    def until_balanced(self, openers="([{", closers=")]}", stops=",") -> str:
        """Consume text up to a top-level stop character or closing bracket."""
        depth = 0
        start = self.pos
        while self.pos < len(self.text):
            ch = self.text[self.pos]
            if ch in openers:
                depth += 1
            elif ch in closers:
                if depth == 0:
                    break
                depth -= 1
            elif ch in stops and depth == 0:
                break
            self.pos += 1
        return self.text[start:self.pos]


_HEAD_RE = re.compile(r"\s*([a-z]+)\s*[({]")


def parse_function(spec: str) -> AnalyticFunction:
    """Parse the function mini-language.

    Grammar: poly{(i,j,..):coeff,..} | exp(affine) | sin(affine) | cos(affine)
    | ratio(f,g) | prod(f,g) | sum(f,g); affine is a +/- chain of
    [coeff*]zN terms and constants; numbers are python complex literals,
    parenthesized when they mix real and imaginary parts.
    """
    sc = _Scanner(spec)
    fn = _parse_expr(sc)
    sc.skip_ws()
    if sc.pos != len(sc.text):
        raise ConfigError(f"trailing garbage in function spec at position {sc.pos}: "
                          f"{spec[sc.pos:]!r}")
    return fn


def _parse_expr(sc: _Scanner) -> AnalyticFunction:
    m = _HEAD_RE.match(sc.text, sc.pos)
    if not m:
        raise ConfigError(f"expected a function head at position {sc.pos} in spec")
    head = m.group(1)
    if head == "poly":
        sc.pos = m.end() - 1
        return _parse_poly(sc)
    if head in ("exp", "sin", "cos"):
        sc.pos = m.end()
        body = sc.until_balanced(stops="")
        sc.expect(")")
        affine, arity = _parse_affine(body)
        cls = {"exp": ExpAffine, "sin": SinAffine, "cos": CosAffine}[head]
        return cls(affine, arity)
    if head in ("ratio", "prod", "sum"):
        sc.pos = m.end()
        left = _parse_expr(sc)
        sc.expect(",")
        right = _parse_expr(sc)
        sc.expect(")")
        left, right = _match_arity(left, right)
        cls = {"ratio": Ratio, "prod": Product, "sum": Sum}[head]
        return cls(left, right)
    raise ConfigError(f"unknown function head {head!r}")


def _parse_poly(sc: _Scanner) -> Polynomial:
    sc.expect("{")
    table: dict[tuple[int, ...], complex] = {}
    arity = None
    while True:
        if sc.peek() == "}":
            break
        if sc.peek() == "(":
            sc.expect("(")
            inner = sc.until_balanced(stops="")
            sc.expect(")")
            try:
                alpha = tuple(int(t) for t in inner.split(",") if t.strip() != "")
            except ValueError as exc:
                raise ConfigError(f"bad poly exponent tuple ({inner})") from exc
        else:
            tok = sc.until_balanced(stops=",:").strip()
            try:
                alpha = (int(tok),)
            except ValueError as exc:
                raise ConfigError(f"bad poly exponent {tok!r}") from exc
        sc.expect(":")
        coeff = _parse_number(sc.until_balanced(stops=","), "poly coefficient")
        if arity is None:
            arity = len(alpha)
        elif len(alpha) != arity:
            raise ConfigError("inconsistent exponent tuple lengths in poly{...}")
        table[alpha] = table.get(alpha, 0) + coeff
        if sc.peek() == ",":
            sc.expect(",")
        else:
            break
    sc.expect("}")
    if arity is None:
        raise ConfigError("empty poly{...} table")
    return Polynomial(table, arity)


_VAR_RE = re.compile(r"^([+-]?)z(\d+)$")


def _parse_affine(body: str):
    if not body.strip():
        raise ConfigError("empty affine expression")
    terms = _split_affine(body)
    coeffs: dict[int, complex] = {}
    const = 0j
    max_var = 0
    for term in terms:
        t = term.strip()
        if not t:
            raise ConfigError(f"empty term in affine expression {body!r}")
        m = _VAR_RE.match(t)
        if m:
            idx = int(m.group(2))
            if idx < 1:
                raise ConfigError(f"variables are 1-based, got z{idx}")
            sgn = -1.0 if m.group(1) == "-" else 1.0
            coeffs[idx] = coeffs.get(idx, 0) + sgn
            max_var = max(max_var, idx)
            continue
        if "*" in t:
            coeff_s, _, var_s = t.rpartition("*")
            mv = _VAR_RE.match(var_s.strip())
            if not mv or mv.group(1):
                raise ConfigError(f"bad affine term {term!r}")
            idx = int(mv.group(2))
            if idx < 1:
                raise ConfigError(f"variables are 1-based, got z{idx}")
            coeffs[idx] = coeffs.get(idx, 0) + _parse_number(coeff_s, f"term {term!r}")
            max_var = max(max_var, idx)
        else:
            const += _parse_number(t, f"term {term!r}")
    arity = max(max_var, 1)
    return _Affine([coeffs.get(j + 1, 0j) for j in range(arity)], const), arity


def _split_affine(body: str) -> list[str]:
    """Split a +/- chain at top level, keeping the sign with the term."""
    out = []
    depth = 0
    cur = ""
    for i, ch in enumerate(body):
        if ch in "([{":
            depth += 1
        elif ch in ")]}":
            depth -= 1
        if ch in "+-" and depth == 0 and i > 0 and body[i - 1] not in "eE+-*(,":
            out.append(cur)
            cur = ch if ch == "-" else ""
            continue
        cur += ch
    out.append(cur)
    return [t for t in out if t.strip()]


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
