"""Functional calculus for tuples of commuting tensor lifts.

A tuple of square factors X_1..X_r is lifted to X~_j = I x..x X_j x..x I on
the tensor space; lifted factors commute by construction, so f(X~_1,..,X~_r)
is well defined for analytic f.  No route forms the lifts: each works on the
factors and folds the result onto the tensor space with Kronecker products.
Three independent routes compute it:

* func_multivariate: the spectral assembly
    sum over eigenvalue tuples and multi-indices alpha of
    d^alpha f(lambda) / alpha! * kron_j N_j^{alpha_j} P_j,
  with the terms ledgered and split into s0 (alpha = 0), s_mixed
  (partial support) and s_full (full support) parts;
* dunford_multivariate: iterated contour quadrature of
  f(z_1..z_r) kron_j (z_j I - X_j)^{-1}, from one screened factorization
  per factor (`linalg.NodeResolvents`).  Function nodes know their axis
  terms, f = sum_t prod_j g_tj(z_j) (`AnalyticFunction.axis_terms`), so
  the sum over node tuples is sum_t kron_j of one-factor contractions;
  ratios, and specs with more terms than a factor has nodes, are folded
  over the node tuples;
* power_series_apply: a truncated lifted Taylor series about a factor-wise
  center, with a certified tail bound.

Agreement of the three routes on the same system is the package's strongest
internal consistency check.
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConfigError,
    DimensionCapError,
    PreconditionError,
    QuadratureError,
    TailBoundError,
)
from .functions import AnalyticFunction, taylor_coefficients
from .linalg import KRON_CAP, NodeResolvents, _write_csv, as_matrix, eye_like, op_norm
from .spectra import Contour, Decomposition, _resolvent_stacks, decompose

_DOUBLING_TOL = 1e-10
# entries of the Kronecker-sum product a fold holds besides its result: 2 MB
_SLAB_ENTRIES = 1 << 17
NODE_BUDGET = 300_000
TAIL_TOL = 1e-12
_MAX_SERIES_CAP = 64


@dataclass
class LiftedSystem:
    """Factors of a lifted family, with their decompositions made on first use.

    The lifts are implicit; `lifted_matrix(j)` builds one on demand.  Each
    factor is decomposed at most once, with the tolerances given to `lift`.
    """
    factors: list[np.ndarray]
    tensor_dim: int
    cluster_tol: float | None = None
    tol_dec: float | None = None
    tol_nil: float | None = None

    @property
    def rank(self) -> int:
        return len(self.factors)

    @functools.cached_property
    def decompositions(self) -> list[Decomposition]:
        tols = {"cluster_tol": self.cluster_tol, "tol_dec": self.tol_dec,
                "tol_nil": self.tol_nil}
        kwargs = {k: v for k, v in tols.items() if v is not None}
        return [decompose(m, **kwargs) for m in self.factors]

    def lifted_matrix(self, j: int) -> np.ndarray:
        """The dense lift I x..x X_j x..x I of factor j."""
        dims = [m.shape[0] for m in self.factors]
        left = int(np.prod(dims[:j], dtype=int))
        right = int(np.prod(dims[j + 1:], dtype=int))
        return np.kron(np.kron(eye_like(left), self.factors[j]), eye_like(right))


@dataclass
class LedgerEntry:
    eigenvalues: tuple[complex, ...]
    alpha: tuple[int, ...]
    norm: float


@dataclass
class CalculusResult:
    value: np.ndarray
    s0: np.ndarray
    s_mixed: np.ndarray
    s_full: np.ndarray
    term_ledger: list[LedgerEntry] = field(default_factory=list)
    method: str = ""


def three_term_split(result: CalculusResult):
    """(s0, s_mixed, s_full) with value = s0 + s_mixed + s_full."""
    return result.s0, result.s_mixed, result.s_full


def lift(factors, cap: int = KRON_CAP, cluster_tol: float | None = None,
         tol_dec: float | None = None, tol_nil: float | None = None) -> LiftedSystem:
    """Validate `factors` as a lifted system with tensor dimension at most `cap`.

    The tolerances are passed to `decompose` when a route first reads
    `decompositions`.
    """
    mats = [as_matrix(x, square=True) for x in factors]
    if not mats:
        raise ConfigError("lift needs at least one factor")
    tensor_dim = 1
    for m in mats:
        tensor_dim *= m.shape[0]
    if tensor_dim > cap:
        raise DimensionCapError(
            f"tensor dimension {tensor_dim} exceeds the cap {cap}")
    return LiftedSystem(mats, tensor_dim, cluster_tol, tol_dec, tol_nil)


# ---------------------------------------------------------------------------
# spectral assembly


def _component_terms(dec: Decomposition):
    """Flatten one factor's components into (lam, q, basis, norm) term lists.

    basis is P for q = 0 and N^q for q >= 1 (N^q P = N^q on the component).
    """
    lams, qs, mats, norms = [], [], [], []
    for c in dec.components:
        for q in range(c.index):
            b = c.projector if q == 0 else np.linalg.matrix_power(c.nilpotent, q)
            lams.append(c.eigenvalue)
            qs.append(q)
            mats.append(b)
            norms.append(op_norm(b))
    return (np.array(lams), np.array(qs, dtype=int),
            np.stack(mats), np.array(norms))


def _coefficient_tensor(f: AnalyticFunction, lams, qs):
    """C[t_1..t_r] = d^alpha f(lambda) / alpha! over flattened factor terms.

    The alpha = 0 entries are one vectorized evaluation over the eigenvalue
    grid.  Each tuple of components with a nilpotent part reads its other
    entries from one Taylor box at its eigenvalues.
    """
    zero = [q == 0 for q in qs]
    grid = np.meshgrid(*[l[z] for l, z in zip(lams, zero)], indexing="ij")
    values = np.asarray(f(*grid), dtype=complex)
    c = np.zeros(tuple(len(x) for x in lams), dtype=complex)
    # a component's terms are contiguous, q = 0 .. index - 1
    comps = [np.split(np.arange(q.size), np.flatnonzero(z)[1:]) for q, z in zip(qs, zero)]
    for block in itertools.product(*comps):
        cap = max(b.size for b in block) - 1
        if cap:
            box = taylor_coefficients(f, [l[b[0]] for l, b in zip(lams, block)], cap)
            c[np.ix_(*block)] = box[tuple(slice(0, b.size) for b in block)]
    c[np.ix_(*zero)] = values
    return c


def _kron_fold(coeffs, stacks: list[np.ndarray]) -> np.ndarray:
    """sum over tuples t of coeffs[t] * kron(stacks[0][t0], stacks[1][t1], ...).

    With three stacks `coeffs` may be any iterable of its first-axis slabs
    coeffs[t0], in order; they are folded one at a time.
    """
    if len(stacks) == 1:
        return np.tensordot(coeffs, stacks[0], axes=([0], [0]))
    if len(stacks) == 2:
        inner = np.tensordot(coeffs, stacks[1], axes=([1], [0]))
    else:
        inner = np.stack([_kron_fold(c, stacks[1:]) for c in coeffs])
    return _pair_sum(stacks[0], inner)


def _pair_sum(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """sum over t of kron(left[t], right[t]), as matrix products.

    Each product covers a slab of the rows of left[t] and is written into
    place, so no second array of the result's size is formed; results of
    up to _SLAB_ENTRIES entries are one product.
    """
    t, d, dr = left.shape[0], left.shape[1], right.shape[1]
    out = np.empty((d, dr, d, dr), dtype=complex)
    flat = right.reshape(t, dr * dr)
    rows = max(1, _SLAB_ENTRIES // (d * dr * dr))
    for i in range(0, d, rows):
        m = left[:, i:i + rows].reshape(t, -1).T @ flat
        out[i:i + rows] = m.reshape(-1, d, dr, dr).transpose(0, 2, 1, 3)
    return out.reshape(d * dr, d * dr)


def _kron_sum(blocks) -> np.ndarray:
    """sum over terms t of kron_j blocks[j][t], from one sequence of square
    blocks per factor (two or more factors, equal term counts)."""
    *head, last = [np.asarray(b) for b in blocks]
    left = head[0]
    for b in head[1:]:
        t, a, d = left.shape[0], left.shape[1], b.shape[1]
        left = (left[:, :, None, :, None] * b[:, None, :, None, :]).reshape(t, a * d, a * d)
    return _pair_sum(left, last)


def _masked_fold(coeffs, stacks, masks, tensor_dim):
    sel = coeffs[np.ix_(*masks)]
    if sel.size == 0 or not np.any(sel):
        return np.zeros((tensor_dim, tensor_dim), dtype=complex)
    return _kron_fold(sel, [s[m] for s, m in zip(stacks, masks)])


def func_univariate(f: AnalyticFunction, dec: Decomposition) -> CalculusResult:
    """f(X) = sum_k [f(lambda_k) P_k + sum_q f^(q)(lambda_k)/q! N_k^q]."""
    if f.arity != 1:
        raise ConfigError(f"func_univariate needs arity 1, got {f.arity}")
    return _assemble(f, [dec], dec.dim, "func_univariate")


def func_multivariate(f: AnalyticFunction, system: LiftedSystem) -> CalculusResult:
    """Spectral assembly of f(X~_1,..,X~_r) with term ledger and 3-way split."""
    if f.arity != system.rank:
        raise ConfigError(
            f"function arity {f.arity} does not match system rank {system.rank}")
    return _assemble(f, system.decompositions, system.tensor_dim, "func_multivariate")


def _assemble(f, decompositions: list[Decomposition], dim: int,
              method: str) -> CalculusResult:
    terms = [_component_terms(dec) for dec in decompositions]
    lams = [t[0] for t in terms]
    qs = [t[1] for t in terms]
    stacks = [t[2] for t in terms]
    norms = [t[3] for t in terms]
    coeffs = _coefficient_tensor(f, lams, qs)

    zero = [q == 0 for q in qs]
    pos = [~z for z in zero]
    every = [np.ones_like(z, dtype=bool) for z in zero]

    s0 = _masked_fold(coeffs, stacks, zero, dim)
    s_full = _masked_fold(coeffs, stacks, pos, dim)
    if len(stacks) == 1:
        s_mixed = np.zeros_like(s0)
    else:
        interior = coeffs.copy()
        interior[np.ix_(*zero)] = 0.0
        interior[np.ix_(*pos)] = 0.0
        s_mixed = _masked_fold(interior, stacks, every, dim)
    value = s0 + s_mixed + s_full

    mag = np.abs(coeffs)
    for n in norms:
        mag = mag * n.reshape((-1,) + (1,) * (mag.ndim - 1))
        mag = np.moveaxis(mag, 0, -1)
    ledger = []
    for t in np.ndindex(coeffs.shape):
        ledger.append(LedgerEntry(
            tuple(complex(lams[j][t[j]]) for j in range(len(stacks))),
            tuple(int(qs[j][t[j]]) for j in range(len(stacks))),
            float(mag[t])))
    return CalculusResult(value, s0, s_mixed, s_full, ledger, method)


def write_term_ledger(path, result: CalculusResult, sha=None) -> None:
    """CSV export of the term ledger: eigenvalue tuple, alpha, contribution norm.

    The bytes are fed to the hashlib object `sha` too, when one is given.
    """
    if not result.term_ledger:
        raise ConfigError("result has no term ledger")
    r = len(result.term_ledger[0].alpha)
    header = ([f"lambda_{j + 1}_re" for j in range(r)]
              + [f"lambda_{j + 1}_im" for j in range(r)]
              + [f"alpha_{j + 1}" for j in range(r)] + ["contribution_norm"])
    _write_csv(path, [header] + [
        [repr(l.real) for l in e.eigenvalues] + [repr(l.imag) for l in e.eigenvalues]
        + [str(a) for a in e.alpha] + [repr(e.norm)] for e in result.term_ledger], sha)


# ---------------------------------------------------------------------------
# contour quadrature


def dunford(f: AnalyticFunction, x, contour: Contour, require_full: bool = True,
            verify: bool = False) -> np.ndarray:
    """(1/2pi i) contour integral of f(z) (zI - x)^{-1} dz.

    With `require_full` the contour must enclose the whole spectrum, giving
    f(x); without it the integral restricts f to the enclosed cluster.
    `verify` doubles the node count and demands 1e-10 relative agreement.
    """
    if f.arity != 1:
        raise ConfigError(f"dunford needs a univariate function, got arity {f.arity}")
    f.assert_analytic_on([contour.center], [contour.radius])
    counts = (contour.nodes, 2 * contour.nodes) if verify else (contour.nodes,)
    stacks = _resolvent_stacks(x, contour, counts, require_full=require_full,
                               label="dunford")
    runs = [rs.contract([w * np.asarray(f(zs), dtype=complex)])[0][0]
            for zs, w, rs in stacks]
    value = runs[-1]
    if verify:
        gap = op_norm(value - runs[0])
        if gap > _DOUBLING_TOL * (1.0 + op_norm(value)):
            raise QuadratureError(
                f"dunford quadrature unstable under node doubling ({gap:.3e})")
    return value


def _check_node_tuples(f: AnalyticFunction, contours: list[Contour], scale: int = 1,
                       budget: int = NODE_BUDGET) -> None:
    """Analyticity on the polydisk, and the cost guard on node tuples."""
    f.assert_analytic_on([c.center for c in contours], [c.radius for c in contours])
    total = int(np.prod([c.nodes * scale for c in contours]))
    if total > budget:
        raise PreconditionError(
            f"quadrature cost guard: {total} node tuples exceed budget {budget}")


def _node_coeffs(f: AnalyticFunction, stacks) -> np.ndarray:
    """f(z) prod_j w_j on the grid of node tuples, from one (nodes, weights,
    resolvents) per factor."""
    grid = np.meshgrid(*[zs for zs, _, _ in stacks], indexing="ij", sparse=True)
    coeffs = np.array(f(*grid), dtype=complex)
    for j, (_, w, _) in enumerate(stacks):
        shape = [1] * len(stacks)
        shape[j] = w.size
        coeffs *= w.reshape(shape)
    return coeffs


def _axis_rows(f: AnalyticFunction, stacks):
    """Per factor, the coefficient rows w * g_tj of f's axis terms on its
    nodes, from one (nodes, weights, resolvents) per factor; None when f has
    no axis terms, or more terms than the smallest factor has nodes: the
    node-tuple coefficients are a sum of at most that many products, so
    more terms only add work to the dense fold's.
    """
    terms = f.axis_terms([zs for zs, _, _ in stacks])
    if terms is None or len(terms) > min(zs.size for zs, _, _ in stacks):
        return None
    return [[w * term[j] for term in terms] for j, (_, w, _) in enumerate(stacks)]


def _node_fold(f: AnalyticFunction, stacks) -> np.ndarray:
    """sum over node tuples of f(z) prod_j w_j kron_j R_j(z_j), from one
    (nodes, weights, resolvents) per factor.

    One factor's NodeResolvents are contracted with the node coefficients.
    With several factors and f = sum_t prod_j g_tj(z_j) (`_axis_rows`) the
    sum is sum_t kron_j (sum_k w_k g_tj(z_k) R_j(z_k)): each factor takes
    one contraction pass, and no node-tuple grid or dense stack is formed.
    Other f are folded from the dense stacks; three factors take their
    coefficients one first-factor node at a time, so the nodes^3 tensor
    (4 MB at 64 nodes) and the temporaries of its evaluation are never
    formed, and f is evaluated elementwise, so each slab has the bits of the
    whole tensor's slab.
    """
    [(zs, w, first), *rest] = stacks
    if all(isinstance(rs, NodeResolvents) for _, _, rs in stacks):
        if not rest:
            return first.contract([_node_coeffs(f, stacks)])[0][0]
        rows = _axis_rows(f, stacks)
        if rows is not None:
            return _kron_sum([rs.contract(r)[0] for r, (_, _, rs) in zip(rows, stacks)])
    dense = [np.asarray(rs) for _, _, rs in stacks]
    if len(stacks) < 3:
        return _kron_fold(_node_coeffs(f, stacks), dense)
    slabs = (_node_coeffs(f, [(zs[i:i + 1], w[i:i + 1], first), *rest])[0]
             for i in range(zs.size))
    return _kron_fold(slabs, dense)


def dunford_multivariate(f: AnalyticFunction, system: LiftedSystem,
                         contours: list[Contour], require_full: bool = True,
                         verify: bool = False, budget: int = NODE_BUDGET) -> np.ndarray:
    """Iterated contour quadrature of f(z) kron_j (z_j I - X_j)^{-1}.

    Node tuples are capped at `budget` (cost guard).  Each factor is
    factored once, at its own dimension, for all node counts.  An f with
    axis terms f = sum_t prod_j g_tj(z_j) is folded as
    sum_t kron_j (sum_k w_k g_tj(z_k) R_j(z_k)), one contraction pass per
    factor; a ratio, or an f with more terms than the smallest factor has
    nodes, is folded over the node tuples (`_node_fold`).
    """
    r = system.rank
    if f.arity != r:
        raise ConfigError(f"function arity {f.arity} does not match system rank {r}")
    if len(contours) != r:
        raise ConfigError(f"need {r} contours, got {len(contours)}")
    if r > 3:
        raise PreconditionError("iterated quadrature supports at most 3 factors")
    scales = (1, 2) if verify else (1,)
    _check_node_tuples(f, contours, scales[-1], budget)
    per_factor = [_resolvent_stacks(x, c, [c.nodes * s for s in scales],
                                    require_full=require_full, label=f"factor {j + 1}")
                  for j, (x, c) in enumerate(zip(system.factors, contours))]
    runs = [_node_fold(f, stacks) for stacks in zip(*per_factor)]
    value = runs[-1]
    if verify:
        gap = op_norm(value - runs[0])
        if gap > 1e-9 * (1.0 + op_norm(value)):
            raise QuadratureError(
                f"multivariate quadrature unstable under node doubling ({gap:.3e})")
    return value


# ---------------------------------------------------------------------------
# lifted power series


def power_series_apply(f: AnalyticFunction, system: LiftedSystem,
                       center=None, degree_cap: int | None = None,
                       tail_tol: float = TAIL_TOL) -> np.ndarray:
    """Truncated lifted Taylor series sum_alpha a_alpha prod_j (X~_j - c_j)^alpha_j.

    The center defaults to the factor-wise mean of the component eigenvalues.
    The truncation is certified: coefficients are computed on a padded box,
    the discarded shells are summed with weights prod ||X_j - c_j I||^alpha_j,
    and a geometric extension of the last shell must bring the whole tail
    under `tail_tol` (TailBoundError otherwise).  Polynomials get an exact
    cap from their degree.
    """
    r = system.rank
    if f.arity != r:
        raise ConfigError(f"function arity {f.arity} does not match system rank {r}")
    if center is None:
        center = [complex(np.mean(dec.eigenvalues)) for dec in system.decompositions]
    center = [complex(c) for c in center]
    if len(center) != r:
        raise ConfigError(f"need {r} center coordinates, got {len(center)}")

    shifted = [system.factors[j] - center[j] * eye_like(system.factors[j].shape[0])
               for j in range(r)]
    radii = [max(op_norm(y), 1e-300) for y in shifted]

    hint = f.max_degree()
    if degree_cap is not None:
        caps = [int(degree_cap)]
    elif hint is not None:
        caps = [max(hint)]
    else:
        caps = list(range(8, _MAX_SERIES_CAP + 1, 6))

    last_tail = np.inf
    for cap in caps:
        pad = 3
        box = taylor_coefficients(f, center, cap + pad)
        weights = np.abs(box)
        for j in range(r):
            shape = [1] * r
            shape[j] = cap + pad + 1
            weights = weights * (radii[j] ** np.arange(cap + pad + 1.0)).reshape(shape)
        idx = np.meshgrid(*[np.arange(cap + pad + 1)] * r, indexing="ij")
        level = np.maximum.reduce(idx) if r > 1 else idx[0]
        shells = [float(np.sum(weights[level == k])) for k in range(cap + 1, cap + pad + 1)]
        tail = sum(shells)
        if shells[-1] > 0:
            prev = shells[-2] if len(shells) > 1 else np.inf
            q = shells[-1] / prev if prev > 0 else 1.0
            if q >= 0.9:
                last_tail = np.inf
                continue
            tail += shells[-1] * q / (1.0 - q)
        last_tail = tail
        if tail <= tail_tol:
            core = box[(slice(0, cap + 1),) * r]
            stacks = []
            for j in range(r):
                d = shifted[j].shape[0]
                pw = np.empty((cap + 1, d, d), dtype=complex)
                pw[0] = eye_like(d)
                for k in range(1, cap + 1):
                    pw[k] = pw[k - 1] @ shifted[j]
                stacks.append(pw)
            return _kron_fold(np.ascontiguousarray(core), stacks)
    raise TailBoundError(
        f"power series tail {last_tail:.3e} not certified below {tail_tol:g} "
        f"within degree cap {caps[-1]}")
