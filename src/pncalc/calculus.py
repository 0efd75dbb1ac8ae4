"""Functional calculus for tuples of commuting tensor lifts.

A tuple of square factors X_1..X_r is lifted to X~_j = I x..x X_j x..x I on
the tensor space; lifted factors commute by construction, so f(X~_1,..,X~_r)
is well defined for analytic f.  No route forms the lifts: each works on the
factors and folds the result onto the tensor space with Kronecker products.
Three independent routes compute it:

* func_multivariate: the spectral assembly
    sum over eigenvalue tuples and multi-indices alpha of
    d^alpha f(lambda) / alpha! * kron_j N_j^{alpha_j} P_j
  from the components' n x m factors, each part folded factor by factor
  in one column fold (`_fold_powers`), ledgered and split into s0
  (alpha = 0), s_mixed and s_full parts;
* dunford_multivariate: iterated contour quadrature of
  f(z_1..z_r) kron_j (z_j I - X_j)^{-1}, from each factor's one screened
  factorization (`linalg.NodeResolvents`), which its decomposition reads
  too.  The order-0 column of f's Taylor terms on the nodes is
  f = sum_t prod_j g_tj(z_j) (`AnalyticFunction.taylor_terms`), so the sum
  over node tuples is sum_t kron_j of one-factor contractions, at any
  number of factors; a ratio, or a spec with more terms than a factor has
  nodes, is folded over the node tuples from the dense stacks, at three or
  more factors at most NODE_BUDGET of them;
* power_series_apply: a truncated lifted Taylor series about a factor-wise
  center, with a tail bound certified under TAIL_TOL.

Agreement of the three routes on the same system is the package's strongest
internal consistency check.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    ConfigError,
    DimensionCapError,
    DomainError,
    PreconditionError,
    QuadratureError,
    TailBoundError,
)
from .functions import AnalyticFunction
from .linalg import (KRON_CAP, NodeResolvents, _write_csv, as_matrix, eye_like, op_norm,
                     resolvent_at_nodes)
from .spectra import Contour, Decomposition, _resolvent_stacks, _triangular_factors, decompose

_DOUBLING_TOL = 1e-10
# entries of the Kronecker-sum product a fold holds besides its result: 2 MB
_SLAB_ENTRIES = 1 << 17
NODE_BUDGET = 300_000
TAIL_TOL = 1e-12
_MAX_SERIES_CAP = 64


@dataclass
class LiftedSystem:
    """Factors of a lifted family, with their factorizations and
    decompositions made on first use.

    The lifts are implicit: no route forms one.  Each factor is factored
    once (`linalg.resolvent_at_nodes`), and the quadrature and its one
    decomposition, with the tolerances given to `lift`, read that.
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
    def factorizations(self) -> list[NodeResolvents]:
        return [resolvent_at_nodes(m, ()) for m in self.factors]

    @functools.cached_property
    def decompositions(self) -> list[Decomposition]:
        tols = {"cluster_tol": self.cluster_tol, "tol_dec": self.tol_dec,
                "tol_nil": self.tol_nil}
        kwargs = {k: v for k, v in tols.items() if v is not None}
        return [decompose(m, factored=fac, **kwargs)
                for m, fac in zip(self.factors, self.factorizations)]


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


def _finite(f: AnalyticFunction, where: str, *arrays) -> None:
    """DomainError unless every entry of `arrays`, f's values or Taylor
    coefficients `where`, is finite."""
    if not all(np.isfinite(a).all() for a in arrays):
        raise DomainError(f"f = {f.to_spec()} is not finite {where}")


# ---------------------------------------------------------------------------
# spectral assembly


def _kron_fold(coeffs, stacks: list[np.ndarray]) -> np.ndarray:
    """sum over tuples t of coeffs[t] * kron(stacks[0][t0], stacks[1][t1], ...).

    With three or more stacks `coeffs` may be any iterable of its
    first-axis slabs coeffs[t0], in order.  Each slab is folded on the later
    stacks, n_1^2 slabs at a time for a first stack of n_1 x n_1 blocks, so
    the sub-folds held at once have at most the result's N^2 entries; the
    chunks' pair sums are added up.
    """
    if len(stacks) == 1:
        return np.tensordot(coeffs, stacks[0], axes=([0], [0]))
    first, rest = stacks[0], stacks[1:]
    if len(stacks) == 2:
        return _pair_sum(first, np.tensordot(coeffs, rest[0], axes=([1], [0])))
    step, slabs, out = first.shape[1] ** 2, iter(coeffs), 0
    for i in range(0, len(first), step):
        inner = np.stack([_kron_fold(c, rest) for c in itertools.islice(slabs, step)])
        out += _pair_sum(first[i:i + step], inner)
    return out


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
    blocks per factor (equal term counts)."""
    left, *rest = [np.asarray(b) for b in blocks]
    if not rest:
        return left.sum(axis=0)
    *mid, last = rest
    for b in mid:
        t, a, d = left.shape[0], left.shape[1], b.shape[1]
        left = (left[:, :, None, :, None] * b[:, None, :, None, :]).reshape(t, a * d, a * d)
    return _pair_sum(left, last)


def func_univariate(f: AnalyticFunction, dec: Decomposition) -> CalculusResult:
    """f(X) = sum_k [f(lambda_k) P_k + sum_q f^(q)(lambda_k)/q! N_k^q]."""
    if f.arity != 1:
        raise ConfigError(f"func_univariate needs arity 1, got {f.arity}")
    return _assemble(f, [dec], dec.dim)


def func_multivariate(f: AnalyticFunction, system: LiftedSystem) -> CalculusResult:
    """Spectral assembly of f(X~_1,..,X~_r) with term ledger and 3-way split."""
    if f.arity != system.rank:
        raise ConfigError(
            f"function arity {f.arity} does not match system rank {system.rank}")
    return _assemble(f, system.decompositions, system.tensor_dim)


def _fold_powers(k, lefts, w_conj, dim: int) -> np.ndarray:
    """One part of the assembly: sum over power tuples alpha of
    (kron_j L_{j,alpha_j}) diag(K_alpha) (kron_j W_j)^H, with K on axes
    (columns_1, power_1, .., columns_r, power_r), 0 outside the part,
    lefts[j][q] = L_q and w_conj[j] = conj(W_j), as an N x N array (zeros
    for an all-zero K).  Per factor, one product batched over the columns
    turns the axes (rows done, columns, powers, rest) into (rows done,
    columns, rows, rest) and one more applies W^H: (rows done, rows, rest,
    columns after W^H).  rest holds the later factors' axes and the columns
    done; no N x N Kronecker product is formed.
    """
    if not k.any():
        return np.zeros((dim, dim), dtype=complex)
    acc, done = k, 1
    for ls, w in zip(lefts, w_conj):
        lt = np.ascontiguousarray(ls.transpose(2, 1, 0))  # (columns, rows, powers)
        acc = np.matmul(lt, acc.reshape(done, len(w), len(ls), -1))
        acc = np.matmul(acc.reshape(done, len(w), -1).transpose(0, 2, 1), w.T)
        done *= len(w)
    return acc.reshape(dim, dim)


def _assemble(f, decompositions: list[Decomposition], dim: int) -> CalculusResult:
    """Spectral assembly from each component's n x m factors alone.

    A component's term of power q is L_q W^H: L_0 = V gives P, and L_q =
    M C^(q-1), C = W^H M, gives N^q.  d^alpha f(lambda)/alpha! sits on axes
    (component_1..component_r, power_1..power_r).  alpha = 0 is f on the
    grid of eigenvalue tuples; the nilpotent powers come from one
    `taylor_grid` call on the per-factor eigenvalues, zeroed from each
    component's index on, and a system whose components all have index 1
    asks for none.
    s0, s_mixed and s_full fold the power tuples with none, some and all r
    powers nonzero.  Ledger norms are |coefficient| prod_j ||L_j W_j^H||,
    from m x m cores R_L R_W^H.
    """
    comps = [dec.components for dec in decompositions]
    r = len(comps)
    lams = [np.array([c.eigenvalue for c in cs]) for cs in comps]
    nus = [[c.index for c in cs] for cs in comps]
    cap = max(map(max, nus)) - 1
    if cap:
        coeffs = f.taylor_grid(lams, cap)[(slice(None),) * r + tuple(slice(max(nu)) for nu in nus)]
        for j, nu in enumerate(nus):   # 0 from each component's index on
            np.moveaxis(coeffs, (j, r + j), (0, 1))[np.arange(max(nu)) >= np.array(nu)[:, None]] = 0
    else:
        coeffs = np.zeros(tuple(map(len, nus)) + (1,) * r, dtype=complex)
    coeffs[(Ellipsis,) + (0,) * r] = f(*np.meshgrid(*lams, indexing="ij"))
    _finite(f, "on the eigenvalue grid", coeffs)

    lefts = []  # lefts[j][i][q] is L_q of factor j's component i
    for cs in comps:
        lefts.append([])
        for c in cs:
            pw = [c.v, c.m][:c.index]
            while len(pw) < c.index:
                pw.append(pw[-1] @ (c.w.conj().T @ c.m))
            lefts[-1].append(pw)
    # stacked[j][q]: factor j's L_q side by side, 0 from a component's index on
    stacked = [np.stack([np.hstack([pw[q] if q < len(pw) else np.zeros_like(pw[0]) for pw in ls])
                         for q in range(max(nu))]) for ls, nu in zip(lefts, nus)]
    w_conj = [np.hstack([c.w for c in cs]).conj() for cs in comps]
    cols = [np.repeat(np.arange(len(cs)), [c.multiplicity for c in cs]) for cs in comps]
    # K on axes (columns_1, power_1, .., columns_r, power_r); support: nonzero powers
    k = coeffs[np.ix_(*cols)].transpose([a for j in range(r) for a in (j, r + j)])
    support = np.count_nonzero(np.indices([d for nu in nus for d in (1, max(nu))]), axis=0)
    s0, s_mixed, s_full = (_fold_powers(np.where(part, k, 0.0), stacked, w_conj, dim)
                           for part in (support == 0, (support > 0) & (support < r),
                                        support == r))
    value = s0 + s_mixed + s_full

    terms = []
    for cs, ls in zip(comps, lefts):
        pick = [(c.eigenvalue, i, q) for i, c in enumerate(cs) for q in range(c.index)]
        rs = _triangular_factors([l for pw in ls for l in pw] + [c.w for c in cs])
        cores = [r_l @ rs[len(pick) + i].conj().T for (_, i, _), r_l in zip(pick, rs)]
        norms = np.empty(len(cores))
        for size in {len(a) for a in cores}:
            idx = [t for t, a in enumerate(cores) if len(a) == size]
            norms[idx] = np.linalg.svd(np.stack([cores[t] for t in idx]), compute_uv=False)[:, 0]
        terms.append([p + (n,) for p, n in zip(pick, norms.tolist())])
    ledger = []
    for t in itertools.product(*terms):
        lam, i, q, norm = zip(*t)
        ledger.append(LedgerEntry(lam, q, math.prod(norm, start=float(abs(coeffs[i + q])))))
    return CalculusResult(value, s0, s_mixed, s_full, ledger)


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
    """(1/2pi i) contour integral of f(z) (zI - x)^{-1} dz, for a matrix x
    or its factorization (`linalg.resolvent_at_nodes`).

    With `require_full` the contour must enclose the whole spectrum, giving
    f(x); without it the integral restricts f to the enclosed cluster.
    `verify` doubles the node count, on the same factorization of x, and
    demands 1e-10 relative agreement; the doubled rule's value is returned.
    """
    if f.arity != 1:
        raise ConfigError(f"dunford needs a univariate function, got arity {f.arity}")
    f.assert_analytic_on([contour.center], [contour.radius])
    if not isinstance(x, NodeResolvents):
        x = resolvent_at_nodes(x, ())
    zs, w, rs = _resolvent_stacks(x, contour, require_full=require_full, label="dunford")
    fz = np.asarray(f(zs), dtype=complex)
    _finite(f, "on the contour nodes", fz)
    value = rs.contract([w * fz])[0][0]
    if not verify:
        return value
    fine = replace(contour, nodes=2 * contour.nodes)
    zs = fine.points()
    fz = np.asarray(f(zs), dtype=complex)
    _finite(f, "on the contour nodes", fz)
    doubled = rs.at(zs).contract([fine.weights() * fz])[0][0]
    gap = op_norm(doubled - value)
    if gap > _DOUBLING_TOL * (1.0 + op_norm(doubled)):
        raise QuadratureError(
            f"dunford quadrature unstable under node doubling ({gap:.3e})")
    return doubled


def _node_coeffs(f: AnalyticFunction, stacks) -> np.ndarray:
    """f(z) prod_j w_j on the grid of node tuples, from one (nodes, weights)
    per factor; a stack's further items (its resolvents) are not read."""
    grid = np.meshgrid(*[zs for zs, *_ in stacks], indexing="ij", sparse=True)
    coeffs = np.array(f(*grid), dtype=complex)
    _finite(f, "on the quadrature nodes", coeffs)
    for j, (_, w, *_) in enumerate(stacks):
        shape = [1] * len(stacks)
        shape[j] = w.size
        coeffs *= w.reshape(shape)
    return coeffs


def _axis_rows(f: AnalyticFunction, stacks):
    """Per factor, coefficient rows c_tj on its nodes, from one (nodes,
    weights) per factor (further items are not read), such that the
    node-tuple coefficients f(z) prod_j w_j are sum_t prod_j c_tj: the node
    fold is then sum_t kron_j (sum_k c_tj[k] R_j(z_k)).

    One factor takes the node coefficients themselves.  Several take
    w_j g_tj(z_j), the order-0 column of f's Taylor terms on the nodes
    (`AnalyticFunction.taylor_terms`), when f has at most as many terms as
    the smallest factor has nodes; otherwise (a ratio, or a spec with more
    terms) None, and at three or more factors the node tuples that
    `_node_fold` then visits are capped at NODE_BUDGET (PreconditionError).
    """
    zs = [z for z, *_ in stacks]
    if len(stacks) == 1:
        return [[_node_coeffs(f, stacks)]]
    terms = f.taylor_terms(zs, 0)
    if terms is not None and len(terms) <= min(z.size for z in zs):
        rows = [[w * term[j][:, 0] for term in terms] for j, (_, w, *_) in enumerate(stacks)]
        _finite(f, "on the quadrature nodes", *itertools.chain(*rows))
        return rows
    total = math.prod(z.size for z in zs)
    if len(stacks) > 2 and total > NODE_BUDGET:
        raise PreconditionError(
            f"quadrature cost guard: {total} node tuples exceed budget {NODE_BUDGET}")
    return None


def _node_fold(f: AnalyticFunction, stacks, rows) -> np.ndarray:
    """sum over node tuples of f(z) prod_j w_j kron_j R_j(z_j), from one
    (nodes, weights, NodeResolvents) per factor and their `_axis_rows`.

    With rows, each factor takes one contraction pass over them, and the
    fold is the Kronecker sum of the contracted blocks; no node-tuple grid
    or dense stack is formed.  Rows None fold the dense stacks over the
    node tuples (`_kron_fold`): at two factors with the whole grid of node
    coefficients, at three or more with one first-factor node's slab at a
    time, so the node-tuple tensor (4 MB at 64^3) and the temporaries of its
    evaluation are never formed; f is evaluated elementwise, so each slab
    has the bits of the whole tensor's slab.
    """
    if rows is not None:
        return _kron_sum([rs.contract(r)[0] for r, (_, _, rs) in zip(rows, stacks)])
    dense = [rs.dense() for _, _, rs in stacks]
    if len(stacks) == 2:
        return _kron_fold(_node_coeffs(f, stacks), dense)
    [(zs, w, first), *rest] = stacks
    slabs = (_node_coeffs(f, [(zs[i:i + 1], w[i:i + 1], first), *rest])[0]
             for i in range(zs.size))
    return _kron_fold(slabs, dense)


def dunford_multivariate(f: AnalyticFunction, system: LiftedSystem,
                         contours: list[Contour], require_full: bool = True) -> np.ndarray:
    """Iterated contour quadrature of f(z) kron_j (z_j I - X_j)^{-1}.

    Each factor's one factorization is screened against its contour
    (`_resolvent_stacks`).  An f with Taylor terms, f = sum_t prod_j
    g_tj(z_j) on the nodes, is folded as sum_t kron_j (sum_k w_k g_tj(z_k)
    R_j(z_k)), one contraction pass per factor, for any number of factors;
    a ratio, or an f with more terms than the smallest factor has nodes, is
    folded over the node tuples (`_node_fold`), at three or more factors at
    most NODE_BUDGET of them (cost guard of `_axis_rows`, decided before
    any factor is factored).
    """
    r = system.rank
    if f.arity != r:
        raise ConfigError(f"function arity {f.arity} does not match system rank {r}")
    if len(contours) != r:
        raise ConfigError(f"need {r} contours, got {len(contours)}")
    f.assert_analytic_on([c.center for c in contours], [c.radius for c in contours])
    rows = _axis_rows(f, [(c.points(), c.weights()) for c in contours])
    stacks = [_resolvent_stacks(fac, c, require_full=require_full, label=f"factor {j + 1}")
              for j, (fac, c) in enumerate(zip(system.factorizations, contours))]
    return _node_fold(f, stacks, rows)


# ---------------------------------------------------------------------------
# lifted power series


def _term_shells(u: np.ndarray, ks) -> np.ndarray:
    """Bounds on the series shells |alpha|_inf = k, for k in `ks`, from
    weighted per-axis Taylor terms u[t, j, q] = |a_tj[q]| rho_j^q.

    With U_tj(k) = sum_{q<=k} u[t, j, q] the shell is at most
    sum_t (prod_j U_tj(k) - prod_j U_tj(k-1)), which is at least the shell
    of the contracted box by the triangle inequality.  The difference is
    summed as sum_j prod_{i<j} U_ti(k-1) u[t, j, k] prod_{i>j} U_ti(k), a
    sum of nonnegative products, so no cancellation hides a shell.
    """
    upto = np.cumsum(u, axis=2)
    below = np.concatenate([np.zeros_like(u[:, :, :1]), upto[:, :, :-1]], axis=2)
    lo, hi, uk = below[:, :, ks], upto[:, :, ks], u[:, :, ks]
    ones = np.ones_like(uk[:, :1])
    before = np.cumprod(np.concatenate([ones, lo[:, :-1]], axis=1), axis=1)
    after = np.cumprod(np.concatenate([ones, hi[:, :0:-1]], axis=1), axis=1)[:, ::-1]
    return (before * uk * after).sum(axis=(0, 1))


def _box_shells(w: np.ndarray, ks) -> np.ndarray:
    """Shell sums of a weighted dense coefficient box over |alpha|_inf = k,
    for k in `ks`: shell k is split by the first axis j with alpha_j = k into
    r slices (alpha_i < k before j, alpha_i <= k after it), so no index grid
    is formed."""
    r = w.ndim
    return np.array([sum(float(w[(slice(0, k),) * j + (k,) + (slice(0, k + 1),) * (r - j - 1)]
                               .sum()) for j in range(r)) for k in ks])


def power_series_apply(f: AnalyticFunction, system: LiftedSystem,
                       center=None) -> np.ndarray:
    """Truncated lifted Taylor series sum_alpha a_alpha prod_j (X~_j - c_j)^alpha_j.

    The center defaults to c_j = trace(X_j) / n_j, the mean eigenvalue of
    each factor counted with multiplicity, so the route reads only the
    factors: it builds no factorization or decomposition.
    An f with at most cap + 1 Taylor terms, a_alpha = sum_t prod_j
    a_tj[alpha_j] (`AnalyticFunction.taylor_terms`), is evaluated in
    factored form, sum_t kron_j p_tj(X_j) with p_tj(X_j) =
    sum_{q<=cap} a_tj[q] (X_j - c_j)^q, so neither the coefficient box nor
    an N x N array per power is formed.  Any other f (a ratio, or a sum of
    many monomials or products) folds its coefficient box
    (`AnalyticFunction.taylor_box`: the contracted terms, or one series
    division of a ratio's fraction), which costs about (cap + 1) N^2
    multiply-adds against N^2 per term.
    The truncation is certified: coefficients are computed three degrees
    past the cap, the discarded shells |alpha|_inf = k are bounded with
    weights prod ||X_j - c_j I||^alpha_j (per term and axis, `_term_shells`;
    on a folded box, `_box_shells`), and a geometric extension
    of the last shell must bring the whole tail under TAIL_TOL
    (TailBoundError otherwise).  Polynomials get an exact cap from their
    degree.
    """
    r = system.rank
    if f.arity != r:
        raise ConfigError(f"function arity {f.arity} does not match system rank {r}")
    if center is None:
        center = [complex(np.trace(x)) / x.shape[0] for x in system.factors]
    center = [complex(c) for c in center]
    if len(center) != r:
        raise ConfigError(f"need {r} center coordinates, got {len(center)}")

    shifted = [system.factors[j] - center[j] * eye_like(system.factors[j].shape[0])
               for j in range(r)]
    radii = [max(op_norm(y), 1e-300) for y in shifted]

    hint = f.max_degree()
    caps = [max(hint)] if hint is not None else list(range(8, _MAX_SERIES_CAP + 1, 6))

    pad = 3
    last_tail = np.inf
    for cap in caps:
        ks = list(range(cap + 1, cap + pad + 1))
        scale = np.array([radius ** np.arange(cap + pad + 1.0) for radius in radii])
        terms = f.taylor_terms([np.array([c]) for c in center], cap + pad)
        # the factored sum takes about N^2 multiply-adds per term, the box's
        # fold (cap + 1) N^2
        factored = terms is not None and len(terms) <= cap + 1
        if factored:
            # (terms, r, cap + pad + 1)
            rows = np.array([[row[0] for row in term] for term in terms])
            _finite(f, "at the series center", rows)
            shells = _term_shells(np.abs(rows) * scale, ks)
        else:
            box = f.taylor_box(center, cap + pad)
            _finite(f, "at the series center", box)
            weights = np.abs(box)
            for j in range(r):
                weights *= scale[j].reshape([-1 if i == j else 1 for i in range(r)])
            shells = _box_shells(weights, ks)
        tail = float(np.sum(shells))
        if shells[-1] > 0:
            prev = shells[-2] if len(shells) > 1 else np.inf
            q = shells[-1] / prev if prev > 0 else 1.0
            if q >= 0.9:
                last_tail = np.inf
                continue
            tail += shells[-1] * q / (1.0 - q)
        last_tail = tail
        if tail <= TAIL_TOL:
            stacks = []
            for j in range(r):
                d = shifted[j].shape[0]
                pw = np.empty((cap + 1, d, d), dtype=complex)
                pw[0] = eye_like(d)
                for k in range(1, cap + 1):
                    pw[k] = pw[k - 1] @ shifted[j]
                stacks.append(pw)
            if not factored:
                core = box[(slice(0, cap + 1),) * r]
                return _kron_fold(np.ascontiguousarray(core), stacks)
            return _kron_sum([np.tensordot(rows[:, j, :cap + 1], pw, axes=1)
                              for j, pw in enumerate(stacks)])
    raise TailBoundError(
        f"power series tail {last_tail:.3e} not certified below {TAIL_TOL:g} "
        f"within degree cap {caps[-1]}")
