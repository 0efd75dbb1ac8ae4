"""Truncation models and two-level convergence experiments.

Oscillator models are assembled in the ladder basis at dimension
ref_dim + guard and then truncated, so matrix_ref agrees exactly with the
corresponding compression of the infinite operator (the guard absorbs the
band coupling: width 2 for p^2 + x^2 and p^2 + i x^2, width 4 for x^4).

One study measures an approximating sequence X_k -> X against a fixed
spectral cluster enclosed by a contour.  Truncations X_n (+) 0 (the
compressions of X, embedded with zeros) and bounded perturbations X + d E
are two such sequences; both run through it, two ways:

* level 1 (strong): probe-vector errors || (f(X_k) - f(X)) u ||,
* level 2 (norm): || f(X_k) - f(X) || on the cluster, checked against the
  explicit bound C_f * eps_k with eps_k = || D_k (z0 I - X)^{-1} || for the
  displacement D_k = X_k - X (cluster-restricted eps for the bound, global
  eps reported alongside).

Both f(.) evaluations run through the contour integral restricted to the
enclosed cluster, which is what makes the comparison meaningful for
truncations that destroy the spectrum far above the cluster.  Every matrix
of a study (each reference and each X_k) is factored once, at its own size:
its spectrum and its quadrature on the measurement contour read the same
certified Schur form (eigh for Hermitian matrices) as the spectral route;
the quadrature takes none of that route's decisions (clustering, ztrsen,
ztrsyl).  One contraction pass over its node resolvents gives the
reference's cluster projector, the matrix's share of f, and its C_f sup,
read at every k-th node: the measurement node count is a power-of-two
multiple of the declared one, so those are the declared nodes bitwise.
In the compression convention, f(X_n) is folded at its own size and
embedded with zeros, f(X_n) (+) 0: the padding eigenvalue 0 of X_n (+) 0,
whose eps_n is reported, enters no integrand.

The cluster error d = f(X_k) - f(X) (and f(X) itself, for the measurement
floor) has its columns in the range of the cluster projectors and its rows
in their row spaces, so its norm is read from a thin bracket instead of a
dense SVD on the tensor space.  With Qa an orthonormal basis of the
reference's and X_k's projector ranges (Kronecker products of the
factors' leading singular vectors, one per enclosed eigenvalue) and Qb the
same for the row spaces, core = Qa^H d Qb and rho = ||d - Qa core Qb^H||_F
enclose ||core|| <= ||d|| <= ||core|| + rho for any orthonormal Qa, Qb.
The report carries the lower end as the error and checks the upper end
against the bound.  The thin ends are kept when rho <= 1e-10 ||core|| or
when the whole bracket lies under the measurement floor; otherwise
(quadrature leakage out of the bases) both ends are the dense ||d||.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .calculus import (
    _SLAB_ENTRIES,
    _axis_rows,
    _kron_sum,
    _node_fold,
)
from .errors import (
    ClusterSeparationError,
    ConfigError,
    DimensionCapError,
    PreconditionError,
)
from .functions import AnalyticFunction
from .linalg import (
    KRON_CAP,
    NodeResolvents,
    _norm_bounds,
    _resolvent,
    _write_csv,
    as_matrix,
    op_norm,
    read_cmat,
    resolvent,
    resolvent_at_nodes,
)
from .spectra import Contour, _resolvent_stacks

MODEL_KINDS = ("harmonic", "anharmonic_x4", "complex_harmonic", "jordan_toy", "custom_file")
_OSCILLATORS = ("harmonic", "anharmonic_x4", "complex_harmonic")
_BOUND_SLACK = 1e-6
_PROBE_FLOOR = 1e-14
DEFAULT_PROBES = 4
_MIN_REF_DIM = 16
# measurement-grade node count: trapezoid leakage from eigenvalues near the
# contour decays like (ratio)^nodes, so the error metric is integrated with
# more nodes than the contour declares for eps / C_f
_MEAS_NODES = 256
_MEAS_FLOOR = 1e-14
# a thin norm bracket whose Frobenius remainder is at most this fraction of
# its lower end is accepted without a dense SVD
_THIN_RTOL = 1e-10


def _meas_contour(contour: Contour) -> Contour:
    """The smallest power-of-two refinement of `contour` with at least
    max(256, 2 * nodes) nodes: every k-th of its nodes is a declared node,
    bitwise, because 2 pi (k j) / (k m) rounds as 2 pi j / m for k = 2^p."""
    nodes = contour.nodes
    while nodes < max(_MEAS_NODES, 2 * contour.nodes):
        nodes *= 2
    return replace(contour, nodes=nodes)


@dataclass
class OperatorModel:
    kind: str
    ref_dim: int
    guard: int
    matrix_ref: np.ndarray

    @functools.cached_property
    def _factored(self) -> NodeResolvents:
        return resolvent_at_nodes(self.matrix_ref, ())

    @property
    def eigenvalues(self) -> np.ndarray:
        """Certified spectrum of matrix_ref (unsorted), from its one factorization."""
        return self._factored.eigenvalues


@dataclass
class TruncationPoint:
    n: int
    x_n: np.ndarray
    x_n_padded: np.ndarray

    @functools.cached_property
    def _factored(self) -> NodeResolvents:
        return resolvent_at_nodes(self.x_n, ())

    @property
    def eigenvalues(self) -> np.ndarray:
        """Spectrum of x_n_padded: that of x_n and the padding 0."""
        return np.append(self._factored.eigenvalues, 0.0)


@dataclass
class ReportRow:
    n: float                      # truncation size, or delta/eps for families
    eps_global: float
    eps_cluster: float
    func_error_norm: float        # lower end of the certified bracket of ||d||
    func_error_upper: float       # its upper end, checked against bound_rhs
    probe_errors: list[float]
    bound_rhs: float
    level2_ok: bool


@dataclass
class ConvergenceReport:
    kind: str
    f_spec: str
    z0: complex
    c_f: float
    rows: list[ReportRow] = field(default_factory=list)
    level1_pass: bool = False
    level2_pass: bool = False
    reference_stability: float | None = None


def _ladder(dim: int) -> np.ndarray:
    a = np.zeros((dim, dim), dtype=complex)
    n = np.arange(1, dim)
    a[n - 1, n] = np.sqrt(n)
    return a


def _oscillator(kind: str, dim: int) -> np.ndarray:
    a = _ladder(dim)
    x = (a + a.conj().T) / np.sqrt(2.0)
    p = (a - a.conj().T) / (1j * np.sqrt(2.0))
    if kind == "harmonic":
        return p @ p + x @ x
    if kind == "anharmonic_x4":
        x2 = x @ x
        return p @ p + x2 @ x2
    if kind == "complex_harmonic":
        return p @ p + 1j * (x @ x)
    raise ConfigError(f"unknown oscillator kind {kind!r}")


def _jordan_toy() -> np.ndarray:
    blocks = np.zeros((4, 4), dtype=complex)
    blocks[0, 0] = blocks[1, 1] = 1.0
    blocks[0, 1] = 1.0
    blocks[2, 2] = blocks[3, 3] = 1j
    blocks[2, 3] = 1.0
    rng = np.random.default_rng(20260814)
    q1, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    q2, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    s = q1 @ np.diag([np.sqrt(10.0), 1.0, 1.0, 1.0 / np.sqrt(10.0)]) @ q2
    return s @ blocks @ np.linalg.inv(s)


def build_model(kind: str, ref_dim: int, guard: int | None = None,
                path=None) -> OperatorModel:
    """Construct a reference operator of the requested kind.

    Oscillators require ref_dim >= 16 and a guard of at least the band width
    (2, or 4 for anharmonic_x4); jordan_toy is the fixed conditioned 4x4 pair
    of Jordan blocks at 1 and i; custom_file loads a cmat matrix.
    """
    if kind not in MODEL_KINDS:
        raise ConfigError(f"unknown model kind {kind!r}; choose from {MODEL_KINDS}")
    if kind in _OSCILLATORS:
        min_guard = 4 if kind == "anharmonic_x4" else 2
        if guard is None:
            guard = min_guard
        if ref_dim < _MIN_REF_DIM:
            raise PreconditionError(f"{kind} needs ref_dim >= {_MIN_REF_DIM}, got {ref_dim}")
        if guard < min_guard:
            raise PreconditionError(f"{kind} needs guard >= {min_guard}, got {guard}")
        full = _oscillator(kind, ref_dim + guard)
        m = np.ascontiguousarray(full[:ref_dim, :ref_dim])
        return OperatorModel(kind, ref_dim, guard, m)
    if kind == "jordan_toy":
        if ref_dim != 4:
            raise PreconditionError("jordan_toy is a fixed 4x4 model; pass ref_dim=4")
        return OperatorModel(kind, 4, 0, _jordan_toy())
    if path is None:
        raise ConfigError("custom_file model needs a cmat path")
    m = as_matrix(read_cmat(path), square=True)
    if m.shape[0] != ref_dim:
        raise ConfigError(f"custom matrix is {m.shape[0]}x{m.shape[0]}, expected {ref_dim}")
    return OperatorModel(kind, ref_dim, 0, m)


def _norm_at_most(a: np.ndarray, tol: float, m: np.ndarray) -> bool:
    """op_norm(a) <= tol * max(op_norm(m), 1).

    Decided from the certified bounds of `linalg._norm_bounds` when they
    can decide it, and from the SVDs of a and m otherwise.
    """
    a_low, a_high = _norm_bounds(a)
    m_low, m_high = (max(b, 1.0) for b in _norm_bounds(m))
    if a_high <= tol * m_low:
        return True
    if a_low > tol * m_high:
        return False
    return op_norm(a) <= tol * max(op_norm(m), 1.0)


def compress(model: OperatorModel, n: int) -> TruncationPoint:
    """Leading n x n compression, plus its zero-padding back to ref_dim."""
    if not 1 <= n <= model.ref_dim // 2:
        raise PreconditionError(
            f"truncation size must satisfy 1 <= n <= ref_dim/2, got n={n}")
    x_n = np.ascontiguousarray(model.matrix_ref[:n, :n])
    padded = np.zeros_like(model.matrix_ref)
    padded[:n, :n] = x_n
    return TruncationPoint(n, x_n, padded)


def resolvent_error(model: OperatorModel, point: TruncationPoint | int,
                    z0: complex) -> float:
    """eps_n = ||(X_n_padded - X) (z0 I - X)^{-1}||.

    Precondition: z0 keeps distance >= 1 from the spectra of the reference
    and of the padded truncation (the padding adds the eigenvalue 0).
    """
    if isinstance(point, (int, np.integer)):
        point = compress(model, int(point))
    _check_z0(model.eigenvalues, z0, "the reference")
    _check_z0(point.eigenvalues, z0, "the truncation")
    ref = model.matrix_ref
    return op_norm((point.x_n_padded - ref) @ resolvent(ref, z0))


def _check_z0(eigenvalues: np.ndarray, z0: complex, label: str) -> None:
    """The precondition of eps_n (see resolvent_error) on one spectrum."""
    d = float(np.min(np.abs(eigenvalues - complex(z0))))
    if d < 1.0 - 1e-9:
        raise PreconditionError(
            f"z0={z0} is at distance {d:.3f} < 1 from the spectrum of {label}")


def lowest_cluster_contour(model: OperatorModel, k: int,
                           nodes: int = 64) -> Contour:
    """Circle around the k lowest (by real part) reference eigenvalues.

    The radius is the midpoint between the cluster and the rest of the
    spectrum, 0 included: 0 is an eigenvalue of the zero-padded X_n (+) 0,
    the operator whose eps_n the study reports, and with 0 outside the
    circle f(X_n) (+) 0 is exactly that operator's cluster integral.
    """
    evs = np.array(sorted(model.eigenvalues, key=lambda z: (z.real, z.imag)))
    if not 1 <= k < evs.size:
        raise ConfigError(f"cluster size {k} out of range for dim {evs.size}")
    cluster, rest = evs[:k], list(evs[k:])
    center = complex(np.mean(cluster))
    rest.append(0.0 + 0.0j)
    r_in = float(np.max(np.abs(cluster - center)))
    r_out = float(np.min(np.abs(np.array(rest) - center)))
    radius = 0.5 * (r_in + r_out)
    if radius - r_in < 0.05 * radius or r_out - radius < 0.05 * radius:
        raise ClusterSeparationError(
            f"lowest-{k} cluster not separable (r_in={r_in:.3f}, r_out={r_out:.3f})")
    return Contour(center, radius, nodes)


def default_probes(dim: int, count: int = DEFAULT_PROBES) -> list[np.ndarray]:
    """The first min(count, dim) unit vectors of C^dim, as the rows of one
    count x dim array."""
    return list(np.eye(min(count, dim), dim, dtype=complex))


def _error_constant(f: AnalyticFunction, contours, sups) -> float:
    """prod radii * max|f| * r * worst telescoping product of resolvent sups.

    sups[j] lists factor j's sup_z ||R(z)|| on its declared contour nodes:
    its reference first, then the truncations or perturbed matrices compared
    with it.
    """
    r = len(contours)
    grids = np.meshgrid(*[c.points() for c in contours], indexing="ij")
    m_f = float(np.max(np.abs(np.asarray(f(*grids), dtype=complex))))
    sup_ref = [s[0] for s in sups]
    sup_fam = [max(s[1:], default=0.0) for s in sups]
    scale = m_f * r * float(np.prod([c.radius for c in contours]))
    worst_term = 0.0
    for j in range(r):
        term = scale * sup_fam[j] * sup_ref[j]
        for i in range(r):
            if i != j:
                term *= max(sup_ref[i], sup_fam[i])
        worst_term = max(worst_term, term)
    return worst_term


def error_constant(f: AnalyticFunction, model: OperatorModel, contour: Contour,
                   n_range) -> float:
    """C_f = radius * max|f on contour| * sup_n sup_z ||R_n(z)|| * sup_z ||R(z)||.

    error_constant_multi with one factor.  The truncation resolvents use the
    unpadded n x n blocks (the truncation acts on its own range); the contour
    must stay clear of the spectra of the reference and of every X_n.
    """
    return error_constant_multi(f, [model], [contour], n_range)


def error_constant_multi(f: AnalyticFunction, models, contours, n_range) -> float:
    """Multivariate constant: prod radii * max|f| * r * worst telescoping product."""
    sups = []
    for m, c in zip(models, contours):
        family = [m._factored] + [compress(m, int(n))._factored for n in n_range]
        sups.append([_resolvent_stacks(fac, c, label="error constant")[2].sup()
                     for fac in family])
    return _error_constant(f, contours, sups)


def _level1_pass(sequences: list[list[float]]) -> bool:
    """Probe errors: final value below 1e-6 and nonincreasing once the
    sequence first drops under 10x its final value (rounding floor 1e-14)."""
    for seq in sequences:
        if not seq:
            return False
        final = seq[-1]
        if final > 1e-6:
            return False
        gate = 10.0 * max(final, _PROBE_FLOOR)
        start = next((i for i, v in enumerate(seq) if v <= gate), len(seq) - 1)
        for a, b in zip(seq[start:], seq[start + 1:]):
            if b > a * (1.0 + _BOUND_SLACK) + _PROBE_FLOOR:
                return False
    return True


def _probe_errors(d: np.ndarray, probes) -> list[float]:
    """The probe errors ||d u|| of one d = f(X_n) - f(X)."""
    return [float(np.linalg.norm(d @ u)) for u in probes]


def _norm_bracket(d: np.ndarray, qa: np.ndarray, qb: np.ndarray,
                  floor: float = 0.0) -> tuple[float, float]:
    """Certified (lower, upper) ends of ||d||_2 from orthonormal qa, qb.

    core = qa^H d qb and rho = ||d - qa core qb^H||_F give
    ||core|| <= ||d|| <= ||core|| + rho.  The thin ends are returned when
    rho <= _THIN_RTOL * ||core|| or ||core|| + rho <= floor; otherwise both
    ends are the dense ||d||.
    """
    core = qa.conj().T @ d @ qb
    lower = op_norm(core) if core.size else 0.0
    rho = _residual_norm(d, qa @ core, qb.conj().T)
    if rho <= _THIN_RTOL * lower or lower + rho <= floor:
        return lower, lower + rho
    dense = op_norm(d)
    return dense, dense


def _residual_norm(d: np.ndarray, left: np.ndarray, right: np.ndarray) -> float:
    """||d - left right||_F, formed in row slabs of one buffer of at most
    _SLAB_ENTRIES entries (one row at least), never as a second array of
    d's size."""
    rows = min(len(d), max(1, _SLAB_ENTRIES // d.shape[1]))
    buf = np.empty((rows, d.shape[1]), dtype=complex)
    norms = []
    for i in range(0, len(d), rows):
        slab = buf[:min(rows, len(d) - i)]
        np.matmul(left[i:i + rows], right, out=slab)
        norms.append(np.linalg.norm(np.subtract(d[i:i + rows], slab, out=slab)))
    return float(np.linalg.norm(norms))


def _report(kind: str, f: AnalyticFunction, z0: complex, c_f: float, floor: float,
            points, n_probes: int) -> ConvergenceReport:
    """Rows from (n, eps_global, eps_cluster, lower, upper, probe errors)
    points, where lower <= ||d|| <= upper, each with its level-2 check
    upper <= C_f * eps_cluster, with slack and the measurement floor."""
    rows = []
    for n, eps_global, eps_cluster, lower, upper, p_err in points:
        bound = c_f * eps_cluster * (1.0 + _BOUND_SLACK) + floor
        rows.append(ReportRow(n, eps_global, eps_cluster, lower, upper, p_err, bound,
                              upper <= bound))
    report = ConvergenceReport(kind, f.to_spec(), complex(z0), c_f, rows)
    report.level1_pass = _level1_pass(
        [[row.probe_errors[i] for row in rows] for i in range(n_probes)])
    report.level2_pass = all(row.level2_ok for row in rows)
    return report


def _relative_change(a: float, b: float) -> float:
    if a <= 1e-12 and b <= 1e-12:
        return 0.0
    return abs(a - b) / max(a, 1e-12)


def _fold_and_reads(f: AnalyticFunction, stacks, strides, rows, dims):
    """(fold, projectors, sups) of one matrix per factor: the node fold of f
    at the matrices' own sizes (embedded with zeros into the leading block
    of the space of sizes `dims` when they are smaller), each factor's quadrature
    projector sum_k w_k R(z_k), and its sup ||R(z)|| at every stride-th node.

    `rows` are f's `calculus._axis_rows` on the stacks' nodes and weights.
    Each factor takes one contraction pass, whose rows are the projector's
    weights and its coefficient rows; the fold is then sum_t kron_j of the
    contracted blocks.  Rows None (a ratio, or a spec with more terms than a
    factor has nodes) fold the dense stacks (`calculus._node_fold`).
    """
    reads = [rs.contract([w, *r], k)
             for r, (_, w, rs), k in zip(rows or [()] * len(stacks), stacks, strides)]
    projectors, sups = [sums[0] for sums, _ in reads], [sup for _, sup in reads]
    fold = (_node_fold(f, stacks, None) if rows is None
            else _kron_sum([sums[1:] for sums, _ in reads]))
    sizes = [len(p) for p in projectors]
    if sizes == list(dims):
        return fold, projectors, sups
    embedded = np.zeros(tuple(dims) * 2, dtype=complex)
    embedded[tuple(map(slice, sizes)) * 2] = fold.reshape(sizes * 2)
    return embedded.reshape(math.prod(dims), -1), projectors, sups


def _tensor_bases(projectors, stacks, models, contours):
    """Orthonormal bases of the range and the row space of the Kronecker
    product of the factors' quadrature cluster projectors, on the space of
    the models' ref_dim: per factor, its projector's leading singular
    vectors, one per eigenvalue its contour encloses, padded with zero rows
    to ref_dim."""
    bases = []
    for p, (_, _, rs), m, c in zip(projectors, stacks, models, contours):
        k = int(np.sum(c.encloses(rs.eigenvalues)))
        u, _, vh = np.linalg.svd(p)
        pad = ((0, m.ref_dim - len(p)), (0, 0))
        bases.append((np.pad(u[:, :k], pad), np.pad(vh[:k].conj().T, pad)))
    return (functools.reduce(np.kron, b) for b in zip(*bases))


def _compressions(models, n_list):
    """Study points of a truncation study: per n, each factor's X_n and its
    displacement X_n (+) 0 - X."""
    for n in n_list:
        tps = [compress(m, n) for m in models]
        yield n, [(tp.x_n, tp.x_n_padded - m.matrix_ref) for m, tp in zip(models, tps)]


def _study(models, f: AnalyticFunction, z0s, contours, points,
           probes) -> ConvergenceReport:
    """Two-level study of f on the product of the factors' enclosed clusters,
    along an approximating sequence X_k -> X.

    `points` yields (label, [(X_kj, D_kj) per factor]), with the displacement
    D_kj = X_kj (+) 0 - X_j.  X_kj is factored and folded once, at its own
    size, and embedded with zeros when smaller than ref_dim.  Per point: the
    cluster error ||f(X_k1, ..) (+) 0 - f(X_1, ..)|| (the lower end of its
    thin norm bracket, whose upper end is checked), probe errors, global and
    cluster-restricted eps_k = sum_j ||D_kj (z0_j I - X_j)^{-1}||, and the
    bound C_f * eps_cluster.  f's node rows are taken before any
    factorization, so the quadrature's cost guard refuses before any solve.
    z0_j keeps distance >= 1 from the spectra of X_j and of every X_kj (+) 0.
    """
    if not len(models) == len(z0s) == len(contours) == f.arity:
        raise ConfigError(f"need one z0 and one contour per variable of f ({f.arity}), "
                          f"got {len(models)} models, {len(z0s)} z0s, {len(contours)} contours")
    meas = [_meas_contour(c) for c in contours]
    strides = [m.nodes // c.nodes for m, c in zip(meas, contours)]
    f.assert_analytic_on([c.center for c in meas], [c.radius for c in meas])
    rows = _axis_rows(f, [(c.points(), c.weights()) for c in meas])
    names = [f"factor {j + 1} ({m.kind})" for j, m in enumerate(models)]
    for m, z0, name in zip(models, z0s, names):
        _check_z0(m.eigenvalues, z0, name)
    dims = [m.ref_dim for m in models]
    ref_stacks = [_resolvent_stacks(m._factored, c, label=name)
                  for m, c, name in zip(models, meas, names)]
    g_ref, p_cs, ref_sups = _fold_and_reads(f, ref_stacks, strides, rows, dims)
    sups = [[s] for s in ref_sups]
    ref_a, ref_b = _tensor_bases(p_cs, ref_stacks, models, meas)
    r0s = [resolvent(m.matrix_ref, z0) for m, z0 in zip(models, z0s)]
    # measurement allowance: comparisons against the bound cannot resolve
    # differences below machine precision of the measured operator
    floor = _MEAS_FLOOR * (1.0 + _norm_bracket(g_ref, ref_a, ref_b)[0])

    measured = []
    for label, factors in points:
        eps_g, eps_c, stacks = 0.0, 0.0, []
        for j, ((x_k, d_k), model, c) in enumerate(zip(factors, models, meas)):
            where = f"{names[j]} at point {label}"
            factored = resolvent_at_nodes(x_k, ())
            evs = factored.eigenvalues
            _check_z0(evs if len(x_k) == model.ref_dim else np.append(evs, 0.0),
                      z0s[j], where)
            diff_op = d_k @ r0s[j]
            eps_g += op_norm(diff_op)
            eps_c += op_norm(diff_op @ p_cs[j])
            stacks.append(_resolvent_stacks(factored, c, label=where))
        d, p_ks, k_sups = _fold_and_reads(f, stacks, strides, rows, dims)
        for s, sup in zip(sups, k_sups):
            s.append(sup)
        k_a, k_b = _tensor_bases(p_ks, stacks, models, meas)
        qa = np.linalg.qr(np.hstack([ref_a, k_a]))[0]
        qb = np.linalg.qr(np.hstack([ref_b, k_b]))[0]
        d -= g_ref
        measured.append((label, eps_g, eps_c, *_norm_bracket(d, qa, qb, floor),
                         _probe_errors(d, probes)))
        del d  # the next point's fold is the only N x N array beside g_ref
    c_f = _error_constant(f, contours, sups)
    return _report("+".join(m.kind for m in models), f, z0s[0], c_f, floor, measured,
                   len(probes))


def level_experiment(model: OperatorModel, f: AnalyticFunction, z0: complex,
                     contour: Contour, n_list, probes=None,
                     stability_check: bool = True) -> ConvergenceReport:
    """Two-level truncation study of f on the cluster enclosed by `contour`.

    For every n: cluster error ||f(X_n) (+) 0 - f(X)|| (contour integrals on
    the cluster), probe errors, global and cluster-restricted eps_n, and the
    bound C_f * eps_cluster.  reference_stability reruns the comparable
    points on the half-size reference model.
    """
    n_list = [int(n) for n in n_list]
    if probes is None:
        probes = default_probes(model.ref_dim)
    report = _study([model], f, [z0], [contour], _compressions([model], n_list), probes)

    if stability_check and model.kind in _OSCILLATORS and model.ref_dim // 2 >= _MIN_REF_DIM:
        half = build_model(model.kind, model.ref_dim // 2, model.guard)
        shared = [n for n in n_list if n <= half.ref_dim // 2]
        if shared:
            sub = level_experiment(half, f, z0, contour,
                                   shared, probes=[u[:half.ref_dim] for u in probes],
                                   stability_check=False)
            drift = 0.0
            for row_h in sub.rows:
                row_f = next(r for r in report.rows if r.n == row_h.n)
                drift = max(drift, _relative_change(row_f.func_error_norm,
                                                    row_h.func_error_norm))
                for a, b in zip(row_f.probe_errors, row_h.probe_errors):
                    drift = max(drift, _relative_change(a, b))
            report.reference_stability = drift
    return report


def _perturbed_pair(x, p, name: str):
    """X and its perturbation p, as square matrices of one shape."""
    x = as_matrix(x, square=True)
    p = as_matrix(p, square=True)
    if p.shape != x.shape:
        raise ConfigError(f"perturbation {name} has shape {p.shape}, X has shape {x.shape}")
    return x, p


def perturbation_experiment(x, e_mat, deltas, f: AnalyticFunction, z0: complex,
                            contour: Contour, probes=None) -> ConvergenceReport:
    """Bounded-family analog of level_experiment: X_d = X + d E, ||E|| ~ 1.

    The same study, along X + d E instead of X_n (+) 0: the errors are
    restricted to the cluster that `contour` encloses (all of f when it
    encloses the whole spectrum) and checked against C_f * eps_cluster.
    eps(d) = ||d E (z0 I - X)^{-1}|| is read from d E itself, free of the
    cancellation in (X + d E) - X.  z0 keeps distance >= 1 from the spectra
    of X and of every X_d.
    """
    x, e_mat = _perturbed_pair(x, e_mat, "E")
    if probes is None:
        probes = default_probes(len(x))
    points = ((d, [(x + d * e_mat, d * e_mat)]) for d in map(float, deltas))
    return _study([OperatorModel("perturbation", len(x), 0, x)], f, [z0], [contour],
                  points, probes)


def multivariate_experiment(models, f: AnalyticFunction, z0s, contours,
                            n_list, probes=None) -> ConvergenceReport:
    """Truncation study of f on the product of r per-factor clusters.

    Error metric: || f_ox(X_1n, .., X_rn) (+) 0 - f_ox(X_1, .., X_r) || via
    the iterated contour integral restricted to the product cluster; bound
    C_f * (eps_1 + .. + eps_r) with cluster-restricted per-factor eps.
    prod_j ref_dim_j is capped at KRON_CAP before any factorization, as in
    `calculus.lift`.
    """
    tensor_dim = math.prod(m.ref_dim for m in models)
    if tensor_dim > KRON_CAP:
        raise DimensionCapError(
            f"tensor dimension {tensor_dim} exceeds the cap {KRON_CAP}")
    n_list = [int(n) for n in n_list]
    if probes is None:
        probes = default_probes(tensor_dim)
    return _study(models, f, z0s, contours, _compressions(models, n_list), probes)


@dataclass
class RegularizationRow:
    eps: float
    probe_errors: list[float]
    probe_bounds: list[float]
    norm_error: float
    ok: bool


@dataclass
class RegularizationReport:
    z0: complex
    sup_norm: float             # M = sup over the family of ||R_eps||
    rows: list[RegularizationRow] = field(default_factory=list)
    strictly_decreasing: bool = False
    bound_pass: bool = False


def regularization_sweep(x, k_mat, eps_list, z0: complex,
                         probes=None) -> RegularizationReport:
    """Resolvent convergence of X + eps K -> X at z0.

    Rows are ordered by decreasing eps.  For each probe u the identity
    R_eps - R = R_eps (eps K) R gives the certified bound
    ||(R_eps - R) u|| <= M ||eps K R u|| with M = sup ||R_eps||; the sweep
    checks it and the strict decrease of every probe error.
    """
    x, k_mat = _perturbed_pair(x, k_mat, "K")
    if not _norm_at_most(k_mat, 10.0, x):
        raise PreconditionError("perturbation K is not modestly bounded next to X")
    eps_list = sorted((float(e) for e in eps_list), reverse=True)
    if not eps_list or eps_list[-1] <= 0:
        raise ConfigError("eps_list must contain positive values")
    if probes is None:
        probes = default_probes(x.shape[0])

    r0, norm_r0 = _resolvent(x, z0)
    solved = [_resolvent(x + e * k_mat, z0) for e in eps_list]
    sup_norm = max([norm for _, norm in solved] + [norm_r0])

    rows = []
    for e, (re_mat, _) in zip(eps_list, solved):
        diff = re_mat - r0
        p_err, p_bound = [], []
        for u in probes:
            err = float(np.linalg.norm(diff @ u))
            hyp = float(np.linalg.norm(e * (k_mat @ (r0 @ u))))
            p_err.append(err)
            p_bound.append(sup_norm * hyp * (1.0 + _BOUND_SLACK))
        ok = all(a <= b for a, b in zip(p_err, p_bound))
        rows.append(RegularizationRow(e, p_err, p_bound, op_norm(diff), ok))

    decreasing = True
    for i in range(len(probes)):
        seq = [row.probe_errors[i] for row in rows]
        if any(b >= a for a, b in zip(seq, seq[1:])):
            decreasing = False
    return RegularizationReport(complex(z0), sup_norm, rows,
                                decreasing, all(r.ok for r in rows))


# ---------------------------------------------------------------------------
# CSV export


def write_convergence_csv(path, report: ConvergenceReport, sha=None) -> None:
    """Report table: one row per truncation point, fixed column layout.

    The bytes are fed to the hashlib object `sha` too, when one is given.
    """
    k = len(report.rows[0].probe_errors) if report.rows else 0
    header = (["n", "eps_global", "eps_cluster", "func_error_norm"]
              + [f"probe_err_{i}" for i in range(k)]
              + ["c_f", "bound_rhs", "level2_ok"])
    _write_csv(path, [header] + [
        [repr(row.n), repr(row.eps_global), repr(row.eps_cluster), repr(row.func_error_norm)]
        + [repr(v) for v in row.probe_errors]
        + [repr(report.c_f), repr(row.bound_rhs), "true" if row.level2_ok else "false"]
        for row in report.rows], sha)


def write_regularization_csv(path, report: RegularizationReport, sha=None) -> None:
    k = len(report.rows[0].probe_errors) if report.rows else 0
    header = (["eps"] + [f"probe_err_{i}" for i in range(k)]
              + [f"probe_bound_{i}" for i in range(k)] + ["norm_error", "ok"])
    _write_csv(path, [header] + [
        [repr(row.eps)] + [repr(v) for v in row.probe_errors]
        + [repr(v) for v in row.probe_bounds]
        + [repr(row.norm_error), "true" if row.ok else "false"]
        for row in report.rows], sha)
