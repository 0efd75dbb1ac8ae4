"""Truncation models and two-level convergence experiments.

Oscillator models are assembled in the ladder basis at dimension
ref_dim + guard and then truncated, so matrix_ref agrees exactly with the
corresponding compression of the infinite operator (the guard absorbs the
band coupling: width 2 for p^2 + x^2 and p^2 + i x^2, width 4 for x^4).

Convergence of truncations X_n -> X is measured two ways against a fixed
spectral cluster enclosed by a contour:

* level 1 (strong): probe-vector errors || (f(X_n) - f(X)) u ||,
* level 2 (norm): || f(X_n) - f(X) || on the cluster, checked against the
  explicit bound C_f * eps_n with eps_n = || (X_n - X) (z0 I - X)^{-1} ||
  (cluster-restricted eps for the bound, global eps reported alongside).

Both f(.) evaluations run through the contour integral restricted to the
enclosed cluster, which is what makes the comparison meaningful for
truncations that destroy the spectrum far above the cluster.  Every matrix
of a study (each reference and each X_n) is factored once, at its own size:
its spectrum and its quadrature on the measurement contour read the same
certified Schur form (eigh for Hermitian matrices) as the spectral route;
the quadrature takes none of that route's decisions (clustering, ztrsen,
ztrsyl).  One contraction pass over its node resolvents gives the
reference's cluster projector, the matrix's share of f, and its C_f sup,
read at every k-th node: the measurement node count is a power-of-two
multiple of the declared one, so those are the declared nodes bitwise.  A
truncation's zero-padding to ref_dim only adds the eigenvalue 0, so its
padded resolvent is blockdiag((zI - X_n)^{-1}, z^{-1} I); the fold reads the
n x n resolvents on the leading block and z^{-1} on the padding diagonal,
and never forms the padded resolvents.

The cluster error d = f(X_n) - f(X) (and f(X) itself, for the measurement
floor) has its columns in the range of the cluster projectors and its rows
in their row spaces, so its norm is read from a thin bracket instead of a
dense SVD on the tensor space.  With Qa an orthonormal basis of the
reference's and the truncation's projector ranges (Kronecker products of the
factors' leading singular vectors, one per enclosed eigenvalue) and Qb the
same for the row spaces, core = Qa^H d Qb and rho = ||d - Qa core Qb^H||_F
enclose ||core|| <= ||d|| <= ||core|| + rho for any orthonormal Qa, Qb.
The report carries the lower end as the error and checks the upper end
against the bound.  The thin ends are kept when rho <= 1e-10 ||core|| or
when the whole bracket lies under the measurement floor; otherwise (a
contour around the padding eigenvalue 0, quadrature leakage out of the
bases) both ends are the dense ||d||.
"""
from __future__ import annotations

import functools
import itertools
import math
import string
from dataclasses import dataclass, field, replace

import numpy as np

from .calculus import (
    _SLAB_ENTRIES,
    _axis_rows,
    _kron_sum,
    _node_coeffs,
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


def _norm_at_most(a: np.ndarray, tol: float, m: np.ndarray, power: int = 1) -> bool:
    """op_norm(a) <= tol * max(op_norm(m), 1) ** power.

    Decided from the certified bounds of `linalg._norm_bounds` when they
    can decide it, and from the SVDs of a and m otherwise.
    """
    a_low, a_high = _norm_bounds(a)
    m_low, m_high = (max(b, 1.0) for b in _norm_bounds(m))
    if a_high <= tol * m_low ** power:
        return True
    if a_low > tol * m_high ** power:
        return False
    return op_norm(a) <= tol * max(op_norm(m), 1.0) ** power


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
    _check_z0(model, point, z0)
    ref = model.matrix_ref
    return op_norm((point.x_n_padded - ref) @ resolvent(ref, z0))


def _check_z0(model: OperatorModel, point: TruncationPoint, z0: complex) -> None:
    """The precondition of eps_n (see resolvent_error)."""
    for label, evs in (("reference", model.eigenvalues), ("truncation", point.eigenvalues)):
        d = float(np.min(np.abs(evs - complex(z0))))
        if d < 1.0 - 1e-9:
            raise PreconditionError(
                f"z0={z0} is at distance {d:.3f} < 1 from the {label} spectrum")


def lowest_cluster_contour(model: OperatorModel, k: int,
                           nodes: int = 64) -> Contour:
    """Circle around the k lowest (by real part) reference eigenvalues.

    The radius is the midpoint between the cluster and the rest of the
    spectrum; the padding eigenvalue 0 is always treated as excluded, so the
    same contour is valid for every truncation.
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
    must stay clear of every spectrum involved, the padding eigenvalue 0
    included.
    """
    return error_constant_multi(f, [model], [contour], n_range)


def error_constant_multi(f: AnalyticFunction, models, contours, n_range) -> float:
    """Multivariate constant: prod radii * max|f| * r * worst telescoping product."""
    sups = []
    for m, c in zip(models, contours):
        family = [(m._factored, None)] + [
            (tp._factored, tp.eigenvalues) for tp in (compress(m, int(n)) for n in n_range)]
        sups.append([
            _resolvent_stacks(fac, c, eigenvalues=evs, label="error constant")[2].sup()
            for fac, evs in family])
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


def _padded_sum(blocks, scalars, dims) -> np.ndarray:
    """sum over terms t of kron_j blockdiag(blocks[j][t], scalars[j][t] I)
    at sizes `dims`, without forming the padded blocks.

    The sum splits into disjoint blocks, one per set of factors read on
    their padding: those factors are identities there, their scalars scale
    each term, and the others keep their blocks at the unpadded size.  The
    contracted block of a padded resolvent blockdiag(R_n(z), z^{-1} I) over
    coefficients c has the scalar sum_k c_k / z_k.
    """
    blocks = [np.asarray(b) for b in blocks]
    sizes = [b.shape[1] for b in blocks]
    ones = np.ones(len(blocks[0]))
    out = np.zeros(tuple(dims) * 2, dtype=complex)
    rows = string.ascii_lowercase[:len(blocks)]
    for on_pad in itertools.product((False, True), repeat=len(blocks)):
        kept = [j for j, p in enumerate(on_pad) if not p]
        scale = math.prod((s for s, p in zip(scalars, on_pad) if p), start=ones)
        block = (_kron_sum([blocks[kept[0]] * scale[:, None, None]]
                           + [blocks[j] for j in kept[1:]]) if kept else scale.sum())
        # the part of `out` on each factor's leading block or padding, viewed
        # with a padded factor's rows and columns on one axis (its diagonal):
        # einsum returns that diagonal as a writeable view
        part = out[tuple(slice(n, None) if p else slice(n) for n, p in zip(sizes, on_pad)) * 2]
        cols = "".join(c if p else c.upper() for c, p in zip(rows, on_pad))
        view = np.einsum(f"{rows}{cols}->{rows}" + "".join(filter(str.isupper, cols)), part)
        view[...] = block.reshape([1 if p else n for n, p in zip(sizes, on_pad)]
                                  + [sizes[j] for j in kept])
    return out.reshape(math.prod(dims), -1)


def _fold_and_reads(f: AnalyticFunction, stacks, strides, dims=None):
    """(fold, projectors, sups) of one matrix per factor: the node fold of f
    (padded to `dims` when given), each factor's quadrature projector
    sum_k w_k R(z_k), and its sup ||R(z)|| at every stride-th node.

    Each factor takes one contraction pass, whose rows are the projector's
    weights and the coefficient rows of `calculus._axis_rows`; the fold is
    then sum_t kron_j of the contracted blocks, padded by `_padded_sum`.
    At three or more factors that needs f's Taylor terms, at most as many
    as a factor has nodes: a ratio, or a spec with more terms, is refused.
    """
    rows = _axis_rows(f, stacks)
    if rows is None:
        raise PreconditionError(
            f"truncation study of {f.to_spec()} on {len(stacks)} factors needs at most "
            f"{min(zs.size for zs, _, _ in stacks)} Taylor terms of f (a ratio has none)")
    reads = [rs.contract([w, *r], k) for r, (_, w, rs), k in zip(rows, stacks, strides)]
    projectors, sups = [sums[0] for sums, _ in reads], [sup for _, sup in reads]
    blocks = [sums[1:] for sums, _ in reads]
    if dims is None:
        return _kron_sum(blocks), projectors, sups
    scalars = [np.array([np.sum(c * (1.0 / zs)) for c in r])
               for r, (zs, _, _) in zip(rows, stacks)]
    return _padded_sum(blocks, scalars, dims), projectors, sups


def _cluster_basis(projector: np.ndarray, eigenvalues, contour: Contour,
                   dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal bases of the range and the row space of a quadrature
    cluster projector: its leading singular vectors, one per eigenvalue the
    contour encloses, padded with zero rows to `dim`."""
    k = int(np.sum(contour.encloses(eigenvalues)))
    u, _, vh = np.linalg.svd(projector)
    pad = ((0, dim - projector.shape[0]), (0, 0))
    return np.pad(u[:, :k], pad), np.pad(vh[:k].conj().T, pad)


def _truncation_study(models, f: AnalyticFunction, z0s, contours, n_list,
                      probes) -> ConvergenceReport:
    """Truncation study of f on the product of the factors' enclosed clusters.

    For every n: the cluster error ||f(X_1n, ..) - f(X_1, ..)|| (the lower end
    of its thin norm bracket, whose upper end is checked), probe errors,
    global and cluster-restricted eps_n summed over the factors, and the bound
    C_f * eps_cluster.  Each reference and each X_n is solved once, at its own
    size, on its measurement contour.
    """
    meas = [_meas_contour(c) for c in contours]
    strides = [m.nodes // c.nodes for m, c in zip(meas, contours)]
    f.assert_analytic_on([c.center for c in meas], [c.radius for c in meas])
    ref_stacks = [_resolvent_stacks(m._factored, c, label=f"factor {j + 1}")
                  for j, (m, c) in enumerate(zip(models, meas))]
    g_ref, p_cs, ref_sups = _fold_and_reads(f, ref_stacks, strides)
    sups = [[s] for s in ref_sups]
    ref_a, ref_b = (functools.reduce(np.kron, b) for b in zip(*[
        _cluster_basis(p, m.eigenvalues, c, m.ref_dim)
        for p, m, c in zip(p_cs, models, meas)]))
    r0s = [resolvent(m.matrix_ref, z0) for m, z0 in zip(models, z0s)]
    # measurement allowance: comparisons against the bound cannot resolve
    # differences below machine precision of the measured operator
    floor = _MEAS_FLOOR * (1.0 + _norm_bracket(g_ref, ref_a, ref_b)[0])

    points = []
    for n in n_list:
        eps_g, eps_c, stacks, spectra_n = 0.0, 0.0, [], []
        for j, (model, c) in enumerate(zip(models, meas)):
            tp = compress(model, n)
            _check_z0(model, tp, z0s[j])
            diff_op = (tp.x_n_padded - model.matrix_ref) @ r0s[j]
            eps_g += op_norm(diff_op)
            eps_c += op_norm(diff_op @ p_cs[j])
            stacks.append(_resolvent_stacks(tp._factored, c, eigenvalues=tp.eigenvalues,
                                            label=f"factor {j + 1} truncation n={n}"))
            # tp.eigenvalues ends with the padding 0, which P_n does not see
            spectra_n.append(tp.eigenvalues[:-1])
        d, p_ns, n_sups = _fold_and_reads(f, stacks, strides, [m.ref_dim for m in models])
        for s, sup in zip(sups, n_sups):
            s.append(sup)
        n_a, n_b = (functools.reduce(np.kron, b) for b in zip(*[
            _cluster_basis(p, evs, c, m.ref_dim)
            for p, evs, m, c in zip(p_ns, spectra_n, models, meas)]))
        qa = np.linalg.qr(np.hstack([ref_a, n_a]))[0]
        qb = np.linalg.qr(np.hstack([ref_b, n_b]))[0]
        d -= g_ref
        points.append((n, eps_g, eps_c, *_norm_bracket(d, qa, qb, floor),
                       _probe_errors(d, probes)))
        del d  # the next point's fold is the only N x N array beside g_ref
    c_f = _error_constant(f, contours, sups)
    return _report("+".join(m.kind for m in models), f, z0s[0], c_f, floor, points,
                   len(probes))


def level_experiment(model: OperatorModel, f: AnalyticFunction, z0: complex,
                     contour: Contour, n_list, probes=None,
                     stability_check: bool = True) -> ConvergenceReport:
    """Two-level truncation study of f on the cluster enclosed by `contour`.

    For every n: cluster error ||f(X_n) - f(X)|| (contour integral on the
    cluster), probe errors, global and cluster-restricted eps_n, and the
    bound C_f * eps_cluster.  reference_stability reruns the comparable
    points on the half-size reference model.
    """
    n_list = [int(n) for n in n_list]
    if probes is None:
        probes = default_probes(model.ref_dim)
    report = _truncation_study([model], f, [z0], [contour], n_list, probes)

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


def perturbation_experiment(x, e_mat, deltas, f: AnalyticFunction, z0: complex,
                            contour: Contour, probes=None) -> ConvergenceReport:
    """Bounded-family analog of level_experiment: X_d = X + d E, ||E|| ~ 1.

    The contour must enclose the whole spectrum of X and every X_d, so the
    integral computes f itself and the level-2 bound is checked globally
    with eps(d) = ||d E (z0 I - X)^{-1}||.  X and each X_d are solved once,
    on the measurement contour, which also gives their C_f sups.
    """
    x = as_matrix(x, square=True)
    e_mat = as_matrix(e_mat, square=True)
    if probes is None:
        probes = default_probes(x.shape[0])
    meas = _meas_contour(contour)
    f.assert_analytic_on([meas.center], [meas.radius])
    sups = []

    def integral(m):
        stack = _resolvent_stacks(resolvent_at_nodes(m, ()), meas, require_full=True,
                                  label="perturbation")
        [g], sup = stack[2].contract([_node_coeffs(f, [stack])], meas.nodes // contour.nodes)
        sups.append(sup)
        return g

    g_ref = integral(x)
    r0 = resolvent(x, z0)
    floor = _MEAS_FLOOR * (1.0 + op_norm(g_ref))
    points = []
    for delta in deltas:
        delta = float(delta)
        eps = op_norm(delta * e_mat @ r0)
        d = integral(x + delta * e_mat) - g_ref
        # the contour encloses the whole spectrum: d has full range, so the
        # thin bracket cannot win and its norm is dense
        norm = op_norm(d)
        points.append((delta, eps, eps, norm, norm, _probe_errors(d, probes)))
    c_f = _error_constant(f, [contour], [sups])
    return _report("perturbation", f, z0, c_f, floor, points, len(probes))


def multivariate_experiment(models, f: AnalyticFunction, z0s, contours,
                            n_list, probes=None) -> ConvergenceReport:
    """Truncation study of f on the product of r per-factor clusters.

    Error metric: || f_ox(X_1n, .., X_rn) - f_ox(X_1, .., X_r) || via the
    iterated contour integral restricted to the product cluster; bound
    C_f * (eps_1 + .. + eps_r) with cluster-restricted per-factor eps.
    prod_j ref_dim_j is capped at KRON_CAP before any factorization, as in
    `calculus.lift`.
    """
    if not len(models) == len(z0s) == len(contours) == f.arity:
        raise ConfigError(f"need one z0 and one contour per variable of f ({f.arity}), "
                          f"got {len(models)} models, {len(z0s)} z0s, {len(contours)} contours")
    tensor_dim = math.prod(m.ref_dim for m in models)
    if tensor_dim > KRON_CAP:
        raise DimensionCapError(
            f"tensor dimension {tensor_dim} exceeds the cap {KRON_CAP}")
    n_list = [int(n) for n in n_list]
    if probes is None:
        probes = default_probes(tensor_dim)
    return _truncation_study(models, f, z0s, contours, n_list, probes)


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
    x = as_matrix(x, square=True)
    k_mat = as_matrix(k_mat, square=True)
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
