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
truncations that destroy the spectrum far above the cluster.  The
reference's cluster projector and f come from one resolvent stack.  A
truncation is integrated at its own size n: its zero-padding to ref_dim only
adds the eigenvalue 0, whose block of the integral is one scalar quadrature
times the identity.
"""
from __future__ import annotations

import csv
import functools
from dataclasses import dataclass, field, replace

import numpy as np

from .calculus import _resolvent_integrals, dunford, dunford_multivariate, lift
from .errors import (
    ClusterSeparationError,
    ConfigError,
    PreconditionError,
    ToleranceError,
)
from .functions import AnalyticFunction, Polynomial
from .linalg import as_matrix, eye_like, op_norm, read_cmat, resolvent, resolvent_at_nodes
from .spectra import CIRCLE_GUARD, Contour, riesz_projector

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
# f = 1: its cluster integral is the Riesz projector
_ONE = Polynomial({0: 1.0}, 1)


def _meas_contour(contour: Contour) -> Contour:
    return replace(contour, nodes=max(_MEAS_NODES, 2 * contour.nodes))


@dataclass
class OperatorModel:
    kind: str
    ref_dim: int
    guard: int
    matrix_ref: np.ndarray

    @functools.cached_property
    def eigenvalues(self) -> np.ndarray:
        """Spectrum of matrix_ref (unsorted), computed once per model."""
        return np.linalg.eigvals(self.matrix_ref)


@dataclass
class TruncationPoint:
    n: int
    x_n: np.ndarray
    x_n_padded: np.ndarray


@dataclass
class ReportRow:
    n: float                      # truncation size, or delta/eps for families
    eps_global: float
    eps_cluster: float
    func_error_norm: float
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
        _check_oscillator(kind, m)
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


def _check_oscillator(kind: str, m: np.ndarray) -> None:
    scale = max(op_norm(m), 1.0)
    if kind in ("harmonic", "anharmonic_x4"):
        herm = op_norm(m - m.conj().T)
        if herm > 1e-12 * scale:
            raise ToleranceError(f"{kind} reference not hermitian ({herm:.3e})")
    if kind == "harmonic":
        target = np.diag(2.0 * np.arange(m.shape[0]) + 1.0)
        if op_norm(m - target) > 1e-12 * scale:
            raise ToleranceError("harmonic reference deviates from diag(2n+1)")
    if kind == "complex_harmonic":
        band = np.triu(np.abs(m), 3) + np.tril(np.abs(m), -3)
        if band.max() > 0:
            raise ToleranceError("complex_harmonic reference not banded (width 2)")
        normality = op_norm(m @ m.conj().T - m.conj().T @ m)
        if normality <= 1e-6 * scale ** 2:
            raise ToleranceError("complex_harmonic reference unexpectedly normal")
        sym = np.linalg.eigvalsh((m + m.conj().T) / 2.0)
        if sym.min() <= 0:
            raise ToleranceError("complex_harmonic numerical range leaks out of Re > 0")


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
    ref = model.matrix_ref
    padded = np.append(np.linalg.eigvals(point.x_n), 0.0)
    for label, evs in (("reference", model.eigenvalues), ("truncation", padded)):
        d = float(np.min(np.abs(evs - complex(z0))))
        if d < 1.0 - 1e-9:
            raise PreconditionError(
                f"z0={z0} is at distance {d:.3f} < 1 from the {label} spectrum")
    return op_norm((point.x_n_padded - ref) @ resolvent(ref, z0))


def reference_eigenvalues(model: OperatorModel) -> np.ndarray:
    return np.sort_complex(model.eigenvalues)


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
    return [np.eye(dim, dtype=complex)[:, i] for i in range(min(count, dim))]


def _sup_resolvent_norm(x: np.ndarray, zs: np.ndarray) -> float:
    rs = resolvent_at_nodes(x, zs)
    return float(max(np.linalg.norm(r, 2) for r in rs))


def error_constant(f: AnalyticFunction, model: OperatorModel, contour: Contour,
                   n_range) -> float:
    """C_f = radius * max|f on contour| * sup_n sup_z ||R_n(z)|| * sup_z ||R(z)||.

    The truncation resolvents use the unpadded n x n blocks (the truncation
    acts on its own range); the contour must stay clear of every spectrum
    involved.
    """
    zs = contour.points()
    m_f = float(np.max(np.abs(np.asarray(f(zs), dtype=complex))))
    sup_ref = _sup_resolvent_norm(model.matrix_ref, zs)
    sup_trunc = 0.0
    for n in n_range:
        tp = compress(model, int(n))
        _screen(contour, np.linalg.eigvals(tp.x_n))
        sup_trunc = max(sup_trunc, _sup_resolvent_norm(tp.x_n, zs))
    _screen(contour, model.eigenvalues)
    return contour.radius * m_f * sup_trunc * sup_ref


def _screen(contour: Contour, evs: np.ndarray) -> None:
    if float(np.min(contour.circle_distance(evs))) < CIRCLE_GUARD * contour.radius:
        raise PreconditionError("eigenvalue within the contour guard band")


def error_constant_multi(f: AnalyticFunction, models, contours, n_range) -> float:
    """Multivariate constant: prod radii * max|f| * r * worst telescoping product."""
    r = len(models)
    grids = np.meshgrid(*[c.points() for c in contours], indexing="ij")
    m_f = float(np.max(np.abs(np.asarray(f(*grids), dtype=complex))))
    sup_ref, sup_trunc = [], []
    for j in range(r):
        zs = contours[j].points()
        _screen(contours[j], models[j].eigenvalues)
        sup_ref.append(_sup_resolvent_norm(models[j].matrix_ref, zs))
        worst = 0.0
        for n in n_range:
            tp = compress(models[j], int(n))
            _screen(contours[j], np.linalg.eigvals(tp.x_n))
            worst = max(worst, _sup_resolvent_norm(tp.x_n, zs))
        sup_trunc.append(worst)
    prod_radius = 1.0
    for c in contours:
        prod_radius *= c.radius
    worst_term = 0.0
    for j in range(r):
        term = sup_trunc[j] * sup_ref[j]
        for i in range(r):
            if i != j:
                term *= max(sup_ref[i], sup_trunc[i])
        worst_term = max(worst_term, term)
    return prod_radius * m_f * r * worst_term


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


def _relative_change(a: float, b: float) -> float:
    if a <= 1e-12 and b <= 1e-12:
        return 0.0
    return abs(a - b) / max(a, 1e-12)


def _truncation_integral(f: AnalyticFunction, tp: TruncationPoint,
                         contour: Contour) -> np.ndarray:
    """dunford(f, tp.x_n_padded, contour, require_full=False), solved at size n.

    blockdiag(X_n, 0) has the resolvent blockdiag((zI - X_n)^{-1}, z^{-1} I),
    so the padding block is s I, with s the same quadrature of the 1 x 1 zero
    matrix: f(0) when the contour encloses 0, about 0 otherwise.  The two
    guard-band screens together see the padded spectrum, eig(X_n) and 0.
    """
    n = tp.n
    g = np.zeros_like(tp.x_n_padded)
    g[:n, :n] = dunford(f, tp.x_n, contour, require_full=False)
    pad = np.arange(n, g.shape[0])
    g[pad, pad] = dunford(f, np.zeros((1, 1)), contour, require_full=False)[0, 0]
    return g


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
    ref = model.matrix_ref
    meas = _meas_contour(contour)
    p_c, g_ref = _resolvent_integrals([_ONE, f], ref, meas, require_full=False)
    r0 = resolvent(ref, z0)
    c_f = error_constant(f, model, contour, n_list)
    # measurement allowance: comparisons against the bound cannot resolve
    # differences below machine precision of the measured operator
    floor = _MEAS_FLOOR * (1.0 + op_norm(g_ref))

    rows = []
    for n in n_list:
        tp = compress(model, n)
        eps_global = resolvent_error(model, tp, z0)
        diff_op = (tp.x_n_padded - ref) @ r0
        eps_cluster = op_norm(diff_op @ p_c)
        d = _truncation_integral(f, tp, meas) - g_ref
        func_err = op_norm(d)
        p_err = [float(np.linalg.norm(d @ u)) for u in probes]
        bound = c_f * eps_cluster * (1.0 + _BOUND_SLACK) + floor
        rows.append(ReportRow(n, eps_global, eps_cluster, func_err, p_err,
                              bound, func_err <= bound))

    report = ConvergenceReport(model.kind, f.to_spec(), complex(z0), c_f, rows)
    report.level1_pass = _level1_pass(
        [[row.probe_errors[i] for row in rows] for i in range(len(probes))])
    report.level2_pass = all(row.level2_ok for row in rows)

    if stability_check and model.kind in _OSCILLATORS and model.ref_dim // 2 >= _MIN_REF_DIM:
        half = build_model(model.kind, model.ref_dim // 2, model.guard)
        shared = [n for n in n_list if n <= half.ref_dim // 2]
        if shared:
            sub = level_experiment(half, f, z0, contour,
                                   shared, probes=[u[:half.ref_dim] for u in probes],
                                   stability_check=False)
            drift = 0.0
            for row_h in sub.rows:
                row_f = next(r for r in rows if r.n == row_h.n)
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
    with eps(d) = ||d E (z0 I - X)^{-1}||.
    """
    x = as_matrix(x, square=True)
    e_mat = as_matrix(e_mat, square=True)
    if probes is None:
        probes = default_probes(x.shape[0])
    zs = contour.points()
    m_f = float(np.max(np.abs(np.asarray(f(zs), dtype=complex))))
    sup_ref = _sup_resolvent_norm(x, zs)
    sup_fam = 0.0
    mats = []
    for d in deltas:
        xd = x + float(d) * e_mat
        _screen(contour, np.linalg.eigvals(xd))
        mats.append(xd)
        sup_fam = max(sup_fam, _sup_resolvent_norm(xd, zs))
    c_f = contour.radius * m_f * sup_fam * sup_ref

    meas = _meas_contour(contour)
    g_ref = dunford(f, x, meas)
    r0 = resolvent(x, z0)
    floor = _MEAS_FLOOR * (1.0 + op_norm(g_ref))
    rows = []
    for d, xd in zip(deltas, mats):
        eps = op_norm(float(d) * e_mat @ r0)
        diff = dunford(f, xd, meas) - g_ref
        func_err = op_norm(diff)
        p_err = [float(np.linalg.norm(diff @ u)) for u in probes]
        bound = c_f * eps * (1.0 + _BOUND_SLACK) + floor
        rows.append(ReportRow(float(d), eps, eps, func_err, p_err, bound,
                              func_err <= bound))
    report = ConvergenceReport("perturbation", f.to_spec(), complex(z0), c_f, rows)
    report.level2_pass = all(r.level2_ok for r in rows)
    report.level1_pass = _level1_pass(
        [[row.probe_errors[i] for row in rows] for i in range(len(probes))])
    return report


def multivariate_experiment(models, f: AnalyticFunction, z0s, contours,
                            n_list, probes=None) -> ConvergenceReport:
    """r = 2 truncation study of f on the product of per-factor clusters.

    Error metric: || f_ox(X_1n, X_2n) - f_ox(X_1, X_2) || via the iterated
    contour integral restricted to the product cluster; bound
    C_f * (eps_1 + eps_2) with cluster-restricted per-factor eps.
    """
    r = len(models)
    if r != 2:
        raise PreconditionError("multivariate_experiment supports exactly 2 factors")
    n_list = [int(n) for n in n_list]
    refs = [m.matrix_ref for m in models]
    tensor_dim = refs[0].shape[0] * refs[1].shape[0]
    if probes is None:
        probes = default_probes(tensor_dim)

    meas = [_meas_contour(c) for c in contours]
    p_cs = [riesz_projector(refs[j], meas[j]) for j in range(r)]
    r0s = [resolvent(refs[j], z0s[j]) for j in range(r)]
    sys_ref = lift(refs)
    g_ref = dunford_multivariate(f, sys_ref, meas, require_full=False)
    c_f = error_constant_multi(f, models, contours, n_list)
    floor = _MEAS_FLOOR * (1.0 + op_norm(g_ref))

    rows = []
    for n in n_list:
        tps = [compress(models[j], n) for j in range(r)]
        eps_g, eps_c = 0.0, 0.0
        for j in range(r):
            eps_g += resolvent_error(models[j], tps[j], z0s[j])
            eps_c += op_norm((tps[j].x_n_padded - refs[j]) @ r0s[j] @ p_cs[j])
        sys_n = lift([tp.x_n_padded for tp in tps])
        g_n = dunford_multivariate(f, sys_n, meas, require_full=False)
        d = g_n - g_ref
        func_err = op_norm(d)
        p_err = [float(np.linalg.norm(d @ u)) for u in probes]
        bound = c_f * eps_c * (1.0 + _BOUND_SLACK) + floor
        rows.append(ReportRow(n, eps_g, eps_c, func_err, p_err, bound,
                              func_err <= bound))

    report = ConvergenceReport("+".join(m.kind for m in models), f.to_spec(),
                               complex(z0s[0]), c_f, rows)
    report.level1_pass = _level1_pass(
        [[row.probe_errors[i] for row in rows] for i in range(len(probes))])
    report.level2_pass = all(row.level2_ok for row in rows)
    return report


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
    if op_norm(k_mat) > 10.0 * max(op_norm(x), 1.0):
        raise PreconditionError("perturbation K is not modestly bounded next to X")
    eps_list = sorted((float(e) for e in eps_list), reverse=True)
    if not eps_list or eps_list[-1] <= 0:
        raise ConfigError("eps_list must contain positive values")
    if probes is None:
        probes = default_probes(x.shape[0])

    r0 = resolvent(x, z0)
    r_eps = [resolvent(x + e * k_mat, z0) for e in eps_list]
    sup_norm = max([op_norm(r) for r in r_eps] + [op_norm(r0)])

    rows = []
    for e, re_mat in zip(eps_list, r_eps):
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


def write_convergence_csv(path, report: ConvergenceReport) -> None:
    """Report table: one row per truncation point, fixed column layout."""
    k = len(report.rows[0].probe_errors) if report.rows else 0
    header = (["n", "eps_global", "eps_cluster", "func_error_norm"]
              + [f"probe_err_{i}" for i in range(k)]
              + ["c_f", "bound_rhs", "level2_ok"])
    with open(path, "w", newline="\n") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        for row in report.rows:
            w.writerow([repr(row.n), repr(row.eps_global), repr(row.eps_cluster),
                        repr(row.func_error_norm)]
                       + [repr(v) for v in row.probe_errors]
                       + [repr(report.c_f), repr(row.bound_rhs),
                          "true" if row.level2_ok else "false"])


def write_regularization_csv(path, report: RegularizationReport) -> None:
    k = len(report.rows[0].probe_errors) if report.rows else 0
    header = (["eps"] + [f"probe_err_{i}" for i in range(k)]
              + [f"probe_bound_{i}" for i in range(k)] + ["norm_error", "ok"])
    with open(path, "w", newline="\n") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        for row in report.rows:
            w.writerow([repr(row.eps)] + [repr(v) for v in row.probe_errors]
                       + [repr(v) for v in row.probe_bounds]
                       + [repr(row.norm_error), "true" if row.ok else "false"])
