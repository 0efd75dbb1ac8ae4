"""Spectral resolution into projector + nilpotent parts.

A matrix X is split as X = sum_k (lambda_k P_k + N_k) with one component per
*distinct* eigenvalue: P_k the spectral projector, taken from one complex
Schur form of X by reordering and Sylvester block-diagonalisation,
N_k = (X - lambda_k I) P_k the aggregated nilpotent part, and nu_k its
nilpotency index.  `riesz_projector` computes the same projector by a
trapezoidal contour integral of the resolvent; it stays as the independent
quadrature route.  Every contour quadrature of the package takes its
resolvents from `_resolvent_stacks`, which refuses a circle too close to the
spectrum (ContourTooCloseError) before it solves.

The one knob that decides everything here is `cluster_tol`: eigenvalues closer
than it (single linkage) are treated as one multiple eigenvalue.  Defective
spectra computed in floating point scatter like (eps_mach * cond)^(1/nu), so a
Jordan chain of index nu is only recovered when cluster_tol exceeds that
scatter; the default 1e-6 * ||X|| sees nu <= 2 structure of well-conditioned
problems and must be widened deliberately for deeper chains.
"""
from __future__ import annotations

import io
import itertools
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import blas, lapack

from .errors import (
    ClusterSeparationError,
    ConfigError,
    ContourTooCloseError,
    DecompositionError,
    PreconditionError,
)
from .linalg import (
    as_matrix,
    eig,
    eye_like,
    format_entries,
    op_norm,
    parse_entries,
    resolvent_at_nodes,
    schur,
)

DEFAULT_NODES = 128
DEFAULT_TOL_NIL = 1e-8
DEFAULT_TOL_DEC = 1e-8
# Eigenvalues may not sit closer to a quadrature circle than this fraction of
# its radius.
CIRCLE_GUARD = 0.05


@dataclass(frozen=True)
class Contour:
    """Circle |z - center| = radius sampled at `nodes` trapezoid points."""
    center: complex
    radius: float
    nodes: int = DEFAULT_NODES

    def __post_init__(self):
        if not np.isfinite(self.radius) or self.radius <= 0:
            raise ConfigError(f"contour radius must be positive, got {self.radius}")
        if self.nodes < 16:
            raise ConfigError(f"contour needs at least 16 nodes, got {self.nodes}")

    def points(self, nodes: int | None = None) -> np.ndarray:
        m = self.nodes if nodes is None else nodes
        th = 2.0 * np.pi * np.arange(m) / m
        return self.center + self.radius * np.exp(1j * th)

    def weights(self, nodes: int | None = None) -> np.ndarray:
        """Weights w_k with (1/2pi i) contour integral g dz ~= sum_k w_k g(z_k)."""
        m = self.nodes if nodes is None else nodes
        th = 2.0 * np.pi * np.arange(m) / m
        return self.radius * np.exp(1j * th) / m

    def encloses(self, values) -> np.ndarray:
        return np.abs(np.asarray(values, dtype=complex) - self.center) < self.radius

    def circle_distance(self, values) -> np.ndarray:
        """Distance of each value to the circle itself."""
        return np.abs(np.abs(np.asarray(values, dtype=complex) - self.center) - self.radius)


@dataclass
class SpectralComponent:
    eigenvalue: complex
    multiplicity: int
    projector: np.ndarray
    nilpotent: np.ndarray
    index: int  # nilpotency index nu: smallest power with N^nu ~= 0


@dataclass
class Decomposition:
    dim: int
    scale: float               # op_norm of the decomposed matrix
    cluster_tol: float
    tol_dec: float
    tol_nil: float
    components: list[SpectralComponent] = field(default_factory=list)
    # verify_decomposition's {invariant: (measured, bound)} from decompose;
    # empty for a decomposition read back from a pndec file
    report: dict[str, tuple[float, float]] = field(default_factory=dict)

    @property
    def eigenvalues(self) -> np.ndarray:
        return np.array([c.eigenvalue for c in self.components])


def cluster_eigenvalues(values, tol: float) -> list[tuple[complex, list[int]]]:
    """Single-linkage clusters of complex values at link distance `tol`.

    Returns (representative, member indices) pairs sorted by (Re, Im) of the
    representative; the representative is the arithmetic mean of the members.
    Distinct clusters are pairwise farther than `tol` apart by construction.
    """
    values = np.asarray(values, dtype=complex).ravel()
    n = values.size
    if n == 0:
        return []
    if tol < 0:
        raise ConfigError("cluster tolerance must be nonnegative")
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if abs(values[i] - values[j]) <= tol:
                parent[find(i)] = find(j)
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    out = [(complex(np.mean(values[idx])), idx) for idx in groups.values()]
    out.sort(key=lambda t: (t[0].real, t[0].imag))
    return out


def _resolvent_stacks(x, contour: Contour, node_counts=(None,), eigenvalues=None,
                      require_full: bool = False, label: str = "quadrature"):
    """[(nodes, weights, (zI - x)^{-1} stack)] per node count (None: the contour's).

    The spectrum (`eigenvalues`, computed when not supplied) is screened once,
    before any solve: trapezoid leakage grows as an eigenvalue nears the circle
    (Trefethen & Weideman 2014), so one within CIRCLE_GUARD * radius of it is
    refused, and with `require_full` so is one outside it.
    """
    x = as_matrix(x, square=True)
    if eigenvalues is None:
        eigenvalues = eig(x).eigenvalues
    dist = contour.circle_distance(eigenvalues)
    if dist.size and float(np.min(dist)) < CIRCLE_GUARD * contour.radius:
        raise ContourTooCloseError(
            f"{label}: eigenvalue within {CIRCLE_GUARD:.2f}*radius of the quadrature "
            f"circle (min distance {np.min(dist):.3e}, radius {contour.radius:.3e})")
    if require_full and not np.all(contour.encloses(eigenvalues)):
        raise PreconditionError(
            f"{label}: contour must enclose the whole spectrum (an eigenvalue lies outside)")
    out = []
    for m in node_counts:
        zs = contour.points(m)
        out.append((zs, contour.weights(m), resolvent_at_nodes(x, zs)))
    return out


def riesz_projector(x, contour: Contour, eigenvalues=None) -> np.ndarray:
    """Spectral projector (1/2pi i) of the resolvent around `contour`.

    Trapezoidal quadrature on the circle, spectrally accurate for the
    meromorphic integrand.  Precondition: no eigenvalue of x lies within
    CIRCLE_GUARD * radius of the circle (measured against `eigenvalues`,
    computed here when not supplied).
    """
    [(_, w, rs)] = _resolvent_stacks(x, contour, eigenvalues=eigenvalues,
                                     label="riesz_projector")
    return np.tensordot(w, rs, axes=1)


def nilpotent_part(x, projector, eigenvalue: complex) -> np.ndarray:
    """(X - lambda I) P: the nilpotent remainder on the component's range."""
    x = as_matrix(x, square=True)
    return (x - complex(eigenvalue) * eye_like(x.shape[0])) @ projector


def nilpotency_index(n_mat, scale: float, tol: float = DEFAULT_TOL_NIL) -> int:
    """Smallest nu >= 1 with op_norm(N^nu) <= tol * scale^nu, capped at dim.

    The Frobenius norm bounds op_norm from above, so a power that passes it
    passes op_norm too; the SVD is taken only when the Frobenius test fails.
    BLAS nrm2 scales as it sums, so tiny entries do not underflow to 0.
    """
    n_mat = as_matrix(n_mat, square=True)
    if scale <= 0:
        scale = 1.0
    dim = n_mat.shape[0]
    power = n_mat.copy()
    for nu in range(1, dim + 1):
        bound = tol * scale ** nu
        frobenius = blas.dznrm2(power.ravel())
        if frobenius <= bound or op_norm(power) <= bound:
            return nu
        power = power @ n_mat
    return dim


def _cluster_geometry(values, clusters, k):
    rep, members = clusters[k]
    spread = max((abs(values[i] - rep) for i in members), default=0.0)
    gap = np.inf
    for j, (_, other) in enumerate(clusters):
        if j == k:
            continue
        gap = min(gap, min(abs(values[i] - rep) for i in other))
    return rep, members, float(spread), float(gap)


def _schur_projector(t, q, select) -> np.ndarray:
    """Spectral projector of X = Q T Q^H onto the selected diag(T) entries.

    The selected eigenvalues are moved to the leading block (ztrsen), the
    Sylvester equation T11 R - R T22 = -T12 removes the coupling block
    (ztrsyl), and P = Q1 (Q1^H - R Q2^H) (Bavely & Stewart 1979).
    """
    ts, qs, _, m, _, _, _ = lapack.ztrsen(select, t, q, job="N")
    q1, q2 = qs[:, :m], qs[:, m:]
    w = q1.conj().T
    if m < t.shape[0]:
        r, s, info = lapack.ztrsyl(ts[:m, :m], ts[m:, m:], -ts[:m, m:], isgn=-1)
        if info:
            raise ClusterSeparationError(
                "Sylvester separation of a cluster is singular to working "
                "precision; its eigenvalues nearly coincide with another cluster")
        w = w - (r / s) @ q2.conj().T
    return q1 @ w


def decompose(x, cluster_tol: float | None = None, tol_dec: float = DEFAULT_TOL_DEC,
              tol_nil: float = DEFAULT_TOL_NIL) -> Decomposition:
    """Full projector-nilpotent resolution of a dense matrix.

    The eigenvalues diag(T) of one complex Schur form X = Q T Q^H are
    clustered at `cluster_tol` (default 1e-6 * ||X||); each cluster gets its
    projector from the Schur form (`_schur_projector`), a refined
    representative trace(X P)/m, and the aggregated nilpotent part.  All
    residual invariants are verified before returning; DecompositionError
    names the ones that failed, and the report is kept on the result.
    """
    x = as_matrix(x, square=True)
    dim = x.shape[0]
    scale = op_norm(x)
    if cluster_tol is None:
        cluster_tol = 1e-6 * max(scale, 1e-300)
    sf = schur(x)
    values = np.diag(sf.t)
    clusters = cluster_eigenvalues(values, cluster_tol)

    # separability precondition: clusters pairwise farther than 4 * cluster_tol
    for a in range(len(clusters)):
        for b in range(a + 1, len(clusters)):
            d = min(abs(values[i] - values[j])
                    for i in clusters[a][1] for j in clusters[b][1])
            if d <= 4.0 * cluster_tol:
                raise ClusterSeparationError(
                    f"clusters at {clusters[a][0]:.6g} and {clusters[b][0]:.6g} "
                    f"separated by {d:.3e} <= 4 * cluster_tol = {4 * cluster_tol:.3e}")

    comps = []
    for k in range(len(clusters)):
        rep, members, spread, gap = _cluster_geometry(values, clusters, k)
        if 3.0 * spread + cluster_tol > 0.45 * gap:
            raise ClusterSeparationError(
                f"cluster at {rep:.6g}: spread {spread:.3e} too large for gap {gap:.3e}")
        select = np.zeros(dim, dtype=np.int32)
        select[members] = 1
        p = _schur_projector(sf.t, sf.q, select)
        mult = len(members)
        lam = complex(np.trace(x @ p) / mult)
        n_mat = nilpotent_part(x, p, lam)
        nu = nilpotency_index(n_mat, scale, tol_nil)
        if nu > mult:
            raise DecompositionError(
                f"nilpotency index {nu} exceeds multiplicity {mult} at {lam:.6g}; "
                f"structure not resolved at tol_nil={tol_nil:g}")
        comps.append(SpectralComponent(lam, mult, p, n_mat, nu))

    comps.sort(key=lambda c: (c.eigenvalue.real, c.eigenvalue.imag))
    dec = Decomposition(dim, scale, float(cluster_tol), tol_dec, tol_nil, comps)

    dec.report = verify_decomposition(x, dec)
    failed = [name for name, (value, bound) in dec.report.items() if value > bound]
    if failed:
        detail = ", ".join(f"{n}={dec.report[n][0]:.3e}>{dec.report[n][1]:.3e}"
                           for n in failed)
        raise DecompositionError(f"decomposition residuals out of tolerance: {detail}")
    return dec


def verify_decomposition(x, dec: Decomposition) -> dict[str, tuple[float, float]]:
    """Residual report {invariant: (measured, bound)} for a decomposition.

    Invariants: multiplicities sum to dim; sum of projectors is the identity;
    each projector is idempotent; each nilpotent commutes with its projector
    and dies at its index; cross products of distinct projectors vanish; and
    sum(lambda P + N) reconstructs X.  Bounds scale with tol_dec.

    Reconstruction and resolution residuals are spectral norms; per-component
    and pairwise residuals use Frobenius norms (upper bounds on the spectral
    norm, so the checks are at least as strict) to stay vectorizable.
    """
    x = as_matrix(x, square=True)
    dim = x.shape[0]
    scale = max(dec.scale, 1e-300)
    tol = dec.tol_dec
    ident = eye_like(dim)

    recon = sum((c.eigenvalue * c.projector + c.nilpotent for c in dec.components),
                np.zeros_like(x))
    resol = sum((c.projector for c in dec.components), np.zeros_like(x))
    p_norms = [op_norm(c.projector) for c in dec.components]
    big_p = max(p_norms, default=1.0)

    def fro(stack):
        return np.sqrt(np.sum(np.abs(stack) ** 2, axis=(-2, -1)))

    ps = np.stack([c.projector for c in dec.components])
    ns = np.stack([c.nilpotent for c in dec.components])
    idem = float(np.max(fro(ps @ ps - ps)))
    comm = float(max(np.max(fro(ps @ ns - ns)), np.max(fro(ns @ ps - ns))))
    nilres = 0.0
    for c in dec.components:
        power = np.linalg.matrix_power(c.nilpotent, c.index)
        nilres = max(nilres, float(fro(power)) / scale ** c.index)
    cross = 0.0
    if len(dec.components) > 1:
        # the products must be formed explicitly: a trace/Gram shortcut for
        # ||P_i P_j||_F^2 cancels O(1) terms down to ~1e-31 and its roundoff
        # floor (~1e-15) would sit exactly at the tolerance being checked
        for i in range(len(dec.components)):
            norms = fro(ps[i] @ ps)
            norms[i] = 0.0
            cross = max(cross, float(np.max(norms)))

    mult_gap = abs(sum(c.multiplicity for c in dec.components) - dim)
    return {
        "multiplicity_sum": (float(mult_gap), 0.0),
        "reconstruction": (op_norm(recon - x) / scale, tol),
        "resolution": (op_norm(resol - ident), tol * max(1.0, big_p)),
        "idempotence": (idem, tol * max(1.0, big_p) ** 2),
        "projector_nilpotent_commute": (comm, tol * scale * max(1.0, big_p)),
        "nilpotency": (nilres, dec.tol_nil * max(1.0, big_p)),
        "cross_orthogonality": (cross, tol * max(1.0, big_p) ** 2),
    }


def write_decomposition(path, dec: Decomposition) -> None:
    """Serialize a decomposition as the `pndec v1` text record."""
    buf = io.StringIO()
    buf.write("pndec v1\n")
    buf.write(f"dim {dec.dim}\n")
    buf.write(f"scale {dec.scale!r}\n")
    buf.write(f"cluster_tol {dec.cluster_tol!r}\n")
    buf.write(f"tol_dec {dec.tol_dec!r}\n")
    buf.write(f"tol_nil {dec.tol_nil!r}\n")
    buf.write(f"components {len(dec.components)}\n")
    for c in dec.components:
        buf.write(f"eigenvalue {c.eigenvalue.real!r} {c.eigenvalue.imag!r}\n")
        buf.write(f"multiplicity {c.multiplicity}\n")
        buf.write(f"index {c.index}\n")
        for tag, m in (("projector", c.projector), ("nilpotent", c.nilpotent)):
            buf.write(f"{tag} {m.shape[0]} {m.shape[1]}\n")
            buf.write(format_entries(m))
    with open(path, "w", newline="\n") as fh:
        fh.write(buf.getvalue())


def read_decomposition(path) -> Decomposition:
    with open(path) as fh:
        lines = fh.read().splitlines()
    it = iter(lines)

    def expect(tag):
        line = next(it, "")
        parts = line.split()
        if not parts or parts[0] != tag:
            raise ConfigError(f"{path}: expected '{tag}' record, got {line!r}")
        return parts[1:]

    if next(it, "") != "pndec v1":
        raise ConfigError(f"{path}: not a pndec v1 file")
    dim = int(expect("dim")[0])
    scale = float(expect("scale")[0])
    cluster_tol = float(expect("cluster_tol")[0])
    tol_dec = float(expect("tol_dec")[0])
    tol_nil = float(expect("tol_nil")[0])
    count = int(expect("components")[0])
    comps = []
    for _ in range(count):
        re_s, im_s = expect("eigenvalue")
        lam = complex(float(re_s), float(im_s))
        mult = int(expect("multiplicity")[0])
        nu = int(expect("index")[0])
        mats = {}
        for tag in ("projector", "nilpotent"):
            r, c = (int(t) for t in expect(tag))
            tokens = " ".join(itertools.islice(it, r * c)).split()
            if len(tokens) != 2 * r * c:
                raise ConfigError(
                    f"{path}: expected {2 * r * c} numbers for a {r}x{c} {tag}, "
                    f"got {len(tokens)}")
            try:
                mats[tag] = parse_entries(tokens).reshape(r, c)
            except ValueError as exc:
                raise ConfigError(f"{path}: non-numeric {tag} entry") from exc
        comps.append(SpectralComponent(lam, mult, mats["projector"], mats["nilpotent"], nu))
    return Decomposition(dim, scale, cluster_tol, tol_dec, tol_nil, comps)
