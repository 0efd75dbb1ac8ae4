"""Spectral resolution into projector + nilpotent parts.

A matrix X is split as X = sum_k (lambda_k P_k + N_k) with one component per
*distinct* eigenvalue: P_k the spectral projector, taken from the one
certified factorization of X (`linalg.resolvent_at_nodes`), a complex Schur
form by reordering and Sylvester block-diagonalisation, or the eigh basis of
bitwise-Hermitian X (the spectral theorem), N_k = (X - lambda_k I) P_k the
aggregated nilpotent part, and nu_k its nilpotency index.  A component of
multiplicity m keeps n x m factors, with P_k = V W^H and N_k = M W^H;
decomposing, verifying and writing read only these, so a k = n
decomposition costs O(n^3) and writes 3 n^2 numbers.  `riesz_projector`
computes the same projector by a trapezoidal contour integral of the
resolvent; it stays as the independent quadrature route.  Every contour
quadrature of the package takes its resolvents from `_resolvent_stacks`,
which refuses a circle too close to the spectrum (ContourTooCloseError)
before any solve.  The quadrature starts from the same certified Schur form
X = Q T Q^H as the decomposition (the same object, or the same eigh) and
sums Q (sum_k c_k (z_k I - T)^{-1}) Q^H.  That keeps it a cross-check: the
form is backward stable and certified, and the quadrature takes none of the
decomposition's decisions (clustering, the `ztrsen` reordering, the
`ztrsyl` block-diagonalisation).

The one knob that decides everything here is `cluster_tol`: eigenvalues closer
than it (single linkage) are treated as one multiple eigenvalue.  Defective
spectra computed in floating point scatter like (eps_mach * cond)^(1/nu), so a
Jordan chain of index nu is only recovered when cluster_tol exceeds that
scatter; the default 1e-6 * ||X|| sees nu <= 2 structure of well-conditioned
problems and must be widened deliberately for deeper chains.
"""
from __future__ import annotations

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
    NodeResolvents,
    _norm_bounds,
    _write_parts,
    as_matrix,
    eig,  # not called here; perfbench/selftest.py reads spectra.eig
    eye_like,
    format_entries,
    op_norm,
    parse_entries,
    resolvent_at_nodes,
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
    """One spectral component, kept as n x m factors of its rank-m operators.

    P = V W^H and N = M W^H: V = Q1 holds orthonormal Schur vectors of the
    range of P, W^H = Q1^H - R Q2^H (Bavely & Stewart 1979), and
    M = (X - lambda I) V.  The package reads the factors; `projector` and
    `nilpotent` are built for callers on first read, cached and read-only.
    """
    eigenvalue: complex
    multiplicity: int
    index: int  # nilpotency index nu: smallest power with N^nu ~= 0
    v: np.ndarray
    w: np.ndarray
    m: np.ndarray

    @property
    def projector(self) -> np.ndarray:
        return self._dense("projector", self.v)

    @property
    def nilpotent(self) -> np.ndarray:
        return self._dense("nilpotent", self.m)

    def _dense(self, name: str, left: np.ndarray) -> np.ndarray:
        if name not in self.__dict__:
            dense = left @ self.w.conj().T
            dense.flags.writeable = False
            self.__dict__[name] = dense
        return self.__dict__[name]


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


def cluster_eigenvalues(values, tol: float, dist: np.ndarray | None = None
                        ) -> list[tuple[complex, list[int]]]:
    """Single-linkage clusters of complex values at link distance `tol`.

    Returns (representative, member indices) pairs sorted by (Re, Im) of the
    representative; the representative is the arithmetic mean of the members.
    Distinct clusters are pairwise farther than `tol` apart by construction.
    `dist` is the values' distance matrix (`_distances`) when the caller
    already has it.
    """
    values = np.asarray(values, dtype=complex).ravel()
    n = values.size
    if n == 0:
        return []
    if tol < 0:
        raise ConfigError("cluster tolerance must be nonnegative")
    if dist is None:
        dist = _distances(values, values)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    # every linked pair, both ways round and each value with itself
    for i, j in zip(*(ix.tolist() for ix in np.nonzero(dist <= tol))):
        parent[find(i)] = find(j)
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    # the mean of one value is the value + 0.0 (which turns -0.0 into 0.0)
    alone = (values + 0.0).tolist()
    out = [(alone[idx[0]] if len(idx) == 1 else complex(np.mean(values[idx])), idx)
           for idx in groups.values()]
    out.sort(key=lambda t: (t[0].real, t[0].imag))
    return out


def _distances(values, points) -> np.ndarray:
    """|values_i - points_j| for every pair; hypot gives the same floats as
    abs() of each complex difference."""
    d = values[:, None] - points[None, :]
    return np.hypot(d.real, d.imag)


def _resolvent_stacks(factored: NodeResolvents, contour: Contour, eigenvalues=None,
                      require_full: bool = False, label: str = "quadrature"):
    """(nodes, weights, resolvents) on the contour's nodes, from the same
    certified Schur form (or eigh) of a matrix that its decomposition reads,
    `factored` (`linalg.resolvent_at_nodes`); nothing is factored here.

    The spectrum is screened before any solve: trapezoid leakage grows as
    an eigenvalue nears the circle (Trefethen & Weideman 2014), so one
    within CIRCLE_GUARD * radius of it is refused, and with `require_full`
    so is one outside it.  The screen reads the factorization's spectrum,
    or `eigenvalues` (a truncation's, with its padding 0) when supplied.
    """
    zs = contour.points()
    if eigenvalues is None:
        eigenvalues = factored.eigenvalues
    dist = contour.circle_distance(eigenvalues)
    if dist.size and float(np.min(dist)) < CIRCLE_GUARD * contour.radius:
        raise ContourTooCloseError(
            f"{label}: eigenvalue within {CIRCLE_GUARD:.2f}*radius of the quadrature "
            f"circle (min distance {np.min(dist):.3e}, radius {contour.radius:.3e})")
    if require_full and not np.all(contour.encloses(eigenvalues)):
        raise PreconditionError(
            f"{label}: contour must enclose the whole spectrum (an eigenvalue lies outside)")
    return zs, contour.weights(), factored.at(zs)


def riesz_projector(x, contour: Contour) -> np.ndarray:
    """Spectral projector (1/2pi i) of the resolvent around `contour`.

    Trapezoidal quadrature on the circle, spectrally accurate for the
    meromorphic integrand.  Precondition: no eigenvalue of x lies within
    CIRCLE_GUARD * radius of the circle.
    """
    _, w, rs = _resolvent_stacks(resolvent_at_nodes(x, ()), contour,
                                 label="riesz_projector")
    return rs.contract([w])[0][0]


def _triangular_factors(blocks) -> list[np.ndarray]:
    """R of the thin QR A = Q R of each n x m block, one batched QR per width m."""
    out = [None] * len(blocks)
    for width in {b.shape[1] for b in blocks}:
        idx = [i for i, b in enumerate(blocks) if b.shape[1] == width]
        rs = np.linalg.qr(np.stack([blocks[i] for i in idx]), mode="r")
        for i, r in zip(idx, rs):
            out[i] = r
    return out


def _factored_index(r_m, c, r_w, scale: float, tol: float, cap: int) -> int:
    """Smallest nu >= 1 with op_norm(N^nu) <= tol * scale^nu, N = M W^H, capped at `cap`.

    N^q = M C^(q-1) W^H with C = W^H M.  With thin QRs M = Q_M R_M and
    W = Q_W R_W, both norms of N^q are those of the small core
    R_M C^(q-1) R_W^H.  A power that passes the certified upper bound of
    `_norm_bounds` passes op_norm too; the SVD is taken only when it fails.
    """
    if scale <= 0:
        scale = 1.0
    left, right = r_m, r_w.conj().T
    for nu in range(1, cap + 1):
        core = left @ right
        bound = tol * scale ** nu
        if _norm_bounds(core, lower=False)[1] <= bound or op_norm(core) <= bound:
            return nu
        left = left @ c
    return cap


def nilpotency_index(n_mat, scale: float, tol: float = DEFAULT_TOL_NIL) -> int:
    """Smallest nu >= 1 with op_norm(N^nu) <= tol * scale^nu, capped at dim."""
    n_mat = as_matrix(n_mat, square=True)
    dim = n_mat.shape[0]
    [r_n] = _triangular_factors([n_mat])
    return _factored_index(r_n, n_mat, eye_like(dim), scale, tol, dim)


def _cluster_labels(clusters, n: int) -> np.ndarray:
    """The cluster index of each of the n clustered values."""
    label = np.empty(n, dtype=int)
    label[[i for _, members in clusters for i in members]] = [
        k for k, (_, members) in enumerate(clusters) for _ in members]
    return label


def _check_separation(clusters, label, dist, tol: float) -> None:
    """Refuse clusters that are not pairwise farther than 4 * tol apart,
    naming the first such pair of clusters (a < b, in lexicographic order);
    `label` is `_cluster_labels` and `dist` the distance matrix of the values."""
    i, j = np.nonzero((dist <= 4.0 * tol) & (label[:, None] < label))
    if i.size:
        pair = label[i] * len(clusters) + label[j]
        first = pair == pair.min()
        a, b = divmod(int(pair.min()), len(clusters))
        raise ClusterSeparationError(
            f"clusters at {clusters[a][0]:.6g} and {clusters[b][0]:.6g} "
            f"separated by {dist[i[first], j[first]].min():.3e} <= 4 * cluster_tol = "
            f"{4 * tol:.3e}")


def _cluster_geometry(values, clusters, label) -> tuple[np.ndarray, np.ndarray]:
    """Per cluster, the spread max |lambda_i - rep| over its members and the
    gap min |lambda_i - rep| over the members of the other clusters."""
    own = label[:, None] == np.arange(len(clusters))
    to_rep = _distances(values, np.array([rep for rep, _ in clusters]))
    return (np.where(own, to_rep, 0.0).max(axis=0),
            np.where(own, np.inf, to_rep).min(axis=0))


def _schur_factors(factored: NodeResolvents, members) -> tuple[np.ndarray, np.ndarray]:
    """Factors V, W of the spectral projector P = V W^H of X = Q T Q^H onto
    the diag(T) entries `members`: V = W = Q[:, members] for diagonal T
    (eigh).  Otherwise they are moved to the leading block (ztrsen), the
    Sylvester equation T11 R - R T22 = -T12 removes the coupling block
    (ztrsyl), and V = Q1, W^H = Q1^H - R Q2^H (Bavely & Stewart 1979).
    """
    t, q = factored.t, factored.q
    if t.ndim == 1:
        return (np.ascontiguousarray(q[:, members]),) * 2
    select = np.zeros(len(t), dtype=np.int32)
    select[members] = 1
    ts, qs, _, m, _, _, _ = lapack.ztrsen(select, t, q, job="N")
    v = w = qs[:, :m]
    if m < t.shape[0]:
        r, s, info = lapack.ztrsyl(ts[:m, :m], ts[m:, m:], -ts[:m, m:], isgn=-1)
        if info:
            raise ClusterSeparationError(
                "Sylvester separation of a cluster is singular to working "
                "precision; its eigenvalues nearly coincide with another cluster")
        w = v - qs[:, m:] @ (r / s).conj().T
    return np.ascontiguousarray(v), np.ascontiguousarray(w)


def decompose(x, cluster_tol: float | None = None, tol_dec: float = DEFAULT_TOL_DEC,
              tol_nil: float = DEFAULT_TOL_NIL,
              factored: NodeResolvents | None = None) -> Decomposition:
    """Full projector-nilpotent resolution of a dense matrix.

    The eigenvalues diag(T) of x's certified factorization X = Q T Q^H
    (`factored`, taken here when the caller holds none) are clustered at
    `cluster_tol` (default 1e-6 * ||X||, from the same certificate); each
    cluster gets the factors V, W of its projector (`_schur_factors`), a
    refined representative trace(W^H X V)/m = trace(X P)/m (for eigh, the
    mean of its real eigenvalues), the factor M = (X - lambda I) V of its
    aggregated nilpotent part, and the index read from the m x m cores.
    All residual invariants are verified before returning;
    DecompositionError names the ones that failed, and the report is kept
    on the result.
    """
    x = as_matrix(x, square=True)
    dim = x.shape[0]
    if factored is None:
        factored = resolvent_at_nodes(x, ())
    scale = factored.scale
    if cluster_tol is None:
        cluster_tol = 1e-6 * max(scale, 1e-300)
    values = factored.eigenvalues
    hermitian = factored.t.ndim == 1
    dist = _distances(values, values)
    clusters = cluster_eigenvalues(values, cluster_tol, dist)
    label = _cluster_labels(clusters, dim)
    _check_separation(clusters, label, dist, cluster_tol)
    spreads, gaps = _cluster_geometry(values, clusters, label)
    factors = []
    for (rep, members), spread, gap in zip(clusters, spreads.tolist(), gaps.tolist()):
        if 3.0 * spread + cluster_tol > 0.45 * gap:
            raise ClusterSeparationError(
                f"cluster at {rep:.6g}: spread {spread:.3e} too large for gap {gap:.3e}")
        v, w = _schur_factors(factored, members)
        xv = x @ v
        lam = rep if hermitian else complex(np.vdot(w, xv) / len(members))
        factors.append((lam, v, w, xv - lam * v))

    comps = []
    rs = _triangular_factors([f[3] for f in factors] + [f[2] for f in factors])
    for (lam, v, w, m_fac), r_m, r_w in zip(factors, rs, rs[len(factors):]):
        mult = v.shape[1]
        nu = _factored_index(r_m, w.conj().T @ m_fac, r_w, scale, tol_nil, dim)
        if nu > mult:
            raise DecompositionError(
                f"nilpotency index {nu} exceeds multiplicity {mult} at {lam:.6g}; "
                f"structure not resolved at tol_nil={tol_nil:g}")
        comps.append(SpectralComponent(lam, mult, nu, v, w, m_fac))

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

    Every invariant is read from the stored factors, so a record read back
    from disk verifies to the same report.  Reconstruction and resolution
    are spectral norms of (sum_i (lambda_i V_i + M_i) W_i^H) - X and
    V W^H - I.  The other residuals are Frobenius norms (upper bounds on
    the spectral norm, so the checks are at least as strict) of products
    A B^H of n x m factors; with thin QRs A = Q_A R_A they equal the norms
    of the m x m cores R_A R_B^H.  With G = W^H V over all components,
    P_i P_j = V_i G_ij W_j^H, P_i^2 - P_i = V_i (G_ii - I) W_i^H,
    P_i N_i - N_i = (V_i C_i - M_i) W_i^H, N_i P_i - N_i = M_i (G_ii - I) W_i^H
    and N_i^q = M_i C_i^(q-1) W_i^H, with C_i = W_i^H M_i.
    """
    x = as_matrix(x, square=True)
    dim = x.shape[0]
    scale = max(dec.scale, 1e-300)
    tol = dec.tol_dec
    comps = dec.components

    def fro(a):
        return blas.dznrm2(a.ravel())

    v = np.hstack([c.v for c in comps])
    wh = np.hstack([c.w for c in comps]).conj().T
    lam_v_m = np.hstack([c.eigenvalue * c.v + c.m for c in comps])
    recon = op_norm(lam_v_m @ wh - x) / scale
    resol = op_norm(v @ wh - eye_like(dim))
    # G - I: the residuals below are formed from it directly, never from a
    # trace/Gram identity: a shortcut for ||P_i P_j||_F^2 cancels O(1) terms
    # down to ~1e-31 and its roundoff floor (~1e-15) would sit exactly at the
    # tolerance being checked
    g_minus_i = wh @ v - eye_like(v.shape[1])
    edges = np.cumsum([0] + [c.v.shape[1] for c in comps])

    k = len(comps)
    rs = _triangular_factors([c.v for c in comps] + [c.w for c in comps]
                             + [c.m for c in comps])
    # R_V (G - I) R_W^H, R_V and R_W block diagonal: block (i, j) is the core
    # of P_i P_j, and block (i, i) that of P_i^2 - P_i
    rv_diag, rw_diag = np.zeros_like(g_minus_i), np.zeros_like(g_minus_i)
    p_cores, comm, nilres = [], 0.0, 0.0
    for c, r_v, r_w, r_m, lo, hi in zip(comps, rs, rs[k:], rs[2 * k:], edges, edges[1:]):
        rv_diag[lo:hi, lo:hi] = r_v
        rw_diag[lo:hi, lo:hi] = r_w
        r_wh = r_w.conj().T
        core = c.w.conj().T @ c.m
        p_cores.append(r_v @ r_wh)
        comm = max(comm, fro((c.v @ core - c.m) @ r_wh),
                   fro(r_m @ g_minus_i[lo:hi, lo:hi] @ r_wh))
        power = r_m
        for _ in range(c.index - 1):
            power = power @ core
        nilres = max(nilres, fro(power @ r_wh) / scale ** c.index)
    # max_i ||P_i||_2 from one batched SVD per core size
    big_p = max((float(np.linalg.svd(np.stack([a for a in p_cores if len(a) == size]),
                                     compute_uv=False).max())
                 for size in {len(a) for a in p_cores}), default=1.0)

    h = rv_diag @ g_minus_i @ rw_diag.conj().T
    starts = edges[:-1]
    blocks = np.sqrt(np.add.reduceat(np.add.reduceat(np.abs(h) ** 2, starts, axis=0),
                                     starts, axis=1))
    idem = float(np.max(np.diag(blocks)))
    np.fill_diagonal(blocks, 0.0)
    cross = float(np.max(blocks))

    mult_gap = abs(sum(c.multiplicity for c in comps) - dim)
    return {
        "multiplicity_sum": (float(mult_gap), 0.0),
        "reconstruction": (recon, tol),
        "resolution": (resol, tol * max(1.0, big_p)),
        "idempotence": (idem, tol * max(1.0, big_p) ** 2),
        "projector_nilpotent_commute": (comm, tol * scale * max(1.0, big_p)),
        "nilpotency": (nilres, dec.tol_nil * max(1.0, big_p)),
        "cross_orthogonality": (cross, tol * max(1.0, big_p) ** 2),
    }


# the n x m factor blocks of a pndec v2 component, in file order
_PNDEC_BLOCKS = ("V", "W", "M")


def write_decomposition(path, dec: Decomposition, sha=None) -> None:
    """Serialize a decomposition as the `pndec v2` text record.

    The header, then per component its eigenvalue, multiplicity and index
    and the dim x multiplicity factor blocks V, W and M in cmat-style
    entries: 3 n^2 numbers in all.  The entries of all blocks are formatted
    in one `format_entries` call and cut at line ends.  The bytes are fed to
    the hashlib object `sha` as they are written, when one is given.
    """
    blocks = [m for c in dec.components for m in (c.v, c.w, c.m)]
    body = memoryview(format_entries(
        np.concatenate([np.ravel(m) for m in blocks] or [np.empty(0, complex)])))
    ends = np.flatnonzero(np.frombuffer(body, np.uint8) == ord("\n")) + 1
    cuts = [0] + ends[np.cumsum([m.size for m in blocks], dtype=int) - 1].tolist()
    texts = (body[a:b] for a, b in zip(cuts, cuts[1:]))
    parts = [(f"pndec v2\ndim {dec.dim}\nscale {dec.scale!r}\n"
              f"cluster_tol {dec.cluster_tol!r}\ntol_dec {dec.tol_dec!r}\n"
              f"tol_nil {dec.tol_nil!r}\ncomponents {len(dec.components)}\n").encode()]
    for c in dec.components:
        parts.append((f"eigenvalue {c.eigenvalue.real!r} {c.eigenvalue.imag!r}\n"
                      f"multiplicity {c.multiplicity}\nindex {c.index}\n").encode())
        for tag, m in zip(_PNDEC_BLOCKS, (c.v, c.w, c.m)):
            parts += [f"{tag} {m.shape[0]} {m.shape[1]}\n".encode(), next(texts)]
    _write_parts(path, parts, sha)


def read_decomposition(path) -> Decomposition:
    """Read a `pndec v2` record; inverse of write_decomposition, bitwise.

    Raises ConfigError on another version or a malformed record: a block
    that is not dim x multiplicity, an index outside 1..multiplicity,
    multiplicities that do not sum to dim, a short or non-numeric block.
    """
    with open(path) as fh:
        lines = fh.read().splitlines()
    it = iter(lines)

    def expect(tag):
        line = next(it, "")
        parts = line.split()
        if not parts or parts[0] != tag:
            raise ConfigError(f"{path}: expected '{tag}' record, got {line!r}")
        return parts[1:]

    header = next(it, "")
    if header != "pndec v2":
        raise ConfigError(f"{path}: expected a pndec v2 record, got {header!r}")
    dim = int(expect("dim")[0])
    scale = float(expect("scale")[0])
    cluster_tol = float(expect("cluster_tol")[0])
    tol_dec = float(expect("tol_dec")[0])
    tol_nil = float(expect("tol_nil")[0])
    count = int(expect("components")[0])
    comps = []
    for k in range(count):
        re_s, im_s = expect("eigenvalue")
        lam = complex(float(re_s), float(im_s))
        mult = int(expect("multiplicity")[0])
        nu = int(expect("index")[0])
        where = f"{path}: component {k + 1}"
        if not 1 <= nu <= mult:
            raise ConfigError(f"{where}: index {nu} outside 1..multiplicity {mult}")
        blocks = []
        for tag in _PNDEC_BLOCKS:
            r, c = (int(t) for t in expect(tag))
            if (r, c) != (dim, mult):
                raise ConfigError(f"{where}: {tag} block is {r}x{c}, expected "
                                  f"dim x multiplicity = {dim}x{mult}")
            tokens = " ".join(itertools.islice(it, r * c)).split()
            if len(tokens) != 2 * r * c:
                raise ConfigError(
                    f"{where}: expected {2 * r * c} numbers for a {r}x{c} {tag} "
                    f"block, got {len(tokens)}")
            try:
                blocks.append(parse_entries(tokens).reshape(r, c))
            except ValueError as exc:
                raise ConfigError(f"{where}: non-numeric {tag} entry") from exc
        comps.append(SpectralComponent(lam, mult, nu, *blocks))
    total = sum(c.multiplicity for c in comps)
    if total != dim:
        raise ConfigError(f"{path}: multiplicities sum to {total}, header dim is {dim}")
    return Decomposition(dim, scale, cluster_tol, tol_dec, tol_nil, comps)
