"""Dense complex linear algebra kernel: kron, norms, resolvents, eigen and Schur data.

Everything downstream funnels through these few operations so that their
accuracy contracts are checked in exactly one place.  Matrices are plain
numpy arrays with dtype complex128; helpers here validate shape and
finiteness instead of wrapping arrays in a class.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import ConfigError, DimensionCapError, NearSingularError, ToleranceError

# Product-dimension guard for every Kronecker assembly in the package.
KRON_CAP = 4096

# Condition estimate above which a resolvent point counts as "on top of the
# spectrum" for practical purposes.
COND_LIMIT = 1e14

_RESIDUAL_TOL = 1e-12
_EIG_BACKWARD_TOL = 1e-10
_SCHUR_BACKWARD_TOL = 1e-10


def as_matrix(a, square: bool = False) -> np.ndarray:
    """Validate and return `a` as a 2-D complex128 array with finite entries."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] == 0 or m.shape[1] == 0:
        raise ConfigError(f"expected a nonempty 2-D matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ConfigError("matrix has non-finite entries")
    if square and m.shape[0] != m.shape[1]:
        raise ConfigError(f"expected a square matrix, got shape {m.shape}")
    return m


def eye_like(n: int) -> np.ndarray:
    return np.eye(n, dtype=complex)


def kron(a, b, cap: int = KRON_CAP) -> np.ndarray:
    """Kronecker product with a product-dimension guard.

    Raises DimensionCapError when rows(a)*rows(b) or cols(a)*cols(b) would
    exceed `cap`; this is the single switch that keeps every tensor assembly
    at desk scale.
    """
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape[0] * b.shape[0] > cap or a.shape[1] * b.shape[1] > cap:
        raise DimensionCapError(
            f"kron of {a.shape} and {b.shape} exceeds the dimension cap {cap}")
    return np.kron(a, b)


def op_norm(a) -> float:
    """Operator norm (largest singular value)."""
    m = as_matrix(a)
    return float(np.linalg.norm(m, 2))


def resolvent(x, z: complex, cond_limit: float = COND_LIMIT) -> np.ndarray:
    """(z I - x)^{-1} with a condition signal and a residual certificate.

    Raises NearSingularError when the condition estimate ||zI-x||*||R||
    exceeds `cond_limit`.  The returned inverse satisfies
    ||(zI-x) R - I|| <= 1e-12 * (|z| + ||x||) * ||R||; one step of iterative
    refinement is applied if the direct solve misses that bound.
    """
    x = as_matrix(x, square=True)
    n = x.shape[0]
    a = complex(z) * eye_like(n) - x
    ident = eye_like(n)
    try:
        r = np.linalg.solve(a, ident)
    except np.linalg.LinAlgError as exc:
        raise NearSingularError(f"resolvent point z={z} is in the spectrum") from exc
    norm_r = op_norm(r)
    if op_norm(a) * norm_r > cond_limit:
        raise NearSingularError(
            f"resolvent at z={z} is near-singular (condition estimate above {cond_limit:g})")
    bound = _RESIDUAL_TOL * (abs(z) + op_norm(x)) * norm_r
    residual = op_norm(a @ r - ident)
    if residual > bound:
        r = r + np.linalg.solve(a, ident - a @ r)
        residual = op_norm(a @ r - ident)
        if residual > bound:
            raise ToleranceError(
                f"resolvent residual {residual:.3e} exceeds certificate {bound:.3e}")
    return r


def resolvent_at_nodes(x: np.ndarray, zs: np.ndarray) -> np.ndarray:
    """Stack of resolvents (zI - x)^{-1} for all z in `zs`, one batched solve.

    Quadrature fast path: callers are expected to have screened the nodes
    against the spectrum already (contour guard band), so no per-node
    condition certificate is computed here.
    """
    x = as_matrix(x, square=True)
    n = x.shape[0]
    zs = np.asarray(zs, dtype=complex).ravel()
    a = zs[:, None, None] * eye_like(n) - x[None, :, :]
    b = np.broadcast_to(eye_like(n), (zs.size, n, n))
    return np.linalg.solve(a, b)


@dataclass
class EigenResult:
    """Eigendecomposition with its measured backward error.

    eigenvalues[k] pairs with eigenvectors[:, k]; backward_error is
    max_k ||X v_k - lambda_k v_k|| / (||X|| ||v_k||).
    """
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    backward_error: float


def eig(x) -> EigenResult:
    """Dense eigendecomposition with a backward-error certificate (1e-10)."""
    x = as_matrix(x, square=True)
    w, v = np.linalg.eig(x)
    scale = op_norm(x)
    if scale == 0.0:
        return EigenResult(w, v, 0.0)
    res = x @ v - v * w[None, :]
    col = np.linalg.norm(res, axis=0) / (scale * np.linalg.norm(v, axis=0))
    err = float(np.max(col))
    if err > _EIG_BACKWARD_TOL:
        raise ToleranceError(f"eigendecomposition backward error {err:.3e} above 1e-10")
    return EigenResult(w, v, err)


@dataclass
class SchurResult:
    """Complex Schur form X = Q T Q^H with its measured backward error.

    t is upper triangular with the eigenvalues on its diagonal, q unitary;
    backward_error is ||X Q - Q T||_F / ||X||.
    """
    t: np.ndarray
    q: np.ndarray
    backward_error: float


def schur(x) -> SchurResult:
    """Complex Schur decomposition with a backward-error certificate (1e-10)."""
    x = as_matrix(x, square=True)
    t, q = scipy.linalg.schur(x, output="complex")
    scale = op_norm(x)
    if scale == 0.0:
        return SchurResult(t, q, 0.0)
    err = float(np.linalg.norm(x @ q - q @ t)) / scale
    if err > _SCHUR_BACKWARD_TOL:
        raise ToleranceError(f"Schur decomposition backward error {err:.3e} above 1e-10")
    return SchurResult(t, q, err)


# one cmat entry: real and imaginary part with 17 significant digits
_ENTRY_FORMAT = "%.16e %.16e\n"


def format_entries(m: np.ndarray) -> str:
    """Row-major `re im` lines of a complex matrix, the cmat entry body."""
    m = np.ascontiguousarray(m, dtype=complex)
    return _ENTRY_FORMAT * m.size % tuple(m.view(float).ravel().tolist())


def parse_entries(tokens) -> np.ndarray:
    """Flat complex array from alternating `re im` number tokens.

    Raises ValueError on a non-numeric token; callers map it to ConfigError.
    """
    return np.array(tokens, dtype=float).view(complex)


def write_cmat(path, m) -> None:
    """Write a matrix in the cmat v1 text format.

    Line one is `rows cols`; then rows*cols lines of `re im` in scientific
    notation with 17 significant digits, row major.
    """
    m = as_matrix(m)
    with open(path, "w", newline="\n") as fh:
        fh.write(f"{m.shape[0]} {m.shape[1]}\n" + format_entries(m))


def read_cmat(path) -> np.ndarray:
    """Read a cmat v1 file; inverse of write_cmat up to the last ulp."""
    with open(path) as fh:
        tokens = fh.read().split()
    if len(tokens) < 2:
        raise ConfigError(f"{path}: truncated cmat header")
    try:
        rows, cols = int(tokens[0]), int(tokens[1])
    except ValueError as exc:
        raise ConfigError(f"{path}: bad cmat header") from exc
    body = tokens[2:]
    if rows <= 0 or cols <= 0 or len(body) != 2 * rows * cols:
        raise ConfigError(
            f"{path}: expected {2 * rows * cols} numbers for a {rows}x{cols} cmat, "
            f"got {len(body)}")
    try:
        m = parse_entries(body)
    except ValueError as exc:
        raise ConfigError(f"{path}: non-numeric cmat entry") from exc
    return m.reshape(rows, cols)
