"""Dense complex linear algebra kernel: norms, resolvents, eigen and Schur data.

Everything downstream funnels through these few operations so that their
accuracy contracts are checked in exactly one place.  Matrices are plain
numpy arrays with dtype complex128; helpers here validate shape and
finiteness instead of wrapping arrays in a class.  Quadrature resolvents at
many nodes are kept as one factorization (`NodeResolvents`), not as a stack.
"""
from __future__ import annotations

import csv
import functools
import io
import itertools
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np
import scipy.linalg
from scipy.linalg import blas

from .errors import ConfigError, NearSingularError, ToleranceError

# Tensor-dimension cap of a lifted system (`calculus.lift`).
KRON_CAP = 4096

# Condition estimate above which a resolvent point counts as "on top of the
# spectrum" for practical purposes.
COND_LIMIT = 1e14

_RESIDUAL_TOL = 1e-12
_EIG_BACKWARD_TOL = 1e-10
_FACTOR_BACKWARD_TOL = 1e-10
# relative widening of the certified norm bounds: covers the rounding of nrm2,
# of the column norms and of op_norm's SVD (each a few n ulp, n <= KRON_CAP)
_BOUND_ALLOWANCE = 1e-10


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


def op_norm(a) -> float:
    """Operator norm (largest singular value)."""
    m = as_matrix(a)
    return float(np.linalg.svd(m, compute_uv=False)[0])


def _norm_bounds(a: np.ndarray, lower: bool = True) -> tuple[float, float]:
    """(lower, upper) bounds on op_norm(a) of a complex matrix, without an SVD.

    ||a||_2 <= ||a||_F, taken by BLAS nrm2, which scales as it sums, so tiny
    entries do not underflow to 0; ||a||_2 >= the largest column norm, taken
    on a scaled by its largest entry, so no square overflows.  Each bound is
    widened by _BOUND_ALLOWANCE, so it also brackets the rounded op_norm(a):
    a comparison that the bounds decide has the outcome that op_norm would
    give.  With lower=False the column pass is skipped and the lower bound
    is 0.0.
    """
    upper = float(blas.dznrm2(a.ravel())) * (1.0 + _BOUND_ALLOWANCE)
    if not lower:
        return 0.0, upper
    big = float(np.max(np.abs(a)))
    if big == 0.0:
        return 0.0, upper
    column = big * float(np.max(np.linalg.norm(a / big, axis=0)))
    return column * (1.0 - _BOUND_ALLOWANCE), upper


def resolvent(x, z: complex) -> np.ndarray:
    """(z I - x)^{-1} with a condition signal and a residual certificate.

    Raises NearSingularError when the condition estimate ||zI-x||*||R||
    exceeds COND_LIMIT.  The returned inverse satisfies
    ||(zI-x) R - I|| <= 1e-12 * (|z| + ||x||) * ||R||; one step of iterative
    refinement is applied if the direct solve misses that bound.
    """
    return _resolvent(x, z)[0]


def _resolvent(x, z: complex) -> tuple[np.ndarray, float]:
    """`resolvent(x, z)` and its op_norm.

    Both certificates are first tried with the certified bounds of
    `_norm_bounds`: ||zI-x||_F ||R|| <= COND_LIMIT, and
    ||(zI-x) R - I||_F <= 1e-12 (|z| + colmax(x)) ||R||.  When they pass,
    the exact tests below pass too, on the same R; otherwise the exact
    tests decide, with op_norm of every matrix.
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
    residual = a @ r - ident
    if (_norm_bounds(a, lower=False)[1] * norm_r <= COND_LIMIT
            and _norm_bounds(residual, lower=False)[1]
            <= _RESIDUAL_TOL * (abs(z) + _norm_bounds(x)[0]) * norm_r):
        return r, norm_r
    if op_norm(a) * norm_r > COND_LIMIT:
        raise NearSingularError(
            f"resolvent at z={z} is near-singular (condition estimate above {COND_LIMIT:g})")
    bound = _RESIDUAL_TOL * (abs(z) + op_norm(x)) * norm_r
    if op_norm(residual) > bound:
        r = r + np.linalg.solve(a, ident - a @ r)
        residual = op_norm(a @ r - ident)
        if residual > bound:
            raise ToleranceError(
                f"resolvent residual {residual:.3e} exceeds certificate {bound:.3e}")
        norm_r = op_norm(r)
    return r, norm_r


def resolvent_at_nodes(x: np.ndarray, zs: np.ndarray) -> NodeResolvents:
    """The resolvents (zI - x)^{-1} for all z in `zs`, from one factorization.

    This is the one factorization the package takes of a matrix: its
    spectrum, its ||x||, its decomposition and every quadrature of x start
    from this same certified Schur form X = Q T Q^H, or from a certified
    `eigh` when x is bitwise Hermitian; either backward error is at most
    1e-10 ||x|| (ToleranceError otherwise).  Quadrature fast path:
    callers are expected to have screened the nodes against the spectrum
    already (contour guard band), so no per-node condition certificate is
    computed here.
    """
    x = as_matrix(x, square=True)
    zs = np.asarray(zs, dtype=complex).ravel()
    if np.array_equal(x, x.conj().T):
        lam, q = np.linalg.eigh(x)
        return NodeResolvents(zs, q, lam, _certify("eigh", x, x @ q - q * lam))
    t, q = scipy.linalg.schur(x, output="complex")
    return NodeResolvents(zs, q, t, _certify("Schur decomposition", x, x @ q - q @ t))


# bytes of resolvents a contraction holds at a time, in the factorization's
# basis: 16 nodes at n = 128
_CHUNK_BYTES = 1 << 22


@dataclass(frozen=True, eq=False)
class NodeResolvents:
    """(z_k I - X)^{-1} at the nodes z_k, kept as X = Q T Q^H with Q unitary.

    `t` is the upper triangular Schur factor, or for Hermitian X the vector
    of eigenvalues (T diagonal).  Then (z I - X)^{-1} = Q (z I - T)^{-1} Q^H,
    so a sum over nodes is summed in the basis of Q and transformed back
    once, and ||(z I - X)^{-1}||_2 = ||(z I - T)^{-1}||_2, which is
    max_i 1/|z - lambda_i| when T is diagonal.  Each node's (z I - T)^{-1}
    is computed the same way whatever other nodes are solved with it, so a
    node's resolvent and its norm have the same bits in every call.
    `scale` is ||X||_2, taken once by the factorization's certificate.
    """
    zs: np.ndarray
    q: np.ndarray
    t: np.ndarray
    scale: float

    @property
    def eigenvalues(self) -> np.ndarray:
        """The spectrum of X as complex numbers: diag(T), or the eigh values."""
        return np.asarray(self.t if self.t.ndim == 1 else np.diag(self.t), dtype=complex)

    def at(self, zs) -> NodeResolvents:
        """The resolvents of the same factorization at other nodes."""
        return replace(self, zs=np.asarray(zs, dtype=complex).ravel())

    def _inverses(self, zs: np.ndarray) -> np.ndarray:
        """(z I - T)^{-1} for z in `zs`: (nodes, n) diagonals or (nodes, n, n)."""
        if self.t.ndim == 1:
            return 1.0 / (zs[:, None] - self.t[None, :])
        out = np.zeros((zs.size,) + self.t.shape, dtype=complex)
        _fill_triangular_inverses(out, zs, self.t)
        return out

    def contract(self, rows, stride: int = 0) -> tuple[list[np.ndarray], float]:
        """[sum_k c_k (z_k I - X)^{-1} for each coefficient row c in `rows`],
        and max ||(z_k I - X)^{-1}||_2 over every `stride`-th node (0.0 for
        stride 0), in one pass over chunks of nodes."""
        rows = [np.asarray(c, dtype=complex) for c in rows]
        sums = [np.zeros(self.t.size, dtype=complex) for _ in rows]
        chunk = max(1, _CHUNK_BYTES // (16 * self.t.size))
        sup = 0.0
        for start in range(0, self.zs.size, chunk):
            sup = self._add_chunk(sums, rows, start, start + chunk, stride, sup)
        return [self._back(acc) for acc in sums], sup

    def _add_chunk(self, sums, rows, start: int, stop: int, stride: int,
                   sup: float) -> float:
        """Add each row's share of nodes start..stop-1 to its sum; return the
        larger of `sup` and the largest norm at a node whose index is a
        multiple of `stride` (`sup` for none or stride 0).  The chunk's
        inverses are freed on return, before the next chunk is built."""
        inv = self._inverses(self.zs[start:stop])
        flat = inv.reshape(inv.shape[0], -1)
        # one product per row: a product of all rows at once gives a row
        # other bits depending on how many rows share it
        for acc, c in zip(sums, rows):
            acc += c[start:stop] @ flat
        if not stride:
            return sup
        return _max_norm(inv[-start % stride::stride], sup)

    def sup(self, stride: int = 1) -> float:
        """max ||(z_k I - X)^{-1}||_2 over every `stride`-th node."""
        return self.contract([], stride)[1]

    def dense(self) -> np.ndarray:
        """The (nodes, n, n) stack of resolvents."""
        inv = self._inverses(self.zs)
        if self.t.ndim == 1:
            return (self.q[None, :, :] * inv[:, None, :]) @ self.q.conj().T
        return self.q @ inv @ self.q.conj().T

    def _back(self, s: np.ndarray) -> np.ndarray:
        """Q S Q^H of a flat matrix S in the basis of Q (its diagonal for
        diagonal T)."""
        if self.t.ndim == 1:
            return (self.q * s) @ self.q.conj().T
        return self.q @ s.reshape(self.t.shape) @ self.q.conj().T


def _max_norm(inv: np.ndarray, sup: float = 0.0) -> float:
    """The larger of `sup` and the largest 2-norm of the (nodes, n) diagonals
    or (nodes, n, n) matrices.

    Matrices are visited by decreasing certified upper bound (`_norm_bounds`),
    and an SVD is taken only of a matrix whose bound exceeds the running
    maximum: the first that does not ends the visit.  The maximum is the SVD
    value of the same matrix, bit for bit what a batched SVD of the whole
    stack gives.
    """
    if inv.ndim == 2:
        return max(sup, float(np.max(np.abs(inv), initial=0.0)))
    uppers = [_norm_bounds(m, lower=False)[1] for m in inv]
    for i in np.argsort(uppers)[::-1]:
        if uppers[i] <= sup:
            break
        sup = max(sup, float(np.linalg.norm(inv[i], 2)))
    return sup


def _fill_triangular_inverses(out: np.ndarray, zs: np.ndarray, t: np.ndarray) -> None:
    """out[k] = (zs[k] I - t)^{-1} for upper triangular t, batched over nodes.

    Block recursion on t = [[A, B], [0, D]]: the inverse of zI - t is
    [[a, a B d], [0, d]] with a = (zI - A)^{-1} and d = (zI - D)^{-1}, since
    only the diagonal depends on z.  Every product is a per-node matmul.
    """
    n = t.shape[0]
    if n == 1:
        out[:, 0, 0] = 1.0 / (zs - t[0, 0])
        return
    h = n // 2
    _fill_triangular_inverses(out[:, :h, :h], zs, t[:h, :h])
    _fill_triangular_inverses(out[:, h:, h:], zs, t[h:, h:])
    np.matmul(out[:, :h, :h] @ t[:h, h:], out[:, h:, h:], out=out[:, :h, h:])


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


def _certify(name: str, x: np.ndarray, residual: np.ndarray) -> float:
    """||x||_2, once the backward error ||residual||_F / ||x|| of a
    factorization of x is checked to be at most 1e-10."""
    scale = op_norm(x)
    err = float(np.linalg.norm(residual)) / scale if scale else 0.0
    if err > _FACTOR_BACKWARD_TOL:
        raise ToleranceError(f"{name} backward error {err:.3e} above 1e-10")
    return scale


# ---------------------------------------------------------------- cmat text
#
# A cmat entry is the line "%.16e %.16e\n" of its real and imaginary part:
# 17 significant digits, correctly rounded.  `format_entries` prints them
# with a vectorised kernel that is certified against that format, in the
# style of Ryu (Adams, PLDI 2018), and hands every number it cannot certify
# to Python's own "%.16e".  For |x| in the window [1e-270, 1e280] it takes
# k = floor(log10 |x|) and forms y = |x| 10^(16-k) as p + s: 10^(16-k) is a
# double-double (hi, lo) within 2^-106 of the exact power, p + e = |x| hi
# exactly (Dekker's TwoProduct) and s = fl(e + fl(|x| lo)).  For y below
# 1.1e17, |e| <= 8 and |x lo| < 13, so the error |y - (p + s)| is at most
# 2^-106 y (the table) + 2^-50 (|x| lo) + 2^-49 (s, |s| < 32) < 5e-15; p is
# an integer (p >= 2^53), so the digits are the int64
# N = p + floor(s) + [frac(s) > 1/2].  N is kept only when frac(s) is more
# than _TIE_MARGIN (20000 times that bound) away from 1/2, the unrounded
# p + floor(s) lies in [10^16, 10^17) (so a k that log10 rounded one too high
# or low is caught before rounding) and N < 10^17.  Zeros print from their
# sign bit.  Ties, decade edges, subnormals, values near overflow, inf and
# nan go to the fallback.  Each number fills a 32-byte row of four
# little-endian words, [pad x5, sign, d0, '.'], d1..d8, d9..d16 and
# ['e', sign, exponent, separator, pad], the 8-digit words packed by SWAR
# (one division step per halving of the lane width); the pad bytes are 0
# and one boolean pass drops them.

_FAST_MIN, _FAST_MAX = 1e-270, 1e280
# floor(log10 |x|) over the window, one either side for a misrounded log10
_K_MIN, _K_MAX = -271, 281
_TIE_MARGIN = 1e-10
_SPLITTER = float(2 ** 27 + 1)
# entries per kernel chunk: its temporaries stay near 0.5 MB; 4096 entries
# format a 576 x 576 matrix a few percent faster but raise the peak RSS of a
# decompose run
_CHUNK_ENTRIES = 1 << 11


def _split(x):
    """Dekker's split x = head + tail into two 26-bit halves."""
    c = _SPLITTER * x
    head = c - (c - x)
    return head, x - head


def _word(text: bytes) -> int:
    """The little-endian uint64 holding an 8-byte row word."""
    return int.from_bytes(text.ljust(8, b"\0"), "little")


@functools.cache
def _tables():
    """Per-k (hi, lo, Dekker split of hi) of 10^(16-k), and the word tables.

    The powers come from exact fractions, hi = fl(10^(16-k)) and
    lo = fl(10^(16-k) - hi).  `lead[10 * negative + d0]` is the first row
    word, `exponent[k - _K_MIN]` the last one without its separator.
    """
    powers = [Fraction(10) ** (16 - k) for k in range(_K_MIN, _K_MAX + 1)]
    hi = np.array([float(p) for p in powers])
    lo = np.array([float(p - Fraction(h)) for p, h in zip(powers, hi.tolist())])
    lead = np.array([_word(b"\0" * 5 + sign + b"%d." % d)
                     for sign in (b"\0", b"-") for d in range(10)], dtype="<u8")
    exponent = []
    for k in range(_K_MIN, _K_MAX + 1):
        text = b"e%+04d" % k
        if abs(k) < 100:  # the hundreds digit becomes a pad byte
            text = text[:2] + b"\0" + text[3:]
        exponent.append(_word(text))
    return (hi, lo, *_split(hi)), lead, np.array(exponent, dtype="<u8")


def _ascii8(v):
    """uint64 words holding the 8 ASCII digits of each v < 10^8, first digit
    in the lowest byte: lanes of 32, 16 and 8 bits each split their value in
    two, by multiply-shift divisions that are exact below 10^4 and 10^2."""
    top = v // 10000
    w = top | ((v - top * 10000) << 32)
    top = ((w * 10486) >> 20) & 0x0000007F0000007F
    w = top | ((w - top * 100) << 16)
    top = ((w * 103) >> 10) & 0x000F000F000F000F
    w = top | ((w - top * 10) << 8)
    return w + 0x3030303030303030  # '0' in every byte


def _digits(v: np.ndarray):
    """(fast, k - _K_MIN, N) per float of `v`: `fast` marks the numbers whose
    17 digits N and exponent k are certified; N = 0 and k = 0 elsewhere."""
    hi, lo, head, tail = _tables()[0]
    a = np.abs(v)
    fast = (a >= _FAST_MIN) & (a <= _FAST_MAX)
    a = np.where(fast, a, 1.0)
    k = np.floor(np.log10(a)).astype(np.int64) - _K_MIN
    hi, lo, head, tail = hi[k], lo[k], head[k], tail[k]
    p = a * hi
    a_head, a_tail = _split(a)
    e = ((a_head * head - p) + a_head * tail + a_tail * head) + a_tail * tail
    s = e + a * lo
    whole = np.floor(s)
    frac = s - whole
    floor_n = p.astype(np.int64) + whole.astype(np.int64)
    n = floor_n + (frac > 0.5)
    fast &= (np.abs(frac - 0.5) > _TIE_MARGIN) & (floor_n >= 10 ** 16) & (n < 10 ** 17)
    # a number outside the window was scaled as 1.0 (k = 0): a zero prints
    # as its sign, N = 0 and "e+00"
    return fast, k, np.where(fast, n, 0)


def _format_floats(v: np.ndarray) -> np.ndarray:
    """ASCII "%.16e" of each float of `v` (even length), followed by a space
    at even and a newline at odd positions, as a flat uint8 array."""
    _, lead, exponent = _tables()
    # the float temporaries of the scaling are freed before the rows exist
    fast, k, n = _digits(v)
    d0 = n // 10 ** 16
    rest = n - d0 * 10 ** 16
    upper = rest // 10 ** 8
    rows = np.empty((v.size, 4), dtype="<u8")
    rows[:, 0] = lead[d0 + 10 * np.signbit(v)]
    rows[:, 1] = _ascii8(upper.view(np.uint64))
    rows[:, 2] = _ascii8((rest - upper * 10 ** 8).view(np.uint64))
    rows[:, 3] = exponent[k]
    rows[0::2, 3] |= ord(" ") << 40
    rows[1::2, 3] |= ord("\n") << 40

    text = rows.view(np.uint8).reshape(v.size, 32)
    for i in np.flatnonzero(~fast & (v != 0.0)).tolist():
        entry = b"%.16e" % float(v[i]) + (b"\n" if i % 2 else b" ")
        text[i] = 0
        text[i, :len(entry)] = np.frombuffer(entry, np.uint8)
    text = text.ravel()
    return text[text != 0]


_ZERO_ENTRY = b"0.0000000000000000e+00 0.0000000000000000e+00\n"


@functools.cache
def _zero_text() -> memoryview:
    """The text of a chunk of _CHUNK_ENTRIES entries equal to +0.0."""
    return memoryview(_ZERO_ENTRY * _CHUNK_ENTRIES)


def _entry_chunks(m):
    """The cmat entry body of `m`, row major, one bytes-like ASCII text per
    chunk.  A chunk whose words are all 0 (every part +0.0) is a slice of
    one cached text; -0.0 goes through the kernel."""
    flat = np.ascontiguousarray(m, dtype=complex).view(float).ravel()
    step = 2 * _CHUNK_ENTRIES
    for start in range(0, flat.size, step):
        chunk = flat[start:start + step]
        if chunk.view(np.uint64).any():
            yield _format_floats(chunk)
        else:
            yield _zero_text()[:len(_ZERO_ENTRY) * (chunk.size // 2)]


def format_entries(m: np.ndarray) -> bytes:
    """Row-major `re im` lines of a complex array, the cmat entry body.

    ASCII bytes equal to "%.16e %.16e\n" per entry.
    """
    return b"".join(_entry_chunks(m))


def parse_entries(tokens) -> np.ndarray:
    """Flat complex array from alternating `re im` number tokens.

    Raises ValueError on a non-numeric token; callers map it to ConfigError.
    """
    return np.array(tokens, dtype=float).view(complex)


def _write_parts(path, parts, sha=None) -> None:
    """Write the bytes-like `parts` to `path` in order, feeding each to the
    hashlib object `sha` too when one is given."""
    with open(path, "wb") as fh:
        for part in parts:
            fh.write(part)
            if sha is not None:
                sha.update(part)


def _write_csv(path, rows, sha=None) -> None:
    """Write `rows` (header first) as CSV with "\n" line ends, through
    `_write_parts`."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    _write_parts(path, [buf.getvalue().encode()], sha)


def write_cmat(path, m, sha=None) -> None:
    """Write a matrix in the cmat v1 text format.

    Line one is `rows cols`; then rows*cols lines of `re im` in scientific
    notation with 17 significant digits, row major.  The bytes are fed to
    the hashlib object `sha` as they are written, when one is given.
    """
    m = as_matrix(m)
    _write_parts(path, itertools.chain([b"%d %d\n" % m.shape], _entry_chunks(m)), sha)


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
