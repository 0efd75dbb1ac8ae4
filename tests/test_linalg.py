import dataclasses
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pncalc import approx, calculus, linalg, spectra, synth
from pncalc.errors import (
    ConfigError,
    NearSingularError,
    ToleranceError,
)


def _rng(seed=0):
    return np.random.default_rng(seed)


def _random_complex(rng, n, m=None):
    m = n if m is None else m
    return rng.normal(size=(n, m)) + 1j * rng.normal(size=(n, m))


def test_op_norm_on_known_matrices():
    assert linalg.op_norm(np.zeros((3, 3), dtype=complex)) == 0.0
    assert abs(linalg.op_norm(2.0 * np.eye(5, dtype=complex)) - 2.0) < 1e-14
    # rank-1: norm = |u| |v|
    u = np.array([3.0, 4.0])
    m = np.outer(u, u).astype(complex)
    assert abs(linalg.op_norm(m) - 25.0) < 1e-12


@pytest.mark.parametrize("n", [4, 36, 64])
def test_op_norm_is_the_largest_singular_value_bitwise(n):
    m = _random_complex(_rng(n), n)
    assert linalg.op_norm(m) == float(np.linalg.norm(m, 2))


def test_resolvent_identity():
    rng = _rng(2)
    x = _random_complex(rng, 6)
    z = 4.0 + 1.0j
    r = linalg.resolvent(x, z)
    res = (z * np.eye(6) - x) @ r - np.eye(6)
    assert np.linalg.norm(res, 2) <= 1e-12 * (abs(z) + linalg.op_norm(x)) * linalg.op_norm(r)


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 6), st.integers(0, 2 ** 31 - 1))
def test_resolvent_first_identity_property(n, seed):
    # R(z) - R(w) = (w - z) R(z) R(w)
    rng = _rng(seed)
    x = _random_complex(rng, n)
    scale = linalg.op_norm(x)
    z, w = scale + 2.0 + 1.5j, scale + 3.0 - 0.5j
    rz, rw = linalg.resolvent(x, z), linalg.resolvent(x, w)
    lhs = rz - rw
    rhs = (w - z) * rz @ rw
    assert np.linalg.norm(lhs - rhs, 2) <= 1e-10 * max(1.0, np.linalg.norm(lhs, 2))


def test_resolvent_near_spectrum_raises():
    x = np.diag([1.0, 2.0]).astype(complex)
    with pytest.raises(NearSingularError):
        linalg.resolvent(x, 1.0 + 1e-16j)


def test_eig_backward_error():
    rng = _rng(3)
    x = _random_complex(rng, 8)
    res = linalg.eig(x)
    assert res.backward_error <= 1e-10
    # eigenvalues reproduce the trace
    assert abs(np.sum(res.eigenvalues) - np.trace(x)) <= 1e-10 * max(1.0, abs(np.trace(x)))


def count_factorizations(monkeypatch) -> list:
    """(shape, bytes) of every matrix the package factors from now on: the
    `resolvent_at_nodes` of every module that holds it is a spy."""
    calls = []
    real = linalg.resolvent_at_nodes

    def spy(x, zs):
        x = np.asarray(x)
        calls.append((x.shape, x.tobytes()))
        return real(x, zs)

    for module in (linalg, spectra, calculus, approx):
        monkeypatch.setattr(module, "resolvent_at_nodes", spy)
    return calls


def test_schur_backward_error(monkeypatch):
    # the certified Schur form of the one factorization, and its ||X||
    rng = _rng(3)
    x = _random_complex(rng, 8)
    res = linalg.resolvent_at_nodes(x, ())
    assert res.t.ndim == 2 and np.array_equal(res.t, np.triu(res.t))
    assert res.scale == linalg.op_norm(x)
    assert np.linalg.norm(x @ res.q - res.q @ res.t) <= 1e-10 * res.scale
    assert np.linalg.norm(res.q.conj().T @ res.q - np.eye(8), 2) <= 1e-13
    assert abs(np.sum(res.eigenvalues) - np.trace(x)) <= 1e-10 * max(1.0, abs(np.trace(x)))
    zero = linalg.resolvent_at_nodes(np.zeros((3, 3), dtype=complex), ())
    assert zero.scale == 0.0
    # a backward error above the bound is refused, on either path
    monkeypatch.setattr(linalg, "_FACTOR_BACKWARD_TOL", 0.0)
    with pytest.raises(ToleranceError, match="Schur decomposition backward error"):
        linalg.resolvent_at_nodes(x, ())
    with pytest.raises(ToleranceError, match="eigh backward error"):
        linalg.resolvent_at_nodes(x + x.conj().T, ())


def _node_case(kind: str, nodes: int = 64):
    """(X, nodes of a circle that separates its spectrum at its widest gap)."""
    rng = _rng(41)
    if kind == "hermitian":
        x = synth.random_hermitian(rng, 24)
    elif kind == "jordan":
        x, _ = synth.random_jordan_matrix(rng, 24, max_index=4)
    else:
        x = approx.build_model(kind, 32).matrix_ref
    lams = np.linalg.eigvals(x)
    center = np.mean(lams)
    dist = np.sort(np.abs(lams - center))
    gap = int(np.argmax(np.diff(dist)))
    radius = 0.5 * (dist[gap] + dist[gap + 1])
    return x, center + radius * np.exp(2j * np.pi * np.arange(nodes) / nodes)


@pytest.mark.parametrize("kind", ["hermitian", "complex_harmonic", "jordan"])
def test_node_contraction_matches_dense_stack(kind):
    x, zs = _node_case(kind)
    n = x.shape[0]
    rs = linalg.resolvent_at_nodes(x, zs)
    # eigh makes the factor diagonal, Schur triangular
    assert rs.t.ndim == (1 if kind == "hermitian" else 2)
    dense = rs.dense()
    assert dense.shape == (zs.size, n, n)
    for z, r in zip(zs, dense):
        a = z * np.eye(n) - x
        res = np.linalg.norm(a @ r - np.eye(n), 2)
        assert res <= 1e-12 * np.linalg.norm(a, 2) * np.linalg.norm(r, 2)
    rng = _rng(7)
    rows = [_random_complex(rng, 1, zs.size)[0] for _ in range(3)]
    got, sup = rs.contract(rows, stride=4)
    for c, g in zip(rows, got):
        want = np.tensordot(c, dense, axes=1)
        assert np.linalg.norm(g - want, 2) <= 1e-11 * np.linalg.norm(want, 2)
    svd_sup = float(np.max(np.linalg.norm(dense[::4], 2, axis=(1, 2))))
    assert abs(sup - svd_sup) <= 1e-12 * svd_sup
    assert rs.sup(4) == sup


@pytest.mark.parametrize("kind", ["harmonic", "anharmonic_x4"])
def test_hermitian_sup_is_the_svd_sup(kind):
    m = approx.build_model(kind, 64)
    contour = approx.lowest_cluster_contour(m, 3)
    rs = linalg.resolvent_at_nodes(m.matrix_ref, contour.points())
    assert rs.t.ndim == 1
    dense = rs.dense()
    svd_sup = float(np.max(np.linalg.norm(dense, 2, axis=(1, 2))))
    # the sup is max 1/|z - lambda| over the nodes, with no SVD
    assert abs(rs.sup() - svd_sup) <= 1e-13 * svd_sup


@pytest.mark.parametrize("kind", ["harmonic", "complex_harmonic"])
def test_node_resolvents_do_not_depend_on_the_node_set(kind):
    # the declared nodes are every 4th measurement node: their resolvents,
    # norms and contractions keep their bits whichever nodes share a chunk
    # (at n = 110 a chunk holds an odd number of nodes) and whichever rows
    # share a pass
    model = approx.build_model(kind, 110)
    x = model.matrix_ref
    contour = approx.lowest_cluster_contour(model, 3)
    dense_contour = dataclasses.replace(contour, nodes=256)
    fine = linalg.resolvent_at_nodes(x, dense_contour.points())
    coarse = linalg.resolvent_at_nodes(x, dataclasses.replace(contour, nodes=64).points())
    assert np.array_equal(fine.zs[::4], coarse.zs)
    assert fine.sup(4) == coarse.sup()
    assert np.array_equal(fine.dense()[::4], coarse.dense())
    w = dense_contour.weights()
    v = np.exp(-dense_contour.points()) * w
    both, _ = fine.contract([w, v])
    assert np.array_equal(both[0], fine.contract([w])[0][0])
    assert np.array_equal(both[1], fine.contract([v])[0][0])


def _bounded_inverses(seed, n, nodes, peak, gap):
    """NodeResolvents of a seeded upper triangular T on a unit circle of
    nodes, one eigenvalue at distance `gap` from node `peak`; that node's
    inverse is nearly rank one, so its Frobenius norm is nearly its 2-norm."""
    rng = _rng(seed)
    zs = np.exp(2j * np.pi * np.arange(nodes) / nodes)
    t = np.triu(_random_complex(rng, n)) * 0.1
    t[np.diag_indices(n)] = 0.3 * _random_complex(rng, 1, n)[0]
    t[n - 1, n - 1] = zs[peak] * (1.0 - gap)
    return linalg.NodeResolvents(zs, np.eye(n, dtype=complex), t, linalg.op_norm(t))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.integers(2, 12), st.sampled_from([1, 2, 4]),
       st.integers(1, 5), st.integers(0, 31), st.sampled_from([1e-1, 1e-4, 1e-9]))
def test_pruned_sup_is_the_batched_svd_max(seed, n, stride, chunk_nodes, peak, gap):
    rs = _bounded_inverses(seed, n, 32, peak, gap)
    picked = rs._inverses(rs.zs)[::stride]
    want = np.linalg.norm(picked, 2, axis=(1, 2)).max()
    assert linalg._max_norm(picked) == want
    # chunks of 1..5 nodes put the peak anywhere relative to a chunk boundary
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "_CHUNK_BYTES", 16 * n * n * chunk_nodes)
        assert rs.sup(stride) == want


@pytest.mark.parametrize("stride", [1, 2, 4])
def test_pruned_sup_peak_on_a_chunk_boundary(monkeypatch, stride):
    # chunks of 4 nodes: the peak is the last node of one chunk, then the
    # first of the next; a near-rank-one peak has ||.||_F within 1e-6 of ||.||_2
    n = 8
    monkeypatch.setattr(linalg, "_CHUNK_BYTES", 16 * n * n * 4)
    for peak in (stride * 4 - stride, stride * 4):
        rs = _bounded_inverses(5, n, 32, peak, 1e-9)
        inv = rs._inverses(rs.zs)
        fro = np.linalg.norm(inv[peak])
        assert fro <= (1.0 + 1e-6) * np.linalg.norm(inv[peak], 2)
        assert rs.sup(stride) == np.linalg.norm(inv[::stride], 2, axis=(1, 2)).max()


def test_norm_bounds_bracket_op_norm():
    rng = _rng(8)
    u = _random_complex(rng, 7, 1)
    one_column = np.hstack([u, np.zeros((7, 6))])
    cases = [_random_complex(rng, 6), np.triu(_random_complex(rng, 9)),
             u @ u.conj().T, one_column, np.zeros((3, 3), dtype=complex),
             1e-200 * _random_complex(rng, 5), 1e200 * _random_complex(rng, 5),
             np.eye(4, dtype=complex)]
    for a in cases:
        low, high = linalg._norm_bounds(a)
        assert 0.0 <= low <= linalg.op_norm(a) <= high
        assert linalg._norm_bounds(a, lower=False) == (0.0, high)
    # one nonzero column: both bounds are its norm, up to the allowance
    low, high = linalg._norm_bounds(one_column)
    assert high <= (1.0 + 1e-9) * low


def _resolvent_case():
    rng = _rng(2)
    x = _random_complex(rng, 6)
    z = 4.0 + 1.0j
    a = z * np.eye(6) - x
    r = np.linalg.solve(a, np.eye(6))
    return x, z, a, r


def test_resolvent_undecided_bounds_fall_back_to_the_svds(monkeypatch):
    x, z, a, r = _resolvent_case()
    fast, norm = linalg._resolvent(x, z)
    assert np.array_equal(fast, r) and norm == linalg.op_norm(r)
    # a tolerance between the residual's 2-norm and Frobenius norm: the bounds
    # cannot certify the residual, the SVDs can, and R keeps its bits
    residual = a @ r - np.eye(6)
    op, fro = np.linalg.norm(residual, 2), np.linalg.norm(residual)
    assert fro > 1.01 * op
    tol = 1.001 * op / ((abs(z) + linalg.op_norm(x)) * norm)
    monkeypatch.setattr(linalg, "_RESIDUAL_TOL", tol)
    calls = []
    real = linalg.op_norm
    monkeypatch.setattr(linalg, "op_norm", lambda m: calls.append(1) or real(m))
    slow, slow_norm = linalg._resolvent(x, z)
    assert len(calls) == 4  # ||R||, then ||zI - x||, ||x|| and the residual
    assert np.array_equal(slow, fast) and slow_norm == norm
    assert np.array_equal(linalg.resolvent(x, z), fast)


def test_resolvent_failures_keep_their_messages(monkeypatch):
    x, z, _, _ = _resolvent_case()
    with pytest.raises(NearSingularError, match=r"^resolvent at z=\(4\+1j\) is "
                       r"near-singular \(condition estimate above 1\)$"):
        with monkeypatch.context() as m:
            m.setattr(linalg, "COND_LIMIT", 1.0)
            linalg.resolvent(x, z)
    with pytest.raises(NearSingularError, match=r"^resolvent point z=1 is in the spectrum$"):
        linalg.resolvent(np.diag([1.0, 2.0]), 1)
    monkeypatch.setattr(linalg, "_RESIDUAL_TOL", 0.0)
    with pytest.raises(ToleranceError, match=r"^resolvent residual \d\.\d{3}e-\d+ "
                       r"exceeds certificate 0\.000e\+00$"):
        linalg.resolvent(x, z)


# signed zero, the smallest subnormal, huge and negative entries
EDGE_VALUES = [-0.0, 0.0, 5e-324, -5e-324, 1e300, -1e300, -2.5, 1.0 / 3.0,
               2.2250738585072014e-308, -123456.789]


def edge_matrix(rng, rows, cols):
    """Random complex matrix with EDGE_VALUES planted in both parts."""
    m = _random_complex(rng, rows, cols)
    k = len(EDGE_VALUES)
    # assigned part by part: re + 1j * im would turn an imaginary -0.0 into 0.0
    m.real.flat[:k] = EDGE_VALUES
    m.imag.flat[-k:] = EDGE_VALUES[::-1]
    return m


def reference_cmat_text(m):
    # the per-entry f-string loop that the batched cmat writer replaced
    lines = [f"{m.shape[0]} {m.shape[1]}"]
    for v in m.ravel():
        lines.append(f"{v.real:.16e} {v.imag:.16e}")
    return "\n".join(lines) + "\n"


def test_cmat_writer_matches_per_entry_reference(tmp_path):
    m = edge_matrix(_rng(5), 4, 6)
    path = tmp_path / "m.cmat"
    for mat in (m, m.T):  # the transpose is a non-contiguous view
        linalg.write_cmat(path, mat)
        assert path.read_bytes() == reference_cmat_text(mat).encode()
        back = linalg.read_cmat(path)
        assert np.array_equal(back, mat)
        assert np.array_equal(np.signbit(back.real), np.signbit(mat.real))
        assert np.array_equal(np.signbit(back.imag), np.signbit(mat.imag))


def test_cmat_round_trip(tmp_path):
    rng = _rng(4)
    m = _random_complex(rng, 5, 3)
    path = tmp_path / "m.cmat"
    linalg.write_cmat(path, m)
    back = linalg.read_cmat(path)
    assert back.shape == (5, 3)
    assert np.array_equal(m, back)  # 17 significant digits are lossless


def test_cmat_rejects_malformed(tmp_path):
    path = tmp_path / "bad.cmat"
    path.write_text("cmat v1\n2 2\n1.0 0.0\n")
    with pytest.raises(ConfigError):
        linalg.read_cmat(path)
    path.write_text("not-a-header\n")
    with pytest.raises(ConfigError):
        linalg.read_cmat(path)
    path.write_text("1 1\n1.0 x\n")
    with pytest.raises(ConfigError, match="non-numeric cmat entry"):
        linalg.read_cmat(path)


def test_as_matrix_validation():
    with pytest.raises(ConfigError):
        linalg.as_matrix(np.zeros((2, 3)), square=True)
    with pytest.raises(ConfigError):
        linalg.as_matrix(np.zeros(4), square=True)
    with pytest.raises(ConfigError):
        linalg.as_matrix(np.array([[np.nan, 0], [0, 1]]), square=True)


# ---------------------------------------------------------------- the %.16e kernel

# raw bit patterns the kernel must hand to its fallback: nan payloads (quiet,
# signalling, negative), +-inf, the subnormal range, -0.0 and the largest double
SPECIAL_BITS = [0x7FF8000000000001, 0x7FF0000000000001, 0xFFF8DEADBEEF0000,
                0x7FF0000000000000, 0xFFF0000000000000, 0x0000000000000001,
                0x000FFFFFFFFFFFFF, 0x800FFFFFFFFFFFFF, 0x8000000000000000,
                0x7FEFFFFFFFFFFFFF]


def reference_entries(floats):
    """'%.16e' of each float, a space after the real and a newline after the
    imaginary part: the cmat entry body, one float at a time."""
    return "".join("%.16e%s" % (x, " \n"[i % 2])
                   for i, x in enumerate(floats.tolist())).encode()


def assert_kernel_matches(floats):
    floats = np.asarray(floats, dtype=float)
    if floats.size % 2:
        floats = np.append(floats, 1.0)
    assert linalg.format_entries(floats.view(complex)) == reference_entries(floats)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.integers(0, 2 ** 64 - 1), st.sampled_from(SPECIAL_BITS)),
                max_size=40))
def test_format_kernel_matches_reference_on_bit_patterns(bits):
    assert_kernel_matches(np.array(bits, dtype=np.uint64).view(float))


def test_format_kernel_matches_reference_on_seeded_samples():
    rng = _rng(7)
    bits = rng.integers(0, 2 ** 64, 50_000, dtype=np.uint64, endpoint=False)
    # magnitudes log-uniform over the whole double range, both signs
    spread = rng.choice([-1.0, 1.0], 50_000) * 10.0 ** rng.uniform(-330, 308, 50_000)
    assert_kernel_matches(np.concatenate([bits.view(float), spread]))


def test_format_kernel_matches_reference_near_ties():
    # 17 digits then a 5: the nearest double sits within an ulp of the
    # rounding midpoint, and a few are exact ties
    rng = _rng(8)
    digits = rng.integers(10 ** 16, 10 ** 17, 20_000).tolist()
    exps = rng.integers(-320, 300, 20_000).tolist()
    ties = np.array([float(f"{d}5e{e}") for d, e in zip(digits, exps)])
    # exact ties: j + 1/4 and j + 3/4 for 16-digit j < 2^51 have 18 digits,
    # the last a 5, and are doubles
    j = rng.integers(10 ** 15, 2 ** 51, 2_000).astype(float)
    exact = np.concatenate([j + 0.25, j + 0.75])
    assert_kernel_matches(np.concatenate([ties, -ties, exact]))


def _reduced_basis(u, v):
    """Lagrange-Gauss reduction of a 2-D integer lattice basis."""
    def dot(a, b):
        return a[0] * b[0] + a[1] * b[1]

    while True:
        if dot(u, u) > dot(v, v):
            u, v = v, u
        mu = round(Fraction(dot(u, v), dot(u, u)))
        if mu == 0:
            return u, v
        v = (v[0] - mu * u[0], v[1] - mu * u[1])


def midpoint_doubles(limit=Fraction(1, 10 ** 15)):
    """Doubles x = m 2^e whose digits x 10^(16-k), k = floor(log10 x), lie
    within `limit` of a rounding midpoint without being one: per binade the
    scaled value is m num/den, and a 2-D lattice (closest vector, Babai
    rounding on a reduced basis) gives the m in [2^52, 2^53) that bring
    m num mod den nearest den/2."""
    out = []
    for e in range(-1048, 945):  # 2^(e+52) from 1e-300 to 1e300
        k = math.floor(math.log10(math.ldexp(1.5, e + 52)))
        num, den = (Fraction(2) ** e * Fraction(10) ** (16 - k)).as_integer_ratio()
        if den == 1:
            continue
        # weigh |m - 1.5 2^52| <= 2^51 against |m num mod den - den/2| <= den 2^-60
        wm, wr = (den, 2 ** 111) if den < 2 ** 111 else (den >> 111, 1)
        u, v = _reduced_basis((wm, wr * (num % den)), (0, wr * den))
        tx, ty = wm * 3 * 2 ** 51, wr * den // 2
        det = u[0] * v[1] - u[1] * v[0]
        a = round(Fraction(tx * v[1] - ty * v[0], det))
        b = round(Fraction(u[0] * ty - u[1] * tx, det))
        for da, db in itertools.product(range(-4, 5), repeat=2):
            m = ((a + da) * u[0] + (b + db) * v[0]) // wm
            y = Fraction(m * num, den)
            if 2 ** 52 <= m < 2 ** 53 and 10 ** 16 <= y < 10 ** 17 and \
                    0 < abs(y - math.floor(y) - Fraction(1, 2)) < limit:
                out.append(math.ldexp(m, e))
    return np.array(out)


def test_format_kernel_matches_reference_next_to_midpoints():
    # the digits of these doubles sit closer to a rounding midpoint than the
    # kernel's own error bound; only the tie margin sends them to the fallback
    hard = midpoint_doubles()
    assert hard.size > 1000
    assert_kernel_matches(np.concatenate([hard, -hard]))


def test_format_kernel_matches_reference_at_decade_edges():
    assert_kernel_matches(decade_edges())


def decade_edges():
    """Each power of ten, its double neighbours 1 and 2 ulps away, both signs."""
    powers = np.array([float(f"1e{e}") for e in range(-323, 309)])
    near = [powers]
    for step in (1, 2):
        for direction in (np.inf, 0.0):
            x = powers
            for _ in range(step):
                x = np.nextafter(x, direction)
            near.append(x)
    near = np.concatenate(near)
    return np.concatenate([near, -near])


@pytest.mark.parametrize("direction", [-np.inf, np.inf])
def test_format_kernel_survives_a_misrounded_log10(monkeypatch, direction):
    # a log10 one ulp off gives k one too low or too high next to the powers
    # of ten (e.g. 1e-14, a double 1.2e-18 below 10^-14, then scales to just
    # under 10^17 and rounds to 10^17); the range checks on the unrounded
    # digits must send those to the fallback.  log10(1) = +0 stays exact, as
    # IEEE 754 requires.
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda a: np.where(
        a == 1.0, 0.0, np.nextafter(log10(a), direction)))
    assert_kernel_matches(np.concatenate([decade_edges(), [0.0, -0.0, 1.0, 1e-14]]))


def test_format_kernel_named_values():
    # 1e-12 is a double just below 10^-12 whose log10 rounds to exactly -12:
    # the scaled value sits below 10^16 and must not print as 1.0e-12
    named = [0.0, -0.0, float(2 ** 53 + 1), 1e16, 1e17, 99999 * 1e-17, 1e-12,
             float(np.nextafter(1e-12, 0.0))]
    assert_kernel_matches(named)
    assert linalg.format_entries(np.array([1e-12 + 0j])) == (
        b"9.9999999999999998e-13 0.0000000000000000e+00\n")


@pytest.mark.parametrize("delta", [-1, 0, 1])
def test_format_kernel_sizes_around_a_chunk(delta):
    rng = _rng(9)
    n = linalg._CHUNK_ENTRIES + delta
    m = rng.normal(size=n) + 1j * rng.normal(size=n)
    # fallback entries at the edges of the first chunk
    m[0] = complex(5e-324, np.inf)
    m[-1] = complex(-0.0, 1e300)
    m[min(n, linalg._CHUNK_ENTRIES) - 1] = complex(1e-300, -5e-324)
    assert_kernel_matches(m.view(float))


def test_zero_chunks_print_like_the_kernel():
    # chunks of +0.0 words take one cached text; a -0.0 part must not
    size = 2 * linalg._CHUNK_ENTRIES + 5
    zeros = np.zeros(2 * size)
    assert_kernel_matches(zeros)
    signed = zeros.copy()
    signed[[0, 3, 2 * linalg._CHUNK_ENTRIES + 1, -1]] = -0.0
    assert_kernel_matches(signed)
    lone = zeros.copy()
    lone[2 * linalg._CHUNK_ENTRIES + 7] = 1.25e-300
    assert_kernel_matches(lone)
    for n in (1, linalg._CHUNK_ENTRIES - 1, linalg._CHUNK_ENTRIES + 1):
        assert_kernel_matches(np.zeros(2 * n))
    assert linalg.format_entries(np.zeros((3, 2), dtype=complex)) == (
        b"0.0000000000000000e+00 0.0000000000000000e+00\n" * 6)


def test_format_kernel_small_sizes(tmp_path):
    assert linalg.format_entries(np.zeros(0, dtype=complex)) == b""
    assert linalg.format_entries(np.array([[-0.5 + 2j]])) == (
        b"-5.0000000000000000e-01 2.0000000000000000e+00\n")
    # the streamed writer across a chunk edge
    m = _random_complex(_rng(10), 1, linalg._CHUNK_ENTRIES + 1)
    linalg.write_cmat(tmp_path / "m.cmat", m)
    assert (tmp_path / "m.cmat").read_bytes() == reference_cmat_text(m).encode()
