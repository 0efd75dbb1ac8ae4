import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pncalc import linalg
from pncalc.errors import ConfigError, DimensionCapError, NearSingularError


def _rng(seed=0):
    return np.random.default_rng(seed)


def _random_complex(rng, n, m=None):
    m = n if m is None else m
    return rng.normal(size=(n, m)) + 1j * rng.normal(size=(n, m))


def test_kron_matches_numpy():
    rng = _rng(1)
    a = _random_complex(rng, 3)
    b = _random_complex(rng, 4)
    assert np.array_equal(linalg.kron(a, b), np.kron(a, b))


def test_kron_dimension_cap():
    a = np.eye(70, dtype=complex)
    with pytest.raises(DimensionCapError):
        linalg.kron(a, a)
    # boundary: 64 * 64 = 4096 is allowed
    b = np.eye(64, dtype=complex)
    assert linalg.kron(b, b).shape == (4096, 4096)


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 5), st.integers(2, 4), st.integers(0, 2 ** 31 - 1))
def test_kron_mixed_product_property(n, m, seed):
    # (A kron B)(C kron D) = AC kron BD
    rng = _rng(seed)
    a, c = _random_complex(rng, n), _random_complex(rng, n)
    b, d = _random_complex(rng, m), _random_complex(rng, m)
    lhs = linalg.kron(a, b) @ linalg.kron(c, d)
    rhs = linalg.kron(a @ c, b @ d)
    scale = max(np.linalg.norm(lhs, 2), 1.0)
    assert np.linalg.norm(lhs - rhs, 2) <= 1e-13 * scale


def test_op_norm_on_known_matrices():
    assert linalg.op_norm(np.zeros((3, 3), dtype=complex)) == 0.0
    assert abs(linalg.op_norm(2.0 * np.eye(5, dtype=complex)) - 2.0) < 1e-14
    # rank-1: norm = |u| |v|
    u = np.array([3.0, 4.0])
    m = np.outer(u, u).astype(complex)
    assert abs(linalg.op_norm(m) - 25.0) < 1e-12


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


def test_schur_backward_error():
    rng = _rng(3)
    x = _random_complex(rng, 8)
    res = linalg.schur(x)
    assert res.backward_error <= 1e-10
    assert np.array_equal(res.t, np.triu(res.t))
    assert np.linalg.norm(res.q.conj().T @ res.q - np.eye(8), 2) <= 1e-13
    assert abs(np.sum(np.diag(res.t)) - np.trace(x)) <= 1e-10 * max(1.0, abs(np.trace(x)))
    zero = linalg.schur(np.zeros((3, 3), dtype=complex))
    assert zero.backward_error == 0.0


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
