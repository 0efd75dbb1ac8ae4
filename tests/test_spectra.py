import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pncalc import linalg, spectra, synth
from test_linalg import count_factorizations, edge_matrix
from pncalc.errors import (
    ClusterSeparationError,
    ConfigError,
    ContourTooCloseError,
    DecompositionError,
    PreconditionError,
)


def _jordan(lam, size, nil=1.0):
    return synth.jordan_block(lam, size, nil)


def _quadrature_matches(x, dec):
    """Each projector equals the Riesz quadrature on a circle around it."""
    values = linalg.eig(x).eigenvalues
    lams = dec.eigenvalues
    for k, c in enumerate(dec.components):
        others = np.delete(lams, k)
        if others.size:
            radius = 0.5 * float(np.min(np.abs(others - c.eigenvalue)))
        else:
            radius = 1.0 + float(np.max(np.abs(values - c.eigenvalue)))
        contour = spectra.Contour(c.eigenvalue, radius)
        quad = spectra.riesz_projector(x, contour)
        size = max(1.0, linalg.op_norm(c.projector))
        err = linalg.op_norm(c.projector - quad)
        assert err <= 1e-10 * size, f"component at {c.eigenvalue}: {err:.3e}"


def test_decompose_projectors_match_quadrature():
    golden = synth.block_diag([_jordan(0.0, 2), _jordan(2.0, 3)])
    _quadrature_matches(golden, spectra.decompose(golden))

    rng = np.random.default_rng(21)
    x, truth = synth.random_jordan_matrix(rng, 9, max_index=4, cond=8.0)
    assert max(size for _, size in truth) >= 3
    dec = spectra.decompose(x, cluster_tol=1e-3 * max(1.0, linalg.op_norm(x)))
    assert [(c.multiplicity, c.index) for c in dec.components] == \
        [(size, size) for _, size in truth]
    _quadrature_matches(x, dec)

    h = synth.random_hermitian(rng, 6)
    _quadrature_matches(h, spectra.decompose(h))
    d = synth.random_diagonalizable(rng, 6, cond=5.0)
    _quadrature_matches(d, spectra.decompose(d))


def test_contour_validation():
    with pytest.raises(ConfigError):
        spectra.Contour(center=0.0, radius=0.0, nodes=32)
    with pytest.raises(ConfigError):
        spectra.Contour(center=0.0, radius=1.0, nodes=8)
    c = spectra.Contour(center=1.0 + 1.0j, radius=2.0, nodes=32)
    zs = c.points()
    assert zs.shape == (32,)
    assert np.allclose(np.abs(zs - (1.0 + 1.0j)), 2.0)


def test_cluster_eigenvalues_single_linkage():
    vals = np.array([0.0, 1e-7, 2e-7, 1.0, 1.0 + 1e-7, 3.0])
    groups = spectra.cluster_eigenvalues(vals, tol=1.5e-7)
    # chains 0~1e-7~2e-7 merge transitively; sorted by (Re, Im)
    members = [sorted(idx) for _, idx in groups]
    assert len(groups) == 3
    assert members[0] == [0, 1, 2]
    assert members[1] == [3, 4]
    assert members[2] == [5]
    assert abs(groups[0][0] - 1e-7) <= 1e-13  # representative is the mean


# the pair-loop clustering, separability check and cluster geometry that
# one numpy distance matrix replaced, kept as the reference

def loop_clusters(values, tol):
    values = np.asarray(values, dtype=complex).ravel()
    n = values.size
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
    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    out = [(complex(np.mean(values[idx])), idx) for idx in groups.values()]
    out.sort(key=lambda t: (t[0].real, t[0].imag))
    return out


def loop_separation_message(values, clusters, cluster_tol):
    for a in range(len(clusters)):
        for b in range(a + 1, len(clusters)):
            d = min(abs(values[i] - values[j])
                    for i in clusters[a][1] for j in clusters[b][1])
            if d <= 4.0 * cluster_tol:
                return (f"clusters at {clusters[a][0]:.6g} and {clusters[b][0]:.6g} "
                        f"separated by {d:.3e} <= 4 * cluster_tol = {4 * cluster_tol:.3e}")
    return None


def loop_geometry(values, clusters, k):
    rep, members = clusters[k]
    spread = max((abs(values[i] - rep) for i in members), default=0.0)
    gap = np.inf
    for j, (_, other) in enumerate(clusters):
        if j == k:
            continue
        gap = min(gap, min(abs(values[i] - rep) for i in other))
    return float(spread), float(gap)


def assert_clustering_matches_loops(values, tol):
    values = np.asarray(values, dtype=complex)
    want = loop_clusters(values, tol)
    got = spectra.cluster_eigenvalues(values, tol)
    assert [idx for _, idx in got] == [idx for _, idx in want]
    # bitwise-equal representatives
    assert (np.array([rep for rep, _ in got]).tobytes()
            == np.array([rep for rep, _ in want]).tobytes())
    message = loop_separation_message(values, want, tol)
    dist = spectra._distances(values, values)
    label = spectra._cluster_labels(got, values.size)
    if message is None:
        spectra._check_separation(got, label, dist, tol)
    else:
        with pytest.raises(ClusterSeparationError) as exc:
            spectra._check_separation(got, label, dist, tol)
        assert str(exc.value) == message
    spreads, gaps = spectra._cluster_geometry(values, got, label)
    assert list(zip(spreads.tolist(), gaps.tolist())) == [
        loop_geometry(values, want, k) for k in range(len(want))]
    return message


def test_clustering_matches_pair_loops_on_seeded_values():
    raised = 0
    for seed in range(40):
        rng = np.random.default_rng(seed)
        tol = 10.0 ** rng.uniform(-8, -1)
        centers = rng.normal(size=6) + 1j * rng.normal(size=6)
        # members scattered around the link distance, centres sometimes
        # within the 4 * tol separability margin of each other
        centers[1] = centers[0] + 4.5 * tol * rng.uniform(0.5, 1.5)
        n = int(rng.integers(1, 40))
        jitter = tol * rng.uniform(-1.2, 1.2, size=(2, n))
        values = centers[rng.integers(0, 6, n)] + jitter[0] + 1j * jitter[1]
        raised += assert_clustering_matches_loops(values, tol) is not None
    assert 0 < raised < 40  # both outcomes of the separability check are seen


def test_clustering_matches_pair_loops_at_the_link_distance():
    # single linkage links a pair at distance exactly tol, not one ulp beyond
    tol = 0.25
    assert len(spectra.cluster_eigenvalues([0.0, 0.25], tol)) == 1
    assert len(spectra.cluster_eigenvalues([0.0, 0.25], np.nextafter(tol, 0.0))) == 2
    assert_clustering_matches_loops([0.0, 0.25j, 3.0], tol)
    assert_clustering_matches_loops([0.0, 0.25j, 3.0], np.nextafter(tol, 0.0))
    # signed zeros: the mean of a singleton turns -0.0 into 0.0
    assert_clustering_matches_loops(
        [complex(-0.0, 1.0), complex(3.0, -0.0), complex(-0.0, -0.0), -5.0], tol)


def test_clustering_matches_pair_loops_on_transitive_chains():
    # a chain of links at exactly tol merges end to end, in any index order
    tol = 0.125
    chain = tol * np.arange(12) + 1j
    rng = np.random.default_rng(3)
    for values in (chain, chain[::-1], rng.permutation(chain),
                   np.concatenate([chain, 10.0 + 1j * tol * np.arange(12)])):
        groups = spectra.cluster_eigenvalues(values, tol)
        assert len(groups) == len(values) // 12
        assert_clustering_matches_loops(values, tol)


def test_separability_matches_pair_loops_at_a_gap_of_four_tol():
    tol = 0.125
    # clusters {0, tol} and {5 tol}: their least distance is exactly 4 tol
    at_margin = [0.0, tol, 5 * tol]
    message = assert_clustering_matches_loops(at_margin, tol)
    assert "separated by 5.000e-01 <= 4 * cluster_tol = 5.000e-01" in message
    assert assert_clustering_matches_loops([0.0, tol, np.nextafter(5 * tol, 1.0)],
                                           tol) is None
    # decompose refuses it with the same message (diagonal: exact eigenvalues)
    x = np.diag(at_margin).astype(complex)
    with pytest.raises(ClusterSeparationError) as exc:
        spectra.decompose(x, cluster_tol=tol)
    assert str(exc.value) == message


def test_riesz_projector_whole_spectrum_is_identity():
    x = _jordan(1.0, 2)  # defective: eigenvector methods cannot see this
    c = spectra.Contour(center=1.0, radius=1.0, nodes=64)
    p = spectra.riesz_projector(x, c)
    assert np.linalg.norm(p - np.eye(2), 2) <= 1e-12


def test_riesz_projector_selects_cluster():
    x = np.diag([0.0, 0.0, 5.0]).astype(complex)
    c = spectra.Contour(center=0.0, radius=1.0, nodes=64)
    p = spectra.riesz_projector(x, c)
    assert np.linalg.norm(p - np.diag([1.0, 1.0, 0.0]), 2) <= 1e-12


def test_riesz_projector_eigenvalue_on_contour_rejected():
    x = np.diag([0.0, 1.0]).astype(complex)
    c = spectra.Contour(center=0.0, radius=1.0, nodes=64)
    with pytest.raises(ContourTooCloseError):
        spectra.riesz_projector(x, c)


def test_nilpotency_index_shift_matrix():
    n = np.diag(np.ones(2), 1).astype(complex)  # 3x3 shift
    assert spectra.nilpotency_index(n, scale=1.0) == 3
    assert spectra.nilpotency_index(np.zeros((3, 3), dtype=complex), scale=1.0) == 1


def _svd_only_index(n_mat, scale, tol=spectra.DEFAULT_TOL_NIL):
    """nilpotency_index without the Frobenius pre-test: one SVD per power."""
    scale = scale if scale > 0 else 1.0
    power = n_mat.copy()
    for nu in range(1, n_mat.shape[0] + 1):
        if np.linalg.norm(power, 2) <= tol * scale ** nu:
            return nu
        power = power @ n_mat
    return n_mat.shape[0]


def test_nilpotency_index_frobenius_pretest_matches_svd(monkeypatch):
    rng = np.random.default_rng(55)
    decs = []
    for _ in range(4):
        x, _ = synth.random_jordan_matrix(rng, 10, max_index=4, cond=8.0)
        decs.append(spectra.decompose(x, cluster_tol=1e-3 * max(1.0, linalg.op_norm(x))))
        decs.append(spectra.decompose(synth.random_hermitian(rng, 8)))
        decs.append(spectra.decompose(synth.random_diagonalizable(rng, 8, cond=5.0)))
    indices = set()
    for dec in decs:
        for c in dec.components:
            nu = spectra.nilpotency_index(c.nilpotent, dec.scale)
            assert nu == _svd_only_index(c.nilpotent, dec.scale)
            indices.add(nu)
    assert indices == {1, 2, 3, 4}

    # ||N||_2 = 0.8e-8 <= tol < ||N||_F = 1.13e-8: only the SVD accepts nu = 1
    calls = []
    monkeypatch.setattr(spectra, "op_norm",
                        lambda a: calls.append(1) or linalg.op_norm(a))
    n = synth.block_diag([_jordan(0.0, 2, 0.8e-8)] * 2)
    assert spectra.nilpotency_index(n, scale=1.0) == _svd_only_index(n, 1.0) == 1
    assert calls == [1]
    # a power that passes the Frobenius test takes no SVD
    calls.clear()
    assert spectra.nilpotency_index(_jordan(0.0, 3), scale=1.0) == 3
    assert calls == [1, 1]


def test_decompose_golden_block_diag():
    # blkdiag(J_2(0), J_3(2)): components (0, m=2, nu=2) and (2, m=3, nu=3)
    x = synth.block_diag([_jordan(0.0, 2), _jordan(2.0, 3)])
    dec = spectra.decompose(x)
    assert [(c.multiplicity, c.index) for c in dec.components] == [(2, 2), (3, 3)]
    assert abs(dec.components[0].eigenvalue - 0.0) <= 1e-10
    assert abs(dec.components[1].eigenvalue - 2.0) <= 1e-10
    p0 = np.zeros((5, 5), dtype=complex)
    p0[:2, :2] = np.eye(2)
    assert np.linalg.norm(dec.components[0].projector - p0, 2) <= 1e-10
    n1 = dec.components[1].nilpotent
    assert np.linalg.norm(n1[2:, 2:] - np.diag(np.ones(2), 1), 2) <= 1e-10


def test_decompose_verifies_invariants():
    rng = np.random.default_rng(11)
    x, truth = synth.random_jordan_matrix(rng, 6, max_index=3, cond=8.0)
    dec = spectra.decompose(x, cluster_tol=1e-3 * max(1.0, linalg.op_norm(x)))
    assert [(c.multiplicity) for c in dec.components] == [s for _, s in truth]
    checks = spectra.verify_decomposition(x, dec)
    for name, (measured, bound) in checks.items():
        assert measured <= bound, f"{name}: {measured} > {bound}"


def test_decompose_similarity_covariance():
    rng = np.random.default_rng(12)
    x = synth.block_diag([_jordan(0.0, 2), _jordan(1.5, 2)])
    s = synth.conditioned_similarity(rng, 4, 5.0)
    sinv = np.linalg.inv(s)
    dec_x = spectra.decompose(x)
    dec_y = spectra.decompose(s @ x @ sinv, cluster_tol=1e-5 * linalg.op_norm(x))
    for cx, cy in zip(dec_x.components, dec_y.components):
        assert abs(cx.eigenvalue - cy.eigenvalue) <= 1e-6
        assert cx.multiplicity == cy.multiplicity and cx.index == cy.index
        assert np.linalg.norm(s @ cx.projector @ sinv - cy.projector, 2) <= 1e-7


def test_decompose_hermitian_is_diagonalizable():
    rng = np.random.default_rng(13)
    x = synth.random_hermitian(rng, 6)
    dec = spectra.decompose(x)
    scale = linalg.op_norm(x)
    for c in dec.components:
        assert c.index == 1
        assert linalg.op_norm(c.nilpotent) <= 1e-10 * scale


def test_hermitian_decompose_reads_the_eigh_basis(monkeypatch):
    # k = n on bitwise-Hermitian X: the spectral theorem, straight from the
    # certified eigh; no Schur reordering
    def refuse(*args, **kwargs):
        raise AssertionError("ztrsen called")

    monkeypatch.setattr(spectra.lapack, "ztrsen", refuse)
    n = 40
    x = synth.random_hermitian(np.random.default_rng(40), n)
    assert np.array_equal(x, x.conj().T)
    dec = spectra.decompose(x)
    assert len(dec.components) == n
    assert dec.scale == linalg.op_norm(x)
    v = np.hstack([c.v for c in dec.components])
    assert np.linalg.norm(v.conj().T @ v - np.eye(n), 2) <= 1e-13
    for c in dec.components:
        assert c.index == 1 and c.multiplicity == 1
        assert np.array_equal(c.v, c.w)
        assert c.eigenvalue.imag == 0.0
    assert all(value <= bound for value, bound in dec.report.values())
    assert np.allclose(np.sort(dec.eigenvalues.real), np.linalg.eigvalsh(x), rtol=0, atol=1e-13)


def test_hermitian_repeated_eigenvalue_is_one_component():
    q, _ = np.linalg.qr(synth.random_hermitian(np.random.default_rng(4), 4))
    x = q @ np.diag([1.0, 1.0, 2.0, -0.5]) @ q.conj().T
    x = (x + x.conj().T) / 2.0
    assert np.array_equal(x, x.conj().T)
    dec = spectra.decompose(x)
    assert [(c.multiplicity, c.index) for c in dec.components] == [(1, 1), (2, 1), (1, 1)]
    c = dec.components[1]
    assert abs(c.eigenvalue - 1.0) <= 1e-14
    assert np.linalg.norm(c.v.conj().T @ c.v - np.eye(2), 2) <= 1e-13
    assert linalg.op_norm(c.projector - q[:, :2] @ q[:, :2].conj().T) <= 1e-13


def test_decompose_cluster_separation_guard():
    # two clusters 3 * cluster_tol apart violate the 4x separability margin
    x = np.diag([0.0, 3e-6]).astype(complex)
    with pytest.raises(ClusterSeparationError):
        spectra.decompose(x, cluster_tol=1e-6)


def test_decompose_refuses_a_singular_sylvester_separation():
    # with cluster_tol = 0 two eigenvalues one ulp apart pass the separability
    # margin, but the Sylvester equation between them is singular
    x = np.array([[1.0, 1.0], [0.0, 1.0 + 2.2e-16]], dtype=complex)
    with pytest.raises(ClusterSeparationError, match="Sylvester"):
        spectra.decompose(x, cluster_tol=0.0)


def test_decompose_scatter_without_widened_tol():
    # a defective similarity scatters eigenvalues ~ (eps * cond)^(1/nu);
    # the default cluster_tol splits the cluster into simple eigenvalues whose
    # nilpotent parts do not die at index 1
    rng = np.random.default_rng(14)
    s = synth.conditioned_similarity(rng, 4, 50.0)
    x = s @ _jordan(1.0, 4) @ np.linalg.inv(s)
    with pytest.raises((DecompositionError, ClusterSeparationError)):
        spectra.decompose(x)
    dec = spectra.decompose(x, cluster_tol=5e-3 * linalg.op_norm(x))
    assert [(c.multiplicity, c.index) for c in dec.components] == [(4, 4)]


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_decompose_reconstruction_property(seed):
    rng = np.random.default_rng(seed)
    x = synth.random_diagonalizable(rng, 5, cond=5.0)
    dec = spectra.decompose(x, cluster_tol=1e-4 * max(1.0, linalg.op_norm(x)))
    recon = sum(c.eigenvalue * c.projector + c.nilpotent for c in dec.components)
    assert np.linalg.norm(recon - x, 2) <= 1e-7 * max(1.0, linalg.op_norm(x))
    assert sum(c.multiplicity for c in dec.components) == 5


def test_decompose_keeps_its_verification_report(tmp_path):
    rng = np.random.default_rng(11)
    x, _ = synth.random_jordan_matrix(rng, 6, max_index=3, cond=8.0)
    dec = spectra.decompose(x, cluster_tol=1e-3 * max(1.0, linalg.op_norm(x)))
    assert dec.report == spectra.verify_decomposition(x, dec)
    path = tmp_path / "dec.txt"
    spectra.write_decomposition(path, dec)
    assert spectra.read_decomposition(path).report == {}


def dense_verify(x, dec):
    """The dense verify_decomposition that the factored one replaced: it
    forms every P_i, N_i and P_i P_j as an n x n matrix."""
    dim = x.shape[0]
    scale = max(dec.scale, 1e-300)
    tol = dec.tol_dec
    recon = sum((c.eigenvalue * c.projector + c.nilpotent for c in dec.components),
                np.zeros_like(x))
    resol = sum((c.projector for c in dec.components), np.zeros_like(x))
    big_p = max(linalg.op_norm(c.projector) for c in dec.components)

    def fro(stack):
        return np.sqrt(np.sum(np.abs(stack) ** 2, axis=(-2, -1)))

    ps = np.stack([c.projector for c in dec.components])
    ns = np.stack([c.nilpotent for c in dec.components])
    idem = float(np.max(fro(ps @ ps - ps)))
    comm = float(max(np.max(fro(ps @ ns - ns)), np.max(fro(ns @ ps - ns))))
    nilres = max(float(fro(np.linalg.matrix_power(c.nilpotent, c.index))) / scale ** c.index
                 for c in dec.components)
    cross = 0.0
    for i in range(len(dec.components)):
        norms = fro(ps[i] @ ps)
        norms[i] = 0.0
        cross = max(cross, float(np.max(norms)))
    mult_gap = abs(sum(c.multiplicity for c in dec.components) - dim)
    return {
        "multiplicity_sum": (float(mult_gap), 0.0),
        "reconstruction": (linalg.op_norm(recon - x) / scale, tol),
        "resolution": (linalg.op_norm(resol - np.eye(dim)), tol * max(1.0, big_p)),
        "idempotence": (idem, tol * max(1.0, big_p) ** 2),
        "projector_nilpotent_commute": (comm, tol * scale * max(1.0, big_p)),
        "nilpotency": (nilres, dec.tol_nil * max(1.0, big_p)),
        "cross_orthogonality": (cross, tol * max(1.0, big_p) ** 2),
    }


def _verifier_inputs():
    rng = np.random.default_rng(909)
    for _ in range(3):
        x, _ = synth.random_jordan_matrix(rng, 10, max_index=4, cond=8.0)
        yield x, 1e-3 * max(1.0, linalg.op_norm(x))
        yield synth.random_hermitian(rng, 8), None
        yield synth.random_diagonalizable(rng, 8, cond=5.0), None
    # k = n separated eigenvalues
    yield synth.random_diagonalizable(rng, 24, cond=5.0, spread=2.0), None


def test_factored_verifier_matches_dense():
    indices = set()
    for x, ct in _verifier_inputs():
        dec = spectra.decompose(x, cluster_tol=ct)
        fast, dense = spectra.verify_decomposition(x, dec), dense_verify(x, dec)
        assert fast.keys() == dense.keys()
        for name, (measured, bound) in fast.items():
            ref, ref_bound = dense[name]
            assert (measured <= bound) == (ref <= ref_bound), name
            # the invariant's own magnitude: its bound without the tolerance
            size = bound / (dec.tol_nil if name == "nilpotency" else dec.tol_dec) \
                if bound > 0 else 1.0
            assert measured >= ref - 1e-12 * size, (name, measured, ref)
            if name in ("reconstruction", "resolution"):
                assert abs(measured - ref) <= 1e-12 * size, (name, measured, ref)
        for c in dec.components:
            assert c.index == _svd_only_index(c.nilpotent, dec.scale)
            indices.add(c.index)
    assert indices == {1, 2, 3, 4}


def _failed(x, dec):
    return {name for name, (measured, bound) in spectra.verify_decomposition(x, dec).items()
            if measured > bound}


def test_factored_verifier_flags_a_corrupted_factor():
    rng = np.random.default_rng(31)
    x, _ = synth.random_jordan_matrix(rng, 8, max_index=3, cond=8.0)
    ct = 1e-3 * max(1.0, linalg.op_norm(x))
    assert not _failed(x, spectra.decompose(x, cluster_tol=ct))
    for block in ("w", "m"):
        dec = spectra.decompose(x, cluster_tol=ct)
        factor = getattr(dec.components[0], block)
        row = int(np.argmax(np.abs(factor[:, 0])))
        factor[row, 0] += 1e-6
        failed = _failed(x, dec)
        if block == "w":
            assert failed & {"resolution", "idempotence", "cross_orthogonality"}, failed
        else:
            assert "reconstruction" in failed, failed


def reference_pndec_text(dec):
    # a per-entry f-string loop over the pndec v2 layout
    lines = ["pndec v2", f"dim {dec.dim}", f"scale {dec.scale!r}",
             f"cluster_tol {dec.cluster_tol!r}", f"tol_dec {dec.tol_dec!r}",
             f"tol_nil {dec.tol_nil!r}", f"components {len(dec.components)}"]
    for c in dec.components:
        lines.append(f"eigenvalue {c.eigenvalue.real!r} {c.eigenvalue.imag!r}")
        lines.append(f"multiplicity {c.multiplicity}")
        lines.append(f"index {c.index}")
        for tag, m in (("V", c.v), ("W", c.w), ("M", c.m)):
            lines.append(f"{tag} {m.shape[0]} {m.shape[1]}")
            for v in m.ravel():
                lines.append(f"{v.real:.16e} {v.imag:.16e}")
    return "\n".join(lines) + "\n"


def test_pndec_writer_matches_per_entry_reference(tmp_path):
    rng = np.random.default_rng(6)
    x = synth.block_diag([_jordan(0.5j, 2), _jordan(-2.0, 2)])
    dec = spectra.decompose(x)
    # plant signed zeros, a subnormal, huge and negative entries, as
    # non-contiguous views, into every factor block
    edge = edge_matrix(rng, 4, 6)
    c0, c1 = dec.components
    c0.v, c0.w, c0.m = edge[:, 0:2], edge[:, 2:4], edge[:, 4:6]
    c1.m = edge_matrix(rng, 6, 4).T[:, :2]
    path = tmp_path / "dec.txt"
    spectra.write_decomposition(path, dec)
    assert path.read_bytes() == reference_pndec_text(dec).encode()
    back = spectra.read_decomposition(path)
    for ca, cb in zip(dec.components, back.components):
        for a, b in ((ca.v, cb.v), (ca.w, cb.w), (ca.m, cb.m)):
            assert np.array_equal(a, b)
            assert np.array_equal(np.signbit(a.real), np.signbit(b.real))
            assert np.array_equal(np.signbit(a.imag), np.signbit(b.imag))


def test_pndec_writer_formats_a_record_in_one_call(tmp_path, monkeypatch):
    dec = spectra.decompose(synth.block_diag([_jordan(0.5j, 2), _jordan(-2.0, 1),
                                              _jordan(3.0, 3)]))
    calls = []
    real = spectra.format_entries

    def spy(m):
        calls.append(np.shape(m))
        return real(m)

    monkeypatch.setattr(spectra, "format_entries", spy)
    spectra.write_decomposition(tmp_path / "dec.txt", dec)
    assert calls == [(3 * 6 * 6,)]  # V, W and M of all three components
    monkeypatch.undo()
    assert (tmp_path / "dec.txt").read_bytes() == reference_pndec_text(dec).encode()


def test_read_decomposition_rejects_malformed_entries(tmp_path):
    dec = spectra.decompose(np.diag([1.0, 2.0]).astype(complex))
    path = tmp_path / "dec.txt"
    spectra.write_decomposition(path, dec)
    lines = path.read_text().splitlines()
    row = lines.index("V 2 1") + 1
    bad = tmp_path / "bad.txt"
    bad.write_text("\n".join(lines[:row] + ["1.0 x"] + lines[row + 1:]) + "\n")
    with pytest.raises(ConfigError, match="component 1: non-numeric V entry"):
        spectra.read_decomposition(bad)
    bad.write_text("\n".join(lines[:row + 1]) + "\n")
    with pytest.raises(ConfigError, match="expected 4 numbers"):
        spectra.read_decomposition(bad)


def _edited(lines, old, new):
    return "\n".join(new if line == old else line for line in lines) + "\n"


def test_read_decomposition_checks_shapes_and_version(tmp_path):
    dec = spectra.decompose(np.diag([1.0, 2.0, 3.0]).astype(complex))
    path = tmp_path / "dec.txt"
    spectra.write_decomposition(path, dec)
    lines = path.read_text().splitlines()
    bad = tmp_path / "bad.txt"
    # a 2 x 2 projector-shaped block in a dim 3 record
    bad.write_text(_edited(lines, "V 3 1", "V 2 2"))
    with pytest.raises(ConfigError, match=r"component 1: V block is 2x2, expected .* 3x1"):
        spectra.read_decomposition(bad)
    bad.write_text(_edited(lines, "index 1", "index 2"))
    with pytest.raises(ConfigError, match="component 1: index 2 outside 1..multiplicity 1"):
        spectra.read_decomposition(bad)
    # one component fewer: the multiplicities no longer cover dim
    cut = [i for i, line in enumerate(lines) if line.startswith("eigenvalue")][-1]
    bad.write_text(_edited(lines[:cut], "components 3", "components 2"))
    with pytest.raises(ConfigError, match="multiplicities sum to 2, header dim is 3"):
        spectra.read_decomposition(bad)
    bad.write_text(_edited(lines, "pndec v2", "pndec v1"))
    with pytest.raises(ConfigError, match="pndec v1"):
        spectra.read_decomposition(bad)


def test_decomposition_round_trip(tmp_path):
    x = synth.block_diag([_jordan(0.5j, 2), _jordan(2.0, 1)])
    dec = spectra.decompose(x)
    path = tmp_path / "dec.txt"
    spectra.write_decomposition(path, dec)
    back = spectra.read_decomposition(path)
    assert back.dim == dec.dim and len(back.components) == len(dec.components)
    for ca, cb in zip(dec.components, back.components):
        assert ca.eigenvalue == cb.eigenvalue
        assert ca.multiplicity == cb.multiplicity and ca.index == cb.index
        assert np.array_equal(ca.projector, cb.projector)
        assert np.array_equal(ca.nilpotent, cb.nilpotent)


def test_zero_matrix_decomposes():
    dec = spectra.decompose(np.zeros((3, 3), dtype=complex))
    assert len(dec.components) == 1
    c = dec.components[0]
    assert c.eigenvalue == 0.0 and c.multiplicity == 3 and c.index == 1
    assert np.linalg.norm(c.projector - np.eye(3), 2) <= 1e-12


def test_resolvent_stacks_screen_on_their_one_factorization(monkeypatch):
    x = _jordan(1.0, 3, 0.5) + np.diag([0.0, 0.0, 0.5])
    contour = spectra.Contour(1.0, 2.0, 32)
    real = linalg.resolvent_at_nodes
    calls = count_factorizations(monkeypatch)
    factored = linalg.resolvent_at_nodes(x, ())
    zs, _, rs = spectra._resolvent_stacks(factored, contour, require_full=True)
    # one Schur form serves both node counts, and its diagonal is the screen
    doubled = rs.at(dataclasses.replace(contour, nodes=64).points())
    assert len(calls) == 1
    assert [zs.size, rs.zs.size, doubled.zs.size] == [32, 32, 64]
    assert rs.q is factored.q and doubled.q is rs.q
    for stack in (rs, doubled):
        assert np.array_equal(stack.dense(), real(x, stack.zs).dense())
    # the same form refuses a circle through an eigenvalue, and one that
    # leaves an eigenvalue outside, before any solve
    monkeypatch.setattr(linalg.NodeResolvents, "_inverses",
                        lambda self, zs: pytest.fail("solved before the screen"))
    with pytest.raises(ContourTooCloseError):
        spectra._resolvent_stacks(factored, spectra.Contour(0.5, 0.5, 32))
    with pytest.raises(PreconditionError, match="enclose the whole spectrum"):
        spectra._resolvent_stacks(factored, spectra.Contour(3.0, 1.0, 32), require_full=True)
    assert len(calls) == 1
