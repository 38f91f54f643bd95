import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tubal import (
    average_rank,
    bcirc,
    complement_indices,
    conj_transpose,
    fold,
    fro_norm,
    identity_tensor,
    is_fdiagonal,
    is_orthogonal,
    restrict,
    tnn,
    tprod,
    truncate,
    tsvd,
    tubal_rank,
    unfold,
)
from tubal.algebra import _fix_phases

from conftest import rand_tensor


def naive_dft_mode3(x):
    """O(n3^2) tube-by-tube DFT, the definitional oracle."""
    n1, n2, n3 = x.shape
    out = np.zeros((n1, n2, n3), dtype=complex)
    for k in range(n3):
        for l in range(n3):
            out[:, :, k] += x[:, :, l] * np.exp(-2j * np.pi * k * l / n3)
    return out


def bcirc_product(a, b):
    return fold(bcirc(a) @ unfold(b), a.shape[2])


# ---------------------------------------------------------------------------
# unfoldings and the block-circulant oracle


def test_unfold_n3_1():
    x = rand_tensor(4, (3, 2, 1))
    assert np.array_equal(unfold(x), x[:, :, 0])


def test_unfold_stacks_slices_in_order():
    x = rand_tensor(5, (2, 2, 2))
    stacked = unfold(x)
    assert stacked.shape == (4, 2)
    assert np.array_equal(stacked[:2], x[:, :, 0])
    assert np.array_equal(stacked[2:], x[:, :, 1])


def test_fold_unfold_bit_exact():
    x = rand_tensor(6, (4, 5, 3))
    assert np.array_equal(fold(unfold(x), 3), x)


def test_fold_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        fold(np.zeros((7, 2)), 3)


def test_bcirc_n3_1():
    x = rand_tensor(7, (3, 4, 1))
    assert np.array_equal(bcirc(x), x[:, :, 0])


def test_bcirc_tube_circulant_layout():
    x = np.zeros((1, 1, 3))
    x[0, 0, :] = [1.0, 2.0, 3.0]
    expected = np.array([[1.0, 3.0, 2.0], [2.0, 1.0, 3.0], [3.0, 2.0, 1.0]])
    assert np.array_equal(bcirc(x), expected)


def test_bcirc_rank_matches_average_rank():
    x = tprod(rand_tensor(8, (5, 2, 3)), rand_tensor(9, (2, 5, 3)))
    svals = np.linalg.svd(bcirc(x), compute_uv=False)
    rank = int(np.count_nonzero(svals > 1e-8 * svals[0]))
    assert average_rank(x) * 3 == rank


# ---------------------------------------------------------------------------
# t-product and transpose


def test_tprod_identity():
    x = rand_tensor(10, (4, 3, 5))
    eye = identity_tensor(4, 5)
    assert np.allclose(tprod(eye, x), x, atol=1e-12)


def test_tprod_tubes_by_hand():
    a = np.zeros((1, 1, 2))
    b = np.zeros((1, 1, 2))
    a[0, 0, :] = [1.0, 2.0]
    b[0, 0, :] = [3.0, 4.0]
    c = tprod(a, b)
    assert np.allclose(c[0, 0, :], [11.0, 10.0])


@pytest.mark.parametrize("seed", range(5))
def test_tprod_matches_bcirc_oracle(seed):
    gen = np.random.default_rng(seed)
    n1, n2, n3, n4 = gen.integers(1, 7, size=4)
    a = gen.standard_normal((n1, n2, n3))
    b = gen.standard_normal((n2, n4, n3))
    fast = tprod(a, b)
    slow = bcirc_product(a, b)
    assert np.max(np.abs(fast - slow)) <= 1e-10 * max(1.0, np.max(np.abs(slow)))


def test_tprod_rejects_mismatch():
    with pytest.raises(ValueError):
        tprod(np.zeros((2, 3, 2)), np.zeros((4, 2, 2)))
    with pytest.raises(ValueError):
        tprod(np.zeros((2, 3, 2)), np.zeros((3, 2, 5)))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    k=st.integers(1, 5),
    inner=st.tuples(st.integers(1, 5), st.integers(1, 5), st.integers(1, 5)),
    n3=st.sampled_from([1, 2, 5, 6]),
    seed=st.integers(0, 2**32 - 1),
)
def test_tprod_stack_rows_equal_single_products(k, inner, n3, seed):
    n1, n2, n4 = inner
    gen = np.random.default_rng(seed)
    a = gen.standard_normal((k, n1, n2, n3))
    b = gen.standard_normal((k, n2, n4, n3))
    out = tprod(a, b)
    assert out.shape == (k, n1, n4, n3)
    for i in range(k):
        assert np.array_equal(out[i], tprod(a[i], b[i]))


@pytest.mark.parametrize(
    "a_shape, b_shape",
    [
        ((2, 3, 2), (2, 3, 4, 2)),
        ((2, 2, 3, 2), (3, 4, 2)),
        ((1, 2, 3, 2), (3, 3, 4, 2)),
        ((2, 2, 3, 2), (2, 4, 4, 2)),
        ((2, 2, 3, 4), (2, 3, 4, 5)),
    ],
    ids=["single-by-stack", "stack-by-single", "k", "inner", "n3"],
)
def test_tprod_rejects_stack_mismatch(a_shape, b_shape):
    # k = 1 against k = 3 would broadcast, and n3 = 4 and 5 share a half
    # spectrum of 3 slices, so the einsum alone would not raise
    with pytest.raises(ValueError):
        tprod(np.zeros(a_shape), np.zeros(b_shape))


def test_conj_transpose_n3_1():
    x = rand_tensor(11, (3, 4, 1))
    assert np.array_equal(conj_transpose(x)[:, :, 0], x[:, :, 0].T)


def test_conj_transpose_involution():
    x = rand_tensor(12, (3, 4, 5))
    assert np.array_equal(conj_transpose(conj_transpose(x)), x)


def test_conj_transpose_reverses_products():
    a = rand_tensor(13, (3, 4, 4))
    b = rand_tensor(14, (4, 2, 4))
    lhs = conj_transpose(tprod(a, b))
    rhs = tprod(conj_transpose(b), conj_transpose(a))
    assert np.max(np.abs(lhs - rhs)) <= 1e-10 * np.max(np.abs(rhs))


def test_identity_tensor_properties():
    eye = identity_tensor(3, 4)
    assert np.array_equal(eye[:, :, 0], np.eye(3))
    assert np.all(eye[:, :, 1:] == 0.0)
    assert np.array_equal(conj_transpose(eye), eye)
    eyef = naive_dft_mode3(eye)
    for k in range(4):
        assert np.allclose(eyef[:, :, k], np.eye(3), atol=1e-12)


# ---------------------------------------------------------------------------
# predicates


def test_is_orthogonal():
    eye = identity_tensor(3, 2)
    assert is_orthogonal(eye, 1e-8)
    assert not is_orthogonal(2.0 * eye, 1e-8)
    f = tsvd(rand_tensor(15, (4, 4, 3)))
    assert is_orthogonal(f.u, 1e-8)
    with pytest.raises(ValueError):
        is_orthogonal(np.zeros((2, 3, 2)))


def test_is_fdiagonal():
    assert is_fdiagonal(np.zeros((3, 4, 2)))
    bad = np.zeros((3, 3, 2))
    bad[0, 1, 1] = 1e-3
    assert not is_fdiagonal(bad, tol=1e-6)
    f = tsvd(rand_tensor(16, (4, 5, 3)))
    assert is_fdiagonal(f.s, tol=1e-12)


# ---------------------------------------------------------------------------
# t-SVD


def test_tsvd_n3_1_matches_matrix_svd():
    x = rand_tensor(17, (5, 4, 1))
    f = tsvd(x)
    svals = np.linalg.svd(x[:, :, 0], compute_uv=False)
    assert np.allclose(f.spectrum, svals, atol=1e-12)
    assert np.max(np.abs(f.compose() - x)) <= 1e-10


def test_tsvd_reconstruction():
    x = rand_tensor(18, (6, 5, 4))
    f = tsvd(x)
    assert fro_norm(f.compose() - x) <= 1e-10 * fro_norm(x)


@pytest.mark.parametrize("shape", [(4, 4, 3), (6, 3, 5), (3, 6, 4), (2, 2, 1)])
def test_tsvd_contract(shape):
    x = rand_tensor(sum(shape), shape)
    f = tsvd(x)
    assert is_orthogonal(f.u, 1e-8)
    assert is_orthogonal(f.v, 1e-8)
    assert is_fdiagonal(f.s, tol=1e-10)
    spec = f.spectrum
    assert np.all(spec >= 0)
    assert np.all(np.diff(spec) <= 1e-12)
    assert fro_norm(f.compose() - x) <= 1e-10 * fro_norm(x)


def test_tsvd_zero_tensor():
    f = tsvd(np.zeros((3, 4, 2)))
    assert np.array_equal(f.u, identity_tensor(3, 2))
    assert np.array_equal(f.v, identity_tensor(4, 2))
    assert np.all(f.s == 0.0)


def test_tsvd_deterministic():
    x = rand_tensor(19, (5, 5, 4))
    f1 = tsvd(x)
    f2 = tsvd(x)
    assert np.array_equal(f1.u, f2.u)
    assert np.array_equal(f1.s, f2.s)
    assert np.array_equal(f1.v, f2.v)


def test_tsvd_spectrum_is_mean_of_slice_svals():
    x = rand_tensor(20, (4, 6, 5))
    xf = np.fft.fft(x, axis=2)
    svals = np.linalg.svd(xf.transpose(2, 0, 1), compute_uv=False)
    assert np.allclose(tsvd(x).spectrum, svals.mean(axis=0), atol=1e-10)


def _fix_phases_loop(u, vt):
    # one slice, one column at a time: the reference for the stacked form
    u, vt = u.copy(), vt.copy()
    k = min(u.shape[1], vt.shape[0])
    for i in range(u.shape[1]):
        piv = u[np.argmax(np.abs(u[:, i])), i]
        c = np.conj(piv) / np.abs(piv)
        u[:, i] = u[:, i] * c
        if i < k:
            vt[i, :] = vt[i, :] * np.conj(c)
    for i in range(k, vt.shape[0]):
        piv = vt[i, np.argmax(np.abs(vt[i, :]))]
        vt[i, :] = vt[i, :] * (np.conj(piv) / np.abs(piv))
    return u, vt


@pytest.mark.parametrize("shape", [(4, 4, 3), (6, 3, 5), (3, 6, 4), (2, 5, 1)])
def test_fix_phases_matches_per_slice_loop(shape):
    xf = np.moveaxis(np.fft.rfft(rand_tensor(sum(shape), shape), axis=2), -1, -3)
    u, _, vt = np.linalg.svd(xf, full_matrices=True)
    fu, fvt = _fix_phases(u, vt)
    for j in range(xf.shape[0]):
        lu, lvt = _fix_phases_loop(u[j], vt[j])
        assert np.array_equal(fu[j], lu)
        assert np.array_equal(fvt[j], lvt)
    piv = np.take_along_axis(fu, np.argmax(np.abs(fu), axis=-2)[..., None, :], axis=-2)
    assert np.all(piv.real > 0.0) and np.all(np.abs(piv.imag) <= 1e-15)


def _orthogonal(n, n3, seed):
    return tsvd(rand_tensor(seed, (n, n, n3))).u


def _repeated_svals(n3):
    # every Fourier slice, the self-conjugate ones included, has the
    # singular values (3, 3, 1)
    d = np.zeros((3, 3, n3))
    d[:, :, 0] = np.diag([3.0, 3.0, 1.0])
    return tprod(tprod(_orthogonal(3, n3, 40), d), conj_transpose(_orthogonal(3, n3, 41)))


@pytest.mark.parametrize("n3", [5, 6])
@pytest.mark.parametrize(
    "build",
    [
        lambda n3: identity_tensor(4, n3),
        lambda n3: np.ones((3, 5, n3)),
        lambda n3: _orthogonal(4, n3, 42),
        _repeated_svals,
    ],
    ids=["identity", "ones", "orthogonal", "repeated-svals"],
)
def test_tsvd_contract_degenerate_spectra(build, n3):
    x = build(n3)
    f = tsvd(x)
    assert is_orthogonal(f.u, 1e-12)
    assert is_orthogonal(f.v, 1e-12)
    assert is_fdiagonal(f.s, tol=1e-12)
    assert fro_norm(f.compose() - x) <= 1e-12 * fro_norm(x)


# ---------------------------------------------------------------------------
# ranks and norms


def test_tubal_rank_zero_and_identity():
    assert tubal_rank(np.zeros((3, 3, 2))) == 0
    assert tubal_rank(identity_tensor(4, 3)) == 4


@pytest.mark.parametrize("seed,r", [(0, 1), (1, 2), (2, 3)])
def test_tubal_rank_of_factor_product(seed, r):
    gen = np.random.default_rng(seed)
    x = tprod(gen.standard_normal((5, r, 4)), gen.standard_normal((r, 5, 4)))
    assert tubal_rank(x) == r
    xf = np.fft.fft(x, axis=2)
    slice_ranks = [np.linalg.matrix_rank(xf[:, :, k], tol=1e-8) for k in range(4)]
    assert max(slice_ranks) == r


def test_average_rank_values():
    assert average_rank(np.zeros((2, 2, 2))) == 0
    assert average_rank(identity_tensor(2, 2)) == 2
    x = tprod(rand_tensor(21, (5, 2, 3)), rand_tensor(22, (2, 5, 3)))
    assert average_rank(x) <= tubal_rank(x)


def test_rank_inequality_on_random_tensors():
    for seed in range(10):
        x = rand_tensor(seed, (4, 5, 3))
        assert average_rank(x) * 3 <= 3 * tubal_rank(x)


def test_tnn_values():
    assert tnn(np.zeros((3, 2, 4))) == 0.0
    assert tnn(identity_tensor(4, 3)) == pytest.approx(4.0, rel=1e-12)


def test_tnn_matches_slicewise_oracle():
    x = rand_tensor(23, (4, 5, 6))
    xf = naive_dft_mode3(x)
    total = sum(np.linalg.svd(xf[:, :, k], compute_uv=False).sum() for k in range(6))
    assert tnn(x) == pytest.approx(total / 6, rel=1e-8)


def test_fro_norm_values():
    assert fro_norm(np.zeros((2, 2, 2))) == 0.0
    assert fro_norm(np.ones((2, 2, 2))) == pytest.approx(np.sqrt(8.0), rel=1e-12)


@pytest.mark.parametrize("norm", [tnn, fro_norm])
def test_norm_axioms(norm):
    for seed in range(5):
        gen = np.random.default_rng(seed)
        a = gen.standard_normal((4, 3, 3))
        b = gen.standard_normal((4, 3, 3))
        alpha = gen.standard_normal()
        assert norm(a + b) <= norm(a) + norm(b) + 1e-10
        assert norm(alpha * a) == pytest.approx(abs(alpha) * norm(a), rel=1e-10, abs=1e-12)


# ---------------------------------------------------------------------------
# truncation and restriction


def test_truncate_extremes():
    x = rand_tensor(24, (4, 4, 3))
    head, tail = truncate(x, 4)
    assert fro_norm(head - x) <= 1e-12 * fro_norm(x)
    assert fro_norm(tail) <= 1e-12 * fro_norm(x)
    head, tail = truncate(x, 0)
    assert np.all(head == 0.0)
    assert np.array_equal(tail, x)
    with pytest.raises(ValueError):
        truncate(x, 5)
    with pytest.raises(ValueError):
        truncate(x, -1)


def test_truncate_rank_bound():
    x = rand_tensor(25, (5, 5, 4))
    head, _ = truncate(x, 2)
    assert tubal_rank(head) <= 2


def test_truncate_beats_random_rank1_competitors():
    x = rand_tensor(26, (4, 4, 3))
    head, tail = truncate(x, 1)
    best = fro_norm(tail)
    gen = np.random.default_rng(260)
    for _ in range(100):
        cand = tprod(gen.standard_normal((4, 1, 3)), gen.standard_normal((1, 4, 3)))
        # optimal rescaling keeps the competitor tubal-rank <= 1
        scale = np.vdot(cand.ravel(), x.ravel()) / np.vdot(cand.ravel(), cand.ravel())
        assert best <= fro_norm(x - scale * cand) + 1e-12
    assert best <= fro_norm(x - head) + 1e-12


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    dims=st.tuples(st.integers(1, 6), st.integers(1, 6)).filter(lambda d: d[0] != d[1]),
    n3=st.sampled_from([1, 2, 5, 6]),
    r_frac=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_truncate_tail_energy_is_discarded_spectrum(dims, n3, r_frac, seed):
    n1, n2 = dims
    r = round(r_frac * min(n1, n2))
    x = np.random.default_rng(seed).standard_normal((n1, n2, n3))
    head, tail = truncate(x, r)
    svals = np.linalg.svd(np.fft.fft(x, axis=2).transpose(2, 0, 1), compute_uv=False)
    discarded = np.sum(svals[:, r:] ** 2)
    assert n3 * fro_norm(tail) ** 2 == pytest.approx(discarded, rel=1e-10, abs=1e-20 * n3 * fro_norm(x) ** 2)
    assert tubal_rank(head) <= r


def test_restrict_full_and_empty():
    x = rand_tensor(27, (4, 5, 3))
    assert fro_norm(restrict(x, range(4)) - x) <= 1e-10 * fro_norm(x)
    assert np.all(restrict(x, []) == 0.0)


def test_restrict_leading_indices_match_truncate():
    x = rand_tensor(28, (5, 4, 3))
    head, _ = truncate(x, 2)
    assert fro_norm(restrict(x, [0, 1]) - head) <= 1e-10 * fro_norm(x)


def test_restrict_partition():
    x = rand_tensor(29, (5, 5, 4))
    for idx in ([0, 2], [1], [0, 1, 2, 3, 4], []):
        comp = complement_indices(idx, 5)
        recon = restrict(x, idx) + restrict(x, comp)
        assert fro_norm(recon - x) <= 1e-10 * fro_norm(x)


def test_restrict_validates_indices():
    x = rand_tensor(30, (3, 3, 2))
    with pytest.raises(ValueError):
        restrict(x, [0, 0])
    with pytest.raises(ValueError):
        restrict(x, [3])
    with pytest.raises(ValueError):
        restrict(x, [-1])
