"""Score map, Sinkhorn solver, and match extraction tests."""

import itertools
import warnings

import numpy as np
import pytest

from matchreg import matching
from matchreg.errors import ChannelMismatch, NonPositiveLambda
from matchreg.matching import (
    _log_sinkhorn,
    augment_scores,
    extract_matches,
    score_map,
    sinkhorn_backward,
    sinkhorn_log,
)


def plain_sinkhorn(aug, lam, iters):
    """Oracle: the same scaling iteration in ordinary (non-log) arithmetic."""
    m, n = aug.shape[0] - 1, aug.shape[1] - 1
    a = np.ones(m + 1)
    a[m] = n
    b = np.ones(n + 1)
    b[n] = m
    k = np.exp(aug / lam)
    u = np.ones(m + 1)
    for _ in range(iters):
        v = b / (k.T @ u)
        u = a / (k @ v)
    return u[:, None] * k * v[None, :]


# ---------------------------------------------------------------------------
# Score map
# ---------------------------------------------------------------------------

def test_score_map_orthonormal_columns():
    f = np.eye(4)
    np.testing.assert_array_equal(score_map(f, f), np.eye(4))


def test_score_map_zero_source():
    fy = np.random.default_rng(0).standard_normal((6, 5))
    np.testing.assert_array_equal(score_map(np.zeros((6, 3)), fy), np.zeros((3, 5)))


def test_score_map_hand_case():
    fx = np.array([[1.0, 0.0], [0.0, 2.0]])
    fy = np.array([[1.0, 1.0], [1.0, 0.0]])
    np.testing.assert_array_equal(score_map(fx, fy), [[1.0, 1.0], [2.0, 0.0]])


def test_score_map_channel_mismatch():
    with pytest.raises(ChannelMismatch):
        score_map(np.zeros((3, 2)), np.zeros((4, 2)))


# ---------------------------------------------------------------------------
# Augmentation
# ---------------------------------------------------------------------------

def test_augment_one_by_one():
    np.testing.assert_array_equal(
        augment_scores(np.array([[5.0]]), alpha=1.0), [[5.0, 1.0], [1.0, 1.0]]
    )


def test_augment_preserves_interior_bitwise():
    s = np.random.default_rng(1).standard_normal((7, 4))
    aug = augment_scores(s, alpha=2.5)
    np.testing.assert_array_equal(aug[:7, :4], s)
    assert np.all(aug[7, :] == 2.5) and np.all(aug[:, 4] == 2.5)


def test_augment_alpha_zero():
    aug = augment_scores(np.ones((2, 3)), alpha=0.0)
    assert np.all(aug[2, :] == 0) and np.all(aug[:, 3] == 0)


# ---------------------------------------------------------------------------
# Sinkhorn
# ---------------------------------------------------------------------------

def test_sinkhorn_one_by_one_symmetric():
    aug = np.ones((2, 2))  # s = alpha = 1: full symmetry
    p = sinkhorn_log(aug, lam=0.5, iters=50)
    np.testing.assert_allclose(p, 0.5 * np.ones((2, 2)), atol=1e-9)
    np.testing.assert_allclose(p.sum(axis=1), [1.0, 1.0], atol=1e-9)
    np.testing.assert_allclose(p.sum(axis=0), [1.0, 1.0], atol=1e-9)
    oracle = plain_sinkhorn(aug, 0.5, 50)
    np.testing.assert_allclose(p, oracle, atol=1e-12)


def test_sinkhorn_matches_plain_arithmetic_oracle():
    rng = np.random.default_rng(2)
    for _ in range(10):
        m, n = rng.integers(2, 7, 2)
        aug = augment_scores(rng.standard_normal((m, n)), alpha=1.0)
        p = sinkhorn_log(aug, lam=0.7, iters=30)
        oracle = plain_sinkhorn(aug, 0.7, 30)
        np.testing.assert_allclose(p, oracle, rtol=1e-10, atol=1e-12)


def test_sinkhorn_row_sums_exact():
    rng = np.random.default_rng(3)
    for _ in range(5):
        m, n = rng.integers(2, 9, 2)
        aug = augment_scores(rng.standard_normal((m, n)) * 3, alpha=1.0)
        p = sinkhorn_log(aug, lam=0.5, iters=3)
        a = np.ones(m + 1)
        a[m] = n
        assert np.abs(p.sum(axis=1) - a).max() < 1e-12


def test_sinkhorn_low_lambda_recovers_optimal_assignment():
    # scores well above alpha=1 so the optimal transport plan is a full
    # matching; the exhaustive-permutation oracle is then the LP optimum
    hits = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        s = rng.uniform(2.0, 5.0, (4, 4))
        p = sinkhorn_log(augment_scores(s, alpha=1.0), lam=0.01, iters=2000)
        best = max(
            itertools.permutations(range(4)),
            key=lambda perm: sum(s[i, perm[i]] for i in range(4)),
        )
        if tuple(p[:4, :4].argmax(axis=1)) == best:
            hits += 1
    assert hits >= 99


def test_sinkhorn_extreme_scores_stay_finite():
    rng = np.random.default_rng(4)
    aug = augment_scores(rng.uniform(-1e3, 1e3, (6, 5)), alpha=1.0)
    p = sinkhorn_log(aug, lam=1e-2, iters=100)
    assert np.all(np.isfinite(p)) and np.all(p >= 0)


def test_sinkhorn_marginal_convergence_32x24():
    rng = np.random.default_rng(5)
    for _ in range(5):
        aug = augment_scores(rng.standard_normal((32, 24)), alpha=1.0)
        p = sinkhorn_log(aug, lam=0.5, iters=200)
        a = np.ones(33)
        a[32] = 24
        b = np.ones(25)
        b[24] = 32
        assert np.abs(p.sum(axis=1) - a).max() < 1e-6
        assert np.abs(p.sum(axis=0) - b).max() < 1e-6


def test_sinkhorn_column_violation_non_increasing():
    rng = np.random.default_rng(6)
    aug = augment_scores(rng.standard_normal((12, 9)) * 2, alpha=1.0)
    b = np.ones(10)
    b[9] = 12
    violations = []
    for iters in range(10, 210, 10):
        p = sinkhorn_log(aug, lam=0.5, iters=iters)
        violations.append(np.abs(p.sum(axis=0) - b).max())
    diffs = np.diff(violations)
    assert np.all(diffs <= 1e-12)


def test_sinkhorn_shift_invariance():
    rng = np.random.default_rng(7)
    aug = augment_scores(rng.standard_normal((8, 6)), alpha=1.0)
    p0 = sinkhorn_log(aug, lam=0.5, iters=300)
    p1 = sinkhorn_log(aug + 3.7, lam=0.5, iters=300)
    np.testing.assert_allclose(p0, p1, atol=1e-9)


def test_sinkhorn_rejects_bad_lambda():
    with pytest.raises(NonPositiveLambda):
        sinkhorn_log(np.ones((2, 2)), lam=0.0, iters=10)


def test_sinkhorn_backward_matches_fd():
    rng = np.random.default_rng(8)
    s = rng.standard_normal((5, 4))
    w = rng.standard_normal((6, 5))
    lam, iters = 0.5, 20

    def loss(scores):
        return float((w * sinkhorn_log(augment_scores(scores), lam, iters)).sum())

    _, cache = sinkhorn_log(augment_scores(s), lam, iters, return_cache=True)
    d_aug = sinkhorn_backward(cache, w)

    h = 1e-6
    fd = np.zeros_like(s)
    for fi in range(s.size):
        sp = s.copy()
        sp.flat[fi] += h
        sm = s.copy()
        sm.flat[fi] -= h
        fd.flat[fi] = (loss(sp) - loss(sm)) / (2 * h)
    np.testing.assert_allclose(d_aug[:5, :4], fd, rtol=1e-6, atol=1e-9)


# ---------------------------------------------------------------------------
# Scaling domain against the log-domain loop
# ---------------------------------------------------------------------------

def assert_agrees_with_log_domain(aug, lam, iters, rng, grad_scale=1.0):
    """Forward within 1e-12 absolute (1e-14 relative on the outlier-bin
    entries, which hold up to min(M, N) mass and where the log-domain
    exponent itself rounds at about 1e-14 relative); backward to 1e-10 of
    its largest entry."""
    p, cache = sinkhorn_log(aug, lam, iters, return_cache=True)
    ref = _log_sinkhorn(aug, lam, iters)
    np.testing.assert_allclose(p, ref.assignment, rtol=1e-14, atol=1e-12)
    w = rng.standard_normal(aug.shape) * grad_scale
    dz = sinkhorn_backward(cache, w)
    dz_ref = sinkhorn_backward(ref, w)
    assert np.abs(dz - dz_ref).max() <= 1e-10 * np.abs(dz_ref).max()
    return cache


@pytest.mark.parametrize("lam", [0.5, 0.2, 0.01])
@pytest.mark.parametrize("shape", [(5, 4), (129, 113), (1025, 769)])
def test_sinkhorn_scaling_domain_agrees_with_log_domain(shape, lam):
    rng = np.random.default_rng(10)
    aug = augment_scores(rng.standard_normal(shape), alpha=1.0)
    cache = assert_agrees_with_log_domain(aug, lam, 50, rng)
    assert cache.scaled


def test_sinkhorn_guard_edges_agree_with_log_domain():
    # bisect the score scale to where the guard trips; the last input that
    # stays in the scaling domain and the first that falls back both agree,
    # with gradients as large as the guard's headroom allows
    rng = np.random.default_rng(11)
    aug = augment_scores(rng.standard_normal((6, 5)), alpha=1.0)

    def scaled(c):
        return sinkhorn_log(aug * c, 0.01, 50, return_cache=True)[1].scaled

    inside, outside = 1.0, 100.0
    assert scaled(inside) and not scaled(outside)
    while outside - inside > 1e-9 * outside:
        mid = 0.5 * (inside + outside)
        if scaled(mid):
            inside = mid
        else:
            outside = mid
    assert assert_agrees_with_log_domain(aug * inside, 0.01, 50, rng, 1e90).scaled
    assert not assert_agrees_with_log_domain(aug * outside, 0.01, 50, rng, 1e90).scaled


def test_sinkhorn_extreme_scores_fall_back_without_warnings():
    rng = np.random.default_rng(4)
    aug = augment_scores(rng.uniform(-1e3, 1e3, (6, 5)), alpha=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        p, cache = sinkhorn_log(aug, lam=1e-2, iters=100, return_cache=True)
        d_aug = sinkhorn_backward(cache, rng.standard_normal(aug.shape))
    assert not cache.scaled
    ref = _log_sinkhorn(aug, 1e-2, 100)
    np.testing.assert_array_equal(p, ref.assignment)
    assert np.all(np.isfinite(d_aug))


@pytest.mark.parametrize("branch", ["scaling", "log"])
def test_criterion_03_gradients_on_both_branches(branch, monkeypatch):
    from test_acceptance import test_criterion_03_gradient_soundness

    if branch == "log":
        monkeypatch.setattr(matching, "_SCALING_LIMIT", 0.0)
    ran = []
    scaling = matching._scaling_sinkhorn

    def spy(*args):
        cache = scaling(*args)
        ran.append(cache is not None)
        return cache

    monkeypatch.setattr(matching, "_scaling_sinkhorn", spy)
    test_criterion_03_gradient_soundness()
    assert set(ran) == {branch == "scaling"}


# ---------------------------------------------------------------------------
# Match extraction
# ---------------------------------------------------------------------------

def diag_assignment(m, diag=0.9, outlier=0.1):
    p = np.zeros((m + 1, m + 1))
    p[:m, :m] = np.eye(m) * diag
    p[:m, m] = outlier
    p[m, :m] = outlier
    p[m, m] = m - outlier * m
    return p


def test_extract_matches_diagonal():
    matches = extract_matches(diag_assignment(5), tau=0.5)
    assert [(mt.source, mt.target) for mt in matches] == [(i, i) for i in range(5)]
    assert all(mt.weight == 0.9 for mt in matches)


def test_extract_matches_high_threshold_empty():
    assert extract_matches(diag_assignment(5), tau=0.99) == []


def test_extract_matches_outlier_dominance():
    p = diag_assignment(3)
    p[1, :3] = [0.15, 0.05, 0.0]
    p[1, 3] = 0.8
    matches = extract_matches(p, tau=0.1)
    assert [(mt.source, mt.target) for mt in matches] == [(0, 0), (2, 2)]


def test_extract_matches_never_references_bins():
    rng = np.random.default_rng(9)
    p = sinkhorn_log(augment_scores(rng.standard_normal((7, 5)) * 4), lam=0.2, iters=200)
    for mt in extract_matches(p, tau=0.2):
        assert 0 <= mt.source < 7
        assert 0 <= mt.target < 5
