"""Score maps, outlier-bin augmentation, Sinkhorn assignment, match extraction.

The augmented (M+1) x (N+1) score matrix carries a constant ``alpha`` in its
outlier row/column. The assignment solves entropy-regularized transport with
reward kernel exp(score / lambda) under marginals a = [1,...,1, N] and
b = [1,...,1, M]: every interior point carries unit mass and each bin absorbs
the other side's total. Iterations run in the scaling domain: K =
exp(z - max z) is formed once and each iteration is a column scaling
v = b / (K^T u) followed by a row scaling u = a / (K v), so returned row sums
are exact. A guard on the size of the scaling vectors catches exp under-
and overflow; when it trips, the same iteration runs on log potentials
(log-sum-exp) instead. The unrolled iterations are differentiable;
``sinkhorn_backward`` reverse-propagates through the recorded scaling
vectors or potentials, whichever the forward produced.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, TypeAlias

import numpy as np
from numpy.typing import NDArray

from .errors import ChannelMismatch, NonPositiveLambda

ScoreMap: TypeAlias = NDArray[np.float64]  # (M, N)

DEFAULT_ALPHA = 1.0
DEFAULT_LAMBDA = 0.5
DEFAULT_SINKHORN_ITERS = 50
DEFAULT_MATCH_THRESHOLD = 0.5


class Match(NamedTuple):
    source: int
    target: int
    weight: float


def score_map(f_x, f_y) -> ScoreMap:
    """Pairwise inner products of descriptor columns: S[i, j] = <f_x_i, f_y_j>."""
    fx = np.asarray(f_x, dtype=np.float64)
    fy = np.asarray(f_y, dtype=np.float64)
    if fx.shape[0] != fy.shape[0]:
        raise ChannelMismatch(f"descriptor widths differ: {fx.shape[0]} vs {fy.shape[0]}")
    return fx.T @ fy


def augment_scores(scores: ScoreMap, alpha: float = DEFAULT_ALPHA) -> NDArray[np.float64]:
    """Append an outlier row and column holding the constant ``alpha``."""
    s = np.asarray(scores, dtype=np.float64)
    m, n = s.shape
    out = np.full((m + 1, n + 1), float(alpha))
    out[:m, :n] = s
    return out


def _marginals(m: int, n: int) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    a = np.ones(m + 1)
    a[m] = n
    b = np.ones(n + 1)
    b[n] = m
    return a, b


# The scaling-domain iteration is kept only when max(u) * max(v) over all
# iterations is at most this. The backward forms u_i v_j times gradients
# before K_ij scales the product back down to assignment size, so the bound
# leaves 100 orders of magnitude below overflow for the gradients, and where
# K underflows the mass lost is below max(u) * max(v) * tiny < 1e-99. Since
# u_0 = 1 and v_0 = b / (K^T 1) >= 1 / (M + 1), the bound also keeps every
# u, v, K^T u and K v within [1e-289, 1e289] for M, N below 1e40, so all are
# finite, positive and normal; NaN and overflow fail the comparison. Inputs
# like criterion 2's (lambda = 0.01 over scores 1 to 5) reach about 1e199.
_SCALING_LIMIT = np.finfo(np.float64).max * 1e-100


def _logsumexp(z: NDArray[np.float64], axis: int) -> NDArray[np.float64]:
    zmax = z.max(axis=axis, keepdims=True)
    return np.squeeze(zmax, axis=axis) + np.log(np.exp(z - zmax).sum(axis=axis))


@dataclass
class SinkhornCache:
    """What ``sinkhorn_backward`` needs from one forward call.

    ``scaled`` records which iteration ran. In the scaling domain ``kernel``
    is K = exp(z - max z) and ``rows``/``cols`` hold the scaling vectors u_t
    and v_t. After the log-domain fallback ``kernel`` is z itself and they
    hold the potentials f_t = log u_t and g_t = log v_t - max z.
    """

    scaled: bool
    kernel: NDArray[np.float64]
    lam: float
    a: NDArray[np.float64]                # row marginals [1, ..., 1, N]
    b: NDArray[np.float64]                # column marginals [1, ..., 1, M]
    rows: NDArray[np.float64]             # (T + 1, M + 1); rows[0] is u_0 = 1 (f_0 = 0)
    cols: NDArray[np.float64]             # (T, N + 1)
    assignment: NDArray[np.float64]


def _scaling_sinkhorn(s, lam: float, iters: int) -> SinkhornCache | None:
    """Sinkhorn on K = exp(z - max z) with two matrix-vector products per
    iteration; None when exp under- or overflows too far for it."""
    m, n = s.shape[0] - 1, s.shape[1] - 1
    a, b = _marginals(m, n)
    rows = np.empty((iters + 1, m + 1))
    rows[0] = 1.0
    cols = np.empty((iters, n + 1))
    # Extreme inputs overflow or divide by zero here; the guard below
    # rejects those results instead of warning about them.
    with np.errstate(all="ignore"):
        k = s / lam
        k -= k.max()
        np.exp(k, out=k)
        for t in range(iters):
            np.divide(b, rows[t] @ k, out=cols[t])
            np.divide(a, k @ cols[t], out=rows[t + 1])
        if not rows.max() * cols.max() <= _SCALING_LIMIT:
            return None
    p = rows[-1][:, None] * k
    p *= cols[-1]
    return SinkhornCache(
        scaled=True, kernel=k, lam=lam, a=a, b=b, rows=rows, cols=cols, assignment=p,
    )


def _log_sinkhorn(s, lam: float, iters: int) -> SinkhornCache:
    """The same iteration on log potentials, with two log-sum-exps per step."""
    m, n = s.shape[0] - 1, s.shape[1] - 1
    a, b = _marginals(m, n)
    log_a, log_b = np.log(a), np.log(b)
    z = s / lam
    rows = np.zeros((iters + 1, m + 1))
    cols = np.empty((iters, n + 1))
    for t in range(iters):
        cols[t] = log_b - _logsumexp(z + rows[t][:, None], axis=0)
        rows[t + 1] = log_a - _logsumexp(z + cols[t][None, :], axis=1)
    p = np.exp(z + rows[-1][:, None] + cols[-1][None, :])
    return SinkhornCache(
        scaled=False, kernel=z, lam=lam, a=a, b=b, rows=rows, cols=cols, assignment=p,
    )


def sinkhorn_log(
    aug_scores: NDArray[np.float64],
    lam: float = DEFAULT_LAMBDA,
    iters: int = DEFAULT_SINKHORN_ITERS,
    return_cache: bool = False,
):
    """Entropy-regularized soft assignment of the augmented score matrix.

    Higher score means more transported mass. Each iteration is a column
    scaling v = b / (K^T u) followed by a row scaling u = a / (K v) on
    K = exp(z - max z), z = scores / lambda; the result is
    u[:, None] * K * v[None, :]. This is the log-domain iteration with
    u = exp(f) and v = exp(g + max z). When exp under- or overflows too far
    for that (see ``_SCALING_LIMIT``), the log-domain loop runs instead.
    Finishing on the row scaling makes the row marginals exact; column
    marginals converge with iterations.
    """
    if lam <= 0:
        raise NonPositiveLambda(f"lambda must be positive, got {lam}")
    if iters < 1:
        raise ValueError("iters must be >= 1")
    s = np.asarray(aug_scores, dtype=np.float64)
    m, n = s.shape[0] - 1, s.shape[1] - 1
    if m < 1 or n < 1:
        raise ValueError("augmented scores must be at least 2 x 2")
    cache = _scaling_sinkhorn(s, lam, iters) or _log_sinkhorn(s, lam, iters)
    if not return_cache:
        return cache.assignment
    return cache.assignment, cache


def sinkhorn_backward(cache: SinkhornCache, d_p: NDArray[np.float64]) -> NDArray[np.float64]:
    """Gradient of a scalar loss wrt the augmented scores, given dL/dP.

    Walks the recorded iterations backwards in whichever domain the forward
    ran. Each step's local Jacobian is a row- or column-normalised
    diag(.) K diag(.), so the scaling-domain walk takes two matrix-vector
    products per step and collects its 2T factors in A and B; one product
    then gives dz = (w - K * (A B^T)) / lambda, w = dL/dP * P.
    """
    w = np.asarray(d_p) * cache.assignment
    if cache.scaled:
        dz = _scaling_backward(cache, w)
    else:
        dz = _log_backward(cache, w)
    return dz / cache.lam


def _scaling_backward(cache: SinkhornCache, w: NDArray[np.float64]) -> NDArray[np.float64]:
    # Step t's local Jacobians are diag(u_{t+1} / a) K diag(v_t) for the row
    # scaling and diag(u_t) K diag(v_t / b) for the column scaling, so dz
    # collects K * (alpha_t v_t^T + u_t gamma_t^T) with
    #   alpha_t = df_t * u_{t+1} / a,  gamma_t = (dg_t - v_t * K^T alpha_t) * v_t / b,
    #   df_{t-1} = -u_t * K gamma_t,   dg_{t-1} = 0.
    # Products are formed in place, one factor at a time: u_t and v_t may be
    # large, and only their products with K-weighted sums stay bounded.
    k, u, v = cache.kernel, cache.rows, cache.cols
    iters = len(v)
    neg_row = u[1:] / -cache.a     # -u_{t+1} / a
    neg_col = v / -cache.b         # -v_t / b
    alpha = np.empty((iters, u.shape[1]))
    gamma = np.empty((iters, v.shape[1]))
    np.multiply(w.sum(axis=1), u[-1] / cache.a, out=alpha[-1])
    for t in range(iters - 1, -1, -1):
        g = gamma[t]
        np.matmul(alpha[t], k, out=g)
        g *= v[t]
        if t == iters - 1:
            g -= w.sum(axis=0)
        g *= neg_col[t]
        if t:
            prev = alpha[t - 1]
            np.matmul(k, g, out=prev)
            prev *= u[t]
            prev *= neg_row[t - 1]
    factors = np.concatenate([alpha, u[:-1]]).T @ np.concatenate([v, gamma])
    return w - k * factors


def _log_backward(cache: SinkhornCache, w: NDArray[np.float64]) -> NDArray[np.float64]:
    # each log-sum-exp step contributes its softmax as a local Jacobian
    z = cache.kernel
    dz = w.copy()
    df = w.sum(axis=1)
    dg = w.sum(axis=0)

    for t in range(len(cache.cols) - 1, -1, -1):
        g_t = cache.cols[t]
        f_prev = cache.rows[t]
        # f_t = log_a - lse_j(z + g_t): row softmax
        row = z + g_t[None, :]
        row -= row.max(axis=1, keepdims=True)
        row_soft = np.exp(row)
        row_soft /= row_soft.sum(axis=1, keepdims=True)
        contrib = df[:, None] * row_soft
        dz -= contrib
        dg = dg - contrib.sum(axis=0)
        # g_t = log_b - lse_i(z + f_{t-1}): column softmax
        col = z + f_prev[:, None]
        col -= col.max(axis=0, keepdims=True)
        col_soft = np.exp(col)
        col_soft /= col_soft.sum(axis=0, keepdims=True)
        contrib = col_soft * dg[None, :]
        dz -= contrib
        df = -contrib.sum(axis=1)
        dg = np.zeros_like(dg)

    return dz


def extract_matches(
    assignment: NDArray[np.float64],
    tau: float = DEFAULT_MATCH_THRESHOLD,
) -> list[Match]:
    """Hard matches from the soft assignment.

    Per interior source row, take the best interior column; keep it only if
    its mass reaches ``tau`` and beats the row's outlier bin. Ties resolve
    to the lowest column index.
    """
    if not 0.0 < tau < 1.0:
        raise ValueError(f"tau must be in (0, 1), got {tau}")
    p = np.asarray(assignment, dtype=np.float64)
    m, n = p.shape[0] - 1, p.shape[1] - 1
    interior = p[:m, :n]
    best_j = interior.argmax(axis=1)
    weights = interior[np.arange(m), best_j]
    outlier = p[:m, n]
    keep = (weights >= tau) & (weights > outlier)
    return [
        Match(int(i), int(best_j[i]), float(weights[i]))
        for i in np.nonzero(keep)[0]
    ]
