"""Histogram-based CART used by every tree model in the NumPy backend.

Features are pre-binned into at most 32 quantile bins (fitted on the
training matrix), after which split finding is a vectorized cumulative
sum over per-bin class/gradient histograms. Supports:

* weighted Gini classification trees (DecisionTree, RandomForest,
  AdaBoost base learners), and
* second-order "Newton" regression trees on gradient/hessian pairs
  (the XGBoost-lite booster).

At each node the histograms of all candidate features come from one
``np.bincount`` over (feature, bin[, class]) cell codes, not from a loop
over features: one in all for unit-weight Gini trees (the counts are the
histogram), one more for AdaBoost's weights, and one each for gradient,
hessian and count in Newton trees. Each cell still sums its rows in
ascending row order, so the histograms are bit-identical to per-feature
ones, and every later step keeps the per-feature arithmetic. The winner
is the first minimum (maximum) in (candidate, bin) order: ties go to
the first candidate feature (for random forests, ``rng.choice`` order),
then to the lowest bin.

Trees grow depth-first, in preorder, straight into flat
``feat/thr/left/right/value`` arrays (:class:`Tree`). Growth must stay
depth-first: random forests draw each node's feature subset from the
shared ``rng`` when the node is split, so visiting nodes level by level
would reorder the draws and change the forest. Applying a tree is one
gather per level, bounded by the tree's depth.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

N_BINS = 32


class Binner:
    """Quantile binning fitted on train data; maps floats to uint8 bins."""

    def __init__(self, n_bins: int = N_BINS):
        self.n_bins = n_bins
        self.edges_: list[np.ndarray] = []

    def fit(self, X: np.ndarray) -> "Binner":
        self.edges_ = []
        qs = np.linspace(0, 1, self.n_bins + 1)[1:-1]
        for j in range(X.shape[1]):
            col = X[:, j]
            edges = np.unique(np.quantile(col, qs))
            self.edges_.append(edges)
        return self

    def transform(self, X: np.ndarray) -> np.ndarray:
        B = np.empty(X.shape, dtype=np.uint8)
        for j, edges in enumerate(self.edges_):
            B[:, j] = np.searchsorted(edges, X[:, j], side="right")
        return B

    def fit_transform(self, X: np.ndarray) -> np.ndarray:
        return self.fit(X).transform(X)


class Tree(NamedTuple):
    """A fitted tree as flat arrays indexed by node id; the root is 0.

    Internal node ``i`` sends rows with ``B[:, feat[i]] <= thr[i]`` to
    ``left[i]`` and the rest to ``right[i]``. A leaf has ``feat == -1``
    and both children pointing at itself. ``value`` holds every node's
    prediction (leaves are the ones used); ``depth`` is the longest
    root-to-leaf path (0 for a lone leaf).
    """

    feat: np.ndarray
    thr: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    depth: int


def _grow(B: np.ndarray, split) -> Tree:
    """Grow a tree depth-first in preorder.

    ``split(idx, depth)`` returns ``(value, feat, thr)`` for the node
    holding rows ``idx``, with ``feat`` None when the node is a leaf.
    """
    feat: list[int] = []
    thr: list[int] = []
    left: list[int] = []
    right: list[int] = []
    value: list[float] = []
    max_depth = 0

    def grow(idx: np.ndarray, depth: int) -> int:
        nonlocal max_depth
        node = len(value)
        v, f, t = split(idx, depth)
        value.append(v)
        feat.append(-1)
        thr.append(0)
        left.append(node)
        right.append(node)
        if f is None:
            max_depth = max(max_depth, depth)
            return node
        mask = B[idx, f] <= t
        feat[node], thr[node] = f, t
        left[node] = grow(idx[mask], depth + 1)
        right[node] = grow(idx[~mask], depth + 1)
        return node

    grow(np.arange(B.shape[0]), 0)
    return Tree(
        np.array(feat, dtype=np.intp),
        np.array(thr, dtype=np.intp),
        np.array(left, dtype=np.intp),
        np.array(right, dtype=np.intp),
        np.array(value, dtype=np.float64),
        max_depth,
    )


def _cells(B: np.ndarray, n_bins: int) -> np.ndarray:
    """Histogram cell id ``j * n_bins + bin`` of every (row, feature j).

    Computed once per tree. Flattened row-major, a node's cells meet
    their rows in ascending row order, so each ``np.bincount`` cell sums
    exactly the values a per-feature histogram would, in the same order.
    """
    return B + np.arange(B.shape[1]) * n_bins


def _gini_best_split(
    cells: np.ndarray,
    wb: np.ndarray | None,
    idx: np.ndarray,
    features: np.ndarray | None,
    n_bins: int,
    min_leaf: int,
):
    """Best (feature, bin-threshold) by weighted Gini over ``idx`` rows.

    ``cells`` are the class-coded cells ``2 * cell + y`` of every row and
    feature; ``wb`` the weights of the ``idx`` rows, None for unit
    weights, whose histogram is the integer count histogram itself (sums
    of ones are exact, so the Gini arithmetic is unchanged).
    ``features`` lists the candidates in tie-break order, None for all
    features in column order. Returns (score, feat, thr) with score =
    weighted child impurity; feat is None when no valid split exists.
    """
    n, d = idx.size, cells.shape[1]
    if features is None:
        code = cells[idx]
    else:
        code = cells[idx[:, None], features]
    k = code.shape[1]
    code = code.ravel()
    size = d * n_bins * 2
    cnt = np.bincount(code, minlength=size).reshape(d, n_bins, 2)
    if features is not None:
        cnt = cnt[features]
    if wb is None:
        hist = cnt
    else:
        hist = np.bincount(code, np.repeat(wb, k), size).reshape(d, n_bins, 2)
        if features is not None:
            hist = hist[features]
    # Left sides for thr = bin index; the last running sum is the total.
    cum = hist.cumsum(axis=1)
    tot, cum = cum[:, -1], cum[:, :-1]
    w_tot = (tot[:, 0] + tot[:, 1])[:, None]
    wl = cum[..., 0] + cum[..., 1]
    wr = w_tot - wl
    cnt_l = wl if wb is None else (cnt[..., 0] + cnt[..., 1]).cumsum(axis=1)[:, :-1]
    invalid = (cnt_l < min_leaf) | (cnt_l > n - min_leaf) | (wl <= 0) | (wr <= 0)
    with np.errstate(divide="ignore", invalid="ignore"):  # masked below
        q_l = (cum / wl[..., None]) ** 2
        q_r = ((tot[:, None, :] - cum) / wr[..., None]) ** 2
    gini_l = 1.0 - (q_l[..., 0] + q_l[..., 1])
    gini_r = 1.0 - (q_r[..., 0] + q_r[..., 1])
    score = (wl * gini_l + wr * gini_r) / w_tot
    score[invalid] = np.inf
    # Row-major first minimum: the first candidate feature reaching the
    # best score, at its lowest bin.
    j, thr = divmod(int(score.argmin()), n_bins - 1)
    if score[j, thr] == np.inf:
        return (np.inf, None, -1)
    return (float(score[j, thr]), j if features is None else int(features[j]), thr)


def fit_tree_classifier(
    B: np.ndarray,
    y: np.ndarray,
    w: np.ndarray | None = None,
    *,
    max_depth: int = 6,
    min_leaf: int = 2,
    n_bins: int = N_BINS,
    max_features: int | None = None,
    rng: np.random.Generator | None = None,
) -> Tree:
    """Grow a binary-classification CART on pre-binned features.

    Leaves store the weighted probability of class 1. ``max_features``
    (with ``rng``) samples a feature subset per node for random forests.
    """
    y = np.asarray(y, dtype=np.int64)
    unit = w is None
    w = np.ones(y.size, dtype=np.float64) if unit else np.asarray(w, np.float64)
    d = B.shape[1]
    wy = w * y
    cells = _cells(B, n_bins) * 2 + y[:, None]

    def split(idx: np.ndarray, depth: int):
        wb = w[idx]
        w_sum = wb.sum()
        p1 = float(wy[idx].sum() / w_sum) if w_sum > 0 else 0.5
        if depth >= max_depth or idx.size < 2 * min_leaf or p1 in (0.0, 1.0):
            return p1, None, -1
        features = None
        if max_features is not None and max_features < d:
            features = rng.choice(d, size=max_features, replace=False)
        parent = 2.0 * p1 * (1.0 - p1)
        score, feat, thr = _gini_best_split(
            cells, None if unit else wb, idx, features, n_bins, min_leaf
        )
        if feat is None or parent - score < 1e-12:
            return p1, None, -1
        return p1, feat, thr

    return _grow(B, split)


def _newton_best_split(
    cells: np.ndarray,
    gb: np.ndarray,
    hb: np.ndarray,
    idx: np.ndarray,
    G: float,
    H: float,
    lam: float,
    n_bins: int,
    min_leaf: int,
):
    """Best (feature, bin-threshold) by second-order gain over ``idx``,
    whose gradients and hessians are ``gb`` and ``hb``.

    Returns (feat, thr), feat None when no split gains more than 1e-12.
    """
    code = cells[idx]
    n, d = code.shape
    size = d * n_bins
    code = code.ravel()
    GL = np.bincount(code, np.repeat(gb, d), size).reshape(d, n_bins).cumsum(axis=1)[:, :-1]
    HL = np.bincount(code, np.repeat(hb, d), size).reshape(d, n_bins).cumsum(axis=1)[:, :-1]
    cnt_l = np.bincount(code, minlength=size).reshape(d, n_bins).cumsum(axis=1)[:, :-1]
    gain = GL**2 / (HL + lam) + (G - GL) ** 2 / (H - HL + lam) - G * G / (H + lam)
    gain[(cnt_l < min_leaf) | (cnt_l > n - min_leaf)] = -np.inf
    # Row-major first maximum: the first feature reaching the best gain,
    # at its lowest bin.
    f, thr = divmod(int(gain.argmax()), n_bins - 1)
    if not gain[f, thr] > 1e-12:
        return None, -1
    return f, thr


def fit_tree_newton(
    B: np.ndarray,
    grad: np.ndarray,
    hess: np.ndarray,
    *,
    max_depth: int = 4,
    min_leaf: int = 5,
    lam: float = 1.0,
    n_bins: int = N_BINS,
) -> Tree:
    """Grow a regression tree with XGBoost-style second-order leaf values.

    Split gain is the standard 0.5 * (GL^2/(HL+lam) + GR^2/(HR+lam)
    - G^2/(H+lam)); leaf weight is -G/(H+lam).
    """
    cells = _cells(B, n_bins)

    def split(idx: np.ndarray, depth: int):
        gb, hb = grad[idx], hess[idx]
        G = float(gb.sum())
        H = float(hb.sum())
        value = -G / (H + lam)
        if depth >= max_depth or idx.size < 2 * min_leaf:
            return value, None, -1
        feat, thr = _newton_best_split(cells, gb, hb, idx, G, H, lam, n_bins, min_leaf)
        return value, feat, thr

    return _grow(B, split)


def tree_apply(tree: Tree, B: np.ndarray) -> np.ndarray:
    """Vectorized tree evaluation on pre-binned features -> leaf values."""
    rows = np.arange(B.shape[0])
    node = np.zeros(B.shape[0], dtype=np.intp)
    for _ in range(tree.depth):
        go_left = B[rows, tree.feat[node]] <= tree.thr[node]
        node = np.where(go_left, tree.left[node], tree.right[node])
    return tree.value[node]
