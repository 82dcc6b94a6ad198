"""Unit tests for the histogram CART substrate."""
import numpy as np
import pytest

from repro.ml.tree import (
    Binner,
    Tree,
    _cells,
    _gini_best_split,
    _newton_best_split,
    fit_tree_classifier,
    fit_tree_newton,
    tree_apply,
)


def _same_tree(a: Tree, b: Tree) -> bool:
    return all(np.array_equal(u, v) for u, v in zip(a, b))


@pytest.fixture
def blobs():
    rng = np.random.default_rng(0)
    n = 400
    X = rng.normal(size=(n, 5))
    y = (X[:, 0] + 0.5 * X[:, 2] > 0).astype(np.int64)
    return X, y


class TestBinner:
    def test_bins_within_range(self, blobs):
        X, _ = blobs
        B = Binner().fit_transform(X)
        assert B.dtype == np.uint8
        assert B.max() < 32

    def test_monotone_binning(self):
        X = np.linspace(0, 1, 100).reshape(-1, 1)
        B = Binner().fit_transform(X)
        assert np.all(np.diff(B[:, 0].astype(int)) >= 0)

    def test_constant_column(self):
        X = np.ones((50, 1))
        B = Binner().fit_transform(X)
        assert np.all(B == B[0, 0])

    def test_transform_unseen_values(self):
        binner = Binner().fit(np.linspace(0, 1, 100).reshape(-1, 1))
        B = binner.transform(np.array([[-10.0], [10.0]]))
        assert B[0, 0] == 0
        assert B[1, 0] == B.max()


class TestClassifierTree:
    def test_fits_separable(self, blobs):
        X, y = blobs
        B = Binner().fit_transform(X)
        tree = fit_tree_classifier(B, y, max_depth=6)
        pred = (tree_apply(tree, B) > 0.5).astype(int)
        assert (pred == y).mean() > 0.9

    def test_depth_limit(self, blobs):
        X, y = blobs
        B = Binner().fit_transform(X)
        tree = fit_tree_classifier(B, y, max_depth=2)
        assert tree.depth <= 2

    def test_pure_node_is_leaf(self):
        B = np.zeros((20, 2), dtype=np.uint8)
        y = np.ones(20, dtype=np.int64)
        tree = fit_tree_classifier(B, y)
        assert tree.feat.tolist() == [-1] and tree.value[0] == 1.0

    def test_sample_weights_steer_split(self):
        # Two candidate splits; weights make the second feature decisive.
        rng = np.random.default_rng(1)
        X = rng.random((200, 2))
        y = (X[:, 1] > 0.5).astype(np.int64)
        w = np.ones(200)
        B = Binner().fit_transform(X)
        tree = fit_tree_classifier(B, y, w, max_depth=1)
        assert tree.feat[0] == 1

    def test_min_leaf_respected(self, blobs):
        X, y = blobs
        B = Binner().fit_transform(X)
        tree = fit_tree_classifier(B, y, max_depth=10, min_leaf=50)

        def smallest_leaf(node, idx):
            if tree.feat[node] == -1:
                return idx.size
            mask = B[idx, tree.feat[node]] <= tree.thr[node]
            return min(
                smallest_leaf(tree.left[node], idx[mask]),
                smallest_leaf(tree.right[node], idx[~mask]),
            )

        assert smallest_leaf(0, np.arange(B.shape[0])) >= 50

    def test_deterministic(self, blobs):
        X, y = blobs
        B = Binner().fit_transform(X)
        t1 = fit_tree_classifier(B, y)
        t2 = fit_tree_classifier(B, y)
        assert _same_tree(t1, t2)

    def test_feature_subsample_uses_rng(self, blobs):
        X, y = blobs
        B = Binner().fit_transform(X)
        t1 = fit_tree_classifier(
            B, y, max_features=2, rng=np.random.default_rng(0)
        )
        t2 = fit_tree_classifier(
            B, y, max_features=2, rng=np.random.default_rng(42)
        )
        assert not _same_tree(t1, t2) or t1.depth == 0


class TestNewtonTree:
    def test_reduces_logloss(self, blobs):
        X, y = blobs
        B = Binner().fit_transform(X)
        p = np.full(y.size, 0.5)
        grad = p - y
        hess = p * (1 - p)
        tree = fit_tree_newton(B, grad, hess, max_depth=3)
        raw = tree_apply(tree, B)
        # Moving along the Newton step must reduce logloss.
        def logloss(f):
            q = 1 / (1 + np.exp(-f))
            return -(y * np.log(q + 1e-12) + (1 - y) * np.log(1 - q + 1e-12)).mean()

        assert logloss(raw) < logloss(np.zeros_like(raw))

    def test_leaf_value_formula(self):
        # Single leaf: value must equal -G/(H+lam).
        B = np.zeros((10, 1), dtype=np.uint8)
        grad = np.full(10, 0.3)
        hess = np.full(10, 0.25)
        tree = fit_tree_newton(B, grad, hess, max_depth=3, lam=1.0)
        assert tree.feat.tolist() == [-1]
        assert tree.value[0] == pytest.approx(-3.0 / 3.5)

    def test_depth_limit(self, blobs):
        X, y = blobs
        B = Binner().fit_transform(X)
        grad = np.random.default_rng(0).normal(size=y.size)
        tree = fit_tree_newton(B, grad, np.ones(y.size), max_depth=2)
        assert tree.depth <= 2


def _loop_gini_split(B, y, w, idx, features, n_bins, min_leaf):
    """Per-feature reference for ``_gini_best_split``."""
    yb, wb, n = y[idx], w[idx], idx.size
    best = (np.inf, None, -1)
    for f in features:
        code = B[idx, f].astype(np.int64) * 2 + yb
        hist = np.bincount(code, weights=wb, minlength=n_bins * 2).reshape(n_bins, 2)
        cnt = np.bincount(B[idx, f].astype(np.int64), minlength=n_bins)
        cum = np.cumsum(hist, axis=0)[:-1]
        cnt_l = np.cumsum(cnt)[:-1]
        tot = hist.sum(axis=0)
        wl = cum.sum(axis=1)
        wr = tot.sum() - wl
        valid = (cnt_l >= min_leaf) & ((n - cnt_l) >= min_leaf) & (wl > 0) & (wr > 0)
        if not valid.any():
            continue
        with np.errstate(divide="ignore", invalid="ignore"):
            gini_l = 1.0 - ((cum / wl[:, None]) ** 2).sum(axis=1)
            gini_r = 1.0 - (((tot[None, :] - cum) / wr[:, None]) ** 2).sum(axis=1)
            score = (wl * gini_l + wr * gini_r) / tot.sum()
        score = np.where(valid, score, np.inf)
        t = int(np.argmin(score))
        if score[t] < best[0]:
            best = (float(score[t]), int(f), t)
    return best


def _loop_newton_split(B, grad, hess, idx, G, H, lam, n_bins, min_leaf):
    """Per-feature reference for ``_newton_best_split``."""
    best = (1e-12, None, -1)
    for f in range(B.shape[1]):
        code = B[idx, f].astype(np.int64)
        GL = np.cumsum(np.bincount(code, weights=grad[idx], minlength=n_bins))[:-1]
        HL = np.cumsum(np.bincount(code, weights=hess[idx], minlength=n_bins))[:-1]
        cnt_l = np.cumsum(np.bincount(code, minlength=n_bins))[:-1]
        valid = (cnt_l >= min_leaf) & ((idx.size - cnt_l) >= min_leaf)
        if not valid.any():
            continue
        gain = GL**2 / (HL + lam) + (G - GL) ** 2 / (H - HL + lam) - G * G / (H + lam)
        gain = np.where(valid, gain, -np.inf)
        t = int(np.argmax(gain))
        if gain[t] > best[0]:
            best = (float(gain[t]), int(f), t)
    return best[1:]


class TestSplitSearchMatchesLoop:
    """The vectorized split search must pick exactly what a per-feature
    loop picks, ties included, on weighted rows and random subsets."""

    @staticmethod
    def _node(seed):
        rng = np.random.default_rng(seed)
        n, d = int(rng.integers(4, 300)), int(rng.integers(1, 9))
        B = rng.integers(0, int(rng.integers(1, 33)), size=(n, d)).astype(np.uint8)
        if d > 2:
            B[:, d - 1] = B[:, 0]  # exact ties between features
        idx = np.sort(rng.choice(n, size=int(rng.integers(2, n + 1)), replace=False))
        return rng, B, idx

    @pytest.mark.parametrize("seed", range(40))
    def test_gini(self, seed):
        rng, B, idx = self._node(seed)
        y = rng.integers(0, 2, size=B.shape[0])
        w = rng.random(B.shape[0]) if seed % 2 else np.ones(B.shape[0])
        d = B.shape[1]
        features = rng.choice(d, size=int(rng.integers(1, d + 1)), replace=False)
        min_leaf = int(rng.choice([1, 2, 5]))
        want = _loop_gini_split(B, y, w, idx, features, 32, min_leaf)
        cells = _cells(B, 32) * 2 + y[:, None]
        wb = w[idx] if seed % 2 else None
        assert _gini_best_split(cells, wb, idx, features, 32, min_leaf) == want
        if features.size == d:  # every feature, in a random order or in column order
            by_column = _loop_gini_split(B, y, w, idx, np.arange(d), 32, min_leaf)
            assert _gini_best_split(cells, wb, idx, None, 32, min_leaf) == by_column

    @pytest.mark.parametrize("seed", range(40))
    def test_newton(self, seed):
        rng, B, idx = self._node(seed)
        grad = rng.normal(size=B.shape[0])
        hess = rng.random(B.shape[0]) + 1e-6
        G, H = float(grad[idx].sum()), float(hess[idx].sum())
        min_leaf = int(rng.choice([1, 5]))
        got = _newton_best_split(_cells(B, 32), grad[idx], hess[idx], idx, G, H, 1.0, 32, min_leaf)
        assert got == _loop_newton_split(B, grad, hess, idx, G, H, 1.0, 32, min_leaf)


class TestApply:
    def test_single_leaf(self):
        tree = Tree(
            feat=np.array([-1]),
            thr=np.array([0]),
            left=np.array([0]),
            right=np.array([0]),
            value=np.array([0.7]),
            depth=0,
        )
        out = tree_apply(tree, np.zeros((5, 3), dtype=np.uint8))
        assert np.allclose(out, 0.7)

    def test_routing(self):
        # Root splits feature 0 at bin 2 into leaf 1 (0.0) and leaf 2 (1.0).
        tree = Tree(
            feat=np.array([0, -1, -1]),
            thr=np.array([2, 0, 0]),
            left=np.array([1, 1, 2]),
            right=np.array([2, 1, 2]),
            value=np.array([0.5, 0.0, 1.0]),
            depth=1,
        )
        B = np.array([[0], [2], [3], [10]], dtype=np.uint8)
        assert tree_apply(tree, B).tolist() == [0.0, 0.0, 1.0, 1.0]

    def test_uneven_depths(self):
        # Leaf 1 sits at depth 1, leaves 3 and 4 at depth 2: rows that
        # reach leaf 1 early must stay there for the remaining round.
        tree = Tree(
            feat=np.array([0, -1, 1, -1, -1]),
            thr=np.array([0, 0, 4, 0, 0]),
            left=np.array([1, 1, 3, 3, 4]),
            right=np.array([2, 1, 4, 3, 4]),
            value=np.array([0.0, 0.1, 0.0, 0.3, 0.4]),
            depth=2,
        )
        B = np.array([[0, 9], [1, 4], [1, 5], [0, 0]], dtype=np.uint8)
        assert tree_apply(tree, B).tolist() == [0.1, 0.3, 0.4, 0.1]
