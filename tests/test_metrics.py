import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jcgraph.metrics import accuracy, ece, f1_scores, loss_gap


def batch(pred_idx, true_idx, c, conf=0.9):
    """(probs, y_true) whose argmax matches pred_idx with the given confidence."""
    n = len(pred_idx)
    probs = np.full((n, c), (1 - conf) / (c - 1)) if c > 1 else np.ones((n, 1))
    probs[np.arange(n), pred_idx] = conf
    return probs, np.asarray(true_idx)


def onehot(ids, c):
    return np.eye(c, dtype=bool)[np.asarray(ids)]


def single_f1(probs, y_true):
    """F1 of a single-label batch: argmax rows against the true classes."""
    c = probs.shape[1]
    return f1_scores(onehot(np.argmax(probs, axis=1), c), onehot(y_true, c))


def reference_f1(pred, truth):
    """Per-class count loop: the formula F1 had before it took indicator matrices."""
    def from_counts(tp, fp, fn):
        denom = 2 * tp + fp + fn
        return 2 * tp / denom if denom > 0 else 0.0

    c = truth.shape[1]
    tp, fp, fn = np.zeros(c), np.zeros(c), np.zeros(c)
    for k in range(c):
        tp[k] = np.sum(pred[:, k] & truth[:, k])
        fp[k] = np.sum(pred[:, k] & ~truth[:, k])
        fn[k] = np.sum(~pred[:, k] & truth[:, k])
    micro = from_counts(tp.sum(), fp.sum(), fn.sum())
    per_class = np.array([from_counts(tp[k], fp[k], fn[k]) for k in range(c)])
    support = truth.sum(axis=0)
    weighted = float((per_class * support).sum() / support.sum()) if support.sum() else 0.0
    return float(micro), float(per_class.mean()), weighted


class TestAccuracy:
    def test_all_correct(self):
        assert accuracy(*batch([0, 1, 2], [0, 1, 2], 3)) == 1.0

    def test_all_wrong(self):
        assert accuracy(*batch([1, 2, 0], [0, 1, 2], 3)) == 0.0

    def test_three_of_four(self):
        assert accuracy(*batch([0, 1, 1, 0], [0, 1, 1, 1], 2)) == 0.75

    def test_tie_breaks_to_lowest_class(self):
        probs = np.full((1, 3), 1 / 3)
        assert accuracy(probs, np.array([0])) == 1.0
        assert accuracy(probs, np.array([2])) == 0.0

    def test_empty(self):
        with pytest.raises(ValueError):
            accuracy(np.zeros((0, 2)), np.zeros(0, dtype=int))

    def test_batch_size_mismatch(self):
        with pytest.raises(ValueError, match="batch size"):
            accuracy(np.zeros((3, 2)), np.zeros(2, dtype=int))


class TestF1:
    def test_perfect(self):
        assert single_f1(*batch([0, 1], [0, 1], 2)) == (1.0, 1.0, 1.0)

    def test_symmetric_confusion(self):
        # confusion [[1,1],[1,1]]: per-class precision = recall = 0.5
        micro, macro, weighted = single_f1(*batch([0, 1, 0, 1], [0, 0, 1, 1], 2))
        assert (micro, macro, weighted) == (0.5, 0.5, 0.5)

    def test_zero_support_class_scores_zero_in_macro(self):
        micro, macro, weighted = single_f1(*batch([0, 0, 0], [0, 0, 0], 2))
        assert micro == 1.0
        assert macro == 0.5
        assert weighted == 1.0

    def test_micro_equals_accuracy(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n, c = int(rng.integers(1, 40)), int(rng.integers(2, 6))
            probs = rng.dirichlet(np.ones(c), size=n)
            y = rng.integers(0, c, n)
            micro, _, _ = single_f1(probs, y)
            assert micro == accuracy(probs, y)

    def test_weighted_equals_macro_for_equal_support(self):
        rng = np.random.default_rng(1)
        y = np.repeat(np.arange(3), 10)
        probs = rng.dirichlet(np.ones(3), size=30)
        _, macro, weighted = single_f1(probs, y)
        assert weighted == pytest.approx(macro)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            f1_scores(np.zeros((2, 3)), np.zeros((2, 2)))

    def test_empty(self):
        with pytest.raises(ValueError, match="empty"):
            f1_scores(np.zeros((0, 2)), np.zeros((0, 2)))

    @settings(max_examples=200)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40), c=st.integers(1, 6),
           multi=st.booleans())
    def test_matches_the_per_class_loop(self, seed, n, c, multi):
        rng = np.random.default_rng(seed)
        if multi:  # per-class probabilities thresholded, 0/1 label rows
            pred = rng.random((n, c)) >= 0.5
            truth = rng.random((n, c)) < rng.random()
        else:  # one-hot argmax rows against one-hot labels
            pred = onehot(np.argmax(rng.dirichlet(np.ones(c), size=n), axis=1), c)
            truth = onehot(rng.integers(0, c, n), c)
        assert f1_scores(pred, truth) == reference_f1(pred, truth)
        assert f1_scores(pred.astype(float), truth.astype(float)) == reference_f1(pred, truth)


class TestMultilabelF1:
    def test_perfect(self):
        y = np.array([[1.0, 0.0], [0.0, 1.0]])
        micro, macro, weighted = f1_scores(y >= 0.5, y)
        assert (micro, macro, weighted) == (1.0, 1.0, 1.0)

    def test_half_right_single_task(self):
        y = np.array([[1.0], [1.0]])
        probs = np.array([[0.9], [0.1]])
        micro, _, _ = f1_scores(probs >= 0.5, y)
        assert micro == pytest.approx(2 / 3)  # tp=1, fn=1

    def test_no_support_weights_zero(self):
        y = np.zeros((2, 2))
        assert f1_scores(np.ones((2, 2)), y) == (0.0, 0.0, 0.0)


class TestEce:
    def test_confident_and_correct(self):
        assert ece(*batch([0, 1], [0, 1], 2, conf=1.0)) == 0.0

    def test_confident_half_right(self):
        b = batch([0, 0, 0, 0], [0, 0, 1, 1], 2, conf=1.0)
        assert ece(*b) == pytest.approx(0.5)

    def test_single_bin_hand_value(self):
        true = [0] * 6 + [1] * 4
        b = batch([0] * 10, true, 2, conf=0.75)
        assert ece(*b) == pytest.approx(abs(0.6 - 0.75))

    def test_range_and_permutation_invariance(self):
        rng = np.random.default_rng(3)
        probs = rng.dirichlet(np.ones(4), size=50)
        y = rng.integers(0, 4, 50)
        v = ece(probs, y)
        assert 0.0 <= v <= 1.0
        perm = rng.permutation(50)
        assert ece(probs[perm], y[perm]) == pytest.approx(v)

    def test_confidence_one_lands_in_last_bin(self):
        b = batch([0], [0], 2, conf=1.0)
        assert ece(*b, bins=10) == 0.0  # would be undefined if 1.0 fell outside


class TestLossGap:
    def test_identical_curves(self):
        assert (loss_gap([1.0, 2.0], [1.0, 2.0]) == 0.0).all()

    def test_hand_normalization(self):
        np.testing.assert_allclose(loss_gap([0, 0, 0], [1, 2, 4]), [0.25, 0.5, 1.0])

    def test_constant_offset(self):
        np.testing.assert_allclose(loss_gap([1, 2, 3], [1.5, 2.5, 3.5]), [1.0, 1.0, 1.0])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            loss_gap([1.0], [1.0, 2.0])


# each contract check's exact message
@pytest.mark.parametrize("call,message", [
    (lambda: ece(np.array([[0.7, 0.3]]), np.array([0]), bins=0), "bins must be >= 1"),
])
def test_contract_messages(call, message):
    with pytest.raises(ValueError) as e:
        call()
    assert str(e.value) == message
