"""Accuracy, F1 variants, expected calibration error, and loss-gap curves."""

from __future__ import annotations

import numpy as np

__all__ = [
    "accuracy",
    "f1_scores",
    "ece",
    "loss_gap",
]


def _check(probs, y_true) -> None:
    if probs.ndim != 2 or probs.shape[0] != y_true.shape[0]:
        raise ValueError("probs and y_true disagree on batch size")
    if y_true.size == 0:
        raise ValueError("empty batch")


def accuracy(probs: np.ndarray, y_true: np.ndarray) -> float:
    """Fraction of argmax matches (ties go to the lowest class index)."""
    _check(probs, y_true)
    return float((np.argmax(probs, axis=1) == y_true).mean())


def _f1_from_counts(tp, fp, fn):
    denom = 2 * tp + fp + fn
    return 2 * tp / denom if denom > 0 else 0.0


def f1_scores(pred: np.ndarray, truth: np.ndarray) -> tuple[float, float, float]:
    """(micro, macro, weighted) F1 from 0/1 indicator matrices, one column per class.

    Single-label rows are one-hot (pred the argmax); multi-label columns are
    binary tasks. Macro averages over all classes; a class with zero support
    contributes 0. Weighted weights each class F1 by its support (0 when no
    class has any).
    """
    pred, truth = np.asarray(pred, dtype=bool), np.asarray(truth, dtype=bool)
    if pred.shape != truth.shape:
        raise ValueError(f"pred has shape {pred.shape}, truth {truth.shape}")
    _check(pred, truth)
    tp = (pred & truth).sum(axis=0).astype(float)
    fp = (pred & ~truth).sum(axis=0).astype(float)
    fn = (~pred & truth).sum(axis=0).astype(float)
    micro = _f1_from_counts(tp.sum(), fp.sum(), fn.sum())
    per_class = np.array([_f1_from_counts(*counts) for counts in zip(tp, fp, fn)])
    support = truth.sum(axis=0)
    weighted = float((per_class * support).sum() / support.sum()) if support.sum() else 0.0
    return float(micro), float(per_class.mean()), weighted


def ece(probs: np.ndarray, y_true: np.ndarray, bins: int = 10) -> float:
    """Expected calibration error over equal-width right-inclusive bins on (0, 1]."""
    _check(probs, y_true)
    if bins < 1:
        raise ValueError("bins must be >= 1")
    conf = probs.max(axis=1)
    correct = (np.argmax(probs, axis=1) == y_true).astype(np.float64)
    idx = np.ceil(conf * bins).astype(np.int64) - 1
    idx = np.clip(idx, 0, bins - 1)
    n = conf.size
    total = 0.0
    for b in range(bins):
        members = idx == b
        cnt = members.sum()
        if cnt == 0:
            continue
        total += (cnt / n) * abs(correct[members].mean() - conf[members].mean())
    return float(total)


def loss_gap(train_curve, test_curve) -> np.ndarray:
    """Per-epoch (test - train) loss gap, scaled by its own max absolute value."""
    train_curve = np.asarray(train_curve, dtype=np.float64)
    test_curve = np.asarray(test_curve, dtype=np.float64)
    if train_curve.shape != test_curve.shape:
        raise ValueError("curve length mismatch")
    gap = test_curve - train_curve
    peak = np.abs(gap).max() if gap.size else 0.0
    if peak == 0.0:
        return np.zeros_like(gap)
    return gap / peak
