"""Test-set evaluation: confusion metrics at a threshold, ROC/AUC, and
cohort filters by minimum visit count or prior CCS diagnosis group.

AUC (the Mann-Whitney statistic, ties get half credit) and the ROC points
come from one sort of the scores into tie groups, O(n log n).  Metrics with
a zero denominator are reported as None, never as 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .encode import EncodedDataset, FeatureStats, apply_stats
from .schema import CCS_SLOT
from .mlp import MLPModel, forward_batch

# Table-style default filter set: whole set, visit-count cuts, and the four
# prior-diagnosis groups (662 self-injury, 651/657 mood and anxiety,
# 659 schizophrenia/psychotic, 660/661 alcohol- and substance-related).
CCS_SELF_INJURY = frozenset({662})
CCS_MOOD_ANXIETY = frozenset({651, 657})
CCS_PSYCHOTIC = frozenset({659})
CCS_SUBSTANCE = frozenset({660, 661})


class EvalError(Exception):
    pass


class LengthMismatch(EvalError):
    pass


class SingleClass(EvalError):
    pass


@dataclass
class ConfusionCounts:
    tp: int
    fp: int
    tn: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


def confusion(probs, labels, threshold: float) -> ConfusionCounts:
    """Predict positive iff prob >= threshold."""
    probs = np.asarray(probs, dtype=np.float64)
    labels = np.asarray(labels)
    if probs.shape != labels.shape:
        raise LengthMismatch(f"{probs.shape} vs {labels.shape}")
    pred = probs >= threshold
    pos = labels == 1
    return ConfusionCounts(
        tp=int(np.sum(pred & pos)),
        fp=int(np.sum(pred & ~pos)),
        tn=int(np.sum(~pred & ~pos)),
        fn=int(np.sum(~pred & pos)),
    )


def metrics(c: ConfusionCounts) -> tuple[float | None, float | None, float | None]:
    """(sensitivity, specificity, precision); None where the ratio is undefined."""
    sens = c.tp / (c.tp + c.fn) if c.tp + c.fn else None
    spec = c.tn / (c.tn + c.fp) if c.tn + c.fp else None
    prec = c.tp / (c.tp + c.fp) if c.tp + c.fp else None
    return sens, spec, prec


def _score_groups(probs, labels, what: str) -> tuple[np.ndarray, np.ndarray]:
    """(positives, negatives) at each distinct score, highest score first."""
    probs = np.asarray(probs, dtype=np.float64)
    labels = np.asarray(labels)
    if probs.shape != labels.shape:
        raise LengthMismatch(f"{probs.shape} vs {labels.shape}")
    if not np.isfinite(probs).all():
        raise EvalError(f"{what} needs finite scores")
    pos = labels == 1
    if pos.all() or not pos.any():
        raise SingleClass(f"{what} needs both classes present")
    distinct, group = np.unique(-probs, return_inverse=True)
    k = len(distinct)
    return np.bincount(group[pos], minlength=k), np.bincount(group[~pos], minlength=k)


def auc(probs, labels) -> float:
    """P(score of a random positive > score of a random negative), ties 1/2."""
    n_pos, n_neg = _score_groups(probs, labels, "AUC")
    size = n_pos + n_neg
    # ascending midrank of each group: every midrank is a half-integer, so the rank sum is exact
    midrank = size.sum() - np.cumsum(size) + (size + 1) / 2.0
    pos, neg = int(n_pos.sum()), int(n_neg.sum())
    return float((n_pos @ midrank - pos * (pos + 1) / 2.0) / (pos * neg))


def roc_points(probs, labels) -> np.ndarray:
    """(FPR, TPR) at every distinct score threshold, endpoints included;
    rows ordered from (0,0) to (1,1)."""
    n_pos, n_neg = _score_groups(probs, labels, "ROC")
    tp, fp = np.cumsum(n_pos), np.cumsum(n_neg)
    return np.vstack([[0.0, 0.0], np.column_stack([fp / fp[-1], tp / tp[-1]])])


@dataclass(frozen=True)
class SubgroupFilter:
    """Pure row predicate over an encoded dataset."""

    kind: str  # "all", "min_visits", "ccs_any"
    n: int = 0
    codes: frozenset[int] = frozenset()
    label: str = ""

    @classmethod
    def all_rows(cls) -> "SubgroupFilter":
        return cls(kind="all", label="all")

    @classmethod
    def min_visits(cls, n: int) -> "SubgroupFilter":
        return cls(kind="min_visits", n=n, label=f"v>={n}")

    @classmethod
    def ccs_any(cls, codes) -> "SubgroupFilter":
        codes = frozenset(int(c) for c in codes)
        return cls(kind="ccs_any", codes=codes, label="ccs " + "/".join(str(c) for c in sorted(codes)))

    def mask(self, ds: EncodedDataset) -> np.ndarray:
        if self.kind == "all":
            return np.ones(ds.n_rows, dtype=bool)
        if self.kind == "min_visits":
            return ds.visit_counts >= self.n
        if self.kind == "ccs_any":
            # cumulative (history-inclusive) diagnosis block, pre-normalization
            cols = [CCS_SLOT[c] for c in sorted(self.codes)]
            return ds.diagnosis_block()[:, cols].sum(axis=1) > 0
        raise EvalError(f"unknown filter kind {self.kind!r}")


def standard_filters() -> list[SubgroupFilter]:
    return (
        [SubgroupFilter.all_rows()]
        + [SubgroupFilter.min_visits(n) for n in (2, 3, 4, 5)]
        + [
            SubgroupFilter.ccs_any(CCS_SELF_INJURY),
            SubgroupFilter.ccs_any(CCS_MOOD_ANXIETY),
            SubgroupFilter.ccs_any(CCS_PSYCHOTIC),
            SubgroupFilter.ccs_any(CCS_SUBSTANCE),
        ]
    )


@dataclass
class FilterResult:
    label: str
    rows: int
    prevalence: float | None
    sensitivity: float | None
    specificity: float | None
    precision: float | None
    auc: float | None
    counts: ConfusionCounts | None
    roc: np.ndarray | None  # (k, 2) of (FPR, TPR), or None when degenerate


@dataclass
class EvalReport:
    model_name: str
    threshold: float
    results: list[FilterResult] = field(default_factory=list)


def check_threshold(threshold: float):
    if not 0.0 <= threshold <= 1.0:
        raise EvalError(f"threshold {threshold} outside [0, 1]")


def evaluate(
    model: MLPModel,
    test_set: EncodedDataset,
    stats: FeatureStats,
    filters: list[SubgroupFilter],
    threshold: float = 0.5,
    model_name: str = "model",
) -> EvalReport:
    """Score every row once, then report metrics per filter.  Degenerate
    filters (empty, or single-class) get absent metrics, not a failure."""
    check_threshold(threshold)
    X = apply_stats(test_set.features, stats)
    with np.errstate(over="ignore", invalid="ignore"):
        probs = forward_batch(model, X)
    if not np.isfinite(probs).all():
        raise EvalError(f"model {model_name} gives a non-finite score on some test rows")
    report = EvalReport(model_name=model_name, threshold=threshold)
    for filt in filters:
        m = filt.mask(test_set)
        rows = int(m.sum())
        if rows == 0:
            report.results.append(
                FilterResult(filt.label, 0, None, None, None, None, None, None, None)
            )
            continue
        p, y = probs[m], test_set.labels[m]
        c = confusion(p, y, threshold)
        sens, spec, prec = metrics(c)
        both_classes = 0 < c.tp + c.fn < rows
        report.results.append(
            FilterResult(
                label=filt.label,
                rows=rows,
                prevalence=(c.tp + c.fn) / rows,
                sensitivity=sens,
                specificity=spec,
                precision=prec,
                auc=auc(p, y) if both_classes else None,
                counts=c,
                roc=roc_points(p, y) if both_classes else None,
            )
        )
    return report


# ---------------------------------------------------------------------------
# report output


def _fmt(x, nd=3):
    return "-" if x is None else f"{x:.{nd}f}"


def format_report(report: EvalReport) -> str:
    lines = [
        f"model={report.model_name} threshold={report.threshold:g}",
        f"{'filter':<14}{'rows':>9}{'prev':>8}{'sens':>7}{'spec':>7}{'prec':>7}{'auc':>7}",
    ]
    for r in report.results:
        lines.append(
            f"{r.label:<14}{r.rows:>9}{_fmt(r.prevalence, 4):>8}"
            f"{_fmt(r.sensitivity):>7}{_fmt(r.specificity):>7}"
            f"{_fmt(r.precision):>7}{_fmt(r.auc):>7}"
        )
    return "\n".join(lines) + "\n"


def write_report(report: EvalReport, table_path, tsv_path):
    with open(table_path, "w", encoding="utf-8") as f:
        f.write(format_report(report))
    with open(tsv_path, "w", encoding="utf-8") as f:
        f.write("model\tfilter\trows\tprevalence\tsensitivity\tspecificity\tprecision\tauc\ttp\tfp\ttn\tfn\n")
        for r in report.results:
            c = r.counts or ConfusionCounts(0, 0, 0, 0)
            f.write(
                f"{report.model_name}\t{r.label}\t{r.rows}\t{_fmt(r.prevalence, 6)}\t"
                f"{_fmt(r.sensitivity, 6)}\t{_fmt(r.specificity, 6)}\t{_fmt(r.precision, 6)}\t"
                f"{_fmt(r.auc, 6)}\t{c.tp}\t{c.fp}\t{c.tn}\t{c.fn}\n"
            )


def write_roc(result: FilterResult, path):
    with open(path, "w", encoding="utf-8") as f:
        f.write("fpr\ttpr\n")
        if result.roc is not None:
            for fpr, tpr in result.roc:
                f.write(f"{float(fpr)!r}\t{float(tpr)!r}\n")
