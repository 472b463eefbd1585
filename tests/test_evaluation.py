import numpy as np
import pytest

from edrisk.evaluation import (
    ConfusionCounts,
    EvalError,
    LengthMismatch,
    SingleClass,
    SubgroupFilter,
    auc,
    confusion,
    evaluate,
    format_report,
    metrics,
    roc_points,
    standard_filters,
    write_report,
)
from edrisk.encode import encode_cohort, fit_stats, raw_width
from edrisk.mlp import Architecture, init
from edrisk.schema import default_spec

from rowwise import to_cohort
from test_encode import random_records

SPEC = default_spec()


def brute_force_auc(probs, labels):
    """O(n_pos * n_neg) pairwise comparison; ties score one half."""
    probs = np.asarray(probs, dtype=np.float64)
    pos = probs[np.asarray(labels) == 1]
    neg = probs[np.asarray(labels) == 0]
    gt = (pos[:, None] > neg[None, :]).sum()
    eq = (pos[:, None] == neg[None, :]).sum()
    return (gt + 0.5 * eq) / (len(pos) * len(neg))


class TestConfusion:
    def test_counts(self):
        probs = np.array([0.9, 0.8, 0.3, 0.2])
        labels = np.array([1, 0, 1, 0])
        c = confusion(probs, labels, 0.5)
        assert (c.tp, c.fp, c.tn, c.fn) == (1, 1, 1, 1)
        assert c.total == 4

    def test_threshold_boundary_predicts_positive(self):
        c = confusion(np.array([0.5]), np.array([1]), 0.5)
        assert c.tp == 1 and c.fn == 0

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            confusion(np.zeros(3), np.zeros(4), 0.5)


class TestMetrics:
    def test_perfect_classifier(self):
        sens, spec, prec = metrics(ConfusionCounts(tp=5, fp=0, tn=5, fn=0))
        assert (sens, spec, prec) == (1.0, 1.0, 1.0)

    def test_zero_denominators_give_none(self):
        sens, spec, prec = metrics(ConfusionCounts(tp=0, fp=0, tn=3, fn=0))
        assert sens is None  # no positives present
        assert prec is None  # no positive predictions
        assert spec == 1.0
        sens, spec, _ = metrics(ConfusionCounts(tp=2, fp=0, tn=0, fn=0))
        assert spec is None  # no negatives present
        assert sens == 1.0

    def test_arithmetic(self):
        sens, spec, prec = metrics(ConfusionCounts(tp=3, fp=1, tn=5, fn=2))
        assert sens == pytest.approx(3 / 5)
        assert spec == pytest.approx(5 / 6)
        assert prec == pytest.approx(3 / 4)


class TestAuc:
    def test_perfect_separation(self):
        assert auc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0
        assert auc([0.9, 0.8, 0.2, 0.1], [0, 0, 1, 1]) == 0.0

    def test_identical_scores_give_half(self):
        assert auc([0.5, 0.5, 0.5, 0.5], [0, 1, 0, 1]) == 0.5

    def test_matches_brute_force_with_ties(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(5, 150))
            # quantized scores guarantee plenty of ties
            probs = rng.integers(0, 8, size=n) / 8.0
            labels = (rng.random(n) < 0.4).astype(np.int64)
            if labels.sum() in (0, n):
                continue
            assert auc(probs, labels) == brute_force_auc(probs, labels)

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(1)
        probs = rng.random(100)
        labels = (rng.random(100) < 0.3).astype(np.int64)
        a = auc(probs, labels)
        b = auc(1.0 / (1.0 + np.exp(-5 * probs)), labels)
        assert a == pytest.approx(b, abs=1e-12)

    def test_single_class_rejected(self):
        with pytest.raises(SingleClass):
            auc([0.1, 0.9], [1, 1])


@pytest.mark.parametrize("score_fn", [auc, roc_points])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_score_rejected(score_fn, bad):
    with pytest.raises(EvalError, match="finite"):
        score_fn([0.2, bad, 0.7, 0.4], [0, 1, 0, 1])


@pytest.mark.parametrize("score_fn", [auc, roc_points])
def test_length_mismatch_rejected(score_fn):
    with pytest.raises(LengthMismatch):
        score_fn([0.2, 0.7, 0.4], [0, 1])


class TestRoc:
    def test_endpoints(self):
        pts = roc_points([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1])
        np.testing.assert_array_equal(pts[0], [0.0, 0.0])
        np.testing.assert_array_equal(pts[-1], [1.0, 1.0])

    def test_monotone(self):
        rng = np.random.default_rng(2)
        probs = rng.integers(0, 10, size=200) / 10.0
        labels = (rng.random(200) < 0.3).astype(np.int64)
        pts = roc_points(probs, labels)
        assert np.all(np.diff(pts[:, 0]) >= 0)
        assert np.all(np.diff(pts[:, 1]) >= 0)

    def test_trapezoid_area_matches_auc(self):
        rng = np.random.default_rng(3)
        probs = rng.integers(0, 12, size=300) / 12.0
        labels = (rng.random(300) < 0.4).astype(np.int64)
        pts = roc_points(probs, labels)
        area = np.trapezoid(pts[:, 1], pts[:, 0])
        assert area == pytest.approx(auc(probs, labels), abs=1e-12)

    def test_tied_scores_match_threshold_count_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            n = int(rng.integers(5, 150))
            probs = rng.integers(0, 8, size=n) / 8.0
            labels = (rng.random(n) < 0.4).astype(np.int64)
            if labels.sum() in (0, n):
                continue
            pos, neg = probs[labels == 1], probs[labels == 0]
            # one point per distinct threshold t, highest first: the share of each class scoring >= t
            oracle = [[0.0, 0.0]] + [
                [(neg >= t).sum() / len(neg), (pos >= t).sum() / len(pos)]
                for t in sorted(set(probs.tolist()), reverse=True)
            ]
            np.testing.assert_array_equal(roc_points(probs, labels), oracle, strict=True)

    def test_one_point_per_distinct_threshold(self):
        pts = roc_points([0.2, 0.2, 0.7, 0.7], [0, 1, 0, 1])
        assert pts.shape == (3, 2)  # (0,0) plus two distinct scores


class TestFilters:
    def _dataset(self, seed=4, n=40):
        rng = np.random.default_rng(seed)
        return encode_cohort(to_cohort(random_records(rng, n)), SPEC)

    def test_all_rows(self):
        ds = self._dataset()
        assert SubgroupFilter.all_rows().mask(ds).all()

    def test_min_visits_one_equals_all(self):
        ds = self._dataset()
        np.testing.assert_array_equal(
            SubgroupFilter.min_visits(1).mask(ds), SubgroupFilter.all_rows().mask(ds)
        )

    def test_min_visits_counts(self):
        ds = self._dataset()
        m = SubgroupFilter.min_visits(3).mask(ds)
        np.testing.assert_array_equal(m, ds.visit_counts >= 3)

    def test_min_visits_nested(self):
        ds = self._dataset()
        m3 = SubgroupFilter.min_visits(3).mask(ds)
        m5 = SubgroupFilter.min_visits(5).mask(ds)
        assert np.all(m3 | ~m5)  # v>=5 is a subset of v>=3

    def test_ccs_filter_uses_history(self):
        from test_schema import make_record

        records = [
            make_record("A", 0, (662,)),
            make_record("A", 1, (5,)),  # 662 only in history
            make_record("B", 0, (5,)),
        ]
        ds = encode_cohort(to_cohort(records), SPEC)
        m = SubgroupFilter.ccs_any({662}).mask(ds)
        np.testing.assert_array_equal(m, [True, True, False])

    def test_ccs_filter_any_of_group(self):
        from test_schema import make_record

        records = [
            make_record("A", 0, (651,)),
            make_record("B", 0, (657,)),
            make_record("C", 0, (5,)),
        ]
        ds = encode_cohort(to_cohort(records), SPEC)
        m = SubgroupFilter.ccs_any({651, 657}).mask(ds)
        np.testing.assert_array_equal(m, [True, True, False])

    def test_standard_filter_set(self):
        labels = [f.label for f in standard_filters()]
        assert labels == [
            "all", "v>=2", "v>=3", "v>=4", "v>=5",
            "ccs 662", "ccs 651/657", "ccs 659", "ccs 660/661",
        ]


class TestEvaluate:
    def _setup(self, seed=5):
        rng = np.random.default_rng(seed)
        ds = encode_cohort(to_cohort(random_records(rng, 60)), SPEC)
        stats = fit_stats(ds.features, ds.column_names)
        model = init(Architecture.named("nn2"), p=stats.p, seed=6)
        return model, ds, stats

    def test_report_structure(self):
        model, ds, stats = self._setup()
        report = evaluate(model, ds, stats, standard_filters(), model_name="nn2")
        assert len(report.results) == 9
        assert report.results[0].rows == ds.n_rows

    def test_filtered_metrics_match_prefiltered_dataset(self):
        model, ds, stats = self._setup()
        filt = SubgroupFilter.min_visits(2)
        full = evaluate(model, ds, stats, [filt])
        sub = evaluate(model, ds.subset(np.flatnonzero(filt.mask(ds))), stats,
                       [SubgroupFilter.all_rows()])
        a, b = full.results[0], sub.results[0]
        assert a.rows == b.rows
        assert a.auc == pytest.approx(b.auc, abs=1e-12)
        assert a.sensitivity == b.sensitivity
        assert a.specificity == b.specificity

    def test_degenerate_filter_absent_metrics(self):
        model, ds, stats = self._setup()
        report = evaluate(model, ds, stats, [SubgroupFilter.min_visits(99)])
        r = report.results[0]
        assert r.rows == 0
        assert r.auc is None and r.sensitivity is None and r.prevalence is None

    def test_prevalence_is_label_mean(self):
        model, ds, stats = self._setup()
        report = evaluate(model, ds, stats, [SubgroupFilter.all_rows()])
        assert report.results[0].prevalence == pytest.approx(ds.labels.mean())

    def test_format_and_write(self, tmp_path):
        model, ds, stats = self._setup()
        report = evaluate(model, ds, stats, standard_filters(), model_name="nn2")
        text = format_report(report)
        assert "nn2" in text and "v>=5" in text
        write_report(report, tmp_path / "r.txt", tmp_path / "r.tsv")
        lines = (tmp_path / "r.tsv").read_text().splitlines()
        assert len(lines) == 10  # header + 9 filters
        assert lines[0].startswith("model\tfilter\trows")
