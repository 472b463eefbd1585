import numpy as np
import pytest

from edrisk import schema
from edrisk.encode import (
    EncodedDataset,
    EncodeError,
    TooFewRows,
    WidthMismatch,
    apply_stats,
    encode_cohort,
    feature_names,
    fit_stats,
    load_dataset,
    load_stats,
    raw_width,
    save_dataset,
    save_stats,
)
from edrisk.schema import CATEGORICAL_FIELDS, CCS_SLOT, N_CCS, NUMERIC_FIELDS, default_spec

from test_schema import make_record

SPEC = default_spec()
WIDTH = raw_width(SPEC)
N_NUM = len(NUMERIC_FIELDS)
DIAG_OFF = N_NUM + SPEC.one_hot_width


def visit_diagnosis_vector(record):
    """One-hot union of the visit's CCS codes (duplicates count once)."""
    v = np.zeros(N_CCS)
    v[[CCS_SLOT[c] for c in set(record.ccs_codes)]] = 1.0
    return v


def encode_visit(record, history, prior_visit_count, spec):
    """Oracle for one row of ``encode_cohort``: encode one visit given the
    patient's cumulative diagnosis vector from strictly earlier visits.
    Returns (feature row, updated cumulative vector)."""
    cumulative = history + visit_diagnosis_vector(record)
    row = np.empty(raw_width(spec))
    row[:N_NUM] = [getattr(record, n) for n in NUMERIC_FIELDS]
    off = N_NUM
    for fname in CATEGORICAL_FIELDS:
        w = spec.width(fname)
        row[off : off + w] = 0.0
        row[off + spec.level_index(fname, getattr(record, fname))] = 1.0
        off += w
    row[off : off + N_CCS] = cumulative
    row[off + N_CCS] = prior_visit_count + 1
    return row, cumulative


def random_records(rng, n_patients, max_visits=5, interleave=False):
    records = []
    codes_pool = sorted(schema.VALID_CCS)
    for p in range(n_patients):
        k = int(rng.integers(1, max_visits + 1))
        for j in range(k):
            n_codes = int(rng.integers(1, 8))
            codes = [int(c) for c in rng.choice(codes_pool, size=n_codes)]
            records.append(
                make_record(
                    f"P{p}",
                    j,
                    codes,
                    outcome=int(rng.integers(0, 2)),
                    age=int(rng.integers(10, 20)),
                    sex=f"sex_{rng.integers(0, 4)}",
                    race=f"race_{rng.integers(0, 7)}",
                    zip_code=int(rng.integers(10000, 99999)),
                )
            )
    if interleave:
        perm = rng.permutation(len(records))
        records = [records[i] for i in perm]
    return records


class TestEncodeVisit:
    def test_raw_width(self):
        assert WIDTH == 6 + 122 + 306 + 1 == 435
        assert len(feature_names(SPEC)) == WIDTH

    def test_first_visit_single_code(self):
        rec = make_record(codes=(5,))
        row, cum = encode_visit(rec, np.zeros(N_CCS), 0, SPEC)
        diag = row[DIAG_OFF : DIAG_OFF + N_CCS]
        assert diag[CCS_SLOT[5]] == 1.0
        assert diag.sum() == 1.0
        assert row[-1] == 1.0  # visit counter
        np.testing.assert_array_equal(cum, diag)

    def test_one_hot_blocks_sum_to_one_each(self):
        rec = make_record()
        row, _ = encode_visit(rec, np.zeros(N_CCS), 0, SPEC)
        off = N_NUM
        for fname in CATEGORICAL_FIELDS:
            w = SPEC.width(fname)
            block = row[off : off + w]
            assert block.sum() == 1.0
            assert set(np.unique(block)) <= {0.0, 1.0}
            off += w

    def test_duplicate_codes_in_visit_count_once(self):
        rec = make_record(codes=(7, 7, 7))
        v = visit_diagnosis_vector(rec)
        assert v[CCS_SLOT[7]] == 1.0
        assert v.sum() == 1.0

    def test_cumulative_across_visits(self):
        h0 = np.zeros(N_CCS)
        _, h1 = encode_visit(make_record("A", 0, (5, 9)), h0, 0, SPEC)
        row2, h2 = encode_visit(make_record("A", 1, (9, 12)), h1, 1, SPEC)
        diag = row2[DIAG_OFF : DIAG_OFF + N_CCS]
        assert diag[CCS_SLOT[5]] == 1.0
        assert diag[CCS_SLOT[9]] == 2.0  # repeats across visits accumulate
        assert diag[CCS_SLOT[12]] == 1.0
        assert row2[-1] == 2.0

    def test_numeric_fields_pass_through(self):
        rec = make_record(age=17, zip_code=11733)
        row, _ = encode_visit(rec, np.zeros(N_CCS), 0, SPEC)
        assert row[NUMERIC_FIELDS.index("age")] == 17
        assert row[NUMERIC_FIELDS.index("zip_code")] == 11733


class TestEncodeCohort:
    def test_rows_match_sequential_oracle(self):
        rng = np.random.default_rng(11)
        records = random_records(rng, 40)
        ds = encode_cohort(records, SPEC)
        # oracle: thread encode_visit per patient in visit_seq order,
        # then look rows up by (patient, seq)
        by_patient = {}
        for rec in records:
            by_patient.setdefault(rec.patient_id, []).append(rec)
        oracle = {}
        for pid, recs in by_patient.items():
            recs = sorted(recs, key=lambda r: r.visit_seq)
            h = np.zeros(N_CCS)
            for j, rec in enumerate(recs):
                row, h = encode_visit(rec, h, j, SPEC)
                oracle[(pid, rec.visit_seq)] = row
        for i, rec in enumerate(records):
            np.testing.assert_array_equal(ds.features[i], oracle[(rec.patient_id, rec.visit_seq)])

    def test_interleaved_order_equivalent(self):
        rng = np.random.default_rng(12)
        base = random_records(rng, 30)
        shuffled = [base[i] for i in rng.permutation(len(base))]
        ds_a = encode_cohort(base, SPEC)
        ds_b = encode_cohort(shuffled, SPEC)
        key_a = {(p, int(v)): i for i, (p, v) in enumerate(zip(ds_a.patient_ids, ds_a.visit_counts))}
        for i, (p, v) in enumerate(zip(ds_b.patient_ids, ds_b.visit_counts)):
            j = key_a[(p, int(v))]
            np.testing.assert_array_equal(ds_b.features[i], ds_a.features[j])
            assert ds_b.labels[i] == ds_a.labels[j]

    def test_cumulative_monotone_and_conserved(self):
        rng = np.random.default_rng(13)
        records = random_records(rng, 25)
        ds = encode_cohort(records, SPEC)
        diag = ds.diagnosis_block()
        by_patient = {}
        for i, rec in enumerate(records):
            by_patient.setdefault(rec.patient_id, []).append((rec.visit_seq, i))
        for pid, items in by_patient.items():
            items.sort()
            prev = np.zeros(N_CCS)
            for seq, i in items:
                assert np.all(diag[i] >= prev)  # monotone nondecreasing
                step = diag[i] - prev
                # each visit adds exactly its distinct-code count
                assert step.sum() == len(set(records[i].ccs_codes))
                prev = diag[i]

    def test_visit_counter_column(self):
        records = [make_record("A", j) for j in range(4)]
        ds = encode_cohort(records, SPEC)
        np.testing.assert_array_equal(ds.features[:, -1], [1, 2, 3, 4])
        np.testing.assert_array_equal(ds.visit_counts, [1, 2, 3, 4])

    def test_empty_cohort(self):
        ds = encode_cohort([], SPEC)
        assert ds.n_rows == 0
        assert ds.features.shape == (0, WIDTH)


def _rewrite(path, mutate):
    path.write_text("\n".join(mutate(path.read_text().splitlines())) + "\n")


class TestStats:
    def test_mean_variance_example(self):
        X = np.array([[0.0, 5.0], [2.0, 5.0]])
        stats = fit_stats(X)
        assert stats.means[0] == 1.0
        assert stats.variances[0] == 1.0  # population variance
        assert stats.retained.tolist() == [True, False]
        assert stats.p == 1

    def test_too_few_rows(self):
        with pytest.raises(TooFewRows):
            fit_stats(np.zeros((1, 3)))

    def test_apply_standardizes_training_matrix(self):
        rng = np.random.default_rng(21)
        X = rng.normal(3.0, 2.5, size=(500, 8))
        X[:, 4] = 7.0  # constant column dropped
        stats = fit_stats(X)
        Z = apply_stats(X, stats)
        assert Z.shape == (500, 7)
        assert np.max(np.abs(Z.mean(axis=0))) < 1e-9
        assert np.max(np.abs(Z.var(axis=0) - 1.0)) < 1e-6

    def test_test_rows_use_training_stats(self):
        train = np.array([[0.0, 1.0], [2.0, 3.0]])
        stats = fit_stats(train)
        Z = apply_stats(np.array([[1.0, 2.0]]), stats)
        np.testing.assert_allclose(Z, [[0.0, 0.0]])  # equals training means
        Z2 = apply_stats(np.array([[3.0, 4.0]]), stats)
        np.testing.assert_allclose(Z2, [[2.0, 2.0]])

    def test_width_mismatch(self):
        stats = fit_stats(np.zeros((3, 4)) + np.arange(4))
        with pytest.raises(WidthMismatch):
            apply_stats(np.zeros((2, 5)), stats)

    def test_stats_round_trip(self, tmp_path):
        rng = np.random.default_rng(22)
        stats = fit_stats(rng.normal(size=(50, 6)))
        path = tmp_path / "stats.tsv"
        save_stats(stats, path)
        loaded = load_stats(path)
        np.testing.assert_array_equal(loaded.means, stats.means)
        np.testing.assert_array_equal(loaded.variances, stats.variances)
        np.testing.assert_array_equal(loaded.retained, stats.retained)
        assert loaded.column_names == stats.column_names

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda ls: ls[:1] + [ls[1].rsplit("\t", 1)[0]] + ls[2:],
            lambda ls: ls[:1] + ["c\tx\t1.0\t1"] + ls[2:],
            lambda ls: ls[:1] + ["c\t0.0\tv\t1"] + ls[2:],
            lambda ls: ls[:1] + ["c\t0.0\t1.0\tyes"] + ls[2:],
        ],
        ids=["three-fields", "mean", "variance", "retained"],
    )
    def test_malformed_stats_line_rejected(self, tmp_path, mutate):
        path = tmp_path / "stats.tsv"
        save_stats(fit_stats(np.random.default_rng(23).normal(size=(5, 3))), path)
        _rewrite(path, mutate)
        with pytest.raises(EncodeError, match="line 2"):
            load_stats(path)

    @pytest.mark.parametrize(
        "line",
        ["c\tnan\t1.0\t1", "c\tinf\t1.0\t0", "c\t0.0\t0.0\t1", "c\t0.0\tnan\t1",
         "c\t0.0\tinf\t1", "c\t0.0\t-1.0\t1"],
        ids=["nan-mean", "inf-mean-dropped", "zero-variance", "nan-variance", "inf-variance", "negative-variance"],
    )
    def test_unusable_stats_value_rejected(self, tmp_path, line):
        path = tmp_path / "stats.tsv"
        save_stats(fit_stats(np.random.default_rng(25).normal(size=(5, 3))), path)
        _rewrite(path, lambda ls: ls[:2] + [line] + ls[3:])
        with pytest.raises(EncodeError, match="line 3: column 'c'"):
            load_stats(path)

    def test_zero_variance_of_dropped_column_accepted(self, tmp_path):
        path = tmp_path / "stats.tsv"
        X = np.random.default_rng(26).normal(size=(5, 3))
        X[:, 1] = 4.0
        save_stats(fit_stats(X), path)
        stats = load_stats(path)
        assert stats.variances[1] == 0.0 and not stats.retained[1]

    def test_non_utf8_stats_rejected(self, tmp_path):
        path = tmp_path / "stats.tsv"
        save_stats(fit_stats(np.random.default_rng(24).normal(size=(5, 3))), path)
        path.write_bytes(path.read_bytes().replace(b"col_1", b"col_\xff"))
        with pytest.raises(EncodeError, match="UTF-8"):
            load_stats(path)


class TestDatasetIO:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(31)
        ds = encode_cohort(random_records(rng, 15), SPEC)
        paths = (tmp_path / "d.hdr", tmp_path / "d.f64", tmp_path / "d.meta")
        save_dataset(ds, *paths)
        loaded = load_dataset(*paths)
        np.testing.assert_array_equal(loaded.features, ds.features)
        np.testing.assert_array_equal(loaded.labels, ds.labels)
        np.testing.assert_array_equal(loaded.visit_counts, ds.visit_counts)
        assert loaded.patient_ids == ds.patient_ids
        assert loaded.column_names == ds.column_names

    def test_truncated_matrix_rejected(self, tmp_path):
        rng = np.random.default_rng(32)
        ds = encode_cohort(random_records(rng, 5), SPEC)
        paths = (tmp_path / "d.hdr", tmp_path / "d.f64", tmp_path / "d.meta")
        save_dataset(ds, *paths)
        data = paths[1].read_bytes()
        paths[1].write_bytes(data[:-8])
        with pytest.raises(Exception):
            load_dataset(*paths)

    @pytest.mark.parametrize(
        "which,mutate,message",
        [
            (0, lambda ls: ls[1:], "no rows= line"),
            (0, lambda ls: [ls[0], ls[2]], "no raw_width= line"),
            (0, lambda ls: ls[:2], "no columns= line"),
            (0, lambda ls: ["rows=abc"] + ls[1:], "bad header"),
            (0, lambda ls: [ls[0], "raw_width=1.5", ls[2]], "bad header"),
            (0, lambda ls: ls + ["no equals sign"], "bad header"),
            (0, lambda ls: ["rows=-1", f"raw_width=-{int(ls[0][5:]) * WIDTH}", ls[2]], "negative"),
            (2, lambda ls: ls[:2] + [ls[2].rsplit("\t", 1)[0]] + ls[3:], "line 3"),
            (2, lambda ls: ls[:2] + ["p\tx\t0"] + ls[3:], "line 3"),
            (2, lambda ls: ls[:2] + ["p\t1\t1.0"] + ls[3:], "line 3"),
            (2, lambda ls: ls[:-1], "rows, header says"),
            (2, lambda ls: ls + [ls[-1]], "rows, header says"),
        ],
        ids=[
            "hdr-no-rows", "hdr-no-width", "hdr-no-columns", "hdr-rows-abc", "hdr-width-float",
            "hdr-no-equals", "hdr-negative", "meta-two-fields", "meta-count", "meta-label",
            "meta-short", "meta-long",
        ],
    )
    def test_malformed_header_or_meta_rejected(self, tmp_path, which, mutate, message):
        rng = np.random.default_rng(34)
        paths = (tmp_path / "d.hdr", tmp_path / "d.f64", tmp_path / "d.meta")
        save_dataset(encode_cohort(random_records(rng, 5), SPEC), *paths)
        _rewrite(paths[which], mutate)
        with pytest.raises(EncodeError, match=message):
            load_dataset(*paths)

    @pytest.mark.parametrize("which", [0, 2], ids=["header", "meta"])
    def test_non_utf8_rejected(self, tmp_path, which):
        rng = np.random.default_rng(35)
        paths = (tmp_path / "d.hdr", tmp_path / "d.f64", tmp_path / "d.meta")
        save_dataset(encode_cohort(random_records(rng, 5), SPEC), *paths)
        paths[which].write_bytes(paths[which].read_bytes() + b"\xff\xfe\n")
        with pytest.raises(EncodeError, match="UTF-8"):
            load_dataset(*paths)

    def test_subset(self):
        rng = np.random.default_rng(33)
        ds = encode_cohort(random_records(rng, 10), SPEC)
        idx = np.array([0, 2, 4])
        sub = ds.subset(idx)
        np.testing.assert_array_equal(sub.features, ds.features[idx])
        assert sub.patient_ids == [ds.patient_ids[i] for i in idx]
