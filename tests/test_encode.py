import tracemalloc

import numpy as np
import pytest

from edrisk import schema
from edrisk.encode import (
    BLOCK_ROWS,
    EncodedDataset,
    FeatureStats,
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
from edrisk.schema import CATEGORICAL_FIELDS, CCS_SLOT, N_CCS, NUMERIC_FIELDS, CategoricalSpec, default_spec
from edrisk.synth import default_config, generate

from rowwise import encode_records, to_cohort, to_records
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
        row[off + spec.levels[fname].index(getattr(record, fname))] = 1.0
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
        ds = encode_cohort(to_cohort(records), SPEC)
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
        ds_a = encode_cohort(to_cohort(base), SPEC)
        ds_b = encode_cohort(to_cohort(shuffled), SPEC)
        key_a = {(p, int(v)): i for i, (p, v) in enumerate(zip(ds_a.patient_ids, ds_a.visit_counts))}
        for i, (p, v) in enumerate(zip(ds_b.patient_ids, ds_b.visit_counts)):
            j = key_a[(p, int(v))]
            np.testing.assert_array_equal(ds_b.features[i], ds_a.features[j])
            assert ds_b.labels[i] == ds_a.labels[j]

    def test_cumulative_monotone_and_conserved(self):
        rng = np.random.default_rng(13)
        records = random_records(rng, 25)
        ds = encode_cohort(to_cohort(records), SPEC)
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
        ds = encode_cohort(to_cohort(records), SPEC)
        np.testing.assert_array_equal(ds.features[:, -1], [1, 2, 3, 4])
        np.testing.assert_array_equal(ds.visit_counts, [1, 2, 3, 4])

    @pytest.mark.parametrize("interleave", [False, True], ids=["sorted", "interleaved"])
    def test_matches_per_record_encoder(self, interleave):
        records = random_records(np.random.default_rng(14), 60, interleave=interleave)
        ds, oracle = encode_cohort(to_cohort(records), SPEC), encode_records(records, SPEC)
        np.testing.assert_array_equal(ds.features, oracle.features)
        np.testing.assert_array_equal(ds.labels, oracle.labels)
        np.testing.assert_array_equal(ds.visit_counts, oracle.visit_counts)
        assert ds.patient_ids == oracle.patient_ids and ds.column_names == oracle.column_names

    def test_generated_cohort_matches_per_record_encoder(self):
        cohort = generate(default_config(n_patients=1_500, seed=15))
        oracle = encode_records(to_records(cohort), SPEC)
        np.testing.assert_array_equal(encode_cohort(cohort, SPEC).features, oracle.features)

    def test_other_spec_rejected(self):
        levels = {k: list(v) for k, v in SPEC.levels.items()}
        levels["sex"] = levels["sex"][::-1]
        with pytest.raises(EncodeError, match="spec"):
            encode_cohort(to_cohort([make_record()]), CategoricalSpec(levels))

    def test_empty_cohort(self):
        ds = encode_cohort(to_cohort([]), SPEC)
        assert ds.n_rows == 0
        assert ds.features.shape == (0, WIDTH)

    @pytest.mark.parametrize("field", NUMERIC_FIELDS[:1] + NUMERIC_FIELDS[2:] + ["visit_count"])
    def test_value_past_float32_exact_range_rejected(self, field):
        limit = 1 << 24

        def encode(value):
            rec = make_record("B", value - 1) if field == "visit_count" else make_record("B", **{field: value})
            return encode_cohort(to_cohort([make_record("A"), rec]), SPEC)

        column = WIDTH - 1 if field == "visit_count" else NUMERIC_FIELDS.index(field)
        fine, bad = ([limit], [limit + 1]) if field == "visit_count" else (
            [limit, -limit], [limit + 1, -limit - 1, np.iinfo(np.int64).min])
        for value in fine:
            X = encode(value).features
            assert X.dtype == np.float32 and int(X[1, column]) == value
        for value in bad:
            with pytest.raises(EncodeError, match=f"cohort row 1: {field} {value} is beyond"):
                encode(value)


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

    def test_save_refuses_unequal_lengths(self, tmp_path):
        stats = fit_stats(np.random.default_rng(27).normal(size=(5, 3)))
        short = FeatureStats(stats.means, stats.variances, stats.retained, stats.column_names[:2])
        with pytest.raises(EncodeError, match="2 column names for 3 columns"):
            save_stats(short, tmp_path / "stats.tsv")
        short = FeatureStats(stats.means, stats.variances[:2], stats.retained, stats.column_names)
        with pytest.raises(EncodeError):
            save_stats(short, tmp_path / "stats.tsv")

    def test_non_utf8_stats_rejected(self, tmp_path):
        path = tmp_path / "stats.tsv"
        save_stats(fit_stats(np.random.default_rng(24).normal(size=(5, 3))), path)
        path.write_bytes(path.read_bytes().replace(b"col_1", b"col_\xff"))
        with pytest.raises(EncodeError, match="UTF-8"):
            load_stats(path)


def _old_apply(X, stats):
    """The whole-matrix standardisation the block pass replaced."""
    keep = stats.retained
    Z = np.compress(keep, X, axis=1)
    Z -= stats.means[keep]
    Z /= np.sqrt(stats.variances[keep])
    return Z


def _traced_peak(f):
    tracemalloc.start()
    try:
        f()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestBlockedStats:
    """The block passes give the bits of the whole-matrix numpy calls."""

    @staticmethod
    def matrix(n, seed=41):
        rng = np.random.default_rng(seed)
        # non-integer values over several magnitudes: no column sum is exact
        scale = [1e-3, 0.1, 1.0, 3.7, 1e2, 1e4, 1.0]
        X = rng.normal(size=(n, 7)) * scale + [0.0, 0.3, -2.0, 11.0, 0.0, 5e4, 0.0]
        X[:, 6] = 2.5  # constant: dropped
        return X

    @pytest.mark.parametrize("n", [2, BLOCK_ROWS - 1, BLOCK_ROWS, 3 * BLOCK_ROWS + 1])
    def test_whole_matrix_bit_identical(self, n):
        X = self.matrix(n)
        stats = fit_stats(X)
        assert np.array_equal(stats.means, X.mean(axis=0))
        assert np.array_equal(stats.variances, X.var(axis=0))
        assert stats.retained.tolist() == [True] * 6 + [False]
        assert np.array_equal(apply_stats(X, stats), _old_apply(X, stats))

    @pytest.mark.parametrize("n", [2, BLOCK_ROWS - 1, BLOCK_ROWS, 3 * BLOCK_ROWS + 1])
    def test_rows_with_repeats_bit_identical(self, n):
        X = self.matrix(3 * BLOCK_ROWS + 5, seed=42)
        rows = np.random.default_rng(n).integers(0, len(X), size=n)
        rows[-1] = rows[0]
        G = X[rows]
        stats = fit_stats(X, None, rows)
        assert np.array_equal(stats.means, G.mean(axis=0))
        assert np.array_equal(stats.variances, G.var(axis=0))
        assert np.array_equal(apply_stats(X, stats, rows), _old_apply(G, stats))

    def test_rows_none_equals_every_row_in_order(self):
        X = self.matrix(2 * BLOCK_ROWS + 3)
        every = np.arange(len(X))
        a, b = fit_stats(X), fit_stats(X, None, every)
        assert np.array_equal(a.means, b.means) and np.array_equal(a.variances, b.variances)
        assert np.array_equal(apply_stats(X, a), apply_stats(X, a, every))

    def test_negative_zero_column(self):
        X = self.matrix(BLOCK_ROWS + 9)
        X[:, 1] = -0.0
        stats = fit_stats(X)
        assert np.array_equal(stats.means, X.mean(axis=0))
        assert np.array_equal(np.signbit(stats.means), np.signbit(X.mean(axis=0)))
        assert np.array_equal(np.signbit(stats.variances), np.signbit(X.var(axis=0)))
        assert not stats.retained[1]

    def test_empty_rows_standardise_to_empty(self):
        X = self.matrix(10)
        assert apply_stats(X, fit_stats(X), np.array([], dtype=np.int64)).shape == (0, 6)

    def test_too_few_rows_counts_the_rows_given(self):
        with pytest.raises(TooFewRows):
            fit_stats(self.matrix(50), None, [7])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e200], ids=["nan", "inf", "-inf", "overflow"])
    def test_non_finite_stats_rejected(self, bad):
        X = self.matrix(BLOCK_ROWS + 4)
        X[BLOCK_ROWS + 2, 3] = bad
        with pytest.raises(EncodeError, match="column 'col_3'"):
            fit_stats(X)
        fit_stats(X, None, np.arange(BLOCK_ROWS))  # the bad row is not among these

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_standardised_value_rejected(self, bad):
        X = self.matrix(BLOCK_ROWS + 4)
        stats = fit_stats(X)
        X[BLOCK_ROWS + 1, 2] = bad
        with pytest.raises(EncodeError, match=f"row {BLOCK_ROWS + 1} of {BLOCK_ROWS + 4}"):
            apply_stats(X, stats)
        with pytest.raises(EncodeError, match="row 1 of 2"):
            apply_stats(X, stats, [0, BLOCK_ROWS + 1])
        X[BLOCK_ROWS + 1, 6] = bad  # a dropped column is never standardised
        X[BLOCK_ROWS + 1, 2] = 0.0
        assert np.isfinite(apply_stats(X, stats)).all()

    @pytest.mark.parametrize("repeats", [False, True], ids=["all-rows", "rows-with-repeats"])
    def test_float32_matrix_bit_identical_to_its_float64_copy(self, repeats):
        X32 = self.matrix(3 * BLOCK_ROWS + 5, seed=44).astype(np.float32)
        X64 = X32.astype(np.float64)
        rows = np.random.default_rng(45).integers(0, len(X32), size=2 * BLOCK_ROWS + 7) if repeats else None
        a, b = fit_stats(X32, None, rows), fit_stats(X64, None, rows)
        assert a.means.tobytes() == b.means.tobytes() and a.variances.tobytes() == b.variances.tobytes()
        Z = apply_stats(X32, a, rows)
        assert Z.dtype == np.float64 and Z.tobytes() == apply_stats(X64, b, rows).tobytes()

    def test_float32_matrix_is_not_converted_whole(self):
        X = np.random.default_rng(46).integers(0, 4, size=(20_000, WIDTH)).astype(np.float32)
        stats = fit_stats(X)
        assert _traced_peak(lambda: fit_stats(X)) < 4 * (1 << 20)
        assert _traced_peak(lambda: apply_stats(X, stats)) < len(X) * stats.p * 8 + 4 * (1 << 20)

    def test_no_temporary_as_large_as_the_rows(self):
        rng = np.random.default_rng(43)
        X = rng.integers(0, 4, size=(20_000, WIDTH)) * rng.uniform(0.5, 2.0, size=WIDTH)
        rows = rng.permutation(20_000)[:16_000]
        mib = 1 << 20
        stats = fit_stats(X, None, rows)
        assert _traced_peak(lambda: fit_stats(X, None, rows)) < 4 * mib
        out_bytes = len(rows) * stats.p * 8
        assert _traced_peak(lambda: apply_stats(X, stats, rows)) < out_bytes + 4 * mib


class TestDatasetIO:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(31)
        ds = encode_cohort(to_cohort(random_records(rng, 15)), SPEC)
        paths = (tmp_path / "d.hdr", tmp_path / "d.f32", tmp_path / "d.meta")
        save_dataset(ds, *paths)
        assert paths[1].stat().st_size == ds.n_rows * WIDTH * 4
        loaded = load_dataset(*paths)
        assert ds.features.dtype == loaded.features.dtype == np.float32
        np.testing.assert_array_equal(loaded.features, ds.features)
        np.testing.assert_array_equal(loaded.labels, ds.labels)
        np.testing.assert_array_equal(loaded.visit_counts, ds.visit_counts)
        assert loaded.patient_ids == ds.patient_ids
        assert loaded.column_names == ds.column_names

    def test_truncated_matrix_rejected(self, tmp_path):
        rng = np.random.default_rng(32)
        ds = encode_cohort(to_cohort(random_records(rng, 5)), SPEC)
        paths = (tmp_path / "d.hdr", tmp_path / "d.f32", tmp_path / "d.meta")
        save_dataset(ds, *paths)
        data = paths[1].read_bytes()
        for cut in (data[:-4], data[:-1], data + b"\0"):
            paths[1].write_bytes(cut)
            with pytest.raises(EncodeError, match=f"expected {len(data)} for {ds.n_rows} x {WIDTH} float32 values"):
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
            (0, lambda ls: ls[:2] + ["columns="], "0 column names for raw_width"),
            (0, lambda ls: ls[:2] + [ls[2].rsplit(",", 1)[0]], f"{WIDTH - 1} column names for raw_width"),
            (2, lambda ls: ls[:2] + ["p\t1\t2"] + ls[3:], "line 3: label 2 is not 0 or 1"),
            (2, lambda ls: ls[:2] + ["p\t1\t-1"] + ls[3:], "line 3: label -1 is not 0 or 1"),
            (2, lambda ls: ls[:2] + ["p\t0\t0"] + ls[3:], "line 3: visit_count 0 < 1"),
            (2, lambda ls: ls[:3] + ["p\t-1\t1"] + ls[4:], "line 4: visit_count -1 < 1"),
            (2, lambda ls: ls[:-1], "rows, header says"),
            (2, lambda ls: ls + [ls[-1]], "rows, header says"),
        ],
        ids=[
            "hdr-no-rows", "hdr-no-width", "hdr-no-columns", "hdr-rows-abc", "hdr-width-float",
            "hdr-no-equals", "hdr-negative", "meta-two-fields", "meta-count", "meta-label",
            "hdr-no-names", "hdr-name-short", "meta-label-2", "meta-label-neg", "meta-count-0",
            "meta-count-neg", "meta-short", "meta-long",
        ],
    )
    def test_malformed_header_or_meta_rejected(self, tmp_path, which, mutate, message):
        rng = np.random.default_rng(34)
        paths = (tmp_path / "d.hdr", tmp_path / "d.f32", tmp_path / "d.meta")
        save_dataset(encode_cohort(to_cohort(random_records(rng, 5)), SPEC), *paths)
        _rewrite(paths[which], mutate)
        with pytest.raises(EncodeError, match=message):
            load_dataset(*paths)

    @pytest.mark.parametrize("which", [0, 2], ids=["header", "meta"])
    def test_non_utf8_rejected(self, tmp_path, which):
        rng = np.random.default_rng(35)
        paths = (tmp_path / "d.hdr", tmp_path / "d.f32", tmp_path / "d.meta")
        save_dataset(encode_cohort(to_cohort(random_records(rng, 5)), SPEC), *paths)
        paths[which].write_bytes(paths[which].read_bytes() + b"\xff\xfe\n")
        with pytest.raises(EncodeError, match="UTF-8"):
            load_dataset(*paths)

    def test_subset(self):
        rng = np.random.default_rng(33)
        ds = encode_cohort(to_cohort(random_records(rng, 10)), SPEC)
        idx = np.array([0, 2, 4])
        sub = ds.subset(idx)
        np.testing.assert_array_equal(sub.features, ds.features[idx])
        assert sub.patient_ids == [ds.patient_ids[i] for i in idx]
