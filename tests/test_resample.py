import numpy as np
import pytest

from edrisk.resample import (
    DegenerateSplit,
    ResampleError,
    SingleClass,
    balance_bootstrap,
    load_indices,
    save_indices,
    split,
    train_val_split,
)


class TestSplit:
    def test_ten_rows_80_20(self):
        s = split(10, 0.8, seed=0)
        assert len(s.first) == 8
        assert len(s.second) == 2
        combined = np.sort(np.concatenate([s.first, s.second]))
        np.testing.assert_array_equal(combined, np.arange(10))

    def test_floor_convention_study_scale(self):
        s = split(772_923, 0.8, seed=1)
        assert len(s.first) == 618_338  # floor(772923 * 0.8)
        assert len(s.second) == 154_585

    def test_deterministic(self):
        a = split(1000, 0.7, seed=42)
        b = split(1000, 0.7, seed=42)
        np.testing.assert_array_equal(a.first, b.first)
        np.testing.assert_array_equal(a.second, b.second)
        c = split(1000, 0.7, seed=43)
        assert not np.array_equal(a.first, c.first)

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateSplit):
            split(3, 0.1, seed=0)  # first side would be empty
        with pytest.raises(DegenerateSplit):
            split(10, 1.5, seed=0)
        with pytest.raises(DegenerateSplit):
            split(0, 0.8, seed=0)

    def test_is_a_permutation_not_a_prefix(self):
        s = split(1000, 0.5, seed=7)
        assert not np.array_equal(np.sort(s.first), np.arange(500))

    def test_train_val_split_80_20(self):
        s = train_val_split(100, 0.8, seed=0)
        assert (len(s.first), len(s.second)) == (80, 20)
        s = train_val_split(1_217_068, 0.8, seed=0)
        assert (len(s.first), len(s.second)) == (973_654, 243_414)


class TestBalanceBootstrap:
    def test_study_scale_counts(self):
        labels = np.zeros(618_338, dtype=np.int64)
        labels[:9_804] = 1
        plan = balance_bootstrap(labels, seed=0)
        assert len(plan.indices) == 1_217_068  # 2 * 608,534
        resampled = labels[plan.indices]
        assert int(resampled.sum()) == 608_534
        assert int((resampled == 0).sum()) == 608_534

    def test_small_example(self):
        labels = np.array([1, 0, 0, 0])
        plan = balance_bootstrap(labels, seed=5)
        assert len(plan.indices) == 6
        y = labels[plan.indices]
        assert int(y.sum()) == 3

    def test_keeps_every_original_row(self):
        labels = np.array([0, 0, 0, 1, 0, 1, 0, 0])
        plan = balance_bootstrap(labels, seed=9)
        # originals appear as a prefix; extras are minority draws
        np.testing.assert_array_equal(plan.indices[:8], np.arange(8))
        assert np.all(labels[plan.indices[8:]] == 1)

    def test_balanced_input_is_identity(self):
        labels = np.array([0, 1, 0, 1])
        plan = balance_bootstrap(labels, seed=0)
        np.testing.assert_array_equal(plan.indices, np.arange(4))

    def test_single_class_rejected(self):
        with pytest.raises(SingleClass):
            balance_bootstrap(np.zeros(10, dtype=np.int64), seed=0)
        with pytest.raises(SingleClass):
            balance_bootstrap(np.ones(10, dtype=np.int64), seed=0)

    def test_majority_label_can_be_positive(self):
        labels = np.array([1, 1, 1, 1, 0])
        plan = balance_bootstrap(labels, seed=2)
        y = labels[plan.indices]
        assert int((y == 0).sum()) == int((y == 1).sum()) == 4

    def test_draws_uniform_over_minority(self):
        # chi-square check: with 2 minority rows and ~10k draws, each row
        # should receive close to half the draws
        labels = np.zeros(10_004, dtype=np.int64)
        labels[[17, 4_200]] = 1
        plan = balance_bootstrap(labels, seed=123)
        extras = plan.indices[10_004:]
        n = len(extras)
        assert n == 10_002 - 2
        k = int((extras == 17).sum())
        assert k + int((extras == 4_200).sum()) == n
        # 5 sigma band around n/2 for a fair coin
        sd = 0.5 * np.sqrt(n)
        assert abs(k - n / 2) < 5 * sd

    def test_deterministic(self):
        labels = np.array([0] * 50 + [1] * 5)
        a = balance_bootstrap(labels, seed=77)
        b = balance_bootstrap(labels, seed=77)
        np.testing.assert_array_equal(a.indices, b.indices)


class TestIndexIO:
    def test_split_round_trip(self, tmp_path):
        s = split(50, 0.8, seed=4)
        p1, p2 = tmp_path / "a.idx", tmp_path / "b.idx"
        save_indices(s.first, 4, p1)
        save_indices(s.second, 4, p2)
        a, seed_a = load_indices(p1)
        b, _ = load_indices(p2)
        np.testing.assert_array_equal(a, s.first)
        np.testing.assert_array_equal(b, s.second)
        assert seed_a == 4

    @pytest.mark.parametrize(
        "text",
        ["# seed=1\n0\n1.5\n", "# seed=1\n0\nx\n", "# seed=one\n0\n", "# seed=1\n99999999999999999999\n"],
        ids=["float", "word", "bad-seed", "overflow"],
    )
    def test_non_integer_entry_rejected(self, tmp_path, text):
        path = tmp_path / "a.idx"
        path.write_text(text)
        with pytest.raises(ResampleError):
            load_indices(path)

    def test_non_utf8_rejected(self, tmp_path):
        path = tmp_path / "a.idx"
        path.write_bytes(b"# seed=1\n0\n\xff\xfe\n")
        with pytest.raises(ResampleError):
            load_indices(path)

    def test_pipeline_composition_keeps_test_rows_out(self):
        # bootstrap indexes into the pretraining subset only, so no test row
        # can reach the training matrix
        n = 400
        labels = (np.arange(n) % 37 == 0).astype(np.int64)
        s = split(n, 0.8, seed=6)
        plan = balance_bootstrap(labels[s.first], seed=7)
        train_rows = s.first[plan.indices]
        assert set(train_rows.tolist()).isdisjoint(set(s.second.tolist()))
