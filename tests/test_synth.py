import math
from dataclasses import replace

import numpy as np
import pytest

from edrisk.schema import CATEGORICAL_FIELDS, NUMERIC_FIELDS, check_cohort, default_spec, validate_cohort
from edrisk.synth import (
    ALL_CCS,
    DEFAULT_TARGETS,
    RISK_GROUPS,
    InvalidConfig,
    SynthConfig,
    _draw_visit_counts,
    _sigmoid,
    default_config,
    generate,
    measure_prevalences,
    outcome_logit,
)

from calibration import Unachievable, _prevalences, _simulate_structure, calibrate
from rowwise import VisitRecord, to_cohort, to_records

SPEC = default_spec()


def logit(p):
    return math.log(p / (1 - p))


def _reference_generate(cfg, spec=None):
    """The original one-draw-per-field patient loop: the oracle for the
    per-patient stream contract that ``generate`` documents.  Returns one
    ``VisitRecord`` per visit."""
    cfg.validate()
    if spec is None:
        spec = default_spec()
    boosted = np.array(cfg.boosted_codes, dtype=np.int64)
    qvec = np.array([cfg.carrier_prob.get(int(c), 0.0) for c in boosted])
    background = np.array(sorted(set(ALL_CCS.tolist()) - set(boosted.tolist())), dtype=np.int64)
    records: list[VisitRecord] = []
    cat_levels = {name: spec.levels[name] for name in CATEGORICAL_FIELDS}
    for i in range(cfg.n_patients):
        rng = np.random.default_rng([cfg.seed, i])
        k = int(_draw_visit_counts(rng, cfg, 1)[0])
        age = int(rng.integers(10, 20))
        zip_code = int(rng.integers(90000, 96200))
        county = int(rng.integers(1, 59))
        years = np.sort(rng.integers(2006, 2010, size=k))
        carried = boosted[rng.random(len(boosted)) < qvec]
        n_bg = 1 + rng.binomial(6, cfg.extra_code_prob, size=k)
        bg_codes = background[rng.integers(0, len(background), size=int(n_bg.sum()))]
        cat_draws = {name: rng.integers(0, len(lv), size=k) for name, lv in cat_levels.items()}
        facilities = rng.integers(1, 401, size=k)

        visit_codes = []
        appeared: set[int] = set()
        pos = 0
        for j in range(k):
            included = carried[rng.random(len(carried)) < cfg.repeat_prob] if len(carried) else carried
            codes = [int(c) for c in included]
            appeared.update(codes)
            codes += [int(c) for c in bg_codes[pos : pos + n_bg[j]]]
            pos += n_bg[j]
            visit_codes.append(codes[:7])
        p_out = _sigmoid(outcome_logit(cfg, appeared, k))
        y = int(rng.random() < p_out)

        pid = f"P{i:07d}"
        for j in range(k):
            records.append(
                VisitRecord(
                    patient_id=pid,
                    visit_seq=j,
                    year=int(years[j]),
                    age=age,
                    zip_code=zip_code,
                    patient_county=county,
                    facility_id=int(facilities[j]),
                    service_year=int(years[j]),
                    ccs_codes=visit_codes[j],
                    outcome=y,
                    **{name: cat_levels[name][cat_draws[name][j]] for name in CATEGORICAL_FIELDS},
                )
            )
    return records


class TestConfig:
    def test_default_config_valid(self):
        cfg = default_config(n_patients=10)
        cfg.validate()
        assert set(cfg.boosts) >= {651, 657, 659, 660, 661, 662}

    def test_validation_rejects_bad_values(self):
        with pytest.raises(InvalidConfig):
            SynthConfig(n_patients=-1).validate()
        with pytest.raises(InvalidConfig):
            SynthConfig(visit_geom_p=0.0).validate()
        with pytest.raises(InvalidConfig):
            SynthConfig(carrier_prob={300: 0.1}).validate()
        with pytest.raises(InvalidConfig):
            SynthConfig(carrier_prob={662: 1.5}).validate()
        with pytest.raises(InvalidConfig):
            SynthConfig(base_logit=float("inf")).validate()

    def test_outcome_logit_sums_distinct_codes(self):
        cfg = SynthConfig(base_logit=-2.0, boosts={662: 1.5, 651: 0.5}, visit_slope=0.25)
        assert outcome_logit(cfg, [], 1) == pytest.approx(-2.0)
        assert outcome_logit(cfg, [662, 662], 1) == pytest.approx(-0.5)  # once per code
        assert outcome_logit(cfg, [662, 651], 3) == pytest.approx(-2.0 + 2.0 + 0.5)


class TestGenerate:
    def test_deterministic(self):
        cfg = default_config(n_patients=200, seed=42)
        assert generate(cfg) == generate(cfg)

    def test_seed_changes_output(self):
        a = generate(default_config(n_patients=200, seed=1))
        b = generate(default_config(n_patients=200, seed=2))
        assert a != b

    def test_passes_cohort_invariants(self):
        cohort = generate(default_config(n_patients=300, seed=3))
        summary = validate_cohort(cohort)
        assert summary.patients == 300
        assert summary.visits == len(cohort)
        for r in to_records(cohort):
            r.validate(SPEC)

    def test_outcome_constant_within_patient(self):
        records = to_records(generate(default_config(n_patients=300, seed=4)))
        by_patient = {}
        for r in records:
            by_patient.setdefault(r.patient_id, set()).add(r.outcome)
        assert all(len(s) == 1 for s in by_patient.values())

    def test_age_and_zip_constant_within_patient(self):
        records = to_records(generate(default_config(n_patients=200, seed=5)))
        by_patient = {}
        for r in records:
            by_patient.setdefault(r.patient_id, set()).add((r.age, r.zip_code))
        assert all(len(s) == 1 for s in by_patient.values())

    def test_zero_patients(self):
        assert len(generate(default_config(n_patients=0))) == 0

    def test_visit_counts_truncated(self):
        cfg = default_config(n_patients=500, seed=6)
        cfg.max_visits = 3
        records = to_records(generate(cfg))
        counts = {}
        for r in records:
            counts[r.patient_id] = max(counts.get(r.patient_id, 0), r.visit_seq + 1)
        assert max(counts.values()) <= 3

    def test_base_only_prevalence_matches_logit(self):
        # no boosted codes: every patient's outcome rate is sigmoid(base)
        target = 0.1
        cfg = SynthConfig(
            n_patients=5_000, seed=7, carrier_prob={}, boosts={},
            base_logit=logit(target), visit_slope=0.0,
        )
        records = to_records(generate(cfg))
        by_patient = {r.patient_id: r.outcome for r in records}
        rate = sum(by_patient.values()) / len(by_patient)
        sd = math.sqrt(target * (1 - target) / len(by_patient))
        assert abs(rate - target) < 5 * sd


class TestStreamContract:
    """``generate`` batches each patient's draws but must return exactly
    what the one-draw-per-field loop returns from the same streams."""

    @pytest.mark.parametrize("seed", [0, 7, 42])
    def test_default_config_matches_reference(self, seed):
        cfg = default_config(n_patients=2_000, seed=seed)
        cohort = generate(cfg)
        assert cohort == to_cohort(_reference_generate(cfg))
        check_cohort(cohort)

    @pytest.mark.parametrize(
        "change",
        [
            {"max_visits": 1},
            {"max_visits": 3},
            {"carrier_prob": {}, "boosts": {}},
            {"extra_code_prob": 0.0},
            {"extra_code_prob": 1.0},
            {"repeat_prob": 1.0},
            {"n_patients": 0},
        ],
        ids=lambda c: ",".join(f"{k}={v}" for k, v in c.items()),
    )
    def test_config_variants_match_reference(self, change):
        cfg = replace(default_config(n_patients=800, seed=19), **change)
        assert generate(cfg) == to_cohort(_reference_generate(cfg))

    def test_native_python_values(self):
        c = generate(default_config(n_patients=20, seed=20))
        assert c.numeric.shape == (len(c), len(NUMERIC_FIELDS))
        assert c.categorical.shape == (len(c), len(CATEGORICAL_FIELDS))
        assert c.ccs.shape == c.ccs_present.shape == (len(c), 7)
        for column in (c.visit_seq, c.numeric, c.categorical, c.ccs, c.outcome):
            assert column.dtype == np.int64
        assert c.ccs_present.dtype == bool
        assert all(type(pid) is str for pid in c.patient_id)

    def test_prefix_stable(self):
        small = to_records(generate(default_config(n_patients=100, seed=21)))
        large = to_records(generate(default_config(n_patients=300, seed=21)))
        n_small = len(small)
        assert large[:n_small] == small
        assert large[n_small].patient_id == "P0000100"


class TestStructureModel:
    def test_expected_prevalence_monotone_in_boost(self):
        cfg = default_config(n_patients=0)
        struct = _simulate_structure(cfg, 30_000, seed=8)
        lo = _prevalences(struct, cfg.base_logit, {**cfg.boosts, 662: 2.0}, cfg.visit_slope)
        hi = _prevalences(struct, cfg.base_logit, {**cfg.boosts, 662: 6.0}, cfg.visit_slope)
        assert hi["662"] > lo["662"]
        assert hi["overall"] > lo["overall"]

    def test_expected_prevalence_monotone_in_base(self):
        cfg = default_config(n_patients=0)
        struct = _simulate_structure(cfg, 30_000, seed=9)
        lo = _prevalences(struct, -10.0, cfg.boosts, cfg.visit_slope)
        hi = _prevalences(struct, -7.0, cfg.boosts, cfg.visit_slope)
        assert hi["overall"] > lo["overall"]

    def test_structure_matches_generated_cohort(self):
        # realized subgroup sizes in a generated cohort should sit near the
        # structural simulation's expectation
        cfg = default_config(n_patients=20_000, seed=10)
        records = to_records(generate(cfg))
        struct = _simulate_structure(cfg, 200_000, seed=11)
        frac_662_expected = float((struct.first_seen[:, list(struct.codes).index(662)] >= 0).mean())
        carriers = {r.patient_id for r in records if 662 in r.ccs_codes}
        frac_662_actual = len(carriers) / cfg.n_patients
        assert frac_662_actual == pytest.approx(frac_662_expected, rel=0.15)


class TestCalibration:
    def test_overall_only_recovers_base_logit(self):
        template = SynthConfig(
            n_patients=0, carrier_prob={}, boosts={}, base_logit=-3.0, visit_slope=0.0
        )
        cfg = calibrate({"overall": 0.1}, template, n_patients=50_000, seed=12, tol=0.001)
        assert cfg.base_logit == pytest.approx(logit(0.1), abs=0.01)

    def test_joint_calibration_meets_targets_in_expectation(self):
        template = default_config(n_patients=0)
        cfg = calibrate(DEFAULT_TARGETS, template, n_patients=60_000, seed=13, tol=0.002)
        struct = _simulate_structure(cfg, 60_000, seed=13)
        got = _prevalences(struct, cfg.base_logit, cfg.boosts, cfg.visit_slope)
        for name, t in DEFAULT_TARGETS.items():
            assert abs(got[name] - t) <= 0.002

    def test_group_boosts_shared_within_group(self):
        template = default_config(n_patients=0)
        cfg = calibrate(DEFAULT_TARGETS, template, n_patients=40_000, seed=14, tol=0.003)
        assert cfg.boosts[651] == cfg.boosts[657]
        assert cfg.boosts[660] == cfg.boosts[661]

    def test_unreachable_target_raises(self):
        template = SynthConfig(n_patients=0, carrier_prob={}, boosts={}, visit_slope=0.0)
        with pytest.raises(Unachievable):
            calibrate({"overall": 0.999999}, template, n_patients=5_000, seed=15)

    def test_unknown_target_rejected(self):
        with pytest.raises(InvalidConfig):
            calibrate({"banana": 0.1}, default_config(n_patients=0), n_patients=1_000)


class TestMeasurePrevalences:
    def test_overall_is_row_mean(self):
        cohort = generate(default_config(n_patients=2_000, seed=16))
        got = measure_prevalences(cohort)
        assert got["overall"] == pytest.approx(sum(r.outcome for r in to_records(cohort)) / len(cohort))

    def test_subgroup_rule_counts_history_rows(self):
        from test_schema import make_record

        records = [
            make_record("A", 0, (662,), outcome=1),
            make_record("A", 1, (5,), outcome=1),
            make_record("B", 0, (5,), outcome=0),
            make_record("B", 1, (662,), outcome=0),
        ]
        got = measure_prevalences(to_cohort(records))
        # rows in the 662 subgroup: both of A's, and only B's second visit
        assert got["662"] == pytest.approx(2 / 3)

    def test_default_config_prevalences_near_targets(self):
        # light-weight version of the full-scale check: 12k patients,
        # generous bands around the calibration targets
        got = measure_prevalences(generate(default_config(n_patients=12_000, seed=17)))
        assert abs(got["overall"] - DEFAULT_TARGETS["overall"]) < 0.006
        for g in RISK_GROUPS:
            assert abs(got[g] - DEFAULT_TARGETS[g]) < 0.04
