import pytest

from edrisk import schema
from edrisk.schema import (
    CategoricalSpec,
    CcsOutOfRange,
    DuplicatePatientSeq,
    InvariantViolation,
    MissingField,
    SpecFormatError,
    UnknownCategoryLevel,
    check_cohort,
    default_spec,
    parse_visits,
    validate_cohort,
    write_visits,
)

from rowwise import VisitRecord, parse_records, to_cohort, to_records, write_records

SPEC = default_spec()


def make_record(pid="P1", seq=0, codes=(5,), outcome=0, **overrides):
    kwargs = dict(
        patient_id=pid,
        visit_seq=seq,
        year=2007,
        age=14,
        zip_code=90210,
        patient_county=12,
        facility_id=33,
        service_year=2007,
        sex="sex_0",
        race="race_1",
        insurance="insurance_2",
        disposition="disposition_0",
        urban="urban_1",
        disposition_ed="disposition_ed_3",
        facility_county_ed="facility_county_ed_10",
        payer_ed="payer_ed_7",
        ccs_codes=list(codes),
        outcome=outcome,
    )
    kwargs.update(overrides)
    return VisitRecord(**kwargs)


class TestCategoricalSpec:
    def test_default_spec_cardinalities(self):
        for name, want in schema.CATEGORICAL_FIELDS.items():
            assert SPEC.width(name) == want
        assert SPEC.one_hot_width == 4 + 7 + 6 + 5 + 3 + 22 + 55 + 20

    def test_save_load_round_trip(self, tmp_path):
        path = tmp_path / "spec.txt"
        SPEC.save(path)
        loaded = CategoricalSpec.load(path)
        assert loaded.levels == SPEC.levels

    def test_wrong_cardinality_rejected(self):
        levels = {k: list(v) for k, v in SPEC.levels.items()}
        levels["sex"].append("sex_extra")
        with pytest.raises(SpecFormatError):
            CategoricalSpec(levels)

    def test_duplicate_level_rejected(self):
        levels = {k: list(v) for k, v in SPEC.levels.items()}
        levels["urban"] = ["u", "u", "v"]
        with pytest.raises(SpecFormatError):
            CategoricalSpec(levels)

    def test_missing_field_rejected(self):
        levels = {k: list(v) for k, v in SPEC.levels.items()}
        del levels["race"]
        with pytest.raises(SpecFormatError):
            CategoricalSpec(levels)


class TestParse:
    def test_three_row_identity(self, tmp_path):
        records = [
            make_record("A", 0, (5, 662)),
            make_record("A", 1, (7,)),
            make_record("B", 0, (1, 2, 3, 4, 5, 6, 7), outcome=1),
        ]
        path = tmp_path / "cohort.csv"
        write_visits(to_cohort(records), path)
        parsed = parse_visits(path, SPEC)
        assert to_records(parsed) == records

    def test_round_trip_random(self, tmp_path):
        import random

        rng = random.Random(0)
        records = []
        for p in range(30):
            k = rng.randint(1, 4)
            for j in range(k):
                n = rng.randint(1, 7)
                codes = [rng.choice(list(schema.VALID_CCS)) for _ in range(n)]
                records.append(
                    make_record(
                        f"P{p}",
                        j,
                        codes,
                        outcome=rng.randint(0, 1),
                        age=rng.randint(10, 19),
                        sex=f"sex_{rng.randint(0, 3)}",
                    )
                )
        path = tmp_path / "cohort.csv"
        write_visits(to_cohort(records), path)
        assert to_records(parse_visits(path, SPEC)) == records
        oracle = tmp_path / "rowwise.csv"
        write_records(records, oracle)
        assert path.read_bytes() == oracle.read_bytes()

    def test_unknown_level_rejected_with_row(self, tmp_path):
        records = [make_record(), make_record("P2", 0, sex="Q")]
        path = tmp_path / "cohort.csv"
        write_records(records, path)
        with pytest.raises(UnknownCategoryLevel) as exc:
            parse_visits(path, SPEC)
        assert exc.value.field_name == "sex"
        assert exc.value.row == 3

    def test_ccs_300_out_of_range(self, tmp_path):
        path = tmp_path / "cohort.csv"
        write_visits(to_cohort([make_record(codes=(300,))]), path)
        with pytest.raises(CcsOutOfRange):
            parse_visits(path, SPEC)

    def test_mental_health_codes_valid(self, tmp_path):
        path = tmp_path / "cohort.csv"
        write_visits(to_cohort([make_record(codes=(662, 651, 285))]), path)
        assert to_records(parse_visits(path, SPEC))[0].ccs_codes == [662, 651, 285]

    def test_duplicate_seq_rejected(self, tmp_path):
        path = tmp_path / "cohort.csv"
        write_visits(to_cohort([make_record("A", 0), make_record("A", 0)]), path)
        with pytest.raises(DuplicatePatientSeq):
            parse_visits(path, SPEC)

    def test_non_contiguous_seq_rejected(self, tmp_path):
        path = tmp_path / "cohort.csv"
        write_visits(to_cohort([make_record("A", 0), make_record("A", 2)]), path)
        with pytest.raises(InvariantViolation):
            parse_visits(path, SPEC)

    def test_header_only_file_is_empty_cohort(self, tmp_path):
        path = tmp_path / "cohort.csv"
        write_visits(to_cohort([]), path)
        cohort = parse_visits(path, SPEC)
        assert cohort == to_cohort([]) and len(cohort) == 0
        assert path.read_text() == ",".join(schema.COLUMNS) + "\n"

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "cohort.csv"
        path.write_text("foo,bar\n1,2\n")
        with pytest.raises(MissingField):
            parse_visits(path, SPEC)

    def test_short_row_rejected(self, tmp_path):
        path = tmp_path / "cohort.csv"
        write_visits(to_cohort([make_record()]), path)
        with open(path, "a") as f:
            f.write("P9,0,2007\n")
        with pytest.raises(MissingField):
            parse_visits(path, SPEC)

    def test_age_outside_cohort_rejected(self, tmp_path):
        path = tmp_path / "cohort.csv"
        write_visits(to_cohort([make_record(age=25)]), path)
        with pytest.raises(InvariantViolation):
            parse_visits(path, SPEC)


def _write_rows(path, rows):
    """A cohort CSV of the given rows, each a list of its 23 fields as text."""
    path.write_text("\n".join(",".join(r) for r in [schema.COLUMNS] + rows) + "\n")


def _fields(pid="A", seq=0, **changes):
    """The text fields of a valid row with CCS code 5, with ``changes`` set by column name."""
    rec = make_record(pid, seq)
    values = dict(zip(schema.COLUMNS, [rec.patient_id, str(rec.visit_seq)]
                      + [str(getattr(rec, n)) for n in schema.NUMERIC_FIELDS]
                      + [getattr(rec, n) for n in schema.CATEGORICAL_FIELDS]
                      + ["5", "", "", "", "", "", ""] + [str(rec.outcome)]))
    values.update(changes)
    return [values[c] for c in schema.COLUMNS]


class TestFirstFault:
    """With several faults, the error is the earliest bad row's first
    failing check, as the row-wise parser raised it."""

    @pytest.mark.parametrize(
        "rows,error,row",
        [
            # row 3 has a bad age and a bad outcome; row 4 lacks fields
            ([_fields(), _fields("B", age="25", outcome="7"), _fields("C")[:5]], InvariantViolation, 3),
            # within one row: field count before integers before levels
            ([_fields("A", age="x", sex="Q"), _fields("B")[:3]], MissingField, 2),
            ([_fields(sex="Q", outcome="2")], InvariantViolation, 2),
            ([_fields(sex="Q", race="R")], UnknownCategoryLevel, 2),
            # a repeat is reported at its second row, after that row's own checks
            ([_fields(), _fields(), _fields("B", age="x")], DuplicatePatientSeq, 3),
            ([_fields(), _fields(age="30")], InvariantViolation, 3),
            # a row that fails a per-row check comes before a later repeat
            ([_fields(ccs_1="0"), _fields(), _fields()], CcsOutOfRange, 2),
        ],
        ids=["age-before-later-row", "count-first", "outcome-before-level", "first-level",
             "repeat-before-later-row", "own-check-before-repeat", "ccs-zero-before-repeat"],
    )
    def test_earliest_row_first_check(self, tmp_path, rows, error, row):
        path = tmp_path / "cohort.csv"
        _write_rows(path, rows)
        with pytest.raises(error, match=f"row {row}:" if error is not UnknownCategoryLevel else None) as exc:
            parse_visits(path, SPEC)
        if error is UnknownCategoryLevel:
            assert (exc.value.row, exc.value.field_name) == (row, "sex")
        with pytest.raises(error) as oracle:
            parse_records(path, SPEC)
        assert str(oracle.value) == str(exc.value)

    # one fault per check, in the row-wise parser's order
    ROW_FAULTS = [
        {"visit_seq": "x"}, {"year": "x"}, {"age": "x"}, {"zip_code": "x"}, {"patient_county": "x"},
        {"facility_id": "x"}, {"service_year": "x"}, {"outcome": "x"}, {"ccs_1": "x"}, {"ccs_7": "y"},
        {"ccs_1": ""}, {"ccs_2": "0"}, {"age": "30"}, {"visit_seq": "-1"}, {"outcome": "2"},
        {"sex": "Q"}, {"payer_ed": "Q"},
    ]

    def test_every_pair_of_row_faults_matches_rowwise(self, tmp_path):
        path = tmp_path / "cohort.csv"
        for a in self.ROW_FAULTS:
            for b in self.ROW_FAULTS:
                _write_rows(path, [_fields(), _fields("B", **{**a, **b})])
                with pytest.raises(schema.SchemaError) as oracle:
                    parse_records(path, SPEC)
                with pytest.raises(schema.SchemaError) as exc:
                    parse_visits(path, SPEC)
                assert (type(exc.value), str(exc.value)) == (type(oracle.value), str(oracle.value)), (a, b)

    def test_first_gapped_patient_in_file_order(self, tmp_path):
        path = tmp_path / "cohort.csv"
        _write_rows(path, [_fields("Z", 0), _fields("Z", 2), _fields("A", 1)])
        with pytest.raises(InvariantViolation, match=r"patient 'Z': visit_seq values \[0, 2\]"):
            parse_visits(path, SPEC)

    def test_value_outside_64_bits_rejected(self, tmp_path):
        # the row-wise parser kept any Python int; the columns hold int64
        path = tmp_path / "cohort.csv"
        _write_rows(path, [_fields(year=str(2**63))])
        with pytest.raises(MissingField, match="row 2: field 'year' is not an integer"):
            parse_visits(path, SPEC)

    def test_empty_slot_kept_in_place(self, tmp_path):
        path = tmp_path / "cohort.csv"
        _write_rows(path, [_fields(ccs_1="", ccs_2="662")])
        cohort = parse_visits(path, SPEC)
        assert cohort.ccs_present[0].tolist() == [False, True] + [False] * 5
        assert cohort.ccs[0, 1] == 662
        again = tmp_path / "again.csv"
        write_visits(cohort, again)
        assert again.read_bytes() == path.read_bytes().replace(b"\n", b"\r\n")


class TestCheckCohort:
    def test_level_index_outside_field(self):
        cohort = to_cohort([make_record(), make_record("B")])
        cohort.categorical[1, 2] = SPEC.width("insurance")
        with pytest.raises(UnknownCategoryLevel) as exc:
            check_cohort(cohort)
        assert (exc.value.field_name, exc.value.value, exc.value.row) == ("insurance", 6, 1)

    def test_equality_is_one_bool(self):
        a, b = to_cohort([make_record()]), to_cohort([make_record()])
        assert (a == b) is True
        b.numeric[0, 0] += 1
        assert (a == b) is False


class TestValidateCohort:
    def test_empty(self):
        summary = validate_cohort(to_cohort([]))
        assert (summary.patients, summary.visits, summary.positives) == (0, 0, 0)
        assert summary.prevalence is None

    def test_direct_counts(self):
        records = [
            make_record("A", 0),
            make_record("A", 1, outcome=1),
            make_record("B", 0),
            make_record("B", 1),
        ]
        summary = validate_cohort(to_cohort(records))
        assert summary.patients == 2
        assert summary.visits == 4
        assert summary.prevalence == 0.25

    def test_prevalence_matches_direct_count(self):
        import random

        rng = random.Random(3)
        records = []
        for p in range(50):
            y = rng.randint(0, 1)
            for j in range(rng.randint(1, 3)):
                records.append(make_record(f"P{p}", j, outcome=y))
        summary = validate_cohort(to_cohort(records))
        assert summary.prevalence == sum(r.outcome for r in records) / len(records)

    def test_invariant_violation_reported(self):
        bad = make_record(age=42)
        with pytest.raises(InvariantViolation):
            validate_cohort(to_cohort([make_record(), bad]))
