"""Cohort data model, its invariants and delimited-file parsing.

A cohort file is UTF-8 CSV with an explicit header, one ED/hospital visit
per row.  CCS diagnosis codes occupy 7 fixed columns; unused slots are
empty.  Categorical level labels live in a sidecar spec file (one line per
field, ``name:level1,level2,...``) rather than being hard-coded.

In memory a cohort is one ``Cohort`` of numpy columns, one row per visit in
file order.  Categorical fields are level indices into the cohort's
``CategoricalSpec``, and the CCS codes keep the file's 7 slots with an
explicit mask of the filled ones.  ``check_cohort`` holds every visit
invariant; ``parse_visits`` and ``validate_cohort`` both go through it.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from itertools import repeat

import numpy as np

# CCS category numbering is non-contiguous: the 285 clinical categories
# occupy 1..285, and the mental-health / substance-abuse categories occupy
# 650..670 (e.g. 662 = suicide and intentional self-inflicted injury).
CCS_BASE_RANGE = range(1, 286)
CCS_MH_RANGE = range(650, 671)
VALID_CCS = frozenset(CCS_BASE_RANGE) | frozenset(CCS_MH_RANGE)
# code -> dense column slot in the diagnosis block
CCS_SLOT = {c: i for i, c in enumerate(list(CCS_BASE_RANGE) + list(CCS_MH_RANGE))}
N_CCS = len(CCS_SLOT)
MAX_CODES_PER_VISIT = 7
AGE_MIN = 10
AGE_MAX = 19

NUMERIC_FIELDS = ["year", "age", "zip_code", "patient_county", "facility_id", "service_year"]

# field name -> declared level count
CATEGORICAL_FIELDS = {
    "sex": 4,
    "race": 7,
    "insurance": 6,
    "disposition": 5,
    "urban": 3,
    "disposition_ed": 22,
    "facility_county_ed": 55,
    "payer_ed": 20,
}

CCS_FIELDS = [f"ccs_{i}" for i in range(1, MAX_CODES_PER_VISIT + 1)]

COLUMNS = (
    ["patient_id", "visit_seq"]
    + NUMERIC_FIELDS
    + list(CATEGORICAL_FIELDS)
    + CCS_FIELDS
    + ["outcome"]
)


class SchemaError(Exception):
    """Base class for cohort-file problems."""


class MissingField(SchemaError):
    pass


class UnknownCategoryLevel(SchemaError):
    def __init__(self, field_name, value, row):
        super().__init__(f"row {row}: field {field_name!r} has unknown level {value!r}")
        self.field_name = field_name
        self.value = value
        self.row = row


class CcsOutOfRange(SchemaError):
    pass


class DuplicatePatientSeq(SchemaError):
    pass


class InvariantViolation(SchemaError):
    pass


class SpecFormatError(SchemaError):
    pass


@dataclass
class CategoricalSpec:
    """Ordered level lists for each categorical field.

    Level order fixes the one-hot column layout, so two runs with the same
    spec file produce identical matrices.
    """

    levels: dict[str, list[str]]

    def __post_init__(self):
        if set(self.levels) != set(CATEGORICAL_FIELDS):
            missing = set(CATEGORICAL_FIELDS) - set(self.levels)
            extra = set(self.levels) - set(CATEGORICAL_FIELDS)
            raise SpecFormatError(f"bad field set: missing={sorted(missing)} extra={sorted(extra)}")
        for name, want in CATEGORICAL_FIELDS.items():
            lv = self.levels[name]
            if len(set(lv)) != len(lv):
                raise SpecFormatError(f"field {name!r} has duplicate levels")
            if len(lv) != want:
                raise SpecFormatError(f"field {name!r} declares {len(lv)} levels, expected {want}")
        # field -> {level: index within the field's one-hot block}
        self._index = {name: {lv: i for i, lv in enumerate(lvs)} for name, lvs in self.levels.items()}

    def width(self, field_name: str) -> int:
        return len(self.levels[field_name])

    @property
    def one_hot_width(self) -> int:
        return sum(len(v) for v in self.levels.values())

    def save(self, path):
        with open(path, "w", encoding="utf-8") as f:
            for name in CATEGORICAL_FIELDS:
                f.write(f"{name}:{','.join(self.levels[name])}\n")

    @classmethod
    def load(cls, path) -> "CategoricalSpec":
        levels = {}
        with open(path, encoding="utf-8") as f:
            try:
                for ln, line in enumerate(f, 1):
                    line = line.rstrip("\n")
                    if not line:
                        continue
                    if ":" not in line:
                        raise SpecFormatError(f"line {ln}: expected 'field:level1,level2,...'")
                    name, rest = line.split(":", 1)
                    levels[name] = rest.split(",")
            except UnicodeDecodeError:
                raise SpecFormatError(f"{path}: not UTF-8 text") from None
        return cls(levels)


def default_spec() -> CategoricalSpec:
    """Synthetic level labels at the declared cardinalities (the real labels
    are not public)."""
    return CategoricalSpec(
        {name: [f"{name}_{i}" for i in range(n)] for name, n in CATEGORICAL_FIELDS.items()}
    )


@dataclass(eq=False)
class Cohort:
    """One row per visit, in file order, as numpy columns.

    ``numeric`` follows ``NUMERIC_FIELDS`` and ``categorical`` follows
    ``CATEGORICAL_FIELDS``, holding level indices into ``spec``.  ``ccs``
    holds the 7 code slots of the file, with ``ccs_present`` marking the
    filled ones (an empty slot holds 0).
    """

    spec: CategoricalSpec
    patient_id: np.ndarray  # (n,) object: str
    visit_seq: np.ndarray  # (n,) int64
    numeric: np.ndarray  # (n, 6) int64
    categorical: np.ndarray  # (n, 8) int64
    ccs: np.ndarray  # (n, 7) int64
    ccs_present: np.ndarray  # (n, 7) bool
    outcome: np.ndarray  # (n,) int64

    def __len__(self) -> int:
        return len(self.visit_seq)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Cohort):
            return NotImplemented
        columns = ("patient_id", "visit_seq", "numeric", "categorical", "ccs", "ccs_present", "outcome")
        return self.spec == other.spec and all(
            np.array_equal(getattr(self, name), getattr(other, name)) for name in columns
        )

    def _history_order(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(order, patient, first_row): the rows sorted stably by
        (patient_id, visit_seq), each row's patient as an index into the
        sorted distinct ids, and each patient's first row in file order."""
        _, first_row, patient = np.unique(self.patient_id, return_index=True, return_inverse=True)
        return np.lexsort((self.visit_seq, patient)), patient, first_row

    def accumulate(self, values: np.ndarray) -> None:
        """Replace each row of ``values`` (an ``(n, k)`` array, one row per
        visit in cohort order) in place by its sum over the same patient's
        rows up to and including it in visit_seq order: a cumulative sum in
        (patient_id, visit_seq) order, reset at each patient boundary."""
        order, patient, _ = self._history_order()
        totals = values[order]
        starts = np.flatnonzero(np.diff(patient[order], prepend=-1))
        # each row's values are taken away again at the next patient's first
        # row, so the cumulative sum restarts there
        next_start = np.repeat(starts[1:], np.diff(starts))
        rows, cols = np.nonzero(totals[: len(next_start)])
        np.subtract.at(totals, (next_start[rows], cols), totals[rows, cols])
        np.cumsum(totals, axis=0, out=totals)
        values[order] = totals


@dataclass
class CohortSummary:
    patients: int
    visits: int
    positives: int
    prevalence: float | None  # None when the cohort is empty


def _valid_ccs(codes: np.ndarray) -> np.ndarray:
    return ((codes >= CCS_BASE_RANGE.start) & (codes < CCS_BASE_RANGE.stop)) | (
        (codes >= CCS_MH_RANGE.start) & (codes < CCS_MH_RANGE.stop)
    )


def check_cohort(c: Cohort, first_row: int = 0, parse_faults=(), level_text=None) -> None:
    """Raise for the first fault of ``c``: the earliest bad row (numbered
    from ``first_row``) and, within it, the first failing check.

    The checks, in order: the parser's ``(mask, make_error)`` pairs in
    ``parse_faults``; 1 to 7 CCS codes, each in 1..285 or 650..670; age in
    [AGE_MIN, AGE_MAX]; visit_seq >= 0; outcome 0 or 1; each categorical
    level index inside its field (``level_text`` holds the fields' text for
    the error); no (patient_id, visit_seq) pair repeated from an earlier
    row.  When every row passes, the first patient in file order whose
    visit_seq values are not 0..k-1 raises ``InvariantViolation``."""
    n_codes = c.ccs_present.sum(axis=1)
    bad_code = c.ccs_present & ~_valid_ccs(c.ccs)
    age = c.numeric[:, NUMERIC_FIELDS.index("age")]
    order, patient, first_row_of = c._history_order()
    seq = c.visit_seq[order]
    repeated = np.zeros(len(c), dtype=bool)
    # the stable sort keeps file order among equal pairs: all but the first repeat
    repeated[order[1:][(np.diff(patient[order]) == 0) & (np.diff(seq) == 0)]] = True
    checks = [
        *parse_faults,
        (n_codes == 0, lambda i: InvariantViolation(
            f"row {first_row + i}: need 1..{MAX_CODES_PER_VISIT} ccs codes, got {n_codes[i]}")),
        (bad_code.any(axis=1), lambda i: CcsOutOfRange(
            f"row {first_row + i}: ccs code {c.ccs[i][bad_code[i]][0]} not in 1..285 or 650..670")),
        ((age < AGE_MIN) | (age > AGE_MAX), lambda i: InvariantViolation(
            f"row {first_row + i}: age {age[i]} outside cohort range [{AGE_MIN}, {AGE_MAX}]")),
        (c.visit_seq < 0, lambda i: InvariantViolation(f"row {first_row + i}: negative visit_seq")),
        ((c.outcome != 0) & (c.outcome != 1), lambda i: InvariantViolation(
            f"row {first_row + i}: outcome must be 0 or 1")),
        *[
            ((c.categorical[:, j] < 0) | (c.categorical[:, j] >= c.spec.width(name)), lambda i, j=j, name=name:
             UnknownCategoryLevel(name, level_text[j][i] if level_text else int(c.categorical[i, j]), first_row + i))
            for j, name in enumerate(CATEGORICAL_FIELDS)
        ],
        (repeated, lambda i: DuplicatePatientSeq(
            f"row {first_row + i}: patient {c.patient_id[i]!r} repeats visit_seq {c.visit_seq[i]}")),
    ]
    bad_rows = np.flatnonzero(np.logical_or.reduce([bad for bad, _ in checks]))
    if bad_rows.size:
        i = int(bad_rows[0])
        raise next(make(i) for bad, make in checks if bad[i])
    # distinct seqs >= 0 are exactly 0..k-1 iff the largest is k - 1
    last = np.flatnonzero(np.diff(patient[order], append=-1))
    gapped = np.flatnonzero(seq[last] != np.diff(last, prepend=-1) - 1)
    if gapped.size:
        p = gapped[np.argmin(first_row_of[gapped])]
        seqs = sorted(c.visit_seq[patient == p].tolist())
        raise InvariantViolation(
            f"patient {c.patient_id[first_row_of[p]]!r}: visit_seq values {seqs} are not contiguous from 0"
        )


def _int_column(text) -> tuple[np.ndarray, np.ndarray]:
    """The fields as ``int()`` reads them, and a mask of those that are not
    integers or do not fit in 64 bits (their value is 0)."""
    try:
        return np.fromiter(map(int, text), np.int64, len(text)), np.zeros(len(text), dtype=bool)
    except (ValueError, OverflowError):
        pass
    values, bad = np.zeros(len(text), dtype=np.int64), np.ones(len(text), dtype=bool)
    for i, t in enumerate(text):  # only for a column with a bad field: find which
        try:
            values[i], bad[i] = int(t), False
        except (ValueError, OverflowError):
            pass
    return values, bad


def parse_visits(path, spec: CategoricalSpec) -> Cohort:
    """Parse a cohort CSV column by column, rejecting the whole file on its
    first fault.  Row numbers in errors are 1-based counting the header as
    row 1.  Each row is checked for its field count, then for visit_seq,
    the numeric fields, outcome and the filled CCS slots being integers
    that fit in 64 bits (``MissingField``), then by ``check_cohort``."""
    try:
        with open(path, newline="", encoding="utf-8") as f:
            rows = list(csv.reader(f))
    except UnicodeDecodeError:
        raise SchemaError(f"{path}: not UTF-8 text") from None
    except csv.Error as e:
        raise MissingField(f"{path}: {e}") from None
    if not rows:
        raise MissingField("empty file: no header row")
    if rows[0] != COLUMNS:
        raise MissingField(f"bad header: {rows[0][:4]}... expected {COLUMNS[:4]}...")
    n, width = len(rows) - 1, len(COLUMNS)
    short = np.fromiter(map(len, rows[1:]), np.int64, n) != width
    # a row with the wrong field count is read as empty fields: it fails its count check first
    body = [[""] * width if s else r for r, s in zip(rows[1:], short.tolist())]
    text = dict(zip(COLUMNS, list(zip(*body)) or [()] * width))
    faults = [(short, lambda i: MissingField(f"row {i + 2}: expected {width} fields, got {len(rows[i + 1])}"))]

    def not_integer(name, fields):
        return lambda i: MissingField(f"row {i + 2}: field {name!r} is not an integer: {fields[i]!r}")

    ints = {}
    for name in ["visit_seq"] + NUMERIC_FIELDS + ["outcome"]:
        ints[name], bad = _int_column(text[name])
        faults.append((bad, not_integer(name, text[name])))
    ccs_text = np.array([text[name] for name in CCS_FIELDS], dtype=object).reshape(len(CCS_FIELDS), n).T
    present = ccs_text != ""
    ccs, bad = np.zeros(present.shape, dtype=np.int64), np.zeros(present.shape, dtype=bool)
    ccs[present], bad[present] = _int_column(ccs_text[present].tolist())
    faults += [(bad[:, j], not_integer(name, ccs_text[:, j])) for j, name in enumerate(CCS_FIELDS)]
    cohort = Cohort(
        spec=spec,
        patient_id=np.array(text["patient_id"], dtype=object),
        visit_seq=ints["visit_seq"],
        numeric=np.column_stack([ints[name] for name in NUMERIC_FIELDS]),
        categorical=np.column_stack([
            np.fromiter(map(spec._index[name].get, text[name], repeat(-1)), np.int64, n)
            for name in CATEGORICAL_FIELDS
        ]),
        ccs=ccs,
        ccs_present=present,
        outcome=ints["outcome"],
    )
    check_cohort(cohort, 2, faults, [text[name] for name in CATEGORICAL_FIELDS])
    return cohort


def write_visits(c: Cohort, path):
    """Write ``c`` as a cohort CSV, column by column; empty CCS slots are empty fields."""
    levels = [np.array(c.spec.levels[name], dtype=object) for name in CATEGORICAL_FIELDS]
    code_text = np.where(c.ccs_present, c.ccs.astype(str).astype(object), "")
    columns = (
        [c.patient_id, c.visit_seq]
        + list(c.numeric.T)
        + [lv[idx] for lv, idx in zip(levels, c.categorical.T)]
        + list(code_text.T)
        + [c.outcome]
    )
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(COLUMNS)
        w.writerows(zip(*[col.tolist() for col in columns]))


def validate_cohort(c: Cohort) -> CohortSummary:
    """Run ``check_cohort`` and count patients, visits and positives."""
    check_cohort(c)
    n = len(c)
    positives = int(c.outcome.sum())
    return CohortSummary(
        patients=len(np.unique(c.patient_id)),
        visits=n,
        positives=positives,
        prevalence=(positives / n) if n else None,
    )
