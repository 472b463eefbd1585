"""Row-at-a-time reference implementations of the cohort layer.

``edrisk`` keeps a cohort as numpy columns (``schema.Cohort``).  The code
here is the one-object-per-visit design it replaced, kept as the oracle
the columnar code is tested against: ``VisitRecord`` with its own checks,
the row-wise CSV writer and parser, and the per-record encoder.  It also
converts between the two layouts.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from edrisk.encode import EncodedDataset, feature_names, raw_width
from edrisk.schema import (
    AGE_MAX,
    AGE_MIN,
    CATEGORICAL_FIELDS,
    CCS_FIELDS,
    CCS_SLOT,
    COLUMNS,
    MAX_CODES_PER_VISIT,
    N_CCS,
    NUMERIC_FIELDS,
    VALID_CCS,
    CategoricalSpec,
    CcsOutOfRange,
    Cohort,
    DuplicatePatientSeq,
    InvariantViolation,
    MissingField,
    SchemaError,
    UnknownCategoryLevel,
    default_spec,
)


@dataclass
class VisitRecord:
    patient_id: str
    visit_seq: int
    year: int
    age: int
    zip_code: int
    patient_county: int
    facility_id: int
    service_year: int
    sex: str
    race: str
    insurance: str
    disposition: str
    urban: str
    disposition_ed: str
    facility_county_ed: str
    payer_ed: str
    ccs_codes: list[int] = field(default_factory=list)
    outcome: int = 0

    def validate(self, spec: CategoricalSpec, row: int = -1):
        if not (1 <= len(self.ccs_codes) <= MAX_CODES_PER_VISIT):
            raise InvariantViolation(f"row {row}: need 1..{MAX_CODES_PER_VISIT} ccs codes, got {len(self.ccs_codes)}")
        for c in self.ccs_codes:
            if c not in VALID_CCS:
                raise CcsOutOfRange(f"row {row}: ccs code {c} not in 1..285 or 650..670")
        if not (AGE_MIN <= self.age <= AGE_MAX):
            raise InvariantViolation(f"row {row}: age {self.age} outside cohort range [{AGE_MIN}, {AGE_MAX}]")
        if self.visit_seq < 0:
            raise InvariantViolation(f"row {row}: negative visit_seq")
        if self.outcome not in (0, 1):
            raise InvariantViolation(f"row {row}: outcome must be 0 or 1")
        for name in CATEGORICAL_FIELDS:
            value = getattr(self, name)
            if value not in spec.levels[name]:
                raise UnknownCategoryLevel(name, value, row)


def to_cohort(records: list[VisitRecord], spec: CategoricalSpec | None = None) -> Cohort:
    """The columns of ``records``; codes fill each visit's first slots."""
    spec = spec or default_spec()
    n = len(records)
    n_codes = np.array([len(r.ccs_codes) for r in records], dtype=np.int64).reshape(n, 1)
    present = np.arange(MAX_CODES_PER_VISIT) < n_codes
    ccs = np.zeros(present.shape, dtype=np.int64)
    ccs[present] = [c for r in records for c in r.ccs_codes]
    return Cohort(
        spec=spec,
        patient_id=np.array([r.patient_id for r in records], dtype=object),
        visit_seq=np.array([r.visit_seq for r in records], dtype=np.int64),
        numeric=np.array(
            [[getattr(r, f) for f in NUMERIC_FIELDS] for r in records], dtype=np.int64
        ).reshape(n, len(NUMERIC_FIELDS)),
        categorical=np.array(
            [[spec.levels[f].index(getattr(r, f)) for f in CATEGORICAL_FIELDS] for r in records], dtype=np.int64
        ).reshape(n, len(CATEGORICAL_FIELDS)),
        ccs=ccs,
        ccs_present=present,
        outcome=np.array([r.outcome for r in records], dtype=np.int64),
    )


def to_records(c: Cohort) -> list[VisitRecord]:
    """One ``VisitRecord`` per row of ``c``, with native Python values."""
    levels = [c.spec.levels[name] for name in CATEGORICAL_FIELDS]
    return [
        VisitRecord(
            pid, seq, *num, *[lv[x] for lv, x in zip(levels, cat)],
            [code for code, filled in zip(codes, present) if filled], y,
        )
        for pid, seq, num, cat, codes, present, y in zip(
            c.patient_id.tolist(), c.visit_seq.tolist(), c.numeric.tolist(), c.categorical.tolist(),
            c.ccs.tolist(), c.ccs_present.tolist(), c.outcome.tolist(),
        )
    ]


def write_records(records: list[VisitRecord], path):
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(COLUMNS)
        for r in records:
            codes = [str(c) for c in r.ccs_codes]
            codes += [""] * (MAX_CODES_PER_VISIT - len(codes))
            w.writerow(
                [r.patient_id, r.visit_seq]
                + [getattr(r, n) for n in NUMERIC_FIELDS]
                + [getattr(r, n) for n in CATEGORICAL_FIELDS]
                + codes
                + [r.outcome]
            )


def _record_from_row(row: list[str], row_num: int) -> VisitRecord:
    if len(row) != len(COLUMNS):
        raise MissingField(f"row {row_num}: expected {len(COLUMNS)} fields, got {len(row)}")
    d = dict(zip(COLUMNS, row))
    for name in ["visit_seq"] + NUMERIC_FIELDS + ["outcome"]:
        try:
            d[name] = int(d[name])
        except ValueError:
            raise MissingField(f"row {row_num}: field {name!r} is not an integer: {d[name]!r}") from None
    codes = []
    for name in CCS_FIELDS:
        raw = d.pop(name)
        if raw == "":
            continue
        try:
            codes.append(int(raw))
        except ValueError:
            raise MissingField(f"row {row_num}: field {name!r} is not an integer: {raw!r}") from None
    return VisitRecord(ccs_codes=codes, **d)


def parse_records(path, spec: CategoricalSpec) -> list[VisitRecord]:
    """Parse a cohort CSV row by row, rejecting the whole file on the first
    malformed row.  Row numbers in errors are 1-based counting the header
    as row 1.  A file that is not UTF-8 raises ``SchemaError``."""
    try:
        with open(path, newline="", encoding="utf-8") as f:
            lines = f.readlines()
    except UnicodeDecodeError:
        raise SchemaError(f"{path}: not UTF-8 text") from None
    records = []
    seen: dict[str, set[int]] = {}
    reader = csv.reader(lines)
    try:
        header = next(reader)
    except StopIteration:
        raise MissingField("empty file: no header row") from None
    if header != COLUMNS:
        raise MissingField(f"bad header: {header[:4]}... expected {COLUMNS[:4]}...")
    for row_num, row in enumerate(reader, 2):
        rec = _record_from_row(row, row_num)
        rec.validate(spec, row=row_num)
        prior = seen.setdefault(rec.patient_id, set())
        if rec.visit_seq in prior:
            raise DuplicatePatientSeq(f"row {row_num}: patient {rec.patient_id!r} repeats visit_seq {rec.visit_seq}")
        prior.add(rec.visit_seq)
        records.append(rec)
    # contiguity: each patient's seqs must be exactly 0..k-1
    for pid, seqs in seen.items():
        if seqs != set(range(len(seqs))):
            raise InvariantViolation(f"patient {pid!r}: visit_seq values {sorted(seqs)} are not contiguous from 0")
    return records


def encode_records(records: list[VisitRecord], spec: CategoricalSpec) -> EncodedDataset:
    """The per-record encoder: rows in input order, cumulative diagnosis
    state threaded per patient in visit_seq order."""
    n = len(records)
    width = raw_width(spec)
    X = np.zeros((n, width))
    labels = np.empty(n, dtype=np.int64)
    counts = np.empty(n, dtype=np.int64)
    X[:, : len(NUMERIC_FIELDS)] = np.array(
        [[getattr(r, f) for f in NUMERIC_FIELDS] for r in records], dtype=np.float64
    ).reshape(n, len(NUMERIC_FIELDS))
    off = len(NUMERIC_FIELDS)
    for fname in CATEGORICAL_FIELDS:
        idx = np.array([spec.levels[fname].index(getattr(r, fname)) for r in records], dtype=np.int64)
        X[np.arange(n), off + idx] = 1.0
        off += spec.width(fname)
    V = np.zeros((n, N_CCS))
    for i, r in enumerate(records):
        V[i, [CCS_SLOT[c] for c in set(r.ccs_codes)]] = 1.0
        labels[i] = r.outcome
    cum = np.empty_like(V)
    prev_pid = None
    running = None
    for i in sorted(range(n), key=lambda i: (records[i].patient_id, records[i].visit_seq)):
        pid = records[i].patient_id
        if pid != prev_pid:
            running = V[i].copy()
            prev_pid = pid
        else:
            running = running + V[i]
        cum[i] = running
        counts[i] = records[i].visit_seq + 1
    X[:, off : off + N_CCS] = cum
    X[:, off + N_CCS] = counts
    return EncodedDataset(
        features=X,
        labels=labels,
        patient_ids=[r.patient_id for r in records],
        visit_counts=counts,
        raw_width=width,
        column_names=feature_names(spec),
    )
