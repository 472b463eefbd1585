"""Feature encoding: visits -> fixed-width numeric matrix.

Row layout: [6 numeric fields | one-hot blocks in spec order | 306-entry
cumulative diagnosis block | visit counter].  The diagnosis block for a
row is the running sum of per-visit one-hot code vectors over that
patient's visits up to and including the row; duplicate codes within one
visit count once (set semantics), repeats across visits accumulate.

Normalization stats (per-column mean, population variance, zero-variance
drop mask) are fit on training rows only and reapplied verbatim to test
rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .schema import (
    CATEGORICAL_FIELDS,
    CCS_SLOT,
    N_CCS,
    NUMERIC_FIELDS,
    CategoricalSpec,
    VisitRecord,
)


class EncodeError(Exception):
    pass


class TooFewRows(EncodeError):
    pass


class WidthMismatch(EncodeError):
    pass


def raw_width(spec: CategoricalSpec) -> int:
    return len(NUMERIC_FIELDS) + spec.one_hot_width + N_CCS + 1


def feature_names(spec: CategoricalSpec) -> list[str]:
    names = list(NUMERIC_FIELDS)
    for fname in CATEGORICAL_FIELDS:
        names += [f"{fname}={lv}" for lv in spec.levels[fname]]
    names += [f"ccs_{c}" for c in sorted(CCS_SLOT, key=CCS_SLOT.get)]
    names.append("visit_count")
    return names


def visit_diagnosis_vector(record: VisitRecord) -> np.ndarray:
    """One-hot union of the visit's CCS codes (duplicates count once)."""
    v = np.zeros(N_CCS)
    v[[CCS_SLOT[c] for c in set(record.ccs_codes)]] = 1.0
    return v


def encode_visit(
    record: VisitRecord,
    history: np.ndarray,
    prior_visit_count: int,
    spec: CategoricalSpec,
) -> tuple[np.ndarray, np.ndarray]:
    """Encode one visit given the patient's cumulative diagnosis vector from
    strictly earlier visits.  Returns (feature row, updated cumulative vector)."""
    cumulative = history + visit_diagnosis_vector(record)
    row = np.empty(raw_width(spec))
    row[: len(NUMERIC_FIELDS)] = [getattr(record, n) for n in NUMERIC_FIELDS]
    off = len(NUMERIC_FIELDS)
    for fname in CATEGORICAL_FIELDS:
        w = spec.width(fname)
        block = np.zeros(w)
        block[spec.level_index(fname, getattr(record, fname))] = 1.0
        row[off : off + w] = block
        off += w
    row[off : off + N_CCS] = cumulative
    row[off + N_CCS] = prior_visit_count + 1
    return row, cumulative


@dataclass
class EncodedDataset:
    features: np.ndarray  # (visits, raw_width), pre-normalization
    labels: np.ndarray  # (visits,), {0,1}
    patient_ids: list[str]
    visit_counts: np.ndarray  # (visits,), 1-based count including the row
    raw_width: int
    column_names: list[str]

    def __post_init__(self):
        self.labels = np.asarray(self.labels)
        self.visit_counts = np.asarray(self.visit_counts)

    @property
    def n_rows(self) -> int:
        return self.features.shape[0]

    def diagnosis_block(self) -> np.ndarray:
        """The cumulative-diagnosis columns of the raw matrix (read-only view)."""
        start = self.raw_width - N_CCS - 1
        return self.features[:, start : start + N_CCS]

    def subset(self, rows: np.ndarray) -> "EncodedDataset":
        rows = np.asarray(rows)
        return EncodedDataset(
            features=self.features[rows],
            labels=self.labels[rows],
            patient_ids=[self.patient_ids[i] for i in rows],
            visit_counts=self.visit_counts[rows],
            raw_width=self.raw_width,
            column_names=self.column_names,
        )


def encode_cohort(records: list[VisitRecord], spec: CategoricalSpec) -> EncodedDataset:
    """Encode all visits.  Rows come out in input order; cumulative state is
    threaded per patient in visit_seq order, so interleaved file orders give
    the same matrix as sorted ones."""
    n = len(records)
    width = raw_width(spec)
    X = np.zeros((n, width))
    labels = np.empty(n, dtype=np.int64)
    counts = np.empty(n, dtype=np.int64)

    num_cols = np.array(
        [[getattr(r, f) for f in NUMERIC_FIELDS] for r in records], dtype=np.float64
    ).reshape(n, len(NUMERIC_FIELDS))
    X[:, : len(NUMERIC_FIELDS)] = num_cols

    off = len(NUMERIC_FIELDS)
    rows_idx = np.arange(n)
    for fname in CATEGORICAL_FIELDS:
        idx = np.array([spec.level_index(fname, getattr(r, fname)) for r in records], dtype=np.int64)
        X[rows_idx, off + idx] = 1.0
        off += spec.width(fname)

    # per-visit one-hot diagnosis matrix, then a per-patient running sum
    V = np.zeros((n, N_CCS))
    for i, r in enumerate(records):
        V[i, [CCS_SLOT[c] for c in set(r.ccs_codes)]] = 1.0
        labels[i] = r.outcome

    order = sorted(range(n), key=lambda i: (records[i].patient_id, records[i].visit_seq))
    cum = np.empty_like(V)
    prev_pid = None
    running = None
    for pos, i in enumerate(order):
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


@dataclass
class FeatureStats:
    means: np.ndarray
    variances: np.ndarray  # population variance (divisor N)
    retained: np.ndarray  # bool mask; False iff variance == 0
    column_names: list[str]

    @property
    def p(self) -> int:
        return int(self.retained.sum())

    @property
    def width(self) -> int:
        return len(self.means)


def fit_stats(train_features: np.ndarray, column_names: list[str] | None = None) -> FeatureStats:
    X = np.asarray(train_features, dtype=np.float64)
    if X.shape[0] < 2:
        raise TooFewRows(f"need at least 2 rows to fit stats, got {X.shape[0]}")
    means = X.mean(axis=0)
    variances = X.var(axis=0)  # ddof=0
    retained = variances > 0.0
    if column_names is None:
        column_names = [f"col_{j}" for j in range(X.shape[1])]
    return FeatureStats(means=means, variances=variances, retained=retained, column_names=column_names)


def apply_stats(features: np.ndarray, stats: FeatureStats) -> np.ndarray:
    """Standardize with training-set stats and drop zero-variance columns."""
    X = np.asarray(features, dtype=np.float64)
    if X.shape[1] != stats.width:
        raise WidthMismatch(f"matrix has {X.shape[1]} columns, stats expect {stats.width}")
    keep = stats.retained
    return (X[:, keep] - stats.means[keep]) / np.sqrt(stats.variances[keep])


# ---------------------------------------------------------------------------
# persistence


def save_stats(stats: FeatureStats, path):
    with open(path, "w", encoding="utf-8") as f:
        f.write("column\tmean\tvariance\tretained\n")
        for name, m, v, r in zip(stats.column_names, stats.means, stats.variances, stats.retained):
            f.write(f"{name}\t{float(m)!r}\t{float(v)!r}\t{int(r)}\n")


def load_stats(path) -> FeatureStats:
    names, means, variances, retained = [], [], [], []
    with open(path, encoding="utf-8") as f:
        try:
            header = f.readline()
            if not header.startswith("column\t"):
                raise EncodeError(f"{path}: not a stats file")
            for line in f:
                name, m, v, r = line.rstrip("\n").split("\t")
                names.append(name)
                means.append(float(m))
                variances.append(float(v))
                retained.append(bool(int(r)))
        except UnicodeDecodeError:
            raise EncodeError(f"{path}: not UTF-8 text") from None
        except ValueError as e:
            # every check on a line comes before its retained flag is kept
            raise EncodeError(f"{path}: line {len(retained) + 2}: {e}") from None
    return FeatureStats(
        means=np.array(means),
        variances=np.array(variances),
        retained=np.array(retained, dtype=bool),
        column_names=names,
    )


def save_dataset(ds: EncodedDataset, header_path, matrix_path, meta_path):
    """Header: text (rows, width, column names).  Matrix: row-major
    little-endian float64.  Meta: per-row patient_id, visit_count, label."""
    with open(header_path, "w", encoding="utf-8") as f:
        f.write(f"rows={ds.n_rows}\n")
        f.write(f"raw_width={ds.raw_width}\n")
        f.write("columns=" + ",".join(ds.column_names) + "\n")
    ds.features.astype("<f8").tofile(matrix_path)
    with open(meta_path, "w", encoding="utf-8") as f:
        f.write("patient_id\tvisit_count\tlabel\n")
        for pid, vc, y in zip(ds.patient_ids, ds.visit_counts, ds.labels):
            f.write(f"{pid}\t{vc}\t{y}\n")


def load_dataset(header_path, matrix_path, meta_path) -> EncodedDataset:
    """Read what ``save_dataset`` wrote; any malformed field or a meta row
    count that differs from the header raises ``EncodeError``."""
    kv = {}
    try:
        with open(header_path, encoding="utf-8") as f:
            for line in f:
                k, v = line.rstrip("\n").split("=", 1)
                kv[k] = v
        rows = int(kv["rows"])
        width = int(kv["raw_width"])
        columns = kv["columns"].split(",") if kv["columns"] else []
    except UnicodeDecodeError:
        raise EncodeError(f"{header_path}: not UTF-8 text") from None
    except KeyError as e:
        raise EncodeError(f"{header_path}: no {e.args[0]}= line") from None
    except ValueError as e:
        raise EncodeError(f"{header_path}: bad header: {e}") from None
    if rows < 0 or width < 0:
        raise EncodeError(f"{header_path}: negative rows={rows} or raw_width={width}")
    X = np.fromfile(matrix_path, dtype="<f8")
    if X.size != rows * width:
        raise EncodeError(f"{matrix_path}: expected {rows * width} values, found {X.size}")
    X = X.reshape(rows, width)
    pids, counts, labels = [], [], []
    with open(meta_path, encoding="utf-8") as f:
        try:
            f.readline()
            for line in f:
                pid, vc, y = line.rstrip("\n").split("\t")
                pids.append(pid)
                counts.append(int(vc))
                labels.append(int(y))
        except UnicodeDecodeError:
            raise EncodeError(f"{meta_path}: not UTF-8 text") from None
        except ValueError as e:
            # every check on a line comes before its label is kept
            raise EncodeError(f"{meta_path}: line {len(labels) + 2}: {e}") from None
    if len(labels) != rows:
        raise EncodeError(f"{meta_path}: {len(labels)} rows, header says {rows}")
    return EncodedDataset(
        features=X,
        labels=np.array(labels, dtype=np.int64),
        patient_ids=pids,
        visit_counts=np.array(counts, dtype=np.int64),
        raw_width=width,
        column_names=columns,
    )
