"""Feature encoding: a ``schema.Cohort`` -> fixed-width numeric matrix.

Row layout: [6 numeric fields | one-hot blocks in spec order | 306-entry
cumulative diagnosis block | visit counter].  The diagnosis block for a
row is the running sum of per-visit one-hot code vectors over that
patient's visits up to and including the row; duplicate codes within one
visit count once (set semantics), repeats across visits accumulate.

``encode_cohort`` works on whole columns: the one-hot blocks and the
per-visit code indicators are set by fancy indexing, and the diagnosis
block is the indicators summed in place by ``Cohort.accumulate``, a
cumulative sum in (patient_id, visit_seq) order.  The matrix is float32, every entry an integer
within +-2**24 (``EncodeError`` beyond), which float32 holds exactly, so the sums are exact.

Normalization stats (per-column mean, population variance, zero-variance
drop mask) are fit on training rows only and reapplied verbatim to test
rows.  ``fit_stats`` and ``apply_stats`` take the raw matrix and an
optional ``rows`` index, and walk those rows ``BLOCK_ROWS`` at a time in float64,
so no temporary is as large as the rows they cover.  Column sums run row by
row in order, as numpy reduces a C-contiguous matrix over axis 0, so the stats
are bit for bit the float64 ``X[rows].mean(axis=0)`` and ``.var(axis=0)``.
A non-finite stat or standardised value raises ``EncodeError``.
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
    Cohort,
)

N_NUM = len(NUMERIC_FIELDS)
# CCS code -> its column in the diagnosis block
_CCS_COLUMN = np.zeros(max(CCS_SLOT) + 1, dtype=np.int64)
_CCS_COLUMN[list(CCS_SLOT)] = list(CCS_SLOT.values())
# rows per block of the stats passes; a 435-column block is 0.85 MiB
BLOCK_ROWS = 256


class EncodeError(Exception):
    pass


class TooFewRows(EncodeError):
    pass


class WidthMismatch(EncodeError):
    pass


def raw_width(spec: CategoricalSpec) -> int:
    return N_NUM + spec.one_hot_width + N_CCS + 1


def feature_names(spec: CategoricalSpec) -> list[str]:
    names = list(NUMERIC_FIELDS)
    for fname in CATEGORICAL_FIELDS:
        names += [f"{fname}={lv}" for lv in spec.levels[fname]]
    names += [f"ccs_{c}" for c in sorted(CCS_SLOT, key=CCS_SLOT.get)]
    names.append("visit_count")
    return names


@dataclass
class EncodedDataset:
    features: np.ndarray  # (visits, raw_width) float32, raw integer values before standardisation
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


def encode_cohort(c: Cohort, spec: CategoricalSpec | None = None) -> EncodedDataset:
    """Encode all visits.  Rows come out in cohort order; each row's
    diagnosis block sums its patient's visits up to its visit_seq, so
    interleaved file orders give the same matrix as sorted ones.  ``spec``,
    when given, must equal the cohort's own."""
    if spec is not None and spec != c.spec:
        raise EncodeError("the spec differs from the one the cohort's level indices refer to")
    spec = c.spec
    n = len(c)
    counts = c.visit_seq + 1
    fields = np.column_stack([c.numeric, counts])
    big = np.argwhere((fields > 1 << 24) | (fields < -(1 << 24)))  # float32 holds every integer up to 2**24
    if big.size:
        i, j = big[0]
        raise EncodeError(f"cohort row {i}: {(NUMERIC_FIELDS + ['visit_count'])[j]} {fields[i, j]} is beyond "
                          "+-2**24, which float32 features cannot hold exactly")
    X = np.zeros((n, raw_width(spec)), dtype=np.float32)
    X[:, :N_NUM] = c.numeric
    widths = [spec.width(name) for name in CATEGORICAL_FIELDS]
    block_start = N_NUM + np.cumsum([0] + widths[:-1])
    X[np.arange(n)[:, None], block_start + c.categorical] = 1.0
    diag = N_NUM + spec.one_hot_width
    history = X[:, diag : diag + N_CCS]
    # each visit's own codes first; a code listed twice sets its entry to 1.0 twice
    history[np.nonzero(c.ccs_present)[0], _CCS_COLUMN[c.ccs[c.ccs_present]]] = 1.0
    c.accumulate(history)
    X[:, -1] = counts
    return EncodedDataset(
        features=X,
        labels=c.outcome.copy(),
        patient_ids=c.patient_id.tolist(),
        visit_counts=counts,
        raw_width=X.shape[1],
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


def _row_blocks(X: np.ndarray, rows):
    """(start, float64 block) over ``X``, or over ``X[rows]`` gathered a block at a time."""
    n = len(X) if rows is None else len(rows)
    for i in range(0, n, BLOCK_ROWS):
        yield i, (X[i : i + BLOCK_ROWS] if rows is None else X[rows[i : i + BLOCK_ROWS]]).astype(np.float64, copy=False)


def _column_sums(X: np.ndarray, rows, shift=None) -> np.ndarray:
    """Column sums of the rows (or of ``(row - shift)**2``), each block reduced
    in one buffer below the running total: row by row in order, the additions
    and so the bits of ``np.add.reduce(X, axis=0)`` on a C-contiguous X."""
    buf, total = np.empty((BLOCK_ROWS + 1, X.shape[1])), np.empty(X.shape[1])
    for i, block in _row_blocks(X, rows):
        d = buf[1 : len(block) + 1]
        if shift is None:
            d[...] = block
        else:
            np.square(np.subtract(block, shift, out=d), out=d)
        buf[0] = total  # skipped by the first block, which starts from its own first row
        np.add.reduce(buf[0 if i else 1 : len(block) + 1], axis=0, out=total)
    return total


def fit_stats(
    train_features: np.ndarray, column_names: list[str] | None = None, rows: np.ndarray | None = None
) -> FeatureStats:
    """Column means and population variances over ``rows`` (all when None), bit
    for bit the float64 ``X[rows].mean(axis=0)`` and ``X[rows].var(axis=0)``."""
    X = np.asarray(train_features)
    n = len(X) if rows is None else len(rows)
    if n < 2:
        raise TooFewRows(f"need at least 2 rows to fit stats, got {n}")
    if column_names is None:
        column_names = [f"col_{j}" for j in range(X.shape[1])]
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite result is reported below
        means = _column_sums(X, rows) / n
        variances = _column_sums(X, rows, means) / n
    bad = ~(np.isfinite(means) & np.isfinite(variances))
    if bad.any():
        j = int(np.argmax(bad))
        raise EncodeError(f"column {column_names[j]!r} has mean {float(means[j])!r} and variance "
                          f"{float(variances[j])!r}: a value is non-finite or too large to square")
    return FeatureStats(means=means, variances=variances, retained=variances > 0.0, column_names=column_names)


def apply_stats(features: np.ndarray, stats: FeatureStats, rows: np.ndarray | None = None) -> np.ndarray:
    """Standardize ``X[rows]`` (all rows when None) with training-set stats
    and drop zero-variance columns."""
    X = np.asarray(features)
    if X.shape[1] != stats.width:
        raise WidthMismatch(f"matrix has {X.shape[1]} columns, stats expect {stats.width}")
    cols = np.flatnonzero(stats.retained)
    means, sds = stats.means[cols], np.sqrt(stats.variances[cols])
    # row-major, filled a block at a time: X[:, cols] would come out
    # column-major, which makes every later row gather strided.  mode="clip"
    # writes straight into Z (mode="raise" buffers); every index is in range
    Z = np.empty((len(X) if rows is None else len(rows), stats.p))
    for i, block in _row_blocks(X, rows):
        z = np.take(block, cols, axis=1, out=Z[i : i + len(block)], mode="clip")
        z -= means
        z /= sds
        if not np.isfinite(z).all():
            k = i + int(np.argmin(np.isfinite(z).all(axis=1)))
            raise EncodeError(f"standardised row {k} of {len(Z)} holds a non-finite value")
    return Z


# ---------------------------------------------------------------------------
# persistence


def save_stats(stats: FeatureStats, path):
    if not len(stats.column_names) == len(stats.means) == len(stats.variances) == len(stats.retained):
        raise EncodeError(f"{len(stats.column_names)} column names for {len(stats.means)} columns of stats")
    with open(path, "w", encoding="utf-8") as f:
        f.write("column\tmean\tvariance\tretained\n")
        for name, m, v, r in zip(stats.column_names, stats.means, stats.variances, stats.retained):
            f.write(f"{name}\t{float(m)!r}\t{float(v)!r}\t{int(r)}\n")


def load_stats(path) -> FeatureStats:
    """Read what ``save_stats`` wrote; a malformed line, a non-finite mean or
    a retained column whose variance is not finite and > 0 raises
    ``EncodeError``."""
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
    stats = FeatureStats(
        means=np.array(means),
        variances=np.array(variances),
        retained=np.array(retained, dtype=bool),
        column_names=names,
    )
    usable_var = np.isfinite(stats.variances) & (stats.variances > 0.0)
    bad = ~np.isfinite(stats.means) | (stats.retained & ~usable_var)
    if bad.any():
        j = int(np.argmax(bad))
        raise EncodeError(
            f"{path}: line {j + 2}: column {names[j]!r} has mean {means[j]!r} and variance "
            f"{variances[j]!r}; means must be finite and a retained column's variance finite and > 0"
        )
    return stats


def save_dataset(ds: EncodedDataset, header_path, matrix_path, meta_path):
    """Header: text (rows, width, column names).  Matrix: row-major
    little-endian float32.  Meta: per-row patient_id, visit_count, label."""
    with open(header_path, "w", encoding="utf-8") as f:
        f.write(f"rows={ds.n_rows}\n")
        f.write(f"raw_width={ds.raw_width}\n")
        f.write("columns=" + ",".join(ds.column_names) + "\n")
    np.ascontiguousarray(ds.features, dtype="<f4").tofile(matrix_path)  # no copy of a C-ordered float32 matrix
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
    if len(columns) != width:
        raise EncodeError(f"{header_path}: {len(columns)} column names for raw_width={width}")
    X = np.fromfile(matrix_path, dtype=np.uint8)
    if X.size != rows * width * 4:
        raise EncodeError(f"{matrix_path}: {X.size} bytes, expected {rows * width * 4} for {rows} x {width} float32 values")
    X = X.view("<f4").reshape(rows, width)
    pids, counts, labels = [], [], []
    with open(meta_path, encoding="utf-8") as f:
        try:
            f.readline()
            for line in f:
                pid, vc, y = line.rstrip("\n").split("\t")
                vc, y = int(vc), int(y)
                if vc < 1 or y not in (0, 1):
                    raise ValueError(f"visit_count {vc} < 1" if vc < 1 else f"label {y} is not 0 or 1")
                pids.append(pid)
                counts.append(vc)
                labels.append(y)
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
