"""Property test of the cohort parser against the row-wise oracle.

Small valid cohort files are truncated, byte-mutated, and have fields
swapped or set to values near the edge of a check.  ``schema.parse_visits``
must accept exactly the files that ``rowwise.parse_records`` accepts, with
the same visits, and reject the others with the same error class, row and
message; ``edrisk encode`` on a rejected file must exit 1, 2 or 3 with one
line on stderr.
"""

import contextlib
import functools
import io
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from edrisk import cli, schema
from edrisk.synth import default_config, generate

from rowwise import parse_records, to_records

SPEC = schema.default_spec()


@functools.cache
def cohort_bytes(seed: int) -> bytes:
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "cohort.csv"
        schema.write_visits(generate(default_config(n_patients=5, seed=seed)), path)
        return path.read_bytes()


def truncate(data: bytes, at: int) -> bytes:
    return data[: at % (len(data) + 1)]


def set_byte(data: bytes, at: int, value: int) -> bytes:
    if not data:
        return data
    at %= len(data)
    return data[:at] + bytes([value]) + data[at + 1 :]


def _fields(data: bytes, at: tuple[int, int]) -> tuple[list[list[bytes]], int, int]:
    rows = [line.split(b",") for line in data.split(b"\n")]
    r = at[0] % len(rows)
    return rows, r, at[1] % len(rows[r])


def _join(rows: list[list[bytes]]) -> bytes:
    return b"\n".join(b",".join(row) for row in rows)


def swap_fields(data: bytes, a: tuple[int, int], b: tuple[int, int]) -> bytes:
    rows, ra, fa = _fields(data, a)
    _, rb, fb = _fields(data, b)
    rows[ra][fa], rows[rb][fb] = rows[rb][fb], rows[ra][fa]
    return _join(rows)


def set_field(data: bytes, at: tuple[int, int], value: bytes) -> bytes:
    rows, r, f = _fields(data, at)
    rows[r][f] = value
    return _join(rows)


positions = st.integers(0, 10**6)
field_at = st.tuples(positions, st.integers(0, len(schema.COLUMNS) - 1))
byte_values = st.one_of(st.sampled_from(b'0123456789,"\r\n -+x_'), st.integers(0, 255))
edge_values = st.sampled_from(
    [b"", b"0", b"1", b"2", b"-1", b"9", b"19", b"20", b"285", b"286", b"650", b"671", b"P0000001"]
)
mutation = st.one_of(
    st.tuples(st.just(truncate), positions),
    st.tuples(st.just(set_byte), positions, byte_values),
    st.tuples(st.just(swap_fields), field_at, field_at),
    st.tuples(st.just(set_field), field_at, edge_values),
)


def outcome(parse, path):
    try:
        return parse(path, SPEC), None
    except schema.SchemaError as e:
        return None, e


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 3), mutations=st.lists(mutation, min_size=1, max_size=4))
def test_parser_agrees_with_rowwise_oracle(seed, mutations):
    data = cohort_bytes(seed)
    for op, *args in mutations:
        data = op(data, *args)
    with tempfile.TemporaryDirectory() as d:
        d = Path(d)
        path = d / "cohort.csv"
        path.write_bytes(data)
        SPEC.save(d / "spec.txt")
        expected, expected_error = outcome(parse_records, path)
        got, error = outcome(schema.parse_visits, path)
        if expected_error is None:
            assert error is None, f"oracle accepts, parser raises {error!r}"
            assert to_records(got) == expected
        else:
            assert type(error) is type(expected_error), f"{error!r} vs {expected_error!r}"
            assert str(error) == str(expected_error)
            assert getattr(error, "row", None) == getattr(expected_error, "row", None)

        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = cli.main(["encode", "--out-dir", str(d), "--cohort", str(path), "--spec", str(d / "spec.txt")])
    if expected_error is None:
        assert code == 0
    else:
        assert code in (1, 2, 3)
        assert len(stderr.getvalue().splitlines()) == 1, stderr.getvalue()
