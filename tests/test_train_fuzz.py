"""Property test of the inputs the train stage reads.

The index files that ``edrisk train`` follows from the encoded matrix to its
training and validation rows, and the stats file it standardises with, are
truncated, byte-mutated, or have a line or a tab-separated field set to a
value near the edge of a check.  Each run must exit 0 with nothing on stderr,
or exit 1, 2 or 3 with one line on stderr: never a traceback.
"""

import contextlib
import functools
import io
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from edrisk import cli

from test_parse_fuzz import set_byte, truncate

INPUTS = ["pretrain.idx", "bootstrap.idx", "train.idx", "val.idx", "stats.tsv"]


@functools.cache
def split_dir_bytes() -> dict[str, bytes]:
    """Every file of a small synth/encode/split run, by name."""
    with tempfile.TemporaryDirectory() as d, contextlib.redirect_stdout(io.StringIO()):
        for argv in (
            ["synth", "--patients", "100"],
            ["encode", "--cohort", f"{d}/cohort.csv", "--spec", f"{d}/spec.txt"],
            ["split"],
        ):
            assert cli.main([*argv, "--out-dir", d, "--seed", "3"]) == 0
        return {p.name: p.read_bytes() for p in Path(d).iterdir()}


def set_field(data: bytes, at: tuple[int, int], value: bytes) -> bytes:
    rows = [line.split(b"\t") for line in data.split(b"\n")]
    r = at[0] % len(rows)
    rows[r][at[1] % len(rows[r])] = value
    return b"\n".join(b"\t".join(row) for row in rows)


def drop_line(data: bytes, at: int) -> bytes:
    lines = data.split(b"\n")
    del lines[at % len(lines)]
    return b"\n".join(lines)


positions = st.integers(0, 10**6)
field_at = st.tuples(positions, st.integers(0, 3))
byte_values = st.one_of(st.sampled_from(b"0123456789-\t\n #x."), st.integers(0, 255))
edge_values = st.sampled_from(
    [b"", b"0", b"1", b"-1", b"2", b"x", b"1.5", b"nan", b"inf", b"-inf", b"0.0", b"1e308",
     b"99999999", b"9223372036854775808", b"# seed=1", b"column", b"\xff", b"3\t4"]
)
mutation = st.one_of(
    st.tuples(st.just(truncate), positions),
    st.tuples(st.just(set_byte), positions, byte_values),
    st.tuples(st.just(set_field), field_at, edge_values),
    st.tuples(st.just(drop_line), positions),
)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(name=st.sampled_from(INPUTS), mutations=st.lists(mutation, min_size=1, max_size=3))
def test_mutated_train_input_fails_in_one_line(name, mutations):
    files = dict(split_dir_bytes())
    for op, *args in mutations:
        files[name] = op(files[name], *args)
    with tempfile.TemporaryDirectory() as d:
        for file, data in files.items():
            (Path(d) / file).write_bytes(data)
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = cli.main(["train", "--out-dir", d, "--arch", "nn2", "--steps", "3", "--batch-size", "16"])
    if code == 0:
        assert stderr.getvalue() == ""
    else:
        assert code in (1, 2, 3)
        assert len(stderr.getvalue().splitlines()) == 1, stderr.getvalue()
