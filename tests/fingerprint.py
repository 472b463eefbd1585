"""The end-to-end fingerprint: the SHA-256 of every file ``edrisk repro``
writes but ``run.log``, at a small size and a few seeds, kept in
``fingerprint.tsv`` next to this script.

Model bytes depend on the BLAS kernel and on the numpy version, so each row
names the numpy version and the OpenBLAS core it was taken on, and
``test_fingerprint.py`` checks only the rows of the machine it runs on.
A change that moves numbers on purpose rewrites this machine's rows with

    PYTHONPATH=src python tests/fingerprint.py

which keeps the rows of other numpy versions and cores as they are.
"""

import contextlib
import ctypes
import hashlib
import io
import sys
import tempfile
from pathlib import Path

import numpy as np

from edrisk import cli, workers

TSV = Path(__file__).with_name("fingerprint.tsv")
HEADER = "numpy\tblas_core\tseed\tfile\tsha256"
SEEDS = (7, 11)
ARGV = ("--patients", "600", "--steps", "250")


def blas_core() -> str:
    """The OpenBLAS core numpy's BLAS runs on (``SkylakeX``, say), or ``unknown``
    where that BLAS is not the scipy-openblas numpy bundles."""
    lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)  # dlsym here also searches the OpenBLAS it links
    try:
        corename = lib.scipy_openblas_get_corename64_
    except AttributeError:
        return "unknown"
    corename.argtypes, corename.restype = [], ctypes.c_char_p
    return corename().decode("ascii").strip()


def machine() -> tuple[str, str]:
    """The (numpy version, OpenBLAS core) pair that keys the fingerprint's rows."""
    return np.__version__, blas_core()


def repro_hashes(out: Path, seed: int) -> dict[str, str]:
    """Run ``edrisk repro`` at ``seed`` into ``out``; the SHA-256 of each file it wrote but run.log."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["repro", "--out-dir", str(out), "--seed", str(seed), *ARGV])
    if code != 0:
        raise RuntimeError(f"repro at seed {seed} exited {code}")
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir()) if p.name != "run.log"}


def load() -> dict[tuple[str, str], dict[int, dict[str, str]]]:
    """The file's hashes, by (numpy version, core), then by seed, then by file name."""
    rows = TSV.read_text(encoding="ascii").splitlines()
    if rows[0] != HEADER:
        raise ValueError(f"{TSV}: header {rows[0]!r}, expected {HEADER!r}")
    table = {}
    for row in rows[1:]:
        version, core, seed, name, digest = row.split("\t")
        table.setdefault((version, core), {}).setdefault(int(seed), {})[name] = digest
    return table


def main():
    """Rewrite this machine's rows from the serial path; the fingerprint test checks the forked path too."""
    key = machine()
    old = TSV.read_text(encoding="ascii").splitlines()[1:] if TSV.exists() else []
    kept = [row for row in old if tuple(row.split("\t")[:2]) != key]
    workers.usable_cpus = lambda: 1
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        for seed in SEEDS:
            for name, digest in repro_hashes(Path(tmp) / str(seed), seed).items():
                rows.append("\t".join([*key, str(seed), name, digest]))
    TSV.write_text("\n".join([HEADER, *sorted(kept + rows)]) + "\n", encoding="ascii")
    print(f"{TSV}: {len(rows)} rows for numpy {key[0]} on OpenBLAS core {key[1]}", file=sys.stderr)


if __name__ == "__main__":
    main()
