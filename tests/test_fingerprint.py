"""``edrisk repro`` writes the bytes that ``fingerprint.tsv`` records, through
the forked and the serial path.  A change that moves any output (a seed
offset, a row order, which rows a stage reads) fails here and names the
files it moved; one that moves them on purpose rewrites the file with
``PYTHONPATH=src python tests/fingerprint.py``."""

import pytest

import fingerprint
from edrisk import workers


@pytest.mark.parametrize("forked", [True, False], ids=["forked", "serial"])
def test_repro_outputs_match_fingerprint(monkeypatch, tmp_path, forked):
    version, core = fingerprint.machine()
    expected = fingerprint.load().get((version, core))
    if expected is None:
        pytest.skip(
            f"fingerprint.tsv lists no hashes for numpy {version} on OpenBLAS core {core}; "
            "model bytes depend on both, so this machine's rows must be added with tests/fingerprint.py"
        )
    fanned_out = []
    run_forked = workers.run_forked
    monkeypatch.setattr(workers, "run_forked", lambda *a: fanned_out.append(1) or run_forked(*a))
    monkeypatch.setattr(workers, "usable_cpus", lambda: 2 if forked else 1)
    for seed, files in sorted(expected.items()):
        got = fingerprint.repro_hashes(tmp_path / str(seed), seed)
        differ = sorted(name for name in files.keys() | got.keys() if files.get(name) != got.get(name))
        assert not differ, f"repro at seed {seed} wrote files unlike fingerprint.tsv: {', '.join(differ)}"
    assert len(fanned_out) == (len(expected) if forked else 0)
