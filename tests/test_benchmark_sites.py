"""The benchmark's tracer swaps named attributes of ``edrisk`` modules for
span-recording wrappers.  Every one of them must exist, so that a refactor
which drops or renames a traced name fails here, and not only in a
``perfbench/run.py --trace 1`` run."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_site_resolves():
    # loaded by path and never registered in sys.modules: perfbench is read, not imported
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.SITES
    missing = [f"{mod.__name__}.{attr}" for mod, attr, _, _ in tracing.SITES if not hasattr(mod, attr)]
    assert missing == []
