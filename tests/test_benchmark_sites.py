"""The benchmark's tracer swaps named attributes of ``edrisk`` modules for
span-recording wrappers.  Every one of them must exist, so that a refactor
which drops or renames a traced name fails here, and not only in a
``perfbench/run.py --trace 1`` run.  Every workload also runs here at its
smoke size, so a change to a signature or a stage file it reads fails here."""

import importlib.util
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_site_resolves():
    # loaded by path and never registered in sys.modules: perfbench is read, not imported
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.SITES
    missing = [f"{mod.__name__}.{attr}" for mod, attr, _, _ in tracing.SITES if not hasattr(mod, attr)]
    assert missing == []


WORKLOADS = TRACING.with_name("workloads.py")


def _load_workloads(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve the module's string annotations through sys.modules,
    # so the module is registered for the test's duration only
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["cohort_build", "train_b4096", "repro"])
def test_smoke_workload_passes_its_checks(monkeypatch, tmp_path, name):
    # perfbench calls the pipeline's functions positionally; a changed
    # signature shows here and not only in a benchmark run
    workloads = _load_workloads(monkeypatch)
    failures = []
    checks = workloads.Checks(failures.append)
    wl = workloads.WORKLOADS[name](5, "smoke", tmp_path, checks)
    wl.setup()
    outcome = wl.run()
    assert failures == [] and checks.failed == 0 and checks.attempted > 0
    assert outcome.visits > 0 and outcome.fingerprint


def test_cohort_build_checks_hold_on_the_parallel_draw(monkeypatch, tmp_path):
    # the workload's own output checks, on a serial and on a forked draw of
    # the smoke cohort, before any benchmark run
    from test_synth import force_workers

    workloads = _load_workloads(monkeypatch)

    def fingerprint():
        failures = []
        checks = workloads.Checks(failures.append)
        outcome = workloads.WORKLOADS["cohort_build"](5, "smoke", tmp_path, checks).run()
        assert failures == [] and checks.failed == 0 and checks.attempted > 0
        return outcome.fingerprint

    force_workers(monkeypatch, 1)
    serial = fingerprint()
    force_workers(monkeypatch, 2)
    assert fingerprint() == serial
