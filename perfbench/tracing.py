"""Span tracing installed from outside the program.

A ``Tracer`` swaps module attributes of ``edrisk`` for wrappers that record
one span per call.  Every wrapper is installed where the caller looks the
name up: ``cli`` calls ``synth.generate`` through the module, so the
attribute of ``edrisk.synth`` is swapped; ``train.train`` calls ``grad`` by
the name it imported, so ``edrisk.train.grad`` is swapped.  The program
source is untouched, and ``installed()`` restores every attribute on exit.

Spans are kept in memory as ``[name, start, end, parent, run_id]`` and
only turned into metrics or written out after the traced region ends.
"""

from __future__ import annotations

import contextlib
import functools
import os
import statistics
from collections import defaultdict
from time import perf_counter

import edrisk.cli
import edrisk.encode
import edrisk.evaluation
import edrisk.mlp
import edrisk.resample
import edrisk.schema
import edrisk.synth
import edrisk.train

ARCHS = tuple(edrisk.cli.ARCH_INDEX)  # the archs cli repro trains
MODULES = ("synth", "schema", "encode", "resample", "mlp", "train", "evaluation", "cli")
# a stage's resident set is read when the span that finishes it closes
STAGE_END = {
    "synth.generate": "synth",
    "encode.encode_cohort": "encode",
    "resample.balance_bootstrap": "split",
    "train.train": "train",
    "evaluation.evaluate": "eval",
}


def rss_mb() -> float:
    """Current resident set of this process in MiB."""
    with open("/proc/self/statm", encoding="ascii") as f:
        pages = int(f.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def _hidden_activations_name(tracer, args, kwargs):
    # train.train calls it directly only for the validation pass; train.loss
    # calls it for the full-train loss
    parent = tracer.spans[tracer.stack[-1]][0] if tracer.stack else ""
    return "train.validation_forward" if parent == "train.train" else "mlp.hidden_activations"


def _per_arch(stage):
    def namer(tracer, args, kwargs):
        return f"cli.{stage}.{args[0].arch}"

    return namer


def _count_sha_bytes(tracer, args, kwargs):
    tracer.counts["cli.sha256.bytes"] += os.path.getsize(args[0])


# (module, attribute, span name or namer, on_call hook)
SITES = [
    (edrisk.synth, "generate", "synth.generate", None),
    (edrisk.schema, "validate_cohort", "schema.validate_cohort", None),
    (edrisk.schema, "write_visits", "schema.write_visits", None),
    (edrisk.schema, "parse_visits", "schema.parse_visits", None),
    (edrisk.encode, "encode_cohort", "encode.encode_cohort", None),
    (edrisk.encode, "save_dataset", "encode.save_dataset", None),
    (edrisk.encode, "load_dataset", "encode.load_dataset", None),
    (edrisk.encode, "fit_stats", "encode.fit_stats", None),
    (edrisk.encode, "apply_stats", "encode.apply_stats", None),
    (edrisk.encode, "save_stats", "encode.save_stats", None),
    (edrisk.encode, "load_stats", "encode.load_stats", None),
    (edrisk.resample, "split", "resample.split", None),
    (edrisk.resample, "train_val_split", "resample.train_val_split", None),
    (edrisk.resample, "balance_bootstrap", "resample.balance_bootstrap", None),
    (edrisk.resample, "save_indices", "resample.save_indices", None),
    (edrisk.resample, "load_indices", "resample.load_indices", None),
    (edrisk.mlp, "init", "mlp.init", None),
    (edrisk.mlp, "forward_batch", "mlp.forward_batch", None),
    (edrisk.mlp, "save_model", "mlp.save_model", None),
    (edrisk.mlp, "load_model", "mlp.load_model", None),
    (edrisk.train, "train", "train.train", None),
    (edrisk.train, "grad", "train.grad", None),
    (edrisk.train, "loss", "train.loss", None),
    (edrisk.train, "hidden_activations", _hidden_activations_name, None),
    (edrisk.evaluation, "evaluate", "evaluation.evaluate", None),
    (edrisk.evaluation, "apply_stats", "encode.apply_stats", None),
    (edrisk.evaluation, "forward_batch", "mlp.forward_batch", None),
    (edrisk.evaluation, "write_report", "evaluation.write_report", None),
    (edrisk.evaluation, "write_roc", "evaluation.write_roc", None),
    (edrisk.cli, "main", "cli.main", None),
    (edrisk.cli, "cmd_synth", "cli.cmd_synth", None),
    (edrisk.cli, "cmd_encode", "cli.cmd_encode", None),
    (edrisk.cli, "cmd_split", "cli.cmd_split", None),
    (edrisk.cli, "cmd_train", _per_arch("cmd_train"), None),
    (edrisk.cli, "cmd_eval", _per_arch("cmd_eval"), None),
    (edrisk.cli, "_sha256", "cli.sha256", _count_sha_bytes),
]


class Tracer:
    """Records spans for the calls made while ``installed()`` is active."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.rss_after: dict[str, float] = {}

    def _wrap(self, fn, name, on_call):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = name(self, args, kwargs) if callable(name) else name
            if on_call is not None:
                on_call(self, args, kwargs)
            rec = [span_name, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.run_id]
            self.stack.append(len(self.spans))
            self.spans.append(rec)
            rec[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                self.stack.pop()
                stage = STAGE_END.get(span_name)
                if stage is not None:
                    self.rss_after[stage] = max(self.rss_after.get(stage, 0.0), rss_mb())

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _, _ in SITES]
        try:
            for (mod, attr, name, on_call), (_, _, fn) in zip(SITES, saved):
                setattr(mod, attr, self._wrap(fn, name, on_call))
            yield self
        finally:
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)

    def span_records(self) -> list[dict]:
        return [
            {"id": i, "name": n, "start": s, "end": e, "parent": p, "run": r}
            for i, (n, s, e, p, r) in enumerate(self.spans)
        ]

    def metrics(self, wall_s: float) -> dict[str, float]:
        """Per-module totals, counts and self times of this tracer's spans.
        ``wall_s`` is the traced timed region, the base of ``cli.cmd_coverage``."""
        total = defaultdict(float)
        calls = defaultdict(int)
        child = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            total[name] += end - start
            calls[name] += 1
            if parent >= 0:
                child[parent] += end - start
        self_s = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            self_s[name] += end - start - child[i]

        m = {}
        for name in (
            "synth.generate", "schema.write_visits", "schema.parse_visits", "schema.validate_cohort",
            "encode.encode_cohort", "encode.save_dataset", "encode.load_dataset", "encode.fit_stats",
            "encode.apply_stats", "resample.balance_bootstrap", "resample.save_indices",
            "resample.load_indices", "cli.sha256", "train.train", "train.grad", "train.loss",
            "train.validation_forward", "mlp.forward_batch", "mlp.save_model", "mlp.load_model",
            "evaluation.evaluate",
        ):
            m[f"{name}.s"] = total[name]
        for name in ("encode.load_dataset", "resample.load_indices", "cli.sha256", "train.grad", "train.loss"):
            m[f"{name}.calls"] = calls[name]
        m["cli.sha256.bytes"] = self.counts["cli.sha256.bytes"]

        cmds = ["cli.cmd_synth", "cli.cmd_encode", "cli.cmd_split"]
        cmds += [f"cli.cmd_{stage}.{arch}" for stage in ("train", "eval") for arch in ARCHS]
        for name in cmds:
            m[f"{name}.s"] = total[name]
        m["cli.cmd_coverage"] = sum(total[n] for n in cmds) / wall_s

        # steps and evaluations counted inside train.train only
        train_ids = {i for i, rec in enumerate(self.spans) if rec[0] == "train.train"}
        steps = sum(1 for rec in self.spans if rec[0] == "train.grad" and rec[3] in train_ids)
        evals = sum(1 for rec in self.spans if rec[0] == "train.loss" and rec[3] in train_ids)
        m["train.steps"] = steps
        m["train.evals"] = evals
        m["train.steps_per_s"] = steps / total["train.train"] if total["train.train"] else 0.0
        grads = [end - start for name, start, end, _, _ in self.spans if name == "train.grad"]
        m["train.grad.ms_p50"] = 1e3 * statistics.median(grads) if grads else 0.0
        m["train.self.s"] = self_s["train.train"]
        evals_s = total["train.loss"] + total["train.validation_forward"]
        m["train.eval_share"] = evals_s / total["train.train"] if total["train.train"] else 0.0

        for module in MODULES:
            m[f"layer.{module}.self_s"] = sum(v for k, v in self_s.items() if k.split(".")[0] == module)
        for stage in ("synth", "encode", "split", "train", "eval"):
            m[f"proc.rss_mb.after.{stage}"] = self.rss_after.get(stage, 0.0)
        m["trace.spans"] = len(self.spans)
        return m
