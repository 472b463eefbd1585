"""The three benchmark workloads.

Each workload builds its inputs from the run's seed in ``setup`` (not
timed), then ``run`` executes its timed region once and checks the
outputs outside the timed region.  A run repeats ``run`` and reports
medians.  Seed offsets follow ``edrisk.cli``: split seed+1, bootstrap
seed+2, train/validation split seed+3, nn4 init seed+11, nn4 shuffling
seed+21.

Why these three (see RATIONALE.md for the module-to-metric map):
- cohort_build runs the data stages only, so synth, schema and encode do
  the work and a training change must read "no change" here;
- train_b4096 trains nn4 at batch 4096 with a fixed step budget, so the
  GEMMs and the once-per-epoch full-train loss pass dominate;
- repro is the user's own ``edrisk repro`` command, the only workload that
  runs cli (dataset reloads, index loaders, SHA-256 of the outputs) and
  small-batch training, where per-step overhead dominates.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from edrisk import cli, encode, evaluation, mlp, resample, schema, synth, train

FRACTION = 0.8
WIDTH = 435  # raw feature width of the default spec
NO_EARLY_STOP = 10**9  # patience that never runs out: every run takes the full step budget
# criterion 7's AUC floor holds at the full sizes; smoke sizes train a few
# dozen steps on a few thousand rows, so their floor only asks for a model
# clearly better than chance
AUC_FLOOR = {"full": 0.90, "smoke": 0.60}
# criterion 7's prevalence bands.  Criterion 7 pins seed 7; on other seeds
# the realized prevalence of a 50,000-patient cohort strays by sampling
# alone (seed 13 puts group 659 at 0.1905 against 0.162 +- 0.02), so a band
# widens to four standard errors when that is wider.  All rows of one
# patient share its outcome, so the error is taken over patients.
OVERALL_TOL, GROUP_TOL, BAND_SIGMAS = 0.003, 0.02, 4.0


def prevalence_bands(ds) -> list[tuple[str, float, float, float]]:
    """(group, realized row prevalence, target, tolerance) for the overall
    cohort and each prior-diagnosis group, with the evaluator's
    cumulative-history subgroup rule."""
    pids = np.asarray(ds.patient_ids)
    bands = []
    for group, target in synth.DEFAULT_TARGETS.items():
        if group == "overall":
            filt, tol = evaluation.SubgroupFilter.all_rows(), OVERALL_TOL
        else:
            filt, tol = evaluation.SubgroupFilter.ccs_any(synth.RISK_GROUPS[group]), GROUP_TOL
        m = filt.mask(ds)
        _, rows = np.unique(pids[m], return_counts=True)
        se = math.sqrt(target * (1 - target) * float(np.sum(rows.astype(np.float64) ** 2))) / max(m.sum(), 1)
        bands.append((group, float(ds.labels[m].mean()) if m.any() else math.nan, target, max(tol, BAND_SIGMAS * se)))
    return bands


class Checks:
    """Counts output checks; a failed check is a failed operation."""

    def __init__(self, log):
        self.attempted = 0
        self.failed = 0
        self._log = log

    def __call__(self, ok, what: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self._log(f"check failed: {what}")


@dataclass
class Outcome:
    wall_s: float
    visits: int
    fingerprint: str  # digest of the outputs; equal across runs of one seed
    auc_all: float = 0.0


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p if isinstance(p, bytes) else memoryview(np.ascontiguousarray(p)).cast("B"))
    return h.hexdigest()


class Workload:
    name = ""
    sizes: dict[str, dict] = {}

    def __init__(self, seed: int, size: str, workdir: Path, checks: Checks):
        self.seed = seed
        self.size = self.sizes[size]
        self.auc_floor = AUC_FLOOR[size]
        self.workdir = workdir
        self.checks = checks

    def setup(self):
        raise NotImplementedError

    def run(self) -> Outcome:
        raise NotImplementedError

    @contextlib.contextmanager
    def scratch_dir(self):
        d = Path(tempfile.mkdtemp(prefix=f"{self.name}-", dir=self.workdir))
        try:
            yield d
        finally:
            shutil.rmtree(d)


class Stopwatch:
    """Sums the time spent inside its ``with`` blocks."""

    def __init__(self):
        self.total = 0.0

    def __enter__(self):
        self._t0 = perf_counter()

    def __exit__(self, *exc):
        self.total += perf_counter() - self._t0


class CohortBuild(Workload):
    """Synthetic cohort -> CSV -> parse -> encode -> save/load -> split,
    bootstrap and index round trip -> fit/apply stats.  No training.

    The timed region is three segments; the checks between them run off
    the clock, and each drops what later stages no longer use, so peak RSS
    reflects the pipeline rather than copies the checks keep."""

    name = "cohort_build"
    sizes = {"full": {"patients": 20_000}, "smoke": {"patients": 1_000}}
    WARM_PATIENTS = 1_000  # enough rows that both classes reach the bootstrap

    def setup(self):
        # pays first-call costs (file creation, lazy numpy paths) before timing
        self._build(self.WARM_PATIENTS)

    def run(self) -> Outcome:
        return self._build(self.size["patients"])

    def _build(self, patients: int) -> Outcome:
        seed, check, clock = self.seed, self.checks, Stopwatch()
        spec = schema.default_spec()
        with self.scratch_dir() as d:
            with clock:
                records = synth.generate(synth.default_config(n_patients=patients, seed=seed), spec)
                summary = schema.validate_cohort(records)
                schema.write_visits(records, d / "cohort.csv")
                parsed = schema.parse_visits(d / "cohort.csv", spec)
            n = len(records)
            check(summary.patients == patients, f"{summary.patients} patients, expected {patients}")
            check(summary.visits == n == len(parsed), f"{len(parsed)} visits parsed, {n} generated")
            check(parsed == records, "parsed CSV differs from the generated records")
            del records

            paths = (d / "features.hdr", d / "features.f64", d / "meta.tsv")
            with clock:
                ds = encode.encode_cohort(parsed, spec)
                encode.save_dataset(ds, *paths)
                loaded = encode.load_dataset(*paths)
            del parsed
            check(ds.raw_width == WIDTH and ds.features.shape == (n, WIDTH), f"width {ds.features.shape}")
            for group, got, target, tol in prevalence_bands(ds):
                check(abs(got - target) <= tol, f"group {group} prevalence {got:.4f}, target {target} +- {tol:.4f}")
            check(np.array_equal(loaded.features, ds.features) and np.array_equal(loaded.labels, ds.labels)
                  and loaded.patient_ids == ds.patient_ids
                  and np.array_equal(loaded.visit_counts, ds.visit_counts)
                  and loaded.column_names == ds.column_names, "reloaded dataset differs from the saved one")
            del ds

            with clock:
                sp = resample.split(loaded.n_rows, FRACTION, seed + 1)
                plan = resample.balance_bootstrap(loaded.labels[sp.first], seed + 2)
                saved = {"pretrain": (sp.first, sp.seed), "test": (sp.second, sp.seed),
                         "bootstrap": (plan.indices, plan.seed)}
                for name, (idx, s) in saved.items():
                    resample.save_indices(idx, s, d / f"{name}.idx")
                reloaded = {name: resample.load_indices(d / f"{name}.idx") for name in saved}
                pre = reloaded["pretrain"][0]
                stats = encode.fit_stats(loaded.features[pre], loaded.column_names)
                X = encode.apply_stats(loaded.features[pre], stats)
        for name, (idx, s) in saved.items():
            got, got_seed = reloaded[name]
            check(np.array_equal(got, idx) and got_seed == s, f"{name}.idx reload differs")
        check(X.shape == (len(sp.first), stats.p) and np.isfinite(X).all(),
              "normalized matrix has the wrong shape or non-finite values")
        fp = _digest(loaded.features, loaded.labels, X)
        return Outcome(wall_s=clock.total, visits=n, fingerprint=fp)


class TrainB4096(Workload):
    """nn4, SGD + momentum, batch 4096, a fixed step budget with the default
    once-per-epoch evaluation, then ``evaluation.evaluate`` on the test rows."""

    name = "train_b4096"
    sizes = {"full": {"patients": 20_000, "steps": 60}, "smoke": {"patients": 2_000, "steps": 12}}
    BATCH = 4096

    def setup(self):
        seed = self.seed
        spec = schema.default_spec()
        records = synth.generate(synth.default_config(n_patients=self.size["patients"], seed=seed), spec)
        ds = encode.encode_cohort(records, spec)
        self.visits = len(records)
        del records
        sp = resample.split(ds.n_rows, FRACTION, seed + 1)
        self.stats = encode.fit_stats(ds.features[sp.first], ds.column_names)
        plan = resample.balance_bootstrap(ds.labels[sp.first], seed + 2)
        tv = resample.train_val_split(plan.n_rows, FRACTION, seed + 3)
        X_boot = encode.apply_stats(ds.features[sp.first], self.stats)[plan.indices]
        y_boot = ds.labels[sp.first][plan.indices]
        self.train_set = (X_boot[tv.first], y_boot[tv.first])
        self.val_set = (X_boot[tv.second], y_boot[tv.second])
        self.test = ds.subset(sp.second)
        self.model = mlp.init(mlp.Architecture.named("nn4"), self.stats.p, seed=seed + 11)
        train.grad(self.model, self.train_set[0][: self.BATCH], self.train_set[1][: self.BATCH])

    def run(self) -> Outcome:
        steps = self.size["steps"]
        cfg = train.TrainConfig(optimizer="sgd_momentum", eta0=0.01, total_steps=steps,
                                batch_size=self.BATCH, patience=NO_EARLY_STOP, seed=self.seed + 21)
        t0 = perf_counter()
        model, log, reason = train.train(self.model, self.train_set, self.val_set, cfg)
        report = evaluation.evaluate(model, self.test, self.stats, evaluation.standard_filters(), model_name="nn4")
        wall = perf_counter() - t0
        check = self.checks
        check(all(math.isfinite(e.train_loss) for e in log.entries), "non-finite training loss")
        check(reason == "budget_exhausted" and log.entries[-1].step == steps,
              f"stopped by {reason} at step {log.entries[-1].step}, expected {steps}")
        auc_all = next(r.auc for r in report.results if r.label == "all") or 0.0
        check(auc_all >= self.auc_floor, f"auc_all {auc_all:.4f} < {self.auc_floor}")
        text = evaluation.format_report(report)
        losses = repr([e.train_loss for e in log.entries])
        return Outcome(wall_s=wall, visits=self.visits, fingerprint=_digest(text.encode(), losses.encode()),
                       auc_all=auc_all)


class Repro(Workload):
    """``cli.main(["repro", ...])``: every stage for nn2, nn4, nn8 in a fresh
    directory, with a fixed step budget per arch."""

    name = "repro"
    sizes = {"full": {"patients": 10_000, "steps": 300}, "smoke": {"patients": 1_500, "steps": 60}}
    WARM = {"patients": 1_000, "steps": 10}

    def _repro(self, d: Path, patients: int, steps: int) -> int:
        argv = ["repro", "--out-dir", str(d), "--seed", str(self.seed), "--patients", str(patients),
                "--steps", str(steps), "--patience", str(NO_EARLY_STOP)]
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def setup(self):
        with self.scratch_dir() as d:
            rc = self._repro(d, **self.WARM)
        self.checks(rc == 0, f"warm-up repro exited with {rc}")

    def run(self) -> Outcome:
        with self.scratch_dir() as d:
            t0 = perf_counter()
            rc = self._repro(d, **self.size)
            wall = perf_counter() - t0
            check = self.checks
            check(rc == 0, f"repro exited with {rc}")
            tsv = (d / "report.tsv").read_bytes()
            txt = (d / "report.txt").read_bytes()
            rows = dict(line.split("=", 1) for line in (d / "features.hdr").read_text().splitlines())
        visits = int(rows["rows"])
        header, *lines = tsv.decode().splitlines()
        col = header.split("\t").index("auc")
        auc = next(f[col] for f in (ln.split("\t") for ln in lines) if f[:2] == ["nn4", "all"])
        auc_all = 0.0 if auc == "-" else float(auc)  # "-": the test rows hold one class only
        check(auc_all >= self.auc_floor, f"nn4 auc_all {auc_all:.4f} < {self.auc_floor}")
        return Outcome(wall_s=wall, visits=visits, fingerprint=_digest(tsv, txt), auc_all=auc_all)


WORKLOADS = {w.name: w for w in (CohortBuild, TrainB4096, Repro)}
