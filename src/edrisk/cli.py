"""Pipeline driver.

Subcommands: synth, encode, split, train, eval, repro.  Each stage reads
files written by earlier stages and writes new files only (inputs are
never mutated), so a stage is idempotent given identical inputs and seed.

One global --seed reproduces everything.  Stage seeds derive from it by
fixed offsets: synth uses seed, the pretrain/test split seed+1, the
bootstrap seed+2, the train/validation split seed+3, model init
seed+10+arch_index and epoch shuffling seed+20+arch_index, where
arch_index is 0/1/2 for nn2/nn4/nn8.

Flags may also come from a key=value config file (--config); explicit
flags win on conflict.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import time
from functools import partial
from pathlib import Path

import numpy as np

from . import encode, evaluation, mlp, resample, schema, synth, workers
from . import train as training

ARCH_INDEX = {"nn2": 0, "nn4": 1, "nn8": 2}
# the published runs pair nn8 with plain SGD and the shallower nets with momentum
ARCH_OPTIMIZER = {"nn2": "sgd_momentum", "nn4": "sgd_momentum", "nn8": "sgd"}


class ConfigError(Exception):
    pass


class StageInputMissing(Exception):
    pass


def _require(path: Path, what: str) -> Path:
    if not path.exists():
        raise StageInputMissing(f"{what} not found: {path}")
    return path


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()[:16]


def _stage_line(stage: str, started: float, inputs: list[Path]) -> str:
    hashes = " ".join(f"{p.name}={_sha256(p)}" for p in inputs if p.exists())
    return f"stage={stage} duration={time.time() - started:.2f}s {hashes}\n"


def _report(out_dir: Path, outputs: list[tuple[str, str]]):
    """Print each stage's stdout text and append its run.log line."""
    with open(out_dir / "run.log", "a", encoding="utf-8") as f:
        for text, line in outputs:
            print(text, end="")
            f.write(line)


# ---------------------------------------------------------------------------
# stages


def cmd_synth(args) -> int:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    t0 = time.time()
    cfg = synth.default_config(n_patients=args.patients, seed=args.seed)
    spec = schema.default_spec()
    cohort = synth.generate(cfg, spec)
    spec.save(out / "spec.txt")
    schema.write_visits(cohort, out / "cohort.csv")
    summary = schema.validate_cohort(cohort)
    text = (
        f"synth: {summary.patients} patients, {summary.visits} visits, "
        f"prevalence {summary.prevalence:.4f}\n" if summary.prevalence is not None else "synth: empty cohort\n"
    )
    _report(out, [(text, _stage_line("synth", t0, [out / "cohort.csv", out / "spec.txt"]))])
    return 0


def cmd_encode(args) -> int:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    t0 = time.time()
    spec = schema.CategoricalSpec.load(_require(Path(args.spec), "categorical spec"))
    cohort = schema.parse_visits(_require(Path(args.cohort), "cohort file"), spec)
    ds = encode.encode_cohort(cohort, spec)
    encode.save_dataset(ds, out / "features.hdr", out / "features.f32", out / "meta.tsv")
    text = f"encode: {ds.n_rows} rows x {ds.raw_width} columns\n"
    _report(out, [(text, _stage_line("encode", t0, [out / "features.hdr", out / "features.f32"]))])
    return 0


def _load_dataset(out: Path) -> encode.EncodedDataset:
    files = {"features.hdr": "encoded header", "features.f32": "encoded matrix", "meta.tsv": "row metadata"}
    return encode.load_dataset(*(_require(out / name, what) for name, what in files.items()))


def cmd_split(args) -> int:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    t0 = time.time()
    ds = _load_dataset(out)
    sp = resample.split(ds.n_rows, args.fraction, args.seed + 1)
    resample.save_indices(sp.first, sp.seed, out / "pretrain.idx")
    resample.save_indices(sp.second, sp.seed, out / "test.idx")
    # normalization stats are learned from the pretraining rows only
    stats = encode.fit_stats(ds.features, ds.column_names, sp.first)
    encode.save_stats(stats, out / "stats.tsv")
    plan = resample.balance_bootstrap(ds.labels[sp.first], args.seed + 2)
    resample.save_indices(plan.indices, plan.seed, out / "bootstrap.idx")
    tv = resample.train_val_split(plan.n_rows, args.fraction, args.seed + 3)
    resample.save_indices(tv.first, tv.seed, out / "train.idx")
    resample.save_indices(tv.second, tv.seed, out / "val.idx")
    text = (
        f"split: pretrain {len(sp.first)} / test {len(sp.second)}, bootstrap {plan.n_rows}, "
        f"train {len(tv.first)} / val {len(tv.second)}, retained columns {stats.p}\n"
    )
    _report(out, [(text, _stage_line("split", t0, [out / "pretrain.idx", out / "stats.tsv"]))])
    return 0


def _load_index(path: Path, what: str, n_rows: int) -> np.ndarray:
    """Index file entries, each checked to address one of ``n_rows`` rows."""
    idx, _ = resample.load_indices(_require(path, what))
    if idx.size and (idx.min() < 0 or idx.max() >= n_rows):
        raise resample.ResampleError(
            f"{path}: {what} span [{idx.min()}, {idx.max()}], outside the {n_rows} rows they index"
        )
    return idx


def _load_dataset_and_stats(out: Path):
    """The encoded matrix and the normalization stats, checked to name the same columns."""
    ds = _load_dataset(out)
    stats = encode.load_stats(_require(out / "stats.tsv", "stats file"))
    if stats.column_names != ds.column_names:
        pairs = zip(stats.column_names, ds.column_names)
        first = next((f"{a!r} vs {b!r}" for a, b in pairs if a != b), "one list is a prefix of the other")
        raise encode.EncodeError(
            f"{out / 'stats.tsv'}: its {len(stats.column_names)} columns do not match the "
            f"{len(ds.column_names)} of features.hdr ({first})"
        )
    return ds, stats


def _train_inputs(out: Path, ds, stats):
    """The retained width, the standardised pretrain (features, labels), and
    the train and validation rows into it."""
    pre = _load_index(out / "pretrain.idx", "pretrain indices", ds.n_rows)
    plan = _load_index(out / "bootstrap.idx", "bootstrap plan", len(pre))
    tr = _load_index(out / "train.idx", "train indices", len(plan))
    val = _load_index(out / "val.idx", "validation indices", len(plan))
    # the bootstrap rows repeat pretrain rows, so each pretrain row is
    # standardised once and both sets index it
    return stats.p, (encode.apply_stats(ds.features, stats, pre), ds.labels[pre]), plan[tr], plan[val]


def _train_config(args, arch: str) -> training.TrainConfig:
    return training.TrainConfig(
        optimizer=ARCH_OPTIMIZER[arch],
        eta0=args.eta0,
        total_steps=args.steps,
        batch_size=args.batch_size,
        patience=args.patience,
        seed=args.seed + 20 + ARCH_INDEX[arch],
    )


def _train_arch(args, out: Path, inputs, arch: str, started: float) -> tuple[str, str]:
    """Train ``arch`` on ``_train_inputs``; its stdout text and run.log line."""
    p, (X, y), train_rows, val_rows = inputs
    model = mlp.init(mlp.Architecture.named(arch), p, seed=args.seed + 10 + ARCH_INDEX[arch])
    # cast in the gather itself: a float64 gather held here would stay alive for the whole run
    val_set = (X[val_rows].astype(np.float32), y[val_rows])
    model, log, reason = training.train(model, (X, y), val_set, _train_config(args, arch), train_rows)
    mlp.save_model(model, out / f"model_{arch}.mlp")
    log.save(out / f"trainlog_{arch}.tsv")
    last = log.entries[-1]
    text = (
        f"train {arch}: {reason} at step {last.step}, "
        f"val acc {last.val_accuracy:.4f} sens {last.val_sensitivity:.4f} spec {last.val_specificity:.4f}\n"
    )
    return text, _stage_line(f"train_{arch}", started, [out / f"model_{arch}.mlp"])


def cmd_train(args) -> int:
    out = Path(args.out_dir)
    t0 = time.time()
    _train_config(args, args.arch)
    _report(out, [_train_arch(args, out, _train_inputs(out, *_load_dataset_and_stats(out)), args.arch, t0)])
    return 0


def _parse_filters(args) -> list[evaluation.SubgroupFilter]:
    if not args.min_visits and not args.ccs_filter:
        return evaluation.standard_filters()
    filters = [evaluation.SubgroupFilter.all_rows()]
    for n in args.min_visits or []:
        if n < 1:
            raise ConfigError(f"--min-visits {n}: a visit count must be at least 1")
        filters.append(evaluation.SubgroupFilter.min_visits(n))
    for spec in args.ccs_filter or []:
        try:
            codes = [int(c) for c in spec.split("/")]
        except ValueError:
            codes = []
        if not codes or not schema.VALID_CCS.issuperset(codes):
            raise ConfigError(f"--ccs-filter {spec!r}: expected CCS codes like 662 or 651/657")
        filters.append(evaluation.SubgroupFilter.ccs_any(codes))
    return filters


def _eval_inputs(out: Path, ds, stats):
    """The test rows, and the stats that standardise them."""
    return ds.subset(_load_index(out / "test.idx", "test indices", ds.n_rows)), stats


def _eval_arch(args, out: Path, inputs, arch: str, started: float) -> tuple[str, str]:
    """Evaluate ``arch``'s model on ``_eval_inputs``; its stdout text and run.log line."""
    test_set, stats = inputs
    model = mlp.load_model(_require(out / f"model_{arch}.mlp", "model file"))
    report = evaluation.evaluate(model, test_set, stats, _parse_filters(args), args.threshold, arch)
    evaluation.write_report(report, out / f"report_{arch}.txt", out / f"report_{arch}.tsv")
    for r in report.results:
        if r.label == "all" and r.roc is not None:
            evaluation.write_roc(r, out / f"roc_{arch}_all.tsv")
    return evaluation.format_report(report), _stage_line(f"eval_{arch}", started, [out / f"report_{arch}.tsv"])


def cmd_eval(args) -> int:
    out = Path(args.out_dir)
    t0 = time.time()
    _report(out, [_eval_arch(args, out, _eval_inputs(out, *_load_dataset_and_stats(out)), args.arch, t0)])
    return 0


def _train_and_eval(args, out: Path, train_inputs, eval_inputs, arch: str) -> list[tuple[str, str]]:
    trained = _train_arch(args, out, train_inputs, arch, time.time())
    return [trained, _eval_arch(args, out, eval_inputs, arch, time.time())]


def cmd_repro(args) -> int:
    """Run every stage for nn2, nn4, nn8 and emit one combined report.  The archs share inputs
    loaded once, and run in forked children where BLAS is on one thread and 2+ CPUs are usable."""
    out = Path(args.out_dir)
    # check every flag before the first stage runs, with split's, train's and eval's own checks
    resample.check_fraction(args.fraction)
    for arch in ARCH_INDEX:
        _train_config(args, arch)
    _parse_filters(args)
    evaluation.check_threshold(args.threshold)
    cmd_synth(args)
    args.cohort = str(out / "cohort.csv")
    args.spec = str(out / "spec.txt")
    cmd_encode(args)
    cmd_split(args)
    ds, stats = _load_dataset_and_stats(out)
    inputs = (_train_inputs(out, ds, stats), _eval_inputs(out, ds, stats))
    del ds  # the archs need only the standardised pretrain rows and the test rows
    calls = [partial(_train_and_eval, args, out, *inputs, arch) for arch in ARCH_INDEX]
    if workers.one_blas_thread() and workers.usable_cpus() > 1:
        outputs = workers.run_forked(calls, training.TrainError("a worker exited before sending its results"))
    else:
        outputs = (call() for call in calls)
    combined = []
    for arch, arch_outputs in zip(ARCH_INDEX, outputs):
        _report(out, arch_outputs)
        lines = (out / f"report_{arch}.tsv").read_text(encoding="utf-8").splitlines()
        combined.extend(lines[1:] if combined else lines)
    with open(out / "report.tsv", "w", encoding="utf-8") as f:
        f.write("\n".join(combined) + "\n")
    with open(out / "report.txt", "w", encoding="utf-8") as f:
        for arch in ARCH_INDEX:
            f.write((out / f"report_{arch}.txt").read_text(encoding="utf-8"))
            f.write("\n")
    print(f"repro: combined report at {out / 'report.txt'}")
    return 0


# ---------------------------------------------------------------------------
# argument plumbing


def _read_config_file(path) -> dict[str, str]:
    try:
        with open(path, encoding="utf-8") as f:
            lines = f.readlines()
    except OSError as e:
        raise ConfigError(f"cannot read config file: {e}") from None
    except UnicodeDecodeError:
        raise ConfigError(f"{path}: not UTF-8 text") from None
    kv = {}
    for ln, line in enumerate(lines, 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{ln}: expected key=value")
        k, v = line.split("=", 1)
        kv[k.strip().replace("-", "_")] = v.strip()
    return kv


def _apply_config(parser, args, argv):
    """Fill flags not given on the command line from the --config file.

    Each value is cast as its flag would cast it, and an append-type flag
    (--min-visits, --ccs-filter) takes the value as its one element."""
    kv = _read_config_file(args.config)
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    command = sub.choices[args.command]
    actions = {a.dest: a for a in command._actions if hasattr(args, a.dest)}
    # parse again with every default None: a flag given in any form argparse accepts is not None
    command.set_defaults(**dict.fromkeys(actions))
    given = {k for k, v in vars(parser.parse_args(argv)).items() if v is not None}
    for k, v in kv.items():
        if k in given or k not in actions:
            continue
        action = actions[k]
        cast = action.type or str
        try:
            value = cast(v)
        except ValueError:
            raise ConfigError(f"{args.config}: {k}={v!r} is not a valid {cast.__name__}") from None
        if action.choices is not None and value not in action.choices:
            raise ConfigError(f"{args.config}: {k}={v!r} is not one of {sorted(action.choices)}")
        setattr(args, k, [value] if isinstance(action, argparse._AppendAction) else value)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="edrisk", description=__doc__.splitlines()[0])
    parser.add_argument("--config", help="key=value config file; explicit flags win")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out-dir", default="out")
        p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("synth", help="generate a synthetic cohort")
    common(p)
    p.add_argument("--patients", type=int, default=50_000)

    p = sub.add_parser("encode", help="encode a cohort file into the feature matrix")
    common(p)
    p.add_argument("--cohort", required=True)
    p.add_argument("--spec", required=True)

    p = sub.add_parser("split", help="pretrain/test split, stats fit, bootstrap, train/val split")
    common(p)
    p.add_argument("--fraction", type=float, default=0.8)

    def train_flags(p):
        p.add_argument("--eta0", type=float, default=0.01)
        p.add_argument("--steps", type=int, default=8000)
        p.add_argument("--batch-size", type=int, default=256)
        p.add_argument("--patience", type=int, default=5)

    p = sub.add_parser("train", help="train one architecture")
    common(p)
    p.add_argument("--arch", required=True, choices=sorted(ARCH_INDEX))
    train_flags(p)

    def eval_flags(p):
        p.add_argument("--threshold", type=float, default=0.5)
        p.add_argument("--min-visits", type=int, action="append")
        p.add_argument("--ccs-filter", action="append", help="e.g. 662 or 651/657")

    p = sub.add_parser("eval", help="evaluate a trained model on the test rows")
    common(p)
    p.add_argument("--arch", required=True, choices=sorted(ARCH_INDEX))
    eval_flags(p)

    p = sub.add_parser("repro", help="full pipeline for nn2, nn4, nn8 with a combined report")
    common(p)
    p.add_argument("--patients", type=int, default=50_000)
    p.add_argument("--fraction", type=float, default=0.8)
    train_flags(p)
    eval_flags(p)
    return parser


COMMANDS = {
    "synth": cmd_synth,
    "encode": cmd_encode,
    "split": cmd_split,
    "train": cmd_train,
    "eval": cmd_eval,
    "repro": cmd_repro,
}


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(argv)
    workers.one_blas_thread()
    try:
        if args.config:
            _apply_config(parser, args, argv)
        if args.seed < 0:
            raise ConfigError(f"--seed {args.seed}: a seed must be at least 0")
        return COMMANDS[args.command](args)
    except (ConfigError, schema.SpecFormatError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except StageInputMissing as e:
        print(f"missing stage input: {e}", file=sys.stderr)
        return 3
    except (
        schema.SchemaError,
        encode.EncodeError,
        resample.ResampleError,
        mlp.MLPError,
        training.TrainError,
        evaluation.EvalError,
        synth.SynthError,
    ) as e:
        print(f"pipeline error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
