import ctypes
import hashlib
import multiprocessing
import os
import shutil
import subprocess
import sys
from multiprocessing.connection import Connection
from pathlib import Path

import numpy as np
import pytest

from edrisk import cli, workers
from edrisk.cli import StageInputMissing, main
from edrisk.encode import apply_stats, load_dataset, load_stats
from edrisk.mlp import load_model, save_model
from edrisk.resample import load_indices
from edrisk.schema import NUMERIC_FIELDS
from edrisk.train import TrainError


SRC = Path(__file__).resolve().parents[1] / "src"


def run(*argv):
    return main([str(a) for a in argv])


def stage_through_split(out_dir, patients=400, seed=3):
    assert run("synth", "--out-dir", out_dir, "--patients", patients, "--seed", seed) == 0
    assert run(
        "encode", "--out-dir", out_dir,
        "--cohort", out_dir / "cohort.csv", "--spec", out_dir / "spec.txt",
        "--seed", seed,
    ) == 0
    assert run("split", "--out-dir", out_dir, "--seed", seed) == 0


class TestStages:
    def test_synth_writes_cohort_and_spec(self, tmp_path):
        assert run("synth", "--out-dir", tmp_path, "--patients", 50, "--seed", 1) == 0
        assert (tmp_path / "cohort.csv").exists()
        assert (tmp_path / "spec.txt").exists()

    def test_full_stage_chain(self, tmp_path):
        stage_through_split(tmp_path)
        ds = load_dataset(tmp_path / "features.hdr", tmp_path / "features.f32", tmp_path / "meta.tsv")
        stats = load_stats(tmp_path / "stats.tsv")
        pre, _ = load_indices(tmp_path / "pretrain.idx")
        test, _ = load_indices(tmp_path / "test.idx")
        assert len(pre) + len(test) == ds.n_rows
        assert stats.p > 0
        assert run(
            "train", "--out-dir", tmp_path, "--arch", "nn2", "--seed", 3,
            "--steps", 120, "--batch-size", 64,
        ) == 0
        model = load_model(tmp_path / "model_nn2.mlp")
        assert model.layer_sizes[1:] == [50, 50]
        assert model.n_inputs == stats.p
        assert run("eval", "--out-dir", tmp_path, "--arch", "nn2", "--seed", 3) == 0
        report = (tmp_path / "report_nn2.tsv").read_text().splitlines()
        assert len(report) == 10  # header + 9 standard filters
        assert (tmp_path / "roc_nn2_all.tsv").exists()

    def test_train_is_given_the_validation_rows_in_float32(self, trained_copy, monkeypatch):
        # a float64 gather handed to train would stay alive for the whole run
        given = []
        real_train = cli.training.train

        def spy(model, train_set, val_set, cfg, train_rows=None):
            given.append(val_set)
            return real_train(model, train_set, val_set, cfg, train_rows)

        monkeypatch.setattr(cli.training, "train", spy)
        assert run("train", "--out-dir", trained_copy, "--arch", "nn2", "--steps", 5) == 0
        [(X_val, y_val)] = given
        ds = load_dataset(trained_copy / "features.hdr", trained_copy / "features.f32", trained_copy / "meta.tsv")
        pre, plan, val = (load_indices(trained_copy / f"{name}.idx")[0] for name in ("pretrain", "bootstrap", "val"))
        rows = pre[plan[val]]
        assert X_val.dtype == np.float32 and X_val.shape[0] == len(val)
        expected = apply_stats(ds.features, load_stats(trained_copy / "stats.tsv"), rows).astype(np.float32)
        np.testing.assert_array_equal(X_val, expected)
        np.testing.assert_array_equal(y_val, ds.labels[rows])

    def test_encode_deterministic_rerun(self, tmp_path):
        assert run("synth", "--out-dir", tmp_path, "--patients", 60, "--seed", 2) == 0
        args = ("encode", "--out-dir", tmp_path,
                "--cohort", tmp_path / "cohort.csv", "--spec", tmp_path / "spec.txt")
        assert run(*args) == 0
        first = (tmp_path / "features.f32").read_bytes()
        assert run(*args) == 0
        assert (tmp_path / "features.f32").read_bytes() == first

    @pytest.mark.parametrize("zip_code", [1 << 24, (1 << 24) + 1])
    def test_zip_code_at_the_float32_limit(self, tmp_path, capsys, zip_code):
        # float32 holds every integer up to 2**24 exactly, and encode refuses the first one past it
        assert run("synth", "--out-dir", tmp_path, "--patients", 30, "--seed", 4) == 0
        cohort = tmp_path / "cohort.csv"
        lines = cohort.read_text().splitlines()
        fields = lines[3].split(",")
        fields[lines[0].split(",").index("zip_code")] = str(zip_code)
        cohort.write_text("\n".join(lines[:3] + [",".join(fields)] + lines[4:]) + "\n")
        capsys.readouterr()
        code = run("encode", "--out-dir", tmp_path, "--cohort", cohort, "--spec", tmp_path / "spec.txt")
        if zip_code > 1 << 24:
            err = capsys.readouterr().err
            assert code == 1 and len(err.splitlines()) == 1
            assert f"EncodeError: cohort row 2: zip_code {zip_code} " in err
            assert not (tmp_path / "features.f32").exists()
        else:
            assert code == 0
            ds = load_dataset(tmp_path / "features.hdr", tmp_path / "features.f32", tmp_path / "meta.tsv")
            assert int(ds.features[2, NUMERIC_FIELDS.index("zip_code")]) == zip_code

    def test_custom_eval_filters(self, tmp_path):
        stage_through_split(tmp_path)
        assert run(
            "train", "--out-dir", tmp_path, "--arch", "nn2", "--seed", 3,
            "--steps", 80, "--batch-size", 64,
        ) == 0
        assert run(
            "eval", "--out-dir", tmp_path, "--arch", "nn2", "--seed", 3,
            "--min-visits", 2, "--ccs-filter", "651/657",
        ) == 0
        lines = (tmp_path / "report_nn2.tsv").read_text().splitlines()
        assert len(lines) == 4  # header + all + v>=2 + ccs group
        assert any("651/657" in ln for ln in lines)


class TestErrors:
    def test_missing_stage_input_exit_3(self, tmp_path, capsys):
        code = run("train", "--out-dir", tmp_path / "nowhere", "--arch", "nn2")
        assert code == 3
        assert "missing stage input" in capsys.readouterr().err

    def test_eval_before_train_exit_3(self, tmp_path):
        stage_through_split(tmp_path, patients=100)
        assert run("eval", "--out-dir", tmp_path, "--arch", "nn8") == 3

    def test_bad_cohort_exit_1(self, tmp_path, capsys):
        assert run("synth", "--out-dir", tmp_path, "--patients", 20) == 0
        (tmp_path / "cohort.csv").write_text("foo,bar\n1,2\n")
        code = run("encode", "--out-dir", tmp_path,
                   "--cohort", tmp_path / "cohort.csv", "--spec", tmp_path / "spec.txt")
        assert code == 1
        assert "pipeline error" in capsys.readouterr().err

    def test_non_utf8_cohort_exit_1(self, tmp_path, capsys):
        assert run("synth", "--out-dir", tmp_path, "--patients", 20) == 0
        cohort = tmp_path / "cohort.csv"
        cohort.write_bytes(cohort.read_bytes().replace(b"P0000003", b"P\xff000003"))
        code = run("encode", "--out-dir", tmp_path, "--cohort", cohort, "--spec", tmp_path / "spec.txt")
        assert code == 1
        assert "SchemaError" in capsys.readouterr().err

    def test_oversized_cohort_field_exit_1(self, tmp_path, capsys):
        assert run("synth", "--out-dir", tmp_path, "--patients", 20) == 0
        cohort = tmp_path / "cohort.csv"
        cohort.write_bytes(cohort.read_bytes().replace(b"P0000003", b"P" * 200_000))
        code = run("encode", "--out-dir", tmp_path, "--cohort", cohort, "--spec", tmp_path / "spec.txt")
        assert code == 1
        assert "MissingField" in capsys.readouterr().err

    def test_non_utf8_spec_exit_2(self, tmp_path, capsys):
        assert run("synth", "--out-dir", tmp_path, "--patients", 20) == 0
        spec = tmp_path / "spec.txt"
        spec.write_bytes(spec.read_bytes().replace(b"sex_1", b"sex_\xff"))
        code = run("encode", "--out-dir", tmp_path, "--cohort", tmp_path / "cohort.csv", "--spec", spec)
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_missing_config_file_exit_2(self, tmp_path, capsys):
        code = run("--config", tmp_path / "absent.cfg", "synth", "--out-dir", tmp_path)
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_non_utf8_config_file_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"patients=\xff\n")
        code = run("--config", cfg, "synth", "--out-dir", tmp_path)
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_unknown_arch_rejected_by_parser(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run("train", "--out-dir", tmp_path, "--arch", "nn3")
        assert exc.value.code == 2

    def test_bad_config_file_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("this line has no equals sign\n")
        code = run("--config", cfg, "synth", "--out-dir", tmp_path)
        assert code == 2
        assert "config error" in capsys.readouterr().err


@pytest.fixture(scope="module")
def trained_dir(tmp_path_factory):
    """A split output directory with an nn2 model, shared read-only."""
    out = tmp_path_factory.mktemp("trained")
    stage_through_split(out)
    assert run(
        "train", "--out-dir", out, "--arch", "nn2", "--seed", 3, "--steps", 40, "--batch-size", 64,
    ) == 0
    return out


@pytest.fixture
def trained_copy(trained_dir, tmp_path):
    out = tmp_path / "out"
    shutil.copytree(trained_dir, out)
    return out


class TestIndexFiles:
    @pytest.mark.parametrize("name", ["pretrain", "bootstrap", "train", "val", "test"])
    @pytest.mark.parametrize("entry", ["1000000000", "-1", "x"], ids=["past-end", "negative", "non-integer"])
    def test_bad_entry_exit_1(self, trained_copy, capsys, name, entry):
        path = trained_copy / f"{name}.idx"
        lines = path.read_text().splitlines()
        lines[1] = entry
        path.write_text("\n".join(lines) + "\n")
        stage = ("eval",) if name == "test" else ("train", "--steps", 5)
        assert run(*stage, "--out-dir", trained_copy, "--arch", "nn2") == 1
        err = capsys.readouterr().err
        assert "ResampleError" in err and f"{name}.idx" in err


class TestStageFiles:
    def test_non_integer_header_rows_exit_1(self, trained_copy, capsys):
        hdr = trained_copy / "features.hdr"
        lines = hdr.read_text().splitlines()
        hdr.write_text("\n".join(["rows=abc"] + lines[1:]) + "\n")
        assert run("split", "--out-dir", trained_copy, "--seed", 3) == 1
        err = capsys.readouterr().err
        assert "EncodeError" in err and "features.hdr" in err

    def test_non_numeric_stats_mean_exit_1(self, trained_copy, capsys):
        stats = trained_copy / "stats.tsv"
        lines = stats.read_text().splitlines()
        name, _, var, kept = lines[1].split("\t")
        stats.write_text("\n".join([lines[0], f"{name}\tx\t{var}\t{kept}"] + lines[2:]) + "\n")
        assert run("train", "--out-dir", trained_copy, "--arch", "nn2", "--steps", 5) == 1
        err = capsys.readouterr().err
        assert "EncodeError" in err and "stats.tsv" in err


    def test_zero_variance_retained_column_exit_1(self, trained_copy, capsys):
        stats = trained_copy / "stats.tsv"
        lines = stats.read_text().splitlines()
        j = next(i for i, ln in enumerate(lines[1:], 1) if ln.endswith("\t1"))
        name, mean, _, _ = lines[j].split("\t")
        lines[j] = f"{name}\t{mean}\t0.0\t1"
        stats.write_text("\n".join(lines) + "\n")
        assert run("eval", "--out-dir", trained_copy, "--arch", "nn2") == 1
        err = capsys.readouterr().err
        assert "EncodeError" in err and "stats.tsv" in err and "variance" in err

    @pytest.mark.parametrize("stage", [("train", "--steps", 5), ("eval",)], ids=["train", "eval"])
    def test_renamed_stats_column_exit_1(self, trained_copy, capsys, stage):
        stats = trained_copy / "stats.tsv"
        stats.write_text(stats.read_text().replace("\nage\t", "\nzzz\t"))
        assert run(*stage, "--out-dir", trained_copy, "--arch", "nn2") == 1
        err = capsys.readouterr().err
        assert "EncodeError" in err and "'zzz' vs 'age'" in err


    def _poke_feature(self, out, index_file, value):
        """Set one retained raw feature of the first row named by ``index_file``."""
        rows, _ = load_indices(out / index_file)
        X = np.fromfile(out / "features.f32", dtype="<f4").reshape(-1, 435)
        X[rows[0], 0] = value  # column 0, year, is retained
        X.tofile(out / "features.f32")
        return rows[0]

    def test_stale_float64_matrix_exit_3(self, trained_copy, capsys):
        (trained_copy / "features.f32").rename(trained_copy / "features.f64")
        assert run("split", "--out-dir", trained_copy, "--seed", 3) == 3
        assert "encoded matrix not found" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_pretrain_feature_exit_1(self, trained_copy, capsys, value):
        stats = trained_copy / "stats.tsv"
        before = stats.read_bytes()
        self._poke_feature(trained_copy, "pretrain.idx", value)
        assert run("split", "--out-dir", trained_copy, "--seed", 3) == 1
        err = capsys.readouterr().err
        assert "EncodeError" in err and "column 'year' has mean " in err
        assert stats.read_bytes() == before

    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_test_feature_exit_1(self, trained_copy, capsys, value):
        self._poke_feature(trained_copy, "test.idx", value)
        assert run("eval", "--out-dir", trained_copy, "--arch", "nn2") == 1
        err = capsys.readouterr().err
        assert "EncodeError" in err and "standardised row 0 " in err
        assert not (trained_copy / "report_nn2.txt").exists()

    def test_non_finite_model_scores_exit_1(self, trained_copy, capsys):
        path = trained_copy / "model_nn2.mlp"
        model = load_model(path)
        model.theta *= 1e200  # still finite, but the forward pass overflows
        save_model(model, path)
        assert run("eval", "--out-dir", trained_copy, "--arch", "nn2") == 1
        err = capsys.readouterr().err
        assert "EvalError" in err and "non-finite score" in err and len(err.splitlines()) == 1
        assert not (trained_copy / "report_nn2.txt").exists()

    def test_non_finite_model_parameter_exit_1(self, trained_copy, capsys):
        path = trained_copy / "model_nn2.mlp"
        data = bytearray(path.read_bytes())
        data[-8:] = np.float64(np.nan).tobytes()
        path.write_bytes(bytes(data))
        assert run("eval", "--out-dir", trained_copy, "--arch", "nn2") == 1
        err = capsys.readouterr().err
        assert "ShapeCorruption" in err and "is not finite" in err
        assert not (trained_copy / "report_nn2.txt").exists()

    @pytest.mark.parametrize("columns", ["", "age"], ids=["empty", "one-name"])
    def test_header_names_short_of_width_exit_1(self, trained_copy, capsys, columns):
        hdr = trained_copy / "features.hdr"
        lines = hdr.read_text().splitlines()
        names = lines[2].split("=", 1)[1].split(",")
        lines[2] = "columns=" + (",".join(n for n in names if n != columns) if columns else "")
        hdr.write_text("\n".join(lines) + "\n")
        assert run("split", "--out-dir", trained_copy, "--seed", 3) == 1
        err = capsys.readouterr().err
        assert "EncodeError" in err and "column names for raw_width=435" in err

    @pytest.mark.parametrize(
        "stage,field,value",
        [
            (("split", "--seed", 3), 2, "2"),
            (("eval", "--arch", "nn2"), 1, "-1"),
            (("eval", "--arch", "nn2"), 1, "0"),
        ],
        ids=["label-2", "visit-count-neg", "visit-count-0"],
    )
    def test_meta_value_out_of_range_exit_1(self, trained_copy, capsys, stage, field, value):
        meta = trained_copy / "meta.tsv"
        lines = meta.read_text().splitlines()
        fields = lines[5].split("\t")
        fields[field] = value
        lines[5] = "\t".join(fields)
        meta.write_text("\n".join(lines) + "\n")
        assert run(stage[0], "--out-dir", trained_copy, *stage[1:]) == 1
        err = capsys.readouterr().err
        assert "EncodeError" in err and "meta.tsv: line 6" in err


class TestArgumentValues:
    @pytest.mark.parametrize("patience", [0, -1])
    def test_patience_below_one_exit_1(self, trained_copy, capsys, patience):
        model = trained_copy / "model_nn2.mlp"
        before = model.read_bytes()
        assert run("train", "--out-dir", trained_copy, "--arch", "nn2", "--patience", patience) == 1
        err = capsys.readouterr().err
        assert "TrainError" in err and "patience" in err
        assert model.read_bytes() == before

    @pytest.mark.parametrize("visits", [0, -2])
    def test_min_visits_below_one_exit_2(self, trained_copy, capsys, visits):
        assert run("eval", "--out-dir", trained_copy, "--arch", "nn2", "--min-visits", visits) == 2
        err = capsys.readouterr().err
        assert "config error" in err and f"--min-visits {visits}" in err
        assert not (trained_copy / "report_nn2.txt").exists()

    @pytest.mark.parametrize("steps", [0, -3])
    def test_steps_below_one_exit_1(self, trained_copy, capsys, steps):
        model = trained_copy / "model_nn2.mlp"
        before = model.read_bytes()
        assert run("train", "--out-dir", trained_copy, "--arch", "nn2", "--steps", steps) == 1
        err = capsys.readouterr().err
        assert "TrainError" in err and "total_steps" in err
        assert model.read_bytes() == before

    @pytest.mark.parametrize("threshold", ["nan", "-0.1", "1.5", "inf"])
    def test_threshold_outside_unit_interval_exit_1(self, trained_copy, capsys, threshold):
        assert run("eval", "--out-dir", trained_copy, "--arch", "nn2", "--threshold", threshold) == 1
        err = capsys.readouterr().err
        assert "EvalError" in err and "threshold" in err
        assert not (trained_copy / "report_nn2.txt").exists()

    @pytest.mark.parametrize("command", [["synth"], ["split"], ["train", "--arch", "nn2"], ["repro"]])
    def test_negative_seed_exit_2(self, tmp_path, capsys, command):
        out = tmp_path / "out"
        assert run(command[0], "--out-dir", out, "--seed", -1, *command[1:]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: --seed -1") and len(err.splitlines()) == 1
        assert not out.exists()


class TestConfigFile:
    def test_config_supplies_defaults(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("patients=30\nseed=9\n")
        out = tmp_path / "out"
        assert run("--config", cfg, "synth", "--out-dir", out) == 0
        baseline = tmp_path / "base"
        assert run("synth", "--out-dir", baseline, "--patients", 30, "--seed", 9) == 0
        assert (out / "cohort.csv").read_text() == (baseline / "cohort.csv").read_text()

    @pytest.mark.parametrize(
        "flag", [("--patients", 10), ("--patients=10",), ("--pat", 10)], ids=["spaced", "equals", "abbreviated"]
    )
    def test_explicit_flag_wins_over_config(self, tmp_path, flag):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("patients=30\n")
        out = tmp_path / "out"
        assert run("--config", cfg, "synth", "--out-dir", out, *flag) == 0
        # 10 patients, not 30
        header_plus_rows = (out / "cohort.csv").read_text().splitlines()
        pids = {ln.split(",")[0] for ln in header_plus_rows[1:]}
        assert len(pids) == 10

    @pytest.mark.parametrize("line,label", [("ccs_filter=662", "ccs 662"), ("min_visits=3", "v>=3")])
    def test_config_append_flag_is_one_filter(self, trained_copy, line, label):
        cfg = trained_copy / "run.cfg"
        cfg.write_text(line + "\n")
        assert run("--config", cfg, "eval", "--out-dir", trained_copy, "--arch", "nn2") == 0
        labels = [ln.split("\t")[1] for ln in (trained_copy / "report_nn2.tsv").read_text().splitlines()[1:]]
        assert labels == ["all", label]

    def test_negative_seed_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed=-1\n")
        out = tmp_path / "out"
        assert run("--config", cfg, "synth", "--out-dir", out, "--patients", 30) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: --seed -1") and len(err.splitlines()) == 1
        assert not out.exists()

    def test_config_value_of_wrong_type_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("steps=abc\n")
        assert run("--config", cfg, "train", "--out-dir", tmp_path, "--arch", "nn2") == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("spec", ["6x2", "9999", "651/"])
    def test_malformed_ccs_filter_exit_2(self, trained_copy, capsys, spec):
        code = run("eval", "--out-dir", trained_copy, "--arch", "nn2", "--ccs-filter", spec)
        assert code == 2
        assert "config error" in capsys.readouterr().err


class TestRepro:
    def test_combined_report(self, tmp_path):
        assert run(
            "repro", "--out-dir", tmp_path, "--patients", 250, "--seed", 5,
            "--steps", 60, "--batch-size", 64,
        ) == 0
        tsv = (tmp_path / "report.tsv").read_text().splitlines()
        assert tsv[0].startswith("model\t")
        models = {ln.split("\t")[0] for ln in tsv[1:]}
        assert models == {"nn2", "nn4", "nn8"}
        assert (tmp_path / "report.txt").exists()

    def test_standalone_train_and_eval_equal_repro(self, tmp_path):
        argv = ("--seed", 5, "--steps", 60, "--batch-size", 64)
        alone, repro = tmp_path / "alone", tmp_path / "repro"
        assert run("synth", "--out-dir", alone, "--patients", 300, "--seed", 5) == 0
        assert run("encode", "--out-dir", alone, "--cohort", alone / "cohort.csv", "--spec", alone / "spec.txt") == 0
        assert run("split", "--out-dir", alone, "--seed", 5) == 0
        assert run("train", "--out-dir", alone, "--arch", "nn4", *argv) == 0
        assert run("eval", "--out-dir", alone, "--arch", "nn4", "--seed", 5) == 0
        assert run("repro", "--out-dir", repro, "--patients", 300, *argv) == 0
        for name in ("model_nn4.mlp", "trainlog_nn4.tsv", "report_nn4.tsv"):
            assert (alone / name).read_bytes() == (repro / name).read_bytes(), name

    @pytest.mark.parametrize(
        "flag,value,code,message",
        [
            ("--batch-size", 0, 1, "batch_size"),
            ("--patience", 0, 1, "patience"),
            ("--eta0", "inf", 1, "eta0"),
            ("--threshold", 2, 1, "threshold"),
            ("--min-visits", -2, 2, "--min-visits -2"),
            ("--fraction", 1.5, 1, "fraction 1.5 outside (0, 1)"),
            ("--fraction", 0, 1, "fraction 0.0 outside (0, 1)"),
            ("--fraction", "nan", 1, "fraction nan outside (0, 1)"),
        ],
    )
    def test_bad_flag_fails_before_synth(self, tmp_path, capsys, flag, value, code, message):
        assert run("repro", "--out-dir", tmp_path, "--patients", 300, flag, value) == code
        err = capsys.readouterr().err
        assert message in err and len(err.splitlines()) == 1
        assert not (tmp_path / "cohort.csv").exists()


def force_cpus_and_blas(monkeypatch, cpus, pinned):
    """Make ``repro`` see ``cpus`` usable CPUs and ``one_blas_thread`` return
    ``pinned``, whatever this machine has."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    monkeypatch.setattr(workers, "one_blas_thread", lambda: pinned)


def force_fan_out(monkeypatch, parallel):
    force_cpus_and_blas(monkeypatch, 2 if parallel else 1, pinned=True)


_real_train_arch = cli._train_arch
_real_run_forked = workers.run_forked


def _fail_nn4_with(fault):
    def train_arch(args, out, inputs, arch, started):
        if arch == "nn4":
            fault()
        return _real_train_arch(args, out, inputs, arch, started)

    return train_arch


def _raise(error):
    def fault():
        raise error

    return fault


class TestReproFanOut:
    """``repro`` trains its archs in forked children only where BLAS is pinned
    and CPUs are spare, and either path gives the same files, stdout and exit codes."""

    ARGV = ("--patients", 300, "--seed", 4, "--steps", 60, "--batch-size", 64)

    def _repro(self, monkeypatch, capsys, out, parallel):
        force_fan_out(monkeypatch, parallel)
        code, stdout, err, forked = self._run(monkeypatch, capsys, out)
        assert forked is parallel
        return code, stdout, err

    def _run(self, monkeypatch, capsys, out):
        """repro's exit code, stdout and stderr, and whether it forked its archs."""
        forked = []

        def run_forked(calls, died):
            forked.append(len(calls))
            return _real_run_forked(calls, died)

        monkeypatch.setattr(workers, "run_forked", run_forked)
        code = run("repro", "--out-dir", out, *self.ARGV)
        captured = capsys.readouterr()
        assert forked in ([], [3])
        assert multiprocessing.active_children() == []
        return code, captured.out.replace(str(out), "OUT"), captured.err, forked == [3]

    def test_parallel_and_serial_write_the_same_bytes(self, monkeypatch, capsys, tmp_path):
        serial, parallel = tmp_path / "serial", tmp_path / "parallel"
        code_serial, stdout_serial, _ = self._repro(monkeypatch, capsys, serial, False)
        code_parallel, stdout_parallel, _ = self._repro(monkeypatch, capsys, parallel, True)
        assert code_serial == code_parallel == 0 and stdout_parallel == stdout_serial
        names = sorted(p.name for p in serial.iterdir())
        assert names == sorted(p.name for p in parallel.iterdir()) and len(names) == 29
        for name in names:
            if name != "run.log":
                assert (parallel / name).read_bytes() == (serial / name).read_bytes(), name

        def stages(out):  # each run.log line but its duration
            return [ln.split(" ", 2)[::2] for ln in (out / "run.log").read_text().splitlines()]

        assert stages(parallel) == stages(serial)
        assert [stage for stage, _ in stages(serial)] == [
            "stage=synth", "stage=encode", "stage=split",
            "stage=train_nn2", "stage=eval_nn2", "stage=train_nn4", "stage=eval_nn4",
            "stage=train_nn8", "stage=eval_nn8",
        ]

    @pytest.mark.parametrize(
        "error,code,prefix",
        [(TrainError("planted fault"), 1, "pipeline error: TrainError: planted fault"),
         (StageInputMissing("planted fault"), 3, "missing stage input: planted fault")],
        ids=["TrainError", "StageInputMissing"],
    )
    @pytest.mark.parametrize("parallel", [False, True], ids=["serial", "parallel"])
    def test_failed_arch_exit_code(self, monkeypatch, capsys, tmp_path, parallel, error, code, prefix):
        monkeypatch.setattr(cli, "_train_arch", _fail_nn4_with(_raise(error)))
        got, _, err = self._repro(monkeypatch, capsys, tmp_path, parallel)
        assert got == code
        assert err.startswith(prefix) and len(err.splitlines()) == 1

    @pytest.mark.parametrize("parallel", [False, True], ids=["serial", "parallel"])
    def test_diverging_run_prints_one_line(self, monkeypatch, capsys, tmp_path, parallel):
        force_fan_out(monkeypatch, parallel)
        code = run("repro", "--out-dir", tmp_path, "--patients", 600, "--steps", 50, "--eta0", 1e30)
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("pipeline error: DivergenceDetected:") and len(err.splitlines()) == 1

    def test_child_that_exits_is_a_train_error(self, monkeypatch, capsys, tmp_path):
        monkeypatch.setattr(cli, "_train_arch", _fail_nn4_with(lambda: os._exit(1)))
        code, _, err = self._repro(monkeypatch, capsys, tmp_path, True)
        assert code == 1
        assert err.startswith("pipeline error: TrainError:") and len(err.splitlines()) == 1

    def test_parent_fault_stops_every_child(self, monkeypatch, tmp_path):
        def recv(conn):
            raise RuntimeError("planted fault")

        force_fan_out(monkeypatch, True)
        monkeypatch.setattr(Connection, "recv", recv)
        with pytest.raises(RuntimeError, match="planted fault"):
            run("repro", "--out-dir", tmp_path, *self.ARGV)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("cpus,pinned,parallel", [(1, True, False), (2, True, True), (2, False, False)])
    def test_guard(self, monkeypatch, capsys, tmp_path, cpus, pinned, parallel):
        force_cpus_and_blas(monkeypatch, cpus, pinned)
        code, _, _, forked = self._run(monkeypatch, capsys, tmp_path)
        assert code == 0 and forked is parallel


class TestOneBlasThread:
    def test_pins_numpys_openblas(self):
        lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
        if not hasattr(lib, "scipy_openblas_get_num_threads64_"):
            pytest.skip("numpy's BLAS is not the bundled scipy-openblas")
        lib.scipy_openblas_set_num_threads64_(2)
        assert workers.one_blas_thread() is True
        assert lib.scipy_openblas_get_num_threads64_() == 1

    def test_false_without_the_setter(self, monkeypatch):
        cdll = ctypes.CDLL
        monkeypatch.setattr(ctypes, "CDLL", lambda path: cdll(None))  # the interpreter, which has no BLAS
        assert workers.one_blas_thread() is False

    def test_repro_bytes_ignore_blas_thread_variables(self, tmp_path):
        """Models and training logs have the same bytes with OPENBLAS_NUM_THREADS
        unset, 1 and 2, though only 1 keeps OpenBLAS to one thread by itself."""
        env = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
        hashes = []
        for threads in (None, "1", "2"):
            out = tmp_path / str(threads)
            subprocess.run(
                [sys.executable, "-m", "edrisk.cli", "repro", "--out-dir", out, "--patients", "300", "--steps", "60"],
                env={**env, "PYTHONPATH": str(SRC), **({"OPENBLAS_NUM_THREADS": threads} if threads else {})},
                capture_output=True,
                check=True,
            )
            files = sorted(out.glob("model_*.mlp")) + sorted(out.glob("trainlog_*.tsv"))
            hashes.append({f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in files})
        assert len(hashes[0]) == 6 and hashes[1] == hashes[0] and hashes[2] == hashes[0]


def test_importing_the_cli_loads_no_scipy():
    result = subprocess.run(
        [sys.executable, "-c", "import edrisk.cli, sys; print('scipy' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert result.stdout == "False\n"
