import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from edrisk.cli import main
from edrisk.encode import load_dataset, load_stats
from edrisk.mlp import load_model, save_model
from edrisk.resample import load_indices


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
        ds = load_dataset(tmp_path / "features.hdr", tmp_path / "features.f64", tmp_path / "meta.tsv")
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

    def test_encode_deterministic_rerun(self, tmp_path):
        assert run("synth", "--out-dir", tmp_path, "--patients", 60, "--seed", 2) == 0
        args = ("encode", "--out-dir", tmp_path,
                "--cohort", tmp_path / "cohort.csv", "--spec", tmp_path / "spec.txt")
        assert run(*args) == 0
        first = (tmp_path / "features.f64").read_bytes()
        assert run(*args) == 0
        assert (tmp_path / "features.f64").read_bytes() == first

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
        X = np.fromfile(out / "features.f64", dtype="<f8").reshape(-1, 435)
        X[rows[0], 0] = value  # column 0, year, is retained
        X.tofile(out / "features.f64")
        return rows[0]

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

    @pytest.mark.parametrize(
        "flag,value,code,message",
        [
            ("--batch-size", 0, 1, "batch_size"),
            ("--patience", 0, 1, "patience"),
            ("--eta0", "inf", 1, "eta0"),
            ("--threshold", 2, 1, "threshold"),
            ("--min-visits", -2, 2, "--min-visits -2"),
        ],
    )
    def test_bad_flag_fails_before_synth(self, tmp_path, capsys, flag, value, code, message):
        assert run("repro", "--out-dir", tmp_path, "--patients", 300, flag, value) == code
        err = capsys.readouterr().err
        assert message in err and len(err.splitlines()) == 1
        assert not (tmp_path / "cohort.csv").exists()


def test_importing_the_cli_loads_no_scipy():
    src = Path(__file__).resolve().parents[1] / "src"
    result = subprocess.run(
        [sys.executable, "-c", "import edrisk.cli, sys; print('scipy' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert result.stdout == "False\n"
