"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line so the whole battery can be read at a
glance with ``pytest tests/test_acceptance.py -v -s``.
"""

import argparse
import time
from contextlib import contextmanager

import numpy as np

from edrisk import cli, encode, evaluation, mlp, resample, schema, synth
from edrisk import train as training

from rowwise import to_cohort, to_records
from test_train import finite_difference

SEP = {True: "PASS", False: "FAIL"}


@contextmanager
def criterion(num, desc):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {num}: {desc}")
        raise
    print(f"[PASS] criterion {num}: {desc}")


def test_criterion_1_bootstrap_counts():
    with criterion(1, "bootstrap of 9,804/608,534 rows balances to exactly 1,217,068"):
        n = 618_338
        labels = np.zeros(n, dtype=np.int64)
        labels[:9_804] = 1
        t0 = time.perf_counter()
        plan = resample.balance_bootstrap(labels, seed=0)
        elapsed = time.perf_counter() - t0
        assert plan.n_rows == 1_217_068
        y = labels[plan.indices]
        assert int(y.sum()) == 608_534
        assert int((y == 0).sum()) == 608_534
        assert elapsed < 1.0, f"bootstrap took {elapsed:.3f}s"


def test_criterion_2_gradient_vs_finite_differences():
    with criterion(2, "backprop matches central finite differences (h=1e-6) to 1e-5"):
        rng = np.random.default_rng(202)
        worst = 0.0
        configs = []
        for _ in range(19):
            p = int(rng.integers(2, 6))
            depth = int(rng.integers(1, 5))
            hidden = [int(rng.integers(2, 6)) for _ in range(depth)]
            configs.append((p, hidden))
        configs.append((4, [3] * 8))  # eight hidden layers
        assert len(configs) >= 20
        for p, hidden in configs:
            m = mlp.init(mlp.Architecture.custom(hidden), p, seed=int(rng.integers(1 << 30)))
            for b in m.biases:
                b[:] = 0.2 * rng.normal(size=b.shape)
            m.out_b = float(0.2 * rng.normal())
            X = rng.normal(size=(8, p))
            y = (rng.random(8) < 0.5).astype(np.float64)
            g, _ = training.grad(m, X, y)
            fd = finite_difference(m, X, y, h=1e-6)
            rel = np.abs(g - fd) / np.maximum(np.abs(fd), 1e-8)
            worst = max(worst, float(rel.max()))
        assert worst < 1e-5, f"worst relative error {worst:.3g}"


def test_criterion_3_selu_values():
    with criterion(3, "SELU fixed points: f(0)=0, f(1)~1.0507, asymptote -lambda*alpha"):
        assert mlp.selu(0.0) == 0.0
        assert abs(mlp.selu(1.0) - 1.0507) < 1e-4
        asymptote = -mlp.SELU_LAMBDA * mlp.SELU_ALPHA
        assert abs(mlp.selu(-40.0) - asymptote) < 1e-6


def test_criterion_4_self_normalization():
    with criterion(4, "depth-8 width-256 stack keeps |mean|<=0.1 and var in [0.8,1.25]"):
        p = 256
        arch = mlp.Architecture.custom([256] * 8)
        model = mlp.init(arch, p, seed=404)
        X = np.random.default_rng(405).normal(size=(10_000, p))
        for layer, h in enumerate(mlp.hidden_activations(model, X), 1):
            mean = float(h.mean())
            var = float(h.var())
            assert abs(mean) <= 0.1, f"layer {layer}: mean {mean:.4f}"
            assert 0.8 <= var <= 1.25, f"layer {layer}: var {var:.4f}"


def test_criterion_5_auc_vs_brute_force():
    with criterion(5, "rank-sum AUC equals pairwise brute force to 1e-12 on 1,000 instances"):
        from test_evaluation import brute_force_auc

        rng = np.random.default_rng(505)
        checked = 0
        while checked < 1_000:
            n = int(rng.integers(2, 201))
            if rng.random() < 0.5:
                probs = rng.integers(0, int(rng.integers(2, 12)), size=n).astype(np.float64)
            else:
                probs = rng.random(n)
            labels = (rng.random(n) < rng.uniform(0.1, 0.9)).astype(np.int64)
            if labels.sum() in (0, n):
                continue
            fast = evaluation.auc(probs, labels)
            slow = brute_force_auc(probs, labels)
            assert abs(fast - slow) < 1e-12, f"n={n}: {fast!r} vs {slow!r}"
            checked += 1


def test_criterion_6_encoding_invariants():
    with criterion(6, "encoding invariants on 10,000 random patients; normalized cols are z-scored"):
        spec = schema.default_spec()
        cohort = synth.generate(synth.default_config(n_patients=10_000, seed=606), spec)
        ds = encode.encode_cohort(cohort, spec)
        n_num = len(schema.NUMERIC_FIELDS)

        # one-hot blocks: each sums to exactly one per row
        off = n_num
        for fname in schema.CATEGORICAL_FIELDS:
            w = spec.width(fname)
            block = ds.features[:, off : off + w]
            assert np.all(block.sum(axis=1) == 1.0)
            off += w

        # per-patient cumulative block is monotone and conserves code counts
        records = to_records(cohort)
        diag = ds.diagnosis_block()
        order = {}
        for i, (pid, vc) in enumerate(zip(ds.patient_ids, ds.visit_counts)):
            order.setdefault(pid, []).append((int(vc), i))
        for pid, items in order.items():
            items.sort()
            prev = np.zeros(schema.N_CCS)
            for vc, i in items:
                step = diag[i] - prev
                assert np.all(step >= 0)
                assert step.sum() == len(set(records[i].ccs_codes))
                assert ds.features[i, -1] == vc
                prev = diag[i]

        # input order must not matter
        rng = np.random.default_rng(607)
        perm = rng.permutation(len(records))
        ds_shuffled = encode.encode_cohort(to_cohort([records[i] for i in perm], spec), spec)
        np.testing.assert_array_equal(ds_shuffled.features, ds.features[perm])

        # normalization: retained columns exactly z-scored on the fitting rows
        stats = encode.fit_stats(ds.features, ds.column_names)
        Z = encode.apply_stats(ds.features, stats)
        assert Z.shape[1] == stats.p
        assert float(np.max(np.abs(Z.mean(axis=0)))) < 1e-9
        assert float(np.max(np.abs(Z.var(axis=0) - 1.0))) < 1e-6


def test_criterion_7_end_to_end_cohort():
    desc = "50k-patient pipeline: prevalences in band, NN4 AUC >= 0.90, AUC(v>=5) > AUC(all)"
    with criterion(7, desc):
        t0 = time.perf_counter()
        seed = 7
        spec = schema.default_spec()
        cohort = synth.generate(synth.default_config(n_patients=50_000, seed=seed), spec)

        got = synth.measure_prevalences(cohort)
        assert abs(got["overall"] - 0.0158) <= 0.003, f"overall prevalence {got['overall']:.4f}"
        for g, target in (("662", 0.147), ("651/657", 0.0744), ("659", 0.162), ("660/661", 0.0572)):
            assert abs(got[g] - target) <= 0.02, f"group {g} prevalence {got[g]:.4f}"

        ds = encode.encode_cohort(cohort, spec)
        sp = resample.split(ds.n_rows, 0.8, seed + 1)
        stats = encode.fit_stats(ds.features[sp.first], ds.column_names)
        plan = resample.balance_bootstrap(ds.labels[sp.first], seed + 2)
        tv = resample.train_val_split(plan.n_rows, 0.8, seed + 3)

        X_pre = encode.apply_stats(ds.features[sp.first], stats)
        y_pre = ds.labels[sp.first]
        X_boot, y_boot = X_pre[plan.indices], y_pre[plan.indices]
        cfg = training.TrainConfig(
            optimizer="sgd_momentum", eta0=0.01, total_steps=8_000,
            batch_size=256, patience=5, seed=seed + 21,
        )
        model = mlp.init(mlp.Architecture.named("nn4"), stats.p, seed=seed + 11)
        model, _, _ = training.train(
            model, (X_boot[tv.first], y_boot[tv.first]), (X_boot[tv.second], y_boot[tv.second]), cfg
        )

        report = evaluation.evaluate(
            model, ds.subset(sp.second), stats, evaluation.standard_filters(), model_name="nn4"
        )
        by_label = {r.label: r for r in report.results}
        auc_all = by_label["all"].auc
        auc_v5 = by_label["v>=5"].auc
        assert auc_all is not None and auc_all >= 0.90, f"AUC(all) = {auc_all}"
        assert auc_v5 is not None and auc_v5 > auc_all, f"AUC(v>=5) {auc_v5} <= AUC(all) {auc_all}"

        elapsed = time.perf_counter() - t0
        assert elapsed <= 900, f"pipeline took {elapsed:.0f}s"
        print(
            f"  [criterion 7 detail] {ds.n_rows} visits, AUC(all)={auc_all:.3f}, "
            f"AUC(v>=5)={auc_v5:.3f}, {elapsed:.0f}s",
        )


def test_criterion_8_repro_byte_identical(tmp_path):
    with criterion(8, "repro runs with one seed produce byte-identical combined reports"):
        outputs = []
        for run_dir in (tmp_path / "run1", tmp_path / "run2"):
            args = argparse.Namespace(
                out_dir=str(run_dir), seed=11, patients=600, fraction=0.8,
                eta0=0.01, steps=250, batch_size=64, patience=5,
                threshold=0.5, min_visits=None, ccs_filter=None,
            )
            assert cli.cmd_repro(args) == 0
            outputs.append(
                (
                    (run_dir / "report.txt").read_bytes(),
                    (run_dir / "report.tsv").read_bytes(),
                )
            )
        assert outputs[0][0] == outputs[1][0], "report.txt differs between runs"
        assert outputs[0][1] == outputs[1][1], "report.tsv differs between runs"
