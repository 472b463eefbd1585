import math

import numpy as np
import pytest

from edrisk.mlp import Architecture, MLPModel, forward_batch, init, sigmoid
from edrisk.train import (
    DivergenceDetected,
    EmptySet,
    LogEntry,
    TrainConfig,
    TrainError,
    TrainLog,
    _check_batch,
    _mean_nll,
    _validation_metrics,
    grad,
    loss,
    step_size,
    train,
)
from test_mlp import two_branch_selu, two_branch_selu_prime


def finite_difference(model, X, y, h=1e-6):
    """Central differences of ``loss`` in each entry of ``theta``."""
    work = model.copy()
    fd = np.empty_like(work.theta)
    for j, theta_j in enumerate(model.theta):
        work.theta[j] = theta_j + h
        up = loss(work, X, y)
        work.theta[j] = theta_j - h
        down = loss(work, X, y)
        work.theta[j] = theta_j
        fd[j] = (up - down) / (2 * h)
    return fd


def separable_problem(rng, n=400, p=6):
    """Labels decided by the sign of a noisy linear score; easy to fit."""
    X = rng.normal(size=(n, p))
    w = rng.normal(size=p)
    y = (X @ w + 0.05 * rng.normal(size=n) > 0).astype(np.float64)
    return X, y


def _reference_train(model, train_set, val_set, cfg):
    """The training loop as it was when each evaluation logged a full pass of
    ``loss`` over the training set and the momentum step walked the layers
    one by one.  It also returns, per evaluation, the (loss, rows) of every
    minibatch since the previous one, each taken with ``loss`` under the
    parameters before its step."""
    X_tr, y_tr = _check_batch(model, *train_set)
    X_val, y_val = _check_batch(model, *val_set)
    n = X_tr.shape[0]
    steps_per_epoch = max(1, int(np.ceil(n / cfg.batch_size)))
    eval_every = cfg.eval_every if cfg.eval_every > 0 else steps_per_epoch

    model = model.copy()
    rng = np.random.default_rng(cfg.seed)
    mu = cfg.momentum if cfg.optimizer == "sgd_momentum" else 0.0
    vel_w = [np.zeros_like(W) for W in model.weights]
    vel_b = [np.zeros_like(b) for b in model.biases]
    vel_out_w, vel_out_b = np.zeros_like(model.out_w), 0.0
    log = TrainLog()
    batch_losses, pending = [], []
    best = model.copy()
    best_metric = -np.inf
    bad_evals = 0
    stop_reason = "budget_exhausted"
    t = 0
    done = False
    while not done:
        order = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            Xb, yb = X_tr[batch], y_tr[batch]
            pending.append((loss(model, Xb, yb), len(batch)))
            g = MLPModel(model.layer_sizes, grad(model, Xb, yb)[0])  # per-layer views
            eta = step_size(t, cfg)
            for i in range(model.depth):
                vel_w[i] = mu * vel_w[i] - eta * g.weights[i]
                vel_b[i] = mu * vel_b[i] - eta * g.biases[i]
                model.weights[i] += vel_w[i]
                model.biases[i] += vel_b[i]
            vel_out_w = mu * vel_out_w - eta * g.out_w
            vel_out_b = mu * vel_out_b - eta * g.out_b
            model.out_w += vel_out_w
            model.out_b += vel_out_b
            t += 1

            if t % eval_every == 0 or t >= cfg.total_steps:
                train_loss = loss(model, X_tr, y_tr)
                if not np.isfinite(train_loss):
                    raise DivergenceDetected(f"non-finite training loss at step {t}")
                batch_losses.append(pending)
                pending = []
                acc, sens, spec = _validation_metrics(model, X_val, y_val)
                log.entries.append(LogEntry(t, train_loss, acc, sens, spec, step_size(t, cfg)))
                balanced = np.nanmean([sens, spec])
                first_eval = best_metric == -np.inf
                if first_eval or balanced > best_metric + cfg.min_delta:
                    best_metric = balanced
                    best = model.copy()
                    bad_evals = 0
                else:
                    bad_evals += 1
                    if bad_evals >= cfg.patience:
                        stop_reason = "early_stop"
                        done = True
                        break
            if t >= cfg.total_steps:
                done = True
                break
    return best, log, stop_reason, batch_losses


def _reference_grad(model, X, y):
    """Backpropagation as it was with its own forward loop, keeping the
    pre-activations and taking the two-branch SELU and slope of each."""
    X, y = _check_batch(model, X, y)
    n = X.shape[0]
    lam, alpha = model.selu_lambda, model.selu_alpha
    zs, hs = [], [X]
    h = X
    for W, b in zip(model.weights, model.biases):
        z = h @ W + b
        zs.append(z)
        h = two_branch_selu(z, lam, alpha)
        hs.append(h)
    P = sigmoid(h @ model.out_w + model.out_b)

    g = MLPModel(model.layer_sizes, np.empty_like(model.theta))
    delta_u = (P - y) / n
    g.out_w[:] = hs[-1].T @ delta_u
    g.out_b = delta_u.sum()
    delta_h = np.outer(delta_u, model.out_w)
    for i in range(model.depth - 1, -1, -1):
        delta_z = delta_h * two_branch_selu_prime(zs[i], lam, alpha)
        g.weights[i][:] = hs[i].T @ delta_z
        g.biases[i][:] = delta_z.sum(axis=0)
        if i > 0:
            delta_h = delta_z @ model.weights[i].T
    return g.theta, _mean_nll(P, y)


def _val_columns(log):
    return [(e.step, e.val_accuracy, e.val_sensitivity, e.val_specificity, e.step_size) for e in log.entries]


class TestLoss:
    def test_uninformative_model_gives_log2(self):
        m = init(Architecture.named("nn2"), p=3, seed=0)
        for W in m.weights:
            W[:] = 0.0
        m.out_w[:] = 0.0
        X = np.random.default_rng(0).normal(size=(10, 3))
        y = np.array([0, 1] * 5, dtype=np.float64)
        assert abs(loss(m, X, y) - np.log(2.0)) < 1e-15

    def test_matches_manual_summation(self):
        rng = np.random.default_rng(1)
        m = init(Architecture.custom([4, 3]), p=5, seed=2)
        X = rng.normal(size=(12, 5))
        y = (rng.random(12) < 0.5).astype(np.float64)
        P = forward_batch(m, X)
        manual = -np.mean(y * np.log(P) + (1 - y) * np.log(1 - P))
        assert abs(loss(m, X, y) - manual) < 1e-15

    def test_confident_correct_prediction_near_zero(self):
        rng = np.random.default_rng(2)
        m = init(Architecture.custom([4]), p=2, seed=3)
        m.out_b = 30.0  # force P ~ 1
        assert loss(m, rng.normal(size=(5, 2)), np.ones(5)) < 1e-10


def worst_fd_error(m, rng):
    """Largest relative gap between backprop and finite differences."""
    for b in m.biases:
        b[:] = 0.1 * rng.normal(size=b.shape)
    X = rng.normal(size=(8, 5))
    y = (rng.random(8) < 0.5).astype(np.float64)
    g, _ = grad(m, X, y)
    fd = finite_difference(m, X, y)
    return np.max(np.abs(g - fd) / np.maximum(np.abs(fd), 1e-8))


class TestGrad:
    def test_matches_finite_differences(self):
        m = init(Architecture.custom([4, 3]), p=5, seed=5)
        assert worst_fd_error(m, np.random.default_rng(4)) < 1e-5

    def test_matches_finite_differences_under_model_selu_constants(self):
        m = init(Architecture.custom([4, 3]), p=5, seed=5)
        m.selu_lambda, m.selu_alpha = 1.1, 1.5
        assert worst_fd_error(m, np.random.default_rng(4)) < 1e-5

    @pytest.mark.parametrize("hidden", [[5], [6, 4], [50, 20, 20]])
    def test_returns_the_loss_of_its_batch(self, hidden):
        rng = np.random.default_rng(8)
        m = init(Architecture.custom(hidden), p=7, seed=9)
        m.out_b = 0.3
        X = rng.normal(size=(33, 7))
        y = (rng.random(33) < 0.5).astype(np.float64)
        assert grad(m, X, y)[1] == loss(m, X, y)

    @pytest.mark.parametrize("hidden", [[50, 50], [50] * 4, [50] + [20] * 7, [3, 5]], ids=["nn2", "nn4", "nn8", "3-5"])
    @pytest.mark.parametrize("batch", [1, 7, 256])
    @pytest.mark.parametrize("constants", [None, (1.1, 1.5)], ids=["default", "custom"])
    def test_equals_two_pass_reference(self, hidden, batch, constants):
        rng = np.random.default_rng(batch)
        m = init(Architecture.custom(hidden), p=12, seed=len(hidden))
        for b in m.biases:
            b[:] = rng.normal(size=b.shape)
        m.out_b = 0.2
        if constants:
            m.selu_lambda, m.selu_alpha = constants
        X = rng.normal(scale=2.0, size=(batch, 12))
        y = (rng.random(batch) < 0.5).astype(np.float64)
        g, batch_loss = grad(m, X, y)
        ref_g, ref_loss = _reference_grad(m, X, y)
        assert np.array_equal(g, ref_g)
        assert batch_loss == ref_loss

    def test_symmetric_batch_zeroes_output_bias_gradient(self):
        m = init(Architecture.named("nn2"), p=3, seed=0)
        for W in m.weights:
            W[:] = 0.0
        m.out_w[:] = 0.0
        X = np.random.default_rng(5).normal(size=(6, 3))
        y = np.array([0, 1, 0, 1, 0, 1], dtype=np.float64)
        g, _ = grad(m, X, y)
        assert g[-1] == pytest.approx(0.0, abs=1e-15)  # the output bias is theta's last entry

    def test_mean_convention_batch_invariance(self):
        # duplicating every row leaves the mean-loss gradient unchanged
        rng = np.random.default_rng(6)
        m = init(Architecture.custom([5]), p=4, seed=7)
        X = rng.normal(size=(9, 4))
        y = (rng.random(9) < 0.5).astype(np.float64)
        g1, _ = grad(m, X, y)
        g2, _ = grad(m, np.vstack([X, X]), np.concatenate([y, y]))
        np.testing.assert_allclose(g1, g2, atol=1e-14)

    def test_small_step_decreases_loss(self):
        rng = np.random.default_rng(7)
        m = init(Architecture.custom([6, 4]), p=5, seed=8)
        X = rng.normal(size=(64, 5))
        y = (rng.random(64) < 0.5).astype(np.float64)
        before = loss(m, X, y)
        g, _ = grad(m, X, y)
        m.theta -= 1e-3 * g
        assert loss(m, X, y) < before


class TestStepSize:
    def test_linear_decay(self):
        cfg = TrainConfig(eta0=0.01, total_steps=1000)
        assert step_size(0, cfg) == 0.01
        assert step_size(500, cfg) == pytest.approx(0.005)
        assert step_size(1000, cfg) == 0.0

    def test_floor(self):
        cfg = TrainConfig(eta0=0.01, eta_floor=0.002, total_steps=100)
        assert step_size(99, cfg) == pytest.approx(0.002)
        assert step_size(10_000, cfg) == 0.002

    def test_config_validation(self):
        with pytest.raises(TrainError):
            TrainConfig(momentum=1.0)
        with pytest.raises(TrainError):
            TrainConfig(eta0=0.001, eta_floor=0.01)
        for eta0, eta_floor in ((math.inf, 0.0), (math.nan, 0.0), (math.inf, math.inf), (0.01, math.nan)):
            with pytest.raises(TrainError, match="eta0"):
                TrainConfig(eta0=eta0, eta_floor=eta_floor)
        with pytest.raises(TrainError):
            TrainConfig(batch_size=0)
        with pytest.raises(TrainError):
            TrainConfig(total_steps=0)
        with pytest.raises(TrainError):
            TrainConfig(optimizer="adam")
        for patience in (0, -1):
            with pytest.raises(TrainError, match="patience"):
                TrainConfig(patience=patience)


class TestTrain:
    def test_fits_separable_problem(self):
        rng = np.random.default_rng(10)
        X_all, y_all = separable_problem(rng, n=600)
        X, y = X_all[:400], y_all[:400]
        Xv, yv = X_all[400:], y_all[400:]
        m = init(Architecture.custom([16, 16]), p=6, seed=11)
        cfg = TrainConfig(eta0=0.05, total_steps=2000, batch_size=32, seed=12, patience=10)
        best, log, reason = train(m, (X, y), (Xv, yv), cfg)
        assert loss(best, X, y) < 0.2
        assert log.entries[-1].val_accuracy > 0.95
        assert reason in ("early_stop", "budget_exhausted")

    def test_deterministic(self):
        rng = np.random.default_rng(13)
        X_all, y_all = separable_problem(rng, n=192)
        X, y = X_all[:128], y_all[:128]
        Xv, yv = X_all[128:], y_all[128:]
        cfg = TrainConfig(eta0=0.05, total_steps=200, batch_size=32, seed=5)
        m = init(Architecture.custom([8]), p=6, seed=14)
        a, log_a, _ = train(m, (X, y), (Xv, yv), cfg)
        b, log_b, _ = train(m, (X, y), (Xv, yv), cfg)
        for Wa, Wb in zip(a.weights, b.weights):
            np.testing.assert_array_equal(Wa, Wb)
        assert [e.train_loss for e in log_a.entries] == [e.train_loss for e in log_b.entries]

    def test_input_model_not_mutated(self):
        rng = np.random.default_rng(15)
        X, y = separable_problem(rng, n=64)
        m = init(Architecture.custom([8]), p=6, seed=16)
        snapshot = [W.copy() for W in m.weights]
        train(m, (X, y), (X, y), TrainConfig(total_steps=50, seed=0))
        for W, S in zip(m.weights, snapshot):
            np.testing.assert_array_equal(W, S)

    def test_impossible_min_delta_stops_after_patience(self):
        # first evaluation is always accepted; with an unreachable min_delta
        # and patience=1, training stops at the second evaluation
        rng = np.random.default_rng(17)
        X, y = separable_problem(rng, n=64)
        cfg = TrainConfig(
            eta0=0.01, total_steps=10_000, batch_size=16,
            eval_every=5, patience=1, min_delta=float("inf"), seed=18,
        )
        m = init(Architecture.custom([8]), p=6, seed=19)
        _, log, reason = train(m, (X, y), (X, y), cfg)
        assert reason == "early_stop"
        assert len(log.entries) == 2

    def test_checkpoint_restore_returns_best(self):
        rng = np.random.default_rng(20)
        X_all, y_all = separable_problem(rng, n=384)
        X, y = X_all[:256], y_all[:256]
        Xv, yv = X_all[256:], y_all[256:]
        cfg = TrainConfig(eta0=0.1, total_steps=600, batch_size=32, eval_every=10, seed=21)
        m = init(Architecture.custom([12]), p=6, seed=22)
        best, log, _ = train(m, (X, y), (Xv, yv), cfg)
        # returned model's balanced accuracy matches the best logged one
        _, sens, spec = _validation_metrics(best, Xv, yv)
        achieved = np.nanmean([sens, spec])
        logged = max(np.nanmean([e.val_sensitivity, e.val_specificity]) for e in log.entries)
        assert achieved == pytest.approx(logged, abs=1e-12)

    def test_momentum_zero_equals_plain_sgd(self):
        rng = np.random.default_rng(23)
        X, y = separable_problem(rng, n=64)
        m = init(Architecture.custom([8]), p=6, seed=24)
        a, _, _ = train(m, (X, y), (X, y), TrainConfig(optimizer="sgd", total_steps=60, seed=1))
        b, _, _ = train(
            m, (X, y), (X, y),
            TrainConfig(optimizer="sgd_momentum", momentum=0.0, total_steps=60, seed=1),
        )
        for Wa, Wb in zip(a.weights, b.weights):
            np.testing.assert_array_equal(Wa, Wb)

    def test_momentum_changes_trajectory(self):
        rng = np.random.default_rng(25)
        X, y = separable_problem(rng, n=64)
        m = init(Architecture.custom([8]), p=6, seed=26)
        a, _, _ = train(m, (X, y), (X, y), TrainConfig(optimizer="sgd", total_steps=60, seed=1))
        b, _, _ = train(
            m, (X, y), (X, y),
            TrainConfig(optimizer="sgd_momentum", momentum=0.9, total_steps=60, seed=1),
        )
        assert any(not np.array_equal(Wa, Wb) for Wa, Wb in zip(a.weights, b.weights))

    def test_empty_sets_rejected(self):
        m = init(Architecture.custom([4]), p=3, seed=0)
        with pytest.raises(EmptySet):
            train(m, (np.empty((0, 3)), np.empty(0)), (np.zeros((1, 3)), np.zeros(1)),
                  TrainConfig())

    @pytest.mark.parametrize(
        "optimizer,eval_every,patience",
        [
            ("sgd", 0, 1000),
            ("sgd_momentum", 0, 1000),
            ("sgd", 7, 1000),
            ("sgd_momentum", 7, 1000),
            ("sgd_momentum", 7, 1),
        ],
        ids=["sgd-per-epoch", "momentum-per-epoch", "sgd-every-7", "momentum-every-7", "momentum-early-stop"],
    )
    def test_matches_full_pass_reference(self, optimizer, eval_every, patience):
        # 100 rows in batches of 12 make 9 steps per epoch, the last of 4 rows,
        # so every 7 steps an evaluation falls inside an epoch
        rng = np.random.default_rng(30)
        X_all, y_all = separable_problem(rng, n=150)
        tr, va = (X_all[:100], y_all[:100]), (X_all[100:], y_all[100:])
        cfg = TrainConfig(
            optimizer=optimizer, eta0=0.05, total_steps=120, batch_size=12,
            eval_every=eval_every, patience=patience, min_delta=0.01, seed=31,
        )
        m = init(Architecture.custom([8, 6]), p=6, seed=32)
        best, log, reason = train(m, tr, va, cfg)
        ref, ref_log, ref_reason, batch_losses = _reference_train(m, tr, va, cfg)
        for W, R in zip(best.weights + best.biases, ref.weights + ref.biases):
            np.testing.assert_array_equal(W, R)
        np.testing.assert_array_equal(best.out_w, ref.out_w)
        assert best.out_b == ref.out_b
        np.testing.assert_array_equal(best.theta, ref.theta)
        assert reason == ref_reason == ("early_stop" if patience == 1 else "budget_exhausted")
        assert _val_columns(log) == _val_columns(ref_log)
        for entry, seen in zip(log.entries, batch_losses):
            assert entry.train_loss == sum(l * k for l, k in seen) / sum(k for _, k in seen)

    def test_divergence_detected(self):
        rng = np.random.default_rng(27)
        X, y = separable_problem(rng, n=64)
        m = init(Architecture.custom([8, 8]), p=6, seed=28)
        cfg = TrainConfig(eta0=1e154, total_steps=200, eval_every=1, seed=29)
        with np.errstate(all="ignore"), pytest.raises(DivergenceDetected):
            train(m, (X, y), (X, y), cfg)
