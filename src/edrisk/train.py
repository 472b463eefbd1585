"""Training loop: mean negative log likelihood, exact backpropagation,
SGD / SGD-with-momentum, linear step-size decay, and early stopping on
validation balanced accuracy with checkpoint restore.

The logged training loss is the running loss of the minibatches, as most
frameworks report it: at each evaluation, the mean negative log
likelihood over the training rows seen since the previous evaluation,
each taken under the parameters before its own step.  ``grad`` already
computes it, so training never makes a separate pass over the training set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .evaluation import confusion, metrics
from . import mlp
from .mlp import MLPModel, ShapeMismatch, forward_batch, hidden_activations, sigmoid

PROB_EPS = 1e-12  # clamp inside the loss only; gradients use P - y directly


class TrainError(Exception):
    pass


class EmptySet(TrainError):
    pass


class DivergenceDetected(TrainError):
    pass


@dataclass
class TrainConfig:
    optimizer: str = "sgd_momentum"  # "sgd" or "sgd_momentum"
    momentum: float = 0.9
    eta0: float = 0.01
    total_steps: int = 10000
    eta_floor: float = 0.0
    batch_size: int = 256
    eval_every: int = 0  # 0 means once per epoch-equivalent
    patience: int = 5
    min_delta: float = 1e-4
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.momentum < 1.0:
            raise TrainError(f"momentum {self.momentum} outside [0, 1)")
        # a finite eta0 above eta_floor makes eta_floor finite too
        if not (math.isfinite(self.eta0) and self.eta0 > self.eta_floor >= 0.0):
            raise TrainError(f"need finite eta0 > eta_floor >= 0, got {self.eta0}, {self.eta_floor}")
        if self.batch_size < 1:
            raise TrainError(f"batch_size {self.batch_size} < 1")
        if self.total_steps < 1:
            raise TrainError(f"total_steps {self.total_steps} < 1")
        if self.patience < 1:
            raise TrainError(f"patience {self.patience} < 1")
        if self.optimizer not in ("sgd", "sgd_momentum"):
            raise TrainError(f"unknown optimizer {self.optimizer!r}")


@dataclass
class LogEntry:
    """One evaluation.  ``train_loss`` is the mean negative log likelihood
    over the training rows seen since the previous evaluation, each under
    the parameters before its step; the validation metrics are taken under
    the parameters after ``step`` steps."""

    step: int
    train_loss: float
    val_accuracy: float
    val_sensitivity: float
    val_specificity: float
    step_size: float


@dataclass
class TrainLog:
    """The evaluations of one run, saved as ``trainlog_*.tsv``; see
    ``LogEntry`` for what each column means."""

    entries: list[LogEntry] = field(default_factory=list)

    def save(self, path):
        with open(path, "w", encoding="utf-8") as f:
            f.write("step\ttrain_loss\tval_accuracy\tval_sensitivity\tval_specificity\tstep_size\n")
            for e in self.entries:
                f.write(
                    f"{e.step}\t{e.train_loss!r}\t{e.val_accuracy!r}\t"
                    f"{e.val_sensitivity!r}\t{e.val_specificity!r}\t{e.step_size!r}\n"
                )


def _check_batch(model, X, y):
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.n_inputs:
        raise ShapeMismatch(f"X has shape {X.shape}, model expects (*, {model.n_inputs})")
    if y.shape != (X.shape[0],):
        raise ShapeMismatch(f"y has shape {y.shape}, expected ({X.shape[0]},)")
    return X, y


def _mean_nll(P: np.ndarray, y: np.ndarray) -> float:
    P = np.clip(P, PROB_EPS, 1.0 - PROB_EPS)
    return float(-np.mean(y * np.log(P) + (1.0 - y) * np.log(1.0 - P)))


def loss(model: MLPModel, X: np.ndarray, y: np.ndarray) -> float:
    """Mean negative log likelihood of the labels under the model."""
    X, y = _check_batch(model, X, y)
    return _mean_nll(forward_batch(model, X), y)


def grad(model: MLPModel, X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, float]:
    """Exact gradient of the mean negative log likelihood via backpropagation,
    flat in ``model.theta``'s order, together with that loss (equal to
    ``loss(model, X, y)``)."""
    X, y = _check_batch(model, X, y)
    n = X.shape[0]
    # called through mlp: perfbench traces this module's hidden_activations as the validation pass
    slopes = []
    hs = [X] + mlp.hidden_activations(model, X, slopes)
    P = sigmoid(hs[-1] @ model.out_w + model.out_b)

    g = MLPModel(model.layer_sizes, np.empty_like(model.theta))
    delta_u = (P - y) / n
    g.out_w[:] = hs[-1].T @ delta_u
    g.out_b = delta_u.sum()
    delta_h = np.outer(delta_u, model.out_w)
    for i in range(model.depth - 1, -1, -1):
        delta_z = np.multiply(slopes[i], delta_h, out=slopes[i])
        g.weights[i][:] = hs[i].T @ delta_z
        g.biases[i][:] = delta_z.sum(axis=0)
        if i > 0:
            delta_h = delta_z @ model.weights[i].T
    return g.theta, _mean_nll(P, y)


def step_size(t: int, cfg: TrainConfig) -> float:
    """Linear decay from eta0 to eta_floor over total_steps."""
    return max(cfg.eta_floor, cfg.eta0 * (1.0 - t / cfg.total_steps))


def _validation_metrics(model, X_val, y_val, threshold=0.5):
    """(accuracy, sensitivity, specificity); nan where a class is absent."""
    probs = sigmoid(hidden_activations(model, X_val)[-1] @ model.out_w + model.out_b)
    c = confusion(probs, y_val, threshold)
    sens, spec, _ = metrics(c)
    nan = float("nan")
    return (c.tp + c.tn) / len(y_val), nan if sens is None else sens, nan if spec is None else spec


def train(
    model: MLPModel,
    train_set: tuple[np.ndarray, np.ndarray],
    val_set: tuple[np.ndarray, np.ndarray],
    cfg: TrainConfig,
) -> tuple[MLPModel, TrainLog, str]:
    """Minibatch SGD with shuffled epochs.  Evaluates validation metrics every
    eval_every steps (default: once per epoch) and stops after `patience`
    consecutive evaluations without a min_delta improvement in balanced
    accuracy; the returned model is the best-validation checkpoint.  The
    logged train_loss is the row-weighted mean of the minibatch losses
    since the previous evaluation (see LogEntry)."""
    X_tr, y_tr = _check_batch(model, *train_set)
    X_val, y_val = _check_batch(model, *val_set)
    if X_tr.shape[0] == 0 or X_val.shape[0] == 0:
        raise EmptySet("train and validation sets must be non-empty")

    n = X_tr.shape[0]
    steps_per_epoch = max(1, int(np.ceil(n / cfg.batch_size)))
    eval_every = cfg.eval_every if cfg.eval_every > 0 else steps_per_epoch

    model = model.copy()
    rng = np.random.default_rng(cfg.seed)
    mu = cfg.momentum if cfg.optimizer == "sgd_momentum" else 0.0
    vel = np.zeros_like(model.theta)

    log = TrainLog()
    best = model.copy()
    best_metric = -np.inf
    bad_evals = 0
    stop_reason = "budget_exhausted"
    seen_loss = 0.0  # sum of minibatch mean losses times their rows since the last evaluation
    seen_rows = 0
    t = 0
    done = False
    while not done:
        order = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            g, batch_loss = grad(model, X_tr[batch], y_tr[batch])
            seen_loss += batch_loss * len(batch)
            seen_rows += len(batch)
            vel = mu * vel - step_size(t, cfg) * g
            model.theta += vel
            t += 1

            if t % eval_every == 0 or t >= cfg.total_steps:
                train_loss = seen_loss / seen_rows
                seen_loss, seen_rows = 0.0, 0
                if not np.isfinite(train_loss):
                    raise DivergenceDetected(f"non-finite training loss at step {t}")
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
    return best, log, stop_reason
