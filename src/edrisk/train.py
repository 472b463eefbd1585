"""Training loop: mean negative log likelihood, exact backpropagation,
SGD / SGD-with-momentum, linear step-size decay, and early stopping on the
balanced accuracy of the caller's validation set, with checkpoint restore.
A float64 master ``theta`` and momentum step by float32 gradients, taken on
a float32 copy of the master; ``grad`` and ``loss`` compute in their model's dtype.

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


class RowsOutOfRange(TrainError):
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
    X = np.asarray(X, dtype=model.theta.dtype)
    y = np.asarray(y, dtype=model.theta.dtype)
    if X.ndim != 2 or X.shape[1] != model.n_inputs:
        raise ShapeMismatch(f"X has shape {X.shape}, model expects (*, {model.n_inputs})")
    if y.shape != (X.shape[0],):
        raise ShapeMismatch(f"y has shape {y.shape}, expected ({X.shape[0]},)")
    return X, y


def _mean_nll(P: np.ndarray, y: np.ndarray) -> float:
    P = np.clip(P.astype(np.float64), PROB_EPS, 1.0 - PROB_EPS)  # in float64, where 1 - PROB_EPS < 1
    return float(-np.mean(y * np.log(P) + (1.0 - y) * np.log(1.0 - P)))


def loss(model: MLPModel, X: np.ndarray, y: np.ndarray) -> float:
    """Mean negative log likelihood of the labels under the model."""
    X, y = _check_batch(model, X, y)
    return _mean_nll(forward_batch(model, X), y)


def grad(model: MLPModel, X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, float]:
    """Exact gradient of the mean negative log likelihood via backpropagation,
    flat in ``model.theta``'s order and dtype, together with that loss (equal
    to ``loss(model, X, y)``)."""
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


def _validation_metrics(model, X_val, y_val):
    """(accuracy, sensitivity, specificity) at threshold 0.5; nan where a class is absent."""
    probs = sigmoid(hidden_activations(model, X_val)[-1] @ model.out_w + model.out_b)
    c = confusion(probs, y_val, 0.5)
    sens, spec, _ = metrics(c)
    nan = float("nan")
    return (c.tp + c.tn) / len(y_val), nan if sens is None else sens, nan if spec is None else spec


def _check_rows(rows, n: int) -> np.ndarray:
    """``rows`` (all ``n`` when None) as an index array, checked to address a training set of ``n`` rows."""
    rows = np.arange(n) if rows is None else np.asarray(rows)
    if rows.size == 0:
        raise EmptySet("the train set is empty")
    if rows.ndim != 1 or rows.dtype.kind not in "iu" or rows.min() < 0 or rows.max() >= n:
        raise RowsOutOfRange(f"train rows must be integers in [0, {n}) in one dimension")
    return rows


@np.errstate(over="ignore", invalid="ignore")
def train(
    model: MLPModel,
    train_set: tuple[np.ndarray, np.ndarray],
    val_set: tuple[np.ndarray, np.ndarray],
    cfg: TrainConfig,
    train_rows: np.ndarray | None = None,
) -> tuple[MLPModel, TrainLog, str]:
    """Minibatch SGD with shuffled epochs.  Evaluates validation metrics every
    eval_every steps (default: once per epoch) and stops after `patience`
    consecutive evaluations without a min_delta improvement in balanced
    accuracy; the returned model is the best-validation checkpoint.  The
    logged train_loss is the row-weighted mean of the minibatch losses
    since the previous evaluation (see LogEntry).  Training on ``train_rows``
    equals training on the gathered rows; the validation set is cast once.
    Steps and validation passes run in float32 on a copy of the float64 master,
    which is returned; overflow warns nothing, for the loss check catches it."""
    model = model.copy()
    work = MLPModel(model.layer_sizes, model.theta.astype(np.float32), model.selu_lambda, model.selu_alpha)
    X_tr, y_tr = _check_batch(model, *train_set)
    X_val, y_val = _check_batch(work, *val_set)
    rows = _check_rows(train_rows, len(X_tr))
    if not len(y_val):
        raise EmptySet("the validation set is empty")

    n = len(rows)
    steps_per_epoch = -(-n // cfg.batch_size)
    eval_every = cfg.eval_every if cfg.eval_every > 0 else steps_per_epoch

    rng = np.random.default_rng(cfg.seed)
    mu = cfg.momentum if cfg.optimizer == "sgd_momentum" else 0.0
    vel = np.zeros_like(model.theta)

    log = TrainLog()
    best = model.copy()
    best_metric = -np.inf
    bad_evals = 0
    seen_loss = 0.0  # sum of minibatch mean losses times their rows since the last evaluation
    seen_rows = 0
    for t in range(cfg.total_steps):
        if t % steps_per_epoch == 0:
            order = rng.permutation(n)
        start = t % steps_per_epoch * cfg.batch_size
        batch = rows[order[start : start + cfg.batch_size]]
        g, batch_loss = grad(work, X_tr[batch], y_tr[batch])  # which casts the batch to float32
        seen_loss += batch_loss * len(batch)
        seen_rows += len(batch)
        vel = mu * vel - step_size(t, cfg) * g.astype(np.float64)
        model.theta += vel
        work.theta[...] = model.theta
        if (t + 1) % eval_every and t + 1 < cfg.total_steps:
            continue
        train_loss = seen_loss / seen_rows
        seen_loss, seen_rows = 0.0, 0
        if not np.isfinite(train_loss):
            raise DivergenceDetected(f"non-finite training loss at step {t + 1}")
        acc, sens, spec = _validation_metrics(work, X_val, y_val)
        log.entries.append(LogEntry(t + 1, train_loss, acc, sens, spec, step_size(t + 1, cfg)))
        balanced = np.nanmean([sens, spec])
        first_eval = best_metric == -np.inf
        if first_eval or balanced > best_metric + cfg.min_delta:
            best_metric = balanced
            best = model.copy()
            bad_evals = 0
        else:
            bad_evals += 1
            if bad_evals >= cfg.patience:
                return best, log, "early_stop"
    return best, log, "budget_exhausted"
