"""SELU feedforward network: forward pass, initialization, model file format.

Architectures: NN2 = two hidden layers of 50 units, NN4 = four of 50,
NN8 = eight hidden layers (50 then seven of 20).  The output head is a
single sigmoid unit giving P(y=1 | x).

A model's parameters live in one contiguous vector ``theta``, in layer
order: each weight matrix row-major followed by its bias vector, then the
output weights and output bias.  The per-layer arrays are views into it.
A model computes in float32 if ``theta`` is float32 (training's working
copy), in float64 otherwise.

Model file format "MLP1": an ASCII header (magic, depth, layer sizes,
SELU constants), then ``theta`` as little-endian float64.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# full-precision SELU constants; 1.0507 / 1.6733 are the rounded forms
SELU_LAMBDA = 1.0507009873554805
SELU_ALPHA = 1.6732632423543772

ARCHITECTURES = {
    "nn2": [50, 50],
    "nn4": [50, 50, 50, 50],
    "nn8": [50, 20, 20, 20, 20, 20, 20, 20],
}

MAGIC = "MLP1"


class MLPError(Exception):
    pass


class ShapeMismatch(MLPError):
    pass


class BadMagic(MLPError):
    pass


class ShapeCorruption(MLPError):
    pass


def _floats(z) -> np.ndarray:
    """z as a float32 array if it is float32, else as a float64 one."""
    return np.asarray(z, dtype=np.float32 if np.asarray(z).dtype == np.float32 else np.float64)


# Branch-free, from m = min(z, 0): for z > 0, alpha * expm1(0) is +0 and z + 0 == z, and for
# alpha >= 0.5, 1 - alpha is exact and alpha + (1 - alpha) == 1.  So both equal the np.where(z > 0, ...)
# forms bit for bit, except that with alpha <= 0.5 a subnormal z < 0 gives +0 where those give -0.
def selu(z, lam=SELU_LAMBDA, alpha=SELU_ALPHA, m=None):
    """lam * (z for z > 0, alpha * (e^z - 1) for z <= 0), element-wise; m is min(z, 0) if known."""
    z = _floats(z)
    m = np.minimum(z, 0.0) if m is None else m
    return lam * (np.maximum(z, 0.0) + alpha * np.expm1(m))


def selu_prime(z, lam=SELU_LAMBDA, alpha=SELU_ALPHA, m=None):
    """Derivative; at z == 0 we take the z <= 0 branch value lam * alpha.  m as for selu."""
    z = _floats(z)
    m = np.minimum(z, 0.0) if m is None else m
    return lam * (alpha * np.exp(m) + (z > 0).astype(z.dtype) * (1.0 - alpha))  # a bool mask would give float64


def sigmoid(z):
    """Overflow-safe logistic function."""
    z = _floats(z)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


@dataclass
class Architecture:
    name: str
    hidden: list[int]

    @classmethod
    def named(cls, name: str) -> "Architecture":
        key = name.lower()
        if key not in ARCHITECTURES:
            raise MLPError(f"unknown architecture {name!r}; choose from {sorted(ARCHITECTURES)}")
        return cls(name=key, hidden=list(ARCHITECTURES[key]))

    @classmethod
    def custom(cls, hidden: list[int]) -> "Architecture":
        if not hidden or any(h < 1 for h in hidden):
            raise MLPError(f"bad hidden widths {hidden}")
        return cls(name="custom", hidden=list(hidden))


def n_params(sizes: list[int]) -> int:
    """Length of ``theta`` for layer sizes [p, n_1, ..., n_d]."""
    return sum(a * b + b for a, b in zip(sizes[:-1], sizes[1:])) + sizes[-1] + 1


@dataclass
class MLPModel:
    """``weights[i]`` (n_{i-1}, n_i), ``biases[i]`` (n_i,) and ``out_w`` (n_d,)
    are views into ``theta``, and ``out_b`` reads and writes ``theta[-1]``;
    write through the views, never rebind them."""

    layer_sizes: list[int]  # [p, n_1, ..., n_d]
    theta: np.ndarray  # (n_params(layer_sizes),) float64, or float32 to compute in float32
    selu_lambda: float = SELU_LAMBDA
    selu_alpha: float = SELU_ALPHA

    def __post_init__(self):
        sizes = self.layer_sizes
        need = n_params(sizes)
        if self.theta.shape != (need,):
            raise ShapeMismatch(f"theta has shape {self.theta.shape}, sizes {sizes} need ({need},)")
        self.weights, self.biases = [], []
        pos = 0
        for a, b in zip(sizes[:-1], sizes[1:]):
            self.weights.append(self.theta[pos : pos + a * b].reshape(a, b))
            pos += a * b
            self.biases.append(self.theta[pos : pos + b])
            pos += b
        self.out_w = self.theta[pos:-1]

    @property
    def out_b(self) -> float:
        return float(self.theta[-1])

    @out_b.setter
    def out_b(self, value: float):
        self.theta[-1] = value

    @property
    def depth(self) -> int:
        return len(self.layer_sizes) - 1

    @property
    def n_inputs(self) -> int:
        return self.layer_sizes[0]

    def copy(self) -> "MLPModel":
        return MLPModel(list(self.layer_sizes), self.theta.copy(), self.selu_lambda, self.selu_alpha)


def init(arch: Architecture, p: int, seed: int) -> MLPModel:
    """Gaussian weights of std sqrt(1/fan_in), the scale the SELU constants
    are designed around and the one that keeps deep stacks variance-stable;
    biases zero."""
    if p < 1:
        raise MLPError(f"need p >= 1 inputs, got {p}")
    sizes = [p] + list(arch.hidden)
    model = MLPModel(sizes, np.zeros(n_params(sizes)))
    rng = np.random.default_rng(seed)
    for W in model.weights + [model.out_w]:
        W[...] = rng.normal(0.0, np.sqrt(1.0 / W.shape[0]), size=W.shape)
    return model


def hidden_activations(model: MLPModel, X: np.ndarray, slopes: list | None = None) -> list[np.ndarray]:
    """All hidden-layer outputs [h^(1), ..., h^(d)] for a batch, in the model's
    dtype and SELU constants.  Given a list ``slopes``, also appends each
    layer's SELU slope selu'(z^(i)) to it, as backpropagation needs."""
    h = np.asarray(X, dtype=model.theta.dtype)
    if h.ndim != 2 or h.shape[1] != model.n_inputs:
        raise ShapeMismatch(f"input has shape {h.shape}, model expects (*, {model.n_inputs})")
    hs = []
    for W, b in zip(model.weights, model.biases):
        z = h @ W
        z += b
        m = np.minimum(z, 0.0)
        if slopes is not None:
            slopes.append(selu_prime(z, model.selu_lambda, model.selu_alpha, m))
        h = selu(z, model.selu_lambda, model.selu_alpha, m)
        hs.append(h)
    return hs


def forward_batch(model: MLPModel, X: np.ndarray) -> np.ndarray:
    """Row-wise P(y=1 | x) for a batch; empty batch gives an empty vector."""
    X = np.asarray(X, dtype=model.theta.dtype)
    if X.shape[0] == 0:
        return np.empty(0)
    h = hidden_activations(model, X)[-1]
    return sigmoid(h @ model.out_w + model.out_b)


def save_model(model: MLPModel, path):
    with open(path, "wb") as f:
        header = (
            f"{MAGIC}\n"
            f"depth={model.depth}\n"
            f"sizes={','.join(str(s) for s in model.layer_sizes)}\n"
            f"lambda={model.selu_lambda!r}\n"
            f"alpha={model.selu_alpha!r}\n"
            "end\n"
        )
        f.write(header.encode("ascii"))
        f.write(np.ascontiguousarray(model.theta, dtype="<f8").tobytes())


def load_model(path) -> MLPModel:
    with open(path, "rb") as f:
        magic = f.readline().decode("ascii", errors="replace").rstrip("\n")
        if magic != MAGIC:
            raise BadMagic(f"{path}: bad magic {magic!r}")
        header = {}
        while True:
            raw = f.readline()
            try:
                line = raw.decode("ascii").rstrip("\n")
            except UnicodeDecodeError:
                raise ShapeCorruption(f"{path}: non-ASCII header line {raw[:40]!r}") from None
            if line == "end":
                break
            if "=" not in line:
                raise ShapeCorruption(f"{path}: malformed header line {line!r}")
            k, v = line.split("=", 1)
            header[k] = v
        try:
            sizes = [int(s) for s in header["sizes"].split(",")]
            depth = int(header["depth"])
            selu_lambda, selu_alpha = float(header["lambda"]), float(header["alpha"])
        except KeyError as e:
            raise ShapeCorruption(f"{path}: header has no {e.args[0]}= line") from None
        except ValueError as e:
            raise ShapeCorruption(f"{path}: bad header value: {e}") from None
        if depth != len(sizes) - 1 or min(sizes) < 1:
            raise ShapeCorruption(f"{path}: depth {depth} and sizes {sizes} do not describe a network")
        blob = f.read()
    need = n_params(sizes)
    if len(blob) != 8 * need:
        raise ShapeCorruption(f"{path}: expected {need} parameters ({8 * need} bytes), got {len(blob)} bytes")
    theta = np.frombuffer(blob, dtype="<f8").astype(np.float64)  # an owned, writable copy
    if not np.isfinite(theta).all():
        raise ShapeCorruption(f"{path}: parameter {np.flatnonzero(~np.isfinite(theta))[0]} is not finite")
    return MLPModel(sizes, theta, selu_lambda, selu_alpha)
