"""SELU feedforward network: forward pass, initialization, model file format.

Architectures: NN2 = two hidden layers of 50 units, NN4 = four of 50,
NN8 = eight hidden layers (50 then seven of 20).  The output head is a
single sigmoid unit giving P(y=1 | x).

Model file format "MLP1": an ASCII header (magic, depth, layer sizes,
SELU constants), then all parameters as little-endian float64 in layer
order, each weight matrix row-major followed by its bias vector, then the
output weights and output bias.
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


def selu(z, lam=SELU_LAMBDA, alpha=SELU_ALPHA):
    """lam * (z for z > 0, alpha * (e^z - 1) for z <= 0), element-wise."""
    z = np.asarray(z, dtype=np.float64)
    return lam * np.where(z > 0, z, alpha * np.expm1(np.minimum(z, 0.0)))


def selu_prime(z, lam=SELU_LAMBDA, alpha=SELU_ALPHA):
    """Derivative; at z == 0 we take the z <= 0 branch value lam * alpha."""
    z = np.asarray(z, dtype=np.float64)
    return lam * np.where(z > 0, 1.0, alpha * np.exp(np.minimum(z, 0.0)))


def sigmoid(z):
    """Overflow-safe logistic function."""
    z = np.asarray(z, dtype=np.float64)
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


@dataclass
class MLPModel:
    layer_sizes: list[int]  # [p, n_1, ..., n_d]
    weights: list[np.ndarray]  # W_i of shape (n_{i-1}, n_i)
    biases: list[np.ndarray]
    out_w: np.ndarray  # (n_d,)
    out_b: float
    selu_lambda: float = SELU_LAMBDA
    selu_alpha: float = SELU_ALPHA

    @property
    def depth(self) -> int:
        return len(self.weights)

    @property
    def n_inputs(self) -> int:
        return self.layer_sizes[0]

    def copy(self) -> "MLPModel":
        return MLPModel(
            layer_sizes=list(self.layer_sizes),
            weights=[W.copy() for W in self.weights],
            biases=[b.copy() for b in self.biases],
            out_w=self.out_w.copy(),
            out_b=float(self.out_b),
            selu_lambda=self.selu_lambda,
            selu_alpha=self.selu_alpha,
        )


def init(arch: Architecture, p: int, seed: int, weight_scale: str = "lecun") -> MLPModel:
    """Gaussian init, biases zero.  weight_scale "lecun" draws std
    sqrt(1/fan_in) (the scale the SELU constants are designed around, and
    the one that keeps deep stacks variance-stable); "he" draws the larger
    sqrt(2/fan_in)."""
    if p < 1:
        raise MLPError(f"need p >= 1 inputs, got {p}")
    if weight_scale not in ("lecun", "he"):
        raise MLPError(f"unknown weight_scale {weight_scale!r}")
    numerator = 1.0 if weight_scale == "lecun" else 2.0
    rng = np.random.default_rng(seed)
    sizes = [p] + list(arch.hidden)
    weights, biases = [], []
    for n_prev, n_cur in zip(sizes[:-1], sizes[1:]):
        weights.append(rng.normal(0.0, np.sqrt(numerator / n_prev), size=(n_prev, n_cur)))
        biases.append(np.zeros(n_cur))
    out_w = rng.normal(0.0, np.sqrt(numerator / sizes[-1]), size=sizes[-1])
    return MLPModel(layer_sizes=sizes, weights=weights, biases=biases, out_w=out_w, out_b=0.0)


def hidden_activations(model: MLPModel, X: np.ndarray) -> list[np.ndarray]:
    """All hidden-layer outputs [h^(1), ..., h^(d)] for a batch, under the
    model's own SELU constants."""
    h = np.asarray(X, dtype=np.float64)
    if h.ndim != 2 or h.shape[1] != model.n_inputs:
        raise ShapeMismatch(f"input has shape {h.shape}, model expects (*, {model.n_inputs})")
    hs = []
    for W, b in zip(model.weights, model.biases):
        h = selu(h @ W + b, model.selu_lambda, model.selu_alpha)
        hs.append(h)
    return hs


def forward_batch(model: MLPModel, X: np.ndarray) -> np.ndarray:
    """Row-wise P(y=1 | x) for a batch; empty batch gives an empty vector."""
    X = np.asarray(X, dtype=np.float64)
    if X.shape[0] == 0:
        return np.empty(0)
    h = hidden_activations(model, X)[-1]
    return sigmoid(h @ model.out_w + model.out_b)


def forward(model: MLPModel, x: np.ndarray) -> float:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.shape[0] != model.n_inputs:
        raise ShapeMismatch(f"input has shape {x.shape}, model expects ({model.n_inputs},)")
    return float(forward_batch(model, x[None, :])[0])


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
        for W, b in zip(model.weights, model.biases):
            f.write(np.ascontiguousarray(W, dtype="<f8").tobytes())
            f.write(np.ascontiguousarray(b, dtype="<f8").tobytes())
        f.write(np.ascontiguousarray(model.out_w, dtype="<f8").tobytes())
        f.write(np.float64(model.out_b).astype("<f8").tobytes())


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
        blob = np.frombuffer(f.read(), dtype="<f8")
    need = sum(a * b + b for a, b in zip(sizes[:-1], sizes[1:])) + sizes[-1] + 1
    if blob.size != need:
        raise ShapeCorruption(f"{path}: expected {need} parameters, found {blob.size}")
    weights, biases = [], []
    pos = 0
    for n_prev, n_cur in zip(sizes[:-1], sizes[1:]):
        weights.append(blob[pos : pos + n_prev * n_cur].reshape(n_prev, n_cur).copy())
        pos += n_prev * n_cur
        biases.append(blob[pos : pos + n_cur].copy())
        pos += n_cur
    out_w = blob[pos : pos + sizes[-1]].copy()
    pos += sizes[-1]
    return MLPModel(
        layer_sizes=sizes,
        weights=weights,
        biases=biases,
        out_w=out_w,
        out_b=float(blob[pos]),
        selu_lambda=selu_lambda,
        selu_alpha=selu_alpha,
    )
