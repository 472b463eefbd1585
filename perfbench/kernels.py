"""Isolated timings of ``train.grad`` and ``mlp.forward_batch``, and the
matrix-product work of one ``train.grad`` call computed from layer sizes.

The timings use a fixed random input of the paper's width (p=435), so
they do not depend on the workload or its seed.  The computed counts
cover the matrix products only (forward, output head, weight gradients
and the backpropagated deltas); elementwise SELU work is left out.  They
are arithmetic on layer sizes, so they repeat exactly.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

from edrisk import mlp, train

ARCHS = tuple(mlp.ARCHITECTURES)  # nn2, nn4, nn8
BATCHES = (256, 4096)
P = 435
REPEATS = {256: 31, 4096: 7}


def grad_work(sizes: list[int], n: int) -> tuple[int, int]:
    """(FLOPs, bytes) of the matrix products in one ``train.grad`` call on
    ``n`` rows: each product of (a x b)(b x c) costs 2abc FLOPs and moves
    its two operands and its result once, 8 bytes per float64."""
    flops = 0
    moved = 0

    def product(a, b, c):
        nonlocal flops, moved
        flops += 2 * a * b * c
        moved += 8 * (a * b + b * c + a * c)

    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        product(n, fan_in, fan_out)  # forward z = h W
    product(n, sizes[-1], 1)  # output head
    product(sizes[-1], n, 1)  # output weight gradient
    product(n, 1, sizes[-1])  # outer(delta_u, out_w)
    for i, (fan_in, fan_out) in enumerate(zip(sizes[:-1], sizes[1:])):
        product(fan_in, n, fan_out)  # weight gradient h^T delta
        if i > 0:
            product(n, fan_out, fan_in)  # delta W^T into the layer below
    return flops, moved


def _median_ms(fn, repeats: int) -> float:
    fn()  # warm-up
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return 1e3 * statistics.median(times)


def micro_metrics() -> dict[str, float]:
    rng = np.random.default_rng(0)
    X = rng.standard_normal((max(BATCHES), P))
    y = (rng.random(max(BATCHES)) < 0.5).astype(np.float64)
    m = {}
    for arch in ARCHS:
        model = mlp.init(mlp.Architecture.named(arch), P, seed=0)
        for bs in BATCHES:
            Xb, yb = X[:bs], y[:bs]
            key = f"{arch}.b{bs}"
            m[f"train.grad.ms.{key}"] = _median_ms(lambda: train.grad(model, Xb, yb), REPEATS[bs])
            m[f"mlp.forward_batch.ms.{key}"] = _median_ms(lambda: mlp.forward_batch(model, Xb), REPEATS[bs])
            flops, moved = grad_work(model.layer_sizes, bs)
            m[f"train.grad.flops_computed.{key}"] = flops
            m[f"train.grad.bytes_computed.{key}"] = moved
    return m
