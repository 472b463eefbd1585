"""Calibration of the synthetic generator's outcome model.

``calibrate`` fits ``SynthConfig.base_logit`` and the four risk groups'
boosts by bisection until a simulated cohort meets row-level prevalence
targets.  ``synth.default_config`` ships its frozen output against
``synth.DEFAULT_TARGETS``; the program never calibrates at run time, so the
tool lives here, next to the tests that check it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from edrisk.synth import RISK_GROUPS, InvalidConfig, SynthConfig, SynthError, _draw_visit_counts, _sigmoid


class Unachievable(SynthError):
    def __init__(self, target_name, detail=""):
        super().__init__(f"target {target_name!r} cannot be met{': ' + detail if detail else ''}")
        self.target_name = target_name


@dataclass
class _CohortStructure:
    """Boosted-code skeleton of a simulated cohort: everything the logistic
    outcome model needs, with no demographics or background codes."""

    codes: np.ndarray  # boosted code numbers, shape (m,)
    visit_counts: np.ndarray  # (n,)
    appeared: np.ndarray  # (n, m) 0/1: code shows up somewhere in the record
    first_seen: np.ndarray  # (n, m) first visit index with the code, -1 if never


def _simulate_structure(cfg: SynthConfig, n_patients: int, seed: int) -> _CohortStructure:
    rng = np.random.default_rng(seed)
    boosted = np.array(cfg.boosted_codes, dtype=np.int64)
    ks = _draw_visit_counts(rng, cfg, n_patients)
    m = len(boosted)
    first_seen = np.full((n_patients, m), -1, dtype=np.int64)
    for jx, code in enumerate(boosted):
        q = cfg.carrier_prob.get(int(code), 0.0)
        carrier = rng.random(n_patients) < q
        # first visit including the code is geometric(repeat_prob), 0-based
        first = rng.geometric(cfg.repeat_prob, size=n_patients) - 1
        hit = carrier & (first < ks)
        first_seen[hit, jx] = first[hit]
    return _CohortStructure(
        codes=boosted,
        visit_counts=ks,
        appeared=(first_seen >= 0).astype(np.int8),
        first_seen=first_seen,
    )


def _prevalences(
    struct: _CohortStructure, base: float, boosts: dict[int, float], slope: float
) -> dict[str, float]:
    """Expected row-level prevalences (overall, and per risk group over rows
    whose cumulative history includes a group code) under the logistic model."""
    boost_vec = np.array([boosts.get(int(c), 0.0) for c in struct.codes])
    ks = struct.visit_counts
    p = _sigmoid(base + struct.appeared @ boost_vec + slope * (ks - 1))
    out = {"overall": float((ks * p).sum() / ks.sum())}
    code_col = {int(c): j for j, c in enumerate(struct.codes)}
    for g, codes in RISK_GROUPS.items():
        cols = [code_col[c] for c in codes if c in code_col]
        if not cols:
            out[g] = float("nan")
            continue
        fs = struct.first_seen[:, cols]
        fs = np.where(fs < 0, np.iinfo(np.int64).max, fs).min(axis=1)
        m = fs < np.iinfo(np.int64).max
        rows = ks[m] - fs[m]
        out[g] = float((rows * p[m]).sum() / rows.sum()) if m.any() else float("nan")
    return out


def _bisect(f, lo: float, hi: float, target: float, name: str, iters: int = 50) -> float:
    f_lo, f_hi = f(lo), f(hi)
    if not (f_lo <= target <= f_hi):
        raise Unachievable(name, f"target {target:.4g} outside reachable [{f_lo:.4g}, {f_hi:.4g}]")
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if f(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def calibrate(
    targets: dict[str, float],
    template: SynthConfig,
    n_patients: int = 100_000,
    seed: int = 12345,
    tol: float = 0.002,
    max_rounds: int = 50,
) -> SynthConfig:
    """Coordinate bisection: fit base_logit to the overall target, then each
    risk group's shared boost to its subgroup target, iterating to a joint
    fix.  The code-occurrence structure is simulated once and reused, so
    every bisection probe is exact on the same Monte-Carlo sample.
    Auxiliary boosts and the visit slope are taken from the template as-is."""
    template.validate()
    unknown = set(targets) - ({"overall"} | set(RISK_GROUPS))
    if unknown:
        raise InvalidConfig(f"unknown calibration targets {sorted(unknown)}")
    struct = _simulate_structure(template, n_patients, seed)
    base = template.base_logit
    boosts = dict(template.boosts)
    slope = template.visit_slope

    errs: dict[str, float] = {}
    for _ in range(max_rounds):
        if "overall" in targets:
            base = _bisect(
                lambda b: _prevalences(struct, b, boosts, slope)["overall"],
                -16.0, 4.0, targets["overall"], "overall",
            )
        for g, codes in RISK_GROUPS.items():
            if g not in targets:
                continue

            def prev_g(b, _g=g, _codes=codes):
                trial = dict(boosts)
                trial.update({c: b for c in _codes})
                return _prevalences(struct, base, trial, slope)[_g]

            b_star = _bisect(prev_g, -12.0, 14.0, targets[g], g)
            boosts.update({c: b_star for c in codes})
        got = _prevalences(struct, base, boosts, slope)
        errs = {name: abs(got[name] - t) for name, t in targets.items()}
        if all(e <= tol for e in errs.values()):
            return replace(template, base_logit=base, boosts=boosts)
    worst = max(errs, key=errs.get)
    raise Unachievable(worst, f"no joint fix after {max_rounds} rounds (residual {errs[worst]:.4g})")
