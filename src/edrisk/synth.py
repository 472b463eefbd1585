"""Synthetic cohort generator with a planted, documented risk mechanism.

Each patient draws a visit count (truncated geometric).  A fixed set of
"boosted" CCS codes carries outcome signal: the four published
prior-diagnosis groups (662 self-injury, 651/657 mood and anxiety, 659
psychotic, 660/661 substance-related) plus auxiliary codes that add
discriminative signal without a prevalence target.  Patients carry each
boosted code with a per-code probability; a carried code then recurs in
each visit with ``repeat_prob``, so carriers are visible early in their
history and their cumulative vectors accumulate repeats.  Remaining code
slots fill with uniform background codes.

The outcome is drawn once per patient from a logistic model over the
boosted codes that actually appear in the record plus the visit count,
then written onto all of that patient's rows.  Categorical fields are
drawn uniformly from their level sets and carry no planted signal; any
model reliance on them is noise.

``calibrate`` adjusts the base log-odds and the four groups' boosts by
bisection against a simulated cohort until row-level prevalence targets
are met.  ``default_config`` ships the frozen result of that calibration
against the published targets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .schema import (
    CATEGORICAL_FIELDS,
    CCS_SLOT,
    CategoricalSpec,
    VisitRecord,
    default_spec,
)

RISK_GROUPS: dict[str, tuple[int, ...]] = {
    "662": (662,),
    "651/657": (651, 657),
    "659": (659,),
    "660/661": (660, 661),
}
RISK_CODES: tuple[int, ...] = (651, 657, 659, 660, 661, 662)

ALL_CCS = np.array(sorted(CCS_SLOT, key=CCS_SLOT.get))

# row-level prevalence targets from the published cohort
DEFAULT_TARGETS: dict[str, float] = {
    "overall": 0.0158,
    "662": 0.147,
    "651/657": 0.0744,
    "659": 0.162,
    "660/661": 0.0572,
}


class SynthError(Exception):
    pass


class InvalidConfig(SynthError):
    pass


class Unachievable(SynthError):
    def __init__(self, target_name, detail=""):
        super().__init__(f"target {target_name!r} cannot be met{': ' + detail if detail else ''}")
        self.target_name = target_name


@dataclass
class SynthConfig:
    n_patients: int = 50_000
    seed: int = 0
    visit_geom_p: float = 0.64  # mean visits ~1.56, truncated at max_visits
    max_visits: int = 25
    extra_code_prob: float = 0.25  # background codes per visit ~ 1 + Binomial(6, p)
    carrier_prob: dict[int, float] = field(default_factory=dict)  # patient carries boosted code
    repeat_prob: float = 0.7  # carried code appears in any given visit
    base_logit: float = -4.13
    boosts: dict[int, float] = field(default_factory=dict)  # per-code log-odds when code appears
    visit_slope: float = 0.0  # log-odds per visit beyond the first

    def validate(self):
        if self.n_patients < 0:
            raise InvalidConfig(f"n_patients {self.n_patients} < 0")
        if not 0.0 < self.visit_geom_p <= 1.0:
            raise InvalidConfig(f"visit_geom_p {self.visit_geom_p} outside (0, 1]")
        if not 0.0 <= self.extra_code_prob <= 1.0:
            raise InvalidConfig(f"extra_code_prob {self.extra_code_prob} outside [0, 1]")
        if not 0.0 < self.repeat_prob <= 1.0:
            raise InvalidConfig(f"repeat_prob {self.repeat_prob} outside (0, 1]")
        for c, q in self.carrier_prob.items():
            if c not in CCS_SLOT:
                raise InvalidConfig(f"carrier code {c} is not a valid CCS code")
            if not 0.0 <= q <= 1.0:
                raise InvalidConfig(f"carrier_prob[{c}] = {q} outside [0, 1]")
        if not all(np.isfinite(list(self.boosts.values()) + [self.base_logit, self.visit_slope])):
            raise InvalidConfig("non-finite logistic parameters")

    @property
    def boosted_codes(self) -> list[int]:
        return sorted(set(self.carrier_prob) | set(self.boosts))


# auxiliary boosted codes: arbitrary non-risk CCS categories that carry
# extra planted signal (no published prevalence target attaches to them)
AUX_CODES: tuple[int, ...] = (83, 98, 106, 121, 135, 152, 170, 197, 205, 224, 230, 245)


def default_config(n_patients: int = 50_000, seed: int = 0) -> SynthConfig:
    """Config calibrated (via ``calibrate``) to the published row-level
    prevalences: overall 1.58%, and 14.7% / 7.44% / 16.2% / 5.72% for the
    662 / 651-657 / 659 / 660-661 prior-diagnosis subgroups."""
    carrier = {c: 0.022 for c in RISK_CODES}
    carrier.update({c: 0.008 for c in AUX_CODES})
    boosts = {c: 5.0 for c in AUX_CODES}
    # frozen output of calibrate(DEFAULT_TARGETS, ..., n_patients=400_000,
    # seed=12345, tol=0.0012) over the template below
    boosts.update(
        {
            651: 3.11453916917153,
            657: 3.11453916917153,
            659: 5.099309251155295,
            660: 2.496544602679454,
            661: 2.496544602679454,
            662: 4.843431901052843,
        }
    )
    return SynthConfig(
        n_patients=n_patients,
        seed=seed,
        carrier_prob=carrier,
        repeat_prob=0.85,
        base_logit=-8.84886379895581,
        boosts=boosts,
        visit_slope=0.5,
    )


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-np.asarray(z, dtype=np.float64)))


def outcome_logit(cfg: SynthConfig, appeared_codes, n_visits: int) -> float:
    z = cfg.base_logit + cfg.visit_slope * (n_visits - 1)
    for c in set(appeared_codes):
        z += cfg.boosts.get(c, 0.0)
    return z


def _draw_visit_counts(rng, cfg, n):
    return np.minimum(rng.geometric(cfg.visit_geom_p, size=n), cfg.max_visits)


def generate(cfg: SynthConfig, spec: CategoricalSpec | None = None) -> list[VisitRecord]:
    """Deterministic given cfg.seed; patients use independent sub-streams
    seeded by (seed, patient index), so output does not depend on how the
    patient loop is scheduled, and the first n patients of a larger cohort
    equal an n-patient cohort of the same seed.

    Stream contract.  Patient i draws from ``default_rng([cfg.seed, i])``
    in this order, and any rewrite must keep it (``tests/test_synth.py``
    holds the original loop as the oracle):

    1. the visit count k, one geometric draw truncated at ``max_visits``;
    2. age in [10, 20), zip in [90000, 96200), county in [1, 59), then k
       service years in [2006, 2010), sorted afterwards;
    3. one uniform per boosted code (sorted by code): the carried codes;
    4. k binomial(6, extra_code_prob) draws; visit j gets 1 + draw j
       background codes;
    5. the background codes, uniform over the non-boosted codes, visit by
       visit; then k levels per categorical field in ``CATEGORICAL_FIELDS``
       order; then k facility ids in [1, 401);
    6. if any code is carried, k rows of one uniform per carried code: the
       carried codes that recur in each visit;
    7. one uniform against the outcome probability.

    Bounded integers use Lemire's method, which takes one 32-bit word per
    value whether the bounds are scalars or arrays, so each of steps 2 and
    5 is a single ``integers`` call with per-value bounds."""
    cfg.validate()
    if spec is None:
        spec = default_spec()
    boosted = np.array(cfg.boosted_codes, dtype=np.int64)
    qvec = np.array([cfg.carrier_prob.get(int(c), 0.0) for c in boosted])
    background = np.array(sorted(set(ALL_CCS.tolist()) - set(boosted.tolist())), dtype=np.int64)
    levels = [spec.levels[name] for name in CATEGORICAL_FIELDS]
    n_fields = len(levels)
    # per-value (low, high) bounds of steps 2 and 5, by visit count (and
    # number of background codes); built once per distinct key
    head_bounds: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    tail_bounds: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}
    records: list[VisitRecord] = []
    for i in range(cfg.n_patients):
        rng = np.random.default_rng([cfg.seed, i])
        k = int(_draw_visit_counts(rng, cfg, 1)[0])
        bounds = head_bounds.get(k)
        if bounds is None:
            bounds = head_bounds[k] = (
                np.array([10, 90000, 1] + [2006] * k, dtype=np.int64),
                np.array([20, 96200, 59] + [2010] * k, dtype=np.int64),
            )
        head = rng.integers(*bounds)
        age, zip_code, county = head[:3].tolist()
        years = sorted(head[3:].tolist())
        carried = boosted[rng.random(len(boosted)) < qvec].tolist()
        n_bg = (1 + rng.binomial(6, cfg.extra_code_prob, size=k)).tolist()
        n_codes = sum(n_bg)
        bounds = tail_bounds.get((k, n_codes))
        if bounds is None:
            lo = np.zeros(n_codes + (n_fields + 1) * k, dtype=np.int64)
            lo[n_codes + n_fields * k :] = 1
            hi = np.concatenate(
                [np.full(n_codes, len(background))]
                + [np.full(k, len(lv)) for lv in levels]
                + [np.full(k, 401)]
            )
            bounds = tail_bounds[(k, n_codes)] = (lo, hi)
        tail = rng.integers(*bounds)
        bg_codes = background[tail[:n_codes]].tolist()
        cats = tail[n_codes : n_codes + n_fields * k].reshape(n_fields, k).T.tolist()
        facilities = tail[n_codes + n_fields * k :].tolist()

        if carried:
            recur = (rng.random((k, len(carried))) < cfg.repeat_prob).tolist()
        visit_codes = []
        appeared: set[int] = set()
        pos = 0
        for j in range(k):
            codes = [c for c, r in zip(carried, recur[j]) if r] if carried else []
            appeared.update(codes)
            codes += bg_codes[pos : pos + n_bg[j]]
            pos += n_bg[j]
            visit_codes.append(codes[:7])
        p_out = _sigmoid(outcome_logit(cfg, appeared, k))
        y = int(rng.random() < p_out)

        pid = f"P{i:07d}"
        for j in range(k):
            # positional: VisitRecord's categorical fields follow CATEGORICAL_FIELDS order
            records.append(
                VisitRecord(
                    pid, j, years[j], age, zip_code, county, facilities[j], years[j],
                    *[lv[x] for lv, x in zip(levels, cats[j])],
                    visit_codes[j], y,
                )
            )
    return records


# ---------------------------------------------------------------------------
# calibration


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


def measure_prevalences(records) -> dict[str, float]:
    """Row-level realized prevalences of a generated cohort, using the same
    cumulative-history subgroup rule the evaluator applies."""
    by_patient: dict[str, list] = {}
    for r in records:
        by_patient.setdefault(r.patient_id, []).append(r)
    total_rows = len(records)
    pos_rows = sum(r.outcome for r in records)
    out = {"overall": pos_rows / total_rows if total_rows else math.nan}
    for g, codes in RISK_GROUPS.items():
        rows = pos = 0
        for visits in by_patient.values():
            visits = sorted(visits, key=lambda r: r.visit_seq)
            seen = False
            for r in visits:
                seen = seen or any(c in codes for c in r.ccs_codes)
                if seen:
                    rows += 1
                    pos += r.outcome
        out[g] = pos / rows if rows else math.nan
    return out
