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

``generate`` returns a ``schema.Cohort``: its draws go straight into the
columns (level indices, code slots filled from the first), with no
per-visit record objects.  ``measure_prevalences`` reads those columns.

``default_config`` ships the frozen result of calibrating the base
log-odds and the four groups' boosts against the published row-level
prevalence targets (``DEFAULT_TARGETS``); the calibration itself, a
bisection against a simulated cohort, lives with its tests in
``tests/calibration.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .schema import (
    CATEGORICAL_FIELDS,
    CCS_SLOT,
    MAX_CODES_PER_VISIT,
    CategoricalSpec,
    Cohort,
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
    """Config calibrated (by ``tests/calibration.py``) to the published row-level
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


def generate(cfg: SynthConfig, spec: CategoricalSpec | None = None) -> Cohort:
    """A cohort of ``cfg.n_patients`` patients, their visits in patient
    order and each patient's in visit_seq order.

    Deterministic given cfg.seed; patients use independent sub-streams
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
    n_fields = len(CATEGORICAL_FIELDS)
    widths = [spec.width(name) for name in CATEGORICAL_FIELDS]
    # per-value (low, high) bounds of steps 2 and 5, by visit count (and
    # number of background codes); built once per distinct key
    head_bounds: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    tail_bounds: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}
    patients: list[tuple[int, int, int, int, int]] = []  # k, age, zip, county, outcome
    years: list[int] = []  # per visit
    visit_draws: list[list[int]] = []  # per visit: 8 level indices, then the facility id
    codes: list[int] = []  # every visit's codes, visit after visit
    n_visit_codes: list[int] = []
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
        years += sorted(head[3:].tolist())
        carried = boosted[rng.random(len(boosted)) < qvec].tolist()
        n_bg = (1 + rng.binomial(6, cfg.extra_code_prob, size=k)).tolist()
        n_codes = sum(n_bg)
        bounds = tail_bounds.get((k, n_codes))
        if bounds is None:
            lo = np.zeros(n_codes + (n_fields + 1) * k, dtype=np.int64)
            lo[n_codes + n_fields * k :] = 1
            hi = np.concatenate(
                [np.full(n_codes, len(background))]
                + [np.full(k, w) for w in widths]
                + [np.full(k, 401)]
            )
            bounds = tail_bounds[(k, n_codes)] = (lo, hi)
        tail = rng.integers(*bounds)
        bg_codes = background[tail[:n_codes]].tolist()
        visit_draws += tail[n_codes:].reshape(n_fields + 1, k).T.tolist()

        if carried:
            recur = (rng.random((k, len(carried))) < cfg.repeat_prob).tolist()
        appeared: set[int] = set()
        pos = 0
        for j in range(k):
            visit_codes = [c for c, r in zip(carried, recur[j]) if r] if carried else []
            appeared.update(visit_codes)
            visit_codes += bg_codes[pos : pos + n_bg[j]]
            pos += n_bg[j]
            codes += visit_codes[:MAX_CODES_PER_VISIT]
            n_visit_codes.append(min(len(visit_codes), MAX_CODES_PER_VISIT))
        p_out = _sigmoid(outcome_logit(cfg, appeared, k))
        y = int(rng.random() < p_out)
        patients.append((k, *head[:3].tolist(), y))

    per_patient = np.array(patients, dtype=np.int64).reshape(-1, 5)
    ks = per_patient[:, 0]
    age, zip_code, county, outcome = np.repeat(per_patient[:, 1:], ks, axis=0).T
    draws = np.array(visit_draws, dtype=np.int64).reshape(-1, n_fields + 1)
    year = np.array(years, dtype=np.int64)
    present = np.arange(MAX_CODES_PER_VISIT) < np.array(n_visit_codes, dtype=np.int64)[:, None]
    ccs = np.zeros(present.shape, dtype=np.int64)
    ccs[present] = codes  # row-major: each visit's codes fill its first slots
    pids = np.array([f"P{i:07d}" for i in range(cfg.n_patients)], dtype=object)
    return Cohort(
        spec=spec,
        patient_id=np.repeat(pids, ks),
        visit_seq=np.arange(len(year)) - np.repeat(np.cumsum(ks) - ks, ks),
        numeric=np.column_stack([year, age, zip_code, county, draws[:, n_fields], year]),
        categorical=draws[:, :n_fields],
        ccs=ccs,
        ccs_present=present,
        outcome=outcome,
    )


def measure_prevalences(c: Cohort) -> dict[str, float]:
    """Row-level realized prevalences of a generated cohort, using the same
    cumulative-history subgroup rule the evaluator applies."""
    out = {"overall": float(c.outcome.mean()) if len(c) else math.nan}
    hits = np.column_stack(
        [(np.isin(c.ccs, codes) & c.ccs_present).any(axis=1) for codes in RISK_GROUPS.values()]
    ).astype(np.int64)
    # a row is in a group once its patient's history so far has a group code
    c.accumulate(hits)
    for g, rows in zip(RISK_GROUPS, (hits > 0).T):
        out[g] = float(c.outcome[rows].mean()) if rows.any() else math.nan
    return out
