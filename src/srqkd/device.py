"""Linear-optics comparison device: probe photon, balanced splitter, two counters.

The device interferes the arm mode to be measured with a one-photon-or-less
probe mode on a balanced splitter and counts photons at both outputs.  A
lone click at the probe-side counter is the ``Plus`` outcome, a lone click
at the arm-side counter is ``Minus``, and every other count pattern
(vacuum, double clicks, coincidences) is ``Inconclusive``.

The arm holds at most one photon, so an input splits as |0>|psi0> + |1>|psi1>
(arm first, psi0 and psi1 on the other modes), and each count pattern leaves
the remainder c0 psi0 + c1 psi1 with probability c^dagger G c, G being the
Gram matrix of (psi0, psi1).  The coefficients (c0, c1) depend on the probe
alone.  They come from a transfer table of count-pattern amplitudes for the
four |probe, arm> basis inputs, expanded once at import by the splitter
itself, which also supplies the Hong-Ou-Mandel zero at counts (1, 1).

As a measurement on the arm qubit span {|0>, |1>}, the three outcomes form
the POVM

    E_plus  = 1/2 |pi+><pi+|   with  pi+ = conj(g1)|0> + conj(g0)|1>
    E_minus = 1/2 |pi-><pi-|   with  pi- = -conj(g1)|0> + conj(g0)|1>
    E_inc   = diag(|g0|^2, |g1|^2)

for a probe g0|0> + g1|1>.  Note the swap: the conclusive directions are
the probe coefficients reversed, which is why :func:`probe_for_direction`
hands back the swapped pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Dict, Iterator, List, Tuple

import numpy as np

from .fock import (
    PRUNE_EPS,
    Occupation,
    StateVector,
    TruncationOverflow,
    basis_state,
    _check_mode,
)
from .optics import BeamSplitter, apply_beam_splitter

NORM_TOL = 1e-12
STATE_NORM_TOL = 1e-9


def _check_pair_normalized(c0: complex, c1: complex, what: str) -> Tuple[complex, complex]:
    c0, c1 = complex(c0), complex(c1)
    for z in (c0, c1):
        if not (math.isfinite(z.real) and math.isfinite(z.imag)):
            raise ValueError(f"{what} has a non-finite entry")
    if abs(abs(c0) ** 2 + abs(c1) ** 2 - 1.0) > NORM_TOL:
        raise ValueError(f"{what} is not normalized")
    return c0, c1


@dataclass(frozen=True)
class SuperpositionCoeffs:
    """Normalized qubit direction c0|0> + c1|1>."""

    c0: complex
    c1: complex

    def __post_init__(self):
        c0, c1 = _check_pair_normalized(self.c0, self.c1, "direction")
        object.__setattr__(self, "c0", c0)
        object.__setattr__(self, "c1", c1)


@dataclass(frozen=True)
class ProbeState:
    """Normalized probe g0|0> + g1|1> injected into the splitter's flip port."""

    g0: complex
    g1: complex

    def __post_init__(self):
        g0, g1 = _check_pair_normalized(self.g0, self.g1, "probe")
        object.__setattr__(self, "g0", g0)
        object.__setattr__(self, "g1", g1)


class OutcomeTag(Enum):
    PLUS = "plus"
    MINUS = "minus"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class DeviceOutcome:
    tag: OutcomeTag
    detector_counts: Tuple[int, int]


@dataclass(frozen=True)
class DevicePOVM:
    """2x2 effect matrices on the arm qubit span, ordered (|0>, |1>)."""

    e_plus: np.ndarray
    e_minus: np.ndarray
    e_inconclusive: np.ndarray

    def completeness_deviation(self) -> float:
        total = self.e_plus + self.e_minus + self.e_inconclusive
        return float(np.max(np.abs(total - np.eye(2))))


@dataclass(frozen=True)
class DeviceBranch:
    """One count pattern with its probability and the collapsed remainder."""

    counts: Tuple[int, int]
    probability: float
    remainder: StateVector


def probe_for_direction(direction: SuperpositionCoeffs) -> ProbeState:
    """Probe whose Plus outcome projects exactly onto the given direction.

    The conclusive effect lands on the swapped-and-conjugated probe pair, so
    the probe for direction (c0, c1) is (conj(c1), conj(c0)); the global
    phase is fixed to make g0 real and non-negative (g1 when g0 vanishes).
    """
    g0 = direction.c1.conjugate()
    g1 = direction.c0.conjugate()
    anchor = g0 if abs(g0) > NORM_TOL else g1
    phase = anchor.conjugate() / abs(anchor)
    return ProbeState(g0 * phase, g1 * phase)


def device_povm(probe: ProbeState) -> DevicePOVM:
    """Closed-form three-outcome POVM for a fixed probe."""
    pi_plus = np.array([probe.g1.conjugate(), probe.g0.conjugate()])
    pi_minus = np.array([-probe.g1.conjugate(), probe.g0.conjugate()])
    e_plus = 0.5 * np.outer(pi_plus, pi_plus.conjugate())
    e_minus = 0.5 * np.outer(pi_minus, pi_minus.conjugate())
    e_inc = np.diag([abs(probe.g0) ** 2, abs(probe.g1) ** 2]).astype(complex)
    return DevicePOVM(e_plus, e_minus, e_inc)


def classify_counts(counts: Tuple[int, int]) -> OutcomeTag:
    if counts == (1, 0):
        return OutcomeTag.PLUS
    if counts == (0, 1):
        return OutcomeTag.MINUS
    return OutcomeTag.INCONCLUSIVE


# One row per count pattern, in pattern order: the outcome, the largest
# count at one counter, and the amplitudes from |0,0>, |1,0>, |0,1>, |1,1>.
_MIXED = [
    apply_beam_splitter(basis_state(occ), BeamSplitter(0.5, port_a=0, port_b=1))
    for occ in ((0, 0), (1, 0), (0, 1), (1, 1))
]
_TRANSFER = tuple(
    (DeviceOutcome(classify_counts(p), p), max(p), *(mixed.amplitude(p) for mixed in _MIXED))
    for p in sorted({p for mixed in _MIXED for p in mixed.amplitudes})
)


def _count_rows(probe: ProbeState) -> Iterator[Tuple[DeviceOutcome, int, complex, complex]]:
    """``(outcome, top, c0, c1)`` per count pattern: the arm functional the probe mixes in.

    A pattern maps the arm amplitudes (a0, a1) to c0 a0 + c1 a1.  A
    generator, not a list: every device draw walks it once, and building a
    list per draw costs each draw about half a microsecond more.
    """
    g0, g1 = probe.g0, probe.g1
    for outcome, top, t00, t10, t01, t11 in _TRANSFER:
        yield outcome, top, g0 * t00 + g1 * t10, g0 * t01 + g1 * t11


def _branch_table(state: StateVector, arm: int, probe: ProbeState):
    """Rows ``(outcome, probability, c0, c1)`` of the patterns above 1e-14, and the arm split."""
    _check_mode(state, arm)
    pairs: Dict[Occupation, List[complex]] = {}  # rest -> [psi0 amplitude, psi1 amplitude]
    gram = [0.0, 0.0, 0j]  # <psi0|psi0>, <psi1|psi1>, <psi0|psi1>
    for occ, amp in state.amplitudes.items():
        n = occ[arm]
        if n > 1:
            raise ValueError("arm mode must have at most one photon")
        pair = pairs.setdefault(occ[:arm] + occ[arm + 1 :], [0j, 0j])
        pair[n] = amp
        gram[n] += abs(amp) ** 2
        gram[2] += pair[0].conjugate() * pair[1]  # 0 until both halves are in
    g00, g11, g01 = gram
    if abs(g00 + g11 - 1.0) > STATE_NORM_TOL:
        raise ValueError("input state must be normalized")
    cross = 2.0 * g01
    rows = []
    for outcome, top, c0, c1 in _count_rows(probe):
        prob = abs(c0) ** 2 * g00 + abs(c1) ** 2 * g11 + (c0.conjugate() * c1 * cross).real
        if top > state.n_max and prob > PRUNE_EPS**2:
            raise TruncationOverflow(f"counts {outcome.detector_counts} exceed n_max={state.n_max}")
        if prob > 1e-14:
            rows.append((outcome, prob, c0, c1))
    return rows, pairs


def _remainder(state: StateVector, pairs, c0: complex, c1: complex) -> StateVector:
    """Renormalized c0 psi0 + c1 psi1 over the modes the device left."""
    amps = {rest: c0 * a0 + c1 * a1 for rest, (a0, a1) in pairs.items()}
    norm = math.hypot(*map(abs, amps.values()))
    scaled = {rest: a / norm for rest, a in amps.items()}
    return StateVector._raw(state.mode_count - 1, state.n_max, scaled)


def analyze_device(state: StateVector, arm: int, probe: ProbeState) -> List[DeviceBranch]:
    """Every count pattern the device can produce, with exact probabilities.

    Each branch carries the renormalized state of the untouched modes (the
    arm and probe modes are consumed).  Branches are ordered by count
    pattern so sampling is reproducible.
    """
    rows, pairs = _branch_table(state, arm, probe)
    return [
        DeviceBranch(out.detector_counts, p, _remainder(state, pairs, c0, c1))
        for out, p, c0, c1 in rows
    ]


def measure_device(
    state: StateVector, arm: int, probe: ProbeState, rng: np.random.Generator
) -> Tuple[DeviceOutcome, StateVector]:
    """Sample one run of the device; returns the outcome and the remainder.

    One uniform u picks the first of :func:`analyze_device`'s branches whose
    running probability sum exceeds u (the last branch if none does).  Only
    that branch's remainder is built: the collapsed, renormalized state of
    the modes the device did not consume (original order, arm mode removed).
    """
    rows, pairs = _branch_table(state, arm, probe)
    u = float(rng.random())
    acc = 0.0
    for row in rows:
        acc += row[1]
        if u < acc:
            break
    outcome, _, c0, c1 = row
    return outcome, _remainder(state, pairs, c0, c1)
