"""Projector algebra for the Peres-style separability test.

Works on the shared two-mode state (|1,0> - |0,1|)/sqrt(2).  Each party
measures either the one-photon number projector or a rank-1 projector onto
a superposition direction in its arm's {|0>, |1>} span.  The signed
six-term combination

    S = <QA'> + <QB'> - <QA' QB'> - <QA' QB> - <QA QB'> + <QA QB>

is non-negative for every mixture of product states, while the shared
state drives it to alpha^2 (1 - 2 beta^2), which is negative whenever
beta^2 > 1/2 (and alpha != 0).

Each term applies B's projector (if any), then A's, then takes the inner
product with the state.  The terms share B's projections: the state is
projected once onto B's direction and once onto B's one-photon level, and
A's projectors act on those two vectors.

Direction conventions
---------------------
The *operational* convention is the default everywhere: for parameters
(alpha, beta), party A projects onto (beta, alpha) and party B onto
(beta, -alpha).  These are the directions the comparison device actually
selects when its probe is loaded with (alpha, beta) resp. (alpha, -beta),
and the only reading under which the closed form above is reproduced.
The *literal* convention keeps the unswapped pairs and is available for
side-by-side reporting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import List, Optional, Tuple

from .device import NORM_TOL, SuperpositionCoeffs
from .fock import (
    StateVector,
    add,
    inner_product,
    project_mode_number,
    project_mode_qubit,
    scale,
)
from .optics import make_source_state

S_AGREEMENT_TOL = 1e-12
BOUNDARY_TOL = 1e-12
ENSEMBLE_PROB_EPS = 1e-14


class Party(Enum):
    A = "A"
    B = "B"


class SettingTag(Enum):
    NUMBER = "number"
    SUPERPOSITION = "superposition"


class Convention(Enum):
    OPERATIONAL = "operational"
    LITERAL = "literal"


class InequalityVerdict(Enum):
    SATISFIED = "Satisfied"
    VIOLATED_BELOW = "ViolatedBelow"
    VIOLATED_ABOVE = "ViolatedAbove"


@dataclass(frozen=True)
class BellTerms:
    """The six expectation values entering S, in assembly order."""

    sup_a: float
    sup_b: float
    sup_sup: float
    sup_num: float
    num_sup: float
    num_num: float

    def as_tuple(self) -> Tuple[float, float, float, float, float, float]:
        return (self.sup_a, self.sup_b, self.sup_sup, self.sup_num, self.num_sup, self.num_num)


@dataclass(frozen=True)
class SValue:
    """Closed-form S together with the projector-oracle assembly of it."""

    s: float
    oracle: float


def _fix_phase(c0: complex, c1: complex) -> Tuple[complex, complex]:
    anchor = c0 if abs(c0) > NORM_TOL else c1
    phase = anchor.conjugate() / abs(anchor)
    return c0 * phase, c1 * phase


class FieldError(ValueError):
    """Invalid parameter value, carrying the name of the offending field."""

    def __init__(self, field: str, message: str):
        super().__init__(message)
        self.field = field


def _check_direction_pair(alpha: float, beta: float) -> None:
    # Same tolerance as SuperpositionCoeffs, so a pair that passes here
    # yields a valid direction; "not <=" also rejects NaN.
    if not abs(alpha * alpha + beta * beta - 1.0) <= NORM_TOL:
        raise FieldError("alpha", "alpha^2 + beta^2 must equal 1")


def superposition_direction(
    party: Party, alpha: float, beta: float, convention: Convention = Convention.OPERATIONAL
) -> SuperpositionCoeffs:
    """Measurement direction for the given party and convention.

    Party B carries the sign flip of the shared-state test settings: its
    direction is the partner of alpha|0> - beta|1>.
    """
    _check_direction_pair(alpha, beta)
    if convention is Convention.OPERATIONAL:
        pair = (beta, alpha) if party is Party.A else (beta, -alpha)
    else:
        pair = (alpha, beta) if party is Party.A else (alpha, -beta)
    return SuperpositionCoeffs(*_fix_phase(*pair))


def _expectation(state: StateVector, projected: StateVector) -> float:
    """<state|projected>, which is real for a projector chain."""
    val = inner_product(state, projected)
    if abs(val.imag) > 1e-12:
        raise ArithmeticError(f"projector expectation has imaginary part {val.imag}")
    return val.real


def _terms(state: StateVector, d_a: SuperpositionCoeffs, d_b: SuperpositionCoeffs) -> BellTerms:
    """The six terms of one state at A's direction d_a and B's direction d_b."""
    b_sup = project_mode_qubit(state, 1, d_b.c0, d_b.c1)
    b_num = project_mode_number(state, 1, 1)
    return BellTerms(
        sup_a=_expectation(state, project_mode_qubit(state, 0, d_a.c0, d_a.c1)),
        sup_b=_expectation(state, b_sup),
        sup_sup=_expectation(state, project_mode_qubit(b_sup, 0, d_a.c0, d_a.c1)),
        sup_num=_expectation(state, project_mode_qubit(b_num, 0, d_a.c0, d_a.c1)),
        num_sup=_expectation(state, project_mode_number(b_sup, 0, 1)),
        num_num=_expectation(state, project_mode_number(b_num, 0, 1)),
    )


def bell_terms(
    alpha: float,
    beta: float,
    state: Optional[StateVector] = None,
    convention: Convention = Convention.OPERATIONAL,
) -> BellTerms:
    """All six test-term expectations at the given settings."""
    if state is None:
        state = make_source_state()
    return _terms(
        state,
        superposition_direction(Party.A, alpha, beta, convention),
        superposition_direction(Party.B, alpha, beta, convention),
    )


def assemble_s(terms: BellTerms) -> float:
    return (
        terms.sup_a
        + terms.sup_b
        - terms.sup_sup
        - terms.sup_num
        - terms.num_sup
        + terms.num_num
    )


def s_closed_form(
    alpha: float, beta: float, convention: Convention = Convention.OPERATIONAL
) -> float:
    if convention is Convention.OPERATIONAL:
        return abs(alpha) ** 2 * (1.0 - 2.0 * abs(beta) ** 2)
    return abs(beta) ** 2 * (1.0 - 2.0 * abs(alpha) ** 2)


def s_value(
    alpha: float, beta: float, convention: Convention = Convention.OPERATIONAL
) -> SValue:
    """Closed-form S cross-checked against the projector oracle."""
    _check_direction_pair(alpha, beta)
    closed = s_closed_form(alpha, beta, convention)
    oracle = assemble_s(bell_terms(alpha, beta, convention=convention))
    if abs(closed - oracle) > S_AGREEMENT_TOL:
        raise ArithmeticError(
            f"closed form {closed} and oracle {oracle} disagree beyond {S_AGREEMENT_TOL}"
        )
    return SValue(s=closed, oracle=oracle)


def check_inequality(s: float) -> InequalityVerdict:
    """Classify S against the [0, 1] product-state band (1e-12 boundary slack)."""
    if s < -BOUNDARY_TOL:
        return InequalityVerdict.VIOLATED_BELOW
    if s > 1.0 + BOUNDARY_TOL:
        return InequalityVerdict.VIOLATED_ABOVE
    return InequalityVerdict.SATISFIED


class EveTargets(Enum):
    NONE = "none"
    ARM_A = "arm_A"
    ARM_B = "arm_B"
    BOTH = "both"


@dataclass(frozen=True)
class EveAtom:
    """One weighted intercept choice: a direction per targeted arm."""

    weight: float
    e_a: SuperpositionCoeffs
    e_b: SuperpositionCoeffs

    def __post_init__(self):
        if not (math.isfinite(self.weight) and self.weight >= 0.0):
            raise ValueError("atom weight must be a finite non-negative real")


@dataclass(frozen=True)
class EveStrategy:
    targets: EveTargets
    atoms: Tuple[EveAtom, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "atoms", tuple(self.atoms))
        if self.targets is not EveTargets.NONE:
            if not self.atoms:
                raise ValueError("targeted strategy needs at least one atom")
            total = sum(a.weight for a in self.atoms)
            if abs(total - 1.0) > NORM_TOL:
                raise ValueError(f"atom weights sum to {total}, expected 1")


IDENTITY_STRATEGY = EveStrategy(EveTargets.NONE)


@dataclass(frozen=True)
class Ensemble:
    """Probability-weighted list of normalized post-channel states."""

    members: Tuple[Tuple[float, StateVector], ...]

    def __post_init__(self):
        object.__setattr__(self, "members", tuple(self.members))
        total = sum(p for p, _ in self.members)
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"ensemble probabilities sum to {total}")


def orthogonal_direction(u: SuperpositionCoeffs) -> SuperpositionCoeffs:
    return SuperpositionCoeffs(u.c1.conjugate(), -u.c0.conjugate())


def _intercept_mode(
    branches: List[Tuple[float, StateVector]], mode: int, e: SuperpositionCoeffs
) -> List[Tuple[float, StateVector]]:
    out: List[Tuple[float, StateVector]] = []
    for prob, state in branches:
        kept = project_mode_qubit(state, mode, e.c0, e.c1)
        complement = add(state, scale(kept, -1.0))
        for branch in (kept, complement):
            p = branch.norm_sq()
            if p > ENSEMBLE_PROB_EPS:
                out.append((prob * p, scale(branch, 1.0 / math.sqrt(p))))
    return out


def eve_channel(strategy: EveStrategy, state: StateVector) -> Ensemble:
    """Intercept-resend channel: project-and-forward on each targeted arm.

    Each atom measures {|e><e|, 1 - |e><e|} on the arm's {|0>, |1>} span
    (amplitudes outside that span land in the complement outcome) and
    resends the collapse.  Members with vanishing probability are dropped.
    """
    if strategy.targets is EveTargets.NONE:
        return Ensemble(((1.0, state),))
    members: List[Tuple[float, StateVector]] = []
    for atom in strategy.atoms:
        if atom.weight <= ENSEMBLE_PROB_EPS:
            continue
        branches = [(1.0, state)]
        if strategy.targets in (EveTargets.ARM_A, EveTargets.BOTH):
            branches = _intercept_mode(branches, 0, atom.e_a)
        if strategy.targets in (EveTargets.ARM_B, EveTargets.BOTH):
            branches = _intercept_mode(branches, 1, atom.e_b)
        members.extend((atom.weight * p, s) for p, s in branches)
    return Ensemble(tuple(members))


def s_with_eve(
    strategy: EveStrategy,
    alpha: float,
    beta: float,
    convention: Convention = Convention.OPERATIONAL,
) -> float:
    """Exact S seen by the testing parties after the intercept channel."""
    ensemble = eve_channel(strategy, make_source_state())
    d_a = superposition_direction(Party.A, alpha, beta, convention)
    d_b = superposition_direction(Party.B, alpha, beta, convention)
    total = 0.0
    for prob, member in ensemble.members:
        total += prob * assemble_s(_terms(member, d_a, d_b))
    return total
