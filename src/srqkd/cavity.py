"""Deterministic cavity-QED variant: photon-to-atom transfer plus Ramsey readout.

Each arm's photon mode feeds a cavity holding one two-level atom on
resonance.  The interaction swaps excitation between photon and atom; at
interaction angle lambda*t = pi/2 a one-photon arm state transfers
completely onto the atom (|g,1> -> -i |e,0>), so the shared two-arm state
becomes atom-atom entanglement and the subsequent atom detection is
deterministic - there is no inconclusive outcome.

Mode layout of the joint state: (photon A, photon B, atom A, atom B),
with atom occupation 0 = ground, 1 = excited.

Phase convention: the transfer tags each excitation with -i.  The Ramsey
readout is phased to absorb that factor: :func:`_measurement_image` maps
"measure direction (c0, c1)" to the atom direction c0|g> - i c1|e>, the
transfer image of the photonic direction.  Every expectation on the
transferred shared state is insensitive to this choice (the -i is global
there); for product inputs it keeps the atom statistics exactly equal to
the photonic ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from .bell import BellTerms, Convention, Party, superposition_direction
from .device import SuperpositionCoeffs
from .fock import (
    Occupation,
    PRUNE_EPS,
    StateVector,
    TruncationOverflow,
    project_mode_number,
    project_mode_qubit,
    tensor,
)
from .optics import make_source_state

PHOTON_MODE = {Party.A: 0, Party.B: 1}
ATOM_MODE = {Party.A: 2, Party.B: 3}

FULL_TRANSFER_ANGLE = math.pi / 2


@dataclass(frozen=True)
class JCParams:
    """Dimensionless interaction angle lambda * t of the resonant coupling."""

    lambda_t: float

    def __post_init__(self):
        if not (math.isfinite(self.lambda_t) and self.lambda_t >= 0.0):
            raise ValueError("lambda_t must be a finite non-negative real")


def make_joint_state(photon_pair: StateVector) -> StateVector:
    """Append both atoms in the ground state to a two-mode photon state."""
    if photon_pair.mode_count != 2:
        raise ValueError("expected a two-mode photon state")
    atoms = StateVector(2, photon_pair.n_max, {(0, 0): 1.0})
    return tensor(photon_pair, atoms)


def jc_evolve(joint: StateVector, cavity: Party, params: JCParams) -> StateVector:
    """Exact resonant evolution of one cavity for an angle lambda*t.

    Each excitation-conserving pair {|g, n+1>, |e, n>} rotates by
    sqrt(n+1) * lambda_t:

        |g, n+1> -> cos(theta)|g, n+1> - i sin(theta)|e, n>
        |e, n>   -> cos(theta)|e, n>   - i sin(theta)|g, n+1>

    and |g, 0> is stationary.
    """
    if joint.mode_count != 4:
        raise ValueError("expected the four-mode joint layout")
    pm, am = PHOTON_MODE[cavity], ATOM_MODE[cavity]
    lt = params.lambda_t
    out: Dict[Occupation, complex] = {}

    def accumulate(occ: Occupation, value: complex) -> None:
        out[occ] = out.get(occ, 0j) + value

    for occ, amp in joint.items():
        n_ph, n_at = occ[pm], occ[am]
        if n_at > 1:
            raise ValueError("atom mode occupation above 1")
        if n_at == 0:
            if n_ph == 0:
                accumulate(occ, amp)
                continue
            theta = math.sqrt(n_ph) * lt
            accumulate(occ, amp * math.cos(theta))
            partner = list(occ)
            partner[pm] = n_ph - 1
            partner[am] = 1
            accumulate(tuple(partner), -1j * math.sin(theta) * amp)
        else:
            theta = math.sqrt(n_ph + 1) * lt
            sin_part = -1j * math.sin(theta) * amp
            if n_ph + 1 > joint.n_max and abs(sin_part) > PRUNE_EPS:
                raise TruncationOverflow(
                    f"cavity swap would populate photon level {n_ph + 1} > n_max={joint.n_max}"
                )
            accumulate(occ, amp * math.cos(theta))
            partner = list(occ)
            partner[pm] = n_ph + 1
            partner[am] = 0
            accumulate(tuple(partner), sin_part)
    return StateVector._raw(joint.mode_count, joint.n_max, out)


def transfer_shared_state(photon_pair: StateVector) -> StateVector:
    """Run both cavities at the full-transfer angle pi/2."""
    joint = make_joint_state(photon_pair)
    half = JCParams(FULL_TRANSFER_ANGLE)
    return jc_evolve(jc_evolve(joint, Party.A, half), Party.B, half)


def _measurement_image(direction: SuperpositionCoeffs) -> Tuple[complex, complex]:
    return direction.c0, -1j * direction.c1


def _project_atom_setting(
    joint: StateVector, party: Party, direction: Optional[SuperpositionCoeffs] = None
) -> StateVector:
    am = ATOM_MODE[party]
    if direction is None:
        return project_mode_number(joint, am, 1)
    return project_mode_qubit(joint, am, *_measurement_image(direction))


def cavity_bell_terms(
    alpha: float, beta: float, convention: Convention = Convention.OPERATIONAL
) -> BellTerms:
    """Six test-term expectations read off the transferred atom pair.

    Exact atom-side counterpart of the photonic oracle: each term is the
    squared norm of the corresponding projector chain (atom excitation for
    the number settings, the transfer image of the party's direction for
    the superposition settings) acting on the pi/2 transferred shared
    state.
    """
    joint = transfer_shared_state(make_source_state())
    dir_a = superposition_direction(Party.A, alpha, beta, convention)
    dir_b = superposition_direction(Party.B, alpha, beta, convention)

    def term(dir_or_none_a, dir_or_none_b) -> float:
        step = _project_atom_setting(joint, Party.A, dir_or_none_a)
        step = _project_atom_setting(step, Party.B, dir_or_none_b)
        return step.norm_sq()

    return BellTerms(
        sup_a=_project_atom_setting(joint, Party.A, dir_a).norm_sq(),
        sup_b=_project_atom_setting(joint, Party.B, dir_b).norm_sq(),
        sup_sup=term(dir_a, dir_b),
        sup_num=term(dir_a, None),
        num_sup=term(None, dir_b),
        num_num=term(None, None),
    )
