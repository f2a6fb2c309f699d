"""Cavity transfer and atom-side oracle tests."""

import math

import numpy as np
import pytest

from srqkd.bell import Convention, Party, bell_terms
from srqkd.cavity import (
    ATOM_MODE,
    FULL_TRANSFER_ANGLE,
    PHOTON_MODE,
    JCParams,
    cavity_bell_terms,
    jc_evolve,
    make_joint_state,
    transfer_shared_state,
)
from srqkd.fock import StateVector, TruncationOverflow, fidelity
from srqkd.optics import make_source_state


def joint(amplitudes):
    return StateVector(4, 2, amplitudes)


def test_ground_vacuum_is_stationary():
    state = joint({(0, 0, 0, 0): 1.0})
    evolved = jc_evolve(state, Party.A, JCParams(1.234))
    assert fidelity(evolved, state) > 1.0 - 1e-12


def test_full_transfer_of_one_photon():
    state = joint({(1, 0, 0, 0): 1.0})
    evolved = jc_evolve(state, Party.A, JCParams(FULL_TRANSFER_ANGLE))
    assert evolved.amplitude((0, 0, 1, 0)) == pytest.approx(-1j, abs=1e-12)
    assert abs(evolved.amplitude((1, 0, 0, 0))) < 1e-12


def test_single_excitation_rotation():
    lt = 0.7312
    state = joint({(0, 1, 0, 0): 1.0})
    evolved = jc_evolve(state, Party.B, JCParams(lt))
    assert evolved.amplitude((0, 1, 0, 0)) == pytest.approx(math.cos(lt), abs=1e-12)
    assert evolved.amplitude((0, 0, 0, 1)) == pytest.approx(-1j * math.sin(lt), abs=1e-12)
    # excited atom rotates back toward the photon
    state = joint({(0, 0, 0, 1): 1.0})
    evolved = jc_evolve(state, Party.B, JCParams(lt))
    assert evolved.amplitude((0, 0, 0, 1)) == pytest.approx(math.cos(lt), abs=1e-12)
    assert evolved.amplitude((0, 1, 0, 0)) == pytest.approx(-1j * math.sin(lt), abs=1e-12)


def test_two_photon_block_rotates_faster():
    lt = 0.4
    state = joint({(2, 0, 0, 0): 1.0})
    evolved = jc_evolve(state, Party.A, JCParams(lt))
    theta = math.sqrt(2.0) * lt
    assert evolved.amplitude((2, 0, 0, 0)) == pytest.approx(math.cos(theta), abs=1e-12)
    assert evolved.amplitude((1, 0, 1, 0)) == pytest.approx(-1j * math.sin(theta), abs=1e-12)


def test_evolution_is_unitary_and_conserves_excitation():
    rng = np.random.default_rng(83)
    for _ in range(100):
        amps = {}
        for occ in ((0, 0, 0, 0), (1, 0, 0, 0), (0, 0, 1, 0), (1, 0, 1, 0), (0, 1, 0, 1)):
            amps[occ] = complex(rng.normal(), rng.normal())
        state = joint(amps).normalized()
        lt = float(rng.uniform(0.0, 2.0 * math.pi))
        evolved = jc_evolve(state, Party.A, JCParams(lt))
        assert evolved.norm_sq() == pytest.approx(1.0, abs=1e-12)
        # photon + atom excitation in cavity A is a conserved block label
        def block_weight(s, k):
            return sum(
                abs(a) ** 2
                for occ, a in s.items()
                if occ[PHOTON_MODE[Party.A]] + occ[ATOM_MODE[Party.A]] == k
            )
        for k in range(4):
            assert block_weight(evolved, k) == pytest.approx(block_weight(state, k), abs=1e-12)


def test_overflow_guard_on_upward_swap():
    # an excited atom next to a full photon mode cannot swap upward
    state = joint({(2, 0, 1, 0): 1.0})
    with pytest.raises(TruncationOverflow):
        jc_evolve(state, Party.A, JCParams(0.3))
    # but a pi rotation of the lower block is representable at zero amplitude
    evolved = jc_evolve(joint({(1, 0, 1, 0): 1.0}), Party.A, JCParams(math.pi / math.sqrt(2.0)))
    assert evolved.norm_sq() == pytest.approx(1.0, abs=1e-12)


def test_shared_state_transfer_is_complete():
    transferred = transfer_shared_state(make_source_state())
    target = joint({(0, 0, 1, 0): 1.0 / math.sqrt(2.0), (0, 0, 0, 1): -1.0 / math.sqrt(2.0)})
    assert fidelity(transferred, target) > 1.0 - 1e-10
    for occ, _ in transferred.items():
        assert occ[PHOTON_MODE[Party.A]] == 0
        assert occ[PHOTON_MODE[Party.B]] == 0


def test_joint_state_layout_checks():
    with pytest.raises(ValueError):
        make_joint_state(StateVector(1, 2, {(0,): 1.0}))
    with pytest.raises(ValueError):
        jc_evolve(StateVector(2, 2, {(0, 0): 1.0}), Party.A, JCParams(0.1))
    with pytest.raises(ValueError):
        JCParams(-0.1)


def test_atom_side_terms_match_photonic_oracle():
    for convention in Convention:
        for alpha in np.linspace(0.1, 0.9, 9):
            beta = math.sqrt(1.0 - alpha * alpha)
            atom_terms = cavity_bell_terms(alpha, beta, convention).as_tuple()
            photon_terms = bell_terms(alpha, beta, convention=convention).as_tuple()
            assert atom_terms == pytest.approx(photon_terms, abs=1e-12)
