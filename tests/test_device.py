"""Comparison-device tests: POVM algebra, sampling, and collapse."""

import math

import numpy as np
import pytest

from srqkd import device
from srqkd.bell import EveAtom, EveStrategy, EveTargets, eve_channel
from srqkd.device import (
    DeviceOutcome,
    OutcomeTag,
    ProbeState,
    SuperpositionCoeffs,
    analyze_device,
    classify_counts,
    device_povm,
    measure_device,
    probe_for_direction,
)
from srqkd.fock import StateVector, TruncationOverflow, drop_modes, fidelity, tensor
from srqkd.optics import BeamSplitter, apply_beam_splitter, make_source_state
from srqkd.rng import make_generator

SQRT3_2 = math.sqrt(3.0) / 2.0


def random_direction(rng):
    z = rng.normal(size=2) + 1j * rng.normal(size=2)
    z = z / np.linalg.norm(z)
    return SuperpositionCoeffs(complex(z[0]), complex(z[1]))


def arm_state(c0, c1):
    return StateVector(1, 2, {(0,): c0, (1,): c1})


def povm_vector(probe):
    plus = np.array([np.conj(probe.g1), np.conj(probe.g0)])
    minus = np.array([-np.conj(probe.g1), np.conj(probe.g0)])
    return plus, minus


def test_direction_and_probe_validation():
    with pytest.raises(ValueError):
        SuperpositionCoeffs(1.0, 1.0)
    with pytest.raises(ValueError):
        ProbeState(0.5, 0.5)
    with pytest.raises(ValueError):
        ProbeState(float("inf"), 0.0)


def test_probe_for_direction_worked_cases():
    p = probe_for_direction(SuperpositionCoeffs(1.0, 0.0))
    assert (p.g0, p.g1) == (0j, 1 + 0j)
    p = probe_for_direction(SuperpositionCoeffs(0.0, 1.0))
    assert (p.g0, p.g1) == (1 + 0j, 0j)
    p = probe_for_direction(SuperpositionCoeffs(0.5, SQRT3_2))
    assert p.g0 == pytest.approx(SQRT3_2)
    assert p.g1 == pytest.approx(0.5)
    # the phase fix keeps the leading component real and non-negative
    p = probe_for_direction(SuperpositionCoeffs(0.0, 1j))
    assert p.g0 == pytest.approx(1.0)
    assert p.g1 == pytest.approx(0.0)


def test_povm_frozen_matrices():
    povm = device_povm(ProbeState(0.0, 1.0))
    assert np.allclose(povm.e_plus, 0.5 * np.diag([1.0, 0.0]), atol=1e-15)
    assert np.allclose(povm.e_minus, 0.5 * np.diag([1.0, 0.0]), atol=1e-15)
    assert np.allclose(povm.e_inconclusive, np.diag([0.0, 1.0]), atol=1e-15)

    povm = device_povm(ProbeState(1.0, 0.0))
    assert np.allclose(povm.e_plus, 0.5 * np.diag([0.0, 1.0]), atol=1e-15)
    assert np.allclose(povm.e_inconclusive, np.diag([1.0, 0.0]), atol=1e-15)


def test_povm_completeness_and_weight():
    rng = np.random.default_rng(31)
    for _ in range(50):
        d = random_direction(rng)
        povm = device_povm(ProbeState(d.c0, d.c1))
        assert povm.completeness_deviation() < 1e-12
        assert np.trace(povm.e_plus).real == pytest.approx(0.5, abs=1e-12)
        assert np.trace(povm.e_minus).real == pytest.approx(0.5, abs=1e-12)
        # every effect is positive semidefinite
        for effect in (povm.e_plus, povm.e_minus, povm.e_inconclusive):
            eigs = np.linalg.eigvalsh(effect)
            assert eigs.min() > -1e-12


def test_branch_probabilities_match_povm():
    """The splitter simulation and the closed-form POVM must agree exactly."""
    rng = np.random.default_rng(37)
    for _ in range(40):
        direction = random_direction(rng)
        probe_dir = random_direction(rng)
        probe = ProbeState(probe_dir.c0, probe_dir.c1)
        state = arm_state(direction.c0, direction.c1)
        branches = {b.counts: b.probability for b in analyze_device(state, 0, probe)}
        povm = device_povm(probe)
        v = np.array([direction.c0, direction.c1])
        p_plus = float(np.real(v.conj() @ povm.e_plus @ v))
        p_minus = float(np.real(v.conj() @ povm.e_minus @ v))
        assert branches.get((1, 0), 0.0) == pytest.approx(p_plus, abs=1e-12)
        assert branches.get((0, 1), 0.0) == pytest.approx(p_minus, abs=1e-12)
        assert sum(branches.values()) == pytest.approx(1.0, abs=1e-12)
        # conclusive outcomes never exceed the post-selection weight
        assert p_plus <= 0.5 + 1e-12
        assert p_minus <= 0.5 + 1e-12


def test_matched_probe_projects_onto_direction():
    rng = np.random.default_rng(41)
    for _ in range(25):
        direction = random_direction(rng)
        probe = probe_for_direction(direction)
        hit = arm_state(direction.c0, direction.c1)
        branches = {b.counts: b.probability for b in analyze_device(hit, 0, probe)}
        assert branches[(1, 0)] == pytest.approx(0.5, abs=1e-12)
        miss = arm_state(-np.conj(direction.c1), np.conj(direction.c0))
        branches = {b.counts: b.probability for b in analyze_device(miss, 0, probe)}
        assert branches.get((1, 0), 0.0) == pytest.approx(0.0, abs=1e-12)


def test_equal_coefficient_probe_success_rate():
    # probe equal to the input coefficients: success probability 2|ab|^2,
    # which peaks at 1/2 for the balanced pair
    rng = np.random.default_rng(43)
    for _ in range(25):
        a = math.sin(rng.uniform(0.0, math.pi / 2.0))
        b = math.sqrt(1.0 - a * a)
        branches = {
            br.counts: br.probability
            for br in analyze_device(arm_state(a, b), 0, ProbeState(a, b))
        }
        assert branches.get((1, 0), 0.0) == pytest.approx(2.0 * (a * b) ** 2, abs=1e-12)
    inv = 1.0 / math.sqrt(2.0)
    branches = {
        br.counts: br.probability
        for br in analyze_device(arm_state(inv, inv), 0, ProbeState(inv, inv))
    }
    assert branches[(1, 0)] == pytest.approx(0.5, abs=1e-12)


def test_entangled_collapse_worked_case():
    """Plus on one arm of the shared state steers the other arm."""
    probe = ProbeState(0.5, SQRT3_2)
    branches = {b.counts: b for b in analyze_device(make_source_state(), 0, probe)}
    plus = branches[(1, 0)]
    assert plus.probability == pytest.approx(0.25, abs=1e-12)
    steered = StateVector(1, 2, {(0,): 0.5, (1,): -SQRT3_2})
    assert fidelity(plus.remainder, steered) > 1.0 - 1e-12
    minus = branches[(0, 1)]
    assert minus.probability == pytest.approx(0.25, abs=1e-12)


def test_collapse_matches_independent_projection():
    """Conclusive remainders equal the bra-contraction computed by hand."""
    rng = np.random.default_rng(47)
    for _ in range(30):
        psi = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        psi = psi / np.linalg.norm(psi)
        state = StateVector(
            2, 2, {(i, j): complex(psi[i, j]) for i in range(2) for j in range(2)}
        )
        probe_dir = random_direction(rng)
        probe = ProbeState(probe_dir.c0, probe_dir.c1)
        pi_plus, pi_minus = povm_vector(probe)
        by_counts = {b.counts: b for b in analyze_device(state, 0, probe)}
        for counts, pi in (((1, 0), pi_plus), ((0, 1), pi_minus)):
            expect = pi.conj() @ psi
            weight = float(np.linalg.norm(expect))
            if weight < 1e-7:
                continue
            oracle = StateVector(1, 2, {(0,): complex(expect[0]), (1,): complex(expect[1])})
            assert fidelity(by_counts[counts].remainder, oracle) > 1.0 - 1e-10


def test_measure_device_sampling_statistics():
    probe = ProbeState(0.5, SQRT3_2)
    rng = make_generator(123, 1)
    tallies = {OutcomeTag.PLUS: 0, OutcomeTag.MINUS: 0, OutcomeTag.INCONCLUSIVE: 0}
    draws = 4000
    for _ in range(draws):
        outcome, _ = measure_device(make_source_state(), 0, probe, rng)
        tallies[outcome.tag] += 1
    # Plus and Minus branches both sit at 1/4
    sigma = math.sqrt(0.25 * 0.75 / draws)
    assert abs(tallies[OutcomeTag.PLUS] / draws - 0.25) < 5 * sigma
    assert abs(tallies[OutcomeTag.MINUS] / draws - 0.25) < 5 * sigma


def test_measure_device_is_deterministic_per_stream():
    probe = ProbeState(0.5, SQRT3_2)
    a = [measure_device(make_source_state(), 0, probe, make_generator(9, i))[0] for i in range(20)]
    b = [measure_device(make_source_state(), 0, probe, make_generator(9, i))[0] for i in range(20)]
    assert a == b


def test_device_input_validation():
    probe = ProbeState(1.0, 0.0)
    # a valid draw with the same probe first; every invalid input must still raise
    measure_device(make_source_state(), 0, probe, make_generator(4, 0))
    rng = make_generator(4, 1)
    invalid = [
        (StateVector(1, 2, {(2,): 1.0}), 0),
        (StateVector(1, 2, {(0,): 0.5}), 0),
        (make_source_state(), 5),
    ]
    for state, arm in invalid:
        with pytest.raises(ValueError):
            analyze_device(state, arm, probe)
        for _ in range(3):
            with pytest.raises(ValueError):
                measure_device(state, arm, probe, rng)


def reference_draw(state, arm, probe, rng):
    """The reference draw: one uniform walked over analyze_device's branches."""
    branches = analyze_device(state, arm, probe)
    u = float(rng.random())
    acc = 0.0
    for branch in branches:
        acc += branch.probability
        if u < acc:
            return branch
    return branches[-1]


def test_measure_device_matches_analyze_walk(monkeypatch):
    splitter_calls = []

    def counted(*args):
        splitter_calls.append(args)
        return apply_beam_splitter(*args)

    monkeypatch.setattr(device, "apply_beam_splitter", counted)
    pairs = [
        (make_source_state, 0, ProbeState(0.5, SQRT3_2)),
        (make_source_state, 0, ProbeState(0.6, 0.8j)),
        (make_source_state, 1, ProbeState(0.5, SQRT3_2)),
        (lambda: arm_state(0.6, 0.8), 0, ProbeState(1 / math.sqrt(2), 1 / math.sqrt(2))),
    ]
    gen, twin = make_generator(41, 3), make_generator(41, 3)
    for i in range(300):
        make_state, arm, probe = pairs[(i * 7) % len(pairs)]
        outcome, remainder = measure_device(make_state(), arm, probe, gen)
        expected = reference_draw(make_state(), arm, probe, twin)
        assert outcome == DeviceOutcome(classify_counts(expected.counts), expected.counts)
        assert (remainder.mode_count, remainder.n_max) == (
            expected.remainder.mode_count,
            expected.remainder.n_max,
        )
        assert remainder.amplitudes == expected.remainder.amplitudes
    # the splitter is expanded once at import, never per draw
    assert splitter_calls == []


def fock_branches(state, arm, probe):
    """Reference route: append the probe, expand the sparse splitter, group by counts."""
    probe_mode = state.mode_count
    work = tensor(state, StateVector(1, state.n_max, {(0,): probe.g0, (1,): probe.g1}))
    mixed = apply_beam_splitter(work, BeamSplitter(0.5, port_a=probe_mode, port_b=arm))
    by_pattern = {}
    for occ, amp in mixed.items():
        by_pattern.setdefault((occ[probe_mode], occ[arm]), {})[occ] = amp
    branches = []
    for pattern in sorted(by_pattern):
        sub = StateVector(mixed.mode_count, mixed.n_max, by_pattern[pattern])
        prob = sub.norm_sq()
        if prob > 1e-14:
            branches.append((pattern, prob, drop_modes(sub, (arm, probe_mode)).normalized()))
    return branches


def assert_matches_fock(state, arm, probe):
    branches = analyze_device(state, arm, probe)
    oracle = fock_branches(state, arm, probe)
    assert [b.counts for b in branches] == [pattern for pattern, _, _ in oracle]
    for branch, (_, prob, remainder) in zip(branches, oracle):
        assert branch.probability == pytest.approx(prob, abs=1e-12)
        assert (branch.remainder.mode_count, branch.remainder.n_max) == (
            remainder.mode_count,
            remainder.n_max,
        )
        assert fidelity(branch.remainder, remainder) >= 1.0 - 1e-12


def random_probe(rng):
    direction = random_direction(rng)
    return ProbeState(direction.c0, direction.c1)


def test_branch_table_matches_fock_oracle():
    rng = np.random.default_rng(53)
    # probes with g0 = 0 and with g1 = 0, then random complex ones
    edge_probes = [
        ProbeState(0.0, 1.0), ProbeState(0.0, 1j), ProbeState(1.0, 0.0), ProbeState(-1j, 0.0)
    ]
    probes = edge_probes + [random_probe(rng) for _ in range(4)]
    for probe in probes:
        for arm in (0, 1):
            assert_matches_fock(make_source_state(), arm, probe)
    for _ in range(50):
        d = random_direction(rng)
        for probe in [random_probe(rng)] + edge_probes:
            assert_matches_fock(arm_state(d.c0, d.c1), 0, probe)

    # arm in the middle, a spectator mode up to occupation 2, complex amplitudes
    occs = [(s, a, t) for s in range(3) for a in range(2) for t in range(2)]
    z = rng.normal(size=len(occs)) + 1j * rng.normal(size=len(occs))
    z /= np.linalg.norm(z)
    spectator = StateVector(3, 2, {occ: complex(amp) for occ, amp in zip(occs, z)})
    for probe in probes:
        assert_matches_fock(spectator, 1, probe)

    atoms = (
        EveAtom(0.6, SuperpositionCoeffs(0.6, 0.8), SuperpositionCoeffs(0.0, 1.0)),
        EveAtom(0.4, SuperpositionCoeffs(1.0, 0.0), SuperpositionCoeffs(0.8, 0.6j)),
    )
    ensemble = eve_channel(EveStrategy(EveTargets.BOTH, atoms), make_source_state())
    assert len(ensemble.members) > 2
    for _, member in ensemble.members:
        for arm in (0, 1):
            for probe in probes:
                assert_matches_fock(member, arm, probe)


def test_truncation_overflow_is_preserved():
    photon = StateVector(1, 1, {(1,): 1.0})
    two_photon_probe = ProbeState(0.0, 1.0)
    with pytest.raises(TruncationOverflow):
        fock_branches(photon, 0, two_photon_probe)
    with pytest.raises(TruncationOverflow):
        analyze_device(photon, 0, two_photon_probe)
    with pytest.raises(TruncationOverflow):
        measure_device(photon, 0, two_photon_probe, make_generator(8, 0))
    # no two-photon pattern when the probe or the arm has no one-photon part
    vacuum = StateVector(1, 1, {(0,): 1.0})
    for state, probe in ((photon, ProbeState(1.0, 0.0)), (vacuum, two_photon_probe)):
        assert_matches_fock(state, 0, probe)
        outcome, remainder = measure_device(state, 0, probe, make_generator(8, 1))
        assert sum(outcome.detector_counts) == 1
        assert remainder.n_max == 1


def test_classify_counts_table():
    assert classify_counts((1, 0)) is OutcomeTag.PLUS
    assert classify_counts((0, 1)) is OutcomeTag.MINUS
    for pattern in ((0, 0), (1, 1), (2, 0), (0, 2)):
        assert classify_counts(pattern) is OutcomeTag.INCONCLUSIVE


def test_outcome_carries_true_counts():
    probe = ProbeState(0.5, SQRT3_2)
    outcome, _ = measure_device(make_source_state(), 0, probe, make_generator(2, 0))
    assert isinstance(outcome, DeviceOutcome)
    assert classify_counts(outcome.detector_counts) is outcome.tag
