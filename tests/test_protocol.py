"""End-to-end protocol runs, the S estimator, and the loss model."""

import math
from dataclasses import replace

import numpy as np
import pytest

from srqkd import device, protocol
from srqkd.bell import (
    IDENTITY_STRATEGY,
    Convention,
    EveAtom,
    EveStrategy,
    EveTargets,
    FieldError,
    Party,
    SettingTag,
)
from srqkd.cavity import ATOM_MODE, transfer_shared_state
from srqkd.device import OutcomeTag, SuperpositionCoeffs
from srqkd.protocol import (
    Backend,
    ProtocolConfig,
    RoundOutcome,
    RoundRecord,
    Verdict,
    estimate_s,
    run_protocol,
)
from srqkd.fock import StateVector
from srqkd.optics import make_source_state

SQRT3_2 = math.sqrt(3.0) / 2.0

SUP = SettingTag.SUPERPOSITION
NUM = SettingTag.NUMBER


def record(i, sa, sb, oa, ob):
    return RoundRecord(i, sa, sb, oa, ob, False, False)


def test_transcript_is_deterministic():
    config = ProtocolConfig(rounds=400, seed=21)
    result_1, records_1 = run_protocol(config)
    result_2, records_2 = run_protocol(config)
    assert records_1 == records_2
    assert result_1 == result_2


def test_transcript_reads_as_records():
    _, transcript = run_protocol(
        ProtocolConfig(rounds=300, seed=4, backend=Backend.DEVICE, eta=0.8)
    )
    records = list(transcript)
    assert len(transcript) == 300
    assert [rec.round_id for rec in records] == list(range(300))
    assert transcript[-1] == records[-1]
    assert transcript[5:8] == records[5:8]
    assert transcript == records
    assert transcript != records[:-1]
    assert any(rec.alice_lost or rec.bob_lost for rec in records)
    with pytest.raises(IndexError):
        transcript[300]


def test_run_index_gives_fresh_randomness():
    base = ProtocolConfig(rounds=400, seed=21)
    again = ProtocolConfig(rounds=400, seed=21, run_index=1)
    _, records_1 = run_protocol(base)
    _, records_2 = run_protocol(again)
    assert records_1 != records_2


def test_ideal_and_cavity_transcripts_coincide():
    """Both backends realize the same exact distribution, so the same seed
    must reproduce the same transcript round for round."""
    ideal = ProtocolConfig(rounds=2000, seed=33, backend=Backend.IDEAL)
    cavity = ProtocolConfig(rounds=2000, seed=33, backend=Backend.CAVITY)
    result_i, records_i = run_protocol(ideal)
    result_c, records_c = run_protocol(cavity)
    assert records_i == records_c
    assert result_i.sifted_key_alice == result_c.sifted_key_alice
    assert result_i.s_estimate == pytest.approx(result_c.s_estimate, abs=1e-12)


TABLE_EAVESDROPPERS = [
    IDENTITY_STRATEGY,
    EveStrategy(
        EveTargets.ARM_A,
        (EveAtom(1.0, SuperpositionCoeffs(0.0, 1.0), SuperpositionCoeffs(1.0, 0.0)),),
    ),
    EveStrategy(
        EveTargets.ARM_B,
        (EveAtom(1.0, SuperpositionCoeffs(1.0, 0.0), SuperpositionCoeffs(0.6, 0.8j)),),
    ),
    EveStrategy(
        EveTargets.BOTH,
        (
            EveAtom(0.6, SuperpositionCoeffs(0.6, 0.8), SuperpositionCoeffs(0.0, 1.0)),
            EveAtom(0.4, SuperpositionCoeffs(1.0, 0.0), SuperpositionCoeffs(0.8, 0.6j)),
        ),
    ),
]


@pytest.mark.parametrize("convention", list(Convention))
def test_cavity_tables_equal_ideal_tables(convention):
    """The cavity backend reads its atoms with the ideal branch builders, so
    its exact tables are the ideal ones bit for bit, not merely close."""
    for eta in (1.0, 0.7):
        for eve in TABLE_EAVESDROPPERS:
            config = ProtocolConfig(rounds=1, seed=0, eta=eta, eve=eve, convention=convention)
            ideal = protocol._build_tables(config)
            cavity = protocol._build_tables(replace(config, backend=Backend.CAVITY))
            for name, a, b in zip(ideal._fields, ideal, cavity):
                assert np.array_equal(a, b), (eta, eve.targets, name)


def test_number_click_on_arm_a_leaves_arm_b_empty():
    """Alice holds the photon exactly when Bob's arm (or atom) is vacuum."""
    photons = make_source_state()
    atoms = transfer_shared_state(photons)
    any_dir = SuperpositionCoeffs(0.6, 0.8)
    # Alice's mode is consumed, so Bob's is one lower in the remainder.
    for backend, state, alice_mode, bob_mode in (
        (Backend.IDEAL, photons, 0, 0),
        (Backend.CAVITY, atoms, ATOM_MODE[Party.A], ATOM_MODE[Party.B] - 1),
    ):
        branches = protocol._party_branches(state, backend, NUM, any_dir, alice_mode)
        assert [label for label, *_ in branches] == [0, 1]
        for n, kind, p, rest in branches:
            assert kind == protocol._KIND_NUMBER
            assert p == pytest.approx(0.5, abs=1e-12)
            assert rest.mode_count == state.mode_count - 1
            assert {occ[bob_mode] for occ, amp in rest.items() if abs(amp) > 1e-12} == {1 - n}


def test_cavity_superposition_branches_are_conclusive():
    """Atom readout has two outcomes, Plus and Minus, and never an inconclusive one."""
    shared = transfer_shared_state(make_source_state())
    ground = StateVector(4, 2, {(0, 0, 0, 0): 1.0})
    excited = transfer_shared_state(StateVector(2, 2, {(1, 0): 1.0}))
    mode = ATOM_MODE[Party.A]
    excited_dir = SuperpositionCoeffs(0.0, 1.0)
    # the ground atom never fires for the excited-state direction, and a
    # transferred single photon always does
    for state, only in ((ground, OutcomeTag.MINUS), (excited, OutcomeTag.PLUS)):
        branches = protocol._party_branches(state, Backend.CAVITY, SUP, excited_dir, mode)
        assert [(label, kind) for label, kind, *_ in branches] == [
            (only, protocol._KIND_PROJECTIVE)
        ]
        assert branches[0][2] == pytest.approx(1.0, abs=1e-12)
    for c0, c1 in ((SQRT3_2, 0.5), (0.6, 0.8j), (1.0, 0.0)):
        d = SuperpositionCoeffs(c0, c1)
        branches = protocol._party_branches(shared, Backend.CAVITY, SUP, d, mode)
        assert {label for label, *_ in branches} <= {OutcomeTag.PLUS, OutcomeTag.MINUS}
        assert {kind for _, kind, *_ in branches} == {protocol._KIND_PROJECTIVE}
        assert sum(p for _, _, p, _ in branches) == pytest.approx(1.0, abs=1e-12)


def test_sift_fraction_near_one_quarter():
    rounds = 20000
    result, _ = run_protocol(ProtocolConfig(rounds=rounds, seed=5))
    sigma = math.sqrt(0.25 * 0.75 / rounds)
    assert abs(result.sift_fraction - 0.25) < 4 * sigma


@pytest.mark.parametrize("backend", list(Backend))
def test_keys_agree_without_loss(backend):
    result, _ = run_protocol(ProtocolConfig(rounds=4000, seed=8, backend=backend))
    assert result.key_length > 0
    assert result.sifted_key_alice == result.sifted_key_bob
    assert result.key_disagreement_rate == 0.0


@pytest.mark.parametrize("backend", list(Backend))
def test_outcome_domains(backend):
    _, records = run_protocol(ProtocolConfig(rounds=3000, seed=13, backend=backend))
    number_domain = {RoundOutcome.CLICK, RoundOutcome.NO_CLICK}
    sup_domain = {RoundOutcome.PLUS, RoundOutcome.MINUS}
    if backend is Backend.DEVICE:
        sup_domain.add(RoundOutcome.INCONCLUSIVE)
    seen_inconclusive = False
    for rec in records:
        for setting, outcome in (
            (rec.alice_setting, rec.alice_outcome),
            (rec.bob_setting, rec.bob_outcome),
        ):
            assert outcome in (number_domain if setting is NUM else sup_domain)
            seen_inconclusive |= outcome is RoundOutcome.INCONCLUSIVE
    assert seen_inconclusive == (backend is Backend.DEVICE)


def test_accounting_invariants():
    rounds = 5000
    result, records = run_protocol(ProtocolConfig(rounds=rounds, seed=15))
    sift_count = sum(1 for r in records if r.alice_setting is NUM and r.bob_setting is NUM)
    assert result.sift_fraction == pytest.approx(sift_count / rounds)
    # key rounds are the sifted rounds not sacrificed to the estimator
    assert result.key_length + result.cell_counts["num_num"] == sift_count
    assert (
        result.cell_counts["sup_sup"]
        + result.cell_counts["sup_num"]
        + result.cell_counts["num_sup"]
        == rounds - sift_count
    )
    assert result.s_reference == pytest.approx(-0.125, abs=1e-12)
    assert result.verdict is Verdict.SECURE


def test_honest_estimate_converges():
    result, _ = run_protocol(ProtocolConfig(rounds=30000, seed=2, backend=Backend.DEVICE))
    assert result.verdict is Verdict.SECURE
    assert abs(result.s_estimate + 0.125) < 4 * result.s_stderr


def test_estimator_handmade_values():
    records = [
        record(0, SUP, SUP, RoundOutcome.PLUS, RoundOutcome.PLUS),
        record(1, SUP, NUM, RoundOutcome.MINUS, RoundOutcome.CLICK),
        record(2, NUM, SUP, RoundOutcome.CLICK, RoundOutcome.MINUS),
        record(3, NUM, NUM, RoundOutcome.NO_CLICK, RoundOutcome.NO_CLICK),
    ]
    s, stderr = estimate_s(records, 0.5, SQRT3_2)
    # cells: marginals 1/2 each, joint sup-sup 1, the rest 0
    assert s == pytest.approx(0.5 + 0.5 - 1.0, abs=1e-12)
    assert stderr == pytest.approx(math.sqrt(2 * 0.25 / 2), abs=1e-12)
    s_dev, stderr_dev = estimate_s(records, 0.5, SQRT3_2, Backend.DEVICE)
    # post-selection scalings: x2 marginals, x4 joint superposition cell
    assert s_dev == pytest.approx(2 * 0.5 + 2 * 0.5 - 4 * 1.0, abs=1e-12)
    assert stderr_dev == pytest.approx(math.sqrt(2 * 4 * 0.25 / 2), abs=1e-12)


def test_estimator_rejects_missing_cells():
    with pytest.raises(ValueError):
        estimate_s([], 0.5, SQRT3_2)
    only_key = [record(0, NUM, NUM, RoundOutcome.CLICK, RoundOutcome.NO_CLICK)]
    with pytest.raises(ValueError, match="sup_a"):
        estimate_s(only_key, 0.5, SQRT3_2)


def test_insufficient_data_verdict():
    result, _ = run_protocol(ProtocolConfig(rounds=20, seed=1))
    assert result.verdict is Verdict.INSUFFICIENT_DATA


def test_config_validation():
    with pytest.raises(ValueError, match="rounds"):
        ProtocolConfig(rounds=0, seed=1)
    # NaN, and a pair off by more than the direction tolerance of 1e-12
    for alpha, beta in ((0.9, 0.9), (math.nan, 0.5), (0.6, math.nan), (0.6, 0.8000000001)):
        with pytest.raises(FieldError, match="alpha") as info:
            ProtocolConfig(rounds=10, seed=1, alpha=alpha, beta=beta)
        assert info.value.field == "alpha"
    with pytest.raises(ValueError, match="eta"):
        ProtocolConfig(rounds=10, seed=1, eta=0.0)
    with pytest.raises(ValueError, match="eta"):
        ProtocolConfig(rounds=10, seed=1, eta=1.2)
    with pytest.raises(ValueError, match="bell_sample_fraction"):
        ProtocolConfig(rounds=10, seed=1, bell_sample_fraction=0.0)
    with pytest.raises(ValueError, match="detection_sigma"):
        ProtocolConfig(rounds=10, seed=1, detection_sigma=0.0)
    with pytest.raises(ValueError, match="min_cell_samples"):
        ProtocolConfig(rounds=10, seed=1, min_cell_samples=0)
    with pytest.raises(ValueError, match="run_index"):
        ProtocolConfig(rounds=10, seed=1, run_index=-1)
    with pytest.raises(ValueError, match="seed"):
        ProtocolConfig(rounds=10, seed=2**64)


CLICK, NO_CLICK = RoundOutcome.CLICK, RoundOutcome.NO_CLICK
PLUS, MINUS, INC = RoundOutcome.PLUS, RoundOutcome.MINUS, RoundOutcome.INCONCLUSIVE

# Recorded (outcome, lost) at eta < 1 for loss patterns 0-3, where bit j of
# a pattern means loss draw j misses the photon it thins.
NUMBER_LOSS = {
    0: [(NO_CLICK, False)] * 4,
    1: [(CLICK, False), (NO_CLICK, True), (CLICK, False), (NO_CLICK, True)],
    2: [(CLICK, False), (CLICK, True), (CLICK, True), (NO_CLICK, True)],
}
# A device branch's first count takes the first draws, its second the rest.
DEVICE_LOSS = {
    (0, 0): [(INC, False)] * 4,
    (1, 0): [(PLUS, False), (INC, True), (PLUS, False), (INC, True)],
    (0, 1): [(MINUS, False), (INC, True), (MINUS, False), (INC, True)],
    (2, 0): [(INC, False), (PLUS, True), (PLUS, True), (INC, True)],
    (0, 2): [(INC, False), (MINUS, True), (MINUS, True), (INC, True)],
    # never leaves the splitter (Hong-Ou-Mandel), but thins like any pair
    (1, 1): [(INC, False), (MINUS, True), (PLUS, True), (INC, True)],
}


def decoded_sides(label, kind, eta):
    return [
        (list(RoundOutcome)[code >> 1], bool(code & 1))
        for code in protocol._side_codes(label, kind, eta)
    ]


def loss_cases():
    cases = [(n, protocol._KIND_NUMBER, sides) for n, sides in NUMBER_LOSS.items()]
    cases += [(c, protocol._KIND_DEVICE, sides) for c, sides in DEVICE_LOSS.items()]
    cases += [
        (tag, protocol._KIND_PROJECTIVE, [(out, False)] * 4)
        for tag, out in ((OutcomeTag.PLUS, PLUS), (OutcomeTag.MINUS, MINUS))
    ]
    return cases


def test_loss_identity_and_passthrough():
    for label, kind, lossy in loss_cases():
        # eta = 1 records the true label whatever the loss draws
        assert decoded_sides(label, kind, 1.0) == [lossy[0]] * 4, label
    # projective readouts carry no photon count, loss cannot touch them;
    # nor can it touch a branch without photons
    for label, kind, out in (
        (OutcomeTag.PLUS, protocol._KIND_PROJECTIVE, PLUS),
        (OutcomeTag.MINUS, protocol._KIND_PROJECTIVE, MINUS),
        (0, protocol._KIND_NUMBER, NO_CLICK),
        ((0, 0), protocol._KIND_DEVICE, INC),
    ):
        assert decoded_sides(label, kind, 0.3) == [(out, False)] * 4, label


def test_loss_reclassifies_device_counts():
    table_counts = {outcome.detector_counts for outcome, *_ in device._TRANSFER}
    assert table_counts <= set(DEVICE_LOSS)
    for label, kind, lossy in loss_cases():
        assert decoded_sides(label, kind, 0.7) == lossy, label
    # dropping exactly one photon of (1, 1) promotes it to a conclusive pattern
    seen = {out for out, lost in decoded_sides((1, 1), protocol._KIND_DEVICE, 0.5) if lost}
    assert seen == {PLUS, MINUS, INC}


def test_key_disagreement_tracks_detector_loss():
    eta = 0.7
    result, _ = run_protocol(ProtocolConfig(rounds=20000, seed=29, eta=eta))
    assert result.key_length > 1000
    # every sifted round holds exactly one photon; missing it flips the
    # holder's bit, so the disagreement rate is 1 - eta
    sigma = math.sqrt(eta * (1 - eta) / result.key_length)
    assert abs(result.key_disagreement_rate - (1 - eta)) < 4 * sigma


def test_number_intercept_is_detected():
    eve = EveStrategy(
        EveTargets.ARM_A,
        (EveAtom(1.0, SuperpositionCoeffs(0.0, 1.0), SuperpositionCoeffs(1.0, 0.0)),),
    )
    result, _ = run_protocol(ProtocolConfig(rounds=30000, seed=12, eve=eve))
    assert result.verdict is Verdict.EVE_DETECTED
    # the estimate converges to the intercepted value, 1/16
    assert abs(result.s_estimate - 1.0 / 16.0) < 5 * result.s_stderr
    assert result.s_reference == pytest.approx(-0.125, abs=1e-12)


def test_intercept_preserves_marginal_statistics():
    """An arm-A number intercept is invisible in Bob's raw click rate."""
    eve = EveStrategy(
        EveTargets.ARM_A,
        (EveAtom(1.0, SuperpositionCoeffs(0.0, 1.0), SuperpositionCoeffs(1.0, 0.0)),),
    )
    honest, _ = run_protocol(ProtocolConfig(rounds=20000, seed=18))
    tapped, _ = run_protocol(ProtocolConfig(rounds=20000, seed=18, eve=eve))
    n_h = len(honest.sifted_key_bob)
    n_t = len(tapped.sifted_key_bob)
    rate_honest = honest.sifted_key_bob.count("0") / n_h
    rate_tapped = tapped.sifted_key_bob.count("0") / n_t
    sigma = math.sqrt(0.25 / n_h + 0.25 / n_t)
    assert abs(rate_honest - rate_tapped) < 5 * sigma
