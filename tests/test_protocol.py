"""End-to-end protocol runs, the exact tables, the S estimator, and the loss model."""

import itertools
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
    eve_channel,
    orthogonal_direction,
    superposition_direction,
)
from srqkd.cavity import ATOM_MODE, transfer_shared_state, _measurement_image
from srqkd.device import OutcomeTag, SuperpositionCoeffs, probe_for_direction
from srqkd.fock import StateVector, drop_modes, overlap_mode_qubit, project_mode_number, tensor
from srqkd.optics import BeamSplitter, apply_beam_splitter, make_source_state
from srqkd.protocol import (
    RECORD_CODES,
    Backend,
    ProtocolConfig,
    RoundOutcome,
    RoundRecord,
    Verdict,
    run_protocol,
)

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


def fock_branches(state, backend, tag, direction, mode):
    """Reference route: one setting's branches on the sparse Fock state.

    Returns ``(label, kind, probability, renormalized remainder)`` per branch
    above 1e-14; the device expands the splitter with the probe appended.
    """
    if tag is NUM:
        rests = [
            (n, protocol._KIND_NUMBER, drop_modes(project_mode_number(state, mode, n), (mode,)))
            for n in range(state.n_max + 1)
        ]
    elif backend is Backend.DEVICE:
        probe = probe_for_direction(direction)
        probe_mode = state.mode_count
        work = tensor(state, StateVector(1, state.n_max, {(0,): probe.g0, (1,): probe.g1}))
        mixed = apply_beam_splitter(work, BeamSplitter(0.5, port_a=probe_mode, port_b=mode))
        by_counts = {}
        for occ, amp in mixed.items():
            by_counts.setdefault((occ[probe_mode], occ[mode]), {})[occ] = amp
        rests = [
            (counts, protocol._KIND_DEVICE, StateVector(mixed.mode_count, mixed.n_max, amps))
            for counts, amps in sorted(by_counts.items())
        ]
        rests = [(c, k, drop_modes(sub, (mode, probe_mode))) for c, k, sub in rests]
    else:
        if backend is Backend.CAVITY:
            direction = SuperpositionCoeffs(*_measurement_image(direction))
        rests = [
            (label, protocol._KIND_PROJECTIVE, overlap_mode_qubit(state, mode, d.c0, d.c1))
            for label, d in (
                (OutcomeTag.PLUS, direction),
                (OutcomeTag.MINUS, orthogonal_direction(direction)),
            )
        ]
    return [
        (label, kind, rest.norm_sq(), rest.normalized())
        for label, kind, rest in rests
        if rest.norm_sq() > 1e-14
    ]


def running(branches):
    acc = 0.0
    for label, kind, p, rest in branches:
        acc += p
        yield acc, label, kind, rest


def oracle_rows(config):
    """Per table row, Alice's ``(cum, sides, Bob's [(cum, sides)])`` by the Fock route.

    Each member is branched on Alice's mode, renormalized, then branched on
    Bob's; the cavity backend first transfers both photons onto the atoms.
    """
    cavity = config.backend is Backend.CAVITY
    # Alice's measurement consumes her mode, so Bob's is one lower in what remains.
    mode_a, mode_b = (ATOM_MODE[Party.A], ATOM_MODE[Party.B] - 1) if cavity else (0, 0)
    dir_a, dir_b = (
        superposition_direction(party, config.alpha, config.beta, config.convention)
        for party in Party
    )
    rows = []
    for _, member in eve_channel(config.eve, make_source_state()).members:
        root = transfer_shared_state(member) if cavity else member
        for sa in (NUM, SUP):
            a_branches = fock_branches(root, config.backend, sa, dir_a, mode_a)
            for sb in (NUM, SUP):
                alice = []
                for a_cum, a_label, a_kind, rest in running(a_branches):
                    bob = [
                        (b_cum, protocol._side_codes(b_label, b_kind, config.eta))
                        for b_cum, b_label, b_kind, _ in running(
                            fock_branches(rest, config.backend, sb, dir_b, mode_b)
                        )
                    ]
                    alice.append((a_cum, protocol._side_codes(a_label, a_kind, config.eta), bob))
                rows.append(alice)
    return rows


def random_direction(rng):
    z = rng.normal(size=2) + 1j * rng.normal(size=2)
    z = z / np.linalg.norm(z)
    return SuperpositionCoeffs(complex(z[0]), complex(z[1]))


def oracle_strategies(rng):
    yield IDENTITY_STRATEGY
    for targets in (EveTargets.ARM_A, EveTargets.ARM_B, EveTargets.BOTH):
        for n_atoms in (1, 2, 3):
            weights = rng.dirichlet(np.ones(n_atoms))
            atoms = (EveAtom(float(w), random_direction(rng), random_direction(rng)) for w in weights)
            yield EveStrategy(targets, tuple(atoms))


def assert_tables_match(tables, rows, where):
    ka = max(len(alice) for alice in rows)
    kb = max(len(bob) for alice in rows for *_, bob in alice)
    assert tables.a_cum.shape == (len(rows), ka), where
    assert tables.b_cum.shape == (len(rows), ka, kb), where
    for i, alice in enumerate(rows):
        assert tables.a_last[i] == len(alice) - 1, (where, i)
        for j, (a_cum, a_side, bob) in enumerate(alice):
            assert abs(tables.a_cum[i, j] - a_cum) <= 1e-12, (where, i, j)
            assert tuple(tables.a_side[i, j]) == a_side, (where, i, j)
            assert tables.b_last[i, j] == len(bob) - 1, (where, i, j)
            for k, (b_cum, b_side) in enumerate(bob):
                assert abs(tables.b_cum[i, j, k] - b_cum) <= 1e-12, (where, i, j, k)
                assert tuple(tables.b_side[i, j, k]) == b_side, (where, i, j, k)


def test_tables_match_fock_oracle():
    """The 2x2 amplitude tables equal the sparse-Fock branch chain's."""
    rng = np.random.default_rng(71)
    for eve in oracle_strategies(rng):
        alpha = math.sin(rng.uniform(0.1, math.pi / 2.0 - 0.1))
        beta = math.sqrt(1.0 - alpha * alpha)
        members = eve_channel(eve, make_source_state()).members
        for backend, convention, eta in itertools.product(Backend, Convention, (1.0, 0.9, 0.7)):
            config = ProtocolConfig(
                rounds=1, seed=0, alpha=alpha, beta=beta, eta=eta,
                backend=backend, eve=eve, convention=convention,
            )
            tables = protocol._build_tables(config)
            assert np.array_equal(tables.member_cum, np.cumsum([p for p, _ in members]))
            assert_tables_match(tables, oracle_rows(config), (eve, backend, convention, eta))


def test_member_amplitudes_hold_at_most_one_photon_per_arm():
    # rows are arm A's photon count, columns arm B's
    psi = protocol._arm_amplitudes(make_source_state())
    assert np.allclose(psi, [[0.0, -math.sqrt(0.5)], [math.sqrt(0.5), 0.0]], rtol=0, atol=1e-15)
    with pytest.raises(ValueError, match="at most one photon"):
        protocol._arm_amplitudes(StateVector(2, 2, {(0, 2): 1.0}))


def decoded(code):
    """(outcome, lost) of a side code."""
    return list(RoundOutcome)[code >> 1], bool(code & 1)


def test_number_click_on_arm_a_leaves_arm_b_empty():
    """Alice holds the photon exactly when Bob's arm (or atom) is vacuum."""
    for backend in (Backend.IDEAL, Backend.CAVITY):
        rows = protocol._setting_rows(backend, NUM, SuperpositionCoeffs(0.6, 0.8))
        assert [(label, kind) for label, kind, _ in rows] == [
            (0, protocol._KIND_NUMBER),
            (1, protocol._KIND_NUMBER),
        ]
        tables = protocol._build_tables(ProtocolConfig(rounds=1, seed=0, backend=backend))
        # row 0: the honest member under number/number; each count has p = 1/2
        assert tables.a_last[0] == 1
        assert tables.a_cum[0].tolist() == pytest.approx([0.5, 1.0], abs=1e-12)
        for n in (0, 1):
            assert decoded(tables.a_side[0, n, 0]) == ((CLICK if n else NO_CLICK), False)
            # Alice's count settles Bob's: one branch, holding the other count
            assert tables.b_last[0, n] == 0
            assert tables.b_cum[0, n, 0] == pytest.approx(1.0, abs=1e-12)
            assert decoded(tables.b_side[0, n, 0, 0]) == ((NO_CLICK if n else CLICK), False)


def test_cavity_superposition_branches_are_conclusive():
    """Atom readout has two outcomes, Plus and Minus, and never an inconclusive one."""
    # alpha = 1 points Alice's readout at the excited atom, and an arm-A
    # intercept on |1> leaves her atom excited in member 0, ground in member 1
    intercept = EveStrategy(
        EveTargets.ARM_A,
        (EveAtom(1.0, SuperpositionCoeffs(0.0, 1.0), SuperpositionCoeffs(1.0, 0.0)),),
    )
    config = ProtocolConfig(
        rounds=1, seed=0, alpha=1.0, beta=0.0, eve=intercept, backend=Backend.CAVITY
    )
    tables = protocol._build_tables(config)
    for member, only in ((0, PLUS), (1, MINUS)):
        row = member * 4 + 2  # Alice superposition, Bob number
        assert tables.a_last[row] == 0
        assert tables.a_cum[row, 0] == pytest.approx(1.0, abs=1e-12)
        assert decoded(tables.a_side[row, 0, 0]) == (only, False)
    for alpha, beta in ((0.5, SQRT3_2), (0.6, 0.8), (1.0, 0.0)):
        for eta in (1.0, 0.7):
            config = ProtocolConfig(
                rounds=1, seed=0, alpha=alpha, beta=beta, eta=eta, backend=Backend.CAVITY
            )
            t = protocol._build_tables(config)
            # pairs 2, 3: Alice superposition; pairs 1, 3: Bob superposition
            sides = [t.a_side[p, j] for p in (2, 3) for j in range(t.a_last[p] + 1)]
            sides += [
                t.b_side[p, j, k]
                for p in (1, 3)
                for j in range(t.a_last[p] + 1)
                for k in range(t.b_last[p, j] + 1)
            ]
            assert {decoded(code) for side in sides for code in side} <= {
                (PLUS, False),
                (MINUS, False),
            }
            assert t.a_cum[np.arange(4), t.a_last] == pytest.approx(np.ones(4), abs=1e-12)


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
    code_of = {protocol.record_from_code(0, code): code for code in range(RECORD_CODES)}
    codes = [code_of[replace(rec, round_id=0)] for rec in records]
    counts = np.bincount(codes, minlength=RECORD_CODES)
    s, stderr, _ = protocol._estimate_cells(counts, Backend.IDEAL)
    # cells: marginals 1/2 each, joint sup-sup 1, the rest 0
    assert s == pytest.approx(0.5 + 0.5 - 1.0, abs=1e-12)
    assert stderr == pytest.approx(math.sqrt(2 * 0.25 / 2), abs=1e-12)
    s_dev, stderr_dev, _ = protocol._estimate_cells(counts, Backend.DEVICE)
    # post-selection scalings: x2 marginals, x4 joint superposition cell
    assert s_dev == pytest.approx(2 * 0.5 + 2 * 0.5 - 4 * 1.0, abs=1e-12)
    assert stderr_dev == pytest.approx(math.sqrt(2 * 4 * 0.25 / 2), abs=1e-12)


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
