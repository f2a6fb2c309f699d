"""End-to-end protocol runs, the S estimator, and the loss model."""

import math

import numpy as np
import pytest

from srqkd.bell import EveAtom, EveStrategy, EveTargets, SettingTag
from srqkd.device import DeviceOutcome, OutcomeTag, SuperpositionCoeffs, classify_counts
from srqkd.protocol import (
    Backend,
    ProtocolConfig,
    RoundOutcome,
    RoundRecord,
    Verdict,
    apply_loss,
    estimate_s,
    run_protocol,
)
from srqkd.rng import make_generator

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
    with pytest.raises(ValueError, match="alpha"):
        ProtocolConfig(rounds=10, seed=1, alpha=0.9, beta=0.9)
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


def test_loss_identity_and_passthrough():
    rng = make_generator(3, 0)
    assert apply_loss(RoundOutcome.CLICK, 1.0, rng) is RoundOutcome.CLICK
    assert apply_loss(RoundOutcome.NO_CLICK, 0.3, rng) is RoundOutcome.NO_CLICK
    # projective readouts carry no photon count, loss cannot touch them
    assert apply_loss(RoundOutcome.PLUS, 0.3, rng) is RoundOutcome.PLUS
    assert apply_loss(RoundOutcome.MINUS, 0.3, rng) is RoundOutcome.MINUS
    full = DeviceOutcome(OutcomeTag.INCONCLUSIVE, (1, 1))
    assert apply_loss(full, 1.0, rng) == full
    with pytest.raises(ValueError):
        apply_loss(RoundOutcome.CLICK, 0.0, rng)
    with pytest.raises(TypeError):
        apply_loss("click", 0.5, rng)


def test_loss_thins_clicks_at_the_right_rate():
    rng = make_generator(3, 1)
    eta = 0.5
    n = 20000
    kept = sum(
        apply_loss(RoundOutcome.CLICK, eta, rng) is RoundOutcome.CLICK for _ in range(n)
    )
    sigma = math.sqrt(eta * (1 - eta) / n)
    assert abs(kept / n - eta) < 4 * sigma


def test_loss_reclassifies_device_counts():
    rng = make_generator(3, 2)
    eta = 0.5
    start = DeviceOutcome(OutcomeTag.INCONCLUSIVE, (1, 1))
    seen = set()
    for _ in range(500):
        out = apply_loss(start, eta, rng)
        assert classify_counts(out.detector_counts) is out.tag
        assert out.detector_counts[0] <= 1 and out.detector_counts[1] <= 1
        seen.add(out.detector_counts)
    # dropping exactly one photon promotes the pattern to a conclusive one
    assert (1, 0) in seen and (0, 1) in seen and (0, 0) in seen


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
