"""Addressable-stream guarantees the transcript replay contract relies on."""

import numpy as np
import pytest

from srqkd.rng import (
    PARTY_ALICE,
    PARTY_BOB,
    PARTY_SHARED,
    SLOTS_PER_ROUND,
    make_generator,
    round_uniforms,
    stream_key,
)


def test_shape_and_range():
    u = round_uniforms(42, 0, PARTY_ALICE, 1000)
    assert u.shape == (1000, SLOTS_PER_ROUND)
    assert u.min() >= 0.0
    assert u.max() < 1.0


def test_deterministic_replay():
    a = round_uniforms(42, 3, PARTY_BOB, 500)
    b = round_uniforms(42, 3, PARTY_BOB, 500)
    np.testing.assert_array_equal(a, b)


def test_counter_prefix_property():
    """Asking for fewer rounds returns a prefix of the longer draw."""
    long = round_uniforms(7, 0, PARTY_SHARED, 100)
    short = round_uniforms(7, 0, PARTY_SHARED, 40)
    np.testing.assert_array_equal(long[:40], short)


def test_chunked_draws_match_one_full_draw():
    """Rows drawn from a start round equal the same rows of one whole draw."""
    full = round_uniforms(17, 2, PARTY_BOB, 70000)
    for start, rounds in ((0, 300), (300, 1), (301, 65535), (65536, 4464), (69997, 3)):
        np.testing.assert_array_equal(
            round_uniforms(17, 2, PARTY_BOB, rounds, start), full[start : start + rounds]
        )
    with pytest.raises(ValueError):
        round_uniforms(17, 2, PARTY_BOB, 5, -1)


def test_party_streams_are_distinct():
    rows = 200
    streams = [round_uniforms(9, 0, p, rows) for p in (PARTY_ALICE, PARTY_BOB, PARTY_SHARED)]
    for i in range(len(streams)):
        for j in range(i + 1, len(streams)):
            assert not np.array_equal(streams[i], streams[j])


def test_run_index_separates_streams():
    a = round_uniforms(11, 0, PARTY_ALICE, 200)
    b = round_uniforms(11, 1, PARTY_ALICE, 200)
    assert not np.array_equal(a, b)
    # run-index spacing never collides with a party tag of another run
    assert not np.array_equal(b, round_uniforms(11, 0, PARTY_BOB, 200))


def test_stream_key_layout():
    np.testing.assert_array_equal(stream_key(5, 2, 1), np.array([5, 9], dtype=np.uint64))
    with pytest.raises(ValueError):
        stream_key(2**64, 0, 0)
    with pytest.raises(ValueError):
        stream_key(5, -1, 0)
    with pytest.raises(ValueError):
        stream_key(5, 0, 4)


def test_uniform_marginals():
    # crude sanity on the mapping from raw words to floats
    u = round_uniforms(123, 0, PARTY_ALICE, 20000)
    assert abs(u.mean() - 0.5) < 0.01
    assert abs((u < 0.5).mean() - 0.5) < 0.02


def test_make_generator_determinism_and_context():
    a = make_generator(5, 1).random(10)
    b = make_generator(5, 1).random(10)
    np.testing.assert_array_equal(a, b)
    c = make_generator(5, 2).random(10)
    assert not np.array_equal(a, c)
    d = make_generator(6, 1).random(10)
    assert not np.array_equal(a, d)
