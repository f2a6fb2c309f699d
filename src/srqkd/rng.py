"""Counter-based random streams for reproducible protocol transcripts.

Each protocol run derives one Philox4x64 stream per party from the key
pair ``(seed, run_index * 4 + party_tag)``.  Round ``r`` owns counter
block ``r`` of its stream, i.e. raw words ``[4r, 4r + 4)``, each mapped to
a uniform via ``(raw >> 11) * 2**-53``.  The (seed, run_index, round,
party) coordinates therefore address every draw directly, with no
sequential state, so transcripts replay byte-for-byte and alternate
implementations can match them given the same generator.

Because a block is addressed by its counter, any run of rounds can be drawn
on its own: ``round_uniforms(..., rounds, start)`` moves the fresh stream to
block ``start`` with ``Philox.advance`` and returns exactly the rows that a
single draw from round 0 would hold at ``[start, start + rounds)``.  The
protocol samples a long run a chunk at a time this way, in bounded memory
and with the same bytes as one whole-run draw.

Slot meanings within a round's block of four uniforms:

    party streams (ALICE, BOB):  0 setting choice, 1 outcome draw,
                                 2-3 per-photon loss draws
    SHARED stream:               0 interceptor branch draw,
                                 1 test-sacrifice draw for key rounds
"""

from __future__ import annotations

import numpy as np

PARTY_ALICE = 0
PARTY_BOB = 1
PARTY_SHARED = 2

SLOTS_PER_ROUND = 4

_U53 = 1.0 / (1 << 53)


def stream_key(seed: int, run_index: int, party: int) -> np.ndarray:
    if not 0 <= seed < 2**64:
        raise ValueError("seed must fit in an unsigned 64-bit word")
    if not 0 <= run_index < 2**62:
        raise ValueError("run_index out of range")
    if not 0 <= party < 4:
        raise ValueError("party tag out of range")
    return np.array([seed, run_index * 4 + party], dtype=np.uint64)


def round_uniforms(
    seed: int, run_index: int, party: int, rounds: int, start: int = 0
) -> np.ndarray:
    """(rounds, 4) array of uniforms; row i is round (start + i)'s counter block."""
    if start < 0:
        raise ValueError("start round must be non-negative")
    bitgen = np.random.Philox(key=stream_key(seed, run_index, party))
    if start:
        bitgen.advance(start)
    raw = bitgen.random_raw(rounds * SLOTS_PER_ROUND)
    return ((raw >> 11) * _U53).reshape(rounds, SLOTS_PER_ROUND)


def make_generator(seed: int, *context: int) -> np.random.Generator:
    """Philox generator for auxiliary sampling (scans, standalone draws).

    Contexts separate independent consumers under one user seed; this is
    not the per-round transcript stream above.
    """
    seq = np.random.SeedSequence(entropy=seed, spawn_key=tuple(context))
    return np.random.Generator(np.random.Philox(seq))
