"""Round-by-round key distribution over the shared one-photon state.

Each round a fresh copy of the shared state (optionally routed through an
interceptor channel) is measured independently by both parties, each
choosing uniformly between the photon-number setting and its superposition
setting.  Rounds where both chose Number carry the anti-correlated raw key
(the receiving party inverts its record); every other round, plus a
configurable sacrificed fraction of the Number/Number rounds, feeds the
six-term separability estimator, whose deviation from the analytic value
drives the verdict.

Three measurement backends share the sampler:

* ``IDEAL``    - exact two-outcome projective measurements,
* ``DEVICE``   - the linear-optics comparison device (three outcomes; the
  conclusive ones carry POVM weight 1/2, so the estimator rescales by 2
  for marginal and mixed terms and by 4 for the joint superposition term),
* ``CAVITY``   - photon-to-atom transfer followed by deterministic Ramsey
  readout (two outcomes, like IDEAL).

The sampler never simulates optics per round, and never walks rounds in
Python.  The shared state carries one photon, and neither the intercepts
nor the settings add any, so each arm stays in its {|0>, |1>} span: a
channel member is a 2x2 amplitude matrix Psi[a, b], and a setting with k
outcomes is a k x 2 matrix M of row functionals on one arm.  The exact
outcome distribution of a (channel member, setting pair) is then
|M_A Psi M_B^T|^2, computed once and packed into padded arrays: cumulative
branch probabilities for Alice, for Bob given Alice's branch, and the
recorded outcome of every branch under every pattern of detector-loss
draws.  The cavity backend needs no table of its own: the transfer tags
each excitation with -i and the atom readout's direction image undoes it
(see :mod:`srqkd.cavity`), so its rows are the projective ones.

Rounds are drawn a chunk of ``CHUNK_ROUNDS`` at a time with whole-array
lookups, from the counter-based streams documented in :mod:`srqkd.rng`;
since every round's draws are addressed by its counter, the chunking
changes no byte of the output.  A round is kept as one small record code
(settings, outcomes, loss flags), and the transcript is a read-only
sequence of :class:`RoundRecord` views over those codes.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum
from typing import Dict, Iterator, NamedTuple, Optional, Tuple

import numpy as np

from .bell import (
    Convention,
    EveStrategy,
    FieldError,
    IDENTITY_STRATEGY,
    Party,
    SettingTag,
    assemble_s,
    bell_terms,
    eve_channel,
    orthogonal_direction,
    superposition_direction,
    _check_direction_pair,
)
from .device import (
    OutcomeTag,
    SuperpositionCoeffs,
    classify_counts,
    probe_for_direction,
    _count_rows,
)
from .fock import StateVector
from .optics import make_source_state
from .rng import PARTY_ALICE, PARTY_BOB, PARTY_SHARED, round_uniforms

_BRANCH_EPS = 1e-14

# Rounds sampled per step; bounds the working memory of a run.
CHUNK_ROUNDS = 1 << 16


class Backend(Enum):
    IDEAL = "ideal"
    DEVICE = "device"
    CAVITY = "cavity"


class RoundOutcome(Enum):
    CLICK = "click"
    NO_CLICK = "no_click"
    PLUS = "plus"
    MINUS = "minus"
    INCONCLUSIVE = "inconclusive"


class Verdict(Enum):
    SECURE = "Secure"
    EVE_DETECTED = "EveDetected"
    INSUFFICIENT_DATA = "InsufficientData"


@dataclass(frozen=True)
class ProtocolConfig:
    rounds: int
    seed: int
    alpha: float = 0.5
    beta: float = math.sqrt(3.0) / 2.0
    eta: float = 1.0
    backend: Backend = Backend.IDEAL
    eve: EveStrategy = IDENTITY_STRATEGY
    bell_sample_fraction: float = 0.5
    convention: Convention = Convention.OPERATIONAL
    detection_sigma: float = 4.0
    min_cell_samples: int = 10
    run_index: int = 0

    def __post_init__(self):
        if self.rounds < 1:
            raise FieldError("rounds", "rounds must be at least 1")
        if not 0 <= self.seed < 2**64:
            raise FieldError("seed", "seed must fit in an unsigned 64-bit word")
        _check_direction_pair(self.alpha, self.beta)
        if not 0.0 < self.eta <= 1.0:
            raise FieldError("eta", "eta must lie in (0, 1]")
        if not 0.0 < self.bell_sample_fraction <= 1.0:
            raise FieldError("bell_sample_fraction", "bell_sample_fraction must lie in (0, 1]")
        if not (math.isfinite(self.detection_sigma) and self.detection_sigma > 0):
            raise FieldError("detection_sigma", "detection_sigma must be positive")
        if self.min_cell_samples < 1:
            raise FieldError("min_cell_samples", "min_cell_samples must be at least 1")
        if self.run_index < 0:
            raise FieldError("run_index", "run_index must be non-negative")


@dataclass(frozen=True, slots=True)
class RoundRecord:
    round_id: int
    alice_setting: SettingTag
    bob_setting: SettingTag
    alice_outcome: RoundOutcome
    bob_outcome: RoundOutcome
    alice_lost: bool
    bob_lost: bool


@dataclass(frozen=True)
class ProtocolResult:
    sifted_key_alice: str
    sifted_key_bob: str
    sift_fraction: float
    s_estimate: float
    s_stderr: float
    verdict: Verdict
    s_reference: float
    key_disagreement_rate: Optional[float]
    rounds: int
    key_length: int
    cell_counts: Dict[str, int]


# ---------------------------------------------------------------------------
# Record codes
#
# A party's side of a round is ``outcome index * 2 + lost``, one of _SIDES
# values; a round is ``setting pair * _SIDES**2 + alice side * _SIDES + bob
# side``, where the setting pair is ``a_sup * 2 + b_sup``.  Pair 0 (both
# chose Number) is therefore exactly the codes below _SIDES**2.

_SETTINGS = (SettingTag.NUMBER, SettingTag.SUPERPOSITION)
_OUTCOMES = tuple(RoundOutcome)
_CLICK = _OUTCOMES.index(RoundOutcome.CLICK)
_SIDES = 2 * len(_OUTCOMES)
RECORD_CODES = 4 * _SIDES * _SIDES


def _code_fields(code: int) -> tuple:
    """RoundRecord fields after the round id, of a record code."""
    pair, sides = divmod(code, _SIDES**2)
    a_side, b_side = divmod(sides, _SIDES)
    return (
        _SETTINGS[pair >> 1],
        _SETTINGS[pair & 1],
        _OUTCOMES[a_side >> 1],
        _OUTCOMES[b_side >> 1],
        bool(a_side & 1),
        bool(b_side & 1),
    )


def record_from_code(round_id: int, code: int) -> RoundRecord:
    return RoundRecord(round_id, *_code_fields(code))


class Transcript(Sequence):
    """A run's rounds, stored as one record code per round.

    Reads as a sequence of :class:`RoundRecord`; equality compares the
    records, so a transcript equals a list holding the same records.
    """

    __hash__ = None

    def __init__(self, codes: np.ndarray):
        self.codes = codes

    def __len__(self) -> int:
        return len(self.codes)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[r] for r in range(*index.indices(len(self)))]
        r = range(len(self))[index]
        return record_from_code(r, int(self.codes[r]))

    def __iter__(self) -> Iterator[RoundRecord]:
        for start in range(0, len(self.codes), CHUNK_ROUNDS):
            chunk = self.codes[start : start + CHUNK_ROUNDS].tolist()
            for r, code in enumerate(chunk, start):
                yield record_from_code(r, code)

    def __eq__(self, other):
        if isinstance(other, Transcript):
            return np.array_equal(self.codes, other.codes)
        if isinstance(other, Sequence):
            return len(self) == len(other) and all(a == b for a, b in zip(self, other))
        return NotImplemented


# ---------------------------------------------------------------------------
# Detector loss


def _thin_count(n: int, eta: float, uniforms: Sequence[float]) -> int:
    """Keep each of up to two photons independently with probability eta."""
    if eta >= 1.0 or n == 0:
        return n
    if n > len(uniforms):
        raise ValueError("not enough loss draws for the photon count")
    return sum(1 for i in range(n) if uniforms[i] < eta)


# ---------------------------------------------------------------------------
# Per-(member, setting) outcome tables

# Branch kinds decide how eta and the record outcome apply to a label:
#   "number"     label = true photon (or atom-click) count, loss thins it
#   "device"     label = true detector count pair, loss thins both
#   "projective" label = OutcomeTag.PLUS/MINUS, loss does not apply
_KIND_NUMBER = "number"
_KIND_DEVICE = "device"
_KIND_PROJECTIVE = "projective"


def _setting_rows(
    backend: Backend, tag: SettingTag, direction: SuperpositionCoeffs
) -> Tuple[Tuple[object, str, Tuple[complex, complex]], ...]:
    """Outcome branches of one setting on one arm: ``(label, kind, functional)``.

    A setting consumes its arm's qubit span {|0>, |1>}; a branch's
    functional (f0, f1) maps the arm amplitudes (a0, a1) to f0 a0 + f1 a1,
    the unnormalized state of the other arm when that branch fires.  The cavity backend
    reads its atoms with the projective rows: the -i the transfer puts on an
    excitation and the -i of the readout's direction image cancel.
    """
    if tag is SettingTag.NUMBER:
        return ((0, _KIND_NUMBER, (1.0, 0.0)), (1, _KIND_NUMBER, (0.0, 1.0)))
    if backend is Backend.DEVICE:
        return tuple(
            (outcome.detector_counts, _KIND_DEVICE, (c0, c1))
            for outcome, _, c0, c1 in _count_rows(probe_for_direction(direction))
        )
    return tuple(
        (label, _KIND_PROJECTIVE, (d.c0.conjugate(), d.c1.conjugate()))
        for label, d in (
            (OutcomeTag.PLUS, direction),
            (OutcomeTag.MINUS, orthogonal_direction(direction)),
        )
    )


def _side_codes(label, kind: str, eta: float) -> Tuple[int, ...]:
    """Recorded side code of a branch with true label ``label``, per loss pattern.

    Bit j of a pattern is set when loss draw j (slot 2 + j) is u >= eta and
    so misses the photon it thins.  A number branch's photons take the
    draws in order, and a device branch's second detector count takes the
    draws after those of its first.  Plus/Minus outcomes of projective
    readouts carry no photon count and pass through; eta = 1 is the identity.
    """
    codes = []
    for pattern in range(4):
        draws = (float(pattern & 1), float(pattern >> 1))  # 0.0 keeps a photon, 1.0 misses it
        if kind == _KIND_PROJECTIVE:
            out = RoundOutcome.PLUS if label is OutcomeTag.PLUS else RoundOutcome.MINUS
            lost = False
        elif kind == _KIND_NUMBER:
            kept = _thin_count(label, eta, draws)
            out = RoundOutcome.CLICK if kept >= 1 else RoundOutcome.NO_CLICK
            lost = kept < label
        else:
            ca, cb = label
            ka = _thin_count(ca, eta, draws[:ca])
            kb = _thin_count(cb, eta, draws[ca : ca + cb])
            out = RoundOutcome(classify_counts((ka, kb)).value)
            lost = ka + kb < ca + cb
        codes.append(_OUTCOMES.index(out) * 2 + lost)
    return tuple(codes)


# Padding for cumulative tables: above every uniform, so never counted.
_PAD = 2.0


class _Tables(NamedTuple):
    """Exact outcome tables of one config, packed for whole-array sampling.

    Row ``member * 4 + setting pair`` holds one (channel member, setting
    pair).  ``*_last`` is the index of the last real branch, which also
    takes any draw at or above the final cumulative value.
    """

    member_cum: np.ndarray  # (members,)
    a_cum: np.ndarray  # (rows, ka)
    a_last: np.ndarray  # (rows,)
    a_side: np.ndarray  # (rows, ka, 4) side code per loss pattern
    b_cum: np.ndarray  # (rows, ka, kb), given Alice's branch
    b_last: np.ndarray  # (rows, ka)
    b_side: np.ndarray  # (rows, ka, kb, 4)


def _arm_amplitudes(member: StateVector) -> np.ndarray:
    """Psi[a, b]: the amplitude of a photons in arm A and b in arm B."""
    psi = np.zeros((2, 2), dtype=complex)
    for (a, b), amp in member.items():
        if a > 1 or b > 1:
            raise ValueError("each arm must hold at most one photon")
        psi[a, b] = amp
    return psi


def _kept_branches(p: np.ndarray):
    """Index and running probability of each branch above _BRANCH_EPS."""
    keep = np.flatnonzero(p > _BRANCH_EPS)
    cum = np.cumsum(p[keep])
    if abs(cum[-1] - 1.0) > 1e-9:
        raise ArithmeticError(f"branch probabilities sum to {cum[-1]}")
    return zip(keep.tolist(), cum.tolist())


def _build_tables(config: ProtocolConfig) -> _Tables:
    """Exact joint outcome tables per channel member and setting pair."""
    ensemble = eve_channel(config.eve, make_source_state())
    settings = {}  # (party, tag) -> (functional matrix, side codes per branch)
    for party in Party:
        direction = superposition_direction(party, config.alpha, config.beta, config.convention)
        for tag in _SETTINGS:
            branches = _setting_rows(config.backend, tag, direction)
            settings[party, tag] = (
                np.array([functional for *_, functional in branches]),
                [_side_codes(label, kind, config.eta) for label, kind, _ in branches],
            )

    rows = []  # per row: [(cum, side codes, [(cum, side codes), ...] for Bob), ...]
    for _, member in ensemble.members:
        psi = _arm_amplitudes(member)
        for sa in _SETTINGS:
            m_a, a_sides = settings[Party.A, sa]
            left = m_a @ psi
            for sb in _SETTINGS:
                m_b, b_sides = settings[Party.B, sb]
                joint = np.abs(left @ m_b.T) ** 2
                p_a = joint.sum(axis=1)
                alice = []
                for i, a_cum in _kept_branches(p_a):
                    bob = [(b_cum, b_sides[j]) for j, b_cum in _kept_branches(joint[i] / p_a[i])]
                    alice.append((a_cum, a_sides[i], bob))
                rows.append(alice)

    ka = max(len(alice) for alice in rows)
    kb = max(len(bob) for alice in rows for _, _, bob in alice)
    a_cum = np.full((len(rows), ka), _PAD)
    a_last = np.zeros(len(rows), dtype=np.intp)
    a_side = np.zeros((len(rows), ka, 4), dtype=np.intp)
    b_cum = np.full((len(rows), ka, kb), _PAD)
    b_last = np.zeros((len(rows), ka), dtype=np.intp)
    b_side = np.zeros((len(rows), ka, kb, 4), dtype=np.intp)
    for i, alice in enumerate(rows):
        a_last[i] = len(alice) - 1
        for j, (cum, side, bob) in enumerate(alice):
            a_cum[i, j], a_side[i, j] = cum, side
            b_last[i, j] = len(bob) - 1
            for k, (cum_b, side_b) in enumerate(bob):
                b_cum[i, j, k], b_side[i, j, k] = cum_b, side_b
    member_cum = np.cumsum([p for p, _ in ensemble.members])
    return _Tables(member_cum, a_cum, a_last, a_side, b_cum, b_last, b_side)


def _loss_pattern(u: np.ndarray, eta: float):
    """Per-round loss-draw pattern of a party stream (see _side_codes)."""
    if eta >= 1.0:
        return 0
    return (u[:, 2] >= eta) + 2 * (u[:, 3] >= eta)


def _sample_chunk(
    tables: _Tables, ua: np.ndarray, ub: np.ndarray, us: np.ndarray, eta: float
) -> np.ndarray:
    """Record codes of a chunk of rounds, from the rounds' party draws.

    A branch is the first whose cumulative probability exceeds the draw,
    or the last one: ``min(count(u >= cum), last)``.
    """
    members = np.minimum(
        np.searchsorted(tables.member_cum, us[:, 0], side="right"), len(tables.member_cum) - 1
    )
    pair = (ua[:, 0] >= 0.5) * 2 + (ub[:, 0] >= 0.5)
    row = members * 4 + pair
    a = np.minimum((ua[:, 1, None] >= tables.a_cum[row]).sum(axis=1), tables.a_last[row])
    b = np.minimum((ub[:, 1, None] >= tables.b_cum[row, a]).sum(axis=1), tables.b_last[row, a])
    a_side = tables.a_side[row, a, _loss_pattern(ua, eta)]
    b_side = tables.b_side[row, a, b, _loss_pattern(ub, eta)]
    return (pair * _SIDES**2 + a_side * _SIDES + b_side).astype(np.uint16)


# ---------------------------------------------------------------------------
# Estimator

_CELL_NAMES = ("sup_a", "sup_b", "sup_sup", "sup_num", "num_sup", "num_num")

_SCALES = {
    Backend.IDEAL: (1.0, 1.0, 1.0, 1.0, 1.0, 1.0),
    Backend.CAVITY: (1.0, 1.0, 1.0, 1.0, 1.0, 1.0),
    # Conclusive device outcomes carry POVM weight 1/2 per superposition
    # measurement, so frequencies under-count by 2 per superposition party.
    Backend.DEVICE: (2.0, 2.0, 4.0, 2.0, 2.0, 1.0),
}


def _cell_tables() -> Tuple[np.ndarray, np.ndarray]:
    """Per record code: which estimator cells it counts in, and hits."""
    code = np.arange(RECORD_CODES)
    pair, sides = np.divmod(code, _SIDES**2)
    a_side, b_side = np.divmod(sides, _SIDES)
    a_sup, b_sup = pair >> 1 == 1, pair & 1 == 1
    plus = _OUTCOMES.index(RoundOutcome.PLUS)
    a_hit = a_side >> 1 == np.where(a_sup, plus, _CLICK)
    b_hit = b_side >> 1 == np.where(b_sup, plus, _CLICK)
    joint = np.select([a_sup & b_sup, a_sup, b_sup], [2, 3, 4], 5)
    counts = np.zeros((RECORD_CODES, 6), dtype=np.int64)
    hits = np.zeros((RECORD_CODES, 6), dtype=np.int64)
    counts[:, 0], hits[:, 0] = a_sup, a_sup & a_hit
    counts[:, 1], hits[:, 1] = b_sup, b_sup & b_hit
    counts[code, joint], hits[code, joint] = 1, a_hit & b_hit
    return counts, hits


_CELL_COUNTS, _CELL_HITS = _cell_tables()


def _estimate_cells(code_counts: np.ndarray, backend: Backend):
    """S, its standard error and the cell sizes of a set of rounds.

    ``code_counts[c]`` is the number of rounds with record code ``c``.
    Marginal superposition terms use every round where that party chose the
    superposition setting; joint terms use the matching setting-pair cells.
    Inconclusive device outcomes stay in the denominators (they are simply
    not hits), which together with the x2/x4 device scalings keeps the
    estimator unbiased.
    """
    counts = (code_counts @ _CELL_COUNTS).tolist()
    hits = (code_counts @ _CELL_HITS).tolist()
    scales = _SCALES[backend]
    terms = []
    variance = 0.0
    for i in range(6):
        if counts[i] == 0:
            terms.append(0.0)
            continue
        p = hits[i] / counts[i]
        terms.append(scales[i] * p)
        variance += scales[i] ** 2 * p * (1.0 - p) / counts[i]
    s = terms[0] + terms[1] - terms[2] - terms[3] - terms[4] + terms[5]
    cells = dict(zip(_CELL_NAMES, counts))
    return s, math.sqrt(variance), cells


# ---------------------------------------------------------------------------
# Protocol run


def run_protocol(config: ProtocolConfig) -> Tuple[ProtocolResult, Transcript]:
    """Execute the full protocol; returns the summary and the transcript.

    Deterministic: the transcript is a pure function of the config (seed
    and run_index included).  See :mod:`srqkd.rng` for the stream layout.
    """
    tables = _build_tables(config)
    codes = np.empty(config.rounds, dtype=np.uint16)
    bell_counts = np.zeros(RECORD_CODES, dtype=np.int64)  # estimator rounds per code
    key_a = bytearray()
    key_b = bytearray()
    disagreements = 0
    sift_count = 0

    for start in range(0, config.rounds, CHUNK_ROUNDS):
        n = min(CHUNK_ROUNDS, config.rounds - start)
        ua, ub, us = (
            round_uniforms(config.seed, config.run_index, party, n, start)
            for party in (PARTY_ALICE, PARTY_BOB, PARTY_SHARED)
        )
        chunk = codes[start : start + n]
        chunk[:] = _sample_chunk(tables, ua, ub, us, config.eta)
        number_pair = chunk < _SIDES**2
        sift_count += int(np.count_nonzero(number_pair))
        key = number_pair & (us[:, 1] >= config.bell_sample_fraction)
        bell_counts += np.bincount(chunk[~key], minlength=RECORD_CODES)
        a_side, b_side = np.divmod(chunk[key], _SIDES)  # key rounds have setting pair 0
        bits_a = (a_side >> 1) == _CLICK
        # Anti-correlated arms: the receiver inverts its record.
        bits_b = (b_side >> 1) != _CLICK
        key_a += (bits_a + ord("0")).astype(np.uint8).tobytes()
        key_b += (bits_b + ord("0")).astype(np.uint8).tobytes()
        disagreements += int(np.count_nonzero(bits_a != bits_b))

    s_estimate, s_stderr, cells = _estimate_cells(bell_counts, config.backend)
    s_reference = assemble_s(
        bell_terms(config.alpha, config.beta, convention=config.convention)
    )

    if min(cells.values()) < config.min_cell_samples:
        verdict = Verdict.INSUFFICIENT_DATA
    elif abs(s_estimate - s_reference) > config.detection_sigma * s_stderr:
        verdict = Verdict.EVE_DETECTED
    else:
        verdict = Verdict.SECURE

    key_length = len(key_a)
    result = ProtocolResult(
        sifted_key_alice=key_a.decode("ascii"),
        sifted_key_bob=key_b.decode("ascii"),
        sift_fraction=sift_count / config.rounds,
        s_estimate=s_estimate,
        s_stderr=s_stderr,
        verdict=verdict,
        s_reference=s_reference,
        key_disagreement_rate=(disagreements / key_length) if key_length else None,
        rounds=config.rounds,
        key_length=key_length,
        cell_counts=cells,
    )
    return result, Transcript(codes)
