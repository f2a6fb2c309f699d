"""Sparse state vectors over a few truncated bosonic modes.

Everything downstream (splitters, the comparison device, the cavity
hand-off) works on these vectors.  A state assigns a complex amplitude to
each occupation tuple and is stored sparsely; the truncation ``n_max`` is a
hard ceiling, and any operation that would climb past it raises
:class:`TruncationOverflow` instead of silently dropping weight.

States are treated as immutable values: every operation returns a fresh
vector and never touches its inputs.  Amplitudes at or below ``PRUNE_EPS``
are dropped on construction; with the O(1) amplitudes and handful of
entries used here that perturbs any reported probability by well under
1e-12.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Iterator, Mapping, Sequence, Tuple

Occupation = Tuple[int, ...]

PRUNE_EPS = 1e-15

DEFAULT_N_MAX = 2


class TruncationOverflow(Exception):
    """An operation tried to populate a Fock level above n_max."""


def _is_finite(z: complex) -> bool:
    return math.isfinite(z.real) and math.isfinite(z.imag)


class StateVector:
    """Sparse complex vector in the occupation-number basis."""

    __slots__ = ("mode_count", "n_max", "amplitudes")

    def __init__(
        self,
        mode_count: int,
        n_max: int = DEFAULT_N_MAX,
        amplitudes: Mapping[Occupation, complex] | None = None,
    ):
        if mode_count < 0:
            raise ValueError("mode_count must be non-negative")
        if n_max < 1:
            raise ValueError("n_max must be at least 1")
        self.mode_count = int(mode_count)
        self.n_max = int(n_max)
        amps: Dict[Occupation, complex] = {}
        if amplitudes:
            for occ, raw in amplitudes.items():
                occ = tuple(int(n) for n in occ)
                if len(occ) != self.mode_count:
                    raise ValueError(
                        f"occupation {occ} has {len(occ)} entries, expected {self.mode_count}"
                    )
                for n in occ:
                    if n < 0 or n > self.n_max:
                        raise ValueError(f"occupation {occ} outside [0, n_max={self.n_max}]")
                amp = complex(raw)
                if not _is_finite(amp):
                    raise ValueError(f"non-finite amplitude for {occ}")
                if abs(amp) > PRUNE_EPS:
                    amps[occ] = amps.get(occ, 0j) + amp
        self.amplitudes = amps

    @classmethod
    def _raw(cls, mode_count: int, n_max: int, amps: Dict[Occupation, complex]) -> "StateVector":
        """Internal fast path: occupations are trusted, only pruning is applied."""
        sv = cls.__new__(cls)
        sv.mode_count = mode_count
        sv.n_max = n_max
        sv.amplitudes = {occ: a for occ, a in amps.items() if abs(a) > PRUNE_EPS}
        return sv

    def amplitude(self, occ: Sequence[int]) -> complex:
        return self.amplitudes.get(tuple(occ), 0j)

    def items(self) -> Iterator[Tuple[Occupation, complex]]:
        return iter(self.amplitudes.items())

    def norm_sq(self) -> float:
        return sum(abs(a) ** 2 for a in self.amplitudes.values())

    def norm(self) -> float:
        return math.sqrt(self.norm_sq())

    def normalized(self) -> "StateVector":
        n = self.norm()
        if n <= PRUNE_EPS:
            raise ValueError("cannot normalize a zero vector")
        return scale(self, 1.0 / n)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        body = ", ".join(f"{occ}: {a:.6g}" for occ, a in sorted(self.amplitudes.items()))
        return f"StateVector({self.mode_count} modes, n_max={self.n_max}, {{{body}}})"


def make_vacuum(mode_count: int, n_max: int = DEFAULT_N_MAX) -> StateVector:
    """All-modes-empty state |0...0>."""
    if mode_count < 1:
        raise ValueError("mode_count must be at least 1")
    return StateVector(mode_count, n_max, {(0,) * mode_count: 1.0})


def basis_state(occ: Sequence[int], n_max: int = DEFAULT_N_MAX) -> StateVector:
    """Single occupation-number basis vector."""
    occ = tuple(int(n) for n in occ)
    return StateVector(len(occ), n_max, {occ: 1.0})


def _check_mode(state: StateVector, mode: int) -> None:
    if not 0 <= mode < state.mode_count:
        raise ValueError(f"mode {mode} out of range for {state.mode_count}-mode state")


def _check_shapes(x: StateVector, y: StateVector) -> None:
    if x.mode_count != y.mode_count or x.n_max != y.n_max:
        raise ValueError(
            f"shape mismatch: ({x.mode_count} modes, n_max={x.n_max}) vs "
            f"({y.mode_count} modes, n_max={y.n_max})"
        )


def apply_creation(state: StateVector, mode: int) -> StateVector:
    """Apply the raising operator on one mode (amplitude factor sqrt(n+1))."""
    _check_mode(state, mode)
    out: Dict[Occupation, complex] = {}
    for occ, amp in state.items():
        n = occ[mode]
        if n + 1 > state.n_max:
            raise TruncationOverflow(
                f"creation on mode {mode} would populate level {n + 1} > n_max={state.n_max}"
            )
        new = occ[:mode] + (n + 1,) + occ[mode + 1 :]
        out[new] = out.get(new, 0j) + amp * math.sqrt(n + 1)
    return StateVector._raw(state.mode_count, state.n_max, out)


def inner_product(x: StateVector, y: StateVector) -> complex:
    """<x|y>, conjugate-linear in the first argument."""
    _check_shapes(x, y)
    small, big = (x, y) if len(x.amplitudes) <= len(y.amplitudes) else (y, x)
    total = 0j
    if small is x:
        for occ, amp in small.items():
            other = big.amplitudes.get(occ)
            if other is not None:
                total += amp.conjugate() * other
    else:
        for occ, amp in small.items():
            other = big.amplitudes.get(occ)
            if other is not None:
                total += other.conjugate() * amp
    return total


def tensor(x: StateVector, y: StateVector) -> StateVector:
    """Tensor product; y's modes are appended after x's."""
    if x.n_max != y.n_max:
        raise ValueError(f"n_max mismatch: {x.n_max} vs {y.n_max}")
    out: Dict[Occupation, complex] = {}
    for occ_x, amp_x in x.items():
        for occ_y, amp_y in y.items():
            out[occ_x + occ_y] = amp_x * amp_y
    return StateVector._raw(x.mode_count + y.mode_count, x.n_max, out)


def scale(state: StateVector, factor: complex) -> StateVector:
    factor = complex(factor)
    if not _is_finite(factor):
        raise ValueError("non-finite scale factor")
    out = {occ: amp * factor for occ, amp in state.items()}
    return StateVector._raw(state.mode_count, state.n_max, out)


def add(x: StateVector, y: StateVector) -> StateVector:
    _check_shapes(x, y)
    out = dict(x.amplitudes)
    for occ, amp in y.items():
        out[occ] = out.get(occ, 0j) + amp
    return StateVector._raw(x.mode_count, x.n_max, out)


def fidelity(x: StateVector, y: StateVector) -> float:
    """|<x|y>|^2 for the normalized directions of x and y, clamped to [0, 1]."""
    _check_shapes(x, y)
    nx, ny = x.norm_sq(), y.norm_sq()
    if nx <= PRUNE_EPS**2 or ny <= PRUNE_EPS**2:
        raise ValueError("fidelity of a zero vector is undefined")
    val = abs(inner_product(x, y)) ** 2 / (nx * ny)
    return min(max(val, 0.0), 1.0)


def project_mode_number(state: StateVector, mode: int, n: int) -> StateVector:
    """Unnormalized projection onto occupation exactly n in one mode."""
    _check_mode(state, mode)
    out = {occ: amp for occ, amp in state.items() if occ[mode] == n}
    return StateVector._raw(state.mode_count, state.n_max, out)


def overlap_mode_qubit(state: StateVector, mode: int, c0: complex, c1: complex) -> StateVector:
    """<u|_mode applied to the state: the (unnormalized) rest-of-system vector.

    The bra lives on the {|0>, |1>} span of the chosen mode; components with
    two or more photons there are annihilated.  The measured mode is removed
    from the result, so the output has one mode fewer.
    """
    _check_mode(state, mode)
    c0, c1 = complex(c0), complex(c1)
    out: Dict[Occupation, complex] = {}
    for occ, amp in state.items():
        n = occ[mode]
        if n > 1:
            continue
        coeff = (c0 if n == 0 else c1).conjugate()
        if coeff == 0:
            continue
        rest = occ[:mode] + occ[mode + 1 :]
        out[rest] = out.get(rest, 0j) + coeff * amp
    return StateVector._raw(state.mode_count - 1, state.n_max, out)


def project_mode_qubit(state: StateVector, mode: int, c0: complex, c1: complex) -> StateVector:
    """Unnormalized |u><u| on one mode, u = c0|0> + c1|1> in that mode's qubit span.

    The same arithmetic as :func:`overlap_mode_qubit` followed by the
    re-embedding along u, pruning included, without the intermediate vector.
    """
    _check_mode(state, mode)
    c0, c1 = complex(c0), complex(c1)
    bra0, bra1 = c0.conjugate(), c1.conjugate()
    rest: Dict[Occupation, complex] = {}
    for occ, amp in state.amplitudes.items():
        n = occ[mode]
        if n > 1:
            continue
        coeff = bra0 if n == 0 else bra1
        if coeff == 0:
            continue
        key = occ[:mode] + occ[mode + 1 :]
        rest[key] = rest.get(key, 0j) + coeff * amp
    out: Dict[Occupation, complex] = {}
    for key, amp in rest.items():
        if abs(amp) > PRUNE_EPS:
            if c0 != 0:
                out[key[:mode] + (0,) + key[mode:]] = 0j + c0 * amp
            if c1 != 0:
                out[key[:mode] + (1,) + key[mode:]] = 0j + c1 * amp
    return StateVector._raw(state.mode_count, state.n_max, out)


def drop_modes(state: StateVector, modes: Iterable[int]) -> StateVector:
    """Remove modes whose occupation is the same in every amplitude.

    Used after a number measurement has pinned those modes; dropping a mode
    that still varies across amplitudes is not a linear operation and raises.
    """
    drop = sorted(set(modes))
    for m in drop:
        _check_mode(state, m)
    pinned: Dict[int, int] = {}
    for occ in state.amplitudes:
        for m in drop:
            if m in pinned and pinned[m] != occ[m]:
                raise ValueError(f"mode {m} is not in a definite number state")
            pinned[m] = occ[m]
    keep = [m for m in range(state.mode_count) if m not in set(drop)]
    out = {tuple(occ[m] for m in keep): amp for occ, amp in state.items()}
    return StateVector._raw(len(keep), state.n_max, out)
