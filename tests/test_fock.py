"""Tests for the sparse truncated-Fock state machinery."""

import math

import numpy as np
import pytest

from srqkd.fock import (
    DEFAULT_N_MAX,
    PRUNE_EPS,
    StateVector,
    TruncationOverflow,
    add,
    apply_creation,
    basis_state,
    drop_modes,
    fidelity,
    inner_product,
    make_vacuum,
    overlap_mode_qubit,
    project_mode_number,
    project_mode_qubit,
    scale,
    tensor,
)


def random_state(rng, mode_count=2, n_max=2):
    amps = {}
    for occ in np.ndindex(*((n_max + 1,) * mode_count)):
        re, im = rng.normal(size=2)
        amps[tuple(int(n) for n in occ)] = complex(re, im)
    return StateVector(mode_count, n_max, amps).normalized()


def test_vacuum_and_basis_state():
    vac = make_vacuum(3)
    assert vac.mode_count == 3
    assert vac.amplitude((0, 0, 0)) == 1.0
    assert vac.norm_sq() == pytest.approx(1.0)

    b = basis_state((1, 2))
    assert b.amplitude((1, 2)) == 1.0
    assert b.amplitude((2, 1)) == 0j


def test_ladder_operators_carry_bosonic_factors():
    vac = make_vacuum(1)
    one = apply_creation(vac, 0)
    two = apply_creation(one, 0)
    assert one.amplitude((1,)) == pytest.approx(1.0)
    assert two.amplitude((2,)) == pytest.approx(math.sqrt(2.0))


def test_creation_above_cap_raises():
    top = basis_state((2,))
    with pytest.raises(TruncationOverflow):
        apply_creation(top, 0)


def test_constructor_validation():
    with pytest.raises(ValueError):
        StateVector(2, 2, {(1,): 1.0})  # wrong arity
    with pytest.raises(ValueError):
        StateVector(1, 2, {(3,): 1.0})  # above n_max
    with pytest.raises(ValueError):
        StateVector(1, 2, {(-1,): 1.0})
    with pytest.raises(ValueError):
        StateVector(1, 2, {(0,): float("nan")})
    with pytest.raises(ValueError):
        StateVector(1, 0)


def test_construction_prunes_negligible_amplitudes():
    sv = StateVector(1, 2, {(0,): 1.0, (1,): PRUNE_EPS / 2})
    assert (1,) not in sv.amplitudes


def test_inner_product_conjugate_linear_in_first_argument():
    rng = np.random.default_rng(7)
    x = random_state(rng)
    y = random_state(rng)
    assert inner_product(scale(x, 1j), y) == pytest.approx(-1j * inner_product(x, y))
    assert inner_product(x, scale(y, 1j)) == pytest.approx(1j * inner_product(x, y))
    assert inner_product(x, x) == pytest.approx(x.norm_sq())


def test_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        inner_product(make_vacuum(1), make_vacuum(2))
    with pytest.raises(ValueError):
        add(make_vacuum(1, n_max=1), make_vacuum(1, n_max=2))
    with pytest.raises(ValueError):
        tensor(make_vacuum(1, n_max=1), make_vacuum(1, n_max=2))


def test_tensor_multiplies_amplitudes():
    left = StateVector(1, 2, {(0,): 0.6, (1,): 0.8})
    right = StateVector(1, 2, {(1,): 1j})
    joint = tensor(left, right)
    assert joint.mode_count == 2
    assert joint.amplitude((0, 1)) == pytest.approx(0.6j)
    assert joint.amplitude((1, 1)) == pytest.approx(0.8j)


def test_normalize_zero_vector_rejected():
    zero = StateVector(1, 2, {})
    with pytest.raises(ValueError):
        zero.normalized()
    with pytest.raises(ValueError):
        fidelity(zero, make_vacuum(1))


def test_fidelity_ignores_global_phase():
    rng = np.random.default_rng(11)
    x = random_state(rng)
    assert fidelity(x, scale(x, complex(math.cos(0.3), math.sin(0.3)))) == pytest.approx(1.0)
    y = random_state(rng)
    # scaling either argument never changes the fidelity
    assert fidelity(scale(x, 2.0), y) == pytest.approx(fidelity(x, y))


def test_project_mode_number_selects_component():
    sv = StateVector(2, 2, {(0, 1): 0.6, (1, 1): 0.8})
    kept = project_mode_number(sv, 0, 1)
    assert kept.amplitude((1, 1)) == pytest.approx(0.8)
    assert kept.amplitude((0, 1)) == 0j
    assert kept.norm_sq() == pytest.approx(0.64)


def test_overlap_mode_qubit_reduces_and_conjugates():
    # <u| with u = (1/sqrt2)(|0> + i|1>) against |0>x + |1>y
    sv = StateVector(2, 2, {(0, 0): 0.6, (1, 1): 0.8})
    s = 1.0 / math.sqrt(2.0)
    rest = overlap_mode_qubit(sv, 0, s, 1j * s)
    assert rest.mode_count == 1
    assert rest.amplitude((0,)) == pytest.approx(s * 0.6)
    assert rest.amplitude((1,)) == pytest.approx(-1j * s * 0.8)


def test_overlap_skips_multiphoton_components():
    sv = StateVector(1, 2, {(2,): 1.0})
    rest = overlap_mode_qubit(sv, 0, 1.0, 0.0)
    assert not rest.amplitudes


def test_project_mode_qubit_is_idempotent_and_hermitian():
    rng = np.random.default_rng(23)
    for _ in range(25):
        state = random_state(rng, mode_count=2)
        zz = rng.normal(size=2) + 1j * rng.normal(size=2)
        c0, c1 = zz / np.linalg.norm(zz)
        once = project_mode_qubit(state, 0, c0, c1)
        twice = project_mode_qubit(once, 0, c0, c1)
        diff = add(twice, scale(once, -1.0))
        assert diff.norm() < 1e-12
        other = random_state(rng, mode_count=2)
        lhs = inner_product(other, once)
        rhs = inner_product(project_mode_qubit(other, 0, c0, c1), state)
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_drop_modes_requires_pinned_occupation():
    pinned = StateVector(2, 2, {(1, 0): 0.6, (1, 1): 0.8})
    dropped = drop_modes(pinned, (0,))
    assert dropped.mode_count == 1
    assert dropped.amplitude((0,)) == pytest.approx(0.6)

    varying = StateVector(2, 2, {(0, 0): 0.6, (1, 1): 0.8})
    with pytest.raises(ValueError):
        drop_modes(varying, (0,))


def test_drop_all_modes_leaves_scalar():
    sv = StateVector(1, 2, {(1,): -0.5})
    scalar = drop_modes(sv, (0,))
    assert scalar.mode_count == 0
    assert scalar.amplitude(()) == pytest.approx(-0.5)


def test_operations_leave_inputs_untouched():
    sv = StateVector(1, 2, {(0,): 1.0})
    before = dict(sv.amplitudes)
    apply_creation(sv, 0)
    scale(sv, 2.0)
    add(sv, sv)
    assert sv.amplitudes == before


def test_default_cap_is_two():
    assert DEFAULT_N_MAX == 2
    assert make_vacuum(1).n_max == 2
