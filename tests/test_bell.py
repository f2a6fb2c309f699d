"""Single-particle test statistic: terms, closed forms, and eavesdropping."""

import math
from functools import partial

import numpy as np
import pytest

from srqkd.bell import (
    IDENTITY_STRATEGY,
    Convention,
    Ensemble,
    EveAtom,
    EveStrategy,
    EveTargets,
    InequalityVerdict,
    Party,
    assemble_s,
    bell_terms,
    check_inequality,
    eve_channel,
    orthogonal_direction,
    s_closed_form,
    s_value,
    s_with_eve,
    superposition_direction,
)
from srqkd.device import SuperpositionCoeffs
from srqkd.fock import (
    StateVector,
    fidelity,
    inner_product,
    overlap_mode_qubit,
    project_mode_number,
    project_mode_qubit,
)
from srqkd.optics import make_source_state

SQRT3_2 = math.sqrt(3.0) / 2.0
INV_SQRT2 = 1.0 / math.sqrt(2.0)

KET0 = np.array([1.0, 0.0])
KET1 = np.array([0.0, 1.0])
SOURCE_DENSE = (np.kron(KET1, KET0) - np.kron(KET0, KET1)) / math.sqrt(2.0)


def dense_projector(u):
    v = np.array([u.c0, u.c1])
    return np.outer(v, v.conj())


def dense_terms_after_intercept(e_a, alpha, beta, convention):
    """Independent density-matrix route for an arm-A intercept-resend.

    Works entirely in the 4-dim two-qubit span with numpy, no shared code
    with the library beyond the direction constructors.
    """
    eye = np.eye(2)
    p_e = dense_projector(e_a)
    rho = np.outer(SOURCE_DENSE, SOURCE_DENSE.conj()).astype(complex)
    rho_out = np.zeros_like(rho)
    for kraus in (np.kron(p_e, eye), np.kron(eye - p_e, eye)):
        rho_out += kraus @ rho @ kraus.conj().T
    p_a = dense_projector(superposition_direction(Party.A, alpha, beta, convention))
    p_b = dense_projector(superposition_direction(Party.B, alpha, beta, convention))
    number = np.diag([0.0, 1.0])
    ops = [
        np.kron(p_a, eye),
        np.kron(eye, p_b),
        np.kron(p_a, p_b),
        np.kron(p_a, number),
        np.kron(number, p_b),
        np.kron(number, number),
    ]
    return tuple(float(np.trace(rho_out @ op).real) for op in ops)


def random_direction(rng):
    z = rng.normal(size=2) + 1j * rng.normal(size=2)
    z = z / np.linalg.norm(z)
    return SuperpositionCoeffs(complex(z[0]), complex(z[1]))


def test_direction_conventions():
    d = superposition_direction(Party.A, 0.5, SQRT3_2)
    assert (d.c0, d.c1) == (pytest.approx(SQRT3_2), pytest.approx(0.5))
    d = superposition_direction(Party.B, 0.5, SQRT3_2)
    assert (d.c0, d.c1) == (pytest.approx(SQRT3_2), pytest.approx(-0.5))
    d = superposition_direction(Party.A, 0.5, SQRT3_2, Convention.LITERAL)
    assert (d.c0, d.c1) == (pytest.approx(0.5), pytest.approx(SQRT3_2))
    d = superposition_direction(Party.B, 0.5, SQRT3_2, Convention.LITERAL)
    assert (d.c0, d.c1) == (pytest.approx(0.5), pytest.approx(-SQRT3_2))
    with pytest.raises(ValueError):
        superposition_direction(Party.A, 0.5, 0.5)


def test_six_terms_against_closed_forms():
    for convention in Convention:
        for alpha in np.linspace(0.05, 0.95, 19):
            beta = math.sqrt(1.0 - alpha * alpha)
            got = bell_terms(alpha, beta, convention=convention).as_tuple()
            mixed = beta * beta / 2.0 if convention is Convention.OPERATIONAL else alpha * alpha / 2.0
            want = (0.5, 0.5, 2.0 * (alpha * beta) ** 2, mixed, mixed, 0.0)
            assert got == pytest.approx(want, abs=1e-12)


def test_expectation_worked_values():
    terms = bell_terms(0.5, SQRT3_2, state=make_source_state())
    assert terms.sup_a == pytest.approx(0.5, abs=1e-12)
    assert terms.num_num == pytest.approx(0.0, abs=1e-12)
    assert terms.sup_sup == pytest.approx(0.375, abs=1e-12)
    assert terms.sup_num == pytest.approx(0.375, abs=1e-12)


def test_projection_is_idempotent():
    state = make_source_state()
    d_a = superposition_direction(Party.A, 0.5, SQRT3_2)
    d_b = superposition_direction(Party.B, 0.6, 0.8, Convention.LITERAL)
    for project in (
        partial(project_mode_qubit, mode=0, c0=d_a.c0, c1=d_a.c1),
        partial(project_mode_qubit, mode=1, c0=d_b.c0, c1=d_b.c1),
        partial(project_mode_number, mode=0, n=1),
    ):
        once = project(state)
        twice = project(once)
        assert once.norm_sq() == pytest.approx(twice.norm_sq(), abs=1e-12)
        assert fidelity(once, twice) > 1.0 - 1e-12


def test_s_worked_values():
    got = s_value(0.5, SQRT3_2)
    assert got.s == pytest.approx(-0.125, abs=1e-12)
    assert got.oracle == pytest.approx(-0.125, abs=1e-12)
    assert s_value(INV_SQRT2, INV_SQRT2).s == pytest.approx(0.0, abs=1e-12)
    assert s_value(1.0, 0.0).s == pytest.approx(1.0, abs=1e-12)
    assert s_value(0.5, SQRT3_2, Convention.LITERAL).s == pytest.approx(0.375, abs=1e-12)


def test_closed_form_convention_symmetry():
    # swapping the coefficient roles swaps the conventions
    rng = np.random.default_rng(53)
    for _ in range(100):
        alpha = math.sin(rng.uniform(0.0, math.pi / 2.0))
        beta = math.sqrt(1.0 - alpha * alpha)
        assert s_closed_form(alpha, beta, Convention.LITERAL) == pytest.approx(
            s_closed_form(beta, alpha, Convention.OPERATIONAL), abs=1e-12
        )
        for convention in Convention:
            val = s_value(alpha, beta, convention)
            assert val.s == pytest.approx(val.oracle, abs=1e-12)


def test_inequality_classification():
    assert check_inequality(-0.125) is InequalityVerdict.VIOLATED_BELOW
    assert check_inequality(0.0) is InequalityVerdict.SATISFIED
    assert check_inequality(1.0) is InequalityVerdict.SATISFIED
    assert check_inequality(-1e-13) is InequalityVerdict.SATISFIED
    assert check_inequality(1.0 + 1e-9) is InequalityVerdict.VIOLATED_ABOVE


def test_violation_region():
    # the shared state dips below zero exactly when the minus-amplitude
    # weight exceeds one half (and the plus weight is nonzero)
    for alpha in np.linspace(0.0, 1.0, 41):
        beta = math.sqrt(max(0.0, 1.0 - alpha * alpha))
        verdict = check_inequality(s_value(alpha, beta).s)
        if alpha > 1e-6 and beta > INV_SQRT2 + 1e-6:
            assert verdict is InequalityVerdict.VIOLATED_BELOW, (alpha, beta)
        elif beta < INV_SQRT2 - 1e-6 or alpha < 1e-6:
            assert verdict is InequalityVerdict.SATISFIED, (alpha, beta)


def test_identity_channel_is_transparent():
    ensemble = eve_channel(IDENTITY_STRATEGY, make_source_state())
    assert len(ensemble.members) == 1
    prob, member = ensemble.members[0]
    assert prob == pytest.approx(1.0)
    assert fidelity(member, make_source_state()) > 1.0 - 1e-12


def intercept_arm_a(direction):
    atom = EveAtom(1.0, direction, SuperpositionCoeffs(1.0, 0.0))
    return EveStrategy(EveTargets.ARM_A, (atom,))


def test_number_intercept_ensemble():
    strategy = intercept_arm_a(SuperpositionCoeffs(0.0, 1.0))
    ensemble = eve_channel(strategy, make_source_state())
    assert len(ensemble.members) == 2
    weights = sorted(p for p, _ in ensemble.members)
    assert weights == pytest.approx([0.5, 0.5], abs=1e-12)
    kets = [
        StateVector(2, 2, {(1, 0): 1.0}),
        StateVector(2, 2, {(0, 1): 1.0}),
    ]
    for _, member in ensemble.members:
        assert max(fidelity(member, k) for k in kets) > 1.0 - 1e-12


def test_intercept_worked_value_against_dense_oracle():
    """The 1/16 landmark: dense-matrix route first, library value second."""
    alpha, beta = 0.5, SQRT3_2
    e_a = SuperpositionCoeffs(0.0, 1.0)
    terms = dense_terms_after_intercept(e_a, alpha, beta, Convention.OPERATIONAL)
    want = (0.5, 0.5, 3.0 / 16.0, 0.375, 0.375, 0.0)
    assert terms == pytest.approx(want, abs=1e-12)
    s_dense = terms[0] + terms[1] - terms[2] - terms[3] - terms[4] + terms[5]
    assert s_dense == pytest.approx(1.0 / 16.0, abs=1e-12)
    assert s_with_eve(intercept_arm_a(e_a), alpha, beta) == pytest.approx(s_dense, abs=1e-12)


def test_intercept_matches_dense_oracle_for_random_directions():
    rng = np.random.default_rng(59)
    for _ in range(25):
        e_a = random_direction(rng)
        alpha = math.sin(rng.uniform(0.1, math.pi / 2.0 - 0.1))
        beta = math.sqrt(1.0 - alpha * alpha)
        convention = Convention.OPERATIONAL if rng.random() < 0.5 else Convention.LITERAL
        terms = dense_terms_after_intercept(e_a, alpha, beta, convention)
        s_dense = terms[0] + terms[1] - terms[2] - terms[3] - terms[4] + terms[5]
        got = s_with_eve(intercept_arm_a(e_a), alpha, beta, convention)
        assert got == pytest.approx(s_dense, abs=1e-12)


def test_identity_strategy_reproduces_undisturbed_s():
    for alpha, beta in ((0.5, SQRT3_2), (0.8, 0.6), (INV_SQRT2, INV_SQRT2)):
        assert s_with_eve(IDENTITY_STRATEGY, alpha, beta) == pytest.approx(
            s_value(alpha, beta).s, abs=1e-12
        )


def random_strategy(rng):
    targets = rng.choice([EveTargets.ARM_A, EveTargets.ARM_B, EveTargets.BOTH])
    n_atoms = int(rng.integers(1, 4))
    weights = rng.dirichlet(np.ones(n_atoms))
    atoms = tuple(
        EveAtom(float(w), random_direction(rng), random_direction(rng)) for w in weights
    )
    return EveStrategy(targets, atoms)


def test_every_intercept_strategy_lands_in_the_product_band():
    rng = np.random.default_rng(61)
    for _ in range(200):
        alpha = math.sin(rng.uniform(0.0, math.pi / 2.0))
        beta = math.sqrt(1.0 - alpha * alpha)
        s = s_with_eve(random_strategy(rng), alpha, beta)
        assert -1e-9 <= s <= 1.0 + 1e-9


def test_strategy_validation():
    with pytest.raises(ValueError):
        EveAtom(-0.1, SuperpositionCoeffs(1.0, 0.0), SuperpositionCoeffs(1.0, 0.0))
    with pytest.raises(ValueError):
        EveStrategy(EveTargets.ARM_A, ())
    bad = (
        EveAtom(0.4, SuperpositionCoeffs(1.0, 0.0), SuperpositionCoeffs(1.0, 0.0)),
        EveAtom(0.4, SuperpositionCoeffs(0.0, 1.0), SuperpositionCoeffs(0.0, 1.0)),
    )
    with pytest.raises(ValueError):
        EveStrategy(EveTargets.BOTH, bad)
    with pytest.raises(ValueError):
        Ensemble(((0.5, make_source_state()),))


def test_orthogonal_direction_is_orthogonal():
    rng = np.random.default_rng(71)
    for _ in range(20):
        u = random_direction(rng)
        v = orthogonal_direction(u)
        overlap = u.c0.conjugate() * v.c0 + u.c1.conjugate() * v.c1
        assert abs(overlap) < 1e-12
        assert abs(v.c0) ** 2 + abs(v.c1) ** 2 == pytest.approx(1.0, abs=1e-12)


def _two_step_qubit_projection(state, mode, d):
    """|u><u| on one mode as <u| onto the rest, then re-embedded along u."""
    rest = overlap_mode_qubit(state, mode, d.c0, d.c1)
    out = {}
    for occ, amp in rest.items():
        for level, coeff in ((0, d.c0), (1, d.c1)):
            if coeff != 0:
                full = occ[:mode] + (level,) + occ[mode:]
                out[full] = out.get(full, 0j) + coeff * amp
    return StateVector(state.mode_count, state.n_max, out)


def term_by_term_s_with_eve(strategy, alpha, beta, convention):
    """S after the channel, each of the six terms projected on its own.

    Per term: Bob's projector (if any), then Alice's, then <member|.>;
    the terms are summed in assembly order and weighted per member.
    """
    d_a = superposition_direction(Party.A, alpha, beta, convention)
    d_b = superposition_direction(Party.B, alpha, beta, convention)
    sup_a = partial(_two_step_qubit_projection, mode=0, d=d_a)
    sup_b = partial(_two_step_qubit_projection, mode=1, d=d_b)
    num_a = partial(project_mode_number, mode=0, n=1)
    num_b = partial(project_mode_number, mode=1, n=1)
    chains = (
        (sup_a, None),
        (None, sup_b),
        (sup_a, sup_b),
        (sup_a, num_b),
        (num_a, sup_b),
        (num_a, num_b),
    )
    total = 0.0
    for prob, member in eve_channel(strategy, make_source_state()).members:
        values = []
        for project_a, project_b in chains:
            projected = member
            if project_b is not None:
                projected = project_b(projected)
            if project_a is not None:
                projected = project_a(projected)
            values.append(inner_product(member, projected).real)
        total += prob * (values[0] + values[1] - values[2] - values[3] - values[4] + values[5])
    return total


EDGE_DIRECTIONS = (
    SuperpositionCoeffs(1.0, 0.0),
    SuperpositionCoeffs(0.0, 1.0),
    SuperpositionCoeffs(0.6, 0.8),
    SuperpositionCoeffs(INV_SQRT2, INV_SQRT2),
    SuperpositionCoeffs(INV_SQRT2, -INV_SQRT2),
    SuperpositionCoeffs(INV_SQRT2, 1j * INV_SQRT2),
    SuperpositionCoeffs(0.6j, -0.8),
)
EDGE_PAIRS = ((0.5, SQRT3_2), (0.0, 1.0), (1.0, 0.0), (INV_SQRT2, INV_SQRT2), (0.6, -0.8))


def test_s_with_eve_is_bit_identical_to_term_by_term_route():
    rng = np.random.default_rng(67)
    strategies = [IDENTITY_STRATEGY]
    for targets in (EveTargets.ARM_A, EveTargets.ARM_B, EveTargets.BOTH):
        for e_a in EDGE_DIRECTIONS:
            for e_b in EDGE_DIRECTIONS:
                strategies.append(EveStrategy(targets, (EveAtom(1.0, e_a, e_b),)))
    strategies += [random_strategy(rng) for _ in range(200)]
    for i, strategy in enumerate(strategies):
        if i % 3:
            alpha, beta = EDGE_PAIRS[i % len(EDGE_PAIRS)]
        else:
            alpha = math.sin(rng.uniform(0.0, math.pi / 2.0))
            beta = math.sqrt(1.0 - alpha * alpha)
        for convention in Convention:
            want = term_by_term_s_with_eve(strategy, alpha, beta, convention)
            assert s_with_eve(strategy, alpha, beta, convention) == want, (i, alpha, beta, convention)
