"""Expression DSL: accepted forms, error positions, and the rendered
round trip."""

import random

import pytest

from scdr.suites import random_state
from scdr.parser import (ParseError, looks_like_query, parse_bracket_query,
                         parse_expression)
from scdr.scalars import QI, CoeffFunction
from scdr.terms import (Algebra, apply_S, apply_T, nf_add, nf_mul,
                        nf_scale, render_nf)


def norm(text, alg):
    return parse_expression(text, alg.dim, alg.cutoff)


@pytest.fixture
def alg():
    return Algebra(2, 6)


def test_generators(alg):
    assert norm("B1", alg) == alg.B(1)
    assert norm("Psi2", alg) == alg.Psi(2)


def test_vacuum_and_scalar_multiples(alg):
    assert norm("vac", alg) == alg.one()
    assert norm("3", alg) == nf_scale(alg.one(), QI(3))
    assert norm("1/2", alg) == nf_scale(alg.one(), QI(1) / QI(2))
    assert norm("i", alg) == nf_scale(alg.one(), QI(0, 1))
    assert norm("2 * i * B1", alg) == nf_scale(alg.B(1), QI(0, 2))
    assert norm("3/2 * Psi1", alg) == nf_scale(alg.Psi(1), QI(3) / QI(2))
    assert norm("2 * 3", alg) == nf_scale(alg.one(), QI(6))


def test_derivatives_bind_tightly(alg):
    assert norm("S B1", alg) == alg.SB(1)
    assert norm("S(B1)", alg) == alg.SB(1)
    assert norm("T S B1", alg) == apply_T(alg.SB(1))
    assert norm("S S B1", alg) == alg.TB(1)
    # parenthesised argument may be a sum
    assert norm("S(B1 + B2)", alg) == nf_add(alg.SB(1), alg.SB(2))
    assert norm("S :B1 Psi1:", alg) == \
        apply_S(nf_mul(alg.B(1), alg.Psi(1)))


def test_product_chains_left_nested(alg):
    got = norm(":B1 Psi1 B2:", alg)
    want = nf_mul(nf_mul(alg.B(1), alg.Psi(1)), alg.B(2))
    assert got == want
    assert norm(":vac B1:", alg) == alg.B(1)
    assert norm(":S B1 T Psi2:", alg) == \
        nf_mul(alg.SB(1), apply_T(alg.Psi(2)))


def test_sums_and_signs(alg):
    got = norm("-B1 + 2 * Psi1 - vac", alg)
    want = nf_add(nf_add(nf_scale(alg.B(1), -1),
                         nf_scale(alg.Psi(1), QI(2))),
                  nf_scale(alg.one(), -1))
    assert got == want


def test_coefficient_literal(alg):
    got = norm('f{"2,0": "3", "0,1": "-1/2"}', alg)
    cf = CoeffFunction(2, 6, {(2, 0): QI(3), (0, 1): QI(-1) / QI(2)})
    assert got == alg.coeff_nf(cf)
    assert norm('f{}', alg).is_zero()
    assert norm('f{"1,1": "1 + i"}', alg) == \
        alg.coeff_nf(CoeffFunction(2, 6, {(1, 1): QI(1, 1)}))


def test_query_form(alg):
    left, right = parse_bracket_query("[S B1 _ :B2 Psi2:]", 2, 6)
    assert left == alg.SB(1)
    assert right == nf_mul(alg.B(2), alg.Psi(2))
    assert looks_like_query("  [B1 _ B1]")
    assert not looks_like_query(":B1 Psi1:")


@pytest.mark.parametrize("text,pos", [
    ("B0", 0),
    ("B3", 0),
    ("Psi9", 0),
    ("B1 B1", 3),
    ("(B1)", 0),
    (":B1", 3),
    ("S(B1", 4),
])
def test_error_positions(alg, text, pos):
    with pytest.raises(ParseError) as err:
        parse_expression(text, alg.dim, alg.cutoff)
    assert err.value.position == pos


def test_unexpected_character(alg):
    with pytest.raises(ParseError):
        parse_expression("B1 @ B2", alg.dim, alg.cutoff)


def test_literal_arity_checked(alg):
    with pytest.raises(ParseError):
        parse_expression('f{"1": "1"}', alg.dim, alg.cutoff)


def test_literal_value_checked(alg):
    with pytest.raises(ValueError):
        parse_expression('f{"1,0": "frog"}', alg.dim, alg.cutoff)


def test_query_needs_both_slots(alg):
    with pytest.raises(ParseError):
        parse_bracket_query("[B1 Psi1]", alg.dim, alg.cutoff)


def test_render_round_trip_fixed_states(alg):
    rng = random.Random(31337)
    for _ in range(25):
        s = random_state(rng, alg, rng.randrange(2))
        text = render_nf(s)
        again = norm(text, alg)
        assert again == s, text


def test_render_round_trip_with_imaginary_coefficients(alg):
    s = nf_scale(nf_mul(alg.SB(1), alg.Psi(2)), QI(0, -3))
    assert norm(render_nf(s), alg) == s


@pytest.mark.parametrize("q,scalar,monomial", [
    (QI(0, -1), "-i", "-i * T B1"),
    (QI(1, -1), "1 - i", "T B1 - i * T B1"),
    (QI(0, 1), "i", "i * T B1"),
    (QI(-1), "-1", "-T B1"),
    (QI(0, -2), "-2 * i", "-2 * i * T B1"),
    (QI(-1, 1), "-1 + i", "-T B1 + i * T B1")])
def test_a_scalar_renders_its_sign_in_one_form(alg, q, scalar, monomial):
    # -i prints as i does, with the sign in front
    for state, text in ((alg.one(), scalar), (alg.TB(1), monomial)):
        s = nf_scale(state, q)
        assert render_nf(s) == text
        assert norm(text, alg) == s
