"""Function algebra: tables, Fourier transform, operators, and predicates."""

from __future__ import annotations

import hashlib
import random
import time
from fractions import Fraction

import pytest

from spincount.classify import RelTag, classify_relations, classify_two_spin
from spincount.funcs import (
    DELTA0,
    DELTA1,
    EQ,
    EQ3,
    IMP,
    NEQ,
    XOR3,
    CapacityError,
    PBFunction,
    SignedTable,
    add_fictitious,
    binary,
    bit_flip,
    bits_of,
    fourier,
    frac,
    identify,
    in_cp,
    in_sdp3,
    index_of,
    inverse_fourier,
    irredundant,
    is_affine_relation,
    is_log_modular,
    is_lsm,
    is_monotone,
    is_monotone_on_support,
    is_pin_monotone,
    is_product_type,
    is_support_join_closed,
    is_trivial_binary,
    permute,
    pin,
    product,
    product_form,
    property_report,
    pure_value,
    sum_out,
    support,
    unary,
)
from spincount.gadgets import pinning_analysis
from helpers import (
    first_primes,
    fourier_by_definition,
    log_modular_by_definition,
    lsm_by_definition,
    lsm_prime_table,
    monotone_by_definition,
    monotone_on_support_by_definition,
    rand_binary,
    rand_function,
    rand_monotone,
    rand_order_table,
    rand_product_type,
    trivial_binary_by_definition,
)

# ---------------------------------------------------------------------------
# Indexing and construction


def test_index_convention_first_bit_most_significant():
    assert index_of((1, 0, 0)) == 4
    assert index_of((0, 0, 1)) == 1
    for i in range(16):
        assert index_of(bits_of(i, 4)) == i


def test_binary_matrix_order():
    f = binary(3, 4, 1, 2)
    assert f((0, 0)) == 3 and f((0, 1)) == 4 and f((1, 0)) == 1 and f((1, 1)) == 2


def test_negative_value_rejected():
    with pytest.raises(ValueError):
        PBFunction.from_values(1, (1, -1))


@pytest.mark.parametrize("text", ["0.1", "1e-3", "1_000", " 3 "])
def test_frac_refuses_float_like_strings(text):
    """A string must be an integer or p/q literal, as the file format and the CLI read it."""
    with pytest.raises(ValueError, match="bad rational literal"):
        frac(text)


@pytest.mark.parametrize("value, expected", [("2/6", Fraction(1, 3)), ("-7", -7), (3, 3), (True, 1)])
def test_frac_coerces_exact_values(value, expected):
    out = frac(value)
    assert type(out) is Fraction and out == expected


def test_table_kinds_with_equal_fields_differ():
    assert PBFunction(1, (1, 2)) != SignedTable(1, (1, 2))


def test_arity_cap_enforced():
    with pytest.raises(CapacityError):
        PBFunction(17, (Fraction(0),) * (1 << 17))


def test_constants():
    assert EQ.table == (1, 0, 0, 1)
    assert NEQ.table == (0, 1, 1, 0)
    assert IMP.table == (1, 1, 0, 1)
    assert DELTA0.table == (1, 0) and DELTA1.table == (0, 1)
    assert EQ3.table == (1, 0, 0, 0, 0, 0, 0, 1)
    assert XOR3.table == (1, 0, 0, 1, 0, 1, 1, 0)


# ---------------------------------------------------------------------------
# Fourier transform


def test_fourier_xor3_is_half_eq3():
    assert fourier(XOR3).table == tuple(v / 2 for v in EQ3.table)


def test_fourier_eq3_is_quarter_xor3():
    assert fourier(EQ3).table == tuple(v / 4 for v in XOR3.table)


def test_fourier_round_trip_random():
    rng = random.Random(101)
    for _ in range(100):
        f = rand_function(rng, rng.randint(0, 5))
        back = inverse_fourier(fourier(f))
        assert back.table == f.table


def test_fourier_of_unary():
    u = unary(3, 1)
    assert fourier(u).table == (Fraction(2), Fraction(1))


def test_inverse_fourier_accepts_signed():
    coeffs = SignedTable.from_values(2, (Fraction(3, 2), 0, 0, Fraction(1, 2)))
    assert inverse_fourier(coeffs).table == (2, 1, 1, 2)


_PRIMES = first_primes(300)


def _mixed_table(rng: random.Random, arity: int, signed: bool = False) -> list[Fraction]:
    """Seeded entries, about a quarter zero, over small denominators, 2**60 and
    primes that are distinct within the table."""
    values = []
    for prime in rng.sample(_PRIMES, 1 << arity):
        den = rng.choice((1, rng.randint(2, 6), prime, prime, 2**60))
        num = 0 if rng.random() < 0.25 else rng.randint(1, 50)
        values.append(Fraction(-num if signed and rng.random() < 0.5 else num, den))
    return values


def _from_coefficients(coeffs: list[Fraction], arity: int) -> list[Fraction]:
    """The table whose Fourier table is coeffs, by the definition."""
    return [(1 << arity) * v for v in fourier_by_definition(coeffs, arity)]


def _coefficients(rng: random.Random, arity: int, negative_at: int | None = None) -> list[Fraction]:
    """Nonnegative coefficients, about half exactly zero, with an optional tiny
    negative one; the constant term dominates, so the table they give is nonnegative."""
    coeffs = [
        Fraction(rng.randint(1, 9) if rng.random() < 0.5 else 0, rng.choice((1, 3, 2**60)))
        for _ in range(1 << arity)
    ]
    if negative_at is not None:
        coeffs[negative_at] = Fraction(-1, rng.choice((2**60, rng.choice(_PRIMES))))
    coeffs[0] = sum(abs(v) for v in coeffs[1:]) + Fraction(rng.randint(0, 1), 7)
    return coeffs


@pytest.mark.parametrize("arity", range(9))
def test_fourier_matches_definition_on_mixed_denominators(arity):
    rng = random.Random(1200 + arity)
    for _ in range(max(1, 6 - arity)):
        f = PBFunction.from_values(arity, _mixed_table(rng, arity))
        assert fourier(f).table == fourier_by_definition(f.table, arity)
        assert inverse_fourier(fourier(f)).table == f.table


@pytest.mark.parametrize("arity", range(9))
def test_inverse_fourier_matches_definition_on_signed_tables(arity):
    rng = random.Random(1300 + arity)
    signed = SignedTable.from_values(arity, _mixed_table(rng, arity, signed=True))
    coeffs = fourier_by_definition(signed.table, arity)
    assert inverse_fourier(signed).table == tuple((1 << arity) * v for v in coeffs)
    assert fourier(signed).table == coeffs
    assert fourier(inverse_fourier(signed)).table == signed.table


def test_in_cp_agrees_with_definition_signs():
    rng = random.Random(1400)
    for arity in range(7):
        cases = [
            PBFunction.from_values(arity, _mixed_table(rng, arity)),
            SignedTable.from_values(arity, _mixed_table(rng, arity, signed=True)),
        ]
        zeros = PBFunction.from_values(arity, _from_coefficients(_coefficients(rng, arity), arity))
        assert in_cp(zeros)
        cases.append(zeros)
        if arity:
            coeffs = _coefficients(rng, arity, negative_at=rng.randrange(1, 1 << arity))
            one_negative = PBFunction.from_values(arity, _from_coefficients(coeffs, arity))
            assert not in_cp(one_negative)
            cases.append(one_negative)
        for f in cases:
            assert in_cp(f) == all(v >= 0 for v in fourier_by_definition(f.table, f.arity))


def test_in_sdp3_agrees_with_definition_signs():
    rng = random.Random(1500)
    odd = [i for i in range(8) if bin(i).count("1") % 2]
    even = [i for i in range(1, 8) if i not in odd]

    def by_definition(f):
        coeffs = fourier_by_definition(f.table, 3)
        return all(coeffs[i] == 0 if i in odd else coeffs[i] >= 0 for i in range(8))

    for _ in range(20):
        f = PBFunction.from_values(3, _mixed_table(rng, 3))
        assert in_sdp3(f) == by_definition(f)
        coeffs = _coefficients(rng, 3)
        for i in odd:
            coeffs[i] = Fraction(0)
        carrier = PBFunction.from_values(3, _from_coefficients(coeffs, 3))
        assert in_sdp3(carrier) and by_definition(carrier)
        leak = Fraction(1, rng.choice((2**60, rng.choice(_PRIMES))))
        leaky = list(coeffs)
        leaky[rng.choice(odd)] = leak
        leaky[0] += leak
        negative = _coefficients(rng, 3, negative_at=rng.choice(even))
        for i in odd:
            negative[i] = Fraction(0)
        for bad in (leaky, negative):
            g = PBFunction.from_values(3, _from_coefficients(bad, 3))
            assert not in_sdp3(g) and not by_definition(g)
    assert not in_sdp3(PBFunction.from_values(2, (1, 0, 0, 1)))


def test_in_cp_fast_on_distinct_prime_denominators():
    rng = random.Random(1600)
    f = PBFunction.from_values(11, [Fraction(rng.randrange(1, p), p) for p in first_primes(2048)])
    start = time.perf_counter()
    in_cp(f)
    assert time.perf_counter() - start <= 0.5


# ---------------------------------------------------------------------------
# Operators


def test_bit_flip_reverses_table_order_respecting_bit_positions():
    f = binary(1, 2, 3, 4)
    assert bit_flip(f).table == (4, 3, 2, 1)


def test_bit_flip_equals_its_checked_rebuild():
    """bit_flip builds its result unchecked; it equals the checked constructor's."""
    for f in _ORDER_TABLES:
        flipped = bit_flip(f)
        rebuilt = PBFunction(f.arity, tuple(reversed(f.table)))
        assert flipped == rebuilt and type(flipped) is PBFunction
        assert hash(flipped) == hash(rebuilt)
        assert bit_flip(flipped) == f


@pytest.mark.parametrize("kind", [PBFunction, SignedTable])
def test_public_constructors_still_check(kind):
    with pytest.raises(ValueError, match="arity"):
        kind(-1, (Fraction(1),))
    with pytest.raises(ValueError, match="arity"):
        kind(1.0, (Fraction(1), Fraction(2)))
    with pytest.raises(ValueError, match="needs 4 values, got 3"):
        kind(2, (Fraction(1),) * 3)
    with pytest.raises(ValueError, match="needs 2 values, got 4"):
        kind(1, (Fraction(1),) * 4)
    if kind is PBFunction:
        with pytest.raises(ValueError, match="negative entry"):
            kind(2, (Fraction(1), Fraction(0), Fraction(-1, 3), Fraction(2)))
    else:
        assert kind(1, (Fraction(-1), Fraction(2))).table == (-1, 2)


def test_permute_swaps_arguments():
    f = binary(1, 2, 3, 4)
    assert permute(f, (1, 0)).table == (1, 3, 2, 4)


def test_product_is_pointwise_over_a_shared_scope():
    h = product(unary(2, 3), unary(5, 7))
    assert h.table == (10, 21)
    with pytest.raises(ValueError):
        product(unary(1, 1), EQ)


def test_sum_out_marginalizes():
    f = binary(1, 2, 3, 4)
    assert sum_out(f, 0).table == (4, 6)
    assert sum_out(f, 1).table == (3, 7)


def test_pin_fixes_a_coordinate():
    f = binary(1, 2, 3, 4)
    assert pin(f, 0, 1).table == (3, 4)
    assert pin(f, 1, 0).table == (1, 3)


def test_add_fictitious_then_sum_out_doubles():
    rng = random.Random(7)
    f = rand_function(rng, 2)
    g = add_fictitious(f)
    assert g.arity == 3
    assert sum_out(g, g.arity - 1).table == tuple(2 * v for v in f.table)


def test_identify_merges_coordinates():
    f = PBFunction.from_values(3, range(8))
    g = identify(f, [(0, 2), (1,)])
    assert g.arity == 2
    assert g.table == (f((0, 0, 0)), f((0, 1, 0)), f((1, 0, 1)), f((1, 1, 1)))


def test_operator_random_consistency():
    """Pointwise re-evaluation agrees with the table operators."""
    rng = random.Random(13)
    for _ in range(50):
        f = rand_function(rng, 3)
        perm = [0, 1, 2]
        rng.shuffle(perm)
        g = permute(f, perm)
        for i in range(8):
            bits = bits_of(i, 3)
            assert g(bits) == f(tuple(bits[perm[j]] for j in range(3)))
        flipped = bit_flip(f)
        for i in range(8):
            bits = bits_of(i, 3)
            assert flipped(bits) == f(tuple(1 - b for b in bits))


# ---------------------------------------------------------------------------
# Support relations


def test_support_and_relation_class():
    assert classify_relations([support(EQ)]).tag is RelTag.AFFINE_FP
    assert classify_relations([support(IMP)]).tag is RelTag.IM2_BIS
    nae = PBFunction.from_values(3, (0, 1, 1, 1, 1, 1, 1, 0))
    assert classify_relations([support(nae)]).tag is RelTag.SAT_EQUIVALENT


# ---------------------------------------------------------------------------
# Predicates


def test_lsm_and_log_modular():
    assert is_lsm(binary(2, 1, 1, 2))
    assert not is_lsm(binary(1, 2, 2, 1))
    assert is_log_modular(product(unary(2, 3), unary(1, 5)))
    assert not is_log_modular(binary(2, 1, 1, 2))


def test_monotone():
    assert is_monotone(IMP) is False
    assert is_monotone(binary(1, 1, 1, 2))
    assert is_monotone(DELTA1)
    assert not is_monotone(DELTA0)


def test_in_cp_examples():
    assert in_cp(binary(2, 1, 1, 2))
    assert not in_cp(binary(1, 2, 2, 1))
    assert in_cp(XOR3)


def test_in_sdp3():
    assert in_sdp3(EQ3)
    assert in_sdp3(XOR3) is False  # fourier(XOR3) has mass at the odd-weight index 111


def test_is_trivial_binary():
    assert is_trivial_binary(EQ)
    assert is_trivial_binary(NEQ)
    assert is_trivial_binary(binary(2, 3, 4, 6))
    assert not is_trivial_binary(binary(2, 1, 1, 2))
    with pytest.raises(ValueError):
        is_trivial_binary(unary(1, 1))


def test_property_report_record_keys_stable():
    keys = [k for k, _ in property_report(EQ).record()]
    assert keys[0] == "arity"
    assert "lsm" in keys and "in_cp" in keys and "in_sdp3" in keys
    f = PBFunction.from_values(3, ("1/2", 0, 3, "3/7", 1, 1, "5/2", 4))
    assert " ".join(f"{k}={v}" for k, v in property_report(f).record()) == (
        "arity=3 permissive=false pure=false pure_value=none lsm=false log_modular=false "
        "monotone=false monotone_on_support=false support_join_closed=true affine_support=false "
        "in_cp=false in_sdp3=false"
    )


def _order_tables() -> list[PBFunction]:
    """Seeded tables of arity 0-5 for the order predicates: mixed tables with
    zeros, repeats and prime denominators, and monotone, product-type and
    log-supermodular ones, so that every predicate meets both answers."""
    rng = random.Random(1616)
    primes = first_primes(64)
    tables = []
    for arity in range(6):
        for _ in range(30):
            tables.append(rand_order_table(rng, arity))
            tables.append(rand_monotone(rng, arity))
            tables.append(rand_product_type(rng, arity))
            tables.append(lsm_prime_table(arity, rng.sample(primes, 1 << arity)))
    return tables


_ORDER_TABLES = _order_tables()


def test_order_predicates_match_their_definitions():
    pairs = [
        (is_lsm, lsm_by_definition),
        (is_log_modular, log_modular_by_definition),
        (is_monotone, monotone_by_definition),
        (is_monotone_on_support, monotone_on_support_by_definition),
    ]
    seen = {name: set() for name in ("lsm", "log_modular", "monotone", "monotone_on_support")}
    for f in _ORDER_TABLES:
        for (predicate, definition), answers in zip(pairs, seen.values()):
            expected = definition(f)
            assert predicate(f) is expected, (predicate.__name__, f.table)
            answers.add(expected)
        if f.arity == 2:
            assert is_trivial_binary(f) is trivial_binary_by_definition(f), f.table
    assert all(answers == {True, False} for answers in seen.values()), seen


def test_classify_two_spin_reads_the_fourier_table():
    rng = random.Random(1617)
    for _ in range(300):
        f = rand_binary(rng)
        verdict = classify_two_spin(f)
        coeffs = fourier(f).table
        assert (verdict.f01, verdict.f10) == (coeffs[1], coeffs[2])
        assert verdict.trivial is trivial_binary_by_definition(f)


def test_predicate_outputs_frozen():
    """Digest of property reports, two-spin verdicts and pinning verdicts over
    the seeded tables, as computed by the Fraction-product predicates."""
    digest = hashlib.sha256()
    for f in _ORDER_TABLES:
        digest.update(repr(property_report(f).record()).encode())
        if f.arity == 2:
            digest.update(repr(classify_two_spin(f).record()).encode())
    small = [f for f in _ORDER_TABLES if 1 <= f.arity <= 3]
    rng = random.Random(1618)
    for _ in range(300):
        digest.update(repr(pinning_analysis(rng.sample(small, rng.randint(1, 3)))).encode())
    assert digest.hexdigest() == "8b26da6ae9600d2c7a53f0da2783b88f497ddcb6e60d701c22be46236d04ec2f"


# Beside the seeded tables: arities 0 and 1, the all-zero table and one nonzero entry.
_EDGE_TABLES = [
    PBFunction.from_values(0, ("3/4",)),
    PBFunction.from_values(0, (0,)),
    unary("2/3", 0),
    PBFunction.from_values(3, (0,) * 8),
    PBFunction.from_values(3, (0, 0, 0, 0, 0, "5/7", 0, 0)),
]


def test_property_report_agrees_with_each_predicate():
    """The report reads a table once and the public predicates each read it
    again; every field must give the predicate's answer."""
    for f in _ORDER_TABLES + _EDGE_TABLES:
        report = property_report(f)
        assert report.lsm is is_lsm(f), f.table
        assert report.log_modular is is_log_modular(f), f.table
        assert report.monotone is is_monotone(f), f.table
        assert report.monotone_on_support is is_monotone_on_support(f), f.table
        assert report.support_join_closed is is_support_join_closed(f), f.table
        assert report.affine_support is is_affine_relation(support(f)), f.table
        assert report.in_cp is in_cp(f), f.table
        assert report.in_sdp3 is in_sdp3(f), f.table
        assert (report.pure, report.pure_value) == pure_value(f), f.table
        if f.arity == 2:
            verdict = classify_two_spin(f)
            assert verdict.lsm is is_lsm(f), f.table
            assert verdict.monotone is is_monotone(f), f.table
            assert verdict.flip_monotone is is_monotone(bit_flip(f)), f.table
            assert verdict.trivial is report.trivial is is_trivial_binary(f), f.table


def test_lsm_fast_on_distinct_prime_denominators():
    """Cross-multiplied entries stay the size of the entries; scaling to the
    lcm of 512 prime denominators made every product thousands of bits long."""
    f = lsm_prime_table(9, first_primes(512))
    start = time.perf_counter()
    report = property_report(f)
    assert time.perf_counter() - start <= 0.5
    assert report.lsm and not report.log_modular and report.monotone


# ---------------------------------------------------------------------------
# Irredundant form and pin-monotonicity


def test_irredundant_merges_support_equal_coordinates():
    g, partition = irredundant(EQ3)
    assert g.table == (1, 1)
    assert partition == ((0, 1, 2),)
    f = binary(1, 2, 3, 4)
    same, singles = irredundant(f)
    assert same.table == f.table
    assert singles == ((0,), (1,))


def test_pin_monotone_basics():
    assert is_pin_monotone(DELTA0)
    assert is_pin_monotone(DELTA1)
    assert is_pin_monotone(binary(1, 1, 1, 2))
    assert not is_pin_monotone(unary(3, 1))


def test_pin_monotone_closure_small():
    rng = random.Random(23)
    for _ in range(30):
        f = rand_monotone(rng, rng.randint(1, 3))
        assert is_pin_monotone(f)


# ---------------------------------------------------------------------------
# Product form


def test_product_form_round_trip():
    rng = random.Random(31)
    for _ in range(40):
        f = rand_product_type(rng, rng.randint(1, 4))
        form = product_form(f)
        assert form is not None
        assert form.as_function().table == f.table


def test_is_product_type_rejections():
    assert not is_product_type(XOR3)
    assert not is_product_type(IMP)
    assert not is_product_type(binary(1, 1, 1, 0))


def test_is_product_type_acceptances():
    assert is_product_type(EQ)
    assert is_product_type(NEQ)
    assert is_product_type(product(unary(2, 3), unary(1, 5)))
