"""Classification verdicts: two-spin, family-level, and relation trichotomy."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from spincount.classify import (
    RelTag,
    TwoSpinTag,
    UpDownTag,
    classify_relations,
    classify_two_spin,
    classify_with_updown,
)
from spincount.funcs import (
    EQ,
    EQ3,
    IMP,
    NEQ,
    XOR3,
    PBFunction,
    SignedTable,
    binary,
    bit_flip,
    permute,
    support,
    unary,
)
from helpers import rand_binary, rand_positive_fraction, rand_product_type

# ---------------------------------------------------------------------------
# two-spin golden table

GOLDEN = [
    ((0, 1, 1, 0), TwoSpinTag.FP_TRIVIAL),
    ((1, 1, 0, 1), TwoSpinTag.BIS_EQUIVALENT),
    ((3, 4, 1, 2), TwoSpinTag.BIS_EQUIVALENT),
    ((2, 1, 1, 2), TwoSpinTag.FPRAS),
    ((1, 2, 2, 1), TwoSpinTag.NO_FPRAS),
    ((1, 2, 2, 3), TwoSpinTag.OPEN),
]


@pytest.mark.parametrize("table,tag", GOLDEN)
def test_two_spin_golden(table, tag):
    assert classify_two_spin(binary(*table)).tag is tag


def test_two_spin_evidence_fields():
    verdict = classify_two_spin(binary(1, 1, 0, 1))
    assert verdict.f01 == Fraction(-1, 4)
    assert verdict.f10 == Fraction(1, 4)
    assert verdict.lsm is True
    assert verdict.trivial is False


def test_two_spin_open_notes():
    symmetric = classify_two_spin(binary(1, 2, 2, 3))
    assert "symmetric" in symmetric.note
    skewed = classify_two_spin(binary(1, 2, 3, 5))
    assert skewed.tag is TwoSpinTag.OPEN
    assert "monotone" in skewed.note


def test_two_spin_rejects_signed_and_wrong_arity():
    with pytest.raises(ValueError, match="signed"):
        classify_two_spin(SignedTable(2, (1, -1, 0, 0)))
    with pytest.raises(ValueError, match="arity 2"):
        classify_two_spin(unary(1, 2))


def test_two_spin_tag_invariances():
    """Tag survives bit flip, argument swap, and positive scaling."""
    rng = random.Random(811)
    for _ in range(300):
        f = rand_binary(rng)
        tag = classify_two_spin(f).tag
        assert classify_two_spin(bit_flip(f)).tag is tag
        assert classify_two_spin(permute(f, (1, 0))).tag is tag
        scale = rand_positive_fraction(rng)
        scaled = PBFunction(2, tuple(scale * v for v in f.table))
        assert classify_two_spin(scaled).tag is tag


def test_two_spin_record_is_flat_strings():
    record = classify_two_spin(binary(2, 1, 1, 2)).record()
    assert record[0] == ("tag", "FPRAS")
    assert all(isinstance(k, str) and isinstance(v, str) for k, v in record)


# ---------------------------------------------------------------------------
# family-level classification under both pinning surrogates


def test_updown_product_type_family_is_fp():
    rng = random.Random(19)
    family = [rand_product_type(rng, rng.randint(1, 3)) for _ in range(4)]
    verdict = classify_with_updown(family)
    assert verdict.tag is UpDownTag.FP
    assert verdict.all_product_type is True


def test_updown_lsm_family_is_bis_hard():
    verdict = classify_with_updown([EQ3, IMP])
    assert verdict.tag is UpDownTag.BIS_HARD
    assert verdict.all_lsm is True
    assert verdict.bis_easy is False


def test_updown_bis_easy_flag_tracks_arity():
    verdict = classify_with_updown([IMP, binary(2, 1, 1, 2)])
    assert verdict.tag is UpDownTag.BIS_HARD
    assert verdict.bis_easy is True


def test_updown_nonlsm_family_is_hard():
    verdict = classify_with_updown([binary(1, 2, 2, 1)])
    assert verdict.tag is UpDownTag.NO_FPRAS
    assert verdict.all_lsm is False


def test_updown_empty_family_is_fp():
    assert classify_with_updown([]).tag is UpDownTag.FP


def test_updown_record_frozen():
    assert classify_with_updown([binary(2, 1, 1, 2)]).record() == [
        ("tag", "BIS_hard"),
        ("bis_easy", "true"),
        ("all_product_type", "false"),
        ("all_lsm", "true"),
    ]


# ---------------------------------------------------------------------------
# relation trichotomy


def test_relations_affine_branch():
    verdict = classify_relations([support(XOR3), support(EQ), support(NEQ)])
    assert verdict.tag is RelTag.AFFINE_FP
    assert verdict.all_affine is True


def test_relations_implication_branch():
    verdict = classify_relations([support(IMP), support(EQ3)])
    assert verdict.tag is RelTag.IM2_BIS
    assert verdict.all_affine is False
    assert verdict.all_im2 is True


def test_relations_record_frozen():
    assert classify_relations([support(EQ), support(IMP)]).record() == [
        ("tag", "IM2_BIS"),
        ("all_affine", "false"),
        ("all_im2", "true"),
    ]


def test_relations_sat_branch():
    verdict = classify_relations([support(binary(1, 1, 1, 0))])
    assert verdict.tag is RelTag.SAT_EQUIVALENT


def test_relations_affine_wins_ties():
    """A family both affine and conjunction/disjunction closed reports affine."""
    verdict = classify_relations([support(EQ)])
    assert verdict.tag is RelTag.AFFINE_FP
    assert verdict.all_im2 is True
