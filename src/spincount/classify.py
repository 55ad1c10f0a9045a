"""Hardness verdicts for weighted Boolean counting problems.

Three classifiers live here.  ``classify_two_spin`` decides a single binary
function: polynomial time for the trivial shapes, #BIS-equivalent or FPRAS in
the ferromagnetic (log-supermodular) region depending on the signs of the two
middle Fourier coefficients, and NP-hardness evidence otherwise.
``classify_with_updown`` decides a finite family on the assumption that both
pinning surrogates are available.  ``classify_relations`` is the affine /
conjunction-closed / general trichotomy over plain Boolean relations.

Verdicts are labels with evidence, not proof objects; none of the classifiers
emits a reduction.  Signed tables are rejected everywhere in this module.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .funcs import (
    PBFunction,
    SignedTable,
    SupportRelation,
    _lattice_order,
    _monotone_on,
    _ratios,
    _trivial_binary,
    _wht,
    is_and_or_closed,
    is_affine_relation,
    is_lsm,
    is_product_type,
    record_fields,
)

__all__ = [
    "TwoSpinTag",
    "TwoSpinVerdict",
    "classify_two_spin",
    "UpDownTag",
    "UpDownVerdict",
    "classify_with_updown",
    "RelTag",
    "RelTrichotomy",
    "classify_relations",
]


def _reject_signed(f: object) -> None:
    if isinstance(f, SignedTable):
        raise ValueError("signed tables cannot be classified; classifiers take PBFunction inputs")


class TwoSpinTag(enum.Enum):
    FP_TRIVIAL = "FP_Trivial"
    BIS_EQUIVALENT = "BIS_Equivalent"
    FPRAS = "FPRAS"
    NO_FPRAS = "NoFPRAS_unless_NP_eq_RP"
    OPEN = "Open"


@dataclass(frozen=True)
class TwoSpinVerdict:
    """Verdict for one binary function, with the decisive evidence."""

    tag: TwoSpinTag
    trivial: bool
    lsm: bool
    f01: Fraction
    f10: Fraction
    monotone: bool
    flip_monotone: bool
    note: str = ""

    def record(self) -> list[tuple[str, str]]:
        return record_fields(self)


def classify_two_spin(f: PBFunction) -> TwoSpinVerdict:
    """Classify a binary function by exact table predicates.

    Branch order: trivial, then log-supermodular split on the sign of
    f01*f10, then the non-monotonicity test on the function and its bit flip.
    The tag is invariant under bit flip, argument swap, and positive scaling.
    """
    _reject_signed(f)
    if f.arity != 2:
        raise ValueError(f"two-spin classification needs arity 2, got {f.arity}")
    # The two middle Fourier entries, ints[x] / (4 * scale), from the integer transform.
    ints, scale = _wht(f.table)
    f01 = Fraction(ints[1], 4 * scale)
    f10 = Fraction(ints[2], 4 * scale)
    # One read of the ratios for the four order tests; the flip's are reversed.
    p, q = _ratios(f)
    trivial = _trivial_binary(p, q)
    lsm, _ = _lattice_order(p, q)
    monotone = _monotone_on(p, q, range(4))
    flip_monotone = _monotone_on(p[::-1], q[::-1], range(4))
    note = ""
    if trivial:
        tag = TwoSpinTag.FP_TRIVIAL
    elif lsm:
        if ints[1] * ints[2] < 0:
            tag = TwoSpinTag.BIS_EQUIVALENT
        else:
            tag = TwoSpinTag.FPRAS
            # Consistency: the FPRAS region sits inside the nonnegative
            # Fourier cone after at most one bit flip, which negates the
            # odd-weight coefficients.
            assert min(ints) >= 0 or min(ints[0], -ints[1], -ints[2], ints[3]) >= 0
    elif not monotone and not flip_monotone:
        tag = TwoSpinTag.NO_FPRAS
    else:
        tag = TwoSpinTag.OPEN
        if f.table[1] == f.table[2]:
            note = "symmetric antiferromagnetic; settled by uniqueness methods outside this library"
        else:
            note = "monotone antiferromagnetic; no classification known here"
    return TwoSpinVerdict(
        tag=tag,
        trivial=trivial,
        lsm=lsm,
        f01=f01,
        f10=f10,
        monotone=monotone,
        flip_monotone=flip_monotone,
        note=note,
    )


class UpDownTag(enum.Enum):
    FP = "FP"
    BIS_HARD = "BIS_hard"
    NO_FPRAS = "NoFPRAS_unless_NP_eq_RP"


@dataclass(frozen=True)
class UpDownVerdict:
    """Verdict for a finite family granted both pinning surrogates."""

    tag: UpDownTag
    bis_easy: bool
    all_product_type: bool
    all_lsm: bool

    def record(self) -> list[tuple[str, str]]:
        return record_fields(self)


def classify_with_updown(family: Iterable[PBFunction]) -> UpDownVerdict:
    """Classify a finite family: product-type, log-supermodular, or neither.

    ``bis_easy`` records whether every arity is at most 2; in the BIS_hard
    region that bound keeps each individual function approximable even though
    some finite subset of the family is #BIS-hard.
    """
    funcs = tuple(family)
    for f in funcs:
        _reject_signed(f)
    all_product = all(is_product_type(f) for f in funcs)
    all_lsm = all(is_lsm(f) for f in funcs)
    bis_easy = all(f.arity <= 2 for f in funcs)
    if all_product:
        tag = UpDownTag.FP
    elif all_lsm:
        tag = UpDownTag.BIS_HARD
    else:
        tag = UpDownTag.NO_FPRAS
    return UpDownVerdict(tag=tag, bis_easy=bis_easy, all_product_type=all_product, all_lsm=all_lsm)


class RelTag(enum.Enum):
    AFFINE_FP = "Affine_FP"
    IM2_BIS = "IM2_BIS"
    SAT_EQUIVALENT = "SAT_equivalent"


@dataclass(frozen=True)
class RelTrichotomy:
    tag: RelTag
    all_affine: bool
    all_im2: bool

    def record(self) -> list[tuple[str, str]]:
        return record_fields(self)


def classify_relations(relations: Iterable[SupportRelation]) -> RelTrichotomy:
    """Trichotomy over Boolean relations.

    The affine branch is checked first: a family of relations that are all
    affine and all conjunction/disjunction closed still reports Affine_FP.
    """
    rels = tuple(relations)
    all_affine = all(is_affine_relation(r) for r in rels)
    all_im2 = all(is_and_or_closed(r) for r in rels)
    if all_affine:
        tag = RelTag.AFFINE_FP
    elif all_im2:
        tag = RelTag.IM2_BIS
    else:
        tag = RelTag.SAT_EQUIVALENT
    return RelTrichotomy(tag=tag, all_affine=all_affine, all_im2=all_im2)
