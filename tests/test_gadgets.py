"""Gadget constructions: pps formulas, symmetrization, up/down unaries, pinning."""

from __future__ import annotations

import dataclasses
import hashlib
import random
import time
import tracemalloc
from fractions import Fraction

import pytest

from spincount import funcs, gadgets, instances
from spincount.funcs import (
    ARITY_CAP,
    DELTA0,
    DELTA1,
    EQ3,
    IMP,
    CapacityError,
    PBFunction,
    SignedTable,
    binary,
    is_decreasing_permissive_unary,
    is_increasing_permissive_unary,
    is_lsm,
    unary,
)
from spincount.gadgets import (
    GadgetError,
    PinningTag,
    PpsFormula,
    approx_pin,
    eval_pps,
    extract_nonlsm_binary,
    make_up_down,
    normalize_unary,
    parse_pps,
    pinning_analysis,
    serialize_pps,
    symmetrize,
)
from helpers import rand_function

# ---------------------------------------------------------------------------
# pps formulas


def test_eval_pps_sum_over_bound_variable():
    formula = PpsFormula(1, 1, (("f", (0, 1)),))
    out = eval_pps(formula, {"f": binary(1, 2, 3, 4)})
    assert out.table == (3, 7)


def test_pps_serialize_parse_round_trip():
    formula = PpsFormula(2, 1, (("f", (0, 2)), ("g", (2, 1))))
    text = serialize_pps(formula)
    assert text == "pps 2 1 ; f v0 v2 ; g v2 v1"
    assert parse_pps(text) == formula


def test_eval_pps_rejects_unknown_function():
    with pytest.raises(ValueError):
        eval_pps(PpsFormula(1, 0, (("nope", (0,)),)), {})


def test_eval_pps_rejects_a_signed_atom():
    """eval_pps builds its output unchecked, so a signed atom is refused at the door."""
    with pytest.raises(ValueError, match="not a PBFunction"):
        eval_pps(PpsFormula(1, 0, (("s", (0,)),)), {"s": SignedTable(1, (1, -1))})


def test_pinning_unaries_equal_their_checked_rebuilds():
    """pinning_analysis builds its unaries unchecked, through eval_pps, the chain
    pairs and bit flips; each equals the checked constructor's."""
    rng = random.Random(1001)
    cases = set()
    for _ in range(600):
        family = [rand_function(rng, rng.randint(1, 3), rng.randint(0, 3)) for _ in range(rng.randint(1, 3))]
        verdict = pinning_analysis(family)
        if verdict.tag is PinningTag.BOTH_UNARIES:
            cases.add(verdict.case)
            for u in (verdict.up, verdict.down):
                rebuilt = PBFunction(u.arity, u.table)
                assert u == rebuilt and type(u) is PBFunction and hash(u) == hash(rebuilt)
    assert cases == {1, 2, 3, 4}


def _no_tables(*args):
    raise AssertionError("a table was built past the budget")


def _patch_kernel(monkeypatch, registry, formula):
    """Check that a within-budget formula reaches the kernel eval_pps calls, then make it refuse tables."""
    kernel = gadgets._sum_product
    calls = []

    def counted(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(gadgets, "_sum_product", counted)
    eval_pps(formula, registry)
    assert len(calls) == 1
    monkeypatch.setattr(gadgets, "_sum_product", _no_tables)


def test_eval_pps_refuses_before_summing(monkeypatch):
    """An atom-free formula still walks every assignment, and a table of more
    than ARITY_CAP free variables is refused: neither reaches the sum."""
    _patch_kernel(monkeypatch, {}, parse_pps("pps 0 20"))
    with pytest.raises(CapacityError, match="products"):
        eval_pps(parse_pps("pps 0 40"), {})
    with pytest.raises(CapacityError, match="arity"):
        eval_pps(PpsFormula(ARITY_CAP + 1, 0, ()), {})


def test_eval_pps_product_budget(monkeypatch):
    """Two atoms over three variables take 16 products: at a budget of 16 the
    formula evaluates, and one more variable or variable-only formulas past it
    are refused before the sum."""
    registry = {"f": binary(1, 2, 3, 4)}
    path = PpsFormula(1, 2, (("f", (0, 1)), ("f", (1, 2))))
    monkeypatch.setattr(funcs, "ELIMINATION_BUDGET", 16)
    assert eval_pps(path, registry).table == (17, 37)
    _patch_kernel(monkeypatch, registry, path)
    with pytest.raises(CapacityError, match="products"):
        eval_pps(PpsFormula(1, 3, path.atoms), registry)
    with pytest.raises(CapacityError, match="products"):
        eval_pps(PpsFormula(0, 5, ()), {})


def test_one_budget_in_funcs_steers_z_exact_and_eval_pps(monkeypatch):
    """``funcs.ELIMINATION_BUDGET`` is the one budget of both exact sums.
    Lowered to 15 alone, it refuses z_exact on a 6-ring (16+ products) and
    eval_pps on a path over three variables (16); restored, both answer as
    before."""
    f = binary(2, 1, 1, 2)
    ring = instances.CspInstance.build({"f": f}, [((f"x{i}", f"x{(i + 1) % 6}"), "f") for i in range(6)])
    path = PpsFormula(1, 2, (("f", (0, 1)), ("f", (1, 2))))
    answers = (instances.z_exact(ring), eval_pps(path, {"f": f}))
    assert answers == (3**6 + 1, PBFunction(1, (9, 9)))
    monkeypatch.setattr(funcs, "ELIMINATION_BUDGET", 15)
    with pytest.raises(CapacityError, match="past 15"):
        instances.z_exact(ring)
    with pytest.raises(CapacityError, match="past 15"):
        eval_pps(path, {"f": f})
    monkeypatch.undo()
    assert (instances.z_exact(ring), eval_pps(path, {"f": f})) == answers


def test_eval_pps_charges_the_products_the_kernel_takes(monkeypatch):
    """A path formula over 20 variables takes 2,098,432 products, as the kernel
    sums each variable out early, not 19 * 2**20: it is within the budget and
    equals z_exact on the same path.  Over 21 variables it takes 4,197,376,
    past the budget, and is refused before the sum."""
    f = binary(2, 1, 1, 2)

    def path(n: int) -> PpsFormula:
        return PpsFormula(0, n, (("f", (i, i + 1)) for i in range(n - 1)))

    inst = instances.CspInstance.build({"f": f}, [((f"x{i}", f"x{i + 1}"), "f") for i in range(19)])
    assert eval_pps(path(20), {"f": f}).table == (instances.z_exact(inst),)
    monkeypatch.setattr(gadgets, "_sum_product", _no_tables)
    with pytest.raises(CapacityError, match="4197376"):
        eval_pps(path(21), {"f": f})


def test_eval_pps_refuses_a_billion_variables_before_any_table(monkeypatch):
    """One atom over 10**9 variables is refused on the count alone, before the
    sum builds a table."""
    monkeypatch.setattr(gadgets, "_sum_product", _no_tables)
    with pytest.raises(CapacityError, match="products"):
        eval_pps(PpsFormula(0, 10**9, (("f", (0, 1)),)), {"f": binary(2, 1, 1, 2)})


def test_eval_pps_memory_stays_within_a_slice():
    """pps 1 16 sums 2**17 assignments of two atoms.  The kernel expands
    2**_SLICE_BITS of them at a time, so the traced peak stays far below the
    index lists of the whole space (2 MB)."""
    formula = parse_pps("pps 1 16 ; f v0 v1 ; f v1 v2")
    tracemalloc.start()
    try:
        table = eval_pps(formula, {"f": binary(1, 2, 3, 4)}).table
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert table == (278528, 606208)
    assert peak < 1 << 19


def test_eval_pps_with_many_atoms():
    """10**5 nullary atoms multiply in one slice without a chain as deep as the atoms."""
    n = 10**5
    formula = PpsFormula(0, 0, (("c", ()), ("d", ())) * (n // 2))
    registry = {"c": PBFunction(0, (Fraction(3, 2),)), "d": PBFunction(0, (Fraction(4, 3),))}
    assert eval_pps(formula, registry).table == (Fraction(2) ** (n // 2),)


# ---------------------------------------------------------------------------
# symmetrize


def test_symmetrize_mode1_squares_asymmetry():
    sym, report = symmetrize(binary(1, 2, 2, 1), 1)
    assert sym.table == (1, 4, 4, 1)
    assert sym.table[1] == sym.table[2]


def test_symmetrize_mode2_convolves_lsm():
    sym, report = symmetrize(binary(3, 1, 2, 4), 2)
    assert sym.table == (10, 10, 10, 20)
    assert is_lsm(sym)


def test_symmetrize_mode3_breaks_ising_symmetry():
    sym, report = symmetrize(binary(2, 1, 1, 2), 3, unary(1, 2))
    assert sym.table == (6, 6, 6, 9)
    assert sym.table[1] == sym.table[2]


def test_symmetrize_rejects_trivial():
    with pytest.raises(GadgetError):
        symmetrize(binary(1, 0, 0, 1), 1)


# ---------------------------------------------------------------------------
# make_up_down


def test_make_up_down_known_example():
    pair = make_up_down(binary(3, 4, 1, 2))
    assert pair.up.table == (4, 6)
    assert pair.down.table == (7, 3)
    assert pair.swapped is True
    assert serialize_pps(pair.up_formula) == "pps 1 1 ; f v1 v0"
    assert serialize_pps(pair.down_formula) == "pps 1 1 ; f v0 v1"
    assert eval_pps(pair.up_formula, pair.registry).table == pair.up.table
    assert eval_pps(pair.down_formula, pair.registry).table == pair.down.table


def test_make_up_down_unswapped():
    pair = make_up_down(binary(1, 1, 2, 1))
    assert pair.swapped is False
    assert is_increasing_permissive_unary(pair.up)
    assert is_decreasing_permissive_unary(pair.down)


def test_make_up_down_needs_opposite_fourier_signs():
    with pytest.raises(GadgetError):
        make_up_down(binary(2, 1, 1, 2))


# ---------------------------------------------------------------------------
# extract_nonlsm_binary


def test_extract_route_from_f():
    got = extract_nonlsm_binary(binary(1, 2, 2, 1), binary(2, 1, 1, 2))
    assert got.route == "from_f"
    assert got.function.table == (1, 2, 2, 1)
    a, b, c, d = got.function.table
    assert a * d < b * c


def test_extract_route_from_g():
    got = extract_nonlsm_binary(binary(0, 2, 1, 0), binary(1, 2, 2, 1))
    assert got.route == "from_g"
    assert got.function.table == (1, 2, 2, 1)


def test_extract_route_composed():
    got = extract_nonlsm_binary(binary(0, 2, 1, 0), binary(2, 1, 1, 2))
    assert got.route == "composed"
    assert got.function.table == (1, 4, 2, 2)
    assert serialize_pps(got.formula) == "pps 2 1 ; g v0 v2 ; f v2 v1"


def test_extract_rejects_lsm_f():
    with pytest.raises(GadgetError):
        extract_nonlsm_binary(binary(2, 1, 1, 2), binary(1, 2, 2, 1))


def test_extract_rejects_trivial_g():
    with pytest.raises(GadgetError):
        extract_nonlsm_binary(binary(1, 2, 2, 1), binary(1, 0, 0, 1))


# ---------------------------------------------------------------------------
# unary pinning helpers


def test_normalize_unary_scales_toward_the_approached_end():
    scaled, scale = normalize_unary(unary(1, 3))
    assert scaled.table == (Fraction(1, 3), 1)
    assert scale == 3
    scaled, scale = normalize_unary(unary(3, 1))
    assert scaled.table == (1, Fraction(1, 3))
    assert scale == 3
    with pytest.raises(TypeError):
        normalize_unary(unary(1, 3), "up")


@pytest.mark.parametrize(
    "u", [unary(3, 3), unary(0, 3), unary(Fraction(1, 2), 0)], ids=["equal", "zero-low", "zero-high"]
)
def test_normalize_unary_refuses_non_strict_unaries(u):
    table = " ".join(str(v) for v in u.table)
    with pytest.raises(GadgetError, match=f"^unary {table} is not strictly monotone permissive$"):
        normalize_unary(u)


def test_approx_pin_minimal_power():
    pinned, power = approx_pin(unary(Fraction(1, 3), 1), Fraction(1, 100))
    assert power == 5
    assert pinned.table == (Fraction(1, 243), 1)
    looser, power2 = approx_pin(unary(Fraction(1, 3), 1), Fraction(1, 3))
    assert power2 == 1 and looser.table == (Fraction(1, 3), 1)


def test_approx_pin_past_float_range():
    """Logs are read from the ints: a tolerance below float range still jumps close to k,
    and an off value too small or too near 1 for a float still ends."""
    start = time.perf_counter()
    pinned, power = approx_pin(unary(Fraction(999, 1000), 1), Fraction(1, 10**400))
    assert time.perf_counter() - start < 10
    assert power == 920574
    assert pinned.table[0] <= Fraction(1, 10**400) and pinned.table[1] == 1
    assert approx_pin(unary(1, Fraction(1, 10**400)), Fraction(1, 10**900))[1] == 3
    # 1 - off is 0 as a float, so the log estimate is skipped and the exact loop counts.
    assert approx_pin(unary(1 - Fraction(1, 10**400), 1), 1 - Fraction(1, 10**399))[1] == 11


def test_approx_pin_refuses_a_power_past_its_size_bound():
    """A power whose denominator the log estimate puts past _PIN_BITS raises
    before it is built, also when the estimate, 1 - off or 1 - eps is past float range."""
    start = time.perf_counter()
    with pytest.raises(CapacityError, match="1.1e\\+06 powers of a 20-bit denominator"):
        approx_pin(unary(1, Fraction(999999, 1000000)), Fraction(1, 3))
    with pytest.raises(CapacityError, match="inf powers"):
        approx_pin(unary(1 - Fraction(1, 10**320), 1), Fraction(1, 3))
    # 1 - off is 0 as a float, or eps is 1 as a float: the bound comes from
    # 1 - eps over 2 (1 - off).
    with pytest.raises(CapacityError, match="inf powers"):
        approx_pin(unary(1 - Fraction(1, 10**400), 1), Fraction(1, 3))
    with pytest.raises(CapacityError, match="inf powers"):
        approx_pin(unary(1 - Fraction(1, 10**30), 1), 1 - Fraction(1, 10**17))
    assert time.perf_counter() - start < 1


def test_approx_pin_rejects_unnormalized():
    with pytest.raises(GadgetError):
        approx_pin(unary(1, 3), Fraction(1, 10))


def test_approx_pin_error_writes_the_table_as_text():
    with pytest.raises(GadgetError) as info:
        approx_pin(unary(3, 1), Fraction(1, 100))
    assert str(info.value) == (
        "unary 3 1 is not normalized strictly monotone (one entry 1, the other in (0,1))"
    )


# ---------------------------------------------------------------------------
# pinning analysis


def test_pinning_both_unaries_for_ising():
    verdict = pinning_analysis([binary(2, 1, 1, 2)])
    assert verdict.tag is PinningTag.BOTH_UNARIES
    assert verdict.case == 1
    assert verdict.up.table == (1, 2)
    assert verdict.down.table == (2, 1)
    registry = verdict.registry()
    assert eval_pps(verdict.up_formula, registry).table == verdict.up.table
    assert eval_pps(verdict.down_formula, registry).table == verdict.down.table


def test_pinning_monotone_family():
    verdict = pinning_analysis([binary(1, 2, 3, 4)])
    assert verdict.tag is PinningTag.MONOTONE_FAMILY
    assert verdict.case == 2
    assert verdict.witness_index == 0


def test_pinning_flipped_monotone_family():
    verdict = pinning_analysis([unary(2, 1)])
    assert verdict.tag is PinningTag.FLIPPED_MONOTONE_FAMILY
    assert verdict.case == 3


def test_pinning_all_pure():
    verdict = pinning_analysis([IMP])
    assert verdict.tag is PinningTag.ALL_PURE
    assert verdict.case == 4
    verdict = pinning_analysis([DELTA0, DELTA1])
    assert verdict.tag is PinningTag.ALL_PURE


def test_pinning_two_opposed_unaries():
    verdict = pinning_analysis([unary(1, 2), unary(2, 1)])
    assert verdict.tag is PinningTag.BOTH_UNARIES
    assert verdict.up.table == (1, 2)
    assert verdict.down.table == (2, 1)


def test_pinning_random_verdicts_self_verify():
    """Every verdict constructed over random families passes its own validation."""
    rng = random.Random(47)
    tags = set()
    for _ in range(60):
        family = [rand_function(rng, rng.randint(1, 3)) for _ in range(rng.randint(1, 2))]
        verdict = pinning_analysis(family)
        tags.add(verdict.tag)
    assert PinningTag.BOTH_UNARIES in tags


def _verdict_record(verdict) -> str:
    formula = lambda p: None if p is None else serialize_pps(p)
    table = lambda u: None if u is None else u.table
    return repr(
        (
            verdict.tag.value,
            verdict.case,
            table(verdict.up),
            table(verdict.down),
            formula(verdict.up_formula),
            formula(verdict.down_formula),
            verdict.witness_index,
        )
    )


def test_pinning_outputs_are_frozen():
    """Full verdicts, formulas included, over seeded random families hash to a fixed digest.

    Arity 1-4, 0-3 members, supports from dense to sparse; every (tag, case)
    outcome occurs, BothUnaries in all four cases.
    """
    rng = random.Random(1000)
    digest = hashlib.sha256()
    outcomes = set()
    for _ in range(3000):
        zero_weight = rng.randint(0, 3)
        family = [
            rand_function(rng, rng.randint(1, 4), zero_weight) for _ in range(rng.randint(0, 3))
        ]
        verdict = pinning_analysis(family)
        outcomes.add((verdict.tag, verdict.case))
        digest.update(repr([f.table for f in family]).encode())
        digest.update(_verdict_record(verdict).encode() + b"\n")
    assert outcomes == {
        (PinningTag.BOTH_UNARIES, 1),
        (PinningTag.BOTH_UNARIES, 2),
        (PinningTag.BOTH_UNARIES, 3),
        (PinningTag.BOTH_UNARIES, 4),
        (PinningTag.MONOTONE_FAMILY, 2),
        (PinningTag.FLIPPED_MONOTONE_FAMILY, 3),
        (PinningTag.ALL_PURE, 4),
    }
    assert digest.hexdigest() == (
        "5c81c7c64d0f7dd199521bdef14aa8db89a4406d7e72e056c38f40b3eb334ddd"
    )


_BOTH = pinning_analysis([unary(1, 2), unary(2, 1)])
_MONOTONE = pinning_analysis([binary(1, 2, 3, 4)])
_FLIPPED = pinning_analysis([unary(2, 1)])
_PURE = pinning_analysis([IMP])
# Monotone on its support, and so is its flip, but the support {01, 10} misses 11.
_GAP = binary(0, 1, 1, 0)


def test_pinning_verdict_fixtures_are_valid():
    assert [v.tag for v in (_BOTH, _MONOTONE, _FLIPPED, _PURE)] == [
        PinningTag.BOTH_UNARIES,
        PinningTag.MONOTONE_FAMILY,
        PinningTag.FLIPPED_MONOTONE_FAMILY,
        PinningTag.ALL_PURE,
    ]
    for verdict in (_BOTH, _MONOTONE, _FLIPPED, _PURE):
        assert dataclasses.replace(verdict) == verdict


@pytest.mark.parametrize(
    "verdict, changes",
    [
        (_BOTH, {"up": None}),
        (_BOTH, {"down": None}),
        (_BOTH, {"up": unary(2, 1)}),
        (_BOTH, {"down": unary(1, 2)}),
        (_BOTH, {"up_formula": None}),
        (_BOTH, {"down_formula": None}),
        (_BOTH, {"up": unary(1, 3)}),
        (_BOTH, {"down_formula": _BOTH.up_formula}),
        (_MONOTONE, {"family": (binary(1, 2, 3, 4), unary(2, 1))}),
        (_MONOTONE, {"family": (binary(1, 2, 3, 4), _GAP)}),
        (_MONOTONE, {"witness_index": None}),
        (_MONOTONE, {"family": (binary(1, 2, 3, 4), unary(1, 1)), "witness_index": 1}),
        (_MONOTONE, {"witness_index": 1}),
        (_MONOTONE, {"witness_index": -1}),
        (_FLIPPED, {"family": (unary(2, 1), unary(1, 2))}),
        (_FLIPPED, {"family": (unary(2, 1), _GAP)}),
        (_FLIPPED, {"witness_index": None}),
        (_FLIPPED, {"family": (unary(2, 1), unary(1, 1)), "witness_index": 1}),
        (_FLIPPED, {"witness_index": 1}),
        (_FLIPPED, {"witness_index": -1}),
        (_PURE, {"family": (IMP, unary(1, 2))}),
    ],
    ids=[
        "both-missing-up",
        "both-missing-down",
        "both-up-not-increasing",
        "both-down-not-decreasing",
        "both-missing-up-formula",
        "both-missing-down-formula",
        "both-up-not-its-formula",
        "both-down-not-its-formula",
        "monotone-member-not-monotone",
        "monotone-support-not-join-closed",
        "monotone-no-witness",
        "monotone-witness-flip-monotone",
        "monotone-witness-out-of-range",
        "monotone-witness-negative",
        "flipped-member-not-flipped-monotone",
        "flipped-support-not-join-closed",
        "flipped-no-witness",
        "flipped-witness-monotone",
        "flipped-witness-out-of-range",
        "flipped-witness-negative",
        "pure-member-not-pure",
    ],
)
def test_pinning_verdict_rejects(verdict, changes):
    with pytest.raises(GadgetError) as info:
        dataclasses.replace(verdict, **changes)
    assert "Fraction(" not in str(info.value)


def test_pinning_empty_family_is_vacuously_pure():
    assert pinning_analysis([]).tag is PinningTag.ALL_PURE


def test_pinning_eq3_is_pure():
    verdict = pinning_analysis([EQ3])
    assert verdict.tag is PinningTag.ALL_PURE


def _gadget_record(kind: str, call) -> tuple[str, str]:
    """(kind, outcome) and a text record of one gadget call: tables, routes, formula text or the error."""
    try:
        out = call()
    except GadgetError as exc:
        return (kind, "error"), f"{kind} error {exc}"
    if kind == "extract":
        return (kind, out.route), repr((out.function.table, out.route, serialize_pps(out.formula)))
    if kind == "updown":
        fields = (out.up.table, out.down.table, out.swapped)
        return (kind, "ok"), repr(fields + (serialize_pps(out.up_formula), serialize_pps(out.down_formula)))
    sym, report = out
    return (kind, "ok"), repr((sym.table, report.record()))


def test_gadget_outputs_are_frozen():
    """Seeded extract_nonlsm_binary, make_up_down and symmetrize outputs hash to a fixed digest.

    Each record holds the tables, the route, the formula text or the
    GadgetError message; every extract route and every symmetrize mode
    occurs both built and refused.  The composed route's text pins the
    bound-variable numbering of grafted formulas.
    """
    rng = random.Random(1700)
    digest = hashlib.sha256()
    outcomes = set()
    for _ in range(1500):
        f = rand_function(rng, rng.randint(1, 4), rng.randint(0, 3))
        g = rand_function(rng, 2, rng.randint(0, 2))
        a, b = rand_function(rng, 2, 0).table[:2]
        ising = binary(max(a, b), min(a, b), min(a, b), max(a, b))
        up = rand_function(rng, 1, 1)
        h = ising if rng.randrange(2) else g
        calls = [
            ("extract", lambda: extract_nonlsm_binary(f, g)),
            ("updown", lambda: make_up_down(g)),
            ("mode1", lambda: symmetrize(g, 1)),
            ("mode2", lambda: symmetrize(g, 2)),
            ("mode3", lambda: symmetrize(h, 3, up)),
        ]
        digest.update(repr((f.table, g.table, h.table, up.table)).encode())
        for kind, call in calls:
            outcome, text = _gadget_record(kind, call)
            outcomes.add(outcome)
            digest.update(text.encode() + b"\n")
    assert outcomes == {
        ("extract", "from_f"),
        ("extract", "from_g"),
        ("extract", "composed"),
        ("extract", "error"),
        ("updown", "ok"),
        ("updown", "error"),
        ("mode1", "ok"),
        ("mode1", "error"),
        ("mode2", "ok"),
        ("mode2", "error"),
        ("mode3", "ok"),
        ("mode3", "error"),
    }
    assert digest.hexdigest() == "8505b9738311deb35a1bdcd8d7972cdcdf31bcdb9091f3d27c3545897aafe554"
