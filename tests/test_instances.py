"""Instance text format, exact evaluation, holant conversion, transforms."""

from __future__ import annotations

import hashlib
import math
import random
import re
import time
from fractions import Fraction

import pytest

from spincount.funcs import (
    ARITY_CAP,
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
    _int_sum_product,
    _sum_product_count,
    binary,
    product_form,
    table_text,
    unary,
)
from spincount import instances
from spincount.instances import (
    CspInstance,
    HolantInstance,
    InstanceError,
    holographic_transform,
    near_assignment_total,
    parse,
    serialize,
    to_holant,
    z_exact,
    z_product_type,
)
from spincount.matching import (
    Edge,
    WeightedMultigraph,
    build_triangle_graph,
    holant_fourier_form,
    lift_instance,
)
from helpers import (
    brute_force_z,
    clique_instance,
    rand_cp_binary,
    rand_csp_instance,
    rand_function,
    rand_holant_instance,
    rand_product_type,
    rand_wtilde,
    rand_wtilde_cp,
    speed_reference,
)

PRISM_TEXT = "fun xor3 3 1 0 0 1 0 1 1 0\ncon xor3 a b c\ncon xor3 a b c\n"


# ---------------------------------------------------------------------------
# text format


def test_parse_serialize_round_trip_fixed():
    inst = parse(PRISM_TEXT)
    assert serialize(inst) == PRISM_TEXT
    assert inst.variables == ("a", "b", "c")
    assert inst.constraints == ((("a", "b", "c"), "xor3"), (("a", "b", "c"), "xor3"))


def test_parse_serialize_round_trip_random():
    """Serialization is lossless up to dropping never-used variables."""
    rng = random.Random(33)
    for _ in range(40):
        funcs = [rand_function(rng, rng.randint(1, 3)) for _ in range(rng.randint(1, 3))]
        inst = rand_csp_instance(rng, funcs, rng.randint(1, 5), rng.randint(1, 6))
        back = parse(serialize(inst))
        assert back.registry == inst.registry
        assert back.constraints == inst.constraints
        assert serialize(parse(serialize(inst))) == serialize(inst)


def test_parse_comments_and_blank_lines():
    text = "# header\n\nfun u 1 2 3  # trailing\ncon u x\n"
    inst = parse(text)
    assert inst.registry_map()["u"].table == (2, 3)


def test_parse_rationals_are_strict():
    assert parse("fun u 1 -1/2 3\ncon u x\n").registry_map()["u"].table == (Fraction(-1, 2), 3)
    for bad in ["1.5", "1/0", "1/-2", "0x3", "2/06"]:
        with pytest.raises(InstanceError):
            parse(f"fun u 1 {bad} 1\ncon u x\n")


def test_parse_errors_carry_line_numbers():
    with pytest.raises(InstanceError, match="line 3"):
        parse("fun u 1 1 2\ncon u x\ncon v x\n")
    with pytest.raises(InstanceError, match="line 1"):
        parse("fun u 1 1\n")
    with pytest.raises(InstanceError, match="line 2"):
        parse("fun u 1 1 2\nbogus u x\n")
    err = None
    try:
        parse("fun u 2 1 2 3 4\ncon u x\n")
    except InstanceError as e:
        err = e
    assert err is not None and err.line == 2
    # An arity past the cap is refused before its 2**arity values are counted.
    with pytest.raises(CapacityError, match=f"line 1: arity 1000000 exceeds the cap of {ARITY_CAP}"):
        parse("fun f 1000000 1\n")
    with pytest.raises(CapacityError, match="line 2: arity 17 exceeds"):
        parse(f"fun u 1 1 2\nfun f 17{' 1' * (1 << 17)}\n")


# Each error's message and line, frozen as parse gave them before it tested
# for '#' before splitting a line and checked 'con' lines first.
PARSE_ERRORS = [
    ("frob x y\n", "line 1: unknown directive 'frob'", 1),
    ("fun f 2 2 1 1 2\ncon\n", "line 2: con needs a function name", 2),
    ("con f x y\nfun f 2 2 1 1 2\n", "line 1: unknown function name 'f'", 1),
    ("fun f 2 2 1 1 2\ncon f x y z\n", "line 2: scope has 3 variables but 'f' has arity 2", 2),
    ("fun f\n", "line 1: fun needs a name and an arity", 1),
    ("fun f x 1 2\n", "line 1: bad arity 'x'", 1),
    ("fun f 0 1\n", "line 1: bad arity 0", 1),
    ("fun f 1 1 2\nfun f 1 3 4\n", "line 2: duplicate function name 'f'", 2),
    ("fun f 1 1 2/x\n", "line 1: malformed rational '2/x'", 1),
    ("fun f 2 2 1 1 2\ncon f x#y\n", "line 2: scope has 1 variables but 'f' has arity 2", 2),
    ("fun f 1 2 2\n# only a comment\ncon f\n", "line 3: scope has 0 variables but 'f' has arity 1", 3),
    ("fun\tf\t1\t2\t2\ncon\tf\tx\ty\n", "line 2: scope has 2 variables but 'f' has arity 1", 2),
    ("fun f 1 2 2\r\n\r\ncon f x y\r\n", "line 3: scope has 2 variables but 'f' has arity 1", 3),
    ("  # c\n   \n\tfrob\n", "line 3: unknown directive 'frob'", 3),
    ("fun f# 1 2 2\n", "line 1: fun needs a name and an arity", 1),
]


@pytest.mark.parametrize("text, message, line", PARSE_ERRORS)
def test_parse_errors_are_frozen(text, message, line):
    with pytest.raises(InstanceError) as caught:
        parse(text)
    assert (str(caught.value), caught.value.line) == (message, line)


CONSTRUCTOR_ERRORS = [
    ("undeclared", lambda: CspInstance(("x", "y"), (("e", EQ),), ((("x", "y"), "e"), (("x", "z"), "e"))),
     "undeclared variable 'z' in scope"),
    ("first_undeclared_in_scope", lambda: CspInstance(("x",), (("t", EQ3),), ((("x", "q", "p"), "t"),)),
     "undeclared variable 'q' in scope"),
    ("arity", lambda: CspInstance(("x", "y"), (("e", EQ),), ((("x", "y"), "e"), (("x",), "e"))),
     "scope ('x',) has 1 variables but 'e' has arity 2"),
    ("unknown", lambda: CspInstance(("x", "y"), (("e", EQ),), ((("x", "y"), "e"), (("x", "y"), "nope"))),
     "unknown function name 'nope'"),
    ("unknown_before_arity_and_undeclared", lambda: CspInstance(("x",), (("e", EQ),), ((("z",), "nope"),)),
     "unknown function name 'nope'"),
    ("arity_before_undeclared", lambda: CspInstance(("x",), (("e", EQ),), ((("x", "z", "z"), "e"),)),
     "scope ('x', 'z', 'z') has 3 variables but 'e' has arity 2"),
    ("first_constraint_at_fault", lambda: CspInstance(
        ("x", "y"), (("e", EQ), ("u", DELTA0)),
        ((("x", "y"), "e"), (("w",), "u"), (("x", "y"), "nope"), (("x",), "e")),
    ), "undeclared variable 'w' in scope"),
    ("duplicate_variable", lambda: CspInstance(("x", "y", "x"), (("e", EQ),), ((("x", "y"), "e"),)),
     "duplicate variable names"),
    ("duplicate_function", lambda: CspInstance(("x", "y"), (("e", EQ), ("e", IMP)), ((("x", "y"), "e"),)),
     "duplicate function name 'e'"),
    ("not_a_table", lambda: CspInstance(("x",), (("e", (1, 0, 0, 1)),), ()),
     "registry entry 'e' is not a table"),
    ("holant_counts", lambda: HolantInstance(
        ("a", "b", "c", "d"), (("e", EQ), ("t", EQ3)),
        ((("a", "b"), "e"), (("b", "c", "c"), "t"), (("c", "a"), "e"), (("b", "a"), "e")),
    ), "not a holant instance; occurrence counts off at {'a': 3, 'b': 3, 'c': 3, 'd': 0}"),
    ("holant_checks_csp_first", lambda: HolantInstance(("a",), (("e", EQ),), ((("a", "b"), "e"),)),
     "undeclared variable 'b' in scope"),
    ("holant_build", lambda: HolantInstance.build({"e": EQ}, [(("a", "b"), "e"), (("b", "c"), "e")]),
     "not a holant instance; occurrence counts off at {'a': 1, 'c': 1}"),
]


@pytest.mark.parametrize(
    "make, message", [row[1:] for row in CONSTRUCTOR_ERRORS], ids=[row[0] for row in CONSTRUCTOR_ERRORS]
)
def test_constructor_errors_are_frozen(make, message):
    """The checked constructors name the first fault, in the first constraint that has one."""
    with pytest.raises(InstanceError) as caught:
        make()
    assert str(caught.value) == message


def test_build_validates_scopes():
    with pytest.raises(InstanceError, match="arity"):
        CspInstance.build({"e": EQ}, [(("x",), "e")])
    with pytest.raises(InstanceError, match="unknown function"):
        CspInstance.build({"e": EQ}, [(("x", "y"), "nope")])
    with pytest.raises(InstanceError, match="duplicate"):
        CspInstance((("x", "x")), (("e", EQ),), ((("x", "x"), "e"),))


def _assert_names_refused(bad):
    good = ["x", "y.2", "f'", "été"]
    with pytest.raises(InstanceError, match=re.escape(f"bad variable name {bad!r}")):
        CspInstance.build({"e": EQ}, [(("x", "y.2"), "e")], variables=good + [bad])
    with pytest.raises(InstanceError, match=re.escape(f"bad function name {bad!r}")):
        CspInstance.build({"e": EQ, bad: EQ}, [(("x", "y"), "e")])


@pytest.mark.parametrize("bad", ["", " ", "\t", "#", "a\n", "\na", "a b", "a#b"])
def test_build_rejects_bad_names(bad):
    """An empty name, whitespace anywhere (a final newline included) or '#' is refused by name."""
    _assert_names_refused(bad)


def test_build_rejects_every_whitespace_character():
    """Every character that ``str.split`` splits on, so that parse would split the name."""
    whitespace = [c for c in map(chr, range(0x3001)) if len(f"a{c}b".split()) == 2]
    assert len(whitespace) > 20
    for c in whitespace:
        _assert_names_refused(f"x{c}y")


UNUSUAL_NAMES = CspInstance.build(
    {"f.lift": EQ3, "é": EQ}, [(("y.2", "x'", "été"), "f.lift"), (("x'", "x'"), "é")]
)


def test_parse_serialize_round_trip_unusual_names():
    back = parse(serialize(UNUSUAL_NAMES))
    assert back == UNUSUAL_NAMES
    assert serialize(back) == serialize(UNUSUAL_NAMES)


def test_parse_serialize_round_trip_needs_first_use_order():
    """parse declares variables in first-use order, so x comes back equal only if it lists them so."""
    listed_late = CspInstance.build({"e": EQ}, [(("a", "b"), "e")], variables=["b", "a"])
    back = parse(serialize(listed_late))
    assert back.variables == ("a", "b")
    assert back != listed_late
    assert back == CspInstance.build({"e": EQ}, [(("a", "b"), "e")])


def test_holant_instance_enforces_two_occurrences():
    """build returns the subtype; degree 1, 3 or 0 is refused, after CspInstance's checks."""
    pair = HolantInstance.build({"e": EQ}, [(("x", "y"), "e"), (("y", "x"), "e")])
    assert type(pair) is HolantInstance and pair.variables == ("x", "y")
    with pytest.raises(InstanceError, match="occurrence"):
        HolantInstance.build({"e": EQ}, [(("x", "y"), "e")])
    with pytest.raises(InstanceError, match="occurrence"):
        HolantInstance.build({"e": EQ}, [(("x", "x"), "e"), (("x", "y"), "e"), (("y", "y"), "e")])
    with pytest.raises(InstanceError, match="occurrence"):
        HolantInstance.build({"e": EQ}, [(("x", "x"), "e")], variables=["x", "free"])
    with pytest.raises(InstanceError, match="unknown function name"):
        HolantInstance(("x",), (("e", EQ),), ((("x", "x"), "f"),))


def test_holant_instance_is_a_csp_instance_of_its_own_kind():
    """A HolantInstance has CspInstance's three fields only; equal fields of the two kinds differ."""
    csp = parse(PRISM_TEXT)
    holant = HolantInstance(csp.variables, csp.registry, csp.constraints)
    assert isinstance(holant, CspInstance)
    assert vars(holant) == vars(csp)
    assert holant != csp and csp != holant
    assert holant == HolantInstance.build(csp.registry, csp.constraints)
    assert not hasattr(holant, "csp")


def test_instance_functions_take_a_holant_instance_directly():
    """z_exact, serialize, z_product_type, to_holant and lift_instance read its fields."""
    ring = HolantInstance.build(
        {"f": binary(2, 1, 1, 2)}, [((f"x{i}", f"x{(i + 1) % 5}"), "f") for i in range(5)]
    )
    csp = CspInstance(ring.variables, ring.registry, ring.constraints)
    assert z_exact(ring) == z_exact(csp) == brute_force_z(ring) == 3**5 + 1
    assert serialize(ring) == serialize(csp)
    assert parse(serialize(ring)) == csp
    conv = to_holant(ring)
    assert conv.holant == ring and conv.holant.constraints is ring.constraints
    assert conv.verified and conv.z_source == conv.z_holant == z_exact(csp)
    assert lift_instance(ring) == lift_instance(csp)
    chain = HolantInstance.build(
        {"e": EQ, "u": unary(1, 3)}, [(("x", "y"), "e"), (("y", "z"), "e"), (("z",), "u"), (("x",), "u")]
    )
    assert z_product_type(chain) == brute_force_z(chain) == 10


# ---------------------------------------------------------------------------
# exact evaluation


def test_z_exact_frozen_values():
    assert z_exact(parse(PRISM_TEXT)) == 4
    assert z_exact(CspInstance.build({"imp": IMP}, [(("x", "y"), "imp")])) == 3
    assert z_exact(CspInstance((), (), ())) == 1


def test_z_exact_counts_free_variables():
    inst = CspInstance(("x", "y"), (("e", EQ),), ((("x", "x"), "e"),))
    assert z_exact(inst) == 4


def test_z_exact_cap():
    """The budget counts predicted products, not variables: long narrow inputs are exact."""
    chain = CspInstance.build({"e": EQ}, [((f"v{i}", f"v{i + 1}"), "e") for i in range(25)])
    assert len(chain.variables) == 26
    assert z_exact(chain) == 2
    ring = _ring(PBFunction.from_values(2, [2, 1, 1, 2]), 30)
    assert z_exact(ring) == 3**30 + 1


def test_z_exact_handles_signed_registries():
    signed = parse("fun s 1 1 -1\ncon s x\ncon s x\n")
    assert z_exact(signed) == 2


# ---------------------------------------------------------------------------
# elimination


def _rand_signed_function(rng: random.Random, arity: int):
    values = [Fraction(rng.randint(-3, 4), rng.randint(1, 3)) for _ in range(1 << arity)]
    if any(v < 0 for v in values):
        return SignedTable(arity, tuple(values))
    return PBFunction(arity, tuple(values))


def _ring(fn, m: int) -> CspInstance:
    return CspInstance.build({"f": fn}, [((f"x{i}", f"x{(i + 1) % m}"), "f") for i in range(m)])


def test_z_eliminate_matches_brute_force():
    """Signed tables, zeros, repeated and unused variables, arity up to 3."""
    rng = random.Random(551)
    signed = 0
    for _ in range(250):
        funcs = [_rand_signed_function(rng, rng.randint(1, 3)) for _ in range(rng.randint(1, 3))]
        inst = rand_csp_instance(rng, funcs, rng.randint(1, 10), rng.randint(0, 12))
        signed += inst.has_signed()
        assert z_exact(inst) == brute_force_z(inst)
    assert signed > 100
    assert z_exact(CspInstance((), (), ())) == 1
    assert z_exact(CspInstance(("x", "y"), (("e", EQ),), ((("x", "x"), "e"),))) == 4
    constant = PBFunction(0, (Fraction(3),))
    nullary = CspInstance.build({"c": constant, "e": EQ}, [((), "c"), (("x", "y"), "e"), ((), "c")])
    assert z_exact(nullary) == brute_force_z(nullary) == 18


def test_z_eliminate_matches_product_type_oracle():
    """The instances of acceptance criterion C11."""
    rng = random.Random(1111)
    for i in range(100):
        n_vars = 20 if i == 50 else 17 if i == 75 else rng.randint(1, 8)
        funcs = [rand_product_type(rng, rng.randint(1, 3)) for _ in range(rng.randint(1, 3))]
        inst = rand_csp_instance(rng, funcs, n_vars, rng.randint(1, 6))
        assert z_exact(inst) == z_product_type(inst)


def test_z_eliminate_long_ring_is_trace_of_matrix_power():
    m = 1000
    assert z_exact(_ring(PBFunction.from_values(2, [2, 1, 1, 2]), m)) == 3**m + 1
    a, b, c, d = 3, 1, 2, 5
    power = [[1, 0], [0, 1]]
    for _ in range(m):
        power = [
            [power[0][0] * a + power[0][1] * c, power[0][0] * b + power[0][1] * d],
            [power[1][0] * a + power[1][1] * c, power[1][0] * b + power[1][1] * d],
        ]
    trace = power[0][0] + power[1][1]
    assert z_exact(_ring(PBFunction.from_values(2, [a, b, c, d]), m)) == trace


def test_z_eliminate_width_cap(monkeypatch):
    """K_17 is the largest EQ clique within the budget: its single step takes
    3.93M products, against 4.06M for one step per variable.  K_18 (8.39M in
    one step, 8.65M on every order) raises before any table is built.  The
    patched name is the kernel z_exact calls: a counting patch sees K_17's
    one call over its 17 variables."""
    kernel = instances._int_sum_product
    buckets = []

    def counted(*args):
        buckets.append(args[1])
        return kernel(*args)

    monkeypatch.setattr(instances, "_int_sum_product", counted)
    assert z_exact(clique_instance(EQ, 17)) == 2
    assert buckets == [17]

    def no_tables(*args):
        raise AssertionError("a table was built past the budget")

    monkeypatch.setattr(instances, "_int_sum_product", no_tables)
    with pytest.raises(CapacityError, match="products"):
        z_exact(clique_instance(EQ, 18))


def _grid(fn: PBFunction, rows: int, cols: int) -> CspInstance:
    """The rows x cols grid, fn(x[i][j], x[i+1][j]) down and fn(x[i][j], x[i][j+1]) across."""
    return CspInstance.build(
        {"f": fn},
        [((f"x{i}_{j}", f"x{i + 1}_{j}"), "f") for i in range(rows - 1) for j in range(cols)]
        + [((f"x{i}_{j}", f"x{i}_{j + 1}"), "f") for i in range(rows) for j in range(cols - 1)],
    )


def _grid_z_by_transfer_matrix(fn: PBFunction, rows: int, cols: int) -> Fraction:
    """Z of ``_grid`` column by column over the 2**rows states of a column.

    The table is scaled to ints by the lcm of its denominators, so the sums
    run on ints, and Z is their total over the scale to the power of the
    number of constraints.  Bit i of a state is row i.  A column's own weight
    is the product of its vertical constraints; the step to the next column
    applies the horizontal constraint of one row at a time.
    """
    scale = math.lcm(*(v.denominator for v in fn.table))
    f = [int(v * scale) for v in fn.table]
    states = range(1 << rows)

    def bit(s: int, i: int) -> int:
        return (s >> i) & 1

    column = [math.prod(f[2 * bit(s, i) + bit(s, i + 1)] for i in range(rows - 1)) for s in states]
    weights = column
    for _ in range(cols - 1):
        for i in range(rows):
            m = 1 << i
            weights = [weights[s & ~m] * f[bit(s, i)] + weights[s | m] * f[2 + bit(s, i)] for s in states]
        weights = [w * c for w, c in zip(weights, column)]
    return Fraction(sum(weights), scale ** ((rows - 1) * cols + rows * (cols - 1)))


def test_z_exact_grids_match_a_transfer_matrix():
    """The 8x30 grid of a table with four denominators, and a small grid of an
    asymmetric signed table, against a transfer matrix."""
    grid_fn = binary(Fraction(2, 3), Fraction(1, 5), Fraction(1, 5), Fraction(7, 4))
    assert z_exact(_grid(grid_fn, 8, 30)) == _grid_z_by_transfer_matrix(grid_fn, 8, 30)
    skew = SignedTable(2, (Fraction(3, 2), Fraction(-1, 3), Fraction(2, 7), Fraction(5, 4)))
    assert z_exact(_grid(skew, 4, 7)) == _grid_z_by_transfer_matrix(skew, 4, 7)


def test_z_exact_outputs_frozen():
    """Seeded z_exact values hash to a digest taken before the integer kernel.

    600 small instances cover signed tables, zeros, repeated variables in a
    scope, nullary atoms, unused variables and mixed denominators; 6 dense
    ternary ones on 15-16 variables have buckets wider than one kernel slice.
    """
    rng = random.Random(1800)
    digest = hashlib.sha256()
    shapes = [(0, rng.randint(0, 9), rng.randint(0, 14)) for _ in range(600)]
    shapes += [(3, rng.randint(15, 16), rng.randint(100, 120)) for _ in range(6)]
    for low, n_vars, n_constraints in shapes:
        arities = [rng.randint(min(low, n_vars), min(3, n_vars)) for _ in range(rng.randint(1, 4))]
        inst = rand_csp_instance(rng, [_rand_signed_function(rng, k) for k in arities], n_vars, n_constraints)
        digest.update(f"{z_exact(inst)}\n".encode())
    assert digest.hexdigest() == "1b0d8c6015d2c8266425bba20c75373029e7a9ed50cbd210673c2cc56e316eab"


def test_z_exact_grid_within_budget():
    """An 8x30 EQ grid orders at width 14 and stays within the budget."""
    grid = CspInstance.build(
        {"e": EQ},
        [((f"x{i}_{j}", f"x{i + 1}_{j}"), "e") for i in range(7) for j in range(30)]
        + [((f"x{i}_{j}", f"x{i}_{j + 1}"), "e") for i in range(8) for j in range(29)],
    )
    assert z_exact(grid) == 2


def test_z_exact_star_with_many_leaves():
    """The hub of a star with 10**5 leaves takes 10**5 messages in one bucket;
    the kernel's depth does not grow with a bucket's atoms."""
    n = 10**5 + 1
    signs = SignedTable(2, (Fraction(1), Fraction(0), Fraction(0), Fraction(-1)))
    star = CspInstance.build(
        {"s": signs, "u": unary(1, 2)}, [(("h", f"l{i}"), "s") for i in range(n)] + [(("h",), "u")]
    )
    # Each leaf copies the hub, and weighs -1 where it is 1: 1 + 2 * (-1)**n.
    assert z_exact(star) == -1


@pytest.mark.parametrize("n", [1, 2, 3, 5, 100, 4000])
def test_min_degree_width_on_rings_and_paths(n):
    """Rings order within width 2 and paths within width 1, one step per
    variable.  Run through the kernel on the table 2 1 1 2, the steps give
    3**n + 1 for the ring and 2 * 3**(n - 1) for the path, so each variable is
    summed out exactly once."""
    ring = [(i, (i + 1) % n) for i in range(n)]
    for scopes, width, z in ((ring, 2, 3**n + 1), (ring[:-1], 1, 2 * 3 ** (n - 1))):
        _, _, plan = instances._greedy_plan(n, scopes, 1 << 60, False)
        assert len(plan) == n and all(n_vars == n_free + 1 for n_free, n_vars, _ in plan)
        assert max(n_free for n_free, _, _ in plan) == min(width, n - 1)
        tables, total = [[2, 1, 1, 2]] * len(scopes), 1
        for n_free, n_vars, bucket in plan:
            tables.append(_int_sum_product(n_free, n_vars, [(tables[a], scope) for a, scope in bucket]))
            if not n_free:
                total *= tables[-1][0]
        assert total == z


def _naive_greedy(n: int, scopes: list[tuple[int, ...]], by_fill: bool) -> list[tuple[int, list[int], set[int]]]:
    """Greedy elimination that recounts every candidate's key from scratch at each
    step: (v, bucket atoms, neighbours) per step.  The key is the degree, or
    by_fill the pairs of neighbours not joined, then the degree; ties go to the
    lower index.  Each atom goes to the bucket of its first eliminated variable,
    and each step adds a message atom over the neighbours."""
    adj = [set() for _ in range(n)]
    for scope in scopes:
        for v in scope:
            adj[v] |= set(scope) - {v}
    atoms = [set(scope) for scope in scopes]
    placed: set[int] = set()
    left = set(range(n))
    steps = []

    def key(v: int) -> tuple[int, ...]:
        missing = sum(1 for a in adj[v] for b in adj[v] if a < b and b not in adj[a])
        return (missing, len(adj[v]), v) if by_fill else (len(adj[v]), v)

    while left:
        v = min(left, key=key)
        left.remove(v)
        bucket = [atom for atom, scope in enumerate(atoms) if atom not in placed and v in scope]
        placed.update(bucket)
        nbrs, adj[v] = adj[v], set()
        for u in nbrs:
            adj[u] |= nbrs - {u}
            adj[u].discard(v)
        atoms.append(set(nbrs))
        steps.append((v, bucket, nbrs))
    return steps


def test_greedy_plans_match_a_naive_recount():
    """_greedy_plan's incremental keys against ``_naive_greedy`` on 1000 seeded
    instances of 1-14 used variables, with repeated variables, repeated scopes
    and empty scopes, for both keys: the same variable, bucket atoms and width
    at every step, local scopes that map back to each atom's scope, and
    products equal to the sum over steps of len(bucket) * 2**n_vars.  Below
    that count the plan is dropped.  The two keys order over 100 of them
    differently."""
    rng = random.Random(2222)
    differ = 0
    for _ in range(1000):
        names = rng.randint(1, 14)
        scopes: list[tuple[int, ...]] = []
        for _ in range(rng.randint(1, 24)):
            if scopes and rng.random() < 0.15:
                scopes.append(rng.choice(scopes))
            else:
                scopes.append(tuple(rng.randrange(names) for _ in range(rng.randint(0, 4))))
        used = list(dict.fromkeys(v for scope in scopes for v in scope))
        rng.shuffle(used)
        index = {v: i for i, v in enumerate(used)}
        n, scopes = len(used), [tuple(index[v] for v in scope) for scope in scopes]
        orders = []
        for by_fill in (False, True):
            products, width, plan = instances._greedy_plan(n, scopes, 1 << 40, by_fill)
            want = _naive_greedy(n, scopes, by_fill)
            orders.append([v for v, _, _ in want])
            assert len(plan) == len(want)
            known = [list(scope) for scope in scopes]
            for (n_free, n_vars, bucket), (v, atoms, nbrs) in zip(plan, want):
                assert [atom for atom, _ in bucket] == atoms and n_free == len(nbrs) and n_vars == n_free + 1
                named: dict[int, int] = {}
                for atom, local in bucket:
                    assert len(local) == len(known[atom])
                    for i, u in zip(local, known[atom]):
                        assert named.setdefault(i, u) == u
                assert sorted(named) == list(range(n_vars)) and named[n_free] == v
                assert {named[i] for i in range(n_free)} == nbrs
                known.append([named[i] for i in range(n_free)])
            assert products == sum(len(bucket) << n_vars for _, n_vars, bucket in plan)
            assert width == (plan[-1][0] if plan else 0)
            if products:
                dropped = instances._greedy_plan(n, scopes, products - 1, by_fill)
                assert dropped[0] > products - 1 and dropped[2] is None
        differ += orders[0] != orders[1]
    assert differ > 100


def test_plan_keeps_the_cheapest_candidate():
    """_plan's bounds on the single step's products, m * 2**n above and 2**n
    below, decide as its full count does.  On 801 lists of scopes over
    1-14 used variables, rings and dense graphs among them, _plan must return
    the single step when its products are at most min(budget, _STEP * n)
    (the rule), or are within the budget and no more than every per-variable
    plan's charge less _STEP (compared); otherwise the cheapest per-variable
    plan, min-degree on a tie.  The first list takes 1170 products in one
    step, within the rule's 1280 and near the lower bound 2**10."""
    rng = random.Random(2424)
    budget = instances.ELIMINATION_BUDGET
    outcomes = {"rule": 0, "compared": 0, "per-variable": 0}
    drawn = [[(0,), (1, 2, 3), (4, 5, 6), (7, 8, 9)]]
    for i in range(800):
        n = rng.randint(1, 14)
        if i % 4 == 0:
            drawn.append([(v, (v + 1) % n) for v in range(n)])
        elif i % 4 == 1:
            drawn.append([(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.8])
        else:
            drawn.append([tuple(rng.randrange(n) for _ in range(rng.randint(0, 3))) for _ in range(rng.randint(1, 2 * n))])
    for scopes in drawn:
        used = sorted({v for scope in scopes for v in scope})
        index = {v: k for k, v in enumerate(used)}
        n, scopes = len(used), [tuple(index[v] for v in scope) for scope in scopes]
        single = [(0, n, [(atom, scope) for atom, scope in enumerate(scopes) if scope])]
        products = _sum_product_count(0, n, [scope for scope in scopes if scope], 1 << 60)
        orders = [instances._greedy_plan(n, scopes, budget, False)]
        if orders[0][0] > instances._FILL_FROM:
            orders.append(instances._greedy_plan(n, scopes, min(orders[0][0] - 1, budget), True))
        plans = [(count + instances._STEP * len(plan), plan) for count, _, plan in orders if plan is not None]
        if products <= min(budget, instances._STEP * n):
            want, outcome = single, "rule"
        elif products <= budget and all(products + instances._STEP <= charge for charge, _ in plans):
            want, outcome = single, "compared"
        else:
            want, outcome = min(plans, key=lambda charged: charged[0])[1], "per-variable"
        assert instances._plan(n, scopes) == want, scopes
        outcomes[outcome] += 1
    assert outcomes["rule"] > 100 and outcomes["compared"] > 5 and outcomes["per-variable"] > 100


def _kernel_calls(monkeypatch) -> list[int]:
    """Patch the kernel z_exact calls to record each call's n_vars; returns the record."""
    kernel = instances._int_sum_product
    calls: list[int] = []

    def counted(*args):
        calls.append(args[1])
        return kernel(*args)

    monkeypatch.setattr(instances, "_int_sum_product", counted)
    return calls


def test_z_exact_matches_brute_force_on_both_plans(monkeypatch):
    """Seeded instances on both sides of the single-step rule: atoms over n used
    variables take one kernel call over all n when that call's products
    (``_sum_product_count``) are at most _STEP * n, and otherwise the cheaper
    of that call and one call per variable.  Signed tables, repeated scope
    variables, unused variables, nullary tables and zero variables are all
    covered."""
    calls = _kernel_calls(monkeypatch)
    rng = random.Random(2020)
    sides = {True: 0, False: 0}
    per_variable = 0
    for i in range(160):
        # Every other instance is drawn past the rule, most of the rest within it.
        n_vars = (rng.randint(9, 11) if i % 2 else rng.randint(1, 6)) if i % 20 else 0
        low, high = (0 if i % 4 == 0 else 1, 3) if n_vars else (0, 0)
        funcs = [_rand_signed_function(rng, rng.randint(low, high)) for _ in range(rng.randint(1, 3))]
        inst = rand_csp_instance(rng, funcs, n_vars, rng.randint(10, 16) if i % 2 else rng.randint(0, 8))
        del calls[:]
        assert z_exact(inst) == brute_force_z(inst)
        used = {v for scope, _ in inst.constraints for v in scope}
        index = {v: i for i, v in enumerate([v for v in inst.variables if v in used])}
        n, scopes = len(index), [[index[v] for v in scope] for scope, _ in inst.constraints if scope]
        rule = _sum_product_count(0, n, scopes, 1 << 60) <= instances._STEP * n
        assert calls == [n] if rule else (calls == [n] or len(calls) == n)
        sides[rule] += 1
        per_variable += len(calls) > 1
    assert sides[True] > 30 and sides[False] > 30 and per_variable > 20


def test_min_fill_plans_match_brute_force(monkeypatch):
    """z_exact along min-fill orders only, with no charge per kernel call so
    that most instances take the per-variable plan: signed tables, repeated
    scope variables and unused variables against brute force."""
    greedy = instances._greedy_plan
    monkeypatch.setattr(instances, "_greedy_plan", lambda n, scopes, limit, by_fill: greedy(n, scopes, limit, True))
    monkeypatch.setattr(instances, "_STEP", 0)
    calls = _kernel_calls(monkeypatch)
    rng = random.Random(2121)
    per_variable = 0
    for _ in range(120):
        funcs = [_rand_signed_function(rng, rng.randint(1, 3)) for _ in range(rng.randint(1, 3))]
        inst = rand_csp_instance(rng, funcs, rng.randint(4, 9), rng.randint(4, 12))
        del calls[:]
        assert z_exact(inst) == brute_force_z(inst)
        per_variable += len(calls) > 1
    assert per_variable > 80


def test_z_exact_sums_a_small_instance_in_one_kernel_call(monkeypatch):
    """Instances the size of C06's exact-path ones take one whole-table kernel
    call over their used variables; an unused variable doubles the total."""
    calls = _kernel_calls(monkeypatch)
    f = binary(2, 1, 1, 2)
    six = [f"v{i}" for i in range(6)]
    one = CspInstance.build({"f0": f}, [(("v0", "v3"), "f0")], variables=six)
    assert z_exact(one) == brute_force_z(one) == 6 * 2**4
    assert calls == [2]
    del calls[:]
    seven = [f"v{i}" for i in range(7)]
    four = CspInstance.build(
        {"f0": f}, [(("v0", "v3"), "f0"), (("v3", "v5"), "f0"), (("v1", "v2"), "f0"), (("v2", "v6"), "f0")],
        variables=seven,
    )
    assert z_exact(four) == brute_force_z(four)
    assert calls == [6]


def _assert_within(seconds: float, run):
    start = time.perf_counter()
    out = run()
    assert time.perf_counter() - start <= seconds
    return out


@pytest.mark.parametrize("rows, cols", [(10, 30), (13, 13)])
def test_z_exact_grids_past_min_degree_match_a_transfer_matrix(rows, cols):
    """Under inferred variables min-degree predicts 6.90 M and 4.23 M products
    for these grids, past the budget, and min-fill 1.17 M and 2.05 M.  Listed
    column by column from the far corner, the grids fit either way."""
    f = binary(2, 1, 1, 2)
    grid = _grid(f, rows, cols)
    want = _grid_z_by_transfer_matrix(f, rows, cols)
    assert _assert_within(5, lambda: z_exact(grid)) == want
    by_column = sorted(grid.variables, key=lambda v: tuple(reversed(v[1:].split("_"))), reverse=True)
    regrid = CspInstance.build(grid.registry, grid.constraints, variables=by_column)
    assert regrid.variables != grid.variables
    assert _assert_within(5, lambda: z_exact(regrid)) == want


@pytest.mark.parametrize("seed", [1, 2])
def test_z_exact_on_a_3_regular_graph_under_two_namings(seed):
    """The seeded 3-regular graph on 100 vertices, indexed by vertex number and
    in first-use order: min-degree alone passes the budget under one of the two."""
    import networkx as nx

    f = binary(2, 1, 1, 2)
    edges = [((f"v{a}", f"v{b}"), "f") for a, b in nx.random_regular_graph(3, 100, seed=seed).edges()]
    by_number = CspInstance.build({"f": f}, edges, variables=[f"v{i}" for i in range(100)])
    by_use = CspInstance.build({"f": f}, edges)
    assert by_use.variables != by_number.variables
    assert _assert_within(5, lambda: z_exact(by_number)) == _assert_within(5, lambda: z_exact(by_use))


def _cpu_seconds(call) -> float:
    start = time.process_time()
    call()
    return time.process_time() - start


@pytest.mark.parametrize("shape", ["ring", "star"])
def test_planning_a_long_ring_and_a_wide_star_is_fast(shape):
    """z_exact plans a 4000-ring and a 4001-vertex star each within 3.4 runs of
    ``speed_reference``, the best of 5 of each, interleaved, in CPU time.

    Other processes on the host take no CPU time from this one, and a slower
    phase of the host slows the reference as much as the plan.  On a 2-vCPU
    Xeon VM (Python 3.11) the reference took 12.8-14.7 ms at the host's usual
    speed, where 3.4 of it is at most the 50 ms this gate allowed as wall
    time, and about 20 ms in its slow phases.  The plans took 1.7-2.3 of it,
    idle and with three busy processes on the two cores.
    """
    if shape == "ring":
        n, scopes = 4000, [(i, (i + 1) % 4000) for i in range(4000)]
    else:
        n, scopes = 4001, [(0, i) for i in range(1, 4001)]
    plans, references = [], []
    for _ in range(5):
        references.append(_cpu_seconds(speed_reference))
        plans.append(_cpu_seconds(lambda: instances._plan(n, scopes)))
    assert min(plans) <= 3.4 * min(references)


def test_min_fill_stops_on_a_core_too_wide_for_the_budget():
    """A subgraph whose every degree is at least 22 puts a step of 2**23+ products
    in every order, so min-fill stops before counting edges among neighbours,
    a count cubic in a clique's size.  A pendant path does not hide the core."""
    k40 = [(i, j) for i in range(40) for j in range(i + 1, 40)]
    path = [(i, i + 1) for i in range(39, 59)]
    assert instances._greedy_plan(60, k40 + path, 1 << 22, True) == (1 << 23, 22, None)
    adj = [set() for _ in range(60)]
    for a, b in k40 + path:
        adj[a].add(b)
        adj[b].add(a)
    assert instances._has_core(adj, 39) and not instances._has_core(adj, 40)
    ring = [{(i - 1) % 9, (i + 1) % 9} for i in range(9)]
    assert instances._has_core(ring, 2) and not instances._has_core(ring, 3)
    with pytest.raises(CapacityError, match="products"):
        z_exact(clique_instance(EQ, 300))


def test_z_exact_on_a_grid_with_a_hub_of_many_leaves():
    """The 10x30 grid with a hub joined to every vertex and 4000 leaves on the hub
    ends within 2 s.  Min-degree predicts 22.1 M products for it, so the answer
    comes from min-fill (3.69 M).  Each hub value puts a unary on every grid
    vertex and gives every leaf 3 choices, and the two values weigh the same."""
    f = binary(2, 1, 1, 2)
    grid = _grid(f, 10, 30)
    hub = list(grid.constraints)
    hub += [(("hub", v), "f") for v in grid.variables] + [(("hub", f"leaf{i}"), "f") for i in range(4000)]
    z = _assert_within(2, lambda: z_exact(CspInstance.build({"f": f}, hub)))
    field = CspInstance.build(
        {"f": f, "u": unary(2, 1)}, list(grid.constraints) + [((v,), "u") for v in grid.variables]
    )
    assert z == 2 * 3**4000 * z_exact(field)


# ---------------------------------------------------------------------------
# product-type evaluation


def test_z_product_type_matches_brute_force():
    rng = random.Random(71)
    for _ in range(60):
        funcs = [rand_product_type(rng, rng.randint(1, 3)) for _ in range(2)]
        inst = rand_csp_instance(rng, funcs, rng.randint(1, 6), rng.randint(1, 5))
        assert z_product_type(inst) == brute_force_z(inst)


def test_z_product_type_contradiction_is_zero():
    inst = CspInstance.build(
        {"e": EQ, "n": NEQ}, [(("x", "y"), "e"), (("x", "y"), "n")]
    )
    assert z_product_type(inst) == 0


def test_z_product_type_long_rings_match_closed_forms():
    m = 20000
    p, q = Fraction(7, 3), Fraction(2, 5)
    assert z_product_type(_ring(PBFunction.from_values(2, [p, 0, 0, q]), m)) == p**m + q**m
    assert z_product_type(_ring(PBFunction.from_values(2, [0, p, q, 0]), m)) == 2 * (p * q) ** (m // 2)


def test_z_product_type_long_random_rings_match_elimination():
    """Rings of random product-type binaries, with unaries, zero entries and pins on the side.

    A ring has width 2, so elimination is an exact oracle at any length.
    """
    rng = random.Random(2048)
    sparse = [DELTA0, DELTA1, unary(0, Fraction(3, 2)), unary(Fraction(5, 4), 0)]
    zero = nonzero = 0
    for _ in range(12):
        m = rng.randint(1000, 1500)
        registry = {f"b{i}": rand_product_type(rng, 2) for i in range(3)}
        registry |= {f"u{i}": u for i, u in enumerate(sparse)}
        registry["w"] = unary(Fraction(2, 3), 3)
        cons = [((f"x{i}", f"x{(i + 1) % m}"), f"b{rng.randrange(3)}") for i in range(m)]
        cons += [((f"x{rng.randrange(m)}",), f"u{rng.randrange(4)}") for _ in range(rng.randint(0, 3))]
        cons += [((f"x{rng.randrange(m)}",), "w") for _ in range(m // 10)]
        rng.shuffle(cons)
        inst = CspInstance.build(registry, cons)
        z = z_product_type(inst)
        assert z == z_exact(inst)
        zero += z == 0
        nonzero += z != 0
    assert zero >= 2 and nonzero >= 2, (zero, nonzero)


def _consistent_scope(rng: random.Random, form, names: list[str], side: dict[str, int]):
    """A scope for ``form`` whose couplings all hold under ``side``, or None."""
    slots = [rng.choice(names) for _ in range(form.arity)]
    for pairs, rel in ((form.eq_pairs, 0), (form.neq_pairs, 1)):
        for a, b in pairs:
            fits = [v for v in names if side[v] == side[slots[a]] ^ rel]
            if not fits:
                return None
            slots[b] = rng.choice(fits)
    return tuple(slots)


def test_z_product_type_on_unions_of_many_components_matches_elimination():
    """Disjoint unions of 300 blocks of at most 6 variables each, over random
    product-type functions of arity 1-3 with equality and disequality
    couplings, repeated scope variables and unused variables.

    Every block is coupled consistently with a hidden side per variable, so
    its sum is positive, except that one draw closes an odd cycle of NEQ in
    one block, so Z = 0 there.  A block has at most 6 variables, so
    elimination is exact and quick on the union, which sums hundreds of
    components, each with its own unary placements on both parities.
    """
    rng = random.Random(1324)
    funcs = [rand_product_type(rng, arity) for arity in (1, 2, 2, 3, 3, 3)]
    forms = [product_form(fn) for fn in funcs]
    assert any(form.eq_pairs for form in forms) and any(form.neq_pairs for form in forms)
    registry = {f"f{i}": fn for i, fn in enumerate(funcs)} | {"n": NEQ}
    repeated = unused = 0
    for draw in range(4):
        cons = []
        variables = []
        for block in range(300):
            odd = draw == 1 and block == 150
            names = [f"b{block}.{i}" for i in range(rng.randint(3 if odd else 1, 6))]
            variables += names
            side = {v: rng.randrange(2) for v in names}
            for _ in range(rng.randint(1, 5)):
                i = rng.randrange(len(funcs))
                scope = _consistent_scope(rng, forms[i], names, side)
                if scope is not None:
                    cons.append((scope, f"f{i}"))
                    repeated += len(set(scope)) < len(scope)
            if odd:
                a, b, c = names[:3]
                cons += [((a, b), "n"), ((b, c), "n"), ((c, a), "n")]
        used = {v for scope, _ in cons for v in scope}
        unused += len(set(variables) - used)
        rng.shuffle(cons)
        inst = CspInstance.build(registry, cons, variables)
        z = z_product_type(inst)
        assert z == z_exact(inst)
        assert (z == 0) == (draw == 1)
    assert repeated >= 50 and unused >= 50, (repeated, unused)


def test_z_product_type_rejects_non_product():
    inst = CspInstance.build({"imp": IMP}, [(("x", "y"), "imp")])
    with pytest.raises(InstanceError, match="not product-type"):
        z_product_type(inst)


# ---------------------------------------------------------------------------
# holant conversion


def test_to_holant_passes_through_holant_input():
    conv = to_holant(parse(PRISM_TEXT))
    assert conv.verified is True
    assert conv.z_source == conv.z_holant == 4
    assert serialize(conv.holant) == PRISM_TEXT


def test_to_holant_junction_layouts():
    inst = CspInstance.build(
        {"imp": IMP},
        [(("x", "y"), "imp"), (("x", "y"), "imp"), (("x", "z"), "imp"), (("z", "w"), "imp")],
    )
    conv = to_holant(inst)
    assert conv.verified is True and conv.z_source == conv.z_holant == 7
    holant = conv.holant
    assert all(d == 2 for d in holant.degrees().values())
    eq_cons = [c for c in holant.constraints if c[1] == "eq3"]
    assert ((("x.eq.1", "x.eq.2", "x.eq.3"), "eq3")) in eq_cons
    assert ((("w", "w.eq.1", "w.eq.1"), "eq3")) in eq_cons


def test_to_holant_degree_four_uses_two_junctions():
    inst = CspInstance.build({"imp": IMP}, [(("x", "x"), "imp"), (("x", "x"), "imp")])
    conv = to_holant(inst)
    eq_cons = [scope for scope, name in conv.holant.constraints if name == "eq3"]
    assert eq_cons == [("x.eq.1", "x.eq.2", "x.eq.5"), ("x.eq.5", "x.eq.3", "x.eq.4")]
    assert conv.verified is True and conv.z_holant == 2


def test_to_holant_degree_zero_doubles():
    inst = CspInstance(("x", "free"), (("e", EQ),), ((("x", "x"), "e"),))
    conv = to_holant(inst)
    assert conv.z_source == conv.z_holant == 4
    folds = [s for s, name in conv.holant.constraints if name == "eq3" and s[0] == "free"]
    assert len(folds) == 2 and all(s[1] == s[2] for s in folds)


EQ3_TAKEN = CspInstance.build(
    {"eq3": IMP},
    [(("x", "y"), "eq3"), (("x", "y"), "eq3"), (("x", "y"), "eq3"), (("y", "x"), "eq3")],
)


def test_to_holant_avoids_name_collisions():
    conv = to_holant(EQ3_TAKEN)
    names = conv.holant.registry_map()
    assert names["eq3"] == IMP
    assert any(fn == EQ3 for fn in names.values())
    assert conv.verified is True


def _name_clash(constraints):
    return CspInstance.build({"u": unary(1, 2), "imp": IMP}, constraints)


def _holant_scopes(inst):
    return [scope for scope, _ in to_holant(inst).holant.constraints]


TAKEN_DOTTED_PREFIX = _name_clash(
    [(("x",), "u"), (("x",), "u"), (("x",), "u"),
     (("x.eq.1", "x.eq.7.y"), "imp"), (("x.eq.7.y", "x.eq.1"), "imp")]
)


def test_to_holant_names_skip_taken_dotted_prefix():
    """x.eq.1 and x.eq.7.y both start with x.eq., so x's junctions move to x.eqq."""
    scopes = _holant_scopes(TAKEN_DOTTED_PREFIX)
    assert scopes == [
        ("x.eqq.1",), ("x.eqq.2",), ("x.eqq.3",),
        ("x.eq.1", "x.eq.7.y"), ("x.eq.7.y", "x.eq.1"),
        ("x.eqq.1", "x.eqq.2", "x.eqq.3"),
    ]


DOTTED_BASE = _name_clash(
    [(("a.b",), "u"), (("a", "a.b"), "imp"), (("a.b", "a"), "imp"), (("a",), "u")]
)


def test_to_holant_names_dotted_base():
    scopes = _holant_scopes(DOTTED_BASE)
    assert scopes == [
        ("a.b.eq.1",), ("a.eq.1", "a.b.eq.2"), ("a.b.eq.3", "a.eq.2"), ("a.eq.3",),
        ("a.b.eq.1", "a.b.eq.2", "a.b.eq.3"), ("a.eq.1", "a.eq.2", "a.eq.3"),
    ]


UNDOTTED_NAME = _name_clash([(("x", "x.eq"), "imp"), (("x.eq", "x"), "imp"), (("x",), "u")])


def test_to_holant_names_undotted_name_is_not_a_prefix():
    """A variable named x.eq does not start with x.eq., so x keeps that prefix."""
    scopes = _holant_scopes(UNDOTTED_NAME)
    assert scopes == [
        ("x.eq.1", "x.eq"), ("x.eq", "x.eq.2"), ("x.eq.3",), ("x.eq.1", "x.eq.2", "x.eq.3"),
    ]


GENERATED_EARLIER = _name_clash(
    [(("x.eq",), "u"), (("x.eq", "x"), "imp"), (("x", "x.eq"), "imp"), (("x",), "u")]
)


def test_to_holant_names_generated_earlier_are_taken():
    """x.eq is converted first; its junction names x.eq.eq.* push x to x.eqq."""
    scopes = _holant_scopes(GENERATED_EARLIER)
    assert scopes == [
        ("x.eq.eq.1",), ("x.eq.eq.2", "x.eqq.1"), ("x.eqq.2", "x.eq.eq.3"), ("x.eqq.3",),
        ("x.eq.eq.1", "x.eq.eq.2", "x.eq.eq.3"), ("x.eqq.1", "x.eqq.2", "x.eqq.3"),
    ]


def test_build_infers_variables_in_first_use_order():
    inst = CspInstance.build(
        {"imp": IMP, "x3": XOR3},
        [(("b", "a", "b"), "x3"), (("c", "a"), "imp"), (("a", "d"), "imp"), (("d", "c"), "imp")],
    )
    assert inst.variables == ("b", "a", "c", "d")


def test_to_holant_hub_ring_structure():
    """A ring sharing one hub of degree m converts with m - 2 junctions for the hub."""
    m = 2000
    inst = CspInstance.build(
        {"t": XOR3}, [((f"x{i}", f"x{(i + 1) % m}", "h"), "t") for i in range(m)]
    )
    holant = to_holant(inst).holant
    assert set(holant.degrees().values()) == {2}
    junctions = [scope for scope, name in holant.constraints if name == "eq3"]
    assert len(junctions) == m - 2
    assert all(v.startswith("h.eq.") for scope in junctions for v in scope)
    assert [scope[2] for scope, _ in holant.constraints[:m]] == [f"h.eq.{i + 1}" for i in range(m)]


def test_to_holant_random_preserves_z():
    """Conversion preserves the partition function beyond the certificate cap."""
    rng = random.Random(5)
    for _ in range(25):
        funcs = [rand_function(rng, rng.randint(1, 3)) for _ in range(2)]
        inst = rand_csp_instance(rng, funcs, rng.randint(1, 4), rng.randint(1, 5))
        conv = to_holant(inst)
        z = brute_force_z(inst)
        assert z_exact(conv.holant) == z
        if conv.verified:
            assert conv.z_source == conv.z_holant == z


# Names that hold dots, that start with a generated prefix (x.eq.), or that a
# generated name would take (x.eq.1, x.eqq.2).
_CLASHING_NAMES = ["x", "x.eq.1", "x.eq.7.y", "x.eq", "x.eqq.2", "a", "a.b", "y.2"]


def _to_holant_frozen_inputs():
    rng = random.Random(2501)
    for case in range(200):
        names = rng.sample(_CLASHING_NAMES, rng.randint(0, 4)) + [f"v{i}" for i in range(rng.randint(1, 5))]
        rng.shuffle(names)
        degrees = [2] * len(names) if case % 10 == 0 else [rng.randint(0, 6) for _ in names]
        slots = [v for v, d in zip(names, degrees) for _ in range(d)]
        rng.shuffle(slots)
        registry = {f"f{k}": rand_function(rng, k) for k in range(1, 5)}
        if case % 3 == 0:  # eq3 taken: by EQ3 itself, which is reused, or by another table
            registry["eq3"] = EQ3 if case % 2 else IMP
        if case % 4 == 1:  # every scope of one size
            k = rng.randint(1, 4)
            names.append("pad")
            slots += ["pad"] * (-len(slots) % k)
            sizes = [k] * (len(slots) // k)
        else:
            sizes = []
            while sum(sizes) < len(slots):
                sizes.append(rng.randint(1, min(4, len(slots) - sum(sizes))))
        it = iter(slots)
        constraints = [(tuple(next(it) for _ in range(k)), f"f{k}") for k in sizes]
        yield CspInstance.build(registry, constraints, variables=names)


def test_to_holant_output_frozen():
    """Slot order, junction order and names, variable order and registry of 200 conversions.

    Z cannot see slot order: a chain of equality junctions keeps Z under any
    order of its ends.  The digest was computed before the slots were renamed
    in one flat pass.
    """
    digest = hashlib.sha256()
    degrees_seen: set[int] = set()
    repeats_seen: set[bool] = set()
    for inst in _to_holant_frozen_inputs():
        holant = to_holant(inst).holant
        digest.update(f"{holant.variables!r}\n{serialize(holant)}".encode())
        degrees_seen.update(inst.degrees().values())
        repeats_seen.update(len(set(scope)) < len(scope) for scope, _ in inst.constraints)
    assert degrees_seen == set(range(7))
    assert repeats_seen == {True, False}
    assert digest.hexdigest() == "2318bf0a6cd45b9a41591c850a847063ea0b1193e6779480c6388bed8c8136d7"


def test_to_holant_keeps_empty_scopes():
    """A constant table's empty scope, alone or among others, stays as it is."""
    const, double = PBFunction(0, (3,)), unary(1, 2)
    only_empty = CspInstance.build({"c": const}, [((), "c"), ((), "c")], variables=["x"])
    conv = to_holant(only_empty)
    assert conv.holant.constraints == (
        ((), "c"), ((), "c"), (("x", "x.eq.1", "x.eq.1"), "eq3"), (("x", "x.eq.2", "x.eq.2"), "eq3")
    )
    assert conv.z_holant == conv.z_source == 18
    mixed = CspInstance.build({"c": const, "u": double}, [(("x",), "u"), ((), "c"), (("x",), "u"), (("x",), "u")])
    conv = to_holant(mixed)
    assert [scope for scope, _ in conv.holant.constraints] == [
        ("x.eq.1",), (), ("x.eq.2",), ("x.eq.3",), ("x.eq.1", "x.eq.2", "x.eq.3")
    ]
    assert conv.z_holant == conv.z_source == 27


def test_to_holant_rejects_signed():
    signed = parse("fun s 1 1 -1\ncon s x\n")
    with pytest.raises(InstanceError, match="signed"):
        to_holant(signed)


# ---------------------------------------------------------------------------
# derived objects


def _checked(inst, cls=None):
    """inst's fields through the checked public constructor of cls, by default inst's class."""
    return (cls or type(inst))(inst.variables, inst.registry, inst.constraints)


def _first_use(inst):
    return CspInstance.build(inst.registry, inst.constraints).variables


def test_derived_objects_equal_their_checked_rebuilds():
    """parse and the reduction steps build their outputs unchecked; every output passes the checks."""
    rng = random.Random(88)
    ferro = binary(2, 1, 1, 2)
    # The lift's names y.2 and f.lift are taken, so are eq3 (not EQ3) and
    # to_holant's first prefix x.eq. for the hub x.
    lift_inputs = [
        CspInstance.build(
            {"f": ferro, "f.lift": EQ3, "eq3": IMP},
            [(("y", "y.2"), "f"), (("y.2", "x.eq.1"), "f"), (("x.eq.1", "y"), "f")],
        ),
        CspInstance.build(
            {"f": ferro},
            [(("x", "x.eq.1"), "f"), (("x.eq.7.y", "x"), "f"), (("x", "x"), "f")],
            variables=["x.eq.7.y", "x", "free", "x.eq.1"],
        ),
    ]
    lift_inputs += [
        rand_csp_instance(rng, [rand_cp_binary(rng)], rng.randint(1, 4), rng.randint(1, 5))
        for _ in range(20)
    ]
    sources = [UNUSUAL_NAMES, EQ3_TAKEN, TAKEN_DOTTED_PREFIX, DOTTED_BASE, UNDOTTED_NAME]
    sources += [GENERATED_EARLIER] + lift_inputs
    for _ in range(20):
        funcs = [rand_function(rng, rng.randint(1, 3)) for _ in range(2)]
        sources.append(rand_csp_instance(rng, funcs, rng.randint(1, 5), rng.randint(1, 6)))
    holants = [rand_holant_instance(rng, rand_wtilde, rng.choice([2, 4, 6])) for _ in range(10)]
    holants += [rand_holant_instance(rng, rand_wtilde_cp, rng.choice([2, 4])) for _ in range(10)]
    for inst in sources + holants:
        parsed = parse(serialize(inst))
        assert parsed == _checked(parsed)
        assert parsed.variables == _first_use(parsed)
        holant = to_holant(inst).holant
        assert holant == _checked(holant)
        if holant.constraints is not inst.constraints:  # converted, not passed through
            assert holant.variables == _first_use(holant)
    for inst in lift_inputs:
        lifted = lift_instance(inst)
        assert lifted == _checked(lifted)
        form = holant_fourier_form(lifted)
        if not form.is_zero:
            assert form.holant == _checked(form.holant)
            holants.append(form.holant)
    for inst in holants:
        g = build_triangle_graph(inst)
        assert g == WeightedMultigraph(g.vertices, [Edge(*e) for e in g.edges])


# ---------------------------------------------------------------------------
# holographic transformation


def test_holographic_transform_tables():
    prism = _checked(parse(PRISM_TEXT), HolantInstance)
    image = holographic_transform(prism, [[1, 1], [1, -1]])
    assert image.registry_map()["xor3"].table == (4, 0, 0, 0, 0, 0, 0, 4)
    pair = HolantInstance.build({"e": EQ}, [(("u", "v"), "e"), (("u", "v"), "e")])
    image2 = holographic_transform(pair, [[1, 1], [1, -1]])
    assert image2.registry_map()["e"].table == (2, 0, 0, 2)


def test_holographic_transform_scales_z():
    prism = _checked(parse(PRISM_TEXT), HolantInstance)
    image = holographic_transform(prism, [[1, 1], [1, -1]])
    assert z_exact(image) == 2 ** 3 * z_exact(prism)


def test_holographic_transform_identity_matrix():
    prism = _checked(parse(PRISM_TEXT), HolantInstance)
    same = holographic_transform(prism, [[1, 0], [0, 1]])
    assert z_exact(same) == z_exact(prism)


def test_holographic_transform_rejects_non_orthogonal():
    prism = _checked(parse(PRISM_TEXT), HolantInstance)
    for bad in ([[1, 1], [0, 1]], [[1, 0], [0, 2]], [[0, 0], [0, 0]]):
        with pytest.raises(InstanceError, match="scalar identity"):
            holographic_transform(prism, bad)


def test_holographic_transform_rejects_matrices_not_2_by_2():
    """A 3x3 matrix whose top-left block is the identity, and a short row, are refused by shape."""
    prism = _checked(parse(PRISM_TEXT), HolantInstance)
    for bad in ([[1, 0, 5], [0, 1, 7], [9, 9, 9]], [[1], [0, 1]]):
        with pytest.raises(InstanceError, match="2 rows of 2 entries"):
            holographic_transform(prism, bad)


def test_holographic_transform_outputs_frozen():
    """Seeded signed registries of arity 1-6 under seven matrices, rational,
    asymmetric and of scalars other than 1, hash to a digest taken on the
    Fraction butterfly that the integer map replaced."""
    rng = random.Random(1900)
    registry = tuple((f"f{k}_{i}", _rand_signed_function(rng, k)) for k in range(1, 7) for i in range(4))
    inst = HolantInstance((), registry, ())
    half, third = Fraction(1, 2), Fraction(2, 3)
    matrices = (
        [[1, 1], [1, -1]],
        [[3, 4], [4, -3]],
        [[half, half], [half, -half]],
        [[0, 1], [1, 0]],
        [[third, 0], [0, -third]],
        [[3, -4], [4, 3]],
        [[0, -1], [1, 0]],
    )
    digest = hashlib.sha256()
    for matrix in matrices:
        for name, fn in holographic_transform(inst, matrix).registry:
            digest.update(f"{name} {table_text(fn.table)}\n".encode())
    assert digest.hexdigest() == "16c4e0456a261f4b27237491c64235cee3499e9af77f04243ddefcecf41b9696"


def test_holographic_transform_reads_entries_as_frac():
    """Matrix entries are exact rationals: floats raise TypeError and decimal strings ValueError."""
    prism = _checked(parse(PRISM_TEXT), HolantInstance)
    with pytest.raises(TypeError, match="exact rational"):
        holographic_transform(prism, [[0.6, 0.8], [0.8, -0.6]])
    with pytest.raises(ValueError, match="bad rational literal"):
        holographic_transform(prism, [["0.6", "4/5"], ["4/5", "-3/5"]])
    image = holographic_transform(prism, [["3/5", "4/5"], ["4/5", "-3/5"]])
    assert z_exact(image) == z_exact(prism)


# ---------------------------------------------------------------------------
# near-assignments


def test_near_assignment_total_prism():
    assert near_assignment_total(_checked(parse(PRISM_TEXT), HolantInstance)) == 12


def test_near_assignment_total_small_cases():
    one = HolantInstance.build({"e": EQ}, [(("x", "x"), "e")])
    assert near_assignment_total(one) == 0


def test_near_assignment_total_cap(monkeypatch):
    scopes = [((f"v{i}", f"v{i}"), "e") for i in range(13)]
    big = HolantInstance.build({"e": EQ}, scopes)
    with pytest.raises(CapacityError):
        near_assignment_total(big)
    small = _checked(parse(PRISM_TEXT), HolantInstance)
    monkeypatch.setattr(instances, "NEAR_CAP", 2)
    with pytest.raises(CapacityError):
        near_assignment_total(small)
    with pytest.raises(TypeError):
        near_assignment_total(small, cap=12)
