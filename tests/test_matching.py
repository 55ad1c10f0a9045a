"""Lifting, triangle graphs, matching counts, and the randomized estimator."""

from __future__ import annotations

import hashlib
import math
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from spincount.classify import TwoSpinTag, classify_two_spin
from spincount.funcs import (
    EQ,
    EQ3,
    XOR3,
    CapacityError,
    PBFunction,
    SignedTable,
    binary,
    fourier,
    in_cp,
    unary,
)
from spincount import funcs, matching
from spincount.funcs import ELIMINATION_BUDGET
from spincount.instances import (
    CspInstance,
    HolantInstance,
    InstanceError,
    parse,
    z_exact,
)
from spincount.matching import (
    _Chain,
    _bundles,
    _denominator_lcm,
    EDGE_LABELS,
    Edge,
    EstimatorConfig,
    WeightedMultigraph,
    build_triangle_graph,
    count_npm_exact,
    count_pm_exact,
    estimate_pm,
    estimate_z_fpras,
    holant_fourier_form,
    integerize,
    lift_instance,
    sdp3_lift,
    serialize_graph,
)
from helpers import (
    brute_force_z,
    clique_instance,
    rand_binary,
    rand_cp_binary,
    rand_csp_instance,
    rand_fraction,
    rand_holant_instance,
    rand_wtilde,
    rand_wtilde_cp,
)


def graph(vertices, edges):
    return WeightedMultigraph(
        tuple(vertices), tuple(Edge(u, v, Fraction(w)) for u, v, w in edges)
    )


K4 = graph("abcd", [(u, v, 1) for u in "abcd" for v in "abcd" if u < v])
PRISM = HolantInstance.build(
    {"w": XOR3}, [(("x", "y", "z"), "w"), (("x", "y", "z"), "w")]
)


# ---------------------------------------------------------------------------
# lifting


def test_sdp3_lift_of_equality():
    lifted = sdp3_lift(EQ)
    assert lifted.table == (1, 1, 0, 0, 0, 0, 1, 1)
    coeffs = fourier(lifted).table
    assert all(coeffs[i] == 0 for i in (1, 2, 4, 7))
    assert all(v >= 0 for v in coeffs)


def test_sdp3_lift_rejects_wrong_arity():
    with pytest.raises(ValueError, match="binary"):
        sdp3_lift(unary(1, 2))


def test_lift_instance_doubles_z():
    ferro = CspInstance.build(
        {"f": binary(2, 1, 1, 2)},
        [(("x", "y"), "f"), (("y", "z"), "f"), (("z", "x"), "f")],
    )
    lifted = lift_instance(ferro)
    assert z_exact(ferro) == 28
    assert z_exact(lifted) == 56
    assert lifted.variables == ("x", "y", "z", "y.2")
    assert all(scope[2] == "y.2" for scope, _ in lifted.constraints)


def test_lift_instance_random_doubling():
    rng = random.Random(17)
    for _ in range(30):
        f = rand_cp_binary(rng)
        inst = rand_csp_instance(rng, [f], rng.randint(1, 4), rng.randint(1, 4))
        assert z_exact(lift_instance(inst)) == 2 * z_exact(inst)


def test_lift_instance_empty_keeps_no_constraints():
    inst = CspInstance(("x",), (), ())
    lifted = lift_instance(inst)
    assert lifted.constraints == ()
    assert z_exact(lifted) == 2 * z_exact(inst)


def test_lift_instance_rejects_mixed_registries():
    inst = CspInstance.build(
        {"f": binary(2, 1, 1, 2), "g": EQ}, [(("x", "y"), "f"), (("x", "y"), "g")]
    )
    with pytest.raises(InstanceError, match="single constraint function"):
        lift_instance(inst)
    with pytest.raises(InstanceError, match="arity"):
        lift_instance(CspInstance.build({"t": EQ3}, [(("x", "y", "z"), "t")]))


# ---------------------------------------------------------------------------
# Fourier normal form


def test_holant_fourier_form_tracks_constant():
    single = CspInstance.build({"eq3": EQ3}, [(("a", "b", "c"), "eq3")])
    form = holant_fourier_form(single)
    assert form.is_zero is False
    assert form.kappa == Fraction(1, 4)
    g = build_triangle_graph(form.holant)
    assert len(g.vertices) == 12
    assert count_pm_exact(g) == 8
    assert form.kappa * count_pm_exact(g) == z_exact(single) == 2


def test_holant_fourier_form_random_identity():
    rng = random.Random(29)
    for _ in range(20):
        fn = sdp3_lift(rand_cp_binary(rng))
        inst = rand_csp_instance(rng, [fn], rng.randint(1, 3), rng.randint(1, 3))
        form = holant_fourier_form(inst)
        if form.is_zero:
            assert z_exact(inst) == 0
            continue
        g = build_triangle_graph(form.holant)
        assert form.kappa * count_pm_exact(g) == z_exact(inst)


def test_holant_fourier_form_zero_short_circuit():
    zero = PRISM.registry_map()["w"].__class__(3, (0,) * 8)
    inst = CspInstance.build({"z": zero}, [(("a", "b", "c"), "z")])
    form = holant_fourier_form(inst)
    assert form.is_zero is True
    assert form.kappa == 0
    assert form.holant is None


def test_holant_fourier_form_rejects_odd_mass():
    inst = CspInstance.build({"x": XOR3}, [(("a", "b", "c"), "x")])
    with pytest.raises(InstanceError, match="odd-weight"):
        holant_fourier_form(inst)


def test_holant_fourier_form_rejects_wrong_arity():
    inst = CspInstance.build({"e": EQ}, [(("a", "b"), "e")])
    with pytest.raises(InstanceError, match="arity"):
        holant_fourier_form(inst)


# ---------------------------------------------------------------------------
# triangle graph


def test_triangle_graph_prism():
    g = build_triangle_graph(PRISM)
    assert len(g.vertices) == 6
    assert len(g.edges) == 9
    assert count_pm_exact(g) == z_exact(PRISM) == 4
    labels = {e.label for e in g.edges}
    assert labels == {"within_triangle", "between_triangles"}


def test_triangle_graph_vertex_names():
    g = build_triangle_graph(PRISM)
    assert g.vertices == ("c0.1", "c0.2", "c0.3", "c1.1", "c1.2", "c1.3")


def test_triangle_graph_serialization_frozen():
    """Unit edges join a variable's first slot to its last, in variable order."""
    w = PBFunction(3, (1, 0, 0, "1/2", 0, 2, 3, 0))
    inst = HolantInstance.build({"w": w}, [(("x", "x", "y"), "w"), (("z", "y", "z"), "w")])
    assert serialize_graph(build_triangle_graph(inst)) == (
        "v c0.1\nv c0.2\nv c0.3\nv c1.1\nv c1.2\nv c1.3\n"
        "e c0.1 c0.2 3 within_triangle\ne c0.1 c0.3 2 within_triangle\n"
        "e c0.2 c0.3 1/2 within_triangle\ne c1.1 c1.2 3 within_triangle\n"
        "e c1.1 c1.3 2 within_triangle\ne c1.2 c1.3 1/2 within_triangle\n"
        "e c0.1 c0.2 1 between_triangles\ne c0.3 c1.2 1 between_triangles\n"
        "e c1.1 c1.3 1 between_triangles\n"
    )


def test_scale_reductions_frozen():
    """parse, lift, Fourier form and triangle graph on a 1000-ring hub and a 500-variable spread.

    The digests of ``serialize_graph`` were computed before the reduction's
    stages became flat passes over the slots.
    """
    ring = "fun f 2 2 1 1 2\n" + "".join(f"con f x{i} x{(i + 1) % 1000}\n" for i in range(1000))
    rng = random.Random(500)
    names = [f"v{i}" for i in range(500)]
    spread = "fun f 2 2 1 1 2\n" + "".join("con f {} {}\n".format(*rng.sample(names, 2)) for _ in range(1000))
    for text, expected in ((ring, "e13f3d05a43a5e895bdddce8dadb8d77986b6418c6583485c96730ae3c7e260e"), (spread, "ac1440496035eac7137630a782fcf08734a5be675c929c09e84cafa8607a59c9")):
        form = holant_fourier_form(lift_instance(parse(text)))
        graph = build_triangle_graph(form.holant)
        assert hashlib.sha256(serialize_graph(graph).encode()).hexdigest() == expected


def test_triangle_graph_rejects_off_form_tables():
    bad = HolantInstance.build({"e": EQ3}, [(("x", "y", "z"), "e"), (("x", "y", "z"), "e")])
    with pytest.raises(InstanceError, match="unit-at-zero"):
        build_triangle_graph(bad)


def test_triangle_graph_error_names_first_use():
    """The form is checked once per table, but the error still names the first constraint using it."""
    mixed = HolantInstance.build(
        {"w": XOR3, "e": EQ3},
        [
            (("a", "b", "c"), "w"),
            (("a", "b", "c"), "w"),
            (("d", "e", "f"), "e"),
            (("d", "e", "f"), "e"),
        ],
    )
    with pytest.raises(InstanceError, match=r"constraint 2 uses 'e'"):
        build_triangle_graph(mixed)


def test_triangle_graph_ignores_unused_off_form_table():
    spare = HolantInstance.build({"w": XOR3, "e": EQ3}, PRISM.constraints)
    assert serialize_graph(build_triangle_graph(spare)) == serialize_graph(build_triangle_graph(PRISM))


def test_edge_rejects_negative_weight_and_unknown_label():
    with pytest.raises(ValueError, match="negative"):
        Edge("a", "b", Fraction(-1, 2))
    with pytest.raises(ValueError, match="negative"):
        Edge("a", "b", -3)
    with pytest.raises(ValueError, match="label"):
        Edge("a", "b", Fraction(1), "diagonal")


def test_edge_refuses_float_weight():
    with pytest.raises(TypeError, match="exact rational"):
        Edge("a", "b", 0.5)


@pytest.mark.parametrize(
    "weight, expected", [(3, Fraction(3)), ("2/6", Fraction(1, 3)), (True, Fraction(1)), (0, Fraction(0))]
)
def test_edge_coerces_exact_weights(weight, expected):
    e = Edge("a", "b", weight)
    assert type(e.weight) is Fraction
    assert e.weight == expected


def test_edge_is_an_immutable_named_tuple():
    e = Edge("a", "b", 2)
    assert e == Edge("a", "b", Fraction(2), "plain") == ("a", "b", Fraction(2), "plain")
    assert e != Edge("a", "b", 3) and e != Edge("b", "a", 2) and e != Edge("a", "b", 2, "between_triangles")
    assert hash(e) == hash(Edge("a", "b", Fraction(2)))
    assert len({e, Edge("a", "b", 2), Edge("a", "b", 1)}) == 2
    u, v, w, label = e
    assert (u, v, w, label) == (e.u, e.v, e.weight, e.label)
    with pytest.raises(AttributeError):
        e.weight = Fraction(-1)
    with pytest.raises(AttributeError):
        e.extra = 1
    assert e._replace(weight=5).weight == 5
    with pytest.raises(ValueError, match="negative"):
        e._replace(weight=-1)
    with pytest.raises(ValueError, match="label"):
        Edge._make(("a", "b", 1, "diagonal"))


def test_triangle_graph_edges_hold_the_edge_invariants():
    """build_triangle_graph skips Edge's checks; every edge it emits must still pass them."""
    rng = random.Random(77)
    suites = [rand_holant_instance(rng, rand_wtilde, rng.choice([2, 4, 6])) for _ in range(20)]
    suites += [rand_holant_instance(rng, rand_wtilde_cp, rng.choice([2, 4])) for _ in range(20)]
    while len(suites) < 60:
        inst = rand_csp_instance(rng, [sdp3_lift(rand_cp_binary(rng))], rng.randint(1, 4), rng.randint(1, 4))
        form = holant_fourier_form(inst)
        if not form.is_zero:
            suites.append(form.holant)
    for inst in suites:
        g = build_triangle_graph(inst)
        assert len(g.edges) == 3 * len(inst.constraints) + len(inst.variables)
        for e in g.edges:
            assert type(e) is Edge
            assert type(e.weight) is Fraction and e.weight >= 0
            assert e.label in EDGE_LABELS
            assert Edge(*e) == e
    signed = HolantInstance.build({"w": SignedTable(3, (1, 0, 0, -1, 0, 1, 1, 0))}, PRISM.constraints)
    with pytest.raises(InstanceError, match="signed"):
        build_triangle_graph(signed)


def test_serialize_graph_lines():
    g = graph("ab", [("a", "b", Fraction(1, 2))])
    assert serialize_graph(g) == "v a\nv b\ne a b 1/2 plain\n"


# ---------------------------------------------------------------------------
# exact matching counts


def test_matching_counts_frozen():
    e1 = graph("ab", [("a", "b", 5)])
    assert count_pm_exact(e1) == 5
    assert count_npm_exact(e1) == 1
    k3 = graph("abc", [("a", "b", 1), ("b", "c", 1), ("a", "c", 1)])
    assert count_pm_exact(k3) == 0
    assert count_npm_exact(k3) == 0
    p4 = graph("abcd", [("a", "b", 1), ("b", "c", 1), ("c", "d", 1)])
    assert count_pm_exact(p4) == 1
    assert count_npm_exact(p4) == 3
    assert count_pm_exact(K4) == 3
    assert count_npm_exact(K4) == 6


def test_matching_counts_ignore_self_loops():
    g = graph("ab", [("a", "a", 7), ("a", "b", 2)])
    assert count_pm_exact(g) == 2
    assert count_npm_exact(g) == 1


def test_matching_counts_cap():
    big = graph([f"v{i}" for i in range(32)], [])
    with pytest.raises(CapacityError):
        count_pm_exact(big)


# ---------------------------------------------------------------------------
# integerization


def test_integerize_frozen_example():
    g = graph("ab", [("a", "b", Fraction(1, 2)), ("a", "b", Fraction(1, 3))])
    unit, d = integerize(g)
    assert d == 6
    assert len(unit.edges) == 5
    assert all(e.weight == 1 for e in unit.edges)
    assert count_pm_exact(unit) == Fraction(d) ** 1 * count_pm_exact(g)


def test_integerize_drops_nothing_on_integers():
    unit, d = integerize(K4)
    assert d == 1
    assert count_pm_exact(unit) == 3


def test_integerize_odd_order():
    g = graph("abc", [("a", "b", Fraction(1, 2))])
    unit, d = integerize(g)
    assert d == 2
    assert count_pm_exact(unit) == count_pm_exact(g) == 0


# ---------------------------------------------------------------------------
# randomized estimator


def test_estimate_pm_degenerate_cases():
    cfg = EstimatorConfig()
    assert estimate_pm(WeightedMultigraph((), ()), cfg) == 1
    odd = graph("abc", [("a", "b", 1)])
    assert estimate_pm(odd, cfg) == 0
    no_pm = graph("abcd", [("a", "b", 1), ("a", "c", 1), ("a", "d", 1)])
    assert estimate_pm(no_pm, cfg) == 0


def test_estimate_pm_exact_below_cap():
    g = build_triangle_graph(PRISM)
    assert estimate_pm(g, EstimatorConfig()) == 4


def test_estimate_pm_below_cap_loads_no_networkx():
    """A graph within EXACT_CAP is counted exactly, with no start matching looked for."""
    code = (
        "import sys\n"
        "from spincount.funcs import XOR3\n"
        "from spincount.instances import HolantInstance\n"
        "from spincount.matching import EstimatorConfig, build_triangle_graph, estimate_pm\n"
        "prism = HolantInstance.build({'w': XOR3}, [(('x', 'y', 'z'), 'w')] * 2)\n"
        "print(estimate_pm(build_triangle_graph(prism), EstimatorConfig()), 'networkx' in sys.modules)\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout == "4 False\n"


def test_estimate_pm_refuses_a_long_chain_before_matching(monkeypatch):
    """K_18's 1722-vertex triangle graph is predicted at hours of chain time: refused
    at once, before a start matching is looked for."""
    f = binary(2, 1, 1, 2)
    g = build_triangle_graph(holant_fourier_form(lift_instance(clique_instance(f, 18))).holant)
    assert len(g.vertices) == 1722

    def no_matching(*args):
        raise AssertionError("estimate_pm looked for a start matching")

    monkeypatch.setattr(matching, "_maximum_matching", no_matching)
    start = time.perf_counter()
    with pytest.raises(CapacityError, match="the chain on 1722 vertices needs"):
        estimate_pm(g, EstimatorConfig())
    assert time.perf_counter() - start <= 2.0


def test_estimate_pm_weighted_single_edge(monkeypatch):
    g = graph("ab", [("a", "b", Fraction(1, 2))])
    monkeypatch.setattr(matching, "EXACT_CAP", 0)
    assert estimate_pm(g, EstimatorConfig()) == Fraction(1, 2)


def test_estimate_pm_weighted_matches_integerized():
    """At or below the cap, the weighted estimate is the integerized one rescaled."""
    rng = random.Random(53)
    for _ in range(30):
        n = 2 * rng.randint(1, 4)
        names = [f"v{i}" for i in range(n)]
        edges = []
        for _ in range(rng.randint(n, 2 * n)):
            u, w = rng.sample(names, 2)
            edges.append(Edge(u, w, rand_fraction(rng)))
        g = WeightedMultigraph(tuple(names), tuple(edges))
        unit, d = integerize(g)
        cfg = EstimatorConfig(seed=rng.randrange(100))
        assert estimate_pm(g, cfg) == estimate_pm(unit, cfg) / Fraction(d) ** (n // 2)


def _perfect_matchings(free):
    if not free:
        yield ()
        return
    for x in free[1:]:
        rest = [v for v in free if v not in (free[0], x)]
        for pm in _perfect_matchings(rest):
            yield ((free[0], x),) + pm


def _pairs(match):
    return frozenset((v, m) for v, m in enumerate(match) if v < m)


def test_chain_samples_perfect_matchings_by_weight():
    """The chain's law on a rational K6, against exact weights.

    Sampled perfect matchings are within 0.03 total variation of their weight
    shares.  The share of time in perfect states is the unit-copy chain's on
    ``integerize(g)``: count_pm / (count_pm + penalty * count_npm / d).
    """
    names = "abcdef"
    pairs = [(i, j) for i in range(6) for j in range(i + 1, 6)]
    g = graph(names, [(names[i], names[j], Fraction((i + j) % 3 + 1, 2)) for i, j in pairs])
    bundles = _bundles(g)
    d = _denominator_lcm(g)
    weight = {}
    for pm in _perfect_matchings(list(range(6))):
        w = Fraction(1)
        for key in pm:
            w *= bundles[key]
        weight[frozenset(pm)] = w
    total = sum(weight.values())
    penalty = Fraction(1, 2)
    chain = _Chain(bundles, d, [1, 0, 3, 2, 5, 4], random.Random(3))
    chain.set_penalty(float(penalty))
    seen: dict[frozenset, int] = {}
    observed = steps = 0
    while observed < 10000:
        chain.advance(100)
        steps += 1
        if not chain.holes:
            pm = _pairs(chain.match)
            seen[pm] = seen.get(pm, 0) + 1
            observed += 1
    tv = sum(abs(seen.get(pm, 0) / observed - float(w / total)) for pm, w in weight.items()) / 2
    assert tv < 0.03
    pm_share = total / (total + penalty * count_npm_exact(g) / d)
    assert abs(observed / steps - float(pm_share)) < 0.02


@pytest.mark.parametrize(
    "vertices, edges",
    [
        ("ab", [("a", "b", Fraction(1, 3))]),
        ("abcd", [("a", "b", Fraction(1, 2)), ("c", "d", Fraction(1, 2))]),
        ("abcd", [("a", "b", 1), ("b", "c", Fraction(1, 2)), ("c", "d", 2), ("d", "a", 1)]),
        ("abcd", [(u, v, Fraction(1, 2)) for u in "abcd" for v in "abcd" if u < v]),
        ("abcdef", [(u, v, Fraction(ord(u) % 3 + 1, 3)) for u in "abcdef" for v in "abcdef" if u < v]),
    ],
)
def test_chain_state_invariants(vertices, edges):
    """After every advance, match is an involution and the holes are its -1 entries, none or two.

    The first two graphs reach a step probability of 1: at the holes of the
    single edge, and in the perfect state of the two unit-copy edges.
    """
    g = graph(vertices, edges)
    bundles = _bundles(g)
    n = len(vertices)
    visited = set()
    for seed, penalty in ((0, 1.0), (1, 0.3), (2, 1e-4)):
        chain = _Chain(bundles, _denominator_lcm(g), [v ^ 1 for v in range(n)], random.Random(seed))
        chain.set_penalty(penalty)
        for steps in (1, 2, 3, 7, 50) * 40:
            chain.advance(steps)
            match = chain.match
            holes = [v for v in range(n) if match[v] < 0]
            assert sorted(chain.holes) == holes
            assert len(holes) in (0, 2)
            assert all(match[match[v]] == v for v in range(n) if match[v] >= 0)
            assert all(tuple(sorted((v, match[v]))) in bundles for v in range(n) if match[v] >= 0)
            visited.add(tuple(match))
    assert len(visited) > 1


def _random_multigraph8() -> WeightedMultigraph:
    """K_8 with one or two parallel unit edges per pair, seeded."""
    rng = random.Random(123)
    names = [f"n{i}" for i in range(8)]
    edges = []
    for i in range(8):
        for j in range(i + 1, 8):
            for _ in range(rng.randint(1, 2)):
                edges.append(Edge(names[i], names[j], Fraction(1)))
    return WeightedMultigraph(tuple(names), tuple(edges))


def test_estimate_pm_sampling_tracks_exact(monkeypatch):
    """Seeded chain estimates land within 10 percent on at least 12 of 20 runs."""
    g = _random_multigraph8()
    exact = count_pm_exact(g)
    lo, hi = exact * Fraction(9, 10), exact * Fraction(11, 10)
    monkeypatch.setattr(matching, "EXACT_CAP", 4)
    hits = sum(1 for seed in range(20) if lo <= estimate_pm(g, EstimatorConfig(seed=seed)) <= hi)
    assert hits >= 12


def test_estimate_pm_counts_exactly_only_within_exact_cap(monkeypatch):
    """The telescoping base is EXACT_CAP, the cap the exact count checks;
    nothing counts a larger graph exactly.  The value is frozen from a run that
    set the base size to 4 through a config field."""
    g = _random_multigraph8()
    sizes = []
    count = matching._count_with_holes

    def counting(n, bundles, holes):
        sizes.append(n)
        return count(n, bundles, holes)

    monkeypatch.setattr(matching, "EXACT_CAP", 4)
    monkeypatch.setattr(matching, "_count_with_holes", counting)
    assert estimate_pm(g, EstimatorConfig(seed=7)) == Fraction(34560000, 84001)
    assert sizes and max(sizes) <= 4
    with pytest.raises(CapacityError):
        count_pm_exact(g)


def test_estimate_pm_is_deterministic(monkeypatch):
    g = graph("abcdef", [(u, v, 1) for u in "abcdef" for v in "abcdef" if u < v])
    monkeypatch.setattr(matching, "EXACT_CAP", 4)
    cfg = EstimatorConfig(seed=7)
    assert estimate_pm(g, cfg) == estimate_pm(g, cfg)


def test_estimator_config_validation():
    with pytest.raises(ValueError, match="epsilon"):
        EstimatorConfig(epsilon=0)
    with pytest.raises(ValueError, match="delta"):
        EstimatorConfig(delta=1)


def test_removed_size_keywords_raise_type_error():
    g = graph("ab", [("a", "b", 1)])
    with pytest.raises(TypeError):
        EstimatorConfig(exact_cap=4)
    with pytest.raises(TypeError):
        count_pm_exact(g, cap=4)
    with pytest.raises(TypeError):
        count_npm_exact(g, cap=4)


# ---------------------------------------------------------------------------
# end-to-end pipeline


def test_estimate_z_fpras_exact_path():
    cfg = EstimatorConfig()
    one = CspInstance.build({"f": binary(2, 1, 1, 2)}, [(("x", "y"), "f")])
    assert estimate_z_fpras(binary(2, 1, 1, 2), one, cfg) == 6
    eqtri = CspInstance.build(
        {"e": EQ}, [(("x", "y"), "e"), (("y", "z"), "e"), (("z", "x"), "e")]
    )
    assert estimate_z_fpras(EQ, eqtri, cfg) == 2


def test_estimate_z_fpras_sampling_path(monkeypatch):
    one = CspInstance.build({"f": binary(2, 1, 1, 2)}, [(("x", "y"), "f")])
    form = holant_fourier_form(lift_instance(one))
    g = build_triangle_graph(form.holant)
    monkeypatch.setattr(matching, "EXACT_CAP", 6)
    for seed in range(3):
        assert form.kappa / 2 * estimate_pm(g, EstimatorConfig(seed=seed)) == 6


def test_chain_on_c06_sampling_graphs():
    """C06's two 36-vertex instances, now summed exactly, still gate the chain itself."""
    f = binary(2, 1, 1, 2)
    rng = random.Random(606)
    sampling = []
    while len(sampling) < 2:
        inst = rand_csp_instance(rng, [f], rng.randint(2, 10), rng.randint(1, 4))
        form = holant_fourier_form(lift_instance(inst))
        g = build_triangle_graph(form.holant)
        if len(g.vertices) == 36:
            sampling.append((inst, form.kappa, g))
    lo, hi = math.exp(-0.1), math.exp(0.1)
    for inst, kappa, g in sampling:
        z = z_exact(inst)
        hits = 0
        for seed in range(20):
            cfg = EstimatorConfig(epsilon=Fraction(1, 10), seed=seed)
            hits += lo <= float(kappa / 2 * estimate_pm(g, cfg) / z) <= hi
        assert hits >= 12, f"only {hits}/20 runs inside the window"


def test_estimate_z_fpras_long_ring_is_exact():
    m = 1000
    ring = CspInstance.build(
        {"f": binary(2, 1, 1, 2)}, [((f"x{i}", f"x{(i + 1) % m}"), "f") for i in range(m)]
    )
    assert estimate_z_fpras(binary(2, 1, 1, 2), ring, EstimatorConfig()) == 3**m + 1


def test_estimate_z_fpras_k14_is_exact_and_fast():
    """K_14 (width 13) is exact by elimination within a second."""
    f = binary(2, 1, 1, 2)
    k = 14
    start = time.perf_counter()
    z = estimate_z_fpras(f, clique_instance(f, k), EstimatorConfig())
    seconds = time.perf_counter() - start
    c2 = lambda j: j * (j - 1) // 2
    assert z == sum(math.comb(k, j) * 2 ** (c2(j) + c2(k - j)) for j in range(k + 1))
    assert seconds <= 1.0


def test_estimate_z_fpras_random_exact_path(monkeypatch):
    """Exact by elimination, and through the pipeline when the elimination budget is 0."""
    for budget in (ELIMINATION_BUDGET, 0):
        monkeypatch.setattr(funcs, "ELIMINATION_BUDGET", budget)
        rng = random.Random(41)
        for _ in range(15):
            f = rand_cp_binary(rng)
            inst = rand_csp_instance(rng, [f], rng.randint(1, 3), rng.randint(1, 2))
            assert estimate_z_fpras(f, inst, EstimatorConfig()) == brute_force_z(inst)


@pytest.mark.parametrize("budget", [ELIMINATION_BUDGET, 0])
def test_estimate_z_fpras_reads_equal_tables_under_two_names(monkeypatch, budget):
    """Constraints naming entries f and g of one table, next to an unused signed
    entry, give the same exact Z on both sides of the elimination budget."""
    monkeypatch.setattr(funcs, "ELIMINATION_BUDGET", budget)
    triangle = [(("x", "y"), "f"), (("y", "z"), "g"), (("z", "x"), "f")]
    for fn, z in ((binary(2, 1, 1, 2), 28), (binary(1, 1, 1, 3), 40)):
        inst = CspInstance.build({"f": fn, "g": fn, "s": SignedTable(1, (1, -1))}, triangle)
        assert estimate_z_fpras(fn, inst, EstimatorConfig()) == brute_force_z(inst) == z


def test_estimate_z_fpras_accepts_every_fpras_tag(monkeypatch):
    """Binaries tagged FPRAS are estimated exactly, by elimination and, with the
    elimination budget at 0, through the pipeline, also those run under a spin flip."""
    for budget in (ELIMINATION_BUDGET, 0):
        monkeypatch.setattr(funcs, "ELIMINATION_BUDGET", budget)
        rng = random.Random(43)
        flipped = 0
        for _ in range(20):
            f = rand_binary(rng)
            while classify_two_spin(f).tag is not TwoSpinTag.FPRAS:
                f = rand_binary(rng)
            inst = rand_csp_instance(rng, [f], rng.randint(1, 3), rng.randint(1, 2))
            # Budget 0 sends every instance with a constraint down the pipeline.
            flipped += not in_cp(f) and any(len(set(scope)) == 2 for scope, _ in inst.constraints)
            assert estimate_z_fpras(f, inst, EstimatorConfig()) == brute_force_z(inst)
        assert flipped > 0


def test_estimate_z_fpras_rejects_negative_fourier():
    inst = CspInstance.build({"f": binary(1, 2, 2, 1)}, [(("x", "y"), "f")])
    with pytest.raises(InstanceError, match="classify_two_spin"):
        estimate_z_fpras(binary(1, 2, 2, 1), inst, EstimatorConfig())


def test_estimate_z_fpras_rejects_foreign_constraints():
    inst = CspInstance.build({"g": EQ}, [(("x", "y"), "g")])
    with pytest.raises(InstanceError, match="differs"):
        estimate_z_fpras(binary(2, 1, 1, 2), inst, EstimatorConfig())
    with pytest.raises(InstanceError, match="binary"):
        estimate_z_fpras(EQ3, inst, EstimatorConfig())
