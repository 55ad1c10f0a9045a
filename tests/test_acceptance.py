"""Acceptance gate: twelve exact-oracle criteria, one pass/fail line each."""

from __future__ import annotations

import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from spincount.classify import TwoSpinTag, classify_two_spin
from spincount.funcs import (
    DELTA0,
    DELTA1,
    EQ3,
    IMP,
    PBFunction,
    XOR3,
    add_fictitious,
    binary,
    bit_flip,
    bits_of,
    fourier,
    inverse_fourier,
    is_decreasing_permissive_unary,
    is_increasing_permissive_unary,
    is_monotone_on_support,
    is_pin_monotone,
    is_product_type,
    is_support_join_closed,
    permute,
    product,
    pure_value,
    sum_out,
    unary,
)
from spincount.gadgets import PinningTag, eval_pps, pinning_analysis
from spincount.instances import (
    HolantInstance,
    holographic_transform,
    near_assignment_total,
    z_exact,
    z_product_type,
)
from spincount.matching import (
    Edge,
    EstimatorConfig,
    WeightedMultigraph,
    build_triangle_graph,
    count_npm_exact,
    count_pm_exact,
    estimate_z_fpras,
    holant_fourier_form,
    integerize,
    lift_instance,
    sdp3_lift,
)
from helpers import (
    brute_force_z,
    rand_binary,
    rand_csp_instance,
    rand_fraction,
    rand_function,
    rand_holant_instance,
    rand_mixed_holant_instance,
    rand_monotone,
    rand_pin_monotone,
    rand_positive_fraction,
    rand_product_type,
    rand_wtilde,
    rand_wtilde_cp,
)


@contextmanager
def criterion(label: str, budget: float | None = None):
    t0 = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"{label}: FAIL ({time.monotonic() - t0:.1f}s)")
        raise
    elapsed = time.monotonic() - t0
    assert budget is None or elapsed < budget, f"{label} took {elapsed:.1f}s, budget {budget}s"
    print(f"{label}: PASS ({elapsed:.1f}s)")


def test_c01_fourier_round_trip():
    with criterion("C01 Fourier round-trip", budget=5.0):
        rng = random.Random(101)
        for _ in range(500):
            f = rand_function(rng, rng.randint(1, 8))
            assert inverse_fourier(fourier(f)).table == f.table


def test_c02_fourier_of_parity():
    with criterion("C02 Fourier of ternary parity", budget=1.0):
        assert fourier(XOR3).table == tuple(v / 2 for v in EQ3.table)


def test_c03_triangle_gadget_identity():
    with criterion("C03 triangle-gadget identity", budget=30.0):
        prism = HolantInstance.build(
            {"w": XOR3}, [(("x", "y", "z"), "w"), (("x", "y", "z"), "w")]
        )
        assert count_pm_exact(build_triangle_graph(prism)) == z_exact(prism) == 4
        rng = random.Random(303)
        for _ in range(50):
            inst = rand_holant_instance(rng, rand_wtilde, rng.choice([2, 4, 6]))
            graph = build_triangle_graph(inst)
            assert count_pm_exact(graph) == z_exact(inst)


def test_c04_near_assignment_bounds():
    with criterion("C04 near-assignment bounds"):
        rng = random.Random(404)
        for _ in range(50):
            inst = rand_holant_instance(rng, rand_wtilde_cp, rng.choice([2, 4]))
            n = len(inst.variables)
            z = z_exact(inst)
            z_near = near_assignment_total(inst)
            assert z_near <= 2 * n * n * z
            graph = build_triangle_graph(inst)
            assert count_npm_exact(graph) <= n * z + z_near


def test_c05_two_spin_golden_table():
    with criterion("C05 two-spin golden table", budget=5.0):
        golden = [
            ((0, 1, 1, 0), TwoSpinTag.FP_TRIVIAL),
            ((1, 1, 0, 1), TwoSpinTag.BIS_EQUIVALENT),
            ((3, 4, 1, 2), TwoSpinTag.BIS_EQUIVALENT),
            ((2, 1, 1, 2), TwoSpinTag.FPRAS),
            ((1, 2, 2, 1), TwoSpinTag.NO_FPRAS),
            ((1, 2, 2, 3), TwoSpinTag.OPEN),
        ]
        for table, tag in golden:
            assert classify_two_spin(binary(*table)).tag is tag
        rng = random.Random(505)
        for _ in range(1000):
            f = rand_function(rng, 2)
            tag = classify_two_spin(f).tag
            assert classify_two_spin(bit_flip(f)).tag is tag
            assert classify_two_spin(permute(f, (1, 0))).tag is tag
            scale = rand_positive_fraction(rng)
            scaled = PBFunction(2, tuple(scale * v for v in f.table))
            assert classify_two_spin(scaled).tag is tag


def test_c06_fpras_end_to_end():
    with criterion("C06 FPRAS end-to-end", budget=300.0):
        f = binary(2, 1, 1, 2)
        rng = random.Random(606)
        exact_path: list = []
        sampling: list = []
        while len(exact_path) < 18 or len(sampling) < 2:
            inst = rand_csp_instance(rng, [f], rng.randint(2, 10), rng.randint(1, 4))
            graph = build_triangle_graph(holant_fourier_form(lift_instance(inst)).holant)
            size = len(graph.vertices)
            if size <= 30 and len(exact_path) < 18:
                exact_path.append(inst)
            elif size == 36 and len(sampling) < 2:
                sampling.append(inst)
        lo, hi = math.exp(-0.1), math.exp(0.1)
        for inst in exact_path:
            z = brute_force_z(inst)
            for seed in range(20):
                cfg = EstimatorConfig(epsilon=Fraction(1, 10), seed=seed)
                assert estimate_z_fpras(f, inst, cfg) == z
        for inst in sampling:
            z = z_exact(inst)
            hits = 0
            for seed in range(20):
                cfg = EstimatorConfig(epsilon=Fraction(1, 10), seed=seed)
                estimate = estimate_z_fpras(f, inst, cfg)
                hits += lo <= float(estimate / z) <= hi
            assert hits >= 12, f"only {hits}/20 runs inside the window"


def test_c07_integerization_scaling():
    with criterion("C07 integerization scaling"):
        rng = random.Random(707)
        for _ in range(50):
            n = rng.randint(2, 10)
            names = [f"v{i}" for i in range(n)]
            edges = []
            for _ in range(rng.randint(n, 2 * n)):
                u, w = rng.sample(names, 2)
                edges.append(Edge(u, w, rand_fraction(rng)))
            g = WeightedMultigraph(tuple(names), tuple(edges))
            unit, d = integerize(g)
            if n % 2:
                assert count_pm_exact(unit) == count_pm_exact(g) == 0
                assert count_npm_exact(unit) == count_npm_exact(g) == 0
            else:
                assert count_pm_exact(unit) == Fraction(d) ** (n // 2) * count_pm_exact(g)
                assert count_npm_exact(unit) == Fraction(d) ** (n // 2 - 1) * count_npm_exact(g)


def test_c08_holographic_identity():
    with criterion("C08 holographic identity"):
        rng = random.Random(808)
        for _ in range(50):
            inst = rand_mixed_holant_instance(rng, rng.randint(2, 8))
            n = len(inst.variables)
            image = holographic_transform(inst, [[1, 1], [1, -1]])
            assert z_exact(image) == Fraction(2) ** n * z_exact(inst)


def test_c09_pin_monotone_clone_closure():
    with criterion("C09 pin-monotone clone closure"):
        rng = random.Random(909)
        for _ in range(200):
            arity = rng.randint(1, 3)
            f = rand_pin_monotone(rng, arity)
            g = rand_pin_monotone(rng, arity)
            assert is_pin_monotone(product(f, g))
            if arity >= 2:
                assert is_pin_monotone(sum_out(f, rng.randrange(arity)))
            perm = list(range(arity))
            rng.shuffle(perm)
            assert is_pin_monotone(permute(f, tuple(perm)))
            assert is_pin_monotone(add_fictitious(f))
        assert is_pin_monotone(DELTA0) and is_pin_monotone(DELTA1)
        for _ in range(50):
            low = rand_positive_fraction(rng)
            assert not is_pin_monotone(unary(low + rand_positive_fraction(rng), low))
        for _ in range(100):
            assert is_pin_monotone(rand_monotone(rng, rng.randint(1, 3)))


def test_c10_pinning_analysis_soundness():
    with criterion("C10 pinning analysis soundness"):
        rng = random.Random(1010)
        seen = set()
        for _ in range(200):
            family = [rand_function(rng, rng.randint(1, 3)) for _ in range(rng.randint(1, 3))]
            verdict = pinning_analysis(family)
            seen.add(verdict.tag)
            registry = verdict.registry()
            if verdict.tag is PinningTag.BOTH_UNARIES:
                assert is_increasing_permissive_unary(verdict.up)
                assert is_decreasing_permissive_unary(verdict.down)
                assert eval_pps(verdict.up_formula, registry).table == verdict.up.table
                assert eval_pps(verdict.down_formula, registry).table == verdict.down.table
            elif verdict.tag is PinningTag.MONOTONE_FAMILY:
                assert all(is_monotone_on_support(f) for f in verdict.family)
                assert all(is_support_join_closed(f) for f in verdict.family)
                assert not is_monotone_on_support(bit_flip(verdict.family[verdict.witness_index]))
            elif verdict.tag is PinningTag.FLIPPED_MONOTONE_FAMILY:
                flipped = [bit_flip(f) for f in verdict.family]
                assert all(is_monotone_on_support(f) for f in flipped)
                assert all(is_support_join_closed(f) for f in flipped)
                assert not is_monotone_on_support(verdict.family[verdict.witness_index])
            else:
                assert all(pure_value(f)[0] for f in verdict.family)
        assert seen == set(PinningTag)


def test_c11_product_type_oracle():
    with criterion("C11 product-type oracle equivalence"):
        rng = random.Random(1111)
        for i in range(100):
            n_vars = 20 if i == 50 else 17 if i == 75 else rng.randint(1, 8)
            funcs = [rand_product_type(rng, rng.randint(1, 3)) for _ in range(rng.randint(1, 3))]
            inst = rand_csp_instance(rng, funcs, n_vars, rng.randint(1, 6))
            # Brute force over 2**17 and 2**20 assignments would take seconds.
            oracle = z_exact if n_vars > 8 else brute_force_z
            assert z_product_type(inst) == oracle(inst)
        for _ in range(100):
            assert is_product_type(rand_product_type(rng, rng.randint(1, 5)))
        assert not is_product_type(XOR3)
        assert not is_product_type(IMP)
        assert not is_product_type(binary(1, 1, 1, 0))


def test_c12_lift_identities():
    with criterion("C12 lift identities"):
        rng = random.Random(1212)
        for _ in range(50):
            f = rand_binary(rng)
            inst = rand_csp_instance(rng, [f], rng.randint(2, 6), rng.randint(1, 5))
            assert z_exact(lift_instance(inst)) == 2 * z_exact(inst)
        for _ in range(200):
            f = rand_function(rng, 2)
            lifted_coeffs = fourier(sdp3_lift(f)).table
            coeffs = fourier(f).table
            for i in range(8):
                x, y, z = bits_of(i, 3)
                assert lifted_coeffs[i] == coeffs[(x << 1) | y] * XOR3.table[i]
