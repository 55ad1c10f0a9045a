"""Seeded random generators shared across the test modules.

Every generator takes an explicit random.Random so tests stay reproducible;
nothing here touches global RNG state.
"""

from __future__ import annotations

import heapq
import itertools
import math
import random
from fractions import Fraction
from typing import Callable, Optional, Sequence

from spincount.funcs import (
    PBFunction,
    ProductForm,
    fourier,
    in_cp,
    is_pin_monotone,
    unary,
)
from spincount.instances import CspInstance, HolantInstance
from spincount.matching import sdp3_lift


def speed_reference() -> int:
    """A fixed pure-Python loop of int, dict, set and heap work, about 14 ms
    (2-vCPU Xeon VM, Python 3.11): a unit that a timing gate divides by, so
    that the host's speed cancels out of its bound."""
    heap: list[tuple[int, int]] = []
    seen: set[int] = set()
    degree: dict[int, int] = {}
    for i in range(12000):
        degree[i] = degree.get(i // 3, 0) + (i & 3)
        seen.add((i * 7919) % 16001)
        heapq.heappush(heap, (degree[i], i))
    while heap:
        _, i = heapq.heappop(heap)
        seen.discard(i)
    return len(seen)


def clique_instance(fn: PBFunction, k: int) -> CspInstance:
    """The complete graph K_k with the binary fn, named f, on every pair."""
    return CspInstance.build(
        {"f": fn}, [((f"v{i}", f"v{j}"), "f") for i in range(k) for j in range(i + 1, k)]
    )


def brute_force_z(csp: CspInstance) -> Fraction:
    """The partition function by its definition: every assignment's product of
    constraint values, summed.  An oracle that shares no code with the library."""
    tables = dict(csp.registry)
    total = Fraction(0)
    for bits in itertools.product((0, 1), repeat=len(csp.variables)):
        x = dict(zip(csp.variables, bits))
        total += math.prod(
            (
                tables[name].table[int("".join(str(x[v]) for v in scope) or "0", 2)]
                for scope, name in csp.constraints
            ),
            start=Fraction(1),
        )
    return total


def fourier_by_definition(table: Sequence[Fraction], arity: int) -> tuple[Fraction, ...]:
    """F(x) = 2**-k * sum_p (-1)**(p.x) f(p), one Fraction sum per x over every p.
    An oracle that shares no code with the library."""
    n = 1 << arity
    out = []
    for x in range(n):
        total = Fraction(0)
        for p in range(n):
            if bin(p & x).count("1") % 2:
                total -= table[p]
            else:
                total += table[p]
        out.append(total / n)
    return tuple(out)


def first_primes(count: int) -> list[int]:
    """The first `count` primes, by trial division."""
    primes: list[int] = []
    candidate = 2
    while len(primes) < count:
        if all(candidate % p for p in primes if p * p <= candidate):
            primes.append(candidate)
        candidate += 1
    return primes


def lsm_by_definition(f: PBFunction) -> bool:
    """f(x|y) f(x&y) >= f(x) f(y) for all pairs, by Fraction products."""
    t = f.table
    n = len(t)
    for x in range(n):
        for y in range(x + 1, n):
            if t[x | y] * t[x & y] < t[x] * t[y]:
                return False
    return True


def log_modular_by_definition(f: PBFunction) -> bool:
    """f(x|y) f(x&y) == f(x) f(y) for all pairs, by Fraction products."""
    t = f.table
    n = len(t)
    for x in range(n):
        for y in range(x + 1, n):
            if t[x | y] * t[x & y] != t[x] * t[y]:
                return False
    return True


def monotone_by_definition(f: PBFunction) -> bool:
    """f(x) <= f(y) whenever x <= y bitwise, over every such pair."""
    t = f.table
    n = len(t)
    for x in range(n):
        for y in range(x + 1, n):
            if (x & y) == x and t[x] > t[y]:
                return False
    return True


def monotone_on_support_by_definition(f: PBFunction) -> bool:
    """f(a) <= f(b) whenever a <= b bitwise and both are nonzero."""
    t = f.table
    nonzero = [i for i, v in enumerate(t) if v != 0]
    for ai, a in enumerate(nonzero):
        for b in nonzero[ai + 1 :]:
            if (a & b) == a and t[a] > t[b]:
                return False
    return True


def trivial_binary_by_definition(f: PBFunction) -> bool:
    """Log-modular, or a unary times EQ, or a unary times NEQ, by Fraction products."""
    a, b, c, d = f.table
    return a * d == b * c or (b == 0 and c == 0) or (a == 0 and d == 0)


_PRIMES = first_primes(200)


def rand_order_table(rng: random.Random, arity: int) -> PBFunction:
    """Random table for the order predicates: about a fifth zeros, a fifth
    repeats of earlier entries, and denominators that are small or primes
    distinct within the table."""
    values: list[Fraction] = []
    for prime in rng.sample(_PRIMES, 1 << arity):
        roll = rng.random()
        if roll < 0.2:
            values.append(Fraction(0))
        elif roll < 0.4 and values:
            values.append(rng.choice(values))
        else:
            values.append(Fraction(rng.randint(1, 30), rng.choice((1, 2, 3, prime))))
    return PBFunction.from_values(arity, values)


def lsm_prime_table(arity: int, primes: Sequence[int]) -> PBFunction:
    """f(x) = 4**(|x|**2) * (p_x + 1) / p_x: log-supermodular, as 4**(|x|**2)
    gains at least 16 on every incomparable pair and the other factor loses
    at most 9/4."""
    return PBFunction.from_values(
        arity,
        [
            Fraction(4 ** (bin(x).count("1") ** 2) * (p + 1), p)
            for x, p in zip(range(1 << arity), primes)
        ],
    )


def rand_fraction(rng: random.Random, max_num: int = 4, max_den: int = 3) -> Fraction:
    return Fraction(rng.randint(0, max_num), rng.randint(1, max_den))


def rand_positive_fraction(rng: random.Random, max_num: int = 4, max_den: int = 3) -> Fraction:
    return Fraction(rng.randint(1, max_num), rng.randint(1, max_den))


def rand_function(rng: random.Random, arity: int, zero_weight: int = 1) -> PBFunction:
    """Random nonnegative table; zero_weight skews toward sparse support."""
    values = []
    for _ in range(1 << arity):
        if rng.randrange(zero_weight + 2) < zero_weight:
            values.append(Fraction(0))
        else:
            values.append(rand_positive_fraction(rng))
    return PBFunction.from_values(arity, values)


def rand_binary(rng: random.Random) -> PBFunction:
    return rand_function(rng, 2)


def rand_cp_binary(rng: random.Random) -> PBFunction:
    """Random binary with every Fourier coefficient nonnegative, not all-zero."""
    while True:
        f = rand_function(rng, 2, zero_weight=0)
        if in_cp(f) and not f.is_zero():
            return f


def rand_wtilde(rng: random.Random) -> PBFunction:
    """Random carrier-class ternary: 1 at zero, 0 on odd weight."""
    values = [Fraction(0)] * 8
    values[0] = Fraction(1)
    for i in (0b011, 0b101, 0b110):
        values[i] = rand_fraction(rng)
    return PBFunction.from_values(3, values)


def rand_wtilde_cp(rng: random.Random) -> PBFunction:
    """Carrier-class ternary with nonnegative Fourier table, via a lifted binary."""
    f = rand_cp_binary(rng)
    coeffs = fourier(sdp3_lift(f)).table
    scale = coeffs[0]
    return PBFunction.from_values(3, [v / scale for v in coeffs])


def rand_monotone(rng: random.Random, arity: int) -> PBFunction:
    """Random monotone table by max-propagation up the lattice."""
    values = [rand_fraction(rng) for _ in range(1 << arity)]
    for i in range(1 << arity):
        for j in range(arity):
            below = i & ~(1 << j)
            if below != i and values[i] < values[below]:
                values[i] = values[below]
    return PBFunction.from_values(arity, values)


def rand_pin_monotone(rng: random.Random, arity: int) -> PBFunction:
    """Random pin-monotone function: filtered general tables, monotone fallback."""
    for _ in range(40):
        f = rand_function(rng, arity)
        if is_pin_monotone(f):
            return f
    return rand_monotone(rng, arity)


def rand_product_type(rng: random.Random, arity: int) -> PBFunction:
    """Assemble a product of unaries and EQ/NEQ pair factors over `arity` slots."""
    unaries = tuple(
        (coord, unary(rand_positive_fraction(rng), rand_positive_fraction(rng)))
        for coord in range(arity)
        if rng.random() < 0.7
    )
    slots = list(range(arity))
    rng.shuffle(slots)
    eq_pairs = []
    neq_pairs = []
    while len(slots) >= 2 and rng.random() < 0.6:
        pair = (slots.pop(), slots.pop())
        pair = (min(pair), max(pair))
        (eq_pairs if rng.random() < 0.5 else neq_pairs).append(pair)
    form = ProductForm(
        arity, rand_positive_fraction(rng), unaries, tuple(eq_pairs), tuple(neq_pairs)
    )
    return form.as_function()


def rand_csp_instance(
    rng: random.Random,
    functions: list[PBFunction],
    n_vars: int,
    n_constraints: int,
) -> CspInstance:
    """Random instance over the given functions with fully random scopes."""
    variables = [f"v{i}" for i in range(n_vars)]
    registry = [(f"f{i}", fn) for i, fn in enumerate(functions)]
    constraints = []
    for _ in range(n_constraints):
        name, fn = rng.choice(registry)
        scope = tuple(rng.choice(variables) for _ in range(fn.arity))
        constraints.append((scope, name))
    return CspInstance.build(registry, constraints, variables=variables)


def rand_holant_instance(
    rng: random.Random,
    make_function: Callable[[random.Random], PBFunction],
    n_constraints: int,
    arity: int = 3,
) -> HolantInstance:
    """Random holant instance: all slots paired up into variables."""
    registry = [(f"g{i}", make_function(rng)) for i in range(n_constraints)]
    slots = [(ci, pos) for ci in range(n_constraints) for pos in range(arity)]
    rng.shuffle(slots)
    scopes: list[list[Optional[str]]] = [[None] * arity for _ in range(n_constraints)]
    for vi in range(len(slots) // 2):
        for ci, pos in (slots[2 * vi], slots[2 * vi + 1]):
            scopes[ci][pos] = f"v{vi}"
    constraints = [(tuple(scope), f"g{ci}") for ci, scope in enumerate(scopes)]
    return HolantInstance.build(registry, constraints)


def rand_mixed_holant_instance(rng: random.Random, n_vars: int) -> HolantInstance:
    """Holant instance over random functions of mixed arity, 2*n_vars slots."""
    total_slots = 2 * n_vars
    arities = []
    while total_slots > 0:
        k = rng.randint(1, min(3, total_slots))
        arities.append(k)
        total_slots -= k
    registry = [(f"g{i}", rand_function(rng, k, zero_weight=0)) for i, k in enumerate(arities)]
    slots = [(ci, pos) for ci, k in enumerate(arities) for pos in range(k)]
    rng.shuffle(slots)
    scopes: list[list[Optional[str]]] = [[None] * k for k in arities]
    for vi in range(n_vars):
        for ci, pos in (slots[2 * vi], slots[2 * vi + 1]):
            scopes[ci][pos] = f"v{vi}"
    constraints = [(tuple(scope), f"g{ci}") for ci, scope in enumerate(scopes)]
    return HolantInstance.build(registry, constraints)
