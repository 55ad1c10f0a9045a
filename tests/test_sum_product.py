"""The sum-of-products kernel and the clone operations built on it, against direct sums."""

from __future__ import annotations

import random
import time
import tracemalloc
from fractions import Fraction
from itertools import product

import pytest

from helpers import rand_function
from spincount.funcs import (
    _REORDER_BITS,
    _SLICE_BITS,
    _int_sum_product,
    _sum_product,
    _sum_product_count,
    add_fictitious,
    identify,
    permute,
    pin,
    sum_out,
)


def _assignments(n: int):
    """Every assignment of n bits in table order, the first bit most significant."""
    return product((0, 1), repeat=n)


def _direct_sum_product(n_free, n_vars, atoms):
    out = []
    for free in _assignments(n_free):
        total = Fraction(0)
        for bound in _assignments(n_vars - n_free):
            x = free + bound
            value = Fraction(1)
            for table, scope in atoms:
                value *= table[int("".join(str(x[v]) for v in scope) or "0", 2)]
            total += value
        out.append(total)
    return tuple(out)


def _rand_atom(rng: random.Random, n_vars: int):
    arity = rng.randint(0, min(3, n_vars)) if n_vars else 0
    table = tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(1 << arity))
    return table, tuple(rng.randrange(n_vars) for _ in range(arity))


def test_sum_product_matches_direct_sum():
    rng = random.Random(20240611)
    for _ in range(300):
        n_vars = rng.randint(0, 6)
        n_free = rng.choice([0, n_vars, rng.randint(0, n_vars)])
        atoms = [_rand_atom(rng, n_vars) for _ in range(rng.randint(0, 4))]
        got = _sum_product(n_free, n_vars, atoms)
        assert len(got) == 1 << n_free
        assert all(isinstance(v, Fraction) for v in got)
        assert got == _direct_sum_product(n_free, n_vars, atoms), (n_free, n_vars, atoms)


def test_sum_product_covers_repeats_unused_and_nullary_atoms():
    half = (Fraction(1, 2), Fraction(-3))
    # One atom reads x0 twice, x1 is unused, and a nullary atom contributes 2.
    atoms = [((Fraction(5), Fraction(7), Fraction(11), Fraction(13)), (0, 0)), ((Fraction(2),), ())]
    assert _sum_product(1, 2, atoms) == (Fraction(20), Fraction(52))
    assert _sum_product(0, 2, atoms) == (Fraction(72),)
    assert _sum_product(0, 1, [(half, (0,)), (half, (0,))]) == (Fraction(1, 4) + 9,)
    assert _sum_product(0, 0, []) == (Fraction(1),)
    assert _sum_product(0, 3, []) == (Fraction(8),)


@pytest.mark.parametrize(
    "n_free, n_bound",
    [
        (3, _SLICE_BITS - 1),  # a slice holds two free entries' sums
        (2, _SLICE_BITS),  # a slice is one free entry's sum
        (1, _SLICE_BITS + 1),  # two slices add into one entry
        (0, _SLICE_BITS + 2),  # four slices, one entry
        (0, _SLICE_BITS),  # one slice, no loop
    ],
)
def test_int_sum_product_across_the_slice_width(n_free, n_bound):
    """Fewer, as many and more bound variables than one slice expands.  Atoms
    span the looped and the expanded variables, repeat a variable, hold signed
    entries and zeros, and one is nullary."""
    n_vars = n_free + n_bound
    rng = random.Random(n_vars * 31 + n_free)
    atoms = [((rng.choice((-2, 3)),), ())]
    for _ in range(5):
        arity = rng.randint(1, 3)
        table = [rng.randint(-3, 5) for _ in range(1 << arity)]
        atoms.append((table, tuple(rng.randrange(n_vars) for _ in range(arity))))
    atoms.append(([2, 0, -1, 3], (0, n_vars - 1)))
    atoms.append(([1, 4, 2, 1], (n_vars - 1, n_vars - 1)))
    want = _direct_sum_product(n_free, n_vars, atoms)
    assert tuple(_int_sum_product(n_free, n_vars, atoms)) == want
    assert _sum_product(n_free, n_vars, atoms) == want


class _CountedTable(list):
    """A table that counts, in a shared one-item list, the entries read from it."""

    def __init__(self, values, reads: list[int]) -> None:
        super().__init__(values)
        self.reads = reads

    def __getitem__(self, i):
        self.reads[0] += 1
        return super().__getitem__(i)


@pytest.mark.parametrize("unread", [False, True])
@pytest.mark.parametrize(
    "n_free, n_bound",
    [
        (0, _REORDER_BITS - 1),  # too few assignments to reorder
        (0, _REORDER_BITS),  # the smallest call that reorders
        (2, _REORDER_BITS),  # free variables ahead of the bound ones
        (3, _SLICE_BITS - 1),  # a slice holds two free entries' sums
        (2, _SLICE_BITS),  # a slice is one free entry's sum
        (1, _SLICE_BITS + 1),  # two slices add into one entry
        (0, _SLICE_BITS + 2),  # four slices, one entry
        (0, _SLICE_BITS),  # one slice, no loop
    ],
)
def test_int_sum_product_sums_variables_out_early(n_free, n_bound, unread):
    """Atoms whose last variable comes before other atoms' variables, listed in
    increasing order of it, so that the kernel reorders them and sums bound
    variables out before it multiplies them: inside a slice, across slices and
    behind free variables.  A path links every variable, one atom reads only
    the first two, one repeats a variable, one is nullary, entries are signed
    and some are zero; with ``unread`` no atom reads the last variable, which
    doubles the sum.  The kernel must match the direct sum and read exactly
    ``_sum_product_count`` entries, fewer than one per atom per assignment
    wherever it reorders."""
    n_vars = n_free + n_bound
    top = n_vars - 1 if unread else n_vars
    rng = random.Random(n_vars * 37 + n_free + unread)
    scopes = [(0, 1, 0), (1, 0)]
    scopes += [(v, v + 1) for v in range(top - 1)]
    scopes += [(top - 1, 0), (rng.randrange(top), top - 1, rng.randrange(top)), ()]
    tables = [[rng.choice((-3, -1, 0, 2, 5)) for _ in range(1 << len(scope))] for scope in scopes]
    atoms = list(zip(tables, scopes))
    want = _direct_sum_product(n_free, n_vars, atoms)
    reads = [0]
    got = _int_sum_product(n_free, n_vars, [(_CountedTable(t, reads), scope) for t, scope in atoms])
    assert tuple(got) == want
    assert reads[0] == _sum_product_count(n_free, n_vars, scopes, 1 << 60)
    reorders = n_vars >= _REORDER_BITS and n_vars - max(n_free, n_vars - _SLICE_BITS) > 1
    assert (reads[0] < len(atoms) << n_vars) == reorders


def _naive_count(n_free: int, n_vars: int, scopes) -> int:
    """The kernel's products by the rule of its docstring, slice by slice.

    A slice holds the assignments of the variables from n_vars - _SLICE_BITS
    on.  Where a slice of at least 2**_REORDER_BITS assignments has two bound
    variables or more, the atoms go in decreasing order of their last
    variable, and the lowest variable of the list, while it is bound, in the
    slice and read by no atom left, is summed out before the next atom.  Each
    atom multiplies the list as it then is."""
    n_high = max(0, n_vars - _SLICE_BITS)
    floor = max(n_free, n_high)
    reorder = n_vars - n_high >= _REORDER_BITS and n_vars - floor >= 2
    order = sorted(scopes, key=lambda scope: max(scope, default=-1), reverse=True) if reorder else scopes
    products = 0
    for _ in range(1 << n_high):
        spans = n_vars
        for i, scope in enumerate(order):
            while reorder and spans > floor and not any(spans - 1 in later for later in order[i:]):
                spans -= 1
            products += 1 << (spans - n_high)
    return products


def test_sum_product_count_matches_a_naive_recount():
    """``_sum_product_count`` against ``_naive_count`` on 600 seeded calls of
    0-16 variables, some free, with nullary atoms, repeated variables and
    repeated scopes: equal under an unbounded limit, equal at a limit of the
    count itself, and past a limit one below it."""
    rng = random.Random(2323)
    reordered = 0
    for _ in range(600):
        n_vars = rng.randint(0, 16)
        n_free = rng.choice([0, 0, rng.randint(0, n_vars)])
        scopes: list[tuple[int, ...]] = []
        for _ in range(rng.randint(0, 8)):
            if scopes and rng.random() < 0.15:
                scopes.append(rng.choice(scopes))
            else:
                scopes.append(tuple(rng.randrange(n_vars) for _ in range(rng.randint(0, min(3, n_vars)))))
        want = _naive_count(n_free, n_vars, scopes)
        assert _sum_product_count(n_free, n_vars, scopes, 1 << 60) == want, (n_free, n_vars, scopes)
        assert _sum_product_count(n_free, n_vars, scopes, want) == want
        if want:
            assert _sum_product_count(n_free, n_vars, scopes, want - 1) > want - 1
        reordered += want < len(scopes) << n_vars
    assert reordered > 100


def test_sum_product_count_stops_at_a_span_past_the_limit():
    """An atom whose span alone passes the limit's bit length makes the count
    ``limit + 1`` at once: over 10**9 variables no 2**span is built, so the
    call returns well within a second and allocates almost nothing."""
    tracemalloc.start()
    try:
        start = time.perf_counter()
        assert _sum_product_count(0, 10**9, [(0,)], 1 << 22) == (1 << 22) + 1
        seconds = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert seconds < 1 and peak < 1 << 16
    # A span at the bit length itself is still counted.
    assert _sum_product_count(0, 23, [(22,), (0,)], 1 << 22) == 1 << 23


def _functions(seed: int, count: int = 40):
    rng = random.Random(seed)
    for _ in range(count):
        yield rng, rand_function(rng, rng.randint(1, 5))


def test_pin_at_every_position_is_pointwise():
    for _, f in _functions(1):
        k = f.arity
        for i in range(k):
            for b in (0, 1):
                want = tuple(f(y[:i] + (b,) + y[i:]) for y in _assignments(k - 1))
                assert pin(f, i, b).table == want


def test_sum_out_at_every_position_is_pointwise():
    for _, f in _functions(2):
        k = f.arity
        for i in range(k):
            want = tuple(
                f(y[:i] + (0,) + y[i:]) + f(y[:i] + (1,) + y[i:]) for y in _assignments(k - 1)
            )
            assert sum_out(f, i).table == want


def test_add_fictitious_at_every_position_is_pointwise():
    for _, f in _functions(3):
        k = f.arity
        for i in range(k + 1):
            want = tuple(f(x[:i] + x[i + 1 :]) for x in _assignments(k + 1))
            assert add_fictitious(f, i).table == want
        assert add_fictitious(f).table == add_fictitious(f, k).table


def test_identify_random_partitions_is_pointwise():
    for rng, f in _functions(4):
        k = f.arity
        labels = [rng.randrange(k) for _ in range(k)]
        blocks = [[c for c in range(k) if labels[c] == lab] for lab in set(labels)]
        rng.shuffle(blocks)
        ordered = sorted(blocks, key=min)
        want = []
        for y in _assignments(len(ordered)):
            x = [0] * k
            for j, block in enumerate(ordered):
                for c in block:
                    x[c] = y[j]
            want.append(f(x))
        assert identify(f, blocks).table == tuple(want)


def test_permute_random_permutations_is_pointwise():
    for rng, f in _functions(5):
        k = f.arity
        perm = list(range(k))
        rng.shuffle(perm)
        want = tuple(f(tuple(x[perm[j]] for j in range(k))) for x in _assignments(k))
        assert permute(f, perm).table == want
