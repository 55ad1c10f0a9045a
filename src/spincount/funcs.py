"""Pseudo-Boolean function tables over exact rationals.

A function of arity k is stored as its full table of 2**k nonnegative
rationals.  Table order puts the first argument in the most significant
bit: index(x_0, ..., x_{k-1}) = sum x_j * 2**(k-1-j).  A binary function
written as a matrix [[a, b], [c, d]] therefore has table (a, b, c, d)
with a = f(0,0), b = f(0,1), c = f(1,0), d = f(1,1).

Signed tables (Fourier coefficients, holographic images) use the same
layout but may hold negative entries.  All arithmetic is exact; floats
are rejected at the door.

``table_text`` and ``record_fields`` are the one place that writes tables and
records as text: the CLI, ``instances.serialize`` and every error message
that shows a table go through ``table_text``, and every verdict's and
report's ``record()`` through ``record_fields``.

Every sum of products runs in one integer kernel, ``_int_sum_product``, the
one place where evaluation reads the table layout.  It works on whole tables:
each atom is read through an index list over a slice of at most
2**_SLICE_BITS assignments, the atoms are multiplied by ``map(mul, ...)``
one atom at a time into a list per slice, and the bound variables summed out
by ``map(add, ...)``.  In a slice large enough to pay for it, the atoms go in
decreasing order of their last variable and each bound variable is summed
out as soon as no atom left reads it, so later atoms multiply shorter lists;
``_sum_product_count`` counts the products that takes.  Its memory is a few
lists of one slice, however many variables are summed out or atoms multiplied.
``instances.z_exact`` calls it directly and keeps its messages as ints;
``_sum_product`` is its Fraction front end for the clone operations below and
``gadgets.eval_pps``; ``_map_axes`` maps one axis per call through it for
``instances.holographic_transform``.

``_integer_table`` is the one place that scales a table to integers, by the
lcm of its denominators: ``_integer_atoms`` calls it once per table object for
``_sum_product`` and ``z_exact``, and ``_map_axes`` and ``_wht`` call it on
their tables.  ``z_exact`` builds one Fraction in all, the others one per
entry returned, and ``in_cp``/``in_sdp3`` read the signs of the integer
transform.  ``_wht``'s ±1 butterfly has no products, so ``inverse_fourier``
takes 1.9-2.8x less time on it than on ``_map_axes`` at arities 2-10.

The order predicates (``is_lsm``, ``is_log_modular``, ``is_monotone``,
``is_monotone_on_support``, ``is_trivial_binary``, the permissive-unary
tests, and ``gadgets``' pair searches through ``_rises``) never scale by the
lcm: they compare cross-products of the entries' own numerators and
denominators, read by ``_ratios``, so every product is about as long as the
entries and no comparison goes through ``Fraction``'s own.  One report or
verdict reads them once and passes them, and the support as a list of indices,
to the helpers each predicate wraps; a bit flip's lists are them reversed.
Scaled by the lcm, each entry of an arity-9 table whose 512 denominators are
distinct primes is thousands of bits long: ``is_lsm`` on it took 7.8 s that
way and 0.9 s on Fraction products, and takes under 0.1 s cross-multiplied
(2-vCPU Xeon VM, Python 3.11).
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass, fields
from fractions import Fraction
from itertools import chain, repeat
from math import lcm, prod
from operator import add, itemgetter, mul
from typing import Iterable, Optional, Sequence, TypeVar, Union

ARITY_CAP = 16

Rational = Union[int, str, Fraction]


class CapacityError(Exception):
    """A table, instance, or graph is too large for the configured cap."""


def frac(value: Rational) -> Fraction:
    """Coerce an int, bool, Fraction, or string literal to Fraction.

    A string must be an integer or ``p/q`` literal as ``parse_rational``
    reads it, e.g. ``"3"``, ``"-2/6"``; ``"0.1"``, ``"1e-3"``, ``"1_000"`` and
    padded strings raise ValueError.  Floats raise TypeError.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        return Fraction(int(value))
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}: {value!r}")


_RATIONAL = re.compile(r"[+-]?\d+(?:/[1-9]\d*)?")


def parse_rational(token: str) -> Fraction:
    """Read an integer or p/q literal; anything else raises ValueError."""
    if not _RATIONAL.fullmatch(token):
        raise ValueError(f"bad rational literal {token!r}")
    return Fraction(token)


def index_of(bits: Sequence[int]) -> int:
    idx = 0
    for b in bits:
        if b not in (0, 1):
            raise ValueError(f"bits must be 0 or 1, got {b!r}")
        idx = (idx << 1) | b
    return idx


def bits_of(index: int, arity: int) -> tuple[int, ...]:
    return tuple((index >> (arity - 1 - j)) & 1 for j in range(arity))


def _check_arity(arity: int) -> None:
    if not isinstance(arity, int) or arity < 0:
        raise ValueError(f"arity must be a nonnegative int, got {arity!r}")
    if arity > ARITY_CAP:
        raise CapacityError(f"arity {arity} exceeds the cap of {ARITY_CAP}")


_T = TypeVar("_T")
_TableT = TypeVar("_TableT", bound="_Table")


def _unchecked(cls: type[_T], *values: object) -> _T:
    """``cls(*values)`` without its ``__post_init__`` checks.

    Public constructors check what enters the library.  A library step whose
    output is valid by how the step builds it calls this instead; it passes
    tuples, as ``__post_init__`` would have made them, and says why the checks
    would pass.
    """
    obj = object.__new__(cls)
    # The field names in order, without the tuple ``fields`` builds per call; no
    # class built here declares a ClassVar or InitVar, which this would count.
    obj.__dict__.update(zip(cls.__dataclass_fields__, values, strict=True))
    return obj


@dataclass(frozen=True)
class _Table:
    """The shape both table kinds share: an arity and its 2**arity exact entries."""

    arity: int
    table: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        _check_arity(self.arity)
        values = tuple(map(frac, self.table))
        if len(values) != 1 << self.arity:
            raise ValueError(f"arity {self.arity} needs {1 << self.arity} values, got {len(values)}")
        object.__setattr__(self, "table", values)

    @classmethod
    def from_values(cls: type[_TableT], arity: int, values: Iterable[Rational]) -> _TableT:
        return cls(arity, tuple(frac(v) for v in values))

    def __call__(self, bits: Sequence[int]) -> Fraction:
        if len(bits) != self.arity:
            raise ValueError(f"expected {self.arity} bits, got {len(bits)}")
        return self.table[index_of(bits)]


@dataclass(frozen=True)
class PBFunction(_Table):
    """A nonnegative rational-valued function {0,1}**arity -> Q>=0."""

    def __post_init__(self) -> None:
        super().__post_init__()
        for v in self.table:
            # The numerator carries the sign; reading it is about four times
            # faster than a Fraction comparison, and every table built passes here.
            if v.numerator < 0:
                raise ValueError(f"negative entry {v}; use SignedTable for signed data")

    def as_signed(self) -> "SignedTable":
        return SignedTable(self.arity, self.table)

    def is_zero(self) -> bool:
        return all(v == 0 for v in self.table)


@dataclass(frozen=True)
class SignedTable(_Table):
    """A rational-valued function table with entries of arbitrary sign."""

    def as_function(self) -> PBFunction:
        if any(v < 0 for v in self.table):
            raise ValueError("table has negative entries; not a PBFunction")
        return PBFunction(self.arity, self.table)


def table_text(table: Iterable[Fraction]) -> str:
    """A table's entries as text: each entry's str, separated by single spaces."""
    return " ".join(str(v) for v in table)


def binary(a: Rational, b: Rational, c: Rational, d: Rational) -> PBFunction:
    """The binary function [[a, b], [c, d]] with a = f(0,0), ..., d = f(1,1)."""
    return PBFunction.from_values(2, (a, b, c, d))


def unary(a: Rational, b: Rational) -> PBFunction:
    return PBFunction.from_values(1, (a, b))


EQ = binary(1, 0, 0, 1)
NEQ = binary(0, 1, 1, 0)
IMP = binary(1, 1, 0, 1)
DELTA0 = unary(1, 0)
DELTA1 = unary(0, 1)
EQ3 = PBFunction.from_values(3, (1, 0, 0, 0, 0, 0, 0, 1))
# Indicator of even parity: xor3(x, y, z) = 1 iff x ^ y ^ z = 0.
XOR3 = PBFunction.from_values(3, (1, 0, 0, 1, 0, 1, 1, 0))


# ---------------------------------------------------------------------------
# Fourier transform


def _integer_table(table: Sequence[Fraction]) -> tuple[list[int], int]:
    """The table times the lcm of its denominators, as ints, and that lcm."""
    ratios = [v.as_integer_ratio() for v in table]
    scale = lcm(*[q for _, q in ratios])
    return [p * (scale // q) for p, q in ratios], scale


def _wht(table: Sequence[Fraction]) -> tuple[list[int], int]:
    """The unnormalized transform sum_p (-1)**(p.x) t(p) as (ints, scale).

    Entry x is ints[x] / scale.  The butterfly runs on ints, so no step does
    a gcd, and as the scale is positive the ints carry the signs and zeros.
    """
    out, scale = _integer_table(table)
    n = len(out)
    h = 1
    while h < n:
        for i in range(0, n, 2 * h):
            for j in range(i, i + h):
                a, b = out[j], out[j + h]
                out[j], out[j + h] = a + b, a - b
        h *= 2
    return out, scale


def fourier(f: Union[PBFunction, SignedTable]) -> SignedTable:
    """Fourier table F with F(x) = 2**-k * sum_p (-1)**(p.x) f(p)."""
    ints, scale = _wht(f.table)
    scale <<= f.arity
    return SignedTable(f.arity, tuple(Fraction(v, scale) for v in ints))


def inverse_fourier(F: SignedTable) -> SignedTable:
    """Inverse transform, no normalization: f(x) = sum_p (-1)**(p.x) F(p)."""
    ints, scale = _wht(F.table)
    return SignedTable(F.arity, tuple(Fraction(v, scale) for v in ints))


# ---------------------------------------------------------------------------
# Sums of products


# The kernel expands its atoms over at most 2**_SLICE_BITS assignments at a
# time, so its index lists stay small however many variables are summed out.
_SLICE_BITS = 12
# The kernel reorders its atoms, to sum each bound variable out early, only in
# slices of at least 2**_REORDER_BITS assignments.  Below that the sort and
# the extra sums cost more than the products they save: on rings and random
# pairs over 2-4 variables the reordered kernel took up to 3 us (23%) longer,
# at 5 about the same, and at 6-8 it took 17-62% less (2 cores, Python 3.11).
_REORDER_BITS = 5


def _index_list(weights: Sequence[int]) -> list[int]:
    """Each assignment's weight sum, in table order over the weighted variables."""
    out = [0]
    for w in reversed(weights):
        out += [i + w for i in out] if w else out
    return out


def _int_sum_product(
    n_free: int, n_vars: int, atoms: Iterable[tuple[Sequence[int], Sequence[int]]]
) -> list[int]:
    """Integer table over variables 0..n_free-1 of the atoms' product summed over the rest.

    Each atom is a (table of ints, scope) pair over variables 0..n_vars-1,
    variable 0 the most significant bit.  An atom reads its table through one
    index list per slice: the low ``_SLICE_BITS`` variables are expanded as a
    whole, with each atom's index offset for the high ones, which are looped.
    Each atom in turn multiplies the slice's list of products by
    ``map(mul, ...)``, so no chain of iterators grows with the atoms; the
    bound variables, the lowest bits, are summed out by adding adjacent pairs
    with ``map(add, ...)``.

    A slice of at least 2**``_REORDER_BITS`` assignments that sums out two
    variables or more takes the atoms in decreasing order of their last
    variable, and sums each bound variable of the slice out as soon as no atom
    left reads it, so each later atom multiplies a list half as long.  A
    variable past every atom's last is read by none and doubles the sum.
    ``_sum_product_count`` counts the products this takes.
    """
    n_high = max(0, n_vars - _SLICE_BITS)
    floor = n_free if n_free > n_high else n_high
    reorder = n_vars >= _REORDER_BITS and n_vars - floor > 1
    columns = []
    span = n_vars
    for table, scope in atoms:
        if reorder:
            # The list this atom multiplies spans its variables up to its last,
            # and at least the free and the looped ones.
            span = max(scope) + 1 if scope else 0
            if span < floor:
                span = floor
        weights = [0] * span
        bit = 1 << len(scope)
        for v in scope:
            bit >>= 1
            weights[v] += bit
        # Most calls fit one slice.  Skipping the empty high index list, the
        # zero offsets and the chain of one slice there takes about a fifth
        # off the kernel's time on the tiny sums of gadgets.pinning_analysis.
        if n_high:
            columns.append((span, table.__getitem__, _index_list(weights[:n_high]), _index_list(weights[n_high:])))
        else:
            columns.append((span, table.__getitem__, (0,), _index_list(weights)))
    # The list spans variables 0..top-1 at the first atom and 0..last-1 after the last.
    top = last = n_vars
    if reorder and columns:
        columns.sort(key=itemgetter(0), reverse=True)
        top, last = columns[0][0], columns[-1][0]

    def product(high: int) -> list[int]:
        values: Optional[list[int]] = None
        size = top
        for span, get, high_index, low_index in columns:
            if span < size:
                # No atom left reads the variables from span on.
                summed = iter(values)
                for _ in range(size - span):
                    summed = map(add, summed, summed)
                values, size = list(summed), span
            offset = high_index[high]
            column = map(get, map(offset.__add__, low_index) if offset else low_index)
            values = list(column) if values is None else list(map(mul, values, column))
        return [1] * (1 << (n_vars - n_high)) if values is None else values

    # A slice's list spans its variables below last; the rest of the bound
    # ones are summed out as the slices stream by.
    stream = chain.from_iterable(map(product, range(1 << n_high))) if n_high else iter(product(0))
    for _ in range(last - n_free):
        stream = map(add, stream, stream)
    out = list(stream)
    return [v << (n_vars - top) for v in out] if top < n_vars else out


def _sum_product_count(n_free: int, n_vars: int, scopes: Iterable[Sequence[int]], limit: int) -> int:
    """The products ``_int_sum_product`` takes on atoms of these scopes, slices
    included: exact up to ``limit``, and once past it, the count so far.

    An atom multiplies one entry per assignment of the variables its list
    spans, 2**span products over all slices.  Its span is n_vars, or, where
    the kernel reorders, the variables up to its last, or the free and the
    looped ones (n_vars - ``_SLICE_BITS``) if they reach further.
    """
    floor = max(n_free, n_vars - _SLICE_BITS)
    reorder = n_vars >= _REORDER_BITS and n_vars - floor > 1
    products = 0
    span = n_vars
    for scope in scopes:
        if reorder:
            span = max(scope) + 1 if scope else 0
            if span < floor:
                span = floor
        products += 1 << span
        if products > limit:
            break
    return products


def _integer_atoms(atoms: Iterable[tuple[Sequence[Fraction], Sequence[int]]]) -> tuple[list, int]:
    """The atoms on their tables' ints, each table object scaled once, and the
    denominator: every table's scale raised to its uses."""
    # The list keeps every table alive for the call, so no id below is reused.
    atoms = list(atoms)
    scaled: dict[int, tuple[list[int], int]] = {}
    uses: dict[int, int] = {}
    for table, _ in atoms:
        key = id(table)
        uses[key] = uses.get(key, 0) + 1
        if key not in scaled:
            scaled[key] = _integer_table(table)
    int_atoms = [(scaled[id(table)][0], scope) for table, scope in atoms]
    return int_atoms, prod(scaled[key][1] ** count for key, count in uses.items())


def _sum_product(
    n_free: int, n_vars: int, atoms: Iterable[tuple[Sequence[Fraction], Sequence[int]]]
) -> tuple[Fraction, ...]:
    """``_int_sum_product`` on Fraction tables, scaled by ``_integer_atoms``."""
    int_atoms, denominator = _integer_atoms(atoms)
    out = _int_sum_product(n_free, n_vars, int_atoms)
    return tuple(map(Fraction, out, repeat(denominator, len(out))))


def _map_axes(f: _Table, matrix: _Table) -> SignedTable:
    """f with the binary table ``matrix`` applied to each axis a in turn:
    x maps to sum_t matrix(x_a, t) f(x with x_a = t), on ints until the end."""
    k = f.arity
    ints, scale = _integer_table(f.table)
    matrix_ints, matrix_scale = _integer_table(matrix.table)
    for axis in range(k):
        scope = list(range(k))
        scope[axis] = k
        ints = _int_sum_product(k, k + 1, [(ints, scope), (matrix_ints, (axis, k))])
    return SignedTable(k, tuple(map(Fraction, ints, repeat(scale * matrix_scale**k, len(ints)))))


# ---------------------------------------------------------------------------
# Clone operations


def bit_flip(f: PBFunction) -> PBFunction:
    """f_bar(x) = f(x with every bit flipped); reverses the table."""
    # f's entries in another order: as many, each a nonnegative Fraction.
    return _unchecked(PBFunction, f.arity, f.table[::-1])


def permute(f: PBFunction, perm: Sequence[int]) -> PBFunction:
    """Relocate coordinate j to position perm[j]: g(x) = f(x[perm[0]], ...)."""
    k = f.arity
    if sorted(perm) != list(range(k)):
        raise ValueError(f"perm must be a permutation of range({k}), got {perm!r}")
    return PBFunction(k, _sum_product(k, k, [(f.table, perm)]))


def product(f: PBFunction, g: PBFunction) -> PBFunction:
    if f.arity != g.arity:
        raise ValueError(f"arity mismatch: {f.arity} vs {g.arity}")
    return PBFunction(f.arity, tuple(a * b for a, b in zip(f.table, g.table)))


def sum_out(f: PBFunction, i: int) -> PBFunction:
    """Sum coordinate i (0-based) out of f."""
    k = f.arity
    if not 0 <= i < k:
        raise ValueError(f"coordinate {i} out of range for arity {k}")
    scope = [j - (j > i) for j in range(k)]
    scope[i] = k - 1
    return PBFunction(k - 1, _sum_product(k - 1, k, [(f.table, scope)]))


def add_fictitious(f: PBFunction, i: Optional[int] = None) -> PBFunction:
    """Insert a coordinate at position i (default: append) that f ignores."""
    k = f.arity
    pos = k if i is None else i
    if not 0 <= pos <= k:
        raise ValueError(f"position {pos} out of range for arity {k}")
    scope = [j for j in range(k + 1) if j != pos]
    return PBFunction(k + 1, _sum_product(k + 1, k + 1, [(f.table, scope)]))


def pin(f: PBFunction, i: int, b: int) -> PBFunction:
    """Fix coordinate i (0-based) to the bit b."""
    k = f.arity
    if not 0 <= i < k:
        raise ValueError(f"coordinate {i} out of range for arity {k}")
    if b not in (0, 1):
        raise ValueError(f"pin value must be 0 or 1, got {b!r}")
    scope = [j - (j > i) for j in range(k)]
    scope[i] = k - 1
    delta = (DELTA1 if b else DELTA0).table
    return PBFunction(k - 1, _sum_product(k - 1, k, [(delta, (k - 1,)), (f.table, scope)]))


def _normalize_partition(arity: int, partition: Iterable[Iterable[int]]) -> tuple[tuple[int, ...], ...]:
    blocks = [tuple(sorted(block)) for block in partition]
    seen = sorted(c for block in blocks for c in block)
    if seen != list(range(arity)):
        raise ValueError(f"partition must cover range({arity}) exactly, got {blocks!r}")
    return tuple(sorted(blocks, key=lambda blk: blk[0]))


def identify(f: PBFunction, partition: Iterable[Iterable[int]]) -> PBFunction:
    """Merge coordinates within each block; blocks are ordered by least member."""
    blocks = _normalize_partition(f.arity, partition)
    scope = [0] * f.arity
    for j, block in enumerate(blocks):
        for c in block:
            scope[c] = j
    m = len(blocks)
    return PBFunction(m, _sum_product(m, m, [(f.table, scope)]))


# ---------------------------------------------------------------------------
# Support relations


@dataclass(frozen=True)
class SupportRelation:
    """The set of inputs on which a function is nonzero."""

    arity: int
    tuples: frozenset[tuple[int, ...]]

    def __post_init__(self) -> None:
        _check_arity(self.arity)
        tuples = frozenset(tuple(t) for t in self.tuples)
        for t in tuples:
            if len(t) != self.arity or any(b not in (0, 1) for b in t):
                raise ValueError(f"bad tuple {t!r} for arity {self.arity}")
        object.__setattr__(self, "tuples", tuples)


def support(f: PBFunction) -> SupportRelation:
    k = f.arity
    nonzero = frozenset(bits_of(i, k) for i, v in enumerate(f.table) if v != 0)
    return SupportRelation(k, nonzero)


def _affine(points: Sequence[int]) -> bool:
    """Whether the increasing indices are the solution set of a GF(2) linear system."""
    if not points:
        return True
    base = points[0]
    basis: list[int] = []
    for p in points:
        v = p ^ base
        for b in basis:
            v = min(v, v ^ b)
        if v:
            basis.append(v)
            basis.sort(reverse=True)
    return len(points) == 1 << len(basis)


def is_affine_relation(rel: SupportRelation) -> bool:
    """True iff the relation is the solution set of a GF(2) linear system."""
    return _affine(sorted(index_of(t) for t in rel.tuples))


def is_and_or_closed(rel: SupportRelation) -> bool:
    """True iff the relation is closed under coordinatewise AND and OR."""
    points = [index_of(t) for t in rel.tuples]
    pointset = set(points)
    for i, a in enumerate(points):
        for b in points[i + 1 :]:
            if (a & b) not in pointset or (a | b) not in pointset:
                return False
    return True


# ---------------------------------------------------------------------------
# Properties


def _ratios(f: PBFunction) -> tuple[list[int], list[int]]:
    """Each entry's numerator and denominator: f(x) < f(y) iff p[x] q[y] < p[y] q[x]."""
    return [v.numerator for v in f.table], [v.denominator for v in f.table]


def _nonzero(p: Sequence[int]) -> list[int]:
    """The support as increasing indices, from the numerators p."""
    return [i for i, x in enumerate(p) if x]


def _pure(p: Sequence[int], q: Sequence[int], points: Sequence[int]) -> bool:
    """One (numerator, denominator) pair, so one value in lowest terms, on the points."""
    return len({(p[i], q[i]) for i in points}) <= 1


def pure_value(f: PBFunction) -> tuple[bool, Optional[Fraction]]:
    """A function is pure when its nonzero values are all equal."""
    p, q = _ratios(f)
    points = _nonzero(p)
    pure = _pure(p, q, points)
    return pure, f.table[points[0]] if pure and points else None


def _rises(p: Sequence[int], q: Sequence[int], x: int, y: int) -> bool:
    """0 < f(x) < f(y), for f's numerators p and denominators q."""
    return p[x] > 0 and p[x] * q[y] < p[y] * q[x]


def _lattice_order(p: Sequence[int], q: Sequence[int]) -> tuple[bool, bool]:
    """(lsm, log-modular) from f(x|y) f(x&y) against f(x) f(y), both times q[x] q[y]
    q[x|y] q[x&y], on each incomparable pair x < y; a comparable pair's are equal."""
    modular = True
    n = len(p)
    for x in range(n):
        for y in range(x + 1, n):
            lo = x & y
            if lo != x:
                hi = x | y
                join_meet, pair = p[hi] * p[lo] * q[x] * q[y], p[x] * p[y] * q[hi] * q[lo]
                if join_meet != pair:
                    if join_meet < pair:
                        return False, False
                    modular = False
    return True, modular


def is_lsm(f: PBFunction) -> bool:
    """Log-supermodular: f(x|y) f(x&y) >= f(x) f(y) for all pairs."""
    return _lattice_order(*_ratios(f))[0]


def is_log_modular(f: PBFunction) -> bool:
    return _lattice_order(*_ratios(f))[1]


def _monotone_on(p: Sequence[int], q: Sequence[int], points: Sequence[int]) -> bool:
    """f(a) <= f(b) for all a <= b bitwise among the increasing indices ``points``."""
    for i, a in enumerate(points):
        for b in points[i + 1 :]:
            if (a & b) == a and p[a] * q[b] > p[b] * q[a]:
                return False
    return True


def is_monotone(f: PBFunction) -> bool:
    return _monotone_on(*_ratios(f), range(len(f.table)))


def is_monotone_on_support(f: PBFunction) -> bool:
    p, q = _ratios(f)
    return _monotone_on(p, q, _nonzero(p))


def _join_closed(points: Sequence[int]) -> bool:
    pointset = set(points)
    for i, a in enumerate(points):
        for b in points[i + 1 :]:
            if (a | b) not in pointset:
                return False
    return True


def is_support_join_closed(f: PBFunction) -> bool:
    return _join_closed(_nonzero(_ratios(f)[0]))


def in_cp(f: Union[PBFunction, SignedTable]) -> bool:
    """Membership in the class with entrywise nonnegative Fourier table."""
    return min(_wht(f.table)[0]) >= 0


def _sdp3(ints: Sequence[int]) -> bool:
    """An arity-3 transform that is nonnegative and vanishes on odd weight."""
    for idx, v in enumerate(ints):
        if bin(idx).count("1") % 2 == 1:
            if v != 0:
                return False
        elif v < 0:
            return False
    return True


def in_sdp3(f: PBFunction) -> bool:
    """Arity-3 functions whose Fourier table is nonnegative and vanishes on odd weight."""
    return f.arity == 3 and _sdp3(_wht(f.table)[0])


def _trivial_binary(p: Sequence[int], q: Sequence[int]) -> bool:
    (a, b, c, d), (qa, qb, qc, qd) = p, q
    return a * d * qb * qc == b * c * qa * qd or (b == 0 and c == 0) or (a == 0 and d == 0)


def is_trivial_binary(f: PBFunction) -> bool:
    """Log-modular, or a unary times EQ, or a unary times NEQ."""
    if f.arity != 2:
        raise ValueError(f"triviality is a binary notion, got arity {f.arity}")
    return _trivial_binary(*_ratios(f))


def is_increasing_permissive_unary(f: PBFunction) -> bool:
    return f.arity == 1 and _rises(*_ratios(f), 0, 1)


def is_decreasing_permissive_unary(f: PBFunction) -> bool:
    return f.arity == 1 and _rises(*_ratios(f), 1, 0)


def record_value(value: object) -> str:
    """A value as machine records spell it: true, false, none, an enum's value, or its str."""
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, enum.Enum):
        return value.value
    return str(value)


def record_fields(obj: object) -> list[tuple[str, str]]:
    """A dataclass's fields in order as (name, ``record_value``) pairs.

    A field whose value equals its declared default is left out; a field
    without a default is always written.
    """
    pairs = []
    for f in fields(obj):
        value = getattr(obj, f.name)
        if value != f.default:
            pairs.append((f.name, record_value(value)))
    return pairs


@dataclass(frozen=True)
class PropertyReport:
    arity: int
    permissive: bool
    pure: bool
    pure_value: Optional[Fraction]
    lsm: bool
    log_modular: bool
    monotone: bool
    monotone_on_support: bool
    support_join_closed: bool
    affine_support: bool
    in_cp: bool
    in_sdp3: bool
    # Binary functions only; None elsewhere, which records leave out.
    trivial: Optional[bool] = None
    ferromagnetic: Optional[bool] = None
    ising: Optional[bool] = None
    symmetric: Optional[bool] = None

    def record(self) -> list[tuple[str, str]]:
        """Stable key=value pairs for the CLI's machine output."""
        return record_fields(self)


def property_report(f: PBFunction) -> PropertyReport:
    """Every property of f from one read of its ratios and one Fourier transform."""
    p, q = _ratios(f)
    points = _nonzero(p)
    ints, _ = _wht(f.table)
    pure = _pure(p, q, points)
    lsm, log_modular = _lattice_order(p, q)
    report = {
        "arity": f.arity,
        "permissive": len(points) == len(p),
        "pure": pure,
        "pure_value": f.table[points[0]] if pure and points else None,
        "lsm": lsm,
        "log_modular": log_modular,
        "monotone": _monotone_on(p, q, range(len(p))),
        "monotone_on_support": _monotone_on(p, q, points),
        "support_join_closed": _join_closed(points),
        "affine_support": _affine(points),
        "in_cp": min(ints) >= 0,
        "in_sdp3": f.arity == 3 and _sdp3(ints),
    }
    if f.arity == 2:
        a, b, c, d = f.table
        report["trivial"] = _trivial_binary(p, q)
        # On a binary table the one incomparable pair makes lsm read a*d >= b*c.
        report["ferromagnetic"] = report["lsm"]
        report["ising"] = a == d and b == c
        report["symmetric"] = b == c
    return PropertyReport(**report)


# ---------------------------------------------------------------------------
# Irredundant form and pin-monotonicity


def _coordinate_classes(k: int, points: Sequence[Sequence[int]]) -> list[list[tuple[int, int]]]:
    """Coordinates grouped by being forced pairwise equal or unequal on the points.

    Each class lists (coordinate, parity against its first member), in
    coordinate order and led by its least coordinate at parity 0.  On a
    nonempty point set, a class's members of one parity are forced equal.
    """
    placed = [False] * k
    classes: list[list[tuple[int, int]]] = []
    for i in range(k):
        if placed[i]:
            continue
        members = [(i, 0)]
        placed[i] = True
        for j in range(i + 1, k):
            if placed[j]:
                continue
            if all(t[i] == t[j] for t in points):
                members.append((j, 0))
                placed[j] = True
            elif all(t[i] != t[j] for t in points):
                members.append((j, 1))
                placed[j] = True
        classes.append(members)
    return classes


def irredundant(f: PBFunction) -> tuple[PBFunction, tuple[tuple[int, ...], ...]]:
    """Identify coordinates forced equal on the support.

    Returns the reduced function and the coordinate partition used.  An
    all-zero function keeps its arity with the all-singletons partition.
    """
    k = f.arity
    nonzero = [bits_of(i, k) for i, v in enumerate(f.table) if v != 0]
    singletons = tuple((j,) for j in range(k))
    if not nonzero:
        return f, singletons
    blocks = [
        block
        for members in _coordinate_classes(k, nonzero)
        for block in ([c for c, p in members if p == 0], [c for c, p in members if p == 1])
        if block
    ]
    partition = _normalize_partition(k, blocks)
    if partition == singletons:
        return f, singletons
    return identify(f, partition), partition


def pin_monotone_violation(
    f: PBFunction,
) -> Optional[tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]]:
    """A witness (a, b, c) against pin-monotonicity of f, or None.

    On the irredundant form g: a and b differ only at coordinate j with
    a[j] = 0, b[j] = 1 and g(a) > g(b), yet c has c[j] = 1 and g(c) != 0.
    """
    g, _ = irredundant(f)
    k = g.arity
    t = g.table
    col_witness: list[Optional[int]] = []
    for j in range(k):
        mask = 1 << (k - 1 - j)
        witness = next((idx for idx in range(1 << k) if idx & mask and t[idx] != 0), None)
        col_witness.append(witness)
    for j in range(k):
        if col_witness[j] is None:
            continue
        mask = 1 << (k - 1 - j)
        for idx in range(1 << k):
            if idx & mask:
                continue
            if t[idx] > t[idx | mask]:
                c = col_witness[j]
                assert c is not None
                return bits_of(idx, k), bits_of(idx | mask, k), bits_of(c, k)
    return None


def is_pin_monotone(f: PBFunction) -> bool:
    return pin_monotone_violation(f) is None


# ---------------------------------------------------------------------------
# Product-type membership


@dataclass(frozen=True)
class ProductForm:
    """A factorization f(x) = constant * prod unaries * prod EQ * prod NEQ."""

    arity: int
    constant: Fraction
    unaries: tuple[tuple[int, PBFunction], ...]
    eq_pairs: tuple[tuple[int, int], ...]
    neq_pairs: tuple[tuple[int, int], ...]

    def __call__(self, bits: Sequence[int]) -> Fraction:
        if len(bits) != self.arity:
            raise ValueError(f"expected {self.arity} bits, got {len(bits)}")
        value = self.constant
        for coord, u in self.unaries:
            value *= u.table[bits[coord]]
        for i, j in self.eq_pairs:
            if bits[i] != bits[j]:
                return Fraction(0)
        for i, j in self.neq_pairs:
            if bits[i] == bits[j]:
                return Fraction(0)
        return value

    def as_function(self) -> PBFunction:
        return PBFunction(
            self.arity,
            tuple(self(bits_of(i, self.arity)) for i in range(1 << self.arity)),
        )


def product_form(f: PBFunction) -> Optional[ProductForm]:
    """Factor f over unaries, EQ, and NEQ, or return None.

    The support must be exactly the solution set of the equality,
    disequality, and constancy constraints it forces, and on the support
    the values must split multiplicatively across coordinate classes.
    """
    k = f.arity
    points = [bits_of(i, k) for i, v in enumerate(f.table) if v != 0]
    if not points:
        return ProductForm(k, Fraction(0), (), (), ())

    base = min(points, key=index_of)
    pinned: list[list[tuple[int, int]]] = []
    free: list[list[tuple[int, int]]] = []
    for members in _coordinate_classes(k, points):
        rep = members[0][0]
        if all(t[rep] == base[rep] for t in points):
            pinned.append(members)
        else:
            free.append(members)

    # Support must equal the full solution set of the forced constraints.
    if len(points) != 1 << len(free):
        return None

    fbase = f(base)
    ratios: list[Fraction] = []
    for members in free:
        flip = {coord for coord, _ in members}
        flipped = tuple(1 - b if j in flip else b for j, b in enumerate(base))
        ratios.append(f(flipped) / fbase)
    for t in points:
        expected = fbase
        for members, ratio in zip(free, ratios):
            rep = members[0][0]
            if t[rep] != base[rep]:
                expected *= ratio
        if f(t) != expected:
            return None

    unaries: list[tuple[int, PBFunction]] = []
    eq_pairs: list[tuple[int, int]] = []
    neq_pairs: list[tuple[int, int]] = []
    for members in pinned:
        rep = members[0][0]
        unaries.append((rep, DELTA1 if base[rep] else DELTA0))
    for members, ratio in zip(free, ratios):
        rep = members[0][0]
        values = [Fraction(1), ratio] if base[rep] == 0 else [ratio, Fraction(1)]
        unaries.append((rep, PBFunction(1, tuple(values))))
    for members in pinned + free:
        rep = members[0][0]
        for coord, parity in members[1:]:
            (eq_pairs if parity == 0 else neq_pairs).append((rep, coord))
    form = ProductForm(k, fbase, tuple(unaries), tuple(eq_pairs), tuple(neq_pairs))
    assert form.as_function().table == f.table
    return form


def is_product_type(f: PBFunction) -> bool:
    return product_form(f) is not None
