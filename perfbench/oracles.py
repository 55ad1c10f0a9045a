"""Reference results computed without the library code under test.

Each function restates a definition directly (variable elimination for the
partition function, the Fourier sum, the two-spin table predicates) so that a
benchmark output can be checked against something other than itself.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import lcm
from typing import Sequence


def z_elimination(variables: Sequence[str], registry: dict, constraints: Sequence) -> Fraction:
    """Partition function by variable elimination with a min-degree order."""
    factors = []
    for scope, name in constraints:
        table = registry[name].table
        own = tuple(dict.fromkeys(scope))
        values = {}
        for bits in itertools.product((0, 1), repeat=len(own)):
            value = dict(zip(own, bits))
            idx = 0
            for v in scope:
                idx = (idx << 1) | value[v]
            values[bits] = table[idx]
        factors.append((own, values))
    total = Fraction(1)
    remaining = set(variables)
    while remaining:
        def cost(v: str) -> int:
            return len({w for own, _ in factors if v in own for w in own})

        var = min(sorted(remaining), key=cost)
        remaining.discard(var)
        touching = [fac for fac in factors if var in fac[0]]
        factors = [fac for fac in factors if var not in fac[0]]
        if not touching:
            total *= 2
            continue
        scope = tuple(sorted({w for own, _ in touching for w in own} - {var}))
        values = {}
        for bits in itertools.product((0, 1), repeat=len(scope)):
            value = dict(zip(scope, bits))
            acc = Fraction(0)
            for b in (0, 1):
                value[var] = b
                prod = Fraction(1)
                for own, table in touching:
                    prod *= table[tuple(value[w] for w in own)]
                    if not prod:
                        break
                acc += prod
            values[bits] = acc
        factors.append((scope, values))
    for own, table in factors:
        total *= table[()]
    return total


def fourier_table(values: Sequence[Fraction], arity: int) -> list[Fraction]:
    """F(s) = 2**-k * sum_p (-1)**popcount(p & s) f(p), summed in integers."""
    scale = lcm(*(v.denominator for v in values))
    ints = [int(v * scale) for v in values]
    n = 1 << arity
    out = []
    for s in range(n):
        acc = 0
        for p in range(n):
            acc += -ints[p] if bin(p & s).count("1") & 1 else ints[p]
        out.append(Fraction(acc, scale * n))
    return out


def _monotone(t: Sequence[Fraction], support_only: bool = False) -> bool:
    n = len(t)
    for x in range(n):
        for y in range(n):
            if x != y and x & y == x and t[x] > t[y]:
                if not support_only or (t[x] != 0 and t[y] != 0):
                    return False
    return True


def _lsm(t: Sequence[Fraction]) -> bool:
    n = len(t)
    return all(t[x | y] * t[x & y] >= t[x] * t[y] for x in range(n) for y in range(n))


def is_pure(t: Sequence[Fraction]) -> bool:
    return len({v for v in t if v != 0}) <= 1


def monotone_on_support(t: Sequence[Fraction]) -> bool:
    return _monotone(t, support_only=True)


def two_spin_tag(table: Sequence[Fraction]) -> str:
    """The two-spin verdict of a binary table, from its defining predicates."""
    a, b, c, d = table
    f01 = (a - b + c - d) / 4
    f10 = (a + b - c - d) / 4
    if a * d == b * c or (b == 0 and c == 0) or (a == 0 and d == 0):
        return "FP_Trivial"
    if a * d >= b * c:
        return "BIS_Equivalent" if f01 * f10 < 0 else "FPRAS"
    if not _monotone(table) and not _monotone(table[::-1]):
        return "NoFPRAS_unless_NP_eq_RP"
    return "Open"


def property_fields(table: Sequence[Fraction], arity: int) -> dict:
    """The property-report fields that have a one-line definition."""
    return {
        "permissive": all(v > 0 for v in table),
        "pure": is_pure(table),
        "monotone": _monotone(table),
        "monotone_on_support": monotone_on_support(table),
        "lsm": _lsm(table),
        "in_cp": all(v >= 0 for v in fourier_table(table, arity)),
    }


def fourier_form_size(fn_sum: Fraction, degrees: Sequence[int], m: int) -> tuple[Fraction, int, int]:
    """Fourier-form constant and holant sizes for a lifted single-binary instance.

    ``degrees`` are the variable degrees after lifting and ``m`` the number of
    lifted constraints.  Every variable of degree d != 2 needs max(d - 2, 1)
    equality junctions (two when d = 0); the lifted table's zero coefficient is
    sum(f)/4 and that of the three-way equality is 1/4.
    """
    junctions = sum(2 if d == 0 else 1 if d == 1 else max(d - 2, 0) for d in degrees)
    m_h = m + junctions
    n_h = 3 * m_h // 2
    kappa = Fraction(2) ** (3 * m_h - n_h) * (fn_sum / 4) ** m * Fraction(1, 4) ** junctions
    return kappa, m_h, n_h


def parse_machine(text: str) -> dict:
    """Read a ``key=value`` record printed by the CLI's ``--machine`` mode."""
    out: dict[str, str] = {}
    for part in text.split():
        key, _, value = part.partition("=")
        out[key] = value
    return out

