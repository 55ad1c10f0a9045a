"""Gadget constructions: formulas, symmetrization, and the pinning analysis."""

from fractions import Fraction

from spincount import (
    IMP,
    approx_pin,
    binary,
    eval_pps,
    extract_nonlsm_binary,
    make_up_down,
    normalize_unary,
    pinning_analysis,
    serialize_pps,
    symmetrize,
    unary,
)


def row(table):
    return " ".join(str(v) for v in table)

# Gadgets are pps formulas: products of atoms summed over bound variables.
# Every construction returns both the resulting table and the formula that
# builds it, so results can be re-derived independently.

# A pair of strict permissive unaries out of one binary with opposite-sign
# mixed Fourier coefficients.
pair = make_up_down(binary(3, 4, 1, 2))
print("up   ", row(pair.up.table), " via", serialize_pps(pair.up_formula))
print("down ", row(pair.down.table), " via", serialize_pps(pair.down_formula))
print("check", row(eval_pps(pair.up_formula, pair.registry).table))

# Symmetrization: three modes for three input shapes.
sym, report = symmetrize(binary(3, 1, 2, 4), 2)
print("symmetrized:", row(sym.table))

# Chaining a non-lsm function through a nontrivial binary.
got = extract_nonlsm_binary(binary(0, 2, 1, 0), binary(2, 1, 1, 2))
print("extracted:", row(got.function.table), "route:", got.route)
print("formula:  ", serialize_pps(got.formula))

# Powering a normalized unary concentrates it near one end; five squarings
# push the off-pin mass under 1/100.  normalize_unary scales the larger entry,
# the end the powers approach, to 1.
scaled, scale = normalize_unary(unary(1, 3))
pinned, power = approx_pin(scaled, Fraction(1, 100))
print("approximate pin:", row(pinned.table), "power:", power)

# The pinning analysis sorts a finite family into one of four cases.
for family in [[binary(2, 1, 1, 2)], [binary(1, 2, 3, 4)], [unary(2, 1)], [IMP]]:
    verdict = pinning_analysis(family)
    tables = ["[" + row(f.table) + "]" for f in family]
    print(f"case {verdict.case} ({verdict.tag.value}) for", *tables)
