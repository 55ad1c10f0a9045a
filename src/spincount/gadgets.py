"""Gadget constructions witnessed by product-summation formulas.

Every constructed function comes with a formula over the input functions
(plus delta0/delta1 pins): a list of atoms multiplied together, with the
bound variables summed out.  Construction is mandatory-verified: the
formula is re-evaluated and the advertised shape of the result is
checked, and any mismatch raises GadgetError.

Formula text format, 0-based variables, free variables first:

    pps <n_free> <n_bound> ; <fname> v<i> v<j> ... ; <fname> v<k> ...

Bound variables follow the free ones in the order they are introduced.  A
formula built from smaller ones numbers each graft's bound variables after
every variable placed before it, so the text of a composed witness is fixed.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Sequence, Union

from . import instances
from .funcs import (
    DELTA0,
    DELTA1,
    CapacityError,
    PBFunction,
    PropertyReport,
    _SLICE_BITS,
    _check_arity,
    _join_closed,
    _monotone_on,
    _nonzero,
    _pure,
    _ratios,
    _rises,
    _sum_product,
    _sum_product_count,
    _unchecked,
    bits_of,
    bit_flip,
    fourier,
    frac,
    is_decreasing_permissive_unary,
    is_increasing_permissive_unary,
    is_lsm,
    is_trivial_binary,
    permute,
    property_report,
    pure_value,
    sum_out,
    table_text,
)


class GadgetError(ValueError):
    """A gadget precondition failed or a constructed witness did not verify: an input error."""


@dataclass(frozen=True)
class PpsFormula:
    """Product of atoms over free variables 0..n_free-1, bound variables summed."""

    n_free: int
    n_bound: int
    atoms: tuple[tuple[str, tuple[int, ...]], ...]

    def __post_init__(self) -> None:
        if self.n_free < 0 or self.n_bound < 0:
            raise ValueError("variable counts must be nonnegative")
        n = self.n_free + self.n_bound
        atoms = tuple((name, tuple(scope)) for name, scope in self.atoms)
        for name, scope in atoms:
            if not all(isinstance(v, int) and 0 <= v < n for v in scope):
                raise ValueError(f"atom {name} scope {scope} out of range for {n} variables")
        object.__setattr__(self, "atoms", atoms)


def eval_pps(formula: PpsFormula, registry: Mapping[str, PBFunction]) -> PBFunction:
    """Brute-force evaluation of a formula to a function of its free variables.

    The sum takes the products ``_sum_product_count`` gives, which sums each
    bound variable out once no later atom reads it, and an atom-free formula
    one per assignment; past ``instances.ELIMINATION_BUDGET`` products, or
    past ``ARITY_CAP`` free variables, this raises CapacityError before any
    table is built.
    """
    nf, nb = formula.n_free, formula.n_bound
    _check_arity(nf)
    budget = instances.ELIMINATION_BUDGET
    # Each atom takes 2**(nf + nb - _SLICE_BITS) products at least, one per
    # slice, and a shift past the budget's bit length already exceeds it.
    products = 1 << min(nf + nb, budget.bit_length())
    if formula.atoms and nf + nb - _SLICE_BITS < budget.bit_length():
        products = _sum_product_count(nf, nf + nb, [scope for _, scope in formula.atoms], budget)
    if products > budget:
        raise CapacityError(f"{nf + nb} formula variables need {products}+ products, past {budget}")
    atoms = []
    for name, scope in formula.atoms:
        if name not in registry:
            raise ValueError(f"formula names unknown function {name!r}")
        fn = registry[name]
        if not isinstance(fn, PBFunction):
            raise ValueError(f"atom {name} names a {type(fn).__name__}, not a PBFunction")
        if fn.arity != len(scope):
            raise ValueError(f"atom {name} has arity {fn.arity} but scope {scope}")
        atoms.append((fn.table, scope))
    # Sums of products of PBFunction entries: 2**nf nonnegative Fractions.
    return _unchecked(PBFunction, nf, _sum_product(nf, nf + nb, atoms))


def serialize_pps(formula: PpsFormula) -> str:
    parts = [f"pps {formula.n_free} {formula.n_bound}"]
    for name, scope in formula.atoms:
        parts.append(" ".join([name] + [f"v{v}" for v in scope]))
    return " ; ".join(parts)


def parse_pps(text: str) -> PpsFormula:
    chunks = [chunk.strip() for chunk in text.strip().split(";")]
    head = chunks[0].split()
    if len(head) != 3 or head[0] != "pps":
        raise ValueError(f"formula must start with 'pps <n_free> <n_bound>', got {chunks[0]!r}")
    try:
        nf, nb = int(head[1]), int(head[2])
    except ValueError as exc:
        raise ValueError(f"bad variable counts in {chunks[0]!r}") from exc
    atoms = []
    for chunk in chunks[1:]:
        if not chunk:
            raise ValueError("empty atom between ';' separators")
        tokens = chunk.split()
        scope = []
        for tok in tokens[1:]:
            if not tok.startswith("v") or not tok[1:].isdigit():
                raise ValueError(f"bad variable token {tok!r} in atom {chunk!r}")
            scope.append(int(tok[1:]))
        atoms.append((tokens[0], tuple(scope)))
    return PpsFormula(nf, nb, tuple(atoms))


def _compose(
    n_free: int,
    n_bound: int,
    atoms: Sequence[tuple[str, tuple[int, ...]]] = (),
    grafts: Sequence[tuple[PpsFormula, Sequence[int]]] = (),
) -> PpsFormula:
    """The atoms, then each graft's atoms with its free variables read through its map.

    A graft's bound variables are appended after every variable placed so far.
    """
    atoms = list(atoms)
    n = n_free + n_bound
    for sub, free_map in grafts:
        for name, scope in sub.atoms:
            atoms.append((name, tuple(free_map[v] if v < sub.n_free else n + v - sub.n_free for v in scope)))
        n += sub.n_bound
    return PpsFormula(n_free, n - n_free, tuple(atoms))


def _flip_deltas(formula: PpsFormula) -> PpsFormula:
    swap = {"delta0": "delta1", "delta1": "delta0"}
    return PpsFormula(
        formula.n_free,
        formula.n_bound,
        tuple((swap.get(name, name), scope) for name, scope in formula.atoms),
    )


def _base_registry(family: Sequence[PBFunction]) -> dict[str, PBFunction]:
    registry = {f"f{i}": f for i, f in enumerate(family)}
    registry["delta0"] = DELTA0
    registry["delta1"] = DELTA1
    return registry


def _verify_formula(
    formula: PpsFormula, registry: Mapping[str, PBFunction], claimed: PBFunction, what: str
) -> None:
    actual = eval_pps(formula, registry)
    # Fractions are kept in lowest terms, so equal entries have equal ratios.
    if [v.as_integer_ratio() for v in actual.table] != [v.as_integer_ratio() for v in claimed.table]:
        raise GadgetError(
            f"{what}: formula evaluates to {table_text(actual.table)}, "
            f"construction claims {table_text(claimed.table)}"
        )


# ---------------------------------------------------------------------------
# Symmetrization


def symmetrize(
    f: PBFunction, mode: int, up: Optional[PBFunction] = None
) -> tuple[PBFunction, PropertyReport]:
    """Build a symmetric binary function from f, three ways.

    Mode 1 squares away asymmetry of a non-lsm f; mode 2 convolves an lsm
    f with itself; mode 3 breaks the Ising symmetry of an lsm Ising f
    using a strictly increasing permissive unary.
    """
    if f.arity != 2:
        raise GadgetError(f"symmetrize needs a binary function, got arity {f.arity}")
    if is_trivial_binary(f):
        raise GadgetError("symmetrize needs a nontrivial function")
    registry = {"f": f}
    convolution = (("f", (0, 2)), ("f", (1, 2)))
    if mode == 1:
        if is_lsm(f):
            raise GadgetError("mode 1 needs a non-lsm function")
        formula = PpsFormula(2, 0, (("f", (0, 1)), ("f", (1, 0))))
        required = {"symmetric": True, "lsm": False}
    elif mode == 2:
        if not is_lsm(f):
            raise GadgetError("mode 2 needs an lsm function")
        formula = PpsFormula(2, 1, convolution)
        required = {"symmetric": True, "lsm": True}
    elif mode == 3:
        if not is_lsm(f):
            raise GadgetError("mode 3 needs an lsm function")
        a, b, c, d = f.table
        if a != d or b != c:
            raise GadgetError("mode 3 needs an Ising function (equal diagonals, equal off-diagonals)")
        if up is None or not is_increasing_permissive_unary(up):
            raise GadgetError("mode 3 needs a strictly increasing permissive unary")
        registry["up"] = up
        formula = PpsFormula(2, 1, convolution + (("up", (2,)),))
        required = {"symmetric": True, "lsm": True, "ising": False}
    else:
        raise GadgetError(f"mode must be 1, 2, or 3, got {mode!r}")
    result = eval_pps(formula, registry)
    report = property_report(result)
    if report.trivial:
        raise GadgetError(f"mode {mode} output is trivial: {table_text(result.table)}")
    for key, want in required.items():
        if getattr(report, key) != want:
            raise GadgetError(f"mode {mode} output fails {key}={want}: {table_text(result.table)}")
    return result, report


# ---------------------------------------------------------------------------
# Row/column sums with opposite Fourier signs


@dataclass(frozen=True)
class UpDownPair:
    up: PBFunction
    down: PBFunction
    swapped: bool
    up_formula: PpsFormula
    down_formula: PpsFormula
    registry: Mapping[str, PBFunction]


def make_up_down(f: PBFunction) -> UpDownPair:
    """Row and column sums of f, argument-swapped so they strictly slope.

    Needs the Fourier coefficients at (0,1) and (1,0) to have strictly
    opposite signs; after an argument swap that makes the (0,1)
    coefficient positive, the row sums strictly increase and the column
    sums strictly decrease.
    """
    if f.arity != 2:
        raise GadgetError(f"make_up_down needs a binary function, got arity {f.arity}")
    F = fourier(f)
    c01, c10 = F((0, 1)), F((1, 0))
    if c01 * c10 >= 0:
        raise GadgetError(
            f"Fourier coefficients must have strictly opposite signs: F(0,1)={c01}, F(1,0)={c10}"
        )
    swapped = c01 < 0
    g = permute(f, (1, 0)) if swapped else f
    up = sum_out(g, 1)
    down = sum_out(g, 0)
    up_formula = PpsFormula(1, 1, ((("f", (1, 0)) if swapped else ("f", (0, 1))),))
    down_formula = PpsFormula(1, 1, ((("f", (0, 1)) if swapped else ("f", (1, 0))),))
    registry = {"f": f}
    if not is_increasing_permissive_unary(up):
        raise GadgetError(f"row sums {table_text(up.table)} are not strictly increasing permissive")
    if not is_decreasing_permissive_unary(down):
        raise GadgetError(f"column sums {table_text(down.table)} are not strictly decreasing permissive")
    _verify_formula(up_formula, registry, up, "make_up_down up")
    _verify_formula(down_formula, registry, down, "make_up_down down")
    return UpDownPair(up, down, swapped, up_formula, down_formula, registry)


# ---------------------------------------------------------------------------
# Extracting a nontrivial non-lsm binary function


@dataclass(frozen=True)
class NonLsmBinary:
    function: PBFunction
    route: str  # "from_f", "from_g", or "composed"
    formula: PpsFormula
    registry: Mapping[str, PBFunction]


def _first_pair(f: PBFunction, accept) -> Optional[tuple[int, int]]:
    """Lexicographically least index pair (a, b) accepted by the predicate."""
    n = len(f.table)
    for a in range(n):
        for b in range(n):
            if accept(a, b):
                return a, b
    return None


def _pin_identify_formula(
    name: str, f: PBFunction, pair: tuple[int, int], n_free: int
) -> PpsFormula:
    """h over n_free variables: coordinates where the pair's points a and b differ read a[i].

    Coordinates where a and b agree are pinned: each reads the next bound
    variable, in coordinate order, under a delta atom written before h's own
    atom.  With two free variables,
    (a=0, b=1) reads x and (a=1, b=0) reads y; with one and a <= b, every
    differing coordinate reads x.
    """
    a, b = bits_of(pair[0], f.arity), bits_of(pair[1], f.arity)
    scope, atoms = list(a), []
    for i in range(f.arity):
        if a[i] == b[i]:
            scope[i] = n_free + len(atoms)
            atoms.append((f"delta{a[i]}", (scope[i],)))
    atoms.append((name, tuple(scope)))
    return PpsFormula(n_free, len(atoms) - 1, tuple(atoms))


def extract_nonlsm_binary(f: PBFunction, g: PBFunction) -> NonLsmBinary:
    """A nontrivial non-lsm binary function from a non-lsm f and a nontrivial binary g.

    Pin and identify f down to a binary violator; if that is a weighted
    NEQ, either g itself is non-lsm or composing g with the violator
    flips its asymmetry into a nontrivial non-lsm function.
    """
    if g.arity != 2:
        raise GadgetError(f"g must be binary, got arity {g.arity}")
    if is_trivial_binary(g):
        raise GadgetError("g must be nontrivial")
    t = f.table
    witness = _first_pair(f, lambda a, b: t[a] * t[b] > t[a | b] * t[a & b])
    if witness is None:
        raise GadgetError("f is log-supermodular; no violating pair exists")
    registry = {"f": f, "g": g, "delta0": DELTA0, "delta1": DELTA1}
    f_prime_formula = _pin_identify_formula("f", f, witness, 2)
    f_prime = eval_pps(f_prime_formula, registry)
    if f_prime.table[0] != 0 or f_prime.table[3] != 0:
        result, route, formula = f_prime, "from_f", f_prime_formula
    elif not is_lsm(g):
        result, route, formula = g, "from_g", PpsFormula(2, 0, (("g", (0, 1)),))
    else:
        formula = _compose(2, 1, [("g", (0, 2))], [(f_prime_formula, (2, 1))])
        result = eval_pps(formula, registry)
        route = "composed"
    ra, rb, rc, rd = result.table
    if ra * rd >= rb * rc:
        raise GadgetError(f"extracted function {table_text(result.table)} is log-supermodular")
    if is_trivial_binary(result):
        raise GadgetError(f"extracted function {table_text(result.table)} is trivial")
    _verify_formula(formula, registry, result, "extract_nonlsm_binary")
    return NonLsmBinary(result, route, formula, registry)


# ---------------------------------------------------------------------------
# Approximate pinning


# approx_pin's bound on the bit length of its power's denominator, a size and
# time guard: about 5 million digits, and a power near it takes about 5 s
# (2 cores, Python 3.11).
_PIN_BITS = 1 << 24


def approx_pin(u: PBFunction, eps: Fraction) -> tuple[PBFunction, int]:
    """Entrywise power u**k with the off-pin value driven to at most eps.

    u must be a normalized strict unary: (a, 1) with 0 < a < 1 pins
    toward 1, and (1, a) pins toward 0.  k is minimal with a**k <= eps.
    A k whose power would pass ``_PIN_BITS`` denominator bits raises
    CapacityError before the power is built.
    """
    eps = frac(eps)
    if u.arity != 1:
        raise GadgetError(f"approx_pin needs a unary, got arity {u.arity}")
    if eps <= 0:
        raise GadgetError(f"tolerance must be positive, got {eps}")
    lo, hi = u.table
    if hi == 1 and 0 < lo < 1:
        off = lo
        pin_high = True
    elif lo == 1 and 0 < hi < 1:
        off = hi
        pin_high = False
    else:
        raise GadgetError(
            f"unary {table_text(u.table)} is not normalized strictly monotone "
            "(one entry 1, the other in (0,1))"
        )
    # Jump below the answer with float logs, then settle upward exactly;
    # floor(log ratio) - 2 always undershoots the minimal exponent.  The logs
    # are read from the ints, which never underflow, and log1p keeps an off
    # near 1 apart from 0; an off too near 1 for a float gives no jump.
    k = 1
    value = off
    if eps < 1:
        log_eps = math.log(eps.numerator) - math.log(eps.denominator)
        if off > Fraction(1, 2):
            log_off = math.log1p(-float(1 - off))
        else:
            log_off = math.log(off.numerator) - math.log(off.denominator)
        ratio = log_eps / log_off if log_off else 0.0
        bits = off.denominator.bit_length()
        # k >= (1 - eps) / (2 (1 - off)) also holds where the float logs vanish.
        if (1 - eps) * bits > 2 * (1 - off) * _PIN_BITS:
            ratio = math.inf
        if ratio * bits > _PIN_BITS:
            raise CapacityError(
                f"approx_pin needs about {ratio:.3g} powers of a {bits}-bit denominator, "
                f"past {_PIN_BITS} bits"
            )
        est = math.floor(ratio)
        if est > 4:
            k = est - 2
            value = off**k
    while value > eps:
        value *= off
        k += 1
    table = (value, Fraction(1)) if pin_high else (Fraction(1), value)
    return PBFunction(1, table), k


def normalize_unary(u: PBFunction) -> tuple[PBFunction, Fraction]:
    """Scale a strict permissive unary so the approached end, its larger entry, equals 1.

    A strictly increasing unary approaches 1 and a strictly decreasing one 0.
    """
    if u.arity != 1:
        raise GadgetError(f"normalize_unary needs a unary, got arity {u.arity}")
    if not (is_increasing_permissive_unary(u) or is_decreasing_permissive_unary(u)):
        raise GadgetError(f"unary {table_text(u.table)} is not strictly monotone permissive")
    scale = max(u.table)
    return PBFunction(1, (u.table[0] / scale, u.table[1] / scale)), scale


# ---------------------------------------------------------------------------
# Pinning analysis over a family


class PinningTag(enum.Enum):
    BOTH_UNARIES = "BothUnaries"
    MONOTONE_FAMILY = "MonotoneFamily"
    FLIPPED_MONOTONE_FAMILY = "FlippedMonotoneFamily"
    ALL_PURE = "AllPure"


@dataclass(frozen=True)
class PinningVerdict:
    tag: PinningTag
    case: int
    family: tuple[PBFunction, ...]
    up: Optional[PBFunction] = None
    down: Optional[PBFunction] = None
    up_formula: Optional[PpsFormula] = None
    down_formula: Optional[PpsFormula] = None
    witness_index: Optional[int] = None

    def registry(self) -> dict[str, PBFunction]:
        return _base_registry(self.family)

    def __post_init__(self) -> None:
        if self.tag is PinningTag.BOTH_UNARIES:
            if self.up is None or self.down is None:
                raise GadgetError("BothUnaries needs both unaries")
            if not is_increasing_permissive_unary(self.up):
                raise GadgetError(
                    f"up witness {table_text(self.up.table)} is not strictly increasing permissive"
                )
            if not is_decreasing_permissive_unary(self.down):
                raise GadgetError(
                    f"down witness {table_text(self.down.table)} is not strictly decreasing permissive"
                )
            if self.up_formula is None or self.down_formula is None:
                raise GadgetError("BothUnaries needs construction formulas")
            registry = self.registry()
            _verify_formula(self.up_formula, registry, self.up, "pinning up witness")
            _verify_formula(self.down_formula, registry, self.down, "pinning down witness")
        elif self.tag is PinningTag.ALL_PURE:
            for f in self.family:
                pure, _ = pure_value(f)
                if not pure:
                    raise GadgetError(f"AllPure verdict but {table_text(f.table)} is not pure")
        else:
            # FlippedMonotoneFamily is MonotoneFamily of the bit-flipped family.
            flipped = self.tag is PinningTag.FLIPPED_MONOTONE_FAMILY
            members = [_with_flip(f)[::-1] if flipped else _with_flip(f) for f in self.family]
            what = f"{self.tag.value} needs every {'flipped ' if flipped else ''}function"
            if not all(_monotone_on(*own) for own, _ in members):
                raise GadgetError(f"{what} monotone on its support")
            if not all(_join_closed(own[2]) for own, _ in members):
                raise GadgetError(f"{what} to have a join-closed support")
            w = self.witness_index
            if w is None or not 0 <= w < len(members) or _monotone_on(*members[w][1]):
                raise GadgetError(f"{self.tag.value} needs a witness whose flip is not monotone on support")


_Orders = tuple[list[int], list[int], list[int]]


def _with_flip(f: PBFunction) -> tuple[_Orders, _Orders]:
    """f's numerators, denominators and support as indices, then its flip's: the
    lists reversed and the support at 2**k - 1 - i, from one read of f."""
    p, q = _ratios(f)
    points = _nonzero(p)
    top = len(p) - 1
    return (p, q, points), (p[::-1], q[::-1], [top - i for i in reversed(points)])


def _unary_on_chain(i: int, f: PBFunction, orders: _Orders, rising: bool) -> tuple[PBFunction, PpsFormula]:
    """The unary (f(a), f(b)) at the least pair a <= b with 0 < f(a) < f(b) if
    rising, else f(a) > f(b) > 0, named f{i}; ``orders`` are f's from ``_with_flip``.

    The rising pair exists iff flip(f) is not monotone on its support, and
    the falling one iff f is not.
    """
    p, q, _ = orders
    pair = _first_pair(f, lambda a, b: (a & b) == a and (_rises(p, q, a, b) if rising else _rises(p, q, b, a)))
    assert pair is not None
    t = f.table
    # Two entries of a PBFunction.
    return _unchecked(PBFunction, 1, (t[pair[0]], t[pair[1]])), _pin_identify_formula(f"f{i}", f, pair, 1)


def _case2(
    family: Sequence[PBFunction], orders: Sequence[_Orders], wi: int
) -> Union[int, tuple[PBFunction, PpsFormula, PBFunction, PpsFormula]]:
    """Every member monotone on its support, and member wi's flip the first not.

    ``orders`` holds each member's from ``_with_flip``.  Returns wi when every
    support is join-closed (a monotone family), else the built (up,
    up_formula, down, down_formula).
    """
    closed = [_join_closed(points) for _, _, points in orders]
    if all(closed):
        return wi
    up, up_formula = _unary_on_chain(wi, family[wi], orders[wi], True)
    gi = closed.index(False)
    g, p = family[gi], orders[gi][0]
    pair = _first_pair(g, lambda a, b: p[a] != 0 and p[b] != 0 and p[a | b] == 0)
    assert pair is not None
    h_formula = _pin_identify_formula(f"f{gi}", g, pair, 2)
    registry = _base_registry(family)
    h = eval_pps(h_formula, registry)
    hp, _ = _ratios(h)
    if hp[1] == 0 or hp[2] == 0 or hp[3] != 0:
        raise GadgetError(f"join-gap gadget has unexpected shape {table_text(h.table)}")
    down_formula = _compose(1, 1, grafts=[(h_formula, (0, 1)), (h_formula, (1, 0)), (up_formula, (1,))])
    return up, up_formula, eval_pps(down_formula, registry), down_formula


def pinning_analysis(family: Sequence[PBFunction]) -> PinningVerdict:
    """Case split on support-monotonicity of a family and its bit-flips.

    Either both a strictly increasing and a strictly decreasing
    permissive unary are constructed over the family with pins, or the
    family is certified monotone, flipped-monotone, or all-pure.  Case 3
    is case 2 run on the bit-flipped family and read back through the flip.
    """
    family = tuple(family)
    members = [_with_flip(f) for f in family]
    mos = [_monotone_on(*own) for own, _ in members]
    mos_flip = [_monotone_on(*flip) for _, flip in members]
    if not all(mos) and not all(mos_flip):
        fi, gi = mos.index(False), mos_flip.index(False)
        down, down_formula = _unary_on_chain(fi, family[fi], members[fi][0], False)
        up, up_formula = _unary_on_chain(gi, family[gi], members[gi][0], True)
        return PinningVerdict(PinningTag.BOTH_UNARIES, 1, family, up, down, up_formula, down_formula)
    if all(mos) != all(mos_flip):
        flipped = all(mos_flip)
        case = 3 if flipped else 2
        # The flipped family's flips are the members themselves.
        if flipped:
            result = _case2(tuple(map(bit_flip, family)), [flip for _, flip in members], mos.index(False))
        else:
            result = _case2(family, [own for own, _ in members], mos_flip.index(False))
        if isinstance(result, int):
            tag = PinningTag.FLIPPED_MONOTONE_FAMILY if flipped else PinningTag.MONOTONE_FAMILY
            return PinningVerdict(tag, case, family, witness_index=result)
        up, up_formula, down, down_formula = result
        if flipped:
            # Flipping swaps the slopes and the pins: delta0 <-> delta1.
            up, up_formula, down, down_formula = (
                bit_flip(down), _flip_deltas(down_formula), bit_flip(up), _flip_deltas(up_formula)
            )
        return PinningVerdict(PinningTag.BOTH_UNARIES, case, family, up, down, up_formula, down_formula)
    pure = [_pure(*own) for own, _ in members]
    if all(pure):
        return PinningVerdict(PinningTag.ALL_PURE, 4, family)
    gi = pure.index(False)
    g = family[gi]
    p, q, _ = members[gi][0]
    pair = _first_pair(g, lambda a, b: _rises(p, q, a, b))
    assert pair is not None
    h_formula = _pin_identify_formula(f"f{gi}", g, pair, 2)
    registry = _base_registry(family)
    h = eval_pps(h_formula, registry)
    hp, hq = _ratios(h)
    if hp[0] != 0 or hp[3] != 0 or not _rises(hp, hq, 1, 2):
        raise GadgetError(f"pure-gap gadget has unexpected shape {table_text(h.table)}")
    xy, yx = (h_formula, (0, 1)), (h_formula, (1, 0))
    up_formula = _compose(1, 1, grafts=[xy, xy, yx])
    down_formula = _compose(1, 1, grafts=[xy, yx, yx])
    up, down = eval_pps(up_formula, registry), eval_pps(down_formula, registry)
    return PinningVerdict(PinningTag.BOTH_UNARIES, 4, family, up, down, up_formula, down_formula)
