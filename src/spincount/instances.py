"""Constraint-system instances, text format, and exact partition functions.

An instance is a list of constraints over named Boolean variables, each
constraint applying a named table to a scope of variables (repeats allowed).
The partition function is the sum over all assignments of the product of
constraint values.  A ``HolantInstance`` is a ``CspInstance`` in which every
variable fills exactly two slots; its constructor checks that too, and every
function here that takes a ``CspInstance`` takes it as it is.

The text format is line oriented:

    # comment
    fun <name> <arity> <values...>     values MSB-first, integers or p/q
    con <name> <var> <var> ...

Variables are declared implicitly on first use.  An arity past
``ARITY_CAP`` raises CapacityError naming its line.  Negative values in a
``fun`` line produce a signed table; signed registries are accepted only by
``z_exact`` and ``holographic_transform``.

``z_exact`` answers by bucket elimination at any size whose plan is predicted
to take at most ``funcs.ELIMINATION_BUDGET`` products, and raises
CapacityError before building any table past it.  ``_plan`` ranks one
whole-table step and the per-variable plans that ``_greedy_plan`` builds, as
kernel calls, along greedy min-degree and min-fill orders, in one list by
predicted cost: products plus ``_STEP`` per kernel call.  Every step runs in
the one kernel ``_int_sum_product``, priced by ``funcs._sum_product_count``
on the kernel's own spans.  ``near_assignment_total`` refuses instances of
more than ``NEAR_CAP`` variables.  The budget and ``NEAR_CAP`` are read at
call time.  Tables are scaled, summed and mapped in ``funcs`` alone.
"""

from __future__ import annotations

import heapq
import math
import re
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, compress, islice, repeat
from operator import itemgetter
from typing import Container, Iterable, Iterator, Mapping, Optional, Sequence, Union

from . import funcs
from .funcs import (
    ARITY_CAP,
    EQ3,
    NEQ,
    CapacityError,
    PBFunction,
    Rational,
    SignedTable,
    _int_sum_product,
    _integer_atoms,
    _map_axes,
    _sum_product_count,
    _unchecked,
    parse_rational,
    product_form,
    table_text,
)

__all__ = [
    "NEAR_CAP",
    "InstanceError",
    "Table",
    "CspInstance",
    "HolantInstance",
    "parse",
    "serialize",
    "z_exact",
    "z_product_type",
    "HolantConversion",
    "to_holant",
    "holographic_transform",
    "near_assignment_total",
]

Table = Union[PBFunction, SignedTable]

# The fixed cost of a kernel call, in products, that z_exact charges each step
# when it compares plans.  Measured on the same host, with the whole-table
# step charged what the kernel takes (``_sum_product_count``, which sums each
# variable out early): on rings of 4-11 constraints of the tables 2 1 1 2,
# 5 1 1 3 and 7919 13 13 7907, a step of one variable costs about 11-13 us
# (planning, indexing, the kernel call) and a product in the whole-table step
# 0.06-0.07 us, so a step is worth 150-210 products.  The whole-table step
# (3 * 2**n - 4 products from 5 variables on) is faster up to 8 variables and
# slower from 9 on all three tables; any charge from 94 to 175 picks
# accordingly, and 128 does.
_STEP = 128
# _plan plans min-fill only past this many min-degree products.  Planning it on
# every per-variable instance raised z_exact from 17.0 to 24.8 ms over 36 CSPs
# of 11-13 variables drawn as the benchmark's exact workload draws them (+46%,
# medians of 15 interleaved rounds on the same host).
_FILL_FROM = 1 << 16
NEAR_CAP = 12
# Conversion certificates are computed by z_exact only up to this size.
_CERT_CAP = 12


class InstanceError(ValueError):
    """Malformed instance text or an instance violating an operation's contract."""

    def __init__(self, message: str, line: Optional[int] = None) -> None:
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


_NAME_OK = re.compile(r"[^\s#]+")


def _check_names(kind: str, names: Sequence[str]) -> None:
    """Reject an empty name or one holding whitespace or ``#``, naming the first such.

    All names are tested at once on their concatenation: it splits on
    whitespace into itself alone exactly when no name holds whitespace.
    """
    joined = "".join(names)
    if all(names) and "#" not in joined and joined.split() == [joined]:
        return
    for name in names:
        if not _NAME_OK.fullmatch(name):
            raise InstanceError(f"bad {kind} name {name!r}")


def _slots(constraints: Iterable[tuple[Sequence[str], str]]) -> Iterator[str]:
    """The variables filling the constraints' slots, scope after scope."""
    return chain.from_iterable(map(itemgetter(0), constraints))


def _first_use_order(constraints: Iterable[tuple[Sequence[str], str]]) -> tuple[str, ...]:
    return tuple(dict.fromkeys(_slots(constraints)))


@dataclass(frozen=True)
class CspInstance:
    """Immutable constraint system: variables, named tables, constraints.

    ``registry`` is an ordered tuple of (name, table) pairs; ``constraints``
    is a tuple of (scope, function name) pairs where a scope is a tuple of
    variable names with repeats allowed.
    """

    variables: tuple[str, ...]
    registry: tuple[tuple[str, Table], ...]
    constraints: tuple[tuple[tuple[str, ...], str], ...]

    def __post_init__(self) -> None:
        variables = tuple(self.variables)
        registry = tuple((name, fn) for name, fn in self.registry)
        constraints = tuple((tuple(scope), name) for scope, name in self.constraints)
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "registry", registry)
        object.__setattr__(self, "constraints", constraints)
        if len(set(variables)) != len(variables):
            raise InstanceError("duplicate variable names")
        _check_names("variable", variables)
        _check_names("function", [name for name, _ in registry])
        seen: dict[str, Table] = {}
        for name, fn in registry:
            if name in seen:
                raise InstanceError(f"duplicate function name {name!r}")
            if not isinstance(fn, (PBFunction, SignedTable)):
                raise InstanceError(f"registry entry {name!r} is not a table")
            seen[name] = fn
        var_set = set(variables)
        for scope, name in constraints:
            if name not in seen:
                raise InstanceError(f"unknown function name {name!r}")
            if len(scope) != seen[name].arity:
                raise InstanceError(
                    f"scope {scope!r} has {len(scope)} variables but {name!r} has arity {seen[name].arity}"
                )
            for v in scope:
                if v not in var_set:
                    raise InstanceError(f"undeclared variable {v!r} in scope")

    @classmethod
    def build(
        cls,
        registry: Mapping[str, Table] | Iterable[tuple[str, Table]],
        constraints: Iterable[tuple[Sequence[str], str]],
        variables: Optional[Sequence[str]] = None,
    ) -> "CspInstance":
        """Assemble an instance, inferring variables in first-use order."""
        reg_pairs = tuple(registry.items() if isinstance(registry, Mapping) else registry)
        cons = tuple((tuple(scope), name) for scope, name in constraints)
        if variables is None:
            variables = _first_use_order(cons)
        return cls(tuple(variables), reg_pairs, cons)

    def registry_map(self) -> dict[str, Table]:
        return dict(self.registry)

    def degrees(self) -> dict[str, int]:
        """Each variable's number of slots, in variable order."""
        out = dict.fromkeys(self.variables, 0)
        out.update(Counter(_slots(self.constraints)))
        return out

    def has_signed(self) -> bool:
        return any(isinstance(fn, SignedTable) for _, fn in self.registry)


@dataclass(frozen=True)
class HolantInstance(CspInstance):
    """A CspInstance in which every variable occurs in exactly two slots."""

    def __post_init__(self) -> None:
        super().__post_init__()
        bad = {v: d for v, d in self.degrees().items() if d != 2}
        if bad:
            raise InstanceError(f"not a holant instance; occurrence counts off at {bad!r}")


# ---------------------------------------------------------------------------
# Text format


def _parse_value(token: str, line: int) -> Fraction:
    try:
        return parse_rational(token)
    except ValueError:
        raise InstanceError(f"malformed rational {token!r}", line) from None


def parse(text: str) -> CspInstance:
    """Parse the line format; errors carry the offending line number."""
    registry: list[tuple[str, Table]] = []
    arities: dict[str, int] = {}
    constraints: list[tuple[tuple[str, ...], str]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if "#" in line:
            line = line.split("#", 1)[0]
        tokens = line.split()
        if not tokens:
            continue
        kind = tokens[0]
        if kind == "con":
            if len(tokens) < 2:
                raise InstanceError("con needs a function name", lineno)
            name = tokens[1]
            arity = arities.get(name)
            if arity is None:
                raise InstanceError(f"unknown function name {name!r}", lineno)
            if len(tokens) - 2 != arity:
                raise InstanceError(f"scope has {len(tokens) - 2} variables but {name!r} has arity {arity}", lineno)
            constraints.append((tuple(tokens[2:]), name))
        elif kind == "fun":
            if len(tokens) < 3:
                raise InstanceError("fun needs a name and an arity", lineno)
            name = tokens[1]
            if name in arities:
                raise InstanceError(f"duplicate function name {name!r}", lineno)
            try:
                arity = int(tokens[2])
            except ValueError:
                raise InstanceError(f"bad arity {tokens[2]!r}", lineno)
            if arity < 1:
                raise InstanceError(f"bad arity {arity}", lineno)
            if arity > ARITY_CAP:
                # Refused before 1 << arity, which a huge arity makes huge.
                raise CapacityError(f"line {lineno}: arity {arity} exceeds the cap of {ARITY_CAP}")
            values = [_parse_value(t, lineno) for t in tokens[3:]]
            if len(values) != 1 << arity:
                raise InstanceError(
                    f"function {name!r} of arity {arity} needs {1 << arity} values, got {len(values)}",
                    lineno,
                )
            fn: Table
            if any(v < 0 for v in values):
                fn = SignedTable(arity, tuple(values))
            else:
                fn = PBFunction(arity, tuple(values))
            registry.append((name, fn))
            arities[name] = arity
        else:
            raise InstanceError(f"unknown directive {kind!r}", lineno)
    # The line checks cover CspInstance's: every name is a token of a
    # comment-free line split on whitespace, every function is declared once
    # before use with the scope's arity, and the variables are the scopes'
    # names, each once.
    return _unchecked(CspInstance, _first_use_order(constraints), tuple(registry), tuple(constraints))


def serialize(inst: CspInstance) -> str:
    """Emit the line format.

    ``parse(serialize(x))`` has x's fields, as a ``CspInstance``, when every
    variable of x is used and x lists its variables in first-use order, as
    ``parse`` declares them.  Its tables must also read back as they are:
    arity at least 1, and a negative entry in every ``SignedTable``.
    """
    lines = []
    for name, fn in inst.registry:
        lines.append(f"fun {name} {fn.arity} {table_text(fn.table)}")
    for scope, name in inst.constraints:
        lines.append(f"con {name} {' '.join(scope)}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Exact evaluation


def _join_counting(adj: list[set[int]], inner: list[int], v: int, nbrs: set[int]) -> set[int]:
    """Join v's neighbours and remove v, keeping ``inner``, the edges among each
    variable's neighbours, up to date edge by edge; returns the variables whose
    count changed."""
    touched = set(nbrs)
    for a in nbrs:
        for b in nbrs - adj[a]:
            if b > a:
                # The edge a-b joins the neighbours of every common neighbour c,
                # and adds the edges b-c to a's count and a-c to b's.
                common = adj[a] & adj[b]
                for c in common:
                    inner[c] += 1
                touched |= common
                inner[a] += len(common)
                inner[b] += len(common)
                adj[a].add(b)
                adj[b].add(a)
    # v's neighbours are now joined, so each loses v's edges to the other len(nbrs) - 1.
    for u in nbrs:
        adj[u].discard(v)
        inner[u] -= len(nbrs) - 1
    return touched


def _has_core(adj: list[set[int]], k: int) -> bool:
    """Whether some subgraph has every degree at least k.

    Peels every variable of fewer than k neighbours left, one at a time.  The
    first variable of such a subgraph that any order eliminates still has its
    k neighbours there, so every order has a step of width at least k.
    """
    degree = [len(nbrs) for nbrs in adj]
    peeled = [d < k for d in degree]
    stack = [v for v, out in enumerate(peeled) if out]
    while stack:
        for u in adj[stack.pop()]:
            degree[u] -= 1
            if not peeled[u] and degree[u] < k:
                peeled[u] = True
                stack.append(u)
    return not all(peeled)


def _greedy_plan(
    n: int, scopes: Sequence[Sequence[int]], limit: int, by_fill: bool
) -> tuple[int, int, Optional[list[tuple[int, int, list[tuple[int, list[int]]]]]]]:
    """(products, width of the last step, plan) of bucket elimination along a greedy order.

    The primal graph joins every two distinct variables that share a scope.
    Each step eliminates a variable v of least key (ties: lower index) and
    joins its neighbours; heap entries whose key has since changed are
    skipped.  The key is v's degree (min-degree), or by_fill the pairs of its
    neighbours not yet joined, ties broken by degree (min-fill).  Those pairs
    are all pairs less ``inner[v]``, the edges among v's neighbours, which
    ``_join_counting`` updates edge by edge, never recounting a hub's pairs of
    neighbours.  Atoms are the scopes, then one message per step.  Each atom
    goes to the bucket of its first eliminated variable; v's message spans its
    neighbours, which are exactly its bucket's other variables.

    A step is v's kernel call in ``_plan``'s form, over v's w neighbours then
    v; a bucket of a atoms takes a * 2**(w + 1) products.  Once the products
    pass ``limit`` the plan is dropped: it comes back as None, with the
    products counted up to that step and its width, or for min-fill on a
    graph with too wide a core (``_has_core``), the least products and the
    width of that core's first step.
    """
    adj: list[set[int]] = [set() for _ in range(n)]
    pending: list[list[int]] = [[] for _ in range(n)]
    for atom, scope in enumerate(scopes):
        distinct = set(scope)
        for v in distinct:
            adj[v] |= distinct
            pending[v].append(atom)
    for v in range(n):
        adj[v].discard(v)
    # Counting the edges among each variable's neighbours takes about the edges
    # times the widest core's width, which on a dense graph is cubic in its
    # size.  A step of width core takes at least 2**(core + 1) > limit products,
    # so a subgraph of that least degree rules out every order first.
    core = limit.bit_length() - 1
    if by_fill and _has_core(adj, core):
        return 2 << core, core, None
    inner = [sum(len(nbrs & adj[u]) for u in nbrs) // 2 for nbrs in adj] if by_fill else []
    # keys[v] is v's current key; a heap entry with another key is stale.
    keys = [len(nbrs) for nbrs in adj]
    if by_fill:
        keys = [(d * (d - 1) // 2 - e) * n + d for d, e in zip(keys, inner)]
    heap = list(zip(keys, range(n)))
    heapq.heapify(heap)
    done = [False] * n
    placed: set[int] = set()
    # local[u] is u's place in the step being built, whose bucket's scopes hold v and its neighbours only.
    local = [0] * n
    scopes = list(scopes)
    plan: list[tuple[int, int, list[tuple[int, list[int]]]]] = []
    products = width = 0
    while heap:
        k, v = heapq.heappop(heap)
        if done[v] or k != keys[v]:
            continue
        done[v] = True
        bucket = [atom for atom in pending[v] if atom not in placed]
        placed.update(bucket)
        nbrs, adj[v] = adj[v], set()
        width = len(nbrs)
        products += len(bucket) << (width + 1)
        if products > limit:
            return products, width, None
        if by_fill:
            touched = _join_counting(adj, inner, v, nbrs)
        else:
            touched = nbrs
            for w in nbrs:
                adj[w] |= nbrs
                adj[w] -= {v, w}
        for w in touched:
            if not done[w]:
                d = len(adj[w])
                key = (d * (d - 1) // 2 - inner[w]) * n + d if by_fill else d
                # A key that did not change keeps its heap entry valid.
                if key != keys[w]:
                    keys[w] = key
                    heapq.heappush(heap, (key, w))
        free = list(nbrs)
        for i, u in enumerate(free):
            local[u] = i
            pending[u].append(len(scopes))
        local[v] = width
        plan.append((width, width + 1, [(atom, [local[u] for u in scopes[atom]]) for atom in bucket]))
        scopes.append(free)
    return products, width, plan


def _plan(n: int, scopes: Sequence[Sequence[int]]) -> list[tuple[int, int, list[tuple[int, Sequence[int]]]]]:
    """z_exact's plan: one kernel call per step, as (free count, variable count, bucket).

    A step's variables are its free ones, then the ones it sums out.  Its
    bucket lists (atom, scope over the step's variables) pairs, where atoms
    are the scopes, then each step's message over its free variables.

    Each of the n variables is in some scope.  The candidates, in order, are
    one step that sums all m atoms of nonempty scope over the n variables, at
    the products ``_sum_product_count`` gives (the kernel sums each variable
    out once no later atom reads it), then ``_greedy_plan``'s min-degree plan
    and, past ``_FILL_FROM`` min-degree products, its min-fill plan up to one
    product fewer.  Each within ``funcs.ELIMINATION_BUDGET`` (read at call
    time) is charged its products plus ``_STEP`` per kernel call, and the
    first of least charge is kept.  The single step is taken without planning
    the others when its products are at most ``_STEP * n``, the fixed cost
    alone of the n calls of any per-variable plan.  With none within the
    budget this raises CapacityError, before any table is built, naming the
    order that had counted fewer products.
    """
    budget = funcs.ELIMINATION_BUDGET
    # The single step's variables are 0..n-1 in order, so its atoms keep their scopes.
    atoms = [(atom, scope) for atom, scope in enumerate(scopes) if scope]
    single = [(0, n, atoms)]
    limit = min(budget, _STEP * n)
    # Its products are at most m * 2**n.
    if len(atoms) << n <= limit:
        return single
    products = _sum_product_count(0, n, [scope for _, scope in atoms], budget)
    if products <= limit:
        return single
    plans = [(products + _STEP, single)] if products <= budget else []
    degree = _greedy_plan(n, scopes, budget, False)
    orders = [("min-degree", degree)]
    if degree[0] > _FILL_FROM:
        orders.append(("min-fill", _greedy_plan(n, scopes, min(degree[0] - 1, budget), True)))
    plans += [(count + _STEP * len(plan), plan) for _, (count, _, plan) in orders if plan is not None]
    if not plans:
        name, (count, width, _) = min(orders, key=lambda order: order[1][0])
        raise CapacityError(f"elimination needs {count}+ products ({name}, width {width}), past {budget}")
    return min(plans, key=itemgetter(0))[1]


def z_exact(inst: CspInstance) -> Fraction:
    """Partition function by bucket elimination along ``_plan``.

    Exact, signed registries allowed.  A plan predicted to take more than
    ``funcs.ELIMINATION_BUDGET`` products raises CapacityError before any
    table is built.  Only variables in some scope are planned, in
    ``inst.variables`` order; each other variable doubles the total.
    ``_integer_atoms`` scales each used table to ints once, the messages stay
    ints, and the one Fraction is the total over its denominator.
    """
    constraints, variables = inst.constraints, inst.variables
    used = {v for scope, _ in constraints for v in scope}
    if len(used) < len(variables):
        variables = [v for v in variables if v in used]
    index = {v: i for i, v in enumerate(variables)}
    names = {name: fn.table for name, fn in inst.registry}
    atoms, denominator = _integer_atoms([(names[name], [index[v] for v in scope]) for scope, name in constraints])
    total = math.prod(table[0] for table, scope in atoms if not scope) << (len(inst.variables) - len(index))
    tables = [table for table, _ in atoms]
    for n_free, n_vars, bucket in _plan(len(index), [scope for _, scope in atoms]):
        table = _int_sum_product(n_free, n_vars, [(tables[a], scope) for a, scope in bucket])
        tables.append(table)
        if not n_free:
            total *= table[0]
    return Fraction(total, denominator)


def _power_product(factors: Iterable[tuple[Fraction, int]]) -> Fraction:
    """The product of every factor raised to its count.

    Equal factors are merged first (keyed by numerator and denominator, which
    hash faster than a ``Fraction``), so a product over a few distinct values
    is a handful of big-int powers. A running ``Fraction`` product would
    reduce an ever-larger numerator by ``gcd`` at every step, which is
    quadratic in the number of factors.
    """
    values: dict[tuple[int, int], Fraction] = {}
    counts: dict[tuple[int, int], int] = {}
    for value, count in factors:
        key = (value.numerator, value.denominator)
        values[key] = value
        counts[key] = counts.get(key, 0) + count
    return math.prod((values[key] ** count for key, count in counts.items()), start=Fraction(1))


def z_product_type(inst: CspInstance) -> Fraction:
    """Polynomial-time partition function for product-type registries.

    Factors every constraint into a constant, unary weights, and equality or
    disequality couplings, then sums each coupled component in two terms.

    The cost is linear in the instance.  Each variable lists its couplings as
    ints ``2 * j + rel`` (rel 0 equal, 1 unequal), and one iterative traversal
    labels every variable ``2 * root + parity`` against its component's first
    variable, returning 0 at the first coupling the labels break.  Every factor
    is an entry of one of the registry's few tables, so each product is built
    from how often each distinct factor occurs (``_power_product``).
    """
    if inst.has_signed():
        raise InstanceError("signed tables are not product-type inputs")
    names = inst.registry_map()
    groups: dict[str, list[tuple[str, ...]]] = {}
    for scope, name in inst.constraints:
        groups.setdefault(name, []).append(scope)
    forms = {name: product_form(names[name]) for name in groups}
    for name, form in forms.items():
        if form is None:
            raise InstanceError(f"function {name!r} is not product-type")
    constant = _power_product((forms[name].constant, len(scopes)) for name, scopes in groups.items())
    if constant == 0:
        return Fraction(0)
    index = {v: i for i, v in enumerate(inst.variables)}

    def column(scopes: list[tuple[str, ...]], coord: int) -> Iterable[int]:
        return map(index.__getitem__, map(itemgetter(coord), scopes))

    # No object per coupling: fewer live containers, fewer garbage collections.
    neighbours: list[list[int]] = [[] for _ in index]
    for name, scopes in groups.items():
        form = forms[name]
        for rel, pairs in ((0, form.eq_pairs), (1, form.neq_pairs)):
            for a, b in pairs:
                for i, j in zip(column(scopes, a), column(scopes, b)):
                    neighbours[i].append(2 * j + rel)
                    neighbours[j].append(2 * i + rel)
    label = [-1] * len(index)
    stack = []
    components = 0
    for root in range(len(index)):
        if label[root] >= 0:
            continue
        components += 1
        label[root] = 2 * root
        stack.append(root)
        while stack:
            i = stack.pop()
            own = label[i]
            for code in neighbours[i]:
                j = code >> 1
                want = own ^ (code & 1)
                have = label[j]
                if have < 0:
                    label[j] = want
                    stack.append(j)
                elif have != want:
                    return Fraction(0)
    # Unary u on a variable of label 2 * root + p multiplies that component's
    # two terms by u(p) and u(1 - p); count each label's placements once.
    terms: dict[int, tuple[list, list]] = {}
    for name, scopes in groups.items():
        for coord, unary_fn in forms[name].unaries:
            table = unary_fn.table
            for lab, count in Counter(map(label.__getitem__, column(scopes, coord))).items():
                term0, term1 = terms.setdefault(lab >> 1, ([], []))
                term0.append((table[lab & 1], count))
                term1.append((table[1 - (lab & 1)], count))
    sums = [(_power_product(t0) + _power_product(t1), 1) for t0, t1 in terms.values()]
    # A component without unaries sums to 1 + 1.
    sums.append((Fraction(2), components - len(terms)))
    return constant * _power_product(sums)


# ---------------------------------------------------------------------------
# Holant conversion


def _dotted_prefixes(names: Iterable[str]) -> set[str]:
    """Every prefix ending in a dot of every name.

    A name starts with a dot-terminated string p exactly when p is in the set,
    so a prefix test against all names is one membership test.
    """
    out: set[str] = set()
    for name in names:
        i = name.find(".")
        while i >= 0:
            out.add(name[: i + 1])
            i = name.find(".", i + 1)
    return out


def _fresh_prefix(base: str, taken: set[str], tag: str = "eq") -> str:
    """A generated-name prefix that no name in use starts with.

    ``taken`` is the ``_dotted_prefixes`` set of the names in use.
    """
    prefix = f"{base}.{tag}."
    while prefix in taken:
        prefix = prefix[:-1] + "q."
    return prefix


def _fresh_name(base: str, taken: Container[str]) -> str:
    """base, or base.<i> with the least i >= 2 that is not taken."""
    if base not in taken:
        return base
    i = 2
    while f"{base}.{i}" in taken:
        i += 1
    return f"{base}.{i}"


def _with_function(
    csp: CspInstance, base: str, table: PBFunction
) -> tuple[str, tuple[tuple[str, Table], ...]]:
    """(name, csp's registry holding table under name): base if it names table, else a fresh name."""
    names = csp.registry_map()
    if names.get(base) == table:
        return base, csp.registry
    name = _fresh_name(base, names)
    return name, csp.registry + ((name, table),)


def _renamed(
    constraints: Sequence[tuple[tuple[str, ...], str]], renames: Mapping[str, Iterable[str]]
) -> list[tuple[tuple[str, ...], str]]:
    """The constraints with each slot of a renamed variable given its next new name, in slot order.

    One pass renames the flattened slots; the scopes are then cut back out of
    them, all at once when every scope has the same size.
    """
    ends = {v: iter(names) for v, names in renames.items()}.get
    slots = iter([next(rest) if (rest := ends(v)) else v for v in _slots(constraints)])
    sizes = list(map(len, map(itemgetter(0), constraints)))
    k = sizes[0] if sizes else 0
    # islice alone serves every input; zip is the faster cut of equal sizes
    # (0.4 of to_holant's 4.4 ms on a lifted 2000-constraint ring, 6000 slots).
    # zip(*[slots] * 0) would drop empty scopes, so k must be positive.
    if k and sizes.count(k) == len(sizes):
        scopes: Iterable[tuple[str, ...]] = zip(*[slots] * k)
    else:
        scopes = map(tuple, map(islice, repeat(slots), sizes))
    return list(zip(scopes, map(itemgetter(1), constraints)))


@dataclass(frozen=True)
class HolantConversion:
    """A holant form of an instance plus an exact equality certificate.

    The certificate is populated only at desk scale (both sides within the
    certificate cap and ``z_exact``'s budget); ``verified`` reports whether it
    was checked.
    """

    holant: HolantInstance
    z_source: Optional[Fraction]
    z_holant: Optional[Fraction]
    verified: bool


def to_holant(inst: CspInstance) -> HolantConversion:
    """Rewire every variable to occur exactly twice, preserving the partition function.

    Degree-2 variables pass through.  A degree-d variable with d >= 3 is
    renamed per occurrence and joined by a left-leaning chain of d-2
    three-way equality junctions; degree 1 gets one junction with a folded
    free end; degree 0 gets two folded junctions (value 2, matching the free
    variable's sum).
    """
    if inst.has_signed():
        raise InstanceError("signed registries cannot be converted")
    degrees = inst.degrees()
    if {2}.issuperset(degrees.values()):
        # Just counted: every variable fills two slots.
        return _certify(inst, _unchecked(HolantInstance, inst.variables, inst.registry, inst.constraints))
    eq_name, registry = _with_function(inst, "eq3", EQ3)
    # Each variable of degree >= 3 is renamed to its end names in slot order.
    renames: dict[str, list[str]] = {}
    extra: list[tuple[tuple[str, ...], str]] = []
    taken = _dotted_prefixes(inst.variables)
    for v, d in compress(degrees.items(), map((2).__ne__, degrees.values())):
        prefix = _fresh_prefix(v, taken)
        # Generated names are the prefix plus digits.  Their dotted prefixes
        # are v's, already taken, then v. and the prefix.
        taken.update((f"{v}.", prefix))
        if d == 0:
            extra.append(((v, f"{prefix}1", f"{prefix}1"), eq_name))
            extra.append(((v, f"{prefix}2", f"{prefix}2"), eq_name))
        elif d == 1:
            extra.append(((v, f"{prefix}1", f"{prefix}1"), eq_name))
        else:
            # Ends are names 1..d and links d+1..2d-3.  Junction i joins the
            # link before it (end 1 for the first), end i+1, and the link
            # after it (end d for the last).
            names = [f"{prefix}{i}" for i in range(1, 2 * d - 2)]
            renames[v] = names  # its slots take the first d
            links = names[d:]
            extra += zip(zip(names[:1] + links, names[1 : d - 1], links + names[d - 1 : d]), repeat(eq_name))
    constraints = _renamed(inst.constraints, renames) + extra
    # Valid by construction from a valid instance: eq_name is fresh or names EQ3,
    # junction names are a fresh prefix of a valid name plus digits, and each
    # variable fills two slots.  Variables are inferred as CspInstance.build does.
    out = _unchecked(HolantInstance, _first_use_order(constraints), registry, tuple(constraints))
    return _certify(inst, out)


def _certify(csp: CspInstance, holant: HolantInstance) -> HolantConversion:
    if len(csp.variables) <= _CERT_CAP and len(holant.variables) <= _CERT_CAP:
        try:
            z_src, z_hol = z_exact(csp), z_exact(holant)
        except CapacityError:  # past the elimination budget: no certificate
            return HolantConversion(holant, None, None, False)
        assert z_src == z_hol, f"conversion changed the partition function: {z_src} != {z_hol}"
        return HolantConversion(holant, z_src, z_hol, True)
    return HolantConversion(holant, None, None, False)


# ---------------------------------------------------------------------------
# Holographic transformation


def holographic_transform(inst: HolantInstance, matrix: Sequence[Sequence[Rational]]) -> HolantInstance:
    """Replace every table by its image under the matrix applied to each axis.

    Requires matrix * matrix^T to be a nonzero scalar multiple of the
    identity; the partition function then changes by scalar**n for an
    n-variable instance.  Entries are read as ``frac`` reads them, so floats
    are refused, and a matrix that is not 2 rows of 2 entries raises
    InstanceError.
    """
    if len(matrix) != 2 or any(len(row) != 2 for row in matrix):
        raise InstanceError("the matrix must be 2 rows of 2 entries")
    m = SignedTable.from_values(2, [matrix[i][j] for i in range(2) for j in range(2)])
    a, b, c, d = m.table
    scalar = a * a + b * b
    if a * c + b * d != 0 or c * c + d * d != scalar or scalar == 0:
        raise InstanceError("matrix times its transpose is not a nonzero scalar identity")
    registry = tuple((name, _map_axes(fn, m)) for name, fn in inst.registry)
    return HolantInstance(inst.variables, registry, inst.constraints)


# ---------------------------------------------------------------------------
# Near-assignments


def near_assignment_total(inst: HolantInstance) -> Fraction:
    """Sum, over unordered variable pairs, of the split-and-flip partition functions.

    Each pair {u, v} is evaluated on the instance with u's two occurrences
    split into fresh variables joined by a disequality, and likewise v.
    """
    if inst.has_signed():
        raise InstanceError("signed registries have no near-assignment total")
    n = len(inst.variables)
    if n > NEAR_CAP:
        raise CapacityError(f"{n} variables exceeds the near-assignment cap {NEAR_CAP}")
    if n < 2:
        return Fraction(0)
    neq_name, registry = _with_function(inst, "neq", NEQ)
    total = Fraction(0)
    for i in range(n):
        for j in range(i + 1, n):
            split = _split_pair(inst, inst.variables[i], inst.variables[j], neq_name, registry)
            total += z_exact(split)
    return total


def _split_pair(
    csp: CspInstance, u: str, v: str, neq_name: str, registry: tuple[tuple[str, Table], ...]
) -> CspInstance:
    taken = _dotted_prefixes(csp.variables)
    renames: dict[str, list[str]] = {}
    for w in (u, v):
        prefix = _fresh_prefix(w, taken, "split")
        renames[w] = [f"{prefix}1", f"{prefix}2"]
    constraints = _renamed(csp.constraints, renames)
    for w in (u, v):
        constraints.append((tuple(renames[w]), neq_name))
    return CspInstance.build(registry, constraints)
