"""Perfect-matching reduction and estimators for nonnegative-Fourier binary counting.

The pipeline: lift a binary function to arity 3 along a shared auxiliary
variable, rewrite the instance over normalized Fourier tables (unit value at
the all-zero input, zero on odd-weight inputs), build a weighted multigraph
with one triangle per constraint whose perfect matchings sum exactly to the
partition function, and count perfect matchings either exactly
(vertex-elimination with memoization) or by a seeded insert/delete/slide
Markov chain telescoped over vertex removals.  The chain runs on the weighted
graph and simulates only the steps that change its state; ``integerize``
(weights cleared into parallel unit edges) defines its law but is never built.
``estimate_z_fpras`` answers exactly by ``instances.z_exact`` whenever its
elimination budget allows, and runs the pipeline only past it.
``estimate_pm`` counts graphs of at most ``EXACT_CAP`` vertices exactly, and
runs the chain only when its predicted time is within ``CHAIN_BUDGET_S``.

All counts and estimates are exact rationals; floats and randomness enter only
through the chain's sampling law, and a fixed config seed fixes the estimate.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, repeat
from math import lcm
from operator import itemgetter
from typing import Iterable, NamedTuple, Optional

from .funcs import (
    XOR3,
    CapacityError,
    PBFunction,
    Rational,
    SignedTable,
    _unchecked,
    bit_flip,
    bits_of,
    fourier,
    frac,
    in_cp,
    in_sdp3,
)
from .instances import (
    CspInstance,
    HolantInstance,
    InstanceError,
    _fresh_name,
    _slots,
    to_holant,
    z_exact,
)

__all__ = [
    "EDGE_LABELS",
    "EXACT_CAP",
    "CHAIN_BUDGET_S",
    "Edge",
    "WeightedMultigraph",
    "serialize_graph",
    "EstimatorConfig",
    "EstimateError",
    "sdp3_lift",
    "lift_instance",
    "FourierNormalForm",
    "holant_fourier_form",
    "build_triangle_graph",
    "count_pm_exact",
    "count_npm_exact",
    "integerize",
    "estimate_pm",
    "estimate_z_fpras",
]

EDGE_LABELS = ("within_triangle", "between_triangles", "plain")
# count_pm_exact refuses graphs past EXACT_CAP vertices; estimate_pm telescopes
# down to it.  Both read it at call time.
EXACT_CAP = 30
# Chain steps between retained samples are about _STEPS_COEFF * n * ln n;
# _SAMPLE_COEFF scales the perfect samples kept per telescoping level.
_STEPS_COEFF = 2
_SAMPLE_COEFF = 2
# estimate_pm at epsilon 1/10 took 93 s on a 138-vertex triangle graph (2 cores,
# Python 3.11), growing about as the vertex count cubed and epsilon**-2 (its
# sample target).  estimate_pm refuses a chain predicted past CHAIN_BUDGET_S.
_CHAIN_S_PER_VERTEX_CUBED = 93 / 138**3
CHAIN_BUDGET_S = 600

_ZERO = Fraction(0)
_ONE = Fraction(1)


class EstimateError(Exception):
    """The chain failed to produce usable samples."""


class _EdgeFields(NamedTuple):
    u: str
    v: str
    weight: Fraction
    label: str = "plain"


class Edge(_EdgeFields):
    """One multigraph edge; self-loops allowed, weight an exact nonnegative rational.

    An edge is a named tuple ``(u, v, weight, label)``: it unpacks, and compares
    and hashes equal to the plain 4-tuple of its fields.  The constructor coerces
    the weight with ``frac`` and rejects a negative weight or an unknown label.
    """

    __slots__ = ()

    def __new__(cls, u: str, v: str, weight: Rational, label: str = "plain") -> "Edge":
        if not isinstance(weight, Fraction):
            weight = frac(weight)
        if weight.numerator < 0:
            raise ValueError(f"negative edge weight {weight}")
        if label not in EDGE_LABELS:
            raise ValueError(f"unknown edge label {label!r}")
        return tuple.__new__(cls, (u, v, weight, label))

    @classmethod
    def _make(cls, iterable: Iterable) -> "Edge":
        # namedtuple's _make, which _replace also calls, would skip __new__.
        return cls(*iterable)


@dataclass(frozen=True)
class WeightedMultigraph:
    vertices: tuple[str, ...]
    edges: tuple[Edge, ...]

    def __post_init__(self) -> None:
        vertices = tuple(self.vertices)
        edges = tuple(self.edges)
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "edges", edges)
        if len(set(vertices)) != len(vertices):
            raise ValueError("duplicate vertex names")
        known = set(vertices)
        for e in edges:
            if e.u not in known or e.v not in known:
                raise ValueError(f"edge {e.u}-{e.v} has an unknown endpoint")


def serialize_graph(g: WeightedMultigraph) -> str:
    lines = [f"v {name}" for name in g.vertices]
    lines += [f"e {e.u} {e.v} {e.weight} {e.label}" for e in g.edges]
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class EstimatorConfig:
    """Accuracy target epsilon, failure probability delta, and the seed that fixes the estimate."""

    epsilon: Fraction = Fraction(1, 10)
    delta: Fraction = Fraction(1, 4)
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "epsilon", frac(self.epsilon))
        object.__setattr__(self, "delta", frac(self.delta))
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if not 0 < self.delta < 1:
            raise ValueError("delta must lie strictly between 0 and 1")


# ---------------------------------------------------------------------------
# Lifting


def sdp3_lift(f: PBFunction) -> PBFunction:
    """Return f'(x, y, z) = f(x xor z, y xor z).

    The Fourier table of f' equals the Fourier table of f at (x, y) gated by
    the even-parity indicator of (x, y, z); this factorization is asserted.
    Both coordinates of f nonnegative in Fourier makes f' zero on odd-weight
    Fourier inputs with nonnegative even-weight coefficients.
    """
    if f.arity != 2:
        raise ValueError(f"lift needs a binary function, got arity {f.arity}")
    table = []
    for i in range(8):
        x, y, z = bits_of(i, 3)
        table.append(f.table[((x ^ z) << 1) | (y ^ z)])
    lifted = PBFunction(3, tuple(table))
    fh = fourier(f).table
    lh = fourier(lifted).table
    for i in range(8):
        x, y, z = bits_of(i, 3)
        assert lh[i] == fh[(x << 1) | y] * XOR3.table[i]
    return lifted


def lift_instance(inst: CspInstance) -> CspInstance:
    """Rewrite a single-binary-function instance over the lifted ternary function.

    One fresh variable is appended and shared by every constraint; the
    partition function exactly doubles.
    """
    used = sorted(set(map(itemgetter(1), inst.constraints)))
    if len(used) > 1:
        raise InstanceError(f"lift needs a single constraint function, got {used}")
    names = inst.registry_map()
    registry = list(inst.registry)
    aux = _fresh_name("y", set(inst.variables))
    constraints: list[tuple[tuple[str, ...], str]] = []
    if used:
        fn = names[used[0]]
        if isinstance(fn, SignedTable):
            raise InstanceError("signed registries cannot be lifted")
        if fn.arity != 2:
            raise InstanceError(f"lift needs a binary function, {used[0]!r} has arity {fn.arity}")
        lifted_name = _fresh_name(f"{used[0]}.lift", set(names))
        registry.append((lifted_name, sdp3_lift(fn)))
        constraints = [((x, y, aux), lifted_name) for (x, y), _ in inst.constraints]
    # Valid by construction from a valid instance: aux and lifted_name are
    # fresh valid names, and every scope is two of its variables plus aux
    # under the arity-3 lift.
    return _unchecked(CspInstance, inst.variables + (aux,), tuple(registry), tuple(constraints))


# ---------------------------------------------------------------------------
# Fourier normal form


@dataclass(frozen=True)
class FourierNormalForm:
    """Holant instance over normalized Fourier tables plus the tracked constant.

    The source partition function equals ``kappa`` times the holant one;
    ``is_zero`` short-circuits instances that use an all-zero function.
    """

    holant: Optional[HolantInstance]
    kappa: Fraction
    is_zero: bool


def _on_fourier_form(fn: PBFunction) -> bool:
    """Arity 3, unit at zero and zero on odd weight: the tables the triangle gadget reads."""
    t = fn.table
    return fn.arity == 3 and t[0] == 1 and all(t[i] == 0 for i in (1, 2, 4, 7))


def holant_fourier_form(inst: CspInstance) -> FourierNormalForm:
    """Convert an arity-3 instance to a holant one over normalized Fourier tables.

    Every used function must have nonnegative Fourier coefficients vanishing
    on odd-weight inputs.  Equality junctions introduced by the holant
    conversion are transformed along with everything else (their image is the
    even-parity indicator).
    """
    names = inst.registry_map()
    for name in sorted(set(map(itemgetter(1), inst.constraints))):
        fn = names[name]
        if isinstance(fn, SignedTable):
            raise InstanceError("signed registries have no Fourier normal form")
        if fn.arity != 3:
            raise InstanceError(f"function {name!r} has arity {fn.arity}, need 3")
        if fn.is_zero():
            return FourierNormalForm(None, _ZERO, True)
        if not in_sdp3(fn):
            raise InstanceError(
                f"function {name!r} has Fourier mass on odd-weight inputs or negative coefficients"
            )
    hol = to_holant(inst).holant
    used_counts = Counter(map(itemgetter(1), hol.constraints))
    registry: list[tuple[str, PBFunction]] = []
    constant = _ONE
    for name, fn in hol.registry:
        count = used_counts.get(name)
        if count is None:
            continue
        assert isinstance(fn, PBFunction)
        coeffs = fourier(fn).table
        c = coeffs[0]
        normalized = PBFunction(3, tuple(v / c for v in coeffs))
        assert _on_fourier_form(normalized)
        registry.append((name, normalized))
        constant *= c ** count
    n_h = len(hol.variables)
    m_h = len(hol.constraints)
    kappa = Fraction(2) ** (3 * m_h - n_h) * constant
    # hol is a holant instance: only unused tables were dropped, and each
    # kept one is replaced by an arity-3 table.
    out = _unchecked(HolantInstance, hol.variables, tuple(registry), hol.constraints)
    return FourierNormalForm(out, kappa, False)


# ---------------------------------------------------------------------------
# Triangle gadget


def build_triangle_graph(inst: HolantInstance) -> WeightedMultigraph:
    """Three vertices per constraint; perfect matchings sum to the partition function.

    Within-triangle edges carry the table values at the three even-weight
    inputs with two ones; every variable contributes one unit edge between
    the two slots it occupies (a parallel in-triangle edge when both slots
    belong to the same constraint).
    """
    if inst.has_signed():
        raise InstanceError("signed registries have no triangle graph")
    # Each table's form is checked once; a constraint only looks its name up.
    weights: dict[str, Optional[tuple[Fraction, Fraction, Fraction]]] = {}
    for name, fn in inst.registry_map().items():
        on_form = _on_fourier_form(fn)
        weights[name] = (fn.table[0b110], fn.table[0b101], fn.table[0b011]) if on_form else None
    per_triangle = [weights[name] for _, name in inst.constraints]
    if None in per_triangle:
        ci = per_triangle.index(None)
        name = inst.constraints[ci][1]
        raise InstanceError(
            f"constraint {ci} uses {name!r}, which is not unit-at-zero and zero on odd weight"
        )
    # Triangle ci's corners a, b, c are vertices 3ci, 3ci+1 and 3ci+2.
    vertices = [base + k for base in [f"c{ci}." for ci in range(len(per_triangle))] for k in ("1", "2", "3")]
    # Its edges ab, ac and bc take its three weights in order: their first
    # ends are a, a, b and their second ends b, c, c.
    us, vs = vertices[:], vertices[:]
    us[1::3], us[2::3] = vertices[0::3], vertices[1::3]
    vs[0::3], vs[1::3] = vertices[1::3], vertices[2::3]
    # Edges skip Edge's per-edge check: the per-table check above covers it.
    # With signed registries refused, every weight is an entry of a
    # PBFunction, a nonnegative Fraction, and both labels are in EDGE_LABELS.
    new_edge = tuple.__new__
    weights_in_order = chain.from_iterable(per_triangle)
    edges = list(map(new_edge, repeat(Edge), zip(us, vs, weights_in_order, repeat("within_triangle"))))
    del us, vs, per_triangle  # so that they do not add to the peak below
    # Slot k of the flattened scopes is corner vertices[k]; a holant variable
    # fills exactly two slots, its first and its last.
    filled = list(_slots(inst.constraints))
    first = dict(zip(reversed(filled), reversed(vertices)))
    last = dict(zip(filled, vertices))
    edges += map(new_edge, repeat(Edge), zip(
        map(first.__getitem__, inst.variables),
        map(last.__getitem__, inst.variables),
        repeat(_ONE),
        repeat("between_triangles"),
    ))
    # Corner names c<ci>.<k> are distinct, and every edge joins two corners.
    return _unchecked(WeightedMultigraph, tuple(vertices), tuple(edges))


# ---------------------------------------------------------------------------
# Exact matching counts


def _bundles(g: WeightedMultigraph) -> dict[tuple[int, int], Fraction]:
    """Total weight between each pair of distinct vertices that carries any."""
    index = {v: i for i, v in enumerate(g.vertices)}
    bundles: dict[tuple[int, int], Fraction] = {}
    for e in g.edges:
        a, b = index[e.u], index[e.v]
        if a == b or e.weight == 0:
            continue
        key = (a, b) if a < b else (b, a)
        bundles[key] = bundles.get(key, _ZERO) + e.weight
    return bundles


def _adjacency(g: WeightedMultigraph) -> list[list[tuple[int, Fraction]]]:
    adj: list[list[tuple[int, Fraction]]] = [[] for _ in g.vertices]
    for (a, b), w in sorted(_bundles(g).items()):
        adj[a].append((b, w))
        adj[b].append((a, w))
    return adj


def _count_with_holes(g: WeightedMultigraph, holes: int) -> Fraction:
    n = len(g.vertices)
    if n > EXACT_CAP:
        raise CapacityError(f"{n} vertices exceeds the matching-count cap {EXACT_CAP}")
    adj = _adjacency(g)
    memo: dict[tuple[int, int], Fraction] = {}

    def visit(mask: int, k: int) -> Fraction:
        if mask == 0:
            return _ONE if k == 0 else _ZERO
        key = (mask, k)
        cached = memo.get(key)
        if cached is not None:
            return cached
        u = (mask & -mask).bit_length() - 1
        rest = mask & ~(1 << u)
        total = visit(rest, k - 1) if k else _ZERO
        for v, w in adj[u]:
            if rest >> v & 1:
                total += w * visit(rest & ~(1 << v), k)
        memo[key] = total
        return total

    return visit((1 << n) - 1, holes)


def count_pm_exact(g: WeightedMultigraph) -> Fraction:
    """Total weight of perfect matchings; self-loops never participate."""
    return _count_with_holes(g, 0)


def count_npm_exact(g: WeightedMultigraph) -> Fraction:
    """Total weight of matchings leaving exactly two vertices unmatched."""
    return _count_with_holes(g, 2)


# ---------------------------------------------------------------------------
# Integerization


def _denominator_lcm(g: WeightedMultigraph) -> int:
    """The lcm of the positive edge weights' denominators: ``integerize``'s scale d."""
    return lcm(*(e.weight.denominator for e in g.edges if e.weight > 0))


def integerize(g: WeightedMultigraph) -> tuple[WeightedMultigraph, int]:
    """Replace weight-w edges by d*w unit parallel edges, d the weight denominators' lcm.

    Perfect-matching weight scales by d**(n/2) and near-perfect by
    d**(n/2 - 1); both laws are asserted here at desk scale.
    """
    d = _denominator_lcm(g)
    edges: list[Edge] = []
    for e in g.edges:
        copies = e.weight * d
        assert copies.denominator == 1
        edges.extend(Edge(e.u, e.v, _ONE, e.label) for _ in range(int(copies)))
    out = WeightedMultigraph(g.vertices, tuple(edges))
    n = len(g.vertices)
    if n <= 12 and n % 2 == 0:
        assert count_pm_exact(out) == Fraction(d) ** (n // 2) * count_pm_exact(g)
        if n >= 2:
            assert count_npm_exact(out) == Fraction(d) ** (n // 2 - 1) * count_npm_exact(g)
    return out, d


# ---------------------------------------------------------------------------
# Markov chain estimator


class _Chain:
    """Insert/delete/slide walk over perfect and one-hole-pair matchings.

    The law is that of the unit-copy walk on ``integerize(g)``: each step
    proposes one of W = d * (total bundle weight) unit copies uniformly.  A
    perfect state removes the proposed copy's pair, if matched, with
    probability penalty / (its copies); a state with holes h1, h2 inserts or
    slides when the copy touches a hole.  Every other step changes nothing, so
    the walk jumps straight to the next step that does, with a geometric draw
    of the steps in between; floats enter only this sampling law.  States
    are weighted by the product of their bundle weights, with near-perfect
    states damped by the penalty; the law over perfect states is penalty-free.
    """

    __slots__ = ("nbr", "at", "total", "leave_p", "match", "holes", "rng")

    def __init__(
        self,
        bundles: dict[tuple[int, int], Fraction],
        d: int,
        match: list[int],
        rng: random.Random,
    ) -> None:
        copies = {key: int(w * d) for key, w in bundles.items()}
        self.total = sum(copies.values())
        # nbr[v][u]: the share of all unit copies that join v and u.
        self.nbr: list[dict[int, float]] = [{} for _ in match]
        for (a, b), c in copies.items():
            self.nbr[a][b] = self.nbr[b][a] = c / self.total
        self.at = [sum(shares.values()) for shares in self.nbr]
        self.match = match
        self.holes = tuple(v for v, m in enumerate(match) if m < 0)
        self.rng = rng
        self.set_penalty(1.0)

    def set_penalty(self, penalty: float) -> None:
        self.leave_p = penalty * (len(self.match) // 2 / self.total)

    def advance(self, steps: int) -> None:
        rand = self.rng.random
        log = math.log
        log1p = math.log1p
        match = self.match
        nbr = self.nbr
        at = self.at
        n = len(match)
        leave_p = self.leave_p
        h1, h2 = self.holes or (-1, -1)
        left = steps
        while True:
            # p: the chance that one step changes the state.
            p = leave_p if h1 < 0 else at[h1] + at[h2] - nbr[h1].get(h2, 0.0)
            if p >= 1.0:
                left -= 1
            elif p > 0.0:
                left -= 1 + int(log(1.0 - rand()) / log1p(-p))
            else:
                break
            if left < 0:
                break
            if h1 < 0:
                h1 = int(rand() * n)
                h2 = match[h1]
                match[h1] = match[h2] = -1
                continue
            # Pick a copy at the holes by weight, the h1-h2 bundle once.  If
            # float residue exhausts both lists, b is the last copy at h2.
            r = rand() * p
            a, other = h1, h2
            for b, s in nbr[h1].items():
                r -= s
                if r < 0.0:
                    break
            else:
                a, other = h2, h1
                for b, s in nbr[h2].items():
                    if b != h1:
                        r -= s
                        if r < 0.0:
                            break
            mb = match[b]
            match[a] = b
            match[b] = a
            if mb < 0:
                h1 = h2 = -1
            else:
                match[mb] = -1
                h1, h2 = other, mb
        self.holes = (h1, h2) if h1 >= 0 else ()


def _maximum_matching(n: int, bundles: dict[tuple[int, int], Fraction]) -> Optional[list[int]]:
    import networkx as nx  # only the sampled path needs it; importing it costs more than the package

    graph = nx.Graph()
    graph.add_nodes_from(range(n))
    graph.add_edges_from(sorted(bundles))
    matching = nx.max_weight_matching(graph, maxcardinality=True)
    if 2 * len(matching) < n:
        return None
    arr = [-1] * n
    for a, b in matching:
        arr[a] = b
        arr[b] = a
    return arr


def _graph_from_bundles(n: int, bundles: dict[tuple[int, int], Fraction]) -> WeightedMultigraph:
    names = tuple(f"v{i}" for i in range(n))
    edges = tuple(Edge(names[a], names[b], w, "plain") for (a, b), w in sorted(bundles.items()))
    return WeightedMultigraph(names, edges)


def _condition_level(
    n: int,
    bundles: dict[tuple[int, int], Fraction],
    d: int,
    start: list[int],
    cfg: EstimatorConfig,
    level: int,
    levels_total: int,
) -> tuple[Fraction, dict[tuple[int, int], Fraction], list[int]]:
    """Estimate how often perfect matchings pair vertex 0 with its likeliest partner.

    Returns the telescoping factor weight/q and the bundles of the n - 2
    vertices left once the conditioned pair is removed, with a start matching
    from a sampled witness.  ``d`` is the source graph's ``integerize`` scale,
    kept across levels so that every level runs the same unit-copy law.
    """
    spacing = max(1, int(_STEPS_COEFF * n * max(1.0, math.log(n))))
    eps = float(cfg.epsilon)
    confidence = max(1.0, math.log2(2.0 / float(cfg.delta)))
    target = math.ceil(_SAMPLE_COEFF * (levels_total + 1) * confidence / (eps * eps))
    burn = 10 * spacing
    counts: dict[int, int] = {}
    witness: dict[int, list[int]] = {}
    perfect = 0
    for attempt in range(3):
        rng = random.Random((cfg.seed * 2654435761 + level * 65537 + attempt * 257 + 1) % (1 << 63))
        walk = _Chain(bundles, d, list(start), rng)
        walk.advance(burn)
        pilot = max(100, target // 10)
        hits = 0
        for _ in range(pilot):
            walk.advance(spacing)
            if not walk.holes:
                hits += 1
        beta = (hits + 1.0) / (pilot + 2.0)
        walk.set_penalty(min(1.0, max(beta / (1.0 - beta), 1e-4)))
        walk.advance(burn)
        counts.clear()
        witness.clear()
        perfect = 0
        budget = 50 * target
        while perfect < target and budget > 0:
            walk.advance(spacing)
            budget -= 1
            if not walk.holes:
                perfect += 1
                x = walk.match[0]
                counts[x] = counts.get(x, 0) + 1
                if x not in witness:
                    witness[x] = list(walk.match)
        if counts:
            break
    else:
        raise EstimateError(f"no perfect matchings sampled at telescoping level {level}")
    x_star = min(counts, key=lambda x: (-counts[x], -bundles[(0, x)], x))
    factor = bundles[(0, x_star)] * Fraction(perfect, counts[x_star])
    keep = [i for i in range(n) if i not in (0, x_star)]
    remap = {old: new for new, old in enumerate(keep)}
    bundles2 = {
        (remap[a], remap[b]): w for (a, b), w in bundles.items() if a in remap and b in remap
    }
    wit = witness[x_star]
    start2 = [-1] * len(keep)
    for old in keep:
        start2[remap[old]] = remap[wit[old]]
    return factor, bundles2, start2


def estimate_pm(g: WeightedMultigraph, cfg: EstimatorConfig) -> Fraction:
    """Seeded randomized perfect-matching weight of a weighted multigraph.

    A graph of at most ``EXACT_CAP`` vertices is counted exactly.  Past it,
    vertex-pair removals are telescoped down to ``EXACT_CAP`` vertices, each
    level estimated by the matching chain, and the remainder is counted
    exactly.  Odd orders and graphs without perfect matchings are answered
    exactly without sampling.  A chain predicted to take over
    ``CHAIN_BUDGET_S`` seconds raises CapacityError before it starts.
    """
    n = len(g.vertices)
    cap = EXACT_CAP
    if n <= cap:
        return count_pm_exact(g)
    if n % 2:
        return _ZERO
    seconds = _CHAIN_S_PER_VERTEX_CUBED * n**3 / float(10 * cfg.epsilon) ** 2
    if seconds > CHAIN_BUDGET_S:
        raise CapacityError(f"the chain on {n} vertices needs ~{seconds:.3g} s, past {CHAIN_BUDGET_S}")
    bundles = _bundles(g)
    start = _maximum_matching(n, bundles)
    if start is None:
        return _ZERO
    d = _denominator_lcm(g)
    levels_total = (n - cap + 1) // 2
    result = _ONE
    level = 0
    while n > cap:
        factor, bundles, start = _condition_level(n, bundles, d, start, cfg, level, levels_total)
        result *= factor
        n -= 2
        level += 1
    base = _graph_from_bundles(n, bundles)
    return result * count_pm_exact(base)


# ---------------------------------------------------------------------------
# End-to-end pipeline


def estimate_z_fpras(f: PBFunction, inst: CspInstance, cfg: EstimatorConfig) -> Fraction:
    """Partition-function estimate for an instance over one binary f.

    f or its bit flip must have nonnegative Fourier coefficients.  The answer
    is ``z_exact`` unless that raises CapacityError.  Past its budget the
    pipeline runs on the instance's constraints over the one table f, or
    bit_flip(f) (same Z) when only the bit flip is nonnegative: ``estimate_pm``
    supplies the matching count and all tracked constants are multiplied back
    exactly.  When ``estimate_pm`` refuses the triangle graph's chain, the
    CapacityError names both predictions.
    """
    if f.arity != 2:
        raise InstanceError(f"pipeline needs a binary function, got arity {f.arity}")
    names = inst.registry_map()
    for name in dict.fromkeys(name for _, name in inst.constraints):
        fn = names[name]
        if isinstance(fn, SignedTable) or fn.table != f.table:
            raise InstanceError(
                f"estimator needs a single constraint function; {name!r} differs from the pipeline function"
            )
    nonnegative = in_cp(f)
    if not nonnegative and not in_cp(bit_flip(f)):
        raise InstanceError(
            "function has a negative Fourier coefficient; classify_two_spin reports which "
            "regime applies instead"
        )
    try:
        return z_exact(inst)
    except CapacityError as exc:
        too_costly = str(exc)
    # Every constraint holds f's table, so one table named f serves them all;
    # flipping every spin maps f to bit_flip(f) in each and keeps Z.  Valid:
    # the scopes are inst's, each of the arity of f's table.
    table = f if nonnegative else bit_flip(f)
    constraints = tuple((scope, "f") for scope, _ in inst.constraints)
    lifted = lift_instance(_unchecked(CspInstance, inst.variables, (("f", table),), constraints))
    form = holant_fourier_form(lifted)
    if form.is_zero:
        return _ZERO
    assert form.holant is not None
    graph = build_triangle_graph(form.holant)
    try:
        count = estimate_pm(graph, cfg)
    except CapacityError as exc:
        raise CapacityError(f"{too_costly}; {exc}") from exc
    return form.kappa / 2 * count
