"""Workload inputs and job lists.

Every workload builds its instance families, their reference results from
``oracles`` and its fixed job list ``jobs`` once per run from the run seed,
before any timing starts.  Every pass repeats the same jobs (estimator seeds
included), so the outputs of every pass must agree.

Library functions are always looked up through their module at call time, so
that the tracer's wrappers see the calls.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import oracles


@dataclass(frozen=True)
class Outcome:
    ok: bool  # output equals its oracle (sampled: inside the sanity window)
    text: str  # canonical output, hashed into the workload digest
    hit: Optional[bool] = None  # sampled only: inside exp(+-epsilon) of the exact value


@dataclass(frozen=True)
class Job:
    kind: str  # the named metric the job's time counts toward
    label: str  # stable within a pass
    check: str  # oracle check name
    run: Callable[[], object]
    verify: Callable[[object], Outcome]
    sampled: bool = False


def _equal(expected: object, render: Callable[[object], str] = str) -> Callable[[object], Outcome]:
    return lambda out: Outcome(out == expected, render(out))


def _ring(sc, fn, m: int, name: str = "f"):
    """Cycle x0 - x1 - ... - x(m-1) - x0 with one binary constraint per edge."""
    cons = [((f"x{i}", f"x{(i + 1) % m}"), name) for i in range(m)]
    return sc.instances.CspInstance.build([(name, fn)], cons)


def _z_oracle(inst) -> Fraction:
    return oracles.z_elimination(inst.variables, inst.registry_map(), inst.constraints)


def _z_text_oracle(inst) -> Fraction:
    """The partition function of the instance's text form, which drops unused variables."""
    used = {v for scope, _ in inst.constraints for v in scope}
    return oracles.z_elimination(used, inst.registry_map(), inst.constraints)


def _rand_value(rng: random.Random, zeros: bool) -> Fraction:
    if zeros and rng.random() < 0.25:
        return Fraction(0)
    return Fraction(rng.randint(1, 5), rng.randint(1, 3))


def _rand_function(sc, rng: random.Random, arity: int, zeros: bool = True):
    return sc.funcs.PBFunction(arity, tuple(_rand_value(rng, zeros) for _ in range(1 << arity)))


def _rand_csp(sc, rng: random.Random, n: int):
    """n variables, n + 4 constraints over three random permissive tables."""
    registry = [(f"g{i}", _rand_function(sc, rng, k, zeros=False)) for i, k in enumerate((2, 3, 2))]
    names = [f"v{i}" for i in range(n)]
    cons = []
    for _ in range(n + 4):
        name, fn = rng.choice(registry)
        cons.append((tuple(rng.sample(names, fn.arity)), name))
    return sc.instances.CspInstance.build(registry, cons, variables=names)


def c06_instances(sc) -> tuple[list, list]:
    """The acceptance gate C06's instances: 18 exact-path and two 36-vertex ones.

    Same generator, seed (606) and draw order as the gate, so the instances
    are identical to the ones it checks.
    """
    f = sc.funcs.binary(2, 1, 1, 2)
    m = sc.matching
    rng = random.Random(606)
    exact_path: list = []
    sampling: list = []
    while len(exact_path) < 18 or len(sampling) < 2:
        n_vars = rng.randint(2, 10)
        n_cons = rng.randint(1, 4)
        variables = [f"v{i}" for i in range(n_vars)]
        registry = [("f0", f)]
        constraints = []
        for _ in range(n_cons):
            name, fn = rng.choice(registry)
            constraints.append((tuple(rng.choice(variables) for _ in range(fn.arity)), name))
        inst = sc.instances.CspInstance.build(registry, constraints, variables=variables)
        size = len(m.build_triangle_graph(m.holant_fourier_form(m.lift_instance(inst)).holant).vertices)
        if size <= 30 and len(exact_path) < 18:
            exact_path.append(inst)
        elif size == 36 and len(sampling) < 2:
            sampling.append(inst)
    return exact_path, sampling


def _derived_seed(seed: int, *parts: int) -> int:
    out = seed
    for p in parts:
        out = (out * 1_000_003 + p) % (1 << 61)
    return out


class Sampled:
    """Estimates on graphs past the exact crossover, so the matching chain runs."""

    def __init__(self, sc, seed: int, smoke: bool, workdir: str) -> None:
        m = sc.matching
        f = sc.funcs.binary(2, 1, 1, 2)
        _, c06 = c06_instances(sc)
        heavy = sc.funcs.binary(7919, 13, 13, 7907)
        cases = [("c06_a", f, c06[0]), ("c06_b", f, c06[1])]
        if not smoke:
            mild = sc.funcs.binary(5, 1, 1, 3)
            cases.append(("ring7_d5", mild, _ring(sc, mild, 7)))
        cases.append(("ring7_heavy", heavy, _ring(sc, heavy, 7)))
        if not smoke:
            # A 7-ring (36 vertices) rather than an 8-ring (42 vertices, ~4 s per
            # call), so that a run holds several passes.
            cases.append(("ring7", f, _ring(sc, f, 7)))
        # Smoke mode trades accuracy for time; the timed runs use the defaults.
        epsilon = Fraction(1, 2) if smoke else m.EstimatorConfig().epsilon
        self.jobs = []
        for j, (label, fn, inst) in enumerate(cases):
            # The chain's work varies by ~10% with the estimator seed, so each
            # instance runs under two seeds to even it out between run seeds.
            for k in range(1 if smoke else 2):
                cfg = m.EstimatorConfig(epsilon=epsilon, seed=_derived_seed(seed, j, k))
                self.jobs.append(Job(
                    "estimate_sampled", f"{label}_s{k}", "sampled.estimate_vs_exact",
                    lambda fn=fn, inst=inst, cfg=cfg: m.estimate_z_fpras(fn, inst, cfg),
                    _within_window(_z_oracle(inst), float(epsilon)),
                    sampled=True,
                ))


def _within_window(z: Fraction, eps: float) -> Callable[[object], Outcome]:
    """An estimate passes inside exp(+-1) of z and hits inside exp(+-eps)."""

    def verify(estimate: object) -> Outcome:
        ratio = float(estimate / z)
        hit = ratio > 0 and abs(math.log(ratio)) <= eps
        return Outcome(math.exp(-1) <= ratio <= math.exp(1), str(estimate), hit)

    return verify


class Exact:
    """Small instances on exact paths only, plus the algebra modules and the CLI."""

    def __init__(self, sc, seed: int, smoke: bool, workdir: str) -> None:
        self.sc = sc
        F = sc.funcs
        rng = random.Random(_derived_seed(seed, 2))
        jobs: list[Job] = []
        m = sc.matching

        exact_path, _ = c06_instances(sc)
        if smoke:
            exact_path = exact_path[:3]
        f = F.binary(2, 1, 1, 2)
        exact_z = [_z_oracle(inst) for inst in exact_path]
        for i, (inst, z) in enumerate(zip(exact_path, exact_z)):
            for s in range(1 if smoke else 20):
                cfg = m.EstimatorConfig(seed=_derived_seed(seed, i, s))
                jobs.append(Job(
                    "estimate_exact", f"c06_exact{i}_s{s}", "exact.estimate_vs_elimination",
                    lambda inst=inst, cfg=cfg: m.estimate_z_fpras(f, inst, cfg), _equal(z),
                ))

        # Tagged FPRAS by the classifier, so the estimator should accept it.
        g = F.binary(1, 1, 1, 4)
        g_ring = _ring(sc, g, 4)

        def classify_then_estimate():
            tag = sc.classify.classify_two_spin(g).tag.value
            if tag != "FPRAS":
                return f"tag {tag}"
            return m.estimate_z_fpras(g, g_ring, m.EstimatorConfig(seed=seed))

        jobs.append(Job(
            "classify_estimate", "fpras_tagged_1114", "exact.fpras_tag_accepted",
            classify_then_estimate, _equal(_z_oracle(g_ring)),
        ))

        # Many instances of 11-13 variables: with 16-18, brute force would take
        # most of the pass and the other exact paths would barely count.
        for i, n in enumerate((8,) if smoke else (11, 12, 13) * 3):
            inst = _rand_csp(sc, rng, n)
            jobs.append(Job(
                "z_exact", f"csp{i}_{n}", "exact.z_exact_vs_elimination",
                lambda inst=inst: sc.instances.z_exact(inst), _equal(_z_oracle(inst)),
            ))

        golden = [(0, 1, 1, 0), (1, 1, 0, 1), (3, 4, 1, 2), (2, 1, 1, 2), (1, 2, 2, 1), (1, 2, 2, 3)]
        binaries = [F.binary(*t) for t in golden]
        binaries += [_rand_function(sc, rng, 2) for _ in range(2 if smoke else 400)]
        for i, b in enumerate(binaries):
            jobs.append(Job(
                "algebra", f"classify{i}", "exact.classify_vs_definition",
                lambda b=b: sc.classify.classify_two_spin(b).tag.value,
                _equal(oracles.two_spin_tag(b.table)),
            ))

        for i, arity in enumerate((4,) if smoke else (6, 7, 8) * 6):
            fn = _rand_function(sc, rng, arity)
            coeffs = tuple(oracles.fourier_table(fn.table, arity))
            signed = F.SignedTable(arity, coeffs)
            jobs.append(Job(
                "algebra", f"fourier{i}_{arity}", "exact.fourier_vs_definition",
                lambda fn=fn: F.fourier(fn).table, _equal(coeffs, _table_text),
            ))
            jobs.append(Job(
                "algebra", f"inverse_fourier{i}_{arity}", "exact.inverse_fourier_round_trip",
                lambda signed=signed: F.inverse_fourier(signed).table, _equal(fn.table, _table_text),
            ))

        for i in range(4 if smoke else 200):
            arity = rng.randint(2, 5)
            fn = _rand_function(sc, rng, arity)
            expected = oracles.property_fields(fn.table, arity)
            jobs.append(Job(
                "algebra", f"props{i}", "exact.property_report_vs_definition",
                lambda fn=fn: F.property_report(fn),
                lambda rep, expected=expected: Outcome(
                    all(getattr(rep, k) == v for k, v in expected.items()),
                    " ".join(f"{k}={v}" for k, v in rep.record()),
                ),
            ))

        for i in range(4 if smoke else 200):
            family = [_rand_function(sc, rng, rng.randint(1, 3)) for _ in range(rng.randint(1, 3))]
            jobs.append(Job(
                "algebra", f"pinning{i}", "exact.pinning_soundness",
                lambda family=family: sc.gadgets.pinning_analysis(family), self._pinning_sound,
            ))

        jobs += self._cli_jobs(rng, list(zip(exact_path, exact_z)), workdir, smoke)
        self.jobs = jobs

    def _pinning_sound(self, verdict) -> Outcome:
        """The soundness conditions of acceptance criterion C10."""
        G = self.sc.gadgets
        family = [f.table for f in verdict.family]
        tag = verdict.tag.value
        if tag == "BothUnaries":
            registry = verdict.registry()
            up, down = verdict.up.table, verdict.down.table
            ok = (
                0 < up[0] < up[1]
                and down[0] > down[1] > 0
                and G.eval_pps(verdict.up_formula, registry).table == up
                and G.eval_pps(verdict.down_formula, registry).table == down
            )
            text = f"{tag} {_table_text(up)} / {_table_text(down)}"
        elif tag in ("MonotoneFamily", "FlippedMonotoneFamily"):
            if tag == "FlippedMonotoneFamily":
                family = [t[::-1] for t in family]
            witness = family[verdict.witness_index]
            ok = all(map(oracles.monotone_on_support, family)) and not oracles.monotone_on_support(
                witness[::-1]
            )
            text = f"{tag} {verdict.witness_index}"
        else:
            ok = all(map(oracles.is_pure, family))
            text = tag
        return Outcome(ok, text)

    def _cli_jobs(self, rng: random.Random, exact_path: list, workdir: str, smoke: bool) -> list[Job]:
        """In-process ``cli.main`` calls on small files, checked against the oracles."""

        def write(name: str, inst) -> str:
            path = os.path.join(workdir, name)
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(self.sc.instances.serialize(inst))
            return path

        def printed(expected: str) -> Callable[[object], Outcome]:
            return lambda out: Outcome(out == (0, expected), out[1])

        def tagged(expected: str) -> Callable[[object], Outcome]:
            return lambda out: Outcome(
                out[0] == 0 and oracles.parse_machine(out[1]).get("tag") == expected, out[1]
            )

        calls = []
        for i, (inst, _) in enumerate(exact_path):
            z = _z_text_oracle(inst)
            calls.append((f"z_estimate{i}", ["z-estimate", write(f"c06_{i}.txt", inst)], printed(f"{z}\n")))
        for i in range(1 if smoke else 2):
            csp = _rand_csp(self.sc, rng, 8 if smoke else 12)
            z = _z_text_oracle(csp)
            calls.append((f"z_exact{i}", ["z-exact", write(f"csp{i}.txt", csp)], printed(f"{z}\n")))
        for i in range(2 if smoke else 20):
            table = _rand_function(self.sc, rng, 2).table
            argv = ["classify", "--machine", "--fun", "2 " + _table_text(table)]
            calls.append((f"classify{i}", argv, tagged(oracles.two_spin_tag(table))))
        for i in range(2 if smoke else 10):
            table = _rand_function(self.sc, rng, 4).table
            expected = f"arity: 4\ntable: {_table_text(oracles.fourier_table(table, 4))}\n"
            calls.append((f"fourier{i}", ["fourier", "--fun", "4 " + _table_text(table)], printed(expected)))
        return [
            Job("cli", f"cli_{label}", "exact.cli_output", lambda argv=argv: self._cli(argv), verify)
            for label, argv, verify in calls
        ]

    def _cli(self, argv: list[str]) -> tuple[int, str]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = self.sc.cli.main(argv)
        return code, out.getvalue()

def _table_text(values) -> str:
    return " ".join(str(v) for v in values)


class Scale:
    """Instances of thousands of constraints: reduction to the triangle graph, no sampling."""

    def __init__(self, sc, seed: int, smoke: bool, workdir: str) -> None:
        self.sc = sc
        rng = random.Random(_derived_seed(seed, 3))
        header = "fun f 2 2 1 1 2\n"
        fn_sum = Fraction(6)  # sum of the table in ``header``
        jobs: list[Job] = []
        # Hub: a ring lifts to one shared variable of degree m.  The 1k and 2k
        # rings keep every call near a second or less, so a run holds several
        # passes; the 2k/1k ratio of to_holant still shows its quadratic cost.
        for m in (200, 400) if smoke else (1000, 2000):
            text = header + "".join(f"con f x{i} x{(i + 1) % m}\n" for i in range(m))
            degrees = [2] * m + [m]
            jobs.append(self._reduction("reduce_hub", f"hub{m}", text, fn_sum, degrees, m))
        # Spread: random pairs, so every variable has degree about 4.
        n, m = (100, 200) if smoke else (500, 1000)
        names = [f"v{i}" for i in range(n)]
        pairs = [rng.sample(names, 2) for _ in range(m)]
        text = header + "".join(f"con f {a} {b}\n" for a, b in pairs)
        counts: dict[str, int] = {}
        for pair in pairs:
            for v in pair:
                counts[v] = counts.get(v, 0) + 1
        degrees = list(counts.values()) + [m]
        jobs.append(self._reduction("reduce_spread", f"spread{n}", text, fn_sum, degrees, m))
        # Product type: an equality ring and a disequality ring of even length.
        m = 512 if smoke else 4096
        p = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        q = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        for label, values, z in (
            ("eq", (p, 0, 0, q), p**m + q**m),
            ("neq", (0, p, q, 0), 2 * (p * q) ** (m // 2)),
        ):
            text = f"fun p 2 {_table_text(values)}\n" + "".join(
                f"con p x{i} x{(i + 1) % m}\n" for i in range(m)
            )
            jobs.append(Job(
                "z_product_type", f"product_{label}{m}", "scale.z_product_type_closed_form",
                lambda text=text: self.sc.instances.z_product_type(self.sc.instances.parse(text)),
                _equal(z),
            ))
        self.jobs = jobs

    def _reduction(self, kind, label, text, fn_sum, degrees, m) -> Job:
        kappa, m_h, n_h = oracles.fourier_form_size(fn_sum, degrees, m)
        sc = self.sc

        def run():
            inst = sc.instances.parse(text)
            form = sc.matching.holant_fourier_form(sc.matching.lift_instance(inst))
            return form, sc.matching.build_triangle_graph(form.holant)

        def verify(out) -> Outcome:
            form, graph = out
            v, e = len(graph.vertices), len(graph.edges)
            ok = (
                form.kappa == kappa
                and len(form.holant.constraints) == m_h
                and len(form.holant.variables) == n_h
                and v == 3 * m_h
                and e == 3 * m_h + n_h
            )
            digest = hashlib.sha256(sc.matching.serialize_graph(graph).encode()).hexdigest()
            return Outcome(ok, f"{form.kappa} {v} {e} {digest}")

        return Job(kind, label, "scale.reduction_closed_form", run, verify)

WORKLOADS = {"sampled": Sampled, "exact": Exact, "scale": Scale}
