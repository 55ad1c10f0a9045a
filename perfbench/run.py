"""Benchmark of the spincount library: seeded workloads, oracle checks, timings.

Run from the repository root:

    python3 perfbench/run.py --workload sampled --seed 1 --seconds 30 --trace 0

One process and one caller, held on one CPU: the workload's fixed job list
runs as a closed loop, pass after pass, until ``--seconds`` have been spent.
Every pass repeats the same work.  While an untraced pass runs, ``speed``
times a fixed reference loop every 10 ms; each pass's times are taken net of
that loop and put on the reference speed, and each job counts with its median
over the passes (``job_medians``).  ``wall_raw_s`` keeps the median pass as
measured.  Each set-up spawn is put on the reference speed by a reference
spawn run just before and just after it.  Every output is checked
against an oracle in ``oracles``.  With ``--trace 0`` the last line of
standard output is a JSON object holding the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` each pass runs twice with the same
inputs, untraced and traced in alternating order, and the object holds the
per-layer metrics read from the spans of ``tracing``.  The lines before it
print every metric by name, unit and value, the environment, the oracle checks
and the output digests; ``--smoke`` shrinks every workload for the benchmark's
own test.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from typing import Optional

import speed

SETUP_CODE = "import spincount, spincount.cli"


# Every pass is kept to the end of the run, so a result holds no output: the
# outputs go into the pass's digests as they are checked, and the memory a run
# keeps barely grows with its number of passes.
@dataclass(slots=True)
class Result:
    job: object
    seconds: float
    error: Optional[str] = None
    ok: bool = False  # output equals its oracle (sampled: inside the sanity window)
    hit: Optional[bool] = None  # sampled only: inside exp(+-epsilon) of the exact value

    @property
    def failed(self) -> bool:
        return self.error is not None or not self.ok


@dataclass
class Pass:
    results: list = field(default_factory=list)
    scale: float = 1.0  # measured seconds to reference seconds (``speed``)
    digests: dict = field(default_factory=dict)  # "exact" / "sampled": hash of the outputs

    @property
    def wall(self) -> float:
        return sum(r.seconds for r in self.results)


def run_pass(jobs, tracer=None, index: int = 0, meter=None) -> Pass:
    """One pass over the jobs; with a ``meter``, times are net of its reference loop."""
    gc.collect()
    out = Pass()
    hashes = {False: hashlib.sha256(), True: hashlib.sha256()}
    for job in jobs:
        error = None
        value = None
        if tracer is not None:
            tracer.job = f"{index}:{job.label}"
        metered = meter.spent if meter is not None else 0.0
        start = time.perf_counter()
        try:
            with tracer.installed() if tracer is not None else contextlib.nullcontext():
                value = job.run()
        except Exception as exc:  # a failed operation is counted, not fatal
            error = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        if meter is not None:
            seconds -= meter.spent - metered
        result = Result(job, seconds, error)
        text = error
        if error is None:
            try:
                outcome = job.verify(value)
                result.ok, result.hit, text = outcome.ok, outcome.hit, outcome.text
            except Exception as exc:
                result.error = text = f"oracle check raised {type(exc).__name__}: {exc}"
        hashes[job.sampled].update(f"{job.label}={text}\n".encode())
        out.results.append(result)
    out.digests = {"exact": hashes[False].hexdigest(), "sampled": hashes[True].hexdigest()}
    if meter is not None:
        out.scale = meter.scale()
    return out


def metered_pass(jobs) -> Pass:
    meter = speed.Meter()
    with meter.running():
        return run_pass(jobs, meter=meter)


def spawn(root: str, args: list[str], isolated: bool = False) -> tuple[float, str]:
    """Seconds for a fresh interpreter to run ``args``, and its standard error."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(root, "src"), env.get("PYTHONPATH")) if p
    )
    cmd = [sys.executable] + (["-I"] if isolated else []) + args
    start = time.perf_counter()
    proc = subprocess.run(cmd, env=env, cwd=root, capture_output=True, text=True, timeout=120)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(args)} failed: {proc.stderr.strip()}")
    return elapsed, proc.stderr


def spawn_setup(root: str, count: int) -> list[float]:
    """Reference seconds per fresh interpreter importing the package.

    Each spawn is put on the reference speed by the reference spawns of
    ``speed`` run just before and just after it.
    """
    reference = ["-c", speed.REF_SPAWN_CODE]
    refs = [spawn(root, reference, isolated=True)[0]]
    values = []
    for _ in range(count):
        elapsed, _ = spawn(root, ["-c", SETUP_CODE])
        refs.append(spawn(root, reference, isolated=True)[0])
        values.append(elapsed * 2 * speed.REF_SPAWN_S / (refs[-2] + refs[-1]))
    return values


def networkx_import(root: str, count: int) -> list[float]:
    """Seconds of networkx's share of the set-up import, as measured."""
    values = []
    for _ in range(count):
        _, stderr = spawn(root, ["-X", "importtime", "-c", SETUP_CODE])
        for line in stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() == "networkx":
                values.append(int(parts[1]) / 1e6)
    return values


def environment() -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        cpu = platform.processor()
    import networkx

    return {
        "python": platform.python_version(),
        "networkx": networkx.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "loadavg_1m": os.getloadavg()[0],
    }


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def job_medians(passes: list[Pass]) -> list[tuple[object, float]]:
    """Each job with its median reference seconds over the passes of the run."""
    return [
        (results[0].job, median(r.seconds * p.scale for r, p in zip(results, passes)))
        for results in zip(*(p.results for p in passes))
    ]


def named_metrics(workload: str, passes: list[Pass]) -> dict:
    """The workload's own metrics, each with its unit and sample count."""
    medians = job_medians(passes)

    def times(kind: str) -> list[float]:
        return [t for job, t in medians if job.kind == kind]

    def per_call(kind: str) -> tuple[float, str, int]:
        return median(times(kind)), "s", len(times(kind))

    def per_pass(kind: str) -> tuple[float, str, int]:
        return sum(times(kind)), "s", len(times(kind))

    ops = [r for p in passes for r in p.results]
    out = {
        "error_rate": (sum(r.failed for r in ops) / len(ops), "share", len(ops)),
        "wall_s": (median(p.wall * p.scale for p in passes), "s", len(passes)),
        "wall_raw_s": (median(p.wall for p in passes), "s", len(passes)),
    }
    if workload == "sampled":
        out["estimate_sampled_s"] = per_call("estimate_sampled")
        estimates = [r for r in passes[0].results if r.error is None]
        heavy = [r for r in estimates if r.job.label.startswith("ring7_heavy")]
        out["coverage"] = (
            sum(r.hit for r in estimates) / max(len(estimates), 1), "share", len(estimates)
        )
        out["coverage_heavy_ring"] = (
            sum(r.hit for r in heavy) / max(len(heavy), 1), "share", len(heavy)
        )
    elif workload == "exact":
        out["estimate_exact_s"] = per_call("estimate_exact")
        out["z_exact_s"] = per_call("z_exact")
        algebra = times("algebra")
        out["algebra_ops_per_s"] = (len(algebra) / sum(algebra), "ops/s", len(algebra))
        out["cli_call_s"] = per_call("cli")
    else:
        out["reduce_hub_s"] = per_pass("reduce_hub")
        out["reduce_spread_s"] = per_pass("reduce_spread")
        out["z_product_type_s"] = per_pass("z_product_type")
    return out


def layer_metrics(tracer, traced: list[Pass], untraced: list[Pass], networkx_s: list[float]) -> dict:
    """Per-layer totals per traced pass (median over passes), from the spans."""
    by_pass: dict[int, list] = {}
    for span in tracer.spans:
        by_pass.setdefault(int(span.job.split(":", 1)[0]), []).append(span)
    rows = []
    for index in range(len(traced)):
        spans = by_pass.get(index, [])
        durations: dict[str, float] = {}
        counts: dict[str, float] = {}
        for s in spans:
            durations[s.name] = durations.get(s.name, 0.0) + s.seconds
            for key, value in s.counts.items():
                if key == "denominator":
                    counts[key] = max(counts.get(key, 0), value)
                else:
                    counts[key] = counts.get(key, 0) + value
        child_to_holant = sum(
            s.seconds
            for s in spans
            if s.name == "instances.to_holant"
            and s.parent is not None
            and tracer.spans[s.parent].name == "matching.holant_fourier_form"
        )
        to_holant_in = {}
        for s in spans:
            if s.name == "instances.to_holant":
                job = s.job.split(":", 1)[1]
                to_holant_in[job] = to_holant_in.get(job, 0.0) + s.seconds
        # The hub jobs are the 1k and the 2k ring, in that order.
        hub = [(r.seconds, to_holant_in.get(r.job.label, 0.0)) for r in traced[index].results
               if r.job.kind == "reduce_hub"]
        hub_wall = sum(wall for wall, _ in hub)
        hub_to_holant = sum(t for _, t in hub)
        small, large = (hub[0][1], hub[1][1]) if hub else (0.0, 0.0)
        fpras = durations.get("matching.estimate_z_fpras", 0.0)
        row = {
            "matching.estimate_z_fpras_s": fpras,
            "matching.estimate_pm_s": durations.get("matching.estimate_pm", 0.0),
            "matching.estimate_pm_share": durations.get("matching.estimate_pm", 0.0) / fpras if fpras else 0.0,
            "matching.levels": sum(1 for s in spans if s.name == "matching.level"),
            "matching.integerize_s": durations.get("matching.integerize", 0.0),
            "matching.unit_edges": counts.get("unit_edges", 0),
            "matching.denominator": counts.get("denominator", 0),
            "matching.count_pm_exact_s": durations.get("matching.count_pm_exact", 0.0),
            "matching.graph_vertices": counts.get("graph_vertices", 0),
            "instances.to_holant_s": durations.get("instances.to_holant", 0.0),
            "matching.holant_fourier_form_s": durations.get("matching.holant_fourier_form", 0.0),
            "matching.holant_fourier_form_self_s": durations.get("matching.holant_fourier_form", 0.0)
            - child_to_holant,
            "instances.holant_variables": counts.get("holant_variables", 0),
            "instances.to_holant_ratio_2k_1k": large / small if small else 0.0,
            "instances.to_holant_share_hub": hub_to_holant / hub_wall if hub_wall else 0.0,
            "matching.lift_instance_s": durations.get("matching.lift_instance", 0.0),
            "matching.build_triangle_graph_s": durations.get("matching.build_triangle_graph", 0.0),
            "instances.parse_s": durations.get("instances.parse", 0.0),
            "instances.z_exact_s": durations.get("instances.z_exact", 0.0),
            "instances.z_product_type_s": durations.get("instances.z_product_type", 0.0),
            "funcs.fourier_s": durations.get("funcs.fourier", 0.0)
            + durations.get("funcs.inverse_fourier", 0.0),
            "classify.classify_two_spin_s": durations.get("classify.classify_two_spin", 0.0),
            "gadgets.pinning_analysis_s": durations.get("gadgets.pinning_analysis", 0.0),
            "cli.main_s": durations.get("cli.main", 0.0),
            "trace.overhead_s": traced[index].wall - untraced[index].wall,
        }
        rows.append(row)
    out = {name: median(row[name] for row in rows) for name in rows[0]}
    out["setup.networkx_import_s"] = median(networkx_s)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["sampled", "exact", "scale"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the benchmark's own test")
    args = parser.parse_args(argv)
    sys.set_int_max_str_digits(0)  # exact outputs are hashed as Fraction strings

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "spincount", "__init__.py")):
        print("perfbench: no src/spincount here; run from the repository root", file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    sys.path.insert(0, os.path.join(root, "src"))
    import spincount
    import spincount.cli

    import tracing
    import workloads

    env = environment()
    # The run is held on one CPU at a time, so that the reference loop runs
    # where the measured work runs; set-up spawns inherit the first CPU.
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[0]})
    # Half the set-up spawns before the timed loop and half after it, so that
    # their median spans the run rather than one moment of it.
    setup = spawn_setup(root, 2 if args.smoke else 6)
    out_dir = os.path.join(root, ".perfbench-out")
    os.makedirs(out_dir, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="inputs-", dir=out_dir)
    try:
        workload = workloads.WORKLOADS[args.workload](spincount, args.seed, args.smoke, workdir)
        tracer = tracing.Tracer(spincount) if args.trace else None
        untraced: list[Pass] = []
        traced: list[Pass] = []
        start = time.perf_counter()
        while True:
            k = len(untraced)
            # Passes take the CPUs in turn: how much the host's load slows this
            # code against the reference loop differs between CPUs and drifts
            # over minutes, so a run should not rest on one CPU.
            os.sched_setaffinity(0, {cpus[k % len(cpus)]})
            if tracer is not None and k % 2:  # alternate which side runs first
                traced.append(run_pass(workload.jobs, tracer, k))
                untraced.append(metered_pass(workload.jobs))
            else:
                untraced.append(metered_pass(workload.jobs))
                if tracer is not None:
                    traced.append(run_pass(workload.jobs, tracer, k))
            spent = time.perf_counter() - start
            if args.smoke or spent + 0.5 * spent / len(untraced) >= args.seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    os.sched_setaffinity(0, {cpus[0]})
    setup += spawn_setup(root, 1 if args.smoke else 5)

    passes = untraced + traced
    ops = [r for p in passes for r in p.results]
    checks: dict[str, dict[str, int]] = {}
    for r in ops:
        c = checks.setdefault(r.job.check, {"ran": 0, "mismatched": 0, "raised": 0})
        c["ran"] += 1
        if r.error is not None:
            c["raised"] += 1
        elif not r.ok:
            c["mismatched"] += 1
    exact_mismatch = any(r.error is None and not r.ok and not r.job.sampled for r in ops)
    digests = {p.digests["exact"] for p in passes}
    sampled_digests = {p.digests["sampled"] for p in passes}
    # Same inputs and seeds in every pass: every pass must give the same outputs.
    correct = not exact_mismatch and len(digests) == 1 and len(sampled_digests) == 1

    named = named_metrics(args.workload, untraced)
    named["setup_s"] = (median(setup), "s", len(setup))
    named["peak_rss_mb"] = (peak_rss_mb, "MB", 1)
    if tracer is None:
        wanted = spec["end_to_end"]
        values = {name: v for name, (v, _, _) in named.items()}
    else:
        networkx_s = networkx_import(root, 1 if args.smoke else 3)
        values = layer_metrics(tracer, traced, untraced, networkx_s)
        wanted = spec["per_layer"]
        spans_path = os.path.join(out_dir, f"spans-{args.workload}-{args.seed}.jsonl")
        with open(spans_path, "w", encoding="utf-8") as handle:
            for s in tracer.spans:
                handle.write(json.dumps(s.__dict__) + "\n")

    print("env " + " ".join(f"{k}={json.dumps(v)}" for k, v in env.items()))
    for name, (value, unit, n) in sorted(named.items()):
        print(f"metric {name} {value!r} {unit} n={n}")
    if tracer is not None:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        for name, value in values.items():
            print(f"layer {name} {value!r} {units.get(name, '?')}")
    for name, c in sorted(checks.items()):
        print(f"check {name} ran={c['ran']} mismatched={c['mismatched']} raised={c['raised']}")
    errors = sorted(
        {f"{r.job.label}: {r.error or 'output differs from its oracle'}" for r in ops if r.failed}
    )
    for line in errors:
        print(f"error {line}")
    for name, found in (("exact", digests), ("sampled", sampled_digests)):
        print(f"digest {name} {' '.join(sorted(found))}" + ("" if len(found) == 1 else " (passes differ)"))
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "environment": env,
        "named": {k: {"value": v, "unit": u, "n": n} for k, (v, u, n) in named.items()},
        "checks": checks,
        "errors": errors,
        "digest_exact": sorted(digests),
        "digest_sampled": sorted(sampled_digests),
        "pass_seconds": [p.wall for p in untraced],
        "pass_scales": [p.scale for p in untraced],
        "job_median_s": {job.label: t for job, t in job_medians(untraced)} if len(workload.jobs) <= 16 else None,
    }
    print(json.dumps({"details": details}))
    result = {
        "correct": correct,
        "attempted": len(ops),
        "failed": sum(r.failed for r in ops),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
