#!/usr/bin/env python3
"""The qpow benchmark: one workload, timed end to end or traced per module.

    python3 perfbench/run.py --workload conj44-n6 --seed 1 --seconds 20 --trace 0

Run it from anywhere inside a checkout; it builds nothing.  It makes the
workload's inputs from --seed, starts perfbench/child.py (which imports qpow
from src/ and times whole rounds of calls for --seconds), checks every output
against the independent oracle in perfbench/oracle.py, writes a record of the
run to .perfbench/, and prints one JSON line: correct, attempted, failed and
the metrics (end to end with --trace 0, per module with --trace 1).
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import time

import oracle
from reference import CONJ31_N8, CONJ44_N6, reference_path
from tracer import LAYER_METRICS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench")
SETUPS = 5  # fresh processes timed to "ready"; setup_s is their median
CHILD_TIMEOUT_S = 150
SCAN_WORKERS = 2

WORKLOADS = {
    "conj44-n6": {"kind": "scan", "bound_id": "conj44", **CONJ44_N6,
                  "census": sum(oracle.A001187[2:CONJ44_N6["n_max"] + 1])},
    "conj31-n8": {"kind": "scan", "bound_id": "conj31", **CONJ31_N8,
                  "census": sum(oracle.A001832[2:CONJ31_N8["n_max"] + 1])},
    "stream-conj44": {"kind": "cli", "n_max": 12, "alphas": CONJ44_N6["alphas"]},
    "api-single": {"kind": "api"},
}
END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("graphs_per_s", "1/s"),
              ("call_p50_ms", "ms"), ("call_p99_ms", "ms"), ("peak_rss_mb", "MiB")]

# stream-conj44: 96 units of 9 lines, each one connected graph for every n, at
# densities that cycle with n and the unit, and one disconnected graph.  The
# first units make a few large files, the rest a file each: the large files are
# the slowest calls, so call_p99_ms times a large file rather than the
# machine's slowest moment
STREAM_BLOCKS = 24
STREAM_NS = range(5, 13)
STREAM_DENSITIES = (0.3, 0.45, 0.6, 0.75)
STREAM_LARGE_FILES = 2
STREAM_LARGE_UNITS = 8

# api-single: one connected graph for each (family, density, n), each with
# three calls
API_NS = range(4, 17)
API_DENSITIES = (0.35, 0.55, 0.75)
API_ALPHAS = (0.5, 1.0, 2.0, -1.0, 1.5, 3.0, -0.5, 0.25)
API_CHECKS = {
    "bipartite": [("thm31-upper", 0.5), ("thm31-lower", -1.0), ("thm32-upper", 0.75),
                  ("thm32-lower", -0.5), ("conj31-upper", 2.0)],
    "connected": [("thm41-upper", 1.5), ("thm41-lower", -1.0)],
    "kappa": [("thm43-upper", 2.0), ("conj44-upper", 0.5), ("conj44-lower", -1.0)],
}


def random_graph(rng: random.Random, n: int, p: float, bipartite: bool = False) -> tuple:
    """A connected G(n, p); with bipartite, only edges across a random split."""
    while True:
        side = {v for v in range(n) if rng.random() < 0.5} if bipartite else set()
        edges = tuple(e for e in oracle.pairs(n)
                      if (not bipartite or (e[0] in side) != (e[1] in side)) and rng.random() < p)
        if oracle.connected(n, edges):
            return n, edges


def disconnected_graph(rng: random.Random) -> tuple:
    n = rng.choice(STREAM_NS)
    side = set(rng.sample(range(n), rng.randint(1, n - 1)))
    return n, tuple(e for e in oracle.pairs(n) if (e[0] in side) == (e[1] in side) and rng.random() < 0.6)


def stream_files(rng: random.Random) -> list[list[tuple]]:
    """The graphs of each stream file, distinct across all files, so that each
    violation is reported once.  Every unit costs about the same, and each
    block of units holds one connected graph for every (n, density)."""
    seen = set()

    def fresh(draw, *args):
        while True:
            g = draw(rng, *args)
            if g not in seen:
                seen.add(g)
                return g

    units = []
    for _ in range(STREAM_BLOCKS):
        for j in range(len(STREAM_DENSITIES)):
            units.append([fresh(random_graph, n, STREAM_DENSITIES[(n + j) % len(STREAM_DENSITIES)])
                          for n in STREAM_NS] + [fresh(disconnected_graph)])
    large = STREAM_LARGE_FILES * STREAM_LARGE_UNITS
    files = [sum(units[i:i + STREAM_LARGE_UNITS], []) for i in range(0, large, STREAM_LARGE_UNITS)]
    files += units[large:]
    for graphs in files:
        rng.shuffle(graphs)
    rng.shuffle(files)
    return files


def api_calls(rng: random.Random) -> list[dict]:
    """Three calls per graph: a power sum, a bound check, named invariants."""
    graphs = [(family, p, n) for family in API_CHECKS for p in API_DENSITIES for n in API_NS]
    rng.shuffle(graphs)
    calls = []
    for j, (family, p, n) in enumerate(graphs):
        n, edges = random_graph(rng, n, p, bipartite=family == "bipartite")
        g6 = oracle.g6_encode(n, edges)
        bound_id, alpha = API_CHECKS[family][j % len(API_CHECKS[family])]
        k = rng.randint(oracle.kappa(n, edges), n - 1) if family == "kappa" else None
        calls += [
            {"g6": g6, "op": "power_sum", "alpha": API_ALPHAS[j % len(API_ALPHAS)]},
            {"g6": g6, "op": "check_bound", "bound_id": bound_id, "alpha": alpha, "k": k},
            {"g6": g6, "op": "named_invariants"},
        ]
    return calls


def make_plan(name: str, seed: int, tag: str, trace: bool):
    """The child's plan, and the check of its first-round outputs (None for a
    failed call)."""
    spec = WORKLOADS[name]
    rng = random.Random(seed)
    plan = {"kind": spec["kind"], "root": ROOT, "trace": trace}
    if spec["kind"] == "scan":
        with open(reference_path(name), encoding="ascii") as fh:
            ref = json.load(fh)
        if [ref["n_max"], ref["alphas"], ref["graphs_scanned"]] != [spec["n_max"], spec["alphas"], spec["census"]]:
            raise SystemExit(f"{reference_path(name)} does not match the {name} workload")
        expected = oracle.expected_from_json(ref)
        # a traced run keeps every span in one process
        plan.update(bound_id=spec["bound_id"], n_max=spec["n_max"], alphas=spec["alphas"],
                    threads=1 if trace else SCAN_WORKERS)
        return plan, lambda out: [] if out[0] is None else oracle.check_scan(out[0], expected, spec["bound_id"])
    if spec["kind"] == "cli":
        # the "=" form: a grid that starts with a negative number would
        # otherwise be read as an option
        grid = ",".join(repr(a) for a in spec["alphas"])
        files = stream_files(rng)
        plan["argvs"] = []
        for i, graphs in enumerate(files):
            path = os.path.join(OUT, f"{tag}.{i:02d}.g6")
            with open(path, "w", encoding="ascii") as fh:
                fh.writelines(oracle.g6_encode(n, edges) + "\n" for n, edges in graphs)
            plan["argvs"].append(["scan", "--id", "conj44", f"--alpha-grid={grid}",
                                  "--max-n", str(spec["n_max"]), "--input", path, "--format", "json"])
        expected = [oracle.kappa_population(graphs, spec["alphas"], spec["n_max"]) for graphs in files]
        return plan, lambda out: [f"file {i}: {err}" for i, (doc, exp) in enumerate(zip(out, expected))
                                  if doc is not None for err in oracle.check_scan(doc, exp, "conj44")]
    plan["calls"] = calls = api_calls(rng)
    return plan, lambda out: oracle.check_api(calls, out)


def start_child(plan_path: str, result_path: str, setup_only: bool):
    """Run child.py; returns the seconds from its start until it was ready."""
    cmd = [sys.executable, os.path.join(HERE, "child.py"), plan_path, result_path]
    # one BLAS thread per process: a scan's parallelism is its worker count,
    # passed as threads=, never taken from QPOW_THREADS or the core count
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"),
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env.pop("QPOW_THREADS", None)
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd + (["--setup-only"] if setup_only else []), cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, text=True)
    ready = proc.stdout.readline().strip() == "ready"
    setup = time.perf_counter() - t0
    try:
        proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
    if not ready or proc.returncode != 0:
        raise SystemExit(f"benchmark child failed (exit {proc.returncode}): {' '.join(cmd)}")
    return setup


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "qpow", "__init__.py")):
        print(f"no qpow sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    plan, check = make_plan(args.workload, args.seed, tag, bool(args.trace))
    plan["seconds"] = args.seconds
    plan_path = os.path.join(OUT, f"{tag}.plan.json")
    result_path = os.path.join(OUT, f"{tag}.result.json")
    with open(plan_path, "w", encoding="utf-8") as fh:
        json.dump(plan, fh)

    setups = [start_child(plan_path, result_path, setup_only=False)]
    setups += [start_child(plan_path, os.devnull, setup_only=True) for _ in range(SETUPS - 1)]
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)

    errors = [f"round {i} outputs differ from round 0"
              for i, d in enumerate(result["digests"]) if d != result["digests"][0]]
    errors += check(result["outputs"])  # a failed call has no output to check
    if args.trace:
        units = {name: unit for name, unit, _ in LAYER_METRICS}
        metrics = {name: {"value": v, "unit": units[name]} for name, v in result["layers"].items()}
    else:
        call_ms = sorted(1000.0 * s for s in result["call_s"])
        wall = sum(result["round_walls"]) / result["rounds"]
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": wall,
            "graphs_per_s": result["graphs_per_round"] / wall,
            "call_p50_ms": statistics.median(call_ms),
            "call_p99_ms": percentile(call_ms, 0.99),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    line = {"correct": not errors, "attempted": result["attempted"], "failed": result["failed"],
            "metrics": metrics}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "workers": plan.get("threads", 1),
        "python": result["python"], "numpy": result["numpy"], "machine": platform.machine(),
        "setups_s": setups, "rounds": result["rounds"], "round_walls_s": result["round_walls"],
        "calls": len(result["call_s"]), "call_errors": result["errors"], "check_errors": errors[:50],
        **line,
    }
    with open(os.path.join(OUT, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if args.trace:
        with open(os.path.join(OUT, f"{tag}.trace.json"), "w", encoding="utf-8") as fh:
            json.dump(result["tree"], fh, indent=1)
    for err in errors[:20]:
        print(f"check failed: {err}", file=sys.stderr)
    print(json.dumps(line))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
