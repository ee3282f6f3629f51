"""Timed qpow calls for one benchmark run; run.py starts it.

    python3 perfbench/child.py PLAN RESULT [--setup-only]

Imports qpow from the checkout's src/, decodes the plan's inputs into qpow
objects and writes "ready" on stdout; that is where set-up ends.  Then it
repeats whole rounds of the plan's calls until the plan's seconds have passed,
and writes to RESULT the timings, the outputs of the first round, a digest of
every round's outputs and, in a traced run, the per-module metrics.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import sys
import time
from dataclasses import asdict


def load(plan: dict):
    """The plan's inputs as qpow objects, and the function running one call."""
    import qpow
    import qpow._bulk
    import qpow.cli
    import qpow.search

    kind = plan["kind"]
    if kind == "scan":
        def run(_):
            qpow._bulk.clear_caches()  # every round starts from a cold cache
            t0 = time.perf_counter()
            report = qpow.search.scan(plan["bound_id"], range(2, plan["n_max"] + 1), plan["alphas"],
                                      threads=plan["threads"])
            dt = time.perf_counter() - t0
            return dt, json.loads(report.to_json(redact_timing=True)), report.graphs_scanned
        return [None], run
    if kind == "cli":
        def run(argv):
            out = io.StringIO()
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(out):
                code = qpow.cli.main(argv)
            dt = time.perf_counter() - t0
            if code not in (0, 1):  # 1 means the scan found violations
                raise RuntimeError(f"qpow scan exited {code}")
            doc = json.loads(out.getvalue())
            doc["wall_time"] = None
            return dt, doc, doc["graphs_scanned"]
        return plan["argvs"], run
    calls = [dict(c, graph=qpow.parse_graph6(c["g6"])) for c in plan["calls"]]

    def run(call):
        g, op = call["graph"], call["op"]
        t0 = time.perf_counter()
        if op == "power_sum":
            out = qpow.signless_power_sum(g, call["alpha"])
        elif op == "check_bound":
            out = qpow.check_bound(g, call["bound_id"], call["alpha"], k=call["k"])
        else:
            out = qpow.named_invariants(g)
        dt = time.perf_counter() - t0
        return dt, out if op == "power_sum" else asdict(out), 0
    return calls, run


def main(argv: list[str]) -> int:
    plan_path, result_path = argv[0], argv[1]
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    import numpy
    import qpow

    src = os.path.join(plan["root"], "src") + os.sep
    if not os.path.abspath(qpow.__file__).startswith(src):
        print(f"qpow was imported from {qpow.__file__}, not from {src}", file=sys.stderr)
        return 2
    calls, run = load(plan)
    print("ready", flush=True)
    if "--setup-only" in argv[2:]:
        return 0

    tracer = None
    if plan["trace"]:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    round_walls, call_s, digests, errors = [], [], [], []
    first_outputs = None
    attempted = failed = graphs = 0
    begin = time.perf_counter()
    while not round_walls or time.perf_counter() - begin < plan["seconds"]:
        outputs, wall, graphs = [], 0.0, 0
        for call in calls:
            attempted += 1
            try:
                dt, out, scanned = run(call)
            except Exception as exc:  # a failed call is counted, the run goes on
                failed += 1
                errors.append(f"{type(exc).__name__}: {exc}")
                outputs.append(None)
                continue
            wall += dt
            call_s.append(dt)
            graphs += scanned
            outputs.append(out)
        round_walls.append(wall)
        digests.append(hashlib.sha256(json.dumps(outputs).encode()).hexdigest())
        if first_outputs is None:
            first_outputs = outputs
    rounds = len(round_walls)
    rss_kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    result = {
        "rounds": rounds,
        "round_walls": round_walls,
        "call_s": call_s,
        "graphs_per_round": graphs or len(calls),
        "attempted": attempted,
        "failed": failed,
        "errors": errors[:10],
        "outputs": first_outputs,
        "digests": digests,
        "peak_rss_mb": rss_kib / 1024.0,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    if tracer is not None:
        result["layers"] = tracer.metrics(rounds, sum(round_walls) / rounds)
        result["tree"] = tracer.tree()
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
