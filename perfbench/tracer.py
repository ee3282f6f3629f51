"""Per-module spans for a traced benchmark run, recorded from outside qpow.

install() replaces each traced function in every qpow module that holds it,
so a call is counted wherever the caller looks the name up (qpow._bulk.q_eigs,
qpow.search.q_spectrum, qpow.search.vertex_connectivity, ...).  A span's self
time is its duration minus the time of the spans it encloses.  Generators are
timed only inside next().  Spans are aggregated in memory per (caller span,
span) edge, which is what the trace file holds.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

# (metric, unit, better); the names read <module>.<function>.<what>
LAYER_METRICS = [
    ("bulk.enum.s", "s", "lower"),
    ("bulk.enum.codes", "count", "lower"),
    ("bulk.enum.kept", "count", "lower"),
    ("bulk.enum.keep_ratio", "ratio", "higher"),
    ("bulk.decode_rows.s", "s", "lower"),
    ("bulk.q_eigs.s", "s", "lower"),
    ("bulk.q_eigs.batches", "count", "lower"),
    ("bulk.q_eigs.matrices", "count", "lower"),
    ("bulk.power_sums.s", "s", "lower"),
    ("bulk.kappa_batch.s", "s", "lower"),
    ("bulk.kappa_batch.graphs", "count", "lower"),
    ("search.scan.s", "s", "lower"),
    ("search.reverify.s", "s", "lower"),
    ("search.reverify.candidates", "count", "lower"),
    ("search.reverify.confirmed", "count", "higher"),
    ("search.reverify.distinct_graphs", "count", "lower"),
    ("search.scalar_bound.s", "s", "lower"),
    ("search.scalar_bound.calls", "count", "lower"),
    ("spectra.q_spectrum.s", "s", "lower"),
    ("spectra.q_spectrum.calls", "count", "lower"),
    ("connectivity.vertex_connectivity.s", "s", "lower"),
    ("connectivity.vertex_connectivity.calls", "count", "lower"),
    ("bounds.connectivity_bound.s", "s", "lower"),
    ("bounds.connectivity_bound.calls", "count", "lower"),
    ("bounds.connectivity_bound.distinct_args", "count", "lower"),
    ("invariants.nonzero_power_sum.s", "s", "lower"),
    ("invariants.nonzero_power_sum.calls", "count", "lower"),
    ("invariants.named_invariants.s", "s", "lower"),
    ("verify.check_bound.s", "s", "lower"),
    ("verify.check_bound.calls", "count", "lower"),
    ("graph6.read_stream.s", "s", "lower"),
    ("graph6.read_stream.lines", "count", "lower"),
    ("cli.main.s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.overhead_share", "ratio", "lower"),
]


class Tracer:
    def __init__(self):
        self.stack = [["root", 0.0]]  # open spans: [name, time of enclosed spans]
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.distinct: dict[str, set] = defaultdict(set)
        self.edges: dict[tuple, list] = defaultdict(lambda: [0, 0.0])

    def call(self, name: str, fn, /, *args, **kwargs):
        frame = [name, 0.0]
        self.stack.append(frame)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = time.perf_counter() - t0
            self.stack.pop()
            caller = self.stack[-1]
            caller[1] += dt
            self.self_s[name] += dt - frame[1]
            self.calls[name] += 1
            edge = self.edges[(caller[0], name)]
            edge[0] += 1
            edge[1] += dt

    def generator(self, name: str, gen):
        while True:
            try:
                item = self.call(name, next, gen)
            except StopIteration:
                return
            yield item

    def counted(self, name: str, items):
        for item in items:
            self.counts[name] += 1
            yield item

    def overhead_per_span(self, reps: int = 20000) -> float:
        """Seconds a span adds to a call, measured on a no-op."""
        probe = Tracer()
        noop = int
        t0 = time.perf_counter()
        for _ in range(reps):
            noop()
        bare = time.perf_counter() - t0
        t0 = time.perf_counter()
        for _ in range(reps):
            probe.call("probe", noop)
        return max(0.0, (time.perf_counter() - t0 - bare) / reps)

    def metrics(self, rounds: int, wall_s: float) -> dict[str, float]:
        """Every LAYER_METRICS value, per round of the workload."""
        spans = sum(self.calls.values())
        values = {
            "bulk.enum.keep_ratio": self.counts["bulk.enum.kept"] / max(1, self.counts["bulk.enum.codes"]),
            "search.reverify.distinct_graphs": len(self.distinct["search.reverify"]),
            "bounds.connectivity_bound.distinct_args": len(self.distinct["bounds.connectivity_bound"]),
            "trace.wall_s": wall_s,
            "trace.spans": spans / rounds,
            "trace.overhead_share": spans / rounds * self.overhead_per_span() / wall_s,
        }
        for name, _, _ in LAYER_METRICS:
            if name in values:
                continue
            span, what = name.rsplit(".", 1)
            if what == "s":
                values[name] = self.self_s[span] / rounds
            elif what in ("calls", "batches"):
                values[name] = self.calls[span] / rounds
            else:
                values[name] = self.counts[name] / rounds
        return values

    def tree(self) -> list[dict]:
        return [{"caller": c, "span": s, "calls": n, "total_s": t}
                for (c, s), (n, t) in sorted(self.edges.items())]


def install(tracer: Tracer) -> None:
    """Wrap the traced qpow functions in every qpow module that holds them."""
    import qpow._bulk as bulk
    import qpow.bounds as bounds
    import qpow.cli as cli
    import qpow.connectivity as connectivity
    import qpow.graph6 as graph6
    import qpow.invariants as invariants
    import qpow.search as search
    import qpow.spectra as spectra
    import qpow.verify as verify

    def plain(name):
        return lambda fn: lambda *a, **kw: tracer.call(name, fn, *a, **kw)

    def enum(codes_of):
        def wrap(fn):
            def wrapper(*a, **kw):
                tracer.counts["bulk.enum.codes"] += codes_of(*a, **kw)
                chunks = tracer.generator("bulk.enum", fn(*a, **kw))
                for chunk in chunks:
                    tracer.counts["bulk.enum.kept"] += chunk.size
                    yield chunk
            return wrapper
        return wrap

    def all_codes(n):
        cached = bulk._connected_cache.get(n)
        return cached.size if cached is not None else 1 << (n * (n - 1) // 2)

    def split_codes(n, amask):
        r = amask.bit_count()
        return 1 << (r * (n - r))

    def batch(name, counter):
        def wrap(fn):
            def wrapper(rows, n):
                tracer.counts[counter] += len(rows)
                return tracer.call(name, fn, rows, n)
            return wrapper
        return wrap

    def reverify(fn):
        def wrapper(raw):
            tracer.distinct["search.reverify"].add((raw[0], raw[1]))
            tracer.counts["search.reverify.candidates"] += 1
            record = tracer.call("search.reverify", fn, raw)
            tracer.counts["search.reverify.confirmed"] += record is not None
            return record
        return wrapper

    def connectivity_bound(fn):
        def wrapper(n, k, alpha):
            tracer.distinct["bounds.connectivity_bound"].add((n, k, alpha))
            return tracer.call("bounds.connectivity_bound", fn, n, k, alpha)
        return wrapper

    def read_stream(fn):
        def wrapper(lines, *a, **kw):
            lines = tracer.counted("graph6.read_stream.lines", lines)
            return tracer.generator("graph6.read_stream", fn(lines, *a, **kw))
        return wrapper

    targets = [
        (bulk, "iter_connected_code_chunks", enum(all_codes)),
        (bulk, "split_connected_codes", enum(split_codes)),
        (bulk, "decode_rows", plain("bulk.decode_rows")),
        (bulk, "q_eigs", batch("bulk.q_eigs", "bulk.q_eigs.matrices")),
        (bulk, "power_sums", plain("bulk.power_sums")),
        (bulk, "kappa_batch", batch("bulk.kappa_batch", "bulk.kappa_batch.graphs")),
        (search, "scan", plain("search.scan")),
        (search, "_reverify", reverify),
        (search, "_scalar_bound", plain("search.scalar_bound")),
        (spectra, "q_spectrum", plain("spectra.q_spectrum")),
        (connectivity, "vertex_connectivity", plain("connectivity.vertex_connectivity")),
        (bounds, "connectivity_bound", connectivity_bound),
        (invariants, "nonzero_power_sum", plain("invariants.nonzero_power_sum")),
        (invariants, "named_invariants", plain("invariants.named_invariants")),
        (verify, "check_bound", plain("verify.check_bound")),
        (graph6, "read_stream", read_stream),
        (cli, "main", plain("cli.main")),
    ]
    modules = [m for name, m in sys.modules.items() if name == "qpow" or name.startswith("qpow.")]
    for home, attr, wrap in targets:
        original = getattr(home, attr)
        wrapped = wrap(original)
        for module in modules:
            if getattr(module, attr, None) is original:
                setattr(module, attr, wrapped)
