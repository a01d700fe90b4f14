"""One benchmark run: set-up, closed loop, rounds, checks, traced rounds, probes.

Noise protocol: the process runs on one CPU with one BLAS thread (pinned by
``__main__``); all load is closed-loop with no think time beyond the speed
slice and at most ``nproc`` clients, because the per-segment fan-out of
``db.vector_search`` changes speed when it is allowed to idle; the loop never
stops between warm-up and the last round, rounds are windows over its
completion times, each round's timings are divided by the slowness of the box
in that round, and every timing metric is the median over rounds.
"""

from __future__ import annotations

import gc
import itertools
import json
import math
import os
import platform
import queue
import resource
import statistics
import sys
import threading
import time
import traceback

import numpy as np

from repro.errors import ReproError
from repro.telemetry import Telemetry, disable_telemetry, set_telemetry

from . import load_spec
from .targets import ATTRS, NPROC, TARGETS, Tracer
from .workloads import FANOUT, K, Scale, make_dataset, make_ops, score

RESULTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "results")

ROUNDS = 8  # measured windows per run; --seconds is split evenly over them
WARM_SECONDS = 2.0  # unmeasured, and at least WARM_OPS ops, before the first round
WARM_OPS = 64
PROBE_OPS = 24  # fixed sample, so counts taken by probes repeat exactly
OPEN_SECONDS = 4.0
OPEN_LOAD = 0.4  # open-loop probe arrival rate as a share of the closed-loop op rate
SLICE_REF_US = 38.0  # speed_slice() on the sizing box when calm, so that slowness reads about 1 there
_SLICE_ROWS = np.random.default_rng(0).standard_normal((64, 128)).astype(np.float32)


def environment() -> dict:
    """What the run got: ``__main__`` pins the affinity, the hash seed and the BLAS threads; the rest are defaults."""
    return {
        "nproc": NPROC,
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "switchinterval": sys.getswitchinterval(),
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED"),
        **{name: os.environ.get(name) for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def speed_slice() -> None:
    """About 40 us of fixed work in the program's own mix: interpreter loop, small NumPy kernels.

    Each client runs it after every op.  Its median duration over a round,
    divided by ``SLICE_REF_US``, is the round's *slowness*: how much slower
    than the reference the CPU was running this kind of code just then.  The
    box changes speed by a tenth from second to second and by a third for
    minutes (README, Noise protocol), and the slice tracks it.
    """
    acc = 0
    for i in range(400):
        acc += (i * i) % 7
    np.argpartition(_SLICE_ROWS @ _SLICE_ROWS[0], 10)


# ------------------------------------------------------------------ the loop
class ClosedLoop:
    """``clients`` threads, each issuing its next op the moment the last returns."""

    def __init__(self, target):
        self.target = target
        self.records: list[list[tuple]] = [[] for _ in range(target.clients)]
        self.crashes: list[str] = []  # tracebacks of untyped exceptions, a few kept for the report
        self._next = itertools.count()  # next() on it is atomic under the GIL
        self._halt = False
        self._threads = [
            threading.Thread(target=self._client, args=(log,), name=f"client-{n}")
            for n, log in enumerate(self.records)
        ]

    def _client(self, log: list) -> None:
        op, answers, length = self.target.op, self.target.answers, self.target.length
        while not self._halt:
            n = next(self._next)
            start = end = time.perf_counter()
            answer = None  # a failed op: counted, never timed
            try:
                raw = op(n % length)
                end = time.perf_counter()
                answer = answers(raw)
            except ReproError:  # typed failure
                pass
            except Exception:  # a bug in the program fails the op too; the client must outlive it
                if len(self.crashes) < 3:
                    self.crashes.append(traceback.format_exc())
            slice_start = time.perf_counter()
            speed_slice()
            log.append((n, start, end, answer, time.perf_counter() - slice_start))

    def start(self) -> None:
        for thread in self._threads:
            thread.start()

    def done(self) -> int:
        return sum(len(log) for log in self.records)

    def stop(self) -> list[tuple]:
        """Halt, wait for in-flight ops, and return every record in issue order."""
        self._halt = True
        for thread in self._threads:
            thread.join()
        return sorted(itertools.chain.from_iterable(self.records), key=lambda record: record[0])


def sleep_until(deadline: float) -> tuple[float, float]:
    """Sleep to ``deadline``; returns (wall, process CPU) read on waking."""
    delay = deadline - time.perf_counter()
    if delay > 0:
        time.sleep(delay)
    return time.perf_counter(), time.process_time()


def measure_rounds(count: int, seconds: float) -> list[tuple[float, float]]:
    """Mark ``count`` back-to-back windows on the running loop; returns their edges."""
    edges = [(time.perf_counter(), time.process_time())]
    for _ in range(count):
        edges.append(sleep_until(edges[-1][0] + seconds))
    return edges


def percentile(values: list[float], share: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def round_values(records: list[tuple], edges: list[tuple[float, float]]) -> list[dict]:
    """Per window, from the ops that ended in it: slowness, and the timing metrics divided by it."""
    out = []
    for (start, cpu0), (end, cpu1) in zip(edges, edges[1:]):
        ended = [record for record in records if start <= record[2] < end]
        lat = [(done - begun) * 1e3 for _, begun, done, answer, _ in ended if answer is not None]
        if not lat:
            raise RuntimeError("a measured round completed no op; --seconds is too short for this machine")
        slow = statistics.median(record[4] for record in ended) * 1e6 / SLICE_REF_US
        out.append(
            {
                "ops": len(lat),
                "slowness": slow,
                "qps": len(lat) / (end - start) * slow,
                "p50_ms": percentile(lat, 0.50) / slow,
                "p50_as_timed_ms": percentile(lat, 0.50),
                "p95_ms": percentile(lat, 0.95) / slow,
                "cpu_ms_per_op": (cpu1 - cpu0) * 1e3 / len(lat) / slow,
            }
        )
    return out


def summarize(rounds: list[dict]) -> dict[str, dict]:
    """Median over rounds, with the spread and a flag when rounds fall in two modes."""
    out = {}
    for name in ("qps", "p50_ms", "p95_ms", "cpu_ms_per_op", "slowness", "p50_as_timed_ms"):
        values = [r[name] for r in rounds]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        out[name] = {
            "median": median,
            "iqr_share": (q3 - q1) / median,
            "bimodal": max(values) / min(values) > 1.5,
            "rounds": values,
        }
    return out


# ------------------------------------------------------------ open-loop probe
def open_loop_probe(target, seed: int, rate: float) -> dict[str, float]:
    """Seeded Poisson single-query arrivals: one submitter, one collector.

    Latency runs from the time a request was *due*, so a stall charges the
    requests queued behind it; lateness says how far the generator itself
    fell behind.  Recorded per layer, not end to end.
    """
    rng = np.random.default_rng([seed, 6])
    due = np.cumsum(rng.exponential(1.0 / rate, size=max(8, int(rate * OPEN_SECONDS))))
    queries = target.queries.reshape(-1, target.queries.shape[-1])
    pending: queue.SimpleQueue = queue.SimpleQueue()
    late, latency = [], []
    origin = time.perf_counter() + 0.05

    def submit() -> None:
        for n, offset in enumerate(due):
            delay = origin + offset - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            late.append((time.perf_counter() - origin - offset) * 1e3)
            try:
                pending.put(target.server.submit_search(ATTRS, queries[n % len(queries)], K))
            except Exception:  # shed or broken: the collector still gets one item per arrival
                pending.put(None)

    def collect() -> None:
        for offset in due:
            future = pending.get()
            if future is None:
                continue
            try:
                future.result()
            except Exception:  # a failed request has no latency
                continue
            latency.append((time.perf_counter() - origin - offset) * 1e3)

    threads = [threading.Thread(target=submit), threading.Thread(target=collect)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    print(f"open-loop probe: {len(due)} arrivals at {rate:.1f}/s, {len(due) - len(latency)} failed")
    if not latency:
        raise RuntimeError("open-loop probe: every request failed")
    return {
        "serve.open_p50_ms": percentile(latency, 0.50),
        "serve.open_p95_ms": percentile(latency, 0.95),
        "bench.open_late_p95_ms": percentile(late, 0.95),
    }


# -------------------------------------------------------------- layer metrics
def layer_values(workload, target, scale, tracer, registry, vacuum, extra) -> dict[str, float]:
    """Every ``per_layer`` metric of BENCHMARK.json; 0 where the workload bypasses the layer."""
    totals, selfs = tracer.per_op_ms("total"), tracer.per_op_ms("self")

    def med(table: dict, name: str) -> float:
        return statistics.median(table[name].values()) if name in table else 0.0

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def counter(name: str) -> float:
        return registry.counter(name).value

    counts = target.counts
    phases = target.phases
    if "core.search_segment" in totals:
        fanout = med(selfs, "core.vector_search_merged")
    else:  # hybrid_gsql: the executor's vector stage minus its bitmap and serial scans
        fanout = med(selfs, "core.vector_topk")
    gsql_exec = 0.0
    if "gsql.explain" in totals:
        gsql_exec = statistics.median(
            totals["e2e.op"][op] - totals["gsql.explain"][op] for op in totals["gsql.explain"]
        )
    hits, misses = counter("serve.cache_hits"), counter("serve.cache_misses")
    values = {
        "index.hnsw_search_ms": med(totals, "index.topk_search"),
        "index.hnsw_dist_evals": ratio(counts["hnsw_dist_evals"], counts["hnsw_probed_ops"]),
        "index.hnsw_hops": ratio(counts["hnsw_hops"], counts["hnsw_probed_ops"]),
        "index.filtered_search_ms": med(totals, "index.filtered_search"),
        "index.fused_scan_ms_per_query": med(totals, "index.fused_scan") / FANOUT,
        "index.build_ms_per_vector": phases["embeddings_s"] * 1e3 / scale.rows,
        "core.segment_search_ms": med(selfs, "core.search_segment"),
        "core.fanout_overhead_ms": fanout,
        "core.snapshot_pin_ms": med(totals, "core.snapshot_pin"),
        "core.materialize_ms": med(totals, "core.materialize"),
        "core.overlay_scan_ms": med(totals, "core.overlay_scan"),
        "core.pending_deltas": ratio(counts["pending_deltas"], counts["commits"]),
        "core.delta_merge_s": ratio(vacuum["delta_merge_seconds"], vacuum["delta_merges"]),
        "core.index_merge_s": ratio(vacuum["index_merge_seconds"], vacuum["index_merges"]),
        "core.bf_flip_ratio": ratio(counts["segments_bruteforce"], counts["segments_touched"]),
        "graph.commit_ms": med(totals, "graph.commit"),
        "graph.wal_bytes_per_commit": ratio(counts["wal_bytes"], counts["commits"]),
        "graph.scan_ms": med(totals, "graph.scan"),
        "graph.bitmap_ms": med(totals, "graph.bitmap"),
        "graph.load_vertices_ms_per_row": phases["vertices_s"] * 1e3 / (scale.rows + scale.owners),
        "graph.load_edges_ms_per_row": phases["edges_s"] * 1e3 / scale.rows,
        "gsql.parse_ms": med(totals, "gsql.parse"),
        "gsql.plan_ms": med(selfs, "gsql.explain"),
        "gsql.exec_ms": gsql_exec,
        "serve.submit_ms": med(totals, "serve.submit"),
        "serve.queue_wait_ms": registry.histogram("serve.queue_wait_seconds").mean * 1e3,
        "serve.batch_size_mean": registry.histogram("serve.batch_size").mean,
        "serve.fused_ratio": ratio(counter("serve.fused_queries"), counter("serve.completed")),
        "serve.shed_ratio": ratio(counter("serve.shed"), counter("serve.requests")),
        "serve.overhead_ms": med(selfs, "serve.search"),
        "serve.cache_hit_ratio": ratio(hits, hits + misses),
        "serve.open_p50_ms": 0.0,
        "serve.open_p95_ms": 0.0,
        "elastic.overhead_ms": med(selfs, "e2e.op") if workload == "elastic_closed" else 0.0,
        "elastic.shard_requests_per_query": ratio(counter("elastic.shard_requests"), counter("elastic.routed_requests")),
        "elastic.merge_ms": med(totals, "elastic.merge"),
        "elastic.ring_lookup_us": med(totals, "elastic.ring_lookup") * 1e3,
        "elastic.route_retries": counter("elastic.route_retries"),
        "bench.open_late_p95_ms": 0.0,
    }
    values.update(extra)
    return values


def layer_table(tracer: Tracer, traced_p50: float) -> list[str]:
    """Self time per span name under the op, beside the traced p50 it should add up to."""
    selfs = tracer.per_op_ms("self")
    under_root = set()
    for span in tracer.spans:  # parents precede children, so one pass settles descent
        if span["name"] == "e2e.op" or span["parent"] in under_root:
            under_root.add(span["id"])
    names = list(dict.fromkeys(s["name"] for s in tracer.spans if s["id"] in under_root and s["name"] != "e2e.op"))
    lines = ["self time per span name under the op (median over probed ops, ms):"]
    attributed = 0.0
    for name in names:
        value = statistics.median(selfs[name].values())
        attributed += value
        lines.append(f"  {name:<28} {value:9.3f}")
    inside = statistics.median(selfs["e2e.op"].values())
    lines.append(f"  {'(op, outside every span)':<28} {inside:9.3f}")
    lines.append(f"  {'sum of layers':<28} {attributed:9.3f}")
    lines.append(f"  {'traced e2e p50':<28} {traced_p50:9.3f}   unattributed {traced_p50 - attributed:+.3f}"
                 f" ({(traced_p50 - attributed) / traced_p50:+.1%})")
    return lines


# --------------------------------------------------------------------- a run
def run_one(workload: str, seed: int, seconds: float, trace: bool, scale_name: str = "full") -> dict:
    """Run one workload once, printing its working; returns the result object the contract asks for."""
    spec = load_spec()
    scale = Scale.named(scale_name)
    dataset = make_dataset(seed, scale)
    ops = make_ops(workload, seed, dataset)
    os.makedirs(RESULTS, exist_ok=True)
    target = TARGETS[workload](dataset, scale, ops, RESULTS)
    print(f"env {json.dumps(environment())}")

    # Traced runs hand the live registry to the server threads at start (they
    # capture it once), then switch it off again until the traced rounds.
    live = Telemetry()
    if trace:
        set_telemetry(live)
    gc.collect()
    start = time.perf_counter()
    target.start()
    setup_s = time.perf_counter() - start
    disable_telemetry()
    target.check_ids()
    print(f"setup_s {setup_s:.3f}  phases {json.dumps({k: round(v, 3) for k, v in target.phases.items()})}")

    round_seconds = seconds / ROUNDS
    loop = ClosedLoop(target)
    warm_start = time.perf_counter()
    loop.start()
    try:
        sleep_until(warm_start + min(WARM_SECONDS, seconds / 4))
        while loop.done() < WARM_OPS:
            time.sleep(0.05)
        warmup_s = time.perf_counter() - warm_start
        if trace:
            edges = measure_rounds(ROUNDS // 2, round_seconds)
            vacuum_before = dict(vars(target.db.vacuum_manager.stats))
            live.reset()
            set_telemetry(live)
            traced_edges = measure_rounds(ROUNDS // 2, round_seconds)
            disable_telemetry()
        else:
            edges = measure_rounds(ROUNDS, round_seconds)
    finally:
        records = loop.stop()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    rounds = round_values(records, edges)
    summary = summarize(rounds)
    for name, stat in summary.items():
        flag = "  bimodal: true" if stat["bimodal"] else ""
        print(f"{name:<14} median {stat['median']:10.3f}  iqr/median {stat['iqr_share']:.3f}{flag}  "
            f"rounds {[round(v, 2) for v in stat['rounds']]}")
    print(f"ops per round {[r['ops'] for r in rounds]}  warm-up {warmup_s:.2f}s")

    metrics: dict[str, float] = {}
    if trace:
        traced = summarize(round_values(records, traced_edges))
        vacuum_after = vars(target.db.vacuum_manager.stats)
        vacuum = {k: vacuum_after[k] - vacuum_before[k] for k in
                  ("delta_merges", "index_merges", "delta_merge_seconds", "index_merge_seconds")}
        tracer = Tracer()
        if workload == "update_mixed":  # its probes are further ops of the same stream
            first = records[-1][0] + 1
            probe_ops = [(first + n) % target.length for n in range(PROBE_OPS)]
        else:  # the tail of the stream, which the loop has not reached
            probe_ops = [target.length - 1 - n for n in range(PROBE_OPS)]
        for i in probe_ops:
            target.probe(i, tracer)
        extra = {
            "telemetry.overhead_ratio": traced["qps"]["median"] / summary["qps"]["median"],
            "bench.round_iqr_qps": summary["qps"]["iqr_share"],
            "bench.warmup_s": warmup_s,
            "bench.slowness": summary["slowness"]["median"],
        }
        if workload == "serve_multiquery":
            extra.update(open_loop_probe(target, seed, OPEN_LOAD * summary["qps"]["median"] / summary["slowness"]["median"]))
        metrics = layer_values(workload, target, scale, tracer, live.registry, vacuum, extra)
        with open(os.path.join(RESULTS, f"trace_{workload}.jsonl"), "w", encoding="utf-8") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
        print(f"traced p50 as timed {traced['p50_as_timed_ms']['median']:.3f} ms over {ROUNDS // 2} rounds; "
            f"{len(tracer.spans)} spans of {PROBE_OPS} probed ops -> results/trace_{workload}.jsonl")
        for line in layer_table(tracer, traced["p50_as_timed_ms"]["median"]):
            print(line)

    # Judge every answer the program gave, warm-up included.
    executed = [record[0] for record in records if record[3] is not None]
    errors = len(records) - len(executed)
    answers = [record[3] for record in records if record[3] is not None]
    judged = score(workload, dataset, ops, executed, answers, exact=target.exact)
    wrong = judged.wrong_ops + target.verify(executed, answers)
    target.stop()
    failed = errors + wrong
    print(f"attempted {len(records)}  errors {errors}  wrong answers {wrong}  recall@{K} {judged.recall:.4f}")
    for crash in loop.crashes:
        print(crash)

    units = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    if not trace:
        metrics = {
            "setup_s": setup_s,
            **{name: stat["median"] for name, stat in summary.items() if name in units},
            "recall_at_10": judged.recall,
            "ok_ratio": 1.0 - failed / len(records),
            "peak_rss_mb": rss_mb,
        }
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(units) ^ set(metrics))}")
    return {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
