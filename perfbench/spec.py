"""What the benchmark measures: workloads, metrics and the layer map.

This module is the single source of the benchmark's definitions.
``BENCHMARK.json`` at the repository root is generated from it
(``python3 perfbench/spec.py --write``), and the smoke test checks that
the two agree.  Everything BENCHMARK.json has no key for — the
per-workload definition of each end-to-end metric, the predicted
layer-metric -> end-to-end-metric map, the latency limit and the fixed
offered rates — lives here and is printed with every result.
"""

from __future__ import annotations

import json
import os
import sys
from typing import NamedTuple

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 20

# -- workloads -----------------------------------------------------------------

WORKLOADS = {
    "serve-local": {
        "why": ("One ModelServer with a GraphStore replays an AML-Sim "
                "stream: engine, cache, ingest/maintainer and WAL writes "
                "do the work; the exec wire does none."),
    },
    "serve-shards": {
        "why": ("The same stream through a 2-process ExecRouter: router "
                "admission and coalescing, pickle/pipe/shared-memory "
                "transport and worker RPCs dominate."),
    },
    "train-dist": {
        "why": ("DistributedTrainer, tmgcn, snapshot partitioning, GD and "
                "reuse on, 4 simulated ranks, timeline from a store: "
                "autograd, sparse kernels, reuse and store reads."),
    },
}

# Shared shape of both serving streams: a regional AML-Sim graph whose
# timeline is replayed as event micro-batches with link/fraud queries in
# between and a timestep advance at every boundary.
SERVE_STREAM = {
    "num_accounts": 10000,
    "num_timesteps": 14,
    "background_per_step": 12000,
    "partner_persistence": 0.95,
    "activity_skew": 0.0,
    "num_branches": 8,
    "branch_locality": 0.9,
    "warmup_timesteps": 2,
    "batches_per_step": 12,
    "queries_per_batch": 24,
    "model": "cdgcn",
    "hidden": 16,
    "embed_dim": 16,
    "max_batch_size": 64,
    "flush_latency_ms": 2.0,
}

# Phase (b) offers queries at one fixed rate per workload, about a third
# of what the program sustained in the closed loop of phase (a) on a
# 2-core host when this benchmark was defined (760-1100 and 470-550
# queries/s).  At about half of it the load generator fell behind
# in slow stretches of the shared host (generator lag p99 above 100 ms)
# and the latency then measured the queue, not the program.
# Each micro-batch arrives as one burst (its events, then its queries),
# so bursts are queries_per_batch / rate seconds apart.
OFFERED_QPS = {"serve-local": 300.0, "serve-shards": 150.0}

# Phase (b) runs on past its share of the time until it has offered this
# many queries (split evenly over its segments).
MIN_PACED_QUERIES = 1000

# Share of a serving run spent in the closed loop of phase (a); the rest
# is phase (b).  Phase (b) gets the larger share because its tail rests
# on the few bursts that meet a timestep boundary.
CLOSED_SHARE = 0.4
# Each phase is split evenly over this many fresh boots, and the run
# alternates them (a, b, a, b, ...).  The host's speed drifts within a
# run (closed-loop rates of one run's boots differed by up to 47%), so
# both phases sample the whole run rather than one stretch of it.  The
# first timestep of each closed-loop boot is warm-up and not counted.
SEGMENTS = 4

# The service-level limit the paced phase is judged against: the tail of
# query latency (timed from when each query was due).
LATENCY_LIMIT_MS = 250.0

TRAIN = {
    "num_accounts": 10000,
    "num_timesteps": 12,
    "background_per_step": 60000,
    "partner_persistence": 0.997,
    "activity_skew": 0.4,
    "model": "tmgcn",
    "hidden": 16,
    "embed_dim": 16,
    "window": 2,
    "num_blocks": 2,
    "num_ranks": 4,
}

# set-ups per run, by workload kind; the median is reported as setup_s
SETUP_REPEATS = {"serve": 2 * SEGMENTS, "train": 3}

# The tail of paced query latency: queries arrive in bursts of
# queries_per_batch that are answered together, and the bursts that
# arrive with a timestep boundary (one in batches_per_step, 8%) wait
# behind the advance_time stall and form the tail.  A percentile, or the
# mean of the slowest 5%, is set by the few slowest boundaries of a run
# and jumped between two stall sizes (about 80 and 110 ms on
# serve-local) from run to run: 39% spread over ten runs.  The median
# over a run's boundaries of each boundary burst's mean latency follows
# the typical stall instead.

# -- end-to-end metrics ----------------------------------------------------------
# name -> (unit, better, bound, {workload kind: definition})

E2E = {
    "setup_s": ("s", "lower", 0.25, {
        "serve": f"median of {SETUP_REPEATS['serve']} set-ups: server or "
                 "router construction (worker spawn, shared-memory publish, "
                 "first advance) plus store attach on serve-local",
        "train": f"median of {SETUP_REPEATS['train']} set-ups: store ingest "
                 "of the timeline plus DistributedTrainer construction"}),
    "events_per_s": ("1/s", "higher", 0.25, {
        "serve": f"phase (a) closed loop on {SEGMENTS} fresh boots: "
                 "median over the timesteps of every boot (each boot's "
                 "first, warm-up, excluded) of edge events ingested per "
                 "wall second, with the stream's queries answered along "
                 "the way",
        "train": "snapshot edges trained per second: edges of all trained "
                 "timesteps over the median warm-epoch wall time"}),
    "latency_p50_ms": ("ms", "lower", 0.25, {
        "serve": "phase (b) paced loop: median query time from when the "
                 "query was due to its answer",
        "train": "median wall time of the warm epochs"}),
    "latency_tail_ms": ("ms", "lower", 0.25, {
        "serve": "phase (b): median over the timestep boundaries of the "
                 "mean latency (as above) of the burst of queries that "
                 "arrives with the boundary and waits behind its "
                 "advance_time stall",
        "train": "slowest warm epoch (too few epochs for a percentile)"}),
    "success_frac": ("frac", "higher", 0.01, {
        "serve": "operations answered / attempted (events + queries); "
                 "shed, failed and unresolved operations count as missed",
        "train": "epochs completed / epochs attempted"}),
    "peak_rss_mb": ("MB", "lower", 0.10, {
        "serve": "main-process VmHWM since the pass began, plus the "
                 "largest per-phase sum of worker VmHWM (read before each "
                 "router closes)",
        "train": "main-process VmHWM since the pass began, read after "
                 "the epochs and before the further set-ups, so it holds "
                 "one trainer and its store (and the timeline input)"}),
    "cpu_s": ("s", "lower", 0.25, {
        "serve": "CPU seconds of the main process and workers during "
                 "phase (b), which offers a fixed load for a fixed time",
        "train": "CPU seconds per warm epoch (median)"}),
}

# -- per-layer metrics -------------------------------------------------------------


class Layer(NamedTuple):
    unit: str
    better: str
    # (end-to-end metric the layer metric should move, on which workload)
    moves: tuple
    # for busy-time metrics: the traced span whose total time it reports
    span: str | None = None


_SL, _SS, _TD = "serve-local", "serve-shards", "train-dist"


def _on(metric: str, *workloads: str) -> tuple:
    return tuple((metric, w) for w in workloads)


LAYERS = {
    # serve.server / exec.router front door
    "frontend.ingest_s": Layer("s", "lower", _on("events_per_s", _SL, _SS), "frontend.ingest"),
    "frontend.flush_s": Layer("s", "lower", _on("latency_p50_ms", _SL, _SS), "frontend.flush"),
    "frontend.batch_mean": Layer("count", "higher", _on("latency_p50_ms", _SL, _SS)),
    "frontend.advance_s": Layer("s", "lower", _on("latency_tail_ms", _SL, _SS), "frontend.advance"),
    "frontend.queue_wait_p50_ms": Layer("ms", "lower", _on("latency_p50_ms", _SL, _SS)),
    "load.lag_p99_ms": Layer("ms", "lower", _on("latency_tail_ms", _SL, _SS)),
    # serve.ingest / graph.diff / graph.inc_laplacian
    "ingest.commit_s": Layer("s", "lower", _on("events_per_s", _SL), "ingest.commit"),
    "ingest.dirty_rows": Layer("count", "lower", _on("events_per_s", _SL)),
    "diff.encode_s": Layer("s", "lower", _on("events_per_s", _SL) + _on("setup_s", _TD), "diff.encode"),
    "maintainer.update_s": Layer("s", "lower", _on("events_per_s", _SL) + _on("setup_s", _TD), "maintainer.update"),
    "maintainer.incremental_frac": Layer("frac", "higher", _on("events_per_s", _SL) + _on("setup_s", _TD)),
    "maintainer.updates": Layer("count", "lower", _on("events_per_s", _SL) + _on("setup_s", _TD)),
    # serve.cache / serve.engine
    "cache.invalidate_s": Layer("s", "lower", _on("events_per_s", _SL), "cache.invalidate"),
    "cache.hit_frac": Layer("frac", "higher", _on("latency_p50_ms", _SL) + _on("cpu_s", _SL)),
    "cache.rows_needed": Layer("count", "lower", _on("latency_p50_ms", _SL) + _on("cpu_s", _SL)),
    "engine.refresh_s": Layer("s", "lower", _on("latency_p50_ms", _SL), "engine.refresh"),
    "engine.rows_recomputed": Layer("count", "lower", _on("latency_p50_ms", _SL)),
    "engine.advance_s": Layer("s", "lower", _on("latency_tail_ms", _SL), "engine.advance"),
    "engine.rows_advanced": Layer("count", "lower", _on("latency_tail_ms", _SL)),
    "engine.set_snapshot_s": Layer("s", "lower", _on("events_per_s", _SL), "engine.set_snapshot"),
    # store
    "store.append_s": Layer("s", "lower", _on("events_per_s", _SL) + _on("setup_s", _TD), "store.append"),
    "store.seal_s": Layer("s", "lower", _on("events_per_s", _SL), "store.seal"),
    "store.capture_s": Layer("s", "lower", _on("events_per_s", _SL), "store.capture"),
    "store.wal_bytes": Layer("B", "lower", _on("events_per_s", _SL)),
    "store.materialize_s": Layer("s", "lower", _on("setup_s", _TD) + _on("latency_p50_ms", _TD), "store.materialize"),
    "store.records_replayed": Layer("count", "lower", _on("setup_s", _TD) + _on("latency_p50_ms", _TD)),
    # tensor.backend (the resolved kernel backend's methods)
    "kernel.spmm_rows_s": Layer("s", "lower", _on("latency_p50_ms", _SL), "kernel.spmm_rows"),
    "kernel.spmm_s": Layer("s", "lower", _on("latency_p50_ms", _TD), "kernel.spmm"),
    "kernel.spmm_rows_t_s": Layer("s", "lower", _on("latency_p50_ms", _TD), "kernel.spmm_rows_t"),
    "kernel.transpose_s": Layer("s", "lower", _on("latency_p50_ms", _TD), "kernel.transpose"),
    "kernel.maintain_s": Layer("s", "lower", _on("events_per_s", _SL) + _on("setup_s", _TD), "kernel.maintain"),
    "kernel.calls": Layer("count", "lower", _on("latency_p50_ms", _TD)),
    "kernel.bytes": Layer("B", "lower", _on("latency_p50_ms", _TD)),
    # exec.router / exec.mp wire / exec.service workers
    "router.busy_s": Layer("s", "lower", _on("events_per_s", _SS)),
    "router.score_rpcs": Layer("count", "lower", _on("events_per_s", _SS)),
    "router.delta_bytes": Layer("B", "lower", _on("events_per_s", _SS)),
    "router.shed": Layer("count", "lower", _on("success_frac", _SS)),
    "wire.send_s": Layer("s", "lower", _on("events_per_s", _SS), "wire.send"),
    "wire.wait_s": Layer("s", "lower", _on("latency_p50_ms", _SS), "wire.wait"),
    "wire.rpcs": Layer("count", "lower", _on("events_per_s", _SS)),
    "wire.bytes_sent": Layer("B", "lower", _on("events_per_s", _SS)),
    "wire.bytes_received": Layer("B", "lower", _on("events_per_s", _SS)),
    "wire.shm_bytes": Layer("B", "lower", _on("events_per_s", _SS)),
    "worker.busy_max_s": Layer("s", "lower", _on("events_per_s", _SS)),
    "worker.busy_sum_s": Layer("s", "lower", _on("events_per_s", _SS)),
    "worker.idle_frac": Layer("frac", "lower", _on("events_per_s", _SS)),
    "worker.halo_rows": Layer("count", "lower", _on("events_per_s", _SS)),
    "worker.rss_mb": Layer("MB", "lower", _on("peak_rss_mb", _SS)),
    "worker.retries": Layer("count", "lower", _on("success_frac", _SS)),
    # train / train.reuse
    "train.forward_s": Layer("s", "lower", _on("latency_p50_ms", _TD)),
    "train.backward_s": Layer("s", "lower", _on("latency_p50_ms", _TD), "train.backward"),
    "train.step_s": Layer("s", "lower", _on("latency_p50_ms", _TD), "train.step"),
    "train.laplacians_s": Layer("s", "lower", _on("setup_s", _TD), "train.laplacians"),
    "reuse.aggregate_s": Layer("s", "lower", _on("latency_p50_ms", _TD), "reuse.aggregate"),
    "reuse.flops_frac": Layer("frac", "lower", _on("latency_p50_ms", _TD)),
    "reuse.flops_full": Layer("count", "lower", _on("latency_p50_ms", _TD)),
    "reuse.memo": Layer("count", "higher", _on("latency_p50_ms", _TD)),
    "reuse.patch": Layer("count", "higher", _on("latency_p50_ms", _TD)),
    "reuse.full": Layer("count", "lower", _on("latency_p50_ms", _TD)),
    # cluster (simulated, exact counts; never wall time)
    "cluster.sim_epoch_ms": Layer("ms", "lower", _on("latency_p50_ms", _TD)),
    "cluster.h2d_bytes": Layer("B", "lower", _on("latency_p50_ms", _TD)),
    "cluster.h2d_naive_bytes": Layer("B", "lower", _on("latency_p50_ms", _TD)),
    "cluster.comm_units": Layer("count", "lower", _on("latency_p50_ms", _TD)),
    "cluster.sim_transfer_ms": Layer("ms", "lower", _on("latency_p50_ms", _TD)),
    "cluster.sim_compute_ms": Layer("ms", "lower", _on("latency_p50_ms", _TD)),
    "cluster.sim_comm_ms": Layer("ms", "lower", _on("latency_p50_ms", _TD)),
    "cluster.peak_device_bytes": Layer("B", "lower", _on("peak_rss_mb", _TD)),
    # process
    "proc.cpu_s.main": Layer("s", "lower", _on("cpu_s", _SL, _SS, _TD)),
    "proc.cpu_s.workers": Layer("s", "lower", _on("cpu_s", _SS)),
    # how much work the layer totals above cover (fixed per workload)
    "work.events": Layer("count", "higher", ()),
    "work.queries": Layer("count", "higher", ()),
    "work.epochs": Layer("count", "higher", ()),
}

# Parent spans whose time their child spans should account for; the
# share no child covers is reported per parent and flagged above 10%.
PARENT_SPANS = ("frontend.ingest", "frontend.flush", "frontend.advance",
                "engine.set_snapshot", "engine.advance", "engine.refresh",
                "train.setup", "train.epoch", "train.forward")
UNATTRIBUTED_LIMIT = 0.10

for _parent in PARENT_SPANS:
    LAYERS[f"unattributed.{_parent}"] = Layer("frac", "lower", ())
LAYERS["unattributed.flagged"] = Layer("count", "lower", ())
# traced minus untraced value of every end-to-end metric
for _name, (_unit, _better, *_) in E2E.items():
    LAYERS[f"overhead.{_name}"] = Layer(_unit, _better, ())


def span_seconds(agg: dict) -> dict:
    """Busy-time layer metrics read straight off traced span totals."""
    return {name: agg["total"].get(layer.span, 0.0)
            for name, layer in LAYERS.items() if layer.span}


def shrink() -> None:
    """Tiny inputs for the smoke test (same shapes, a fraction of the
    work); never used by a measured run."""
    SERVE_STREAM.update(num_accounts=600, num_timesteps=5,
                        background_per_step=700, batches_per_step=3,
                        queries_per_batch=8)
    TRAIN.update(num_accounts=400, num_timesteps=5,
                 background_per_step=1500)
    global MIN_PACED_QUERIES
    MIN_PACED_QUERIES = 0


def workload_kind(workload: str) -> str:
    return "train" if workload == "train-dist" else "serve"


def benchmark_json() -> dict:
    """BENCHMARK.json, generated from the definitions above."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": w["why"]}
                      for name, w in WORKLOADS.items()],
        "end_to_end": [{"name": name, "unit": unit, "better": better,
                        "bound": bound}
                       for name, (unit, better, bound, _) in E2E.items()],
        "per_layer": [{"name": name, "unit": layer.unit,
                       "better": layer.better}
                      for name, layer in LAYERS.items()],
    }


def layer_map() -> dict:
    """Predicted map: workload -> {layer metric: [end-to-end metrics]}."""
    out: dict = {w: {} for w in WORKLOADS}
    for name, layer in LAYERS.items():
        for metric, workload in layer.moves:
            out[workload].setdefault(name, []).append(metric)
    return out


def describe(workload: str) -> dict:
    """Everything a result records about how its figures were made."""
    kind = workload_kind(workload)
    out = {
        "workload": workload,
        "why": WORKLOADS[workload]["why"],
        "definitions": {name: defs[kind]
                        for name, (_, _, _, defs) in E2E.items()},
        "layer_map": layer_map()[workload],
    }
    if kind == "serve":
        out["stream"] = SERVE_STREAM
        out["offered_qps"] = OFFERED_QPS[workload]
        out["latency_limit_ms"] = LATENCY_LIMIT_MS
        out["min_paced_queries"] = MIN_PACED_QUERIES
    else:
        out["train"] = TRAIN
    return out


if __name__ == "__main__":
    text = json.dumps(benchmark_json(), indent=2) + "\n"
    if "--write" in sys.argv[1:]:
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        with open(os.path.join(root, "BENCHMARK.json"), "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
