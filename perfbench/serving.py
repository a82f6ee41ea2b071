"""The serve-local and serve-shards workloads.

Both replay one AML-Sim timeline as a live stream: per timestep an
``advance_time`` boundary, then event micro-batches, each followed by
its link and fraud queries.  The timeline runs forward and then back
(every step is a real GD transition), so the stream never runs out
however fast the program is.  Each workload runs two phases, each
split into ``SEGMENTS`` parts that alternate through the run (a, b, a,
b, ...), each part on a freshly booted front door starting at the same
stream position:

* (a) closed loop, one caller: ingest a batch, submit its queries,
  flush, repeat, for ``CLOSED_SHARE`` of the run -> ``events_per_s``;
* (b) open loop at a fixed offered rate: every operation has a due time
  and each query is timed from its due time to its answer, so a stall
  delays every query behind it -> latency, ``cpu_s``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

import spec
from common import Gates, median, percentile, remove_tree, workdir
from host import cpu_s, peak_rss_mb, reset_peak_rss, thread_count
from kernels import wrap_kernels
from tracer import Tracer, unattributed_shares

from repro.bench.serving import build_event_schedule, build_query_plan
from repro.exec import ExecRouter
from repro.exec.mp import ProcessTransport
from repro.graph.amlsim import AMLSimConfig, generate_amlsim
from repro.graph.dtdg import DTDG
from repro.models import build_model
from repro.nn.linear import Linear
from repro.serve.server import ModelServer
from repro.store.store import GraphStore

import repro.exec.router as exec_router
import repro.serve.engine as serve_engine
import repro.serve.ingest as serve_ingest
import repro.serve.server as serve_server

MODEL_SEED = 0          # the served model's weights are part of the program
POLL_S = 0.0005         # open-loop wake-up granularity
MAX_INFLIGHT = 4096     # router admission bound (never reached at the paced rate)
ADVANCE = None          # marker in the recorded op log
# closed-loop rounds per boot whose layer work the traced run reports:
# fixed per workload so layer totals compare across commits, and reached
# inside each closed-loop segment of a traced run at the default run
# length
LAYER_ROUNDS = {"serve-local": 15, "serve-shards": 10}


@dataclass
class Stream:
    initial: object            # resident snapshot at boot
    warmup: list               # rebase snapshots applied before timing
    schedule: list             # per transition: event batches
    plan: list                 # per transition: query lists per batch
    num_vertices: int


def build_inputs(workload: str, seed: int) -> Stream:
    cfg = spec.SERVE_STREAM
    sim = generate_amlsim(AMLSimConfig(
        num_accounts=cfg["num_accounts"],
        num_timesteps=cfg["num_timesteps"],
        background_per_step=cfg["background_per_step"],
        partner_persistence=cfg["partner_persistence"],
        activity_skew=cfg["activity_skew"],
        num_branches=cfg["num_branches"],
        branch_locality=cfg["branch_locality"],
        seed=seed))
    dtdg = sim.dtdg
    start, last = cfg["warmup_timesteps"], dtdg.num_timesteps - 1
    # forward to the end and back: the cycle closes on its first state
    order = ([start - 1] + list(range(start, last + 1))
             + list(range(last - 1, start - 2, -1)))
    cycle = DTDG([dtdg[i] for i in order], name="serve-cycle")
    schedule = build_event_schedule(cycle, 1, cfg["batches_per_step"])
    plan = build_query_plan(cycle, 1, schedule, cfg["queries_per_batch"],
                            seed)
    return Stream(initial=dtdg[0],
                  warmup=[dtdg[t] for t in range(1, start)],
                  schedule=schedule, plan=plan,
                  num_vertices=dtdg.num_vertices)


def _model(cfg: dict):
    model = build_model(cfg["model"], in_features=2, hidden=cfg["hidden"],
                        embed_dim=cfg["embed_dim"], seed=MODEL_SEED)
    fraud = Linear(cfg["embed_dim"], 2,
                   np.random.default_rng(MODEL_SEED + 7))
    return model, fraud


def _submit(front, kind: str, payload: tuple):
    if kind == "link":
        return front.submit_link(*payload)
    return front.submit_fraud(*payload)


# -- front doors ---------------------------------------------------------------------

class _Front:
    """A booted front door plus the worker processes it runs (if any)."""

    front = None
    store = None
    workers: tuple = ()
    setup_s = 0.0

    def worker_rss_mb(self) -> float:
        return sum(peak_rss_mb(pid) for pid in self.workers)

    def worker_cpu_s(self) -> float:
        return sum(cpu_s(pid) for pid in self.workers)


class LocalFront(_Front):
    """serve-local: one incremental ModelServer with a GraphStore."""

    def __init__(self, stream: Stream, cfg: dict, scratch: str,
                 incremental: bool = True, store: bool = True) -> None:
        model, fraud = _model(cfg)
        clock = time.perf_counter
        t0 = clock()
        self.front = ModelServer(
            model, stream.initial, fraud_head=fraud,
            max_batch_size=cfg["max_batch_size"],
            flush_latency_ms=cfg["flush_latency_ms"],
            incremental=incremental)
        self.setup_s = clock() - t0
        for snap in stream.warmup:
            self.front.advance_time(snap)
        if store:
            t0 = clock()
            self.store = GraphStore.create(workdir(scratch, "store"),
                                           stream.num_vertices)
            self.front.attach_store(self.store)
            self.setup_s += clock() - t0

    def embeddings(self) -> np.ndarray:
        self.front.engine.refresh()
        return self.front.engine.embeddings.copy()

    def close(self) -> None:
        if self.store is not None:
            remove_tree(self.store.path)


class ShardFront(_Front):
    """serve-shards: a 2-process ExecRouter, pipelined, no store."""

    def __init__(self, stream: Stream, cfg: dict, scratch: str,
                 backend: str = "multiprocess") -> None:
        model, fraud = _model(cfg)
        t0 = time.perf_counter()
        self.front = ExecRouter(
            model, stream.initial, backend=backend, num_shards=2,
            fraud_head=fraud, max_batch_size=cfg["max_batch_size"],
            flush_latency_ms=cfg["flush_latency_ms"], pipeline=True,
            max_inflight=MAX_INFLIGHT)
        self.setup_s = time.perf_counter() - t0
        for snap in stream.warmup:
            self.front.advance_time(snap)
        self.workers = tuple(t.process.pid for t in self.front.transports
                             if isinstance(t, ProcessTransport))

    def embeddings(self) -> np.ndarray:
        return self.front.gathered_embeddings()

    def close(self) -> None:
        self.front.close()


# -- phases ---------------------------------------------------------------------------

@dataclass
class Phase:
    wall_s: float = 0.0
    events: int = 0
    handles: list = field(default_factory=list)
    dues: list = field(default_factory=list)
    lags: list = field(default_factory=list)
    ops: list = field(default_factory=list)
    # paced loop: (first, end) handle index of each burst that arrived
    # with a timestep boundary
    boundaries: list = field(default_factory=list)
    rounds: int = 0
    # closed loop: (events, seconds) of every completed timestep
    steps: list = field(default_factory=list)
    cpu_main_s: float = 0.0
    cpu_workers_s: float = 0.0


def closed_loop(front, stream: Stream, seconds: float, min_rounds: int = 0,
                on_round=None) -> Phase:
    """One caller, as fast as it goes: per batch, ingest the events,
    submit the batch's queries and flush (wait for every answer).  Stops
    at the first batch boundary past ``seconds`` (and not before
    ``min_rounds`` batches); each completed timestep is timed."""
    clock = time.perf_counter
    out = Phase()
    count = len(stream.schedule)
    t0 = clock()
    deadline = t0 + seconds
    i = 0
    while True:
        step_t0, step_events = clock(), 0
        front.advance_time()
        out.ops.append(ADVANCE)
        for events, queries in zip(stream.schedule[i % count],
                                   stream.plan[i % count]):
            front.ingest_events(events)
            out.ops.append(events)
            step_events += len(events)
            for kind, payload in queries:
                out.handles.append(_submit(front, kind, payload))
            front.flush()
            out.rounds += 1
            if on_round is not None:
                on_round(out.rounds)
            if clock() >= deadline and out.rounds >= min_rounds:
                front.drain()
                out.events = sum(e for e, _ in out.steps) + step_events
                out.wall_s = clock() - t0
                return out
        out.steps.append((step_events, clock() - step_t0))
        i += 1


def paced_loop(front, stream: Stream, seconds: float, qps: float,
               min_queries: int) -> Phase:
    """Open loop at ``qps`` queries per second: each micro-batch arrives
    as a burst (its events, then its queries) due every
    ``queries_per_batch / qps`` seconds, with an advance due at each
    timestep boundary.  Queries flush on the frontend's own deadline
    (``tick``); each is timed from its burst's due time.  The phase
    lasts ``seconds`` and offers at least ``min_queries`` queries."""
    clock = time.perf_counter
    out = Phase()
    count = len(stream.schedule)
    period = len(stream.plan[0][0]) / qps
    origin = clock() + 0.005

    def wait(due: float) -> float:
        while True:
            now = clock()
            if now >= due:
                return now
            front.tick()
            left = due - clock()
            if left > 0:
                time.sleep(min(left, POLL_S))

    burst = 0
    i = 0
    while True:
        for b, (events, queries) in enumerate(zip(stream.schedule[i % count],
                                                  stream.plan[i % count])):
            due = origin + burst * period
            if due - origin >= seconds and \
                    len(out.handles) >= min_queries:
                _settle(front, out, wait)
                out.wall_s = clock() - origin
                return out
            burst += 1
            out.lags.append(wait(due) - due)
            if b == 0:
                front.advance_time()
                out.ops.append(ADVANCE)
                out.boundaries.append((len(out.handles),
                                       len(out.handles) + len(queries)))
            front.ingest_events(events)
            out.ops.append(events)
            out.events += len(events)
            for kind, payload in queries:
                out.handles.append(_submit(front, kind, payload))
                out.dues.append(due)
        i += 1


def _settle(front, out: Phase, wait) -> None:
    """Let the last queries leave on their flush deadline, then drain."""
    if out.handles:
        last = out.handles[-1]
        limit = time.perf_counter() + 1.0
        while not last.done and time.perf_counter() < limit:
            wait(time.perf_counter() + POLL_S)
    front.drain()


def _answered(h) -> bool:
    return h.done and not h.shed and h.result is not None


def answered(handles) -> list:
    return [h for h in handles if _answered(h)]


def latencies_ms(phases: list, first: int = 0, end: int | None = None
                 ) -> np.ndarray:
    """Due-to-answer time of every answered query of the paced phases
    (of handles ``first:end`` only, if given)."""
    return np.asarray([(h.enqueued_at + h.latency_ms / 1e3 - due) * 1e3
                       for phase in phases
                       for h, due in zip(phase.handles[first:end],
                                         phase.dues[first:end])
                       if _answered(h)], dtype=float)


def boundary_latency_ms(phases: list) -> list:
    """Mean latency of each burst that arrived with a timestep boundary
    and so waited behind the ``advance_time`` stall."""
    out = []
    for phase in phases:
        for first, end in phase.boundaries:
            lat = latencies_ms([phase], first, end)
            if len(lat):
                out.append(float(lat.mean()))
    return out


# -- tracing -------------------------------------------------------------------------

def _count_dirty(tracer: Tracer):
    def after(result, args, kwargs, state):
        tracer.count("ingest.dirty_rows", len(result.dirty))
    return after


def install_common(tracer: Tracer) -> None:
    """Module- and class-level spans shared by both serving tiers."""
    tracer.wrap(serve_ingest, "diff_snapshots", "diff.encode")
    tracer.wrap(serve_server, "score_links", "serve.score")
    tracer.wrap(serve_server, "score_fraud", "serve.score")
    tracer.wrap(ProcessTransport, "submit", "wire.send")
    tracer.wrap(ProcessTransport, "result", "wire.wait")
    tracer.wrap(ProcessTransport, "embedding_rows", "wire.shm_read")
    tracer.wrap(exec_router, "split_diff_by_blocks", "router.split")
    tracer.wrap(exec_router, "expand_dirty", "router.expand")
    tracer.wrap(exec_router, "derive_serving_features", "router.features")
    tracer.wrap(serve_engine, "derive_serving_features", "engine.features")
    tracer.wrap(serve_server, "capture_engine_state", "store.capture")


def install_front(tracer: Tracer, box) -> None:
    """Instance-level spans on one booted front door."""
    front = box.front
    tracer.wrap(front, "ingest_events", "frontend.ingest")
    tracer.wrap(front, "flush", "frontend.flush")
    tracer.wrap(front, "advance_time", "frontend.advance")
    tracer.wrap(front, "tick", "frontend.tick")
    tracer.wrap(front.ingestor, "commit", "ingest.commit",
                after=_count_dirty(tracer))
    if isinstance(front, ModelServer):
        engine = front.engine
        tracer.wrap(engine, "set_snapshot", "engine.set_snapshot")
        tracer.wrap(engine, "advance", "engine.advance")
        tracer.wrap(engine, "refresh", "engine.refresh")
        tracer.wrap(engine.maintainer, "update", "maintainer.update")
        tracer.wrap(engine.cache, "invalidate", "cache.invalidate")
        wrap_kernels(tracer, engine.kernel_backend)
    if box.store is not None:
        store = box.store
        tracer.wrap(store, "append_events", "store.append")
        tracer.wrap(store, "append_snapshot", "store.append")
        tracer.wrap(store, "seal_step", "store.seal")
        tracer.wrap(store, "save_engine_state", "store.capture")


def probe(box) -> dict:
    """Raw counters of one front door; layer metrics are their deltas."""
    front = box.front
    c = front.counters
    out = {"t": time.perf_counter(), "events": c.events_ingested,
           "queries": c.queries_completed, "batches": c.batches_flushed,
           "rows_recomputed": c.rows_recomputed,
           "rows_advanced": c.rows_advanced}
    if isinstance(front, ModelServer):
        m = front.engine.maintainer
        out.update(rows_served=c.rows_served_from_cache,
                   maint_updates=m.updates,
                   maint_incremental=m.incremental_updates,
                   wal_bytes=box.store.wal_nbytes)
        return out
    stats = [t.stats for t in front.transports]
    out.update(rpcs=sum(s.roundtrips for s in stats),
               sent=sum(s.bytes_sent for s in stats),
               received=sum(s.bytes_received for s in stats),
               shm=sum(s.shm_bytes_read for s in stats),
               shed=c.queries_shed, score_rpcs=c.score_rpcs,
               delta_bytes=c.delta_bytes_fanout, retries=c.rpc_retries,
               halo_rows=front.traffic.rows_shipped,
               router_busy=front.router_busy_s)
    worker = front.stats()
    out["busy"] = list(worker.per_shard_busy_s)
    return out


def _delta(a: dict, b: dict) -> dict:
    out = {}
    for key, value in b.items():
        if isinstance(value, list):
            out[key] = [y - x for x, y in zip(a[key], value)]
        else:
            out[key] = value - a[key]
    return out


def _add(a: dict, b: dict) -> dict:
    out = dict(a)
    for key, value in b.items():
        if key not in out:
            out[key] = value
        elif isinstance(value, list):
            out[key] = [x + y for x, y in zip(out[key], value)]
        else:
            out[key] = out[key] + value
    return out


# -- one measured pass ------------------------------------------------------------------

@dataclass
class Pass:
    setup_s: list = field(default_factory=list)
    a: list = field(default_factory=list)   # closed-loop Phase per boot
    b: list = field(default_factory=list)   # paced Phase per boot
    embeddings: dict = field(default_factory=dict)
    completed: dict = field(default_factory=dict)
    main_rss_mb: float = 0.0
    worker_rss_mb: float = 0.0
    worker_threads: int = 0
    # traced passes only: layer totals over the fixed-work windows
    layer_agg: dict | None = None
    layer_counts: dict | None = None
    layer_wall_s: float = 0.0
    queue_wait_p50_ms: float = 0.0


def measure(workload: str, stream: Stream, seconds: float, scratch: str,
            tracer: Tracer | None = None) -> Pass:
    """``SEGMENTS`` rounds of two fresh boots: a part of phase (a) on the
    first and a part of phase (b) on the second, so that both phases
    sample the whole run (the host's speed drifts within a run); then
    further set-ups, only timed.

    With a tracer, layer totals cover a fixed amount of work: the first
    ``LAYER_ROUNDS`` closed-loop batches of each closed-loop boot plus
    all of phase (b)."""
    cfg = spec.SERVE_STREAM
    Front = LocalFront if workload == "serve-local" else ShardFront
    out = Pass()
    closed_s = seconds * spec.CLOSED_SHARE / spec.SEGMENTS
    paced_s = seconds * (1.0 - spec.CLOSED_SHARE) / spec.SEGMENTS
    windows = []
    reset_peak_rss()   # the main process's peak covers this pass only

    def boot():
        box = Front(stream, cfg, scratch)
        out.setup_s.append(box.setup_s)
        return box

    def instrument(box) -> list:
        """Wrap one boot; returns its window, open at this moment."""
        install_common(tracer)
        install_front(tracer, box)
        return [(tracer.snapshot(), probe(box))]

    for k in range(spec.SEGMENTS):
        # phase (a): closed loop
        box = boot()
        try:
            if box.workers:
                out.worker_threads = thread_count(box.workers[0])
            min_rounds, on_round = 0, None
            if tracer is not None:
                window = instrument(box)
                min_rounds = LAYER_ROUNDS[workload]
                windows.append(window)

                def on_round(rounds):
                    if rounds == min_rounds:
                        window.append((tracer.snapshot(), probe(box)))
            out.a.append(closed_loop(box.front, stream, closed_s,
                                     min_rounds, on_round))
            out.completed[f"a{k}"] = box.front.counters.queries_completed
            out.worker_rss_mb = max(out.worker_rss_mb, box.worker_rss_mb())
            out.embeddings[f"a{k}"] = box.embeddings()
        finally:
            if tracer is not None:
                tracer.restore()
            box.close()

        # phase (b): fixed offered rate
        box = boot()
        try:
            if tracer is not None:
                window = instrument(box)
                windows.append(window)
                tracer.keep.add("frontend.flush")
            cpu0, wcpu0 = cpu_s(), box.worker_cpu_s()
            b = paced_loop(box.front, stream, paced_s,
                           spec.OFFERED_QPS[workload],
                           spec.MIN_PACED_QUERIES // spec.SEGMENTS)
            b.cpu_main_s = cpu_s() - cpu0
            b.cpu_workers_s = box.worker_cpu_s() - wcpu0
            if tracer is not None:
                window.append((tracer.snapshot(), probe(box)))
            out.b.append(b)
            out.completed[f"b{k}"] = box.front.counters.queries_completed
            out.worker_rss_mb = max(out.worker_rss_mb, box.worker_rss_mb())
            out.embeddings[f"b{k}"] = box.embeddings()
        finally:
            if tracer is not None:
                tracer.restore()
            box.close()
    out.main_rss_mb = peak_rss_mb()

    # more set-ups, for the median
    for _ in range(spec.SETUP_REPEATS["serve"] - 2 * spec.SEGMENTS):
        boot().close()

    if tracer is not None:
        parts = []
        counts: dict = {}
        for (t0, p0), (t1, p1) in windows:
            parts += [(t1, 1), (t0, -1)]
            counts = _add(counts, _delta(p0, p1))
            out.layer_wall_s += p1["t"] - p0["t"]
        out.layer_agg = Tracer.combine(*parts)
        out.layer_counts = counts
        out.queue_wait_p50_ms = queue_wait_p50_ms(
            out.b, tracer.intervals["frontend.flush"])
    return out


def queue_wait_p50_ms(phases: list, flushes: list) -> float:
    """Median time a paced query waited between its submit and the start
    of the flush that answered it."""
    starts = np.array([s for s, _ in flushes])
    ends = np.array([e for _, e in flushes])
    waits = []
    for h in answered([h for phase in phases for h in phase.handles]):
        at = h.enqueued_at + h.latency_ms / 1e3
        i = int(np.searchsorted(ends, at))
        if i < len(starts) and starts[i] <= at:
            waits.append(max(0.0, starts[i] - h.enqueued_at) * 1e3)
    return percentile(waits, 50)


def step_rate(phases: list) -> float:
    """Median over the completed timesteps of every boot, after each
    boot's first (which pays the fresh front door's warm-up), of events
    ingested per second; over whole phases when no boot completed two
    timesteps."""
    rates = [e / s for phase in phases for e, s in phase.steps[1:]]
    if not rates:
        rates = [phase.events / phase.wall_s for phase in phases]
    return median(rates)


def release(p: Pass) -> None:
    """Drop what a pass kept for the gates."""
    p.embeddings.clear()


def end_to_end(p: Pass) -> tuple[dict, dict]:
    """(metrics, details) of one pass."""
    lat = latencies_ms(p.b)
    stalls = boundary_latency_ms(p.b)
    tail_ms = median(stalls)
    phases = p.a + p.b
    lags = [lag for b in p.b for lag in b.lags]
    cpu_main = sum(b.cpu_main_s for b in p.b)
    cpu_workers = sum(b.cpu_workers_s for b in p.b)
    submitted = sum(len(ph.handles) for ph in phases)
    ok = sum(len(answered(ph.handles)) for ph in phases)
    events = sum(ph.events for ph in phases)
    attempted = submitted + events
    failed = submitted - ok
    metrics = {
        "setup_s": median(p.setup_s),
        "events_per_s": step_rate(p.a),
        "latency_p50_ms": percentile(lat, 50),
        "latency_tail_ms": tail_ms,
        "success_frac": (attempted - failed) / attempted,
        "peak_rss_mb": p.main_rss_mb + p.worker_rss_mb,
        "cpu_s": cpu_main + cpu_workers,
    }
    details = {
        "attempted": attempted, "failed": failed,
        "setup_runs_s": p.setup_s,
        "phase_a": [{"wall_s": a.wall_s, "events": a.events,
                     "queries": len(a.handles), "rounds": a.rounds,
                     "mean_events_per_s": a.events / a.wall_s,
                     "step_events_per_s": [e / s for e, s in a.steps]}
                    for a in p.a],
        "phase_b": {"wall_s": sum(b.wall_s for b in p.b),
                    "events": sum(b.events for b in p.b),
                    "queries": sum(len(b.handles) for b in p.b),
                    "answered": len(lat),
                    "boundary_bursts_ms": stalls,
                    "percentiles_ms": {str(q): percentile(lat, q)
                                       for q in (90, 95, 98, 99, 99.5)},
                    "lag_p99_ms": percentile(lags, 99) * 1e3,
                    "cpu_main_s": cpu_main,
                    "cpu_workers_s": cpu_workers},
        "latency_limit_ms": spec.LATENCY_LIMIT_MS,
        "latency_limit_met": tail_ms <= spec.LATENCY_LIMIT_MS,
        "worker_os_threads": p.worker_threads,
    }
    return metrics, details


# -- correctness gates --------------------------------------------------------------

def _replay(front, ops) -> None:
    for op in ops:
        if op is ADVANCE:
            front.advance_time()
        else:
            front.ingest_events(op)


def _queries_once(gates: Gates, name: str, completed: int, phase: Phase,
                  extra: int = 0) -> None:
    """Every query resolved exactly once: each handle is done, and the
    answered plus shed handles match both the submits and the
    program's own completion count."""
    done = sum(1 for h in phase.handles if h.done)
    ok = len(answered(phase.handles))
    shed = sum(1 for h in phase.handles if h.shed)
    gates.check(name, done == len(phase.handles)
                and ok + shed == len(phase.handles)
                and completed == ok + extra)


def run_gates(workload: str, stream: Stream, p: Pass, scratch: str,
              gates: Gates) -> None:
    cfg = spec.SERVE_STREAM
    labelled = [(f"a{k}", a) for k, a in enumerate(p.a)] + \
        [(f"b{k}", b) for k, b in enumerate(p.b)]
    for label, phase in labelled:
        got = p.embeddings[label]
        if gates.wants("serve-embeddings"):
            got = got.copy()
            got[0, 0] += 1e-9
        if workload == "serve-local":
            oracle = LocalFront(stream, cfg, scratch, incremental=False,
                                store=False)
        else:
            oracle = ShardFront(stream, cfg, scratch, backend="simulated")
        try:
            _replay(oracle.front, phase.ops)
            want = oracle.embeddings()
        finally:
            oracle.close()
        gates.divergence(f"embeddings_vs_oracle.{label}", got, want)
        extra = 1 if gates.wants("serve-queries") else 0
        _queries_once(gates, f"queries_resolved_once.{label}",
                      p.completed[label], phase, extra)


# -- layer metrics ----------------------------------------------------------------------

def layer_metrics(workload: str, p: Pass) -> dict:
    agg, c = p.layer_agg, p.layer_counts
    calls, counts = agg["calls"], agg["counts"]
    out = {name: 0.0 for name in spec.LAYERS}
    out.update(spec.span_seconds(agg))
    out["frontend.batch_mean"] = c["queries"] / c["batches"] \
        if c["batches"] else 0.0
    out["frontend.queue_wait_p50_ms"] = p.queue_wait_p50_ms
    out["load.lag_p99_ms"] = percentile(
        [lag for b in p.b for lag in b.lags], 99) * 1e3
    out["ingest.dirty_rows"] = counts.get("ingest.dirty_rows", 0)
    out["kernel.calls"] = sum(v for k, v in calls.items()
                              if k.startswith("kernel."))
    out["kernel.bytes"] = counts.get("kernel.bytes", 0)
    out["engine.rows_recomputed"] = c["rows_recomputed"]
    out["engine.rows_advanced"] = c["rows_advanced"]
    out["work.events"] = c["events"]
    out["work.queries"] = c["queries"]
    if workload == "serve-local":
        served = c["rows_served"] + c["rows_recomputed"]
        out["cache.hit_frac"] = c["rows_served"] / served if served else 0.0
        out["cache.rows_needed"] = served
        out["maintainer.updates"] = c["maint_updates"]
        out["maintainer.incremental_frac"] = (
            c["maint_incremental"] / c["maint_updates"]
            if c["maint_updates"] else 0.0)
        out["store.wal_bytes"] = c["wal_bytes"]
    else:
        busy = c["busy"]
        out.update({
            "router.busy_s": c["router_busy"],
            "router.score_rpcs": c["score_rpcs"],
            "router.delta_bytes": c["delta_bytes"],
            "router.shed": c["shed"],
            "wire.rpcs": c["rpcs"],
            "wire.bytes_sent": c["sent"],
            "wire.bytes_received": c["received"],
            "wire.shm_bytes": c["shm"],
            "worker.busy_max_s": max(busy),
            "worker.busy_sum_s": sum(busy),
            "worker.idle_frac": max(0.0, 1.0 - sum(busy)
                                    / (len(busy) * p.layer_wall_s)),
            "worker.halo_rows": c["halo_rows"],
            "worker.rss_mb": p.worker_rss_mb,
            "worker.retries": c["retries"],
        })
    out["proc.cpu_s.main"] = sum(b.cpu_main_s for b in p.b)
    out["proc.cpu_s.workers"] = sum(b.cpu_workers_s for b in p.b)
    out.update(unattributed_shares(agg, spec.PARENT_SPANS,
                                   spec.UNATTRIBUTED_LIMIT))
    return out
