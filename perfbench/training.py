"""The train-dist workload: the paper's distributed training scheme.

``DistributedTrainer`` with TM-GCN, snapshot partitioning, graph
difference (GD) transfers, cross-timestep aggregation reuse and two
checkpoint blocks on four simulated ranks of the default
``ClusterSpec``.  The timeline is ingested into a ``GraphStore`` and the
trainer reads it back through a store window, so store reads sit on the
training path.  Epochs run until the run time is spent; epoch 0 builds
the reuse cache and is excluded from the warm-epoch statistics.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import spec
from common import Gates, median, remove_tree, workdir
from host import peak_rss_mb, reset_peak_rss
from kernels import wrap_kernels
from tracer import Tracer, unattributed_shares

from repro.cluster.cluster import Cluster
from repro.cluster.config import ClusterSpec
from repro.graph.amlsim import AMLSimConfig, generate_amlsim
from repro.graph.inc_laplacian import LaplacianMaintainer
from repro.models import build_model
from repro.store.store import GraphStore
from repro.tensor import Tensor
from repro.tensor.backend import resolve_backend
from repro.train.distributed import DistConfig, DistributedTrainer
from repro.train.tasks import LinkPredictionTask

import repro.graph.diff as graph_diff
import repro.store.store as store_mod
import repro.train.distributed as train_dist

MODEL_SEED = 0
TASK_SEED = 1
MIN_EPOCHS = 3          # epoch 0 plus at least two warm epochs
# warm epochs whose layer work the traced run reports (fixed work)
LAYER_WARM_EPOCHS = 3


def build_inputs(workload: str, seed: int):
    """The AML-Sim timeline the workload ingests and trains on."""
    cfg = spec.TRAIN
    return generate_amlsim(AMLSimConfig(
        num_accounts=cfg["num_accounts"],
        num_timesteps=cfg["num_timesteps"],
        background_per_step=cfg["background_per_step"],
        partner_persistence=cfg["partner_persistence"],
        activity_skew=cfg["activity_skew"],
        seed=seed)).dtdg


def set_up(dtdg, cfg: dict, scratch: str, *, reuse: bool = True,
           store: GraphStore | None = None):
    """Ingest the timeline into a store (unless given one) and build the
    trainer over a window of it; returns (trainer, store, seconds)."""
    model = build_model(cfg["model"], in_features=2, hidden=cfg["hidden"],
                        embed_dim=cfg["embed_dim"], seed=MODEL_SEED,
                        window=cfg["window"])
    config = DistConfig(partitioning="snapshot", use_graph_difference=True,
                        num_blocks=cfg["num_blocks"],
                        reuse_aggregation=reuse)
    t0 = time.perf_counter()
    if store is None:
        store = GraphStore.create(workdir(scratch, "timeline"),
                                  dtdg.num_vertices, name="amlsim")
        for snap in dtdg.snapshots:
            store.append_snapshot(snap)
    trainer = DistributedTrainer.from_store(
        model, store,
        lambda view: LinkPredictionTask(view, embed_dim=model.embed_dim,
                                        seed=TASK_SEED),
        Cluster(ClusterSpec(), cfg["num_ranks"]), config)
    return trainer, store, time.perf_counter() - t0


@dataclass
class Pass:
    setup_s: list = field(default_factory=list)
    results: list = field(default_factory=list)   # EpochResult per epoch
    walls: list = field(default_factory=list)
    cpus: list = field(default_factory=list)
    decisions: list = field(default_factory=list)  # (memo, patch, full)
    main_rss_mb: float = 0.0
    trained_edges: int = 0
    # kept for the gates
    store: object = None
    # traced passes only
    layer_agg: dict | None = None
    replayed: int = 0


def install_setup(tracer: Tracer) -> None:
    """Class- and module-level spans around the set-up path."""
    def incremental_before(args, kwargs):
        return args[0].incremental_updates

    def seen(result, args, kwargs, before):
        tracer.count("maintainer.updates")
        tracer.count("maintainer.incremental",
                     args[0].incremental_updates - before)

    tracer.wrap(GraphStore, "append_snapshot", "store.append")
    tracer.wrap(GraphStore, "materialize", "store.materialize")
    tracer.wrap(store_mod, "diff_snapshots", "diff.encode")
    tracer.wrap(graph_diff, "diff_snapshots", "diff.encode")
    tracer.wrap(train_dist, "compute_laplacians_with_diffs",
                "train.laplacians")
    tracer.wrap(train_dist, "degree_features", "train.features")
    tracer.wrap(train_dist, "AggregationCache", "reuse.init")
    tracer.wrap(LaplacianMaintainer, "update", "maintainer.update",
                after=seen, before=incremental_before)
    tracer.wrap(Tensor, "backward", "train.backward")
    wrap_kernels(tracer, resolve_backend(None))


def install_trainer(tracer: Tracer, trainer) -> None:
    tracer.wrap(trainer, "train_epoch", "train.epoch")
    tracer.wrap(trainer.optimizer, "step", "train.step")
    tracer.wrap(trainer.task, "test_accuracy", "train.eval")
    tracer.wrap(trainer.reuse, "aggregate", "reuse.aggregate")
    tracer.bridge(trainer.telemetry, {"train.forward": "train.forward"})


def measure(workload: str, dtdg, seconds: float, scratch: str,
            tracer: Tracer | None = None) -> Pass:
    """One set-up and epochs on its trainer until ``seconds`` have
    passed, then the further set-ups whose median is ``setup_s``.  The
    peak memory is read before the further set-ups, so it covers one
    trainer.  With a tracer, layer totals cover the first set-up plus
    epoch 0 and ``LAYER_WARM_EPOCHS`` warm epochs."""
    cfg = spec.TRAIN
    out = Pass()
    min_epochs = MIN_EPOCHS
    reset_peak_rss()   # the main process's peak covers this pass only
    try:
        if tracer is not None:
            install_setup(tracer)
            setup_window = [tracer.snapshot()]
            with tracer.span("train.setup"):
                trainer, store, s = set_up(dtdg, cfg, scratch)
            setup_window.append(tracer.snapshot())
        else:
            trainer, store, s = set_up(dtdg, cfg, scratch)
        out.setup_s.append(s)
        out.store = store
        out.trained_edges = sum(trainer.dtdg[t].num_edges
                                for t in range(trainer.train_t))

        if tracer is not None:
            install_trainer(tracer, trainer)
            min_epochs = max(min_epochs, 1 + LAYER_WARM_EPOCHS)
            epoch_window = [tracer.snapshot()]
        deadline = time.perf_counter() + seconds
        while True:
            c0, t0 = time.process_time(), time.perf_counter()
            result = trainer.train_epoch()
            out.walls.append(time.perf_counter() - t0)
            out.cpus.append(time.process_time() - c0)
            out.results.append(result)
            stats = trainer.reuse.stats
            out.decisions.append((stats.memo_hits, stats.patches,
                                  stats.full_spmm))
            if tracer is not None and len(out.results) == min_epochs:
                epoch_window.append(tracer.snapshot())
                # the store was created inside the traced set-up, so its
                # counter covers exactly the set-up and these epochs
                out.replayed = store.records_replayed
            if time.perf_counter() >= deadline and \
                    len(out.results) >= min_epochs:
                break
        out.main_rss_mb = peak_rss_mb()
        del trainer
        for _ in range(spec.SETUP_REPEATS["train"] - 1):
            _, extra_store, s = set_up(dtdg, cfg, scratch)
            out.setup_s.append(s)
            remove_tree(extra_store.path)
    finally:
        if tracer is not None:
            tracer.restore()
    if tracer is not None:
        out.layer_agg = Tracer.combine(
            *[part for t0, t1 in (setup_window, epoch_window)
              for part in ((t1, 1), (t0, -1))])
    return out


def release(p: Pass) -> None:
    """Delete the store a pass kept for the gates."""
    if p.store is not None:
        remove_tree(p.store.path)
    p.store = None


def end_to_end(p: Pass) -> tuple[dict, dict]:
    warm_s = p.walls[1:]
    epoch_s = median(warm_s)
    metrics = {
        "setup_s": median(p.setup_s),
        "events_per_s": p.trained_edges / epoch_s,
        "latency_p50_ms": epoch_s * 1e3,
        "latency_tail_ms": max(warm_s) * 1e3,
        "success_frac": 1.0,
        "peak_rss_mb": p.main_rss_mb,
        "cpu_s": median(p.cpus[1:]),
    }
    last = p.results[-1]
    details = {
        "attempted": len(p.results), "failed": 0,
        "setup_runs_s": p.setup_s,
        "epochs": len(p.results),
        "epoch_walls_s": p.walls,
        "trained_edges": p.trained_edges,
        "loss_first": p.results[0].loss,
        "loss_last": last.loss,
        "sim_epoch_ms": last.total_ms,
        "gd_savings_ratio": last.gd_savings_ratio,
    }
    return metrics, details


def _fingerprint(result) -> list:
    """Everything about an epoch that must repeat exactly."""
    return [result.total_ms, result.transfer_bytes,
            result.transfer_naive_equivalent_bytes,
            result.comm_volume_units, result.gradient_volume_units,
            result.peak_memory_bytes]


def run_gates(workload: str, dtdg, p: Pass, scratch: str,
              gates: Gates) -> None:
    cfg = spec.TRAIN
    first = p.results[0]
    # the same configuration with reuse off: first-epoch loss identical
    plain, _, _ = set_up(dtdg, cfg, scratch, reuse=False, store=p.store)
    want = plain.train_epoch().loss
    got = first.loss + (1e-12 if gates.wants("train-loss") else 0.0)
    gates.divergence("first_loss_vs_reuse_off", got, want)
    # an independently built twin repeats epoch 0 exactly
    twin_trainer, twin_store, _ = set_up(dtdg, cfg, scratch)
    twin = twin_trainer.train_epoch()
    remove_tree(twin_store.path)
    got = _fingerprint(first)
    if gates.wants("train-sim"):
        got[0] += 1e-9
    gates.divergence("epoch0_repeats", got + [first.loss],
                     _fingerprint(twin) + [twin.loss])
    # every warm epoch charges the same simulated time and bytes
    warm = [_fingerprint(r) for r in p.results[1:]]
    gates.divergence("warm_epochs_repeat", warm, [warm[0]] * len(warm))


def layer_metrics(workload: str, p: Pass) -> dict:
    agg = p.layer_agg
    calls, counts = agg["calls"], agg["counts"]
    out = {name: 0.0 for name in spec.LAYERS}
    epochs = p.results[:1 + LAYER_WARM_EPOCHS]
    out.update(spec.span_seconds(agg))
    updates = counts.get("maintainer.updates", 0)
    incremental = counts.get("maintainer.incremental", 0)
    out["maintainer.incremental_frac"] = incremental / updates \
        if updates else 0.0
    out["maintainer.updates"] = updates
    out["store.records_replayed"] = p.replayed
    out["kernel.calls"] = sum(v for k, v in calls.items()
                              if k.startswith("kernel."))
    out["kernel.bytes"] = counts.get("kernel.bytes", 0)
    out["train.forward_s"] = sum(r.forward_wall_s for r in epochs)
    agg_flops = sum(r.agg_flops for r in epochs)
    agg_full = sum(r.agg_flops_full_equivalent for r in epochs)
    out["reuse.flops_frac"] = agg_flops / agg_full if agg_full else 0.0
    out["reuse.flops_full"] = agg_full
    for i, name in enumerate(("reuse.memo", "reuse.patch", "reuse.full")):
        out[name] = sum(d[i] for d in p.decisions[:len(epochs)])
    warm = epochs[-1]
    out.update({
        "cluster.sim_epoch_ms": warm.total_ms,
        "cluster.h2d_bytes": warm.transfer_bytes,
        "cluster.h2d_naive_bytes": warm.transfer_naive_equivalent_bytes,
        "cluster.comm_units": warm.comm_volume_units,
        "cluster.sim_transfer_ms": warm.breakdown.transfer * 1e3,
        "cluster.sim_compute_ms": warm.breakdown.compute * 1e3,
        "cluster.sim_comm_ms": warm.breakdown.comm * 1e3,
        "cluster.peak_device_bytes": warm.peak_memory_bytes,
    })
    out["proc.cpu_s.main"] = sum(p.cpus[:len(epochs)])
    out["work.epochs"] = len(epochs)
    out.update(unattributed_shares(agg, spec.PARENT_SPANS,
                                   spec.UNATTRIBUTED_LIMIT))
    return out
