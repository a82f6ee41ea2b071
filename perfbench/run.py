"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload serve-local --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` splits the time into an untraced pass and a traced pass of
equal length (so a traced run takes about as long as an untraced one)
and prints the per-layer metrics plus the tracing overhead (traced minus
untraced) of every end-to-end metric.
Correctness gates run on the untraced pass, outside its timed phases.
The last line of standard output is one JSON object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # smoke-test seams: tiny inputs, and a gate whose output is corrupted
    # on purpose so the test can see the gate fail
    ap.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--perturb", default=None, help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def run(args, scratch: str):
    """Untraced pass, gates, then (with ``--trace 1``) the traced pass."""
    import spec
    from common import Gates
    from host import host_facts
    from tracer import Tracer
    from repro.exec.mp import MultiprocessBackend
    from repro.tensor.backend import resolve_backend

    if spec.workload_kind(args.workload) == "train":
        import training as module
    else:
        import serving as module
    inputs = module.build_inputs(args.workload, args.seed)
    facts = host_facts(resolve_backend(None).name,
                       MultiprocessBackend()._ctx.get_start_method())
    gates = Gates(args.perturb)
    seconds = args.seconds / 2 if args.trace else args.seconds
    p = module.measure(args.workload, inputs, seconds, scratch)
    metrics, details = module.end_to_end(p)
    module.run_gates(args.workload, inputs, p, scratch, gates)
    module.release(p)
    layers = None
    if args.trace:
        p = module.measure(args.workload, inputs, seconds, scratch,
                           tracer=Tracer())
        traced, details["traced"] = module.end_to_end(p)
        layers = module.layer_metrics(args.workload, p)
        module.release(p)
        for name in spec.E2E:
            layers[f"overhead.{name}"] = traced[name] - metrics[name]
        details["unattributed_above_limit"] = [
            parent for parent in spec.PARENT_SPANS
            if layers[f"unattributed.{parent}"] > spec.UNATTRIBUTED_LIMIT]
    return facts, gates, metrics, details, layers


def main(argv=None) -> int:
    args = parse(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print("perfbench: no program sources at src/repro; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import spec
    from common import remove_tree, stop_children, workdir

    if args.workload not in spec.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(spec.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.tiny:
        spec.shrink()
    # a terminated run still stops its workers (the finally below)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    scratch = workdir(os.path.join(ROOT, ".perfbench"), "run")
    try:
        facts, gates, metrics, details, layers = run(args, scratch)
    finally:
        stop_children()
        remove_tree(scratch)

    units = {name: unit for name, (unit, *_) in spec.E2E.items()}
    units.update({name: layer.unit for name, layer in spec.LAYERS.items()})
    chosen = layers if args.trace else metrics
    for name, value in chosen.items():
        chosen[name] = value = float(value)
        if not math.isfinite(value):
            print(f"perfbench: metric {name} is not finite ({value})",
                  file=sys.stderr)
            return 3
    report = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "host": facts, "gates": gates.results, "details": details,
              "end_to_end": metrics, "spec": spec.describe(args.workload)}
    for name, value in chosen.items():
        print(f"{name:36s} {value:16.6g} {units[name]}")
    print(json.dumps(report, default=float))
    print(json.dumps({
        "correct": gates.passed,
        "attempted": int(details["attempted"]),
        "failed": int(details["failed"]),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in chosen.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
