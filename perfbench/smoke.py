"""The benchmark's own smoke test (about a minute on 2 cores).

    python3 perfbench/smoke.py

Runs the one benchmark command on tiny inputs and checks:

* ``BENCHMARK.json`` is exactly what ``spec.py`` generates, within the
  format's limits (names, units, counts, bounds);
* every workload prints every end-to-end metric (``--trace 0``) or every
  per-layer metric (``--trace 1``), by a valid name with its unit, and
  passes its correctness gates on two seeds;
* each correctness gate fails when its output is deliberately corrupted;
* without the program's sources beside it, the command exits non-zero
  and prints no result.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import spec  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PERTURB = {"serve-local": ("serve-embeddings", "serve-queries"),
           "serve-shards": ("serve-embeddings", "serve-queries"),
           "train-dist": ("train-loss", "train-sim")}
SECONDS = "1"


def processes_in(directory: str) -> list:
    """Pids of other processes whose working directory is ``directory``."""
    directory = os.path.realpath(directory)
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit() or int(entry) == os.getpid():
            continue
        try:
            cwd = os.readlink(f"/proc/{entry}/cwd")
        except OSError:
            continue
        if cwd == directory:
            pids.append(int(entry))
    return pids


def run(workload: str, seed: int, trace: int, *extra, cwd=ROOT):
    cmd = spec.COMMAND + ["--workload", workload, "--seed", str(seed),
                          "--seconds", SECONDS, "--trace", str(trace),
                          "--tiny", *extra]
    before = set(processes_in(cwd))
    # output goes to files, not pipes: a leftover process holding a pipe
    # open would keep the wait below from returning until it ended
    with tempfile.TemporaryFile("w+") as out, \
            tempfile.TemporaryFile("w+") as err:
        code = subprocess.run(cmd, cwd=cwd, stdout=out, stderr=err,
                              timeout=300).returncode
        # a run must stop every process it starts before it exits
        left = set(processes_in(cwd)) - before
        out.seek(0)
        err.seek(0)
        proc = subprocess.CompletedProcess(cmd, code, out.read(), err.read())
    assert not left, f"{workload}: processes left running: {sorted(left)}"
    return proc


def result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_benchmark_file() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        on_disk = json.load(fh)
    assert on_disk == spec.benchmark_json(), \
        "BENCHMARK.json is stale: run python3 perfbench/spec.py --write"
    assert 1 <= len(on_disk["end_to_end"]) <= 16
    assert 1 <= len(on_disk["per_layer"]) <= 128
    assert 2 <= len(on_disk["workloads"]) <= 8
    names = [m["name"] for key in ("end_to_end", "per_layer")
             for m in on_disk[key]]
    names += [w["name"] for w in on_disk["workloads"]]
    assert len(names) == len(set(names)), "metric/workload names repeat"
    for name in names:
        assert NAME.match(name), f"bad name {name!r}"
    for m in on_disk["end_to_end"] + on_disk["per_layer"]:
        assert UNIT.match(m["unit"]), f"bad unit for {m['name']}"
        assert m["better"] in ("higher", "lower")
    for m in on_disk["end_to_end"]:
        assert 0 < m["bound"] <= 0.25
    setup = [m for m in on_disk["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and \
        setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"]
                                    for m in on_disk["end_to_end"])
    for w in on_disk["workloads"]:
        assert len(w["why"]) <= 200 and "\n" not in w["why"]


def check_metrics(out: dict, wanted: list) -> None:
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(out["attempted"], int) and out["attempted"] >= 1
    assert isinstance(out["failed"], int)
    got = out["metrics"]
    assert list(got) == [m["name"] for m in wanted], \
        f"metrics differ: {sorted(set(got) ^ {m['name'] for m in wanted})}"
    for m in wanted:
        entry = got[m["name"]]
        assert entry["unit"] == m["unit"], m["name"]
        assert isinstance(entry["value"], (int, float)), m["name"]


def main() -> int:
    check_benchmark_file()
    wanted = spec.benchmark_json()
    for workload in spec.WORKLOADS:
        for seed in (1, 2):
            out = result(run(workload, seed, 0))
            check_metrics(out, wanted["end_to_end"])
            assert out["correct"], f"{workload} seed {seed}: gates failed"
            for m in out["metrics"].values():
                assert m["value"] != 0, f"{workload}: zero end-to-end metric"
        out = result(run(workload, 1, 1))
        check_metrics(out, wanted["per_layer"])
        assert out["correct"], f"{workload} traced: gates failed"
        for gate in PERTURB[workload]:
            out = result(run(workload, 1, 0, "--perturb", gate))
            assert not out["correct"], f"{workload}: {gate} did not fail"
        print(f"ok  {workload}")

    # only BENCHMARK.json and the benchmark's own directory
    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="bare-",
                               dir=os.path.join(ROOT, ".perfbench"))
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), scratch)
        for path in spec.PATHS:
            shutil.copytree(os.path.join(ROOT, path),
                            os.path.join(scratch, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run("serve-local", 1, 0, cwd=scratch)
        assert proc.returncode != 0, "ran without the program's sources"
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print("ok  bare checkout fails cleanly")
    return 0


if __name__ == "__main__":
    sys.exit(main())
