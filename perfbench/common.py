"""Small helpers shared by the workloads: statistics, gates, layer math."""

from __future__ import annotations

import multiprocessing
import os
import shutil
import tempfile
from multiprocessing import resource_tracker

import numpy as np


def median(values) -> float:
    return float(np.median(np.asarray(values, dtype=float)))


def percentile(values, q: float) -> float:
    values = np.asarray(values, dtype=float)
    return float(np.percentile(values, q)) if len(values) else 0.0


class Gates:
    """Named correctness checks; every divergence must be exactly 0."""

    def __init__(self, perturb: str | None = None) -> None:
        self.perturb = perturb
        self.results: dict = {}

    def wants(self, name: str) -> bool:
        """True when the caller should corrupt this gate's output first
        (the smoke test proves each gate can fail)."""
        return self.perturb == name

    def divergence(self, name: str, got, want) -> float:
        got = np.asarray(got, dtype=float)
        want = np.asarray(want, dtype=float)
        if got.shape != want.shape:
            value = float("inf")
        else:
            value = float(np.abs(got - want).max()) if got.size else 0.0
        self.results[name] = value
        return value

    def check(self, name: str, ok: bool) -> None:
        self.results[name] = 0.0 if ok else 1.0

    @property
    def passed(self) -> bool:
        return bool(self.results) and all(v == 0.0
                                          for v in self.results.values())


def workdir(root: str, label: str) -> str:
    """A fresh scratch directory inside the checkout."""
    os.makedirs(root, exist_ok=True)
    return tempfile.mkdtemp(prefix=f"{label}-", dir=root)


def remove_tree(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)


def stop_children() -> None:
    """End every process this run started and wait for each.

    Worker processes go first.  The multiprocessing resource tracker,
    which shared-memory segments start and which would otherwise
    outlive this process, stops once every copy of its pipe is closed,
    so it is stopped after the workers and waited for."""
    for proc in multiprocessing.active_children():
        proc.terminate()
        proc.join(timeout=5.0)
        if proc.is_alive():
            proc.kill()
            proc.join()
    resource_tracker._resource_tracker._stop()
