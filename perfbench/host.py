"""Host facts and per-process resource readings (Linux ``/proc``).

Everything here only reads: BLAS thread counts come from the loaded
OpenBLAS through ctypes, memory and CPU time from ``/proc/<pid>``.
"""

from __future__ import annotations

import ctypes
import multiprocessing
import os
import platform
import sys
import time

_TICK = os.sysconf("SC_CLK_TCK")


def _status_kb(pid: int | str, key: str) -> int:
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith(key + ":"):
                return int(line.split()[1])
    return 0


def peak_rss_mb(pid: int | str = "self") -> float:
    """High-water resident set size (``VmHWM``) in MiB."""
    return _status_kb(pid, "VmHWM") / 1024.0


def reset_peak_rss() -> bool:
    """Start a new ``VmHWM`` high-water mark at the current resident
    size (writing ``5`` to ``/proc/self/clear_refs``), so a later
    :func:`peak_rss_mb` covers only what ran since; False where the
    kernel does not allow it."""
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
    except OSError:
        return False
    return True


def cpu_s(pid: int | str = "self") -> float:
    """User plus system CPU seconds of one process (all its threads)."""
    if pid == "self":
        return time.process_time()
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _TICK


def thread_count(pid: int | str = "self") -> int:
    return len(os.listdir(f"/proc/{pid}/task"))


def _openblas():
    """The OpenBLAS library numpy loaded, or ``None``."""
    import numpy  # noqa: F401  (loads the BLAS the program uses)
    with open("/proc/self/maps") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line}
    for path in sorted(paths):
        try:
            return ctypes.CDLL(path)
        except OSError:
            continue
    return None


def _blas_call(lib, suffix: str, restype):
    for prefix in ("scipy_openblas", "openblas"):
        for tail in ("64_", ""):
            fn = getattr(lib, f"{prefix}_{suffix}{tail}", None)
            if fn is not None:
                fn.restype = restype
                fn.argtypes = []
                return fn()
    return None


def blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use in this process."""
    lib = _openblas()
    return None if lib is None else _blas_call(lib, "get_num_threads",
                                               ctypes.c_int)


def _probe_child(conn) -> None:
    conn.send(blas_threads())
    conn.close()


def blas_threads_in_child(start_method: str) -> int | None:
    """BLAS threads as a worker started the way the exec tier starts
    its workers sees them."""
    ctx = multiprocessing.get_context(start_method)
    parent, child = ctx.Pipe()
    proc = ctx.Process(target=_probe_child, args=(child,))
    proc.start()
    child.close()
    try:
        value = parent.recv() if parent.poll(30.0) else None
    finally:
        proc.join(timeout=30.0)
        if proc.is_alive():
            proc.terminate()
            proc.join()
        parent.close()
    return value


def host_facts(kernel_backend: str, start_method: str) -> dict:
    import numpy
    import scipy
    lib = _openblas()
    config = None if lib is None else _blas_call(lib, "get_config",
                                                 ctypes.c_char_p)
    return {
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "blas": config.decode() if config else None,
        "blas_threads_main": blas_threads(),
        "blas_threads_worker": blas_threads_in_child(start_method),
        "peak_rss_resettable": reset_peak_rss(),
        "kernel_backend": kernel_backend,
        "mp_start_method": start_method,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": sys.platform,
    }
