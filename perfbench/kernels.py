"""Spans and computed byte counts for the resolved kernel backend.

Every sparse kernel of the program runs on one ``KernelBackend``
instance; wrapping its methods times each kernel call wherever it comes
from (serving refresh, maintainer splices, training forward and
backward).  Bytes are computed from operand sizes, not measured.
"""

from __future__ import annotations

import numpy as np

from tracer import Tracer


def _sel_nnz(csr, rows) -> int:
    rows = np.asarray(rows, dtype=np.int64)
    return int((csr.indptr[rows + 1] - csr.indptr[rows]).sum())


def _csr_nbytes(csr) -> int:
    return csr.data.nbytes + csr.indices.nbytes + csr.indptr.nbytes


def _arrays_nbytes(arrays) -> int:
    return sum(np.asarray(a).nbytes for a in arrays)


def kernel_nbytes(method: str, result, args) -> int:
    """Bytes a kernel call reads and writes, computed from its operand
    sizes (not measured)."""
    if method == "spmm":
        csr, x = args[:2]
        return _csr_nbytes(csr) + x.nbytes + result.nbytes
    if method == "spmm_rows":
        csr, rows, x = args[:3]
        nnz = _sel_nnz(csr, rows)
        return (nnz * (csr.data.itemsize + csr.indices.itemsize + x.shape[1]
                       * x.itemsize) + result[0].nbytes
                + 2 * np.asarray(rows).nbytes)
    if method == "spmm_rows_t":
        csr, rows, g = args[:3]
        nnz = _sel_nnz(csr, rows)
        return (nnz * (csr.data.itemsize + csr.indices.itemsize + g.shape[1]
                       * g.itemsize) + g.nbytes + result.nbytes)
    if method in ("transpose", "row_slice"):
        return _csr_nbytes(args[0]) + _csr_nbytes(result)
    if method == "degree_counts":
        return np.asarray(args[0]).nbytes + result.nbytes
    if method == "splice_delete":
        return _arrays_nbytes(args[0]) + _arrays_nbytes(result)
    if method == "splice_insert":
        return (_arrays_nbytes(args[0]) + _arrays_nbytes(args[2])
                + _arrays_nbytes(result[0]))
    # rescale: reads w, cols and dinv twice at each position, writes data
    pos = np.asarray(args[4])
    return pos.size * (4 * 8 + np.asarray(args[2]).itemsize) + pos.nbytes


KERNEL_SPANS = {"spmm": "kernel.spmm", "spmm_rows": "kernel.spmm_rows",
                "spmm_rows_t": "kernel.spmm_rows_t",
                "transpose": "kernel.transpose",
                "row_slice": "kernel.row_slice",
                "degree_counts": "kernel.maintain",
                "splice_delete": "kernel.maintain",
                "splice_insert": "kernel.maintain",
                "rescale": "kernel.maintain"}


def wrap_kernels(tracer: Tracer, backend) -> None:
    """Time the resolved kernel backend's methods; count computed bytes."""
    for method, span in KERNEL_SPANS.items():
        def after(result, args, kwargs, state, method=method):
            tracer.count("kernel.bytes", kernel_nbytes(method, result, args))
        tracer.wrap(backend, method, span, after=after)
