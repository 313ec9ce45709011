"""A fixed reference workload that measures how fast the host is right now.

On a shared host the speed of a core drifts by a fifth or more within a
few minutes, so two runs of the same code read different job times. A run
times three passes of this reference before its first job and after each
job, and reports job time in multiples of the median pass: a slow spell
of the host slows the reference and the jobs alike and cancels in the
ratio, while a change to the engine moves only the jobs.

A pass has the two halves an extraction job has, about equal in time:
user-space work (a Parquet round trip, an Arrow sort and per-string
Python work on a fixed table) and kernel work (page faults on fresh
memory, small files written and renamed into place). The two drift
apart on this kind of host; either half alone tracks job time less
well. A pass calls no engine code, starts no process and runs with the
garbage collector off, so the heap the engine leaves behind does not
change it.
"""

from __future__ import annotations

import functools
import gc
import io
import mmap
import os
import time

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

ROWS = 20_000
FAULT_BYTES = 32 << 20
FILES = 80


@functools.lru_cache(maxsize=1)
def _table() -> pa.Table:
    words = [f"w{i % 977}-{(i * 7919) % ROWS}" for i in range(ROWS)]
    return pa.table({"word": words, "n": pa.array(range(ROWS), pa.int64())})


def _user(tbl: pa.Table) -> None:
    buf = io.BytesIO()
    pq.write_table(tbl, buf)
    back = pq.read_table(io.BytesIO(buf.getvalue()))
    pc.sort_indices(back.column("word"))
    [w.upper() for w in back.column("word").to_pylist()]


def _kernel(work_dir: str) -> None:
    mem = mmap.mmap(-1, FAULT_BYTES)
    for off in range(0, FAULT_BYTES, mmap.PAGESIZE):
        mem[off] = 1
    mem.close()
    block = b"x" * 8192
    for i in range(FILES):
        tmp = os.path.join(work_dir, f"f{i}.tmp")
        with open(tmp, "wb") as fh:
            fh.write(block)
        os.replace(tmp, os.path.join(work_dir, f"f{i}"))


def reference_times(work_dir: str, passes: int = 3) -> list[float]:
    """Wall time of each of ``passes`` passes; files go under ``work_dir``."""
    os.makedirs(work_dir, exist_ok=True)
    tbl = _table()
    times = []
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(passes):
            t0 = time.perf_counter()
            _user(tbl)
            _kernel(work_dir)
            times.append(time.perf_counter() - t0)
    finally:
        if was_enabled:
            gc.enable()
    return times
