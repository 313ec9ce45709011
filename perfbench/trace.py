"""Spans recorded from the benchmark's own code, and the Ray-free replay.

A span is (id, parent, job, name, start, end). Spans nest on one thread,
so a span's children never overlap and its self time is its duration
minus the sum of its children's durations. Spans stay in memory and are
written out as JSON lines when the run ends.

The replay pushes one job's input through the engine's per-batch
public functions in the calling process, in the order the pipeline runs
them: ``add_keys_batch`` → ``extract_batch`` (whose ``sniff_kind_arrow``,
``norm_inline_arrow``, ``extract_html`` and ``extract_pdf`` calls are
wrapped for the replay's duration) → per-slot ``finalize_group`` →
``group_metrics`` + ``write_partition``. Nothing in the engine is edited:
the wrappers are installed on the ``functions.extract`` module and
removed afterwards.
"""

from __future__ import annotations

import json
import os
import shutil
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from pdf_toolkit_ray.config import ExtractConfig
from pdf_toolkit_ray.functions import extract as extract_mod
from pdf_toolkit_ray.oracle import heavy_convs
from pdf_toolkit_ray.stages import exchange as exchange_mod
from pdf_toolkit_ray.stages.extract_stage import add_keys_batch
from pdf_toolkit_ray.stages.finalize import finalize_group, group_metrics
from pdf_toolkit_ray.state import manifest as manifest_mod


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [id, parent, job, name, start, end]
        self._stack: list[int] = []
        self.job = 0

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        rec = [sid, parent, self.job, name, time.perf_counter(), None]
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield rec
        finally:
            rec[5] = time.perf_counter()
            self._stack.pop()

    def durations(self, name: str) -> list[float]:
        return [s[5] - s[4] for s in self.spans if s[3] == name]

    def busy(self, name: str) -> float:
        return float(sum(self.durations(name)))

    def self_times(self, root: int | None = None) -> dict[str, float]:
        """Self time summed per span name (optionally within one root's tree)."""
        child_sum: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s[1] >= 0:
                child_sum[s[1]] += s[5] - s[4]
        inside = None
        if root is not None:
            inside = {root}
            for s in self.spans[root + 1:]:
                if s[1] in inside:
                    inside.add(s[0])
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            if inside is None or s[0] in inside:
                out[s[3]] += (s[5] - s[4]) - child_sum[s[0]]
        return dict(out)

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for sid, parent, job, name, t0, t1 in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "job": job,
                                     "name": name, "start": t0, "end": t1}) + "\n")


# names of the replay's program layers
LAYER_SPANS = ("io.read", "functions.keys", "functions.extract", "functions.sniff",
               "functions.textnorm", "functions.htmlx", "functions.pdfx",
               "stages.finalize", "state.manifest.write")
# every named span of the replay: the layers plus the benchmark's own glue
# (the heavy map and the slot routing, which the pipeline does in its heavy
# pass and exchange); time no span covers lowers ``trace.replay_self_frac``
REPLAY_SPANS = LAYER_SPANS + ("replay.heavy", "replay.route")


@contextmanager
def _wrapped_kernels(tracer: Tracer, counts: dict[str, float], cfg: ExtractConfig):
    """Wrap the per-layer calls ``extract_batch`` makes, for the replay only."""
    saved = {name: getattr(extract_mod, name) for name in
             ("sniff_kind_arrow", "norm_inline_arrow", "extract_html", "extract_pdf")}

    def sniff(texts):
        with tracer.span("functions.sniff"):
            counts["sniff.rows"] += len(texts)
            return saved["sniff_kind_arrow"](texts)

    def norm(arr):
        with tracer.span("functions.textnorm"):
            counts["textnorm.rows"] += len(arr)
            counts["textnorm.bytes_in"] += pc.sum(pc.binary_length(arr)).as_py() or 0
            return saved["norm_inline_arrow"](arr)

    def per_doc(layer: str, fn):
        def call(text, cfg):
            with tracer.span(f"functions.{layer}"):
                result = fn(text, cfg)
            counts[f"{layer}.docs"] += 1
            counts[f"{layer}.bytes_in"] += len(text.encode())
            counts[f"{layer}.fallback"] += bool(result.used_fallback)
            return result
        return call

    extract_mod.sniff_kind_arrow = sniff
    extract_mod.norm_inline_arrow = norm
    extract_mod.extract_html = per_doc("htmlx", saved["extract_html"])
    extract_mod.extract_pdf = per_doc("pdfx", saved["extract_pdf"])
    try:
        yield
    finally:
        for name, fn in saved.items():
            setattr(extract_mod, name, fn)
    # a layer the input never reached still reports a measured busy time:
    # that of one call with nothing to do
    if not counts["textnorm.rows"]:
        with tracer.span("functions.textnorm"):
            saved["norm_inline_arrow"](pa.array([], pa.string()))
    for layer, name in (("htmlx", "extract_html"), ("pdfx", "extract_pdf")):
        if not counts[f"{layer}.docs"]:
            with tracer.span(f"functions.{layer}"):
                saved[name]("", cfg)


class _CountingRemote:
    """A remote function whose calls add the object refs they return to
    ``counter[0]``; ``.options`` keeps counting."""

    def __init__(self, fn, counter: list[int]) -> None:
        self._fn = fn
        self._counter = counter

    def options(self, **kwargs):
        return _CountingRemote(self._fn.options(**kwargs), self._counter)

    def remote(self, *args, **kwargs):
        outs = self._fn.remote(*args, **kwargs)
        self._counter[0] += len(outs) if isinstance(outs, list) else 1
        return outs


#: the exchange's map-side tasks; every ref they return is one shard object
SHARD_TASKS = ("_split_block", "_split_block_groups", "_subsplit_group")


@contextmanager
def counted_shards():
    """Count the shard objects ``mr_exchange`` creates, whichever topology it
    picks: yields a one-element list that holds the count afterwards."""
    counter = [0]
    saved = {name: getattr(exchange_mod, name) for name in SHARD_TASKS}
    for name, fn in saved.items():
        setattr(exchange_mod, name, _CountingRemote(fn, counter))
    try:
        yield counter
    finally:
        for name, fn in saved.items():
            setattr(exchange_mod, name, fn)


def _slots(tbl: pa.Table) -> list[pa.Table]:
    """Rows grouped by (part_id, salt), as the exchange routes them."""
    order = pc.sort_indices(tbl, sort_keys=[("part_id", "ascending"), ("salt", "ascending")])
    tbl = tbl.take(order)
    key = (tbl.column("part_id").to_numpy().astype(np.int64) << 20) | \
        tbl.column("salt").to_numpy().astype(np.int64)
    cuts = np.flatnonzero(np.diff(key)) + 1
    bounds = np.r_[0, cuts, len(key)]
    return [tbl.slice(a, b - a) for a, b in zip(bounds[:-1], bounds[1:])]


def replay(tracer: Tracer, path: str, cfg: ExtractConfig,
           write_dir: str) -> tuple[dict[str, float], dict[str, int]]:
    """Replay one job's input through the per-batch functions.

    Returns the per-layer counts and times (the spans stay in ``tracer``)
    and the heavy-conversation map the replay used."""
    counts: dict[str, float] = defaultdict(float)
    shutil.rmtree(write_dir, ignore_errors=True)
    with _wrapped_kernels(tracer, counts, cfg), tracer.span("replay") as root:
        with tracer.span("io.read"):
            tbl = pq.read_table(path)
        with tracer.span("replay.heavy"):
            heavy = heavy_convs(tbl, cfg)
        extracted = []
        for batch in tbl.to_batches(max_chunksize=cfg.batch_size):
            batch = pa.Table.from_batches([batch])
            with tracer.span("functions.keys"):
                batch = add_keys_batch(batch, cfg, heavy)
            with tracer.span("functions.extract"):
                extracted.append(extract_mod.extract_batch(batch, cfg))
        with tracer.span("replay.route"):
            slots = _slots(pa.concat_tables(extracted))
        lineage = {"input": "replay", "config_hash": cfg.config_hash()}
        for slot in slots:
            counts["finalize.rows_in"] += slot.num_rows
            with tracer.span("stages.finalize"):
                out = finalize_group(slot, heavy, cfg)
            counts["finalize.rows_out"] += out.num_rows
            with tracer.span("state.manifest.write"):
                part_id = out.column("part_id")[0].as_py()
                salt = out.column("salt")[0].as_py()
                manifest_mod.write_partition(write_dir, part_id, salt, out, lineage=lineage,
                                             metrics=group_metrics(out))
            counts["manifest.partitions"] += 1
    counts["replay.wall_s"] = root[5] - root[4]
    # the root's own self time is exactly the time no named span covers
    selfs = tracer.self_times(root[0])
    counts["replay.covered_s"] = sum(selfs.get(name, 0.0) for name in REPLAY_SPANS)
    counts["replay.layer_s"] = sum(selfs.get(name, 0.0) for name in LAYER_SPANS)
    counts["manifest.bytes_written"] = sum(
        os.path.getsize(os.path.join(d, f)) for d, _s, fs in os.walk(write_dir) for f in fs
    )
    return dict(counts), heavy


def replay_metrics(tracer: Tracer, counts: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics named in BENCHMARK.json from one replay."""
    selfs = tracer.self_times()
    out = {
        "functions.keys.busy_s": tracer.busy("functions.keys"),
        "functions.extract.self_s": selfs.get("functions.extract", 0.0),
        "functions.sniff.busy_s": tracer.busy("functions.sniff"),
        "functions.sniff.rows": counts.get("sniff.rows", 0),
        "functions.textnorm.busy_s": tracer.busy("functions.textnorm"),
        "functions.textnorm.rows": counts.get("textnorm.rows", 0),
        "functions.textnorm.bytes_in": counts.get("textnorm.bytes_in", 0),
        "stages.finalize.busy_s": tracer.busy("stages.finalize"),
        "stages.finalize.rows_in": counts["finalize.rows_in"],
        "stages.finalize.dup_dropped": counts["finalize.rows_in"] - counts["finalize.rows_out"],
        "state.manifest.write_s": tracer.busy("state.manifest.write"),
        "state.manifest.partitions": counts["manifest.partitions"],
        "state.manifest.bytes_written": counts["manifest.bytes_written"],
        "trace.replay_wall_s": counts["replay.wall_s"],
        "trace.replay_self_frac": counts["replay.covered_s"] / counts["replay.wall_s"],
    }
    for layer in ("htmlx", "pdfx"):
        docs = counts.get(f"{layer}.docs", 0)
        out[f"functions.{layer}.busy_s"] = tracer.busy(f"functions.{layer}")
        out[f"functions.{layer}.docs"] = docs
        out[f"functions.{layer}.bytes_in"] = counts.get(f"{layer}.bytes_in", 0)
        out[f"functions.{layer}.fallback_frac"] = (
            counts.get(f"{layer}.fallback", 0) / docs if docs else 0.0
        )
    return out
