"""The workloads: input, expected output, one closed-loop step of work,
and verification of every output against an independent reference.

* ``extract_docs`` — ``run_extract_job`` over HTML and mini-PDF turns only
  (default config): the per-document kernels are its largest layer.
* ``extract_plain_skewed`` — ``run_extract_job`` over plain turns with heavy
  conversations salted into extra slots: exchange, finalize and write
  dominate.
* ``registry_ops`` — one pass over eight registry ops, each checked against
  its DuckDB twin.

Extraction outputs are checked by a sorted digest of the per-turn columns
against ``oracle.extract_table`` on the same input, computed at set-up.
The loop reads each output back without Ray, so that a step is the job
itself; ``read_extracted`` is timed in the traced run.
"""

from __future__ import annotations

import dataclasses
import glob
import hashlib
import os
import shutil
import time
from contextlib import nullcontext

import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray

from pdf_toolkit_ray.config import ExtractConfig
from pdf_toolkit_ray.functions.sniff import sniff_kind_arrow
from pdf_toolkit_ray.oracle import extract_table, heavy_convs
from pdf_toolkit_ray.pipelines.extract import run_extract_job
from pdf_toolkit_ray.stages.exchange import exchange_slots
from pdf_toolkit_ray.state.manifest import load_manifest
from tools.check_queries import canon, to_pandas

from . import inputs

DIGEST_COLUMNS = ("conv_id", "turn_idx", "kind", "extracted_text", "used_fallback",
                  "conv_n_turns", "is_final_turn", "prev_role")


@dataclasses.dataclass
class Job:
    """One closed-loop step: its wall time, turns committed, whether its
    output verified, and the job's own phase times."""
    wall_s: float
    rows: int
    ok: bool
    phase: dict | None = None


def digest(tbl: pa.Table) -> tuple[str, int]:
    t = tbl.select(list(DIGEST_COLUMNS)).sort_by([("conv_id", "ascending"),
                                                  ("turn_idx", "ascending")])
    h = hashlib.sha256()
    for name in DIGEST_COLUMNS:
        h.update(repr(t.column(name).to_pylist()).encode())
    return h.hexdigest(), t.num_rows


def _span(tracer, name: str):
    return tracer.span(name) if tracer is not None else nullcontext()


def read_all(ds) -> pa.Table:
    return pa.concat_tables(ray.get(ds.to_arrow_refs()))


def read_committed(out_dir: str) -> pa.Table:
    """Every committed partition (one whose manifest is written) of a job
    output, generations included, read in this process without Ray."""
    paths = sorted(glob.glob(os.path.join(out_dir, "part-*", "data.parquet"))
                   + glob.glob(os.path.join(out_dir, "gen-*", "part-*", "data.parquet")))
    return pa.concat_tables([pq.read_table(p) for p in paths
                             if load_manifest(os.path.dirname(p)) is not None])


def _corrupt_first_partition(out_dir: str) -> None:
    """Flip one extracted text in a committed partition (verification test)."""
    for root, _dirs, files in sorted(os.walk(out_dir)):
        if "data.parquet" in files:
            path = os.path.join(root, "data.parquet")
            tbl = pq.read_table(path)
            col = tbl.schema.get_field_index("extracted_text")
            texts = tbl.column(col).to_pylist()
            texts[0] = (texts[0] or "") + " corrupted"
            tbl = tbl.set_column(col, tbl.field(col), pa.array(texts, tbl.field(col).type))
            pq.write_table(tbl, path)
            return


class Workload:
    name = ""
    commits_turns = True

    def __init__(self, seed: int, scale: str, work: str, corrupt: bool = False) -> None:
        self.seed = seed
        self.scale = scale
        self.work = work
        self.corrupt = corrupt
        self.cfg = ExtractConfig()
        self.descriptor: dict = {}
        # seconds this run spent generating inputs that were not yet cached
        self.gen_s = 0.0

    def prepare(self) -> None:
        """Build or load the input and compute the expected output (no Ray);
        time spent generating an uncached input goes into ``gen_s``."""
        raise NotImplementedError

    def run_job(self, tracer=None) -> Job:
        raise NotImplementedError

    def replay_input(self) -> str:
        """Parquet input of one extract job, for the Ray-free replay."""
        raise NotImplementedError

    def _out(self, tag: str) -> str:
        path = os.path.join(self.work, "out", tag)
        shutil.rmtree(path, ignore_errors=True)
        return path


def _describe(tbl: pa.Table, expected: pa.Table, cfg: ExtractConfig) -> dict:
    kinds = pc.value_counts(sniff_kind_arrow(tbl.column("text"))).to_pylist()
    heavy = heavy_convs(tbl, cfg)
    return {
        "turns": tbl.num_rows,
        "bytes": int(pc.sum(pc.binary_length(tbl.column("text"))).as_py()),
        "kind_mix": {k["values"]: k["counts"] for k in kinds},
        "dup_rate": round(1 - expected.num_rows / tbl.num_rows, 6),
        "heavy_convs": len(heavy),
        "slots": len(exchange_slots(cfg, heavy)),
        "partitions": len(set(zip(expected.column("part_id").to_pylist(),
                                  expected.column("salt").to_pylist()))),
    }


class ExtractJob(Workload):
    """One ``run_extract_job`` per step, read back and digested."""

    # scale -> (conversations, heavy conversations, {payload kind: turns kept})
    sizes: dict = {}

    def configure(self, tbl: pa.Table) -> ExtractConfig:
        """The job's config for this input."""
        return self.cfg

    def prepare(self) -> None:
        n_convs, n_heavy, mix = self.sizes[self.scale]

        def build(path: str) -> None:
            tbl = inputs.transcripts(self.seed, n_convs, n_heavy, mix)
            inputs.write_table(tbl, os.path.join(path, "input.parquet"))

        turns = "+".join(f"{n}{k}" for k, n in sorted(mix.items())) if mix else "all"
        key = f"{self.name}-{n_convs}x{n_heavy}x{turns}-s{self.seed}"
        d, self.gen_s = inputs.cached(os.path.join(self.work, "inputs"), key, build)
        self.input = os.path.join(d, "input.parquet")
        tbl = pq.read_table(self.input)
        self.cfg = self.configure(tbl)
        expected = extract_table(tbl, self.cfg)
        self.expected = digest(expected)
        self.descriptor = _describe(tbl, expected, self.cfg)
        self.n = 0

    def replay_input(self) -> str:
        return self.input

    def run_job(self, tracer=None) -> Job:
        out = self._out(f"job-{self.n % 2}")
        self.n += 1
        t0 = time.perf_counter()
        with _span(tracer, "pipelines.run_extract_job"):
            summary = run_extract_job(self.input, out, self.cfg, resume=False)
        wall = time.perf_counter() - t0
        if self.corrupt:
            _corrupt_first_partition(out)
        self.last_out = out
        return Job(wall, int(summary["rows_written"]),
                   digest(read_committed(out)) == self.expected, summary["phase_sec"])


class ExtractDocs(ExtractJob):
    name = "extract_docs"
    sizes = {"full": (2400, 0, {"html": 4750, "pdf": 3250}),
             "toy": (120, 0, {"html": 180, "pdf": 120})}


class ExtractPlainSkewed(ExtractJob):
    """Heavy conversations are those above ``SALT_THRESHOLD`` turns. Their
    lengths differ from seed to seed, so ``salt_width`` is chosen per input
    to give every seed the same number of exchange slots, and with it the
    same number of partitions to finalize and write."""

    name = "extract_plain_skewed"
    sizes = {"full": (1400, 30, {"plain": 12000}), "toy": (100, 4, None)}
    SALT_THRESHOLD = 150
    # scale -> exchange slots (64 unsalted, the rest salted)
    SLOTS = {"full": 192, "toy": 72}

    def configure(self, tbl: pa.Table) -> ExtractConfig:
        heavy = heavy_convs(tbl, ExtractConfig(salt_threshold=self.SALT_THRESHOLD))

        def cfg(width: int) -> ExtractConfig:
            return ExtractConfig(salt_threshold=self.SALT_THRESHOLD, salt_width=width)

        target = self.SLOTS[self.scale]
        width = min(range(20, 401),
                    key=lambda w: (abs(len(exchange_slots(cfg(w), heavy)) - target), w))
        return cfg(width)


REGISTRY_OPS = (
    "q1_pricing_summary",
    "join_orders_customer_top",
    "q18_large_volume_orders",
    "global_rank_orders",
    "dedup_exact_documents",
    "dedup_conv_exact_transcripts",
    "tool_latency_transcripts",
    "curate_conversations_transcripts",
)
REL_TABLES = ("lineitem", "orders", "customer", "documents")


def same_result(got: pd.DataFrame, want: pd.DataFrame) -> bool:
    if sorted(got.columns) != list(want.columns) or len(got) != len(want):
        return False
    try:
        pd.testing.assert_frame_equal(canon(got), want, check_dtype=False, check_exact=True)
    except AssertionError:
        return False
    return True


def use_fixture_dir(base_dir: str) -> None:
    """Point the registry's transcript fixtures at ``base_dir``.

    The transcript ops locate their (fixed-seed) fixture through
    ``transcripts_path_for`` / ``convdup_path_for``, whose cache directory
    is a default argument; the benchmark keeps that cache inside its own
    work directory."""
    from pdf_toolkit_ray.sources import fixtures

    fixtures.transcripts_path_for.__defaults__ = (base_dir, 42, None)
    fixtures.convdup_path_for.__defaults__ = (base_dir, 42)


class RegistryOps(Workload):
    """One pass over ``REGISTRY_OPS`` per step, each result checked against
    its DuckDB twin's answer computed at set-up."""

    name = "registry_ops"
    commits_turns = False
    # scale -> (orders, customers, documents)
    sizes = {"full": (15000, 1500, 5000), "toy": (1500, 150, 500)}

    def prepare(self) -> None:
        import duckdb

        from pdf_toolkit_ray.queries import LAZY_SQL, REGISTRY
        from pdf_toolkit_ray.sources.fixtures import convdup_path_for, transcripts_path_for

        n_orders, n_customers, n_docs = self.sizes[self.scale]

        def build(path: str) -> None:
            tables = inputs.relational(self.seed, n_orders, n_customers, n_docs)
            for name, tbl in tables.items():
                inputs.write_table(tbl, os.path.join(path, f"{name}.parquet"))

        # the directory's name maps to the registry's "correctness" fixtures
        key = f"registry-{n_orders}x{n_customers}x{n_docs}-s{self.seed}"
        self.sf_dir, self.gen_s = inputs.cached(os.path.join(self.work, "inputs"), key, build)
        use_fixture_dir(os.path.join(self.work, "fixtures"))
        t0 = time.perf_counter()
        fixture_paths = [transcripts_path_for("correctness"), convdup_path_for("correctness")]
        self.gen_s += time.perf_counter() - t0
        con = duckdb.connect()
        for name in REL_TABLES:
            con.execute(f"CREATE VIEW {name} AS SELECT * FROM "
                        f"read_parquet('{self.sf_dir}/{name}.parquet')")
        self.fns, self.expected = {}, {}
        for op in REGISTRY_OPS:
            fn, sql = REGISTRY[op]
            self.fns[op] = fn
            self.expected[op] = canon(con.execute(sql or LAZY_SQL[op](self.sf_dir)).df())
        con.close()
        self.inputs = [os.path.join(self.sf_dir, f"{t}.parquet")
                       for t in REL_TABLES] + fixture_paths
        rows = {os.path.basename(p): pq.ParquetFile(p).metadata.num_rows for p in self.inputs}
        self.descriptor = {"rows": rows, "bytes": sum(os.path.getsize(p) for p in self.inputs),
                           "ops": len(REGISTRY_OPS)}

    def replay_input(self) -> str:
        # the transcripts fixture the registry's transcript ops read
        return self.inputs[len(REL_TABLES)]

    def run_job(self, tracer=None) -> Job:
        t0 = time.perf_counter()
        results = {}
        for op in REGISTRY_OPS:
            with _span(tracer, f"queries.{op}"):
                results[op] = to_pandas(self.fns[op](self.sf_dir))
        wall = time.perf_counter() - t0
        if self.corrupt:
            first = results[REGISTRY_OPS[0]]
            first.iloc[0, 0] = "corrupted"
        ok = all(same_result(got, self.expected[op]) for op, got in results.items())
        return Job(wall, 0, ok)


WORKLOADS = {w.name: w for w in (ExtractDocs, ExtractPlainSkewed, RegistryOps)}
