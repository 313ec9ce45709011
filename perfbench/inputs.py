"""Seeded, single-process inputs for the benchmark workloads.

Transcripts come from the fixture grammar's public generators
(``sources.fixtures.conv_rows``); the relational tables for the registry
workload are drawn here with TPC-H-like shapes and the column types of the
engine's testdata. Every input is a pure function of (workload, sizes,
seed, ``GEN_VERSION``) and is cached under the benchmark's work directory
with that key, so a repeated seed skips generation.
"""

from __future__ import annotations

import os
import shutil
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from pdf_toolkit_ray.sources import fixtures
from pdf_toolkit_ray.functions.sniff import sniff_kind_arrow

#: bump when any generator below changes; it is part of the cache key
GEN_VERSION = 3

TRANSCRIPT_SCHEMA = pa.schema(
    [
        ("conv_id", pa.string()),
        ("turn_idx", pa.int32()),
        ("role", pa.string()),
        ("text", pa.string()),
        ("tool", pa.string()),
        ("ts", pa.timestamp("us")),
    ]
)


def transcripts(seed: int, n_convs: int, n_heavy: int, mix: dict[str, int] | None) -> pa.Table:
    """Fixture-grammar conversations, shuffled by the seed. With ``mix``
    (payload kind -> turns), exactly that many seeded-random turns of each
    kind are kept (when the draw has that many), so every seed gives the
    same amount and kind of work."""
    prefix = fixtures.turn_prefix_counts(seed, n_convs, n_heavy)
    cols: dict[str, list] = {name: [] for name in TRANSCRIPT_SCHEMA.names}
    for k in range(n_convs):
        rows = fixtures.conv_rows(seed, k, n_convs, n_heavy, prefix)
        for name in cols:
            cols[name].extend(rows[name])
    tbl = pa.table(cols, schema=TRANSCRIPT_SCHEMA)
    rng = np.random.RandomState(seed)
    if mix is not None:
        kind = sniff_kind_arrow(tbl.column("text"))
        keep = [rng.permutation(np.flatnonzero(pc.equal(kind, k).to_numpy(zero_copy_only=False)))[:n]
                for k, n in sorted(mix.items())]
        tbl = tbl.take(pa.array(np.concatenate(keep)))
    return tbl.take(pa.array(rng.permutation(tbl.num_rows)))


def relational(seed: int, n_orders: int, n_customers: int, n_docs: int) -> dict[str, pa.Table]:
    """lineitem / orders / customer / documents with the testdata column
    types: money as 2-decimal doubles, ~10% exact-duplicate documents."""
    rng = np.random.RandomState(seed)
    day = np.timedelta64(1, "D")
    base = np.datetime64("1992-01-01", "us")

    custkey = np.arange(n_customers, dtype=np.int64)
    customer = pa.table(
        {
            "c_custkey": custkey,
            "c_name": [f"Customer#{k:09d}" for k in custkey],
            "c_nationkey": rng.randint(0, 25, n_customers).astype(np.int32),
            "c_acctbal": np.round(rng.uniform(-999.99, 9999.99, n_customers), 2),
            "c_mktsegment": rng.choice(
                ["AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY"], n_customers
            ),
        }
    )

    orderkey = np.arange(n_orders, dtype=np.int64)
    orderdate = base + rng.randint(0, 2400, n_orders) * day
    n_lines = rng.randint(1, 8, n_orders)
    l_orderkey = np.repeat(orderkey, n_lines)
    n_li = len(l_orderkey)
    l_linenumber = (np.arange(n_li) - np.repeat(np.cumsum(n_lines) - n_lines, n_lines) + 1)
    quantity = rng.randint(1, 51, n_li).astype(np.float64)
    extprice = np.round(quantity * np.round(rng.uniform(900.0, 2100.0, n_li), 2), 2)
    discount = rng.randint(0, 11, n_li) / 100.0
    tax = rng.randint(0, 9, n_li) / 100.0
    shipdate = np.repeat(orderdate, n_lines) + rng.randint(1, 122, n_li) * day
    cutoff = np.datetime64("1995-06-17", "us")
    returnflag = np.where(shipdate <= cutoff, rng.choice(["R", "A"], n_li), "N")
    linestatus = np.where(shipdate <= cutoff, "F", "O")
    lineitem = pa.table(
        {
            "l_orderkey": l_orderkey,
            "l_partkey": rng.randint(0, 2000, n_li).astype(np.int64),
            "l_suppkey": rng.randint(0, 100, n_li).astype(np.int64),
            "l_linenumber": l_linenumber.astype(np.int32),
            "l_quantity": quantity,
            "l_extendedprice": extprice,
            "l_discount": discount,
            "l_tax": tax,
            "l_returnflag": returnflag,
            "l_linestatus": linestatus,
            "l_shipdate": pa.array(shipdate, pa.timestamp("us")),
        }
    )

    cents = np.round(extprice * (1 - discount) * (1 + tax) * 100).astype(np.int64)
    totalprice = np.bincount(l_orderkey, weights=cents, minlength=n_orders) / 100.0
    orders = pa.table(
        {
            "o_orderkey": orderkey,
            "o_custkey": rng.randint(0, n_customers, n_orders).astype(np.int64),
            "o_orderstatus": rng.choice(["F", "O", "P"], n_orders),
            "o_totalprice": np.round(totalprice, 2),
            "o_orderdate": pa.array(orderdate, pa.timestamp("us")),
            "o_orderpriority": rng.choice(
                ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"], n_orders
            ),
        }
    )

    words = np.array(fixtures.WORDS)
    texts = [" ".join(rng.choice(words, rng.randint(5, 60))) for _ in range(n_docs)]
    for i in np.flatnonzero(rng.random_sample(n_docs) < 0.10):
        texts[i] = texts[rng.randint(0, n_docs)]
    documents = pa.table(
        {
            "doc_id": np.arange(n_docs, dtype=np.int64),
            "text": texts,
            "lang": rng.choice(["en", "de", "es", "fr", "zh"], n_docs),
            "source": [f"src{i % 7}" for i in range(n_docs)],
            "n_chars": np.array([len(t) for t in texts], dtype=np.int64),
        }
    )
    return {"lineitem": lineitem, "orders": orders, "customer": customer, "documents": documents}


def cached(cache_root: str, key: str, build) -> tuple[str, float]:
    """Directory holding ``build(dir)``'s files, built once per key, and the
    seconds spent building them in this call (0 on a cache hit).

    ``build`` writes parquet files (and anything else) into the directory
    it is given; a ``.done`` marker written last makes a half-built entry
    (an interrupted run) rebuild instead of being trusted."""
    path = os.path.join(cache_root, f"{key}-v{GEN_VERSION}")
    if os.path.exists(os.path.join(path, ".done")):
        return path, 0.0
    t0 = time.perf_counter()
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    build(path)
    with open(os.path.join(path, ".done"), "w") as fh:
        fh.write("ok\n")
    return path, time.perf_counter() - t0


def write_table(tbl: pa.Table, path: str) -> None:
    pq.write_table(tbl, path, row_group_size=65536)
