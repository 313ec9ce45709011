"""Benchmark of the pdf_toolkit_ray engine: one workload per invocation.

    python3 perfbench/run.py --workload extract_docs --seed 1 --seconds 35 --trace 0

Run from the repository root. The run builds the workload's input from the
seed (cached under ``.perfbench_work/``), computes the expected output
without Ray, starts Ray with ``num_cpus = nproc`` from this single driver
process, runs one untimed warm-up job and then a closed loop of jobs, one
after another, for ``--seconds``. Every job's output is verified. Before
the first job and after each one a fixed reference workload is timed
(``perfbench/reference.py``); job time and throughput are reported in
units of it, which cancels the drift of the host's speed.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json; ``--trace 1``
prints the per-layer metrics: spans around each public call in the loop
(every other job runs untraced, so the tracing overhead shows), a Ray-free
replay of the input through the per-batch functions before Ray starts, and
timed probes of the exchange, the manifest scan and any layer the
workload's own loop does not run. The spans are written to
``.perfbench_work/trace/``.

The last line of standard output is the result:
``{"correct", "attempted", "failed", "metrics"}``; the line before it
records the environment and the workload's input.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import traceback  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, ".perfbench_work")
# AF_UNIX socket paths under Ray's session dir must stay below 108 bytes
RAY_TMP = os.path.join(WORK, "ray") if len(WORK) <= 40 else None


def _descendants(pid: int) -> set[int]:
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                ppid = int(fh.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        children.setdefault(ppid, []).append(int(entry))
    out, todo = set(), [pid]
    while todo:
        for child in children.get(todo.pop(), []):
            if child not in out:
                out.add(child)
                todo.append(child)
    return out


def _rss_bytes(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/statm") as fh:
            return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")
    except (OSError, IndexError, ValueError):
        return 0


class RssSampler(threading.Thread):
    """Peak summed RSS of this process and every process it started."""

    def __init__(self, period_s: float = 0.25) -> None:
        super().__init__(daemon=True)
        self.period_s = period_s
        self.peak = 0
        self._halt = threading.Event()

    def run(self) -> None:
        me = os.getpid()
        pids, rescan = {me}, 0.0
        while not self._halt.is_set():
            now = time.monotonic()
            if now >= rescan:
                pids, rescan = {me} | _descendants(me), now + 2.0
            self.peak = max(self.peak, sum(_rss_bytes(p) for p in pids))
            self._halt.wait(self.period_s)

    def stop(self) -> int:
        self._halt.set()
        self.join()
        return self.peak


def _median(xs):
    return float(statistics.median(xs))


def _tail(xs: list[float]) -> tuple[float | None, int]:
    """Highest percentile with at least ten samples above it."""
    n = len(xs)
    if n < 20:
        return None, n
    k = n - 10  # samples at or below the percentile
    return float(sorted(xs)[k - 1]), n


def nproc() -> int:
    """CPUs as ``nproc`` reports them (it honours OMP_NUM_THREADS)."""
    import subprocess

    return int(subprocess.run(["nproc"], capture_output=True, text=True, check=True).stdout)


def start_ray():
    import ray

    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p)
    ray.init(num_cpus=nproc(), include_dashboard=False,
             log_to_driver=False, logging_level="ERROR", _temp_dir=RAY_TMP,
             object_store_memory=512 << 20)
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    return ray


def _reap() -> None:
    """Collect every child that has exited (Ray leaves some unreaped)."""
    try:
        while os.waitpid(-1, os.WNOHANG)[0]:
            pass
    except ChildProcessError:
        pass


def stop_ray(ray) -> None:
    """Shut Ray down and wait until every process this run started is gone;
    SIGKILL what is still there after 10 s."""
    import signal

    ray.shutdown()
    t0 = time.monotonic()
    killed = False
    while True:
        _reap()
        left = _descendants(os.getpid())
        if not left or time.monotonic() - t0 > 20:
            break
        if not killed and time.monotonic() - t0 > 10:
            for pid in left:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            killed = True
        time.sleep(0.1)
    if RAY_TMP:
        shutil.rmtree(RAY_TMP, ignore_errors=True)


def environment(ray) -> dict:
    import pyarrow

    res = ray.cluster_resources()
    return {"nproc": nproc(), "cpus_usable": len(os.sched_getaffinity(0)),
            "ray_num_cpus": res.get("CPU"),
            "object_store_bytes": res.get("object_store_memory"),
            "ray": ray.__version__, "pyarrow": pyarrow.__version__,
            "python": sys.version.split()[0]}


def end_to_end(jobs, setup_s: float, peak_rss: int, commits_turns: bool, ref_s: float) -> dict:
    """Job time and throughput are in units of ``ref_s``, the median time of
    one reference pass in this run (see ``perfbench/reference.py``)."""
    out = {
        "setup_s": setup_s,
        "job_ref_p50": _median([j.wall_s for j in jobs]) / ref_s,
        "peak_rss_mb": peak_rss / 2**20,
    }
    if commits_turns:
        out["turns_per_ref"] = _median([j.rows / j.wall_s for j in jobs]) * ref_s
    return out


#: per-layer times whose share of the median job wall the traced run reports
SHARE_OF_JOB = ("functions.htmlx.busy_s", "functions.pdfx.busy_s", "functions.textnorm.busy_s",
                "stages.exchange.busy_s", "stages.finalize.busy_s", "state.manifest.write_s",
                "pipelines.extract.map_split_s", "pipelines.extract.reduce_write_s",
                "ray.overhead_s")


def per_layer(wl, tracer, replay_counts, heavy, jobs_traced, jobs_plain, ray):
    """Per-layer metrics: replay, loop spans, and probes for the rest.

    Returns the metrics, the verified probe jobs (they count as attempted),
    and each of ``SHARE_OF_JOB`` as a share of the median extract job wall."""
    from pdf_toolkit_ray.pipelines.extract import (
        compute_heavy, read_extracted, read_transcripts, run_extract_job, run_validate_job)
    from pdf_toolkit_ray.stages.exchange import mr_exchange
    from pdf_toolkit_ray.stages.extract_stage import add_keys_batch
    from pdf_toolkit_ray.functions.extract import extract_batch
    from pdf_toolkit_ray.state.manifest import completed_partitions

    from perfbench import trace, workloads

    m = trace.replay_metrics(tracer, replay_counts)
    cfg, path = wl.cfg, wl.replay_input()

    # manifest scan over the replay's committed partitions
    scans = []
    for _ in range(5):
        t0 = time.perf_counter()
        completed_partitions(os.path.join(WORK, "replay"), cfg.config_hash())
        scans.append(time.perf_counter() - t0)
    m["state.manifest.scan_s"] = _median(scans)

    # exchange over a materialized extracted dataset, row-count finalize
    ds = (read_transcripts(path)
          .map_batches(add_keys_batch, fn_args=(cfg, heavy), batch_format="pyarrow",
                       batch_size=cfg.batch_size, zero_copy_batch=True)
          .map_batches(extract_batch, fn_args=(cfg,), batch_format="pyarrow",
                       batch_size=cfg.batch_size, zero_copy_batch=True)
          .materialize())
    n_blocks = ds.num_blocks()
    t0 = time.perf_counter()
    with tracer.span("stages.exchange"), trace.counted_shards() as shards:
        rows = ray.get(mr_exchange(ds, cfg, heavy, len, est_blocks=n_blocks))
    m["stages.exchange.busy_s"] = time.perf_counter() - t0
    m["stages.exchange.slots"] = len(rows)
    m["stages.exchange.shard_objects"] = shards[0]
    m["stages.exchange.slot_skew"] = max(rows) / max(1.0, _median(rows))
    del ds

    # extract phases: the loop's own jobs, or a probe job on the replay input
    phase_jobs = [j.phase for j in jobs_traced + jobs_plain if j.phase]
    if phase_jobs:
        walls = [j.wall_s for j in jobs_plain]
        out = wl.last_out
    else:
        out = os.path.join(WORK, "out", "probe")
        phase_jobs, walls = [], []
        for _ in range(3):
            shutil.rmtree(out, ignore_errors=True)
            t0 = time.perf_counter()
            summary = run_extract_job(path, out, cfg, resume=False)
            walls.append(time.perf_counter() - t0)
            phase_jobs.append(summary["phase_sec"])
        phase_jobs, walls = phase_jobs[1:], walls[1:]
    for key in ("map_split", "reduce_write"):
        m[f"pipelines.extract.{key}_s"] = statistics.fmean(j[key] for j in phase_jobs)
    # the job rounds phase_sec to ms; the footer-only heavy pass is timed here
    heavy_passes = []
    for _ in range(3):
        t0 = time.perf_counter()
        compute_heavy(path, cfg)
        heavy_passes.append(time.perf_counter() - t0)
    m["pipelines.extract.heavy_pass_s"] = _median(heavy_passes)
    for _ in range(3):
        with tracer.span("pipelines.run_validate_job"):
            run_validate_job(out)
    m["pipelines.extract.validate_s"] = _median(tracer.durations("pipelines.run_validate_job"))
    readbacks = []
    for _ in range(3):
        t0 = time.perf_counter()
        with tracer.span("pipelines.read_extracted"):
            workloads.read_all(read_extracted(out))
        readbacks.append(time.perf_counter() - t0)
    m["pipelines.extract.readback_s"] = _median(readbacks)
    m["ray.overhead_s"] = _median(walls) - replay_counts["replay.layer_s"]

    # registry ops: the loop's own passes, or probe passes over seeded tables
    probes = []
    if not isinstance(wl, workloads.RegistryOps):
        probe = workloads.RegistryOps(wl.seed, wl.scale, WORK)
        probe.prepare()
        probes = [probe.run_job(), probe.run_job(tracer)]
    for op in workloads.REGISTRY_OPS:
        m[f"queries.{op}.s"] = _median(tracer.durations(f"queries.{op}"))

    if jobs_traced and jobs_plain:
        m["trace.overhead_s"] = (_median([j.wall_s for j in jobs_traced])
                                 - _median([j.wall_s for j in jobs_plain]))
    shares = {k: round(m[k] / _median(walls), 4) for k in SHARE_OF_JOB}
    return m, probes, shares


def attempt(wl, tracer=None):
    """One loop step; a step that raises is attempted, failed and timed."""
    from perfbench.workloads import Job

    t0 = time.perf_counter()
    try:
        return wl.run_job(tracer)
    except Exception:
        traceback.print_exc()
        return Job(time.perf_counter() - t0, 0, False)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "toy"), default="full",
                    help="input size; toy is for the smoke test")
    ap.add_argument("--corrupt", action="store_true",
                    help="damage each output before it is verified (tests verification)")
    args = ap.parse_args(argv)

    # keep stdout for the two result lines; library chatter goes to stderr
    result_out = os.fdopen(os.dup(1), "w")
    os.dup2(2, 1)

    # the session (this process and every process Ray starts) runs on
    # nproc cores of the allowed set
    os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[-nproc():])
    sys.path.insert(0, ROOT)
    os.environ.setdefault("RAY_USAGE_STATS_ENABLED", "0")
    os.makedirs(os.path.join(WORK, "tmp"), exist_ok=True)
    os.environ["TMPDIR"] = os.path.join(WORK, "tmp")
    from perfbench import trace, workloads
    from perfbench.reference import reference_times

    setup = {"imports_s": time.perf_counter() - T_START}
    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload](args.seed, args.scale, WORK, corrupt=args.corrupt)
    t0 = time.perf_counter()
    wl.prepare()
    # a seed's input is generated once, then cached; generation is left out
    # of setup_s so that every run's set-up is the same cache load
    setup["input_gen_s"] = wl.gen_s
    setup["prepare_s"] = time.perf_counter() - t0 - wl.gen_s

    tracer = trace.Tracer()
    if args.trace:
        replay_counts, heavy = trace.replay(tracer, wl.replay_input(), wl.cfg,
                                            os.path.join(WORK, "replay"))

    t0 = time.perf_counter()
    ray = start_ray()
    setup["ray_init_s"] = time.perf_counter() - t0
    try:
        env = environment(ray)
        t0 = time.perf_counter()
        warm = attempt(wl)
        setup["warmup_s"] = time.perf_counter() - t0
        setup_s = time.perf_counter() - T_START - wl.gen_s
        jobs_plain, jobs_traced = [], []
        sampler = RssSampler()
        sampler.start()
        deadline = time.perf_counter() + args.seconds
        ref_dir = os.path.join(WORK, "reference")
        passes = reference_times(ref_dir)
        while (time.perf_counter() < deadline or not jobs_plain
               or (args.trace and not jobs_traced)):
            if args.trace and len(jobs_traced) < len(jobs_plain):
                tracer.job += 1
                jobs_traced.append(attempt(wl, tracer))
            else:
                jobs_plain.append(attempt(wl))
            passes += reference_times(ref_dir)
        peak_rss = sampler.stop()
        ref_s = _median(passes)
        jobs = [warm] + jobs_plain + jobs_traced
        if args.trace:
            values, probes, shares = per_layer(wl, tracer, replay_counts, heavy,
                                               jobs_traced, jobs_plain, ray)
            jobs += probes
        else:
            values = end_to_end(jobs_plain, setup_s, peak_rss, wl.commits_turns, ref_s)
        failed = sum(not j.ok for j in jobs)
        plain_walls = [j.wall_s for j in jobs_plain]
        tail, n = _tail(plain_walls)
        info = {"workload": args.workload, "seed": args.seed, "scale": args.scale,
                "environment": env, "input": wl.descriptor,
                "setup": {k: round(v, 4) for k, v in setup.items()},
                "job_s_p50": _median(plain_walls), "job_n": n, "job_s_tail": tail,
                "ref_s": ref_s, "ref_n": len(passes), "failed_frac": failed / len(jobs),
                "job_s": [round(w, 4) for w in plain_walls]}
        if wl.commits_turns:
            info["turns_per_s"] = _median([j.rows / j.wall_s for j in jobs_plain])
        if args.trace:
            info["share_of_job"] = shares
    finally:
        stop_ray(ray)
    if args.trace:
        os.makedirs(os.path.join(WORK, "trace"), exist_ok=True)
        tracer.write(os.path.join(WORK, "trace", f"{args.workload}-s{args.seed}.jsonl"))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    result = {
        "correct": failed == 0,
        "attempted": len(jobs),
        "failed": failed,
        # registry_ops, outside BENCHMARK.json, commits no turns
        "metrics": {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
                    for m in spec if m["name"] in values},
    }
    result_out.write(json.dumps({"info": info}) + "\n")
    result_out.write(json.dumps(result) + "\n")
    result_out.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
