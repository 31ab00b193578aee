"""hkdd benchmark: closed-loop CLI jobs with oracle checks.

    python3 perfbench/run.py --workload spectra --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout. One client runs one job at a time;
a job is one ``hkdd.cli.main(argv)`` call in a fresh child forked from a
server that imported ``hkdd.cli`` once, so no in-process cache survives from
one job to the next, as for a user who runs the CLI. The job is timed inside
the child around ``main`` and scaled by the reference kernel timed in the
same child before, during and after it (``reference.py``); oracle checks
run after the timed loop.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones: the baseline probes, then each job run untraced and traced in turn,
the traced self times per function and the tracing overhead. The last line
of stdout is one JSON object; the lines before it give the job-list hash,
the provenance and every metric with its unit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

PINNED_THREADS = {v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}
os.environ.update(PINNED_THREADS)  # before the oracle imports numpy

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import oracle  # noqa: E402
import reference  # noqa: E402
import tracing  # noqa: E402

# A run is a fixed number of jobs, --seconds times this rate, so every run
# of a seed measures the same prefix of its job list, however fast the host
# or the program. The rates give about --seconds of job time on the 2-core
# host the benchmark was tuned on.
JOBS_PER_SECOND = {"spectra": 1.2, "catalogue": 1.0, "certify": 7.5}
# A run stops early, on a much slower host or program, only after this many
# times --seconds, twice that for a traced run, which runs each job twice.
DEADLINE_FACTOR = 1.4
JOB_LIMIT_S = 30
SETUP_RUNS = 7


def percentile(values: list[float], pct: float) -> float:
    """Linear interpolation between closest ranks; failures are +inf."""
    xs = sorted(values)
    pos = (len(xs) - 1) * pct / 100
    lo, hi = math.floor(pos), math.ceil(pos)
    if math.isinf(xs[hi]):
        return math.inf
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(n_jobs: int) -> int:
    """The highest percentile, in steps of 5, with at least ten of n_jobs
    beyond it; 50 if there is none. At --seconds 30 it is p70 for spectra
    (36 jobs), p65 for catalogue (30) and p95 for certify (225)."""
    return max([p for p in range(50, 100, 5) if n_jobs - 1 - math.floor((n_jobs - 1) * p / 100) >= 10],
               default=50)


def measure_setup(env: dict) -> tuple[float, float]:
    """Median time for a fresh interpreter to import hkdd.cli, scaled by the
    reference kernel timed in the same interpreter, and the median wall
    time. One warm-up import first writes the bytecode cache, as any
    installed copy has."""
    code = (f"import sys, time; sys.path.insert(0, {str(HERE)!r}); import reference; r = reference.seconds(); "
            "t = time.perf_counter(); import hkdd.cli; s = time.perf_counter() - t; "
            "print(s, (r + reference.seconds()) / 2)")
    scaled, wall = [], []
    for i in range(SETUP_RUNS + 1):
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True,
                             timeout=120)
        s, ref_s = (float(x) for x in out.stdout.split())
        if i:
            scaled.append(s * reference.NOMINAL_S / ref_s)
            wall.append(s)
    return statistics.median(scaled), statistics.median(wall)


def scaled_s(reply: dict) -> float:
    """The job's time on a host where the reference kernel takes NOMINAL_S."""
    return reply["job_s"] * reference.NOMINAL_S / reply["ref_s"]


class ForkServer:
    def __init__(self, env: dict, trace: bool):
        argv = [sys.executable, str(HERE / "zygote.py")] + (["--trace"] if trace else [])
        self.proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, text=True)

    def run(self, request: dict) -> dict:
        self.proc.stdin.write(json.dumps(dict(request, limit_s=JOB_LIMIT_S)) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the fork server exited")
        return json.loads(line)

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=JOB_LIMIT_S + 5)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def provenance(root: Path, workload: str, seed: int, digest: str) -> dict:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10,
                                env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent)),
                                ).stdout.strip() or "unknown (not a git checkout)"
    except OSError:
        commit = "unknown (git not found)"
    src = hashlib.sha256()
    for path in sorted((root / "src" / "hkdd").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            src.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return {"workload": workload, "seed": seed, "job_list_hash": digest, "nproc": os.cpu_count(),
            "python": platform.python_version(), "hkdd_commit": commit, "hkdd_src_sha256": src.hexdigest()[:16],
            "pinned": PINNED_THREADS}


def run_loop(servers: list[ForkServer], jobs: list[dict], workdir: Path, deadline_s: float, t_start: float):
    """Run the jobs in list order on every server, stopping early only once
    `deadline_s` have passed, after at least one job."""
    records = []
    for job in jobs:
        if records and time.perf_counter() - t_start >= deadline_s:
            print(f"deadline: stopped after {len(records)} of {len(jobs)} jobs", file=sys.stderr)
            break
        argv = [a.replace("{dir}", str(workdir)) for a in job["argv"]]
        records.append((job, [s.run({"argv": argv}) for s in servers]))
    return records


def tolerated(job: dict, reply: dict) -> bool:
    """The one known failure, ROADMAP item 3: the float overflow in
    degree_spectrum on large Kummer spectra. It counts as failed but not as
    wrong; every other crash, time-out or wrong answer makes the run wrong."""
    return job["kind"] == "kummer" and (reply["error"] or "").startswith("OverflowError")


def end_to_end(plain: list[dict], reasons: list, setup_s: float, tail_pct: int) -> dict:
    """Times are scaled to the nominal host speed (see reference.py)."""
    times = [scaled_s(r) if why is None else math.inf for r, why in zip(plain, reasons)]
    ok = reasons.count(None)
    busy = sum(JOB_LIMIT_S if r["job_s"] is None else scaled_s(r) for r in plain)
    return {
        "setup_s": (setup_s, "s"),
        "job_p50_s": (min(percentile(times, 50), JOB_LIMIT_S), "s"),
        "job_tail_s": (min(percentile(times, tail_pct), JOB_LIMIT_S), "s"),
        "jobs_per_s": (ok / busy, "1/s"),
        "ok_ratio": (ok / len(plain), "ratio"),
        "peak_rss_mb": (max(r["maxrss_kb"] for r in plain) / 1024, "MB"),
    }


def wall_clock(plain: list[dict], reasons: list, setup_wall_s: float) -> dict:
    """The unscaled wall times and the host speed, printed for reference."""
    times = [r["job_s"] if why is None else math.inf for r, why in zip(plain, reasons)]
    refs = [r["ref_s"] for r in plain if r["job_s"] is not None]
    return {
        "wall.setup_s": (setup_wall_s, "s"),
        "wall.job_p50_s": (percentile(times, 50), "s"),
        "wall.busy_s": (sum(r["job_s"] or JOB_LIMIT_S for r in plain), "s"),
        "host.reference_s": (statistics.median(refs) if refs else math.nan, "s"),
    }


def per_layer(records, probe_s: dict) -> dict:
    traces = [rs[1]["trace"] for _, rs in records]
    n = len(traces)
    total = {key: sum(t[key] for t in traces) for key in traces[0]}
    names = tracing.span_names()
    plain_s = sum(scaled_s(rs[0]) if rs[0]["job_s"] else JOB_LIMIT_S for _, rs in records)
    traced_s = sum(scaled_s(rs[1]) if rs[1]["job_s"] else JOB_LIMIT_S for _, rs in records)
    traced_wall_s = sum(rs[1]["job_s"] or JOB_LIMIT_S for _, rs in records)
    out = {}
    for name in names:
        out[f"{name}.calls"] = (total[f"{name}.calls"] / n, "count")
        out[f"{name}.self_s"] = (total[f"{name}.self_s"] / n, "s")
    out["polynomial.refined.bits"] = (total["polynomial.refined.bits"] / n, "bits")
    out["polynomial.divide_exact.fail_ratio"] = (
        total["polynomial.divide_exact.fails"] / max(1, total["polynomial.divide_exact.calls"]), "ratio")
    out["salem.classify_charpoly.distinct_ratio"] = (
        total["salem.classify_charpoly.distinct"] / max(1, total["salem.classify_charpoly.calls"]), "ratio")
    for key in ("dynamics.enumerate_isometries.vectors_scanned", "dynamics.enumerate_isometries.found",
                "lattice.represents.vectors_scanned"):
        out[key] = (total[key] / n, "count")
    out["trace.jobs"] = (n, "count")
    out["trace.overhead"] = (traced_s / plain_s, "ratio")
    # the self times of all spans add up to the cli.main spans, so coverage
    # leaves cli.main out: work in a function that is not wrapped lowers it
    layers_s = sum(total[f"{name}.self_s"] for name in names if name != "cli.main")
    out["trace.coverage"] = (layers_s / traced_wall_s, "ratio")
    out["trace.cli_main_share"] = (total["cli.main.self_s"] / traced_wall_s, "ratio")
    for name, secs in probe_s.items():
        out[f"probe.{name}_s"] = (secs, "s")
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))  # so the cleanup below runs

    root = Path.cwd()
    if not (root / "src" / "hkdd" / "cli.py").is_file():
        print(f"no hkdd sources under {root / 'src'}; run from the root of a checkout", file=sys.stderr)
        return 2
    env = dict(os.environ)  # with the pinned thread counts set above
    env.pop("HKDD_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)

    oracle.check_inputs()
    n_jobs = max(1, round(args.seconds * JOBS_PER_SECOND[args.workload]))
    files, jobs = inputs.build(args.workload, args.seed, n_jobs)
    digest = inputs.job_list_hash(files, jobs)
    print(f"job list hash: {digest}")
    print("provenance: " + json.dumps(provenance(root, args.workload, args.seed, digest), sort_keys=True))

    workdir = root / ".perfbench_work" / str(os.getpid())
    workdir.mkdir(parents=True)
    servers: list[ForkServer] = []
    try:
        for name, obj in files.items():
            (workdir / name).write_text(obj if isinstance(obj, str) else json.dumps(obj))
        setup_s, setup_wall_s = measure_setup(env)
        servers = [ForkServer(env, trace=False)] + ([ForkServer(env, trace=True)] if args.trace else [])
        t_start = time.perf_counter()
        probe_s = {}
        if args.trace:
            sys.path.insert(0, str(root / "src"))
            import probes

            for name in probes.PROBES:
                probe_s[name] = servers[0].run({"probe": name})["job_s"]
        deadline_s = args.seconds * DEADLINE_FACTOR * (2 if args.trace else 1)
        records = run_loop(servers, jobs, workdir, deadline_s, t_start)
    finally:
        for s in servers:
            s.close()
        shutil.rmtree(workdir, ignore_errors=True)
        if workdir.parent.is_dir() and not any(workdir.parent.iterdir()):
            workdir.parent.rmdir()

    checker = oracle.Oracle(files)
    first_stdout: dict[tuple, str] = {}
    reasons, wrong = [], 0
    for job, replies in records:
        whys = []
        for reply in replies:
            why = checker.check(job, reply)
            if why is None and first_stdout.setdefault(tuple(job["argv"]), reply["stdout"]) != reply["stdout"]:
                why = "output differs from an earlier run of the same job"
            if why is not None:
                wrong += not tolerated(job, reply)
                print(f"FAILED {' '.join(job['argv'])}: {why}", file=sys.stderr)
            whys.append(why)
        reasons.append(whys[0])

    failed = sum(why is not None for why in reasons)
    plain = [replies[0] for _, replies in records]
    tail_pct = tail_percentile(len(records))
    metrics = per_layer(records, probe_s) if args.trace else end_to_end(plain, reasons, setup_s, tail_pct)
    if not args.trace:
        print(f"{'fail_ratio':<48} {failed / len(records):.6f} ratio")
        print(f"{'jobs':<48} {len(records)} count (job_tail_s is p{tail_pct})")
        for name, (value, unit) in wall_clock(plain, reasons, setup_wall_s).items():
            print(f"{name:<48} {value:.6g} {unit}")
    for name, (value, unit) in metrics.items():
        print(f"{name:<48} {value:.6g} {unit}")
    result = {
        "correct": wrong == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
