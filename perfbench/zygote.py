"""Fork server for benchmark jobs.

Imports ``hkdd.cli`` once, then answers one JSON request per stdin line by
forking a fresh child. The child inherits the imported modules but no result
cache from an earlier job, because this process never runs a job itself. A
child times ``hkdd.cli.main(argv)`` with stdout and stderr captured in memory,
times the reference kernel before, during and after it, and sends the
outcome back through a pipe; the server adds the child's peak RSS and prints
one JSON reply line.

Run as ``python3 perfbench/zygote.py [--trace]`` with ``src`` on PYTHONPATH.
With ``--trace`` the hkdd layers are wrapped before any child is forked.
"""

from __future__ import annotations

import io
import json
import os
import signal
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import hkdd.cli  # noqa: E402  (imported once, before any fork)

import probes  # noqa: E402
import reference  # noqa: E402
import tracing  # noqa: E402

# CPU seconds between two runs of the reference kernel during a job
SAMPLE_S = 0.1


def _run_job(req: dict, tracer) -> dict:
    """The reference kernel runs before and after main and, in an untraced
    job, every SAMPLE_S of CPU time during it from a SIGPROF handler, so the
    job's scale factor follows the host's speed while the job runs. The
    time spent in the handler is taken out of the job time."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    refs = [reference.seconds()]
    if tracer is None:
        signal.signal(signal.SIGPROF, lambda *_: refs.append(reference.seconds()))
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_S, SAMPLE_S)
    t0 = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc = hkdd.cli.main(req["argv"])
    except SystemExit as exc:  # argparse usage errors
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:
        rc = None
        error = f"{type(exc).__name__}: {exc}"
    job_s = time.perf_counter() - t0
    signal.setitimer(signal.ITIMER_PROF, 0)
    job_s -= sum(refs[1:])
    refs.append(reference.seconds())
    reply = {"rc": rc, "job_s": job_s, "ref_s": sum(refs) / len(refs), "stdout": out.getvalue(), "error": error}
    if tracer is not None:
        reply["trace"] = tracer.summary()
    return reply


def _run_probe(req: dict) -> dict:
    t0 = time.perf_counter()
    probes.PROBES[req["probe"]]()
    return {"rc": 0, "job_s": time.perf_counter() - t0, "stdout": "", "error": None}


def _child(req: dict, tracer, w: int) -> None:
    try:
        signal.alarm(int(req["limit_s"]))
        reply = _run_probe(req) if "probe" in req else _run_job(req, tracer)
        data = json.dumps(reply).encode()
        view = memoryview(data)
        while view:
            view = view[os.write(w, view):]
    finally:
        os._exit(0)


def _serve(tracer) -> None:
    for line in sys.stdin:
        req = json.loads(line)
        r, w = os.pipe()
        pid = os.fork()
        if pid == 0:
            os.close(r)
            _child(req, tracer, w)
        os.close(w)
        chunks = []
        with os.fdopen(r, "rb") as pipe:
            while chunk := pipe.read(1 << 16):
                chunks.append(chunk)
        _, status, usage = os.wait4(pid, 0)
        if chunks:
            reply = json.loads(b"".join(chunks))
        else:
            sig = os.WTERMSIG(status) if os.WIFSIGNALED(status) else None
            reply = {"rc": None, "job_s": None, "stdout": "", "error": f"child ended without a reply (signal {sig})"}
        reply["maxrss_kb"] = usage.ru_maxrss
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    _serve(tracing.install() if "--trace" in sys.argv[1:] else None)
