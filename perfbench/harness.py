"""The request runner: one forked child per request, guarded, judged
against the answer key.

The warm parent imports finsite once; every request is `cli.main(argv)`
in a fresh fork, so no state passes from one request to the next.  The
child caps its own address space and CPU time, the parent kills it at the
wall-time limit, and `os.wait4` gives its peak resident set.

A request's time is reported in reference seconds (speed.py): its
measured time scaled by the machine's speed sampled in the request's own
process while it ran.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import marshal
import os
import resource
import select
import signal
import statistics
import sys
import time
import traceback

from speed import SpeedSampler, reference_seconds

MEM_CAP_BYTES = 1 << 30  # address-space cap of one request process (peak RSS at seed: 160 MB)
WALL_LIMIT_S = 60.0  # wall-time limit of one untraced request
TRACED_WALL_LIMIT_S = 150.0

OK, WRONG, ERROR, GUARD = "ok", "wrong", "error", "guard"


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def rel_spread(values):
    """Distance between the first and third quartile, as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


# ---------------------------------------------------------------------------
# One request in a forked child
# ---------------------------------------------------------------------------


def _child(write_fd, fn, tracer, limit_s, read):
    """Runs in the forked child; never returns."""
    try:
        resource.setrlimit(resource.RLIMIT_AS, (MEM_CAP_BYTES, MEM_CAP_BYTES))
        cpu = int(limit_s) + 5
        resource.setrlimit(resource.RLIMIT_CPU, (cpu, cpu))
        out, err = io.StringIO(), io.StringIO()
        status, detail, rc = OK, "", None
        if tracer is not None:
            tracer.reset()
        # no interval samples in a traced request: the handler's time would land in its spans
        speed = SpeedSampler(interval=tracer is None)
        try:
            with speed, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                t0 = time.perf_counter()
                try:
                    rc = fn() if tracer is None else tracer.run("harness.request", fn)
                finally:
                    seconds = time.perf_counter() - t0 - speed.in_handler
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except MemoryError:
            status, detail = GUARD, "memory cap"
        except Exception as exc:  # a traceback is a counted failure, not a crash
            status = ERROR
            detail = "".join(traceback.format_exception_only(type(exc), exc)).strip()[-300:]
        payload = {"status": status, "detail": detail, "rc": rc, "seconds": seconds,
                   "ref_seconds": reference_seconds(seconds, speed.samples)}
        if status == OK and read is not None:
            try:
                payload["verdict"] = read(rc, out.getvalue())
            except (ValueError, KeyError, TypeError) as exc:
                payload["status"] = ERROR
                payload["detail"] = f"{exc}; stderr: {err.getvalue()[-200:]}"
        if tracer is not None:
            payload["trace"] = (tracer.spans, tracer.root_prims, tracer.distinct())
        data = marshal.dumps(payload)
        view = memoryview(data)
        while view:
            view = view[os.write(write_fd, view):]
    except BaseException:  # report nothing; the parent counts a broken pipe
        pass
    finally:
        os._exit(0)


def run_forked(fn, limit_s, tracer=None, read=None):
    """Call fn() (returning an exit code) in a forked child.  Returns the
    child's payload dict (status ok/error/guard) plus its peak RSS in MB.

    read(rc, stdout) runs in the child too and gives the payload's verdict,
    so the report text never reaches this process and its size stays the
    same from one fork to the next."""
    sys.stdout.flush()
    sys.stderr.flush()
    gc.freeze()  # the child's collector then skips, and does not copy, the parent's objects
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(r)
        _child(w, fn, tracer, limit_s, read)
    os.close(w)
    chunks = []
    deadline = time.monotonic() + limit_s
    killed = False
    try:
        while True:
            left = deadline - time.monotonic()
            if left <= 0:
                os.kill(pid, signal.SIGKILL)
                killed = True
                break
            ready, _, _ = select.select([r], [], [], left)
            if ready:
                chunk = os.read(r, 1 << 20)
                if not chunk:
                    break
                chunks.append(chunk)
    finally:
        os.close(r)
        _, status, usage = os.wait4(pid, 0)
    rss_mb = usage.ru_maxrss / 1024.0
    if killed:
        return {"status": GUARD, "detail": f"wall-time limit {limit_s:.0f} s", "rss_mb": rss_mb}
    try:
        payload = marshal.loads(b"".join(chunks))
    except (EOFError, ValueError, TypeError):
        sig = os.WTERMSIG(status) if os.WIFSIGNALED(status) else None
        return {"status": GUARD, "detail": f"child died (signal {sig})", "rss_mb": rss_mb}
    payload["rss_mb"] = rss_mb
    return payload


# ---------------------------------------------------------------------------
# Judging a request
# ---------------------------------------------------------------------------


def observed_verdict(req, rc, out):
    """The verdict of one finished request, from its exit code and JSON
    report, or raise ValueError if the report does not support it."""
    if rc not in (0, 1):
        raise ValueError(f"exit code {rc}")
    report = json.loads(out)
    if req.kan_cat is not None:
        (ext,) = report["presheaves"].values()
        return {x: len(vs) for x, vs in ext["values"]}
    verdicts = [r["verdict"] for r in report] if isinstance(report, list) else [report["verdict"]]
    if all(verdicts) != (rc == 0):
        raise ValueError(f"report verdicts {verdicts} disagree with exit code {rc}")
    return rc


def judge(req, seed, payload, oracle_verdict=None):
    """(status, detail, verdict) for one request's child payload (read
    with observed_verdict).

    Every request ends in exactly one status: ok, error (exception, exit 2
    or an unreadable report), guard (memory or wall-time limit) or wrong
    (a verdict other than the answer key's, or an answer key that the
    oracle contradicts)."""
    if payload["status"] != OK:
        return payload["status"], payload["detail"], None
    verdict = payload["verdict"]
    expected = req.expected(seed)
    if verdict != expected:
        return WRONG, f"got {verdict}, answer key {expected} ({req.reason})", verdict
    if oracle_verdict is not None and oracle_verdict != (expected == 0):
        return WRONG, f"oracle says {oracle_verdict}, answer key {expected == 0}", verdict
    return OK, "", verdict
