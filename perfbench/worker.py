"""One benchmark worker: a fresh interpreter that runs a job list once.

Usage: ``python3 perfbench/worker.py SRC_DIR SPACES_DIR TRACE < jobs.json``

The first thing it does is time ``import mathieumat.cli`` (the set-up
every command-line invocation pays), so it imports nothing the package
imports before that.  It then runs each job as one in-process call of
``mathieumat.cli.main([..., "--json"])`` with stdout and stderr
captured, one after another (a closed loop with one client).  A
calibration kernel runs before the first job, after each job and, in
untraced workers, every ``calib.TICK_S`` seconds once a job has run for
``2 * calib.TICK_S``; a job's seconds exclude the kernel runs inside it.
With TRACE = 1 the layers are wrapped by ``tracing.install`` first.

It prints one JSON document: the outcome and raw time of every job,
the kernel samples, its peak resident memory and, when traced, the
per-job span aggregates and the recorded spans.
"""

import sys
import time


def main():
    src, spaces_dir, traced = sys.argv[1], sys.argv[2], sys.argv[3] == "1"
    request = sys.stdin.read()
    sys.path.insert(0, src)
    start = time.perf_counter()
    import mathieumat.cli as cli
    setup_raw = time.perf_counter() - start

    import contextlib
    import io
    import json
    import os
    import resource
    import signal

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import calib

    jobs = json.loads(request)
    tracer = None
    if traced:
        import mathieumat
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer, mathieumat)
    main_fn = cli.main      # wrapped by install when traced

    samples = []            # (end time, kernel seconds)

    def sample(*_):
        k = calib.kernel()
        samples.append((time.perf_counter(), k))

    # Sample the host's speed during long jobs too.  Short jobs get no
    # tick, so the kernel never disturbs them; a traced worker gets none,
    # so the kernel never shows up in span self times.
    ticks = 0 if traced else calib.TICK_S
    signal.signal(signal.SIGALRM, sample)

    results = []
    per_job_trace = []
    sample()
    for job in jobs:
        argv = [os.path.join(spaces_dir, job["file"]) if a == "{file}" else a
                for a in job["argv"]] + ["--json"]
        out, err = io.StringIO(), io.StringIO()
        raised = None
        if tracer is not None:
            tracer.start_job(job["id"])
        signal.setitimer(signal.ITIMER_REAL, 2 * ticks, ticks)
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = main_fn(argv)
        except SystemExit as exc:   # argparse rejects the arguments
            rc = exc.code
        except Exception as exc:
            rc = None
            raised = "%s: %s" % (type(exc).__name__, exc)
        t1 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, 0)
        ticked = sum(k for t, k in samples if t0 <= t <= t1)
        if tracer is not None:
            per_job_trace.append(tracer.start_job(None))
        sample()
        results.append(dict(outcome(out.getvalue(), err.getvalue()), id=job["id"],
                            rc=rc, raised=raised, start=t0, end=t1,
                            seconds=t1 - t0 - ticked))

    doc = {
        "setup_raw_s": setup_raw,
        "kernel": samples,
        "jobs": results,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        doc["trace"] = per_job_trace
        doc["spans"] = tracer.spans
    sys.stdout.write(json.dumps(doc))


def outcome(stdout, stderr):
    """The checkable part of one job's output.

    ``digest`` hashes the report without its wall-time field (payload,
    move log, command and input digest); ``error`` is the typed error
    name on stderr; ``checks`` is False when a self-check inside the
    payload failed.
    """
    import hashlib
    import json

    digest = None
    checks = True
    moves = 0
    if stdout.strip():
        try:
            report = json.loads(stdout)
        except ValueError:          # not a JSON report: cannot match a reference
            return {"digest": hashlib.sha256(stdout.encode("utf-8")).hexdigest(),
                    "error": None, "checks": False, "moves": 0}
        report.pop("wall_time_ms", None)
        canon = json.dumps(report, sort_keys=True, separators=(",", ":"))
        digest = hashlib.sha256(canon.encode("utf-8")).hexdigest()
        payload = report["payload"]
        if report["command"] == "repro":
            checks = payload["match"] is True
        elif report["command"] == "verify" and payload["witness"] is not None:
            checks = payload["witness"]["replays"] is True
        moves = len(report.get("move_log") or ())
    error = None
    for line in stderr.splitlines():
        if line.startswith("error: "):
            error = line[len("error: "):].split(":", 1)[0]
    return {"digest": digest, "error": error, "checks": checks, "moves": moves}


if __name__ == "__main__":
    main()
