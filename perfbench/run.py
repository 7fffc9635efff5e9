"""The mathieumat benchmark.

Run from the root of a checkout::

    python3 perfbench/run.py --workload enumerate --seed 1 --seconds 20 --trace 0

It draws the workload's job list from ``--seed`` (see ``jobs.py``),
writes the space files under ``perfbench/out/``, and runs the job list
once in each of ``max(2, round(seconds / pass_s))`` fresh worker
processes (``worker.py``), one after another; it stops starting new
ones after ``2 * seconds`` once two have finished.  Every job's outcome is checked against the reference
recorded for it in ``references/<workload>.json``: exit status, the
digest of its report without the wall time, its typed error name, and
the self-checks inside the payload.

``--trace 0`` prints the end-to-end metrics, medians over the workers:

* ``wall_s`` -- seconds to run the job list once;
* ``job_geomean_s`` -- geometric mean of the per-job latencies;
* ``peak_rss_mb`` -- peak resident memory of a worker;
* ``setup_s`` -- ``import mathieumat.cli`` in a fresh interpreter: the
  median over the workers and as many extra interpreters that import the
  package and run no job, started between the workers.

Job times are calibrated to the host's nominal speed (``calib.py``);
``setup_s`` is not, because file reads and module loading dominate it
and the calibration kernel does not track them.
``fail_ratio`` (failed / attempted jobs) is printed with them and
carried in the result's ``attempted`` and ``failed`` fields.

``--trace 1`` runs half the workers untraced and as many with the
layers wrapped (``tracing.py``), prints the per-layer metrics of the
traced workers (medians), and writes the first traced worker's spans to
``perfbench/out/trace-<workload>-<seed>.json``.

``--record`` runs every job of the workload's pool once and writes its
references; ``--smoke`` runs one job per command in one worker.  The
last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import calib  # noqa: E402
import jobs  # noqa: E402

# Every run must end within 180 s; no worker may run past this.
DEADLINE_S = 170

END_TO_END = (("wall_s", "s"), ("job_geomean_s", "s"),
              ("peak_rss_mb", "MB"), ("setup_s", "s"))

PER_LAYER = (
    ("verify.self_s", "s"),
    ("verify.verify_mathieu.holds_s", "s"),
    ("verify.verify_mathieu.witness_s", "s"),
    ("verify.radical.s", "s"),
    ("verify.power_trajectory.calls", "count"),
    ("verify.witness_replays.s", "s"),
    ("linalg.self_s", "s"),
    ("linalg.DenseMatrix.calls", "count"),
    ("linalg.DenseMatrix.mul.calls", "count"),
    ("linalg.VectorSubspace.member.calls", "count"),
    ("linalg.VectorSubspace.from_vectors.calls", "count"),
    ("linalg.rref.calls", "count"),
    ("linalg.kernel.calls", "count"),
    ("linalg.invert.calls", "count"),
    ("multipoly.self_s", "s"),
    ("multipoly.poly_matrix_rank.calls", "count"),
    ("multipoly.poly_matrix_rank.s", "s"),
    ("multipoly.generic_rank_of_action.calls", "count"),
    ("multipoly.divexact.calls", "count"),
    ("multipoly.MultiPoly.calls", "count"),
    ("matspace.self_s", "s"),
    ("matspace.conjugate.calls", "count"),
    ("matspace.filtration_level.calls", "count"),
    ("matspace.constraint_space.calls", "count"),
    ("matspace.binary_profile.s", "s"),
    ("matspace.find_generic_vector.s", "s"),
    ("normalize.self_s", "s"),
    ("normalize.normalize.s", "s"),
    ("normalize.rct_certificate.s", "s"),
    ("normalize.moves", "count"),
    ("idempotents.self_s", "s"),
    ("idempotents.idempotent_family.s", "s"),
    ("spacefile.self_s", "s"),
    ("cli.self_s", "s"),
    ("harness.self_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.spans", "count"),
)


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def references_path(workload):
    return os.path.join(HERE, "references", workload.name + ".json")


def load_references(workload, pool):
    path = references_path(workload)
    try:
        with open(path, encoding="utf-8") as fh:
            refs = json.load(fh)
    except FileNotFoundError:
        raise BenchError("no references at %s; record them with --record" % path)
    if refs["pool_sha256"] != jobs.pool_sha256(pool):
        raise BenchError("the job pool no longer matches %s: the generator "
                         "changed, so the references must be recorded again" % path)
    return refs


def check(result, ref):
    """Why ``result`` differs from its reference; empty when it passed."""
    problems = []
    if result["raised"]:
        problems.append("raised %s" % result["raised"])
    if result["rc"] != ref["rc"]:
        problems.append("exit status %r, expected %r" % (result["rc"], ref["rc"]))
    if result["digest"] != ref["digest"]:
        problems.append("report digest %s, expected %s" % (result["digest"], ref["digest"]))
    if result["error"] != ref["error"]:
        problems.append("error %r, expected %r" % (result["error"], ref["error"]))
    if not result["checks"]:
        problems.append("a self-check in the payload is false")
    return problems


def run_worker(src, spaces_dir, job_list, traced, timeout=DEADLINE_S):
    """Run ``job_list`` once in a fresh interpreter; return its document."""
    request = json.dumps([{k: job[k] for k in ("id", "argv", "file")}
                          for job in job_list])
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), src, spaces_dir,
         "1" if traced else "0"],
        input=request, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise BenchError("worker failed (exit %d):\n%s" % (proc.returncode, proc.stderr))
    return json.loads(proc.stdout)


def write_spaces(job_list, spaces_dir):
    """Write each job's space file; jobs get a ``file`` name (or None)."""
    os.makedirs(spaces_dir, exist_ok=True)
    out = []
    for idx, job in enumerate(job_list):
        job = dict(job, file=None)
        if job["text"] is not None:
            job["file"] = "%03d.txt" % idx
            with open(os.path.join(spaces_dir, job["file"]), "w", encoding="utf-8") as fh:
                fh.write(job["text"])
        out.append(job)
    return out


def pass_metrics(doc):
    """Calibrated per-pass numbers of one worker document."""
    factors = calib.job_factors(doc["kernel"], [(j["start"], j["end"]) for j in doc["jobs"]])
    latencies = [j["seconds"] * f for j, f in zip(doc["jobs"], factors)]
    return {
        "wall_s": sum(latencies),
        "job_geomean_s": math.exp(statistics.fmean(math.log(x) for x in latencies)),
        "peak_rss_mb": doc["peak_rss_mb"],
        "factors": factors,
    }


def layer_metrics(doc, untraced_wall):
    """Per-layer metrics of one traced worker document."""
    factors = pass_metrics(doc)["factors"]
    calls, incl, self_s = {}, {}, {}
    for agg, f in zip(doc["trace"], factors):
        for key, n in agg["calls"].items():
            calls[key] = calls.get(key, 0) + n
        for key, s in agg["incl"].items():
            incl[key] = incl.get(key, 0.0) + s * f
        for layer, s in agg["self"].items():
            self_s[layer] = self_s.get(layer, 0.0) + s * f
    wall = sum(j["seconds"] * f for j, f in zip(doc["jobs"], factors))
    values = {
        "normalize.moves": sum(j["moves"] for j in doc["jobs"]),
        "harness.self_s": wall - sum(self_s.values()),
        "trace.wall_s": wall,
        "trace.overhead_ratio": wall / untraced_wall,
        "trace.spans": sum(calls.values()),
    }
    for name, _ in PER_LAYER:
        if name in values:
            continue
        if name.endswith(".calls"):
            values[name] = calls.get(name[:-len(".calls")], 0)
        elif name.endswith(".self_s"):
            values[name] = self_s.get(name[:-len(".self_s")], 0.0)
        else:   # "<key>.s" or "<key>.<outcome>_s": inclusive seconds
            values[name] = incl.get(name[:-2], 0.0)
    return values


def worker_count(workload, seconds):
    return max(2, round(seconds / workload.pass_s))


def gate(job_list, docs, refs):
    attempted = failed = 0
    for doc in docs:
        for job, result in zip(job_list, doc["jobs"]):
            attempted += 1
            problems = check(result, refs["jobs"][job["id"]])
            if problems:
                failed += 1
                print("FAIL %s: %s" % (job["id"], "; ".join(problems)), file=sys.stderr)
    return attempted, failed


def median_of(rows, name, unit="s"):
    pick = statistics.median_low if unit == "count" else statistics.median
    return pick(row[name] for row in rows)


def measure(args, workload, src, out_dir):
    pool = jobs.pool(workload)
    refs = load_references(workload, pool)
    if args.smoke:
        job_list = jobs.smoke(workload, pool, refs)
        untraced = 0 if args.trace else 1
    else:
        job_list = jobs.select(workload, pool, args.seed)
        untraced = worker_count(workload, args.seconds)
        if args.trace:
            untraced = max(1, untraced // 2)
    traced = max(1, untraced) if args.trace else 0
    spaces_dir = os.path.join(out_dir, "spaces-%d" % os.getpid())
    try:
        job_list = write_spaces(job_list, spaces_dir)
        start = time.perf_counter()

        def worker(traced, job_list=job_list):
            left = DEADLINE_S - (time.perf_counter() - start)
            return run_worker(src, spaces_dir, job_list, traced, max(left, 1))

        def probe():            # a fresh import that runs no job
            return worker(False, [])

        plain = []
        setups = []
        while len(plain) < untraced:
            plain.append(worker(False))
            setups.append(plain[-1]["setup_raw_s"])
            if not args.trace:
                setups.append(probe()["setup_raw_s"])
            # A much slower program measures fewer passes, never fewer than 2.
            if len(plain) >= 2 and time.perf_counter() - start > 2 * args.seconds:
                break
        spanned = [worker(True) for _ in range(traced)]
    finally:
        shutil.rmtree(spaces_dir, ignore_errors=True)
    attempted, failed = gate(job_list, plain + spanned, refs)

    if args.trace:
        base = plain or spanned       # smoke: no untraced pass to compare with
        untraced_wall = median_of([pass_metrics(d) for d in base], "wall_s")
        rows = [layer_metrics(d, untraced_wall) for d in spanned]
        metrics = {name: {"value": median_of(rows, name, unit), "unit": unit}
                   for name, unit in PER_LAYER}
        trace_path = os.path.join(out_dir, "trace-%s-%d.json" % (workload.name, args.seed))
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump({"workload": workload.name, "seed": args.seed,
                       "jobs": [j["id"] for j in job_list],
                       "aggregates": spanned[0]["trace"],
                       "spans": spanned[0]["spans"]}, fh)
    else:
        rows = [pass_metrics(d) for d in plain]
        values = {name: median_of(rows, name) for name in ("wall_s", "job_geomean_s", "peak_rss_mb")}
        values["setup_s"] = statistics.median(setups)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    print("workload %s  seed %d  jobs %d  workers %d untraced + %d traced"
          % (workload.name, args.seed, len(job_list), len(plain), len(spanned)))
    for name, m in metrics.items():
        print("  %-42s %14.6f %s" % (name, m["value"], m["unit"]))
    print("  %-42s %14.6f %s" % ("fail_ratio", failed / attempted, "ratio"))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def record(workload, src, out_dir):
    """Run every pool job once and write the workload's references."""
    pool = jobs.pool(workload)
    job_list = [job for items in pool.values() for job in items]
    spaces_dir = os.path.join(out_dir, "record-%d" % os.getpid())
    try:
        job_list = write_spaces(job_list, spaces_dir)
        doc = run_worker(src, spaces_dir, job_list, False)
    finally:
        shutil.rmtree(spaces_dir, ignore_errors=True)
    refs = {}
    for job, result in zip(job_list, doc["jobs"]):
        if result["raised"] or not result["checks"]:
            raise BenchError("cannot record %s: %s" % (
                job["id"], result["raised"] or "a self-check is false"))
        refs[job["id"]] = {"rc": result["rc"], "digest": result["digest"],
                           "error": result["error"], "seconds": round(result["seconds"], 4)}
    with open(references_path(workload), "w", encoding="utf-8") as fh:
        json.dump({"pool_sha256": jobs.pool_sha256(pool), "jobs": refs}, fh,
                  indent=1, sort_keys=True)
        fh.write("\n")
    print("recorded %d jobs of %s in %.1f s" % (
        len(refs), workload.name, sum(r["seconds"] for r in refs.values())))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(jobs.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="run the whole pool and write its references")
    parser.add_argument("--smoke", action="store_true", help="one job per command")
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    workload = jobs.WORKLOADS[args.workload]
    try:
        if not os.path.isfile(os.path.join(src, "mathieumat", "cli.py")):
            raise BenchError("no mathieumat sources under %s; run from the "
                             "root of a checkout" % src)
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        if args.record:
            record(workload, src, out_dir)
            return 0
        result = measure(args, workload, src, out_dir)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print("benchmark error: %s" % exc, file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
