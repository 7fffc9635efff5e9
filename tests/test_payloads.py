"""Every benchmark pool job still gives its recorded outcome.

The benchmark checks only the jobs a seed samples; this runs the whole
pool of each workload once, through the benchmark's own worker, and
compares every job's exit status, report digest (the payload without
the wall time) and typed error with ``perfbench/references``.
"""

import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import jobs  # noqa: E402
import run  # noqa: E402


@pytest.mark.parametrize("name", sorted(jobs.WORKLOADS))
def test_every_pool_job_matches_its_reference(name, tmp_path):
    workload = jobs.WORKLOADS[name]
    pool = jobs.pool(workload)
    refs = run.load_references(workload, pool)
    job_list = run.write_spaces([job for items in pool.values() for job in items],
                                str(tmp_path))
    doc = run.run_worker(os.path.join(ROOT, "src"), str(tmp_path), job_list, False)
    assert len(doc["jobs"]) == len(job_list) == len(refs["jobs"])
    problems = {job["id"]: run.check(result, refs["jobs"][job["id"]])
                for job, result in zip(job_list, doc["jobs"])}
    assert {k: v for k, v in problems.items() if v} == {}
