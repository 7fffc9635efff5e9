"""Tests of the benchmark's own machinery.

Run from the root of a checkout: ``python3 -m pytest perfbench/tests``.
"""

import json
import os
import shutil
import subprocess
import sys
from collections import Counter

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import jobs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402


@pytest.mark.parametrize("name", sorted(jobs.WORKLOADS))
def test_generator_is_deterministic_per_seed(name):
    workload = jobs.WORKLOADS[name]
    pool = jobs.pool(workload)
    assert jobs.pool_sha256(pool) == jobs.pool_sha256(jobs.pool(workload))
    first = jobs.select(workload, pool, 7)
    assert first == jobs.select(workload, pool, 7)
    other = jobs.select(workload, pool, 8)
    assert [j["id"] for j in first] != [j["id"] for j in other]

    def mix(job_list):
        return Counter(j["id"].rsplit(" #", 1)[0] for j in job_list)

    assert mix(first) == mix(other) == Counter(
        {c.label: c.count for c in workload.classes})
    inputs = [(tuple(j["argv"]), j["text"]) for j in first]
    assert len(set(inputs)) == len(inputs), "an input repeats within one pass"


@pytest.mark.parametrize("name", sorted(jobs.WORKLOADS))
def test_references_match_the_pool(name):
    workload = jobs.WORKLOADS[name]
    pool = jobs.pool(workload)
    refs = run.load_references(workload, pool)
    ids = {job["id"] for items in pool.values() for job in items}
    assert ids == set(refs["jobs"])


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def test_self_time_arithmetic_on_a_nested_span_tree():
    clock = FakeClock()
    tracer = tracing.Tracer(clock=clock)

    def leaf():
        clock.advance(2.0)

    def rec(depth):
        clock.advance(1.0)
        if depth:
            rec_w(depth - 1)

    def mid():
        clock.advance(1.0)
        leaf_w()
        clock.advance(3.0)
        hot_w()
        rec_w(2)

    def hot():
        clock.advance(0.5)
        leaf_w()

    def top():
        clock.advance(5.0)
        mid_w()

    leaf_w = tracer.wrap("b.leaf", "b", leaf, record=True)
    hot_w = tracer.wrap("b.Hot", "b", hot, record=False)
    rec_w = tracer.wrap("a.rec", "a", rec, record=True)
    mid_w = tracer.wrap("a.mid", "a", mid, record=True)
    top_w = tracer.wrap("c.top", "c", top, record=True)

    tracer.start_job("job-1")
    top_w()
    agg = tracer.start_job(None)

    # top 5 + mid (1 + leaf 2 + 3 + hot (0.5 + leaf 2) + rec 3) = 16.5
    assert agg["incl"]["c.top"] == 16.5
    assert agg["incl"]["a.mid"] == 11.5
    assert agg["incl"]["a.rec"] == 3.0          # outermost activation only
    assert agg["calls"] == {"c.top": 1, "a.mid": 1, "a.rec": 3,
                            "b.Hot": 1, "b.leaf": 2}
    assert agg["self"] == {"c": 5.0, "a": 4.0 + 3.0, "b": 4.0 + 0.5}
    assert sum(agg["self"].values()) == agg["incl"]["c.top"]

    # Module-level spans are kept with their job and parent; hot ones are not.
    by_key = {}
    for job, span_id, parent, key, start, end in tracer.spans:
        assert job == "job-1"
        by_key.setdefault(key, []).append((span_id, parent, end - start))
    assert "b.Hot" not in by_key
    (top_id, top_parent, _), = by_key["c.top"]
    (mid_id, mid_parent, _), = by_key["a.mid"]
    assert top_parent is None and mid_parent == top_id
    # The second leaf's parent is the hot span, which is not kept.
    recorded = {span_id for spans in by_key.values() for span_id, _, _ in spans}
    (_, first_parent, _), (_, second_parent, _) = by_key["b.leaf"]
    assert first_parent == mid_id
    assert second_parent not in recorded and second_parent > mid_id
    assert len(by_key["a.rec"]) == 3


def test_self_time_split_by_result():
    clock = FakeClock()
    tracer = tracing.Tracer(clock=clock)

    class Verdict:
        def __init__(self, holds):
            self.holds = holds

    def verdict(holds, seconds):
        clock.advance(seconds)
        return Verdict(holds)

    wrapped = tracer.wrap("verify.verify_mathieu", "verify", verdict, record=True)
    wrapped(True, 2.0)
    wrapped(False, 3.0)
    assert tracer.incl["verify.verify_mathieu.holds"] == 2.0
    assert tracer.incl["verify.verify_mathieu.witness"] == 3.0
    assert tracer.incl["verify.verify_mathieu"] == 5.0


def test_gate_flags_tampered_digest_and_changed_exit_status():
    ref = {"rc": 0, "digest": "ab" * 32, "error": None}
    good = {"rc": 0, "digest": "ab" * 32, "error": None, "checks": True,
            "raised": None}
    assert run.check(good, ref) == []
    assert run.check(dict(good, digest="cd" * 32), ref)
    assert run.check(dict(good, rc=1, error="FieldTooSmallError"), ref)
    assert run.check(dict(good, checks=False), ref)
    assert run.check(dict(good, raised="AssertionError: boom"), ref)
    expected_error = {"rc": 1, "digest": None, "error": "HypothesisFailed"}
    assert run.check(dict(good, rc=1, digest=None, error="HypothesisFailed"),
                     expected_error) == []


def _bench(args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("name", sorted(jobs.WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_runs_one_job_per_command(name, trace):
    proc = _bench(["--workload", name, "--seed", "1", "--seconds", "1",
                   "--trace", trace, "--smoke"])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    commands = {c.command for c in jobs.WORKLOADS[name].classes}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == len(commands)
    names = run.PER_LAYER if trace == "1" else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == dict(names)


def test_benchmark_json_lists_the_metrics_the_harness_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(jobs.WORKLOADS)


def test_refuses_to_run_without_the_package_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench(["--workload", "enumerate", "--seed", "1", "--seconds", "1",
                   "--trace", "0"], cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
