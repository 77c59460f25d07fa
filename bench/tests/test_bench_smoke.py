"""Smoke tests of the repo benchmark (``pytest bench/tests``).

Outside tier-1's ``testpaths`` on purpose: they spawn every workload as a
subprocess, at a scale small enough that each takes about a second.  The
results are marked ``"comparable": false`` — they validate the output
schema and the layer attribution, not performance.
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
RUN = os.path.join(BENCH, "run.py")
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

sys.path.insert(0, BENCH)
import compare  # noqa: E402
import layers  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    CONTRACT = json.load(_fh)
WORKLOADS = [w["name"] for w in CONTRACT["workloads"]]
BULK = ("bulk_wan", "bulk_wan_obs", "bulk_lan_faults")


def _run(workload, trace, out, cwd=ROOT, run=RUN):
    return subprocess.run(
        [sys.executable, run, "--workload", workload, "--seed", "1",
         "--seconds", "0.2", "--scale", "0.02", "--trace", str(trace),
         "--out", str(out)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Both runs of every workload: {(workload, trace): (line, doc)}."""
    tmp = tmp_path_factory.mktemp("bench")
    results = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            out = tmp / f"{workload}-{trace}.json"
            proc = _run(workload, trace, out)
            assert proc.returncode == 0, proc.stderr
            line = json.loads(proc.stdout.strip().splitlines()[-1])
            with open(out, encoding="utf-8") as fh:
                results[workload, trace] = (line, json.load(fh))
    return results


def test_contract_shape():
    assert set(CONTRACT) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert CONTRACT["paths"] == ["bench"]
    assert 2 <= len(WORKLOADS) <= 8
    assert 1 <= len(CONTRACT["end_to_end"]) <= 16
    assert 1 <= len(CONTRACT["per_layer"]) <= 128
    names = WORKLOADS + [
        m["name"] for m in CONTRACT["end_to_end"] + CONTRACT["per_layer"]
    ]
    assert len(names) == len(set(names)), "a name is used twice"
    for name in names:
        assert NAME.fullmatch(name), name
    for w in CONTRACT["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in CONTRACT["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in CONTRACT["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in CONTRACT["end_to_end"] + CONTRACT["per_layer"]:
        assert UNIT.fullmatch(m["unit"]), m
        assert m["better"] in ("lower", "higher")
    setup = [m for m in CONTRACT["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    for layer in layers.LAYERS:
        for suffix in ("self_s", "self_share", "calls"):
            assert f"{layer}.{suffix}" in names


@pytest.mark.parametrize("trace,group", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_result_line_and_document(runs, workload, trace, group):
    line, doc = runs[workload, trace]
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True
    assert isinstance(line["attempted"], int) and line["attempted"] >= 1
    assert line["failed"] == 0
    declared = {m["name"]: m["unit"] for m in CONTRACT[group]}
    assert set(line["metrics"]) == set(declared)
    for name, metric in line["metrics"].items():
        assert set(metric) == {"value", "unit"}
        assert metric["unit"] == declared[name]
        assert isinstance(metric["value"], (int, float))
    if trace == 0:
        assert all(m["value"] > 0 for m in line["metrics"].values())

    assert doc["kind"] == "repro-perfbench"
    assert doc["comparable"] is False
    assert {"python", "nproc", "loadavg_1m", "noisy"} <= set(doc["host"])
    entry = doc["workloads"][workload]
    assert entry["problems"] == []
    span_names = {s["name"] for s in entry["spans"]}
    assert {"setup.import", "setup.inputs", "setup.build", "rep.run",
            "check.observe"} <= span_names
    for span in entry["spans"]:
        assert span["end_s"] >= span["start_s"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layer_attribution(runs, workload):
    _, doc = runs[workload, 1]
    entry = doc["workloads"][workload]
    m = {k: v["value"] for k, v in entry["per_layer"].items()}
    total = sum(m[f"{layer}.self_s"] for layer in layers.LAYERS)
    assert total == pytest.approx(entry["traced"]["profile_total_s"], rel=0.01)
    assert sum(m[f"{layer}.self_share"] for layer in layers.LAYERS) \
        == pytest.approx(1.0, rel=1e-6)
    assert m["sim.calls"] > 0, "every workload runs on the kernel"
    assert m["trace.overhead_x"] > 1.0
    # The bypass facts the workloads were chosen for.
    if workload == "fio_verbs":
        assert m["core.calls"] == 0 and m["core.blocks"] == 0
        assert m["apps.fio_ios"] > 0
    else:
        assert m["core.calls"] > 0 and m["core.blocks"] > 0
    if workload in BULK or workload == "fio_verbs":
        assert m["sched.calls"] == 0
    else:
        assert m["sched.calls"] > 0 and m["sched.files_finished"] > 0
    if workload == "bulk_wan_obs":
        assert m["obs.trace_emitted"] > 0 and m["obs.on_off_wall_ratio"] > 0
    if workload == "bulk_wan":
        assert m["core.fast_path_share"] == 1.0
        assert m["obs.trace_emitted"] == 0
    if workload == "bulk_lan_faults":
        assert m["core.fast_path_share"] < 1.0 and m["faults.injected"] > 0
    if workload == "pool_smallfiles":
        assert m["core.leases"] > 0 and m["verbs.srq_posted"] > 0


def test_untraced_and_traced_runs_agree_exactly(runs):
    for workload in WORKLOADS:
        assert (runs[workload, 0][1]["workloads"][workload]["exact"]
                == runs[workload, 1][1]["workloads"][workload]["exact"])


def test_workload_table_matches_contract():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import workloads

    assert [(w.name, w.why) for w in workloads.WORKLOADS.values()] \
        == [(w["name"], w["why"]) for w in CONTRACT["workloads"]]
    assert {w.loop for w in workloads.WORKLOADS.values()} == {"open", "closed"}


def test_fails_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and bench/ there is
    nothing to measure: non-zero exit, no result line."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("bulk_wan", 0, tmp_path / "x.json", cwd=tmp_path,
                run=str(tmp_path / "bench" / "run.py"))
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def _doc(wall, lo, hi, events=100):
    e2e = {m["name"]: {"value": 1.0} for m in CONTRACT["end_to_end"]}
    e2e["wall_s"] = {"value": wall, "min": lo, "max": hi}
    entry = {"end_to_end": e2e, "exact": {"sim.events": events},
             "per_layer": {"sim.calls": {"value": events}}}
    return {"seed": 0, "workloads": {w: entry for w in WORKLOADS}}


_B = next(m["bound"] for m in CONTRACT["end_to_end"] if m["name"] == "wall_s")


@pytest.mark.parametrize("new,verdict", [
    ((1.00, 0.99, 1.01), "unchanged"),
    ((1 + 2 * _B, 1 + 2 * _B, 1 + 2 * _B), "regressed"),
    ((1 - 2 * _B, 1 - 2 * _B, 1 - 2 * _B), "improved"),
    ((0.97, 0.97 - _B, 1.10), "unresolved"),
    ((0.50, 0.50 - _B, 0.60), "improved"),  # wide, but every rep beats base
])
def test_compare_verdicts(new, verdict):
    rows, diffs = compare.compare_docs(
        _doc(1.0, 0.99, 1.01), _doc(*new), CONTRACT)
    assert diffs == []
    walls = [r for r in rows if r["metric"] == "wall_s"]
    assert len(walls) == len(WORKLOADS)
    assert {r["verdict"] for r in walls} == {verdict}


def test_compare_lists_exact_differences():
    _, diffs = compare.compare_docs(
        _doc(1.0, 1.0, 1.0), _doc(1.0, 1.0, 1.0, events=101), CONTRACT)
    assert len(diffs) == 2 * len(WORKLOADS)  # exact block + call count
