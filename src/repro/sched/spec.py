"""Job-mix specifications: the input format of ``repro sched``.

A spec is a plain dict (JSON-serialisable) describing one broker run —
testbed, seed, broker knobs, doors, tenants, and the submission
schedule.  :func:`synthetic_spec` generates a deterministic mix from a
seed, used by ``repro sched --quick`` and the ``sched_10k`` anchor in
``tests/test_sim_pins.py``.

Format::

    {
      "testbed": "ani-wan",
      "seed": 0,
      "max_active": 8,
      "doors": 2,                  # connection sets to the server
      "door_sessions": 4,          # concurrent sessions per door
      "tenants": {
        "gold":   {"weight": 3.0, "max_inflight": 8, "max_queued": 100000},
        "bronze": {"weight": 1.0, "max_inflight": 8, "max_queued": 100000}
      },
      "jobs": [
        {"tenant": "gold", "priority": 0, "submit_at": 0.0,
         "files": [{"path": "/data/gold/f0", "size": 4194304,
                    "sources": ["door-0", "door-1"]}, ...]},
        ...
      ],
      "faults": {"source_crashes": [12.5], "seed": 0}   # optional
    }
"""

from __future__ import annotations

import json
import random
from typing import Any, Dict, List, Optional

__all__ = ["load_spec", "validate_spec", "synthetic_spec", "overload_spec"]

MiB = 1024 * 1024

#: Small-file palette for the synthetic mix (bytes).  Small on purpose:
#: the scheduler's value is amortising negotiation and multiplexing many
#: sessions, which only shows on runs of small files.
_SIZE_PALETTE = (1 * MiB, 2 * MiB, 4 * MiB, 8 * MiB)


def load_spec(path: str) -> Dict[str, Any]:
    with open(path, "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    validate_spec(spec)
    return spec


def validate_spec(spec: Dict[str, Any]) -> None:
    if not isinstance(spec, dict):
        raise ValueError("spec must be a JSON object")
    jobs = spec.get("jobs")
    if not isinstance(jobs, list) or not jobs:
        raise ValueError("spec needs a non-empty 'jobs' list")
    tenants = spec.get("tenants", {})
    if not isinstance(tenants, dict):
        raise ValueError("'tenants' must be an object")
    for i, job in enumerate(jobs):
        if not isinstance(job, dict):
            raise ValueError(f"jobs[{i}] must be an object")
        files = job.get("files")
        if not isinstance(files, list) or not files:
            raise ValueError(f"jobs[{i}] needs a non-empty 'files' list")
        for j, f in enumerate(files):
            if not isinstance(f, dict) or "path" not in f or "size" not in f:
                raise ValueError(f"jobs[{i}].files[{j}] needs 'path' and 'size'")
        deadline = job.get("deadline")
        if deadline is not None and (
            not isinstance(deadline, (int, float)) or deadline <= 0
        ):
            raise ValueError(f"jobs[{i}].deadline must be a positive number")
    doors = spec.get("doors", 1)
    if not isinstance(doors, int) or doors < 1:
        raise ValueError("'doors' must be a positive integer")
    if not isinstance(spec.get("watchdog", False), bool):
        raise ValueError("'watchdog' must be a boolean")
    if not isinstance(spec.get("checkpoint_compact", False), bool):
        raise ValueError("'checkpoint_compact' must be a boolean")
    if not isinstance(spec.get("use_srq", False), bool):
        raise ValueError("'use_srq' must be a boolean")
    drain_at = spec.get("drain_at")
    if drain_at is not None and (
        not isinstance(drain_at, (int, float)) or drain_at <= 0
    ):
        raise ValueError("'drain_at' must be a positive number")
    overload = spec.get("overload")
    if overload is not None:
        if not isinstance(overload, dict):
            raise ValueError("'overload' must be an object")
        from repro.sched.overload import OverloadConfig

        OverloadConfig.from_spec(overload)  # raises on bad keys/values
    resubmit = spec.get("resubmit_limit", 0)
    if not isinstance(resubmit, int) or resubmit < 0:
        raise ValueError("'resubmit_limit' must be a non-negative integer")


def synthetic_spec(
    seed: int = 0,
    total_files: int = 1000,
    tenants: Optional[Dict[str, float]] = None,
    testbed: str = "ani-wan",
    doors: int = 2,
    max_active: int = 8,
    files_per_job: int = 20,
) -> Dict[str, Any]:
    """A deterministic ≥2-tenant small-file job mix.

    ``tenants`` maps tenant name to fair-share weight (default
    ``{"gold": 3.0, "bronze": 1.0}`` — the 3:1 contention mix the tests
    assert on).  Files are split round-robin into jobs of
    ``files_per_job``; all jobs are submitted at t=0 so the tenants
    genuinely contend for the worker pool.
    """
    if total_files < 1:
        raise ValueError("total_files must be >= 1")
    weights = tenants or {"gold": 3.0, "bronze": 1.0}
    rng = random.Random(seed)
    door_names = [f"door-{i}" for i in range(doors)]
    names = sorted(weights)
    per_tenant = {name: total_files // len(names) for name in names}
    for i in range(total_files % len(names)):
        per_tenant[names[i]] += 1
    jobs: List[Dict[str, Any]] = []
    for name in names:
        count = per_tenant[name]
        files: List[Dict[str, Any]] = []
        for i in range(count):
            files.append({
                "path": f"/data/{name}/f{i:06d}",
                "size": rng.choice(_SIZE_PALETTE),
                "sources": door_names,
            })
        for start in range(0, count, files_per_job):
            jobs.append({
                "tenant": name,
                "priority": 0,
                "submit_at": 0.0,
                "files": files[start:start + files_per_job],
            })
    spec = {
        "testbed": testbed,
        "seed": seed,
        "max_active": max_active,
        "doors": doors,
        "door_sessions": 4,
        "tenants": {
            name: {"weight": w, "max_inflight": max_active, "max_queued": 10 ** 9}
            for name, w in weights.items()
        },
        "jobs": jobs,
    }
    validate_spec(spec)
    return spec


def overload_spec(
    seed: int = 0,
    total_files: int = 600,
    tenants: Optional[Dict[str, float]] = None,
    testbed: str = "ani-wan",
    doors: int = 2,
    max_active: int = 8,
    files_per_job: int = 20,
    base_rate: float = 40.0,
    spike: float = 10.0,
    spike_start: float = 4.0,
    spike_duration: float = 8.0,
    resubmit_limit: int = 2,
    overload: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """An open-loop arrival-spike mix with overload controls armed.

    Jobs arrive on a deterministic open-loop schedule: ``base_rate``
    files per second outside the spike window, ``base_rate * spike``
    inside it — the 10× burst the broker must shed its way through
    without collapsing goodput for admitted work.  Tenants alternate
    job-for-job; the heaviest-weight tenant submits at priority 1 so the
    priority-overdraft path is exercised.  ``overload`` overrides the
    armed :class:`~repro.sched.overload.OverloadConfig` knobs;
    ``resubmit_limit`` is how many times the runner honours a shed job's
    RETRY_AFTER hint before giving up.
    """
    if total_files < 1:
        raise ValueError("total_files must be >= 1")
    if base_rate <= 0 or spike < 1.0:
        raise ValueError("need base_rate > 0 and spike >= 1")
    weights = tenants or {"gold": 3.0, "bronze": 1.0}
    rng = random.Random(seed)
    door_names = [f"door-{i}" for i in range(doors)]
    names = sorted(weights)
    top = max(names, key=lambda n: (weights[n], n))
    counters = {name: 0 for name in names}
    jobs: List[Dict[str, Any]] = []
    t = 0.0
    n_jobs = max(1, -(-total_files // files_per_job))
    remaining = total_files
    for j in range(n_jobs):
        name = names[j % len(names)]
        count = min(files_per_job, remaining)
        remaining -= count
        files = []
        for _ in range(count):
            idx = counters[name]
            counters[name] += 1
            files.append({
                "path": f"/data/{name}/f{idx:06d}",
                "size": rng.choice(_SIZE_PALETTE),
                "sources": door_names,
            })
        jobs.append({
            "tenant": name,
            "priority": 1 if name == top else 0,
            "submit_at": round(t, 6),
            "files": files,
        })
        rate = base_rate
        if spike_start <= t < spike_start + spike_duration:
            rate = base_rate * spike
        t += files_per_job / rate
    controls = {
        "max_queued_files": 160,
        "global_rate": 46.0,
        "global_burst": 92.0,
        "tenant_rate": 36.0,
        "tenant_burst": 54.0,
        "retry_budget_ratio": 0.5,
        "retry_budget_burst": 8.0,
        "retry_after_base": 0.5,
        "retry_after_cap": 20.0,
    }
    if overload:
        controls.update(overload)
    spec = {
        "testbed": testbed,
        "seed": seed,
        "max_active": max_active,
        "doors": doors,
        "door_sessions": 4,
        "tenants": {
            name: {"weight": w, "max_inflight": max_active,
                   "max_queued": 10 ** 9}
            for name, w in weights.items()
        },
        "jobs": jobs,
        "overload": controls,
        "resubmit_limit": resubmit_limit,
    }
    validate_spec(spec)
    return spec
