"""JSONL job reports.

One header line, one line per job, one line per file, one summary line —
sorted keys, no wall-clock timestamps, no raw session ids — so the same
seed produces a byte-identical report (the determinism contract
``repro sched`` and the replay test both gate on).
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List

from repro.sched.jobs import Job

__all__ = ["report_lines", "write_report", "summarize"]

SCHEMA = "repro.sched.report/3"


def _round(x: float) -> float:
    return round(float(x), 9)


def summarize(jobs: Iterable[Job], engine: Any) -> Dict[str, Any]:
    """Per-tenant goodput/state rollup plus the determinism anchors."""
    tenants: Dict[str, Dict[str, Any]] = {}
    for job in jobs:
        t = tenants.setdefault(job.tenant, {
            "jobs": 0, "files": 0, "finished": 0, "failed": 0,
            "canceled": 0, "retries": 0, "bytes_finished": 0,
            "shed_jobs": 0, "shed_files": 0,
            "last_finish": 0.0,
        })
        t["jobs"] += 1
        t["files"] += len(job.files)
        t["retries"] += job.retries
        if job.shed:
            t["shed_jobs"] += 1
            t["shed_files"] += len(job.files)
        for task in job.files:
            if task.state.value == "FINISHED":
                t["finished"] += 1
                t["bytes_finished"] += task.size
                if task.finished_at is not None:
                    t["last_finish"] = max(t["last_finish"], task.finished_at)
            elif task.state.value == "FAILED":
                t["failed"] += 1
            elif task.state.value == "CANCELED":
                t["canceled"] += 1
    for t in tenants.values():
        span = t.pop("last_finish")
        t["goodput_gbps"] = _round(
            t["bytes_finished"] * 8.0 / span / 1e9 if span > 0 else 0.0
        )
    return {
        "kind": "summary",
        "tenants": {k: tenants[k] for k in sorted(tenants)},
        "sim_time": _round(engine.now),
        "events": engine.events_processed,
    }


def report_lines(jobs: List[Job], engine: Any, header: Dict[str, Any]) -> List[str]:
    """Render the full report (header, jobs, files, summary)."""
    records: List[Dict[str, Any]] = []
    records.append({"kind": "header", "schema": SCHEMA, **header})
    for job in jobs:
        records.append({
            "kind": "job",
            "job_id": job.job_id,
            "tenant": job.tenant,
            "priority": job.priority,
            "state": job.state.value,
            "files": len(job.files),
            "retries": job.retries,
            "shed": job.shed,
            "shed_reason": job.shed_reason,
            "retry_after": (
                _round(job.retry_after) if job.retry_after is not None
                else None
            ),
            "submitted_at": _round(job.submitted_at),
            "finished_at": (
                _round(job.finished_at) if job.finished_at is not None else None
            ),
        })
        for task in job.files:
            records.append({
                "kind": "file",
                "job_id": job.job_id,
                "index": task.index,
                "path": task.path,
                "size": task.size,
                "state": task.state.value,
                "attempts": task.attempts,
                "source_used": task.source_used,
                "duplicate": task.duplicate_of is not None,
                "recovered": task.recovered,
                "resumed_from": task.resumed_from,
                "error": task.error,
                "queue_wait": (
                    _round(task.started_at - task.submitted_at)
                    if task.started_at is not None else None
                ),
                "finished_at": (
                    _round(task.finished_at)
                    if task.finished_at is not None else None
                ),
            })
    records.append(summarize(jobs, engine))
    return [json.dumps(r, sort_keys=True) for r in records]


def write_report(path: str, jobs: List[Job], engine: Any,
                 header: Dict[str, Any]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for line in report_lines(jobs, engine, header):
            fh.write(line + "\n")
