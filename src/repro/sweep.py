"""Multiprocess parameter-sweep runner (``python -m repro sweep``).

A sweep spec is a JSON object naming a runner and a grid of parameters::

    {
      "runner": "rftp",                  // or "gridftp"
      "testbed": "ani-wan",
      "base":  {"bytes": "64M"},         // shared by every point
      "axes":  {"channels": [1, 2, 4],   // cartesian product
                "block_size": ["1M", "4M"]}
    }

A point's keys are ``bytes``, ``seed`` and the runner's CLI knobs
(:data:`repro.cli.RFTP_KNOBS`, :data:`repro.cli.GRIDFTP_KNOBS`), mapped
by the same functions the flags go through; any other key is an error.

Points are expanded as the cartesian product of the axes (axis names
iterated in sorted order, values in spec order) and sharded across a
``ProcessPoolExecutor``.  Every point is an independent, seeded
simulation, so the output is a pure function of the spec: records are
collected, sorted by their canonical point key, and written as JSONL
with sorted keys and **no wall-clock fields** — the merged file is
byte-identical across repeat runs and across any ``--jobs`` count.
"""

from __future__ import annotations

import itertools
import json
from concurrent.futures import ProcessPoolExecutor
from typing import IO, Any, Dict, List, Sequence, Tuple

__all__ = [
    "SWEEP_SCHEMA_VERSION",
    "QUICK_SPEC",
    "load_spec",
    "validate_spec",
    "expand_points",
    "point_key",
    "run_point",
    "run_sweep",
    "write_jsonl",
]

SWEEP_SCHEMA_VERSION = 1

RUNNERS = ("rftp", "gridftp")

#: Keys whose values may be human-friendly size strings ("4M", "64K").
_SIZE_KEYS = {"bytes", "block_size"}

#: The built-in ``--quick`` spec: small enough for a CI smoke leg, wide
#: enough (4 points, 2 axes) to exercise sharding and the merge order.
QUICK_SPEC: Dict[str, Any] = {
    "runner": "rftp",
    "testbed": "ani-wan",
    "base": {"bytes": "16M", "seed": 0},
    "axes": {"channels": [1, 4], "block_size": ["1M", "4M"]},
}


def load_spec(path: str) -> dict:
    with open(path) as fh:
        spec = json.load(fh)
    validate_spec(spec)
    return spec


def validate_spec(spec: dict) -> None:
    """Raise ``ValueError`` unless ``spec`` is a well-formed sweep spec."""
    if not isinstance(spec, dict):
        raise ValueError("sweep spec must be a JSON object")
    runner = spec.get("runner")
    if runner not in RUNNERS:
        raise ValueError(f"unknown sweep runner {runner!r}; known: {RUNNERS}")
    base = spec.get("base", {})
    if not isinstance(base, dict):
        raise ValueError("sweep 'base' must be an object")
    axes = spec.get("axes", {})
    if not isinstance(axes, dict) or not axes:
        raise ValueError("sweep 'axes' must be a non-empty object")
    for name, values in axes.items():
        if not isinstance(values, list) or not values:
            raise ValueError(f"axis {name!r} must be a non-empty list")
    from repro.cli import GRIDFTP_KNOBS, RFTP_KNOBS

    knobs = RFTP_KNOBS if runner == "rftp" else GRIDFTP_KNOBS
    unknown = (base.keys() | axes.keys()) - {"bytes", "seed", *knobs}
    if unknown:
        raise ValueError(f"unknown {runner} sweep keys: {sorted(unknown)}")
    if "bytes" not in base and "bytes" not in axes:
        raise ValueError("sweep needs 'bytes' in base or axes")


def _coerce_sizes(params: dict) -> dict:
    from repro.cli import parse_size

    out = dict(params)
    for key in _SIZE_KEYS & out.keys():
        if isinstance(out[key], str):
            out[key] = parse_size(out[key])
    return out


def expand_points(spec: dict) -> List[dict]:
    """The spec's parameter grid, in deterministic order.

    Axis names iterate sorted, values in spec order; every point is the
    base dict overlaid with its axis assignment, size strings resolved
    to byte counts so the canonical key never depends on spelling.
    """
    base = _coerce_sizes(spec.get("base", {}))
    names = sorted(spec["axes"])
    points = []
    for combo in itertools.product(*(spec["axes"][n] for n in names)):
        point = dict(base)
        point.update(zip(names, combo))
        points.append(_coerce_sizes(point))
    return points


def point_key(params: dict) -> str:
    """Canonical identity of one point — the sort key of the merge."""
    return json.dumps(params, sort_keys=True, separators=(",", ":"))


def _run_rftp_point(testbed: str, params: dict) -> dict:
    from repro.apps.rftp import run_rftp
    from repro.cli import rftp_config
    from repro.testbeds import TESTBEDS

    tb = TESTBEDS[testbed](seed=int(params.get("seed", 0)))
    result = run_rftp(tb, int(params["bytes"]), rftp_config(params))
    return {
        "gbps": result.gbps,
        "sim_time": tb.engine.now,
        "events": tb.engine.events_processed,
        "blocks": result.outcome.blocks,
        "resends": result.outcome.resends,
    }


def _run_gridftp_point(testbed: str, params: dict) -> dict:
    from repro.apps.gridftp import run_gridftp
    from repro.cli import gridftp_kwargs
    from repro.testbeds import TESTBEDS

    tb = TESTBEDS[testbed](seed=int(params.get("seed", 0)))
    result = run_gridftp(tb, int(params["bytes"]), **gridftp_kwargs(params))
    return {
        "gbps": result.gbps,
        "sim_time": tb.engine.now,
        "events": tb.engine.events_processed,
        "losses": result.losses,
    }


def run_point(task: Tuple[str, str, dict]) -> dict:
    """Run one sweep point; the pool's picklable unit of work.

    Returns the full record (params echoed back plus the simulation's
    result) so the parent never has to correlate by index.
    """
    runner, testbed, params = task
    if runner == "rftp":
        result = _run_rftp_point(testbed, params)
    else:  # validate_spec admits the two runners only
        result = _run_gridftp_point(testbed, params)
    return {"params": params, "result": result}


def run_sweep(spec: dict, jobs: int = 0) -> List[dict]:
    """Expand, shard, run, and deterministically merge one sweep.

    ``jobs`` <= 1 runs inline (no pool); any larger value shards the
    points across that many worker processes.  The merge sorts by
    canonical point key, so the record order — and the serialized
    output — is independent of worker count and completion order.
    """
    validate_spec(spec)
    testbed = spec.get("testbed", "ani-wan")
    tasks = [(spec["runner"], testbed, p) for p in expand_points(spec)]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            records = list(pool.map(run_point, tasks))
    else:
        records = [run_point(task) for task in tasks]
    records.sort(key=lambda r: point_key(r["params"]))
    return records


def write_jsonl(spec: dict, records: Sequence[dict], fh: IO[str]) -> None:
    """One header line plus one sorted-key line per point.

    Nothing wall-clock dependent is written — not even a date — so two
    runs of the same spec produce byte-identical files.
    """
    header = {
        "kind": "repro-sweep",
        "schema": SWEEP_SCHEMA_VERSION,
        "runner": spec["runner"],
        "testbed": spec.get("testbed", "ani-wan"),
        "points": len(records),
    }
    fh.write(json.dumps(header, sort_keys=True) + "\n")
    for record in records:
        fh.write(json.dumps(record, sort_keys=True, allow_nan=False) + "\n")
