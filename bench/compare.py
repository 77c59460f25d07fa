#!/usr/bin/env python3
"""Compare two benchmark documents written by ``run.py --all --out``.

    python bench/compare.py BASE.json NEW.json

One row per workload x end-to-end metric: base, new, ratio (new / base)
and a verdict from the bounds ``BENCHMARK.json`` fixes:

``regressed``   new is worse than base by more than the bound
``unresolved``  a side's min-max range over its repetitions is wider than
                the bound, so one pair of runs cannot tell (unless every
                repetition of new beats every repetition of base)
``improved``    new is better than base by more than the bound
``unchanged``   anything else

Everything simulated or counted (the ``exact`` block, ``sim.events`` and
every ``*.calls`` / ``*_calls`` layer metric) must be identical at one
seed; differences are listed and make the exit code non-zero, as does any
``regressed`` row.  One pair of runs never supports a *gain* claim: see
``README.md`` for the ten-pair rule.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Any, Dict, List, Tuple

CONTRACT_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCHMARK.json",
)


def load_contract() -> Dict[str, Any]:
    with open(CONTRACT_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _verdict(base: Dict[str, Any], new: Dict[str, Any],
             bound: float, lower_is_better: bool) -> str:
    sign = 1.0 if lower_is_better else -1.0
    worse_by = sign * (new["value"] - base["value"]) / base["value"]
    if worse_by > bound:
        return "regressed"
    lo_b, hi_b = base.get("min", base["value"]), base.get("max", base["value"])
    lo_n, hi_n = new.get("min", new["value"]), new.get("max", new["value"])
    wide = ((hi_b - lo_b) / base["value"] > bound
            or (hi_n - lo_n) / new["value"] > bound)
    if wide:
        separated = hi_n < lo_b if lower_is_better else lo_n > hi_b
        return "improved" if separated else "unresolved"
    return "improved" if worse_by < -bound else "unchanged"


def _counted(name: str) -> bool:
    return name == "sim.events" or name.endswith((".calls", "_calls"))


def compare_docs(
    base: Dict[str, Any], new: Dict[str, Any], contract: Dict[str, Any]
) -> Tuple[List[Dict[str, Any]], List[str]]:
    """Rows for every workload x end-to-end metric, and the list of
    exact values that differ."""
    rows: List[Dict[str, Any]] = []
    diffs: List[str] = []
    if base.get("seed") != new.get("seed"):
        diffs.append(f"seeds differ: {base.get('seed')} vs {new.get('seed')}")
    for workload in (w["name"] for w in contract["workloads"]):
        b = base["workloads"].get(workload)
        n = new["workloads"].get(workload)
        if b is None or n is None:
            diffs.append(f"{workload}: missing from one document")
            continue
        for metric in contract["end_to_end"]:
            name = metric["name"]
            bm, nm = b["end_to_end"][name], n["end_to_end"][name]
            rows.append({
                "workload": workload,
                "metric": name,
                "unit": metric["unit"],
                "base": bm["value"],
                "new": nm["value"],
                "ratio": nm["value"] / bm["value"],
                "verdict": _verdict(bm, nm, metric["bound"],
                                    metric["better"] == "lower"),
            })
        for key, value in b["exact"].items():
            if n["exact"].get(key) != value:
                diffs.append(f"{workload}: exact {key}: {value!r} -> "
                             f"{n['exact'].get(key)!r}")
        for key, entry in b.get("per_layer", {}).items():
            other = n.get("per_layer", {}).get(key)
            if _counted(key) and other is not None \
                    and other["value"] != entry["value"]:
                diffs.append(f"{workload}: count {key}: {entry['value']!r} "
                             f"-> {other['value']!r}")
    return rows, diffs


def print_rows(rows: List[Dict[str, Any]]) -> None:
    print(f"{'workload':16s} {'metric':12s} {'base':>12s} {'new':>12s} "
          f"{'ratio':>7s}  verdict")
    for r in rows:
        print(f"{r['workload']:16s} {r['metric']:12s} {r['base']:12.5g} "
              f"{r['new']:12.5g} {r['ratio']:7.3f}  {r['verdict']} "
              f"[{r['unit']}]")


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    docs = []
    for path in argv:
        with open(path, "r", encoding="utf-8") as fh:
            docs.append(json.load(fh))
    for path, doc in zip(argv, docs):
        if not doc.get("comparable", False):
            print(f"compare: {path} is not comparable (scaled-down run)",
                  file=sys.stderr)
            return 2
        if doc["host"].get("noisy"):
            print(f"compare: warning: {path} was measured on a loaded host",
                  file=sys.stderr)
    rows, diffs = compare_docs(docs[0], docs[1], load_contract())
    print_rows(rows)
    for diff in diffs:
        print(f"compare: {diff}", file=sys.stderr)
    regressed = any(r["verdict"] == "regressed" for r in rows)
    return 1 if (diffs or regressed) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
