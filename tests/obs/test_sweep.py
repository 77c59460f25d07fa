"""The sweep runner's contract: deterministic, shard-count-invariant output."""

from __future__ import annotations

import io
import json

import pytest

from repro.cli import main
from repro.sweep import (
    QUICK_SPEC,
    expand_points,
    point_key,
    run_sweep,
    validate_spec,
    write_jsonl,
)

#: Small enough to run in-process several times; two axes so the merge
#: order actually has something to sort.
TINY_SPEC = {
    "runner": "rftp",
    "testbed": "roce-lan",
    "base": {"bytes": "8M", "seed": 0},
    "axes": {"channels": [2, 1], "block_size": ["2M"]},
}


def _render(spec, records):
    buf = io.StringIO()
    write_jsonl(spec, records, buf)
    return buf.getvalue()


# -- spec validation ---------------------------------------------------------
def test_validate_rejects_bad_specs():
    with pytest.raises(ValueError, match="runner"):
        validate_spec({"runner": "nope", "axes": {"a": [1]}})
    with pytest.raises(ValueError, match="axes"):
        validate_spec({"runner": "rftp", "base": {"bytes": 1}, "axes": {}})
    with pytest.raises(ValueError, match="non-empty list"):
        validate_spec({"runner": "rftp", "base": {"bytes": 1},
                       "axes": {"channels": []}})
    with pytest.raises(ValueError, match="bytes"):
        validate_spec({"runner": "rftp", "axes": {"channels": [1]}})
    # A point key outside the runner's vocabulary would run N identical
    # points under different labels.
    with pytest.raises(ValueError, match=r"unknown rftp sweep keys: \['chanels'\]"):
        validate_spec({"runner": "rftp", "base": {"bytes": "8M"},
                       "axes": {"chanels": [1, 4]}})
    with pytest.raises(ValueError, match=r"unknown gridftp sweep keys: \['pool'\]"):
        validate_spec({"runner": "gridftp", "base": {"bytes": 1, "pool": 4},
                       "axes": {"streams": [1]}})
    validate_spec(QUICK_SPEC)
    validate_spec({"runner": "gridftp", "base": {"bytes": 1, "seed": 0, "cc": "reno"},
                   "axes": {"streams": [1], "block_size": ["1M"]}})


def test_expand_points_is_deterministic_and_coerces_sizes():
    points = expand_points(TINY_SPEC)
    assert len(points) == 2
    # Size strings resolve to byte counts so the canonical key never
    # depends on spelling; axis values keep their spec order.
    assert all(p["bytes"] == 8 * 1024 * 1024 for p in points)
    assert all(p["block_size"] == 2 * 1024 * 1024 for p in points)
    assert [p["channels"] for p in points] == [2, 1]
    assert expand_points(TINY_SPEC) == points


def test_point_key_is_order_insensitive():
    assert point_key({"a": 1, "b": 2}) == point_key({"b": 2, "a": 1})


# -- determinism across worker counts ----------------------------------------
def test_sweep_output_identical_across_jobs_and_repeats():
    inline = _render(TINY_SPEC, run_sweep(TINY_SPEC, jobs=0))
    again = _render(TINY_SPEC, run_sweep(TINY_SPEC, jobs=1))
    sharded = _render(TINY_SPEC, run_sweep(TINY_SPEC, jobs=2))
    assert inline == again == sharded
    lines = inline.splitlines()
    header = json.loads(lines[0])
    assert header["kind"] == "repro-sweep"
    assert header["points"] == 2
    records = [json.loads(line) for line in lines[1:]]
    # Merge order is the canonical key order, not submission order.
    keys = [point_key(r["params"]) for r in records]
    assert keys == sorted(keys)
    for record in records:
        assert record["result"]["gbps"] > 0
        assert "wall" not in record["result"]


def test_gridftp_sweep_runs_each_stream_count():
    spec = {
        "runner": "gridftp",
        "testbed": "roce-lan",
        "base": {"bytes": "8M", "block_size": "1M"},
        "axes": {"streams": [1, 2]},
    }
    records = run_sweep(spec)
    assert [r["params"]["streams"] for r in records] == [1, 2]
    for record in records:
        result = record["result"]
        assert result["gbps"] > 0 and result["events"] > 0
        assert result["losses"] == 0  # a LAN with no competing traffic
    assert _render(spec, records) == _render(spec, run_sweep(spec))


# -- CLI ---------------------------------------------------------------------
def test_cli_sweep_roundtrip(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(TINY_SPEC))
    out_a = tmp_path / "a.jsonl"
    out_b = tmp_path / "b.jsonl"
    assert main(["sweep", "--spec", str(spec_path), "--jobs", "2",
                 "--out", str(out_a)]) == 0
    assert main(["sweep", "--spec", str(spec_path),
                 "--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_cli_sweep_requires_spec_or_quick(capsys):
    assert main(["sweep"]) == 2
    assert "need --spec or --quick" in capsys.readouterr().err
