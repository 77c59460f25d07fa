"""Command-line interface."""

import pytest

from repro.cli import _parse_tenants, main, parse_size


def test_parse_size():
    assert parse_size("4096") == 4096
    assert parse_size("4K") == 4096
    assert parse_size("4k") == 4096
    assert parse_size("1M") == 1 << 20
    assert parse_size("2G") == 2 << 30
    assert parse_size("1.5M") == int(1.5 * (1 << 20))
    assert parse_size("4MB") == 4 << 20
    assert parse_size("4MiB") == 4 << 20


@pytest.mark.parametrize("bad", ["", "x", "-1M", "0", "inf", "nan", "1e400"])
def test_parse_size_rejects(bad):
    with pytest.raises(ValueError):
        parse_size(bad)


def test_testbeds_command(capsys):
    assert main(["testbeds"]) == 0
    out = capsys.readouterr().out
    assert "roce-lan" in out and "ani-wan" in out and "49" in out


def test_rftp_command(capsys):
    code = main(
        ["rftp", "--testbed", "roce-lan", "--bytes", "64M", "--block-size", "1M",
         "--channels", "2", "--pool", "8"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "Gbps" in out and "RNR NAKs 0" in out


def test_gridftp_command(capsys):
    code = main(
        ["gridftp", "--testbed", "roce-lan", "--bytes", "64M", "--streams", "2"]
    )
    assert code == 0
    assert "stream(s)" in capsys.readouterr().out


def test_fio_command(capsys):
    code = main(
        ["fio", "--testbed", "roce-lan", "--semantics", "write",
         "--block-size", "128K", "--iodepth", "8", "--blocks", "200"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "Gbps" in out and "p99" in out


def test_rftp_disk_command(capsys):
    code = main(
        ["rftp", "--testbed", "ani-wan", "--bytes", "256M", "--pool", "48",
         "--disk"]
    )
    assert code == 0


def test_rftp_on_demand_ablation(capsys):
    code = main(
        ["rftp", "--testbed", "roce-lan", "--bytes", "32M", "--block-size", "1M",
         "--pool", "8", "--on-demand-credits"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "credit requests" in out


def test_unknown_testbed_rejected():
    with pytest.raises(SystemExit):
        main(["rftp", "--testbed", "mars-lan"])
    # --tenants skips an empty entry, and refuses a list of nothing.
    assert _parse_tenants("gold:3,,bronze") == {"gold": 3.0, "bronze": 1.0}
    with pytest.raises(ValueError, match="no tenants parsed"):
        _parse_tenants(" , ")


@pytest.mark.parametrize("argv", [
    ["rftp", "--bytes", "0"],
    ["rftp", "--bytes", "1Q"],
    ["rftp", "--bytes", "inf"],
    ["rftp", "--bytes", "1e400"],
    ["gridftp", "--bytes", "nan"],
    ["rftp", "--block-size", "0"],
    ["gridftp", "--bytes", "x"],
    ["gridftp", "--block-size", "0"],
    ["fio", "--block-size", "1Q"],
    ["chaos", "--bytes", "0"],
    ["chaos", "--link-flap", "0.2"],
    ["chaos", "--qp-kill", "0.1"],
    ["chaos", "--qp-kill", "0.1:x"],
    ["chaos", "--sink-crash", "abc"],
    ["chaos", "--source-crash", "abc"],
    ["sched", "--quick", "--tenants", ":3"],
], ids=" ".join)
def test_malformed_flag_is_a_usage_error(argv, capsys):
    # Exit 2 with argparse's usage line, not a traceback (exit 1 is a
    # typed transfer failure).
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "invalid" in capsys.readouterr().err


# Out-of-range values the config / plan / spec checks reject, and the
# message each must print.
OUT_OF_RANGE = [
    ("chaos --write-fault-rate 1.5", "must be a probability"),
    ("sched --quick --tenants gold:0", "tenant weight must be positive"),
    ("sched --quick --tenants gold:nan", "tenant weight must be positive"),
    ("sched --quick --tenants gold:inf", "tenant weight must be positive"),
    ("sched --quick --max-active 0", "max_active must be >= 1"),
    ("sched --quick --doors 0", "'doors' must be a positive integer"),
    ("sched --quick --overload [1]", "--overload must be a JSON object"),
    ("sched --quick --files 0", "total_files must be >= 1"),
    ("sched --spec /nonexistent/spec.json", "No such file or directory"),
    ("sched --quick --files 8 --testbed roce-lan --attempt-fault-window 0 1",
     "--attempt-fault-window needs --attempt-fault-rate"),
    # --recover with no spec runs the journal's own: an edit is refused
    # before the journal is read, not silently dropped.
    ("sched --recover /nonexistent/run.journal --attempt-fault-rate 0.9",
     "flags cannot edit its faults"),
    ("sched --recover /nonexistent/run.journal --watchdog --drain-at 1 --use-srq",
     "flags cannot edit its watchdog, drain_at, use_srq"),
    ("rftp --channels 0", "need at least one data channel"),
    ("rftp --pool 1", "pools need at least two blocks"),
    ("fio --iodepth 0", "iodepth must be >= 1"),
    ("gridftp --streams 0", "streams must be >= 1"),
]


def test_chaos_command_rejects_an_invalid_fault_plan(capsys):
    # Out-of-range values are usage errors (exit 2), never a traceback.
    for argv, message in OUT_OF_RANGE:
        assert main(argv.split()) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err, (argv, err)


def test_chaos_command_clean_run(capsys, monkeypatch):
    argv = ["chaos", "--testbed", "roce-lan", "--bytes", "32M",
            "--write-fault-rate", "0.08", "--seed", "1"]
    code = main(argv)
    assert code == 0
    out = capsys.readouterr().out
    assert "byte-exact: yes" in out
    assert "verdict: clean" in out
    # A leak the harness finds is listed, and fails the command.
    import dataclasses

    import repro.faults

    run_chaos = repro.faults.run_chaos
    monkeypatch.setattr(repro.faults, "run_chaos", lambda *a, **kw: dataclasses.replace(
        run_chaos(*a, **kw), leaks=("planted leak",)))
    assert main(argv) == 1
    out = capsys.readouterr().out
    assert "LEAKS:\n  - planted leak\n" in out and "verdict: NOT CLEAN" in out


def test_chaos_command_typed_abort_is_clean(capsys):
    code = main(
        ["chaos", "--testbed", "roce-lan", "--bytes", "8M",
         "--link-flap", "0.001:120"]  # outage outlasts every retry budget
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "aborted with" in out
    assert "verdict: clean" in out


def test_rftp_metrics_and_trace_export(tmp_path, capsys):
    import json

    mpath, tpath = tmp_path / "m.jsonl", tmp_path / "t.jsonl"
    rc = main([
        "rftp", "--bytes", "32M",
        "--metrics-out", str(mpath),
        "--trace-out", str(tpath), "--trace-categories", "ctrl,credits",
    ])
    assert rc == 0
    mlines = [json.loads(l) for l in mpath.read_text().splitlines()]
    assert mlines[0]["record"] == "engine" and mlines[0]["run"] == 0
    assert mlines[0]["events_processed"] > 0
    names = {r["metric"] for r in mlines if r["record"] == "metric"}
    assert {"pool.blocks", "credits.granted_total", "reassembly.duplicates",
            "qp.bytes_sent", "source.blocks_completed"} <= names
    tlines = [json.loads(l) for l in tpath.read_text().splitlines()]
    assert tlines[0]["record"] == "tracer" and tlines[0]["emitted"] > 0
    cats = {r["category"] for r in tlines if r["record"] == "trace"}
    assert cats and cats <= {"ctrl", "credits"}


def test_chaos_metrics_export_covers_subsystems(tmp_path, capsys):
    import json

    mpath = tmp_path / "chaos.jsonl"
    rc = main([
        "chaos", "--bytes", "32M", "--write-fault-rate", "0.02",
        "--metrics-out", str(mpath),
    ])
    assert rc == 0
    names = {
        r["metric"]
        for r in map(json.loads, mpath.read_text().splitlines())
        if r["record"] == "metric"
    }
    assert {"pool.free_blocks", "credits.balance", "reassembly.parked",
            "data.qp_blocks_posted"} <= names


def test_export_collection_window_is_reset(tmp_path, capsys):
    from repro.obs import runtime
    from repro.sim import Engine

    rc = main(["rftp", "--bytes", "32M",
               "--metrics-out", str(tmp_path / "m.jsonl")])
    assert rc == 0
    Engine()  # collection is off again, so a new engine is not tracked
    assert runtime.collected_engines() == []
    assert runtime.make_tracer() is None


def test_sched_command_runs_a_mix_and_writes_a_report(tmp_path, capsys):
    import json

    rep = tmp_path / "report.jsonl"
    rc = main(["sched", "--files", "40", "--testbed", "roce-lan",
               "--report", str(rep)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "gold" in out and "bronze" in out and "sim time" in out
    lines = rep.read_text().splitlines()
    header = json.loads(lines[0])
    assert header["kind"] == "header" and header["testbed"] == "roce-lan"
    assert json.loads(lines[-1])["kind"] == "summary"


def test_sched_command_report_is_byte_identical_across_runs(tmp_path, capsys):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    argv = ["sched", "--files", "40", "--testbed", "roce-lan"]
    assert main(argv + ["--report", str(a)]) == 0
    assert main(argv + ["--report", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_sched_command_exits_nonzero_when_jobs_do_not_finish(tmp_path, capsys, monkeypatch):
    import json

    from repro.sched.spec import synthetic_spec

    rc = main(["sched", "--files", "200", "--testbed", "ani-wan",
               "--horizon", "2.0"])
    assert rc == 1
    assert "did not finish" in capsys.readouterr().err

    # A drain leaves only the non-terminal jobs for a later --recover;
    # a job its deadline canceled fails the drained run as it fails an
    # undrained one, and the recovered run says the same.
    spec = synthetic_spec(total_files=120)
    for job in spec["jobs"][::3]:
        job["deadline"] = 0.6
    spec["checkpoint_compact"] = True
    spec["drain_at"] = 2.0
    path, journal = tmp_path / "deadline.json", str(tmp_path / "deadline.journal")
    path.write_text(json.dumps(spec))
    assert main(["sched", "--spec", str(path), "--journal", journal]) == 1
    out, err = capsys.readouterr()
    assert "drained: 3 job(s) left for a later --recover" in out
    assert "error: 2 job(s) did not finish" in err
    assert main(["sched", "--recover", journal]) == 1
    assert "error: 2 job(s) did not finish" in capsys.readouterr().err

    # A leak or a failed delivery audit fails a run whose jobs all
    # finished, each named on stderr.
    import repro.sched

    run_sched = repro.sched.run_sched

    def planted(*args, **kwargs):
        result = run_sched(*args, **kwargs)
        result.leaks = ["planted leak"]
        if result.audit_ok:
            result.audit_ok, result.audit_problems = False, ["planted problem"]
        return result

    monkeypatch.setattr(repro.sched, "run_sched", planted)
    argv = ["sched", "--files", "8", "--testbed", "roce-lan", "--resubmit", "1",
            "--attempt-fault-rate", "0.5", "--attempt-fault-window", "0", "1"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "leak: planted leak\nerror: 1 quiescence leak(s) after the run" in err
    assert main(argv + ["--audit"]) == 1
    err = capsys.readouterr().err
    assert "audit: planted problem\nerror: delivery audit failed (1 problem(s))" in err


def test_sched_command_requires_a_mix(capsys):
    assert main(["sched"]) == 2
    assert "--spec" in capsys.readouterr().err
