"""Command-line interface: run transfers, sweeps, and paper figures.

Examples
--------
::

    python -m repro testbeds
    python -m repro rftp --testbed ani-wan --bytes 8G --block-size 4M --channels 4 --pool 48
    python -m repro gridftp --testbed ani-wan --bytes 8G --streams 8
    python -m repro fio --testbed roce-lan --semantics read --block-size 64K --iodepth 16
    python -m repro sweep --quick --jobs 4 --out sweep.jsonl
    python -m repro figure 10
    python -m repro ablation credits
    python -m repro chaos --testbed ani-wan --write-fault-rate 0.05 --ctrl-drop-rate 0.1
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import json
import sys
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro import testbeds
from repro.apps.fio import FioJob, run_fio
from repro.apps.gridftp import run_gridftp
from repro.apps.io import DiskSink
from repro.apps.rftp import run_rftp
from repro.core import ProtocolConfig
from repro.testbeds import TESTBEDS

__all__ = ["main", "parse_size"]

_UNITS = {"": 1, "K": 1 << 10, "M": 1 << 20, "G": 1 << 30, "T": 1 << 40}


def parse_size(text: str) -> int:
    """Parse '4M', '512K', '8G', '1048576' into bytes."""
    text = text.strip().upper().removesuffix("B").removesuffix("I")
    if not text:
        raise ValueError("empty size")
    unit = text[-1] if text[-1] in _UNITS and not text[-1].isdigit() else ""
    number = text[: len(text) - len(unit)]
    try:
        # int() raises OverflowError on inf, ValueError on nan.
        result = int(float(number) * _UNITS[unit])
    except (ValueError, OverflowError):
        raise ValueError(f"cannot parse size {text!r}") from None
    if result <= 0:
        raise ValueError(f"size must be positive, got {text!r}")
    return result


def _pair(second: Callable[[str], float]) -> Callable[[str], Tuple[float, float]]:
    """An argparse type for 'A:B' flags: A a float, B a ``second``."""

    def pair(text: str) -> Tuple[float, float]:
        first, sep, rest = text.partition(":")
        if not sep:
            raise ValueError(f"expected A:B, got {text!r}")
        return float(first), second(rest)

    return pair


def _fields_of(cls: type, args: argparse.Namespace) -> Dict[str, Any]:
    """The flags whose dest names a field of dataclass ``cls``."""
    return {
        f.name: getattr(args, f.name)
        for f in dataclasses.fields(cls) if hasattr(args, f.name)
    }


def _add_testbed_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--testbed",
        choices=sorted(TESTBEDS),
        default="roce-lan",
        help="which Table I testbed to build (default: roce-lan)",
    )
    parser.add_argument("--seed", type=int, default=0)


def _add_export_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--metrics-out", metavar="PATH", default=None,
        help="write a JSONL metrics snapshot of every engine built by "
             "this command (one 'engine' header + one line per metric)",
    )
    parser.add_argument(
        "--trace-out", metavar="PATH", default=None,
        help="attach a Tracer to every engine and write its records as JSONL",
    )
    parser.add_argument(
        "--trace-categories", metavar="CAT[,CAT...]", default=None,
        help="restrict --trace-out to these categories (default: all)",
    )


def _cmd_testbeds(args: argparse.Namespace) -> int:
    from repro.experiments import table1_testbeds

    rows = table1_testbeds.run()
    table1_testbeds.render(rows).print()
    return 0


#: The ``rftp`` knobs its flags and a sweep point share, each with the
#: ProtocolConfig fields it sets.
RFTP_KNOBS = {
    "block_size": ("block_size",),
    "channels": ("num_channels",),
    "pool": ("source_blocks", "sink_blocks"),
}
#: The ``gridftp`` knobs its flags and a sweep point share: the
#: run_gridftp keywords of the same names.
GRIDFTP_KNOBS = ("block_size", "streams", "cc")


def rftp_config(knobs: Dict[str, Any], **fields: Any) -> ProtocolConfig:
    """The ProtocolConfig of whichever :data:`RFTP_KNOBS` ``knobs`` sets."""
    for knob, names in RFTP_KNOBS.items():
        if knob in knobs:
            fields.update(dict.fromkeys(names, int(knobs[knob])))
    return ProtocolConfig(**fields)


def gridftp_kwargs(knobs: Dict[str, Any]) -> Dict[str, Any]:
    """The run_gridftp keywords of whichever :data:`GRIDFTP_KNOBS` ``knobs`` sets."""
    return {
        knob: knobs[knob] if knob == "cc" else int(knobs[knob])
        for knob in GRIDFTP_KNOBS if knob in knobs
    }


def _cmd_rftp(args: argparse.Namespace) -> int:
    tb = TESTBEDS[args.testbed](seed=args.seed, with_disk=args.disk)
    config = rftp_config(vars(args), proactive_credits=args.proactive_credits)
    sink = DiskSink(tb.dst, direct=not args.posix) if args.disk else None
    result = run_rftp(tb, args.bytes, config, sink=sink)
    o = result.outcome
    print(f"{result.gbps:.2f} Gbps over {tb.name} "
          f"({100 * result.gbps / tb.bare_metal_gbps:.0f}% of bare metal)")
    print(f"client CPU {result.client_cpu_pct:.0f}%  "
          f"server CPU {result.server_cpu_pct:.0f}%")
    print(f"blocks {o.blocks}  resends {o.resends}  "
          f"credit requests {o.mr_requests}  peak credits {o.peak_credits}  "
          f"RNR NAKs {o.rnr_naks}")
    if o.fallbacks > o.repromotions:
        # The transfer finished byte-exact but ended on the degraded TCP
        # path: report it and exit non-zero so scripted callers (and the
        # scheduler's retry logic) see the degradation.
        print("warning: transfer ended degraded on the TCP fallback path "
              f"({o.fallbacks} fallbacks, {o.repromotions} repromotions)",
              file=sys.stderr)
        return 1
    return 0


def _cmd_gridftp(args: argparse.Namespace) -> int:
    tb = TESTBEDS[args.testbed](seed=args.seed)
    result = run_gridftp(tb, args.bytes, **gridftp_kwargs(vars(args)))
    print(f"{result.gbps:.2f} Gbps over {tb.name} with {args.streams} stream(s)")
    print(f"client CPU {result.client_cpu_pct:.0f}% "
          f"(app thread {result.client_app_cpu_pct:.0f}%)  "
          f"server CPU {result.server_cpu_pct:.0f}%  "
          f"TCP losses {result.losses}")
    return 0


def _cmd_fio(args: argparse.Namespace) -> int:
    tb = TESTBEDS[args.testbed](seed=args.seed)
    result = run_fio(tb, FioJob(**_fields_of(FioJob, args)))
    print(f"{result.gbps:.2f} Gbps  "
          f"src CPU {result.src_cpu_pct:.1f}%  dst CPU {result.dst_cpu_pct:.1f}%")
    print(f"latency us: mean {result.lat_mean_us:.1f}  "
          f"p50 {result.lat_p50_us:.1f}  p99 {result.lat_p99_us:.1f}")
    return 0


#: ``repro figure N``: the experiment module, the testbed its ``run``
#: takes and the title its ``render`` takes (None: takes none).
FIGURES = {
    3: ("fig3_fig4_semantics", "roce_lan", "Fig. 3 — RDMA semantics, RoCE LAN"),
    4: ("fig3_fig4_semantics", "infiniband_lan", "Fig. 4 — RDMA semantics, InfiniBand LAN"),
    8: ("fig8_fig9_lan_ftp", "roce_lan", "Fig. 8 — GridFTP vs RFTP, RoCE LAN"),
    9: ("fig8_fig9_lan_ftp", "infiniband_lan", "Fig. 9 — GridFTP vs RFTP, InfiniBand LAN"),
    10: ("fig10_wan_ftp", None, None),
    11: ("fig11_disk", None, None),
}

#: ``repro ablation WHICH``: the ``repro.experiments.ablations`` runner
#: and the title its rows render under.
ABLATIONS = {
    "credits": ("run_credit_ablation", "Ablation — credit flow control (ANI WAN)"),
    "qp": ("run_qp_ablation", "Ablation — parallel data QPs (RoCE LAN)"),
    "iodepth": ("run_iodepth_sweep", "Ablation — I/O depth (RoCE LAN)"),
    "recovery": ("run_recovery_ablation", "Ablation — recovery overhead vs fault rate (ANI WAN)"),
    "resume": ("run_resume_ablation",
               "Ablation — integrity, repair, and session resume (ANI WAN)"),
}


def _cmd_figure(args: argparse.Namespace) -> int:
    name, testbed, title = FIGURES[args.number]
    module = importlib.import_module(f"repro.experiments.{name}")
    if testbed is None:
        module.render(module.run()).print()
    else:
        module.render(module.run(getattr(testbeds, testbed)), title).print()
    return 0


def _cmd_ablation(args: argparse.Namespace) -> int:
    from repro.experiments import ablations

    runner, title = ABLATIONS[args.which]
    ablations.render_rows(getattr(ablations, runner)(), title).print()
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.faults import FaultPlan, run_chaos

    result = run_chaos(
        args.testbed,
        total_bytes=args.bytes,
        plan=FaultPlan.from_spec(_fields_of(FaultPlan, args)),
        config=ProtocolConfig(**_fields_of(ProtocolConfig, args)),
        horizon=args.horizon,
        resume_attempts=args.resume_attempts,
        resume_backoff=args.resume_backoff,
    )
    if result.completed:
        assert result.outcome is not None
        print(f"completed in {result.sim_time:.3f}s sim "
              f"({result.outcome.gbps:.2f} Gbps), "
              f"byte-exact: {'yes' if result.byte_exact else 'NO'}")
    else:
        print(f"aborted with {result.error or 'no typed error (HANG)'} "
              f"at {result.sim_time:.3f}s sim")
    print(f"injected: {result.write_faults} WRITE faults, "
          f"{result.ctrl_drops} ctrl drops, {result.ctrl_delays} ctrl delays, "
          f"{result.latency_spikes} latency spikes, {result.flaps_fired} link flaps, "
          f"{result.payload_corruptions} payload corruptions, "
          f"{result.source_crashes_fired}+{result.sink_crashes_fired} endpoint "
          f"crashes, {result.qp_kills_fired} QP kills")
    print(f"recovered: {result.resends} block re-sends, "
          f"{result.ctrl_retries} ctrl retries, "
          f"{result.duplicates} duplicate deliveries dropped, "
          f"{result.sessions_reclaimed} sessions GC-reclaimed, "
          f"{result.stray_source}+{result.stray_sink} stray messages")
    print(f"repaired: {result.checksum_mismatches} checksum mismatches detected, "
          f"{result.repairs} NACK re-sends, {result.markers_sent} restart markers, "
          f"{result.resume_attempts_used} resume attempts "
          f"(final incarnation from block {result.resumed_from}), "
          f"{int(result.data_bytes_sent)} data bytes on the wire")
    print(f"degraded: {result.fallbacks} TCP fallbacks carrying "
          f"{result.fallback_blocks} blocks, {result.repromotions} repromotions, "
          f"{result.breaker_trips} breaker trips, "
          f"{result.heartbeat_drops} heartbeats dropped, "
          f"{result.fallback_denials} fallbacks denied")
    if result.leaks:
        print("LEAKS:")
        for leak in result.leaks:
            print(f"  - {leak}")
    print(f"verdict: {'clean' if result.clean else 'NOT CLEAN'}")
    return 0 if result.clean else 1


def _parse_tenants(text: str) -> dict:
    """Parse 'gold:3,bronze:1' into {'gold': 3.0, 'bronze': 1.0}."""
    tenants = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        name, _, weight = part.partition(":")
        if not name:
            raise ValueError(f"bad tenant spec {part!r}")
        tenants[name] = float(weight) if weight else 1.0
    if not tenants:
        raise ValueError("no tenants parsed")
    return tenants


def _cmd_sched(args: argparse.Namespace) -> int:
    from repro.analysis.report import Table
    from repro.sched import (
        load_spec,
        overload_spec,
        run_sched,
        summarize,
        synthetic_spec,
        write_report,
    )

    overload = None
    if args.overload is not None:
        overload = json.loads(args.overload)
        if not isinstance(overload, dict):
            raise ValueError("--overload must be a JSON object")
    if args.attempt_fault_window is not None and args.attempt_fault_rate is None:
        raise ValueError("--attempt-fault-window needs --attempt-fault-rate")

    mix = dict(seed=args.seed, tenants=args.tenants, testbed=args.testbed,
               doors=args.doors, max_active=args.max_active)
    files = args.files
    spec = None
    if args.spec:
        spec = load_spec(args.spec)
    elif args.spike is not None:
        spec = overload_spec(total_files=600 if files is None else files,
                             spike=args.spike, **mix)
    elif args.quick or files is not None:
        spec = synthetic_spec(total_files=1000 if files is None else files, **mix)
    elif args.recover is None:
        raise ValueError("need --spec, --quick, --files, --spike, or --recover")
    edits = spec if spec is not None else {}  # --recover alone takes no edit
    if overload is not None:
        edits["overload"] = {**(edits.get("overload") or {}), **overload}
    if args.watchdog:
        edits["watchdog"] = True
    if args.drain_at is not None:
        edits["drain_at"] = args.drain_at
    if args.resubmit is not None:
        edits["resubmit_limit"] = args.resubmit
    faults = dict(edits.get("faults") or {})
    if args.crash_at:
        crashes = [*faults.get("broker_crashes", ()), *args.crash_at]
        faults["broker_crashes"] = sorted(crashes)
    if args.attempt_fault_rate is not None:
        faults["attempt_fault_rate"] = args.attempt_fault_rate
    if args.attempt_fault_window is not None:
        faults["attempt_fault_window"] = args.attempt_fault_window
    if faults:
        edits["faults"] = faults
    if args.use_srq:
        edits["use_srq"] = True
    if spec is None and edits:
        raise ValueError(f"--recover runs its journal's own spec; flags "
                         f"cannot edit its {', '.join(edits)}")
    result = run_sched(
        spec,
        horizon=args.horizon,
        journal_path=args.journal,
        recover=args.recover,
        audit=args.audit,
        restart_delay=args.restart_delay,
    )
    summary = summarize(result.jobs, result.testbed.engine)

    table = Table(
        f"Scheduler run — {result.header['testbed']}, seed {result.header['seed']}",
        ["tenant", "jobs", "files", "finished", "failed", "canceled",
         "shed", "retries", "goodput Gbps"],
    )
    for tenant, t in summary["tenants"].items():
        table.add_row(
            tenant, str(t["jobs"]), str(t["files"]), str(t["finished"]),
            str(t["failed"]), str(t["canceled"]), str(t["shed_jobs"]),
            str(t["retries"]), f"{t['goodput_gbps']:.3f}",
        )
    table.print()
    print(f"sim time {summary['sim_time']:.3f}s  events {summary['events']}")
    if result.shed_jobs:
        hints = [j.retry_after for j in result.jobs
                 if j.shed and j.retry_after is not None]
        print(
            f"shed: {result.shed_jobs} job(s) / {result.shed_files} file(s) "
            f"load-shed with RETRY_AFTER hints "
            f"{min(hints):.2f}-{max(hints):.2f}s" if hints else
            f"shed: {result.shed_jobs} job(s) / {result.shed_files} file(s)"
        )
    # Leaks are only meaningful when every job went terminal: a run cut
    # off by --horizon (or drained mid-flight) legitimately still holds
    # broker/sink state, and the "did not finish" error below owns it.
    leaks = result.leaks if result.all_resolved else []
    if leaks:
        for leak in leaks[:20]:
            print(f"leak: {leak}", file=sys.stderr)
        print(
            f"error: {len(leaks)} quiescence leak(s) after the run",
            file=sys.stderr,
        )
    if result.recoveries or result.header.get("recovered"):
        resumed = sum(
            1 for j in result.jobs for t in j.files if t.resumed_from > 0
        )
        print(
            f"recovered: {result.recoveries} broker restart(s), "
            f"{resumed} session(s) resumed, "
            f"{result.recovered_suffix_bytes} suffix byte(s) moved "
            f"post-recovery"
        )
    if result.audit_ok is not None:
        if result.audit_ok:
            print(
                f"audit: byte-exact ({result.overlap_bytes} identical "
                f"overlap byte(s) across resumes)"
            )
        else:
            for problem in result.audit_problems[:20]:
                print(f"audit: {problem}", file=sys.stderr)
            print(
                f"error: delivery audit failed "
                f"({len(result.audit_problems)} problem(s))",
                file=sys.stderr,
            )
    if args.report:
        write_report(args.report, result.jobs, result.testbed.engine,
                     result.header)
        print(f"wrote {args.report}")
    if result.audit_ok is False:
        return 1
    if leaks:
        return 1
    if not result.all_resolved:
        # Shed jobs are *resolved*: rejected cooperatively, reported
        # with a RETRY_AFTER hint.  Only unfinished non-shed jobs fail
        # the run.
        bad = len(result.unresolved)
        if result.drained:
            print(
                f"drained: {bad} job(s) left for a later --recover "
                f"(checkpoint written)"
            )
            return 0
        print(f"error: {bad} job(s) did not finish", file=sys.stderr)
        return 1
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    import copy

    from repro.sweep import QUICK_SPEC, load_spec, run_sweep, write_jsonl

    if args.spec:
        spec = load_spec(args.spec)
    elif args.quick:
        spec = copy.deepcopy(QUICK_SPEC)
    else:
        raise ValueError("need --spec or --quick")
    records = run_sweep(spec, jobs=args.jobs)
    if args.out:
        with open(args.out, "w") as fh:
            write_jsonl(spec, records, fh)
        print(f"wrote {len(records)} point(s) -> {args.out}", file=sys.stderr)
    else:
        write_jsonl(spec, records, sys.stdout)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SC 2012 RDMA middleware reproduction — simulated testbed runner",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("testbeds", help="print Table I").set_defaults(func=_cmd_testbeds)

    p = sub.add_parser("rftp", help="run an RFTP transfer")
    _add_testbed_arg(p)
    p.add_argument("--bytes", type=parse_size, default="1G",
                   help="dataset size (e.g. 8G)")
    p.add_argument("--block-size", type=parse_size, default="4M")
    p.add_argument("--channels", type=int, default=4)
    p.add_argument("--pool", type=int, default=32, help="source/sink block pool size")
    p.add_argument("--disk", action="store_true", help="write to the RAID sink")
    p.add_argument("--posix", action="store_true", help="POSIX I/O instead of direct")
    p.add_argument(
        "--on-demand-credits",
        dest="proactive_credits",
        action="store_false",
        help="ablation: disable proactive credit feedback",
    )
    _add_export_args(p)
    p.set_defaults(func=_cmd_rftp)

    p = sub.add_parser("gridftp", help="run the GridFTP baseline")
    _add_testbed_arg(p)
    p.add_argument("--bytes", type=parse_size, default="1G")
    p.add_argument("--block-size", type=parse_size, default="1M")
    p.add_argument("--streams", type=int, default=1)
    p.add_argument("--cc", default=None, help="override congestion control")
    _add_export_args(p)
    p.set_defaults(func=_cmd_gridftp)

    p = sub.add_parser("fio", help="run the RDMA I/O engine")
    _add_testbed_arg(p)
    p.add_argument("--semantics", choices=("write", "read", "send"), default="write")
    p.add_argument("--block-size", type=parse_size, default="128K")
    p.add_argument("--iodepth", type=int, default=16)
    p.add_argument("--blocks", type=int, default=2000, dest="total_blocks",
                   metavar="BLOCKS")
    _add_export_args(p)
    p.set_defaults(func=_cmd_fio)

    p = sub.add_parser("figure", help="regenerate a paper figure")
    p.add_argument("number", type=int, choices=tuple(FIGURES))
    p.set_defaults(func=_cmd_figure)

    p = sub.add_parser("ablation", help="run a design-choice ablation")
    p.add_argument("which", choices=tuple(ABLATIONS))
    _add_export_args(p)
    p.set_defaults(func=_cmd_ablation)

    p = sub.add_parser(
        "chaos", help="run a transfer under deterministic fault injection"
    )
    _add_testbed_arg(p)
    p.add_argument("--bytes", type=parse_size, default="256M",
                   help="dataset size (e.g. 256M)")
    p.add_argument("--write-fault-rate", type=float, default=0.0,
                   help="probability an RDMA WRITE fails transiently")
    p.add_argument("--ctrl-drop-rate", type=float, default=0.0,
                   help="probability a droppable control message is lost")
    p.add_argument("--ctrl-delay-rate", type=float, default=0.0,
                   help="probability a control message is delayed")
    p.add_argument("--latency-spike-rate", type=float, default=0.0,
                   help="probability a link serialisation picks up a spike")
    p.add_argument("--link-flap", dest="link_flaps", type=_pair(float), action="append",
                   default=[], metavar="START:DURATION",
                   help="schedule a link outage (seconds); repeatable")
    p.add_argument("--payload-corrupt-rate", type=float, default=0.0,
                   help="probability an RDMA WRITE lands silently corrupted")
    p.add_argument("--sink-crash", dest="sink_crashes", type=float, action="append", default=[],
                   metavar="T",
                   help="crash the sink process at sim-time T; repeatable")
    p.add_argument("--source-crash", dest="source_crashes", type=float, action="append", default=[],
                   metavar="T",
                   help="crash the source process at sim-time T; repeatable")
    p.add_argument("--qp-kill", dest="qp_kills", type=_pair(int), action="append", default=[],
                   metavar="T:INDEX",
                   help="kill data channel INDEX at sim-time T; repeatable")
    p.add_argument("--resume-attempts", type=int, default=0,
                   help="SESSION_RESUME retries after a typed abort")
    p.add_argument("--resume-backoff", type=float, default=1.0,
                   help="seconds to wait before each resume attempt")
    p.add_argument("--no-repair", dest="block_repair", action="store_false",
                   help="ablation: disable checksum-NACK block repair")
    p.add_argument("--heartbeat-drop-rate", type=float, default=0.0,
                   help="probability a PING/PONG is lost after posting")
    p.add_argument("--deny-fallback", dest="fallback_deny", action="store_true",
                   help="sink denies every TRANSPORT_FALLBACK_REQ")
    p.add_argument("--no-fallback", dest="tcp_fallback", action="store_false",
                   help="ablation: source never attempts the TCP fallback")
    p.add_argument("--no-repromote", dest="fallback_repromote", action="store_false",
                   help="ablation: a degraded session stays on TCP")
    p.add_argument("--horizon", type=float, default=300.0,
                   help="sim-time bound for hang detection")
    _add_export_args(p)
    p.set_defaults(func=_cmd_chaos)

    p = sub.add_parser(
        "sched", help="run a multi-tenant job mix through the transfer broker"
    )
    p.add_argument("--spec", metavar="PATH", default=None,
                   help="job-mix spec file (JSON; see repro.sched.spec)")
    p.add_argument("--quick", action="store_true",
                   help="synthetic 1000-file, 2-tenant (gold:3, bronze:1) "
                        "mix on the ANI WAN")
    p.add_argument("--files", type=int, default=None,
                   help="synthetic mix size (overrides --quick's 1000)")
    p.add_argument("--tenants", type=_parse_tenants, default="gold:3,bronze:1",
                   metavar="NAME:WEIGHT[,NAME:WEIGHT...]",
                   help="synthetic mix tenants (default gold:3,bronze:1)")
    p.add_argument("--testbed", choices=sorted(TESTBEDS), default="ani-wan",
                   help="testbed for the synthetic mix (default: ani-wan)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--doors", type=int, default=2,
                   help="connection sets to the server (failover alternatives)")
    p.add_argument("--max-active", type=int, default=8,
                   help="broker worker-pool size (concurrent sessions)")
    p.add_argument("--report", metavar="PATH", default=None,
                   help="write the JSONL job report here")
    p.add_argument("--horizon", type=float, default=None,
                   help="sim-time bound (default: run to completion)")
    p.add_argument("--watchdog", action="store_true",
                   help="enable the per-file progress watchdog (kills "
                        "attempts with no delivered-byte progress within a "
                        "multiple of the adaptive RTO)")
    p.add_argument("--journal", metavar="PATH", default=None,
                   help="mirror the broker's write-ahead journal to this "
                        "file (flushed JSON lines)")
    p.add_argument("--crash-at", type=float, action="append", default=[],
                   metavar="SECONDS",
                   help="crash the broker at this sim time and restart it "
                        "from the journal; repeatable")
    p.add_argument("--recover", metavar="PATH", default=None,
                   help="with --crash-at: round-trip each restart's journal "
                        "through this file; with no spec/--quick/--files: "
                        "restart a previous run from this journal")
    p.add_argument("--restart-delay", type=float, default=0.5,
                   help="seconds between a broker crash and its restart "
                        "(default 0.5)")
    p.add_argument("--drain-at", type=float, default=None, metavar="SECONDS",
                   help="gracefully drain the broker at this sim time: stop "
                        "admissions, finish in-flight work, checkpoint the "
                        "journal")
    p.add_argument("--audit", action="store_true",
                   help="verify byte-exact delivery per finished file "
                        "(pattern source + collecting sink; exits 1 on any "
                        "lost file, divergent duplicate, or corrupt block)")
    p.add_argument("--spike", type=float, default=None, metavar="FACTOR",
                   help="synthetic OVERLOAD mix instead of --quick's: "
                        "open-loop arrivals spike to FACTOR× the base rate "
                        "with backpressure/shedding armed (see "
                        "repro.sched.spec.overload_spec)")
    p.add_argument("--overload", metavar="JSON", default=None,
                   help="overload-control overrides for --spike (JSON "
                        "object of repro.sched.overload.OverloadConfig "
                        "keys), or a full config to arm on a --spec run")
    p.add_argument("--resubmit", type=int, default=None, metavar="N",
                   help="times the client resubmits a shed job after its "
                        "RETRY_AFTER hint (default: spec's resubmit_limit)")
    p.add_argument("--attempt-fault-rate", type=float, default=None,
                   metavar="P",
                   help="retry-storm chaos: probability each broker attempt "
                        "fails at the attempt boundary (burns retry budget, "
                        "moves no bytes)")
    p.add_argument("--attempt-fault-window", type=float, nargs=2,
                   default=None, metavar=("START", "END"),
                   help="sim-time window outside which --attempt-fault-rate "
                        "is dormant")
    p.add_argument("--use-srq", action="store_true",
                   help="sharing scope: every door to a host rides one "
                        "shared channel set (per-host QP pool with session "
                        "leases, SRQ receive side, eager SEND path for "
                        "small blocks) instead of a private set per door")
    _add_export_args(p)
    p.set_defaults(func=_cmd_sched)

    p = sub.add_parser(
        "sweep", help="run a parameter sweep sharded across worker processes"
    )
    p.add_argument("--spec", metavar="PATH", default=None,
                   help="sweep spec file (JSON; see repro.sweep)")
    p.add_argument("--quick", action="store_true",
                   help="built-in 4-point RFTP sweep on the ANI WAN")
    p.add_argument("--jobs", type=int, default=0,
                   help="worker processes (<=1 runs inline; default inline)")
    p.add_argument("--out", metavar="PATH", default=None,
                   help="write merged JSONL here (default: stdout)")
    p.set_defaults(func=_cmd_sweep)

    return parser


def _run_with_exports(args: argparse.Namespace) -> int:
    """Dispatch ``args.func`` under engine collection and export the results.

    Collection is process-wide: every :class:`~repro.sim.engine.Engine`
    built while the command runs is captured (ablations build many), so
    multi-run commands export every run, indexed by construction order.
    """
    from repro.obs import runtime
    from repro.obs.export import write_metrics_jsonl, write_trace_jsonl

    if args.trace_out is not None:
        from repro.sim.trace import Tracer

        categories = None
        if args.trace_categories:
            categories = {
                c.strip() for c in args.trace_categories.split(",") if c.strip()
            }
        runtime.install_tracer_factory(lambda: Tracer(categories=categories))
    runtime.start_collection()
    try:
        rc = args.func(args)
    finally:
        # Exports are written even when the command raised — a failed
        # run's metrics/trace are exactly what the caller wants to see.
        try:
            engines = runtime.collected_engines()
            if args.metrics_out is not None:
                n = write_metrics_jsonl(args.metrics_out, engines)
                print(f"metrics: {n} records over {len(engines)} engine run(s) "
                      f"-> {args.metrics_out}", file=sys.stderr)
            if args.trace_out is not None:
                n = write_trace_jsonl(args.trace_out, engines)
                print(f"trace: {n} records over {len(engines)} engine run(s) "
                      f"-> {args.trace_out}", file=sys.stderr)
        finally:
            runtime.stop_collection()
            runtime.install_tracer_factory(None)
    return rc


def main(argv: Optional[List[str]] = None) -> int:
    from repro.core.errors import TransferError

    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "metrics_out", None) is not None or getattr(
            args, "trace_out", None
        ) is not None:
            return _run_with_exports(args)
        return args.func(args)
    except TransferError as exc:
        # Every subcommand exits non-zero on a typed transfer failure —
        # scripted callers and CI gate on the exit code, not the text.
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        # Out-of-range options fail config / spec / plan validation, and
        # an unreadable --spec or --recover path is a usage error too.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
