#!/usr/bin/env python3
"""Reach: every ``src/`` line runs under tier-1 or a production entry
point, and every ``src/`` function under a production entry point.

    python tools/reach.py

The production set is the steps of CI's ``tests`` job after tier-1 (its
CLI smokes and the paper-fidelity suite) plus ``extra()``: the commands
for features no smoke reaches, the figures, ablations, apps and
examples, and one full-scale run of every bench workload.  Every Python
process they start, children included, records which ``src/`` lines it
runs: ``tools/reach_hook`` on ``PYTHONPATH`` installs a ``sys.settrace``
line hook while ``REACH_OUT`` names a directory.  Tier-1 records the
same way into the ``tier1`` subdirectory of ``REACH_OUT``.

In CI the ``tests`` job sets both for every step (the install step sets
``REACH_OUT`` empty, tier-1 points it at the subdirectory), so this
script runs only ``extra()`` before its check.  Run without
``REACH_OUT``, it also runs those steps itself, read from
``.github/workflows/ci.yml`` (PyYAML).

The tree is parsed once, at the start; the records name lines by
number, so a ``src/`` file that differs at the end fails the run as a
changed tree.  Otherwise it exits 1 if a command exits other than
expected, or on any of:

- **the function rule:** a ``def`` (at any depth) none of whose own
  body lines ran under the production set, unless it is a ``__repr__``
  or in ``ALLOW``; a ``src/`` class named nowhere outside ``tests/``;
- **the line rule:** an executable ``src/`` line that neither tier-1
  nor the production set ran, unless ``LINE_ALLOW`` names it.  Lines of
  a ``__repr__``, of an ``if TYPE_CHECKING:`` body and of an ``if
  __name__ == "__main__":`` body are not counted; nor is the prefix of
  a code object that no ``line`` event reports (a module's line 0, a
  def's own line inside its code);
- a stale entry in either list (reached, or gone).

Both lists only shrink, and each entry says why only tests (or nothing)
reach it.
"""

import ast
import hashlib
import importlib.util
import json
import os
import pathlib
import subprocess
import sys
import tempfile
import time
import types
from concurrent.futures import ThreadPoolExecutor

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: ``path::qualname`` (path relative to src/) -> why only tests enter it.
ALLOW = {
    # The discrete engine's bodies (``Engine(use_fluid=False)``): the
    # oracle the fluid fast-forwards are compared against.
    "repro/hardware/nic.py::Nic.process_wqe": "discrete oracle of the WQE pipeline booking",
    "repro/hardware/nic.py::Nic.serve_read": "discrete oracle of the read-engine booking",
    "repro/hardware/pci.py::PcieBus.dma": "discrete oracle of the PCIe bus booking",
    # Safety code: what a fault no production run injects would hit.
    "repro/verbs/qp.py::_Wqe._rnr": "RNR NAK: the credit scheme exists to prevent it",
    "repro/verbs/qp.py::_Wqe._rnr_wait": "RNR retry wait: as _Wqe._rnr",
    "repro/verbs/qp.py::_Wqe._fail": "a WR stage that raises (full CQ, hook) fails the run",
    "repro/verbs/qp.py::_Wqe._surface": "as _Wqe._fail",
    "repro/verbs/srq.py::SharedReceiveQueue._note_empty":
        "an arrival at a dry SRQ: no production run drains one",
    "repro/apps/io.py::CollectingSink.rows": "read back by CollectingSink._repeats and tests",
    "repro/apps/io.py::CollectingSink._row": "as CollectingSink.rows",
    "repro/apps/io.py::CollectingSink._repeats":
        "the audit's check of a block delivered twice: no production run does",
    "repro/obs/export.py::_field": "a trace field that is a bool or an enum: no site traces one",
    # Abstract hooks: the subclasses' bodies run instead.
    "repro/sim/events.py::Condition._satisfied": "abstract; AnyOf's runs",
    "repro/tcp/bottleneck.py::FluidFlow.offered_bytes": "typing.Protocol stub",
    "repro/tcp/bottleneck.py::FluidFlow.round_result": "typing.Protocol stub",
    "repro/tcp/congestion.py::CongestionControl._avoid": "abstract; Reno / BIC / H-TCP / CUBIC run",
    "repro/tcp/congestion.py::CongestionControl._backoff": "abstract; as _avoid",
}

#: ``(path::qualname, the line's text)`` -> why neither tier-1 nor the
#: production set runs the line.  Keyed by text, never by number: an
#: entry covers every such line of its function.  Each is safety code
#: (a check on outside input, a handled error, fault recovery).
LINE_ALLOW = {
    # A run that never settles fails loudly instead of reporting a
    # partial result; a failed completion or transfer reaches the caller.
    ("repro/apps/fio.py::run_fio", 'raise RuntimeError("fio run did not complete")'):
        "a hung run fails loudly",
    ("repro/apps/gridftp.py::run_gridftp",
     'raise RuntimeError("GridFTP transfer did not complete")'): "a hung run fails loudly",
    ("repro/apps/rftp.py::run_rftp",
     'raise RuntimeError("transfer did not complete (deadlock?)")'): "a hung run fails loudly",
    ("repro/apps/sockets.py::socket_transfer",
     'raise RuntimeError(f"{mode} transfer did not complete")'): "a hung run fails loudly",
    ("repro/apps/fio.py::run_fio.<locals>.reaper",
     'raise RuntimeError(f"fio completion error: {wc.status}")'):
        "a failed completion: fio injects no faults",
    ("repro/apps/rftp.py::run_rftp", "raise done.value"):
        "a typed transfer failure reaches the caller: rftp injects no faults",
    ("repro/apps/rftp.py::run_rftp.<locals>._capture", "event.defuse()  # typed error re-raised below"):
        "as run_rftp's raise",
    ("repro/cli.py::main", 'print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)'):
        "a typed transfer failure exits 1: no command lets one escape",
    ("repro/cli.py::main", "return 1"): "as main's print",
    ("repro/experiments/ablations.py::run_recovery_ablation", "raise AssertionError("):
        "an ablation refuses numbers from a run that leaked",
    ("repro/experiments/ablations.py::run_recovery_ablation",
     'f"chaos run at fault rate {rate} was not clean: {r.leaks}"'): "as its raise",
    ("repro/experiments/ablations.py::run_resume_ablation", "raise AssertionError("):
        "an ablation refuses numbers from a run that leaked",
    ("repro/experiments/ablations.py::run_resume_ablation",
     'f"chaos run at corrupt rate {rate} was not clean: {r.leaks}"'): "as its raise",
    ("repro/experiments/ablations.py::run_resume_ablation",
     'raise AssertionError(f"flap+resume chaos run was not clean: {r.leaks}")'):
        "an ablation refuses numbers from a run that leaked",
    ("repro/experiments/ablations.py::run_resume_ablation",
     'raise AssertionError(f"repair-off chaos run was not clean: {r.leaks}")'):
        "an ablation refuses numbers from a run that leaked",
    # Completions a dead QP flushes.
    ("repro/core/channels.py::ControlChannel.receive", "continue"):
        "a flushed control receive: no run kills the control QP",
    ("repro/core/channels.py::DataChannels.detach", "return None"):
        "a second flushed WR of a channel already detached",
    ("repro/core/middleware.py::RdmaMiddleware._srq_dispatch", "continue"):
        "a flushed shared receive",
    ("repro/verbs/qp.py::_Wqe._landed", "except Exception as exc:"):
        "a WR stage that raises (full CQ, hook) fails the WR",
    ("repro/verbs/qp.py::_Wqe._landed", "self._fail(exc)"): "as its except",
    ("repro/verbs/qp.py::_Wqe._replied", "except Exception as exc:"):
        "a WR stage that raises (full CQ, hook) fails the WR",
    ("repro/verbs/qp.py::_Wqe._replied", "self._fail(exc)"): "as its except",
    ("repro/verbs/qp.py::_Wqe._requested", "except Exception as exc:"):
        "a WR stage that raises (full CQ, hook) fails the WR",
    ("repro/verbs/qp.py::_Wqe._requested", "self._fail(exc)"): "as its except",
    ("repro/verbs/qp.py::_Wqe._then", "self._fail(exc)"):
        "a WR stage that raises (full CQ, hook) fails the WR",
    # The sink's recovery paths no production run's faults reach.
    ("repro/core/sink_engine.py::SinkEngine._drop_unconsumed", "survivors.append(item)"):
        "a reclaimed session's ready blocks queued beside another session's",
    ("repro/core/sink_engine.py::SinkEngine._reattach_answer",
     "return None  # something landed since: the stored grant is spent"):
        "a retransmitted resume request after data landed",
    ("repro/core/sink_engine.py::SinkEngine._tcp_consumer_thread", "return"):
        "the fallback stream replaced while a block was being written",
    ("repro/core/sink_engine.py::SinkEngine.on_eager_block", "self.stray_messages.add()"):
        "an eager arrival for a reclaimed session",
    ("repro/core/sink_engine.py::SinkEngine.on_eager_block", "return"):
        "as its stray count",
    ("repro/core/sink_engine.py::SinkEngine.on_eager_block",
     "return  # no region was claimed; nothing to recycle"): "a replayed eager arrival",
    # The source's: a halt racing a grant at the same instant, replies
    # that refuse, a fallback that cannot start or drain.
    ("repro/core/source_link.py::SourceLink._acquire_credit", "return get_ev.value"):
        "a credit granted at the instant the wait gave up",
    ("repro/core/source_link.py::SourceLink._reader_thread", "self.pool.put_free_blk(get_ev.value)"):
        "a free block granted at the instant of the halt",
    ("repro/core/source_link.py::SourceLink._sender_thread", "self._reclaim(job, get_ev.value)"):
        "a loaded block granted at the instant of the halt",
    ("repro/core/source_link.py::SourceLink._sender_thread", "self._reclaim(job, block)"):
        "a block taken just as the session halted",
    ("repro/core/source_link.py::SourceLink._sender_thread", "return"): "as its reclaim",
    ("repro/core/source_link.py::SourceLink._stall_watchdog", "timer.cancel()"):
        "an abort that won the race against the stall timer",
    ("repro/core/source_link.py::SourceLink._on_marker", "return  # stale or duplicate marker"):
        "a marker reordered behind a newer one",
    ("repro/core/source_link.py::SourceLink._request_reply",
     "self._abort_job(job, NegotiationTimeout(sid, refused))"): "a request the sink refuses",
    ("repro/core/source_link.py::SourceLink._request_reply", "return None"):
        "as its abort",
    ("repro/core/source_link.py::SourceLink._begin_fallback", "return True"):
        "a second channel loss while already on the fallback",
    ("repro/core/source_link.py::SourceLink._begin_fallback", "return False"):
        "a channel loss after the session ended",
    ("repro/core/source_link.py::SourceLink._fallback_thread",
     "except Exception as exc:  # factory refused (injected denial)"):
        "no TCP path to fall back on",
    ("repro/core/source_link.py::SourceLink._fallback_thread", "self._abort_job("): "as its except",
    ("repro/core/source_link.py::SourceLink._fallback_thread",
     'job, TransportFallbackFailed(sid, f"no TCP path: {exc}")'): "as its except",
    ("repro/core/source_link.py::SourceLink._fallback_thread", "return"): "as its except",
    ("repro/core/source_link.py::SourceLink._restore_rdma", "return"):
        "a session that aborted while re-promotion waited",
    ("repro/core/source_link.py::SourceLink._restore_rdma", "self._abort_job("):
        "a sink that never drains the fallback stream",
    ("repro/core/source_link.py::SourceLink._restore_rdma", "job,"): "as its abort",
    ("repro/core/source_link.py::SourceLink._restore_rdma", "TransportFallbackFailed("):
        "as its abort",
    ("repro/core/source_link.py::SourceLink._restore_rdma",
     'sid, "sink never drained the fallback stream"'): "as its abort",
    ("repro/core/source_link.py::SourceLink._repromote_watchdog", "return"):
        "the session ended, drained or re-promoted between probes",
    ("repro/core/source_link.py::SourceLink._repromote_watchdog", "except Exception:"):
        "a channel re-open that fails while the path is still down",
    ("repro/core/source_link.py::SourceLink._repromote_watchdog",
     "continue  # path still down; retry next cooldown"): "as its except",
    ("repro/core/source_link.py::SourceLink.kill_channel", "return False"):
        "a --qp-kill index past the channel count (outside input)",
    ("repro/faults/chaos.py::run_chaos.<locals>._run", "except TransferError as exc:"):
        "a resume attempt that itself fails",
    ("repro/faults/chaos.py::run_chaos.<locals>._run", 'holder["error"] = exc'): "as its except",
    # The broker's: a crash, a drain or a cancel racing dispatch, and a
    # recovery that finds a door gone or a deadline passed.
    ("repro/sched/broker.py::TransferBroker._brownout_recheck", "return"):
        "a crash during the brownout dwell",
    ("repro/sched/broker.py::TransferBroker._dispatch_loop",
     "continue  # canceled while queued; entry is stale"): "a file canceled while queued",
    ("repro/sched/broker.py::TransferBroker._dispatch_loop", "break"):
        "a crash or drain during a dispatch pass",
    ("repro/sched/broker.py::TransferBroker._run_task", "self._release_slot(state, door)"):
        "a file canceled (or the broker crashed) between dispatch and start",
    ("repro/sched/broker.py::TransferBroker._run_task", "self._kick()"): "as its release",
    ("repro/sched/broker.py::TransferBroker._run_task", "return"): "as its release",
    ("repro/sched/broker.py::TransferBroker._watchdog", "return  # attempt settled between polls"):
        "an attempt that settled between two watchdog polls",
    ("repro/sched/broker.py::TransferBroker._resume_pass", "self._settle(task, door, TransferError("):
        "a resume whose door or session is gone after a crash",
    ("repro/sched/broker.py::TransferBroker._resume_pass", 'session_id or 0, "no door to resume on"), 0)'):
        "as its settle",
    ("repro/sched/broker.py::TransferBroker._resume_pass", "continue"): "as its settle",
    ("repro/sched/broker.py::TransferBroker.recover", "overdue.append(job)"):
        "a deadline that passed while the broker was down",
    ("repro/sched/broker.py::TransferBroker.recover", "broker._m_deadline_cancels.add()"):
        "as its overdue job",
    ("repro/sched/broker.py::TransferBroker.recover",
     'broker.cancel_job(job, reason=f"deadline exceeded after {job.deadline}s")'):
        "as its overdue job",
    ("repro/sched/runner.py::BrokerSupervisor.crash", "return"):
        "a crash while the broker is still down",
    # The event kernel's.
    ("repro/sim/events.py::Condition._check", "return"):
        "re-entrancy: a second child's check after the condition settled (DESIGN.md §9)",
    ("repro/sim/events.py::Condition._satisfied", "raise NotImplementedError"):
        "abstract; AnyOf's and the tests' AllOf's run",
}

#: Commands run side by side: one per core of a 2-core CI host.
JOBS = 2
HOOK = ROOT / "tools" / "reach_hook"
#: The subdirectory of ``REACH_OUT`` that tier-1 records into.
TIER1 = "tier1"
CI = ROOT / ".github" / "workflows" / "ci.yml"
REPRO = [sys.executable, "-m", "repro"]
BENCH_WORKLOADS = ("bulk_wan", "bulk_wan_obs", "bulk_lan_faults", "sched_mix",
                   "sched_spike", "pool_smallfiles", "fio_verbs")

#: A job-mix spec with per-job deadlines, compaction at the drain
#: checkpoint, and a drain: ``sched --spec`` then ``--recover`` on it.
DEADLINE_SPEC = """
import json, sys
from repro.sched.spec import synthetic_spec
spec = synthetic_spec(total_files=120)
for job in spec["jobs"][::3]:
    job["deadline"] = 0.6
spec["checkpoint_compact"] = True
spec["drain_at"] = 2.0
with open(sys.argv[1], "w") as fh:
    json.dump(spec, fh)
"""

#: A sweep whose one point runs the GridFTP baseline.
GRIDFTP_SWEEP = {"runner": "gridftp", "testbed": "ani-wan",
                 "base": {"bytes": "256M"}, "axes": {"streams": [4]}}


def ci_steps():
    """The ``tests`` job's steps as two chains of bash scripts: the
    production steps (each ``run`` step the job's ``REACH_OUT`` reaches,
    except this script's own) and tier-1 (the step that records into
    ``TIER1``).  Steps that set ``REACH_OUT`` empty are left out."""
    import yaml

    steps = yaml.safe_load(CI.read_text())["jobs"]["tests"]["steps"]
    production, tier1 = [], []
    for step in steps:
        out = step.get("env", {}).get("REACH_OUT")
        if "run" not in step or out == "" or "tools/reach.py" in step["run"]:
            continue
        chain = tier1 if out is not None and f"reach.out/{TIER1}" in out else production
        chain.append((0, ["bash", "--noprofile", "--norc", "-eo", "pipefail", "-c",
                          step["run"]]))
    return production, tier1


def extra(tmp):
    """Chains of ``(expected exit code, argv)``, run in order per chain;
    the longest chains first, so two workers finish together."""
    t = pathlib.Path(tmp)
    chaos = REPRO + ["chaos"]
    sched = REPRO + ["sched"]
    kill_all = [a for q in range(4) for a in ("--qp-kill", f"0.25:{q}")]
    (t / "gridftp_sweep.json").write_text(json.dumps(GRIDFTP_SWEEP))
    return [
        # Every bench workload once at full scale (the trace ring seals
        # chunks only there), with its post-run report, audit and
        # exports.  The bench's smoke tests are not here: their host-time
        # asserts do not hold under the collector (the bench job runs
        # them untraced), and they run no src/ line the rest misses.
        *[[(0, [sys.executable, "bench/run.py", "--workload", w, "--seed", "0",
                "--seconds", "0", "--trace", "1"])] for w in BENCH_WORKLOADS],
        [(0, REPRO + ["figure", fig]) for fig in ("3", "4", "8", "9", "10", "11")],
        # Each degraded mode: re-promotion (2G), one channel's detach, a
        # denied fallback, a source crash, a long link flap (traced: its
        # sites trace by keyword).
        [(0, chaos + ["--testbed", "roce-lan", "--bytes", "64M",
                      "--source-crash", "0.005", "--resume-attempts", "3"]),
         (0, chaos + ["--testbed", "ani-wan", "--bytes", "2G", *kill_all,
                      "--seed", "11"]),
         (0, chaos + ["--testbed", "ani-wan", "--bytes", "32M", *kill_all,
                      "--deny-fallback", "--seed", "11"]),
         (0, chaos + ["--testbed", "roce-lan", "--bytes", "256M",
                      "--qp-kill", "0.005:0"]),
         (0, chaos + ["--testbed", "roce-lan", "--bytes", "8M",
                      "--link-flap", "0.001:120", "--trace-out", str(t / "flap.jsonl")])],
        # The broker's watchdog, brownout and recovery; deadlines cancel
        # two jobs, so the deadline spec and its --recover exit 1.
        [(0, sched + ["--quick", "--files", "200", "--crash-at", "1.0",
                      "--recover", str(t / "roundtrip.journal"), "--audit"]),
         (0, sched + ["--quick", "--files", "200", "--watchdog", "--audit"]),
         (0, sched + ["--spike", "10", "--audit", "--overload",
                      '{"brownout_high": 0.75}']),
         (0, [sys.executable, "-c", DEADLINE_SPEC, str(t / "deadline.json")]),
         (1, sched + ["--spec", str(t / "deadline.json"),
                      "--journal", str(t / "deadline.journal"), "--audit"]),
         (1, sched + ["--recover", str(t / "deadline.journal")])],
        # The apps, the ablations, the sweeps and the examples.
        [(0, REPRO + ["testbeds"]),
         (0, REPRO + ["rftp", "--testbed", "roce-lan", "--bytes", "64M",
                      "--seed", "0", "--metrics-out", str(t / "run.jsonl"),
                      "--trace-out", str(t / "trace.jsonl")]),
         (0, REPRO + ["fio", "--testbed", "roce-lan"]),
         *[(0, REPRO + ["gridftp", "--testbed", "ani-wan", "--bytes", "1G",
                        "--streams", "8", "--cc", cc])
           for cc in ("reno", "bic", "htcp")],
         (0, REPRO + ["sweep", "--quick", "--jobs", "2",
                      "--out", str(t / "sweep.jsonl")]),
         (0, REPRO + ["sweep", "--spec", str(t / "gridftp_sweep.json"),
                      "--out", str(t / "gridftp_sweep.jsonl")]),
         *[(0, REPRO + ["ablation", name])
           for name in ("credits", "qp", "iodepth", "recovery", "resume")]],
        [(0, [sys.executable, str(path)])
         for path in sorted((ROOT / "examples").glob("*.py"))],
    ]


def run_chain(chain, env):
    """Run one chain in order; return a problem line per unexpected exit."""
    problems = []
    for expected, argv in chain:
        t0 = time.perf_counter()
        proc = subprocess.run(argv, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True)
        shown = " ".join(a.strip().partition("\n")[0][:60] for a in argv[1:])
        print(f"  {time.perf_counter() - t0:6.1f}s exit {proc.returncode}  {shown}",
              flush=True)
        if proc.returncode != expected:
            tail = proc.stderr.strip().splitlines()[-3:]
            problems.append(f"exit {proc.returncode} (expected {expected}): "
                            f"{shown}\n    " + "\n    ".join(tail))
    return problems


def named_outside_tests():
    """Every name a file outside ``tests/`` uses, at name level.  A string
    constant counts, for ``getattr`` seams; an ``__init__`` re-export or
    an ``__all__`` entry does not."""
    names = set()
    for root in ("src", "bench", "benchmarks", "examples"):
        for path in sorted((ROOT / root).rglob("*.py")):
            tree = ast.parse(path.read_text())
            exported = set()
            for node in ast.walk(tree):
                if isinstance(node, ast.Assign) and any(
                    getattr(t, "id", None) == "__all__" for t in node.targets
                ):
                    exported.update(map(id, ast.walk(node.value)))
            for node in ast.walk(tree):
                if id(node) in exported:
                    continue
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.alias) and path.name != "__init__.py":
                    names.add(node.name.rpartition(".")[2])
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    names.add(node.value)
    return names


def hook_code_lines():
    """The collector's ``code_lines``: one definition of which lines a
    code object can report."""
    spec = importlib.util.spec_from_file_location("reach_hook", HOOK / "sitecustomize.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.code_lines


def tree_hashes():
    return {path: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(SRC.rglob("*.py"))}


def _skipped_body(node):
    """``if TYPE_CHECKING:`` and ``if __name__ == "__main__":``."""
    test = node.test
    if isinstance(test, (ast.Name, ast.Attribute)):
        return getattr(test, "id", getattr(test, "attr", None)) == "TYPE_CHECKING"
    return (isinstance(test, ast.Compare) and getattr(test.left, "id", None) == "__name__"
            and getattr(test.comparators[0], "value", None) == "__main__")


def src_tree():
    """Parse every src/ file once.  Returns ``defs`` (``path::qualname`` ->
    the ``(filename, line)`` of its own body: lines of its code object
    that the enclosing code does not run too), ``classes``
    (``path::qualname`` -> name) and ``lines`` (``(filename, line)`` ->
    ``(path::qualname, text)`` of every counted executable line, the
    qualname that of the innermost def or class whose body holds it)."""
    code_lines = hook_code_lines()
    defs, classes, lines = {}, {}, {}
    for path in sorted(SRC.rglob("*.py")):
        rel, filename = path.relative_to(SRC).as_posix(), str(path)
        text = path.read_text()
        owner, skipped, firsts = {}, set(), {}

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    name = prefix + child.name
                    body = range(child.body[0].lineno, child.end_lineno + 1)
                    owner.update(dict.fromkeys(body, name))
                    if isinstance(child, ast.ClassDef):
                        classes[f"{rel}::{name}"] = child.name
                        visit(child, name + ".")
                        continue
                    first = min([d.lineno for d in child.decorator_list] + [child.lineno])
                    firsts[(first, child.name)] = name
                    if child.name == "__repr__":
                        skipped.update(body)
                    visit(child, name + ".<locals>.")
                else:
                    if isinstance(child, ast.If) and _skipped_body(child):
                        skipped.update(range(child.body[0].lineno, child.body[-1].end_lineno + 1))
                    visit(child, prefix)

        visit(ast.parse(text), "")
        source = text.splitlines()
        stack = [(compile(text, filename, "exec"), set())]
        while stack:
            code, outer = stack.pop()
            own = code_lines(code)
            name = firsts.get((code.co_firstlineno, code.co_name))
            if name is not None:
                defs[f"{rel}::{name}"] = {(filename, n) for n in own - outer}
            for n in own - skipped:
                lines[(filename, n)] = (f"{rel}::{owner.get(n, '<module>')}",
                                        source[n - 1].strip())
            stack += [(c, own) for c in code.co_consts if isinstance(c, types.CodeType)]
    return defs, classes, lines


def read_records(out):
    """The ``(filename, line)`` pairs the collector wrote into ``out``."""
    ran = set()
    for path in pathlib.Path(out).glob("*.txt"):
        for line in path.read_text().splitlines():
            filename, _, lineno = line.rpartition(":")
            ran.add((filename, int(lineno)))
    return ran


def check(defs, classes, lines, production, tier1):
    """The problem lines of both rules and the stale entries of both
    lists, and a one-line summary."""
    # A function must be entered; a class, which may have no body to
    # enter, must at least be named outside tests/.
    used = named_outside_tests()
    reached = {q for q, own in defs.items() if own & production}
    reached |= {q for q, name in classes.items() if name in used}
    names = set(defs) | set(classes)
    missed = sorted(n for n in names - reached
                    if not n.endswith(".__repr__") and n not in ALLOW)
    problems = [f"{n}: no production entry point enters it" for n in missed
                if n not in classes]
    problems += [f"{n}: nothing outside tests/ names it" for n in missed if n in classes]
    problems += [f"allowlist entry {n!r} is stale: drop it"
                 for n in sorted(ALLOW) if n in reached or n not in names]
    unrun = {k: v for k, v in lines.items() if k not in production and k not in tier1}
    problems += [f"{q.partition('::')[0]}:{n} {q.partition('::')[2]}: {text!r}: nothing runs it"
                 for (_, n), (q, text) in sorted(unrun.items()) if (q, text) not in LINE_ALLOW]
    problems += [f"line allowlist entry {k!r} is stale: drop it"
                 for k in sorted(LINE_ALLOW) if k not in set(unrun.values())]
    summary = (f"{len(defs)} src functions and {len(classes)} classes: {len(reached)} "
               f"reached, {len(ALLOW)} allowlisted, the rest __repr__; {len(lines)} "
               f"executable lines: {len(lines.keys() & production)} run by production, "
               f"{len(lines.keys() & tier1 - production)} by tier-1 only, "
               f"{len(unrun)} by nothing, all allowlisted")
    return problems, summary


def main() -> int:
    t0 = time.perf_counter()
    hashes = tree_hashes()
    defs, classes, lines = src_tree()
    with tempfile.TemporaryDirectory() as tmp:
        # In CI the job's steps already ran under the hook, into REACH_OUT.
        out = pathlib.Path(os.environ.get("REACH_OUT") or os.path.join(tmp, "out"))
        (out / TIER1).mkdir(parents=True, exist_ok=True)

        def env(records):
            return dict(os.environ, REACH_OUT=str(records), PYTHONPATH=os.pathsep.join(
                [str(HOOK), str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))

        chains = [(env(out), c) for c in extra(tmp)]
        if not os.environ.get("REACH_OUT"):
            production, tier1 = ci_steps()
            chains = [(env(out / TIER1), tier1), (env(out), production)] + chains
        with ThreadPoolExecutor(max_workers=JOBS) as pool:
            problems = [p for ps in pool.map(lambda c: run_chain(c[1], c[0]), chains)
                        for p in ps]
        production, tier1 = read_records(out), read_records(out / TIER1)
    after = tree_hashes()
    changed = sorted(p.relative_to(ROOT).as_posix() for p in hashes.keys() | after.keys()
                     if hashes.get(p) != after.get(p))
    if changed:
        print(f"src/ changed during the run ({', '.join(changed)}): the records name "
              "lines by number, so rerun on a still tree")
        return 1
    found, summary = check(defs, classes, lines, production, tier1)
    problems += found
    print("\n".join(problems) or summary)
    print(f"reach: {time.perf_counter() - t0:.0f}s", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
