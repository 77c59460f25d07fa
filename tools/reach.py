#!/usr/bin/env python3
"""Reach: every ``src/`` function runs under a production entry point.

    python tools/reach.py

The production set is the steps of CI's ``tests`` job (its CLI smokes
and the paper-fidelity suite) plus ``extra()``: the commands for features
no smoke reaches, the figures, ablations, apps and examples, the bench
smoke tests and one full-scale run of every bench workload.  Every
Python process they start, children included, records which ``src/``
functions it enters: ``tools/reach_hook`` on ``PYTHONPATH`` installs a
``sys.settrace`` hook that records call events while ``REACH_OUT`` names
a directory.

In CI the ``tests`` job sets both for every step (a step outside the
set, such as tier-1, sets ``REACH_OUT`` empty), so this script runs only
``extra()`` before its check.  Run without ``REACH_OUT``, it also runs
those steps itself, read from ``.github/workflows/ci.yml`` (PyYAML).

Exits 1 if a command exits other than expected, if a ``src/`` function
(``def``, at any depth) is never entered and is neither a ``__repr__``
nor in ``ALLOW``, if a ``src/`` class is named nowhere outside
``tests/``, or if an ``ALLOW`` entry is stale (reached, or gone).
``ALLOW`` only shrinks; each entry says why only tests reach it.
"""

import ast
import json
import os
import pathlib
import subprocess
import sys
import tempfile
import time
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
    "repro/core/reassembly.py::ReassemblyBuffer._count_duplicate":
        "a block pushed twice into reassembly: no production run's faults do it",
    "repro/core/reassembly.py::ReassemblyBuffer._bind_session_counter":
        "as ReassemblyBuffer._count_duplicate",
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
    "repro/tcp/congestion.py::CongestionControl._exit_slow_start":
        "a no-op hook: slow start ends only at a loss, which sets ssthresh to cwnd",
    "repro/tcp/cubic.py::Cubic._exit_slow_start": "as CongestionControl._exit_slow_start",
}

#: Commands run side by side: one per core of a 2-core CI host.
JOBS = 2
HOOK = ROOT / "tools" / "reach_hook"
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
    """The ``tests`` job's steps that are production, as one chain of
    bash scripts: each ``run`` step the job's ``REACH_OUT`` reaches,
    except this script's own."""
    import yaml

    steps = yaml.safe_load(CI.read_text())["jobs"]["tests"]["steps"]
    return [[(0, ["bash", "--noprofile", "--norc", "-eo", "pipefail", "-c", step["run"]])
             for step in steps
             if "run" in step and step.get("env", {}).get("REACH_OUT", True) != ""
             and "tools/reach.py" not in step["run"]]]


def extra(tmp):
    """Chains of ``(expected exit code, argv)``, run in order per chain;
    the longest chains first, so two workers finish together."""
    t = pathlib.Path(tmp)
    chaos = REPRO + ["chaos"]
    sched = REPRO + ["sched"]
    kill_all = [a for q in range(4) for a in ("--qp-kill", f"0.25:{q}")]
    (t / "gridftp_sweep.json").write_text(json.dumps(GRIDFTP_SWEEP))
    return [
        # The bench: its smoke tests, and every workload once at full
        # scale (the trace ring seals chunks only there), with its
        # post-run report, audit and exports.
        [(0, [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
              "bench/tests"])],
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


def src_defs():
    """``(absolute path, first line) -> path::qualname`` of every def in
    src/, and ``path::qualname -> name`` of every class."""
    out, classes = {}, {}
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([d.lineno for d in child.decorator_list]
                                + [child.lineno])
                    name = prefix + child.name
                    out[(str(path), first)] = f"{rel}::{name}"
                    visit(child, name + ".<locals>.")
                elif isinstance(child, ast.ClassDef):
                    classes[f"{rel}::{prefix}{child.name}"] = child.name
                    visit(child, prefix + child.name + ".")
                else:
                    visit(child, prefix)

        visit(ast.parse(path.read_text()), "")
    return out, classes


def main() -> int:
    t0 = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        # In CI the job's steps already ran under the hook, into REACH_OUT.
        out = os.environ.get("REACH_OUT") or os.path.join(tmp, "out")
        os.makedirs(out, exist_ok=True)
        chains = extra(tmp) if os.environ.get("REACH_OUT") else ci_steps() + extra(tmp)
        env = dict(os.environ, REACH_OUT=out, PYTHONPATH=os.pathsep.join(
            [str(HOOK), str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        with ThreadPoolExecutor(max_workers=JOBS) as pool:
            problems = [p for ps in pool.map(lambda c: run_chain(c, env), chains)
                        for p in ps]
        entered = set()
        for path in pathlib.Path(out).iterdir():
            for line in path.read_text().splitlines():
                filename, _, lineno = line.rpartition(":")
                entered.add((filename, int(lineno)))
    defs, classes = src_defs()
    # A function must be entered; a class, which may have no body to
    # enter, must at least be named outside tests/.
    used = named_outside_tests()
    reached = {defs[k] for k in entered if k in defs}
    reached |= {q for q, name in classes.items() if name in used}
    names = set(defs.values()) | set(classes)
    missed = sorted(n for n in names - reached
                    if not n.endswith(".__repr__") and n not in ALLOW)
    problems += [f"{n}: no production entry point enters it" for n in missed
                 if n not in classes]
    problems += [f"{n}: nothing outside tests/ names it" for n in missed if n in classes]
    problems += [f"allowlist entry {n!r} is stale: drop it"
                 for n in sorted(ALLOW) if n in reached or n not in names]
    print("\n".join(problems) or
          f"{len(defs)} src functions and {len(classes)} classes: "
          f"{len(reached)} reached, {len(ALLOW)} allowlisted, the rest __repr__")
    print(f"reach: {time.perf_counter() - t0:.0f}s", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
