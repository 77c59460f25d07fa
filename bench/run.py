#!/usr/bin/env python3
"""The repo benchmark: one command, seven workloads, every metric by name.

    python bench/run.py --workload NAME [--seed S] [--seconds T] [--trace 0|1]
    python bench/run.py --all [--out PATH]      # every workload, both runs
    python bench/run.py --selfcheck             # two full sets must agree

One run is one process and one thread: set-up, one quarter-size warm-up
repetition, then timed repetitions (fresh testbed each, ``gc.collect()`` between, GC
left on) until ``--seconds`` of timed work is done (at least three), the
correctness gate, and one JSON object on the last line of stdout.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs one
untraced and one cProfile'd repetition and reports the per-layer
metrics.  Metric names, units and bounds live in ``BENCHMARK.json``;
what each one means is in ``bench/README.md``.
"""

import time

_T0 = time.perf_counter()  # "process start" for setup_s: before any import

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

import compare  # noqa: E402  (sibling: bench/ is sys.path[0])
import layers  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

MIN_TIMED_REPS = 3
#: The warm-up repetition runs on inputs this much smaller: the run
#: budget (3420 s for 158 runs) does not stretch to a full-size one.
WARMUP_SCALE = 0.25
SETUP_PROBES = 2  # extra fresh-process set-ups; setup_s is the median
#: Per-layer twins of the timed repetitions' end-to-end times.
HOST_TWINS = ("host.first_rep_s", "host.wall_min_s", "host.wall_max_s")


def import_workloads():
    """Put the program on the path and import the workloads.

    Fails (non-zero exit, no result line) where the program is absent —
    a directory holding only the benchmark has nothing to measure.
    """
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        sys.exit(f"bench: no program to measure: {src}/repro is missing")
    sys.path.insert(0, src)
    import workloads

    return workloads


def host_facts() -> dict:
    nproc = os.cpu_count() or 1
    load = os.getloadavg()[0]
    return {
        "python": platform.python_version(),
        "nproc": nproc,
        "loadavg_1m": load,
        "noisy": load > 0.5 * nproc,
    }


class Harness:
    """One workload, one seed, one process."""

    def __init__(self, name: str, seed: int, scale: float) -> None:
        self.spans = layers.SpanLog()
        with self.spans.span("setup.import"):
            self.workloads = import_workloads()
        if name not in self.workloads.WORKLOADS:
            sys.exit(f"bench: unknown workload {name!r}; one of "
                     f"{sorted(self.workloads.WORKLOADS)}")
        self.w = self.workloads.WORKLOADS[name]
        self.seed = seed
        self.scale = scale
        self.problems = []
        self.exact = None
        self.reps = []
        with self.spans.span("setup.inputs"):
            self.inputs = self.w.inputs(seed, scale)
        with self.spans.span("setup.build"):
            prepared = self.w.prepare(self.inputs)
        #: Process start to ready for the first timed call.
        self.setup_s = time.perf_counter() - _T0
        # Every repetition builds its own; this one only measured set-up.
        self.w.cleanup(prepared)

    def repetition(self, kind: str, workload=None, inputs=None,
                   profiled: bool = False):
        """Build afresh (untimed), run once (timed), observe (untimed).

        Returns (wall, cpu, observation, profile metrics).  ``workload``
        substitutes another workload on the same inputs (the obs-off
        twin); ``inputs`` substitutes other inputs (the warm-up).
        """
        substituted = workload is not None or inputs is not None
        w = workload or self.w
        if inputs is None:
            inputs = self.inputs
        rep_id = len(self.reps)
        with self.spans.span("rep.build", rep_id):
            prepared = w.prepare(inputs)
        profile = None
        try:
            gc.collect()
            with self.spans.span("rep.run", rep_id):
                c0 = time.process_time()
                if profiled:
                    result, wall, profile = layers.profile_call(
                        lambda: w.run(inputs, prepared)
                    )
                else:
                    t0 = time.perf_counter()
                    result = w.run(inputs, prepared)
                    wall = time.perf_counter() - t0
                cpu = time.process_time() - c0
            with self.spans.span("check.observe", rep_id):
                obs = w.observe(inputs, prepared, result)
        finally:
            w.cleanup(prepared)
        self.reps.append({"kind": kind, "wall_s": wall, "cpu_s": cpu})
        self.problems.extend(f"rep {rep_id}: {p}" for p in obs.problems)
        if not substituted:
            self._check_determinism(rep_id, obs.exact())
        return wall, cpu, obs, profile

    def warmup(self) -> float:
        """One smaller repetition, so imports, caches and the
        interpreter's specialisations settle before anything is timed."""
        inputs = self.w.inputs(self.seed, self.scale * WARMUP_SCALE)
        return self.repetition("warmup", inputs=inputs)[0]

    def _check_determinism(self, rep_id: int, exact: dict) -> None:
        if self.exact is None:
            self.exact = exact
        elif exact != self.exact:
            diff = {k: (self.exact[k], v) for k, v in exact.items()
                    if v != self.exact[k]}
            self.problems.append(f"rep {rep_id}: nondeterminism: {diff}")

    # -- --trace 0 -----------------------------------------------------------

    def end_to_end(self, seconds: float) -> dict:
        first_wall = self.warmup()
        walls, cpus = [], []
        attempted = failed = 0
        obs = None
        # At least three; then as many as fit: stop once another one
        # would overshoot --seconds by more than it undershoots now.
        while (len(walls) < MIN_TIMED_REPS
               or sum(walls) + walls[-1] / 2 < seconds):
            del obs  # the last testbed must not sit beside the next one
            wall, cpu, obs, _ = self.repetition("timed")
            walls.append(wall)
            cpus.append(cpu)
            attempted += obs.ops_attempted
            failed += obs.ops_broken
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        with self.spans.span("setup.probes"):
            setups = [self.setup_s] + [
                _setup_probe(self.w.name, self.seed, self.scale)
                for _ in range(SETUP_PROBES)
            ]

        def median_of(samples):
            return {"value": statistics.median(samples), "n": len(samples),
                    "min": min(samples), "max": max(samples)}

        return {
            "attempted": attempted,
            "failed": failed,
            "latency_samples": obs.latency_samples,
            "end_to_end": {
                "cpu_s": median_of(cpus),
                "wall_s": median_of(walls),
                "peak_rss_mb": {"value": peak_rss_mb},
                "setup_s": median_of(setups),
            },
            "host": {
                "host.first_rep_s": first_wall,
                "host.wall_min_s": min(walls),
                "host.wall_max_s": max(walls),
            },
        }

    # -- --trace 1 -----------------------------------------------------------

    def per_layer(self, loadavg_1m: float) -> dict:
        first_wall = self.warmup()
        off_wall = None
        if self.w.obs_off_twin:
            # Same process, same inputs, both warm.
            off = self.workloads.WORKLOADS[self.w.obs_off_twin]
            off_wall, _, obs, _ = self.repetition("obs_off", workload=off)
            del obs
        wall, _, obs, _ = self.repetition("untraced")
        post = self._post_run(obs)
        del obs
        traced_wall, _, obs, profile = self.repetition("traced", profiled=True)

        traced_total = profile.pop("trace.total_s")
        m = {
            **profile,
            **self.workloads.state_metrics(self.w, obs, wall, profile),
            **post,
            # 0 = not measured: the workload has no obs-off twin.
            "obs.on_off_wall_ratio": wall / off_wall if off_wall else 0.0,
            "host.first_rep_s": first_wall,
            "host.wall_min_s": wall,
            "host.wall_max_s": wall,
            "host.loadavg_1m": loadavg_1m,
            "trace.overhead_x": traced_wall / wall,
        }
        return {
            "attempted": obs.ops_attempted,
            "failed": obs.ops_broken,
            "latency_samples": obs.latency_samples,
            "per_layer": {name: {"value": value} for name, value in m.items()},
            "traced": {"wall_s": traced_wall, "profile_total_s": traced_total,
                       "untraced_wall_s": wall},
        }

    def _post_run(self, obs) -> dict:
        """Host timings of direct calls into public post-run functions."""
        out = dict.fromkeys(self.workloads.POST_RUN_METRICS, 0.0)
        os.makedirs(self.workloads.OUT_DIR, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=self.workloads.OUT_DIR) as tmp:
            for metric, span_name, call in self.workloads.post_run_calls(obs, tmp):
                with self.spans.span(span_name) as record:
                    call()
                out[metric] = layers.span_seconds(record)
        return out


def _setup_probe(name: str, seed: int, scale: float) -> float:
    """Set-up time of a fresh process: imports + inputs + first build."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-probe",
         "--workload", name, "--seed", str(seed), "--scale", repr(scale)],
        capture_output=True, text=True, timeout=150,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.strip().splitlines()[-1])


def run_one(args) -> int:
    contract = compare.load_contract()
    host = host_facts()
    harness = Harness(args.workload, args.seed, args.scale)
    if args.setup_probe:
        print(repr(harness.setup_s))
        return 0
    if args.trace:
        measured = harness.per_layer(host["loadavg_1m"])
        group, declared = "per_layer", contract["per_layer"]
    else:
        measured = harness.end_to_end(args.seconds)
        group, declared = "end_to_end", contract["end_to_end"]

    values = measured[group]
    names = [m["name"] for m in declared]
    if sorted(names) != sorted(values):
        missing = sorted(set(names) - set(values))
        extra = sorted(set(values) - set(names))
        sys.exit(f"bench: {group} metrics differ from BENCHMARK.json: "
                 f"missing {missing}, undeclared {extra}")
    for metric in declared:
        values[metric["name"]]["unit"] = metric["unit"]
    correct = not harness.problems
    entry = {
        "correct": correct,
        "problems": harness.problems,
        "exact": harness.exact,
        "reps": harness.reps,
        "spans": harness.spans.spans,
        **measured,
    }
    doc = {
        "kind": "repro-perfbench",
        "schema": 1,
        "comparable": args.scale == 1.0,
        "seed": args.seed,
        "seconds": args.seconds,
        "scale": args.scale,
        "host": host,
        "workloads": {args.workload: entry},
    }
    if args.out:
        write_doc(doc, args.out)
    for problem in harness.problems:
        print(f"bench: INCORRECT {args.workload}: {problem}", file=sys.stderr)
    print_metrics(args.workload, values, names)
    # The contract line: last on stdout, exactly these keys.
    print(json.dumps({
        "correct": correct,
        "attempted": measured["attempted"],
        "failed": measured["failed"],
        "metrics": {n: {"value": values[n]["value"], "unit": values[n]["unit"]}
                    for n in names},
    }))
    return 0 if correct else 1


def print_metrics(workload: str, values: dict, names) -> None:
    for name in names:
        v = values[name]
        spread = ""
        if "n" in v:
            spread = f"  (n={v['n']} min={v['min']:.6g} max={v['max']:.6g})"
        print(f"{workload:16s} {name:28s} {v['value']:>16.9g} {v['unit']}{spread}")


def write_doc(doc: dict, path: str) -> None:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True, allow_nan=False)
        fh.write("\n")


# -- --all / --selfcheck: each workload in its own sequential subprocess ---


def run_set(seed: int, seconds: float, scale: float, label: str = "") -> dict:
    """Both runs of every workload; returns the merged document."""
    names = [w["name"] for w in compare.load_contract()["workloads"]]
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    merged = None
    for name in names:
        entry = {}
        for trace in (0, 1):
            print(f"bench: {label}{name} --trace {trace} ...",
                  file=sys.stderr, flush=True)
            with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
                path = os.path.join(tmp, "run.json")
                proc = subprocess.run(
                    [sys.executable, os.path.abspath(__file__),
                     "--workload", name, "--seed", str(seed),
                     "--seconds", repr(seconds), "--scale", repr(scale),
                     "--trace", str(trace), "--out", path],
                    stdout=subprocess.DEVNULL, timeout=900,
                )
                if not os.path.exists(path):
                    sys.exit(f"bench: {name} --trace {trace} exited "
                             f"{proc.returncode} without a result")
                with open(path, "r", encoding="utf-8") as fh:
                    doc = json.load(fh)
            part = doc["workloads"][name]
            if merged is None:
                merged = {k: v for k, v in doc.items() if k != "workloads"}
                merged["workloads"] = {}
            if trace == 0:
                entry = part
            else:
                entry["correct"] = entry["correct"] and part["correct"]
                entry["problems"] = entry["problems"] + part["problems"]
                if part["exact"] != entry["exact"]:
                    entry["correct"] = False
                    entry["problems"].append(
                        "nondeterminism between the untraced and traced runs")
                entry["per_layer"] = part["per_layer"]
                entry["traced"] = part["traced"]
                entry["spans_traced"] = part["spans"]
                # The host twins of wall_s come from the run with the
                # timed repetitions, not the traced run's single one.
                for twin in HOST_TWINS:
                    entry["per_layer"][twin]["value"] = entry["host"][twin]
        merged["workloads"][name] = entry
    return merged


def print_set(doc: dict) -> None:
    contract = compare.load_contract()
    for name, entry in doc["workloads"].items():
        print_metrics(name, entry["end_to_end"],
                      [m["name"] for m in contract["end_to_end"]])
        print_metrics(name, entry["per_layer"],
                      [m["name"] for m in contract["per_layer"]])
    bad = [n for n, e in doc["workloads"].items() if not e["correct"]]
    for name in bad:
        for problem in doc["workloads"][name]["problems"]:
            print(f"bench: INCORRECT {name}: {problem}", file=sys.stderr)


def run_all(args) -> int:
    doc = run_set(args.seed, args.seconds, args.scale)
    if args.out:
        write_doc(doc, args.out)
    print_set(doc)
    return 0 if all(e["correct"] for e in doc["workloads"].values()) else 1


def run_selfcheck(args) -> int:
    """Two full sets of the same code must agree within the benchmark's
    own bounds, and bit for bit on everything simulated or counted."""
    first = run_set(args.seed, args.seconds, args.scale, "set 1: ")
    second = run_set(args.seed, args.seconds, args.scale, "set 2: ")
    rows, exact_diffs = compare.compare_docs(first, second, compare.load_contract())
    compare.print_rows(rows)
    for diff in exact_diffs:
        print(f"bench: selfcheck: {diff}", file=sys.stderr)
    incorrect = [n for d in (first, second)
                 for n, e in d["workloads"].items() if not e["correct"]]
    ok = (not exact_diffs and not incorrect
          and all(r["verdict"] == "unchanged" for r in rows))
    print("selfcheck: " + ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=None,
                   help="timed work per run (default: BENCHMARK.json run_seconds)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--traced", dest="trace", action="store_const", const=1,
                   help="same as --trace 1")
    p.add_argument("--out", help="also write the full JSON document here")
    p.add_argument("--all", action="store_true",
                   help="every workload, untraced then traced")
    p.add_argument("--selfcheck", action="store_true",
                   help="run two full sets and require them to agree")
    p.add_argument("--scale", type=float, default=1.0,
                   help="shrink inputs (smoke tests; results not comparable)")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds is None:
        args.seconds = float(compare.load_contract()["run_seconds"])
    if args.selfcheck:
        return run_selfcheck(args)
    if args.all:
        return run_all(args)
    if not args.workload:
        p.error("need --workload NAME, --all or --selfcheck")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
