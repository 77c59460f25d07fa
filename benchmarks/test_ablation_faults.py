"""Ablations under injected faults: the cost of the Fig. 6 re-send path,
and end-to-end integrity with selective repair and SESSION_RESUME."""

from benchmarks.conftest import run_once
from repro.experiments import ablations


def test_ablation_recovery(benchmark):
    rows = run_once(benchmark, ablations.run_recovery_ablation)
    ablations.check_recovery_ablation(rows)
    ablations.render_rows(rows, "Ablation — recovery under WRITE faults (ANI WAN)").print()
    for r in rows:
        benchmark.extra_info[r.label] = round(r.gbps, 2)


def test_ablation_resume(benchmark):
    rows = run_once(benchmark, ablations.run_resume_ablation)
    ablations.check_resume_ablation(rows)
    ablations.render_rows(rows, "Ablation — integrity, repair and resume (ANI WAN)").print()
    for r in rows:
        benchmark.extra_info[r.label] = round(r.gbps, 2)
