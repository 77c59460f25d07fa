"""Experiment drivers: fast units (renderers, selectors, Table I) and
synthetic-data shape checks.  The full figure runs live in benchmarks/.
"""

import importlib
import inspect

import pytest

from repro.experiments import (
    ablations,
    fig3_fig4_semantics,
    fig8_fig9_lan_ftp,
    fig10_wan_ftp,
    fig11_disk,
    table1_testbeds,
)


def test_table1_roundtrip():
    rows = table1_testbeds.run()
    table1_testbeds.check(rows)
    text = table1_testbeds.render(rows).render()
    assert "roce-lan" in text and "49" in text


def test_fig34_selector_raises_on_missing():
    with pytest.raises(KeyError):
        fig3_fig4_semantics._at([], "write", 4096, 1)


def _fig34_point(**over):
    base = dict(
        semantics="write", block_size=4096, iodepth=16,
        gbps=10.0, cpu_pct=50.0, lat_us=10.0,
    )
    base.update(over)
    return fig3_fig4_semantics.Point(**base)


def test_fig34_check_rejects_wrong_ordering():
    """check() must actually catch a world where READ beats WRITE."""
    pts = []
    for depth in (1, 16):
        for sem in fig3_fig4_semantics.SEMANTICS:
            for bs in fig3_fig4_semantics.BLOCK_SIZES:
                gbps = 39.0 if sem == "read" else 10.0  # inverted world
                pts.append(
                    _fig34_point(semantics=sem, block_size=bs, iodepth=depth, gbps=gbps)
                )
    with pytest.raises(AssertionError):
        fig3_fig4_semantics.check(pts, line_rate_gbps=40.0)


def test_fig89_selector():
    p = fig8_fig9_lan_ftp.Point("rftp", 1 << 20, 8, 39.0, 80.0, 2.0)
    assert fig8_fig9_lan_ftp._sel([p], "rftp", 1 << 20, 8) is p
    with pytest.raises(KeyError):
        fig8_fig9_lan_ftp._sel([p], "gridftp", 1 << 20, 8)


def test_fig89_check_rejects_gridftp_win():
    pts = []
    for streams in fig8_fig9_lan_ftp.STREAMS:
        for bs in fig8_fig9_lan_ftp.BLOCK_SIZES:
            pts.append(fig8_fig9_lan_ftp.Point("gridftp", bs, streams, 39.0, 120.0, 110.0))
            pts.append(fig8_fig9_lan_ftp.Point("rftp", bs, streams, 10.0, 80.0, 3.0))
    with pytest.raises(AssertionError):
        fig8_fig9_lan_ftp.check(pts, bare_metal_gbps=40.0)


def test_fig10_check_rejects_slow_rftp():
    pts = [
        fig10_wan_ftp.Point("gridftp", 1, 6.0, 90.0, 80.0, 5),
        fig10_wan_ftp.Point("rftp", 1, 5.0, 20.0, 1.0),
        fig10_wan_ftp.Point("gridftp", 8, 8.0, 100.0, 85.0, 30),
        fig10_wan_ftp.Point("rftp", 8, 9.5, 20.0, 1.0),
    ]
    with pytest.raises(AssertionError):
        fig10_wan_ftp.check(pts)


def test_fig10_check_accepts_paper_shape():
    pts = [
        fig10_wan_ftp.Point("gridftp", 1, 6.5, 90.0, 80.0, 15),
        fig10_wan_ftp.Point("rftp", 1, 9.6, 19.0, 0.5),
        fig10_wan_ftp.Point("gridftp", 8, 7.4, 100.0, 85.0, 90),
        fig10_wan_ftp.Point("rftp", 8, 9.6, 18.0, 0.5),
    ]
    fig10_wan_ftp.check(pts)
    assert "rftp" in fig10_wan_ftp.render(pts).render()


def test_fig11_check_rejects_slow_disk():
    pts = [
        fig11_disk.Point("memory", 9.3, 17.0, 0.5),
        fig11_disk.Point("disk-direct", 5.0, 15.0, 1.0),
        fig11_disk.Point("disk-posix", 9.0, 16.0, 25.0),
    ]
    with pytest.raises(AssertionError):
        fig11_disk.check(pts)


def test_ablation_render():
    rows = [ablations.Row("a", 1.0, "x=1"), ablations.Row("b", 2.0)]
    text = ablations.render_rows(rows, "t").render()
    assert "a" in text and "2.00" in text

    # Every `repro figure` / `repro ablation` choice resolves to its
    # driver, and takes the arguments the dispatch passes, unrun.
    from repro import testbeds
    from repro.cli import ABLATIONS, FIGURES, build_parser

    parser = build_parser()
    for number, (name, testbed, title) in FIGURES.items():
        assert parser.parse_args(["figure", str(number)]).number == number
        module = importlib.import_module(f"repro.experiments.{name}")
        takes = testbed is not None
        assert (title is not None) is takes
        assert len(inspect.signature(module.run).parameters) == takes
        assert len(inspect.signature(module.render).parameters) == 1 + takes
        if takes:
            assert callable(getattr(testbeds, testbed))
    for which, (runner, title) in ABLATIONS.items():
        assert parser.parse_args(["ablation", which]).which == which
        assert callable(getattr(ablations, runner)) and title.startswith("Ablation")


def test_iodepth_check_rejects_nonmonotone():
    rows = [
        ablations.Row("iodepth=1", 30.0),
        ablations.Row("iodepth=2", 10.0),
        ablations.Row("iodepth=64", 39.9),
    ]
    with pytest.raises(AssertionError):
        ablations.check_iodepth_sweep(rows)


def test_credit_ablation_check_parses_details():
    rows = [
        ablations.Row("proactive, grant x2 (paper)", 9.3, "mr_requests=300"),
        ablations.Row("proactive, grant x1 (linear ramp)", 8.7, "mr_requests=250"),
        ablations.Row("on-demand (Tian et al. style)", 1.0, "mr_requests=512"),
    ]
    ablations.check_credit_ablation(rows)
    rows[2] = ablations.Row("on-demand (Tian et al. style)", 9.4, "mr_requests=512")
    with pytest.raises(AssertionError):
        ablations.check_credit_ablation(rows)


def test_recovery_ablation_check():
    rows = [
        ablations.Row("write fault rate 0%", 4.2, "resends=0 faults=0"),
        ablations.Row("write fault rate 2%", 3.9, "resends=3 faults=3"),
        ablations.Row("write fault rate 10%", 3.4, "resends=11 faults=11"),
    ]
    ablations.check_recovery_ablation(rows)
    # A faulty run with zero re-sends means the injector never fired.
    rows[1] = ablations.Row("write fault rate 2%", 3.9, "resends=0 faults=0")
    with pytest.raises(AssertionError):
        ablations.check_recovery_ablation(rows)
    # Goodput collapse under faults fails the overhead bound.
    rows[1] = ablations.Row("write fault rate 2%", 3.9, "resends=3 faults=3")
    rows[2] = ablations.Row("write fault rate 10%", 0.4, "resends=11 faults=11")
    with pytest.raises(AssertionError):
        ablations.check_recovery_ablation(rows)
