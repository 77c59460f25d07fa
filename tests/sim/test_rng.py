"""Deterministic named random streams."""

from repro.sim import RandomStreams


def test_same_seed_same_draws():
    a = RandomStreams(7).stream("x")
    b = RandomStreams(7).stream("x")
    assert list(a.random(5)) == list(b.random(5))


def test_different_names_independent():
    rs = RandomStreams(7)
    a = list(rs.stream("a").random(5))
    b = list(rs.stream("b").random(5))
    assert a != b


def test_stream_identity_cached():
    rs = RandomStreams(0)
    assert rs.stream("x") is rs.stream("x")


def test_creation_order_does_not_matter():
    rs1 = RandomStreams(3)
    rs1.stream("first")
    x1 = list(rs1.stream("second").random(4))
    rs2 = RandomStreams(3)
    x2 = list(rs2.stream("second").random(4))
    assert x1 == x2


def test_spawn_children_independent():
    parent = RandomStreams(5)
    child_a = parent.spawn("host-a")
    child_b = parent.spawn("host-b")
    assert child_a.seed != child_b.seed
    assert list(child_a.stream("s").random(3)) != list(
        child_b.stream("s").random(3)
    )


def test_spawn_deterministic():
    assert RandomStreams(5).spawn("x").seed == RandomStreams(5).spawn("x").seed


def test_numpy_loads_on_first_draw_not_at_import():
    # The fault-free workloads never draw a random number, so they must
    # not pay numpy's import; a fresh interpreter keeps other tests'
    # imports out of the answer.
    import os
    import subprocess
    import sys

    import repro

    code = (
        "import sys\n"
        "import repro.testbeds, repro.apps.rftp, repro.apps.fio, repro.sched\n"
        "assert 'numpy' not in sys.modules, 'numpy imported at module load'\n"
        "from repro.sim import RandomStreams\n"
        "RandomStreams(0).stream('x').random()\n"
        "assert 'numpy' in sys.modules\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    subprocess.run([sys.executable, "-c", code], check=True, env=env, timeout=60)
