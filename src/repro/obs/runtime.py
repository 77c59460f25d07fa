"""Process-wide collection hooks for CLI-level observability.

Subcommands like ``ablation`` build many engines internally (one per
sweep point), so ``--metrics-out`` cannot simply export "the" engine.
Instead the CLI calls :func:`start_collection` before dispatching;
every :class:`~repro.sim.engine.Engine` constructed while collection
is active registers itself here, and the exporter walks the collected
engines afterwards in creation order.

Engines are held with *strong* references: sweep commands drop each
testbed as soon as its run finishes, and the exporter must still see
those engines.  The window is bounded — :func:`stop_collection` (and
the next :func:`start_collection`) releases everything — so nothing
leaks beyond one CLI command.

:func:`install_tracer_factory` serves ``--trace-out`` the same way:
while a factory is installed, every new engine gets a fresh
:class:`~repro.sim.trace.Tracer` from it at construction time.

Both hooks are no-ops (one ``if`` on a module global) when inactive,
so the simulation pays nothing outside instrumented CLI runs.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional

__all__ = [
    "start_collection",
    "stop_collection",
    "track_engine",
    "collected_engines",
    "install_tracer_factory",
    "make_tracer",
]

_collecting: bool = False
_engines: List[Any] = []
_tracer_factory: Optional[Callable[[], Any]] = None


def start_collection() -> None:
    """Begin tracking engines created from now on (clears prior set)."""
    global _collecting
    _engines.clear()
    _collecting = True


def stop_collection() -> None:
    """Stop tracking and release every collected engine."""
    global _collecting
    _collecting = False
    _engines.clear()


def track_engine(engine: Any) -> None:
    """Called by ``Engine.__init__``; records the engine if collecting."""
    if _collecting:
        _engines.append(engine)


def collected_engines() -> List[Any]:
    """Collected engines so far, in creation order."""
    return list(_engines)


def install_tracer_factory(factory: Optional[Callable[[], Any]]) -> None:
    """Set (or clear, with ``None``) the default-tracer factory."""
    global _tracer_factory
    _tracer_factory = factory


def make_tracer() -> Any:
    """Default tracer for a new engine — ``None`` unless a factory is set."""
    if _tracer_factory is None:
        return None
    return _tracer_factory()
