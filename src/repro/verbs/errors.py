"""Verbs-layer exceptions."""

from __future__ import annotations

__all__ = [
    "VerbsError",
    "QpStateError",
    "QueueFullError",
    "CqOverflowError",
    "RemoteAccessError",
]


class VerbsError(Exception):
    """Base class for all verbs-layer errors."""


class QpStateError(VerbsError):
    """Operation attempted in a QP state that does not allow it."""


class QueueFullError(VerbsError):
    """Posting would exceed the queue's configured depth."""


class CqOverflowError(VerbsError):
    """A completion arrived at a CQ that is already full.

    Real hardware moves the QP to error on CQ overrun; a simulated run
    that overflows a CQ has mis-sized its queues, so the push site
    raises instead of silently dropping the completion."""


class RemoteAccessError(VerbsError):
    """rkey validation or bounds check failed on a one-sided operation."""
