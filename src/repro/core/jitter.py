"""Deterministic jitter shared by every backoff/retry-hint site.

Retries and retry-after hints must de-synchronise (a thousand clients
backing off by exactly the same delay re-collide forever) yet stay
replayable: the same run seed must produce the same schedule, attempt
for attempt, including across crash recovery.  The resolution is the
same scheme :class:`~repro.sim.rng.RandomStreams` uses — hash the seed
and a stable key with BLAKE2b and read the digest as a fraction — so the
jitter is a pure function of *what* is retrying, independent of dispatch
order, wall clock, and how many other retries are in flight.

Users:

- :mod:`repro.sched.broker` — per-(job, file, attempt) retry backoff;
- :mod:`repro.sched.overload` — per-(job, shed-count) ``RETRY_AFTER``
  hints handed to shed submissions.
"""

from __future__ import annotations

from _blake2 import blake2b  # hashlib.blake2b without mapping libcrypto: see repro.sim.rng

__all__ = ["jitter_fraction", "jittered"]


def jitter_fraction(seed: int, *parts: object) -> float:
    """Deterministic fraction in [0, 1) from ``seed`` and a stable key.

    ``parts`` are joined with ``|`` after ``str()`` conversion, so any
    mix of strings and ints works as long as the caller keeps the key
    stable across incarnations (job id, path, attempt — not object ids
    or clock values).
    """
    key = "|".join(str(p) for p in (seed, *parts))
    digest = blake2b(key.encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little") / 2.0 ** 64


def jittered(base: float, spread: float, seed: int, *parts: object) -> float:
    """Scale ``base`` by a deterministic factor in [1, 1 + spread].

    The backoff/retry-after idiom both scheduler sites share: ``spread``
    is the jitter fraction knob (0 disables), the factor is derived from
    :func:`jitter_fraction` over the same key space.
    """
    if spread <= 0.0:
        return base
    return base * (1.0 + spread * jitter_fraction(seed, *parts))
