"""Deterministic named random streams.

Every stochastic component in the simulator pulls randomness from a named
child stream of one root seed, so experiments are exactly reproducible and
adding a new random consumer never perturbs the draws of existing ones.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING, Dict

if TYPE_CHECKING:  # pragma: no cover - typing only; numpy loads on first use
    import numpy as np

__all__ = ["RandomStreams"]


class RandomStreams:
    """A factory of independent, deterministically-seeded RNG streams."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self._streams: Dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it on first use.

        The child seed is derived from ``(root seed, name)`` with BLAKE2b,
        so streams are independent of creation order.
        """
        gen = self._streams.get(name)
        if gen is None:
            import numpy as np

            digest = hashlib.blake2b(
                f"{self.seed}:{name}".encode(), digest_size=8
            ).digest()
            gen = np.random.default_rng(int.from_bytes(digest, "little"))
            self._streams[name] = gen
        return gen

    def spawn(self, name: str) -> "RandomStreams":
        """Derive a child factory (e.g. per-host) with an independent seed."""
        digest = hashlib.blake2b(
            f"{self.seed}/{name}".encode(), digest_size=8
        ).digest()
        return RandomStreams(int.from_bytes(digest, "little"))
