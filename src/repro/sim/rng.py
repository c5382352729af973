"""Named, seeded random streams.

Every stochastic component (wireless medium, sensor noise, fault injector,
traffic generator) draws from its own named stream so that changing one
component's random consumption does not perturb the others — a prerequisite
for the paired comparisons in the E1–E9 experiments.
"""

from __future__ import annotations

import hashlib
from typing import Callable, Dict, List, Optional

import numpy as np


class ChunkedNormals:
    """Standard-normal draws pre-fetched in chunks on a scalar-identical stream.

    ``standard_normal(n)`` consumes the generator exactly like ``n``
    successive scalar draws, so refilling an internal buffer in chunks
    yields the same per-sample values as never batching — this is the
    refill schedule :class:`~repro.sensors.abstract_sensor.PhysicalSensor`
    uses for measurement noise, per sample (:meth:`next`) or as a whole
    row (:meth:`predraw`).

    A consumer whose RNG is shared with another draw site (e.g. an
    RNG-drawing fault) passes ``unbatched``, a predicate asked at each
    refill: while it is true the buffer refills one value at a time, so the
    draws interleave exactly as unbatched.
    """

    def __init__(
        self,
        rng: np.random.Generator,
        chunk: int = 128,
        unbatched: Optional[Callable[[], bool]] = None,
    ):
        if int(chunk) < 1:
            raise ValueError(f"chunk must be >= 1, got {chunk}")
        self.rng = rng
        self.chunk = int(chunk)
        self._unbatched = unbatched
        # Python floats (``tolist``): the same IEEE values as the array, and
        # cheaper to index and to do scalar arithmetic with.
        self._buffer: List[float] = []
        self._index = 0

    @property
    def buffered(self) -> int:
        """How many drawn values are still waiting to be handed out."""
        return len(self._buffer) - self._index

    def next(self) -> float:
        """The next standard-normal value; refills by the instance chunk (or
        by one while ``unbatched()`` holds) when the buffer is exhausted."""
        index = self._index
        buffer = self._buffer
        if index >= len(buffer):
            unbatched = self._unbatched
            size = 1 if unbatched is not None and unbatched() else self.chunk
            buffer = self._buffer = self.rng.standard_normal(size).tolist()
            index = 0
        self._index = index + 1
        return buffer[index]

    def predraw(self, count: int) -> np.ndarray:
        """The next ``count`` values as one array: bitwise what ``count``
        :meth:`next` calls return, leaving the instance where they would
        (the last chunk's tail stays buffered).  Refuses while
        ``unbatched()`` holds."""
        if self._unbatched is not None and self._unbatched():
            raise ValueError("predraw needs chunked refills, but unbatched() holds")
        held = self._buffer[self._index : self._index + count]
        self._index += len(held)
        missing = count - len(held)
        if missing <= 0:
            return np.array(held, dtype=float)
        # standard_normal(k * chunk) is the same stream as k chunk refills.
        chunks = -(-missing // self.chunk)
        drawn = self.rng.standard_normal(chunks * self.chunk)
        self._buffer = drawn[missing:].tolist()
        self._index = 0
        return np.concatenate((np.array(held, dtype=float), drawn[:missing]))


# Words fetched per refill of a ChunkedIntegers; carried over untuned.
_WORD_CHUNK = 64


class ChunkedIntegers:
    """Bounded integer draws read off prefetched 32-bit words, scalar-identical.

    ``below(n)`` returns exactly what ``rng.integers(low, low + n) - low``
    would, for ``1 <= n <= 2**32``: it is numpy's
    ``buffered_bounded_lemire_uint32`` rejection loop run on raw words that
    come off the generator ``_WORD_CHUNK`` at a time.  A ``uint32`` array draw
    yields the same words as the scalar path reads one by one (including
    PCG64's buffered upper half-word), so the stream is unchanged.  ``n == 1``
    consumes nothing, as in numpy; a power-of-two ``n`` never rejects, so it
    costs one word, one multiply and one shift.

    As with :class:`ChunkedNormals`, the owner must be the generator's only
    consumer: the words drawn ahead are gone from the stream whether or not
    they are used.  :class:`~repro.network.mac_csma.CsmaMacNode` draws its
    backoff slots this way from the MAC's private generator, and
    :class:`~repro.network.tdma.TdmaNetwork` its TDMA slots.
    """

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        # Python ints (``tolist``): exact, and cheap to multiply and shift.
        self._words: List[int] = []
        self._index = 0

    def _word(self) -> int:
        index = self._index
        words = self._words
        if index >= len(words):
            words = self._words = self.rng.integers(
                0, 2**32, size=_WORD_CHUNK, dtype=np.uint32
            ).tolist()
            index = 0
        self._index = index + 1
        return words[index]

    def below(self, n: int) -> int:
        """A uniform integer in ``[0, n)``, off the same words as numpy's."""
        if n == 1:
            return 0
        if not 1 < n <= 2**32:
            raise ValueError(f"n must be in [1, 2**32], got {n}")
        product = self._word() * n
        if product & 0xFFFFFFFF < n:
            # Low halves below 2**32 mod n would bias the result: redraw.
            threshold = (2**32 - n) % n
            while product & 0xFFFFFFFF < threshold:
                product = self._word() * n
        return product >> 32


class RandomStreams:
    """Factory of independent, reproducible ``numpy`` generators."""

    def __init__(self, master_seed: int = 0):
        self.master_seed = int(master_seed)
        self._streams: Dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it deterministically."""
        if name not in self._streams:
            digest = hashlib.sha256(
                f"{self.master_seed}:{name}".encode("utf-8")
            ).digest()
            seed = int.from_bytes(digest[:8], "little")
            self._streams[name] = np.random.default_rng(seed)
        return self._streams[name]

    def spawn(self, name: str) -> "RandomStreams":
        """Derive a child :class:`RandomStreams` (e.g. one per vehicle)."""
        digest = hashlib.sha256(f"{self.master_seed}:{name}".encode("utf-8")).digest()
        return RandomStreams(int.from_bytes(digest[8:16], "little"))

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"RandomStreams(master_seed={self.master_seed}, streams={sorted(self._streams)})"
