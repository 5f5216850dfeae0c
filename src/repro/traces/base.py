"""Trace interfaces.

A :class:`WriteTrace` produces virtual-block write addresses two ways:

* one at a time (:meth:`next_write`) for the exact engine;
* as per-block counts over a batch (:meth:`batch_counts`) for the fast
  engine, which applies a whole batch of writes vectorized.

:class:`DistributionTrace` is the stationary case — a fixed probability
vector over the virtual block space — which covers both the synthetic
benchmark models and the attack streams the paper considers (wear-leveling
analysis traditionally assumes stationary write distributions; the schemes
themselves are history-less).
"""

from __future__ import annotations

import abc
import copy
from typing import List, Optional, Tuple

import numpy as np

from ..errors import ConfigurationError
from ..rng import SeedLike, derive_rng

#: Seeds a bit generator whose state is overwritten at once; cheaper
#: than seeding it from OS entropy.
_PLACEHOLDER_SEED = np.random.SeedSequence(0)


class WriteTrace(abc.ABC):
    """A stream of virtual-block write addresses."""

    def __init__(self, virtual_blocks: int, name: str = "trace") -> None:
        if virtual_blocks <= 0:
            raise ConfigurationError("virtual_blocks must be positive")
        self.virtual_blocks = virtual_blocks
        self.name = name

    @abc.abstractmethod
    def next_write(self) -> int:
        """Next virtual block address to write."""

    @abc.abstractmethod
    def batch_counts(self, batch: int) -> np.ndarray:
        """Per-virtual-block write counts for the next *batch* writes."""

    def reset(self) -> None:
        """Restart the stream (optional for stationary traces)."""


class DistributionTrace(WriteTrace):
    """Stationary trace: i.i.d. draws from a fixed block distribution."""

    def __init__(self, probabilities: np.ndarray, name: str = "distribution",
                 seed: SeedLike = None) -> None:
        probabilities = np.asarray(probabilities, dtype=np.float64)
        super().__init__(len(probabilities), name=name)
        total = probabilities.sum()
        if total <= 0 or (probabilities < 0).any():
            raise ConfigurationError("probabilities must be non-negative, sum > 0")
        self.probabilities = probabilities / total
        self._seed = seed
        self._rng = derive_rng(seed, f"trace-{name}")
        # Buffered single draws so next_write() amortizes generator calls;
        # a list, so each draw is an int with no numpy scalar to convert.
        self._buffer: List[int] = []
        self._buffer_pos = 0

    def next_write(self) -> int:
        pos = self._buffer_pos
        if pos == len(self._buffer):
            self._buffer = self._rng.choice(
                self.virtual_blocks, size=4096, p=self.probabilities).tolist()
            pos = 0
        self._buffer_pos = pos + 1
        return self._buffer[pos]

    def batch_counts(self, batch: int) -> np.ndarray:
        return self._rng.multinomial(batch, self.probabilities)

    def reset(self) -> None:
        self._rng = derive_rng(self._seed, f"trace-{self.name}")
        self._buffer = []
        self._buffer_pos = 0

    def request_stream(self, write_ratio: float = 0.5,
                       name: Optional[str] = None,
                       seed: SeedLike = None) -> "RequestStream":
        """A read/write request stream drawing addresses from this trace."""
        return RequestStream(self.probabilities, write_ratio=write_ratio,
                             name=self.name if name is None else name,
                             seed=self._seed if seed is None else seed)

    def restricted_to(self, virtual_blocks: int) -> "DistributionTrace":
        """Fold the distribution onto a smaller virtual space.

        Used when an engine's software space is smaller than the space the
        distribution was built for: the tail mass wraps around, preserving
        hot-set structure.
        """
        if virtual_blocks >= self.virtual_blocks:
            return self
        folded = np.zeros(virtual_blocks, dtype=np.float64)
        for start in range(0, self.virtual_blocks, virtual_blocks):
            chunk = self.probabilities[start:start + virtual_blocks]
            folded[:len(chunk)] += chunk
        return DistributionTrace(folded, name=f"{self.name}-folded",
                                 seed=self._seed)


class RequestStream:
    """Deterministic stream of ``(address, is_write)`` service requests.

    Write traces model the address stream a wear-leveler sees; the online
    serving layer additionally needs the read/write *mix*, because only
    writes wear the device while both kinds occupy queue slots and service
    time.  A :class:`RequestStream` draws both from one PCG64 stream
    derived from ``(seed, name)``, so two streams built with the same pair
    replay the exact same requests — the property the serving layer's
    per-client load generators lean on for byte-identical runs at any
    worker count.

    **Draw layout.**  The stream consumes its generator in fixed blocks
    of :attr:`BLOCK` requests: :attr:`BLOCK` uniforms for the addresses,
    then :attr:`BLOCK` for the read/write flags.  That is exactly what
    ``rng.choice(n, BLOCK, p=p)`` followed by ``rng.random(BLOCK)``
    consumes (``choice`` is ``cdf.searchsorted(uniforms, side="right")``
    over ``cdf = cumsum(p) / cumsum(p)[-1]``, one uniform per address),
    so request *k* is a fixed function of ``(seed, name, k)``.  The
    stream draws lazily, in chunks, through two generators on that one
    stream: one reads a block's address half, the other, advanced
    :attr:`BLOCK` draws ahead, its write half, and at each block
    boundary both jump over the other's half.  Chunks start at
    :attr:`FIRST_CHUNK` requests and double up to :attr:`MAX_CHUNK`,
    so a consumer that issues five requests draws eight, and a long
    stream pays the per-call cost rarely.  The chunk sizes never change
    a value, only how far the stream draws ahead.
    """

    #: Requests per generator block (the fixed draw layout above).
    BLOCK = 4096
    #: Requests drawn by the first refill; each refill doubles it.
    FIRST_CHUNK = 8
    #: Largest refill.
    MAX_CHUNK = 1024

    def __init__(self, probabilities: np.ndarray, write_ratio: float = 0.5,
                 name: str = "requests", seed: SeedLike = None) -> None:
        probabilities = np.asarray(probabilities, dtype=np.float64)
        if len(probabilities) == 0:
            raise ConfigurationError("need at least one address")
        total = probabilities.sum()
        if total <= 0 or (probabilities < 0).any():
            raise ConfigurationError(
                "probabilities must be non-negative, sum > 0")
        if not 0.0 <= write_ratio <= 1.0:
            raise ConfigurationError("write_ratio must be in [0, 1]")
        self.probabilities = probabilities / total
        self.virtual_blocks = len(probabilities)
        self.write_ratio = write_ratio
        self.name = name
        self._seed = seed
        # Generator.choice's inverse CDF, built once per address law.
        self._cdf = self.probabilities.cumsum()
        self._cdf /= self._cdf[-1]
        self.reset()

    def sibling(self, name: str) -> "RequestStream":
        """The ``(seed, name)`` stream over this stream's address law.

        Shares the probabilities and CDF, so N per-consumer streams cost
        N generators rather than N address laws.
        """
        twin = copy.copy(self)
        twin.name = name
        twin.reset()
        return twin

    def next_request(self) -> Tuple[int, bool]:
        """Next request as ``(virtual address, is_write)``."""
        pos = self._pos
        if pos == len(self._addresses):
            self._refill()
            pos = 0
        self._pos = pos + 1
        return self._addresses[pos], self._writes[pos]

    def reset(self) -> None:
        """Restart the stream from its first request."""
        self._address_rng = derive_rng(self._seed, f"requests-{self.name}")
        bits = self._address_rng.bit_generator
        # A clone of the same stream, not a second derivation: deriving
        # again is slower and, for a Generator seed, draws from the parent.
        write_bits = type(bits)(_PLACEHOLDER_SEED)
        write_bits.state = bits.state
        write_bits.advance(self.BLOCK)
        self._write_rng = np.random.Generator(write_bits)
        self._drawn = 0
        self._chunk = self.FIRST_CHUNK
        self._addresses: List[int] = []
        self._writes: List[bool] = []
        self._pos = 0

    def _refill(self) -> None:
        if self._drawn == self.BLOCK:
            self._address_rng.bit_generator.advance(self.BLOCK)
            self._write_rng.bit_generator.advance(self.BLOCK)
            self._drawn = 0
        size = min(self._chunk, self.BLOCK - self._drawn)
        self._chunk = min(2 * self._chunk, self.MAX_CHUNK)
        self._drawn += size
        self._addresses = self._cdf.searchsorted(
            self._address_rng.random(size), side="right").tolist()
        self._writes = (self._write_rng.random(size)
                        < self.write_ratio).tolist()
