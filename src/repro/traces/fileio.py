"""Recorded-stream replay.

:class:`FileTrace` replays a stored address stream (a captured trace, or
one a workload generator programmed); when the stream runs out it wraps
around (the paper runs each program "multiple times to produce the
required wear-out effect").
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError
from .base import WriteTrace


class FileTrace(WriteTrace):
    """Replays a recorded address stream, wrapping around at the end."""

    def __init__(self, addresses: np.ndarray, virtual_blocks: int,
                 name: str = "file") -> None:
        super().__init__(virtual_blocks, name=name)
        if len(addresses) == 0:
            raise ConfigurationError("empty trace")
        self.addresses = np.asarray(addresses, dtype=np.int64)
        if self.addresses.min() < 0 \
                or self.addresses.max() >= virtual_blocks:
            raise ConfigurationError(
                "address outside the declared virtual space")
        self._cursor = 0

    def next_write(self) -> int:
        value = int(self.addresses[self._cursor])
        self._cursor = (self._cursor + 1) % len(self.addresses)
        return value

    def batch_counts(self, batch: int) -> np.ndarray:
        counts = np.zeros(self.virtual_blocks, dtype=np.int64)
        remaining = batch
        while remaining > 0:
            take = min(remaining, len(self.addresses) - self._cursor)
            chunk = self.addresses[self._cursor:self._cursor + take]
            counts += np.bincount(chunk, minlength=self.virtual_blocks)
            self._cursor = (self._cursor + take) % len(self.addresses)
            remaining -= take
        return counts

    def reset(self) -> None:
        self._cursor = 0

    def restricted_to(self, virtual_blocks: int) -> "FileTrace":
        """Fold the stream onto a smaller virtual space.

        The stream analogue of
        :meth:`~repro.traces.base.DistributionTrace.restricted_to`:
        addresses wrap modulo the smaller space, preserving the stream's
        temporal structure while every request stays in range.
        """
        if virtual_blocks >= self.virtual_blocks:
            return self
        return FileTrace(self.addresses % virtual_blocks, virtual_blocks,
                         name=f"{self.name}-folded")
