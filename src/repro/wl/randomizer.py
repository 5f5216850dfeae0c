"""Static address randomizers.

Start-Gap alone only shifts addresses by one position per gap move, which
leaves spatial correlation intact; the published scheme therefore composes
it with a *static random bijection* of the address space ("Randomized
Start-Gap").  This module provides the bijections:

* :class:`FeistelRandomizer` — a keyed Feistel network, the hardware-
  realistic choice (constant logic, no table).  Domains that are not a power
  of two are handled with cycle-walking: apply the permutation of the next
  power of two repeatedly until the value lands inside the domain (a
  standard format-preserving-encryption construction; still a bijection).
  The keys are fixed at construction, so the simulator evaluates the
  network once over the whole domain and serves every lookup from that
  table — exact memoization, the way a programmable address decoder
  would hold the map.
* :class:`PermutationRandomizer` — an explicit random permutation table;
  the gold standard the Feistel network approximates.
* :class:`IdentityRandomizer` — no randomization (ablations; shows the
  spatial-correlation weakness).
* :class:`RestrictedRandomizer` — the *handicapped* randomization LLS must
  adopt (Section IV-D): addresses in the lower half may only randomize into
  the upper half and vice versa, which keeps concentrated writes from being
  fully spread.  For odd domains the last address maps to itself.
"""

from __future__ import annotations

import abc
import functools
from typing import Callable, List

import numpy as np

from ..errors import AddressError, ConfigurationError
from ..rng import SeedLike, make_rng

_MASK64 = (1 << 64) - 1


class AddressRandomizer(abc.ABC):
    """A seeded bijection over ``[0, size)``."""

    def __init__(self, size: int) -> None:
        if size <= 0:
            raise ConfigurationError("randomizer size must be positive")
        self.size = size

    @abc.abstractmethod
    def forward(self, address: int) -> int:
        """Randomize *address*."""

    @abc.abstractmethod
    def backward(self, address: int) -> int:
        """Invert :meth:`forward`."""

    def forward_many(self, addresses: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`forward` (subclasses override where possible)."""
        return np.fromiter((self.forward(int(a)) for a in addresses),
                           dtype=np.int64, count=len(addresses))

    def backward_many(self, addresses: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`backward`."""
        return np.fromiter((self.backward(int(a)) for a in addresses),
                           dtype=np.int64, count=len(addresses))

    def _check(self, address: int) -> int:
        if not 0 <= address < self.size:
            raise AddressError(f"address {address} outside [0, {self.size})")
        return address

    def _check_many(self, addresses: np.ndarray) -> np.ndarray:
        """*addresses* as int64; :class:`AddressError` if any is out of range."""
        addresses = np.asarray(addresses, dtype=np.int64)
        if addresses.size and (addresses.min() < 0
                               or addresses.max() >= self.size):
            raise AddressError(
                f"addresses span [{addresses.min()}, {addresses.max()}], "
                f"outside [0, {self.size})")
        return addresses


class IdentityRandomizer(AddressRandomizer):
    """No randomization at all."""

    def forward(self, address: int) -> int:
        return self._check(address)

    def backward(self, address: int) -> int:
        return self._check(address)

    def forward_many(self, addresses: np.ndarray) -> np.ndarray:
        return self._check_many(addresses)

    def backward_many(self, addresses: np.ndarray) -> np.ndarray:
        return self._check_many(addresses)


class TableRandomizer(AddressRandomizer):
    """A bijection served from its forward table and the scattered inverse.

    Subclasses say how to build the forward table (the image of
    ``arange(size)``); both tables are built on first use, after which
    every lookup, scalar or vectorized, is one index.  Scalar lookups
    index Python-list mirrors of the two tables (also built on first
    use): a list index returns an ``int`` directly, where a numpy
    scalar index would box one and then convert it.
    """

    @abc.abstractmethod
    def _build_table(self) -> np.ndarray:
        """The int64 image of ``arange(size)``."""

    @functools.cached_property
    def _table(self) -> np.ndarray:
        return self._build_table()

    @functools.cached_property
    def _inverse(self) -> np.ndarray:
        inverse = np.empty(self.size, dtype=np.int64)
        inverse[self._table] = np.arange(self.size, dtype=np.int64)
        return inverse

    @functools.cached_property
    def _table_list(self) -> List[int]:
        return self._table.tolist()

    @functools.cached_property
    def _inverse_list(self) -> List[int]:
        return self._inverse.tolist()

    def forward(self, address: int) -> int:
        return self._table_list[self._check(address)]

    def backward(self, address: int) -> int:
        return self._inverse_list[self._check(address)]

    def forward_many(self, addresses: np.ndarray) -> np.ndarray:
        return self._table[self._check_many(addresses)]

    def backward_many(self, addresses: np.ndarray) -> np.ndarray:
        return self._inverse[self._check_many(addresses)]


class PermutationRandomizer(TableRandomizer):
    """Explicit random permutation (table-based)."""

    def __init__(self, size: int, seed: SeedLike = None) -> None:
        super().__init__(size)
        self._permutation = make_rng(seed).permutation(size).astype(np.int64)

    def _build_table(self) -> np.ndarray:
        return self._permutation


class FeistelRandomizer(TableRandomizer):
    """Keyed balanced Feistel network with cycle-walking.

    The hardware evaluates the network per access (constant logic, no
    table).  The keys never change, so the simulator memoizes the
    permutation exactly: the forward table is the vectorized network
    applied once to the whole domain, the backward table its inverse
    scatter.  The network methods stay as the reference both are built
    from and tested against.
    """

    def __init__(self, size: int, seed: SeedLike = None, rounds: int = 4) -> None:
        super().__init__(size)
        if rounds < 1:
            raise ConfigurationError("rounds must be >= 1")
        self.rounds = rounds
        # Width of the enclosing power-of-two domain, forced even so the
        # Feistel halves are balanced.
        bits = max(2, (size - 1).bit_length())
        if bits % 2:
            bits += 1
        self._bits = bits
        self._half = bits // 2
        self._half_mask = (1 << self._half) - 1
        rng = make_rng(seed)
        self._keys = [int(k) for k in rng.integers(0, _MASK64, size=rounds,
                                                   dtype=np.uint64)]

    # ------------------------------------------------------------- internals

    def _round_fn(self, value: int, key: int) -> int:
        """Keyed mixing function of one Feistel round (any function works)."""
        x = (value * 0x9E3779B97F4A7C15 + key) & _MASK64
        x ^= x >> 29
        x = (x * 0xBF58476D1CE4E5B9) & _MASK64
        x ^= x >> 32
        return x & self._half_mask

    def _permute_pow2(self, value: int) -> int:
        left = value >> self._half
        right = value & self._half_mask
        for key in self._keys:
            left, right = right, left ^ self._round_fn(right, key)
        return (left << self._half) | right

    def _unpermute_pow2(self, value: int) -> int:
        left = value >> self._half
        right = value & self._half_mask
        for key in reversed(self._keys):
            left, right = right ^ self._round_fn(left, key), left
        return (left << self._half) | right

    def _build_table(self) -> np.ndarray:
        return self._walk(np.arange(self.size, dtype=np.uint64),
                          self._permute_pow2_vec)

    def _walk(self, values: np.ndarray,
              step: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
        """Cycle-walk *values* through *step* until all land in the domain."""
        out = step(values)
        walk = out >= self.size
        while walk.any():
            out[walk] = step(out[walk])
            walk = out >= self.size
        return out.astype(np.int64)

    # Vectorized mirrors of the scalar round functions (uint64 wraparound
    # arithmetic matches the scalar masked arithmetic exactly).

    def _round_fn_vec(self, values: np.ndarray, key: int) -> np.ndarray:
        with np.errstate(over="ignore"):
            x = values * np.uint64(0x9E3779B97F4A7C15) + np.uint64(key)
            x ^= x >> np.uint64(29)
            x *= np.uint64(0xBF58476D1CE4E5B9)
            x ^= x >> np.uint64(32)
        return x & np.uint64(self._half_mask)

    def _permute_pow2_vec(self, values: np.ndarray) -> np.ndarray:
        left = values >> np.uint64(self._half)
        right = values & np.uint64(self._half_mask)
        for key in self._keys:
            left, right = right, left ^ self._round_fn_vec(right, key)
        return (left << np.uint64(self._half)) | right

    def _unpermute_pow2_vec(self, values: np.ndarray) -> np.ndarray:
        left = values >> np.uint64(self._half)
        right = values & np.uint64(self._half_mask)
        for key in reversed(self._keys):
            left, right = right ^ self._round_fn_vec(left, key), left
        return (left << np.uint64(self._half)) | right


class RestrictedRandomizer(TableRandomizer):
    """LLS's half-space-restricted randomization.

    Lower-half addresses randomize only into the upper half and vice versa;
    for an odd *size* the last element is fixed.  This is the adaptation
    the paper identifies as the reason LLS's leveling is weaker: a hot
    region confined to one half lands in a single target half instead of
    spreading over the whole space.
    """

    def __init__(self, size: int, seed: SeedLike = None) -> None:
        super().__init__(size)
        rng = make_rng(seed)
        h = size // 2
        # lower[i] in upper half positions, upper[j] in lower half positions.
        low_to_up = rng.permutation(h) + h
        up_to_low = rng.permutation(h)
        self._image = np.concatenate(
            [low_to_up, up_to_low, np.arange(2 * h, size)]).astype(np.int64)

    def _build_table(self) -> np.ndarray:
        return self._image


def make_randomizer(kind: str, size: int, seed: SeedLike = None,
                    rounds: int = 4) -> AddressRandomizer:
    """Factory keyed by the config string (see ``StartGapConfig.randomizer``)."""
    if kind == "feistel":
        return FeistelRandomizer(size, seed=seed, rounds=rounds)
    if kind == "permutation":
        return PermutationRandomizer(size, seed=seed)
    if kind == "identity":
        return IdentityRandomizer(size)
    if kind == "restricted":
        return RestrictedRandomizer(size, seed=seed)
    raise ConfigurationError(f"unknown randomizer kind {kind!r}")
