"""Tests for the static address randomizers, incl. hypothesis properties."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import AddressError, ConfigurationError
from repro.wl import (
    FeistelRandomizer,
    IdentityRandomizer,
    PermutationRandomizer,
    RestrictedRandomizer,
    make_randomizer,
)

ALL_KINDS = ["feistel", "permutation", "identity", "restricted"]


def build(kind: str, size: int, seed: int = 3):
    return make_randomizer(kind, size, seed=seed)


def cycle_walk(randomizer: FeistelRandomizer, value: int, step) -> int:
    """Reference: apply the power-of-two network until inside the domain."""
    while True:
        value = step(value)
        if value < randomizer.size:
            return value


class TestBijectivity:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("size", [1, 2, 7, 64, 255, 256, 1000])
    def test_forward_is_permutation(self, kind, size):
        randomizer = build(kind, size)
        image = {randomizer.forward(x) for x in range(size)}
        assert image == set(range(size))

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("size", [1, 2, 7, 64, 255, 1000])
    def test_backward_inverts_forward(self, kind, size):
        randomizer = build(kind, size)
        for x in range(size):
            assert randomizer.backward(randomizer.forward(x)) == x

    @given(size=st.integers(min_value=2, max_value=600),
           seed=st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=40, deadline=None)
    def test_feistel_bijection_property(self, size, seed):
        """Property: any (size, seed) yields an exact bijection."""
        randomizer = FeistelRandomizer(size, seed=seed)
        image = sorted(randomizer.forward(x) for x in range(size))
        assert image == list(range(size))


class TestVectorization:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_forward_many_matches_scalar(self, kind):
        randomizer = build(kind, 257)
        xs = np.arange(257)
        vectorized = randomizer.forward_many(xs)
        scalar = [randomizer.forward(int(x)) for x in xs]
        assert vectorized.tolist() == scalar

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_backward_many_matches_scalar(self, kind):
        randomizer = build(kind, 257)
        xs = np.arange(257)
        vectorized = randomizer.backward_many(xs)
        scalar = [randomizer.backward(int(x)) for x in xs]
        assert vectorized.tolist() == scalar


class TestScalarLookups:
    """Scalar lookups index list mirrors of the tables: they must agree
    with the vectorized lookups everywhere and keep the range check (a
    list would quietly accept -1)."""

    @pytest.mark.parametrize("cls", [PermutationRandomizer,
                                     FeistelRandomizer])
    @pytest.mark.parametrize("size", [1, 2, 255, 1000])
    def test_scalar_matches_vectorized_over_domain(self, cls, size):
        randomizer = cls(size, seed=7)
        xs = np.arange(size)
        forward = [randomizer.forward(x) for x in range(size)]
        backward = [randomizer.backward(x) for x in range(size)]
        assert forward == randomizer.forward_many(xs).tolist()
        assert backward == randomizer.backward_many(xs).tolist()
        assert all(type(v) is int for v in forward + backward)
        assert [randomizer.forward(x) for x in xs] == forward

    @pytest.mark.parametrize("cls", [PermutationRandomizer,
                                     FeistelRandomizer])
    @pytest.mark.parametrize("size", [1, 300])
    def test_scalar_range_check(self, cls, size):
        randomizer = cls(size, seed=7)
        randomizer.forward(0)
        randomizer.backward(0)
        for bad in (-1, size):
            with pytest.raises(AddressError):
                randomizer.forward(bad)
            with pytest.raises(AddressError):
                randomizer.backward(bad)


class TestFeistelTables:
    @given(size=st.integers(min_value=2, max_value=600),
           seed=st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=40, deadline=None)
    def test_tables_equal_the_network(self, size, seed):
        """Property: both tables are the cycle-walked network, exactly."""
        randomizer = FeistelRandomizer(size, seed=seed)
        forward = [cycle_walk(randomizer, x, randomizer._permute_pow2)
                   for x in range(size)]
        backward = [cycle_walk(randomizer, x, randomizer._unpermute_pow2)
                    for x in range(size)]
        xs = np.arange(size, dtype=np.uint64)
        assert randomizer._table.tolist() == forward
        assert randomizer._inverse.tolist() == backward
        assert randomizer._walk(
            xs, randomizer._permute_pow2_vec).tolist() == forward
        assert randomizer._walk(
            xs, randomizer._unpermute_pow2_vec).tolist() == backward
        assert randomizer.forward_many(xs).tolist() == forward
        assert randomizer.backward_many(xs).tolist() == backward
        assert [randomizer.forward(x) for x in range(size)] == forward
        assert [randomizer.backward(x) for x in range(size)] == backward

    def test_tables_are_built_lazily(self):
        randomizer = FeistelRandomizer(300, seed=2)
        assert "_table" not in vars(randomizer)
        randomizer.forward(5)
        assert "_table" in vars(randomizer)
        assert "_inverse" not in vars(randomizer)
        randomizer.backward_many(np.arange(4))
        assert "_inverse" in vars(randomizer)


class TestSeeding:
    @pytest.mark.parametrize("kind", ["feistel", "permutation", "restricted"])
    def test_seed_determines_permutation(self, kind):
        a = build(kind, 128, seed=1)
        b = build(kind, 128, seed=1)
        c = build(kind, 128, seed=2)
        mapping_a = [a.forward(x) for x in range(128)]
        mapping_b = [b.forward(x) for x in range(128)]
        mapping_c = [c.forward(x) for x in range(128)]
        assert mapping_a == mapping_b
        assert mapping_a != mapping_c


class TestRestricted:
    def test_halves_swap(self):
        randomizer = RestrictedRandomizer(64, seed=4)
        for x in range(32):
            assert randomizer.forward(x) >= 32
        for x in range(32, 64):
            assert randomizer.forward(x) < 32

    def test_odd_size_fixes_last(self):
        randomizer = RestrictedRandomizer(65, seed=4)
        assert randomizer.forward(64) == 64
        assert randomizer.backward(64) == 64

    def test_restriction_limits_spread(self):
        """A hot lower-half region lands entirely in the upper half —
        the leveling handicap the paper attributes to LLS."""
        randomizer = RestrictedRandomizer(256, seed=4)
        targets = {randomizer.forward(x) for x in range(64)}
        assert all(t >= 128 for t in targets)


class TestMisc:
    def test_identity_is_identity(self):
        randomizer = IdentityRandomizer(100)
        assert all(randomizer.forward(x) == x for x in range(100))

    def test_out_of_range_rejected(self):
        randomizer = PermutationRandomizer(10, seed=1)
        with pytest.raises(AddressError):
            randomizer.forward(10)
        with pytest.raises(AddressError):
            randomizer.backward(-1)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("bad", [[10], [-1], [3, 10**9], [0, -5, 9]])
    def test_vectorized_out_of_range_rejected(self, kind, bad):
        randomizer = build(kind, 10)
        with pytest.raises(AddressError):
            randomizer.forward_many(np.asarray(bad))
        with pytest.raises(AddressError):
            randomizer.backward_many(np.asarray(bad))

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_vectorized_empty_input(self, kind):
        randomizer = build(kind, 10)
        empty = np.empty(0, dtype=np.int64)
        assert randomizer.forward_many(empty).shape == (0,)
        assert randomizer.backward_many(empty).shape == (0,)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            make_randomizer("bogus", 16)

    def test_feistel_rejects_zero_rounds(self):
        with pytest.raises(ConfigurationError):
            FeistelRandomizer(16, rounds=0)

    def test_feistel_actually_scrambles(self):
        randomizer = FeistelRandomizer(4096, seed=5)
        fixed = sum(1 for x in range(4096) if randomizer.forward(x) == x)
        assert fixed < 40  # a random permutation averages 1 fixed point
