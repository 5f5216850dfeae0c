"""Unit tests for the PCM chip simulator."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.errors import AddressError, WriteFault
from repro.pcm import BlockState
from repro.pcm.chip import EMPTY_TAG

from .conftest import make_chip


class TestBasicWrites:
    def test_write_stores_tag_and_wears(self, small_chip):
        small_chip.write(3, tag=42)
        assert small_chip.read(3) == 42
        assert small_chip.wear_of(3) == 1

    def test_write_without_tag_keeps_content(self, small_chip):
        small_chip.write(3, tag=42)
        small_chip.write(3)
        assert small_chip.read(3) == 42
        assert small_chip.wear_of(3) == 2

    def test_unwritten_reads_empty(self, small_chip):
        assert small_chip.read(5) == EMPTY_TAG

    def test_total_device_writes(self, small_chip):
        for _ in range(5):
            small_chip.write(1)
        small_chip.write_metadata(2)
        assert small_chip.total_device_writes == 6

    def test_bounds_check(self, small_chip):
        with pytest.raises(AddressError):
            small_chip.write(128)


class TestFailure:
    def test_block_fails_at_threshold(self):
        chip = make_chip(num_blocks=64, mean=50, seed=2)
        da = 0
        threshold = chip.ecc.threshold(da)
        for _ in range(threshold - 1):
            chip.write(da)
        with pytest.raises(WriteFault):
            chip.write(da)
        assert chip.is_failed(da)

    def test_failed_write_clears_content(self):
        chip = make_chip(num_blocks=64, mean=50, seed=2)
        da = 0
        chip.write(da, tag=9)
        with pytest.raises(WriteFault):
            for _ in range(chip.ecc.threshold(da) + 1):
                chip.write(da, tag=9)
        assert chip.read(da) == EMPTY_TAG

    def test_write_to_failed_block_faults(self):
        chip = make_chip(num_blocks=64, mean=50, seed=2)
        with pytest.raises(WriteFault):
            for _ in range(10_000):
                chip.write(0)
        with pytest.raises(WriteFault):
            chip.write(0)

    def test_metadata_write_to_failed_block_allowed(self):
        chip = make_chip(num_blocks=64, mean=50, seed=2)
        with pytest.raises(WriteFault):
            for _ in range(10_000):
                chip.write(0)
        chip.write_metadata(0)  # pointer storage in surviving cells

    def test_failed_fraction(self):
        chip = make_chip(num_blocks=64, mean=50, seed=2)
        assert chip.failed_fraction() == 0.0
        with pytest.raises(WriteFault):
            for _ in range(10_000):
                chip.write(0)
        assert chip.failed_fraction() == pytest.approx(1 / 64)


class TestBatchedWrites:
    def test_batch_matches_scalar_wear(self):
        scalar = make_chip(num_blocks=64, mean=10_000, seed=3)
        batched = make_chip(num_blocks=64, mean=10_000, seed=3)
        das = np.array([1, 2, 3, 1])
        counts = np.array([4, 2, 1, 6])
        for da, count in zip(das, counts):
            for _ in range(count):
                scalar.write(int(da))
        batched.write_many(das, counts)
        assert (scalar.wear == batched.wear).all()

    def test_batch_detects_failures(self):
        chip = make_chip(num_blocks=64, mean=50, seed=2)
        threshold = chip.ecc.threshold(5)
        newly = chip.write_many(np.array([5]), np.array([threshold + 10]))
        assert newly.tolist() == [5]
        assert chip.is_failed(5)

    def test_batch_ignores_already_failed(self):
        chip = make_chip(num_blocks=64, mean=50, seed=2)
        chip.write_many(np.array([5]), np.array([100_000]))
        newly = chip.write_many(np.array([5]), np.array([10]))
        assert newly.size == 0

    def test_empty_batch(self, small_chip):
        newly = small_chip.write_many(np.empty(0, dtype=np.int64),
                                      np.empty(0, dtype=np.int64))
        assert newly.size == 0

    def test_shape_mismatch_rejected(self, small_chip):
        with pytest.raises(AddressError):
            small_chip.write_many(np.array([1, 2]), np.array([1]))


class TestFailureEvents:
    """``failure_events`` counts every block the chip itself fails."""

    @staticmethod
    def assert_counted(chip):
        assert chip.failure_events == int(chip.failed.sum())

    @staticmethod
    def engine_of(chip):
        """The least an engine needs for a schedule driver to attach."""
        return SimpleNamespace(chip=chip, inject=None,
                               config=SimpleNamespace(recovery="none"))

    def test_counts_single_write_failures(self):
        chip = make_chip(num_blocks=64, mean=50, seed=2)
        assert chip.failure_events == 0
        for da in (0, 3, 9):
            with pytest.raises(WriteFault):
                for _ in range(10_000):
                    chip.write(da)
            self.assert_counted(chip)
        assert chip.failure_events == 3
        # A write refused because the block is already failed counts
        # nothing new.
        with pytest.raises(WriteFault):
            chip.write(3)
        self.assert_counted(chip)

    def test_counts_write_many_failures(self):
        chip = make_chip(num_blocks=64, mean=50, seed=2)
        rng = np.random.default_rng(5)
        for _ in range(20):
            das = rng.integers(0, 64, size=16)
            counts = rng.integers(1, 9, size=16)
            chip.write_many(das, counts)
            self.assert_counted(chip)
        assert 0 < chip.failure_events < 64

    def test_counts_mixed_scalar_and_batched_failures(self):
        chip = make_chip(num_blocks=64, mean=50, seed=2)
        chip.write_many(np.arange(32), np.full(32, 45))
        self.assert_counted(chip)
        for da in range(32, 64):
            try:
                for _ in range(45):
                    chip.write(da)
            except WriteFault:
                pass
            self.assert_counted(chip)

    def test_counts_failures_after_threshold_clamps(self):
        from repro.faultinject.hooks import ScheduleDriver
        from repro.faultinject.schedule import FaultAction, FaultSchedule

        chip = make_chip(num_blocks=64, mean=10_000, seed=2)
        schedule = FaultSchedule(actions=(
            FaultAction("fail-block", at_write=0, das=(4, 8)),
            FaultAction("endurance-burst", at_write=0, das=(12, 13, 14),
                        margin=3)))
        ScheduleDriver(schedule).attach_fast(self.engine_of(chip)).poll(0)
        for da in (4, 8, 12, 13, 14):
            with pytest.raises(WriteFault):
                for _ in range(10):
                    chip.write(da)
            self.assert_counted(chip)
        assert chip.failure_events == 5
        # Clamps then a batch: the batched path counts its crossings too.
        ScheduleDriver(FaultSchedule(actions=(
            FaultAction("endurance-burst", at_write=0, das=(20, 21),
                        margin=2),))).attach_fast(
                            self.engine_of(chip)).poll(0)
        newly = chip.write_many(np.array([20, 21, 22]), np.array([5, 5, 5]))
        assert newly.tolist() == [20, 21]
        self.assert_counted(chip)
        assert chip.failure_events == 7


class TestViewsAndStats:
    def test_view_reports_state(self, small_chip):
        small_chip.write(7)
        view = small_chip.view(7)
        assert view.da == 7
        assert view.state is BlockState.HEALTHY
        assert view.wear == 1
        assert view.remaining == view.threshold - 1

    def test_wear_cov_uniform_is_zero(self, small_chip):
        for da in range(small_chip.num_blocks):
            small_chip.write(da)
        assert small_chip.wear_cov() == pytest.approx(0.0)

    def test_wear_cov_skewed_positive(self, small_chip):
        for _ in range(50):
            small_chip.write(0)
        assert small_chip.wear_cov() > 1.0
