"""Unit tests for Start-Gap wear leveling."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.config import StartGapConfig
from repro.errors import ConfigurationError
from repro.wl import NullPort, StartGap
from repro.wl.randomizer import IdentityRandomizer


def make_sg(device: int = 65, psi: int = 10, identity: bool = False):
    randomizer = IdentityRandomizer(device - 1) if identity else None
    return StartGap(device, config=StartGapConfig(psi=psi),
                    randomizer=randomizer)


def stepwise_rows(sg: StartGap, moves: int) -> np.ndarray:
    """Reference for ``bulk_migrations``: the moves ``tick()`` would make.

    One ``_move_endpoints()``/``_commit_move()`` step per move, exactly
    the register walk the exact engine performs.
    """
    if sg.frozen:
        return np.empty((0, 2), dtype=np.int64)
    rows = []
    for _ in range(moves):
        rows.append(sg._move_endpoints())
        sg._commit_move()
    return np.asarray(rows, dtype=np.int64).reshape(-1, 2)


def registers(sg: StartGap) -> tuple:
    return sg.gap, sg.start, sg.gap_moves


class TestMapping:
    def test_initial_identity_with_identity_randomizer(self):
        sg = make_sg(identity=True)
        for pa in range(sg.logical_blocks):
            assert sg.map(pa) == pa

    def test_gap_starts_at_top(self):
        sg = make_sg()
        assert sg.gap == sg.logical_blocks
        assert sg.inverse(sg.gap) is None

    def test_bijection_initial(self):
        make_sg().check_bijection()

    def test_bijection_preserved_across_moves(self):
        sg = make_sg(psi=1)
        port = NullPort()
        for step in range(3 * (sg.logical_blocks + 1)):
            sg.tick(port)
            if step % 17 == 0:
                sg.check_bijection()
        sg.check_bijection()

    def test_map_many_matches_scalar(self):
        sg = make_sg()
        port = NullPort()
        for _ in range(137):
            sg.tick(port)
        pas = np.arange(sg.logical_blocks)
        assert (sg.map_many(pas)
                == np.array([sg.map(int(p)) for p in pas])).all()

    def test_logical_is_device_minus_one(self):
        assert make_sg(65).logical_blocks == 64


class TestGapMovement:
    def test_one_move_per_psi_writes(self):
        sg = make_sg(psi=10)
        port = NullPort()
        for _ in range(100):
            sg.tick(port)
        assert sg.gap_moves == 10

    def test_move_shifts_gap_down(self):
        sg = make_sg(psi=1, identity=True)
        top = sg.gap
        sg.tick(NullPort())
        assert sg.gap == top - 1

    def test_wrap_increments_start(self):
        sg = make_sg(device=9, psi=1, identity=True)
        port = NullPort()
        for _ in range(sg.logical_blocks + 1):
            sg.tick(port)
        assert sg.gap == sg.logical_blocks
        assert sg.start == 1

    def test_full_rotation_returns_identity(self):
        """After L*(L+1) moves the mapping returns to the identity."""
        sg = make_sg(device=9, psi=1, identity=True)
        port = NullPort()
        logical = sg.logical_blocks
        for _ in range(logical * (logical + 1)):
            sg.tick(port)
        assert sg.start == 0
        assert all(sg.map(pa) == pa for pa in range(logical))

    def test_each_move_changes_exactly_one_pa(self):
        sg = make_sg(psi=1)
        port = NullPort()
        before = {pa: sg.map(pa) for pa in range(sg.logical_blocks)}
        changed = sg.tick(port)
        after = {pa: sg.map(pa) for pa in range(sg.logical_blocks)}
        moved = [pa for pa in before if before[pa] != after[pa]]
        assert moved == changed
        assert len(moved) == 1

    def test_migration_reads_source_and_writes_moved_pa(self):
        sg = make_sg(psi=1)
        port = NullPort()
        changed = sg.tick(port)
        assert len(port.reads) == 1
        assert len(port.writes) == 1
        assert port.writes[0][0] == changed[0]


class TestLifecycle:
    def test_freeze_stops_moves_and_mapping(self):
        sg = make_sg(psi=1)
        port = NullPort()
        sg.tick(port)
        sg.freeze()
        gap, start = sg.gap, sg.start
        for _ in range(50):
            assert sg.tick(port) == []
        assert (sg.gap, sg.start) == (gap, start)

    def test_deferred_when_port_busy(self):
        class BusyPort(NullPort):
            def can_start_migration(self):
                return False

        sg = make_sg(psi=1)
        port = BusyPort()
        for _ in range(5):
            sg.tick(port)
        assert sg.gap_moves == 0
        assert sg._pending_moves == 5
        # Once the port frees up, the debt is repaid in one tick.
        sg.tick(NullPort())  # note: fresh port that allows migration
        assert sg.gap_moves >= 5

    def test_schedule_due(self):
        sg = make_sg(psi=10)
        assert sg.schedule_due(100) == 10
        sg.bulk_migrations(4)
        assert sg.schedule_due(100) == 6

    def test_bulk_matches_tick_state(self):
        a = make_sg(psi=1)
        b = make_sg(psi=1)
        rows = a.bulk_migrations(77)
        port = NullPort()
        for _ in range(77):
            b.tick(port)
        assert (a.gap, a.start, a.gap_moves) == (b.gap, b.start, b.gap_moves)
        assert rows.shape == (77, 2)

    def test_rejects_tiny_device(self):
        with pytest.raises(ConfigurationError):
            StartGap(1)

    def test_rejects_mismatched_randomizer(self):
        with pytest.raises(ConfigurationError):
            StartGap(65, randomizer=IdentityRandomizer(10))

    def test_describe(self):
        assert "StartGap" in make_sg().describe()


class TestStartGapBulkRows:
    """The closed-form ``bulk_migrations`` vs the per-move register walk."""

    @pytest.mark.parametrize("psi", [1, 4, 16])
    @pytest.mark.parametrize("moves", [1, 7, 64, 300])
    def test_matches_bulk_migrations(self, psi, moves):
        a = StartGap(96, config=StartGapConfig(psi=psi, seed=5))
        b = StartGap(96, config=StartGapConfig(psi=psi, seed=5))
        # Skew both registers off their initial state first.
        stepwise_rows(a, 13)
        b.bulk_migrations(13)
        rows_a = stepwise_rows(a, moves)
        rows_b = b.bulk_migrations(moves)
        np.testing.assert_array_equal(rows_a, rows_b)
        assert registers(a) == registers(b)

    def test_mapping_agrees_after_many_wraps(self):
        a = StartGap(17, config=StartGapConfig(psi=2, seed=9))
        b = StartGap(17, config=StartGapConfig(psi=2, seed=9))
        stepwise_rows(a, 123)
        b.bulk_migrations(123)
        pas = np.arange(a.logical_blocks, dtype=np.int64)
        np.testing.assert_array_equal(a.map_many(pas), b.map_many(pas))

    def test_frozen_and_empty_batches(self):
        wl = StartGap(32, config=StartGapConfig(psi=3, seed=1))
        assert wl.bulk_migrations(0).shape == (0, 2)
        wl.frozen = True
        assert wl.bulk_migrations(10).shape == (0, 2)
        assert wl.gap_moves == 0

    def test_no_per_move_commit_or_inverse(self, monkeypatch):
        sg = make_sg(psi=1)

        def forbidden(*args):
            raise AssertionError("bulk_migrations must not walk moves")

        monkeypatch.setattr(sg, "_commit_move", forbidden)
        monkeypatch.setattr(sg, "inverse", forbidden)
        assert sg.bulk_migrations(500).shape == (500, 2)

    @given(logical=st.integers(min_value=1, max_value=40),
           psi=st.integers(min_value=1, max_value=16),
           pre_moves=st.integers(min_value=0, max_value=150),
           moves=st.integers(min_value=0, max_value=300),
           frozen=st.booleans(),
           seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=60, deadline=None)
    @example(logical=5, psi=1, pre_moves=3, moves=0, frozen=False, seed=0)
    @example(logical=5, psi=2, pre_moves=3, moves=40, frozen=True, seed=0)
    @example(logical=7, psi=4, pre_moves=0, moves=5 * 8 + 3, frozen=False,
             seed=1)
    def test_closed_form_matches_stepwise(self, logical, psi, pre_moves,
                                          moves, frozen, seed):
        """Property: rows, registers and the whole PA map agree."""
        config = StartGapConfig(psi=psi, seed=seed)
        a = StartGap(logical + 1, config=config)
        b = StartGap(logical + 1, config=config)
        stepwise_rows(a, pre_moves)
        b.bulk_migrations(pre_moves)
        a.frozen = b.frozen = frozen
        np.testing.assert_array_equal(stepwise_rows(a, moves),
                                      b.bulk_migrations(moves))
        assert registers(a) == registers(b)
        pas = np.arange(logical, dtype=np.int64)
        np.testing.assert_array_equal(a.map_many(pas), b.map_many(pas))
