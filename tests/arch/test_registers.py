"""Tests for the tracked register file."""

import pytest

from repro.arch import RegisterFile


class TestRegisterFile:
    def test_initial_state_is_zero(self):
        rf = RegisterFile(6, 163)
        assert all(v == 0 for v in rf.snapshot())

    def test_write_and_read(self):
        rf = RegisterFile(6, 163)
        rf.write(2, 0xDEAD, cycle=10)
        assert rf.read(2) == 0xDEAD
        assert rf.read(0) == 0

    def test_write_logs_hamming_distance(self):
        rf = RegisterFile(4, 16)
        rf.write(0, 0b1111, cycle=1)
        rf.write(0, 0b1001, cycle=2)
        assert [w.hamming_distance for w in rf.writes] == [4, 2]

    def test_write_event_fields(self):
        rf = RegisterFile(4, 16)
        event = rf.write(3, 0xAB, cycle=7)
        assert event.cycle == 7
        assert event.register == 3
        assert event.old_value == 0
        assert event.new_value == 0xAB

    def test_out_of_range_index(self):
        rf = RegisterFile(4, 16)
        with pytest.raises(IndexError):
            rf.read(4)
        with pytest.raises(IndexError):
            rf.write(-1, 0, cycle=0)

    def test_oversized_value_rejected(self):
        rf = RegisterFile(4, 8)
        with pytest.raises(ValueError):
            rf.write(0, 256, cycle=0)

    def test_reset(self):
        rf = RegisterFile(4, 16)
        rf.write(0, 5, cycle=0)
        rf.reset()
        assert rf.read(0) == 0
        assert rf.writes == []

    def test_restore_loads_a_snapshot_and_clears_the_log(self):
        rf = RegisterFile(4, 16)
        rf.write(1, 0xBEEF, cycle=0)
        saved = rf.snapshot()
        rf.write(1, 7, cycle=1)
        rf.restore(saved)
        assert rf.snapshot() == [0, 0xBEEF, 0, 0]
        assert rf.writes == []
        saved[1] = 0   # the file keeps its own copy
        assert rf.read(1) == 0xBEEF

    @pytest.mark.parametrize("values", [[0] * 3, [0] * 5, [0, 1 << 16, 0, 0],
                                        [0, -1, 0, 0]])
    def test_restore_rejects_a_foreign_file(self, values):
        rf = RegisterFile(4, 16)
        with pytest.raises(ValueError):
            rf.restore(values)

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            RegisterFile(0, 16)
        with pytest.raises(ValueError):
            RegisterFile(4, 0)

    def test_repr(self):
        assert "6 x 163" in repr(RegisterFile(6, 163))
