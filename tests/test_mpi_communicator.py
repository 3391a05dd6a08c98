"""Unit tests for communicators."""

import pytest

from repro.mpi import Communicator, MpiError


class TestBasics:
    def test_world(self):
        c = Communicator.world(8)
        assert c.size == 8
        assert c.world_rank(3) == 3
        assert c.rank_of(5) == 5

    def test_subset_translation(self):
        c = Communicator([4, 2, 7])
        assert c.size == 3
        assert c.world_rank(0) == 4
        assert c.rank_of(7) == 2

    def test_duplicate_ranks_rejected(self):
        with pytest.raises(MpiError):
            Communicator([1, 1, 2])

    def test_empty_rejected(self):
        with pytest.raises(MpiError):
            Communicator([])

    def test_unknown_world_rank(self):
        with pytest.raises(MpiError):
            Communicator([0, 1]).rank_of(9)

    def test_local_rank_out_of_range(self):
        with pytest.raises(MpiError):
            Communicator([0, 1]).world_rank(2)

    def test_distinct_comm_ids(self):
        assert Communicator([0]).comm_id != Communicator([0]).comm_id


class TestSplit:
    def test_split_by_color(self):
        c = Communicator.world(6)
        parts = c.split([0, 1, 0, 1, 0, 1])
        assert sorted(parts) == [0, 1]
        assert parts[0].world_ranks == [0, 2, 4]
        assert parts[1].world_ranks == [1, 3, 5]

    def test_split_respects_keys(self):
        c = Communicator.world(4)
        parts = c.split([0, 0, 0, 0], keys=[3, 2, 1, 0])
        assert parts[0].world_ranks == [3, 2, 1, 0]

    def test_split_is_memoised_across_ranks(self):
        """Every rank calling split with identical args must receive the
        *same* communicator objects (consistent comm ids)."""
        c = Communicator.world(4)
        a = c.split([0, 1, 0, 1])
        b = c.split([0, 1, 0, 1])
        assert a[0] is b[0] and a[1] is b[1]

    def test_different_colors_get_fresh_comms(self):
        c = Communicator.world(4)
        a = c.split([0, 1, 0, 1])
        b = c.split([0, 0, 1, 1])
        assert a[0] is not b[0]

    def test_wrong_color_count_rejected(self):
        with pytest.raises(MpiError):
            Communicator.world(3).split([0, 1])
