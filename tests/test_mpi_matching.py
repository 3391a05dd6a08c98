"""Unit tests for MPI envelope matching rules."""

from repro.mpi.datatypes import ANY_SOURCE, ANY_TAG, Envelope, MpiRequest
from repro.mpi.matching import MatchingEngine, UnexpectedMessage


def env(src=0, dst=1, tag=5, comm=0):
    return Envelope(src=src, dst=dst, tag=tag, comm_id=comm)


def recv(peer=0, tag=5, comm=0):
    return MpiRequest(kind="recv", rank=1, peer=peer, tag=tag, comm_id=comm,
                      addr=0, size=0)


class TestEnvelope:
    def test_exact_match(self):
        assert env().matches_recv(0, 5, 0)

    def test_any_source(self):
        assert env(src=3).matches_recv(ANY_SOURCE, 5, 0)

    def test_any_tag(self):
        assert env(tag=9).matches_recv(0, ANY_TAG, 0)

    def test_comm_must_match(self):
        assert not env(comm=1).matches_recv(ANY_SOURCE, ANY_TAG, 0)

    def test_wrong_src(self):
        assert not env(src=2).matches_recv(0, 5, 0)

    def test_wrong_tag(self):
        assert not env(tag=6).matches_recv(0, 5, 0)


class TestMatchingEngine:
    def test_posted_recv_matches_arrival(self):
        m = MatchingEngine()
        r = recv()
        assert m.post_recv(r) is None
        assert m.match_arrival(env()) is r
        assert m.idle()

    def test_fifo_among_equal_receives(self):
        m = MatchingEngine()
        r1, r2 = recv(), recv()
        m.post_recv(r1)
        m.post_recv(r2)
        assert m.match_arrival(env()) is r1
        assert m.match_arrival(env()) is r2

    def test_wildcard_recv_matches_any_source(self):
        m = MatchingEngine()
        r = recv(peer=ANY_SOURCE)
        m.post_recv(r)
        assert m.match_arrival(env(src=42)) is r

    def test_specific_recv_skipped_for_wrong_source(self):
        m = MatchingEngine()
        specific = recv(peer=7)
        wild = recv(peer=ANY_SOURCE)
        m.post_recv(specific)
        m.post_recv(wild)
        assert m.match_arrival(env(src=3)) is wild
        assert m.posted_count == 1

    def test_unexpected_consumed_by_later_recv(self):
        m = MatchingEngine()
        um = UnexpectedMessage(env(), "eager", b"payload", 7, 0.0)
        m.add_unexpected(um)
        got = m.post_recv(recv())
        assert got is um
        assert m.unexpected_count == 0

    def test_unexpected_fifo_order(self):
        m = MatchingEngine()
        u1 = UnexpectedMessage(env(), "eager", b"1", 1, 0.0)
        u2 = UnexpectedMessage(env(), "eager", b"2", 1, 1.0)
        m.add_unexpected(u1)
        m.add_unexpected(u2)
        assert m.post_recv(recv()) is u1
        assert m.post_recv(recv()) is u2

    def test_no_match_queues_recv(self):
        m = MatchingEngine()
        r = recv(tag=9)
        m.add_unexpected(UnexpectedMessage(env(tag=5), "eager", b"", 0, 0.0))
        assert m.post_recv(r) is None
        assert m.posted_count == 1 and m.unexpected_count == 1

