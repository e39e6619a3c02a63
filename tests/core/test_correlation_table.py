"""Tests for the correlation tables (timekeeping + DBCP)."""

import random
from collections import OrderedDict

import pytest

from repro.common.errors import ConfigError
from repro.core.prefetch.correlation import CorrelationTable, DBCPTable


class TestGeometry:
    def test_paper_default_is_8kb(self):
        t = CorrelationTable()
        assert t.tag_sum_bits == 7
        assert t.index_bits == 1
        assert t.num_sets == 256
        assert t.size_bytes == 8 * 1024

    def test_dbcp_default_is_2mb(self):
        t = DBCPTable()
        assert t.size_bytes == 2 * 1024 * 1024

    def test_custom_geometry(self):
        t = CorrelationTable(tag_sum_bits=3, index_bits=2, associativity=2, entry_bytes=8)
        assert t.num_sets == 32
        assert t.num_entries == 64
        assert t.size_bytes == 512

    def test_invalid_geometry(self):
        with pytest.raises(ConfigError):
            CorrelationTable(tag_sum_bits=0, index_bits=0)
        with pytest.raises(ConfigError):
            CorrelationTable(associativity=0)
        with pytest.raises(ConfigError):
            DBCPTable(pointer_bits=0)


def teach(table, tag_a, tag_b, set_index, next_tag, lt):
    """Two consistent updates: store then confirm."""
    table.update(tag_a, tag_b, set_index, next_tag, lt)
    table.update(tag_a, tag_b, set_index, next_tag, lt)


class TestCorrelationTable:
    def test_miss_then_learn_then_hit(self):
        t = CorrelationTable()
        assert t.lookup(1, 2, 0) is None
        t.update(1, 2, 0, next_tag=3, live_time_ticks=4)
        assert t.lookup(1, 2, 0) is None  # unconfirmed after one sighting
        t.update(1, 2, 0, next_tag=3, live_time_ticks=4)
        assert t.lookup(1, 2, 0) == (3, 4)

    def test_changed_successor_resets_confirmation(self):
        t = CorrelationTable()
        teach(t, 1, 2, 0, 3, 4)
        t.update(1, 2, 0, 9, 2)  # replaced, unconfirmed
        assert t.lookup(1, 2, 0) is None
        t.update(1, 2, 0, 9, 2)
        assert t.lookup(1, 2, 0) == (9, 2)

    def test_live_time_takes_latest_observation(self):
        t = CorrelationTable()
        t.update(1, 2, 0, 3, 4)
        t.update(1, 2, 0, 3, 7)
        assert t.lookup(1, 2, 0) == (3, 7)

    def test_live_time_saturates_to_5_bits(self):
        t = CorrelationTable()
        teach(t, 1, 2, 0, 3, 1000)
        assert t.lookup(1, 2, 0) == (3, 31)

    def test_identification_tag_disambiguates(self):
        """Two histories with the same tag-sum pointer but different
        current tags occupy different entries in the same set."""
        t = CorrelationTable()
        teach(t, 1, 4, 0, 10, 1)   # sum 5, id tag 4
        teach(t, 2, 3, 0, 20, 2)   # sum 5, id tag 3
        assert t.lookup(1, 4, 0) == (10, 1)
        assert t.lookup(2, 3, 0) == (20, 2)

    def test_constructive_aliasing(self):
        """Histories from different cache sets sharing the same tags map
        to the same entry when the partial index bits agree — the
        paper's constructive aliasing (n=1 keeps only one index bit)."""
        t = CorrelationTable(tag_sum_bits=7, index_bits=1)
        teach(t, 1, 2, 0, 3, 1)
        # set 2 has the same low index bit (0) -> shares the entry.
        assert t.lookup(1, 2, 2) == (3, 1)
        # set 1 differs in the kept bit -> different entry.
        assert t.lookup(1, 2, 1) is None

    def test_lru_within_set(self):
        t = CorrelationTable(tag_sum_bits=1, index_bits=0, associativity=2)
        # all updates with tag sum 0 -> same set; id tags differ
        teach(t, 0, 0, 0, 1, 1)
        teach(t, 2, 2, 0, 2, 1)
        teach(t, 0, 4, 0, 3, 1)      # sum 4 &1 = 0, id 4 -> evicts LRU (id 0)
        assert t.lookup(0, 0, 0) is None

    def test_hit_rate(self):
        t = CorrelationTable()
        t.lookup(1, 2, 0)
        teach(t, 1, 2, 0, 3, 1)
        t.lookup(1, 2, 0)
        assert t.hit_rate() == pytest.approx(0.5)

    def test_reset_stats_keeps_entries(self):
        t = CorrelationTable()
        teach(t, 1, 2, 0, 3, 1)
        t.lookup(1, 2, 0)
        t.reset_stats()
        assert t.lookups == 0
        assert t.lookup(1, 2, 0) == (3, 1)


class TestDBCPTable:
    def test_learn_and_predict_needs_confirmation(self):
        t = DBCPTable()
        sig = DBCPTable.signature(0x400, 100, 200)
        assert t.lookup(sig) is None
        t.update(sig, 300)
        assert t.lookup(sig) is None  # seen once: unconfirmed
        t.update(sig, 300)
        assert t.lookup(sig) == 300   # confirmed

    def test_changed_successor_resets_confirmation(self):
        t = DBCPTable()
        sig = DBCPTable.signature(1, 2, 3)
        t.update(sig, 300)
        t.update(sig, 300)
        t.update(sig, 999)  # replaced, unconfirmed
        assert t.lookup(sig) is None
        t.update(sig, 999)
        assert t.lookup(sig) == 999

    def test_signature_sensitivity(self):
        base = DBCPTable.signature(0x400, 100, 200)
        assert base != DBCPTable.signature(0x404, 100, 200)  # PC matters
        assert base != DBCPTable.signature(0x400, 101, 200)  # history matters
        assert base != DBCPTable.signature(0x400, 100, 201)

    def test_signature_deterministic(self):
        assert DBCPTable.signature(1, 2, 3) == DBCPTable.signature(1, 2, 3)

    def test_lru_eviction(self):
        t = DBCPTable(pointer_bits=1, associativity=1)
        # Two signatures in the same set
        s1 = 0b10  # set 0
        s2 = 0b100  # set 0
        t.update(s1, 11)
        t.update(s1, 11)
        t.update(s2, 22)
        t.update(s2, 22)
        assert t.lookup(s1) is None  # evicted by s2
        assert t.lookup(s2) == 22

    def test_hit_rate_and_reset(self):
        t = DBCPTable()
        sig = DBCPTable.signature(1, 2, 3)
        t.lookup(sig)
        t.update(sig, 9)
        t.update(sig, 9)
        t.lookup(sig)
        assert t.hit_rate() == pytest.approx(0.5)
        t.reset_stats()
        assert t.lookups == 0
        assert t.lookup(sig) == 9


class TestDBCPLazySets:
    def test_lookup_before_any_update(self):
        t = DBCPTable()
        assert t.lookup(DBCPTable.signature(1, 2, 3)) is None
        assert t.lookups == 1
        assert t.lookup_hits == 0

    @pytest.mark.parametrize("seed", range(4))
    def test_lazy_matches_eager(self, seed):
        """A random update/lookup stream gets identical answers, stats
        and final contents from the lazy and the eager table."""
        rng = random.Random(seed)
        lazy = DBCPTable(pointer_bits=6, associativity=2)
        eager = DBCPTable(pointer_bits=6, associativity=2)
        eager._sets = [OrderedDict() for _ in range(eager.num_sets)]
        # Few distinct signatures and successors, so entries confirm,
        # get replaced and get evicted.
        signatures = [rng.getrandbits(20) for _ in range(300)]
        for _ in range(5000):
            sig = rng.choice(signatures)
            if rng.random() < 0.5:
                assert lazy.lookup(sig) == eager.lookup(sig)
            else:
                nxt = rng.randrange(4)
                lazy.update(sig, nxt)
                eager.update(sig, nxt)
        assert (lazy.lookups, lazy.lookup_hits, lazy.updates) == (
            eager.lookups, eager.lookup_hits, eager.updates
        )
        # Same entries in the same LRU order.
        assert [list(s.items()) for s in lazy._sets] == [
            list(s.items()) for s in eager._sets
        ]
