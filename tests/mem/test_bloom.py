"""Tests for H3 Bloom signatures (paper Table 2)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import MemoryError_
from repro.mem import BloomSignature, H3HashFamily


def make_sig(bits=2048, ways=8, seed=0):
    return BloomSignature(H3HashFamily(k=ways, m_bits=bits, seed=seed))


class TestH3Family:
    def test_indices_one_per_bank(self):
        fam = H3HashFamily(k=8, m_bits=2048, seed=1)
        idx = fam.indices(12345)
        assert len(idx) == 8
        for bank, i in enumerate(idx):
            assert bank * 256 <= i < (bank + 1) * 256

    def test_deterministic(self):
        a = H3HashFamily(k=4, m_bits=1024, seed=7)
        b = H3HashFamily(k=4, m_bits=1024, seed=7)
        assert a.indices(999) == b.indices(999)

    def test_seed_changes_hashes(self):
        a = H3HashFamily(k=4, m_bits=1024, seed=7)
        b = H3HashFamily(k=4, m_bits=1024, seed=8)
        assert any(a.indices(k) != b.indices(k) for k in range(32))

    def test_rejects_non_power_of_two(self):
        with pytest.raises(MemoryError_):
            H3HashFamily(k=4, m_bits=1000)

    def test_h3_linearity(self):
        """H3 is XOR-linear: h(a ^ b) == h(a) ^ h(b) per bank offset."""
        fam = H3HashFamily(k=2, m_bits=512, seed=3)
        a, b = 0b1010, 0b0110
        ha = [i % 256 for i in fam.indices(a)]
        hb = [i % 256 for i in fam.indices(b)]
        hx = [i % 256 for i in fam.indices(a ^ b)]
        assert hx == [x ^ y for x, y in zip(ha, hb)]


class TestBloomSignature:
    def test_no_false_negatives_small(self):
        sig = make_sig()
        keys = list(range(0, 500, 7))
        for k in keys:
            sig.insert(k)
        assert all(sig.maybe_contains(k) for k in keys)

    @given(st.sets(st.integers(min_value=0, max_value=2**40), max_size=64),
           st.integers(min_value=0, max_value=2**40))
    @settings(max_examples=50, deadline=None)
    def test_no_false_negatives_property(self, keys, probe):
        sig = make_sig(bits=512, ways=4)
        for k in keys:
            sig.insert(k)
        for k in keys:
            assert sig.maybe_contains(k)

    def test_empty_matches_nothing(self):
        sig = make_sig()
        assert not sig.maybe_contains(42)
        assert sig.false_positive_rate() == 0.0

    def test_fill_and_fp_rate_grow(self):
        sig = make_sig(bits=512, ways=4)
        prev = 0.0
        for k in range(100):
            sig.insert(k * 31 + 7)
            rate = sig.false_positive_rate()
            assert rate >= prev
            prev = rate
        assert 0.0 < prev <= 1.0

    def test_overflowed_signature_has_high_fp(self):
        """Flat tasks with huge footprints saturate 2 Kbit filters —
        the Fig. 14 failure mode."""
        sig = make_sig(bits=2048, ways=8)
        for k in range(0, 20000, 3):
            sig.insert(k)
        assert sig.false_positive_rate() > 0.5

    def test_small_sets_have_tiny_fp(self):
        """Fine-grain Fractal tasks (a few lines) barely touch the filter."""
        sig = make_sig(bits=2048, ways=8)
        for k in range(8):
            sig.insert(k)
        assert sig.false_positive_rate() < 1e-10

    def test_false_positive_exists_at_saturation(self):
        sig = make_sig(bits=64, ways=2)
        for k in range(200):
            sig.insert(k)
        # With 64 bits and 200 keys, an unseen key almost surely hits.
        assert sig.maybe_contains(10**9)


class TestBatchedOps:
    """Signatures and bank rows built by the same inserts agree bit for
    bit, whatever the insert order."""

    def test_insert_many_matches_serial_inserts(self):
        a = make_sig(bits=512, ways=4, seed=5)
        b = make_sig(bits=512, ways=4, seed=5)
        keys = [k * 13 + 1 for k in range(60)]
        for k in keys:
            a.insert(k)
        for k in reversed(keys):
            b.insert(k)
        assert b._bits == a._bits
        assert b.popcount == a.popcount == bin(a._bits).count("1")
        assert b.inserted == a.inserted == len(keys)

    def test_contains_many_matches_serial_probes(self):
        from repro.mem import SignatureBank
        sig = make_sig(bits=512, ways=4, seed=5)
        bank = SignatureBank(sig.family, capacity=1)
        row = bank.acquire()
        for k in range(0, 120, 3):
            sig.insert(k)
            bank.insert(row, k)
        for p in range(0, 200, 7):
            assert bool(bank.probe_rows(p, [row])[0]) == sig.maybe_contains(p)


class TestSignatureBank:
    def test_bank_matches_signature(self):
        from repro.mem import SignatureBank
        fam = H3HashFamily(k=8, m_bits=2048, seed=9)
        bank = SignatureBank(fam, capacity=4)
        sig = BloomSignature(fam)
        row = bank.acquire()
        for k in range(0, 90, 3):
            assert bank.insert(row, k) == sig.insert(k)
        for p in range(0, 150, 5):
            assert bool(bank.probe_rows(p, [row])[0]) == sig.maybe_contains(p)

    def test_probe_rows_matches_per_row_probe(self):
        import numpy as np
        from repro.mem import SignatureBank
        fam = H3HashFamily(k=4, m_bits=512, seed=2)
        bank = SignatureBank(fam, capacity=2)
        rows = [bank.acquire() for _ in range(6)]  # forces a growth step
        sigs = [BloomSignature(fam) for _ in rows]
        for i, (row, sig) in enumerate(zip(rows, sigs)):
            for k in range(i * 10, i * 10 + 8):
                bank.insert(row, k)
                sig.insert(k)
        for key in range(0, 70, 3):
            got = bank.probe_rows(key, np.array(rows))
            assert [bool(x) for x in got] == [sig.maybe_contains(key)
                                              for sig in sigs]

    def test_release_clears_row_for_reuse(self):
        from repro.mem import SignatureBank
        fam = H3HashFamily(k=4, m_bits=512, seed=2)
        bank = SignatureBank(fam, capacity=1)
        row = bank.acquire()
        bank.insert(row, 33)
        assert bank.probe_rows(33, [row])[0]
        bank.release(row)
        row2 = bank.acquire()
        assert row2 == row
        assert not bank.probe_rows(33, [row2])[0]
        assert not bank._words[row2].any()

    def test_insert_many_matches_scalar_inserts(self):
        from repro.mem import SignatureBank
        fam = H3HashFamily(k=8, m_bits=2048, seed=4)
        bank = SignatureBank(fam, capacity=2)
        a, b = bank.acquire(), bank.acquire()
        sig = BloomSignature(fam)
        keys = [k * 7 + 2 for k in range(40)]
        for k in keys:
            bank.insert(a, k)
            sig.insert(k)
        for k in reversed(keys):
            bank.insert(b, k)
        assert (bank._words[a] == bank._words[b]).all()
        assert int.from_bytes(bank._words[a].tobytes(), "little") == sig._bits
