"""Tests for H3 Bloom signatures (paper Table 2)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import MemoryError_
from repro.mem import BloomSignature, H3HashFamily

from .bloom_oracle import (false_positive_rate, indices, maybe_contains,
                           popcount)


def make_sig(bits=2048, ways=8, seed=0):
    return BloomSignature(H3HashFamily(k=ways, m_bits=bits, seed=seed))


class TestH3Family:
    def test_indices_one_per_bank(self):
        fam = H3HashFamily(k=8, m_bits=2048, seed=1)
        idx = indices(fam, 12345)
        assert len(idx) == 8
        for bank, i in enumerate(idx):
            assert bank * 256 <= i < (bank + 1) * 256

    def test_deterministic(self):
        a = H3HashFamily(k=4, m_bits=1024, seed=7)
        b = H3HashFamily(k=4, m_bits=1024, seed=7)
        assert indices(a, 999) == indices(b, 999)

    def test_seed_changes_hashes(self):
        a = H3HashFamily(k=4, m_bits=1024, seed=7)
        b = H3HashFamily(k=4, m_bits=1024, seed=8)
        assert any(indices(a, k) != indices(b, k) for k in range(32))

    def test_rejects_non_power_of_two(self):
        with pytest.raises(MemoryError_):
            H3HashFamily(k=4, m_bits=1000)

    def test_h3_linearity(self):
        """H3 is XOR-linear: h(a ^ b) == h(a) ^ h(b) per bank offset."""
        fam = H3HashFamily(k=2, m_bits=512, seed=3)
        a, b = 0b1010, 0b0110
        ha = [i % 256 for i in indices(fam, a)]
        hb = [i % 256 for i in indices(fam, b)]
        hx = [i % 256 for i in indices(fam, a ^ b)]
        assert hx == [x ^ y for x, y in zip(ha, hb)]


class TestBloomSignature:
    def test_no_false_negatives_small(self):
        sig = make_sig()
        keys = list(range(0, 500, 7))
        for k in keys:
            sig.insert(k)
        assert all(maybe_contains(sig, k) for k in keys)

    @given(st.sets(st.integers(min_value=0, max_value=2**40), max_size=64),
           st.integers(min_value=0, max_value=2**40))
    @settings(max_examples=50, deadline=None)
    def test_no_false_negatives_property(self, keys, probe):
        sig = make_sig(bits=512, ways=4)
        for k in keys:
            sig.insert(k)
        for k in keys:
            assert maybe_contains(sig, k)

    def test_empty_matches_nothing(self):
        sig = make_sig()
        assert not maybe_contains(sig, 42)
        assert false_positive_rate(sig) == 0.0

    def test_fill_and_fp_rate_grow(self):
        sig = make_sig(bits=512, ways=4)
        prev = 0.0
        for k in range(100):
            sig.insert(k * 31 + 7)
            rate = false_positive_rate(sig)
            assert rate >= prev
            prev = rate
        assert 0.0 < prev <= 1.0

    def test_overflowed_signature_has_high_fp(self):
        """Flat tasks with huge footprints saturate 2 Kbit filters —
        the Fig. 14 failure mode."""
        sig = make_sig(bits=2048, ways=8)
        for k in range(0, 20000, 3):
            sig.insert(k)
        assert false_positive_rate(sig) > 0.5

    def test_small_sets_have_tiny_fp(self):
        """Fine-grain Fractal tasks (a few lines) barely touch the filter."""
        sig = make_sig(bits=2048, ways=8)
        for k in range(8):
            sig.insert(k)
        assert false_positive_rate(sig) < 1e-10

    def test_false_positive_exists_at_saturation(self):
        sig = make_sig(bits=64, ways=2)
        for k in range(200):
            sig.insert(k)
        # With 64 bits and 200 keys, an unseen key almost surely hits.
        assert maybe_contains(sig, 10**9)


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
        assert popcount(b) == popcount(a) == bin(a._bits).count("1")
        fam = a.family
        union = 0
        for k in keys:
            union |= fam.mask(k)
        assert a._bits == union

    def test_contains_many_matches_serial_probes(self):
        from repro.mem import SignatureBank
        sig = make_sig(bits=512, ways=4, seed=5)
        bank = SignatureBank(sig.family, capacity=1)
        row = bank.acquire()
        for k in range(0, 120, 3):
            sig.insert(k)
            bank.insert(row, k)
        for p in range(0, 200, 7):
            assert bool(bank.probe_rows(p, [row])[0]) == maybe_contains(sig, p)


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
            assert bool(bank.probe_rows(p, [row])[0]) == maybe_contains(sig, p)

    def test_probe_rows_matches_per_row_probe(self):
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
            got = bank.probe_rows(key, rows)
            assert [bool(x) for x in got] == [maybe_contains(sig, key)
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
        assert bank._rows[row2] == 0

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
        assert bank._rows[a] == bank._rows[b]
        assert bank._rows[a] == sig._bits


# Shapes whose per-bank field widths (log2(m/k) = 5, 7, 8, 9 bits) straddle
# the byte boundaries of the packed tables, at three seeds each.
ORACLE_SHAPES = [(k, m, seed) for k, m in ((2, 64), (4, 512), (8, 2048),
                                           (8, 4096))
                 for seed in (0, 1, 7)]


def oracle_keys(seed):
    """449 keys: small, random up to 60 bits (so above 2**48), single bits."""
    import random
    rng = random.Random(seed)
    keys = list(range(64))
    keys += [rng.getrandbits(bits) for bits in (16, 32, 48, 60)
             for _ in range(80)]
    keys += [1 << b for b in range(62)]
    keys += [(1 << 48) - 1, (1 << 48) + 5, (1 << 61) | 0xABCDEF]
    return keys


def h3_by_definition(fam, key):
    """H3 from its definition: per function, the XOR of the ``_matrices``
    rows selected by the set bits of the key's low 48 bits."""
    out = []
    for fn, matrix in enumerate(fam._matrices):
        h = 0
        for bit in range(48):
            if (key >> bit) & 1:
                h ^= matrix[bit]
        out.append(fn * fam.bank_bits + h)
    return tuple(out)


class TestHashOracle:
    @pytest.mark.parametrize("k,m,seed", ORACLE_SHAPES)
    def test_packed_tables_match_h3_definition(self, k, m, seed):
        fam = H3HashFamily(k=k, m_bits=m, seed=seed)
        keys = oracle_keys(seed)
        assert len(keys) * len(ORACLE_SHAPES) >= 5000
        assert any(key >= 1 << 48 for key in keys)
        for key in keys:
            want = h3_by_definition(fam, key)
            assert indices(fam, key) == want, hex(key)
            mask = 0
            for idx in want:
                mask |= 1 << idx
            assert fam.mask(key) == mask, hex(key)

    @pytest.mark.parametrize("k,m", [(2, 64), (4, 512), (8, 2048), (8, 4096)])
    def test_rate_table_is_fill_to_the_k(self, k, m):
        fam = H3HashFamily(k=k, m_bits=m, seed=0)
        assert len(fam.rates) == m + 1
        for pc in range(m + 1):
            assert fam.rates[pc] == (pc / m) ** k
        sig = BloomSignature(fam)
        for key in range(0, 400, 3):
            sig.insert(key)
            assert false_positive_rate(sig) == (popcount(sig) / m) ** k
