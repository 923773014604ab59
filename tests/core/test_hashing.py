"""Hash function unit tests."""

import pytest

from repro.core.hashing import MASK64, fmix64, hash_key, hash_tuple, murmur3_bytes


class TestFmix64:
    def test_zero_maps_to_zero(self):
        assert fmix64(0) == 0

    def test_stays_in_64_bits(self):
        for value in (1, 2**63, 2**64 - 1, 123456789):
            assert 0 <= fmix64(value) <= MASK64

    def test_deterministic(self):
        assert fmix64(42) == fmix64(42)

    def test_is_bijective_on_sample(self):
        # a finalizer must not collide; spot-check a dense range
        outputs = {fmix64(v) for v in range(10000)}
        assert len(outputs) == 10000

    def test_avalanche(self):
        # flipping one input bit should flip roughly half the output bits
        base = fmix64(0xDEADBEEF)
        flipped = fmix64(0xDEADBEEF ^ 1)
        differing = (base ^ flipped).bit_count()
        assert 16 <= differing <= 48


class TestMurmurBytes:
    def test_known_reference_properties(self):
        # deterministic, seed-sensitive, length-sensitive
        assert murmur3_bytes(b"hello") == murmur3_bytes(b"hello")
        assert murmur3_bytes(b"hello") != murmur3_bytes(b"hello", seed=1)
        assert murmur3_bytes(b"hello") != murmur3_bytes(b"hello!")

    def test_empty_input(self):
        assert isinstance(murmur3_bytes(b""), int)

    def test_block_boundaries(self):
        # exercise tail lengths 0..16 around the 16-byte block size
        values = {murmur3_bytes(b"x" * n) for n in range(33)}
        assert len(values) == 33

    def test_range(self):
        for n in (0, 1, 15, 16, 17, 31, 32, 100):
            assert 0 <= murmur3_bytes(b"a" * n) <= MASK64


class TestHashKey:
    def test_int_and_str_supported(self):
        assert isinstance(hash_key(7), int)
        assert isinstance(hash_key("seven"), int)
        assert isinstance(hash_key(b"seven"), int)

    def test_bool_normalized_to_int(self):
        assert hash_key(True) == hash_key(1)
        assert hash_key(False) == hash_key(0)

    def test_seed_changes_hash(self):
        assert hash_key(99, seed=0) != hash_key(99, seed=1)
        assert hash_key("abc", seed=0) != hash_key("abc", seed=2)

    def test_unhashable_type_raises(self):
        with pytest.raises(TypeError):
            hash_key(None)
        with pytest.raises(TypeError):
            hash_key((1, 2))

    def test_float_hashes_like_an_equal_int(self):
        # lossless columns keep floats; equal join values must hash equal
        assert hash_key(2.0) == hash_key(2)
        assert hash_key(-7.0, seed=3) == hash_key(-7, seed=3)
        assert hash_key(2.5) != hash_key(2)
        assert hash_key(2.5) == hash_key(2.5)

    def test_distribution_over_buckets(self):
        # hashed keys modulo a bucket count should spread evenly
        buckets = [0] * 16
        for value in range(4096):
            buckets[hash_key(value) % 16] += 1
        assert max(buckets) < 2 * min(buckets)


class TestHashTuple:
    def test_order_sensitive(self):
        assert hash_tuple((1, 2)) != hash_tuple((2, 1))

    def test_length_sensitive(self):
        assert hash_tuple((1,)) != hash_tuple((1, 0))

    def test_mixed_types(self):
        assert isinstance(hash_tuple((1, "a", b"b")), int)

    def test_empty_tuple(self):
        assert hash_tuple(()) == (0 if hash_tuple(()) == 0 else hash_tuple(()))
        assert hash_tuple(()) == hash_tuple(())
