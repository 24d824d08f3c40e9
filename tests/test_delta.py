"""Tests for the delta engine: codec roundtrip, ratio model, DEZ packing."""

import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.delta import (
    DELTA_HEADER_BYTES,
    DeltaCodec,
    GaussianDeltaModel,
    LOCALITY_LEVELS,
    PackedDelta,
    mutate_page,
    pack_deltas,
)
from repro.errors import ConfigError


class TestCodec:
    def test_roundtrip(self):
        rng = np.random.default_rng(0)
        old = rng.integers(0, 256, 4096, dtype=np.uint8).tobytes()
        new = mutate_page(old, 0.10, rng)
        codec = DeltaCodec()
        delta = codec.encode(old, new)
        assert codec.decode(old, delta) == new

    @settings(max_examples=30)
    @given(st.binary(min_size=64, max_size=256), st.binary(min_size=64, max_size=256))
    def test_roundtrip_property(self, a, b):
        if len(a) != len(b):
            b = (b * (len(a) // len(b) + 1))[: len(a)]
        codec = DeltaCodec()
        assert codec.decode(a, codec.encode(a, b)) == b

    def test_small_changes_compress_well(self):
        """Content locality: a 5% change yields a small delta (Sec. II-C)."""
        rng = np.random.default_rng(1)
        old = rng.integers(0, 256, 4096, dtype=np.uint8).tobytes()
        small = mutate_page(old, 0.05, rng)
        large = mutate_page(old, 0.80, rng)
        codec = DeltaCodec()
        assert codec.ratio(old, small) < 0.10
        assert codec.ratio(old, small) < codec.ratio(old, large)

    def test_identical_pages_tiny_delta(self):
        old = b"\xab" * 4096
        codec = DeltaCodec()
        assert codec.ratio(old, old) < 0.02

    def test_length_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            DeltaCodec().encode(b"ab", b"abc")

    def test_bad_level_rejected(self):
        with pytest.raises(ConfigError):
            DeltaCodec(level=0)

    def test_mutate_page_fraction_bounds(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ConfigError):
            mutate_page(b"x" * 64, 1.5, rng)
        assert mutate_page(b"x" * 64, 0.0, rng) == b"x" * 64


class TestModel:
    def test_mean_is_respected(self):
        m = GaussianDeltaModel(mean=0.25, seed=1)
        ratios = [m.sample_ratio() for _ in range(5000)]
        assert abs(np.mean(ratios) - 0.25) < 0.01

    def test_clipping(self):
        m = GaussianDeltaModel(mean=0.12, sigma=0.5, seed=2, min_ratio=0.05)
        ratios = [m.sample_ratio() for _ in range(2000)]
        assert min(ratios) >= 0.05
        assert max(ratios) <= 1.0

    def test_sample_size_in_bytes(self):
        m = GaussianDeltaModel(mean=0.5, sigma=0.0, page_size=4096, seed=0)
        assert m.sample_size() == 2048

    @pytest.mark.parametrize("level,mean", sorted(LOCALITY_LEVELS.items()))
    def test_for_locality(self, level, mean):
        assert GaussianDeltaModel.for_locality(level).mean == mean

    def test_unknown_locality(self):
        with pytest.raises(ConfigError):
            GaussianDeltaModel.for_locality("extreme")

    def test_invalid_mean(self):
        with pytest.raises(ConfigError):
            GaussianDeltaModel(mean=0.0)

    def test_deterministic_with_seed(self):
        a = GaussianDeltaModel(mean=0.25, seed=9)
        b = GaussianDeltaModel(mean=0.25, seed=9)
        assert [a.sample_size() for _ in range(10)] == [
            b.sample_size() for _ in range(10)
        ]


class TestPacker:
    def test_pack_within_page(self):
        page = pack_deltas([(1, 1000, None), (2, 1000, None), (3, 1000, None)], 4096)
        assert page.valid_count == 3
        offsets = [d.offset for d in page.deltas]
        assert offsets == sorted(offsets)
        # headers accounted: first delta starts after its header
        assert page.deltas[0].offset == DELTA_HEADER_BYTES

    def test_pack_overflow_rejected(self):
        with pytest.raises(ConfigError):
            pack_deltas([(1, 3000, None), (2, 3000, None)], 4096)

    def test_single_incompressible_delta_truncates_to_page(self):
        page = pack_deltas([(1, 4096, None)], 4096)
        assert page.deltas[0].length == 4096 - DELTA_HEADER_BYTES

    def test_invalidate_counts_down(self):
        page = pack_deltas([(1, 100, None), (2, 100, None)], 4096)
        assert page.invalidate(1) == 1
        assert page.invalidate(1) == 1  # idempotent
        assert page.invalidate(2) == 0

    def test_find_valid_only(self):
        page = pack_deltas([(7, 100, None)], 4096)
        assert page.find(7).lba == 7
        page.invalidate(7)
        with pytest.raises(KeyError):
            page.find(7)

    def test_packed_delta_fields(self):
        """Field names, order and default, value equality, immutability."""
        empty = inspect.Parameter.empty
        params = inspect.signature(PackedDelta).parameters.values()
        assert [(p.name, p.default) for p in params] == [
            ("lba", empty), ("offset", empty), ("length", empty),
            ("payload", None),
        ]
        d = PackedDelta(7, DELTA_HEADER_BYTES, 100)
        assert d == PackedDelta(lba=7, offset=DELTA_HEADER_BYTES, length=100,
                                payload=None)
        assert d == pack_deltas([(7, 100, None)], 4096).deltas[0]
        assert d != PackedDelta(7, DELTA_HEADER_BYTES, 101)
        with pytest.raises(AttributeError):
            d.length = 5
