"""Unit + property tests for all six paper encodings.

The core invariant (DESIGN.md section 5): decode(encode(x)) == x for
every encoding on every input it claims to support.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import types
from repro.storage import encodings as enc
from repro.storage.block import encode_block

int_lists = st.lists(st.integers(min_value=-(2**62), max_value=2**62))
float_lists = st.lists(st.floats(allow_nan=False, allow_infinity=False))
text_lists = st.lists(st.text(max_size=20))
low_card_lists = st.lists(st.sampled_from(["a", "b", "c", None]) | st.just("a"))


def roundtrip(encoding, values):
    return encoding.decode(encoding.encode(values), len(values))


def exactly(values):
    """``values`` as compared exactly: ``-0.0 == 0.0`` and ``1 == True
    == 1.0``, so ``==`` cannot tell a round trip that swapped them."""
    return list(map(repr, values))


class TestPlain:
    @given(st.lists(st.one_of(st.integers(), st.floats(allow_nan=False), st.text())))
    def test_roundtrip(self, values):
        assert exactly(roundtrip(enc.PLAIN, values)) == exactly(values)

    @given(text_lists)
    def test_compressed_plain_roundtrip(self, values):
        assert exactly(roundtrip(enc.COMPRESSED_PLAIN, values)) == exactly(values)

    def test_compressed_smaller_on_repetitive(self):
        values = ["warehouse"] * 5000
        assert len(enc.COMPRESSED_PLAIN.encode(values)) < len(
            enc.PLAIN.encode(values)
        )


class TestRle:
    @given(st.lists(st.sampled_from(["x", "y", "z"])))
    def test_roundtrip_low_cardinality(self, values):
        assert exactly(roundtrip(enc.RLE, values)) == exactly(values)

    @given(int_lists)
    def test_roundtrip_any_ints(self, values):
        assert exactly(roundtrip(enc.RLE, values)) == exactly(values)

    def test_sorted_low_cardinality_is_tiny(self):
        values = sorted(["a", "b", "c"] * 10000)
        assert len(enc.RLE.encode(values)) < 30

    @given(st.lists(st.sampled_from([0.0, -0.0, 1.5, -1.5])))
    def test_roundtrip_signed_zeros(self, values):
        assert exactly(roundtrip(enc.RLE, values)) == exactly(values)

    def test_negative_zero_ends_a_run_of_zeros(self):
        # ``-0.0 == 0.0``: a run found with ``==`` swallowed it (and a
        # stored -0.0 came back 0.0) until runs were keyed exactly
        values = [0.0, 0.0, -0.0, -0.0, 0.0]
        data = enc.RLE.encode(values)
        assert exactly(enc.RLE.decode(data, 5)) == exactly(values)
        runs = list(enc.RLE.iter_runs(data, 5))
        assert [(repr(v), n) for v, n in runs] == [("0.0", 2), ("-0.0", 2), ("0.0", 1)]
        # ... and so are 1, True and 1.0, where a block mixes types
        mixed = [1, True, 1.0, 1]
        assert exactly(roundtrip(enc.RLE, mixed)) == exactly(mixed)

    def test_iter_runs(self):
        values = ["a", "a", "b", "c", "c", "c"]
        data = enc.RLE.encode(values)
        assert list(enc.RLE.iter_runs(data, len(values))) == [
            ("a", 2),
            ("b", 1),
            ("c", 3),
        ]

    def test_run_count(self):
        def run_count(values):
            return len(enc.RLE.runs(values, enc.BlockFacts(values)))

        assert run_count([]) == 0
        assert run_count([1, 1, 2, 1]) == 3


class TestDeltaValue:
    @given(int_lists)
    def test_roundtrip(self, values):
        assert exactly(roundtrip(enc.DELTAVAL, values)) == exactly(values)

    def test_narrow_range_compact(self):
        # 10k values within a span of 100: one byte per value + header.
        values = [1_000_000_000 + (i % 100) for i in range(10000)]
        assert len(enc.DELTAVAL.encode(values)) < 10100

    def test_supports_integers_only(self):
        assert enc.DELTAVAL.supports(types.INTEGER, [1, 2])
        assert not enc.DELTAVAL.supports(types.FLOAT, [1.5])


class TestBlockDictionary:
    @given(st.lists(st.sampled_from([10.25, 10.5, 10.75, 11.0])))
    def test_roundtrip_stock_prices(self, values):
        assert exactly(roundtrip(enc.BLOCK_DICT, values)) == exactly(values)

    @given(text_lists)
    def test_roundtrip_text(self, values):
        assert exactly(roundtrip(enc.BLOCK_DICT, values)) == exactly(values)

    @given(st.lists(st.sampled_from([0.0, -0.0, 1.5, -1.5])))
    def test_roundtrip_signed_zeros(self, values):
        assert exactly(roundtrip(enc.BLOCK_DICT, values)) == exactly(values)

    def test_both_zeros_get_a_dictionary_entry_each(self):
        # a dictionary keyed by value held one entry for the two zeros
        values = [0.0, -0.0, 0.0, 2.5, -0.0]
        data = enc.BLOCK_DICT.encode(values)
        entries, codes = enc.BLOCK_DICT.decode_parts(data, 5)
        assert exactly(entries) == ["0.0", "-0.0", "2.5"]
        assert codes == [0, 1, 0, 2, 1]
        mixed = [1, True, 1.0, 1]
        assert exactly(roundtrip(enc.BLOCK_DICT, mixed)) == exactly(mixed)

    def test_few_valued_compact(self):
        values = (["AAPL", "GOOG", "HP", "VERT"] * 2500)[:8192]
        # 8192 strings -> dictionary of 4 + 2 bits per row ~= 2 KB.
        assert len(enc.BLOCK_DICT.encode(values)) < 2200

    def test_supports_rejects_high_cardinality(self):
        many = [str(i) for i in range(5000)]
        assert not enc.BLOCK_DICT.supports(types.VARCHAR, many)
        assert enc.BLOCK_DICT.supports(types.VARCHAR, ["a"] * 10)


class TestCompressedDeltaRange:
    @given(int_lists)
    def test_roundtrip_ints(self, values):
        assert exactly(roundtrip(enc.DELTARANGE_COMP, values)) == exactly(values)

    @given(float_lists)
    def test_roundtrip_floats_exact(self, values):
        decoded = roundtrip(enc.DELTARANGE_COMP, values)
        assert exactly(decoded) == exactly(values)
        assert all(type(d) is type(v) for d, v in zip(decoded, values))

    def test_sorted_floats_compact(self):
        values = [float(i) * 0.5 for i in range(8192)]
        assert len(enc.DELTARANGE_COMP.encode(values)) < 8192 * 2

    def test_ordered_int_mapping_is_monotone(self):
        from repro.storage.encodings.delta_range import floats_to_ordered_ints

        floats = [-1e300, -2.5, -0.0, 0.0, 1e-300, 3.25, 1e300]
        mapped = floats_to_ordered_ints(floats)
        assert mapped == sorted(mapped)


class TestCompressedCommonDelta:
    @given(int_lists)
    def test_roundtrip(self, values):
        assert exactly(roundtrip(enc.COMMONDELTA_COMP, values)) == exactly(values)

    def test_periodic_timestamps_tiny(self):
        # Readings every 300 s with a couple of breaks (section 8.2.2).
        values = []
        current = 0
        for i in range(8192):
            current += 300 if i % 1000 else 86400
            values.append(current)
        assert len(enc.COMMONDELTA_COMP.encode(values)) < 200

    def test_supports_needs_common_deltas(self):
        import random

        rng = random.Random(7)
        scattered = sorted(rng.sample(range(10**15), 8192))
        # all-distinct deltas within sample limit is still "supported";
        # the AUTO chooser simply won't pick it when it loses on size.
        assert enc.COMMONDELTA_COMP.supports(types.INTEGER, scattered)
        assert not enc.COMMONDELTA_COMP.supports(types.FLOAT, [1.5, 2.5])


class TestAuto:
    def test_picks_rle_for_sorted_low_cardinality(self):
        values = sorted([1, 2, 3] * 1000)
        chosen = enc.choose_encoding(types.INTEGER, values)
        assert chosen.name == "RLE"

    def test_picks_common_delta_for_periodic(self):
        values = list(range(0, 8192 * 300, 300))
        chosen = enc.choose_encoding(types.INTEGER, values)
        assert chosen.name in ("COMMONDELTA_COMP", "DELTARANGE_COMP")

    def test_picks_dictionary_for_few_valued_unsorted(self):
        values = (["alpha_metric", "beta_metric", "gamma_metric"] * 1400)[:4096]
        import random

        random.Random(3).shuffle(values)
        chosen = enc.choose_encoding(types.VARCHAR, values)
        assert chosen.name in ("BLOCK_DICT", "COMPRESSED_PLAIN")

    def test_empty_block_gets_plain(self):
        assert enc.choose_encoding(types.INTEGER, []).name == "PLAIN"

    def test_chooser_judges_the_sample_the_block_writer_does(self):
        # NULLs first, then the sample: judged on the first SAMPLE_SIZE
        # values, NULLs dropped after, the Designer saw 96 'a's (RLE)
        # where the block writer sees 4000 distinct strings too
        values = [None] * 4000 + ["a"] * 96 + [f"distinct_{i}" for i in range(4000)]
        _, info = encode_block(values, types.VARCHAR, None, 0, 0)
        chosen = enc.choose_encoding(types.VARCHAR, values)
        assert chosen.name == info.encoding == "COMPRESSED_PLAIN"

    def test_chooser_builds_no_winner(self, monkeypatch):
        def built(*args):
            raise AssertionError("the chooser built a payload")

        monkeypatch.setattr(enc.RleEncoding, "encode", built)
        assert enc.choose_encoding(types.VARCHAR, ["a"] * 5000).name == "RLE"

    @given(int_lists)
    @settings(max_examples=25)
    def test_auto_encoding_roundtrip(self, values):
        assert exactly(roundtrip(enc.AUTO, values)) == exactly(values)

    def test_never_larger_than_plain_by_much(self):
        import random

        rng = random.Random(11)
        values = [rng.randrange(10**12) for _ in range(4096)]
        chosen = enc.choose_encoding(types.INTEGER, values)
        assert len(chosen.encode(values)) <= len(enc.PLAIN.encode(values))


class TestRegistry:
    def test_all_paper_encodings_registered(self):
        for name in (
            "AUTO",
            "RLE",
            "DELTAVAL",
            "BLOCK_DICT",
            "DELTARANGE_COMP",
            "COMMONDELTA_COMP",
            "PLAIN",
            "COMPRESSED_PLAIN",
        ):
            assert enc.encoding_by_name(name).name == name

    def test_lookup_case_insensitive(self):
        assert enc.encoding_by_name("rle") is enc.RLE

    def test_unknown_encoding_raises(self):
        from repro.errors import EncodingError

        with pytest.raises(EncodingError):
            enc.encoding_by_name("LZ77")
