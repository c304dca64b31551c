"""Position encodings, embedding tables, and initial node states."""

import numpy as np
import pytest

from lexner.autograd import Tensor
from lexner.encoding import (
    EmbeddingTable,
    PositionCodec,
    WordProjection,
    char_states,
    encode_position,
    relative_position_features,
    word_states,
)
from lexner.matching import MatchedWord


class TestEncodePosition:
    def test_position_zero(self):
        np.testing.assert_array_equal(encode_position(0, 4), [0.0, 1.0, 0.0, 1.0])

    def test_position_one_dim_two(self):
        np.testing.assert_allclose(encode_position(1, 2), [np.sin(1.0), np.cos(1.0)])

    def test_large_position_against_arbitrary_precision(self):
        import mpmath

        mpmath.mp.dps = 50
        got = encode_position(10000, 2)
        assert abs(got[0] - float(mpmath.sin(10000))) < 1e-12
        assert abs(got[1] - float(mpmath.cos(10000))) < 1e-12

    def test_paired_slots_share_frequency(self):
        v = encode_position(3, 8)
        for k in range(4):
            angle = 3 / 10000 ** (2 * k / 8)
            assert v[2 * k] == pytest.approx(np.sin(angle))
            assert v[2 * k + 1] == pytest.approx(np.cos(angle))

    def test_entries_bounded(self):
        for pos in (0, 1, 17, 400):
            v = encode_position(pos, 16)
            assert np.all(v >= -1.0) and np.all(v <= 1.0)

    def test_rejects_odd_dim_and_negative_pos(self):
        with pytest.raises(ValueError):
            encode_position(0, 3)
        with pytest.raises(ValueError):
            encode_position(-1, 4)


class TestPositionCodec:
    def test_table_matches_per_position_encoding(self):
        codec = PositionCodec(20, 6)
        for pos in range(21):
            np.testing.assert_allclose(codec.encode(pos), encode_position(pos, 6), atol=1e-12)

    def test_out_of_range_rejected(self):
        codec = PositionCodec(4, 4)
        with pytest.raises(ValueError):
            codec.encode(5)


class TestEmbeddingTable:
    def test_unknown_token_maps_to_unk_row(self):
        rng = np.random.default_rng(0)
        table = EmbeddingTable.random(["a", "b"], 4, rng)
        assert table.lookup_index("a") == 0
        assert table.lookup_index("zz") == table.unk_id
        assert table.rows.data.shape == (3, 4)

    def test_from_file_with_header(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("2 3\nfoo 1 2 3\nbar 0.5 -0.5 0\n", encoding="utf-8")
        table = EmbeddingTable.from_file(path)
        np.testing.assert_allclose(table.rows.data[table.lookup_index("bar")], [0.5, -0.5, 0])
        assert table.dim == 3

    def test_from_file_without_header(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("foo 1 2\nbar 3 4\n", encoding="utf-8")
        table = EmbeddingTable.from_file(path)
        assert table.dim == 2 and len(table.tokens) == 2

    def test_out_of_file_tokens_initialized_uniformly(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("foo 1 2\n", encoding="utf-8")
        rng = np.random.default_rng(1)
        table = EmbeddingTable.from_file(path, vocab=["foo", "new"], rng=rng)
        row = table.rows.data[table.lookup_index("new")]
        assert np.all(np.abs(row) <= 0.1)
        np.testing.assert_allclose(table.rows.data[0], [1, 2])

    def test_inconsistent_dim_rejected(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("foo 1 2\nbar 1 2 3\n", encoding="utf-8")
        with pytest.raises(ValueError):
            EmbeddingTable.from_file(path)


def zero_table(tokens, dim):
    return EmbeddingTable(tokens, np.zeros((len(tokens) + 1, dim)))


def zero_projection(d_w, d_c):
    return WordProjection(
        Tensor(np.zeros((4 * d_w, d_w))),
        Tensor(np.zeros((d_w, d_c))),
        Tensor(np.zeros(d_c)),
        Tensor(np.zeros((d_c, d_c))),
        Tensor(np.zeros(d_c)),
    )


class TestEncodeChar:
    def test_zero_embeddings_give_pure_position(self):
        codec = PositionCodec(8, 4)
        out = char_states(["a"], zero_table(["a"], 4), codec)
        np.testing.assert_array_equal(out.data, [[0.0, 1.0, 0.0, 1.0]])

    def test_embedding_plus_position(self):
        table = EmbeddingTable(["a"], np.vstack([np.full(4, 2.0), np.zeros(4)]))
        codec = PositionCodec(8, 4)
        out = char_states(["a"], table, codec)
        np.testing.assert_allclose(out.data, [[2.0, 3.0, 2.0, 3.0]])

    def test_matches_scalar_reference(self):
        rng = np.random.default_rng(2)
        table = EmbeddingTable.random(list("abcd"), 6, rng)
        codec = PositionCodec(16, 6)
        chars = list("dcba")
        batch = char_states(chars, table, codec)
        for i, c in enumerate(chars):
            expect = np.array(
                [
                    table.rows.data[table.lookup_index(c)][d] + codec.encode(i)[d]
                    for d in range(6)
                ]
            )
            np.testing.assert_allclose(batch.data[i], expect, atol=1e-12)

    def test_sentence_longer_than_codec_rejected(self):
        table = zero_table(["a"], 4)
        assert char_states(["a"] * 8, table, PositionCodec(8, 4)).data.shape == (8, 4)
        with pytest.raises(ValueError, match="9 characters exceeds max_sentence_len=8"):
            char_states(["a"] * 9, table, PositionCodec(8, 4))


class TestEncodeWord:
    WORD = MatchedWord(0, "ab", 1, 2)

    def test_zero_position_mixer_leaves_embedding(self):
        rng = np.random.default_rng(3)
        table = EmbeddingTable.random(["ab"], 4, rng)
        proj = zero_projection(4, 4)
        # w_r = 0 makes the relative mix vanish; zero w2/b2 then zeroes output
        out = word_states([self.WORD], table, proj, PositionCodec(16, 4))
        np.testing.assert_array_equal(out.data, np.zeros((1, 4)))

    def test_all_zero_parameters_give_zero(self):
        table = zero_table(["ab"], 4)
        out = word_states([self.WORD], table, zero_projection(4, 6), PositionCodec(16, 4))
        np.testing.assert_array_equal(out.data, np.zeros((1, 6)))

    def test_matches_scalar_reference(self):
        """Independent elementwise evaluation of the word encoding chain."""
        rng = np.random.default_rng(4)
        d_w, d_c = 4, 6
        table = EmbeddingTable.random(["ab", "abc"], d_w, rng)
        proj = WordProjection.init(d_w, d_c, rng)
        codec = PositionCodec(16, d_w)
        words = [MatchedWord(0, "ab", 1, 2), MatchedWord(1, "abc", 0, 2)]
        got = word_states(words, table, proj, codec).data

        def ref(word):
            h, t = word.head, word.tail
            p4 = np.concatenate(
                [codec.encode(h), codec.encode(t), codec.encode(t - h), codec.encode(t + h)]
            )
            rel = np.maximum(p4 @ proj.w_r.data, 0.0)
            v = table.rows.data[table.lookup_index(word.surface)] + rel
            return np.tanh(v @ proj.w1.data + proj.b1.data) @ proj.w2.data + proj.b2.data

        for j, w in enumerate(words):
            np.testing.assert_allclose(got[j], ref(w), atol=1e-12)

    def test_same_surface_different_span_encodes_differently(self):
        rng = np.random.default_rng(5)
        table = EmbeddingTable.random(["ab"], 4, rng)
        proj = WordProjection.init(4, 4, rng)
        codec = PositionCodec(16, 4)
        spans = [(0, 1), (3, 4), (0, 1)]
        a, b, c = (
            word_states([MatchedWord(j, "ab", h, t)], table, proj, codec).data[0]
            for j, (h, t) in enumerate(spans)
        )
        assert not np.allclose(a, b)
        np.testing.assert_array_equal(a, c)

    def test_relative_features_layout(self):
        codec = PositionCodec(16, 4)
        feats = relative_position_features([MatchedWord(0, "ab", 2, 3)], codec)
        np.testing.assert_allclose(feats[0, :4], codec.encode(2))
        np.testing.assert_allclose(feats[0, 4:8], codec.encode(3))
        np.testing.assert_allclose(feats[0, 8:12], codec.encode(1))
        np.testing.assert_allclose(feats[0, 12:], codec.encode(5))

    def test_output_dimension_is_char_dim(self):
        rng = np.random.default_rng(6)
        table = EmbeddingTable.random(["ab"], 4, rng)
        proj = WordProjection.init(4, 10, rng)
        out = word_states([self.WORD], table, proj, PositionCodec(16, 4))
        assert out.data.shape == (1, 10)
