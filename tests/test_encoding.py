"""Position encodings, embedding tables, and initial node states."""

import re
import tracemalloc
import warnings

import numpy as np
import pytest

from lexner.autograd import Tensor
from lexner.encoding import (
    EmbeddingTable,
    WordProjection,
    char_states,
    encode_position,
    initial_states,
    word_states,
)
from lexner.matching import MatchedWord


def ref_position(pos: int, dim: int) -> np.ndarray:
    """Scalar reference: one slot at a time, sin at even slots, cos at odd."""
    out = np.empty(dim, dtype=np.float64)
    for k in range(dim // 2):
        angle = pos / (10000.0 ** (2 * k / dim))
        out[2 * k] = np.sin(angle)
        out[2 * k + 1] = np.cos(angle)
    return out


def ref_encode_positions(positions, dim: int) -> np.ndarray:
    """The arbitrary-position encoder that the per-sentence table replaced:
    shape ``positions.shape + (dim,)``, every row computed at its own position."""
    pos = np.asarray(positions)
    angle = pos[..., None].astype(np.float64) / np.power(
        10000.0, np.arange(0, dim, 2, dtype=np.float64) / dim
    )
    out = np.empty(pos.shape + (dim,), dtype=np.float64)
    out[..., 0::2] = np.sin(angle)
    out[..., 1::2] = np.cos(angle)
    return out


class TestEncodePosition:
    def test_position_zero(self):
        np.testing.assert_array_equal(encode_position(1, 4)[0], [0.0, 1.0, 0.0, 1.0])

    def test_position_one_dim_two(self):
        np.testing.assert_allclose(encode_position(2, 2)[1], [np.sin(1.0), np.cos(1.0)])

    def test_large_position_against_arbitrary_precision(self):
        import mpmath

        mpmath.mp.dps = 50
        got = encode_position(10001, 2)[10000]
        assert abs(got[0] - float(mpmath.sin(10000))) < 1e-12
        assert abs(got[1] - float(mpmath.cos(10000))) < 1e-12

    def test_paired_slots_share_frequency(self):
        v = encode_position(4, 8)[3]
        for k in range(4):
            angle = 3 / 10000 ** (2 * k / 8)
            assert v[2 * k] == pytest.approx(np.sin(angle))
            assert v[2 * k + 1] == pytest.approx(np.cos(angle))

    def test_entries_bounded(self):
        for pos in (0, 1, 17, 400):
            v = encode_position(pos + 1, 16)[pos]
            assert np.all(v >= -1.0) and np.all(v <= 1.0)

    def test_rejects_odd_or_zero_dim(self):
        with pytest.raises(ValueError):
            encode_position(1, 3)
        with pytest.raises(ValueError):
            encode_position(1, 0)

    def test_scalar_matches_reference(self):
        for pos in (0, 1, 7, 511, 4000):
            got = encode_position(pos + 1, 6)[pos]
            assert got.shape == (6,) and got.dtype == np.float64
            np.testing.assert_allclose(got, ref_position(pos, 6), atol=1e-12)

    def test_vector_matches_reference(self):
        got = encode_position(600, 8)
        assert got.shape == (600, 8) and got.dtype == np.float64
        for pos in range(600):
            np.testing.assert_allclose(got[pos], ref_position(pos, 8), atol=1e-12)

    def test_matrix_matches_reference(self):
        rng = np.random.default_rng(7)
        heads = rng.integers(0, 300, size=50)
        tails = heads + rng.integers(0, 6, size=50)
        spans = np.stack([heads, tails, tails - heads, tails + heads], axis=1)
        got = encode_position(spans.max() + 1, 6)[spans]
        assert got.shape == (50, 4, 6)
        for j in range(50):
            for slot in range(4):
                np.testing.assert_allclose(
                    got[j, slot], ref_position(int(spans[j, slot]), 6), atol=1e-12
                )


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
        table = EmbeddingTable.from_file(path, ["foo", "bar"], 3, rng=None)
        np.testing.assert_allclose(table.rows.data[table.lookup_index("bar")], [0.5, -0.5, 0])
        assert table.dim == 3

    def test_from_file_without_header(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("foo 1 2\nbar 3 4\n", encoding="utf-8")
        table = EmbeddingTable.from_file(path, ["foo", "bar"], 2, rng=None)
        assert table.dim == 2 and len(table.tokens) == 2

    def test_out_of_file_tokens_initialized_uniformly(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("foo 1 2\n", encoding="utf-8")
        rng = np.random.default_rng(1)
        table = EmbeddingTable.from_file(path, vocab=["foo", "new"], dim=2, rng=rng)
        row = table.rows.data[table.lookup_index("new")]
        assert np.all(np.abs(row) <= 0.1)
        np.testing.assert_allclose(table.rows.data[0], [1, 2])

    def test_inconsistent_dim_rejected(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("foo 1 2\nbar 1 2 3\n", encoding="utf-8")
        with pytest.raises(ValueError):
            EmbeddingTable.from_file(path, ["foo", "bar"], 2, rng=None)

    def test_a_first_vector_of_another_width_is_named_before_a_later_fault(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("2 3\nfoo 1 2 3\nbar\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"emb\.txt:2: expected 2 values, got 3"):
            EmbeddingTable.from_file(path, ["foo", "bar"], 2, rng=None)

    def test_non_numeric_value_names_the_line(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("foo 1 2\na 1 x\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"emb\.txt:2: could not convert string to float: 'x'"):
            EmbeddingTable.from_file(path, ["foo", "a"], 2, rng=None)

    @pytest.mark.parametrize(
        "value, dtype",
        [("nan", np.float64), ("inf", np.float64), ("-inf", np.float32),
         ("1e309", np.float64), ("1e39", np.float32)],
    )
    def test_non_finite_value_names_the_line(self, tmp_path, value, dtype):
        path = tmp_path / "emb.txt"
        path.write_text(f"foo 1 2\nbar 3 {value}\n", encoding="utf-8")
        message = rf"emb\.txt:2: value '{value}' is not finite in {np.dtype(dtype).name}"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the float32 overflow warns nothing either
            with pytest.raises(ValueError, match=message):
                EmbeddingTable.from_file(path, ["foo", "bar"], 2, rng=None, dtype=dtype)

    def test_u2028_is_a_token_not_a_line_break(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("\u2028 0.5 2\nbar 3 4\n", encoding="utf-8")
        table = EmbeddingTable.from_file(path, ["\u2028", "bar"], 2, rng=None)
        assert table.tokens == ["\u2028", "bar"]
        np.testing.assert_array_equal(table.rows.data[0], [0.5, 2])

    def test_u2028_token_with_two_integers_is_not_a_header(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("\u2028 1 2\nbar 3 4\n", encoding="utf-8")
        table = EmbeddingTable.from_file(path, ["\u2028", "bar"], 2, rng=None)
        assert table.tokens == ["\u2028", "bar"]
        np.testing.assert_array_equal(table.rows.data[:2], [[1, 2], [3, 4]])

    def test_a_superscript_digit_token_with_one_value_is_not_a_header(self, tmp_path):
        # "\u00b2".isdigit() holds, but int() cannot read it: a count is decimal digits
        path = tmp_path / "emb.txt"
        path.write_text("\u00b2 5\nbar 3\n", encoding="utf-8")
        table = EmbeddingTable.from_file(path, ["\u00b2", "bar"], 1, rng=None)
        assert table.tokens == ["\u00b2", "bar"]
        np.testing.assert_array_equal(table.rows.data[:2], [[5], [3]])

    @pytest.mark.parametrize("token", ["\u2028", "\u3000"])
    def test_a_line_of_one_unicode_space_is_malformed(self, tmp_path, token):
        path = tmp_path / "emb.txt"
        path.write_text(f"foo 1 2\n{token}\nbar 3 4\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"emb\.txt:2: malformed embedding line"):
            EmbeddingTable.from_file(path, ["foo", "bar"], 2, rng=None)

    def test_a_trailing_space_still_loads(self, tmp_path):
        # fastText's .vec files end each line with a space
        path = tmp_path / "emb.txt"
        path.write_text("2 2 \nfoo 1 2 \nbar 3 4 \n", encoding="utf-8")
        table = EmbeddingTable.from_file(path, ["foo", "bar"], 2, rng=None)
        assert table.tokens == ["foo", "bar"]
        np.testing.assert_array_equal(table.rows.data[:2], [[1, 2], [3, 4]])

    def test_largest_finite_float32_loads(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("foo 3e38 -3e38\n", encoding="utf-8")
        table = EmbeddingTable.from_file(path, ["foo"], 2, rng=None, dtype=np.float32)
        assert np.isfinite(table.rows.data).all()

    @pytest.mark.parametrize(
        "line, message",
        [("bar", "malformed embedding line"),
         ("bar 3 nan", "value 'nan' is not finite in float64"),
         ("bar 1 x", "could not convert string to float: 'x'"),
         ("bar 1 2 3", "expected 2 values, got 3")],
        ids=["malformed", "non-finite", "non-numeric", "wrong-width"],
    )
    def test_a_fault_outside_the_vocab_still_names_its_line(self, tmp_path, line, message):
        path = tmp_path / "emb.txt"
        path.write_text(f"foo 1 2\n{line}\nbaz 3 4\n", encoding="utf-8")
        with pytest.raises(ValueError, match=rf"emb\.txt:2: {re.escape(message)}"):
            EmbeddingTable.from_file(path, vocab=["foo"], dim=2)

    def test_only_the_first_line_can_be_a_header(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("2 1\na 1\n2 3\n", encoding="utf-8")
        table = EmbeddingTable.from_file(path, ["a", "2"], 1, rng=None)
        assert table.tokens == ["a", "2"]
        np.testing.assert_array_equal(table.rows.data[:2], [[1], [3]])

    def test_vocab_rows_equal_the_full_table(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("3 2\nfoo 1 2\nbar 3 4\nfoo 5 6\n", encoding="utf-8")
        table = EmbeddingTable.from_file(
            path, vocab=["foo", "new"], dim=2, rng=np.random.default_rng(0)
        )
        np.testing.assert_array_equal(table.rows.data[0], [5, 6])

    def test_a_token_the_vocab_repeats_gets_its_row_in_each_place(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("foo 1 2\nbar 3 4\n", encoding="utf-8")
        vocab = ["foo", "new", "foo", "new"]
        table = EmbeddingTable.from_file(path, vocab, 2, rng=np.random.default_rng(0))
        draws = np.random.default_rng(0).uniform(-0.1, 0.1, size=(2, 2))
        np.testing.assert_array_equal(table.rows.data, [[1, 2], draws[0], [1, 2], draws[1], [0, 0]])
        assert table.lookup_index("foo") == 2

    @pytest.mark.parametrize(
        "body, message",
        [(b"foo 1 2\nbar\nbaz \xff 1\n", r"emb\.txt:2: malformed embedding line"),
         (b"foo 1 2\nbaz \xff 1\nbar\n", r"emb\.txt:2: not valid UTF-8"),
         (b"foo 1 2\nbar 3 nan\nbaz \xff 1\n", r"emb\.txt:2: value 'nan' is not finite")],
        ids=["malformed-then-utf8", "utf8-then-malformed", "non-finite-then-utf8"],
    )
    def test_the_first_fault_in_file_order_is_named(self, tmp_path, body, message):
        path = tmp_path / "emb.txt"
        path.write_bytes(body)
        with pytest.raises(ValueError, match=message):
            EmbeddingTable.from_file(path, vocab=["foo"], dim=2)


class TestFromFileHeader:
    """The `count dim` header is skipped and sizes nothing: the rows read are the same
    whatever it says."""

    @staticmethod
    def load(tmp_path, header, lines=3, dim=2, dtype=np.float64):
        path = tmp_path / "emb.txt"
        body = "".join(f"t{i} " + " ".join(str(i + j) for j in range(dim)) + "\n" for i in range(lines))
        path.write_text(header + body, encoding="utf-8")
        tracemalloc.start()
        try:
            table = EmbeddingTable.from_file(
                path, [f"t{i}" for i in range(lines)], dim, rng=None, dtype=dtype
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        want = [[i + j for j in range(dim)] for i in range(lines)] + [[0] * dim]
        assert table.tokens == [f"t{i}" for i in range(lines)]
        assert table.index == {f"t{i}": i for i in range(lines)}
        np.testing.assert_array_equal(table.rows.data, want)
        return peak

    @pytest.mark.parametrize("count", [0, 1, 2, 3, 4, 7, 1000])
    def test_any_count_gives_the_rows_of_no_header(self, tmp_path, count):
        self.load(tmp_path, f"{count} 2\n")

    @pytest.mark.parametrize(
        "count",
        ["1000000000000", "9" * 5000, "\u0662\u0660"],
        ids=["trillion", "5000-digits", "arabic-indic-20"],
    )
    def test_a_hostile_count_allocates_what_the_file_can_fill(self, tmp_path, count):
        # 50 values per line: a header believed as it stands would ask for 400 TB
        assert self.load(tmp_path, f"{count} 50\n", lines=2, dim=50) < 1 << 20

    @pytest.mark.parametrize("header", ["5000 50\n", ""], ids=["header", "no-header"])
    def test_a_full_vocab_peaks_below_twice_the_table(self, tmp_path, header):
        # each vector goes straight into its row: no buffer of the rows read, no second copy
        peak = self.load(tmp_path, header, lines=5000, dim=50, dtype=np.float32)
        assert peak < 2 * (5000 + 1) * 50 * np.dtype(np.float32).itemsize

    def test_a_vocab_keeps_only_its_rows(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("1000000000000 2\na 1 2\nb 3 4\nc 5 6\n", encoding="utf-8")
        table = EmbeddingTable.from_file(path, vocab=["c", "a"], dim=2)
        np.testing.assert_array_equal(table.rows.data, [[5, 6], [1, 2], [0, 0]])


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
        out = char_states(["a"], zero_table(["a"], 4))
        np.testing.assert_array_equal(out.data, [[0.0, 1.0, 0.0, 1.0]])

    def test_embedding_plus_position(self):
        table = EmbeddingTable(["a"], np.vstack([np.full(4, 2.0), np.zeros(4)]))
        out = char_states(["a"], table)
        np.testing.assert_allclose(out.data, [[2.0, 3.0, 2.0, 3.0]])

    def test_matches_scalar_reference(self):
        rng = np.random.default_rng(2)
        table = EmbeddingTable.random(list("abcd"), 6, rng)
        chars = list("dcba")
        batch = char_states(chars, table)
        for i, c in enumerate(chars):
            expect = np.array(
                [
                    table.rows.data[table.lookup_index(c)][d] + ref_position(i, 6)[d]
                    for d in range(6)
                ]
            )
            np.testing.assert_allclose(batch.data[i], expect, atol=1e-12)

    def test_long_sentence_encodes_every_position(self):
        out = char_states(["a"] * 600, zero_table(["a"], 4))
        assert out.data.shape == (600, 4)
        np.testing.assert_allclose(out.data[599], ref_position(599, 4), atol=1e-12)


class TestEncodeWord:
    WORD = MatchedWord("ab", 1, 2)

    def test_zero_position_mixer_leaves_embedding(self):
        rng = np.random.default_rng(3)
        table = EmbeddingTable.random(["ab"], 4, rng)
        proj = zero_projection(4, 4)
        # w_r = 0 makes the relative mix vanish; zero w2/b2 then zeroes output
        out = word_states([self.WORD], table, proj)
        np.testing.assert_array_equal(out.data, np.zeros((1, 4)))

    def test_all_zero_parameters_give_zero(self):
        table = zero_table(["ab"], 4)
        out = word_states([self.WORD], table, zero_projection(4, 6))
        np.testing.assert_array_equal(out.data, np.zeros((1, 6)))

    def test_matches_scalar_reference(self):
        """Independent elementwise evaluation of the word encoding chain."""
        rng = np.random.default_rng(4)
        d_w, d_c = 4, 6
        table = EmbeddingTable.random(["ab", "abc"], d_w, rng)
        proj = WordProjection.init(d_w, d_c, rng)
        words = [MatchedWord("ab", 1, 2), MatchedWord("abc", 0, 2)]
        got = word_states(words, table, proj).data

        def ref(word):
            h, t = word.head, word.tail
            p4 = np.concatenate(
                [ref_position(p, d_w) for p in (h, t, t - h, t + h)]
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
        spans = [(0, 1), (3, 4), (0, 1)]
        a, b, c = (
            word_states([MatchedWord("ab", h, t)], table, proj).data[0]
            for h, t in spans
        )
        assert not np.allclose(a, b)
        np.testing.assert_array_equal(a, c)

    def test_output_dimension_is_char_dim(self):
        rng = np.random.default_rng(6)
        table = EmbeddingTable.random(["ab"], 4, rng)
        proj = WordProjection.init(4, 10, rng)
        out = word_states([self.WORD], table, proj)
        assert out.data.shape == (1, 10)


class TestInitialStates:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_states_keep_the_model_dtype(self, dtype):
        rng = np.random.default_rng(8)
        char_table = EmbeddingTable.random(list("abc"), 6, rng, dtype=dtype)
        word_table = EmbeddingTable.random(["ab"], 4, rng, dtype=dtype)
        proj = WordProjection.init(4, 6, rng, dtype=dtype)
        words = [MatchedWord("ab", 0, 1), MatchedWord("ab", 1, 2)]
        h_c, h_w = initial_states(list("abc"), words, char_table, word_table, proj)
        assert h_c.data.dtype == dtype and h_w.data.dtype == dtype
        assert h_c.data.shape == (3, 6) and h_w.data.shape == (2, 6)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bytes_equal_the_arbitrary_position_composition(self, dtype):
        """One table per sentence gives the bytes of encoding every position on its own."""
        rng = np.random.default_rng(9)
        d_c, d_w = 6, 4
        chars, surfaces = list("abcdefgh"), ["ab", "bcd", "e", "fgh"]
        char_table = EmbeddingTable.random(chars, d_c, rng, dtype=dtype)
        word_table = EmbeddingTable.random(surfaces, d_w, rng, dtype=dtype)
        proj = WordProjection.init(d_w, d_c, rng, dtype=dtype)
        cases = [(1, 0), (1, 3), (7, 0)] + [(int(n), int(n)) for n in rng.integers(2, 80, 30)]
        for n, m in cases:
            sent = [chars[i] for i in rng.integers(0, len(chars), n)]
            heads = rng.integers(0, n, m)
            tails = np.minimum(heads + rng.integers(0, 4, m), n - 1)
            if m:
                heads[0], tails[0] = rng.integers(0, n), n - 1  # tail+head can reach 2n-2
            words = [
                MatchedWord(surfaces[rng.integers(0, len(surfaces))], int(h), int(t))
                for h, t in zip(heads, tails)
            ]
            h_c, h_w = initial_states(sent, words, char_table, word_table, proj)

            # the composition as it stood before the table, op for op
            positions = ref_encode_positions(np.arange(n), d_c)
            want_c = char_table.rows[char_table.indices(sent)] + positions.astype(dtype)
            spans = np.array(
                [(w.head, w.tail, w.tail - w.head, w.tail + w.head) for w in words], np.int64
            ).reshape(m, 4)
            p4 = ref_encode_positions(spans, d_w).reshape(m, 4 * d_w)
            rel = (p4.astype(dtype) @ proj.w_r).relu()
            v = word_table.rows[word_table.indices([w.surface for w in words])] + rel
            want_w = (v @ proj.w1 + proj.b1).tanh() @ proj.w2 + proj.b2
            assert h_c.data.dtype == h_w.data.dtype == dtype
            assert h_c.data.tobytes() == want_c.data.tobytes()
            assert h_w.data.shape == (m, d_c) and h_w.data.tobytes() == want_w.data.tobytes()
