"""The command-line surface: subcommands, formats, exit codes."""

import copy
import dataclasses
import json
import os
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from lexner import cli, fusion
from lexner.cli import run
from lexner.data import Corpus, Sentence, load_corpus, spans_to_tags, tags_to_spans
from lexner.matching import build_trie
from lexner.model import (
    CHECKPOINT_MAGIC,
    ModelParams,
    decode_tags,
    prepare_sentence,
)
from lexner.synthetic import make_overfit_corpus
from lexner.trainer import NumericError, ReluKinkError
from test_trainer import save_legacy

TINY_CFG = """
d_c = 8
d_w = 8
d_ff = 32
heads = 2
layers = 2
lr = 0.01
weight_decay = 0.0
embed_dropout = 0.0
fusion_dropout = 0.0
epochs = 2
batch_size = 8
seed = 1
"""


def write_corpus_file(path, corpus: Corpus):
    lines = []
    for s in corpus.sentences:
        lines.extend(f"{c}\t{t}" for c, t in zip(s.chars, s.tags))
        lines.append("")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def config_with(workspace, tmp_path, lines=""):
    """The workspace config writing checkpoints under tmp_path, with `lines` appended."""
    cfg = tmp_path / "extra.cfg"
    cfg.write_text(
        (workspace / "tiny.cfg").read_text(encoding="utf-8")
        + f"checkpoint_dir = {tmp_path / 'ckpt'}\n{lines}",
        encoding="utf-8",
    )
    return cfg


def well_formed(tags):
    return spans_to_tags(tags_to_spans(tags), len(tags)) == tags


def edited_checkpoint(checkpoint, path, edit):
    """Write to `path` the trained checkpoint with `edit` applied to its JSON header."""
    raw = checkpoint.read_bytes()
    start = len(CHECKPOINT_MAGIC)
    (hlen,) = struct.unpack("<Q", raw[start : start + 8])
    header = json.loads(raw[start + 8 : start + 8 + hlen])
    edit(header)
    blob = json.dumps(header).encode("utf-8")
    path.write_bytes(
        CHECKPOINT_MAGIC + struct.pack("<Q", len(blob)) + blob + raw[start + 8 + hlen :]
    )
    return path


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    corpus, lexicon = make_overfit_corpus()
    train = Corpus(corpus.sentences[:40], corpus.scheme)
    dev = Corpus(corpus.sentences[40:], corpus.scheme)
    write_corpus_file(root / "train.tsv", train)
    write_corpus_file(root / "dev.tsv", dev)
    (root / "lexicon.txt").write_text("\n".join(lexicon) + "\n", encoding="utf-8")
    (root / "sentences.txt").write_text(
        "".join(train.sentences[0].chars) + "\n\n" + "".join(train.sentences[1].chars) + "\n",
        encoding="utf-8",
    )
    cfg = TINY_CFG + (
        f"train_file = {root/'train.tsv'}\n"
        f"dev_file = {root/'dev.tsv'}\n"
        f"lexicon_file = {root/'lexicon.txt'}\n"
        f"checkpoint_dir = {root/'ckpt'}\n"
    )
    (root / "tiny.cfg").write_text(cfg, encoding="utf-8")
    return root


@pytest.fixture(scope="module")
def checkpoint(workspace):
    """`best.ckpt` of a model that `lexner train` trains on the workspace corpus."""
    cfg = workspace / "fixture.cfg"
    cfg.write_text(
        (workspace / "tiny.cfg").read_text(encoding="utf-8")
        + f"checkpoint_dir = {workspace / 'fixture_ckpt'}\n",
        encoding="utf-8",
    )
    assert run(["train", "--config", str(cfg)]) == 0
    return workspace / "fixture_ckpt" / "best.ckpt"


class TestUsage:
    def test_help_exits_zero(self, capsys):
        assert run(["--help"]) == 0
        assert "subcommand" in capsys.readouterr().out

    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert run(["frobnicate"]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_unknown_flag_is_usage_error(self, workspace):
        assert run(["stats", "--corpus", str(workspace / "train.tsv"),
                    "--lexicon", str(workspace / "lexicon.txt"), "--bogus"]) == 1

    def test_missing_required_flag(self):
        assert run(["match"]) == 1

    def test_missing_file_is_data_error(self, workspace, capsys):
        assert run(["match", "--lexicon", str(workspace / "nope.txt"),
                    "--input", str(workspace / "sentences.txt")]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "reader", ["corpus", "lexicon", "config", "embeddings", "predict", "match", "graph"]
    )
    def test_a_file_that_is_not_utf8_names_its_line(
        self, workspace, checkpoint, tmp_path, capsys, reader
    ):
        """Each input file is read through one line reader: a byte that is not
        UTF-8 is a data error naming the file and the line it sits on."""
        lexicon, text = workspace / "lexicon.txt", workspace / "sentences.txt"
        emb = tmp_path / "chars.emb"
        emb.write_text("a" + " 0.5" * 8 + "\n", encoding="utf-8")
        bad = tmp_path / f"bad-{reader}"
        cfg = config_with(
            workspace, tmp_path, f"char_emb_file = {bad if reader == 'embeddings' else emb}\n"
        )
        # each command, and the good file that its spoilt copy replaces
        argv, good = {
            "corpus": (["stats", "--corpus", bad, "--lexicon", lexicon], workspace / "train.tsv"),
            "lexicon": (["match", "--lexicon", bad, "--input", text], lexicon),
            "config": (["train", "--config", bad], cfg),
            "embeddings": (["train", "--config", cfg], emb),
            "predict": (["predict", "--checkpoint", checkpoint, "--input", bad], text),
            "match": (["match", "--lexicon", lexicon, "--input", bad], text),
            "graph": (["graph", "--lexicon", lexicon, "--input", bad], text),
        }[reader]
        raw = good.read_bytes()
        # an empty line ended by a lone \r, then the bad byte on the line after it
        bad.write_bytes(raw + b"\r\xff\n")
        assert run([str(arg) for arg in argv]) == 2
        lineno = raw.count(b"\n") + 2
        assert capsys.readouterr().err.splitlines() == [f"error: {bad}:{lineno}: not valid UTF-8"]

    def test_python_m_runs_the_command(self, workspace):
        root = Path(__file__).resolve().parents[1]
        result = subprocess.run(
            [sys.executable, "-m", "lexner.cli", "stats", "--corpus", str(workspace / "train.tsv"),
             "--lexicon", str(workspace / "lexicon.txt")],
            env=dict(os.environ, PYTHONPATH=str(root / "src")),
            capture_output=True, text=True, timeout=60,
        )
        assert result.returncode == 0, result.stderr
        assert "sentences 40" in result.stdout


class TestMatch:
    def test_output_format(self, workspace, capsys):
        assert run(["match", "--lexicon", str(workspace / "lexicon.txt"),
                    "--input", str(workspace / "sentences.txt")]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out, "expected matched words"
        trie = build_trie([w.split()[0] for w in
                           (workspace / "lexicon.txt").read_text().split()])
        sentences = (workspace / "sentences.txt").read_text().splitlines()
        for line in out:
            sid, head, tail, surface = line.split("\t")
            sent = sentences[int(sid)]
            assert sent[int(head) : int(tail) + 1] == surface
            assert surface in trie.words

    def test_out_file(self, workspace, tmp_path):
        out = tmp_path / "matches.tsv"
        assert run(["match", "--lexicon", str(workspace / "lexicon.txt"),
                    "--input", str(workspace / "sentences.txt"),
                    "--out", str(out)]) == 0
        assert out.read_text(encoding="utf-8").count("\n") > 0

    def test_matches_a_lexicon_word_holding_a_u2028(self, tmp_path, capsys):
        lexicon = tmp_path / "lex.txt"
        lexicon.write_text("x\u2028y 5\n", encoding="utf-8")
        text = tmp_path / "in.txt"
        text.write_text("ax\u2028yb\n", encoding="utf-8")
        assert run(["match", "--lexicon", str(lexicon), "--input", str(text)]) == 0
        assert capsys.readouterr().out == "0\t1\t3\tx\u2028y\n"

    def test_sentence_ids_are_line_numbers_and_u2028_is_a_character(
        self, workspace, tmp_path, capsys
    ):
        text = tmp_path / "in.txt"
        text.write_text("abc\n\nx\u2028abc\n", encoding="utf-8")
        assert run(["match", "--lexicon", str(workspace / "lexicon.txt"),
                    "--input", str(text)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert "0\t0\t2\tabc" in out and "2\t2\t4\tabc" in out
        assert {line.split("\t")[0] for line in out} == {"0", "2"}


class TestGraph:
    def test_standard_and_variant(self, workspace, capsys):
        assert run(["graph", "--lexicon", str(workspace / "lexicon.txt"),
                    "--input", str(workspace / "sentences.txt")]) == 0
        out = capsys.readouterr().out
        assert "sentence 0" in out and "word_edge" in out
        assert run(["graph", "--lexicon", str(workspace / "lexicon.txt"),
                    "--input", str(workspace / "sentences.txt"),
                    "--variant", "wo_word_edge"]) == 0
        assert "word_edge" not in capsys.readouterr().out

    def test_sentence_ids_are_line_numbers(self, workspace, tmp_path, capsys):
        text = tmp_path / "in.txt"
        text.write_text("abc\n\nx\u2028abc\n", encoding="utf-8")
        assert run(["graph", "--lexicon", str(workspace / "lexicon.txt"),
                    "--input", str(text)]) == 0
        heads = [l for l in capsys.readouterr().out.splitlines() if l.startswith("sentence ")]
        assert heads == ["sentence 0", "sentence 2"]

    def test_bad_variant_is_usage_error(self, workspace):
        assert run(["graph", "--lexicon", str(workspace / "lexicon.txt"),
                    "--input", str(workspace / "sentences.txt"),
                    "--variant", "bogus"]) == 1


class TestTrainPredictEval:
    def test_full_cycle(self, workspace, capsys):
        assert run(["train", "--config", str(workspace / "tiny.cfg")]) == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l.startswith("epoch=")]
        assert len(lines) == 2
        assert "lambda=" in lines[0] and "dev_f1=" in lines[0]
        assert (workspace / "ckpt" / "last.ckpt").exists()
        assert (workspace / "ckpt" / "best.ckpt").exists()

        pred_path = workspace / "pred.tsv"
        assert run(["predict", "--checkpoint", str(workspace / "ckpt" / "best.ckpt"),
                    "--input", str(workspace / "dev.tsv"),
                    "--out", str(pred_path)]) == 0
        pred_lines = pred_path.read_text(encoding="utf-8").splitlines()
        gold_lines = (workspace / "dev.tsv").read_text(encoding="utf-8").splitlines()
        while gold_lines and not gold_lines[-1]:
            gold_lines.pop()
        while pred_lines and not pred_lines[-1]:
            pred_lines.pop()
        assert len(pred_lines) == len(gold_lines)  # blanks included

        assert run(["eval", "--gold", str(workspace / "dev.tsv"),
                    "--pred", str(pred_path)]) == 0
        out = capsys.readouterr().out
        assert "precision=" in out and "f1=" in out

    def test_train_reports_repaired_tags(self, workspace, tmp_path, capsys):
        text = (workspace / "train.tsv").read_text(encoding="utf-8")
        etype = text.split("\tB-", 1)[1].split("\n", 1)[0]
        train = tmp_path / "dangling.tsv"
        train.write_text(f"x\tI-{etype}\n\n" + text, encoding="utf-8")
        cfg = config_with(workspace, tmp_path, f"train_file = {train}\nepochs = 1\n")
        assert run(["train", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[:2] == ["corpus=train repaired_tags=1", "corpus=dev repaired_tags=0"]
        assert len(out) == 3 and out[2].startswith("epoch=0 ")

    def test_predict_is_deterministic(self, workspace, checkpoint, tmp_path):
        a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
        for out in (a, b):
            assert run(["predict", "--checkpoint", str(checkpoint),
                        "--input", str(workspace / "dev.tsv"), "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_zero_initialized_model_predicts_first_label(
        self, workspace, checkpoint, tmp_path, capsys
    ):
        model = ModelParams.load(checkpoint)
        for t in model.parameters().values():
            t.data[np.isfinite(t.data)] = 0.0
        zero_ckpt = tmp_path / "zero.ckpt"
        model.save(zero_ckpt)
        out = tmp_path / "zero_pred.tsv"
        assert run(["predict", "--checkpoint", str(zero_ckpt),
                    "--input", str(workspace / "dev.tsv"), "--out", str(out)]) == 0
        tags = {l.split("\t")[1] for l in out.read_text().splitlines() if l}
        assert tags == {model.tagset[0]} == {"O"}

    def test_non_finite_checkpoint_is_data_error(self, workspace, checkpoint, tmp_path, capsys):
        model = ModelParams.load(checkpoint)
        model.char_table.rows.data[0] = np.nan
        nan_ckpt = tmp_path / "nan.ckpt"
        model.save(nan_ckpt)
        capsys.readouterr()
        assert run(["predict", "--checkpoint", str(nan_ckpt),
                    "--input", str(workspace / "sentences.txt")]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "nan.ckpt: tensor char_embeddings has non-finite entries" in err

    def test_non_finite_legacy_checkpoint_is_data_error(
        self, workspace, checkpoint, tmp_path, capsys
    ):
        model = ModelParams.load(checkpoint)
        model.crf.transitions.data[-1, 0] = np.nan  # START -> label 0, kept on conversion
        nan_ckpt = save_legacy(model, tmp_path / "legacy.ckpt")
        capsys.readouterr()
        assert run(["predict", "--checkpoint", str(nan_ckpt),
                    "--input", str(workspace / "sentences.txt")]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "legacy.ckpt: tensor crf.transitions has non-finite entries" in err

    def test_600_character_sentence_is_tagged(self, workspace, checkpoint, tmp_path, capsys):
        long_input = tmp_path / "long.txt"
        long_input.write_text("a\n" * 600, encoding="utf-8")
        assert run(["predict", "--checkpoint", str(checkpoint),
                    "--input", str(long_input)]) == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l]
        assert len(lines) == 600 and all(l.startswith("a\t") for l in lines)

    def test_checkpoint_header_without_dims_is_data_error(
        self, workspace, checkpoint, tmp_path, capsys
    ):
        ckpt = edited_checkpoint(checkpoint, tmp_path / "nodims.ckpt", lambda h: h.pop("dims"))
        assert run(["predict", "--checkpoint", str(ckpt),
                    "--input", str(workspace / "dev.tsv")]) == 2
        assert "nodims.ckpt: header lacks dims" in capsys.readouterr().err

    def test_checkpoint_dims_of_the_wrong_type_is_data_error(
        self, workspace, checkpoint, tmp_path, capsys
    ):
        ckpt = edited_checkpoint(
            checkpoint, tmp_path / "strdims.ckpt", lambda h: h["dims"].update(d_c="abc")
        )
        assert run(["predict", "--checkpoint", str(ckpt),
                    "--input", str(workspace / "dev.tsv")]) == 2
        assert "strdims.ckpt: dims field d_c must be int, found 'abc'" in capsys.readouterr().err

    def test_checkpoint_tensor_entry_without_shape_is_data_error(
        self, workspace, checkpoint, tmp_path, capsys
    ):
        ckpt = edited_checkpoint(
            checkpoint, tmp_path / "noshape.ckpt", lambda h: h["tensors"][0].pop("shape")
        )
        assert run(["predict", "--checkpoint", str(ckpt),
                    "--input", str(workspace / "dev.tsv")]) == 2
        err = capsys.readouterr().err
        assert "noshape.ckpt: tensor entry 0 needs a name and a shape" in err

    @pytest.mark.parametrize(
        "edit, message",
        [(lambda h: h["dims"].update(heads=0), "heads must be at least 1, found 0"),
         (lambda h: h["dims"].update(d_c=0), "d_c must be at least 1, found 0"),
         (lambda h: h.update(tensors=5), "header field tensors must be list, found int"),
         (lambda h: h.update(dims=[]), "header field dims must be dict, found list"),
         (lambda h: h["dims"].update(multiplicative_mask=True),
          "multiplicative_mask is true; that ablation was removed"),
         (lambda h: h["dims"].update(variant="no_edges"), "unknown graph variant 'no_edges'"),
         (lambda h: h.update(scheme="bmeo"), "unknown tag scheme 'bmeo'"),
         (lambda h: h["tagset"].reverse(), "header tagset ['I-PER', 'B-PER',")],
        ids=["zero-heads", "zero-d_c", "tensors", "dims", "multiplicative-mask", "variant",
             "scheme", "permuted-tagset"],
    )
    def test_checkpoint_header_out_of_range_is_data_error(
        self, workspace, checkpoint, tmp_path, capsys, edit, message
    ):
        ckpt = edited_checkpoint(checkpoint, tmp_path / "bad.ckpt", edit)
        assert run(["predict", "--checkpoint", str(ckpt),
                    "--input", str(workspace / "dev.tsv")]) == 2
        assert f"bad.ckpt: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("line, message", [
        ("heads = 0", "heads must be at least 1, found 0"),
        ("heads = -2", "heads must be at least 1, found -2"),
        ("d_w = 0", "d_w must be at least 1, found 0"),
        ("multiplicative_mask = false", "unknown config key 'multiplicative_mask'"),
        ("batch_size = 0", "batch_size must be at least 1, got 0"),
        ("embed_dropout = 1.0", "embed_dropout must lie in [0, 1), got 1.0"),
        ("max_word_len = -3", "max_word_len must be at least 0, found -3"),
        ("tag_scheme = bmeo", "unknown tag scheme 'bmeo'"),
    ])
    def test_train_config_out_of_range_is_data_error(
        self, workspace, tmp_path, capsys, line, message
    ):
        cfg = config_with(workspace, tmp_path, f"{line}\n")
        assert run(["train", "--config", str(cfg)]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "ckpt").exists()

    @pytest.mark.parametrize("line, message", [
        ("heads = 0", "heads must be at least 1, found 0"),
        ("tag_scheme = bmeo", "unknown tag scheme 'bmeo'; expected one of ('bio', 'bmes')"),
        ("lr = inf", "lr must be finite, got inf"),
        ("weight_decay = inf", "weight_decay must be finite, got inf"),
        ("seed = -1", "seed must be at least 0, got -1"),
    ])
    def test_train_config_out_of_range_names_the_file(
        self, workspace, tmp_path, capsys, line, message
    ):
        cfg = config_with(workspace, tmp_path, f"{line}\n")
        assert run(["train", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {cfg}: {message}"]

    @pytest.mark.parametrize("command, seed", [("train", "-5"), ("gradcheck", "-1")])
    def test_negative_seed_flag_names_the_file(
        self, workspace, tmp_path, capsys, command, seed
    ):
        cfg = config_with(workspace, tmp_path)
        assert run([command, "--config", str(cfg), "--seed", seed]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == [f"error: {cfg}: seed must be at least 0, got {seed}"]

    def test_non_finite_embedding_value_is_data_error(self, workspace, tmp_path, capsys):
        emb = tmp_path / "chars.emb"
        emb.write_text("a " + "0.5 " * 7 + "1e39\n", encoding="utf-8")
        cfg = config_with(workspace, tmp_path, f"char_emb_file = {emb}\n")
        assert run(["train", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: {emb}:1: value '1e39' is not finite in float32"
        ]
        assert not (tmp_path / "ckpt").exists()

    def test_predict_splits_sentences_as_load_corpus_does(
        self, workspace, checkpoint, tmp_path
    ):
        # str.splitlines breaks at each of these; the corpus format does not
        gold = tmp_path / "gold.tsv"
        gold.write_text("a\tO\n\u2028\tO\n\x0c\tO\n\x1c\tO\n\x85\tO\nc\tO\n\nd\tO\n",
                        encoding="utf-8")
        pred = tmp_path / "pred.tsv"
        assert run(["predict", "--checkpoint", str(checkpoint),
                    "--input", str(gold), "--out", str(pred)]) == 0
        want = [["a", "\u2028", "\x0c", "\x1c", "\x85", "c"], ["d"]]
        assert [s.chars for s in load_corpus(gold).sentences] == want
        assert [s.chars for s in load_corpus(pred).sentences] == want
        assert run(["eval", "--gold", str(gold), "--pred", str(pred)]) == 0

    def test_predict_keeps_an_ideographic_space_line_in_its_sentence(
        self, workspace, checkpoint, tmp_path
    ):
        text = tmp_path / "in.txt"
        text.write_text("a\n\u3000\nb\n", encoding="utf-8")
        out = tmp_path / "out.tsv"
        assert run(["predict", "--checkpoint", str(checkpoint),
                    "--input", str(text), "--out", str(out)]) == 0
        assert [s.chars for s in load_corpus(out).sentences] == [["a", "\u3000", "b"]]

    def test_predict_refuses_an_empty_character_column(
        self, workspace, checkpoint, tmp_path, capsys
    ):
        text = tmp_path / "in.tsv"
        text.write_text("a\tO\n\tO\n", encoding="utf-8")
        out = tmp_path / "out.tsv"
        assert run(["predict", "--checkpoint", str(checkpoint),
                    "--input", str(text), "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: {text}:2: expected `char<TAB>tag`, got '\\tO'"
        ]
        assert run(["eval", "--gold", str(text), "--pred", str(text)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: {text}:2: expected `char<TAB>tag`, got '\\tO'"
        ]

    def test_predict_decodes_on_the_trained_graph_variant(self, workspace, tmp_path, capsys):
        # at this learning rate the 2-epoch model's tags depend on the word-word edges
        cfg = config_with(workspace, tmp_path, "lr = 0.05\n")
        assert run(["train", "--config", str(cfg), "--variant", "wo_word_edge"]) == 0
        model = ModelParams.load(tmp_path / "ckpt" / "best.ckpt")
        assert model.dims.variant == "wo_word_edge"
        out = tmp_path / "pred.tsv"
        assert run(["predict", "--checkpoint", str(tmp_path / "ckpt" / "best.ckpt"),
                    "--input", str(workspace / "dev.tsv"), "--out", str(out)]) == 0
        trie = build_trie(model.word_table.tokens)
        standard = copy.copy(model)
        standard.dims = dataclasses.replace(model.dims, variant="standard")
        want = []
        differs = False
        for s in load_corpus(workspace / "dev.tsv").sentences:
            sent = prepare_sentence(s.chars, trie)
            tags = decode_tags(model, sent)
            differs |= tags != decode_tags(standard, sent)
            want.extend(f"{c}\t{t}" for c, t in zip(s.chars, tags))
            want.append("")
        assert differs
        assert out.read_text(encoding="utf-8").splitlines() == want

    def test_predict_decodes_with_the_trained_constraints(self, workspace, tmp_path):
        cfg = config_with(workspace, tmp_path, "constrained_decode = true\n")
        assert run(["train", "--config", str(cfg)]) == 0
        model = ModelParams.load(tmp_path / "ckpt" / "best.ckpt")
        assert model.dims.constrained_decode is True
        # favour a tag that cannot open a span, so unconstrained decoding is ill-formed
        inside = next(k for k, t in enumerate(model.tagset) if t.startswith("I-"))
        model.crf.bias.data[inside] += 100.0
        model.save(tmp_path / "inside.ckpt")
        model = ModelParams.load(tmp_path / "inside.ckpt")
        out = tmp_path / "pred.tsv"
        assert run(["predict", "--checkpoint", str(tmp_path / "inside.ckpt"),
                    "--input", str(workspace / "dev.tsv"), "--out", str(out)]) == 0
        trie = build_trie(model.word_table.tokens)
        free = copy.copy(model)
        free.dims = dataclasses.replace(model.dims, constrained_decode=False)
        want = []
        for s in load_corpus(workspace / "dev.tsv").sentences:
            sent = prepare_sentence(s.chars, trie)
            tags = decode_tags(model, sent)
            assert well_formed(tags) and not well_formed(decode_tags(free, sent))
            want.extend(f"{c}\t{t}" for c, t in zip(s.chars, tags))
            want.append("")
        assert out.read_text(encoding="utf-8").splitlines() == want

    def test_library_decode_keeps_the_constraints_of_predict(self, workspace, checkpoint, tmp_path):
        model = ModelParams.load(checkpoint)
        model.dims.constrained_decode = True
        # favour a tag that cannot open a span, so unconstrained decoding is ill-formed
        inside = next(k for k, t in enumerate(model.tagset) if t.startswith("I-"))
        model.crf.bias.data[inside] += 100.0
        ckpt = tmp_path / "constrained.ckpt"
        model.save(ckpt)
        out = tmp_path / "pred.tsv"
        assert run(["predict", "--checkpoint", str(ckpt),
                    "--input", str(workspace / "dev.tsv"), "--out", str(out)]) == 0
        model = ModelParams.load(ckpt)
        trie = build_trie(model.word_table.tokens)
        want = []
        for s in load_corpus(workspace / "dev.tsv").sentences:
            tags = decode_tags(model, prepare_sentence(s.chars, trie))
            assert well_formed(tags)
            want.extend(f"{c}\t{t}" for c, t in zip(s.chars, tags))
            want.append("")
        assert out.read_text(encoding="utf-8").splitlines() == want

    def test_predict_lexicon_keeps_the_trained_word_length_cap(
        self, workspace, tmp_path, monkeypatch
    ):
        cfg = config_with(workspace, tmp_path, "max_word_len = 2\n")
        assert run(["train", "--config", str(cfg)]) == 0
        ckpt = tmp_path / "ckpt" / "best.ckpt"
        model = ModelParams.load(ckpt)
        assert model.dims.max_word_len == 2
        graphs = []

        def spy(*args, **kwargs):
            sent = prepare_sentence(*args, **kwargs)
            graphs.append(sent.graph)
            return sent

        monkeypatch.setattr(cli, "prepare_sentence", spy)
        lexicon = workspace / "lexicon.txt"
        out = tmp_path / "pred.tsv"
        assert run(["predict", "--checkpoint", str(ckpt), "--lexicon", str(lexicon),
                    "--input", str(workspace / "dev.tsv"), "--out", str(out)]) == 0
        lengths = [w.tail - w.head + 1 for g in graphs for w in g.words]
        assert lengths and max(lengths) == 2
        # the lexicon's 3-character words do occur in the input
        uncapped = build_trie(lexicon.read_text(encoding="utf-8").split())
        sentences = load_corpus(workspace / "dev.tsv").sentences
        assert any(
            w.tail - w.head == 2
            for s in sentences for w in prepare_sentence(s.chars, uncapped).graph.words
        )
        capped = build_trie(lexicon.read_text(encoding="utf-8").split(), 2)
        want = []
        for s in sentences:
            tags = decode_tags(model, prepare_sentence(s.chars, capped))
            want.extend(f"{c}\t{t}" for c, t in zip(s.chars, tags))
            want.append("")
        assert out.read_text(encoding="utf-8").splitlines() == want

    def test_diverging_training_is_a_numeric_failure(self, workspace, tmp_path, capsys):
        cfg = config_with(workspace, tmp_path, "lr = 1e30\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(["train", "--config", str(cfg)]) == 3
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert "numeric failure: non-finite loss" in capsys.readouterr().err

    def test_empty_training_corpus_is_data_error(self, workspace, tmp_path, capsys):
        empty = tmp_path / "empty.tsv"
        empty.write_text("", encoding="utf-8")
        cfg = config_with(workspace, tmp_path, f"train_file = {empty}\n")
        assert run(["train", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.splitlines() == ["error: no training sentences"]
        assert not (tmp_path / "ckpt").exists()

    def test_dev_sentence_without_gold_tags_is_data_error(
        self, workspace, tmp_path, monkeypatch, capsys
    ):
        calls = []

        def untagged_dev(corpus, trie, tagset):
            calls.append(corpus)
            sents = prepare_corpus(corpus, trie, tagset)
            return sents if len(calls) == 1 else [dataclasses.replace(s, tags=None) for s in sents]

        prepare_corpus = cli.prepare_corpus
        monkeypatch.setattr(cli, "prepare_corpus", untagged_dev)
        cfg = config_with(workspace, tmp_path, "epochs = 1\n")
        assert run(["train", "--config", str(cfg)]) == 2
        assert len(calls) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: cannot evaluate on sentences without gold tags"
        ]
        assert not (tmp_path / "ckpt" / "last.ckpt").exists()

    def test_truncated_checkpoint_header_is_data_error(
        self, workspace, checkpoint, tmp_path, capsys
    ):
        ckpt = tmp_path / "cut.ckpt"
        ckpt.write_bytes(checkpoint.read_bytes()[:15])
        assert run(["predict", "--checkpoint", str(ckpt),
                    "--input", str(workspace / "dev.tsv")]) == 2
        assert "cut.ckpt: header length is truncated" in capsys.readouterr().err

    @pytest.mark.parametrize("first", [b"\xff", b"x"])
    def test_checkpoint_header_that_is_not_utf8_json_is_data_error(
        self, workspace, checkpoint, tmp_path, capsys, first
    ):
        raw = bytearray(checkpoint.read_bytes())
        raw[len(CHECKPOINT_MAGIC) + 8] = first[0]  # the header's first byte
        ckpt = tmp_path / "bad.ckpt"
        ckpt.write_bytes(raw)
        assert run(["predict", "--checkpoint", str(ckpt),
                    "--input", str(workspace / "dev.tsv")]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: {ckpt}: header is not valid UTF-8 JSON"
        ]

    @pytest.mark.parametrize("hlen", [2**64 - 1, 2**45])
    def test_checkpoint_header_length_past_the_end_is_data_error(
        self, workspace, checkpoint, tmp_path, capsys, hlen
    ):
        raw = checkpoint.read_bytes()
        start = len(CHECKPOINT_MAGIC)
        ckpt = tmp_path / "long.ckpt"
        ckpt.write_bytes(raw[:start] + struct.pack("<Q", hlen) + raw[start + 8 :])
        assert run(["predict", "--checkpoint", str(ckpt),
                    "--input", str(workspace / "dev.tsv")]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: {ckpt}: header is truncated: "
            f"expected {hlen} bytes, found {len(raw) - start - 8}"
        ]

    def test_eval_bmes_files(self, tmp_path, capsys):
        gold, pred = tmp_path / "gold.tsv", tmp_path / "pred.tsv"
        gold.write_text("北\tB-LOC\n京\tE-LOC\n很\tO\n大\tS-LOC\n\n", encoding="utf-8")
        pred.write_text("北\tB-LOC\n京\tE-LOC\n很\tO\n大\tO\n\n", encoding="utf-8")
        args = ["eval", "--gold", str(gold), "--pred", str(pred)]
        assert run(args + ["--scheme", "bmes"]) == 0
        assert "precision=1.0000 recall=0.5000" in capsys.readouterr().out
        assert run(args) == 2
        assert "unknown tag 'E-LOC' for scheme bio" in capsys.readouterr().err
        assert run(args + ["--scheme", "bmeo"]) == 1

    def test_eval_refuses_a_prediction_of_other_text(self, tmp_path, capsys):
        gold, pred = tmp_path / "gold.tsv", tmp_path / "pred.tsv"
        gold.write_text("q\tO\n\na\tB-PER\nb\tI-PER\nc\tO\n", encoding="utf-8")
        pred.write_text("q\tO\n\nx\tB-PER\ny\tI-PER\nz\tO\n", encoding="utf-8")
        assert run(["eval", "--gold", str(gold), "--pred", str(pred)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: {pred}: sentence 2: characters differ from the gold file's"
        ]

    def test_empty_input_gives_empty_output(self, workspace, checkpoint, tmp_path):
        empty = tmp_path / "empty.tsv"
        empty.write_text("", encoding="utf-8")
        out = tmp_path / "out.tsv"
        assert run(["predict", "--checkpoint", str(checkpoint),
                    "--input", str(empty), "--out", str(out)]) == 0
        assert out.read_text(encoding="utf-8") == ""


class TestGradcheckCommand:
    def test_exits_zero_and_reports(self, workspace, capsys):
        assert run(["gradcheck", "--config", str(workspace / "tiny.cfg")]) == 0
        out = capsys.readouterr().out
        assert "max_rel_error=" in out

    def test_checks_the_configured_graph_variant(self, workspace, tmp_path, monkeypatch):
        probed, graphs = [], []

        def spy(model, sent, **kwargs):
            probed.append(sent)
            return cli_grad_check(model, sent, **kwargs)

        def layer_spy(h_c, h_w, graph, *args):
            graphs.append(graph)
            return fusion_layer(h_c, h_w, graph, *args)

        cli_grad_check, fusion_layer = cli.grad_check, fusion.fusion_layer
        monkeypatch.setattr(cli, "grad_check", spy)
        monkeypatch.setattr(fusion, "fusion_layer", layer_spy)
        cfg = config_with(workspace, tmp_path, "variant = fc_inter\n")
        assert run(["gradcheck", "--config", str(cfg)]) == 0
        sent = probed[-1]
        n, m = len(sent.chars), sent.graph.m
        assert m and graphs
        assert all(g.char_word.shape == (2, n * m) for g in graphs)

    def test_checks_the_configured_tag_scheme(self, workspace, tmp_path, monkeypatch):
        probed = []

        def spy(model, sent, **kwargs):
            probed.append((model, sent))
            return cli_grad_check(model, sent, **kwargs)

        cli_grad_check = cli.grad_check
        monkeypatch.setattr(cli, "grad_check", spy)
        cfg = config_with(workspace, tmp_path, "tag_scheme = bmes\n")
        assert run(["gradcheck", "--config", str(cfg)]) == 0
        model, sent = probed[-1]
        assert model.dims.tag_scheme == "bmes"
        # the probe's gold tags are ids into the model's own BMES tagset
        tags = [model.tagset[i] for i in sent.tags]
        spans = tags_to_spans(tags, "bmes")
        assert spans and spans_to_tags(spans, len(tags), "bmes") == tags

    def test_retries_on_a_relu_kink(self, workspace, monkeypatch, capsys):
        models = []

        def kink_first(model, sent, **kwargs):
            models.append(model)
            if len(models) == 1:
                raise ReluKinkError("relu pre-activation within 0.0001 of zero")
            return cli_grad_check(model, sent, **kwargs)

        cli_grad_check = cli.grad_check
        monkeypatch.setattr(cli, "grad_check", kink_first)
        assert run(["gradcheck", "--config", str(workspace / "tiny.cfg")]) == 0
        assert len(models) >= 2  # re-seeded past the refused first model
        assert "gradcheck ok" in capsys.readouterr().out

    def test_other_numeric_errors_are_not_retried(self, workspace, monkeypatch, capsys):
        models = []

        def fails(model, sent, **kwargs):
            models.append(model)
            raise NumericError("relu kink named, but not a kink refusal")

        monkeypatch.setattr(cli, "grad_check", fails)
        assert run(["gradcheck", "--config", str(workspace / "tiny.cfg")]) == 3
        assert len(models) == 1
        assert capsys.readouterr().err.splitlines() == [
            "numeric failure: relu kink named, but not a kink refusal"
        ]


class TestStats:
    def test_reports_counts(self, workspace, capsys):
        assert run(["stats", "--corpus", str(workspace / "train.tsv"),
                    "--lexicon", str(workspace / "lexicon.txt")]) == 0
        out = capsys.readouterr().out
        assert "sentences 40" in out
        assert "entity_avg" in out and "rate_word_ent" in out

    def test_bmes_corpus_reports_as_its_bio_form(self, workspace, tmp_path, capsys):
        bio = load_corpus(workspace / "train.tsv")
        bmes = Corpus(
            [Sentence(s.chars, spans_to_tags(tags_to_spans(s.tags), len(s), "bmes"))
             for s in bio.sentences],
            "bmes",
        )
        assert any(t.startswith("E-") for s in bmes.sentences for t in s.tags)
        write_corpus_file(tmp_path / "bmes.tsv", bmes)
        lexicon = ["--lexicon", str(workspace / "lexicon.txt")]
        assert run(["stats", "--corpus", str(workspace / "train.tsv")] + lexicon) == 0
        expected = capsys.readouterr().out
        assert run(["stats", "--corpus", str(tmp_path / "bmes.tsv"),
                    "--scheme", "bmes"] + lexicon) == 0
        assert capsys.readouterr().out == expected
        assert run(["stats", "--corpus", str(tmp_path / "bmes.tsv"),
                    "--scheme", "bmeo"] + lexicon) == 1
