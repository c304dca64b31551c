"""The command-line surface: subcommands, formats, exit codes."""

import json
import struct

import numpy as np
import pytest

from lexner.cli import run
from lexner.data import Corpus, load_corpus
from lexner.matching import build_trie
from lexner.model import CHECKPOINT_MAGIC, ModelDims, ModelParams
from lexner.synthetic import make_overfit_corpus

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


def edited_checkpoint(workspace, path, edit):
    """Write to `path` the trained checkpoint with `edit` applied to its JSON header."""
    raw = (workspace / "ckpt" / "best.ckpt").read_bytes()
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


class TestUsage:
    def test_help_exits_zero(self, capsys):
        assert run(["--help"]) == 0
        assert "subcommand" in capsys.readouterr().out or True

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
            assert surface in trie

    def test_out_file(self, workspace, tmp_path):
        out = tmp_path / "matches.tsv"
        assert run(["match", "--lexicon", str(workspace / "lexicon.txt"),
                    "--input", str(workspace / "sentences.txt"),
                    "--out", str(out)]) == 0
        assert out.read_text(encoding="utf-8").count("\n") > 0


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

    def test_predict_is_deterministic(self, workspace, tmp_path):
        a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
        for out in (a, b):
            assert run(["predict", "--checkpoint", str(workspace / "ckpt" / "best.ckpt"),
                        "--input", str(workspace / "dev.tsv"), "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_zero_initialized_model_predicts_first_label(self, workspace, tmp_path, capsys):
        model = ModelParams.load(workspace / "ckpt" / "best.ckpt")
        for t in model.parameters().values():
            t.data[np.isfinite(t.data)] = 0.0
        zero_ckpt = tmp_path / "zero.ckpt"
        model.save(zero_ckpt)
        out = tmp_path / "zero_pred.tsv"
        assert run(["predict", "--checkpoint", str(zero_ckpt),
                    "--input", str(workspace / "dev.tsv"), "--out", str(out)]) == 0
        tags = {l.split("\t")[1] for l in out.read_text().splitlines() if l}
        assert tags == {model.tagset[0]} == {"O"}

    def test_600_character_sentence_is_tagged(self, workspace, tmp_path, capsys):
        long_input = tmp_path / "long.txt"
        long_input.write_text("a\n" * 600, encoding="utf-8")
        assert run(["predict", "--checkpoint", str(workspace / "ckpt" / "best.ckpt"),
                    "--input", str(long_input)]) == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l]
        assert len(lines) == 600 and all(l.startswith("a\t") for l in lines)

    def test_checkpoint_header_without_dims_is_data_error(self, workspace, tmp_path, capsys):
        ckpt = edited_checkpoint(workspace, tmp_path / "nodims.ckpt", lambda h: h.pop("dims"))
        assert run(["predict", "--checkpoint", str(ckpt),
                    "--input", str(workspace / "dev.tsv")]) == 2
        assert "nodims.ckpt: header lacks dims" in capsys.readouterr().err

    def test_checkpoint_dims_of_the_wrong_type_is_data_error(self, workspace, tmp_path, capsys):
        ckpt = edited_checkpoint(
            workspace, tmp_path / "strdims.ckpt", lambda h: h["dims"].update(d_c="abc")
        )
        assert run(["predict", "--checkpoint", str(ckpt),
                    "--input", str(workspace / "dev.tsv")]) == 2
        assert "strdims.ckpt: dims field d_c must be int, found 'abc'" in capsys.readouterr().err

    def test_checkpoint_tensor_entry_without_shape_is_data_error(
        self, workspace, tmp_path, capsys
    ):
        ckpt = edited_checkpoint(
            workspace, tmp_path / "noshape.ckpt", lambda h: h["tensors"][0].pop("shape")
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
          "multiplicative_mask is true; that ablation was removed")],
        ids=["zero-heads", "zero-d_c", "tensors", "dims", "multiplicative-mask"],
    )
    def test_checkpoint_header_out_of_range_is_data_error(
        self, workspace, tmp_path, capsys, edit, message
    ):
        ckpt = edited_checkpoint(workspace, tmp_path / "bad.ckpt", edit)
        assert run(["predict", "--checkpoint", str(ckpt),
                    "--input", str(workspace / "dev.tsv")]) == 2
        assert f"bad.ckpt: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("line, message", [
        ("heads = 0", "heads must be at least 1, found 0"),
        ("heads = -2", "heads must be at least 1, found -2"),
        ("d_w = 0", "d_w must be at least 1, found 0"),
        ("multiplicative_mask = false", "unknown config key 'multiplicative_mask'"),
    ])
    def test_train_config_out_of_range_is_data_error(
        self, workspace, tmp_path, capsys, line, message
    ):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(
            (workspace / "tiny.cfg").read_text(encoding="utf-8")
            + f"checkpoint_dir = {tmp_path / 'ckpt'}\n{line}\n",
            encoding="utf-8",
        )
        assert run(["train", "--config", str(cfg)]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "ckpt").exists()

    def test_truncated_checkpoint_header_is_data_error(self, workspace, tmp_path, capsys):
        ckpt = tmp_path / "cut.ckpt"
        ckpt.write_bytes((workspace / "ckpt" / "best.ckpt").read_bytes()[:15])
        assert run(["predict", "--checkpoint", str(ckpt),
                    "--input", str(workspace / "dev.tsv")]) == 2
        assert "cut.ckpt: header length is truncated" in capsys.readouterr().err

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

    def test_empty_input_gives_empty_output(self, workspace, tmp_path):
        empty = tmp_path / "empty.tsv"
        empty.write_text("", encoding="utf-8")
        out = tmp_path / "out.tsv"
        assert run(["predict", "--checkpoint", str(workspace / "ckpt" / "best.ckpt"),
                    "--input", str(empty), "--out", str(out)]) == 0
        assert out.read_text(encoding="utf-8") == ""


class TestGradcheckCommand:
    def test_exits_zero_and_reports(self, workspace, capsys):
        assert run(["gradcheck", "--config", str(workspace / "tiny.cfg")]) == 0
        out = capsys.readouterr().out
        assert "max_rel_error=" in out


class TestStats:
    def test_reports_counts(self, workspace, capsys):
        assert run(["stats", "--corpus", str(workspace / "train.tsv"),
                    "--lexicon", str(workspace / "lexicon.txt")]) == 0
        out = capsys.readouterr().out
        assert "sentences 40" in out
        assert "entity_avg" in out and "rate_word_ent" in out
