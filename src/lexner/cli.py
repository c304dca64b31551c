"""Command-line interface: one binary, one subcommand per pipeline stage.

Exit codes: 0 success, 1 usage error, 2 data error (bad files, malformed
input, shape mismatches), 3 numeric failure (non-finite loss, failed
gradient check).
"""

from __future__ import annotations

import argparse
import sys
from contextlib import nullcontext

import numpy as np

from . import model as model_mod
from .data import (
    SCHEMES,
    CorpusError,
    corpus_stats,
    evaluate,
    load_corpus,
    load_lexicon,
    malformed_line,
    read_lines,
    read_sentences,
    spans_to_tags,
    tags_to_spans,
)
from .encoding import EmbeddingTable
from .graph import GRAPH_VARIANTS, graph_variant, serialize_graph
from .matching import build_trie, match_sentence
from .model import ModelParams, prepare_corpus, prepare_sentence
from .synthetic import make_overfit_corpus
from .trainer import NumericError, ReluKinkError, TrainConfig, grad_check, train


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); we map usage errors to 1
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="lexner", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("match",
                       help="emit matched lexicon words per sentence")
    p.add_argument("--lexicon", required=True)
    p.add_argument("--input", required=True, help="plain text, one sentence per line")
    p.add_argument("--out", default=None)

    p = sub.add_parser("graph",
                       help="emit the serialized lattice graph per sentence")
    p.add_argument("--lexicon", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--variant", default="standard", choices=GRAPH_VARIANTS)
    p.add_argument("--out", default=None)

    p = sub.add_parser("train", help="train a model")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--variant", default=None, choices=GRAPH_VARIANTS)

    p = sub.add_parser("eval",
                       help="strict span+type evaluation of predictions")
    p.add_argument("--gold", required=True)
    p.add_argument("--pred", required=True)
    p.add_argument("--scheme", default="bio", choices=SCHEMES)

    p = sub.add_parser("predict",
                       help="tag an input file with a trained checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--lexicon", default=None,
                   help="defaults to the lexicon stored in the checkpoint")
    p.add_argument("--out", default=None)

    p = sub.add_parser("gradcheck",
                       help="verify gradients against finite differences")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("stats",
                       help="corpus statistics and lexicon coverage")
    p.add_argument("--corpus", required=True)
    p.add_argument("--lexicon", required=True)
    p.add_argument("--scheme", default="bio", choices=SCHEMES)
    return parser


def _output(path: str | None):
    """A context manager for the file at ``path``, or for stdout, left open, without one."""
    return open(path, "w", encoding="utf-8") if path else nullcontext(sys.stdout)


def _each_line(args, render) -> int:
    """Write ``render(sid, line, trie)`` for each non-empty line of ``--input``,
    where ``sid`` is the line's 0-based number."""
    trie = build_trie(load_lexicon(args.lexicon))
    lines = [(lineno - 1, line) for lineno, line in read_lines(args.input) if line]
    with _output(args.out) as out:
        for sid, line in lines:
            out.write(render(sid, line, trie))
    return 0


def _cmd_match(args) -> int:
    def render(sid, line, trie):
        words, _ = match_sentence(trie, line)
        return "".join(f"{sid}\t{w.head}\t{w.tail}\t{w.surface}\n" for w in words)

    return _each_line(args, render)


def _cmd_graph(args) -> int:
    def render(sid, line, trie):
        graph = graph_variant(prepare_sentence(line, trie).graph, args.variant)
        return f"sentence {sid}\n{serialize_graph(graph)}\n"

    return _each_line(args, render)


def _load_embeddings(path: str, vocab, dim: int, rng):
    if path:
        table = EmbeddingTable.from_file(path, vocab=vocab, rng=rng, dtype=np.float32)
        if table.dim != dim:
            raise CorpusError(f"{path}: embedding dim {table.dim} does not match config {dim}")
        return table
    return EmbeddingTable.random(vocab, dim, rng, dtype=np.float32)


def _cmd_train(args) -> int:
    cfg = TrainConfig.from_file(
        args.config, overrides={"seed": args.seed, "variant": args.variant}
    )
    if not cfg.train_file or not cfg.lexicon_file:
        raise CorpusError("config must set train_file and lexicon_file")
    corpus = load_corpus(cfg.train_file, cfg.tag_scheme)
    dev = load_corpus(cfg.dev_file, cfg.tag_scheme) if cfg.dev_file else None
    for name, loaded in (("train", corpus), ("dev", dev)):
        if loaded is not None:
            print(f"corpus={name} repaired_tags={loaded.repaired_tags}")
    lexicon = load_lexicon(cfg.lexicon_file)
    trie = build_trie(lexicon, cfg.max_word_len)
    char_vocab = sorted({c for s in corpus.sentences for c in s.chars})
    types = set(corpus.entity_types()) | (set(dev.entity_types()) if dev else set())
    rng = np.random.default_rng(cfg.seed)
    char_table = _load_embeddings(cfg.char_emb_file, char_vocab, cfg.d_c, rng)
    word_table = _load_embeddings(cfg.word_emb_file, trie.words, cfg.d_w, rng)
    model = ModelParams.build(
        cfg.dims(), char_vocab, trie.words, sorted(types), rng,
        char_table=char_table, word_table=word_table,
    )
    train_sents = prepare_corpus(corpus, trie, model.tagset)
    dev_sents = prepare_corpus(dev, trie, model.tagset) if dev else None
    train(model, train_sents, cfg, dev_sents=dev_sents, log=print)
    return 0


def _cmd_eval(args) -> int:
    gold = load_corpus(args.gold, args.scheme)
    pred = load_corpus(args.pred, args.scheme)
    for k, (p, g) in enumerate(zip(pred.sentences, gold.sentences), start=1):
        if p.chars != g.chars:
            raise CorpusError(f"{args.pred}: sentence {k}: characters differ from the gold file's")
    report = evaluate([s.tags for s in pred.sentences], gold)
    print(report.format())
    return 0


def _cmd_predict(args) -> int:
    model = ModelParams.load(args.checkpoint)
    lexicon = load_lexicon(args.lexicon) if args.lexicon else model.word_table.tokens
    # match as the model was trained; the model applies its variant and constraints itself
    trie = build_trie(lexicon, model.dims.max_word_len)
    # the corpus format, split as load_corpus splits it; a tag column is ignored
    sentences = []
    for block in read_sentences(args.input):
        chars = [line.split("\t", 1)[0] for _, line in block]
        if "" in chars:
            raise malformed_line(args.input, *block[chars.index("")])
        sentences.append(chars)
    with _output(args.out) as out:
        for chars in sentences:
            tags = model_mod.decode_tags(model, prepare_sentence(chars, trie))
            for c, t in zip(chars, tags):
                out.write(f"{c}\t{t}\n")
            out.write("\n")
    return 0


def _cmd_gradcheck(args) -> int:
    cfg = TrainConfig.from_file(args.config, overrides={"seed": args.seed})
    dims = cfg.dims()
    corpus, lexicon = make_overfit_corpus(seed=13)
    trie = build_trie(lexicon, dims.max_word_len)
    # pick a sentence with a healthy word set; its gold tags in the model's scheme
    sent_src = max(corpus.sentences, key=lambda s: len(match_sentence(trie, s.chars)[0]))
    spans = tags_to_spans(sent_src.tags, corpus.scheme)
    gold = spans_to_tags(spans, len(sent_src), dims.tag_scheme)
    chars = sorted({c for s in corpus.sentences for c in s.chars})
    report = None
    for attempt in range(8):  # re-seed if a relu input sits on its kink
        rng = np.random.default_rng(cfg.seed + attempt)
        model = ModelParams.build(dims, chars, trie.words, corpus.entity_types(), rng, np.float64)
        sent = prepare_sentence(sent_src.chars, trie, model.tagset, gold, dims.tag_scheme)
        try:
            report = grad_check(model, sent, lam=0.3)
            break
        except ReluKinkError:
            continue
    if report is None:
        raise NumericError("could not find a kink-free configuration")
    print(report.format())
    if not report.ok:
        w = report.worst
        print(
            f"gradient mismatch in tensor {w.tensor} at index {list(w.index)}",
            file=sys.stderr,
        )
        return 3
    return 0


def _cmd_stats(args) -> int:
    corpus = load_corpus(args.corpus, args.scheme)
    trie = build_trie(load_lexicon(args.lexicon))
    print(corpus_stats(corpus, trie).format())
    return 0


_COMMANDS = {
    "match": _cmd_match,
    "graph": _cmd_graph,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "predict": _cmd_predict,
    "gradcheck": _cmd_gradcheck,
    "stats": _cmd_stats,
}


def run(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        # a diverging model overflows on the way to its non-finite loss; the
        # loss check reports that once, as a numeric failure
        with np.errstate(all="ignore"):
            return _COMMANDS[args.command](args)
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except (CorpusError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
