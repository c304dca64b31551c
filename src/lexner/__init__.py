"""Lexicon-enhanced character-level NER.

Pipeline: lexicon trie matching -> unified lattice graph -> multi-source
fusion encoder -> CRF tagging, trained jointly with a word-property
auxiliary task under a decaying trade-off schedule.
"""

from .autograd import Tensor
from .crf import CrfParams, emission_scores, log_partition, nll_loss, viterbi_decode
from .data import (
    Corpus,
    EvalReport,
    Sentence,
    corpus_stats,
    evaluate,
    load_corpus,
    load_lexicon,
    make_tagset,
    spans_to_tags,
    tags_to_spans,
)
from .encoding import EmbeddingTable, WordProjection, encode_position
from .fusion import FusionLayerParams, fusion_layer, intra_source_attention
from .graph import GRAPH_VARIANTS, LatticeGraph, build_graph, graph_variant
from .matching import (
    COVER,
    DISTURB,
    MATCH,
    LexiconTrie,
    MatchedWord,
    build_trie,
    label_lec,
    match_sentence,
)
from .model import EncodedSentence, ModelParams, predict_lec, prepare_corpus, prepare_sentence
from .trainer import Adam, TrainConfig, grad_check, lambda_schedule, total_loss, train

__version__ = "0.1.0"
