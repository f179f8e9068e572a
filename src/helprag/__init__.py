"""Graph-based passage retrieval with hypernode expansion and path-guided
evidence localization.

Pipeline: a corpus of passages with extracted (head, relation, tail) triples
is indexed into a knowledge graph with a triple-to-passage provenance map;
at query time, seed triplets closest to the query grow into multi-triplet
reasoning paths by beam search, the final paths score their source passages
through the provenance weights, and a dense cosine channel backfills the
remaining context slots.

The names below are the index -> query -> evaluate path; the stage
functions are importable from their own modules. The evaluation names load
``helprag.evaluation`` on first use, so importing the package (or the CLI
for a query) does not.
"""

from .encoding import Encoder, HashEncoder, OracleEncoder, RemoteEncoder
from .errors import HelpRagError
from .expansion import ExpansionConfig, HyperNode
from .ingestion import CorpusRecord, build_and_embed, extract_triples, load_corpus, load_index, save_index
from .kg import KnowledgeGraph, Triplet
from .localization import HybridConfig, RetrievalResult, ScoredPassage, retrieve_result

__version__ = "0.1.0"

_EVALUATION_NAMES = ("BenchReport", "QARecord", "gen_synthetic", "load_qa", "run_benchmark")


def __getattr__(name: str):
    if name in _EVALUATION_NAMES:
        from . import evaluation

        return getattr(evaluation, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "BenchReport",
    "CorpusRecord",
    "Encoder",
    "ExpansionConfig",
    "HashEncoder",
    "HelpRagError",
    "HybridConfig",
    "HyperNode",
    "KnowledgeGraph",
    "OracleEncoder",
    "QARecord",
    "RemoteEncoder",
    "RetrievalResult",
    "ScoredPassage",
    "Triplet",
    "build_and_embed",
    "extract_triples",
    "gen_synthetic",
    "load_corpus",
    "load_index",
    "load_qa",
    "retrieve_result",
    "run_benchmark",
    "save_index",
]
