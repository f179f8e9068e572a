"""Command-line surface: index, query, bench, and gen-synthetic subcommands.

Exit codes: 0 on success, 2 for configuration or input errors, 3 when an
external service (embeddings or chat) fails. All defaults match the engine's
standard configuration (hops=2, seeds=3, beam=50, quota=4, context=5).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Sequence

from .encoding import encoder_from_spec
from .errors import EncoderFailure, HelpRagError, InvalidParams, ServiceReplyError, ServiceUnreachable
from .expansion import ExpansionConfig
from .ingestion import build_and_embed, extract_triples, load_corpus, load_index, save_index
from .localization import HybridConfig, retrieve_result
from .services import ServiceConfig

QUERY_SCHEMA = "helprag-query/1"


def _add_encoder_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--encoder",
        default="hash",
        help="encoder backend: hash | oracle:<vectors.json> | remote (default: hash)",
    )


def _add_retrieval_flags(parser: argparse.ArgumentParser) -> None:
    for flag, default, text in (
        ("--hops", ExpansionConfig.hops, "expansion hops"),
        ("--seeds", ExpansionConfig.seed_size, "initial seed triple count"),
        ("--beam", ExpansionConfig.beam_size, "beam width per hop"),
        ("--quota", HybridConfig.quota, "path-channel context quota"),
        ("--topk", HybridConfig.context_size, "total context size"),
    ):
        parser.add_argument(flag, type=int, default=default, help=f"{text} (default %(default)s)")


def _expansion_from(args: argparse.Namespace) -> ExpansionConfig:
    return ExpansionConfig(hops=args.hops, seed_size=args.seeds, beam_size=args.beam)


def _hybrid_from(args: argparse.Namespace) -> HybridConfig:
    return HybridConfig(quota=args.quota, context_size=args.topk)


def cmd_index(args: argparse.Namespace) -> int:
    encoder = encoder_from_spec(args.encoder)
    records = load_corpus(args.corpus)
    if args.extract:
        records = extract_triples(records, ServiceConfig.from_env("HELP_LLM"))
    graph = build_and_embed(records, encoder)
    manifest = save_index(args.out, graph)
    print(
        f"wrote index bundle to {args.out}: "
        f"{manifest['counts']['passages']} passages, {manifest['counts']['triplets']} triplets, "
        f"encoder {manifest['encoder_id']}, dim {manifest['dim']}"
    )
    return 0


def _result_to_dict(result) -> dict:
    return {
        "schema": QUERY_SCHEMA,
        "query": result.query,
        "hypernodes": [
            {
                "triplets": [[t.head, t.relation, t.tail] for t in sorted(node.triplets)],
                "distance": node.query_distance,
            }
            for node in result.hypernodes
        ],
        "passages": [
            {
                "id": p.id,
                "score": p.score,
                "channel": p.channel,
                "supporting_triplets": [[t.head, t.relation, t.tail] for t in p.supporting_triplets],
            }
            for p in result.passages
        ],
        "timings_ms": result.timings_ms,
    }


def cmd_query(args: argparse.Namespace) -> int:
    encoder = encoder_from_spec(args.encoder)
    graph = load_index(args.index)
    result = retrieve_result(graph, encoder, args.question, _expansion_from(args), _hybrid_from(args))

    if args.format == "json":
        print(json.dumps(_result_to_dict(result), indent=2, sort_keys=True))
        return 0

    print(f"query: {result.query}")
    print(f"paths ({len(result.hypernodes)}):")
    for node in result.hypernodes:
        # the triplets, not the text: distinct paths can render the same text
        fields = (json.dumps([t.head, t.relation, t.tail], ensure_ascii=False) for t in sorted(node.triplets))
        print(f"  dist={node.query_distance:.6f}  {'; '.join(fields)}")
    print("passages:")
    for rank, p in enumerate(result.passages, start=1):
        support = f", {len(p.supporting_triplets)} supporting triplet(s)" if p.supporting_triplets else ""
        print(f"  {rank}. {p.id}  score={p.score:.6f}  [{p.channel}]{support}")
    timings = ", ".join(f"{k}={v:.1f}ms" for k, v in result.timings_ms.items())
    print(f"timings: {timings}")
    return 0


def _parse_values(text: str) -> list[int]:
    text = text.strip()
    if ".." in text:
        lo, hi = text.split("..", 1)
        values = list(range(int(lo), int(hi) + 1))
        if not values:
            raise InvalidParams(f"empty grid range {text!r}")
        return values
    return [int(text)]


def _parse_grid(spec: str) -> dict[str, list[int]]:
    """Parse 'seed=1..5,beam=30,50,70' into {'seed': [1..5], 'beam': [30, 50, 70]}."""
    groups: dict[str, list[int]] = {}
    current: str | None = None
    for segment in spec.split(","):
        if "=" in segment:
            key, value = segment.split("=", 1)
            current = key.strip()
            if current in groups:
                raise InvalidParams(f"duplicate grid parameter {current!r}")
            groups[current] = _parse_values(value)
        elif current is not None:
            groups[current].extend(_parse_values(segment))
        else:
            raise InvalidParams(f"bad grid spec {spec!r}")
    if not groups:
        raise InvalidParams(f"bad grid spec {spec!r}")
    return groups


# grid parameter -> the retrieval flag it overrides
_SWEEPABLE = {"hops": "hops", "quota": "quota", "seed": "seeds", "beam": "beam"}


def cmd_bench(args: argparse.Namespace) -> int:
    from .evaluation import load_qa, run_benchmark  # off the query path

    encoder = encoder_from_spec(args.encoder)
    qa_records = load_qa(args.qa)
    generation = ServiceConfig.from_env("HELP_LLM") if args.generate else None

    groups = _parse_grid(args.grid) if args.grid else {}
    unknown = groups.keys() - _SWEEPABLE.keys()
    if unknown:
        raise InvalidParams(f"cannot sweep over {sorted(unknown)}; choose from {sorted(_SWEEPABLE)}")

    # cartesian product over swept parameters; a single empty point when none
    points: list[dict[str, int]] = [{}]
    for key, values in groups.items():
        points = [dict(p, **{key: v}) for p in points for v in values]

    # every point's configs are built, and so validated, before any point runs
    runs = []
    for point in points:
        point_args = argparse.Namespace(**{**vars(args), **{_SWEEPABLE[k]: v for k, v in point.items()}})
        runs.append((point, _expansion_from(point_args), _hybrid_from(point_args)))

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for point, expansion, hybrid in runs:
        report = run_benchmark(args.index, qa_records, expansion, hybrid, encoder, generation)
        suffix = "_".join(f"{k}{v}" for k, v in sorted(point.items())) or "single"
        path = out_dir / f"report_{suffix}.json"
        report.write(path)
        agg = report.aggregates
        extras = f" mean_f1={agg['mean_f1']:.4f} em={agg['em_rate']:.4f}" if "mean_f1" in agg else ""
        label = ", ".join(f"{k}={v}" for k, v in sorted(point.items())) or "defaults"
        print(
            f"[{label}] recall@{agg['k']}={agg['recall_at_k']:.4f} "
            f"mean_latency={agg['mean_latency_s']:.4f}s{extras} -> {path}"
        )
    return 0


def cmd_gen_synthetic(args: argparse.Namespace) -> int:
    from .evaluation import gen_synthetic  # off the query path

    fixture = gen_synthetic(args.chains, args.hops, args.distractors, args.seed)
    fixture.write(args.out)
    print(
        f"wrote synthetic fixture to {args.out}: "
        f"{len(fixture.corpus)} passages, {len(fixture.qa)} questions, "
        f"oracle dim {fixture.oracle_table['dim']}"
    )
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="helprag", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("index", help="build and persist an index bundle from a JSONL corpus")
    p.add_argument("--corpus", required=True, help="input corpus (JSONL with id/text/triples)")
    p.add_argument("--out", required=True, help="output bundle directory")
    p.add_argument("--extract", action="store_true", help="extract missing triples via HELP_LLM_* service")
    _add_encoder_flag(p)
    p.set_defaults(func=cmd_index)

    p = sub.add_parser("query", help="retrieve context passages for one question")
    p.add_argument("--index", required=True, help="index bundle directory")
    p.add_argument("--question", required=True)
    p.add_argument("--format", choices=("json", "text"), default="json")
    _add_encoder_flag(p)
    _add_retrieval_flags(p)
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("bench", help="run retrieval benchmark over a QA set")
    p.add_argument("--index", required=True, help="index bundle directory")
    p.add_argument("--qa", required=True, help="QA set (JSONL)")
    p.add_argument("--out", default="bench_reports", help="directory for report JSON files")
    p.add_argument("--grid", help="parameter grid, one report per point, e.g. quota=0..5 or seed=1..5,beam=30,50")
    p.add_argument("--generate", action="store_true", help="generate answers via HELP_LLM_* service")
    _add_encoder_flag(p)
    _add_retrieval_flags(p)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("gen-synthetic", help="emit a deterministic multi-hop fixture")
    p.add_argument("--chains", type=int, default=100)
    p.add_argument("--hops", type=int, default=2)
    p.add_argument("--distractors", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output fixture directory")
    p.set_defaults(func=cmd_gen_synthetic)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (EncoderFailure, ServiceReplyError, ServiceUnreachable) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (HelpRagError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
