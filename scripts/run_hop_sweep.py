#!/usr/bin/env python3
"""Measure retrieval time as the expansion hop count N grows.

Indexes a dense random graph (10k unique triplets over a 400-entity pool, so
every hop multiplies the candidate frontier) with the hash encoder and times
retrieval at N = 1..4. Expect roughly exponential growth in retrieval time;
quality on real corpora typically peaks well before the latency does.

Each N asks one question ``--repeats`` times. From N = 3 on, the first asking
also counts the triplet pieces that pruning composes path counts from, and
the graph keeps them, so the later askings (and the first at the next N)
reuse them. The first asking's time is printed beside the median of the
rest ("-" when there is no rest).

Usage: python3 scripts/run_hop_sweep.py [--triplets 10000] [--repeats 5]
"""

from __future__ import annotations

import argparse
import random
import statistics
import time

from helprag.encoding import HashEncoder
from helprag.expansion import ExpansionConfig
from helprag.ingestion import CorpusRecord, build_and_embed
from helprag.localization import HybridConfig, retrieve_result


def random_triplet_corpus(total: int, entity_pool: int, seed: int) -> list[CorpusRecord]:
    rng = random.Random(seed)
    entities = [f"entity {i:03d}" for i in range(entity_pool)]
    relations = ["links to", "supplies", "reports to", "borders", "mentors"]
    triples: set[tuple[str, str, str]] = set()
    while len(triples) < total:
        triples.add((rng.choice(entities), rng.choice(relations), rng.choice(entities)))
    ordered = sorted(triples)
    return [
        CorpusRecord(
            f"p{i // 5:05d}",
            f"passage {i // 5} covers {ordered[i][0]} and {ordered[min(i + 4, total - 1)][2]}.",
            tuple(ordered[i : i + 5]),
        )
        for i in range(0, total, 5)
    ]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--triplets", type=int, default=10_000)
    parser.add_argument("--entities", type=int, default=400)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--max-hops", type=int, default=4)
    parser.add_argument("--seed", type=int, default=268)
    args = parser.parse_args()

    encoder = HashEncoder()
    t0 = time.perf_counter()
    graph = build_and_embed(random_triplet_corpus(args.triplets, args.entities, args.seed), encoder)
    print(f"indexed {len(graph.index.catalog)} triplets in {time.perf_counter() - t0:.2f}s")

    question = "which entity ultimately reports to entity 042?"
    print(f"{'N':>3}  {'first (ms)':>10}  {'median of rest (ms)':>19}  {'paths':>6}")
    for hops in range(1, args.max_hops + 1):
        times = []
        for _ in range(args.repeats):
            started = time.perf_counter()
            result = retrieve_result(
                graph, encoder, question, ExpansionConfig(hops=hops), HybridConfig()
            )
            times.append(time.perf_counter() - started)
        rest = f"{statistics.median(times[1:]) * 1e3:.1f}" if len(times) > 1 else "-"
        print(f"{hops:>3}  {times[0] * 1e3:>10.1f}  {rest:>19}  {len(result.hypernodes):>6}")


if __name__ == "__main__":
    main()
