"""Seeded workload generators for the retrieval benchmark.

Every input the program sees is made here from ``--seed``: the corpus, the
question schedule, and for ``chain-qa`` the oracle vector table. The
parameters of each workload live in :data:`WORKLOADS`; ``README.md`` in
this directory says why each workload was chosen and which layers it loads.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from pathlib import Path

from helprag.encoding import Encoder, encoder_from_spec
from helprag.evaluation import gen_synthetic
from helprag.ingestion import CorpusRecord

RELATIONS = ("links to", "supplies", "reports to", "borders", "mentors")
TRIPLETS_PER_PASSAGE = 5
QUESTION = "how is {head} connected to {tail}?"
SCHEDULE_LEN = 20_000


@dataclass(frozen=True)
class Spec:
    """Generator and retrieval parameters of one workload."""

    name: str
    generator: str
    hops: int
    params: dict = field(default_factory=dict)
    # queries re-derived with the brute-force references (0: too large for them)
    oracle_sample: int = 0
    # index builds and setups per run, each reported as a median; about 3 s
    # of each at this commit, so cheap steps shed more host noise. A fixed
    # count keeps peak RSS, which grows with repetitions, independent of speed
    reps: int = 3


WORKLOADS = {
    spec.name: spec
    for spec in (
        Spec(
            "deep-paths",
            "random-graph",
            hops=3,
            params={"triplets": 10_000, "entities": 400, "question_skew": "zipf", "zipf_s": 1.1},
            oracle_sample=2,
            reps=4,
        ),
        Spec(
            "wide-catalog",
            "random-graph",
            hops=2,
            params={"triplets": 100_000, "entities": 4_000, "question_skew": "uniform-distinct"},
        ),
        Spec(
            "chain-qa",
            "gen_synthetic",
            hops=2,
            params={"chains": 300, "chain_hops": 2, "distractors": 20},
            oracle_sample=5,
            reps=6,
        ),
    )
}


@dataclass
class Inputs:
    """What one run feeds the program: corpus, encoder recipe, questions."""

    records: list[CorpusRecord]
    questions: list[str]
    encoder_spec: str
    # question -> gold passage ids, for workloads with gold evidence (chain-qa)
    gold: dict[str, tuple[str, ...]] = field(default_factory=dict)
    # question -> the (head, tail) entity pair it asks about, on the random graphs
    asks: dict[str, tuple[str, str]] = field(default_factory=dict)

    def make_encoder(self) -> Encoder:
        """Construct the encoder as ``helprag query --encoder <spec>`` does."""
        return encoder_from_spec(self.encoder_spec)


def _entity_names(count: int) -> list[str]:
    width = max(3, len(str(count - 1)))
    return [f"entity {i:0{width}d}" for i in range(count)]


def random_graph_corpus(triplets: int, entities: list[str], rng: random.Random) -> list[CorpusRecord]:
    """Distinct random triplets over an entity pool, five to a passage."""
    triples: set[tuple[str, str, str]] = set()
    while len(triples) < triplets:
        triples.add((rng.choice(entities), rng.choice(RELATIONS), rng.choice(entities)))
    ordered = sorted(triples)
    n = TRIPLETS_PER_PASSAGE
    return [
        CorpusRecord(
            f"p{i // n:06d}",
            f"passage {i // n} covers {ordered[i][0]} and {ordered[min(i + n - 1, triplets - 1)][2]}.",
            tuple(ordered[i : i + n]),
        )
        for i in range(0, triplets, n)
    ]


def _zipf_asks(records: list[CorpusRecord], entities: list[str], count: int, s: float,
               rng: random.Random) -> list[tuple[str, str, str]]:
    """A Zipf-skewed head entity, then a Zipf-skewed triplet of that head.

    Popularity ranks are seeded permutations, so no entity id is favoured
    across seeds. Hub entities and their favourite triplets recur, so
    questions, and the paths expanded from them, repeat within a run.
    """
    ranked: dict[str, list[tuple[str, str, str]]] = {}
    for record in records:
        for triple in record.triples:
            ranked.setdefault(triple[0], []).append(triple)
    for triples in ranked.values():
        rng.shuffle(triples)
    heads = [e for e in entities if e in ranked]
    rng.shuffle(heads)

    cumulative: dict[int, list[float]] = {}

    def zipf(items: list) -> list[float]:
        if len(items) not in cumulative:
            cumulative[len(items)] = list(itertools.accumulate(1.0 / (r + 1) ** s for r in range(len(items))))
        return cumulative[len(items)]

    picks = rng.choices(heads, cum_weights=zipf(heads), k=count)
    return [rng.choices(ranked[h], cum_weights=zipf(ranked[h]))[0] for h in picks]


def _distinct_asks(records: list[CorpusRecord], count: int, rng: random.Random) -> list[tuple[str, str, str]]:
    """Triplets drawn uniformly without replacement: no question is asked twice."""
    triples = [t for record in records for t in record.triples]
    return rng.sample(triples, min(count, len(triples)))


def generate(spec: Spec, seed: int, work_dir: Path) -> Inputs:
    """Make the inputs of one workload from ``seed`` (same seed, same inputs).

    A run asks ``questions[i % len(questions)]`` at step i. The random-graph
    schedules hold 20k questions, far more than a run asks at this engine's
    speed; ``chain-qa`` has one question per chain.
    """
    rng = random.Random(f"{spec.name}/{seed}")
    p = spec.params
    if spec.generator == "random-graph":
        entities = _entity_names(p["entities"])
        records = random_graph_corpus(p["triplets"], entities, rng)
        if p["question_skew"] == "zipf":
            asks = _zipf_asks(records, entities, SCHEDULE_LEN, p["zipf_s"], rng)
        else:
            asks = _distinct_asks(records, SCHEDULE_LEN, rng)
        # a question names a head and a tail; dict order keeps the first asking of each
        pairs = {QUESTION.format(head=h, tail=t): (h, t) for h, _, t in asks}
        questions = [QUESTION.format(head=h, tail=t) for h, _, t in asks]
        if p["question_skew"] != "zipf":
            questions = list(pairs)
        return Inputs(records, questions, "hash", asks=pairs)

    fixture = gen_synthetic(p["chains"], p["chain_hops"], p["distractors"], seed)
    fixture.write(work_dir / "fixture")
    questions = [r.question for r in fixture.qa]
    rng.shuffle(questions)
    gold = {r.question: r.gold_passage_ids for r in fixture.qa}
    encoder_spec = f"oracle:{work_dir / 'fixture' / 'vectors.json'}"
    return Inputs(fixture.corpus, questions, encoder_spec, gold=gold)
