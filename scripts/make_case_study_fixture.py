#!/usr/bin/env python3
"""Build the bundled genealogy case-study fixture.

A 13-passage corpus around a 2-hop family-relation question: the answer
passage ("Solomon II ... born as David to Prince Archil of Imereti") shares
no surface similarity with the question, while several same-era royal
biographies are constructed to win the dense channel. The oracle table
places the question next to the mother-of triplet and the 2-triplet
reasoning path, so path expansion bridges the hop that dense retrieval
cannot. The fixture is verified end to end before being written.

Usage: python3 scripts/make_case_study_fixture.py [out_dir]
"""

from __future__ import annotations

import math
import sys

from helprag.encoding import OracleEncoder, serialize_hypernode
from helprag.evaluation import QARecord, SyntheticFixture
from helprag.expansion import ExpansionConfig
from helprag.ingestion import CorpusRecord, build_and_embed
from helprag.kg import canonicalize_triplet
from helprag.localization import HybridConfig, retrieve_result

QUESTION = "Who is the husband of Princess Elene Of Georgia?"
ANSWER = "Prince Archil of Imereti"

# passage id -> (text, [raw triples], dense cosine of the text vs the question)
PASSAGES: dict[str, tuple[str, list[tuple[str, str, str]], float]] = {
    "elene-of-georgia": (
        "Princess Elene of Georgia was a Georgian royal princess, the daughter of "
        "Heraclius II. She was the mother of Solomon II of Imereti. She was born in Georgia.",
        [
            ("Princess Elene of Georgia", "daughter of", "Heraclius II"),
            ("Princess Elene of Georgia", "mother of", "Solomon II of Imereti"),
            ("Princess Elene of Georgia", "born in", "Georgia"),
        ],
        0.60,
    ),
    "solomon-ii-of-imereti": (
        "Solomon II of Imereti reigned as King of Imereti. He was born as David to "
        "Prince Archil of Imereti.",
        [
            ("Solomon II of Imereti", "had father", "Prince Archil of Imereti"),
            ("Solomon II of Imereti", "born as", "David"),
        ],
        0.05,
    ),
    "elena-vladimirovna": (
        "Grand Duchess Elena Vladimirovna of Russia spent most of her life abroad; her "
        "husband was Prince Nicholas of Greece and Denmark.",
        [("Grand Duchess Elena Vladimirovna of Russia", "husband", "Prince Nicholas of Greece and Denmark")],
        0.80,
    ),
    "rodam-of-kartli": (
        "Princess Rodam of Kartli married King George VII.",
        [("Princess Rodam of Kartli", "married", "King George VII")],
        0.75,
    ),
    "elena-pavlovna": (
        "Grand Duchess Elena Pavlovna of Russia was born to Prince Paul and his second "
        "wife Sophie Dorothea of Württemberg.",
        [("Grand Duchess Elena Pavlovna of Russia", "second wife", "Sophie Dorothea of Württemberg")],
        0.70,
    ),
    "charlotte-of-wurttemberg": (
        "Princess Charlotte of Württemberg was the wife of Grand Duke Michael Pavlovich of Russia.",
        [("Princess Charlotte of Württemberg", "wife of", "Grand Duke Michael Pavlovich of Russia")],
        0.50,
    ),
    "gundobad": (
        "Gundobad was King of the Burgundians. He was the husband of Caretene.",
        [("Gundobad", "husband of", "Caretene")],
        0.45,
    ),
    "eunoe": (
        "Eunoë was the wife of Bogudes, King of Mauretania.",
        [("Eunoë", "wife of", "Bogudes")],
        0.40,
    ),
    "megingoz": (
        "Megingoz of Guelders married Gerberga of Lorraine.",
        [("Megingoz of Guelders", "married", "Gerberga of Lorraine")],
        0.35,
    ),
    "adarnase-of-kartli": (
        "Prince Adarnase of Kartli was a natural son of Levan of Kartli by a concubine.",
        [("Prince Adarnase of Kartli", "son of", "Levan of Kartli")],
        0.30,
    ),
    "bernhard-iii": (
        "Bernhard III, Prince of Anhalt-Bernburg, was the eldest son of Bernhard II.",
        [("Bernhard III", "eldest son of", "Bernhard II")],
        0.25,
    ),
    "engelbert-iii": (
        "In the house of Engelbert III of the Mark, Adolph was the eldest son of Count Adolph II.",
        [("Adolph", "eldest son of", "Count Adolph II")],
        0.20,
    ),
    "clous-van-mechelen": (
        "Clous van Mechelen is a Dutch musician, arranger, and actor.",
        [("Clous van Mechelen", "occupation", "musician")],
        0.10,
    ),
}

# cosine of each canonical triplet-set serialization vs the question
TRIPLET_SET_COSINES: list[tuple[list[tuple[str, str, str]], float]] = [
    # singletons: the three facts about the queried person dominate seeding
    ([("Princess Elene of Georgia", "mother of", "Solomon II of Imereti")], 0.95),
    ([("Princess Elene of Georgia", "daughter of", "Heraclius II")], 0.90),
    ([("Princess Elene of Georgia", "born in", "Georgia")], 0.85),
    ([("Solomon II of Imereti", "had father", "Prince Archil of Imereti")], 0.40),
    ([("Solomon II of Imereti", "born as", "David")], 0.35),
    ([("Grand Duchess Elena Vladimirovna of Russia", "husband", "Prince Nicholas of Greece and Denmark")], 0.30),
    ([("Gundobad", "husband of", "Caretene")], 0.28),
    ([("Eunoë", "wife of", "Bogudes")], 0.26),
    ([("Princess Charlotte of Württemberg", "wife of", "Grand Duke Michael Pavlovich of Russia")], 0.24),
    ([("Princess Rodam of Kartli", "married", "King George VII")], 0.22),
    ([("Grand Duchess Elena Pavlovna of Russia", "second wife", "Sophie Dorothea of Württemberg")], 0.20),
    ([("Megingoz of Guelders", "married", "Gerberga of Lorraine")], 0.18),
    ([("Prince Adarnase of Kartli", "son of", "Levan of Kartli")], 0.16),
    ([("Bernhard III", "eldest son of", "Bernhard II")], 0.14),
    ([("Adolph", "eldest son of", "Count Adolph II")], 0.12),
    ([("Clous van Mechelen", "occupation", "musician")], 0.10),
    # connected pairs reachable from the seeds; the mother-of + had-father
    # combination is the intended reasoning path and scores closest
    (
        [
            ("Princess Elene of Georgia", "mother of", "Solomon II of Imereti"),
            ("Solomon II of Imereti", "had father", "Prince Archil of Imereti"),
        ],
        0.99,
    ),
    (
        [
            ("Princess Elene of Georgia", "mother of", "Solomon II of Imereti"),
            ("Princess Elene of Georgia", "daughter of", "Heraclius II"),
        ],
        0.60,
    ),
    (
        [
            ("Princess Elene of Georgia", "mother of", "Solomon II of Imereti"),
            ("Princess Elene of Georgia", "born in", "Georgia"),
        ],
        0.58,
    ),
    (
        [
            ("Princess Elene of Georgia", "mother of", "Solomon II of Imereti"),
            ("Solomon II of Imereti", "born as", "David"),
        ],
        0.55,
    ),
    (
        [
            ("Princess Elene of Georgia", "daughter of", "Heraclius II"),
            ("Princess Elene of Georgia", "born in", "Georgia"),
        ],
        0.45,
    ),
    (
        [
            ("Solomon II of Imereti", "had father", "Prince Archil of Imereti"),
            ("Solomon II of Imereti", "born as", "David"),
        ],
        0.30,
    ),
]


def mix(cos: float) -> dict:
    if cos == 1.0:
        return {"i": [0], "v": [1.0]}
    return {"i": [0, 1], "v": [cos, math.sqrt(1.0 - cos * cos)]}


def build_table() -> dict:
    vectors: dict[str, dict] = {QUESTION: mix(1.0)}
    for triples, cos in TRIPLET_SET_COSINES:
        key = serialize_hypernode([canonicalize_triplet(*t) for t in triples])
        vectors[key] = mix(cos)
    for text, _, cos in PASSAGES.values():
        vectors[text] = mix(cos)
    return {"dim": 3, "vectors": vectors}


def verify(records: list[CorpusRecord], table: dict) -> None:
    encoder = OracleEncoder.from_table(table)
    graph = build_and_embed(records, encoder)
    result = retrieve_result(graph, encoder, QUESTION, ExpansionConfig(), HybridConfig())

    seed_texts = {n.serialized for n in result.hypernodes if len(n.triplets) == 1}
    mother_of = serialize_hypernode(
        [canonicalize_triplet("Princess Elene of Georgia", "mother of", "Solomon II of Imereti")]
    )
    top_ids = [p.id for p in result.passages]
    top_channels = [p.channel for p in result.passages]
    assert top_ids[:2] == ["elene-of-georgia", "solomon-ii-of-imereti"], top_ids
    assert top_channels[:2] == ["path", "path"], top_channels
    assert top_ids[2:] == ["elena-vladimirovna", "rodam-of-kartli", "elena-pavlovna"], top_ids
    assert all(c == "dense" for c in top_channels[2:]), top_channels

    # the best reasoning path chains mother-of into had-father
    best = result.hypernodes[0]
    assert mother_of.split("; ")[0] in best.serialized
    print("verified: top-5 =", top_ids, "channels =", top_channels)


def main(out_dir: str) -> None:
    records = [
        CorpusRecord(pid, text, tuple(triples)) for pid, (text, triples, _) in PASSAGES.items()
    ]
    table = build_table()
    verify(records, table)
    SyntheticFixture(
        corpus=records,
        qa=[
            QARecord(
                "case-study-1", QUESTION, (ANSWER,), ("elene-of-georgia", "solomon-ii-of-imereti")
            )
        ],
        oracle_table=table,
    ).write(out_dir)
    print(f"wrote case-study fixture to {out_dir}")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "fixtures/case_study")
