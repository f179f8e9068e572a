"""Serialization, unit-vector primitives, and encoder backends."""

from __future__ import annotations

import hashlib
import json
import math
import re
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import RecordingEncoder
from helprag import encoding
from helprag.encoding import (
    HASH_CHUNK_TEXTS,
    HashEncoder,
    OracleEncoder,
    RemoteEncoder,
    TextBatch,
    _fnv1a_gram_hashes,
    _signed_cells,
    encode,
    encoder_from_spec,
    hash_twin,
    row_norms,
    screen_distances,
    screen_error,
    screen_pool,
    serialize_hypernode,
    unit_rows,
)
from helprag.errors import (
    EmptyHyperNode,
    EncoderFailure,
    InvalidParams,
    ZeroVector,
)
from helprag.evaluation import gen_synthetic
from helprag.kg import Triplet
from helprag.services import ServiceConfig

TRIPLET_FIELD = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Nd"), whitelist_characters=" "),
    min_size=1,
).map(lambda s: " ".join(s.split()) or "x")

TRIPLETS = st.builds(Triplet, TRIPLET_FIELD, TRIPLET_FIELD, TRIPLET_FIELD)


class TestSerialization:
    def test_sorted_and_joined(self):
        ts = {Triplet("b", "r", "c"), Triplet("a", "r", "b")}
        assert serialize_hypernode(ts) == "a r b; b r c"

    def test_singleton(self):
        assert serialize_hypernode({Triplet("a", "r", "b")}) == "a r b"

    def test_empty_rejected(self):
        with pytest.raises(EmptyHyperNode):
            serialize_hypernode(set())

    @given(st.lists(TRIPLETS, min_size=1, max_size=6), st.randoms())
    def test_permutation_invariant(self, triplets, rnd):
        shuffled = list(triplets)
        rnd.shuffle(shuffled)
        assert serialize_hypernode(triplets) == serialize_hypernode(shuffled)

    @given(st.sets(TRIPLETS, min_size=1, max_size=5), st.sets(TRIPLETS, min_size=1, max_size=5))
    def test_canonical_iff_equal_sets(self, a, b):
        assert (serialize_hypernode(a) == serialize_hypernode(b)) == (a == b)


class TestVectorPrimitives:
    # rows @ q is the cosine and row_norms(rows, q) the distance that seeds,
    # prune and dense ranking compute for unit rows

    def test_distance_identity(self):
        v = np.array([0.5, 0.5, 0.5, 0.5])
        assert row_norms(v[None, :], v)[0] == 0.0

    def test_distance_orthogonal(self):
        a = np.array([1.0, 0.0])
        b = np.array([0.0, 1.0])
        assert row_norms(a[None, :], b)[0] == pytest.approx(math.sqrt(2), abs=1e-12)

    def test_distance_antipodal(self):
        v = np.array([0.5, -0.5, 0.5, -0.5])
        assert row_norms(v[None, :], -v)[0] == pytest.approx(2.0, abs=1e-12)

    def test_cosine_identity_and_orthogonal(self):
        a = np.array([1.0, 0.0])
        b = np.array([0.0, 1.0])
        cosines = np.stack([a, b]) @ a
        assert cosines[0] == 1.0
        assert cosines[1] == 0.0

    def test_distance_squared_is_two_minus_two_cosine(self, hash_encoder):
        texts = ["alpha beta", "gamma delta epsilon", "a r b; b r c", "zeta"]
        rows = encode(hash_encoder, texts)
        for j in range(len(texts)):
            d = row_norms(rows, rows[j])
            c = rows @ rows[j]
            assert d * d == pytest.approx(2 - 2 * c, abs=1e-9)

    def test_unit_rows_rejects_zero(self):
        with pytest.raises(ZeroVector):
            unit_rows(np.zeros((2, 4)))

    def test_unit_rows_is_bit_exact_across_blocks(self):
        # 17 whole blocks and a partial one, the zero row in a later block
        rows = np.random.default_rng(3).standard_normal((18 * encoding._UNIT_BLOCK - 5, 40))
        for m in (rows.astype(np.float32), rows):
            m64 = m.astype(np.float64)
            assert unit_rows(m).tobytes() == (m64 / np.linalg.norm(m64, axis=1)[:, None]).tobytes()
        at = 15 * encoding._UNIT_BLOCK + 3
        rows[at] = 0.0
        with pytest.raises(ZeroVector) as raised:
            unit_rows(rows)
        assert raised.value.row == at

    def test_ranking_equivalence(self, hash_encoder):
        # descending cosine and ascending distance must induce the same order
        texts = [f"candidate text number {i} with filler" for i in range(50)]
        rows = encode(hash_encoder, texts)
        query = encode(hash_encoder, ["which candidate matches"])[0]
        cosines = rows @ query
        dists = row_norms(rows, query)
        by_cos = sorted(range(len(texts)), key=lambda i: (-cosines[i], texts[i]))
        by_dist = sorted(range(len(texts)), key=lambda i: (dists[i], texts[i]))
        assert by_cos == by_dist


class TestScreenFacts:
    """The two facts prune's float32 screen rests on."""

    @pytest.mark.parametrize("dim", [2, 256])
    def test_row_subsets_are_bit_equal_to_the_full_matrix(self, dim):
        rng = np.random.default_rng(dim)
        rows = rng.standard_normal((1200, dim)).astype(np.float32)
        query = unit_rows(rng.standard_normal(dim).astype(np.float32)[None])[0]
        units = unit_rows(rows)
        dists = row_norms(units, query)
        subsets = [
            [700],
            list(range(500, 1013)),  # 513 rows crossing a 512-row block
            sorted(rng.choice(1200, size=513, replace=False).tolist()),
            sorted(rng.choice(1200, size=53, replace=False).tolist()),
        ]
        for idx in subsets:
            sub = unit_rows(rows[idx])
            assert sub.tobytes() == units[idx].tobytes()
            assert row_norms(sub, query).tobytes() == dists[idx].tobytes()

    @pytest.mark.parametrize("dim", [2, 4, 256, 900])
    def test_screen_error_bounds_the_screen(self, dim):
        rng = np.random.default_rng(dim)
        query = unit_rows(rng.standard_normal(dim).astype(np.float32)[None])[0]
        random_rows = rng.standard_normal((2000, dim))
        # nearly parallel and nearly antipodal rows: d^2 near 0 and near 4
        near = query * rng.choice([-1.0, 1.0], size=(2000, 1)) + rng.standard_normal((2000, dim)) * (
            10.0 ** rng.uniform(-8, -1, size=(2000, 1))
        )
        rows = np.concatenate([random_rows, near]).astype(np.float32)
        rows = np.concatenate([rows, rows * np.float32(1e3), rows * np.float32(1e-3)])
        approx = screen_distances(rows, query)
        exact = row_norms(unit_rows(rows), query) ** 2
        assert np.isfinite(approx).all()
        assert np.abs(approx - exact).max() <= screen_error(dim)

    def test_pool_holds_every_row_that_can_reach_the_k_smallest(self):
        rng = np.random.default_rng(12)
        query = unit_rows(rng.standard_normal(256).astype(np.float32)[None])[0]
        # 300 clusters of 10 rows whose distances agree to ~1e-7, so float32 rounding
        # reorders rows inside a cluster; a pool without the margin misses some here
        centers = rng.standard_normal(256) + rng.standard_normal((300, 1, 256)) * 1e-2
        rows = (centers + rng.standard_normal((300, 10, 256)) * 1e-7).reshape(3000, 256).astype(np.float32)
        exact = row_norms(unit_rows(rows), query)
        for k in (3, 5, 15, 55, 505):
            pool = screen_pool(screen_distances(rows, query), k, 256)
            kth = np.partition(exact, k - 1)[k - 1]
            assert set(np.flatnonzero(exact <= kth).tolist()) <= set(pool.tolist())
            assert len(pool) < len(rows)

    def test_rows_outside_the_trusted_range_read_nan(self):
        query = unit_rows(np.array([1.0, 0.0, 0.0], dtype=np.float32)[None])[0]
        rows = np.array([[1e-30, 0, 0], [3e19, 0, 0], [np.nan, 1, 0], [1, 1, 0]], dtype=np.float32)
        approx = screen_distances(rows, query)
        assert np.isnan(approx[:3]).all() and np.isfinite(approx[3])


class TestHashEncoder:
    def test_deterministic_repeat(self, hash_encoder):
        a, b = encode(hash_encoder, ["same input text", "same input text"])
        assert np.array_equal(a, b)

    def test_unit_norm_within_tolerance(self, hash_encoder):
        rows = encode(hash_encoder, ["x", "some longer text with many grams", "äöü"])
        norms = np.linalg.norm(rows, axis=1)
        assert np.allclose(norms, 1.0, atol=1e-6)

    def test_fnv1a_reference_values(self):
        # published FNV-1a 64 test vectors
        batch = TextBatch.of(["a", "abc"])
        rows, hashes = _fnv1a_gram_hashes(batch.data, batch.offsets)
        assert rows.tolist() == [0, 1]
        assert int(hashes[0]) == 0xAF63DC4C8601EC8C
        assert int(hashes[1]) == 0xE71FA2190541574B

    def test_frozen_snapshot(self, hash_encoder):
        # cross-run / cross-platform stability: frozen on first implementation
        v = encode(hash_encoder, ["a r b; b r c"])[0]
        assert np.nonzero(v)[0].tolist() == [5, 100, 117, 119, 151, 180, 194, 196, 238]
        assert v[117] == pytest.approx(-2 / math.sqrt(12), abs=1e-7)
        assert v[5] == pytest.approx(-1 / math.sqrt(12), abs=1e-7)

    def test_short_text_single_gram(self, hash_encoder):
        v = encode(hash_encoder, ["ab"])[0]
        assert np.count_nonzero(v) == 1

    def test_empty_text_rejected(self, hash_encoder):
        with pytest.raises(ValueError):
            encode(hash_encoder, [""])

    def test_dim_below_two_rejected(self):
        with pytest.raises(InvalidParams):
            HashEncoder(dim=1)

    @pytest.mark.parametrize("dim", [2, 7, 256])
    def test_gram_counts_are_the_reference_counts(self, dim):
        texts = ["", "a", "ab", "abc", "é r 日本", "a r b; b r c", *CANCEL_AT_256]
        expected = [oracles.hash_gram_counts(text, dim) for text in texts]
        assert HashEncoder(dim).gram_counts(TextBatch.of(texts)).tolist() == expected
        assert HashEncoder(dim).gram_counts(TextBatch.of([])).shape == (0, dim)


class TestHashTwin:
    """prune's count screen is keyed by the hash encoder's id at the encoder's dimension."""

    @pytest.mark.parametrize("dim", [2, 7, 256])
    def test_the_hash_encoder_and_a_delegate_forwarding_its_id(self, dim):
        for encoder in (HashEncoder(dim), RecordingEncoder(HashEncoder(dim))):
            twin = hash_twin(encoder)
            assert type(twin) is HashEncoder and twin.encoder_id == encoder.encoder_id

    def test_other_ids_have_none(self):
        class Mislabelled(RecordingEncoder):
            @property
            def dim(self) -> int:
                return 128

        oracle = OracleEncoder(2, {"a": [1.0, 0.0]})
        # a remote encoder knows its dimension only after a reply; its id is read first
        remote = RemoteEncoder(ServiceConfig("http://127.0.0.1:9/v1/embeddings", "hash-fnv1a-3gram-256"))
        for encoder in (oracle, remote, Mislabelled(HashEncoder(256))):
            assert hash_twin(encoder) is None


class TestOracleEncoder:
    def test_exact_fixture_lookup(self):
        enc = OracleEncoder(3, {"q": [1.0, 0.0, 0.0], "other": [0.0, 1.0, 0.0]})
        v = encode(enc, ["q"])[0]
        assert np.allclose(v, [1.0, 0.0, 0.0])

    def test_unknown_text_fails(self):
        enc = OracleEncoder(2, {"known": [1.0, 0.0]})
        with pytest.raises(EncoderFailure):
            encode(enc, ["unknown"])

    @pytest.mark.parametrize(
        "table",
        [
            {"vectors": {}},
            {"dim": 2},
            [],
            {"dim": 2, "vectors": {"t": {"i": [0]}}},
            pytest.param({"dim": 2, "vectors": {"t": {"i": [2], "v": [1.0]}}}, id="index-at-dim"),
            pytest.param({"dim": 2, "vectors": {"t": {"i": [-1], "v": [1.0]}}}, id="negative-index"),
            pytest.param({"dim": 2, "vectors": {"t": {"i": [0, 1], "v": [1.0]}}}, id="fewer-values"),
            pytest.param({"dim": 2, "vectors": {"t": {"i": [0, 0], "v": [1.0, 2.0]}}}, id="repeated-index"),
            pytest.param({"dim": 2, "vectors": {"t": {"i": [0.0], "v": [1.0]}}}, id="float-index"),
            pytest.param({"dim": 2, "vectors": {"t": {"i": (0,), "v": [1.0]}}}, id="tuple-indices"),
            pytest.param({"dim": None, "vectors": {"t": [1.0, 0.0]}}, id="null-dim"),
            pytest.param({"dim": 2.5, "vectors": {"t": [1.0, 0.0]}}, id="fractional-dim"),
            pytest.param({"dim": True, "vectors": {"t": [1.0]}}, id="bool-dim"),
            pytest.param({"dim": 2, "vectors": "ab"}, id="string-vectors"),
            pytest.param({"dim": 2, "vectors": {"t": [{}, 1.0]}}, id="object-value"),
            pytest.param({"dim": 2, "vectors": {"t": ["1.0", "0.0"]}}, id="string-values"),
            pytest.param({"dim": 2, "vectors": {"t": [True, False]}}, id="bool-values"),
            pytest.param({"dim": 2, "vectors": {"t": [None, 1.0]}}, id="null-value"),
            pytest.param({"dim": 2, "vectors": {"t": {"i": [0], "v": ["2.5"]}}}, id="sparse-string-value"),
            pytest.param({"dim": 2, "vectors": {"t": {"i": [0], "v": [True]}}}, id="sparse-bool-value"),
            # the entry's shape is checked before any block of dim values is allocated
            pytest.param({"dim": 2**40, "vectors": {"t": [1.0, 0.0]}}, id="huge-dim"),
        ],
    )
    def test_malformed_table_rejected(self, table):
        with pytest.raises(InvalidParams):
            OracleEncoder.from_table(table)

    @pytest.mark.parametrize(
        "entry",
        [
            ["1.0", "0.0"],
            [True, False],
            [None, 1.0],
            [1.0, 10**400],
            {"i": [0], "v": ["2.5"]},
            {"i": [0], "v": [True]},
            {"i": [0], "v": [None]},
            {"i": [1], "v": [10**400]},
            np.array([True, False]),
            np.array([1.0, 0.0], dtype=complex),
            np.array([1.0, 0.0], dtype=object),
        ],
        ids=[
            "strings", "bools", "null", "int-past-float64", "sparse-string", "sparse-bool", "sparse-null",
            "sparse-int-past-float64", "bool-array", "complex-array", "object-array",
        ],
    )
    def test_value_that_is_not_a_number_rejected(self, entry):
        with pytest.raises(InvalidParams, match="'bad' holds a value that is not a number"):
            OracleEncoder(2, {"a fine entry": {"i": [0], "v": [1.0]}, "bad": entry})

    def test_ints_and_numeric_arrays_are_numbers(self):
        entries = {
            "ints": [3, 4],
            "sparse ints": {"i": [0, 1], "v": [3, 4]},
            "int array": np.array([3, 4]),
            "uint8 array": np.array([3, 4], dtype=np.uint8),
            "float32 array": np.array([3, 4], dtype=np.float32),
        }
        rows = OracleEncoder(2, entries).encode_batch(TextBatch.of(list(entries)))
        assert rows.tobytes() == np.tile(np.array([0.6, 0.8]).astype(np.float32), (5, 1)).tobytes()

    def test_numpy_scalars_are_numbers(self):
        plain = OracleEncoder(2, {"dense": [3.0, 4.0], "sparse": {"i": [0, 1], "v": [3.0, 4.0]}})
        for values in (
            list(np.array([3.0, 4.0])),
            list(np.array([3.0, 4.0], dtype=np.float32)),
            list(np.array([3, 4])),
            [np.uint8(3), np.float16(4.0)],
        ):
            enc = OracleEncoder(2, {"dense": values, "sparse": {"i": [0, 1], "v": values}})
            assert enc.encoder_id == plain.encoder_id

    def test_scratch_blocks_are_no_larger_than_the_table(self):
        assert OracleEncoder(2**40, {}).encoder_id == OracleEncoder(2**40, {}).encoder_id
        dim = 100_000
        tracemalloc.start()
        try:
            OracleEncoder(dim, {"t": {"i": [7], "v": [1.0]}})
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one row of each scratch block and the row kept, not a 32-row block of each
        assert peak < 2 * (8 + 4 + 4) * dim

    def test_zero_vector_rejected_at_construction(self):
        with pytest.raises(ZeroVector):
            OracleEncoder(2, {"bad": [0.0, 0.0]})

    def test_normalizes_entries(self):
        enc = OracleEncoder(2, {"t": [3.0, 4.0]})
        v = encode(enc, ["t"])[0]
        assert np.allclose(v, [0.6, 0.8], atol=1e-7)

    def test_file_round_trip_with_sparse_entries(self, tmp_path):
        table = {
            "dim": 4,
            "vectors": {
                "dense entry": [0.0, 1.0, 0.0, 0.0],
                "sparse entry": {"i": [0, 3], "v": [0.6, 0.8]},
            },
        }
        path = tmp_path / "vectors.json"
        path.write_text(json.dumps(table))
        enc = OracleEncoder.from_file(path)
        rows = encode(enc, ["dense entry", "sparse entry"])
        assert np.allclose(rows[0], [0, 1, 0, 0])
        assert np.allclose(rows[1], [0.6, 0, 0, 0.8], atol=1e-7)

    @pytest.mark.parametrize(
        "entry", [[math.nan, 0.0, 1.0], [0.0, math.inf, 1.0], {"i": [0, 2], "v": [1.0, -math.inf]}]
    )
    def test_non_finite_entry_rejected(self, entry):
        with pytest.raises(InvalidParams, match="non-finite"):
            OracleEncoder(3, {"ok": [1.0, 0.0, 0.0], "bad": entry})

    def test_encoder_id_tracks_table_content(self):
        a = OracleEncoder(2, {"t": [1.0, 0.0]})
        b = OracleEncoder(2, {"t": [0.0, 1.0]})
        assert a.encoder_id != b.encoder_id

    def test_case_study_id_is_pinned(self):
        path = Path(__file__).resolve().parent.parent / "fixtures" / "case_study" / "vectors.json"
        assert OracleEncoder.from_file(path).encoder_id == "oracle-f3f1bcfefaafc028"

    def test_chain_qa_table_id_and_memory(self, chain_qa_table):
        # the perfbench chain-qa table: 13,800 sparse entries at dim 900
        dim, count = chain_qa_table["dim"], len(chain_qa_table["vectors"])
        tracemalloc.start()
        try:
            encoder = OracleEncoder.from_table(chain_qa_table)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert encoder.encoder_id == "oracle-cfadde51c59cf6f2"
        # the float32 rows, plus nothing table-sized: no float64 staging matrix and no second copy
        rows_bytes = count * dim * 4
        assert rows_bytes <= peak < 1.1 * rows_bytes

    @pytest.mark.parametrize("first", ["zero", "malformed"])
    @pytest.mark.parametrize(
        "where", [(3, 5), (encoding._ORACLE_BLOCK - 1, encoding._ORACLE_BLOCK)], ids=["within", "across"]
    )
    def test_first_bad_entry_in_text_order_decides_the_error(self, first, where):
        bad = {"zero": {"i": [1], "v": [0.0]}, "malformed": {"i": [3], "v": [1.0]}}
        second = "malformed" if first == "zero" else "zero"
        vectors = {f"entry {k:03d}": {"i": [k % 3], "v": [1.0]} for k in range(2 * encoding._ORACLE_BLOCK + 1)}
        vectors[f"entry {where[0]:03d}"], vectors[f"entry {where[1]:03d}"] = bad[first], bad[second]
        error = ZeroVector if first == "zero" else InvalidParams
        with pytest.raises(error, match=f"'entry {where[0]:03d}'"):
            OracleEncoder(3, vectors)


@pytest.fixture(scope="module")
def chain_qa_table():
    return gen_synthetic(300, 2, 20, 1).oracle_table


def per_entry_table(dim: int, vectors: dict) -> tuple[dict[str, np.ndarray], str]:
    """The oracle table's float32 rows and id, built and checked one entry at a time in text order."""
    rows, digest = {}, hashlib.sha256()
    for text in sorted(vectors):
        entry = vectors[text]
        if isinstance(entry, dict):
            raw = np.zeros(dim)
            raw[entry["i"]] = entry["v"]
        else:
            raw = np.asarray(entry, dtype=np.float64)
        norm = np.linalg.norm(raw)
        if not math.isfinite(norm):
            raise InvalidParams(f"oracle entry for {text!r} has a non-finite norm")
        if norm == 0.0:
            raise ZeroVector(f"oracle entry for {text!r} is a zero vector")
        rows[text] = (raw / norm).astype(np.float32)
        digest.update(text.encode("utf-8") + b"\x00" + rows[text].tobytes())
    return rows, f"oracle-{digest.hexdigest()[:16]}"


@st.composite
def oracle_tables(draw):
    """Sparse, dense or mixed tables of values at 1e-300 to 1e300, some holding one all-zero entry."""
    dim = draw(st.sampled_from([1, 2, 3, 31, 32, 33, 900, 1025]))
    count = draw(st.integers(0, 2 * encoding._ORACLE_BLOCK + 2))
    spread = draw(st.sampled_from([20, 150, 300]))  # squares under- or overflow past about 1e154
    kinds = draw(st.sampled_from([(False,), (True,), (False, True)]))  # dense or not: sparse, dense, mixed
    zero_at = draw(st.none() | st.integers(0, max(count - 1, 0)))
    tail = draw(st.text(st.characters(blacklist_categories=("Cs",)), max_size=3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    vectors = {}
    for k in range(count):
        dense = draw(st.sampled_from(kinds))
        nnz = dim if dense else int(rng.integers(0 if k == zero_at else 1, min(dim, 4) + 1))
        values = rng.standard_normal(nnz) * 10.0 ** (draw(st.integers(-spread, spread)) + rng.integers(-3, 4, nnz))
        values[1:][rng.random(max(nnz - 1, 0)) < 0.3] = -0.0
        if k == zero_at:
            values[:] = rng.choice([0.0, -0.0], nnz)
        if dense:
            vectors[f"entry {k:03d}{tail}"] = values.tolist()
        else:
            cols = rng.choice(dim, nnz, replace=False)
            vectors[f"entry {k:03d}{tail}"] = {"i": cols.tolist(), "v": values.tolist()}
    return dim, vectors


@settings(max_examples=120, deadline=None)
@given(oracle_tables())
def test_oracle_rows_and_id_equal_the_per_entry_reference(table):
    dim, vectors = table
    try:
        rows, encoder_id = per_entry_table(dim, vectors)
    except (InvalidParams, ZeroVector) as exc:
        with pytest.raises(type(exc), match=re.escape(str(exc))):
            OracleEncoder(dim, vectors)
        return
    encoder = OracleEncoder(dim, vectors)
    assert encoder.encoder_id == encoder_id
    if rows:
        got = encoder.encode_batch(TextBatch.of(list(rows)))
        assert got.tobytes() == np.stack(list(rows.values())).tobytes()


class TestEncoderSpec:
    def test_hash_spec(self):
        assert encoder_from_spec("hash").encoder_id == "hash-fnv1a-3gram-256"

    def test_unknown_spec(self):
        with pytest.raises(InvalidParams):
            encoder_from_spec("bogus")

    def test_remote_without_env(self, monkeypatch):
        monkeypatch.delenv("HELP_EMBED_URL", raising=False)
        with pytest.raises(InvalidParams):
            encoder_from_spec("remote")


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=30, deadline=None)
def test_hash_batch_equals_single(seed):
    enc = HashEncoder()
    texts = [f"text variant {seed}", f"other variant {seed * 2 + 1}"]
    batch = encode(enc, texts)
    singles = np.vstack([encode(enc, [t]) for t in texts])
    assert np.array_equal(batch, singles)


# 0-2 byte texts (the empty one, ASCII, or one 2-byte character) and long texts of any script
HASH_TEXTS = st.one_of(
    st.text(alphabet=st.characters(max_codepoint=0x7F), max_size=2),
    st.sampled_from(["é", "ß", "ж"]),
    st.text(alphabet=st.characters(blacklist_categories=("Cs",)), min_size=3, max_size=60),
)
# each has two 3-grams that land in one bucket with opposite signs at dim 256
CANCEL_AT_256 = ("bcfh", "bdgh")


def reference_rows(texts: list[str], dim: int) -> np.ndarray:
    return np.vstack([oracles.hash_encode_text(t, dim) for t in texts])


@given(st.lists(HASH_TEXTS, min_size=1, max_size=24), st.integers(2, 1024), st.integers(1, 5))
@settings(max_examples=150, deadline=None)
def test_hash_batch_matches_per_text_reference(texts, dim, chunk):
    # a chunk of 1-5 texts makes most batches span several chunks
    with mock.patch.object(encoding, "HASH_CHUNK_TEXTS", chunk):
        try:
            expected = reference_rows(texts, dim)
        except ZeroVector as exc:
            with pytest.raises(ZeroVector, match=re.escape(str(exc))):
                HashEncoder(dim).encode_batch(TextBatch.of(texts))
        else:
            assert HashEncoder(dim).encode_batch(TextBatch.of(texts)).tobytes() == expected.tobytes()


def long_texts(count: int) -> list[str]:
    return [f"entity {i:04d} links to entity {i * 7 % 1000:04d}; ü{i % 3}" for i in range(count)]


def test_hash_batch_larger_than_one_chunk():
    texts = long_texts(HASH_CHUNK_TEXTS + 5)
    # 0-, 1- and 2-byte texts on both sides of the chunk edge
    texts[HASH_CHUNK_TEXTS - 3 : HASH_CHUNK_TEXTS + 3] = ["", "a", "ab", "é", "", "b"]
    assert HashEncoder().encode_batch(TextBatch.of(texts)).tobytes() == reference_rows(texts, 256).tobytes()


@pytest.mark.parametrize("dim", [7, 256, 1024])
def test_hash_batch_of_long_texts_across_chunks(dim):
    texts = long_texts(2 * HASH_CHUNK_TEXTS + 3)
    assert HashEncoder(dim).encode_batch(TextBatch.of(texts)).tobytes() == reference_rows(texts, dim).tobytes()


@pytest.mark.parametrize("dim", [2, 3, 7, 256, 1000, 1024])
def test_signed_cells_are_exact(dim):
    rng = np.random.default_rng(dim)
    hashes = rng.integers(0, 2**64, size=5000, dtype=np.uint64)
    hashes[:4] = [0, 2**63, 2**64 - 1, 2**63 - 1]
    rows = rng.integers(0, 512, size=hashes.size)
    expected_cells = rows * dim + (hashes % np.uint64(dim)).astype(np.int64)
    expected_signs = np.where(hashes >> np.uint64(63), -1.0, 1.0)
    cells, signs = _signed_cells(rows.copy(), hashes.copy(), dim)
    assert cells.tolist() == expected_cells.tolist()
    assert signs.tobytes() == expected_signs.tobytes()


def test_hash_zero_vector_names_the_first_such_text():
    for text in CANCEL_AT_256:
        with pytest.raises(ZeroVector):
            oracles.hash_encode_text(text, 256)
    with pytest.raises(ZeroVector, match=repr(CANCEL_AT_256[0])):
        HashEncoder().encode_batch(TextBatch.of(["a long enough text", *CANCEL_AT_256, "x"]))


class TestTextBatch:
    TEXTS = ["a", "é r 日本", "", "🙂; x", "é r 日本"]

    def test_reads_as_the_texts(self):
        batch = TextBatch.of(self.TEXTS)
        assert TextBatch.of(batch) is batch
        assert len(batch) == len(self.TEXTS)
        assert list(batch) == self.TEXTS
        assert [batch[i] for i in range(-len(self.TEXTS), len(self.TEXTS))] == self.TEXTS * 2
        assert batch[1:4] == self.TEXTS[1:4] and batch[::-2] == self.TEXTS[::-2]
        assert batch.lengths.tolist() == [len(t.encode("utf-8")) for t in self.TEXTS]
        with pytest.raises(IndexError):
            batch[len(self.TEXTS)]

    def test_membership_compares_bytes(self):
        batch = TextBatch.of(self.TEXTS)
        assert all(text in batch for text in self.TEXTS)
        assert "é r 日" not in batch and "b" not in batch and None not in batch
        assert "" not in TextBatch.of(["a", "bc"])

    def test_encode_rows_rejects_an_empty_text_without_decoding(self, hash_encoder):
        batch = TextBatch.of(["a text", ""])
        with mock.patch.object(TextBatch, "__getitem__", side_effect=AssertionError("decoded")), \
                mock.patch.object(TextBatch, "__iter__", side_effect=AssertionError("decoded")):
            with pytest.raises(ValueError, match="non-empty"):
                encoding.encode_rows(hash_encoder, batch)

    def test_encode_rows_hands_the_backend_one_batch(self, hash_encoder):
        texts = ["a r b", "é r 日本"]
        batch = TextBatch.of(texts)
        for given in (texts, tuple(texts), batch):
            recorder = RecordingEncoder(hash_encoder)
            rows = encoding.encode_rows(recorder, given)
            assert [type(b) for b in recorder.batches] == [TextBatch] and recorder.calls == [texts]
            assert rows.tobytes() == hash_encoder.encode_batch(batch).tobytes()
        assert recorder.batches[0] is batch

    def test_every_backend_reads_a_batch(self, hash_encoder):
        texts = ["a r b", "é r 日本"]
        oracle = OracleEncoder(3, {"a r b": [1.0, 0, 0], "é r 日本": [0, 1.0, 2.0]})
        for encoder in (hash_encoder, oracle):
            assert encode(encoder, TextBatch.of(texts)).tobytes() == encode(encoder, texts).tobytes()
