"""Tests for the fused self-join fold, dictionary encoding and stable sharding.

The load-bearing property: :func:`repro.engine.fused.count_join_chunk` is
*defined* as the packed (value, label) counts of a join with the self-pairs
dropped, so every test here compares the fold against a brute-force
materialization of that join -- handcrafted and randomized via hypothesis.
The end-to-end model build over resident shards is pinned against the
dictionary reference in ``test_core_model.py``.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine.encoding import DictionaryEncoder, stable_hash
from repro.engine.fused import count_join_chunk
from repro.engine.shard import shard_columns, shard_group_columns


class TestDictionaryEncoder:
    def test_ids_are_dense_and_stable(self):
        encoder = DictionaryEncoder()
        assert encoder.encode("a") == 0
        assert encoder.encode(("P", 80)) == 1
        assert encoder.encode("a") == 0
        assert len(encoder) == 2

    def test_roundtrip(self):
        encoder = DictionaryEncoder()
        values = [("P", 80), ("PA", 443, "k", "v"), 7, "x", ("P", 80)]
        ids = encoder.encode_column(values)
        assert [encoder.decode(i) for i in ids] == values
        assert ids[0] == ids[4]

    def test_decode_tuple(self):
        encoder = DictionaryEncoder()
        ids = (encoder.encode("a"), encoder.encode("b"))
        assert encoder.decode_tuple(ids) == ("a", "b")

    def test_unknown_id_raises(self):
        with pytest.raises(KeyError):
            DictionaryEncoder().decode(3)

    def test_equal_values_share_ids_across_columns(self):
        # One encoder = one id space: join keys encoded from either side of a
        # join must still compare equal.
        encoder = DictionaryEncoder()
        left = encoder.encode_column([1, 2, 3])
        right = encoder.encode_column([3, 2, 9])
        assert left[2] == right[0]
        assert left[1] == right[1]


class TestStableHash:
    def test_ints_hash_to_themselves(self):
        assert stable_hash(5) == 5
        assert stable_hash(0) == 0

    def test_str_bearing_tuples_are_deterministic_across_hash_seeds(self):
        # The builtin hash of a str-bearing tuple changes with
        # PYTHONHASHSEED; stable_hash must not.  Regression test for
        # bit-reproducible sharding (both layouts the runtime loads): compute
        # shard assignments in two subprocesses with different hash seeds
        # and require identical output.
        script = (
            "from repro.engine.encoding import stable_hash\n"
            "from repro.engine.shard import shard_columns, shard_group_columns\n"
            "rows = [(p, 'proto-%d' % (p % 3)) for p in range(40)]\n"
            "flat = shard_columns({'key': rows, 'i': list(range(40))}, 'key', 4)\n"
            "grouped = shard_group_columns(rows, list(range(40)),\n"
            "                              list(range(41)), [80] * 40,\n"
            "                              list(range(41)), list(range(40)), 4)\n"
            "print([stable_hash(r) for r in rows])\n"
            "print([shard['i'] for shard in flat.shards])\n"
            "print([list(shard['group_order']) for shard in grouped.shards])\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        outputs = []
        for seed in ("0", "4242"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            result = subprocess.run([sys.executable, "-c", script], env=env,
                                    capture_output=True, text=True, check=True)
            outputs.append(result.stdout)
        assert outputs[0] == outputs[1]

    def test_hash_consistent_with_equality_for_numeric_types(self):
        # 1 == True == 1.0, so like the builtin hash they must shard alike;
        # equal tuples must hash equal even when element reprs differ.
        assert stable_hash(1) == stable_hash(True) == stable_hash(1.0)
        assert stable_hash((1, "x")) == stable_hash((True, "x")) == \
            stable_hash((1.0, "x"))
        keys = [(1,), (True,), (1.0,)]
        flat = shard_columns({"key": keys}, "key", 4)
        assert sum(1 for shard in flat.shards if shard["key"]) == 1
        grouped = shard_group_columns(keys, [0, 0, 0], [0, 1, 2, 3], [80, 80, 80],
                                      [0, 0, 0, 0], [], 4)
        assert sum(1 for shard in grouped.shards if len(shard["group_order"])) == 1

    def test_shard_columns_covers_and_groups(self):
        rows = [(i % 7, "s%d" % (i % 3)) for i in range(100)]
        sharded = shard_columns({"key": rows, "i": list(range(100))}, "key", 4)
        assert sorted(i for shard in sharded.shards for i in shard["i"]) == \
            list(range(100))
        # Same key always lands in the same shard.
        location = {}
        for shard_id, shard in enumerate(sharded.shards):
            for row in shard["key"]:
                assert location.setdefault(row, shard_id) == shard_id


PACK = 1 << 16


def _payload(left_rows, right_rows):
    """A count_join_chunk payload: left (key, value, label) rows joined to the
    labels each key owns on the right."""
    keys = sorted({key for key, _, _ in left_rows} | {key for key, _ in right_rows})
    slot = {key: i for i, key in enumerate(keys)}
    index = [[] for _ in keys]
    for key, label in right_rows:
        index[slot[key]].append(label)
    return ([slot[key] for key, _, _ in left_rows],
            [value for _, value, _ in left_rows],
            [label for _, _, label in left_rows],
            index, PACK)


def _reference(left_rows, right_rows):
    """Materialize the join, drop the self-pairs, count (value, label)."""
    counts = {}
    for key, value, own in left_rows:
        for right_key, label in right_rows:
            if right_key == key and label != own:
                counts[(value, label)] = counts.get((value, label), 0) + 1
    return counts


def _unpacked(counts):
    return {divmod(packed, PACK): count for packed, count in counts.items()}


class TestCountJoinChunk:
    def test_model_query_excludes_self_pairs(self):
        # Host 1 serves 80 and 443, host 2 serves 80 and 22, host 3 only 8080.
        left = [(1, 0, 80), (1, 1, 80), (1, 2, 443), (2, 0, 80), (2, 3, 22),
                (3, 4, 8080)]
        right = [(1, 80), (1, 443), (2, 80), (2, 22), (3, 8080)]
        got = _unpacked(count_join_chunk(_payload(left, right)))
        assert got == {(0, 443): 1, (1, 443): 1, (2, 80): 1, (0, 22): 1,
                       (3, 80): 1}
        assert got == _reference(left, right)

    def test_empty_inputs(self):
        assert count_join_chunk(([], [], [], [], PACK)) == {}

    def test_keys_without_right_rows_contribute_nothing(self):
        left = [(1, 5, 80), (2, 6, 22)]
        right = [(1, 443)]
        assert _unpacked(count_join_chunk(_payload(left, right))) == {(5, 443): 1}

    def test_buffer_flushes_preserve_counts(self):
        # Enough joined pairs to cross the fold's internal flush threshold.
        left = [(0, v % 50, 1) for v in range(400)]
        right = [(0, label) for label in range(2, 60)]
        got = _unpacked(count_join_chunk(_payload(left, right)))
        assert got == _reference(left, right)
        assert sum(got.values()) == 400 * 58

    def test_labels_up_to_pack_base_unpack_exactly(self):
        # The largest label below pack_base must not carry into the value.
        left = [(0, 0, 1), (0, 7, 1), (0, 7, PACK - 1)]
        right = [(0, PACK - 1), (0, 1)]
        got = _unpacked(count_join_chunk(_payload(left, right)))
        assert got == {(0, PACK - 1): 1, (7, PACK - 1): 1, (7, 1): 1}
        assert got == _reference(left, right)

    @settings(deadline=None, max_examples=50)
    @given(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 9),
                              st.integers(1, 5)), max_size=60),
           st.lists(st.tuples(st.integers(0, 6), st.integers(1, 5)), max_size=60))
    def test_equals_materialized_join(self, left_rows, right_rows):
        got = _unpacked(count_join_chunk(_payload(left_rows, right_rows)))
        assert got == _reference(left_rows, right_rows)
