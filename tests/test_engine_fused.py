"""Tests for the fused self-join fold, dictionary encoding and the stable hash.

The load-bearing property: the model fold,
:func:`repro.engine.fused.fold_model_pairs_arrays`, is *defined* as the
packed (value, label) counts of a join with the self-pairs dropped, so every
test here runs it against a brute-force materialization of that join,
handcrafted and randomized via hypothesis.
The end-to-end model build over the resident columns is pinned against the
dictionary reference in ``test_core_model.py``.
"""

from __future__ import annotations

import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine.encoding import DictionaryEncoder, stable_hash
from repro.engine.fused import fold_model_pairs_arrays, fold_value_counts_arrays


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
        # bit-reproducible seeded probe loss, which draws with it: hash the
        # same keys and draw the same losses in two subprocesses with
        # different hash seeds and require identical output.
        script = (
            "from repro.engine.encoding import stable_hash\n"
            "from repro.engine.faults import ProbeLossModel\n"
            "rows = [(p, 'proto-%d' % (p % 3)) for p in range(40)]\n"
            "print([stable_hash(r) for r in rows])\n"
            "loss = ProbeLossModel(seed=3, loss_rate=0.5)\n"
            "print([loss.lost('zmap', ip, 80) for ip in range(40)])\n"
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
        # 1 == True == 1.0, so like the builtin hash they must hash alike;
        # equal tuples must hash equal even when element reprs differ.
        assert stable_hash(1) == stable_hash(True) == stable_hash(1.0)
        assert stable_hash((1, "x")) == stable_hash((True, "x")) == \
            stable_hash((1.0, "x"))


PACK = 1 << 16


def _columns(groups):
    """Flatten ``[[(label, [value, ...]), ...], ...]`` into the fold's
    ``(member_starts, labels, value_starts, value_ids)`` columns."""
    member_starts, labels, value_starts, value_ids = [0], [], [0], []
    for members in groups:
        for label, values in members:
            labels.append(label)
            value_ids.extend(values)
            value_starts.append(len(value_ids))
        member_starts.append(len(labels))
    return member_starts, labels, value_starts, value_ids


def _reference(groups):
    """Materialize the self-join, drop the self-pairs, count (value, label)."""
    counts = {}
    for members in groups:
        for own, values in members:
            for value in values:
                for label, _ in members:
                    if label != own:
                        counts[(value, label)] = counts.get((value, label), 0) + 1
    return counts


def _fold(groups):
    """Run the pair fold and unpack its sorted ``(keys, counts)`` reply."""
    keys, counts = fold_model_pairs_arrays(*_columns(groups), PACK)
    assert list(keys) == sorted(keys)
    return {divmod(key, PACK): count for key, count in zip(keys, counts)}


class TestFoldModelPairs:
    def test_model_query_excludes_self_pairs(self):
        # Host 1 serves 80 and 443, host 2 serves 80 and 22, host 3 only 8080.
        groups = [[(80, [0, 1]), (443, [2])], [(80, [0]), (22, [3])],
                  [(8080, [4])]]
        got = _fold(groups)
        assert got == {(0, 443): 1, (1, 443): 1, (2, 80): 1, (0, 22): 1,
                       (3, 80): 1}
        assert got == _reference(groups)

    def test_empty_inputs(self):
        for columns in (([], [], [], []), ([0], [], [0], [])):
            keys, counts = fold_model_pairs_arrays(*columns, PACK)
            assert list(keys) == [] and list(counts) == []

    def test_lone_members_and_valueless_members_contribute_nothing(self):
        groups = [[(80, [5])], [(22, [6]), (443, [])]]
        assert _fold(groups) == {(6, 443): 1}

    def test_many_joined_pairs_preserve_counts(self):
        # Tens of thousands of joined pairs over repeated groups.
        group = [(1, list(range(50)))] + [(label, []) for label in range(2, 60)]
        got = _fold([group] * 8)
        assert got == _reference([group] * 8)
        assert sum(got.values()) == 8 * 50 * 58

    def test_labels_up_to_pack_base_unpack_exactly(self):
        # The largest label below pack_base must not carry into the value.
        groups = [[(1, [0, 7]), (PACK - 1, [7])]]
        got = _fold(groups)
        assert got == {(0, PACK - 1): 1, (7, PACK - 1): 1, (7, 1): 1}
        assert got == _reference(groups)

    @settings(deadline=None, max_examples=50)
    @given(st.lists(st.dictionaries(st.integers(1, 6),
                                    st.lists(st.integers(0, 9), max_size=4),
                                    max_size=5),
                    max_size=8))
    def test_equals_materialized_join(self, groups):
        groups = [list(members.items()) for members in groups]
        assert _fold(groups) == _reference(groups)

    @settings(deadline=None, max_examples=30)
    @given(st.lists(st.integers(0, 20), max_size=40))
    def test_value_counts_equal_counter(self, value_ids):
        ids, counts = fold_value_counts_arrays(value_ids)
        assert list(ids) == sorted(set(value_ids))
        assert dict(zip(ids, counts)) == Counter(value_ids)
