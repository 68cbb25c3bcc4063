"""Fused streaming folds: the engine's three Table 2 query shapes.

Each of GPS's builds is one fold over the host/service/predictor relation,
flattened into offset-indexed integer columns (hosts own runs of services,
services own runs of dictionary-encoded predictor ids):

* :func:`count_join_chunk` -- the Section 5.2 model build's self-join +
  group-by + count, streamed: every (predictor, other port) combination
  folds straight into a counter, so the quadratic joined relation never
  exists;
* :func:`count_partner_chunk` -- the Section 5.3 priors planner's
  per-host partner selection, folding ``(port, subnet)`` coverage counts;
* :func:`select_argmax_chunk` -- the Section 5.4 index build's per-service
  argmax over the host's other services' predictors.

Payloads are plain picklable tuples, so the same functions run in-process
and inside :mod:`repro.engine.runtime` workers against their resident
shards.  The numpy kernels at the bottom are the vectorized twins of the
model-build fold (the ``numpy`` column backend).
"""

from __future__ import annotations

from collections import Counter
from typing import Any, List, Tuple

from repro.engine.columns import IntColumn, require_numpy, to_numpy

__all__ = [
    "count_join_chunk",
    "count_partner_chunk",
    "fold_model_pairs_arrays",
    "fold_value_counts_arrays",
    "select_argmax_chunk",
]


# -- fused self-join (the model-build query shape) ----------------------------------------


def count_join_chunk(payload: Tuple[Any, ...]) -> Counter:
    """Stream left rows through a per-key label index, counting packed pairs.

    ``payload`` is ``(left_keys, left_values, left_labels, index,
    pack_base)``: row ``i`` of the streamed side joins every label in
    ``index[left_keys[i]]`` except its own ``left_labels[i]`` (the
    left-vs-right self-pair exclusion), and each surviving pair counts under
    the packed key ``left_values[i] * pack_base + label``.  Every label must
    be below ``pack_base``; drivers unpack with ``divmod``.  Hashing one small
    int is several times cheaper than hashing a 2-tuple, and the packed keys
    fold through a bounded buffer so the counting itself runs in C
    (``Counter.update`` over a list of ints) instead of one interpreted
    dict-increment per joined pair.
    """
    left_keys, left_values, left_labels, index, pack_base = payload
    counts: Counter = Counter()
    buffer: List[int] = []
    buffer_append = buffer.append
    flush = counts.update
    for i in range(len(left_keys)):
        own = left_labels[i]
        packed = left_values[i] * pack_base
        for label in index[left_keys[i]]:
            if label != own:
                buffer_append(packed + label)
        if len(buffer) >= 8192:
            flush(buffer)
            buffer.clear()
    if buffer:
        flush(buffer)
    return counts


# -- fused partner selection (the priors-planning query shape) --------------------------


def count_partner_chunk(payload: Tuple[Any, ...]) -> Counter:
    """Fold one chunk of groups into ``(partner_label, group_key)`` counts.

    The Section 5.3 priors-planning query shape.  Rows are *members*
    (services) grouped into *groups* (hosts), flattened into offset-indexed
    columns: ``payload`` is ``(group_keys, member_starts, labels,
    value_starts, value_ids, target_counts, denominators, allowed)``, plain
    data, so the same function runs in-process and in a runtime worker.

    * ``group_keys``: one key per group (the host's subnet key);
    * ``member_starts``: group ``g`` owns members
      ``member_starts[g]:member_starts[g + 1]`` (offsets index ``labels``
      and ``value_starts`` directly, and ``value_starts`` indexes
      ``value_ids`` directly);
    * ``labels``: per-member label (the service's port), ascending within
      each group -- the tie-break relies on this;
    * ``value_starts`` / ``value_ids``: each member's run of encoded values
      (predictor-tuple ids);
    * ``target_counts`` / ``denominators``: per encoded id, its
      ``label -> co-occurrence count`` row and its support.  Precondition: a
      value's row never contains its own member's label (true by
      construction for co-occurrence counts); the saturation early-exit
      relies on it;
    * ``allowed``: optional label whitelist applied to the *selected*
      partner (and to single-member groups) before counting.

    For every member of a multi-member group the fold selects the partner
    member whose values score highest against the member's label, ties
    going to the smallest partner label, and counts ``(partner_label,
    group_key)``; single-member groups count their only member.  Scores are
    ``count / denominator`` divisions with the very operands the reference
    planner divides, so the selections are bit-identical.  Per group of
    ``k`` members the scratch is three ``k``-length lists; the selected
    partner folds straight into the counter and the scratch dies with the
    group.
    """
    (group_keys, member_starts, labels, value_starts, value_ids,
     target_counts, denominators, allowed) = payload
    counts: Counter = Counter()
    if not group_keys:
        return counts
    for g in range(len(group_keys)):
        lo = member_starts[g]
        hi = member_starts[g + 1]
        k = hi - lo
        if k == 0:
            continue
        group_key = group_keys[g]
        if k == 1:
            label = labels[lo]
            if allowed is None or label in allowed:
                counts[(label, group_key)] += 1
            continue
        if k == 2:
            # A two-member group forces the choice: each member's only
            # candidate partner is the other member, whatever its score.
            first, second = labels[lo], labels[lo + 1]
            if allowed is None or second in allowed:
                counts[(second, group_key)] += 1
            if allowed is None or first in allowed:
                counts[(first, group_key)] += 1
            continue
        members = labels[lo:hi]
        # For every target member i, the running best (score, partner label)
        # over source members j != i.  Scores are folded source-major so each
        # count row is fetched once per source value, and the strict > keeps
        # the first (smallest-label) source on ties -- the documented
        # deterministic tie-break.  A value never scores against its own
        # member (its count row cannot contain its own label), so col[j]
        # stays 0.0 and needs no exclusion test in the inner loop.
        best_score = [-1.0] * k
        best_partner = [0] * k
        full = k - 1
        for j in range(k):
            v_lo = value_starts[lo + j]
            v_hi = value_starts[lo + j + 1]
            col = [0.0] * k
            saturated = 0
            for v in range(v_lo, v_hi):
                pid = value_ids[v]
                row = target_counts[pid]
                if not row:
                    continue
                denom = denominators[pid]
                row_get = row.get
                i = 0
                for member in members:
                    count = row_get(member)
                    if count:
                        if count == denom:
                            # Exactly 1.0, the maximum a score can reach;
                            # once every other member is saturated no later
                            # value of this member can improve anything.
                            if col[i] != 1.0:
                                col[i] = 1.0
                                saturated += 1
                        else:
                            score = count / denom
                            if score > col[i]:
                                col[i] = score
                    i += 1
                if saturated == full:
                    break
            partner = members[j]
            for i in range(k):
                if i != j and col[i] > best_score[i]:
                    best_score[i] = col[i]
                    best_partner[i] = partner
        for i in range(k):
            partner = best_partner[i]
            if allowed is None or partner in allowed:
                counts[(partner, group_key)] += 1
    return counts


# -- fused argmax partner selection (the prediction-index query shape) --------------------


def select_argmax_chunk(payload: Tuple[Any, ...]) -> List[Tuple[int, int, float]]:
    """Select one chunk's ``(label, value_id, score)`` winners, in member order.

    The Section 5.4 most-predictive-feature query shape, over the same
    group/member/value layout as :func:`count_partner_chunk`: ``payload`` is
    ``(member_starts, labels, value_starts, value_ids, target_counts,
    denominators, tie_ranks, allowed, min_support, cutoff)``.  For every
    member of a group with at least two members, the fold selects the single
    value, drawn from the group's *other* members, that wins under
    :meth:`repro.core.model.CooccurrenceModel.best_predictor`'s ordering --
    maximum ``count / support``, then larger support, then the smallest
    predictor tuple (``tie_ranks`` gives each id its rank in ascending
    decoded-tuple order, since ids are first-seen-ordered) -- and emits it
    unless it scores below ``cutoff``.  Selection is two-tier: values with
    support below ``min_support`` win only when no supported value scores.
    ``allowed`` whitelists the *target* member (a disallowed member's values
    still score for its siblings).

    Per group of ``k`` members the scratch is eight ``k``-length lists (the
    running best per target for the supported and fallback tiers); winners
    append straight to the output and the scratch dies with the group.
    """
    (member_starts, labels, value_starts, value_ids, target_counts,
     denominators, tie_ranks, allowed, min_support, cutoff) = payload
    out: List[Tuple[int, int, float]] = []
    groups = len(member_starts) - 1
    if groups <= 0:
        return out
    for g in range(groups):
        lo = member_starts[g]
        hi = member_starts[g + 1]
        k = hi - lo
        if k < 2:
            continue
        members = labels[lo:hi]
        # Two running bests per target member i: one over values with
        # support >= min_support, one over the rest; the fallback tier only
        # wins when the supported tier stays empty (mirroring the reference's
        # best_predictor(min_support) call followed by the unrestricted one).
        # Scores are folded source-major so each count row is fetched once
        # per value.  A member's own values are excluded explicitly (i != j):
        # the reference draws candidates only from the group's *other*
        # members, and although a predictor tuple produced by the feature
        # extractor embeds its own port (so its count row can never contain
        # it), the operator must match the oracle for any caller-supplied
        # model, not just well-formed co-occurrence counts.
        sup_prob = [0.0] * k
        sup_support = [0] * k
        sup_rank = [0] * k
        sup_id = [-1] * k
        uns_prob = [0.0] * k
        uns_support = [0] * k
        uns_rank = [0] * k
        uns_id = [-1] * k
        for j in range(k):
            v_lo = value_starts[lo + j]
            v_hi = value_starts[lo + j + 1]
            for v in range(v_lo, v_hi):
                pid = value_ids[v]
                row = target_counts[pid]
                if not row:
                    continue
                denom = denominators[pid]
                rank = tie_ranks[pid]
                row_get = row.get
                if denom >= min_support:
                    b_prob, b_support = sup_prob, sup_support
                    b_rank, b_id = sup_rank, sup_id
                else:
                    b_prob, b_support = uns_prob, uns_support
                    b_rank, b_id = uns_rank, uns_id
                i = 0
                for member in members:
                    if i != j:
                        count = row_get(member)
                        if count:
                            # prob > 0 always holds here, so the initial
                            # (0.0, 0, _) sentinel can never tie a real score
                            # and the rank comparison only fires between two
                            # genuine candidates -- exactly the reference's
                            # "best is not None" guard.
                            prob = count / denom
                            cur = b_prob[i]
                            if (prob > cur
                                    or (prob == cur
                                        and (denom > b_support[i]
                                             or (denom == b_support[i]
                                                 and rank < b_rank[i])))):
                                b_prob[i] = prob
                                b_support[i] = denom
                                b_rank[i] = rank
                                b_id[i] = pid
                    i += 1
        for i in range(k):
            label = members[i]
            if allowed is not None and label not in allowed:
                continue
            if sup_id[i] >= 0:
                pid, prob = sup_id[i], sup_prob[i]
            elif uns_id[i] >= 0:
                pid, prob = uns_id[i], uns_prob[i]
            else:
                continue
            if prob < cutoff:
                continue
            out.append((label, pid, prob))
    return out


# -- bulk array kernels (the numpy column backend) ---------------------------------------
#
# The folds above stream row-by-row through Python loops -- the stdlib
# backend, and the equivalence oracle for everything below.  When the numpy
# gate is on (see repro.engine.columns), the model-build fold runs instead as
# whole-column ufunc passes over the group-structured buffers: expand the
# join's full multiset of packed keys, sort it, run-length count it, and
# subtract the excluded self pairs.  Sorting machine words is cheaper than a
# per-pair dict hop, and numpy releases the GIL inside its C loops -- which
# is what lets the thread executor fold resident shards concurrently.


def _run_length(np, sorted_values):
    """Distinct values and their run lengths of an already-sorted array."""
    boundaries = np.flatnonzero(sorted_values[1:] != sorted_values[:-1])
    starts = np.concatenate((np.zeros(1, dtype=np.int64), boundaries + 1))
    uniq = sorted_values[starts]
    counts = np.diff(np.append(starts, sorted_values.size))
    return uniq, counts


def _int_column_of(np, values) -> IntColumn:
    """An :class:`IntColumn` holding an int64 ndarray's values (one memcpy)."""
    column = IntColumn()
    column.frombytes(np.ascontiguousarray(values, dtype=np.int64).tobytes())
    return column


def fold_model_pairs_arrays(member_starts, labels, value_starts, value_ids,
                            pack_base: int) -> Tuple[IntColumn, IntColumn]:
    """The model-build join fold as bulk array passes (numpy backend).

    Input is the flattened group structure every fused fold uses (and every
    resident shard stores): group ``g`` owns members
    ``member_starts[g]:member_starts[g+1]``, member ``m`` carries the label
    ``labels[m]`` and the encoded values
    ``value_ids[value_starts[m]:value_starts[m+1]]``.  The fold counts, for
    every value of every member, one occurrence per *other* member's label in
    the same group, keyed ``value_id * pack_base + label`` -- exactly the
    packed counter :func:`count_join_chunk` produces for the model join
    (the tests pin the equivalence).

    Precondition: labels are unique within each group (host port runs are,
    by construction) -- the join excludes matches whose label equals the
    carrying member's own, which under uniqueness is exactly one self pair
    per value, subtracted here as a second run-length pass.

    Returns ``(keys, counts)`` sorted by packed key, as picklable
    :class:`IntColumn` buffers (a pool worker's reply needs no numpy on the
    receiving side).
    """
    np = require_numpy()
    ms = to_numpy(member_starts)
    ports = to_numpy(labels)
    vcounts = np.diff(to_numpy(value_starts))
    vids = to_numpy(value_ids)
    n_groups = ms.size - 1
    if n_groups <= 0 or vids.size == 0:
        return IntColumn(), IntColumn()
    sizes = np.diff(ms)
    group_of_member = np.repeat(np.arange(n_groups, dtype=np.int64), sizes)
    member_of_value = np.repeat(
        np.arange(ports.size, dtype=np.int64), vcounts)
    group_of_value = group_of_member[member_of_value]
    reps = sizes[group_of_value]
    total = int(reps.sum())
    if total == 0:
        return IntColumn(), IntColumn()
    # Expand the full multiset (every value x every label of its group,
    # self included): out_starts[v] is where value v's run begins in the
    # output, so (arange - run start + group's member offset) indexes the
    # right span of ``ports`` for every output slot at once.
    out_ends = np.cumsum(reps)
    out_starts = out_ends - reps
    idx = np.arange(total, dtype=np.int64) + np.repeat(
        ms[group_of_value] - out_starts, reps)
    full = np.repeat(vids, reps) * pack_base + ports[idx]
    # In-place sort + run-length count; np.sort over int64 is the whole
    # fold's hot loop and runs GIL-free.  (No argsort anywhere: a stable
    # argsort of the expansion costs an order of magnitude more than the
    # value sort and nothing here needs original positions.)
    full.sort()
    uniq, counts = _run_length(np, full)
    # Subtract the excluded self pairs: each value once against its own
    # member's label.  Every self key exists in ``uniq`` by construction, so
    # searchsorted hits exact positions.
    self_keys = np.sort(vids * pack_base + ports[member_of_value])
    self_uniq, self_counts = _run_length(np, self_keys)
    counts[np.searchsorted(uniq, self_uniq)] -= self_counts
    keep = counts > 0
    return _int_column_of(np, uniq[keep]), _int_column_of(np, counts[keep])


def fold_value_counts_arrays(value_ids) -> Tuple[IntColumn, IntColumn]:
    """``Counter(value_ids)`` as a bulk sort + run-length pass (numpy backend).

    The model build's denominator fold: how many services carry each encoded
    predictor id.  Returns ``(ids, counts)`` sorted by id, as picklable
    :class:`IntColumn` buffers.
    """
    np = require_numpy()
    vids = to_numpy(value_ids)
    if vids.size == 0:
        return IntColumn(), IntColumn()
    ordered = np.sort(vids)
    uniq, counts = _run_length(np, ordered)
    return _int_column_of(np, uniq), _int_column_of(np, counts)
