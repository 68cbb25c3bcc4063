"""Fused folds: the engine's three Table 2 query shapes.

Each of GPS's builds is one fold over the host/service/predictor relation,
flattened into offset-indexed integer columns (hosts own runs of services,
services own runs of dictionary-encoded predictor ids):

* :func:`fold_model_pairs_arrays` / :func:`fold_value_counts_arrays` -- the
  Section 5.2 model build's self-join + group-by + count as whole-column
  numpy passes: the joined relation exists only as one sorted array of
  packed keys, never as Python rows;
* :func:`candidate_table` -- every service paired with the predictor ids of
  its host's other services that score against its port, looked up in the
  model's packed counts: the relation both later builds reduce;
* :func:`fold_partner_counts` -- the Section 5.3 priors planner's per-host
  partner selection, folding ``(port, subnet)`` coverage counts;
* :func:`fold_argmax_winners` -- the Section 5.4 index build's per-service
  argmax over the host's other services' predictors.

Inputs are plain columns, so the same functions fold the payload
:mod:`repro.engine.runtime` holds or an ad-hoc relation.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from repro.engine.columns import to_numpy

__all__ = [
    "candidate_table",
    "expand_ranges",
    "fold_argmax_winners",
    "fold_model_pairs_arrays",
    "fold_partner_counts",
    "fold_value_counts_arrays",
    "keep_segment_max",
    "segment_starts",
]


# -- fused self-join (the model-build query shape) ----------------------------------------
#
# The model-build fold runs as whole-column ufunc passes over the
# group-structured buffers: expand the join's full multiset of packed keys,
# sort it, run-length count it, and subtract the excluded self pairs.
# Sorting machine words is cheaper than a per-pair dict hop.


#: The reply column of a fold over nothing.
_EMPTY = np.zeros(0, dtype=np.int64)


def _run_length(sorted_values):
    """Distinct values and their run lengths of an already-sorted array."""
    boundaries = np.flatnonzero(sorted_values[1:] != sorted_values[:-1])
    starts = np.concatenate((np.zeros(1, dtype=np.int64), boundaries + 1))
    uniq = sorted_values[starts]
    counts = np.diff(np.append(starts, sorted_values.size))
    return uniq, counts


def fold_model_pairs_arrays(member_starts, labels, value_starts, value_ids,
                            pack_base: int):
    """The model-build join fold as bulk array passes.

    Input is the flattened group structure every fused fold uses (and the
    runtime's resident payload stores): group ``g`` owns members
    ``member_starts[g]:member_starts[g+1]``, member ``m`` carries the label
    ``labels[m]`` and the encoded values
    ``value_ids[value_starts[m]:value_starts[m+1]]``.  The fold counts, for
    every value of every member, one occurrence per *other* member's label in
    the same group, keyed ``value_id * pack_base + label``.  Every label
    must be below ``pack_base``; callers unpack with ``divmod``.

    Precondition: labels are unique within each group (host port runs are,
    by construction) -- the join excludes matches whose label equals the
    carrying member's own, which under uniqueness is exactly one self pair
    per value, subtracted here as a second run-length pass.

    Returns ``(keys, counts)`` int64 arrays sorted by packed key.
    """
    ms = to_numpy(member_starts)
    ports = to_numpy(labels)
    vcounts = np.diff(to_numpy(value_starts))
    vids = to_numpy(value_ids)
    n_groups = ms.size - 1
    if n_groups <= 0 or vids.size == 0:
        return _EMPTY, _EMPTY
    sizes = np.diff(ms)
    group_of_member = np.repeat(np.arange(n_groups, dtype=np.int64), sizes)
    member_of_value = np.repeat(
        np.arange(ports.size, dtype=np.int64), vcounts)
    group_of_value = group_of_member[member_of_value]
    reps = sizes[group_of_value]
    total = int(reps.sum())
    if total == 0:
        return _EMPTY, _EMPTY
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
    # fold's hot loop.  (No argsort anywhere: a stable
    # argsort of the expansion costs an order of magnitude more than the
    # value sort and nothing here needs original positions.)
    full.sort()
    uniq, counts = _run_length(full)
    # Subtract the excluded self pairs: each value once against its own
    # member's label.  Every self key exists in ``uniq`` by construction, so
    # searchsorted hits exact positions.
    self_keys = np.sort(vids * pack_base + ports[member_of_value])
    self_uniq, self_counts = _run_length(self_keys)
    counts[np.searchsorted(uniq, self_uniq)] -= self_counts
    keep = counts > 0
    return uniq[keep], counts[keep]


def fold_value_counts_arrays(value_ids):
    """``Counter(value_ids)`` as a bulk sort + run-length pass.

    The model build's denominator fold: how many services carry each encoded
    predictor id.  Returns ``(ids, counts)`` int64 arrays sorted by id.
    """
    vids = to_numpy(value_ids)
    if vids.size == 0:
        return _EMPTY, _EMPTY
    return _run_length(np.sort(vids))


# -- partner selection and argmax over one candidate table -------------------------------
#
# The Section 5.3 priors planner and the Section 5.4 index build score the
# same relation: every service (the *target*) against the predictor ids of
# its host's other services.  One candidate table per model holds
# the pairs that score; each build is then a few segment reductions over it.


def segment_starts(segments):
    """Start rows of the runs of equal values in ``segments`` (equal values
    adjacent, as in any sorted array)."""
    change = np.empty(segments.size, dtype=bool)
    change[:1] = True
    np.not_equal(segments[1:], segments[:-1], out=change[1:])
    return np.flatnonzero(change)


def expand_ranges(starts, counts):
    """``starts[i] .. starts[i] + counts[i] - 1`` for each ``i``, concatenated:
    the positions of the runs of a CSR that rows ``i`` select."""
    ends = np.cumsum(counts)
    return (np.arange(int(ends[-1]) if ends.size else 0)
            + np.repeat(starts - (ends - counts), counts))


def candidate_table(member_starts, labels, value_starts, value_ids,
                    pair_keys, pair_counts, supports, pack_base: int) -> dict:
    """Every (target service, other service's predictor id) pair that scores.

    The input is the group structure of the model fold (groups = hosts,
    members = services labelled by port ascending, values = encoded
    predictor ids) and the model's score tables: ``pair_keys``, sorted
    ``predictor id * pack_base + port`` keys, their positive co-occurrence
    ``pair_counts``, and ``supports`` indexed by predictor id (positive for
    every id in ``pair_keys``).  For each member of a group of two or more,
    the values of the group's *other* members are listed in member, then
    value order; a value is kept when its count against the member's label
    is found by ``searchsorted``.  The table's parallel columns:

    * ``target``: the scored member, ascending;
    * ``source``: the member carrying the value;
    * ``pid``: the predictor id;
    * ``prob``: ``count / support``, the float division the reference
      model's ``probability`` performs on the same two integers.

    A value never scores against its own member, whatever the model holds.
    """
    ms = to_numpy(member_starts)
    ports = to_numpy(labels)
    vs = to_numpy(value_starts)
    vids = to_numpy(value_ids)
    keys = to_numpy(pair_keys)
    sizes = np.diff(ms)
    group_of_member = np.repeat(np.arange(sizes.size, dtype=np.int64), sizes)
    targets = np.flatnonzero(sizes[group_of_member] >= 2)
    groups = group_of_member[targets]
    group_lo = vs[ms[groups]]
    own_lo = vs[targets]
    own_len = vs[targets + 1] - own_lo
    lengths = vs[ms[groups + 1]] - group_lo - own_len
    total = int(lengths.sum()) if lengths.size else 0
    empty = np.zeros(0, dtype=np.int64)
    if total == 0 or keys.size == 0:
        return {"target": empty, "source": empty, "pid": empty,
                "prob": np.zeros(0, dtype=np.float64)}
    # Row r of target t reads the group's value run with t's own run cut
    # out: offsets at or past the cut shift by t's run length.
    run_start = np.cumsum(lengths) - lengths
    pos = (np.arange(total, dtype=np.int64)
           + np.repeat(group_lo - run_start, lengths))
    pos += (pos >= np.repeat(own_lo, lengths)) * np.repeat(own_len, lengths)
    target = np.repeat(targets, lengths)
    pid = vids[pos]
    wanted = pid * pack_base + ports[target]
    slot = np.searchsorted(keys, wanted)
    np.minimum(slot, keys.size - 1, out=slot)
    hit = np.flatnonzero(keys[slot] == wanted)
    pid = pid[hit]
    member_of_value = np.repeat(np.arange(ports.size, dtype=np.int64),
                                np.diff(vs))
    return {
        "target": target[hit],
        "source": member_of_value[pos[hit]],
        "pid": pid,
        "prob": to_numpy(pair_counts)[slot[hit]] / to_numpy(supports)[pid],
    }


def fold_partner_counts(group_keys, member_starts, labels, table: dict,
                        allowed, pack_base: int) -> Counter:
    """The Section 5.3 partner selection: ``(partner label, group key)`` counts.

    Over :func:`candidate_table`'s rows, every member of a multi-member
    group picks the partner member whose values score highest against its
    label: each target's maximum (``maximum.reduceat``), then the first
    row reaching it -- rows run in member order, so ties go to the smallest
    partner label.  A target without a scoring row scores 0 against every
    partner and takes the smallest other label; a one-member group counts
    its only member.  ``allowed`` (a label array or ``None``) whitelists the
    selected partner.  Scores are the reference planner's own divisions, so
    the counts are bit-identical to it.
    """
    ms = to_numpy(member_starts)
    ports = to_numpy(labels)
    sizes = np.diff(ms)
    group_of_member = np.repeat(np.arange(sizes.size, dtype=np.int64), sizes)
    members = np.arange(ports.size, dtype=np.int64)
    first = ms[group_of_member]
    partner = np.where(sizes[group_of_member] == 1, members,
                       np.where(members == first, first + 1, first))
    target = table["target"]
    hits = keep_segment_max(target, table["prob"])
    firsts = hits[segment_starts(target[hits])]
    partner[target[firsts]] = table["source"][firsts]
    chosen = ports[partner]
    keys = to_numpy(group_keys)[group_of_member]
    if allowed is not None:
        keep = np.isin(chosen, allowed)
        chosen, keys = chosen[keep], keys[keep]
    packed, counts = np.unique(keys * pack_base + chosen, return_counts=True)
    return Counter(dict(zip(zip((packed % pack_base).tolist(),
                                (packed // pack_base).tolist()),
                            counts.tolist())))


def keep_segment_max(segments, key):
    """Indices of the rows whose ``key`` reaches their segment's maximum.

    ``segments`` labels each row's segment, equal labels adjacent.
    """
    starts = segment_starts(segments)
    best = np.maximum.reduceat(key, starts)
    return np.flatnonzero(
        key == np.repeat(best, np.diff(np.append(starts, key.size))))


def fold_argmax_winners(labels, table: dict, supports, allowed,
                        min_support: int, cutoff: float):
    """The Section 5.4 argmax: each target member's best-scoring rows.

    Over :func:`candidate_table`'s rows, each target keeps the rows that
    lead under :meth:`repro.core.model.CooccurrenceModel.best_predictor`'s
    order, by staged segment reductions: the supported tier first
    (support >= ``min_support``; the rest win only when no supported value
    scores), then the maximum probability, then the larger support.  The
    order's last key, the smallest predictor tuple, needs the decoded
    tuples, so a target still tied keeps every tied row for the caller to
    break.  ``allowed`` (a label array or ``None``) whitelists the target;
    targets scoring below ``cutoff`` are dropped.

    Returns ``(target, pid, prob)`` arrays, grouped by ascending target.
    """
    target, pid, prob = table["target"], table["pid"], table["prob"]
    if allowed is not None:
        keep = np.isin(to_numpy(labels)[target], allowed)
        target, pid, prob = target[keep], pid[keep], prob[keep]
    support = to_numpy(supports)[pid]
    columns = (target, pid, prob, support, support >= min_support)
    for stage in (4, 2, 3):  # tier, then probability, then support
        keep = keep_segment_max(columns[0], columns[stage])
        columns = tuple(column[keep] for column in columns)
    target, pid, prob = columns[:3]
    keep = prob >= cutoff
    return target[keep], pid[keep], prob[keep]
