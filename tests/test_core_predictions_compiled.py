"""The compiled ``predict`` against the dictionary oracle ``predict_reference``.

:meth:`PredictiveFeatureIndex.predict` matches services against per-port
tables compiled from the index and returns columnar :class:`Predictions`;
:meth:`PredictiveFeatureIndex.predict_reference` derives every predictor
tuple and looks it up.  They must agree row for row -- order, probabilities
and, on equal-probability ties, the predictor tuple kept -- on batch input
and on object input, under every feature ablation, with suppressed known
pairs and with batch-local banners.  Hypothesis draws small domains (a few
ports, hosts, app values and probabilities) so ties across families and
across rows of the same host are common.  The batch route's ids must not
assume a width: banner ids past 2**15, ports up to 65535, ASN tables with
nested prefixes and unannounced addresses, no ASN table at all, and
batches that are empty or match no port.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import NETWORK_FEATURE_KINDS, FeatureConfig
from repro.core.features import network_feature_values
from repro.core.predictions import (
    PredictedService,
    Predictions,
    PredictiveFeature,
    PredictiveFeatureIndex,
    _order,
)
from repro.engine.encoding import DictionaryEncoder
from repro.internet.banners import BannerInterner
from repro.net.asn import AsnDatabase, AsnRecord
from repro.scanner.records import ObservationBatch, ScanObservation

PORTS = (22, 80, 443, 8080)
APP_KEYS = ("protocol", "server", "title")
APP_VALUES = ("a", "b")
PROBABILITIES = (0.5, 1.0)
# Two hosts in 10.0.0.0/24, one elsewhere in 10.0/16, two in 10.1/16 (one
# of them outside every announcement, so its ASN feature is skipped).
IPS = (0x0A000001, 0x0A000002, 0x0A00F001, 0x0A010001, 0x0A018001)
ASN_DB = AsnDatabase([AsnRecord(0x0A000000, 16, 100),
                      AsnRecord(0x0A010000, 17, 200)])
NET_VALUES = sorted({value for ip in IPS
                     for value in network_feature_values(ip, ASN_DB,
                                                         NETWORK_FEATURE_KINDS)})

ports = st.sampled_from(PORTS)
app_items = st.tuples(st.sampled_from(APP_KEYS), st.sampled_from(APP_VALUES))
# Mostly the default kinds' values of the first two hosts (one /16, one
# ASN), so several predictors match one row and tie; any value otherwise.
net_values = st.one_of(
    st.sampled_from(network_feature_values(IPS[0], ASN_DB, ("asn", "subnet16"))),
    st.sampled_from(NET_VALUES))
predictors = st.one_of(
    st.tuples(st.just("P"), ports),
    st.builds(lambda port, app: ("PA", port) + app, ports, app_items),
    st.builds(lambda port, net: ("PN", port) + net, ports, net_values),
    st.builds(lambda port, app, net: ("PAN", port) + app + net,
              ports, app_items, net_values),
)
features = st.lists(st.builds(PredictiveFeature, predictor=predictors,
                              target_port=ports,
                              probability=st.sampled_from(PROBABILITIES)),
                    min_size=4, max_size=30)
banners = st.dictionaries(st.sampled_from(APP_KEYS),
                          st.sampled_from(APP_VALUES + ("",)), max_size=3)
# (ip, port, banner, carried as a batch-local banner?)
rows = st.lists(st.tuples(st.sampled_from(IPS), ports, banners, st.booleans()),
                min_size=1, max_size=20)
known = st.sets(st.tuples(st.sampled_from(IPS), ports), max_size=6)

#: The ablations the oracle must agree under: the default, transport only,
#: each family off, app-key subsets, and each network kind alone.
ABLATIONS = (
    [FeatureConfig(), FeatureConfig().transport_only()]
    + [FeatureConfig(**{flag: False}) for flag in (
        "include_transport_only", "include_app", "include_network",
        "include_app_network")]
    + [FeatureConfig(app_feature_keys=keys) for keys in (
        (), ("protocol",), ("title", "server"))]
    + [FeatureConfig(network_feature_kinds=(kind,))
       for kind in NETWORK_FEATURE_KINDS]
)


def _batch(drawn_rows, like=None):
    """Fold drawn rows into one batch; flagged banners ride batch-local.

    ``like`` lends its interner and status encoder, so the two can concatenate.
    """
    batch = (ObservationBatch(banners=BannerInterner()) if like is None
             else ObservationBatch(banners=like.banners, statuses=like.statuses))
    status = batch.status_id("http")
    for ip, port, banner, local in drawn_rows:
        banner_id = (batch.add_local_banner(banner) if local
                     else batch.banners.intern(banner))
        batch.append(ip, port, status, banner_id, 64)
    return batch


def _agree(index, batch, config, known_pairs, asn_db=ASN_DB):
    expected = index.predict_reference(batch.materialize(), asn_db, config,
                                       known_pairs=known_pairs)
    on_batch = index.predict(batch, asn_db, config, known_pairs=known_pairs)
    on_objects = index.predict(
        [ScanObservation(ip=o.ip, port=o.port, protocol=o.protocol,
                         app_features=dict(o.app_features))
         for o in batch], asn_db, config, known_pairs=known_pairs)
    assert on_batch.materialize() == expected
    assert on_objects.materialize() == expected
    # Field by field too: == on PredictedService already compares the
    # predictor tuple, this pins the probability column's type as well.
    assert [(p.ip, p.port, p.probability, p.predictor) for p in on_batch] == \
        [(p.ip, p.port, p.probability, p.predictor) for p in expected]


@pytest.mark.parametrize("config", ABLATIONS, ids=lambda c: repr(c)[:60])
@settings(max_examples=40, deadline=None)
@given(features=features, drawn_rows=rows, known_pairs=known)
def test_compiled_predict_matches_reference(config, features, drawn_rows,
                                            known_pairs):
    index = PredictiveFeatureIndex(features)
    _agree(index, _batch(drawn_rows), config, known_pairs)


@settings(max_examples=60, deadline=None)
@given(features=features, drawn_rows=rows, known_pairs=known,
       app_keys=st.lists(st.sampled_from(APP_KEYS), unique=True),
       kinds=st.lists(st.sampled_from(NETWORK_FEATURE_KINDS), unique=True,
                      max_size=3),
       flags=st.tuples(st.booleans(), st.booleans(), st.booleans(),
                       st.booleans()).filter(any))
def test_compiled_predict_matches_reference_any_config(features, drawn_rows,
                                                       known_pairs, app_keys,
                                                       kinds, flags):
    config = FeatureConfig(app_feature_keys=tuple(app_keys),
                           network_feature_kinds=tuple(kinds),
                           include_transport_only=flags[0], include_app=flags[1],
                           include_network=flags[2],
                           include_app_network=flags[3])
    _agree(PredictiveFeatureIndex(features), _batch(drawn_rows), config,
           known_pairs)


@settings(max_examples=40, deadline=None)
@given(features=features, first=rows, second=rows)
def test_predict_on_concatenated_batches(features, first, second):
    """Banners re-based by ``extend`` still match what they matched before."""
    index = PredictiveFeatureIndex(features)
    head = _batch(first)
    tail = _batch(second, like=head)
    expected = index.predict_reference(head.materialize() + tail.materialize(),
                                       ASN_DB, FeatureConfig())
    head.extend(tail)
    assert index.predict(head, ASN_DB, FeatureConfig()).materialize() == expected


# -- wide ids and nested ASN tables ---------------------------------------------------

#: Ports at both ends of the 16-bit range, beside two common ones.
WIDE_PORTS = (1, 80, 32768, 65535)
#: Nested announcements of several lengths: 10/8 holds 10.0/16, which holds
#: 10.0.0/24, which holds 10.0.0.128/25; 10.1.128/17 holds 10.1.128/20.
NESTED_DB = AsnDatabase([AsnRecord(0x0A000000, 8, 1),
                         AsnRecord(0x0A000000, 16, 2),
                         AsnRecord(0x0A000000, 24, 3),
                         AsnRecord(0x0A000080, 25, 4),
                         AsnRecord(0x0A018000, 17, 5),
                         AsnRecord(0x0A018000, 20, 6)])
#: One address at each nesting depth, one in a nested /20, two outside
#: every announcement (one in a neighbouring /8, one far away).
NESTED_IPS = (0x0A000001, 0x0A000081, 0x0A00F001, 0x0AFF0001, 0x0A018001,
              0x0A01F001, 0x0B000001, 0xC0A80001)


def _world(port_pool, ip_pool, asn_db):
    """(features, rows, known) strategies over the given ports and hosts."""
    port = st.sampled_from(port_pool)
    values = sorted({value for ip in ip_pool
                     for value in network_feature_values(ip, asn_db,
                                                         NETWORK_FEATURE_KINDS)})
    net = st.sampled_from(values) if values else st.just(("subnet16", 1))
    predictor = st.one_of(
        st.tuples(st.just("P"), port),
        st.builds(lambda p, app: ("PA", p) + app, port, app_items),
        st.builds(lambda p, n: ("PN", p) + n, port, net),
        st.builds(lambda p, app, n: ("PAN", p) + app + n, port, app_items, net),
    )
    drawn_features = st.lists(
        st.builds(PredictiveFeature, predictor=predictor, target_port=port,
                  probability=st.sampled_from(PROBABILITIES)),
        min_size=4, max_size=30)
    drawn_rows = st.lists(st.tuples(st.sampled_from(ip_pool), port, banners,
                                    st.booleans()), min_size=1, max_size=20)
    drawn_known = st.sets(st.tuples(st.sampled_from(ip_pool), port), max_size=6)
    return drawn_features, drawn_rows, drawn_known


WIDE_FEATURES, WIDE_ROWS, WIDE_KNOWN = _world(WIDE_PORTS, IPS, ASN_DB)
NESTED_FEATURES, NESTED_ROWS, NESTED_KNOWN = _world(PORTS, NESTED_IPS, NESTED_DB)


@functools.lru_cache(maxsize=None)
def _wide_interner():
    """An interner already holding 40,000 banners: new ids exceed 2**15."""
    interner = BannerInterner()
    for i in range(40_000):
        interner.intern_value({"title": f"filler-{i}"})
    return interner


def _wide_batch(drawn_rows):
    batch = ObservationBatch(banners=_wide_interner())
    status = batch.status_id("http")
    for ip, port, banner, local in drawn_rows:
        banner_id = (batch.add_local_banner(banner) if local
                     else batch.banners.intern_value(banner))
        batch.append(ip, port, status, banner_id, 64)
    return batch


@settings(max_examples=60, deadline=None)
@given(features=WIDE_FEATURES, drawn_rows=WIDE_ROWS, known_pairs=WIDE_KNOWN,
       config=st.sampled_from(ABLATIONS[:6]))
def test_banner_ids_past_int16_and_ports_up_to_65535(features, drawn_rows,
                                                      known_pairs, config):
    batch = _wide_batch(drawn_rows)
    assert all(banner_id >= 2 ** 15 or banner_id < 0
               for banner_id in batch.banner_ids)
    _agree(PredictiveFeatureIndex(features), batch, config, known_pairs)


@pytest.mark.parametrize("asn_db", [NESTED_DB, None], ids=["nested", "no-asn-db"])
@settings(max_examples=60, deadline=None)
@given(features=NESTED_FEATURES, drawn_rows=NESTED_ROWS, known_pairs=NESTED_KNOWN,
       kinds=st.sampled_from([("asn",), ("asn", "subnet16"),
                              ("subnet23", "asn", "subnet17")]))
def test_nested_asn_prefixes_and_unannounced_addresses(asn_db, features, drawn_rows,
                                                       known_pairs, kinds):
    config = FeatureConfig(network_feature_kinds=kinds)
    _agree(PredictiveFeatureIndex(features), _batch(drawn_rows), config,
           known_pairs, asn_db=asn_db)


@pytest.mark.parametrize("asn_db", [ASN_DB, None], ids=["asn-db", "no-asn-db"])
def test_empty_batch_and_batch_without_matched_ports(asn_db):
    index = PredictiveFeatureIndex([PredictiveFeature(("P", 80), 443, 0.5),
                                    PredictiveFeature(("P", 22), 80, 1.0)])
    empty = _batch([])
    unmatched = _batch([(IPS[0], 443, {"title": "a"}, False),
                        (IPS[1], 8080, {}, True)])
    for batch in (empty, unmatched):
        for known_pairs in (set(), {(IPS[0], 80)}):
            _agree(index, batch, FeatureConfig(), known_pairs, asn_db=asn_db)
            predictions = index.predict(batch, asn_db, FeatureConfig(),
                                        known_pairs=known_pairs)
            assert len(predictions) == 0 and predictions == []


def test_equal_probability_tie_keeps_the_first_family():
    """P, PA, PN and PAN all predict 443 at 0.5: the reference keeps P."""
    ip = IPS[0]
    [net] = network_feature_values(ip, ASN_DB, ("subnet16",))
    index = PredictiveFeatureIndex([
        PredictiveFeature(("PAN", 80, "server", "a") + net, 443, 0.5),
        PredictiveFeature(("PN", 80) + net, 443, 0.5),
        PredictiveFeature(("PA", 80, "server", "a"), 443, 0.5),
        PredictiveFeature(("P", 80), 443, 0.5),
    ])
    config = FeatureConfig(network_feature_kinds=("subnet16",))
    rows = [ScanObservation(ip, 80, "http", {"server": "a"})]
    [prediction] = index.predict(rows, ASN_DB, config)
    assert prediction.predictor == ("P", 80)
    assert index.predict(rows, ASN_DB, config) == \
        index.predict_reference(rows, ASN_DB, config)


def test_ports_without_entries_are_skipped():
    index = PredictiveFeatureIndex([PredictiveFeature(("P", 80), 443, 0.5)])
    rows = [ScanObservation(IPS[0], 22, "ssh", {}),
            ScanObservation(IPS[1], 80, "http", {})]
    assert index.predict(rows, ASN_DB, FeatureConfig()).pairs() == [(IPS[1], 443)]
    # Only the matched row's host reached the network-feature memo.
    assert list(index._net_cache) == [IPS[1]]


@settings(max_examples=200, deadline=None)
@given(data=st.data(), major_bits=st.sampled_from([1, 3, 20, 48]),
       minor_bits=st.sampled_from([1, 4, 15]),
       size=st.integers(min_value=0, max_value=60))
def test_packed_order_is_a_stable_sort_on_both_keys(data, major_bits, minor_bits,
                                                    size):
    """``_order`` packs (major, minor, position) into one int64 sort when
    they fit and falls back to ``lexsort`` when they do not (48 + 15 bits
    and any position); both give the stable (major, minor) order."""
    values = st.lists(st.integers(min_value=0, max_value=2 ** major_bits - 1),
                      min_size=size, max_size=size)
    major = np.array(data.draw(values), dtype=np.int64)
    minor = np.array(data.draw(st.lists(
        st.integers(min_value=0, max_value=2 ** minor_bits - 1),
        min_size=size, max_size=size)), dtype=np.int64)
    expected = sorted(range(size), key=lambda i: (major[i], minor[i]))
    assert _order(major, major_bits, minor, minor_bits).tolist() == expected


@pytest.mark.parametrize("major, major_bits, minor, minor_bits", [
    ([], 1, [], 1),                                     # no rows
    ([5], 3, [2], 4),                                   # one row: no position bits
    ([4, 4, 4], 3, [1, 1, 1], 4),                       # all rows equal
    ([2 ** 48 - 1], 48, [2 ** 15 - 1], 15),             # packs exactly 63 bits
    ([2 ** 48 - 1, 0], 48, [0, 2 ** 15 - 1], 15),       # one bit over: lexsort
], ids=["no-rows", "one-row", "all-rows-equal", "fills-63-bits", "lexsort-fallback"])
def test_packed_order_edge_cases(major, major_bits, minor, minor_bits):
    major = np.array(major, dtype=np.int64)
    minor = np.array(minor, dtype=np.int64)
    expected = sorted(range(major.size), key=lambda i: (major[i], minor[i]))
    assert _order(major, major_bits, minor, minor_bits).tolist() == expected


class TestPredictionsSequence:
    ROWS = [PredictedService(1, 443, 0.5, ("P", 80)),
            PredictedService(2, 22, 0.5, ("PA", 80, "server", "a")),
            PredictedService(2, 443, 0.25, ("P", 80))]

    def test_round_trip_and_equality(self):
        predictions = Predictions.from_services(self.ROWS)
        assert len(predictions) == 3
        assert predictions == self.ROWS
        assert predictions == tuple(self.ROWS)
        assert self.ROWS == predictions
        assert predictions == Predictions.from_services(self.ROWS)
        assert predictions != self.ROWS[:2]
        assert predictions != list(reversed(self.ROWS))
        assert predictions.materialize() == self.ROWS
        assert tuple(predictions) == tuple(self.ROWS)

    def test_indexing_slicing_and_pairs(self):
        predictions = Predictions.from_services(self.ROWS)
        assert predictions[0] == self.ROWS[0]
        assert predictions[-1] == self.ROWS[-1]
        assert isinstance(predictions[1:], Predictions)
        assert predictions[1:] == self.ROWS[1:]
        assert predictions[5:] == []
        assert predictions.pairs() == [p.pair() for p in self.ROWS]
        assert self.ROWS[1] in predictions
        with pytest.raises(IndexError):
            predictions[3]

    def test_immutable(self):
        predictions = Predictions.from_services(self.ROWS)
        with pytest.raises(TypeError):
            predictions[0] = self.ROWS[1]
        with pytest.raises(AttributeError):
            predictions.extra = 1
        with pytest.raises(TypeError):
            hash(predictions)


class TestBatchConcatenation:
    def test_extend_rebases_local_banner_ids(self):
        interner, statuses = BannerInterner(), DictionaryEncoder()
        head = ObservationBatch(banners=interner, statuses=statuses)
        head.append(1, 80, head.status_id("http"),
                    head.add_local_banner({"title": "head-local"}), 64)
        head.append(2, 80, head.status_id("http"),
                    interner.intern({"title": "shared"}), 64)
        tail = ObservationBatch(banners=interner, statuses=statuses)
        tail.append(3, 22, tail.status_id("ssh"),
                    tail.add_local_banner({"title": "tail-first"}), 32)
        tail.append(4, 22, tail.status_id("ssh"),
                    tail.add_local_banner({"title": "tail-second"}), 32)
        tail.append(5, 22, tail.status_id("ssh"),
                    interner.intern({"title": "shared"}), 32)
        expected = head.materialize() + tail.materialize()

        head.extend(tail)

        assert list(head.banner_ids) == [-1, 0, -2, -3, 0]
        assert head.materialize() == expected
        assert [head[i].app_features["title"] for i in range(len(head))] == \
            ["head-local", "shared", "tail-first", "tail-second", "shared"]
        # The tail is untouched and still resolves its own ids.
        assert list(tail.banner_ids) == [-1, -2, 0]
        assert tail.materialize() == expected[2:]

    def test_extend_keeps_shared_selection_valid(self):
        batch = ObservationBatch(banners=BannerInterner())
        batch.append(1, 80, batch.status_id("http"),
                     batch.add_local_banner({"title": "x"}), 64)
        view = batch.select([0])  # shares the local-banner table
        before = view.materialize()
        other = ObservationBatch(banners=batch.banners, statuses=batch.statuses)
        other.append(2, 80, other.status_id("http"),
                     other.add_local_banner({"title": "y"}), 64)
        batch.extend(other)
        assert view.materialize() == before
        assert batch[1].app_features == {"title": "y"}

    def test_extend_rejects_foreign_id_spaces(self):
        batch = ObservationBatch(banners=BannerInterner())
        with pytest.raises(ValueError):
            batch.extend(ObservationBatch(banners=BannerInterner(),
                                          statuses=batch.statuses))
        with pytest.raises(ValueError):
            batch.extend(ObservationBatch(banners=batch.banners))

    def test_rows_iterate_and_index_lazily(self):
        batch = ObservationBatch(banners=BannerInterner())
        for ip in (1, 2, 3):
            batch.append(ip, 80, batch.status_id("http"),
                         batch.banners.intern({"title": str(ip)}), 64)
        rows = batch.materialize()
        assert list(batch) == rows
        assert batch[-1] == rows[-1]
        assert [batch[i] for i in range(len(batch))] == rows
