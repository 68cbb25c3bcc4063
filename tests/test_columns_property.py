"""Property tests for the array-native column storage.

The hot columns (:class:`~repro.scanner.records.ObservationBatch`,
:class:`~repro.core.features.HostFeatureColumns`, resident payloads) are backed
by :class:`~repro.engine.columns.IntColumn` -- fixed-width int64
``array('q')`` buffers -- instead of lists of boxed ints.  The storage must
be *invisible*: object rows round-trip through the columns bit-identically,
int64 boundary values survive, overflow is loud, and empty batches behave.
Hypothesis drives the shapes; the encoder-sharing
regression tests at the bottom pin the "one status-id space per pipeline"
contract the columnar scan path relies on.
"""

from __future__ import annotations

from array import array

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine.columns import IntColumn, resolve_column_backend
from repro.engine.encoding import DictionaryEncoder
from repro.internet.banners import BannerInterner
from repro.scanner.records import ObservationBatch, ScanObservation

INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1

int64s = st.integers(min_value=INT64_MIN, max_value=INT64_MAX)

protocols = st.sampled_from(["http", "ssh", "tls", "ftp", "telnet", "unknown"])
banner_features = st.dictionaries(
    st.sampled_from(["title", "server", "banner", "cert_subject"]),
    st.text(max_size=8), max_size=3)
observations = st.builds(
    ScanObservation,
    ip=st.integers(min_value=0, max_value=2**32 - 1),
    port=st.integers(min_value=0, max_value=65535),
    protocol=protocols,
    app_features=banner_features,
    ttl=st.integers(min_value=0, max_value=255),
)


class TestIntColumn:
    @given(st.lists(int64s, max_size=50))
    def test_round_trips_int64_values_bit_identically(self, values):
        column = IntColumn(values)
        assert column.tolist() == values
        assert list(column) == values
        # The buffer itself is the canonical encoding: 8 bytes per value,
        # identical to a plain array('q') built from the same values.
        assert column.tobytes() == array("q", values).tobytes()

    def test_boundary_values_survive(self):
        column = IntColumn([INT64_MIN, -1, 0, 1, INT64_MAX])
        assert column.tolist() == [INT64_MIN, -1, 0, 1, INT64_MAX]

    @pytest.mark.parametrize("value", [INT64_MAX + 1, INT64_MIN - 1, 2**64])
    def test_out_of_int64_overflows_loudly(self, value):
        with pytest.raises(OverflowError):
            IntColumn([value])
        column = IntColumn()
        with pytest.raises(OverflowError):
            column.append(value)

    def test_exposes_a_memoryview_of_machine_words(self):
        column = IntColumn([1, -2, 3])
        view = memoryview(column)
        assert view.itemsize == 8
        assert view.nbytes == 24
        assert view.format == "q"
        assert view.tolist() == [1, -2, 3]

    @given(st.lists(int64s, max_size=50))
    def test_numpy_view_is_zero_copy_and_exact(self, values):
        import numpy as np

        from repro.engine.columns import as_numpy

        column = IntColumn(values)
        ndarray = as_numpy(column)
        assert ndarray.dtype == np.int64
        assert ndarray.tolist() == values

    def test_model_kernel_is_numpy(self):
        assert resolve_column_backend() == "numpy"
        assert resolve_column_backend(None) == "numpy"


class TestObservationBatchRoundTrip:
    @settings(max_examples=50)
    @given(st.lists(observations, max_size=30))
    def test_object_rows_round_trip_through_the_columns(self, rows):
        batch = ObservationBatch.from_observations(rows)
        assert len(batch) == len(rows)
        assert batch.ips.tolist() == [obs.ip for obs in rows]
        assert batch.ports.tolist() == [obs.port for obs in rows]
        assert batch.ttls.tolist() == [obs.ttl for obs in rows]
        assert batch.materialize() == rows
        assert [batch.row(i) for i in range(len(batch))] == rows

    def test_empty_batch(self):
        batch = ObservationBatch.from_observations([])
        assert len(batch) == 0
        assert batch.materialize() == []
        assert batch.pairs() == []

    @settings(max_examples=50)
    @given(st.data())
    def test_select_returns_exactly_the_requested_rows(self, data):
        rows = data.draw(st.lists(observations, min_size=1, max_size=30))
        batch = ObservationBatch.from_observations(rows)
        indices = data.draw(st.lists(
            st.integers(min_value=0, max_value=len(rows) - 1), max_size=30))
        selected = batch.select(indices)
        assert selected.materialize() == [rows[i] for i in indices]


class TestStatusEncoderSharing:
    """Regression: select/from_observations must not re-encode statuses.

    Both used to spin up a fresh id space per call, so two batches over the
    same pipeline disagreed on what status id 0 meant and every select paid
    one decode/encode round-trip per row.
    """

    def _rows(self):
        return [ScanObservation(ip=10, port=22, protocol="ssh"),
                ScanObservation(ip=10, port=80, protocol="http"),
                ScanObservation(ip=11, port=80, protocol="http")]

    def test_from_observations_reuses_the_given_encoder(self):
        encoder = DictionaryEncoder()
        first = ObservationBatch.from_observations(self._rows(),
                                                   statuses=encoder)
        second = ObservationBatch.from_observations(self._rows(),
                                                    statuses=encoder)
        assert first.statuses is encoder and second.statuses is encoder
        # Identical protocols map to identical ids across both batches.
        assert first.status.tolist() == second.status.tolist()

    def test_select_shares_tables_and_ids_verbatim(self):
        batch = ObservationBatch.from_observations(
            self._rows(), banners=BannerInterner())
        selected = batch.select([2, 0])
        assert selected.statuses is batch.statuses
        assert selected.banners is batch.banners
        assert selected.local_banners is batch.local_banners
        assert selected.status.tolist() == [batch.status[2], batch.status[0]]

    def test_empty_select_fast_path_shares_tables(self):
        batch = ObservationBatch.from_observations(self._rows())
        empty = batch.select([])
        assert len(empty) == 0
        assert empty.statuses is batch.statuses
        assert empty.banners is batch.banners
        assert empty.local_banners is batch.local_banners

    def test_pipeline_exposes_one_status_id_space(self, universe):
        from repro.scanner.pipeline import ScanPipeline

        pipeline = ScanPipeline(universe)
        first = pipeline.seed_scan(0.002, seed=1)
        second = pipeline.seed_scan(0.002, seed=2)
        assert first.batch is not None and second.batch is not None
        assert first.batch.statuses is pipeline.status_encoder
        assert second.batch.statuses is pipeline.status_encoder
