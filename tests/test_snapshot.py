"""Tests for the versioned snapshot format and its serving integration.

The persistence layer must be invisible: everything loaded from a snapshot
is bit-identical to what a fresh build would have produced.  Covers the
round-trip property (hypothesis-driven shapes plus the shared-fixture
artifacts), the typed corrupt-snapshot failure modes (truncation, checksum
mismatch, future format versions, malformed manifests -- never a silent
partial load), snapshots in the older shard-section layout, and the serving
provenance surfaces (``GET /models``, ``/stats``).
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
import urllib.request
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import FeatureConfig, GPSConfig
from repro.core.features import extract_host_features_columns
from repro.core.model import build_model_with_engine
from repro.core.predictions import build_prediction_index_with_engine
from repro.core.priors import build_priors_plan_with_engine
from repro.core.runtime_plans import ResidentHostGroups
from repro.engine import snapshot as snapshot_module
from repro.engine.runtime import RUNTIME_EXECUTORS
from repro.engine.snapshot import (
    FORMAT_NAME,
    FORMAT_VERSION,
    MANIFEST_NAME,
    MAX_SNAPSHOT_SECTIONS,
    SnapshotError,
    SnapshotIntegrityError,
    SnapshotVersionError,
    SnapshotWriter,
    open_snapshot,
    save_snapshot,
)
from repro.net.ipv4 import subnet_key
from repro.scanner.records import ObservationBatch, ScanObservation
from repro.serving.registry import PreparedModel
from tests.conftest import engine_builds

protocols = st.sampled_from(["http", "ssh", "tls", "ftp", "unknown"])
banner_features = st.dictionaries(
    st.sampled_from(["title", "server", "banner", "cert_subject"]),
    st.text(max_size=8), max_size=3)
observations_strategy = st.lists(
    st.builds(
        ScanObservation,
        ip=st.integers(min_value=0, max_value=2**32 - 1),
        port=st.integers(min_value=1, max_value=65535),
        protocol=protocols,
        app_features=banner_features,
        ttl=st.integers(min_value=0, max_value=255),
    ),
    max_size=30,
)


@pytest.fixture(scope="module")
def artifacts(universe, censys_split):
    """Columnar host features + engine-built Table 2 artifacts (the oracle)."""
    batch = ObservationBatch.from_observations(censys_split.seed_observations)
    host_features = extract_host_features_columns(
        batch, universe.topology.asn_db, FeatureConfig())
    model, priors, index = engine_builds(host_features)
    return batch, host_features, model, priors, index


@pytest.fixture(scope="module")
def saved(tmp_path_factory, artifacts):
    """One full snapshot (seed + artifacts) on disk."""
    batch, host_features, model, priors, index = artifacts
    directory = str(tmp_path_factory.mktemp("snapshot"))
    save_snapshot(directory, observations=batch, host_features=host_features,
                  model=model, priors_plan=priors, index=index)
    return directory


def _save_minimal(directory: str) -> str:
    """A tiny but complete snapshot for corruption drills."""
    batch = ObservationBatch.from_observations([
        ScanObservation(ip=10, port=80, protocol="http",
                        app_features={"title": "a"}, ttl=64),
        ScanObservation(ip=11, port=443, protocol="tls",
                        app_features={}, ttl=64),
    ])
    save_snapshot(directory, observations=batch)
    return directory


class TestRoundTrip:
    def test_model_bit_identical(self, saved, artifacts):
        _, _, model, _, _ = artifacts
        loaded = open_snapshot(saved).model()
        assert loaded.cooccurrence == model.cooccurrence
        assert loaded.denominators == model.denominators
        # Insertion order matters to downstream iteration: pin it too.
        assert list(loaded.cooccurrence) == list(model.cooccurrence)
        assert list(loaded.denominators) == list(model.denominators)

    def test_priors_plan_bit_identical(self, saved, artifacts):
        _, _, _, priors, _ = artifacts
        assert open_snapshot(saved).priors_plan() == priors

    def test_prediction_index_bit_identical(self, saved, artifacts):
        _, _, _, _, index = artifacts
        assert open_snapshot(saved).prediction_index().entries() == \
            index.entries()

    def test_observation_batch_round_trips(self, saved, artifacts):
        batch, _, _, _, _ = artifacts
        loaded = open_snapshot(saved).observation_batch()
        assert loaded.materialize() == batch.materialize()
        assert loaded.ips.tolist() == batch.ips.tolist()
        assert loaded.status.tolist() == batch.status.tolist()
        assert loaded.banner_ids.tolist() == batch.banner_ids.tolist()

    def test_host_features_round_trip(self, saved, artifacts):
        _, host_features, _, _, _ = artifacts
        loaded = open_snapshot(saved).host_feature_columns()
        for column in ("ips", "member_starts", "ports", "value_starts",
                       "value_ids"):
            assert getattr(loaded, column).tolist() == \
                getattr(host_features, column).tolist()
        assert loaded.encoder.values() == host_features.encoder.values()

    def test_warm_restart_metas_are_plain_objects(self, saved):
        """The index meta parses with the manifest; the bulky encoder,
        interner and model predictor tables stay embedded strings decoded
        lazily (the model's on the first read of its dicts)."""
        manifest = json.loads((Path(saved) / MANIFEST_NAME).read_text())
        sections = manifest["sections"]
        assert "meta_json" not in sections["index"]
        assert isinstance(sections["index"]["meta"]["predictors"], list)
        for name in ("observations", "host_features", "model"):
            assert "meta" not in sections[name]
            assert isinstance(sections[name]["meta_json"], str)

    def test_manifest_with_every_meta_embedded_still_loads(self, saved,
                                                           artifacts,
                                                           tmp_path):
        """Earlier writers embedded every section's meta as a JSON string
        in an indented manifest; such snapshots load bit-identically."""
        batch, host_features, model, priors, index = artifacts
        directory = tmp_path / "snapshot"
        shutil.copytree(saved, directory)
        manifest_path = directory / MANIFEST_NAME
        manifest = json.loads(manifest_path.read_text())
        for section in manifest["sections"].values():
            if "meta" in section:
                section["meta_json"] = json.dumps(section.pop("meta"),
                                                  sort_keys=True)
        manifest_path.write_text(json.dumps(manifest, indent=1,
                                            sort_keys=True))
        snapshot = open_snapshot(str(directory))
        loaded = snapshot.model()
        assert loaded == model
        assert list(loaded.cooccurrence) == list(model.cooccurrence)
        assert snapshot.priors_plan() == priors
        assert snapshot.prediction_index().entries() == index.entries()
        assert snapshot.host_feature_columns().encoder.values() == \
            host_features.encoder.values()
        assert snapshot.observation_batch().materialize() == \
            batch.materialize()

    def test_open_without_verify_still_checks_sizes(self, saved):
        snapshot = open_snapshot(saved, verify=False)
        assert snapshot.version == FORMAT_VERSION
        assert snapshot.has_section("model")

    @pytest.mark.parametrize("executor", RUNTIME_EXECUTORS)
    def test_backends_and_executors_round_trip(self, tmp_path, artifacts,
                                               executor):
        """build -> snapshot -> load is bit-identical on every engine path."""
        _, host_features, model, priors, index = artifacts
        dataset = ResidentHostGroups(host_features, 16)
        built_model = build_model_with_engine(dataset)
        built_priors = build_priors_plan_with_engine(dataset, built_model, 16)
        built_index = build_prediction_index_with_engine(dataset, built_model)
        dataset.release()
        directory = str(tmp_path / executor)
        save_snapshot(directory, host_features=host_features,
                      model=built_model, priors_plan=built_priors,
                      index=built_index)
        snapshot = open_snapshot(directory)
        loaded_model = snapshot.model()
        assert loaded_model.cooccurrence == model.cooccurrence
        assert loaded_model.denominators == model.denominators
        assert snapshot.priors_plan() == priors
        assert snapshot.prediction_index().entries() == index.entries()

    @settings(max_examples=12, deadline=None)
    @given(rows=observations_strategy)
    def test_round_trip_property(self, universe, rows):
        """Arbitrary seed shapes: seed columns and all three Table 2
        artifacts survive save -> load bit-identically."""
        batch = ObservationBatch.from_observations(rows)
        host_features = extract_host_features_columns(
            batch, universe.topology.asn_db, FeatureConfig())
        model, priors, index = engine_builds(host_features)
        with tempfile.TemporaryDirectory() as directory:
            save_snapshot(directory, observations=batch,
                          host_features=host_features, model=model,
                          priors_plan=priors, index=index)
            snapshot = open_snapshot(directory)
            assert snapshot.observation_batch().materialize() == \
                batch.materialize()
            loaded_model = snapshot.model()
            assert loaded_model.cooccurrence == model.cooccurrence
            assert loaded_model.denominators == model.denominators
            assert snapshot.priors_plan() == priors
            assert snapshot.prediction_index().entries() == index.entries()


class TestCorruptSnapshots:
    """Every corruption mode fails loudly with a typed error."""

    def test_truncated_file_raises_integrity_error(self, tmp_path):
        directory = _save_minimal(str(tmp_path))
        victim = tmp_path / "observations.ips.bin"
        victim.write_bytes(victim.read_bytes()[:-3])
        with pytest.raises(SnapshotIntegrityError, match="truncated"):
            open_snapshot(directory)
        # Size validation is structural: even verify=False refuses.
        with pytest.raises(SnapshotIntegrityError):
            open_snapshot(directory, verify=False)

    def test_checksum_mismatch_raises_integrity_error(self, tmp_path):
        directory = _save_minimal(str(tmp_path))
        victim = tmp_path / "observations.ports.bin"
        payload = bytearray(victim.read_bytes())
        payload[0] ^= 0xFF
        victim.write_bytes(bytes(payload))
        with pytest.raises(SnapshotIntegrityError, match="checksum"):
            open_snapshot(directory)

    def test_future_format_version_raises_version_error(self, tmp_path):
        directory = _save_minimal(str(tmp_path))
        manifest_path = tmp_path / MANIFEST_NAME
        manifest = json.loads(manifest_path.read_text())
        manifest["format_version"] = FORMAT_VERSION + 1
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(SnapshotVersionError, match="version"):
            open_snapshot(directory)

    def test_missing_manifest_raises_snapshot_error(self, tmp_path):
        with pytest.raises(SnapshotError, match="manifest"):
            open_snapshot(str(tmp_path))

    def test_unparseable_manifest_raises_snapshot_error(self, tmp_path):
        directory = _save_minimal(str(tmp_path))
        (tmp_path / MANIFEST_NAME).write_text("{not json")
        with pytest.raises(SnapshotError, match="JSON"):
            open_snapshot(directory)

    def test_foreign_format_raises_snapshot_error(self, tmp_path):
        directory = _save_minimal(str(tmp_path))
        manifest_path = tmp_path / MANIFEST_NAME
        manifest = json.loads(manifest_path.read_text())
        manifest["format"] = "something-else"
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(SnapshotError):
            open_snapshot(directory)

    def test_missing_column_file_raises_snapshot_error(self, tmp_path):
        directory = _save_minimal(str(tmp_path))
        os.unlink(tmp_path / "observations.ttls.bin")
        with pytest.raises(SnapshotError, match="missing"):
            open_snapshot(directory)

    @pytest.mark.parametrize("meta", [
        pytest.param([1], id="meta-not-an-object"),
    ])
    def test_non_object_meta_raises_snapshot_error(self, saved, tmp_path, meta):
        directory = tmp_path / "snapshot"
        shutil.copytree(saved, directory)
        manifest_path = directory / MANIFEST_NAME
        manifest = json.loads(manifest_path.read_text())
        manifest["meta"] = meta
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(SnapshotError, match="non-object"):
            open_snapshot(str(directory), verify=False)

    @pytest.mark.parametrize("manifest", [[], "x"], ids=["list", "string"])
    def test_non_object_manifest_raises_snapshot_error(self, tmp_path,
                                                       manifest):
        (tmp_path / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(SnapshotError, match="not a JSON object"):
            open_snapshot(str(tmp_path))

    @staticmethod
    def _write_sections(tmp_path, sections) -> str:
        (tmp_path / "c.bin").write_bytes(b"")
        (tmp_path / MANIFEST_NAME).write_text(json.dumps(
            {"format": FORMAT_NAME, "format_version": FORMAT_VERSION,
             "sections": sections}))
        return str(tmp_path)

    @pytest.mark.parametrize("section", [
        pytest.param({"columns": 5}, id="columns-not-an-object"),
        pytest.param(5, id="section-not-an-object"),
        pytest.param({"columns": {"c": 5}}, id="entry-not-an-object"),
        pytest.param({"columns": {"c": {"file": "c.bin", "rows": 0,
                                        "dtype": "int8", "crc32": 0}}},
                     id="unknown-dtype"),
        pytest.param({"columns": {"c": {"file": "../c.bin", "rows": 0,
                                        "dtype": "int64", "crc32": 0}}},
                     id="file-outside-the-directory"),
        pytest.param({"columns": {"c": {"file": "c.bin", "rows": "0",
                                        "dtype": "int64", "crc32": 0}}},
                     id="rows-not-an-int"),
    ])
    def test_malformed_section_raises_snapshot_error(self, tmp_path, section):
        directory = self._write_sections(tmp_path, {"a": section})
        with pytest.raises(SnapshotError,
                           match="malformed (section|column entry)"):
            open_snapshot(directory)

    def test_non_object_section_table_raises_snapshot_error(self, tmp_path):
        directory = self._write_sections(tmp_path, [])
        with pytest.raises(SnapshotError, match="non-object section table"):
            open_snapshot(directory)

    def test_section_count_is_bounded(self, tmp_path):
        sections = {f"s{i}": {"columns": {}}
                    for i in range(MAX_SNAPSHOT_SECTIONS + 1)}
        directory = self._write_sections(tmp_path, sections)
        with pytest.raises(SnapshotError, match="at most"):
            open_snapshot(directory)
        del sections["s0"]
        self._write_sections(tmp_path, sections)
        assert len(open_snapshot(directory).sections()) == MAX_SNAPSHOT_SECTIONS

    def test_writer_stops_at_the_section_bound(self, tmp_path):
        """A snapshot the writer produces is always one the reader opens."""
        writer = SnapshotWriter(str(tmp_path))
        for i in range(MAX_SNAPSHOT_SECTIONS):
            writer.add_section(f"s{i}", {})
        with pytest.raises(ValueError, match="at most"):
            writer.add_section("one-more", {})

    def test_typed_errors_share_one_base(self):
        assert issubclass(SnapshotIntegrityError, SnapshotError)
        assert issubclass(SnapshotVersionError, SnapshotError)


def _legacy_shard_sections(host_features, shards, step_size):
    """The ``shard-NNNN`` sections older writers saved beside the artifacts:
    hosts split by address modulo ``shards`` (integers hash to
    themselves), each shard's offsets rebuilt from 0 and ``group_order``
    holding every host's original index."""
    ips, member_starts = list(host_features.ips), list(host_features.member_starts)
    ports, value_starts = list(host_features.ports), list(host_features.value_starts)
    value_ids = list(host_features.value_ids)
    for shard in range(shards):
        columns = {"group_order": [], "group_keys": [], "member_starts": [0],
                   "labels": [], "value_starts": [0], "value_ids": []}
        for group, ip in enumerate(ips):
            if ip % shards != shard:
                continue
            columns["group_order"].append(group)
            columns["group_keys"].append(subnet_key(ip, step_size))
            for member in range(member_starts[group], member_starts[group + 1]):
                columns["labels"].append(ports[member])
                columns["value_ids"].extend(
                    value_ids[value_starts[member]:value_starts[member + 1]])
                columns["value_starts"].append(len(columns["value_ids"]))
            columns["member_starts"].append(len(columns["labels"]))
        yield f"shard-{shard:04d}", columns


def _save_with_legacy_shards(directory, batch, host_features, model, priors,
                             index, meta=None, shards=2):
    """A snapshot in the older writers' layout: the artifact sections,
    ``shards`` ``shard-NNNN`` sections and a ``meta.shards`` entry."""
    writer = SnapshotWriter(directory)
    snapshot_module._add_observations(writer, batch)
    snapshot_module._add_host_features(writer, host_features)
    for name, columns in _legacy_shard_sections(host_features, shards, 16):
        writer.add_section(name, columns)
    snapshot_module._add_model(writer, model)
    snapshot_module._add_priors(writer, priors)
    snapshot_module._add_index(writer, index)
    layout = {"shard_count": shards, "step_size": 16,
              "group_count": len(host_features.ips)}
    return writer.finish({"shards": layout} if meta is None else meta)


class TestOlderSnapshots:
    """Snapshots with the shard sections of older writers still open, and
    their artifacts load unchanged; new snapshots hold no shard section."""

    def test_saved_snapshot_has_no_shard_section(self, saved):
        snapshot = open_snapshot(saved)
        assert not [name for name in snapshot.sections()
                    if name.startswith("shard-")]
        assert "shards" not in snapshot.meta

    @pytest.mark.parametrize("shards", [
        pytest.param(1, id="1-shard"),
        pytest.param(2, id="2-shards"),
        pytest.param(5, id="5-shards"),
    ])
    def test_shard_layout_snapshot_loads_identical_artifacts(
            self, tmp_path, artifacts, universe, censys_split, shards):
        batch, host_features, model, priors, index = artifacts
        directory = str(tmp_path / "with-shards")
        _save_with_legacy_shards(directory, batch, host_features, model,
                                 priors, index, shards=shards)
        snapshot = open_snapshot(directory)
        assert {f"shard-{shard:04d}" for shard in range(shards)} <= \
            set(snapshot.sections())
        assert snapshot.meta["shards"]["shard_count"] == shards
        loaded = snapshot.model()
        assert loaded.cooccurrence == model.cooccurrence
        assert loaded.denominators == model.denominators
        assert snapshot.priors_plan() == priors
        assert snapshot.prediction_index().entries() == index.entries()
        from repro.scanner.pipeline import ScanPipeline
        from repro.serving.registry import build_prepared_model

        config = GPSConfig(use_engine=True)
        warm = PreparedModel.from_snapshot("warm", ScanPipeline(universe),
                                           snapshot, config)
        built = build_prepared_model("built", ScanPipeline(universe),
                                     censys_split.seed_scan_result(), config)
        known = censys_split.test_observations[:200]
        assert len(warm.predict(known)) > 0
        assert warm.predict(known) == built.predict(known)

    def test_shard_sections_are_still_checksummed(self, tmp_path, artifacts):
        batch, host_features, model, priors, index = artifacts
        _save_with_legacy_shards(str(tmp_path), batch, host_features, model,
                                 priors, index)
        victim = tmp_path / "shard-0001.labels.bin"
        payload = bytearray(victim.read_bytes())
        payload[0] ^= 0xFF
        victim.write_bytes(bytes(payload))
        with pytest.raises(SnapshotIntegrityError, match="checksum"):
            open_snapshot(str(tmp_path))
        victim.write_bytes(bytes(payload[:-1]))
        with pytest.raises(SnapshotIntegrityError, match="truncated"):
            open_snapshot(str(tmp_path), verify=False)

    @pytest.mark.parametrize("meta", [
        pytest.param({"shards": {"step_size": 16, "group_count": 5}},
                     id="no-shard_count"),
        pytest.param({"shards": {"shard_count": 3, "step_size": 16}},
                     id="no-group_count"),
        pytest.param({"shards": [1]}, id="layout-not-an-object"),
        pytest.param({"shards": {"shard_count": 3, "step_size": 40,
                                 "group_count": 5}},
                     id="step_size-out-of-range"),
        pytest.param({"shards": {"shard_count": "3", "step_size": 16,
                                 "group_count": 5}},
                     id="shard_count-not-an-int"),
        pytest.param({"shards": {"shard_count": 0, "step_size": 16,
                                 "group_count": 5}},
                     id="shard_count-zero"),
    ])
    def test_any_shard_layout_entry_opens_unchanged(self, saved, artifacts,
                                                    tmp_path, meta):
        """The ``meta.shards`` entry is never read: malformed ones open."""
        _, _, model, priors, index = artifacts
        directory = tmp_path / "snapshot"
        shutil.copytree(saved, directory)
        manifest_path = directory / MANIFEST_NAME
        manifest = json.loads(manifest_path.read_text())
        manifest["meta"] = meta
        manifest_path.write_text(json.dumps(manifest))
        snapshot = open_snapshot(str(directory))
        assert snapshot.meta == meta
        assert snapshot.model().cooccurrence == model.cooccurrence
        assert snapshot.priors_plan() == priors
        assert snapshot.prediction_index().entries() == index.entries()


class TestServingProvenance:
    """Warm restarts are distinguishable from rebuilds on every surface."""

    def test_prepared_model_from_snapshot(self, saved, pipeline, artifacts):
        _, _, model, priors, index = artifacts
        config = GPSConfig(use_engine=True, executor="serial")
        prepared = PreparedModel.from_snapshot("warm", pipeline, saved, config)
        info = prepared.info()
        assert info.source == "snapshot"
        assert info.snapshot_version == FORMAT_VERSION
        assert info.loaded_at is not None
        assert prepared.model.cooccurrence == model.cooccurrence
        assert prepared.priors_plan == priors
        assert prepared.index.entries() == index.entries()

    def test_http_surfaces_expose_provenance(self, saved, universe):
        from repro.scanner.pipeline import ScanPipeline
        from repro.serving.http import ServiceHost, make_http_server
        from repro.serving.service import ServingConfig

        host = ServiceHost(ServingConfig(executor="serial"))
        server = None
        try:
            model_pipeline = ScanPipeline(universe)
            info = host.call(host.service.load_model_from_snapshot(
                "default", model_pipeline, saved,
                GPSConfig(use_engine=True, executor="serial")))
            assert info.source == "snapshot"
            server = make_http_server(host, port=0)
            port = server.server_address[1]
            import threading
            threading.Thread(target=server.serve_forever, daemon=True).start()
            models = json.load(urllib.request.urlopen(
                f"http://127.0.0.1:{port}/models"))
            row = models["models"][0]
            assert row["source"] == "snapshot"
            assert row["snapshot_version"] == FORMAT_VERSION
            assert row["loaded_at"] is not None
            stats = json.load(urllib.request.urlopen(
                f"http://127.0.0.1:{port}/stats"))
            assert stats["models"] == [
                {"name": "default", "source": "snapshot",
                 "snapshot_version": FORMAT_VERSION,
                 "loaded_at": row["loaded_at"]}]
        finally:
            if server is not None:
                server.shutdown()
                server.server_close()
            host.close()

    def test_built_models_report_built_source(self, universe, censys_split):
        from repro.scanner.pipeline import ScanPipeline, SeedScanResult
        from repro.serving.registry import build_prepared_model

        model_pipeline = ScanPipeline(universe)
        seed = censys_split.seed_scan_result()
        prepared = build_prepared_model("fresh", model_pipeline, seed,
                                        GPSConfig(use_engine=True))
        info = prepared.info()
        assert info.source == "built"
        assert info.snapshot_version is None
        assert info.loaded_at is None
        prepared.release()
