"""Tests for the versioned snapshot format and its runtime integration.

The persistence layer must be invisible: everything loaded from a snapshot
is bit-identical to what a fresh build would have produced -- across model
kernels, across executors, and across crash chaos.  Covers the round-trip
property (hypothesis-driven shapes plus the shared-fixture artifacts), the
typed corrupt-snapshot failure modes (truncation, checksum mismatch, future
format versions, malformed shard layouts -- never a silent partial load),
the mmap-backed shard loading path (zero bytes through worker queues,
disk-backed crash recovery), and the
serving provenance surfaces (``GET /models``, ``/stats``).
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
from repro.engine.faults import FaultPlan
from repro.engine.runtime import RUNTIME_EXECUTORS, EngineRuntime
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
    """One full snapshot (seed + artifacts + 3 shards) on disk."""
    batch, host_features, model, priors, index = artifacts
    directory = str(tmp_path_factory.mktemp("snapshot"))
    save_snapshot(directory, observations=batch, host_features=host_features,
                  model=model, priors_plan=priors, index=index,
                  shard_count=3, step_size=16)
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

    @pytest.mark.parametrize("executor", tuple(RUNTIME_EXECUTORS))
    def test_backends_and_executors_round_trip(self, tmp_path, artifacts,
                                               executor, model_kernel):
        """build -> snapshot -> load is bit-identical on every engine path."""
        _, host_features, model, priors, index = artifacts
        with EngineRuntime(executor=executor, num_workers=2,
                           shard_count=3) as runtime:
            dataset = ResidentHostGroups(runtime, host_features, 16)
            built_model = build_model_with_engine(host_features, dataset)
            built_priors = build_priors_plan_with_engine(
                host_features, built_model, 16, dataset=dataset)
            built_index = build_prediction_index_with_engine(
                host_features, built_model, dataset=dataset)
            dataset.release()
        directory = str(tmp_path / f"{executor}-{model_kernel}")
        save_snapshot(directory, host_features=host_features,
                      model=built_model, priors_plan=built_priors,
                      index=built_index, shard_count=3, step_size=16)
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
        pytest.param([1], id="meta-not-an-object"),
    ])
    def test_malformed_shard_layout_raises_snapshot_error(self, saved, tmp_path,
                                                          meta):
        directory = tmp_path / "snapshot"
        shutil.copytree(saved, directory)
        manifest_path = directory / MANIFEST_NAME
        manifest = json.loads(manifest_path.read_text())
        manifest["meta"] = meta
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(SnapshotError, match="non-object|shard layout"):
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


class TestRuntimeShardLoading:
    """mmap shard references: zero queue bytes, disk-backed recovery."""

    def test_snapshot_load_ships_zero_shard_bytes(self, saved, artifacts):
        _, host_features, model, priors, index = artifacts
        with EngineRuntime(executor="pool", num_workers=2,
                           shard_count=3) as runtime:
            snapshot = open_snapshot(saved)
            dataset = ResidentHostGroups.from_snapshot(runtime, snapshot)
            assert runtime.recovery_stats.shard_bytes_queued == 0
            built = build_model_with_engine(host_features, dataset)
            assert built.cooccurrence == model.cooccurrence
            assert built.denominators == model.denominators
            built_priors = build_priors_plan_with_engine(
                host_features, built, 16, dataset=dataset)
            assert built_priors == priors
            built_index = build_prediction_index_with_engine(
                host_features, built, dataset=dataset)
            assert built_index.entries() == index.entries()
            dataset.release()

    def test_layout_keys_a_reader_does_not_use_are_ignored(self, saved,
                                                           artifacts, tmp_path):
        """Manifests from writers that saved a placement hint still load."""
        _, host_features, model, _, _ = artifacts
        directory = tmp_path / "snapshot"
        shutil.copytree(saved, directory)
        manifest_path = directory / MANIFEST_NAME
        manifest = json.loads(manifest_path.read_text())
        manifest["meta"]["shards"]["placement"] = {"workers": 3}
        manifest_path.write_text(json.dumps(manifest))
        with EngineRuntime(executor="serial", shard_count=3) as runtime:
            dataset = ResidentHostGroups.from_snapshot(
                runtime, open_snapshot(str(directory)))
            built = build_model_with_engine(host_features, dataset)
            assert built.cooccurrence == model.cooccurrence
            dataset.release()

    def test_from_snapshot_requires_matching_shard_count(self, saved):
        with EngineRuntime(executor="pool", num_workers=2,
                           shard_count=5) as runtime:
            with pytest.raises(SnapshotError, match="shard"):
                ResidentHostGroups.from_snapshot(runtime, open_snapshot(saved))

    def test_from_snapshot_requires_shard_sections(self, tmp_path):
        directory = _save_minimal(str(tmp_path))
        with EngineRuntime(executor="serial", shard_count=1) as runtime:
            with pytest.raises(SnapshotError, match="shard"):
                ResidentHostGroups.from_snapshot(runtime,
                                                 open_snapshot(directory))

    def test_mid_load_crash_recovers_from_disk(self, saved, artifacts,
                                               monkeypatch):
        """A worker dying mid-snapshot-load heals surgically by re-opening
        shard files -- still zero bytes through the queues."""
        monkeypatch.setenv("REPRO_RUNTIME_CRASH_TEST", "1")
        _, host_features, model, _, _ = artifacts
        plan = FaultPlan(crash_task="load", crash_workers=(0,))
        with EngineRuntime(executor="pool", num_workers=2, shard_count=3,
                           fault_plan=plan) as runtime:
            snapshot = open_snapshot(saved)
            dataset = ResidentHostGroups.from_snapshot(runtime, snapshot)
            stats = runtime.recovery_stats
            assert stats.crashes_detected == 1 and stats.respawns == 1
            assert stats.reloaded_shards >= 1
            assert stats.shard_bytes_queued == 0
            built = build_model_with_engine(host_features, dataset)
            assert built.cooccurrence == model.cooccurrence
            assert built.denominators == model.denominators
            assert not runtime.broken
            dataset.release()


class TestServingProvenance:
    """Warm restarts are distinguishable from rebuilds on every surface."""

    def test_prepared_model_from_snapshot(self, saved, pipeline, artifacts):
        _, _, model, priors, index = artifacts
        config = GPSConfig(use_engine=True, executor="serial", shard_count=3)
        with EngineRuntime(executor="serial", shard_count=3) as runtime:
            prepared = PreparedModel.from_snapshot(
                "warm", pipeline, saved, config, runtime)
            info = prepared.info()
            assert info.source == "snapshot"
            assert info.snapshot_version == FORMAT_VERSION
            assert info.loaded_at is not None
            assert info.resident_shards
            assert prepared.model.cooccurrence == model.cooccurrence
            assert prepared.priors_plan == priors
            assert prepared.index.entries() == index.entries()
            prepared.release()

    def test_http_surfaces_expose_provenance(self, saved, universe):
        from repro.scanner.pipeline import ScanPipeline
        from repro.serving.http import ServiceHost, make_http_server
        from repro.serving.service import ServingConfig

        host = ServiceHost(ServingConfig(executor="serial", shard_count=3))
        server = None
        try:
            model_pipeline = ScanPipeline(universe)
            info = host.call(host.service.load_model_from_snapshot(
                "default", model_pipeline, saved,
                GPSConfig(use_engine=True, executor="serial", shard_count=3)))
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
