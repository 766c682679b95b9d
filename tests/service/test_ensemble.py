"""The ``ensemble`` request kind: parsing, digests, live execution."""

from __future__ import annotations

import pytest

from repro.core import PlacerConfig
from repro.service import PlacementService, ServiceClient
from repro.service.requests import (EnsembleRequest, MapRequest,
                                    RequestError, check_options,
                                    parse_request)
from repro.service.store import request_digest

FAST = {"max_iterations": 60, "min_iterations": 10, "num_bins": 32}


class TestParseEnsemble:
    def test_defaults(self):
        req = parse_request("ensemble", {"topology": "grid-25"})
        assert isinstance(req, EnsembleRequest)
        assert req.sigmas == (0.01, 0.02, 0.05)
        assert req.samples == 64
        assert req.repair_samples == 0
        assert req.strategy == "qplacer"

    def test_sigmas_list_and_csv_coalesce(self):
        a = parse_request("ensemble", {"topology": "grid-25",
                                       "sigmas": [0.01, 0.05]})
        b = parse_request("ensemble", {"topology": "grid-25",
                                       "sigmas": "0.01,0.05"})
        assert a.sigmas == (0.01, 0.05)
        assert a == b
        assert request_digest("ensemble", a) \
            == request_digest("ensemble", b)

    def test_config_dict_becomes_placer_config(self):
        req = parse_request("ensemble", {"topology": "grid-25",
                                         "config": FAST})
        assert isinstance(req.config, PlacerConfig)

    @pytest.mark.parametrize("payload,fragment", [
        ({"topology": "no-such"}, "unknown topology"),
        ({"topology": "grid-25", "sigmas": []}, "at least one sigma"),
        ({"topology": "grid-25", "sigmas": [2.0]}, "in [0, 1]"),
        ({"topology": "grid-25", "sigmas": ["x"]}, "numbers"),
        ({"topology": "grid-25", "samples": 0}, "samples"),
        ({"topology": "grid-25", "samples": 200_000}, "samples"),
        ({"topology": "grid-25", "strategy": "bogus"}, "strategy"),
        ({"topology": "grid-25", "resonator_sigma_scale": -1.0},
         "resonator_sigma_scale"),
        ({"topology": "grid-25", "repair_samples": -1}, "repair"),
        ({"topology": "grid-25", "samples": 4, "repair_samples": 8},
         "exceed"),
        ({"topology": "grid-25", "max_ph_percent": -0.1},
         "max_ph_percent"),
        ({"topology": "grid-25", "bootstrap": -1}, "bootstrap"),
        # NaN compares False against every bound, so each float field
        # needs an explicit finiteness check.
        ({"topology": "grid-25", "sigmas": ["nan"]}, "in [0, 1]"),
        ({"topology": "grid-25", "sigmas": [0.01, float("inf")]},
         "in [0, 1]"),
        ({"topology": "grid-25", "resonator_sigma_scale": float("nan")},
         "resonator_sigma_scale"),
        ({"topology": "grid-25", "max_ph_percent": float("nan")},
         "max_ph_percent"),
        ({"topology": "grid-25", "max_ph_percent": float("inf")},
         "max_ph_percent"),
    ])
    def test_rejections(self, payload, fragment):
        with pytest.raises(RequestError) as err:
            parse_request("ensemble", payload)
        assert fragment in str(err.value)

    def test_chunk_size_is_a_valid_option(self):
        check_options("ensemble", {"chunk_size": 8})
        with pytest.raises(RequestError):
            check_options("ensemble", {"bogus": 1})

    def test_digest_tracks_request_fields(self):
        base = parse_request("ensemble", {"topology": "grid-25"})
        for over in ({"samples": 32}, {"base_seed": 1},
                     {"sigmas": [0.04]}, {"repair_samples": 2}):
            other = parse_request("ensemble",
                                  {"topology": "grid-25", **over})
            assert request_digest("ensemble", other) \
                != request_digest("ensemble", base)


class TestMapDigestCoalescing:
    """Layer-1 coalescing: aliased workload names digest identically."""

    def test_aliased_benchmarks_share_a_digest(self):
        a = parse_request("map", {"topology": "grid-25",
                                  "benchmark": "ghz-8"})
        b = parse_request("map", {"topology": "grid-25",
                                  "benchmark": "ghz-8-s0"})
        assert a.benchmark != b.benchmark
        assert request_digest("map", a) == request_digest("map", b)

    def test_distinct_circuits_do_not_coalesce(self):
        a = parse_request("map", {"topology": "grid-25",
                                  "benchmark": "ghz-8"})
        b = parse_request("map", {"topology": "grid-25",
                                  "benchmark": "ghz-9"})
        assert request_digest("map", a) != request_digest("map", b)

    def test_digest_document_keeps_mapping_fields(self):
        req = parse_request("map", {"topology": "grid-25",
                                    "benchmark": "ghz-8",
                                    "num_mappings": 3})
        document = req.digest_document()
        assert document["num_mappings"] == 3
        assert "circuit_digest" in document
        assert "benchmark" not in document

    def test_unknown_circuit_falls_back_to_the_name(self):
        req = MapRequest(topology="grid-25", benchmark="not-a-workload")
        document = req.digest_document()
        assert document["benchmark"] == "not-a-workload"


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    root = tmp_path_factory.mktemp("ensemble-service")
    svc = PlacementService(store_dir=root, port=0, workers=1,
                           runner_workers=1)
    with svc:
        yield svc


@pytest.fixture(scope="module")
def client(service):
    return ServiceClient(service.base_url, timeout=30.0)


class TestEnsemblePipeline:
    REQUEST = {"topology": "grid-25", "sigmas": [0.05], "samples": 4,
               "repair_samples": 2, "config": FAST, "bootstrap": 20}

    def test_live_ensemble_round_trip(self, client):
        result = client.run("ensemble", dict(self.REQUEST),
                            options={"chunk_size": 2}, timeout=300)
        assert result["kind"] == "ensemble"
        assert result["samples"] == 4
        point, = result["points"]
        assert point["sigma_qubit_ghz"] == 0.05
        assert point["chunks"] == 2
        assert 0.0 <= point["yield"] <= point["yield_after_repair"] <= 1.0
        assert point["repair"]["legal_all"]

    def test_progress_streams_one_entry_per_point(self, client):
        # Distinct base_seed: a fresh digest, so the executor actually
        # runs instead of serving the first test's cached artifact.
        job = client.submit("ensemble",
                            dict(self.REQUEST, base_seed=1),
                            options={"chunk_size": 2})
        record = client.wait(job["job_id"], timeout=300)
        progress = record.get("progress") or {}
        assert progress.get("published") == 1
        assert progress.get("total") == 1
        assert "yield" in progress

    def test_resubmit_served_from_the_artifact_store(self, client,
                                                     service):
        first = client.submit("ensemble", dict(self.REQUEST),
                              options={"chunk_size": 2})
        client.wait(first["job_id"], timeout=300)
        again = client.submit("ensemble", dict(self.REQUEST),
                              options={"chunk_size": 2})
        assert again["disposition"] in ("cache_hit", "coalesced")
        assert again["digest"] == first["digest"]

    def test_ensemble_client_convenience(self, client):
        result = client.run("ensemble",
                            {"topology": "grid-25", "sigmas": [0.05],
                             "samples": 4, "repair_samples": 2,
                             "config": FAST, "bootstrap": 20},
                            options={"chunk_size": 2}, timeout=300)
        assert result["kind"] == "ensemble"
