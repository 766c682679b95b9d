"""Request parsing, normalisation, and validation rules."""

from __future__ import annotations

import pytest

from repro.analysis.runner import CACHE_SCHEMA_VERSION
from repro.core import PlacerConfig
from repro.service.requests import (REQUEST_TYPES, EvaluateRequest,
                                    FidelityRequest, MapRequest,
                                    PlaceRequest, RequestError,
                                    check_options, parse_request)
from repro.service.store import request_digest

#: One payload per kind and its request digest under cache schema 10.
#: Every stored artifact is addressed by these digests, so a refactor
#: of the request classes (names, fields, normalisation) must leave
#: them byte-identical; only a deliberate schema bump may move them.
GOLDEN_DIGESTS = {
    "place": ({"topology": "grid-25", "strategies": ["qplacer", "classic"],
               "seed": 3, "config": {"num_bins": 32, "max_iterations": 60},
               "warm_start": True},
              "8cee07ea6e4e0368fb9d0fc1b554686897168ea37756ae6702c2b819e46e45de"),
    "fidelity": ({"topology": "grid-25", "workloads": ["bv-4", "ghz-5"],
                  "num_mappings": 3, "base_seed": 2,
                  "strategies": "qplacer"},
                 "66915f36a9fe3c2b2fa8b054295f8318ea8e8a8528045d73920eea2fea3193a2"),
    "map": ({"benchmark": "bv-4", "topology": "grid-25", "num_mappings": 5,
             "base_seed": 1, "router": "basic", "optimization_level": 2},
            "bbc78cd8c7d4d230df30d7c274c610515d3995d64c9dd8a1d28351c85424dc5d"),
    "evaluate": ({"num_mappings": 2, "seed": 1},
                 "66a00c10c5243eebadf93f8c73e7dec3ca98104238aa98efa23ed211a599a8a2"),
    "ensemble": ({"topology": "grid-25", "sigmas": "0.01,0.05",
                  "samples": 16, "repair_samples": 4,
                  "max_ph_percent": 1.5, "bootstrap": 50},
                 "0e7d5b81f4b2903a4da0fb7e69ff6858f6805294562a7ca7e2e7b85786f12602"),
}


class TestGoldenDigests:
    def test_every_kind_is_pinned(self):
        assert set(GOLDEN_DIGESTS) == set(REQUEST_TYPES)
        assert CACHE_SCHEMA_VERSION == 10

    @pytest.mark.parametrize("kind", sorted(GOLDEN_DIGESTS))
    def test_digest_is_byte_identical(self, kind):
        payload, digest = GOLDEN_DIGESTS[kind]
        assert request_digest(kind, parse_request(kind, payload)) == digest


class TestParsePlace:
    def test_minimal(self):
        req = parse_request("place", {"topology": "grid-25"})
        assert isinstance(req, PlaceRequest)
        assert req.strategies == ("qplacer", "classic", "human")
        assert req.include_layouts

    @pytest.mark.parametrize("key,value", [("seed", 5),
                                           ("segment_size_mm", 0.4)])
    def test_request_level_fields_rejected_inside_config(self, key, value):
        """Executors overwrite config-embedded seed/lb with the
        request-level fields, so accepting them would compute one thing
        and digest another."""
        with pytest.raises(RequestError) as err:
            parse_request("place", {"topology": "grid-25",
                                    "config": {key: value}})
        assert "request level" in str(err.value)

    def test_config_dict_becomes_placer_config(self):
        req = parse_request("place", {"topology": "grid-25",
                                      "config": {"num_bins": 32}})
        assert isinstance(req.config, PlacerConfig)
        assert req.config.num_bins == 32

    def test_strategies_list_and_csv(self):
        a = parse_request("place", {"topology": "grid-25",
                                    "strategies": ["qplacer"]})
        b = parse_request("place", {"topology": "grid-25",
                                    "strategies": "qplacer"})
        assert a.strategies == b.strategies == ("qplacer",)

    @pytest.mark.parametrize("payload,fragment", [
        ({"topology": "nowhere-9"}, "unknown topology"),
        ({"topology": "grid-25", "strategies": ["telepathy"]},
         "strategies"),
        ({"topology": "grid-25", "strategies": []}, "strategies"),
        ({"topology": "grid-25", "bogus_field": 1}, "bogus_field"),
        ({"topology": "grid-25", "config": {"bogus": 1}}, "config"),
        ({"topology": "grid-25", "config": {"num_bins": 2}}, "config"),
        ({"topology": "grid-25", "seed": -1}, "seed"),
        ({"topology": "grid-25", "segment_size_mm": -1.0},
         "segment_size_mm"),
        ({"topology": "grid-25", "segment_size_mm": 0.0},
         "segment_size_mm"),
        ({"topology": "grid-25", "segment_size_mm": float("nan")},
         "segment_size_mm"),
        ({"topology": "grid-25", "segment_size_mm": float("inf")},
         "segment_size_mm"),
        # The retired placer switch and its annealing / racing knobs
        # are no longer config fields.
        ({"topology": "grid-25", "config": {"placer": "sa"}}, "config"),
        ({"topology": "grid-25", "config": {"sa_rounds": 4}}, "config"),
        ({"topology": "grid-25",
          "config": {"portfolio_members": ["force"]}}, "config"),
    ])
    def test_rejections(self, payload, fragment):
        with pytest.raises(RequestError) as err:
            parse_request("place", payload)
        assert fragment in str(err.value)

    def test_unknown_kind(self):
        for kind in ("divine", "refine"):
            with pytest.raises(RequestError) as err:
                parse_request(kind, {"topology": "grid-25"})
            assert "known: ['ensemble', 'evaluate'" in str(err.value)

    def test_every_kind_has_an_executor(self, tmp_path):
        from repro.service import ArtifactStore, JobQueue, Scheduler
        from repro.service.requests import REQUEST_TYPES
        for cls in REQUEST_TYPES.values():
            assert "execute" in vars(cls), cls.__name__
        store = ArtifactStore(tmp_path)
        scheduler = Scheduler(JobQueue(store), store)
        assert scheduler.executors == {
            kind: cls.execute for kind, cls in REQUEST_TYPES.items()}

    def test_non_string_kind(self):
        with pytest.raises(RequestError):
            parse_request(["map"], {"topology": "grid-25"})

    def test_non_mapping_payload(self):
        with pytest.raises(RequestError):
            parse_request("place", [1, 2, 3])

    @pytest.mark.parametrize("field,value", [
        ("seed", "7"),
        ("segment_size_mm", "0.3"),
        ("include_layouts", 1),
        ("topology", 25),
    ])
    def test_wrong_typed_fields_are_request_errors(self, field, value):
        """Type confusion must be a 400, never an escaping TypeError."""
        with pytest.raises(RequestError):
            parse_request("place", {"topology": "grid-25", field: value})


class TestSeedAndSizeBounds:
    @pytest.mark.parametrize("kind,payload,fragment", [
        ("fidelity", {"topology": "grid-25", "workloads": "paper-8",
                      "base_seed": -2}, "base_seed"),
        ("map", {"benchmark": "bv-4", "topology": "grid-25",
                 "base_seed": -3}, "base_seed"),
        ("evaluate", {"topologies": ["grid-25"], "seed": -1}, "seed"),
        ("evaluate", {"topologies": ["grid-25"],
                      "segment_size_mm": -0.3}, "segment_size_mm"),
        ("ensemble", {"topology": "grid-25", "base_seed": -1},
         "base_seed"),
        ("ensemble", {"topology": "grid-25", "seed": -1}, "seed"),
    ])
    def test_rejections(self, kind, payload, fragment):
        """np.random.default_rng raises on a negative seed, so these
        must be a 400 rather than a queued job that fails."""
        with pytest.raises(RequestError) as err:
            parse_request(kind, payload)
        assert fragment in str(err.value)


class TestParseFidelity:
    def test_suite_name_expands(self):
        req = parse_request("fidelity", {"topology": "grid-25",
                                         "workloads": "paper-8"})
        assert isinstance(req, FidelityRequest)
        assert len(req.workloads) == 8

    def test_empty_workloads_rejected(self):
        with pytest.raises(RequestError):
            parse_request("fidelity", {"topology": "grid-25"})

    def test_bad_workload_rejected(self):
        with pytest.raises(RequestError):
            parse_request("fidelity", {"topology": "grid-25",
                                       "workloads": ["astrology-7"]})

    @pytest.mark.parametrize("workloads", [[5], [None], ["bv-4", 7]])
    def test_non_string_workloads_rejected(self, workloads):
        """Type confusion in a name list is a 400, not an escaping
        TypeError/AttributeError."""
        with pytest.raises(RequestError) as err:
            parse_request("fidelity", {"topology": "grid-25",
                                       "workloads": workloads})
        assert "workloads" in str(err.value)


class TestParseMap:
    def test_minimal(self):
        req = parse_request("map", {"benchmark": "bv-4",
                                    "topology": "grid-25"})
        assert isinstance(req, MapRequest)
        assert req.router == "basic"

    def test_bad_router(self):
        with pytest.raises(RequestError):
            parse_request("map", {"benchmark": "bv-4",
                                  "topology": "grid-25",
                                  "router": "teleport"})

    def test_bad_num_mappings(self):
        with pytest.raises(RequestError):
            parse_request("map", {"benchmark": "bv-4",
                                  "topology": "grid-25",
                                  "num_mappings": 0})

    def test_string_num_mappings_is_request_error(self):
        with pytest.raises(RequestError):
            parse_request("map", {"benchmark": "bv-4",
                                  "topology": "grid-25",
                                  "num_mappings": "5"})

    def test_unknown_benchmark_rejected_at_parse_time(self):
        with pytest.raises(RequestError) as err:
            parse_request("map", {"benchmark": "astrology-7",
                                  "topology": "grid-25"})
        assert "benchmark" in str(err.value)

    def test_bad_optimization_level(self):
        with pytest.raises(RequestError):
            parse_request("map", {"benchmark": "bv-4",
                                  "topology": "grid-25",
                                  "optimization_level": 7})


class TestCheckOptions:
    def test_valid_options_pass_through(self):
        assert check_options("map", {"chunk_size": 4}) == {"chunk_size": 4}
        assert check_options("fidelity", {"shard_count": 2}) == \
            {"shard_count": 2}
        assert check_options("place", {}) == {}

    @pytest.mark.parametrize("kind,options", [
        ("map", {"shard_count": 2}),      # wrong kind's option
        ("place", {"chunk_size": 2}),     # place takes none
        ("map", {"chunk_size": 0}),       # non-positive
        ("map", {"chunk_size": "2"}),     # wrong type
        ("map", {"chunk_size": True}),    # bool is not an int here
        ("fidelity", {"shard_count": -1}),
    ])
    def test_invalid_options_rejected(self, kind, options):
        """Options never enter the digest, so a bad one would poison
        every identical request coalescing onto the job — reject at
        submit time instead."""
        with pytest.raises(RequestError):
            check_options(kind, options)


class TestParseEvaluate:
    def test_paper_defaults_materialise(self):
        req = parse_request("evaluate", {})
        assert isinstance(req, EvaluateRequest)
        assert len(req.topologies) == 6
        assert len(req.benchmarks) == 8

    def test_explicit_defaults_coalesce(self):
        from repro.circuits.library import PAPER_BENCHMARKS
        from repro.devices.topology import PAPER_TOPOLOGY_ORDER
        from repro.service.store import request_digest

        a = parse_request("evaluate", {})
        b = parse_request("evaluate",
                          {"topologies": list(PAPER_TOPOLOGY_ORDER),
                           "benchmarks": list(PAPER_BENCHMARKS)})
        assert request_digest("evaluate", a) == request_digest("evaluate", b)

    def test_bad_topology_in_list(self):
        with pytest.raises(RequestError):
            parse_request("evaluate", {"topologies": ["grid-25", "oops"]})

    def test_bad_benchmark_in_list(self):
        with pytest.raises(RequestError):
            parse_request("evaluate", {"topologies": ["grid-25"],
                                       "benchmarks": ["bv-4", "vibes-3"]})
