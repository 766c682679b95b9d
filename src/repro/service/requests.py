"""The service request model: typed, validated, canonicalisable.

A request is a frozen dataclass describing one *result* the service can
produce.  Everything that determines the result — and only that — lives
in the request: the artifact store digests the canonicalised dataclass
(:mod:`repro.service.store`), so two requests share one artifact iff
their fields agree after normalisation.  Execution hints that cannot
change the result (priority tier, mapping chunk size, fidelity shard
count) ride in the job envelope instead (``options`` of
:meth:`repro.service.queue.JobQueue.submit`) and never enter the
digest.

Each request class is the one declaration of its kind: its fields, the
execution ``options`` it accepts, its kind-specific ``validate`` step
and the ``execute`` method the scheduler runs.  :data:`REQUEST_TYPES`
collects the classes; every other kind-keyed lookup derives from it.

Normalisation happens in :func:`parse_request`, before digesting:

* defaults are materialised (an omitted field and its explicit default
  digest identically);
* workload suite names expand to the registry's explicit name list
  (``"paper-8"`` and its eight names coalesce);
* JSON lists become tuples, config dicts become
  :class:`~repro.core.config.PlacerConfig`;
* unknown kinds/fields/topologies/strategies raise
  :class:`RequestError` (HTTP 400), never a queued job that fails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import (TYPE_CHECKING, Any, ClassVar, Dict, Mapping, Optional,
                    Tuple, Type, Union)

from .. import constants
from ..circuits.mapping import ROUTER_CHOICES
from ..core.config import PlacerConfig

if TYPE_CHECKING:
    from .queue import JobRecord
    from .scheduler import ExecutionContext

#: The three placement strategies a request may score.
_KNOWN_STRATEGIES = frozenset({"qplacer", "classic", "human"})

#: Routers understood by the mapping pipeline — the single source of
#: truth is :data:`repro.circuits.mapping.ROUTER_CHOICES`, so the
#: service 400s exactly the names ``map_circuit`` would reject.
_KNOWN_ROUTERS = frozenset(ROUTER_CHOICES)


class RequestError(ValueError):
    """A malformed or unsatisfiable service request (HTTP 400)."""


class _RequestKind:
    """What every request class declares besides its fields."""

    #: The ``kind`` of ``POST /jobs``.
    kind: ClassVar[str]
    #: Execution hints accepted in the job envelope's ``options``.
    #: Options never enter the digest, so an invalid option on one
    #: submit would otherwise poison every identical request coalescing
    #: onto its job — :func:`check_options` validates them as strictly
    #: as request fields.
    options: ClassVar[Tuple[str, ...]] = ()

    def validate(self) -> "Request":
        """Kind-specific checks, run after the shared ones.

        Returns the request itself or a normalised copy (materialised
        defaults); raises :class:`RequestError`.
        """
        return self

    def execute(self, ctx: "ExecutionContext",
                job: "JobRecord") -> Dict[str, Any]:
        """Compute the artifact payload (run by a scheduler worker)."""
        raise NotImplementedError


@dataclass(frozen=True)
class PlaceRequest(_RequestKind):
    """Place one topology with the requested strategies.

    The service analogue of :class:`~repro.analysis.runner.PlacementJob`
    (the executor builds exactly that job, so the runner's suite cache
    is shared).  The artifact is the per-strategy metrics table plus —
    when ``include_layouts`` — the serialised layouts themselves.

    ``warm_start`` seeds the global placement from the nearest stored
    placement of the same topology (:meth:`~repro.service.store.
    ArtifactStore.nearest_placement`).  It is a request field — not an
    execution option — because the seeding changes the computed
    positions, so warm and cold runs must digest differently.
    """

    kind: ClassVar[str] = "place"

    topology: str
    segment_size_mm: float = constants.DEFAULT_SEGMENT_SIZE_MM
    strategies: Tuple[str, ...] = ("qplacer", "classic", "human")
    seed: int = 0
    config: Optional[PlacerConfig] = None
    include_layouts: bool = True
    warm_start: bool = False

    def execute(self, ctx: "ExecutionContext",
                job: "JobRecord") -> Dict[str, Any]:
        from ..analysis.experiments import run_place_request

        return run_place_request(
            topology=self.topology, segment_size_mm=self.segment_size_mm,
            strategies=self.strategies, seed=self.seed, config=self.config,
            include_layouts=self.include_layouts, runner=ctx.runner,
            warm_start=self.warm_start, store=ctx.store)


@dataclass(frozen=True)
class FidelityRequest(_RequestKind):
    """Score one placed topology over a workload list (Fig. 11 shape).

    The ``shard_count`` option fans the workloads over the runner as
    cached shards (identical output).
    """

    kind: ClassVar[str] = "fidelity"
    options: ClassVar[Tuple[str, ...]] = ("shard_count",)

    topology: str
    workloads: Tuple[str, ...] = ()
    num_mappings: int = 12
    base_seed: int = 0
    strategies: Tuple[str, ...] = ("qplacer", "classic", "human")
    segment_size_mm: float = constants.DEFAULT_SEGMENT_SIZE_MM
    seed: int = 0
    config: Optional[PlacerConfig] = None

    def validate(self) -> "FidelityRequest":
        from ..workloads import resolve_workload_names

        try:
            workloads = tuple(name for part in self.workloads
                              for name in resolve_workload_names(part))
        except (KeyError, ValueError) as exc:
            raise RequestError(f"invalid workloads: {exc}") from None
        if not workloads:
            raise RequestError("fidelity requests need a non-empty "
                               "workloads list (or a suite name)")
        _check_num_mappings(self.num_mappings)
        return replace(self, workloads=workloads)

    def execute(self, ctx: "ExecutionContext",
                job: "JobRecord") -> Dict[str, Any]:
        from ..analysis.experiments import (_effective_config,
                                            sharded_fidelity_experiment)

        fidelity = sharded_fidelity_experiment(
            self.topology, workloads=self.workloads,
            shard_count=job.options.get("shard_count"),
            num_mappings=self.num_mappings, base_seed=self.base_seed,
            segment_size_mm=self.segment_size_mm,
            strategies=self.strategies,
            config=_effective_config(self.config, self.seed,
                                     self.segment_size_mm),
            runner=ctx.runner)
        return {"topology": self.topology,
                "workloads": list(self.workloads),
                "num_mappings": self.num_mappings,
                "base_seed": self.base_seed, "fidelity": fidelity}


@dataclass(frozen=True)
class MapRequest(_RequestKind):
    """Compile one benchmark's evaluation-mapping batch.

    The artifact is the JSON-able per-mapping summary (swap counts,
    durations, gate totals) — the full :class:`~repro.circuits.mapping.
    MappedCircuit` objects stay in the runner's pickle cache, where a
    subsequent fidelity request finds them.  The ``chunk_size`` option
    fans the batch over the runner as seed-range chunks.
    """

    kind: ClassVar[str] = "map"
    options: ClassVar[Tuple[str, ...]] = ("chunk_size",)

    benchmark: str
    topology: str
    num_mappings: int = constants.DEFAULT_NUM_MAPPINGS
    base_seed: int = 0
    router: str = "basic"
    optimization_level: int = 3

    def validate(self) -> "MapRequest":
        if self.router not in _KNOWN_ROUTERS:
            raise RequestError(f"unknown router {self.router!r}; known: "
                               f"{sorted(_KNOWN_ROUTERS)}")
        _check_num_mappings(self.num_mappings)
        if self.optimization_level not in (0, 1, 2, 3):
            raise RequestError("optimization_level must be 0..3")
        _check_benchmarks((self.benchmark,))
        return self

    def execute(self, ctx: "ExecutionContext",
                job: "JobRecord") -> Dict[str, Any]:
        from ..analysis.experiments import run_map_request

        return run_map_request(
            benchmark=self.benchmark, topology=self.topology,
            num_mappings=self.num_mappings, base_seed=self.base_seed,
            router=self.router, optimization_level=self.optimization_level,
            runner=ctx.runner, chunk_size=job.options.get("chunk_size"))

    def digest_document(self) -> Dict[str, Any]:
        """Digest payload keyed on the circuit *content*, not its name.

        Differently-named aliases of one workload (``ghz-5`` vs a
        custom alias compiling to the same gates) coalesce at queue
        submission — layer 1 — instead of only at the runner cache.
        Falls back to the raw field document when the benchmark cannot
        be built (parse_request validated the name, so this is purely
        defensive).
        """
        document: Dict[str, Any] = {
            "topology": self.topology,
            "num_mappings": self.num_mappings,
            "base_seed": self.base_seed,
            "router": self.router,
            "optimization_level": self.optimization_level,
        }
        try:
            from ..analysis.runner import benchmark_circuit_digest

            document["circuit_digest"] = benchmark_circuit_digest(
                self.benchmark)
        except Exception:
            document["benchmark"] = self.benchmark
        return document


@dataclass(frozen=True)
class EvaluateRequest(_RequestKind):
    """The full paper evaluation (Figs. 11-13) over topologies.

    The artifact is value-identical to running
    :func:`repro.analysis.experiments.run_full_evaluation` directly and
    converting it with :func:`repro.analysis.experiments.
    evaluation_payload` (pinned by ``benchmarks/bench_perf_service.py``).
    """

    kind: ClassVar[str] = "evaluate"

    topologies: Tuple[str, ...] = ()
    benchmarks: Tuple[str, ...] = ()
    num_mappings: int = 12
    segment_size_mm: float = constants.DEFAULT_SEGMENT_SIZE_MM
    seed: int = 0
    config: Optional[PlacerConfig] = None

    def validate(self) -> "EvaluateRequest":
        # Materialise the paper defaults so an omitted list and the
        # explicit equivalent coalesce to one digest.
        from ..circuits.library import PAPER_BENCHMARKS
        from ..devices.topology import PAPER_TOPOLOGY_ORDER

        request = replace(
            self, topologies=self.topologies or tuple(PAPER_TOPOLOGY_ORDER),
            benchmarks=self.benchmarks or tuple(PAPER_BENCHMARKS))
        for name in request.topologies:
            _check_topology(name)
        _check_benchmarks(request.benchmarks)
        _check_num_mappings(request.num_mappings)
        return request

    def execute(self, ctx: "ExecutionContext",
                job: "JobRecord") -> Dict[str, Any]:
        from ..analysis.experiments import (_effective_config,
                                            evaluation_payload,
                                            run_full_evaluation)

        return evaluation_payload(run_full_evaluation(
            topology_names=self.topologies, benchmarks=self.benchmarks,
            num_mappings=self.num_mappings,
            segment_size_mm=self.segment_size_mm,
            config=_effective_config(self.config, self.seed,
                                     self.segment_size_mm),
            runner=ctx.runner))


@dataclass(frozen=True)
class EnsembleRequest(_RequestKind):
    """Monte-Carlo disorder ensemble against one frozen placement.

    For each sigma in ``sigmas``, draws ``samples`` frequency-disorder
    realisations (qubit scatter ``sigma``, resonator scatter ``sigma *
    resonator_sigma_scale``), re-scores the frozen layout across the
    batch, and incrementally repairs up to ``repair_samples`` failing
    realisations.  The artifact is the yield/fidelity-vs-sigma curve
    with bootstrap intervals; progress streams one point per sigma via
    ``GET /jobs/<id>``.  Samples fan through the runner as chunk jobs
    (``chunk_size`` execution option).
    """

    kind: ClassVar[str] = "ensemble"
    options: ClassVar[Tuple[str, ...]] = ("chunk_size",)

    topology: str
    sigmas: Tuple[float, ...] = (0.01, 0.02, 0.05)
    samples: int = 64
    resonator_sigma_scale: float = 0.5
    base_seed: int = 0
    strategy: str = "qplacer"
    segment_size_mm: float = constants.DEFAULT_SEGMENT_SIZE_MM
    seed: int = 0
    config: Optional[PlacerConfig] = None
    repair_samples: int = 0
    max_ph_percent: float = 0.0
    warm_start: bool = False
    bootstrap: int = 200

    def validate(self) -> "EnsembleRequest":
        try:
            sigmas = tuple(float(s) for s in self.sigmas)
        except (TypeError, ValueError):
            raise RequestError("sigmas must be a list of numbers "
                               "(or a comma-separated string)") from None
        if not sigmas:
            raise RequestError("ensemble requests need at least one sigma")
        if not all(0.0 <= s <= 1.0 for s in sigmas):
            raise RequestError("each sigma must be in [0, 1] GHz")
        if self.strategy not in _KNOWN_STRATEGIES:
            raise RequestError(
                f"strategy must be one of {sorted(_KNOWN_STRATEGIES)}, "
                f"got {self.strategy!r}")
        if not 1 <= self.samples <= 100_000:
            raise RequestError("samples must be in [1, 100000]")
        if not 0.0 <= self.resonator_sigma_scale <= 10.0:
            raise RequestError("resonator_sigma_scale must be in [0, 10]")
        if self.repair_samples < 0:
            raise RequestError("repair_samples must be non-negative")
        if self.repair_samples > self.samples:
            raise RequestError("repair_samples cannot exceed samples")
        if not (math.isfinite(self.max_ph_percent)
                and self.max_ph_percent >= 0.0):
            raise RequestError("max_ph_percent must be non-negative and "
                               "finite")
        if not 0 <= self.bootstrap <= 10_000:
            raise RequestError("bootstrap must be in [0, 10000]")
        return replace(self, sigmas=sigmas)

    def execute(self, ctx: "ExecutionContext",
                job: "JobRecord") -> Dict[str, Any]:
        """Run the ensemble with streamed per-sigma progress.

        After each completed sigma point the partial curve is published
        under the job's digest and ``JobRecord.progress`` advances, so
        clients polling ``GET /jobs/<id>`` watch the yield curve grow
        point by point.  Cancellation is honoured at point boundaries.
        """
        import time

        from ..ensembles import run_ensemble_request
        from ..io.serialization import canonicalize
        from .queue import JobCancelled

        started = time.perf_counter()
        state: Dict[str, Any] = {
            "kind": self.kind,
            "topology": self.topology,
            "strategy": self.strategy,
            "samples": self.samples,
            "points": [],
        }

        def on_point(index: int, point: Dict[str, Any]) -> None:
            if job.cancel_requested:
                raise JobCancelled(job.job_id)
            state["points"] = list(state["points"]) + [point]
            ctx.store.put(job.digest, dict(state), metadata={
                "kind": job.kind,
                "request": canonicalize(self),
                "compute_s": time.perf_counter() - started,
            })
            if ctx.queue is not None:
                ctx.queue.update_progress(job.job_id, {
                    "published": index + 1,
                    "total": len(self.sigmas),
                    "sigma_qubit_ghz": point["sigma_qubit_ghz"],
                    "yield": point["yield"],
                    "yield_after_repair": point["yield_after_repair"],
                })

        return run_ensemble_request(
            topology=self.topology, sigmas=self.sigmas,
            samples=self.samples,
            resonator_sigma_scale=self.resonator_sigma_scale,
            base_seed=self.base_seed, strategy=self.strategy,
            segment_size_mm=self.segment_size_mm, seed=self.seed,
            config=self.config, repair_samples=self.repair_samples,
            max_ph_percent=self.max_ph_percent,
            warm_start=self.warm_start, bootstrap=self.bootstrap,
            runner=ctx.runner, chunk_size=job.options.get("chunk_size"),
            store=ctx.store, on_point=on_point)


Request = Union[PlaceRequest, FidelityRequest, MapRequest, EvaluateRequest,
                EnsembleRequest]

#: Request kind -> class: the one table keyed by kind (``POST /jobs``
#: parsing, option checks and the scheduler's executors all read it).
REQUEST_TYPES: Dict[str, Type[Request]] = {
    cls.kind: cls
    for cls in (PlaceRequest, FidelityRequest, MapRequest, EvaluateRequest,
                EnsembleRequest)
}


def _check_topology(name: Any) -> str:
    from ..devices.topology import TOPOLOGY_FACTORIES

    if not isinstance(name, str) or name not in TOPOLOGY_FACTORIES:
        known = ", ".join(sorted(TOPOLOGY_FACTORIES))
        raise RequestError(f"unknown topology {name!r}; known: {known}")
    return name


def _check_strategies(strategies: Tuple[str, ...]) -> Tuple[str, ...]:
    bad = [s for s in strategies if s not in _KNOWN_STRATEGIES]
    if bad or not strategies:
        raise RequestError(
            f"strategies must be a non-empty subset of "
            f"{sorted(_KNOWN_STRATEGIES)}, got {list(strategies)}")
    return strategies


def _check_benchmarks(names: Tuple[str, ...]) -> None:
    """Cheap name-level validation (no circuit is built)."""
    from ..workloads import resolve_workload_names

    for name in names:
        try:
            resolve_workload_names((name,))
        except Exception as exc:
            raise RequestError(
                f"unknown benchmark {name!r}: {exc}") from None


def _check_num_mappings(num_mappings: int) -> None:
    if num_mappings < 1:
        raise RequestError("num_mappings must be >= 1")


#: Scalar field types enforced before validation logic runs, so a
#: wrong-typed JSON value (e.g. ``"num_mappings": "5"``) is a clean
#: RequestError instead of a TypeError escaping mid-comparison.
_FIELD_SCALARS = {
    "int": (int,),
    "float": (int, float),
    "bool": (bool,),
    "str": (str,),
}


def _check_field_types(cls: type, data: Dict[str, Any], kind: str) -> None:
    for f in fields(cls):
        if f.name not in data:
            continue
        expected = _FIELD_SCALARS.get(f.type)
        if expected is None:
            continue
        value = data[f.name]
        if not isinstance(value, expected) or (
                f.type in ("int", "float") and isinstance(value, bool)):
            raise RequestError(
                f"{kind} request field {f.name!r} must be {f.type}, "
                f"got {type(value).__name__}")


def parse_request(kind: str, payload: Mapping[str, Any]) -> Request:
    """Build and validate a request from a JSON payload.

    Runs the checks every kind shares (field names and types, config,
    seeds, segment size, topology, strategies), then the class's own
    :meth:`validate`.

    Raises:
        RequestError: unknown kind, unknown/invalid field, unknown
            topology or strategy — anything the API maps to HTTP 400.
    """
    if not isinstance(kind, str):
        raise RequestError("request kind must be a string")
    cls = REQUEST_TYPES.get(kind)
    if cls is None:
        raise RequestError(
            f"unknown request kind {kind!r}; known: "
            f"{sorted(REQUEST_TYPES)}")
    if not isinstance(payload, Mapping):
        raise RequestError("request payload must be a JSON object")
    data = dict(payload)

    known = {f.name for f in fields(cls)}
    unknown = set(data) - known
    if unknown:
        raise RequestError(
            f"unknown {kind} request field(s) {sorted(unknown)}; "
            f"known: {sorted(known)}")
    _check_field_types(cls, data, kind)

    config = data.get("config")
    if isinstance(config, Mapping):
        # seed / segment_size_mm are request-level fields; the
        # executors overwrite any config-embedded values with them, so
        # accepting them here would compute one thing while digesting
        # another (and fragment the artifact space).
        shadowed = {"seed", "segment_size_mm"} & set(config)
        if shadowed:
            raise RequestError(
                f"set {sorted(shadowed)} at the request level, not "
                f"inside config (request-level values always win)")
        try:
            data["config"] = PlacerConfig(**config)
        except (TypeError, ValueError) as exc:
            raise RequestError(f"invalid placer config: {exc}") from None
    elif config is not None and not isinstance(config, PlacerConfig):
        raise RequestError("config must be a JSON object of PlacerConfig "
                           "fields")

    # Tuple-annotated fields accept a JSON list or a comma-separated
    # string; name lists must hold strings.
    for f in fields(cls):
        if f.name not in data or not f.type.startswith("Tuple["):
            continue
        value = data[f.name]
        if isinstance(value, str):
            value = tuple(part for part in value.split(",") if part)
        try:
            value = tuple(value)
        except TypeError:
            raise RequestError(
                f"{f.name} must be a list of names") from None
        if f.type == "Tuple[str, ...]" and \
                not all(isinstance(v, str) for v in value):
            raise RequestError(f"{f.name} must be a list of names")
        data[f.name] = value

    try:
        request = cls(**data)
    except (TypeError, ValueError) as exc:
        raise RequestError(f"invalid {kind} request: {exc}") from None

    # Seeds feed np.random.default_rng, which rejects negatives; the
    # segment size divides resonator lengths.  Catch both here so they
    # are a 400, not a queued job that fails.
    for name in ("seed", "base_seed"):
        if getattr(request, name, 0) < 0:
            raise RequestError(f"{name} must be non-negative")
    size = getattr(request, "segment_size_mm", 1.0)
    if not (math.isfinite(size) and size > 0.0):
        raise RequestError("segment_size_mm must be positive and finite")
    if hasattr(request, "topology"):
        _check_topology(request.topology)
    if hasattr(request, "strategies"):
        _check_strategies(request.strategies)
    return request.validate()


def check_options(kind: str, options: Mapping[str, Any]) -> Dict[str, Any]:
    """Validate a submit's execution options for one request kind.

    The accepted names are the kind's :attr:`options`.

    Raises:
        RequestError: unknown option name, or a non-positive/non-int
            value (every current option is a positive integer).
    """
    if not isinstance(options, Mapping):
        raise RequestError("options must be a JSON object")
    allowed = getattr(REQUEST_TYPES.get(kind), "options", ())
    out: Dict[str, Any] = {}
    for name, value in options.items():
        if name not in allowed:
            raise RequestError(
                f"unknown {kind} option {name!r}; known: {list(allowed)}")
        if not isinstance(value, int) or isinstance(value, bool) \
                or value < 1:
            raise RequestError(f"option {name!r} must be a positive "
                               f"integer, got {value!r}")
        out[name] = value
    return out
