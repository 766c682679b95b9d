"""Placer configuration (the paper's hyper-parameters, Sec. V-B/C).

One :class:`PlacerConfig` drives preprocessing, the electrostatic global
placement, and legalization.  ``Classic`` (the baseline of Sec. V-B) is
the *identical* configuration with the frequency-awareness switched off:
``PlacerConfig.classic()``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from .. import constants

@dataclass(frozen=True)
class PlacerConfig:
    """All tunable parameters of the placement flow.

    Geometry / preprocessing:

    Attributes:
        segment_size_mm: Resonator segment block size ``lb`` (Sec. IV-B2).
        qubit_padding_mm: Qubit padding ``dq``.
        resonator_padding_mm: Resonator padding ``dr``.
        qubit_clearance_mm: Legalized routing clearance between a qubit
            and any non-attached neighbour (sub-padding lattice spacing).
        segment_clearance_mm: Likewise between resonator segments of
            different resonators.
        detuning_threshold_ghz: Resonance threshold ``Delta_c``.

    Global placement:

    Attributes:
        frequency_aware: Enables the frequency repulsive force and the
            resonant checker in legalization; False = Classic baseline.
        target_density: Bin-density ceiling ``D_hat`` (Eq. 11).
        whitespace_factor: Region sizing: region area = total inflated
            instance area / whitespace_factor.
        num_bins: Density grid resolution per axis (power of two).
        max_iterations: Upper bound on optimizer iterations.
        min_iterations: Iterations before convergence checks begin.
        overflow_target: Stop when density overflow drops below this.
        wirelength_smoothing_mm: Smooth-|x| parameter of the wirelength
            model (comparable to a fraction of a bin).
        freq_force_smoothing_mm: Softening length of the 1/d repulsion.
        lambda_density_multiplier: Per-iteration density-penalty growth.
        lambda_freq_multiplier: Per-iteration frequency-penalty growth.
        initial_freq_weight: Initial ratio |grad F| / |grad WL|.
        seed: Seed for the deterministic initial-position jitter.

    Legalization:

    Attributes:
        legalize_integration: Run the integration-aware repair (Alg. 1).
        spiral_max_radius_sites: Search bound of the greedy spiral.
        detailed_passes: Post-legalization refinement sweeps; ``None``
            resolves per problem size (:meth:`resolved_detailed_passes`).
        legalizer_screening: ``"hash"`` (cell-grid candidate screen)
            or ``"scan"`` (full-array mask baseline).

    Spatial interaction backend (:mod:`repro.core.interactions`):

    Attributes:
        interaction_backend: ``"auto"`` (sparse above
            ``sparse_min_instances`` instances), ``"dense"``, or
            ``"sparse"``.
        sparse_min_instances: Problem-size threshold for ``auto``.
        freq_pair_cutoff_mm: Sparse-only distance cutoff of the
            frequency repulsive force.
        freq_pair_skin_mm: Sparse-only Verlet skin of the neighbor list.
        freq_pair_banding: Bucket neighbor-list candidates by frequency
            band before the spatial grid, so never-resonant pairs are
            never materialised.  Result-preserving (the exact resonance
            filter still runs); off reproduces the PR 2 rebuild cost.
        incremental_density: ``"auto"`` (incremental on sparse-resolved
            problems, dense recompute elsewhere), ``"on"``, or ``"off"``.
        density_flush_interval: Full-rasterise checkpoint cadence of the
            incremental density path, in objective evaluations; ``1``
            flushes every evaluation, which is arithmetically identical
            to the dense recompute (the bench's bit-identity gate).
        density_move_threshold_mm: Instances displaced at most this per
            axis since their last scatter keep their stale bin charge
            between flushes (0 = re-scatter every moved instance).
    """

    # geometry / preprocessing
    segment_size_mm: float = constants.DEFAULT_SEGMENT_SIZE_MM
    qubit_padding_mm: float = constants.QUBIT_PADDING_MM
    resonator_padding_mm: float = constants.RESONATOR_PADDING_MM
    qubit_clearance_mm: float = 0.1
    segment_clearance_mm: float = 0.05
    detuning_threshold_ghz: float = constants.DETUNING_THRESHOLD_GHZ

    # global placement
    frequency_aware: bool = True
    target_density: float = constants.DEFAULT_TARGET_DENSITY
    whitespace_factor: float = 0.85
    num_bins: int = 64
    max_iterations: int = 400
    min_iterations: int = 40
    overflow_target: float = 0.08
    wirelength_smoothing_mm: float = 0.05
    freq_force_smoothing_mm: float = 0.3
    lambda_density_multiplier: float = 1.05
    lambda_freq_multiplier: float = 1.03
    initial_freq_weight: float = 0.5
    seed: int = 0

    # legalization
    legalize_integration: bool = True
    chain_aware_tetris: bool = True
    spiral_max_radius_sites: int = 64
    #: Detailed-placement refinement sweeps after legalization.
    #: ``None`` = auto: one pass on sparse-resolved (condor-class)
    #: problems where the vectorized engine makes it affordable, none on
    #: the dense paper tiers (whose layouts stay bit-identical).
    detailed_passes: Optional[int] = None
    #: Candidate screening of the legalizer's feasibility checks:
    #: ``"hash"`` queries the legalizer's cell grid (superset screen,
    #: identical verdicts), ``"scan"`` keeps the full-array mask path —
    #: the baseline the perf bench measures against.  Placements are
    #: identical under both.
    legalizer_screening: str = "hash"

    # spatial interaction backend (see repro.core.interactions)
    #: ``"auto"`` (size-based), ``"dense"``, or ``"sparse"``.
    interaction_backend: str = "auto"
    #: ``auto`` resolves to sparse above this instance count.
    sparse_min_instances: int = 2048
    #: Sparse-only: frequency-force interaction cutoff (mm).  Resonant
    #: pairs further apart contribute < 1/cutoff each and are dropped
    #: from the repulsive sum; the dense backend always sums every pair.
    freq_pair_cutoff_mm: float = 3.0
    #: Sparse-only: Verlet skin added to the cutoff when building the
    #: neighbor list; the list is rebuilt once any instance drifts more
    #: than half the skin.
    freq_pair_skin_mm: float = 1.5
    #: Frequency-banded candidate generation during neighbor-list
    #: rebuilds (result-preserving; the dominant condor-scale win).
    freq_pair_banding: bool = True

    # incremental density (see repro.core.density)
    #: ``"auto"`` (on for sparse-resolved problems), ``"on"``, ``"off"``.
    incremental_density: str = "auto"
    #: Objective evaluations between full-rasterise checkpoints (>= 1).
    density_flush_interval: int = 16
    #: Per-axis displacement below which an instance's bin charge is
    #: left stale between flushes (mm, >= 0).
    density_move_threshold_mm: float = 0.01

    def __post_init__(self) -> None:
        if self.segment_size_mm <= 0:
            raise ValueError("segment size must be positive")
        if self.qubit_padding_mm < 0 or self.resonator_padding_mm < 0:
            raise ValueError("paddings must be non-negative")
        if self.qubit_clearance_mm < 0 or self.segment_clearance_mm < 0:
            raise ValueError("clearances must be non-negative")
        if not (0 < self.target_density <= 2.0):
            raise ValueError("target density must be in (0, 2]")
        if not (0 < self.whitespace_factor <= 1.0):
            raise ValueError("whitespace factor must be in (0, 1]")
        if self.num_bins < 8:
            raise ValueError("need at least 8 density bins per axis")
        if self.max_iterations < self.min_iterations:
            raise ValueError("max_iterations must be >= min_iterations")
        if self.detailed_passes is not None and self.detailed_passes < 0:
            raise ValueError("detailed_passes must be >= 0 (or None for "
                             f"auto), got {self.detailed_passes}")
        if self.legalizer_screening not in ("hash", "scan"):
            raise ValueError(
                f"legalizer_screening must be one of ('hash', 'scan'), "
                f"got {self.legalizer_screening!r}")
        if self.spiral_max_radius_sites < 0:
            raise ValueError("spiral_max_radius_sites must be >= 0, got "
                             f"{self.spiral_max_radius_sites}")
        if self.interaction_backend not in ("auto", "dense", "sparse"):
            raise ValueError(
                f"interaction_backend must be one of ('auto', 'dense', "
                f"'sparse'), got {self.interaction_backend!r}")
        if self.sparse_min_instances < 1:
            raise ValueError("sparse_min_instances must be positive")
        if self.freq_pair_cutoff_mm <= 0 or self.freq_pair_skin_mm <= 0:
            raise ValueError("frequency pair cutoff and skin must be "
                             "positive")
        if self.incremental_density not in ("auto", "on", "off"):
            raise ValueError(
                f"incremental_density must be one of ('auto', 'on', "
                f"'off'), got {self.incremental_density!r}")
        if self.density_flush_interval < 1:
            raise ValueError("density_flush_interval must be >= 1, got "
                             f"{self.density_flush_interval}")
        if self.density_move_threshold_mm < 0:
            raise ValueError("density_move_threshold_mm must be >= 0, "
                             f"got {self.density_move_threshold_mm}")

    @staticmethod
    def classic(**overrides) -> "PlacerConfig":
        """The Classic baseline: same hyper-parameters, frequency off.

        Mirrors Sec. V-B: the classical engine shares every setting with
        Qplacer but has no frequency repulsive force, no resonant checks
        during legalization, no chain-aware Tetris ordering, and no
        integration-aware repair.
        """
        return replace(PlacerConfig().as_classic(), **overrides)

    def as_classic(self) -> "PlacerConfig":
        """This config with the frequency machinery switched off.

        The one rule behind :meth:`classic` and the CLI's ``--classic``
        flag: every other setting (backend, density, detailed pass,
        ...) carries over unchanged.
        """
        return replace(self, frequency_aware=False,
                       legalize_integration=False, chain_aware_tetris=False)

    def with_segment_size(self, lb_mm: float) -> "PlacerConfig":
        """Copy with a different resonator segment size (Fig. 15 sweep)."""
        return replace(self, segment_size_mm=lb_mm)

    def resolved_interaction_backend(self, num_instances: int) -> str:
        """Concrete backend ("dense"/"sparse") for a problem size."""
        from .interactions import resolve_backend
        return resolve_backend(self.interaction_backend, num_instances,
                               self.sparse_min_instances)

    def resolved_detailed_passes(self, num_instances: int) -> int:
        """Concrete detailed-placement pass count for a problem size.

        ``None`` (auto) follows the interaction backend: condor-class
        (sparse-resolved) problems get one pass — affordable since the
        vectorized swap engine — while the dense paper tiers skip
        refinement and keep their bit-identical legalized layouts.
        """
        if self.detailed_passes is not None:
            return self.detailed_passes
        return 1 if self.resolved_interaction_backend(num_instances) \
            == "sparse" else 0

    def resolved_incremental_density(self, num_instances: int) -> bool:
        """Whether the density field updates incrementally at this size.

        ``"auto"`` couples the decision to the interaction backend: the
        six paper topologies resolve dense and keep the bit-exact dense
        recompute, while condor-class problems go incremental.
        """
        if self.incremental_density == "on":
            return True
        if self.incremental_density == "off":
            return False
        return self.resolved_interaction_backend(num_instances) == "sparse"

    def qubit_site_pitch_mm(self, qubit_size_mm: float = constants.QUBIT_SIZE_MM) -> float:
        """Legalization lattice pitch for qubits."""
        return qubit_size_mm + self.qubit_clearance_mm

    def segment_site_pitch_mm(self) -> float:
        """Legalization lattice pitch for resonator segments."""
        return self.segment_size_mm + self.segment_clearance_mm
