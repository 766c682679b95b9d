"""Spatial interaction backend: candidate-pair generation at scale.

Every pairwise structure of the placement flow — the legalizer's
required-gap lookups, the engine's frequency-collision force, the
spatial-violation scan, and the fidelity crosstalk tables — reduces to
the same primitive: *which instance pairs can interact within a cutoff
distance?*  This module centralises that primitive behind two
interchangeable strategies:

* ``dense`` — materialise every pair (``triu`` index arrays, ``(n, n)``
  gap matrices).  O(n^2) memory/time, bit-identical to the original
  implementation, and the default for the six paper topologies.
* ``sparse`` — a uniform-grid neighbor list: instances are bucketed
  into cells of the cutoff size and only pairs in adjacent cells are
  candidates.  O(n x local density) memory/time, which is what makes
  condor-1121-class topologies tractable.

``auto`` (the default everywhere) selects ``sparse`` once the instance
count crosses :data:`DEFAULT_SPARSE_MIN_INSTANCES`; the six paper
topologies stay below it, so their results remain bit-identical to the
dense-only implementation.  Config override via
:attr:`~repro.core.config.PlacerConfig.interaction_backend` and CLI
``--interaction-backend``.

Sparse candidate generation is fully vectorized: cell keys are sorted
once, and for each of the five half-neighborhood offsets the matching
key ranges are found with ``searchsorted`` and expanded with one global
``arange`` — no per-bucket Python loop.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

#: Recognised backend names (``auto`` resolves by problem size).
BACKEND_AUTO = "auto"
BACKEND_DENSE = "dense"
BACKEND_SPARSE = "sparse"
BACKENDS: Tuple[str, ...] = (BACKEND_AUTO, BACKEND_DENSE, BACKEND_SPARSE)

#: ``auto`` switches to the sparse strategy above this instance count.
#: Chosen so every Table I topology (largest: eagle-127 at 1814
#: instances) resolves dense — their results stay bit-identical — while
#: condor-class problems (>6000 instances) go sparse.
DEFAULT_SPARSE_MIN_INSTANCES = 2048

#: Bound on cached required-gap rows in sparse mode (rows are O(n) each
#: and cheap to recompute; the cache only smooths repeated probing of
#: one instance during spiral search and integration repair).
_ROW_CACHE_MAX = 256


def resolve_backend(backend: str, num_instances: int,
                    sparse_min_instances: int = DEFAULT_SPARSE_MIN_INSTANCES
                    ) -> str:
    """Resolve ``auto`` to a concrete strategy for a problem size.

    Raises:
        ValueError: for unknown backend names.
    """
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown interaction backend {backend!r}; known: {BACKENDS}")
    if backend != BACKEND_AUTO:
        return backend
    return (BACKEND_SPARSE if num_instances > sparse_min_instances
            else BACKEND_DENSE)


# ---------------------------------------------------------------------------
# candidate-pair generation
# ---------------------------------------------------------------------------

def dense_candidate_pairs(n: int) -> Tuple[np.ndarray, np.ndarray]:
    """All ``i < j`` index pairs, in ``triu`` (lexicographic) order."""
    return np.triu_indices(n, 1)


def sort_pairs(a: np.ndarray, b: np.ndarray,
               n: int) -> Tuple[np.ndarray, np.ndarray]:
    """Sort ``i < j`` pairs lexicographically via one scalar-key sort.

    Each pair is encoded as ``i * n + j`` so a single 1-D ``np.sort``
    replaces the far costlier row-wise ``np.unique(axis=0)``; callers
    filter candidate sets down *before* sorting, which is what keeps
    neighbor-list rebuilds cheap on clustered early-iteration layouts.
    """
    if a.size == 0:
        return a, b
    key = np.sort(a.astype(np.int64) * np.int64(n) + b)
    return key // n, key % n


#: Half-neighborhood offsets of the 2-D uniform grid: each unordered
#: cell pair is visited exactly once.
_PLANE_OFFSETS: Tuple[Tuple[int, int], ...] = (
    (0, 0), (0, 1), (1, -1), (1, 0), (1, 1))

#: Cross-band offsets: cells one *frequency band* up pair against the
#: full 3x3 spatial neighborhood (visited only from the lower band, so
#: again each unordered cell pair appears exactly once).
_BAND_OFFSETS: Tuple[Tuple[int, int], ...] = (
    (-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 0), (0, 1),
    (1, -1), (1, 0), (1, 1))


def frequency_bands(frequencies: np.ndarray, threshold: float) -> np.ndarray:
    """Integer band labels such that resonant pairs differ by <= 1 band.

    Raw bands are ``floor(f / w)`` with a band width ``w`` slightly
    above the detuning threshold — the same guard-band trick as the grid
    cell size, so a pair at exactly the threshold detuning can never end
    up two raw bands apart through float rounding.

    Labels are then made gap-aware: walking the occupied raw bands in
    order, the next band's label is one higher only if it is raw-adjacent
    *and* its lowest frequency lies within ``w`` of the previous band's
    highest; otherwise it is two higher.  No cross-band pair can be
    resonant across such a step, so banded candidate generation (which
    pairs each band with the one labelled directly above it) skips
    them.  On discrete frequency plans whose levels sit further apart
    than the threshold every level becomes isolated; where every
    occupied band touches the next (continuous, e.g. disordered,
    frequencies) every step is 1 and the labels equal the raw bands.
    Labels are strictly monotone in the raw band.
    """
    width = max(float(threshold), 0.0) * (1.0 + 1e-9) + 1e-12
    freqs = np.asarray(frequencies, dtype=float)
    raw = np.floor(freqs / width).astype(np.int64)
    if raw.size == 0:
        return raw
    # floor(f / w) is monotone in f, so one sort orders the raw bands and
    # puts each band's min and max at the ends of its run.
    order = np.argsort(freqs, kind="stable")
    f, r = freqs[order], raw[order]
    start = np.flatnonzero(np.diff(r)) + 1
    close = ((r[start] - r[start - 1] == 1)
             & (f[start] - f[start - 1] <= width))
    step = np.zeros(raw.size, dtype=np.int64)
    step[start] = np.where(close, 1, 2)
    labels = np.empty_like(raw)
    labels[order] = r[0] + np.cumsum(step)
    return labels


def grid_candidate_pairs(positions: np.ndarray, cutoff: float,
                         sort: bool = True,
                         bands: Optional[np.ndarray] = None
                         ) -> Tuple[np.ndarray, np.ndarray]:
    """Candidate ``i < j`` pairs from a uniform grid.

    Guarantee: the result is a superset of every pair whose per-axis
    (Chebyshev) centre distance is at most ``cutoff``; pairs further
    than ``2 * cutoff`` on either axis are never produced.  With
    ``sort=True`` the ordering matches :func:`dense_candidate_pairs`
    (sorted by ``(i, j)``) so downstream filters yield identical result
    sequences under either strategy; callers that filter heavily first
    pass ``sort=False`` and apply :func:`sort_pairs` to the survivors.

    With ``bands`` (integer labels, e.g. :func:`frequency_bands`) the
    grid gains a third dimension: only pairs in the *same or adjacent*
    band are produced.  Callers whose exact acceptance test implies a
    band difference of at most one (resonance under the banding
    threshold) get a candidate set smaller by roughly the occupied band
    count — the spatial guarantee then holds per band neighborhood.

    Args:
        positions: ``(n, 2)`` instance centres.
        cutoff: Interaction reach (mm); also the grid cell size.
        sort: Lex-sort the pairs before returning.
        bands: Optional ``(n,)`` integer band labels.
    """
    n = positions.shape[0]
    empty = (np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))
    if n < 2:
        return empty
    if cutoff <= 0:
        raise ValueError("cutoff must be positive")
    # A hair of slack so a pair at exactly the cutoff distance can never
    # straddle two cell boundaries (float rounding in the division).
    cell = cutoff * (1.0 + 1e-12) + 1e-9
    cx = np.floor(positions[:, 0] / cell).astype(np.int64)
    cy = np.floor(positions[:, 1] / cell).astype(np.int64)
    cx -= cx.min()
    cy -= cy.min()
    width = int(cy.max()) + 2
    key = cx * width + cy
    offsets: Sequence[Tuple[int, int]] = _PLANE_OFFSETS
    if bands is not None:
        bands = np.asarray(bands, dtype=np.int64)
        depth = int(cx.max()) + 2
        plane = depth * width
        key = (bands - bands.min()) * plane + key
        # Same band: half neighborhood; band above: full 3x3 (a pair in
        # adjacent bands is seen only from its lower band).
        offsets = tuple((0, dx * width + dy) for dx, dy in _PLANE_OFFSETS) \
            + tuple((1, dx * width + dy) for dx, dy in _BAND_OFFSETS)
        offsets = tuple(db * plane + d for db, d in offsets)
    else:
        offsets = tuple(dx * width + dy for dx, dy in _PLANE_OFFSETS)
    order = np.argsort(key, kind="stable")
    skey = key[order]

    parts_a: List[np.ndarray] = []
    parts_b: List[np.ndarray] = []
    positions_in_sorted = np.arange(n)
    for delta in offsets:
        target = skey + delta
        if delta == 0:
            lo = positions_in_sorted + 1
            hi = np.searchsorted(skey, target, side="right")
        else:
            lo = np.searchsorted(skey, target, side="left")
            hi = np.searchsorted(skey, target, side="right")
        counts = np.maximum(hi - lo, 0)
        total = int(counts.sum())
        if total == 0:
            continue
        src = np.repeat(positions_in_sorted, counts)
        starts = np.cumsum(counts) - counts
        dst = lo[src] + (np.arange(total) - starts[src])
        parts_a.append(order[src])
        parts_b.append(order[dst])
    if not parts_a:
        return empty
    a = np.concatenate(parts_a)
    b = np.concatenate(parts_b)
    a, b = np.minimum(a, b), np.maximum(a, b)
    return sort_pairs(a, b, n) if sort else (a, b)


# ---------------------------------------------------------------------------
# required-gap lookups (legalizer)
# ---------------------------------------------------------------------------

class RequiredGapTable:
    """Pairwise required edge-to-edge gaps with pluggable storage.

    ``strict`` rows apply the resonant checker tau (padding sum for
    resonant non-intended pairs); ``relaxed`` rows use the plain
    clearance rule.  Intended pairs (sibling segments; a qubit and the
    segments of an attached resonator) require no gap in either.

    The ``dense`` strategy materialises both ``(n, n)`` matrices exactly
    as the original legalizer did — lookups are bit-identical views into
    them.  The ``sparse`` strategy computes rows on demand (O(n) each,
    elementwise-identical to the dense rows) behind a small bounded
    cache, so condor-class problems never allocate n x n floats.
    """

    def __init__(self, resonator_index: np.ndarray, frequencies: np.ndarray,
                 clearances: np.ndarray, paddings: np.ndarray,
                 attached_resonators: Mapping[int, Set[int]],
                 detuning_threshold_ghz: float,
                 backend: str = BACKEND_DENSE) -> None:
        if backend not in (BACKEND_DENSE, BACKEND_SPARSE):
            raise ValueError("RequiredGapTable needs a resolved backend")
        self.backend = backend
        self._res = np.asarray(resonator_index, dtype=np.int64)
        self._freqs = np.asarray(frequencies, dtype=float)
        self._clear = np.asarray(clearances, dtype=float)
        self._pads = np.asarray(paddings, dtype=float)
        self._threshold = float(detuning_threshold_ghz)
        self._attached: Dict[int, np.ndarray] = {
            qi: np.fromiter(rset, dtype=np.int64)
            for qi, rset in attached_resonators.items() if rset
        }
        # Inverse map: resonator id -> instance indices of the (at most
        # two) qubits it may legally abut — the attach.T row support.
        qubits_of: Dict[int, List[int]] = {}
        for qi, rset in attached_resonators.items():
            for r in rset:
                qubits_of.setdefault(int(r), []).append(qi)
        self._qubits_of_resonator = {
            r: np.asarray(sorted(qs), dtype=np.int64)
            for r, qs in qubits_of.items()
        }
        # Per-call lookups for :meth:`pairs`, as plain tuples.
        self._half_clear = 0.5 * self._clear
        self._attached_ids = {qi: tuple(r.tolist())
                              for qi, r in self._attached.items()}
        self._qubit_ids_of_resonator = {
            r: tuple(qs.tolist())
            for r, qs in self._qubits_of_resonator.items()}
        self._rows: Dict[Tuple[int, bool], np.ndarray] = {}
        self._strict_matrix: Optional[np.ndarray] = None
        self._relaxed_matrix: Optional[np.ndarray] = None
        if backend == BACKEND_DENSE:
            self._strict_matrix, self._relaxed_matrix = self._build_dense()

    @property
    def num_instances(self) -> int:
        """Number of instances covered by the table."""
        return self._res.shape[0]

    def _build_dense(self) -> Tuple[np.ndarray, np.ndarray]:
        """Dense ``(n, n)`` matrices (the original legalizer layout)."""
        n = self.num_instances
        res = self._res
        same_res = (res[:, None] == res[None, :]) & (res[:, None] >= 0)
        attach = np.zeros((n, n), dtype=bool)
        for qi, rids in self._attached.items():
            attach[qi] = np.isin(res, rids)
        intended = same_res | attach | attach.T
        freqs = self._freqs
        resonant = (np.abs(freqs[:, None] - freqs[None, :])
                    <= self._threshold)
        clear_req = 0.5 * (self._clear[:, None] + self._clear[None, :])
        pad_req = self._pads[:, None] + self._pads[None, :]
        strict = np.where(intended, 0.0,
                          np.where(resonant, pad_req, clear_req))
        relaxed = np.where(intended, 0.0, clear_req)
        return strict, relaxed

    def _compute_row(self, i: int, strict: bool) -> np.ndarray:
        """One required-gap row, elementwise-identical to the dense row."""
        res = self._res
        ri = int(res[i])
        intended = (res == ri) if ri >= 0 \
            else np.zeros(self.num_instances, dtype=bool)
        rids = self._attached.get(i)
        if rids is not None:
            intended = intended | np.isin(res, rids)
        if ri >= 0:
            partners = self._qubits_of_resonator.get(ri)
            if partners is not None:
                intended[partners] = True
        clear_req = 0.5 * (self._clear[i] + self._clear)
        if not strict:
            return np.where(intended, 0.0, clear_req)
        resonant = np.abs(self._freqs[i] - self._freqs) <= self._threshold
        pad_req = self._pads[i] + self._pads
        return np.where(intended, 0.0,
                        np.where(resonant, pad_req, clear_req))

    def row(self, i: int, strict: bool) -> np.ndarray:
        """Required gaps from instance ``i`` to every instance."""
        if self._strict_matrix is not None:
            return (self._strict_matrix if strict
                    else self._relaxed_matrix)[i]
        key = (int(i), bool(strict))
        row = self._rows.get(key)
        if row is None:
            row = self._compute_row(int(i), bool(strict))
            if len(self._rows) >= _ROW_CACHE_MAX:
                self._rows.pop(next(iter(self._rows)))
            self._rows[key] = row
        return row

    def lookup(self, i: int, js: np.ndarray, strict: bool) -> np.ndarray:
        """Required gaps from instance ``i`` to the instances ``js``."""
        return self.row(i, strict)[js]

    def pairs(self, i: int, js: np.ndarray, strict: bool) -> np.ndarray:
        """Required gaps from ``i`` to ``js`` in O(len(js)).

        Elementwise identical to ``row(i, strict)[js]`` but never
        materialises the full row — the sparse backend's answer to
        hash-screened neighbourhoods, where ``js`` holds a handful of
        nearby instances out of thousands.
        """
        if self._strict_matrix is not None:
            return (self._strict_matrix if strict
                    else self._relaxed_matrix)[i, js]
        js = np.asarray(js, dtype=np.int64)
        res = self._res
        ri = int(res[i])
        res_js = res[js]
        intended = ((res_js == ri) if ri >= 0
                    else np.zeros(js.shape[0], dtype=bool))
        # Membership sets here hold 1-4 ids; direct comparisons beat
        # np.isin's sort-based machinery by ~40x at this size.
        for r in self._attached_ids.get(i, ()):
            intended |= res_js == r
        if ri >= 0:
            for q in self._qubit_ids_of_resonator.get(ri, ()):
                intended |= js == q
        # 0.5 * c_i + 0.5 * c_j equals 0.5 * (c_i + c_j) exactly: halving
        # is exact, so both round the same real number.
        req = self._half_clear[js]
        req += self._half_clear[i]
        if strict:
            pad_req = self._pads[js]
            pad_req += self._pads[i]
            np.copyto(req, pad_req, where=np.abs(self._freqs[js]
                                                 - self._freqs[i])
                      <= self._threshold)
        req[intended] = 0.0
        return req


# ---------------------------------------------------------------------------
# distance-pruned frequency collision pairs (engine)
# ---------------------------------------------------------------------------

class PrunedCollisionPairs:
    """Neighbor-list view of the frequency collision map.

    The dense engine precomputes *every* resonant pair once; on
    condor-class problems that set is O(n^2 / levels) and evaluating the
    repulsive force over it each iteration dominates the run.  This
    provider keeps only resonant pairs currently within
    ``cutoff + skin`` of each other, rebuilding the list (Verlet-style)
    whenever some instance has drifted more than ``skin / 2`` since the
    last build — between rebuilds the list provably still contains every
    pair within ``cutoff``.

    The truncated potential differs from the dense sum (far pairs
    contribute ``< 1/cutoff`` each), which is why this provider is only
    engaged by the sparse backend; with a cutoff covering the whole
    region the produced pair array is bit-identical (same contents, same
    lex order) to the precomputed dense collision map.

    With ``band_pairs`` (default) candidate generation adds a frequency
    dimension to the grid (:func:`frequency_bands`): instances whose
    band labels differ by more than one can never be resonant, so their
    spatial pairs are never materialised.  Profiling condor-sm-433
    placement showed the rebuild filter — millions of spatially-near
    but non-resonant candidates — at >90% of the run; banding removes
    them at the source while the exact resonance filter keeps the final
    pair array bit-identical.
    """

    def __init__(self, frequencies: np.ndarray, resonator_index: np.ndarray,
                 detuning_threshold_ghz: float,
                 cutoff_mm: float, skin_mm: Optional[float] = None,
                 band_pairs: bool = True) -> None:
        if cutoff_mm <= 0:
            raise ValueError("cutoff must be positive")
        self._freqs = np.asarray(frequencies, dtype=float)
        self._res = np.asarray(resonator_index, dtype=np.int64)
        self._threshold = float(detuning_threshold_ghz)
        self.cutoff_mm = float(cutoff_mm)
        self.skin_mm = float(skin_mm) if skin_mm is not None \
            else 0.5 * float(cutoff_mm)
        self._bands = (frequency_bands(self._freqs, self._threshold)
                       if band_pairs else None)
        self._pairs: Optional[np.ndarray] = None
        self._pair_index: Optional[np.ndarray] = None
        self._ref_positions: Optional[np.ndarray] = None
        self.rebuilds = 0
        self.reuses = 0
        self.peak_pairs = 0
        self.peak_candidates = 0

    def _needs_rebuild(self, positions: np.ndarray) -> bool:
        if self._pairs is None or self._ref_positions is None:
            return True
        # Euclidean per-instance drift: two instances approaching each
        # other diagonally close the gap by at most twice this, so the
        # skin/2 bound keeps every in-cutoff pair inside the list.
        delta = positions - self._ref_positions
        drift2 = float((delta * delta).sum(axis=1).max())
        return drift2 > (0.5 * self.skin_mm) ** 2

    def _rebuild(self, positions: np.ndarray) -> None:
        reach = self.cutoff_mm + self.skin_mm
        a, b = grid_candidate_pairs(positions, reach, sort=False,
                                    bands=self._bands)
        self.peak_candidates = max(self.peak_candidates, int(a.size))
        if a.size:
            # Per-column gathers: bit-equal to summing a gathered (m, 2)
            # delta over its two columns, without the row gather.
            x, y = positions[:, 0], positions[:, 1]
            dx = x[a] - x[b]
            dy = y[a] - y[b]
            within = dx * dx + dy * dy <= reach * reach
            resonant = (np.abs(self._freqs[a] - self._freqs[b])
                        <= self._threshold)
            ra, rb = self._res[a], self._res[b]
            sibling = (ra >= 0) & (ra == rb)
            keep = within & resonant & ~sibling
            a, b = sort_pairs(a[keep], b[keep], positions.shape[0])
        self._pairs = np.stack([a, b], axis=1).astype(np.int64)
        self._pair_index = (np.concatenate([a, b]) if a.size else None)
        self._ref_positions = positions.copy()
        self.rebuilds += 1
        self.peak_pairs = max(self.peak_pairs, int(a.size))

    def pairs(self, positions: np.ndarray
              ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """Current active pair array and its scatter index."""
        if self._needs_rebuild(positions):
            self._rebuild(positions)
        else:
            self.reuses += 1
        assert self._pairs is not None
        return self._pairs, self._pair_index
