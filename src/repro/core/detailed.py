"""Detailed placement: legality-preserving wirelength refinement.

Classical placement flows follow legalization with a *detailed placement*
stage that locally improves wirelength without breaking legality.  This
module implements same-kind swaps for the quantum layout problem:
exchange the sites of two equal-footprint instances when that shortens
the chain wirelength — the quantum twist is that a swap must also
preserve the resonant-spacing rule (swapping two instances of
*different* frequencies can create a hotspot) and resonator contiguity,
so every accepted move goes through the legalizer's transactional
:meth:`~repro.core.legalizer.Legalizer.try_moves` feasibility gate.

A swap only exchanges two same-kind instances, so the set of occupied
sites never changes during a refinement.  :class:`_SwapTable` therefore
builds, once per :meth:`DetailedPlacer.refine`, a CSR graph over those
sites — row ``s`` lists the same-kind sites inside an exact Chebyshev
window of site ``s`` — and scores the swap gain of every entry in one
vectorized pass (:meth:`DetailedPlacer._fill`).  A visit is one
``argmax`` over its row; after a committed swap only the rows of the
sites whose instance or net partners moved (plus their mirror entries)
are rescored.  The scalar seed implementation is preserved in
:mod:`repro.core.detailed_reference` and the perf bench gates this
engine against it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
from scipy.spatial import cKDTree

from .. import profiling
from .config import PlacerConfig
from .legalizer import Legalizer
from .preprocess import PlacementProblem
from .wirelength import hpwl

#: Entries scored per vectorized batch when filling a whole table (keeps
#: the ``(entries, partners)`` temporaries cache-sized).
_FILL_CHUNK = 1 << 14


@dataclass
class DetailedPlaceStats:
    """Telemetry of one detailed-placement run.

    Attributes:
        swaps_applied: Accepted pairwise swaps.
        slides_applied: Accepted single-instance slides.
        passes: Refinement sweeps executed.
        hpwl_before: Chain wirelength entering refinement.
        hpwl_after: Chain wirelength after refinement.
        candidates_scored: Swap candidates compared by the visits (the
            row lengths of the visited sites).
    """

    swaps_applied: int = 0
    slides_applied: int = 0
    passes: int = 0
    hpwl_before: float = 0.0
    hpwl_after: float = 0.0
    candidates_scored: int = 0

    @property
    def improvement(self) -> float:
        """Relative wirelength reduction (0.05 = 5% shorter)."""
        if self.hpwl_before <= 0:
            return 0.0
        return 1.0 - self.hpwl_after / self.hpwl_before


def window_graph(sites: np.ndarray, kind_id: np.ndarray, radius: float
                 ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Same-kind sites within a Chebyshev window, as a symmetric CSR graph.

    Returns ``(indptr, cols, mirror)``: row ``s`` is
    ``cols[indptr[s]:indptr[s + 1]]`` (ascending), holding every site
    ``t != s`` of the same kind with ``|dx| <= radius`` and
    ``|dy| <= radius``; ``mirror[e]`` is the index of entry ``e``'s
    reverse ``(t, s)``.  ``cols`` and ``mirror`` are int32.
    """
    n = sites.shape[0]
    # Pair keys ``a * n + b`` (a < b) and entry positions stay int32
    # whenever they fit, which halves the build's peak memory.
    key_type = np.int32 if n * n < 2 ** 31 else np.int64
    chunks = [np.zeros(0, dtype=key_type)]
    for kind in np.unique(kind_id):
        ids = np.flatnonzero(kind_id == kind)
        if ids.size < 2:
            continue
        x, y = sites[ids, 0], sites[ids, 1]
        # The tree screens with a hair of slack; the exact window is
        # applied below with the same comparisons a brute force makes.
        pairs = cKDTree(sites[ids]).query_pairs(
            radius * (1.0 + 1e-9) + 1e-12, p=np.inf, output_type="ndarray")
        a, b = pairs[:, 0], pairs[:, 1]
        keep = np.abs(x[a] - x[b]) <= radius
        keep &= np.abs(y[a] - y[b]) <= radius
        a, b = ids[a[keep]], ids[b[keep]]
        del pairs, keep
        chunks.append((a * n + b).astype(key_type))
    keys = np.concatenate(chunks)
    del chunks
    keys.sort()
    a, b = np.divmod(keys, key_type(n))
    del keys
    # Row u lists its smaller neighbours (pairs (a, u), ordered by a)
    # before its larger ones (pairs (u, b), ordered by b).
    back = np.bincount(b, minlength=n)
    ahead = np.bincount(a, minlength=n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(back + ahead, out=indptr[1:])
    pos_type = np.int32 if indptr[-1] < 2 ** 31 else np.int64
    rank = np.arange(a.size, dtype=pos_type)
    # Pair k's forward entry: after row a_k's smaller neighbours, at its
    # rank among the pairs that start at a_k.
    ahead_at = (indptr[:-1] + back - (np.cumsum(ahead) - ahead))[a]
    ahead_at = ahead_at.astype(pos_type) + rank
    cols = np.empty(2 * a.size, dtype=np.int32)
    cols[ahead_at] = b
    # Backward entries, taken in (b, a) order, fill each row's front.
    by_b = np.argsort(b * key_type(n) + a).astype(pos_type)
    back_at = (indptr[:-1] - (np.cumsum(back) - back))[b[by_b]]
    back_at = back_at.astype(pos_type) + rank
    cols[back_at] = a[by_b]
    del a, b, rank
    forward = ahead_at[by_b]
    mirror = np.empty(2 * forward.size, dtype=np.int32)
    mirror[forward] = back_at
    mirror[back_at] = forward
    return indptr, cols, mirror


class _SwapTable:
    """Swap gains over the static site graph of one refinement.

    Attributes:
        x, y: Site coordinates (the layout at load time).
        px, py: Current coordinates of each instance
            (``x[site_of]``, ``y[site_of]``).
        inst_at: Instance occupying each site.
        site_of: Site of each instance (inverse of ``inst_at``).
        indptr, cols, mirror: The :func:`window_graph` of the sites.
        cost: Net wirelength of each entry's row instance once it has
            swapped to the entry's column site.
        gains: Wirelength gain of swapping the instances at each
            entry's two sites (symmetric: ``gains[mirror] == gains``).
    """

    def __init__(self, sites: np.ndarray, kind_id: np.ndarray,
                 radius: float) -> None:
        n = sites.shape[0]
        self.x = sites[:, 0].copy()
        self.y = sites[:, 1].copy()
        self.px = self.x.copy()
        self.py = self.y.copy()
        self.inst_at = np.arange(n)
        self.site_of = np.arange(n)
        self.indptr, self.cols, self.mirror = window_graph(
            sites, kind_id, radius)
        self.cost = np.zeros(self.cols.size)
        self.gains = np.zeros(self.cols.size)

    def rows_entries(self, rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Entry indices of ``rows`` and the row site of each entry."""
        starts = self.indptr[rows]
        counts = self.indptr[rows + 1] - starts
        offsets = np.cumsum(counts) - counts
        entries = (np.repeat(starts - offsets, counts)
                   + np.arange(int(counts.sum())))
        return entries, np.repeat(rows, counts)


class DetailedPlacer:
    """Greedy legality-preserving refinement over a legalized layout."""

    def __init__(self, problem: PlacementProblem,
                 config: Optional[PlacerConfig] = None) -> None:
        self.problem = problem
        self.config = config if config is not None else problem.config
        n = problem.num_instances
        nets = np.asarray(problem.nets, dtype=np.int64).reshape(-1, 2)
        owners = np.concatenate([nets[:, 0], nets[:, 1]])
        others = np.concatenate([nets[:, 1], nets[:, 0]])
        net_ids = np.tile(np.arange(nets.shape[0]), 2)
        order = np.lexsort((net_ids, owners))
        owners, others = owners[order], others[order]
        # Net partners as one padded row per instance: row i lists the
        # other pin of each 2-pin net of i in net order, then pads with
        # i itself at weight 0, so wirelength sums over a batch of
        # instances are plain (batch x width) array arithmetic.
        self._degree = np.bincount(owners, minlength=n)
        width = int(self._degree.max()) if owners.size else 0
        slot = (np.arange(owners.size)
                - np.repeat(np.cumsum(self._degree) - self._degree,
                            self._degree))
        self._partners = np.repeat(np.arange(n)[:, None], width, axis=1)
        self._partners[owners, slot] = others
        self._weights = np.zeros((n, width))
        self._weights[owners, slot] = 1.0
        # Same-kind groups: instances are swappable when both are qubits
        # or both segments with equal footprints.
        kind_keys = np.column_stack([
            problem.is_qubit.astype(np.int64),
            problem.sizes[:, 0], problem.sizes[:, 1]])
        _, self._kind_id = np.unique(kind_keys, axis=0, return_inverse=True)

    # -- wirelength deltas -------------------------------------------------------

    def _partners_of(self, inst: int) -> np.ndarray:
        """Net partners of one instance (one entry per net)."""
        return self._partners[inst, :self._degree[inst]]

    def _instance_wl(self, positions: np.ndarray, inst: int) -> float:
        """Wirelength of all nets touching one instance."""
        partners = self._partners_of(inst)
        return float(np.abs(positions[inst] - positions[partners]).sum())

    def _wl_of(self, xs: np.ndarray, ys: np.ndarray,
               insts: np.ndarray) -> np.ndarray:
        """Net wirelength of each instance in ``insts``.

        ``xs``/``ys`` are the instance coordinates by axis.
        """
        return self._moved_wl(xs, ys, insts, xs[insts], ys[insts])

    def _instance_wl_all(self, positions: np.ndarray) -> np.ndarray:
        """Per-instance net wirelengths, one vectorized pass."""
        return self._wl_of(positions[:, 0], positions[:, 1],
                           np.arange(self.problem.num_instances))

    def _swap_gain(self, positions: np.ndarray, i: int, j: int) -> float:
        """Wirelength gain of swapping the sites of ``i`` and ``j``.

        The scalar oracle: evaluates the same quantity as the nets of
        ``i`` and ``j`` before minus after the swap, without
        materialising a swapped copy of the position array.  The batched
        swap table (:meth:`_costs`, :meth:`_score`) is property-tested
        against it.
        """
        pi, pj = positions[i], positions[j]
        gain = 0.0
        for inst, other, new_pos in ((i, j, pj), (j, i, pi)):
            partners = self._partners_of(inst)
            pp = positions[partners]
            before = np.abs(positions[inst] - pp).sum()
            # After the swap the partner that *is* the swap peer has
            # moved to this instance's old site.
            pp = pp.copy()
            pp[partners == other] = positions[inst]
            after = np.abs(new_pos - pp).sum()
            gain += float(before - after)
        return gain

    def _moved_wl(self, xs: np.ndarray, ys: np.ndarray, movers: np.ndarray,
                  to_x: np.ndarray, to_y: np.ndarray,
                  peers: Optional[np.ndarray] = None,
                  reach: Optional[np.ndarray] = None) -> np.ndarray:
        """Net wirelength of each mover placed at ``(to_x[k], to_y[k])``.

        With ``peers`` given, mover ``k`` has swapped with ``peers[k]``:
        the target is the peer's old site and a net to the peer itself
        spans the swap distance ``reach[k]``.
        """
        partners = self._partners[movers]
        span = np.abs(to_x[:, None] - xs[partners])
        span += np.abs(to_y[:, None] - ys[partners])
        if peers is not None:
            np.copyto(span, reach[:, None], where=partners == peers[:, None])
        return np.einsum("ij,ij->i", span, self._weights[movers])

    def _costs(self, table: _SwapTable, entries: np.ndarray,
               rows: np.ndarray) -> np.ndarray:
        """:attr:`_SwapTable.cost` of ``entries`` (row sites ``rows``)."""
        cols = table.cols[entries]
        to_x, to_y = table.x[cols], table.y[cols]
        reach = np.abs(table.x[rows] - to_x) + np.abs(table.y[rows] - to_y)
        return self._moved_wl(table.px, table.py, table.inst_at[rows],
                              to_x, to_y, table.inst_at[cols], reach)

    @staticmethod
    def _score(table: _SwapTable, wl: np.ndarray, entries: np.ndarray,
               rows: np.ndarray) -> None:
        """Gains of ``entries`` from the stored costs, both directions.

        A gain is the two instances' wirelength now minus after the
        swap; an entry and its mirror add the same two terms, so they
        hold bit-identical gains.
        """
        mirror = table.mirror[entries]
        stay = wl[table.inst_at[rows]] - table.cost[entries]
        back = wl[table.inst_at[table.cols[entries]]] - table.cost[mirror]
        gains = stay + back
        table.gains[entries] = gains
        table.gains[mirror] = gains

    def _fill(self, table: _SwapTable, wl: np.ndarray) -> None:
        """Score a fresh table: every cost, then every pair once."""
        n = table.indptr.size - 1
        step = max(1, _FILL_CHUNK * n // max(table.cols.size, 1))
        blocks = [np.arange(lo, min(lo + step, n)) for lo in range(0, n, step)]
        for block in blocks:
            entries, rows = table.rows_entries(block)
            table.cost[entries] = self._costs(table, entries, rows)
        for block in blocks:
            entries, rows = table.rows_entries(block)
            once = rows < table.cols[entries]
            self._score(table, wl, entries[once], rows[once])

    def _rescore(self, table: _SwapTable, wl: np.ndarray,
                 sites: np.ndarray) -> None:
        """Refresh the rows of ``sites`` and their mirror entries.

        A cost depends only on its row's instance, that instance's net
        partners and the column site's occupant, so after a swap only
        the rows of the sites whose instance or net partners moved hold
        stale costs; their gains, and those of the mirror entries, are
        recombined from the refreshed costs.
        """
        entries, rows = table.rows_entries(sites)
        table.cost[entries] = self._costs(table, entries, rows)
        self._score(table, wl, entries, rows)

    # -- main loop ----------------------------------------------------------------

    def refine(self, positions: np.ndarray,
               max_passes: int = 3,
               neighbor_radius_mm: float = 2.5,
               only: Optional[np.ndarray] = None
               ) -> Tuple[np.ndarray, DetailedPlaceStats]:
        """Refine a legal placement; returns (positions, stats).

        Args:
            positions: Legalized instance centres.
            max_passes: Sweeps over all instances.
            neighbor_radius_mm: Swap window: an instance may swap with
                any same-kind instance whose site lies within this
                distance on both axes (exact Chebyshev window).
            only: Optional instance indices to restrict the sweep to.
                Swap *partners* still come from the full site graph;
                only the set of instances visited shrinks.  Incremental
                flows (ensemble repair) pass the instances the
                legalizer actually disturbed.
        """
        with profiling.phase("detailed"):
            return self._refine(positions, max_passes, neighbor_radius_mm,
                                only)

    def _refine(self, positions: np.ndarray, max_passes: int,
                neighbor_radius_mm: float,
                only: Optional[np.ndarray] = None
                ) -> Tuple[np.ndarray, DetailedPlaceStats]:
        p = self.problem
        legalizer = Legalizer(p, self.config)
        legalizer.load(positions)
        stats = DetailedPlaceStats(hpwl_before=hpwl(positions, p.nets))
        visit = None
        if only is not None:
            visit = np.zeros(p.num_instances, dtype=bool)
            visit[np.asarray(only, dtype=np.int64)] = True
        if max_passes > 0:
            table = _SwapTable(legalizer.positions, self._kind_id,
                               neighbor_radius_mm)
            wl = self._instance_wl_all(legalizer.positions)
            self._fill(table, wl)
            for _ in range(max_passes):
                stats.passes += 1
                if not self._sweep(table, legalizer, wl, visit, stats):
                    break
        stats.hpwl_after = hpwl(legalizer.positions, p.nets)
        return legalizer.positions.copy(), stats

    def _sweep(self, table: _SwapTable, legalizer: Legalizer,
               wl: np.ndarray, visit: Optional[np.ndarray],
               stats: DetailedPlaceStats) -> bool:
        """One pass over the instances, longest nets first.

        Each visit takes the best-gain entry of its site's row and
        commits the swap when the legalizer accepts it.  Returns whether
        any swap was applied.
        """
        indptr = table.indptr.tolist()
        xs, ys = table.x.tolist(), table.y.tolist()
        gains, cols = table.gains, table.cols
        inst_at, site_of = table.inst_at, table.site_of
        improved = False
        order = np.argsort(-wl, kind="stable")
        if visit is not None:
            order = order[visit[order]]
        for i in order.tolist():
            s = int(site_of[i])
            lo, hi = indptr[s], indptr[s + 1]
            if lo == hi:
                continue
            stats.candidates_scored += hi - lo
            e = lo + int(gains[lo:hi].argmax())
            if gains[e] <= 1e-9:
                continue
            t = int(cols[e])
            j = int(inst_at[t])
            if not legalizer.try_moves([(i, (xs[t], ys[t])),
                                        (j, (xs[s], ys[s]))]):
                continue
            legalizer.commit()
            inst_at[s], inst_at[t] = j, i
            site_of[i], site_of[j] = t, s
            table.px[i], table.py[i] = xs[t], ys[t]
            table.px[j], table.py[j] = xs[s], ys[s]
            stats.swaps_applied += 1
            improved = True
            # Rescore every entry touching an instance whose nets moved:
            # the two movers and each of their net partners.
            touched = np.array(sorted({i, j, *self._partners_of(i).tolist(),
                                       *self._partners_of(j).tolist()}))
            wl[touched] = self._wl_of(table.px, table.py, touched)
            self._rescore(table, wl, site_of[touched])
        return improved


def refine_placement(problem: PlacementProblem, positions: np.ndarray,
                     config: Optional[PlacerConfig] = None,
                     max_passes: int = 3,
                     only: Optional[np.ndarray] = None
                     ) -> Tuple[np.ndarray, DetailedPlaceStats]:
    """Convenience wrapper around :class:`DetailedPlacer`."""
    return DetailedPlacer(problem, config).refine(positions,
                                                  max_passes=max_passes,
                                                  only=only)
