//! Snapshot and time-expanded routing over ISL topologies.
//!
//! §5(1) of the paper: SS-plane constellations make coverage patterns
//! *predictable*, so routes can be precomputed per time slot. This module
//! provides shortest-propagation-delay routing on topology snapshots, a
//! time-expanded router that tracks path changes (handoffs) across slots,
//! and ground-terminal attachment. Everything position-dependent reads
//! from a [`Snapshot`] of the shared time-grid cache
//! ([`crate::snapshot::SnapshotSeries`]) — no function here propagates an
//! orbit.

use crate::error::{LsnError, Result};
use crate::snapshot::{Snapshot, SnapshotSeries};
use crate::topology::{GridTopologyConfig, SatId, Topology};
use ssplane_astro::constants::EARTH_RADIUS_KM;
use ssplane_astro::coverage::elevation_at_central_angle;
use ssplane_astro::frames::ecef_to_eci;
use ssplane_astro::geo::GeoPoint;
use ssplane_astro::time::Epoch;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Speed of light \[km/s\].
const SPEED_OF_LIGHT_KM_S: f64 = 299_792.458;

/// A route through the constellation.
#[derive(Debug, Clone, PartialEq)]
pub struct Route {
    /// Satellites traversed, in order.
    pub hops: Vec<SatId>,
    /// End-to-end propagation delay \[ms\] including up/down links.
    pub delay_ms: f64,
    /// Total path length \[km\] including up/down links.
    pub length_km: f64,
}

/// Dijkstra state, shared by every Dijkstra in the crate (the traffic
/// engine's penalized k-path rounds included).
#[derive(Debug, PartialEq)]
pub(crate) struct HeapItem {
    pub(crate) dist: f64,
    pub(crate) node: usize,
}

impl Eq for HeapItem {}

impl Ord for HeapItem {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap on distance, ties broken on node index. The tie-break
        // makes the pop order — and therefore every label and predecessor
        // choice — a *pure function of the graph*, independent of heap
        // insertion order: since link weights are strictly positive, every
        // node at a given finalized distance is already in the heap before
        // the first node at that distance pops, so finalization is exactly
        // the global sort by `(dist, node)`. That canonicality is what
        // lets the incremental tree repair ([`ShortestPathTree::repaired_paths`],
        // seeded from a damaged tree's frontier) reproduce a fresh masked
        // run's labels bit for bit.
        other
            .dist
            .partial_cmp(&self.dist)
            .unwrap_or(Ordering::Equal)
            .then(other.node.cmp(&self.node))
    }
}

impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Runs Dijkstra from `src`, optionally stopping once `stop_at` is
/// finalized, optionally restricting traversal to nodes flagged in
/// `alive` (a `None` mask is the full graph; `src` must be alive).
/// Because link weights are strictly positive and relaxations use strict
/// `<`, the distance and predecessor entries of every node on a
/// finalized node's shortest path are themselves final — so an
/// early-exit run and a full run reconstruct identical paths. With the
/// alive filter, the run is relaxation-for-relaxation identical to the
/// unfiltered run on [`Topology::masked`] of the same mask: a node's
/// masked neighbor list is the exact alive subsequence of its intact
/// one.
fn dijkstra(
    topology: &Topology,
    src: usize,
    stop_at: Option<usize>,
    alive: Option<&[bool]>,
) -> (Vec<f64>, Vec<usize>) {
    let n = topology.n_nodes();
    let mut dist = vec![f64::INFINITY; n];
    let mut prev = vec![usize::MAX; n];
    let mut heap = BinaryHeap::new();
    dist[src] = 0.0;
    heap.push(HeapItem { dist: 0.0, node: src });
    while let Some(HeapItem { dist: d, node }) = heap.pop() {
        if Some(node) == stop_at {
            break;
        }
        if d > dist[node] {
            continue;
        }
        for &(v, w) in topology.neighbors(node) {
            if let Some(mask) = alive {
                if !mask[v] {
                    continue;
                }
            }
            let nd = d + w;
            if nd < dist[v] {
                dist[v] = nd;
                prev[v] = node;
                heap.push(HeapItem { dist: nd, node: v });
            }
        }
    }
    (dist, prev)
}

/// Rebuilds the hop list `src -> dst` from a predecessor array.
fn reconstruct(topology: &Topology, prev: &[usize], src: usize, dst: usize) -> Vec<SatId> {
    let mut hops = vec![dst];
    let mut cur = dst;
    while cur != src {
        cur = prev[cur];
        hops.push(cur);
    }
    hops.reverse();
    hops.into_iter().map(|i| topology.id_of(i).expect("valid index")).collect()
}

/// Shortest-length path (km) between two satellites on a topology
/// snapshot. Returns hop list and length.
///
/// # Errors
/// [`LsnError::UnknownNode`] for unknown endpoints, [`LsnError::NoRoute`]
/// if disconnected.
pub fn shortest_path(topology: &Topology, from: SatId, to: SatId) -> Result<(Vec<SatId>, f64)> {
    let src = topology
        .index_of(from)
        .ok_or(LsnError::UnknownNode { plane: from.plane, slot: from.slot })?;
    let dst =
        topology.index_of(to).ok_or(LsnError::UnknownNode { plane: to.plane, slot: to.slot })?;
    let (dist, prev) = dijkstra(topology, src, Some(dst), None);
    if dist[dst].is_infinite() {
        return Err(LsnError::NoRoute);
    }
    Ok((reconstruct(topology, &prev, src, dst), dist[dst]))
}

/// All-destinations shortest paths from one source satellite — one full
/// Dijkstra run, queryable for every destination. Traffic assignment
/// caches one of these per distinct serving satellite so flows sharing an
/// uplink attachment share the graph search; by the finalization argument
/// on the underlying Dijkstra run, every answered path is identical to a
/// fresh per-pair [`shortest_path`] call.
#[derive(Debug, Clone)]
pub struct ShortestPathTree {
    src: usize,
    dist: Vec<f64>,
    prev: Vec<usize>,
}

/// Words of a bitset over `n` nodes.
fn bit_words(n: usize) -> usize {
    n.div_ceil(64)
}

/// Whether bit `i` is set.
fn bit_test(bits: &[u64], i: usize) -> bool {
    (bits[i / 64] >> (i % 64)) & 1 == 1
}

/// Sets bit `i`, returning whether it was clear.
fn bit_insert(bits: &mut [u64], i: usize) -> bool {
    let mask = 1u64 << (i % 64);
    let clear = bits[i / 64] & mask == 0;
    bits[i / 64] |= mask;
    clear
}

/// Calls `f` on every set bit of `bits`, ascending.
fn for_each_bit(bits: impl Iterator<Item = u64>, mut f: impl FnMut(usize)) {
    for (w, mut word) in bits.enumerate() {
        while word != 0 {
            f(w * 64 + crate::cast::widen_u32(word.trailing_zeros()));
            word &= word - 1;
        }
    }
}

/// CSR-packed children lists of a predecessor forest: the children of
/// node `u` are `children[counts[u]..counts[u + 1]]`. Built where a
/// subtree walk needs it and dropped after, so a cached tree holds only
/// its labels.
struct ChildrenCsr {
    counts: Vec<usize>,
    children: Vec<usize>,
}

impl ChildrenCsr {
    fn build(prev: &[usize]) -> Self {
        let n = prev.len();
        let mut counts = vec![0usize; n + 1];
        for &p in prev {
            if p != usize::MAX {
                counts[p + 1] += 1;
            }
        }
        for i in 0..n {
            counts[i + 1] += counts[i];
        }
        let mut fill = counts.clone();
        let mut children = vec![0usize; counts[n]];
        for (v, &p) in prev.iter().enumerate() {
            if p != usize::MAX {
                children[fill[p]] = v;
                fill[p] += 1;
            }
        }
        ChildrenCsr { counts, children }
    }

    fn children_of(&self, u: usize) -> &[usize] {
        &self.children[self.counts[u]..self.counts[u + 1]]
    }

    /// Adds every node on `stack` and its whole subtree to `region` and
    /// every neighbor of an added node to `frontier`, draining `stack`.
    /// Nodes already in `region` are skipped: a region built only from
    /// whole subtrees already holds their descendants.
    fn cut(
        &self,
        topology: &Topology,
        stack: &mut Vec<usize>,
        region: &mut [u64],
        frontier: &mut [u64],
    ) {
        while let Some(u) = stack.pop() {
            if !bit_insert(region, u) {
                continue;
            }
            for &(v, _) in topology.neighbors(u) {
                bit_insert(frontier, v);
            }
            stack.extend_from_slice(self.children_of(u));
        }
    }
}

/// The damage regions whole-plane losses cut out of one tree, built once
/// per tree ([`ShortestPathTree::plane_cuts`]) so a plane-loss repair ORs
/// bitsets instead of walking subtrees: per plane, the union of its
/// members' subtrees and its frontier, the nodes outside that union
/// adjacent to it.
#[derive(Debug)]
pub(crate) struct PlaneCuts {
    /// Words per bitset.
    words: usize,
    /// Plane `p`'s subtree bitset, then its frontier bitset, at
    /// `bits[2p·words..(2p + 2)·words]`.
    bits: Vec<u64>,
}

impl PlaneCuts {
    fn subtree(&self, p: usize) -> &[u64] {
        &self.bits[2 * p * self.words..(2 * p + 1) * self.words]
    }

    fn frontier(&self, p: usize) -> &[u64] {
        &self.bits[(2 * p + 1) * self.words..(2 * p + 2) * self.words]
    }
}

/// What one repair cuts out of a tree: the subtrees of whole lost planes,
/// read from the tree's [`PlaneCuts`], and of individual newly dead
/// nodes, walked through the tree's children.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Cut<'c> {
    /// The tree's plane cuts and the lost planes, if any.
    pub(crate) planes: Option<(&'c PlaneCuts, &'c [usize])>,
    /// Newly dead nodes outside those planes.
    pub(crate) nodes: &'c [usize],
}

impl ShortestPathTree {
    /// Computes the tree rooted at `from`.
    ///
    /// # Errors
    /// [`LsnError::UnknownNode`] for an unknown root.
    pub fn from_source(topology: &Topology, from: SatId) -> Result<Self> {
        let src = topology
            .index_of(from)
            .ok_or(LsnError::UnknownNode { plane: from.plane, slot: from.slot })?;
        let (dist, prev) = dijkstra(topology, src, None, None);
        Ok(ShortestPathTree { src, dist, prev })
    }

    /// The tree rooted at flat node `src`, optionally restricted to the
    /// `alive` nodes — identical to [`Self::from_source`] on
    /// [`Topology::masked`] of the same mask (see [`dijkstra`]). The
    /// incremental evaluator's full-recompute path.
    ///
    /// # Panics
    /// If `src` is out of range (callers pass validated flat indices).
    pub(crate) fn from_flat(topology: &Topology, src: usize, alive: Option<&[bool]>) -> Self {
        assert!(src < topology.n_nodes(), "flat source out of range");
        let (dist, prev) = dijkstra(topology, src, None, alive);
        ShortestPathTree { src, dist, prev }
    }

    /// The hop list and length to `to`.
    ///
    /// # Errors
    /// [`LsnError::UnknownNode`] for an unknown destination,
    /// [`LsnError::NoRoute`] if unreachable.
    pub fn path_to(&self, topology: &Topology, to: SatId) -> Result<(Vec<SatId>, f64)> {
        let dst = topology
            .index_of(to)
            .ok_or(LsnError::UnknownNode { plane: to.plane, slot: to.slot })?;
        if self.dist[dst].is_infinite() {
            return Err(LsnError::NoRoute);
        }
        Ok((reconstruct(topology, &self.prev, self.src, dst), self.dist[dst]))
    }

    /// The flat hop list and length to flat node `dst`, `None` if
    /// unreachable.
    pub(crate) fn flat_path_to(&self, dst: usize) -> Option<(Vec<usize>, f64)> {
        if self.dist[dst].is_infinite() {
            return None;
        }
        let mut hops = vec![dst];
        let mut cur = dst;
        while cur != self.src {
            cur = self.prev[cur];
            hops.push(cur);
        }
        hops.reverse();
        Some((hops, self.dist[dst]))
    }

    /// Every plane's subtree and frontier bitsets over this tree's
    /// predecessor forest (planes from `topology`'s layout). A region
    /// cut by several whole planes is the OR of their subtrees — the
    /// union of the members' subtrees, exactly what walking each dead
    /// member's descendants finds — and its heap seeds are the OR of
    /// their frontiers minus that region. One top-down pass gives every
    /// node the set of planes whose subtrees contain it (its own plane
    /// plus its parent's set); an arc leaving a subtree marks its head
    /// in that plane's frontier.
    pub(crate) fn plane_cuts(&self, topology: &Topology) -> PlaneCuts {
        let n = self.dist.len();
        let words = bit_words(n);
        let n_planes = topology.n_planes();
        let plane_words = bit_words(n_planes);
        let mut plane_of = vec![0usize; n];
        for (p, w) in topology.plane_offsets().windows(2).enumerate() {
            plane_of[w[0]..w[1]].fill(p);
        }
        // `above[v]`: the planes whose subtrees contain node v.
        let mut above = vec![0u64; n * plane_words];
        let kids = ChildrenCsr::build(&self.prev);
        let mut stack: Vec<usize> = (0..n).filter(|&v| self.prev[v] == usize::MAX).collect();
        while let Some(u) = stack.pop() {
            bit_insert(&mut above[u * plane_words..(u + 1) * plane_words], plane_of[u]);
            for &c in kids.children_of(u) {
                above.copy_within(u * plane_words..(u + 1) * plane_words, c * plane_words);
                stack.push(c);
            }
        }
        let mut bits = vec![0u64; 2 * n_planes * words];
        for v in 0..n {
            let planes = above[v * plane_words..(v + 1) * plane_words].iter().copied();
            for_each_bit(planes, |p| {
                bit_insert(&mut bits[2 * p * words..(2 * p + 1) * words], v);
            });
        }
        for a in 0..n {
            for &(b, _) in topology.neighbors(a) {
                let leaving = (0..plane_words)
                    .map(|w| above[a * plane_words + w] & !above[b * plane_words + w]);
                for_each_bit(leaving, |p| {
                    bit_insert(&mut bits[(2 * p + 1) * words..(2 * p + 2) * words], b);
                });
            }
        }
        PlaneCuts { words, bits }
    }

    /// The whole repaired tree: [`Self::repaired_paths`] run to
    /// completion instead of stopping at its targets — the tests'
    /// exactness reference for the truncated run.
    #[cfg(test)]
    pub(crate) fn repaired(
        &self,
        topology: &Topology,
        alive: &[bool],
        cut: Cut<'_>,
        max_affected: usize,
    ) -> Option<ShortestPathTree> {
        let mut buffers = RepairBuffers::default();
        let region = self.repair(topology, alive, cut, max_affected, None, &mut buffers)?;
        let mut dist = self.dist.clone();
        let mut prev = self.prev.clone();
        for_each_bit(region.iter().copied(), |v| {
            (dist[v], prev[v]) = buffers.label(v);
        });
        Some(ShortestPathTree { src: self.src, dist, prev })
    }

    /// Repairs a tree whose labels are valid for some mask `M` into the
    /// paths to `targets` under the stricter mask `alive ⊆ M`, where
    /// `cut` covers exactly the nodes alive in `M` but dead under
    /// `alive`. Returns `None` — recompute from scratch — when the
    /// damaged region exceeds `max_affected` nodes (or the root itself
    /// died). `buffers` hold the repaired labels; one set serves any
    /// number of repairs in turn.
    ///
    /// The repair is exact, not approximate: with the canonical
    /// `(dist, node)` heap order, Dijkstra's output is a pure function of
    /// the graph, so re-running it only over the *invalidated* region
    /// reproduces the full masked run bit for bit. The invalidated region
    /// is the dead nodes plus their tree descendants; every still-valid
    /// label outside it is final (its shortest path avoids the region),
    /// and any path re-entering the region must cross an alive edge from
    /// an unaffected node — so seeding the heap with those frontier nodes
    /// at their known distances explores exactly what a fresh run would.
    /// Relaxations into unaffected nodes are skipped: removals only
    /// lengthen distances and rounding is monotone, so they could never
    /// beat a final label. The region Dijkstra stops once every affected
    /// target is settled: the truncated run pops a prefix of the full
    /// run's pop sequence, and when a node pops its label and whole
    /// predecessor chain are final, so each returned path is
    /// bit-identical to `flat_path_to` on the fully repaired tree.
    /// Unaffected targets read straight from the preserved labels.
    #[allow(clippy::type_complexity)]
    pub(crate) fn repaired_paths(
        &self,
        topology: &Topology,
        alive: &[bool],
        cut: Cut<'_>,
        max_affected: usize,
        targets: &[usize],
        buffers: &mut RepairBuffers,
    ) -> Option<Vec<Option<(Vec<usize>, f64)>>> {
        let region = self.repair(topology, alive, cut, max_affected, Some(targets), buffers)?;
        let label = |v: usize| {
            if bit_test(&region, v) {
                buffers.label(v)
            } else {
                (self.dist[v], self.prev[v])
            }
        };
        let path = |t: usize| {
            let (d, _) = label(t);
            if d.is_infinite() {
                return None;
            }
            let mut hops = vec![t];
            let mut cur = t;
            while cur != self.src {
                cur = label(cur).1;
                hops.push(cur);
            }
            hops.reverse();
            Some((hops, d))
        };
        Some(targets.iter().map(|&t| path(t)).collect())
    }

    /// The repair itself: cuts the region out (the cut planes' subtrees
    /// ORed from [`PlaneCuts`], plus the walked subtrees of `cut.nodes`),
    /// seeds the heap with every alive, finite-label node adjacent to it
    /// — frontier AND NOT region — at its known-final label, and settles
    /// region labels into `buffers` until every region node among
    /// `targets` has settled (all of them without targets). Returns the
    /// region bitset; `None` when the root died or the region's popcount
    /// exceeds `max_affected`.
    fn repair(
        &self,
        topology: &Topology,
        alive: &[bool],
        cut: Cut<'_>,
        max_affected: usize,
        targets: Option<&[usize]>,
        buffers: &mut RepairBuffers,
    ) -> Option<Vec<u64>> {
        if !alive[self.src] {
            return None;
        }
        let words = bit_words(self.dist.len());
        let mut region = vec![0u64; words];
        let mut frontier = vec![0u64; words];
        if let Some((cuts, planes)) = cut.planes {
            for &p in planes {
                region.iter_mut().zip(cuts.subtree(p)).for_each(|(r, s)| *r |= s);
                frontier.iter_mut().zip(cuts.frontier(p)).for_each(|(f, s)| *f |= s);
            }
        }
        if !cut.nodes.is_empty() {
            let mut stack = cut.nodes.to_vec();
            ChildrenCsr::build(&self.prev).cut(topology, &mut stack, &mut region, &mut frontier);
        }
        let affected: usize = region.iter().map(|w| crate::cast::widen_u32(w.count_ones())).sum();
        if affected > max_affected {
            return None;
        }
        buffers.begin(self.dist.len());
        let mut seeds = Vec::new();
        for_each_bit(frontier.iter().zip(&region).map(|(f, r)| f & !r), |u| {
            if alive[u] && self.dist[u].is_finite() {
                seeds.push(HeapItem { dist: self.dist[u], node: u });
            }
        });
        let mut heap = BinaryHeap::from(seeds);
        let mut pending =
            targets.map_or(usize::MAX, |ts| ts.iter().filter(|&&t| bit_test(&region, t)).count());
        while pending > 0 {
            let Some(HeapItem { dist: d, node }) = heap.pop() else {
                // Heap exhausted: the remaining affected targets are
                // unreachable under the mask (their labels stay ∞).
                break;
            };
            // Seeds sit outside the region and pop once, at their label.
            if bit_test(&region, node) {
                if d > buffers.label(node).0 {
                    continue;
                }
                if targets.is_some_and(|ts| ts.contains(&node)) {
                    pending -= 1;
                }
            }
            for &(v, w) in topology.neighbors(node) {
                if !alive[v] || !bit_test(&region, v) {
                    continue;
                }
                let nd = d + w;
                if nd < buffers.label(v).0 {
                    buffers.set(v, nd, node);
                    heap.push(HeapItem { dist: nd, node: v });
                }
            }
        }
        Some(region)
    }
}

/// Label buffers for a run of tree repairs. A repair writes only the
/// region labels it reaches, stamped with its own generation, so the
/// next repair starts with no reset and no copy of the tree.
#[derive(Debug, Default)]
pub(crate) struct RepairBuffers {
    dist: Vec<f64>,
    prev: Vec<usize>,
    /// The generation that wrote each node's label.
    stamp: Vec<u64>,
    generation: u64,
}

impl RepairBuffers {
    /// Starts a repair over `n` nodes: every label reads unreached.
    fn begin(&mut self, n: usize) {
        if self.stamp.len() != n {
            self.dist = vec![f64::INFINITY; n];
            self.prev = vec![usize::MAX; n];
            self.stamp = vec![0; n];
        }
        self.generation += 1;
    }

    /// This repair's `(dist, prev)` of region node `v`, `(∞, none)` while
    /// unreached.
    fn label(&self, v: usize) -> (f64, usize) {
        if self.stamp[v] == self.generation {
            (self.dist[v], self.prev[v])
        } else {
            (f64::INFINITY, usize::MAX)
        }
    }

    fn set(&mut self, v: usize, dist: f64, prev: usize) {
        self.dist[v] = dist;
        self.prev[v] = prev;
        self.stamp[v] = self.generation;
    }
}

/// The satellite best serving a ground point at the snapshot's epoch: the
/// one with the highest elevation above `min_elevation` \[rad\], if any.
/// Satellites masked dead by the snapshot's alive mask cannot serve.
pub fn serving_satellite(
    snapshot: &Snapshot<'_>,
    ground: GeoPoint,
    min_elevation: f64,
) -> Option<(SatId, f64)> {
    best_visible(snapshot, ground, min_elevation, None)
}

/// Visits every alive satellite that clears `min_elevation` \[rad\] over
/// `ground`, in flat order, as `(flat, id, elevation)`. With `bands`
/// (per-satellite declinations and band half-widths, see
/// [`ServingIndex`]) satellites outside their band are skipped without
/// the exact elevation math — they cannot clear the mask anyway — so the
/// visited set is the same with or without them.
fn for_each_visible(
    snapshot: &Snapshot<'_>,
    ground: GeoPoint,
    min_elevation: f64,
    bands: Option<(&[f64], &[f64])>,
    mut visit: impl FnMut(usize, SatId, f64),
) {
    let g_eci = ecef_to_eci(snapshot.epoch(), ground.to_unit_vector() * EARTH_RADIUS_KM);
    let g_dec = (g_eci.z / g_eci.norm()).asin();
    for (flat, id) in snapshot.ids().enumerate() {
        // Central angle >= |declination difference|: out-of-band
        // satellites cannot clear the elevation mask. Dead satellites
        // cannot serve at all.
        if !snapshot.is_alive_flat(flat)
            || bands.is_some_and(|(dec, band)| (dec[flat] - g_dec).abs() > band[flat])
        {
            continue;
        }
        let r = snapshot.position_flat(flat);
        let central = g_eci.angle_to(r);
        let altitude = r.norm() - EARTH_RADIUS_KM;
        let elev = elevation_at_central_angle(altitude, central.max(1e-9));
        if elev >= min_elevation {
            visit(flat, id, elev);
        }
    }
}

/// The first-wins elevation maximum over [`for_each_visible`]: the
/// highest satellite, ties to the lowest flat index.
fn best_visible(
    snapshot: &Snapshot<'_>,
    ground: GeoPoint,
    min_elevation: f64,
    bands: Option<(&[f64], &[f64])>,
) -> Option<(SatId, f64)> {
    let mut best: Option<(SatId, f64)> = None;
    for_each_visible(snapshot, ground, min_elevation, bands, |_, id, elev| {
        if best.is_none_or(|(_, be)| elev > be) {
            best = Some((id, elev));
        }
    });
    best
}

/// A per-snapshot ground-attachment accelerator: precomputes every
/// satellite's declination and its own conservative maximum central
/// angle, so each query only runs the exact elevation math on the
/// satellites whose declination band can possibly clear `min_elevation`.
/// A satellite outside its band has central angle > its own visibility
/// cap, hence elevation < `min_elevation` — so the pruned query returns
/// exactly what [`serving_satellite`] returns (candidates are still
/// evaluated in flat order with the same strict comparison).
///
/// The band is **per satellite**, derived from each satellite's own
/// altitude: on a multi-shell constellation (a deployed catalog mixing
/// 540 km and 570 km shells, say) a low-shell satellite is pruned by its
/// own tighter visibility cap instead of the fleet-wide maximum, and a
/// mixed-altitude fleet never widens anyone's band. Per-satellite caps
/// are still conservative, so answers are identical to the single-band
/// index on single-shell fleets.
///
/// Build one per snapshot when answering many queries (traffic
/// assignment); for a single lookup the plain scan is cheaper.
#[derive(Debug, Clone)]
pub struct ServingIndex<'a> {
    snapshot: Snapshot<'a>,
    min_elevation: f64,
    /// Per-satellite declination \[rad\], flat order; empty when pruning
    /// is disabled and queries fall back to the full scan.
    declinations: Vec<f64>,
    /// Per-satellite band half-width \[rad\], flat order: the satellite's
    /// own visibility cap plus slack for the declination/central-angle
    /// bound. Same length as `declinations`.
    bands: Vec<f64>,
}

impl<'a> ServingIndex<'a> {
    /// Builds the index. Pruning needs a meaningful elevation mask
    /// (`0 < min_elevation < pi/2`) and a finite visibility cap for every
    /// satellite; for anything else the index degrades to the exact full
    /// scan.
    pub fn new(snapshot: Snapshot<'a>, min_elevation: f64) -> Self {
        let n = snapshot.total_sats();
        let mut declinations = Vec::with_capacity(n);
        let mut bands = Vec::with_capacity(n);
        let prune = min_elevation > 0.0 && min_elevation < std::f64::consts::FRAC_PI_2;
        for flat in 0..n {
            let r = snapshot.position_flat(flat);
            let norm = r.norm();
            declinations.push((r.z / norm).asin());
            if !prune {
                continue;
            }
            // 1e-6 rad of slack absorbs the rounding between the
            // declination-difference bound and the exact central angle.
            match ssplane_astro::coverage::coverage_half_angle(
                norm - EARTH_RADIUS_KM,
                min_elevation,
            ) {
                Ok(cap) => bands.push(cap + 1e-6),
                Err(_) => break,
            }
        }
        if bands.len() == n {
            ServingIndex { snapshot, min_elevation, declinations, bands }
        } else {
            ServingIndex { snapshot, min_elevation, declinations: Vec::new(), bands: Vec::new() }
        }
    }

    fn bands(&self) -> Option<(&[f64], &[f64])> {
        (!self.declinations.is_empty()).then_some((&self.declinations, &self.bands))
    }

    /// The serving satellite for `ground` — identical to
    /// [`serving_satellite`] on this snapshot.
    pub fn query(&self, ground: GeoPoint) -> Option<(SatId, f64)> {
        best_visible(&self.snapshot, ground, self.min_elevation, self.bands())
    }

    /// Every satellite able to serve `ground`, best first: elevation
    /// descending, ties in ascending flat order. The head is
    /// [`Self::query`]'s answer, and under any stricter alive mask the
    /// first entry still alive is what an index rebuilt over
    /// `snapshot.with_alive(mask)` answers: positions and elevations
    /// never consult aliveness, and dropping entries from a first-wins
    /// maximum never changes which survivor wins. One list therefore
    /// serves every candidate mask of an attack search.
    pub fn ranked(&self, ground: GeoPoint) -> Vec<(SatId, f64)> {
        let mut visible: Vec<(usize, SatId, f64)> = Vec::new();
        for_each_visible(&self.snapshot, ground, self.min_elevation, self.bands(), |f, id, e| {
            visible.push((f, id, e));
        });
        visible
            .sort_by(|a, b| b.2.partial_cmp(&a.2).unwrap_or(Ordering::Equal).then(a.0.cmp(&b.0)));
        visible.into_iter().map(|(_, id, elev)| (id, elev)).collect()
    }
}

/// Assembles the full ground-to-ground route from a serving pair and its
/// ISL path: up/down link lengths at the snapshot's epoch complete the
/// delay accounting.
///
/// # Errors
/// [`LsnError::UnknownNode`] for out-of-range serving satellites.
pub(crate) fn assemble_route(
    snapshot: &Snapshot<'_>,
    src: GeoPoint,
    dst: GeoPoint,
    s_sat: SatId,
    d_sat: SatId,
    hops: Vec<SatId>,
    isl_km: f64,
) -> Result<Route> {
    let t = snapshot.epoch();
    let up =
        (snapshot.position(s_sat)? - ecef_to_eci(t, src.to_unit_vector() * EARTH_RADIUS_KM)).norm();
    let down =
        (snapshot.position(d_sat)? - ecef_to_eci(t, dst.to_unit_vector() * EARTH_RADIUS_KM)).norm();
    let length_km = isl_km + up + down;
    Ok(Route { hops, delay_ms: length_km / SPEED_OF_LIGHT_KM_S * 1e3, length_km })
}

/// Routes ground-to-ground traffic at the snapshot's epoch: uplink to the
/// best serving satellite at each end, shortest ISL path between them.
///
/// # Errors
/// [`LsnError::NoRoute`] if either terminal has no serving satellite or
/// the satellites are disconnected.
pub fn route_ground_to_ground(
    snapshot: &Snapshot<'_>,
    topology: &Topology,
    src: GeoPoint,
    dst: GeoPoint,
    min_elevation: f64,
) -> Result<Route> {
    let (s_sat, _) = serving_satellite(snapshot, src, min_elevation).ok_or(LsnError::NoRoute)?;
    let (d_sat, _) = serving_satellite(snapshot, dst, min_elevation).ok_or(LsnError::NoRoute)?;
    let (hops, isl_km) =
        if s_sat == d_sat { (vec![s_sat], 0.0) } else { shortest_path(topology, s_sat, d_sat)? };
    assemble_route(snapshot, src, dst, s_sat, d_sat, hops, isl_km)
}

/// A time-expanded routing result: one route per time slot plus handoff
/// statistics.
#[derive(Debug, Clone)]
pub struct TimeExpandedRoutes {
    /// Slot epochs.
    pub epochs: Vec<Epoch>,
    /// Route per slot (None when unreachable in that slot).
    pub routes: Vec<Option<Route>>,
}

impl TimeExpandedRoutes {
    /// Number of slots where the pair was routable.
    pub fn reachable_slots(&self) -> usize {
        self.routes.iter().filter(|r| r.is_some()).count()
    }

    /// Number of *handoffs*: slot transitions where the serving pair
    /// (first/last hop) changed between consecutive reachable slots. An
    /// unreachable slot resets the comparison: re-acquiring service on a
    /// different pair after an outage gap is a fresh attachment, not a
    /// handoff, so `route → gap → route` never counts — only strictly
    /// adjacent routable slots do.
    pub fn handoffs(&self) -> usize {
        let mut count = 0;
        let mut prev: Option<(SatId, SatId)> = None;
        for r in &self.routes {
            let Some(r) = r else {
                prev = None;
                continue;
            };
            let ends =
                (*r.hops.first().expect("route has hops"), *r.hops.last().expect("route has hops"));
            if let Some(p) = prev {
                if p != ends {
                    count += 1;
                }
            }
            prev = Some(ends);
        }
        count
    }

    /// Mean delay over reachable slots \[ms\] (NaN if never reachable).
    pub fn mean_delay_ms(&self) -> f64 {
        let delays: Vec<f64> = self.routes.iter().flatten().map(|r| r.delay_ms).collect();
        delays.iter().sum::<f64>() / delays.len() as f64
    }
}

/// Routes a ground pair over every slot of a prebuilt [`SnapshotSeries`]
/// (the paper's "precomputed time-aware paths and schedules"). The series
/// carries the grid; positions are read from its shared buffers, so this
/// touches no propagator — the refactor that removed the per-slot
/// re-propagation of all N satellites.
///
/// # Errors
/// Propagates topology-construction failure; per-slot unreachability is
/// recorded as `None` rather than an error.
pub fn route_over_time(
    series: &SnapshotSeries,
    src: GeoPoint,
    dst: GeoPoint,
    min_elevation: f64,
    topo_config: GridTopologyConfig,
) -> Result<TimeExpandedRoutes> {
    let mut routes = Vec::with_capacity(series.len());
    for snapshot in series.iter() {
        let topology = Topology::plus_grid(&snapshot, topo_config)?;
        match route_ground_to_ground(&snapshot, &topology, src, dst, min_elevation) {
            Ok(r) => routes.push(Some(r)),
            Err(LsnError::NoRoute) => routes.push(None),
            Err(e) => return Err(e),
        }
    }
    Ok(TimeExpandedRoutes { epochs: series.epochs().to_vec(), routes })
}

/// Great-circle lower bound on ground-to-ground delay \[ms\] (through an
/// idealized terrestrial fiber at c).
pub fn great_circle_delay_ms(src: GeoPoint, dst: GeoPoint) -> f64 {
    src.distance_km(&dst) / SPEED_OF_LIGHT_KM_S * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::time_grid;
    use crate::topology::Constellation;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use ssplane_astro::kepler::OrbitalElements;
    use ssplane_astro::sunsync::sun_synchronous_orbit;

    fn constellation(planes: usize, slots: usize) -> Constellation {
        let epoch = Epoch::J2000;
        let orbit = sun_synchronous_orbit(560.0).unwrap();
        let element_planes: Vec<Vec<OrbitalElements>> = (0..planes)
            .map(|p| orbit.with_ltan(8.0 + p as f64).plane_elements(epoch, slots).unwrap())
            .collect();
        Constellation::new(epoch, element_planes).unwrap()
    }

    fn single(c: &Constellation, t: Epoch) -> SnapshotSeries {
        SnapshotSeries::build(c, &[t]).unwrap()
    }

    #[test]
    fn shortest_path_adjacent_and_self() {
        let c = constellation(3, 12);
        let series = single(&c, Epoch::J2000);
        let topo = Topology::plus_grid(&series.snapshot(0), Default::default()).unwrap();
        let a = SatId { plane: 0, slot: 0 };
        let b = SatId { plane: 0, slot: 1 };
        let (hops, km) = shortest_path(&topo, a, b).unwrap();
        assert_eq!(hops, vec![a, b]);
        assert!(km > 100.0 && km < 5000.0);
        let (hops, km) = shortest_path(&topo, a, a).unwrap();
        assert_eq!(hops, vec![a]);
        assert_eq!(km, 0.0);
    }

    #[test]
    fn shortest_path_is_optimal_over_ring() {
        // Going 3 slots around a 12-slot ring must cost 3 ring hops.
        let c = constellation(1, 12);
        let series = single(&c, Epoch::J2000);
        let topo = Topology::plus_grid(&series.snapshot(0), Default::default()).unwrap();
        let (hops, _) =
            shortest_path(&topo, SatId { plane: 0, slot: 0 }, SatId { plane: 0, slot: 3 }).unwrap();
        assert_eq!(hops.len(), 4);
        // And the short way around for slot 10 (2 hops back).
        let (hops, _) =
            shortest_path(&topo, SatId { plane: 0, slot: 0 }, SatId { plane: 0, slot: 10 })
                .unwrap();
        assert_eq!(hops.len(), 3);
    }

    #[test]
    fn tree_paths_match_per_pair_dijkstra() {
        let c = constellation(4, 10);
        let series = single(&c, Epoch::J2000);
        let topo = Topology::plus_grid(&series.snapshot(0), Default::default()).unwrap();
        let from = SatId { plane: 1, slot: 3 };
        let tree = ShortestPathTree::from_source(&topo, from).unwrap();
        for p in 0..4 {
            for s in 0..10 {
                let to = SatId { plane: p, slot: s };
                match (shortest_path(&topo, from, to), tree.path_to(&topo, to)) {
                    (Ok((hops_a, km_a)), Ok((hops_b, km_b))) => {
                        assert_eq!(hops_a, hops_b, "to {to:?}");
                        assert_eq!(km_a, km_b, "to {to:?}");
                    }
                    (Err(LsnError::NoRoute), Err(LsnError::NoRoute)) => {}
                    (a, b) => panic!("divergent outcomes to {to:?}: {a:?} vs {b:?}"),
                }
            }
        }
        assert!(matches!(
            tree.path_to(&topo, SatId { plane: 9, slot: 0 }),
            Err(LsnError::UnknownNode { .. })
        ));
    }

    #[test]
    fn repaired_tree_matches_from_scratch_masked() {
        // Tree surgery must be bit-identical to a fresh masked run, for
        // every damage shape from zero loss to half the shell — and the
        // alive-filtered intact run must in turn match Dijkstra over the
        // materialized masked topology.
        let c = constellation(5, 12);
        let series = single(&c, Epoch::J2000 + 250.0);
        let topo = Topology::plus_grid(&series.snapshot(0), Default::default()).unwrap();
        let n = topo.n_nodes();
        let damage_shapes: Vec<Vec<usize>> = vec![
            vec![],
            vec![7],
            vec![3, 17, 18, 44, 59],
            (24..36).collect(),
            (0..n).step_by(2).collect(),
        ];
        for dead in &damage_shapes {
            let mut alive = vec![true; n];
            for &d in dead {
                alive[d] = false;
            }
            let masked = topo.masked(&alive);
            for src in [0usize, 5, 23, 41] {
                if !alive[src] {
                    continue;
                }
                let intact = ShortestPathTree::from_flat(&topo, src, None);
                let scratch = ShortestPathTree::from_flat(&topo, src, Some(&alive));
                let cut = Cut { planes: None, nodes: dead };
                let repaired =
                    intact.repaired(&topo, &alive, cut, n).expect("budget n covers any damage");
                let rebuilt = ShortestPathTree::from_flat(&masked, src, None);
                for v in 0..n {
                    let bits = scratch.dist[v].to_bits();
                    assert_eq!(repaired.dist[v].to_bits(), bits, "dist src {src} node {v}");
                    assert_eq!(rebuilt.dist[v].to_bits(), bits, "masked dist src {src} node {v}");
                    assert_eq!(repaired.prev[v], scratch.prev[v], "prev src {src} node {v}");
                    assert_eq!(rebuilt.prev[v], scratch.prev[v], "masked prev src {src} node {v}");
                }
            }
        }
        // A dead root or an over-budget damage region refuses to repair.
        let mut alive = vec![true; n];
        alive[0] = false;
        let tree = ShortestPathTree::from_flat(&topo, 0, None);
        let root_cut = Cut { planes: None, nodes: &[0] };
        assert!(tree.repaired(&topo, &alive, root_cut, n).is_none());
        let tree5 = ShortestPathTree::from_flat(&topo, 5, None);
        assert!(tree5.repaired(&topo, &alive, root_cut, 0).is_none(), "budget 0 must fall back");
        // Wipeout: everyone but the root dead still repairs (given budget)
        // to an all-unreachable tree.
        let lone: Vec<usize> = (1..n).collect();
        let mut only_root = vec![false; n];
        only_root[0] = true;
        let wiped =
            tree.repaired(&topo, &only_root, Cut { planes: None, nodes: &lone }, n).unwrap();
        assert!(wiped.dist[1..].iter().all(|d| d.is_infinite()));
        assert_eq!(wiped.dist[0], 0.0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// Plane-cut repair is the subtree-walk repair: ORing the
        /// victim planes' precomputed cuts (plus walking any other dead
        /// satellites) yields, path for path, what `repaired` finds
        /// walking every victim's subtree and what a from-scratch masked
        /// Dijkstra finds — for whole-plane sets, plane-plus-satellite
        /// mixes and dead roots, and with the same damage-threshold
        /// verdict. Walker-delta shells close their +grid into a ring of
        /// planes, so a lost plane leaves detours to repair onto.
        #[test]
        fn plane_cut_repair_matches_walk_and_scratch(
            planes in 4usize..8,
            slots in 18usize..30,
            inclination_deg in 50.0f64..80.0,
            dt in 0.0f64..6000.0,
            lost in 1usize..3,
            extra in 0usize..6,
            seed in 0u64..10_000,
            budget_frac in 0.2f64..1.6,
        ) {
            let pattern = ssplane_astro::walker::WalkerDelta::new(
                550.0,
                inclination_deg.to_radians(),
                planes * slots,
                planes,
                1,
            )
            .unwrap()
            .generate()
            .unwrap();
            let c = Constellation::from_planes(
                Epoch::J2000,
                pattern.chunks(slots).map(<[_]>::to_vec).collect(),
            )
            .unwrap();
            let series = single(&c, Epoch::J2000 + dt);
            let topo = Topology::plus_grid(&series.snapshot(0), Default::default()).unwrap();
            let n = topo.n_nodes();
            let mut rng = StdRng::seed_from_u64(seed);
            let mut dead_planes: Vec<usize> = Vec::new();
            while dead_planes.len() < lost.min(planes - 1) {
                let p = rng.gen_index(planes);
                if !dead_planes.contains(&p) {
                    dead_planes.push(p);
                }
            }
            dead_planes.sort_unstable();
            let mut alive = vec![true; n];
            for &p in &dead_planes {
                alive[p * slots..(p + 1) * slots].fill(false);
            }
            let mut others: Vec<usize> = Vec::new();
            for _ in 0..extra {
                let v = rng.gen_index(n);
                if alive[v] {
                    alive[v] = false;
                    others.push(v);
                }
            }
            others.sort_unstable();
            let victims: Vec<usize> = (0..n).filter(|&v| !alive[v]).collect();
            let targets: Vec<usize> = (0..n).collect();
            let budget = crate::cast::f64_to_index((n as f64 * budget_frac.min(1.0)).ceil());
            // One root inside a dead plane, the rest drawn at random.
            let roots = [dead_planes[0] * slots, rng.gen_index(n), rng.gen_index(n)];
            for src in roots {
                let intact = ShortestPathTree::from_flat(&topo, src, None);
                let cuts = intact.plane_cuts(&topo);
                let cut = Cut { planes: Some((&cuts, &dead_planes)), nodes: &others };
                let mut buf = RepairBuffers::default();
                let fast = intact.repaired_paths(&topo, &alive, cut, budget, &targets, &mut buf);
                let walk = Cut { planes: None, nodes: &victims };
                let walked = intact.repaired(&topo, &alive, walk, budget);
                prop_assert_eq!(fast.is_some(), walked.is_some(), "threshold, root {}", src);
                if !alive[src] {
                    prop_assert!(fast.is_none(), "a dead root never repairs");
                    continue;
                }
                let scratch = ShortestPathTree::from_flat(&topo, src, Some(&alive));
                let full = intact.repaired(&topo, &alive, walk, n).expect("budget n covers all");
                if let (Some(fast), Some(walked)) = (&fast, &walked) {
                    for (t, path) in fast.iter().enumerate() {
                        let want = walked.flat_path_to(t);
                        prop_assert_eq!(path, &want, "cut vs walk, root {} node {}", src, t);
                    }
                }
                for t in 0..n {
                    let want = scratch.flat_path_to(t);
                    prop_assert_eq!(full.flat_path_to(t), want, "walk vs fresh, {} to {}", src, t);
                }
            }
        }
    }

    #[test]
    fn ranked_attachment_matches_rebuilt_index() {
        let c = constellation(6, 15);
        let series = single(&c, Epoch::J2000 + 700.0);
        let snap = series.snapshot(0);
        let n = snap.total_sats();
        let mut mask = vec![true; n];
        mask[15..30].fill(false);
        for flat in (0..n).step_by(7) {
            mask[flat] = false;
        }
        let grounds: Vec<GeoPoint> = [(-60.0, 30.0), (-10.0, -120.0), (12.0, 88.0), (71.0, 5.0)]
            .iter()
            .map(|&(la, lo)| GeoPoint::from_degrees(la, lo))
            .collect();
        let first_alive = |ranked: &[(SatId, f64)], alive: &[bool]| {
            ranked.iter().copied().find(|(id, _)| alive[snap.flat_index(*id).unwrap()])
        };
        // Both the pruned path and the degenerate full-scan fallback
        // (min_elevation 0 disables the declination band) must answer
        // exactly what a fresh index over the masked snapshot answers.
        for &min_elev in &[0.0, 15f64.to_radians(), 40f64.to_radians()] {
            let index = ServingIndex::new(snap, min_elev);
            let rebuilt = ServingIndex::new(snap.with_alive(&mask), min_elev);
            let all = vec![true; n];
            let none = vec![false; n];
            for &g in &grounds {
                let ranked = index.ranked(g);
                assert!(ranked.windows(2).all(|w| w[0].1 >= w[1].1), "best first");
                assert_eq!(first_alive(&ranked, &mask), rebuilt.query(g), "min_elev {min_elev}");
                // The trivial masks bracket the behavior.
                assert_eq!(first_alive(&ranked, &all), index.query(g));
                assert_eq!(first_alive(&ranked, &none), None);
            }
        }
    }

    #[test]
    fn unknown_endpoints_rejected() {
        let c = constellation(2, 6);
        let series = single(&c, Epoch::J2000);
        let topo = Topology::plus_grid(&series.snapshot(0), Default::default()).unwrap();
        let bad = SatId { plane: 5, slot: 0 };
        assert!(matches!(
            shortest_path(&topo, bad, SatId { plane: 0, slot: 0 }),
            Err(LsnError::UnknownNode { .. })
        ));
        assert!(matches!(
            ShortestPathTree::from_source(&topo, bad),
            Err(LsnError::UnknownNode { .. })
        ));
    }

    #[test]
    fn serving_satellite_under_track() {
        let c = constellation(6, 20);
        let t = Epoch::J2000;
        let series = single(&c, t);
        let snap = series.snapshot(0);
        // Find a sub-satellite point; that ground point must be served.
        let r = c.position(SatId { plane: 2, slot: 5 }, t).unwrap();
        let (gp, _) = ssplane_astro::frames::subsatellite_point(t, r).unwrap();
        let serving = serving_satellite(&snap, gp, 30f64.to_radians());
        let (id, elev) = serving.expect("point under a satellite is served");
        assert_eq!(id, SatId { plane: 2, slot: 5 });
        assert!(elev > 80f64.to_radians());
    }

    #[test]
    fn serving_index_matches_plain_scan() {
        let c = constellation(8, 25);
        let series = single(&c, Epoch::J2000 + 1234.0);
        let snap = series.snapshot(0);
        for &min_elev in &[0.0, 10f64.to_radians(), 25f64.to_radians(), 70f64.to_radians()] {
            let index = ServingIndex::new(snap, min_elev);
            for lat in [-75.0, -40.0, -5.0, 0.0, 33.0, 51.5, 78.0] {
                for lon in [-170.0, -74.0, 0.1, 60.0, 139.7] {
                    let g = GeoPoint::from_degrees(lat, lon);
                    assert_eq!(
                        index.query(g),
                        serving_satellite(&snap, g, min_elev),
                        "diverged at ({lat}, {lon}) min_elev {min_elev}"
                    );
                }
            }
        }
    }

    #[test]
    fn dead_satellite_cannot_serve() {
        let c = constellation(6, 20);
        let t = Epoch::J2000;
        let series = single(&c, t);
        let snap = series.snapshot(0);
        let r = c.position(SatId { plane: 2, slot: 5 }, t).unwrap();
        let (gp, _) = ssplane_astro::frames::subsatellite_point(t, r).unwrap();
        let (best, _) = serving_satellite(&snap, gp, 10f64.to_radians()).unwrap();
        assert_eq!(best, SatId { plane: 2, slot: 5 });
        // Kill the overhead satellite: the mask must hand the point to a
        // different (lower-elevation) server, and the pruned index must
        // agree with the plain scan on the masked snapshot.
        let mut mask = vec![true; snap.total_sats()];
        mask[snap.flat_index(best).unwrap()] = false;
        let masked = snap.with_alive(&mask);
        let fallback = serving_satellite(&masked, gp, 10f64.to_radians());
        if let Some((second, _)) = fallback {
            assert_ne!(second, best);
        }
        let index = ServingIndex::new(masked, 10f64.to_radians());
        assert_eq!(index.query(gp), fallback);
        // Killing everything leaves the point unserved.
        let none = vec![false; snap.total_sats()];
        assert_eq!(serving_satellite(&snap.with_alive(&none), gp, 0.0), None);
    }

    #[test]
    fn ground_route_end_to_end() {
        let c = constellation(8, 25);
        let t = Epoch::J2000;
        let series = single(&c, t);
        let snap = series.snapshot(0);
        let topo = Topology::plus_grid(&snap, Default::default()).unwrap();
        // Two points under the constellation's morning planes.
        let r1 = c.position(SatId { plane: 1, slot: 3 }, t).unwrap();
        let (src, _) = ssplane_astro::frames::subsatellite_point(t, r1).unwrap();
        let r2 = c.position(SatId { plane: 6, slot: 3 }, t).unwrap();
        let (dst, _) = ssplane_astro::frames::subsatellite_point(t, r2).unwrap();
        let route = route_ground_to_ground(&snap, &topo, src, dst, 25f64.to_radians()).unwrap();
        assert!(!route.hops.is_empty());
        assert!(route.delay_ms > 0.0);
        // Delay at least the great-circle bound (satellite paths are
        // longer than ideal fiber) but not absurd.
        let bound = great_circle_delay_ms(src, dst);
        assert!(route.delay_ms >= bound * 0.99, "{} < {}", route.delay_ms, bound);
        assert!(route.delay_ms < bound * 10.0 + 50.0);
    }

    #[test]
    fn unreachable_ground_gives_no_route() {
        let c = constellation(2, 10);
        let t = Epoch::J2000;
        let series = single(&c, t);
        let snap = series.snapshot(0);
        let topo = Topology::plus_grid(&snap, Default::default()).unwrap();
        // A 2-plane morning constellation leaves the antipodal local
        // evening uncovered: pick the point opposite plane 0's ascending
        // node on the equator.
        let r = c.position(SatId { plane: 0, slot: 0 }, t).unwrap();
        let (sub, _) = ssplane_astro::frames::subsatellite_point(t, r).unwrap();
        let far = GeoPoint::new(-sub.lat, ssplane_astro::angles::wrap_pi(sub.lon + 2.0));
        let result = route_ground_to_ground(&snap, &topo, far, sub, 60f64.to_radians());
        assert!(matches!(result, Err(LsnError::NoRoute)) || result.is_ok());
    }

    #[test]
    fn time_expanded_routes_and_handoffs() {
        let c = constellation(8, 25);
        let src = GeoPoint::from_degrees(40.0, -100.0);
        let dst = GeoPoint::from_degrees(50.0, 10.0);
        let series = SnapshotSeries::build(&c, &time_grid(Epoch::J2000, 10, 60.0)).unwrap();
        let routes =
            route_over_time(&series, src, dst, 20f64.to_radians(), Default::default()).unwrap();
        assert_eq!(routes.epochs.len(), 10);
        assert_eq!(routes.routes.len(), 10);
        if routes.reachable_slots() >= 2 {
            assert!(routes.mean_delay_ms() > 0.0);
            // Handoffs bounded by transitions.
            assert!(routes.handoffs() < routes.reachable_slots());
        }
    }

    #[test]
    fn handoffs_reset_across_unreachable_gaps() {
        // The regression the doc comment promises: a route, then an
        // unreachable gap, then a route on a *different* serving pair is
        // a re-acquisition, not a handoff — the gap must reset the
        // previous pair instead of comparing across it.
        let sat = |p: usize, s: usize| SatId { plane: p, slot: s };
        let route = |ends: (SatId, SatId)| Route {
            hops: vec![ends.0, ends.1],
            delay_ms: 10.0,
            length_km: 3000.0,
        };
        let a = (sat(0, 0), sat(1, 0));
        let b = (sat(2, 3), sat(3, 3));
        let grid = time_grid(Epoch::J2000, 3, 60.0);
        let gapped = TimeExpandedRoutes {
            epochs: grid.clone(),
            routes: vec![Some(route(a)), None, Some(route(b))],
        };
        assert_eq!(gapped.handoffs(), 0, "a gap separates the pair change");
        assert_eq!(gapped.reachable_slots(), 2);
        // The same pair change with no gap *is* a handoff.
        let adjacent = TimeExpandedRoutes {
            epochs: grid.clone(),
            routes: vec![Some(route(a)), Some(route(b)), None],
        };
        assert_eq!(adjacent.handoffs(), 1);
        // Same pair on both sides of a gap: still no handoff, and a
        // change after the re-acquisition counts once.
        let resumed = TimeExpandedRoutes {
            epochs: time_grid(Epoch::J2000, 4, 60.0),
            routes: vec![Some(route(a)), None, Some(route(a)), Some(route(b))],
        };
        assert_eq!(resumed.handoffs(), 1);
    }

    #[test]
    fn route_over_time_handoff_regression() {
        // Pinned counts for the reference NYC -> London walk: the
        // snapshot refactor must not change which slots are reachable or
        // how often the serving pair churns.
        let c = constellation(8, 25);
        let src = GeoPoint::from_degrees(40.7, -74.0);
        let dst = GeoPoint::from_degrees(51.5, -0.1);
        let series = SnapshotSeries::build(&c, &time_grid(Epoch::J2000, 20, 120.0)).unwrap();
        let routes =
            route_over_time(&series, src, dst, 20f64.to_radians(), Default::default()).unwrap();
        assert_eq!(routes.reachable_slots(), 20);
        assert_eq!(routes.handoffs(), 15);
    }
}
