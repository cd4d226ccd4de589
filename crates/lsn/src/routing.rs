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
//!
//! One Dijkstra kernel, `dijkstra`, answers every plain shortest-path
//! question in the crate with a canonical `(dist, node)` order:
//! [`shortest_path`] (the reference route the tests hold everything else
//! to), the incremental scorer's repairable per-source trees, the
//! [`Landmarks`] columns and the traffic engine's penalized k-path rounds.
//! Two searches keep their own loops because they are different
//! algorithms: [`GuidedSearch`], the traffic assignment's per-flow A* over
//! [`Landmarks`] lower bounds, exact to the bit (the proof is on
//! [`Landmarks`]) while settling a fraction of Dijkstra's nodes, and the
//! region-restricted tree repair. All of them read their hop lists back
//! through one predecessor walk.

use crate::error::{LsnError, Result};
use crate::snapshot::{Snapshot, SnapshotSeries};
use crate::topology::{sat_id_at, GridTopologyConfig, SatId, Topology};
use ssplane_astro::constants::EARTH_RADIUS_KM;
use ssplane_astro::coverage::elevation_at_central_angle;
use ssplane_astro::frames::ecef_to_eci;
use ssplane_astro::geo::GeoPoint;
use ssplane_astro::linalg::Vec3;
use ssplane_astro::time::Epoch;
use std::cmp::{Ordering, Reverse};
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

/// The min-heap key of [`dijkstra`] and the tree repair: `(dist, node)`,
/// ties broken on node index. Every distance here is non-negative and
/// never NaN, and on those values (+∞ included) the IEEE-754 bit
/// patterns order as unsigned integers exactly as the floats do.
fn heap_key(dist: f64, node: usize) -> Reverse<(u64, usize)> {
    debug_assert!(dist.is_sign_positive() && !dist.is_nan(), "negative or NaN heap distance");
    Reverse((dist.to_bits(), node))
}

/// The crate's one Dijkstra: the tree from flat node `src` over the nodes
/// flagged in `alive` (`None` is the full graph; a dead `src` reaches
/// nothing), each arc's length scaled by `1 + penalty[arc id]`
/// ([`Topology::arc_offset`]) when a penalty is given — monomorphized
/// away when not. With `targets` (ascending, distinct, all reachable from
/// `src`, or the run settles the whole component) it stops once they have
/// all settled.
///
/// **Why the labels are canonical.** Pops take the smallest `(dist,
/// node)` key and relaxations need a strict `<`. Stacked SS planes put
/// co-located satellites on zero-length links, so the pops are not the
/// global sort by `(dist, node)`: a cluster member reached only through
/// its cluster enters the heap when a co-located neighbor pops (see
/// [`Landmarks`]). What holds regardless is that the run is a pure
/// function of the graph: a node has one live entry, the entries present
/// at a pop are fixed by the pops before it, and a node keeps the label of
/// its first tied predecessor to pop. Hence a settled node's label and
/// predecessor chain are final, so a run cut short at its targets walks a
/// full run's paths; the alive filter is relaxation for relaxation the run
/// on [`Topology::masked`] (a masked neighbor list is the alive
/// subsequence of the intact one); and the tree repair reproduces a fresh
/// masked run under the condition on [`ShortestPathTree::repaired_paths`].
pub(crate) fn dijkstra(
    topology: &Topology,
    src: usize,
    alive: Option<&[bool]>,
    penalty: Option<&[f64]>,
    targets: Option<&[usize]>,
) -> ShortestPathTree {
    match penalty {
        None => settle(topology, src, alive, targets, |_, w| w),
        Some(p) => settle(topology, src, alive, targets, |arc, w| w * (1.0 + p[arc])),
    }
}

/// [`dijkstra`] with the arc length function `weight(arc, length)`.
fn settle(
    topology: &Topology,
    src: usize,
    alive: Option<&[bool]>,
    targets: Option<&[usize]>,
    weight: impl Fn(usize, f64) -> f64,
) -> ShortestPathTree {
    let n = topology.n_nodes();
    let mut dist = vec![f64::INFINITY; n];
    let mut prev = vec![usize::MAX; n];
    let mut heap = BinaryHeap::new();
    dist[src] = 0.0;
    if alive.is_none_or(|m| m[src]) {
        heap.push(heap_key(0.0, src));
    }
    let mut pending = targets.map_or(usize::MAX, <[usize]>::len);
    while pending > 0 {
        let Some(Reverse((bits, node))) = heap.pop() else { break };
        let d = f64::from_bits(bits);
        if d > dist[node] {
            continue;
        }
        if targets.is_some_and(|ts| ts.binary_search(&node).is_ok()) {
            pending -= 1;
        }
        let first_arc = topology.arc_offset(node);
        for (j, &(v, w)) in topology.neighbors(node).iter().enumerate() {
            if alive.is_some_and(|m| !m[v]) {
                continue;
            }
            let nd = d + weight(first_arc + j, w);
            if nd < dist[v] {
                dist[v] = nd;
                prev[v] = node;
                heap.push(heap_key(nd, v));
            }
        }
    }
    ShortestPathTree { src, dist, prev }
}

/// The hop list `src → dst` read back through the predecessor function
/// `prev` — the one path walk of every search here. `dst` must have been
/// reached.
fn walk(src: usize, dst: usize, prev: impl Fn(usize) -> usize) -> Vec<usize> {
    let mut hops: Vec<usize> =
        std::iter::successors(Some(dst), |&v| (v != src).then(|| prev(v))).collect();
    hops.reverse();
    hops
}

/// The flat index of a route endpoint.
fn flat_index(topology: &Topology, id: SatId) -> Result<usize> {
    topology.index_of(id).ok_or(LsnError::UnknownNode { plane: id.plane, slot: id.slot })
}

/// Flat hops as satellite ids.
fn hop_ids(topology: &Topology, hops: Vec<usize>) -> Vec<SatId> {
    hops.into_iter().map(|i| topology.id_of(i).expect("valid index")).collect()
}

/// Shortest-length path (km) between two satellites on a topology
/// snapshot. Returns hop list and length.
///
/// # Errors
/// [`LsnError::UnknownNode`] for unknown endpoints, [`LsnError::NoRoute`]
/// if disconnected.
pub fn shortest_path(topology: &Topology, from: SatId, to: SatId) -> Result<(Vec<SatId>, f64)> {
    let (src, dst) = (flat_index(topology, from)?, flat_index(topology, to)?);
    let (hops, km) = dijkstra(topology, src, None, None, Some(&[dst]))
        .flat_path_to(dst)
        .ok_or(LsnError::NoRoute)?;
    Ok((hop_ids(topology, hops), km))
}

/// Landmarks a [`Landmarks`] table holds (fewer only on graphs with fewer
/// distinct positions). Six cut a mega-constellation query to about a
/// seventh of Dijkstra's settled nodes for under 400 kB per 8k-node
/// slot; eight settle 10–30 % fewer nodes still but raised the
/// 10k-satellite benchmark point's peak memory by 2 MB more.
const LANDMARKS: usize = 6;

/// The heuristic's shrink: `h(v) = (1 − MARGIN) · max_L |d(L,t) − d(L,v)|`.
const MARGIN: f64 = 1e-9;

/// Rounding budget of the exactness argument, in units of
/// `f64::EPSILON · key` (see [`Landmarks`]): 3.5 times what the error
/// analysis needs.
const KEY_ROUNDING: f64 = 16.0;

/// ALT lower bounds for [`GuidedSearch`]: exact shortest-path distances
/// from a few landmark nodes, one full Dijkstra run each, stored
/// node-major (`dist[v · count + l]` is `d(landmark l, v)`). Landmarks
/// are chosen by deterministic farthest-point selection: the first is the
/// node farthest from node 0, each next one maximizes the distance to the
/// nearest landmark so far (an unreachable node counts as farthest, so
/// every component gets one; ties go to the lowest index).
///
/// By the triangle inequality `|d(L,t) − d(L,v)| ≤ d(v,t)` for every
/// landmark `L`, so `h0(v) = max_L |d(L,t) − d(L,v)|` — over the
/// landmarks with finite distances to both — is a *consistent* lower
/// bound: `h0(u) ≤ w(u,v) + h0(v)` on every link. The table stays valid
/// on every [`Topology::masked`] subgraph of the topology it was built
/// on: removing satellites only lengthens distances, and a subgraph's
/// links keep their lengths, so the intact bounds remain consistent lower
/// bounds there. One table per intact slot serves every degraded pass.
///
/// **Exactness.** The search must return [`shortest_path`]'s path, not
/// merely *a* shortest path: Dijkstra's predecessor of `v` is the
/// earliest popped of `v`'s *tied predecessors*, the nodes `u` with
/// `fl(d(u) + w(u,v)) = d(v)` that pop before `v`. Three rules give that.
///
/// 1. The search pops by key `g + h` with `h = (1 − MARGIN) · h0`. For
///    any chain `x → … → v` of tied predecessors whose links have total
///    length `W`, consistency of `h0` gives `key(v) − key(x) ≥ MARGIN · W`
///    in exact arithmetic, even while `g(v)` is still above its final
///    value. So a tied ancestor reached over at least one positive link
///    settles strictly before `v`, and `g(v)` is final when `v` settles.
/// 2. Zero-length links join co-located satellites (stacked planes) into
///    *clusters* at one distance, one bound and so one key. Dijkstra
///    settles a cluster by repeatedly popping its lowest-index node in
///    the heap, starting from the members with a tied predecessor across
///    a positive link. Rule 1 puts all of those in the heap before any
///    member pops, so the search settles every cluster in Dijkstra's
///    order too. Equal keys pop by smaller `g`, then by node, so a member
///    still holding a longer tentative distance waits for its cluster.
/// 3. A relaxation that ties the tentative distance exactly keeps the
///    predecessor Dijkstra pops first, by the rank `(dist.to_bits(),
///    piece, settle count)`. Within one distance Dijkstra interleaves the
///    clusters' pop sequences by their heads, and a merge by heads puts
///    `a` before `b` of another cluster exactly when the largest index
///    popped in `a`'s cluster up to `a` is the smaller. That index is
///    `piece`: the largest index of the settled nodes joined to the node
///    by zero-length links when it settles. (Any earlier pop of its
///    cluster with a larger index than all of them would have had to
///    reach them through that piece.) Without zero-length links `piece`
///    is the node itself and the rank is `(dist.to_bits(), node)`. Once
///    all tied predecessors have settled and relaxed `v`, `v` holds
///    Dijkstra's choice bit for bit, and no later relaxation can change
///    it.
///
/// Rule 1 needs the margin to beat floating-point rounding. With every
/// key, `g` and landmark distance at most `K`, a chain with `m` positive
/// links carries at most `3m + 6` roundings of `ε · K`
/// (`ε = f64::EPSILON / 2`): the chain sums of `g` (`m`) and of the
/// landmark distances (`2m`), the differences in `h0` (2), the shrink (2)
/// and the two key sums (2); a zero-length link rounds nothing. Since
/// `W ≥ m · w_min` over the positive links, the margin wins whenever
/// `MARGIN · w_min > 9 ε · K`. The table records the cap
/// `K = MARGIN · w_min / (16 · f64::EPSILON)`, where the margin is still
/// 3.5 times that rounding budget and every positive link is far too long
/// to vanish in a sum. A search whose next pop exceeds the cap — possible
/// on a masked subgraph whose detours outgrow the intact distances —
/// restarts without bounds. If the largest landmark distance already
/// exceeds it, i.e. the smallest positive link is below about `3.6e-6`
/// of that distance, the table holds no landmarks at all. Without bounds
/// `h ≡ 0`, the search pops in exactly Dijkstra's order and keeps the
/// first relaxation that reaches a node's final distance, as Dijkstra
/// does.
#[derive(Debug, Clone)]
pub struct Landmarks {
    n_nodes: usize,
    /// Landmarks held; 0 means no bounds.
    count: usize,
    /// `d(landmark l, v)` at `dist[v · count + l]`.
    dist: Vec<f64>,
    /// The largest key the exactness argument covers.
    key_cap: f64,
    /// Whether the topology has zero-length links (rule 2).
    zero_links: bool,
}

impl Landmarks {
    /// Selects the landmarks of `topology` and runs one full Dijkstra
    /// from each.
    pub fn build(topology: &Topology) -> Self {
        let n = topology.n_nodes();
        let lengths = || (0..n).flat_map(|u| topology.neighbors(u)).map(|&(_, w)| w);
        let w_min = lengths().filter(|&w| w > 0.0).fold(f64::INFINITY, f64::min);
        // No positive link: every search ends within one cluster.
        if !w_min.is_finite() {
            return Landmarks::unbounded(n);
        }
        let key_cap = MARGIN * w_min / (KEY_ROUNDING * f64::EPSILON);
        // Each column goes straight into the node-major table, so the
        // build holds one Dijkstra run at a time.
        let mut dist = vec![0.0; n * LANDMARKS];
        let mut nearest = dijkstra(topology, 0, None, None, None).dist;
        let mut count = 0;
        while count < LANDMARKS {
            // Ties keep the lowest index: `max_by` keeps the last maximum
            // of the reversed scan.
            let (far, gap) = nearest
                .iter()
                .enumerate()
                .rev()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .map(|(v, &d)| (v, d))
                .expect("a linked topology has nodes");
            // Every node already sits at a landmark's position.
            if count > 0 && gap == 0.0 {
                break;
            }
            let column = dijkstra(topology, far, None, None, None).dist;
            for (v, &d) in column.iter().enumerate() {
                if d.is_finite() && d > key_cap {
                    return Landmarks::unbounded(n);
                }
                dist[v * LANDMARKS + count] = d;
                nearest[v] = if count == 0 { d } else { nearest[v].min(d) };
            }
            count += 1;
        }
        if count < LANDMARKS {
            dist = dist.chunks(LANDMARKS).flat_map(|row| &row[..count]).copied().collect();
        }
        let zero_links = lengths().any(|w| w == 0.0);
        Landmarks { n_nodes: n, count, dist, key_cap, zero_links }
    }

    /// The table without bounds: searches through it pop in Dijkstra
    /// order.
    pub(crate) fn unbounded(n_nodes: usize) -> Self {
        Landmarks { n_nodes, count: 0, dist: Vec::new(), key_cap: f64::INFINITY, zero_links: false }
    }

    /// Landmark distances of node `v`.
    fn row(&self, v: usize) -> &[f64] {
        &self.dist[v * self.count..(v + 1) * self.count]
    }
}

/// How one [`GuidedSearch`] pass ended.
enum Pass {
    Reached,
    Unreachable,
    /// A key passed the landmarks' cap: redo without bounds.
    OverCap,
}

/// Reusable point-to-point search guided by [`Landmarks`] (A* with ALT
/// bounds), returning exactly [`shortest_path`]'s hop list and length
/// (see [`Landmarks`] for why). Its label arrays persist across searches
/// and each search resets only the entries it touched, so one instance
/// routes a whole flow list.
#[derive(Debug, Default)]
pub struct GuidedSearch {
    dist: Vec<f64>,
    prev: Vec<usize>,
    /// `h(v)`, written when `v` is first reached.
    bound: Vec<f64>,
    settled: Vec<bool>,
    /// `(piece, settle count)` of each settled node: its pop rank within
    /// its distance (rule 3 on [`Landmarks`]). Kept only on topologies
    /// with zero-length links.
    rank: Vec<(usize, usize)>,
    /// Union-find over settled nodes joined by zero-length links: parent,
    /// and the piece's largest index at its root.
    piece: Vec<(usize, usize)>,
    touched: Vec<usize>,
    /// Min-heap on `(key, g, node)`, as bit patterns.
    heap: BinaryHeap<Reverse<(u64, u64, usize)>>,
    /// `d(L, t)` per landmark of the current target.
    target: Vec<f64>,
    pops: usize,
}

impl GuidedSearch {
    /// An empty search; its buffers grow to the first topology searched.
    pub fn new() -> Self {
        GuidedSearch::default()
    }

    /// The shortest path `from → to` over the nodes of `topology` flagged
    /// in `alive` (`None` is the full graph), bounded by `landmarks`
    /// built on `topology`. Same answers as [`shortest_path`] on
    /// [`Topology::masked`]: dead neighbors are skipped, as the Dijkstra
    /// kernel skips them, and a dead `from` relaxes nothing.
    ///
    /// # Errors
    /// [`LsnError::UnknownNode`] for unknown endpoints, [`LsnError::NoRoute`]
    /// if disconnected.
    ///
    /// # Panics
    /// If `landmarks` was built over a different node count, or `alive`
    /// is shorter than it.
    pub fn shortest_path(
        &mut self,
        topology: &Topology,
        landmarks: &Landmarks,
        alive: Option<&[bool]>,
        from: SatId,
        to: SatId,
    ) -> Result<(Vec<SatId>, f64)> {
        let (src, dst) = (flat_index(topology, from)?, flat_index(topology, to)?);
        let (hops, km) =
            self.flat_path(topology, landmarks, alive, src, dst).ok_or(LsnError::NoRoute)?;
        Ok((hop_ids(topology, hops), km))
    }

    /// [`Self::shortest_path`] between flat node indices, `None` if
    /// disconnected; it panics as that does. The traffic assignment's
    /// entry.
    pub(crate) fn flat_path(
        &mut self,
        topology: &Topology,
        landmarks: &Landmarks,
        alive: Option<&[bool]>,
        src: usize,
        dst: usize,
    ) -> Option<(Vec<usize>, f64)> {
        assert_eq!(landmarks.n_nodes, topology.n_nodes(), "landmarks of another node layout");
        self.pops = 0;
        let mut pass = self.run(topology, landmarks, alive, landmarks.count > 0, src, dst);
        if matches!(pass, Pass::OverCap) {
            pass = self.run(topology, landmarks, alive, false, src, dst);
        }
        match pass {
            Pass::Reached => Some((walk(src, dst, |v| self.prev[v]), self.dist[dst])),
            Pass::Unreachable | Pass::OverCap => None,
        }
    }

    /// Nodes settled by the last [`Self::shortest_path`] call (both
    /// passes if it restarted without bounds) — the search's work count.
    pub fn settled(&self) -> usize {
        self.pops
    }

    /// One search, with the landmark bounds or (`bounded = false`) as
    /// plain Dijkstra.
    fn run(
        &mut self,
        topology: &Topology,
        landmarks: &Landmarks,
        alive: Option<&[bool]>,
        bounded: bool,
        src: usize,
        dst: usize,
    ) -> Pass {
        self.reset();
        let n = topology.n_nodes();
        if self.dist.len() != n {
            self.dist = vec![f64::INFINITY; n];
            self.prev = vec![usize::MAX; n];
            self.bound = vec![0.0; n];
            self.settled = vec![false; n];
        }
        self.target.clear();
        if bounded {
            self.target.extend_from_slice(landmarks.row(dst));
        }
        let cap = if bounded { landmarks.key_cap } else { f64::INFINITY };
        let zero_links = bounded && landmarks.zero_links;
        if zero_links && self.rank.len() != n {
            self.rank = vec![(0, 0); n];
            self.piece = vec![(0, 0); n];
        }
        // Rule 3's rank; without zero-length links every piece is its
        // node, and nodes never tie.
        let rank = |search: &Self, x: usize| if zero_links { search.rank[x] } else { (x, 0) };
        let h = self.reach(landmarks, src, 0.0, usize::MAX);
        self.heap.push(Reverse((h.to_bits(), 0.0f64.to_bits(), src)));
        while let Some(Reverse((key, _, u))) = self.heap.pop() {
            if self.settled[u] {
                continue;
            }
            if f64::from_bits(key) > cap {
                return Pass::OverCap;
            }
            self.settled[u] = true;
            self.pops += 1;
            if zero_links {
                self.rank[u] = (self.join_piece(topology, u), self.pops);
            }
            if u == dst {
                return Pass::Reached;
            }
            // Only the source can settle dead: it has no links.
            if alive.is_some_and(|m| !m[u]) {
                continue;
            }
            let du = self.dist[u];
            let ru = (du.to_bits(), rank(self, u));
            for &(v, w) in topology.neighbors(u) {
                if self.settled[v] || alive.is_some_and(|m| !m[v]) {
                    continue;
                }
                let nd = du + w;
                let cur = self.dist[v];
                if nd < cur {
                    let h = if cur == f64::INFINITY {
                        self.reach(landmarks, v, nd, u)
                    } else {
                        self.dist[v] = nd;
                        self.prev[v] = u;
                        self.bound[v]
                    };
                    self.heap.push(Reverse(((nd + h).to_bits(), nd.to_bits(), v)));
                } else if nd == cur && bounded {
                    let p = self.prev[v];
                    if ru < (self.dist[p].to_bits(), rank(self, p)) {
                        self.prev[v] = u;
                    }
                }
            }
        }
        Pass::Unreachable
    }

    /// Labels a first-reached node and returns its bound (0 when the
    /// search runs without bounds: `target` is empty).
    fn reach(&mut self, landmarks: &Landmarks, v: usize, dist: f64, prev: usize) -> f64 {
        self.touched.push(v);
        self.dist[v] = dist;
        self.prev[v] = prev;
        let mut h0 = 0.0f64;
        for (t, d) in self.target.iter().zip(landmarks.row(v)) {
            // A landmark unreachable from either end bounds nothing.
            let gap = (t - d).abs();
            if gap.is_finite() {
                h0 = h0.max(gap);
            }
        }
        self.bound[v] = (1.0 - MARGIN) * h0;
        self.bound[v]
    }

    /// Joins the just-settled `u` to the settled nodes it shares a
    /// zero-length link with and returns the joined piece's largest
    /// index.
    fn join_piece(&mut self, topology: &Topology, u: usize) -> usize {
        self.piece[u] = (u, u);
        for &(v, w) in topology.neighbors(u) {
            if w == 0.0 && self.settled[v] {
                let (a, b) = (self.root(u), self.root(v));
                if a != b {
                    let top = self.piece[a].1.max(self.piece[b].1);
                    self.piece[b].0 = a;
                    self.piece[a].1 = top;
                }
            }
        }
        let r = self.root(u);
        self.piece[r].1
    }

    /// The union-find root of `v`, halving the path on the way.
    fn root(&mut self, mut v: usize) -> usize {
        while self.piece[v].0 != v {
            let up = self.piece[self.piece[v].0].0;
            self.piece[v].0 = up;
            v = up;
        }
        v
    }

    /// Clears the labels the previous pass touched.
    fn reset(&mut self) {
        for v in self.touched.drain(..) {
            self.dist[v] = f64::INFINITY;
            self.prev[v] = usize::MAX;
            self.settled[v] = false;
        }
        self.heap.clear();
    }
}

/// The labels of one [`dijkstra`] run from one source, queryable for
/// every destination it settled: the incremental scorer's per-source
/// trees, and what every other caller of the kernel reads. Since a
/// settled node's label and predecessor chain are final, every answered
/// path is identical to a fresh per-pair [`shortest_path`] call.
#[derive(Debug, Clone)]
pub(crate) struct ShortestPathTree {
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
    /// The whole tree rooted at flat node `src`, optionally restricted to
    /// the `alive` nodes — identical to the unrestricted tree on
    /// [`Topology::masked`] of the same mask (see [`dijkstra`]). The
    /// incremental evaluator's full-recompute path.
    ///
    /// # Panics
    /// If `src` is out of range (callers pass validated flat indices).
    pub(crate) fn from_flat(topology: &Topology, src: usize, alive: Option<&[bool]>) -> Self {
        assert!(src < topology.n_nodes(), "flat source out of range");
        dijkstra(topology, src, alive, None, None)
    }

    /// The flat hop list and length to flat node `dst`, `None` if
    /// unreachable.
    pub(crate) fn flat_path_to(&self, dst: usize) -> Option<(Vec<usize>, f64)> {
        let d = self.dist[dst];
        d.is_finite().then(|| (walk(self.src, dst, |v| self.prev[v]), d))
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
    /// The repair is exact, not approximate (under the zero-length
    /// condition below): Dijkstra's output is a pure function of the graph
    /// (see [`dijkstra`]), so re-running it only over the *invalidated*
    /// region reproduces the full masked run bit for bit.
    /// The invalidated region is the dead nodes plus their tree
    /// descendants; every still-valid label outside it is final (its
    /// shortest path avoids the region), and any path re-entering the
    /// region must cross an alive edge from an unaffected node — so
    /// seeding the heap with those frontier nodes at their known distances
    /// explores exactly what a fresh run would. Relaxations into
    /// unaffected nodes are skipped: removals only lengthen distances and
    /// rounding is monotone, so they could never beat a final label. The
    /// region Dijkstra stops once every affected target is settled: the
    /// truncated run pops a prefix of the full run's pop sequence, and
    /// when a node pops its label and whole predecessor chain are final,
    /// so each returned path is bit-identical to `flat_path_to` on the
    /// fully repaired tree. Unaffected targets read straight from the
    /// preserved labels.
    ///
    /// **Zero-length links.** This also needs each distance's nodes to pop
    /// in the fresh run's relative order. With positive links both runs
    /// hold all of them before the first pops. A fresh run reaches a node
    /// across a zero-length link only when its co-located neighbor pops,
    /// but a seed is in the heap from the start and may pop earlier: that
    /// changes a label if the seed and another node of its distance tie
    /// exactly as predecessors of one region node, a length tie between
    /// two different positions that a hand-built graph can have. On +grid
    /// geometry the exact ties are those of co-located twins; the
    /// stacked-plane incremental proptest pins the repair there.
    #[expect(
        clippy::type_complexity,
        reason = "per target a path and its delay, or `None` if unreachable; `None` overall past `max_affected`"
    )]
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
            let d = label(t).0;
            d.is_finite().then(|| (walk(self.src, t, |v| label(v).1), d))
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
                seeds.push(heap_key(self.dist[u], u));
            }
        });
        let mut heap = BinaryHeap::from(seeds);
        let mut pending =
            targets.map_or(usize::MAX, |ts| ts.iter().filter(|&&t| bit_test(&region, t)).count());
        while pending > 0 {
            let Some(Reverse((bits, node))) = heap.pop() else {
                // Heap exhausted: the remaining affected targets are
                // unreachable under the mask (their labels stay ∞).
                break;
            };
            let d = f64::from_bits(bits);
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
                    heap.push(heap_key(nd, v));
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
/// one with the highest elevation above `min_elevation` \[rad\], if any,
/// ties to the lowest flat index. Satellites masked dead by the
/// snapshot's alive mask cannot serve. A plain scan of the whole fleet:
/// [`ServingIndex`] answers the same faster when many points attach.
pub fn serving_satellite(
    snapshot: &Snapshot<'_>,
    ground: GeoPoint,
    min_elevation: f64,
) -> Option<(SatId, f64)> {
    let g_eci = ground_eci(snapshot, ground);
    let mut best: Option<(SatId, f64)> = None;
    for (flat, id) in snapshot.ids().enumerate() {
        if let Some(elev) = visible_elevation(snapshot, g_eci, flat, min_elevation) {
            if best.is_none_or(|(_, be)| elev > be) {
                best = Some((id, elev));
            }
        }
    }
    best
}

/// A ground point's ECI position \[km\] at the snapshot's epoch.
fn ground_eci(snapshot: &Snapshot<'_>, ground: GeoPoint) -> Vec3 {
    ecef_to_eci(snapshot.epoch(), ground.to_unit_vector() * EARTH_RADIUS_KM)
}

/// The elevation \[rad\] of the satellite at `flat` over the ground
/// point at `g_eci` when it is alive and clears `min_elevation` — the
/// exact visibility test every attachment path runs.
fn visible_elevation(
    snapshot: &Snapshot<'_>,
    g_eci: Vec3,
    flat: usize,
    min_elevation: f64,
) -> Option<f64> {
    if !snapshot.is_alive_flat(flat) {
        return None;
    }
    let r = snapshot.position_flat(flat);
    let central = g_eci.angle_to(r);
    let elev = elevation_at_central_angle(r.norm() - EARTH_RADIUS_KM, central.max(1e-9));
    (elev >= min_elevation).then_some(elev)
}

/// A per-snapshot ground-attachment accelerator. It sorts the fleet by
/// declination and stores, per satellite, its unit position vector and
/// the cosine of its own visibility cap (from its own altitude, so a
/// low shell of a mixed-altitude catalog is pruned by its own tighter
/// cap). A query binary-searches the declination window `g_dec ±
/// max_band` — the central angle is at least the declination
/// difference — and inside it skips every satellite whose dot product
/// with the ground direction falls below its cosine bound. Only the
/// survivors run the exact elevation math.
///
/// Both filters are conservative, so the visible set is exactly
/// [`serving_satellite`]'s. A satellite that clears `min_elevation` has
/// central angle `≤ cap`, hence `dot ≥ cos(cap) > cos(cap + 1e-6) −
/// 1e-9`: the 1e-6 rad absorbs the rounding between the cap and the
/// exact central angle, the 1e-9 the rounding of the dot product. The
/// answer is the maximum by elevation descending, then flat index
/// ascending — the plain scan's first-wins flat-order maximum, whatever
/// order the window visits.
///
/// Build one per snapshot when answering many queries (traffic
/// assignment); for a single lookup the plain scan is cheaper.
#[derive(Debug, Clone)]
pub struct ServingIndex<'a> {
    snapshot: Snapshot<'a>,
    min_elevation: f64,
    /// Satellites sorted by declination, ties by flat index; empty when
    /// pruning is disabled and queries fall back to the full scan.
    sorted: Vec<Candidate>,
    /// The widest per-satellite band \[rad\]: visibility cap plus slack.
    max_band: f64,
}

/// One satellite of a [`ServingIndex`].
#[derive(Debug, Clone, Copy)]
struct Candidate {
    flat: usize,
    /// Declination \[rad\].
    dec: f64,
    /// Unit ECI position.
    unit: Vec3,
    /// `cos(cap + 1e-6) − 1e-9`: a smaller dot product with the ground
    /// direction cannot clear the mask.
    cos_bound: f64,
}

impl<'a> ServingIndex<'a> {
    /// Builds the index. Pruning needs a meaningful elevation mask
    /// (`0 < min_elevation < pi/2`) and a finite visibility cap for every
    /// satellite; for anything else the index degrades to the exact full
    /// scan.
    pub fn new(snapshot: Snapshot<'a>, min_elevation: f64) -> Self {
        let (sorted, max_band) = sorted_candidates(&snapshot, min_elevation).unwrap_or_default();
        ServingIndex { snapshot, min_elevation, sorted, max_band }
    }

    fn id(&self, flat: usize) -> SatId {
        sat_id_at(self.snapshot.plane_offsets(), flat).expect("flat index in range")
    }

    /// Visits every satellite that can serve `ground` as `(flat,
    /// elevation)`: the declination window filtered by the dot test, or
    /// the whole fleet in flat order without pruning.
    fn for_each_visible(&self, ground: GeoPoint, mut visit: impl FnMut(usize, f64)) {
        let g_eci = ground_eci(&self.snapshot, ground);
        let mut run = |flat: usize| {
            if let Some(elev) = visible_elevation(&self.snapshot, g_eci, flat, self.min_elevation) {
                visit(flat, elev);
            }
        };
        if self.sorted.is_empty() {
            (0..self.snapshot.total_sats()).for_each(run);
            return;
        }
        let g_unit = g_eci / g_eci.norm();
        let g_dec = g_unit.z.asin();
        let lo = self.sorted.partition_point(|c| c.dec < g_dec - self.max_band);
        let hi = self.sorted.partition_point(|c| c.dec <= g_dec + self.max_band);
        for c in &self.sorted[lo..hi] {
            if g_unit.dot(c.unit) >= c.cos_bound {
                run(c.flat);
            }
        }
    }

    /// The serving satellite for `ground` — identical to
    /// [`serving_satellite`] on this snapshot.
    pub fn query(&self, ground: GeoPoint) -> Option<(SatId, f64)> {
        self.best(ground).map(|(flat, elev)| (self.id(flat), elev))
    }

    /// [`Self::query`] as `(flat index, elevation)`.
    fn best(&self, ground: GeoPoint) -> Option<(usize, f64)> {
        let mut best: Option<(usize, f64)> = None;
        self.for_each_visible(ground, |flat, elev| {
            if best.is_none_or(|(bf, be)| elev > be || (elev == be && flat < bf)) {
                best = Some((flat, elev));
            }
        });
        best
    }

    /// The serving satellite of every point as a flat snapshot index.
    pub(crate) fn attach(&self, points: &[GeoPoint]) -> Vec<Option<usize>> {
        points.iter().map(|&p| self.best(p).map(|(flat, _)| flat)).collect()
    }

    /// Every satellite able to serve `ground`, best first: elevation
    /// descending, ties in ascending flat order. The head is
    /// [`Self::query`]'s answer, and under any stricter alive mask the
    /// first entry still alive is what an index rebuilt over
    /// `snapshot.with_alive(mask)` answers: positions and elevations
    /// never consult aliveness, and dropping entries from a first-wins
    /// maximum never changes which survivor wins. One list therefore
    /// serves the intact slot and every mask over it.
    pub fn ranked(&self, ground: GeoPoint) -> Vec<(SatId, f64)> {
        let mut visible = Vec::new();
        self.rank_flat(ground, &mut visible);
        visible.into_iter().map(|(flat, elev)| (self.id(flat), elev)).collect()
    }

    /// [`Self::ranked`] as `(flat index, elevation)`, written into
    /// `visible` (cleared first) so one buffer serves many points.
    pub(crate) fn rank_flat(&self, ground: GeoPoint, visible: &mut Vec<(usize, f64)>) {
        visible.clear();
        self.for_each_visible(ground, |flat, elev| visible.push((flat, elev)));
        visible
            .sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(Ordering::Equal).then(a.0.cmp(&b.0)));
    }
}

/// The fleet sorted by declination (ties by flat index) with the widest
/// band, `None` when the mask or some satellite's cap rules pruning out.
fn sorted_candidates(snapshot: &Snapshot<'_>, min_elevation: f64) -> Option<(Vec<Candidate>, f64)> {
    if !(min_elevation > 0.0 && min_elevation < std::f64::consts::FRAC_PI_2) {
        return None;
    }
    let mut sorted = Vec::with_capacity(snapshot.total_sats());
    let mut max_band = 0.0f64;
    for flat in 0..snapshot.total_sats() {
        let r = snapshot.position_flat(flat);
        let norm = r.norm();
        let cap =
            ssplane_astro::coverage::coverage_half_angle(norm - EARTH_RADIUS_KM, min_elevation);
        let band = cap.ok().filter(|c| c.is_finite())? + 1e-6;
        max_band = max_band.max(band);
        let cos_bound = band.cos() - 1e-9;
        sorted.push(Candidate { flat, dec: (r.z / norm).asin(), unit: r / norm, cos_bound });
    }
    sorted.sort_unstable_by(|a, b| a.dec.total_cmp(&b.dec).then(a.flat.cmp(&b.flat)));
    Some((sorted, max_band))
}

/// The length \[km\] and propagation delay \[ms\] of a ground-to-ground
/// route: `isl_km` over ISLs from the serving satellite at flat index `s`
/// to the one at `d`, completed by the up/down link lengths from `src`
/// and to `dst` at the snapshot's epoch.
pub(crate) fn ground_route_km_ms(
    snapshot: &Snapshot<'_>,
    src: GeoPoint,
    dst: GeoPoint,
    (s, d): (usize, usize),
    isl_km: f64,
) -> (f64, f64) {
    let (t, position) = (snapshot.epoch(), |flat| snapshot.position_flat(flat));
    let up = (position(s) - ecef_to_eci(t, src.to_unit_vector() * EARTH_RADIUS_KM)).norm();
    let down = (position(d) - ecef_to_eci(t, dst.to_unit_vector() * EARTH_RADIUS_KM)).norm();
    let length_km = isl_km + up + down;
    (length_km, length_km / SPEED_OF_LIGHT_KM_S * 1e3)
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
    let flat = |id| snapshot.flat_index(id).expect("a serving satellite of the snapshot");
    let ends = (flat(s_sat), flat(d_sat));
    let (length_km, delay_ms) = ground_route_km_ms(snapshot, src, dst, ends, isl_km);
    Ok(Route { hops, delay_ms, length_km })
}

/// Number of *handoffs* along one flow's per-slot serving pairs
/// (first/last hop, `None` where the flow is unroutable): transitions
/// where the pair changed between consecutive routable slots. An
/// unroutable slot resets the comparison: re-acquiring service on a
/// different pair after an outage gap is a fresh attachment, not a
/// handoff, so `route → gap → route` never counts — only strictly
/// adjacent routable slots do.
pub fn count_handoffs(ends: impl IntoIterator<Item = Option<(SatId, SatId)>>) -> usize {
    let mut count = 0;
    let mut prev = None;
    for pair in ends {
        if let (Some(p), Some(e)) = (prev, pair) {
            count += usize::from(p != e);
        }
        prev = pair;
    }
    count
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

    /// Number of *handoffs* of the reference pair ([`count_handoffs`]
    /// over each slot's first/last hop).
    pub fn handoffs(&self) -> usize {
        count_handoffs(self.routes.iter().map(|r| {
            r.as_ref().map(|r| {
                (*r.hops.first().expect("route has hops"), *r.hops.last().expect("route has hops"))
            })
        }))
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
    use crate::topology::{Constellation, Link};
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
        let tree = ShortestPathTree::from_flat(&topo, topo.index_of(from).unwrap(), None);
        for p in 0..4 {
            for s in 0..10 {
                let to = SatId { plane: p, slot: s };
                let flat = tree.flat_path_to(topo.index_of(to).unwrap()).map(|(hops, km)| {
                    (hops.into_iter().map(|i| topo.id_of(i).unwrap()).collect::<Vec<_>>(), km)
                });
                match (shortest_path(&topo, from, to), flat) {
                    (Ok((hops_a, km_a)), Some((hops_b, km_b))) => {
                        assert_eq!(hops_a, hops_b, "to {to:?}");
                        assert_eq!(km_a.to_bits(), km_b.to_bits(), "to {to:?}");
                    }
                    (Err(LsnError::NoRoute), None) => {}
                    (a, b) => panic!("divergent outcomes to {to:?}: {a:?} vs {b:?}"),
                }
            }
        }
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The integer heap key orders exactly as the float one did:
        /// `(partial_cmp(dist), node)`, reversed for the min-heap, over
        /// non-negative finite distances (ties and zero included) and +∞.
        #[test]
        fn integer_heap_key_matches_float_order(
            raw in collection::vec((0usize..4, 0.0f64..1e7, 0usize..40), 2usize..40),
        ) {
            let items: Vec<(f64, usize)> = raw
                .iter()
                .map(|&(kind, d, node)| {
                    let dist = match kind {
                        0 => f64::INFINITY,
                        1 => 0.0,
                        2 => (d / 1e6).floor(),
                        _ => d,
                    };
                    (dist, node)
                })
                .collect();
            for &(da, na) in &items {
                for &(db, nb) in &items {
                    let want = db.partial_cmp(&da).unwrap().then(nb.cmp(&na));
                    let got = heap_key(da, na).cmp(&heap_key(db, nb));
                    prop_assert_eq!(got, want, "{:?} vs {:?}", (da, na), (db, nb));
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
        // (min_elevation 0 disables the declination window) must answer
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
    fn landmarks_cut_settled_nodes_below_a_third_of_dijkstra() {
        // A bound that silently degrades to zero stays exact but settles
        // as many nodes as plain Dijkstra: pin the work, not only the
        // answers, on a fixed 24-plane Walker shell.
        let pattern =
            ssplane_astro::walker::WalkerDelta::new(550.0, 53f64.to_radians(), 528, 24, 1)
                .unwrap()
                .generate()
                .unwrap();
        let c = Constellation::from_planes(
            Epoch::J2000,
            pattern.chunks(22).map(<[_]>::to_vec).collect(),
        )
        .unwrap();
        let series = single(&c, Epoch::J2000 + 600.0);
        let topo = Topology::plus_grid(&series.snapshot(0), Default::default()).unwrap();
        let n = topo.n_nodes();
        let landmarks = Landmarks::build(&topo);
        let plain = Landmarks::unbounded(n);
        let mut search = GuidedSearch::new();
        let mut rng = StdRng::seed_from_u64(24);
        let (mut guided_pops, mut plain_pops) = (0usize, 0usize);
        for _ in 0..200 {
            let from = topo.id_of(rng.gen_index(n)).unwrap();
            let to = topo.id_of(rng.gen_index(n)).unwrap();
            let want = shortest_path(&topo, from, to).unwrap();
            assert_eq!(search.shortest_path(&topo, &plain, None, from, to).unwrap(), want);
            plain_pops += search.settled();
            assert_eq!(search.shortest_path(&topo, &landmarks, None, from, to).unwrap(), want);
            guided_pops += search.settled();
        }
        assert!(
            3 * guided_pops < plain_pops,
            "guided search settled {guided_pops} nodes, plain Dijkstra {plain_pops}"
        );
    }

    #[test]
    fn stale_distance_hidden_by_key_rounding_waits_for_its_cluster() {
        // Nodes 0 and 1 are co-located (a zero-length link) at distance 1
        // from the source 3, but 0 is first reached through 2 at
        // 1 + 1e-12. Next to the bound (~1e5) that excess vanishes from
        // the key, so 0's stale entry ties 1's; popping it by node index
        // would settle 0 at the wrong distance. Equal keys pop by `g`.
        let id = |v: usize| SatId { plane: 0, slot: v };
        let link = |a, b, length_km| Link { a: id(a), b: id(b), length_km };
        let topo = Topology::from_links(
            vec![
                link(3, 1, 1.0),
                link(3, 2, 0.5),
                link(2, 0, 0.5 + 1e-12),
                link(1, 0, 0.0),
                link(0, 4, 1e5),
            ],
            vec![0, 5],
        );
        let landmarks = Landmarks::build(&topo);
        assert!(landmarks.count > 0, "the bound must be on for the keys to round");
        let want = shortest_path(&topo, id(3), id(4)).unwrap();
        assert_eq!(want.0, vec![id(3), id(1), id(0), id(4)]);
        let got = GuidedSearch::new().shortest_path(&topo, &landmarks, None, id(3), id(4)).unwrap();
        assert_eq!((got.0, got.1.to_bits()), (want.0, want.1.to_bits()));
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
        let landmarks = Landmarks::build(&topo);
        let mut search = GuidedSearch::new();
        for (from, to) in [(bad, SatId { plane: 0, slot: 0 }), (SatId { plane: 0, slot: 0 }, bad)] {
            assert!(matches!(
                search.shortest_path(&topo, &landmarks, None, from, to),
                Err(LsnError::UnknownNode { .. })
            ));
        }
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

    /// Every satellite clearing `min_elevation` over `ground`, sorted by
    /// elevation descending then flat ascending, from the plain scan.
    fn brute_ranked(snap: &Snapshot<'_>, ground: GeoPoint, min_elev: f64) -> Vec<(SatId, f64)> {
        let g_eci = ground_eci(snap, ground);
        let mut visible: Vec<(SatId, f64)> = snap
            .ids()
            .enumerate()
            .filter_map(|(flat, id)| Some((id, visible_elevation(snap, g_eci, flat, min_elev)?)))
            .collect();
        visible.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        visible
    }

    #[test]
    fn index_keeps_satellites_exactly_at_the_mask() {
        // A satellite whose elevation *is* the mask sits on the edge of
        // both prefilters, where only the slack keeps it. Setting the
        // mask to each visible satellite's exact elevation in turn puts
        // one satellite on that edge per index.
        let c = constellation(8, 25);
        let series = single(&c, Epoch::J2000 + 4321.0);
        let snap = series.snapshot(0);
        let mut edges = 0;
        for lat in [-80.0, -45.0, -10.0, 0.0, 20.0, 52.0, 85.0] {
            for lon in [-150.0, -60.0, 0.0, 75.0, 160.0] {
                let g = GeoPoint::from_degrees(lat, lon);
                let g_eci = ground_eci(&snap, g);
                for flat in 0..snap.total_sats() {
                    let Some(elev) = visible_elevation(&snap, g_eci, flat, 1e-3) else {
                        continue;
                    };
                    let index = ServingIndex::new(snap, elev);
                    let ranked = index.ranked(g);
                    let id = sat_id_at(snap.plane_offsets(), flat).unwrap();
                    assert!(ranked.contains(&(id, elev)), "{id:?} dropped at ({lat}, {lon})");
                    assert_eq!(ranked, brute_ranked(&snap, g, elev), "at ({lat}, {lon})");
                    assert_eq!(index.query(g), serving_satellite(&snap, g, elev));
                    edges += 1;
                }
            }
        }
        assert!(edges >= 100, "only {edges} edge cases exercised");
    }

    #[test]
    fn twin_satellites_tie_to_the_lower_flat_index() {
        // The second half of the fleet repeats the first plane for plane,
        // so every satellite has a twin at the same position and every
        // elevation ties exactly: the index must still answer the plain
        // scan's first-wins winner, the twin with the lower flat index.
        let epoch = Epoch::J2000;
        let orbit = sun_synchronous_orbit(560.0).unwrap();
        let half: Vec<Vec<OrbitalElements>> = (0..5)
            .map(|p| orbit.with_ltan(8.0 + p as f64).plane_elements(epoch, 20).unwrap())
            .collect();
        let c = Constellation::new(epoch, [half.clone(), half].concat()).unwrap();
        let series = single(&c, epoch + 900.0);
        let snap = series.snapshot(0);
        let index = ServingIndex::new(snap, 20f64.to_radians());
        let mut served = 0;
        for flat in (0..100).step_by(3) {
            let (g, _) =
                ssplane_astro::frames::subsatellite_point(snap.epoch(), snap.position_flat(flat))
                    .unwrap();
            let want = serving_satellite(&snap, g, 20f64.to_radians());
            assert_eq!(index.query(g), want, "sub-point of flat {flat}");
            let (id, _) = want.expect("a sub-point is served");
            assert!(id.plane < 5, "the lower twin wins, not {id:?}");
            let ranked = index.ranked(g);
            assert_eq!(ranked[0].1, ranked[1].1, "twins tie");
            assert_eq!(ranked, brute_ranked(&snap, g, 20f64.to_radians()));
            served += 1;
        }
        assert!(served > 30);
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
