//! Percolation & robustness analytics over masked ISL topologies.
//!
//! The paper's survivability argument is about how gracefully
//! connectivity degrades, yet point metrics (routed fraction, largest
//! component at one budget) cannot see the *masking effect*: grid
//! redundancy hides targeted-attack damage until a critical failure
//! fraction — ~15% of the fleet at max degree 2 up to ~25% at degree 5
//! in the walker-percolation literature — and then the giant component
//! collapses. This module provides the phase-transition machinery:
//!
//! * a [`ClusterTracker`] — an incremental union-find over a
//!   [`Topology`]'s flat node space that maintains the giant-component
//!   size, the sum of squared component sizes, and the component count
//!   under node *additions*, so a whole loss-fraction sweep replays one
//!   removal ordering backwards in near-linear total time instead of
//!   recomputing components per step;
//! * [`percolation_sweep`] — the sweep itself: per loss step, the
//!   giant-component fraction, the susceptibility χ (finite-cluster
//!   second moment per alive node), and the mean finite-cluster size,
//!   collected into a [`PercolationCurve`];
//! * removal orderings mirroring the [`crate::disruption`] attack
//!   registry: [`plane_spread_ordering`] (targeted whole-plane loss at
//!   maximal spread — the sweep form of `leading-planes`),
//!   [`random_ordering`] (seeded uniform loss — `random-sats`),
//!   [`keyed_ordering`] (ascending scalar key, e.g. declination distance
//!   from a debris-band center — `declination-band`; a test reference),
//!   and
//!   [`priority_ordering`] (a searched destroyed set first, then a base
//!   ordering — the `optimized` attack as a sweep);
//! * [`PercolationCurve::masking_threshold`] — the critical loss
//!   fraction where the giant component stops tracking the surviving
//!   population (the drop versus the loss-free baseline exceeds a
//!   configurable gap), and
//!   [`PercolationCurve::threshold_vs`] for the drop versus an explicit
//!   random-loss baseline curve;
//! * [`algebraic_connectivity`] — λ₂ of the masked graph Laplacian via
//!   a deflated power iteration with a seeded deterministic start vector
//!   and fixed tolerance, so reports stay byte-reproducible across runs
//!   and thread counts without any external eigensolver;
//! * [`collapse_score`] — the scalar the attack optimizer minimizes
//!   under `attack.objective = "masking-threshold"`: the masking
//!   threshold of a removal ordering plus a sub-quantum mean-giant
//!   tie-breaker, so greedy search can rank candidates whose quantized
//!   thresholds tie.
//!
//! Everything here is pure sequential arithmetic over prebuilt
//! topologies: no re-propagation, no randomness beyond explicitly
//! seeded orderings and start vectors, and no threading — determinism
//! is structural.

use crate::topology::Topology;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Default loss-fraction steps of a percolation sweep (33 samples
/// including the intact and fully-removed endpoints).
pub const DEFAULT_PERCOLATION_STEPS: usize = 32;

/// Default giant-component gap that declares the masking regime broken.
pub const DEFAULT_MASKING_GAP: f64 = 0.1;

/// The seed of the λ₂ power iteration's start vector ("lambda2").
const LAMBDA2_SEED: u64 = 0x6C61_6D62_6461_3200;

/// Incremental union-find over a topology's flat node space, tracking
/// the cluster statistics a percolation sweep samples: giant-component
/// size, sum of squared component sizes, and component count. Nodes
/// start *inactive* (removed); `ClusterTracker::activate` brings one
/// into service and `ClusterTracker::union` merges components — the
/// sweep replays a removal ordering backwards through these two calls.
#[derive(Debug, Clone)]
pub struct ClusterTracker {
    parent: Vec<usize>,
    size: Vec<u64>,
    active: Vec<bool>,
    n_active: usize,
    n_components: usize,
    largest: u64,
    sum_sq: u64,
}

/// One sample of a [`ClusterTracker`]'s state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterStats {
    /// Nodes in service.
    pub active: usize,
    /// Connected components among them.
    pub components: usize,
    /// Largest component size.
    pub largest: usize,
    /// Sum of squared component sizes (the percolation second moment,
    /// giant included).
    pub sum_sq: u64,
}

impl ClusterStats {
    /// Susceptibility χ: the finite-cluster (giant excluded) second
    /// moment per active node — the quantity that peaks at the
    /// percolation transition. `0` with nobody active.
    pub fn susceptibility(&self) -> f64 {
        if self.active == 0 {
            return 0.0;
        }
        let finite_sq = self.sum_sq - crate::cast::count_u64(self.largest).pow(2);
        finite_sq as f64 / self.active as f64
    }

    /// Mean finite-cluster size `Σs²/Σs` over the non-giant components
    /// (`0` when the giant is everything).
    pub fn mean_finite_cluster(&self) -> f64 {
        let finite_nodes = self.active - self.largest;
        if finite_nodes == 0 {
            return 0.0;
        }
        let finite_sq = self.sum_sq - crate::cast::count_u64(self.largest).pow(2);
        finite_sq as f64 / finite_nodes as f64
    }
}

impl ClusterTracker {
    /// A tracker over `n` nodes, all inactive.
    pub fn new(n: usize) -> ClusterTracker {
        ClusterTracker {
            parent: (0..n).collect(),
            size: vec![0; n],
            active: vec![false; n],
            n_active: 0,
            n_components: 0,
            largest: 0,
            sum_sq: 0,
        }
    }

    /// A tracker with every `alive` node active and every alive–alive
    /// link of `topology` unioned — the one-shot (non-incremental) form
    /// the equivalence tests pin the sweep against.
    ///
    /// # Panics
    /// If `alive.len()` is not the node count.
    pub fn from_alive(topology: &Topology, alive: &[bool]) -> ClusterTracker {
        assert_eq!(alive.len(), topology.n_nodes(), "alive mask length mismatch");
        let mut tracker = ClusterTracker::new(topology.n_nodes());
        for (v, &a) in alive.iter().enumerate() {
            if a {
                tracker.activate(v);
            }
        }
        for (a, b) in topology.edges() {
            if alive[a] && alive[b] {
                tracker.union(a, b);
            }
        }
        tracker
    }

    /// Total nodes (active or not).
    pub fn n_nodes(&self) -> usize {
        self.parent.len()
    }

    /// Whether node `v` is in service.
    pub fn is_active(&self, v: usize) -> bool {
        self.active[v]
    }

    /// Brings node `v` into service as its own singleton component
    /// (no-op if already active).
    fn activate(&mut self, v: usize) {
        if self.active[v] {
            return;
        }
        self.active[v] = true;
        self.parent[v] = v;
        self.size[v] = 1;
        self.n_active += 1;
        self.n_components += 1;
        self.sum_sq += 1;
        self.largest = self.largest.max(1);
    }

    fn find(&mut self, mut v: usize) -> usize {
        // Path halving: every probe links v to its grandparent.
        while self.parent[v] != v {
            self.parent[v] = self.parent[self.parent[v]];
            v = self.parent[v];
        }
        v
    }

    /// Merges the components of two active nodes (no-op if already
    /// together), updating the tracked statistics: merging sizes `a` and
    /// `b` adds `2ab` to the second moment.
    ///
    /// # Panics
    /// If either node is inactive.
    fn union(&mut self, a: usize, b: usize) {
        assert!(self.active[a] && self.active[b], "union of an inactive node");
        let (mut ra, mut rb) = (self.find(a), self.find(b));
        if ra == rb {
            return;
        }
        if self.size[ra] < self.size[rb] {
            std::mem::swap(&mut ra, &mut rb);
        }
        let (sa, sb) = (self.size[ra], self.size[rb]);
        self.parent[rb] = ra;
        self.size[ra] = sa + sb;
        self.n_components -= 1;
        self.sum_sq += 2 * sa * sb;
        self.largest = self.largest.max(sa + sb);
    }

    /// The current cluster statistics.
    pub fn stats(&self) -> ClusterStats {
        ClusterStats {
            active: self.n_active,
            components: self.n_components,
            largest: crate::cast::count_usize(self.largest),
            sum_sq: self.sum_sq,
        }
    }
}

/// The van der Corput radical inverse of `i` in base 2 — the key behind
/// [`spread_order`]'s maximal-spacing visit sequence.
fn radical_inverse(mut i: usize) -> f64 {
    let mut f = 0.5;
    let mut r = 0.0;
    while i > 0 {
        if i & 1 == 1 {
            r += f;
        }
        f *= 0.5;
        i >>= 1;
    }
    r
}

/// A maximal-spread visiting order of `0..n`: indices sorted by their
/// bit-reversal (van der Corput) key, so every prefix is spread as
/// evenly as possible across the range — for power-of-two `n` the
/// prefixes reproduce the strided sets of
/// [`crate::disruption::strided_plane_indices`] exactly, and
/// approximate them otherwise. This is the sweep form of the
/// `leading-planes` attack: each added plane lands mid-way between the
/// planes already gone, the strongest whole-plane schedule against a
/// +grid.
fn spread_order(n: usize) -> Vec<usize> {
    let mut keyed: Vec<(f64, usize)> = (0..n).map(|i| (radical_inverse(i), i)).collect();
    keyed.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    keyed.into_iter().map(|(_, i)| i).collect()
}

/// Targeted whole-plane removal ordering: planes visited in
/// `spread_order`, each plane's slots removed consecutively.
pub fn plane_spread_ordering(topology: &Topology) -> Vec<usize> {
    let offsets = topology.plane_offsets();
    spread_order(topology.n_planes()).into_iter().flat_map(|p| offsets[p]..offsets[p + 1]).collect()
}

/// Seeded uniform-random removal ordering over `n` nodes: a full
/// Fisher–Yates shuffle through the shared [`Rng::gen_index`] recipe, so
/// the random-loss baseline is byte-reproducible per seed.
pub fn random_ordering(n: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    for k in 0..n.saturating_sub(1) {
        let j = k + rng.gen_index(n - k);
        order.swap(k, j);
    }
    order
}

/// Removal ordering by ascending scalar key (ties by flat index), e.g.
/// each satellite's declination distance from a debris-band center. No
/// runner stage sweeps it; the sweep proptests use it as the reference
/// non-targeted, non-random ordering.
pub fn keyed_ordering(keys: &[f64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..keys.len()).collect();
    order.sort_unstable_by(|&a, &b| keys[a].total_cmp(&keys[b]).then(a.cmp(&b)));
    order
}

/// A removal ordering that takes `priority` nodes first (in the given
/// order, duplicates and out-of-range entries skipped) and then the
/// remaining nodes of `base` in base order — how a searched destroyed
/// set (the `optimized` attack) becomes a sweep: its victims lead, and
/// the targeted plane schedule finishes the curve.
pub fn priority_ordering(priority: &[usize], base: &[usize]) -> Vec<usize> {
    let n = base.len();
    let mut taken = vec![false; n];
    let mut order = Vec::with_capacity(n);
    for &v in priority {
        if v < n && !taken[v] {
            taken[v] = true;
            order.push(v);
        }
    }
    for &v in base {
        if !taken[v] {
            taken[v] = true;
            order.push(v);
        }
    }
    order
}

/// One percolation phase-transition curve: per loss step, the sampled
/// cluster statistics of the survivors under one removal ordering.
#[derive(Debug, Clone, PartialEq)]
pub struct PercolationCurve {
    /// Total nodes of the swept topology.
    pub n_nodes: usize,
    /// Loss fraction per step (`k / steps`, including both endpoints).
    pub loss_fraction: Vec<f64>,
    /// Nodes removed per step (`⌊k·n/steps⌋` — exact integer schedule).
    pub removed: Vec<usize>,
    /// Largest-component size over the *total* node count per step.
    pub giant_fraction: Vec<f64>,
    /// Susceptibility χ per step ([`ClusterStats::susceptibility`]).
    pub susceptibility: Vec<f64>,
    /// Mean finite-cluster size per step
    /// ([`ClusterStats::mean_finite_cluster`]).
    pub mean_finite_cluster: Vec<f64>,
}

impl PercolationCurve {
    /// Samples on the curve (steps + 1).
    pub fn len(&self) -> usize {
        self.loss_fraction.len()
    }

    /// Whether the curve has no samples.
    pub fn is_empty(&self) -> bool {
        self.loss_fraction.is_empty()
    }

    /// Fraction of nodes still in service at step `k`.
    fn alive_fraction(&self, k: usize) -> f64 {
        if self.n_nodes == 0 {
            return 0.0;
        }
        (self.n_nodes - self.removed[k]) as f64 / self.n_nodes as f64
    }

    /// Mean giant-component fraction over the sweep — the area under the
    /// degradation curve (strictly below 1 for any non-empty topology,
    /// since the final step removes everybody).
    pub fn mean_giant(&self) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        self.giant_fraction.iter().sum::<f64>() / self.len() as f64
    }

    /// The masking threshold against the loss-free baseline: the
    /// smallest loss fraction whose giant-component fraction falls more
    /// than `gap` below the surviving-population fraction — the point
    /// where redundancy stops hiding the damage. `None` if masking never
    /// breaks over the sweep.
    pub fn masking_threshold(&self, gap: f64) -> Option<f64> {
        (0..self.len())
            .find(|&k| self.alive_fraction(k) - self.giant_fraction[k] > gap)
            .map(|k| self.loss_fraction[k])
    }

    /// The masking threshold against an explicit baseline curve (same
    /// sweep grid — typically the seeded random-loss ordering): the
    /// smallest loss fraction where this curve's giant component falls
    /// more than `gap` below the baseline's. `None` if it never does.
    ///
    /// # Panics
    /// If the curves have different lengths.
    pub fn threshold_vs(&self, baseline: &PercolationCurve, gap: f64) -> Option<f64> {
        assert_eq!(self.len(), baseline.len(), "curves must share the sweep grid");
        (0..self.len())
            .find(|&k| baseline.giant_fraction[k] - self.giant_fraction[k] > gap)
            .map(|k| self.loss_fraction[k])
    }

    /// The susceptibility peak as `(loss fraction, χ)` — the transition
    /// point estimate. Ties resolve to the earliest step.
    pub fn chi_peak(&self) -> (f64, f64) {
        let mut best = 0usize;
        for k in 1..self.len() {
            if self.susceptibility[k] > self.susceptibility[best] {
                best = k;
            }
        }
        if self.is_empty() {
            (0.0, 0.0)
        } else {
            (self.loss_fraction[best], self.susceptibility[best])
        }
    }
}

/// Sweeps loss fraction `0..=1` in `steps` increments under one removal
/// ordering, replaying the ordering *backwards* through a
/// [`ClusterTracker`]: the sweep starts from the fully-removed state and
/// re-activates survivors in reverse removal order, so the whole curve
/// costs one pass over nodes and edges (union-find cannot split
/// components, but it never has to — addition order is removal order
/// reversed). Step `k` removes exactly `⌊k·n/steps⌋` nodes, so every
/// sample equals a from-scratch recomputation over the same prefix mask
/// — the equivalence the proptests pin.
///
/// # Panics
/// If `order` is not a permutation-sized cover of the node space, or
/// `steps == 0`.
pub fn percolation_sweep(topology: &Topology, order: &[usize], steps: usize) -> PercolationCurve {
    let n = topology.n_nodes();
    assert_eq!(order.len(), n, "removal ordering must cover every node");
    assert!(steps >= 1, "a sweep needs at least one step");
    let points = steps + 1;
    let mut curve = PercolationCurve {
        n_nodes: n,
        loss_fraction: vec![0.0; points],
        removed: vec![0; points],
        giant_fraction: vec![0.0; points],
        susceptibility: vec![0.0; points],
        mean_finite_cluster: vec![0.0; points],
    };
    let mut tracker = ClusterTracker::new(n);
    let mut j = n; // survivors are order[j..]
    for k in (0..points).rev() {
        let target = k * n / steps;
        while j > target {
            j -= 1;
            let v = order[j];
            tracker.activate(v);
            for &(nb, _) in topology.neighbors(v) {
                if tracker.is_active(nb) {
                    tracker.union(v, nb);
                }
            }
        }
        let stats = tracker.stats();
        curve.loss_fraction[k] = k as f64 / steps as f64;
        curve.removed[k] = target;
        curve.giant_fraction[k] = if n == 0 { 0.0 } else { stats.largest as f64 / n as f64 };
        curve.susceptibility[k] = stats.susceptibility();
        curve.mean_finite_cluster[k] = stats.mean_finite_cluster();
    }
    curve
}

/// Configuration of the λ₂ power iteration. Defaults converge the
/// closed-form test graphs to ~1e-8 and keep mega-constellation
/// Laplacians (whose spectral gap is tiny) bounded by the iteration cap
/// — both deterministically, since every parameter is fixed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Lambda2Config {
    /// Convergence tolerance on the Rayleigh-quotient estimate between
    /// iterations.
    pub tolerance: f64,
    /// Iteration cap (the cost bound at mega-constellation scale).
    pub max_iterations: usize,
    /// Seed of the deterministic start vector.
    pub seed: u64,
}

impl Default for Lambda2Config {
    fn default() -> Self {
        Lambda2Config { tolerance: 1e-11, max_iterations: 4000, seed: LAMBDA2_SEED }
    }
}

/// Algebraic connectivity λ₂ (the Fiedler value) of the graph Laplacian
/// restricted to the `alive` nodes, via a deflated power iteration — no
/// external eigensolver, no randomness beyond the seeded start vector,
/// no threading: byte-reproducible across runs and thread counts.
///
/// The iteration runs on `M = cI − L` with `c = 2·d_max` (a Gershgorin
/// upper bound on the Laplacian spectrum, so `M ⪰ 0`); the all-ones
/// kernel vector of `L` is projected out each step, leaving `c − λ₂` as
/// the dominant eigenvalue. A disconnected (or empty, or single-node)
/// alive set returns exactly `0.0` — detected combinatorially through a
/// [`ClusterTracker`], not through the iteration's tolerance.
///
/// # Panics
/// If `alive.len()` is not the node count.
pub fn algebraic_connectivity(topology: &Topology, alive: &[bool], config: &Lambda2Config) -> f64 {
    assert_eq!(alive.len(), topology.n_nodes(), "alive mask length mismatch");
    // Compact the alive nodes to 0..m.
    let mut compact = vec![usize::MAX; topology.n_nodes()];
    let mut nodes = Vec::new();
    for (v, &a) in alive.iter().enumerate() {
        if a {
            compact[v] = nodes.len();
            nodes.push(v);
        }
    }
    let m = nodes.len();
    if m <= 1 {
        return 0.0;
    }
    let tracker = ClusterTracker::from_alive(topology, alive);
    if tracker.stats().components > 1 {
        return 0.0;
    }
    // Compact unweighted adjacency (the Laplacian convention the
    // closed-form spectra use).
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); m];
    for (a, b) in topology.edges() {
        if alive[a] && alive[b] {
            adj[compact[a]].push(compact[b]);
            adj[compact[b]].push(compact[a]);
        }
    }
    let d_max = adj.iter().map(Vec::len).max().unwrap_or(0);
    let c = 2.0 * d_max as f64;
    if c <= 0.0 {
        // m > 1 and connected implies edges exist; defensive only.
        return 0.0;
    }
    // Seeded start vector, deflated against the ones kernel.
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut v: Vec<f64> = (0..m).map(|_| rng.gen::<f64>() - 0.5).collect();
    let project_and_normalize = |v: &mut Vec<f64>| -> bool {
        let mean = v.iter().sum::<f64>() / v.len() as f64;
        for x in v.iter_mut() {
            *x -= mean;
        }
        let norm = v.iter().map(|x| x * x).sum::<f64>().sqrt();
        if norm < 1e-300 {
            return false;
        }
        for x in v.iter_mut() {
            *x /= norm;
        }
        true
    };
    if !project_and_normalize(&mut v) {
        // The random vector collapsed onto the kernel (vanishingly
        // unlikely); fall back to a deterministic non-kernel vector.
        v = (0..m).map(|i| if i == 0 { 1.0 } else { 0.0 }).collect();
        project_and_normalize(&mut v);
    }
    let mut estimate = f64::NAN;
    for _ in 0..config.max_iterations {
        // w = (cI − L) v = (c − d_i) v_i + Σ_{j∈N(i)} v_j.
        let mut w: Vec<f64> = (0..m)
            .map(|i| {
                let mut acc = (c - adj[i].len() as f64) * v[i];
                for &j in &adj[i] {
                    acc += v[j];
                }
                acc
            })
            .collect();
        // Rayleigh quotient with ‖v‖ = 1: μ = v·w estimates c − λ₂.
        let mu: f64 = v.iter().zip(&w).map(|(a, b)| a * b).sum();
        let converged = (mu - estimate).abs() <= config.tolerance * c.max(1.0);
        estimate = mu;
        if !project_and_normalize(&mut w) {
            // M v vanished after deflation: v was (numerically) the λ₂
            // eigenvector of eigenvalue c, i.e. λ₂ ≈ 0 within roundoff.
            break;
        }
        v = w;
        if converged {
            break;
        }
    }
    (c - estimate).max(0.0)
}

/// The attack optimizer's masking-collapse score of one removal ordering
/// over one topology (lower = the masking regime collapses earlier):
/// the [`PercolationCurve::masking_threshold`] at `gap` — `1 + 1/steps`
/// when masking never breaks, so an unbroken curve always ranks worst —
/// plus `mean_giant / steps` as a tie-breaker. The tie-breaker is
/// strictly smaller than one threshold quantum (`1/steps`), so it only
/// ever orders candidates whose quantized thresholds tie, letting the
/// greedy search make progress between threshold jumps.
pub fn collapse_score(topology: &Topology, order: &[usize], steps: usize, gap: f64) -> f64 {
    let curve = percolation_sweep(topology, order, steps);
    let threshold = curve.masking_threshold(gap).unwrap_or(1.0 + 1.0 / steps as f64);
    threshold + curve.mean_giant() / steps as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{Link, SatId};

    /// A single-plane topology over `n` nodes with the given flat-index
    /// links, all unit length.
    fn graph(n: usize, edges: &[(usize, usize)]) -> Topology {
        let links = edges
            .iter()
            .map(|&(a, b)| Link {
                a: SatId { plane: 0, slot: a },
                b: SatId { plane: 0, slot: b },
                length_km: 1.0,
            })
            .collect();
        Topology::from_links(links, vec![0, n])
    }

    fn path(n: usize) -> Topology {
        graph(n, &(0..n - 1).map(|i| (i, i + 1)).collect::<Vec<_>>())
    }

    fn cycle(n: usize) -> Topology {
        let mut edges: Vec<(usize, usize)> = (0..n - 1).map(|i| (i, i + 1)).collect();
        edges.push((0, n - 1));
        graph(n, &edges)
    }

    fn complete(n: usize) -> Topology {
        let mut edges = Vec::new();
        for a in 0..n {
            for b in a + 1..n {
                edges.push((a, b));
            }
        }
        graph(n, &edges)
    }

    #[test]
    fn tracker_statistics_follow_unions() {
        let mut t = ClusterTracker::new(6);
        assert_eq!(t.stats(), ClusterStats { active: 0, components: 0, largest: 0, sum_sq: 0 });
        for v in 0..5 {
            t.activate(v);
        }
        t.activate(0); // idempotent
        assert_eq!(t.stats(), ClusterStats { active: 5, components: 5, largest: 1, sum_sq: 5 });
        t.union(0, 1);
        t.union(2, 3);
        t.union(0, 1); // already merged
                       // Components {0,1}, {2,3}, {4}: sum_sq = 4 + 4 + 1.
        assert_eq!(t.stats(), ClusterStats { active: 5, components: 3, largest: 2, sum_sq: 9 });
        t.union(1, 2);
        // {0,1,2,3}, {4}: sum_sq = 16 + 1.
        let stats = t.stats();
        assert_eq!(stats, ClusterStats { active: 5, components: 2, largest: 4, sum_sq: 17 });
        // χ excludes the giant: (17 - 16) / 5; mean finite: 1 / 1.
        assert!((stats.susceptibility() - 0.2).abs() < 1e-15);
        assert!((stats.mean_finite_cluster() - 1.0).abs() < 1e-15);
        assert!(!t.is_active(5));
    }

    #[test]
    fn from_alive_matches_bfs_largest_component() {
        let topo = path(7);
        // Kill node 3: components {0,1,2} and {4,5,6}.
        let mut alive = vec![true; 7];
        alive[3] = false;
        let tracker = ClusterTracker::from_alive(&topo, &alive);
        let stats = tracker.stats();
        assert_eq!(stats.active, 6);
        assert_eq!(stats.components, 2);
        assert_eq!(stats.largest, topo.largest_component_among(&alive));
        assert_eq!(stats.largest, 3);
        assert_eq!(stats.sum_sq, 18);
    }

    #[test]
    fn spread_order_prefixes_are_strided_for_powers_of_two() {
        assert_eq!(spread_order(4), vec![0, 2, 1, 3]);
        assert_eq!(spread_order(8), vec![0, 4, 2, 6, 1, 5, 3, 7]);
        for n in [1usize, 2, 3, 4, 6, 8, 10, 16] {
            let order = spread_order(n);
            let mut sorted = order.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..n).collect::<Vec<_>>(), "a permutation for n={n}");
        }
        // Power-of-two prefixes equal the strided sets.
        let order = spread_order(8);
        for lost in [1usize, 2, 4, 8] {
            let mut prefix: Vec<usize> = order[..lost].to_vec();
            prefix.sort_unstable();
            assert_eq!(prefix, crate::disruption::strided_plane_indices(8, lost), "lost={lost}");
        }
    }

    #[test]
    fn orderings_are_permutations_and_deterministic() {
        let topo = path(12);
        let planes = plane_spread_ordering(&topo);
        let mut sorted = planes.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..12).collect::<Vec<_>>());

        let a = random_ordering(12, 5);
        let b = random_ordering(12, 5);
        assert_eq!(a, b, "same seed, same shuffle");
        assert_ne!(a, random_ordering(12, 6), "different seed, different shuffle");
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..12).collect::<Vec<_>>());

        let keyed = keyed_ordering(&[3.0, 1.0, 2.0, 1.0]);
        assert_eq!(keyed, vec![1, 3, 2, 0], "ascending keys, ties by index");

        let base: Vec<usize> = (0..6).collect();
        assert_eq!(priority_ordering(&[4, 2, 4, 99], &base), vec![4, 2, 0, 1, 3, 5]);
    }

    #[test]
    fn sweep_matches_per_step_recomputation() {
        // The reverse-replay sweep must equal a from-scratch recompute
        // at every step, for several orderings and step counts.
        let topo = cycle(17);
        for (name, order) in [
            ("spread", plane_spread_ordering(&topo)),
            ("random", random_ordering(17, 3)),
            ("identity", (0..17).collect()),
        ] {
            for steps in [1usize, 4, 17, 23] {
                let curve = percolation_sweep(&topo, &order, steps);
                assert_eq!(curve.len(), steps + 1);
                for k in 0..curve.len() {
                    let removed = k * 17 / steps;
                    let mut alive = vec![true; 17];
                    for &v in &order[..removed] {
                        alive[v] = false;
                    }
                    let stats = ClusterTracker::from_alive(&topo, &alive).stats();
                    assert_eq!(curve.removed[k], removed, "{name} steps={steps} k={k}");
                    assert_eq!(
                        curve.giant_fraction[k],
                        stats.largest as f64 / 17.0,
                        "{name} steps={steps} k={k}"
                    );
                    assert_eq!(
                        curve.susceptibility[k],
                        stats.susceptibility(),
                        "{name} steps={steps} k={k}"
                    );
                    assert_eq!(
                        curve.mean_finite_cluster[k],
                        stats.mean_finite_cluster(),
                        "{name} steps={steps} k={k}"
                    );
                }
                // Endpoints: intact giant covers the cycle; full removal
                // leaves nothing.
                assert_eq!(curve.giant_fraction[0], 1.0);
                assert_eq!(curve.giant_fraction[steps], 0.0);
            }
        }
    }

    #[test]
    fn masking_threshold_detects_the_phase_transition() {
        // A path graph has no redundancy at all: removing spread-out
        // nodes shatters it immediately, while removing from one end
        // keeps the giant tracking the survivors for a long time.
        let topo = path(64);
        let steps = 32;
        let shatter = percolation_sweep(&topo, &spread_order(64), steps);
        let peel: Vec<usize> = (0..64).collect();
        let peel_curve = percolation_sweep(&topo, &peel, steps);
        let t_shatter = shatter.masking_threshold(0.1).expect("spread loss shatters a path");
        let t_peel = peel_curve.masking_threshold(0.1);
        assert!(t_peel.is_none(), "peeling one end never opens a gap: {t_peel:?}");
        assert!(t_shatter <= 0.1, "the first spread removals already shatter: {t_shatter}");
        // Against an explicit baseline curve the same ordering is never
        // below itself.
        assert_eq!(shatter.threshold_vs(&shatter, 0.1), None);
        assert!(shatter.threshold_vs(&peel_curve, 0.1).is_some());
        // The collapse score ranks the shattering ordering as more
        // damaging, and an unbroken curve beyond the worst broken one.
        let s = collapse_score(&topo, &spread_order(64), steps, 0.1);
        let p = collapse_score(&topo, &peel, steps, 0.1);
        assert!(s < p, "shatter {s} must beat peel {p}");
        assert!(p > 1.0, "an unbroken curve scores beyond any broken threshold");
    }

    #[test]
    fn chi_peaks_inside_the_sweep() {
        let topo = cycle(64);
        let curve = percolation_sweep(&topo, &random_ordering(64, 9), 32);
        let (at, chi) = curve.chi_peak();
        assert!(chi > 0.0);
        assert!(at > 0.0 && at < 1.0, "χ peaks strictly inside the sweep: {at}");
    }

    #[test]
    fn lambda2_matches_closed_forms() {
        use std::f64::consts::PI;
        let config = Lambda2Config::default();
        // Path P_n: λ₂ = 2(1 − cos(π/n)).
        for n in [2usize, 3, 5, 8, 12] {
            let topo = path(n);
            let expect = 2.0 * (1.0 - (PI / n as f64).cos());
            let got = algebraic_connectivity(&topo, &vec![true; n], &config);
            assert!((got - expect).abs() < 1e-6, "path n={n}: {got} vs {expect}");
        }
        // Cycle C_n: λ₂ = 2(1 − cos(2π/n)) (doubly degenerate — the
        // deflated iteration still lands on the right eigenvalue).
        for n in [3usize, 4, 6, 10] {
            let topo = cycle(n);
            let expect = 2.0 * (1.0 - (2.0 * PI / n as f64).cos());
            let got = algebraic_connectivity(&topo, &vec![true; n], &config);
            assert!((got - expect).abs() < 1e-6, "cycle n={n}: {got} vs {expect}");
        }
        // Complete K_n: λ₂ = n.
        for n in [2usize, 4, 7] {
            let topo = complete(n);
            let got = algebraic_connectivity(&topo, &vec![true; n], &config);
            assert!((got - n as f64).abs() < 1e-6, "complete n={n}: {got}");
        }
    }

    #[test]
    fn lambda2_is_zero_for_disconnected_empty_and_singleton() {
        let config = Lambda2Config::default();
        // Two disjoint edges: combinatorially disconnected, exactly 0.
        let topo = graph(4, &[(0, 1), (2, 3)]);
        assert_eq!(algebraic_connectivity(&topo, &[true; 4], &config), 0.0);
        // Masking a path's middle node disconnects it.
        let p = path(5);
        let mut alive = vec![true; 5];
        alive[2] = false;
        assert_eq!(algebraic_connectivity(&p, &alive, &config), 0.0);
        // Empty and singleton alive sets.
        assert_eq!(algebraic_connectivity(&p, &[false; 5], &config), 0.0);
        let mut one = vec![false; 5];
        one[1] = true;
        assert_eq!(algebraic_connectivity(&p, &one, &config), 0.0);
        // Masking only an endpoint keeps a connected path P_4.
        let mut tail = vec![true; 5];
        tail[4] = false;
        use std::f64::consts::PI;
        let got = algebraic_connectivity(&p, &tail, &config);
        let expect = 2.0 * (1.0 - (PI / 4.0).cos());
        assert!((got - expect).abs() < 1e-6, "masked path: {got} vs {expect}");
    }

    #[test]
    fn lambda2_reruns_identically() {
        let topo = cycle(20);
        let config = Lambda2Config::default();
        let a = algebraic_connectivity(&topo, &[true; 20], &config);
        let b = algebraic_connectivity(&topo, &[true; 20], &config);
        assert_eq!(a.to_bits(), b.to_bits(), "bit-identical across runs");
    }
}
