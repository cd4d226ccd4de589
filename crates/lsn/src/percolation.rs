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
//! * [`algebraic_connectivity_solve`] — λ₂ of the masked graph
//!   Laplacian via a seeded single-vector LOBPCG solve, preconditioned
//!   by Jacobi plus an exact coarse solve over plane-block aggregates,
//!   that stops on the explicit residual and reports it, so reports stay
//!   byte-reproducible across runs and thread counts without any
//!   external eigensolver;
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

/// The seed of the λ₂ start vector ("lambda2").
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

/// Configuration of the λ₂ solve. Every parameter is fixed, so a solve
/// is deterministic; the result says whether it met the residual
/// contract ([`Lambda2Solve::converged`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Lambda2Config {
    /// Residual tolerance relative to `c = 2·d_max` (a Gershgorin bound
    /// on the Laplacian spectrum): the solve has converged once its unit
    /// vector `y` satisfies `‖Ly − θy‖ ≤ tolerance · c`.
    pub tolerance: f64,
    /// Cap on LOBPCG iterations (the cost bound when the spectral gap is
    /// too small to meet the tolerance).
    pub max_iterations: usize,
    /// Seed of the deterministic start vector.
    pub seed: u64,
}

impl Default for Lambda2Config {
    fn default() -> Self {
        Lambda2Config { tolerance: 1e-10, max_iterations: 4000, seed: LAMBDA2_SEED }
    }
}

/// The outcome of one λ₂ solve ([`algebraic_connectivity_solve`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Lambda2Solve {
    /// λ₂: the Rayleigh quotient of the final iterate (exactly `0.0` for
    /// a disconnected, empty or single-node alive set).
    pub value: f64,
    /// Explicit residual `‖Ly − θy‖` of the final unit iterate `y` (`0.0`
    /// for the combinatorial zero).
    pub residual: f64,
    /// LOBPCG iterations taken (`0` for the combinatorial zero).
    pub iterations: usize,
    /// Laplacian applications made — the solve's work counter: the
    /// start vector's, one per iteration, and one to re-check the final
    /// iterate (`0` for the combinatorial zero).
    pub products: usize,
    /// Whether `residual ≤ tolerance · 2·d_max`; `false` means the solve
    /// stopped (at the iteration cap) first and `value` is only an upper
    /// estimate.
    pub converged: bool,
}

/// Algebraic connectivity λ₂ (the Fiedler value) of the graph Laplacian
/// restricted to the `alive` nodes: [`algebraic_connectivity_solve`]'s
/// value.
///
/// # Panics
/// If `alive.len()` is not the node count.
pub fn algebraic_connectivity(topology: &Topology, alive: &[bool], config: &Lambda2Config) -> f64 {
    algebraic_connectivity_solve(topology, alive, config).value
}

/// λ₂ of the graph Laplacian `L` restricted to the `alive` nodes, with
/// its residual — single-vector LOBPCG (Knyazev 2001) on `L` over the
/// complement of the all-ones kernel vector, from a seeded start. No
/// external eigensolver, no randomness beyond the seeded start vector,
/// no threading: byte-reproducible across runs and thread counts.
///
/// Each iteration preconditions the residual `Lx − θx` with a two-level
/// additive `TwoLevel` preconditioner (Jacobi plus an exact coarse
/// correction over plane-block aggregates), projects the result `w` off
/// the ones vector, `x` and `p` (the previous step's correction), and
/// takes the smallest Rayleigh–Ritz pair over `{x, w, p}`: one Laplacian
/// application per iteration, and the iterate is its own Ritz vector.
/// A search direction that collapses onto the others is dropped. Once
/// the updated residual meets `tolerance · c` (`c = 2·d_max`), `Lx` is
/// applied afresh, and the explicit residual `‖Lx − θx‖` of the
/// returned vector alone decides convergence; if it misses, the
/// iteration resumes, up to `max_iterations`.
///
/// A disconnected (or empty, or single-node) alive set returns exactly
/// `0.0`, converged — detected combinatorially through
/// [`Topology::components`], not through the solver's tolerance.
///
/// # Panics
/// If `alive.len()` is not the node count.
pub fn algebraic_connectivity_solve(
    topology: &Topology,
    alive: &[bool],
    config: &Lambda2Config,
) -> Lambda2Solve {
    let exact_zero =
        Lambda2Solve { value: 0.0, residual: 0.0, iterations: 0, products: 0, converged: true };
    // One component of at least two nodes, or λ₂ is exactly 0.
    if !matches!(topology.components(Some(alive)).sizes[..], [size] if size > 1) {
        return exact_zero;
    }
    let laplacian = Laplacian::new(topology, alive);
    let c = 2.0 * laplacian.max_degree();
    if c <= 0.0 {
        // More than one node and connected implies links; defensive only.
        return exact_zero;
    }
    let preconditioner = TwoLevel::new(topology, alive, &laplacian);
    let start = start_vector(laplacian.len(), config.seed);
    lobpcg(&laplacian, &preconditioner, start, config.tolerance * c, config.max_iterations)
}

/// Alive slots per coarse aggregate of the λ₂ preconditioner: runs of
/// this many consecutive alive slots within one plane (a plane's last
/// run may be shorter).
const AGGREGATE_SLOTS: usize = 4;

/// A search direction whose part independent of the others has a
/// squared norm at most this fraction of its own counts as collapsed
/// and is dropped from the Rayleigh–Ritz basis.
const COLLAPSED: f64 = 1e-12;

/// Neighbor slots stored inline per node in a [`Laplacian`]: a +grid's
/// degree, so each row is one fixed, branch-free gather.
const ROW_SLOTS: usize = 4;

/// The unweighted Laplacian of the alive subgraph (the convention the
/// closed-form spectra use), with the alive nodes compacted to `0..m`
/// in flat order. Each node's first [`ROW_SLOTS`] neighbors sit inline,
/// padded with the node itself (a zero term in the difference form);
/// any further neighbors follow in a node-ordered overflow list.
struct Laplacian {
    degree: Vec<f64>,
    head: Vec<[usize; ROW_SLOTS]>,
    /// `(node, neighbor)` for every neighbor past a node's first
    /// [`ROW_SLOTS`], in node order.
    overflow: Vec<(usize, usize)>,
}

impl Laplacian {
    fn new(topology: &Topology, alive: &[bool]) -> Laplacian {
        let mut compact = vec![usize::MAX; alive.len()];
        let mut m = 0;
        for (v, _) in alive.iter().enumerate().filter(|(_, &a)| a) {
            compact[v] = m;
            m += 1;
        }
        let (mut degree, mut head, mut overflow) =
            (Vec::with_capacity(m), Vec::with_capacity(m), Vec::new());
        for (v, _) in alive.iter().enumerate().filter(|(_, &a)| a) {
            let i = head.len();
            let mut row = [i; ROW_SLOTS];
            let neighbors = topology
                .neighbors(v)
                .iter()
                .filter(|&&(nb, _)| alive[nb])
                .map(|&(nb, _)| compact[nb]);
            let mut d = 0;
            for j in neighbors {
                match row.get_mut(d) {
                    Some(slot) => *slot = j,
                    None => overflow.push((i, j)),
                }
                d += 1;
            }
            head.push(row);
            degree.push(d as f64);
        }
        Laplacian { degree, head, overflow }
    }

    fn len(&self) -> usize {
        self.degree.len()
    }

    fn max_degree(&self) -> f64 {
        self.degree.iter().copied().fold(0.0, f64::max)
    }

    /// Every directed arc `(i, j)` of the alive subgraph.
    fn arcs(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        let inline =
            self.head.iter().enumerate().flat_map(|(i, row)| row.iter().map(move |&j| (i, j)));
        inline.filter(|&(i, j)| i != j).chain(self.overflow.iter().copied())
    }

    /// Calls `row(i, (Lx)_i)` for every node in order, with `Lx` in
    /// difference form, `(Lx)_i = Σ_{j∈N(i)} (x_i − x_j)`: on the smooth
    /// vectors near λ₂ neighboring entries differ little, so the
    /// differences are exact and `Lx` keeps its small relative error
    /// where `d_i·x_i − Σ x_j` would cancel.
    #[inline(always)]
    fn for_each_row(&self, x: &[f64], mut row: impl FnMut(usize, f64)) {
        let mut overflow = self.overflow.iter().peekable();
        for (i, (nb, &xi)) in self.head.iter().zip(x).enumerate() {
            let mut lxi: f64 = nb.iter().map(|&j| xi - x[j]).sum();
            while let Some(&(_, j)) = overflow.next_if(|&&(v, _)| v == i) {
                lxi += xi - x[j];
            }
            row(i, lxi);
        }
    }

    /// `out = Lx`.
    fn apply(&self, x: &[f64], out: &mut [f64]) {
        self.for_each_row(x, |i, lxi| out[i] = lxi);
    }

    /// The projection `w = raw − μ1 − αx − βp` of `raw` and its image
    /// `lw = Lw = L·raw − α·lx − β·lp` (the ones vector is `L`'s kernel),
    /// fused with the Gram entries they enter: returns
    /// `[w·w, x·w, p·w, x·Lw, w·Lw, p·Lw]`.
    fn project_apply_gram(
        &self,
        raw: &[f64],
        [mean, alpha, beta]: [f64; 3],
        [x, lx, p, lp]: [&[f64]; 4],
        w: &mut [f64],
        lw: &mut [f64],
    ) -> [f64; 6] {
        let mut g = [0.0; 6];
        self.for_each_row(raw, |i, l_raw| {
            let wi = raw[i] - mean - alpha * x[i] - beta * p[i];
            let lwi = l_raw - alpha * lx[i] - beta * lp[i];
            (w[i], lw[i]) = (wi, lwi);
            g[0] += wi * wi;
            g[1] += x[i] * wi;
            g[2] += p[i] * wi;
            g[3] += x[i] * lwi;
            g[4] += wi * lwi;
            g[5] += p[i] * lwi;
        });
        g
    }
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Subtracts the mean (the ones-vector component) and scales to unit
/// norm; `false` (and `v` untouched by the scaling) if nothing is left.
fn project_and_normalize(v: &mut [f64]) -> bool {
    let mean = v.iter().sum::<f64>() / v.len() as f64;
    v.iter_mut().for_each(|x| *x -= mean);
    let norm = dot(v, v).sqrt();
    if norm < 1e-300 {
        return false;
    }
    v.iter_mut().for_each(|x| *x /= norm);
    true
}

/// The seeded unit start vector, orthogonal to the ones vector.
fn start_vector(m: usize, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut v: Vec<f64> = (0..m).map(|_| rng.gen::<f64>() - 0.5).collect();
    if !project_and_normalize(&mut v) {
        // The random vector collapsed onto the kernel (vanishingly
        // unlikely); fall back to a deterministic non-kernel vector.
        v = (0..m).map(|i| if i == 0 { 1.0 } else { 0.0 }).collect();
        project_and_normalize(&mut v);
    }
    v
}

/// The two-level additive preconditioner `T = D⁻¹ + P A_c⁺ Pᵀ`: Jacobi
/// plus an exact coarse solve. `P` is the piecewise-constant
/// prolongation over plane-block aggregates ([`AGGREGATE_SLOTS`]
/// consecutive alive slots of one plane), and `A_c = PᵀLP` — itself the
/// Laplacian of the aggregate graph — is grounded at one aggregate and
/// factored once by an envelope Cholesky in reverse Cuthill–McKee order.
/// Blocks that cut every plane keep the coarse space rich enough that
/// the iteration count stays near-constant as the graph grows.
struct TwoLevel {
    inv_degree: Vec<f64>,
    /// Each node's aggregate, as its position in the coarse ordering;
    /// an aggregate's nodes are consecutive.
    aggregate: Vec<usize>,
    /// The grounded coarse matrix (every aggregate but the last in the
    /// ordering).
    coarse: EnvelopeCholesky,
}

impl TwoLevel {
    fn new(topology: &Topology, alive: &[bool], laplacian: &Laplacian) -> TwoLevel {
        // Aggregates in flat order: runs of alive slots within a plane.
        let mut aggregate = Vec::with_capacity(laplacian.len());
        let mut n = 0;
        for plane in topology.plane_offsets().windows(2) {
            let alive_slots = (plane[0]..plane[1]).filter(|&v| alive[v]).count();
            aggregate.extend((0..alive_slots).map(|s| n + s / AGGREGATE_SLOTS));
            n += alive_slots.div_ceil(AGGREGATE_SLOTS);
        }
        // The aggregate graph: one weighted arc per ordered pair of
        // linked aggregates, weighted by the fine links between them.
        let mut arcs: Vec<(usize, usize)> = laplacian
            .arcs()
            .map(|(i, j)| (aggregate[i], aggregate[j]))
            .filter(|&(a, b)| a != b)
            .collect();
        arcs.sort_unstable();
        let mut offsets = vec![0; n + 1];
        let mut targets = Vec::new();
        for run in arcs.chunk_by(|x, y| x == y) {
            let (a, b) = run[0];
            targets.push((b, run.len() as f64));
            offsets[a + 1] += 1;
        }
        for a in 0..n {
            offsets[a + 1] += offsets[a];
        }
        let graph = CoarseGraph { offsets, targets };
        let order = graph.reverse_cuthill_mckee();
        let mut position = vec![0; n];
        for (k, &a) in order.iter().enumerate() {
            position[a] = k;
        }
        TwoLevel {
            inv_degree: laplacian.degree.iter().map(|d| d.recip()).collect(),
            aggregate: aggregate.into_iter().map(|a| position[a]).collect(),
            coarse: EnvelopeCholesky::grounded_laplacian(&graph, &order, &position),
        }
    }

    /// Coarse unknowns, the grounded one included.
    fn coarse_len(&self) -> usize {
        self.coarse.len() + 1
    }

    /// Restricts the residual `r`, given node by node in order: writes
    /// its Jacobi part `D⁻¹r` into `w` and its restriction `Pᵀr` into
    /// `coarse` (of [`Self::coarse_len`]), and returns `‖r‖²`.
    #[inline(always)]
    fn restrict(&self, r: impl Iterator<Item = f64>, w: &mut [f64], coarse: &mut [f64]) -> f64 {
        let (mut rr, mut sum) = (0.0, 0.0);
        // An aggregate's nodes are consecutive: sum a run, then store.
        let mut current = self.aggregate[0];
        for ((ri, wi), (&k, &inv)) in r.zip(w).zip(self.aggregate.iter().zip(&self.inv_degree)) {
            if k != current {
                coarse[current] = sum;
                (current, sum) = (k, 0.0);
            }
            rr += ri * ri;
            sum += ri;
            *wi = ri * inv;
        }
        coarse[current] = sum;
        rr
    }

    /// Completes `w = T r` from [`Self::restrict`]'s halves: solves the
    /// grounded coarse system in `coarse` and adds its prolongation to
    /// `w`. Returns `[Σ w, x·w, p·w, w·w]`.
    fn add_coarse_correction(
        &self,
        coarse: &mut [f64],
        [x, p]: [&[f64]; 2],
        w: &mut [f64],
    ) -> [f64; 4] {
        let (interior, ground) = coarse.split_at_mut(self.coarse.len());
        self.coarse.solve(interior);
        ground[0] = 0.0;
        let mut sums = [0.0; 4];
        for ((wi, &k), (&xi, &pi)) in w.iter_mut().zip(&self.aggregate).zip(x.iter().zip(p)) {
            *wi += coarse[k];
            sums[0] += *wi;
            sums[1] += xi * *wi;
            sums[2] += pi * *wi;
            sums[3] += *wi * *wi;
        }
        sums
    }
}

/// The aggregate graph in CSR form, each arc with its weight.
struct CoarseGraph {
    offsets: Vec<usize>,
    targets: Vec<(usize, f64)>,
}

impl CoarseGraph {
    fn neighbors(&self, a: usize) -> &[(usize, f64)] {
        &self.targets[self.offsets[a]..self.offsets[a + 1]]
    }

    fn degree(&self, a: usize) -> usize {
        self.offsets[a + 1] - self.offsets[a]
    }

    /// Breadth-first search from `root`, neighbors visited by ascending
    /// degree (then index): the visit order and each node's level.
    fn bfs(&self, root: usize) -> (Vec<usize>, Vec<usize>) {
        let mut level = vec![usize::MAX; self.offsets.len() - 1];
        level[root] = 0;
        let mut order = vec![root];
        let mut next = Vec::new();
        let mut head = 0;
        while let Some(&a) = order.get(head) {
            head += 1;
            next.clear();
            next.extend(
                self.neighbors(a).iter().map(|&(b, _)| b).filter(|&b| level[b] == usize::MAX),
            );
            next.sort_unstable_by_key(|&b| (self.degree(b), b));
            for &b in &next {
                level[b] = level[a] + 1;
                order.push(b);
            }
        }
        (order, level)
    }

    /// The reverse Cuthill–McKee ordering of the (connected) graph, from
    /// a George–Liu pseudo-peripheral root: a narrow envelope for the
    /// coarse Cholesky.
    fn reverse_cuthill_mckee(&self) -> Vec<usize> {
        let n = self.offsets.len() - 1;
        let root = (0..n).min_by_key(|&a| (self.degree(a), a)).expect("a non-empty graph");
        let (mut order, mut level) = self.bfs(root);
        loop {
            // Restart from the deepest level's least-degree node while
            // that deepens the search.
            let depth = level[order[order.len() - 1]];
            let far = order
                .iter()
                .rev()
                .take_while(|&&a| level[a] == depth)
                .copied()
                .min_by_key(|&a| (self.degree(a), a))
                .expect("the deepest level is non-empty");
            let (far_order, far_level) = self.bfs(far);
            if far_level[far_order[far_order.len() - 1]] <= depth {
                break;
            }
            (order, level) = (far_order, far_level);
        }
        debug_assert_eq!(order.len(), n, "the aggregate graph of a connected graph is connected");
        order.reverse();
        order
    }
}

/// A symmetric positive-definite matrix factored `LLᵀ` in envelope
/// (profile) storage: row `i` keeps columns `first[i]..=i` contiguously,
/// the span a Cholesky factor fills without fill-in outside it.
struct EnvelopeCholesky {
    first: Vec<usize>,
    /// Row `i` occupies `values[start[i]..start[i + 1]]`.
    start: Vec<usize>,
    values: Vec<f64>,
}

impl EnvelopeCholesky {
    /// The factor of `graph`'s weighted Laplacian in the given ordering
    /// with its last node grounded (row and column removed), which makes
    /// the Laplacian of a connected graph positive definite.
    fn grounded_laplacian(
        graph: &CoarseGraph,
        order: &[usize],
        position: &[usize],
    ) -> EnvelopeCholesky {
        let n = order.len().saturating_sub(1);
        let first: Vec<usize> = (0..n)
            .map(|i| {
                graph.neighbors(order[i]).iter().map(|&(b, _)| position[b]).fold(i, usize::min)
            })
            .collect();
        let mut start = Vec::with_capacity(n + 1);
        start.push(0);
        for (i, &f) in first.iter().enumerate() {
            start.push(start[i] + i + 1 - f);
        }
        let mut values = vec![0.0; start[n]];
        for (i, &a) in order[..n].iter().enumerate() {
            let row = &mut values[start[i]..start[i + 1]];
            for &(b, weight) in graph.neighbors(a) {
                row[row.len() - 1] += weight;
                if position[b] < i {
                    row[position[b] - first[i]] -= weight;
                }
            }
        }
        let mut factor = EnvelopeCholesky { first, start, values };
        factor.factor();
        factor
    }

    fn len(&self) -> usize {
        self.first.len()
    }

    /// Row `i`'s stored entries, columns `first[i]..=i`.
    fn row(&self, i: usize) -> &[f64] {
        &self.values[self.start[i]..self.start[i + 1]]
    }

    /// In-place Cholesky: `L_ij = (A_ij − Σ_k L_ik L_jk) / L_jj` over the
    /// columns both rows store, then `L_ii = √(A_ii − Σ_k L_ik²)`, kept
    /// as its reciprocal so the solves multiply instead of divide.
    fn factor(&mut self) {
        for i in 0..self.len() {
            let fi = self.first[i];
            for j in fi..i {
                let fj = self.first[j];
                let k0 = fi.max(fj);
                let (ri, rj) = (self.row(i), self.row(j));
                let s = dot(&ri[k0 - fi..j - fi], &rj[k0 - fj..j - fj]);
                let l = (ri[j - fi] - s) * rj[j - fj];
                self.values[self.start[i] + j - fi] = l;
            }
            let (off, diag) = self.split_row(i);
            let inv_pivot = (diag - dot(off, off)).sqrt().recip();
            self.values[self.start[i + 1] - 1] = inv_pivot;
        }
    }

    /// Row `i` as its off-diagonal part and its last (diagonal) entry.
    fn split_row(&self, i: usize) -> (&[f64], f64) {
        let (off, diag) = self.row(i).split_at(self.start[i + 1] - self.start[i] - 1);
        (off, diag[0])
    }

    /// Solves `LLᵀ x = b` in place.
    fn solve(&self, b: &mut [f64]) {
        for i in 0..self.len() {
            let (off, inv_pivot) = self.split_row(i);
            b[i] = (b[i] - dot(off, &b[self.first[i]..i])) * inv_pivot;
        }
        for i in (0..self.len()).rev() {
            let (off, inv_pivot) = self.split_row(i);
            b[i] *= inv_pivot;
            let bi = b[i];
            b[self.first[i]..i].iter_mut().zip(off).for_each(|(bk, l)| *bk -= l * bi);
        }
    }
}

/// Single-vector LOBPCG for the smallest eigenpair of `laplacian` over
/// the complement of the ones vector, from the unit `x` (orthogonal to
/// it), preconditioned by `preconditioner`; see
/// [`algebraic_connectivity_solve`].
///
/// An iteration makes three passes over the nodes: the coarse
/// correction's prolongation; the projection of `w` fused with `Lw` and
/// the Gram entries; and the update of `x` and `p` fused with the next
/// residual's restriction.
fn lobpcg(
    laplacian: &Laplacian,
    preconditioner: &TwoLevel,
    mut x: Vec<f64>,
    bound: f64,
    max_iterations: usize,
) -> Lambda2Solve {
    let m = x.len();
    let (mut w, mut lw) = (vec![0.0; m], vec![0.0; m]);
    let (mut p, mut lp) = (vec![0.0; m], vec![0.0; m]);
    // The preconditioned residual before its projection.
    let mut raw = vec![0.0; m];
    let mut coarse = vec![0.0; preconditioner.coarse_len()];
    let mut lx = vec![0.0; m];
    laplacian.apply(&x, &mut lx);
    let mut products = 1;
    // Whether `lx` was applied to `x` rather than updated alongside it.
    let mut fresh = true;
    // The Gram entries of x and p: x·x, x·Lx, x·p, x·Lp, p·p, p·Lp.
    let [mut xx, mut xlx, mut xp, mut xlp, mut pp, mut plp] =
        [dot(&x, &x), dot(&x, &lx), 0.0, 0.0, 0.0, 0.0];
    // ‖Lx − θx‖², restricted into `raw` and `coarse`.
    let theta = xlx / xx;
    let r = lx.iter().zip(&x).map(|(l, v)| l - theta * v);
    let mut rr = preconditioner.restrict(r, &mut raw, &mut coarse);
    let mut have_p = false;
    let mut iterations = 0;
    // Set when no search direction survives, so the iterate cannot move.
    let mut stalled = false;
    loop {
        let residual = (rr / xx).sqrt();
        if residual <= bound || iterations >= max_iterations || stalled {
            if fresh {
                return Lambda2Solve {
                    value: (xlx / xx).max(0.0),
                    residual,
                    iterations,
                    products,
                    converged: residual <= bound,
                };
            }
            // Re-check on a fresh Lx, so the returned residual is
            // explicit; resume if it misses.
            laplacian.apply(&x, &mut lx);
            products += 1;
            fresh = true;
            [xx, xlx] = [dot(&x, &x), dot(&x, &lx)];
            let theta = xlx / xx;
            let r = lx.iter().zip(&x).map(|(l, v)| l - theta * v);
            rr = preconditioner.restrict(r, &mut raw, &mut coarse);
            continue;
        }
        // w = T r, projected off the ones vector, x and p (both sum to
        // 0) by one Gram–Schmidt step, which keeps the Rayleigh–Ritz
        // basis close to orthogonal. A p collapsed onto x is dropped
        // first.
        have_p &= pp - xp * xp / xx > COLLAPSED * pp;
        let [sum, x_raw, p_raw, before] =
            preconditioner.add_coarse_correction(&mut coarse, [&x, &p], &mut raw);
        let (alpha, beta) = if have_p {
            let det = xx * pp - xp * xp;
            ((pp * x_raw - xp * p_raw) / det, (xx * p_raw - xp * x_raw) / det)
        } else {
            (x_raw / xx, 0.0)
        };
        let [ww, xw, pw, xlw, wlw, plw] = laplacian.project_apply_gram(
            &raw,
            [sum / m as f64, alpha, beta],
            [&x, &lx, &p, &lp],
            &mut w,
            &mut lw,
        );
        products += 1;
        let have_w = ww > COLLAPSED * before;
        let a = [[xlx, xlw, xlp], [xlw, wlw, plw], [xlp, plw, plp]];
        let b = [[xx, xw, xp], [xw, ww, pw], [xp, pw, pp]];
        let Some((theta, c)) = smallest_ritz_pair(&a, &b, [true, have_w, have_p]) else {
            // Nothing left to search: re-check and report the iterate as
            // it stands.
            stalled = true;
            continue;
        };
        // x ← Sc (unit in exact arithmetic, as c is b-normalized) and
        // p ← its w, p part, with their images under L; then the new
        // residual against the Ritz value θ.
        [xx, xlx, xp, xlp, pp, plp] = [0.0; 6];
        let r = x
            .iter_mut()
            .zip(lx.iter_mut())
            .zip(p.iter_mut().zip(lp.iter_mut()))
            .zip(w.iter().zip(&lw))
            .map(|(((xi, lxi), (pi, lpi)), (&wi, &lwi))| {
                *pi = c[1] * wi + c[2] * *pi;
                *lpi = c[1] * lwi + c[2] * *lpi;
                *xi = c[0] * *xi + *pi;
                *lxi = c[0] * *lxi + *lpi;
                xx += *xi * *xi;
                xlx += *xi * *lxi;
                xp += *xi * *pi;
                xlp += *xi * *lpi;
                pp += *pi * *pi;
                plp += *pi * *lpi;
                *lxi - theta * *xi
            });
        rr = preconditioner.restrict(r, &mut raw, &mut coarse);
        have_p = true;
        iterations += 1;
        fresh = false;
    }
}

/// The smallest Rayleigh–Ritz pair of the pencil `(a, b)` — `a` the
/// Gram matrix `SᵀLS`, `b` the Gram matrix `SᵀS` of the basis columns
/// flagged `active` — as its value and its coefficients over the basis
/// (`0.0` for an inactive or collapsed column). `b` is orthogonalized by
/// a pivoted Cholesky `b = RᵀR` in column order; a column whose pivot
/// falls to [`COLLAPSED`] of its diagonal is dropped. `None` when only
/// the first column survives, so no step is possible.
fn smallest_ritz_pair(
    a: &[[f64; 3]; 3],
    b: &[[f64; 3]; 3],
    active: [bool; 3],
) -> Option<(f64, [f64; 3])> {
    // R over the kept columns: r[i][j] for kept i ≤ j.
    let mut kept: Vec<usize> = Vec::with_capacity(3);
    let mut r = [[0.0; 3]; 3];
    for j in (0..3).filter(|&j| active[j]) {
        let mut col = [0.0; 3];
        let mut rest = b[j][j];
        for (ki, &i) in kept.iter().enumerate() {
            let s: f64 = (0..ki).map(|kl| r[kl][ki] * col[kl]).sum();
            col[ki] = (b[i][j] - s) / r[ki][ki];
            rest -= col[ki] * col[ki];
        }
        if rest <= COLLAPSED * b[j][j] {
            continue;
        }
        let k = kept.len();
        for (ki, &value) in col.iter().enumerate().take(k) {
            r[ki][k] = value;
        }
        r[k][k] = rest.sqrt();
        kept.push(j);
    }
    let k = kept.len();
    if k < 2 {
        return None;
    }
    // C = R⁻ᵀ A R⁻¹ through R⁻¹ (upper triangular).
    let mut inv = [[0.0; 3]; 3];
    for j in 0..k {
        inv[j][j] = 1.0 / r[j][j];
        for i in (0..j).rev() {
            let s: f64 = (i + 1..=j).map(|l| r[i][l] * inv[l][j]).sum();
            inv[i][j] = -s / r[i][i];
        }
    }
    let mut c = [[0.0; 3]; 3];
    for i in 0..k {
        for j in 0..k {
            c[i][j] = (0..=i)
                .flat_map(|p| (0..=j).map(move |q| (p, q)))
                .map(|(p, q)| inv[p][i] * a[kept[p]][kept[q]] * inv[q][j])
                .sum();
        }
    }
    let (value, v) = smallest_eigenpair(c, k);
    let mut coefficients = [0.0; 3];
    for (p, &column) in kept.iter().enumerate() {
        coefficients[column] = (p..k).map(|q| inv[p][q] * v[q]).sum();
    }
    Some((value, coefficients))
}

/// The unit eigenvector of the smallest eigenvalue of the symmetric
/// leading `k×k` block of `c` (`k ≤ 3`), by cyclic Jacobi rotations;
/// ties go to the lowest index.
fn smallest_eigenpair(mut c: [[f64; 3]; 3], k: usize) -> (f64, [f64; 3]) {
    let mut v = [[0.0; 3]; 3];
    for (i, row) in v.iter_mut().enumerate() {
        row[i] = 1.0;
    }
    for _ in 0..64 {
        let scale: f64 = (0..k).map(|i| c[i][i] * c[i][i]).sum();
        let off: f64 = (0..k)
            .flat_map(|i| (i + 1..k).map(move |j| (i, j)))
            .map(|(i, j)| c[i][j] * c[i][j])
            .sum();
        if off <= f64::EPSILON * f64::EPSILON * scale {
            break;
        }
        for p in 0..k {
            for q in p + 1..k {
                if c[p][q] == 0.0 {
                    continue;
                }
                let zeta = (c[q][q] - c[p][p]) / (2.0 * c[p][q]);
                let t = zeta.signum() / (zeta.abs() + zeta.hypot(1.0));
                let cs = 1.0 / t.hypot(1.0);
                let sn = t * cs;
                // c ← Jᵀ c J and v ← v J: columns p, q, then rows p, q.
                let rotate =
                    |a: &mut f64, b: &mut f64| (*a, *b) = (cs * *a - sn * *b, sn * *a + cs * *b);
                for row in c.iter_mut().chain(v.iter_mut()) {
                    let (low, high) = row.split_at_mut(q);
                    rotate(&mut low[p], &mut high[0]);
                }
                let (low, high) = c.split_at_mut(q);
                low[p].iter_mut().zip(high[0].iter_mut()).for_each(|(a, b)| rotate(a, b));
            }
        }
    }
    let smallest = (0..k).fold(0, |best, i| if c[i][i] < c[best][best] { i } else { best });
    (c[smallest][smallest], [v[0][smallest], v[1][smallest], v[2][smallest]])
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
        assert_eq!(stats.largest, topo.components(Some(&alive)).largest());
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

    /// The links of the torus C_rows □ C_cols: node `r·cols + k` links
    /// to its ring successors along both dimensions (both sides at least
    /// 3, so no link repeats).
    fn torus_edges(rows: usize, cols: usize) -> Vec<(usize, usize)> {
        let mut edges = Vec::new();
        for r in 0..rows {
            for k in 0..cols {
                edges.push((r * cols + k, r * cols + (k + 1) % cols));
                edges.push((r * cols + k, ((r + 1) % rows) * cols + k));
            }
        }
        edges
    }

    /// The torus C_rows □ C_cols on a single plane.
    fn torus(rows: usize, cols: usize) -> Topology {
        graph(rows * cols, &torus_edges(rows, cols))
    }

    /// A topology laid out plane by plane — plane `p` holds the next
    /// `sizes[p]` flat indices, empty planes allowed — with the given
    /// flat-index links, all unit length.
    fn layered(sizes: &[usize], edges: &[(usize, usize)]) -> Topology {
        let mut offsets = vec![0];
        for &size in sizes {
            offsets.push(offsets[offsets.len() - 1] + size);
        }
        let id = |v: usize| {
            let plane = offsets.partition_point(|&o| o <= v) - 1;
            SatId { plane, slot: v - offsets[plane] }
        };
        let links =
            edges.iter().map(|&(a, b)| Link { a: id(a), b: id(b), length_km: 1.0 }).collect();
        Topology::from_links(links, offsets)
    }

    /// Asserts that a solve converged within the residual contract for
    /// maximum degree `d_max`, and lands on `expect`.
    fn assert_converged_to(solve: &Lambda2Solve, expect: f64, d_max: f64, what: &str) {
        let config = Lambda2Config::default();
        assert!(solve.converged, "{what}: {solve:?}");
        assert!(solve.residual <= config.tolerance * 2.0 * d_max, "{what}: {solve:?}");
        assert!((solve.value - expect).abs() < 1e-9, "{what}: {} vs {expect}", solve.value);
    }

    /// The loss fraction at the peak of the seed-averaged random-removal
    /// χ curve on the L×L torus.
    fn mean_chi_peak(l: usize, steps: usize, seeds: u64) -> f64 {
        let topo = torus(l, l);
        let mut total = vec![0.0; steps + 1];
        for seed in 0..seeds {
            let curve = percolation_sweep(&topo, &random_ordering(l * l, seed), steps);
            for (t, chi) in total.iter_mut().zip(&curve.susceptibility) {
                *t += chi;
            }
        }
        // The earliest maximum, as `PercolationCurve::chi_peak` takes it.
        let peak = (0..=steps).fold(0, |best, k| if total[k] > total[best] { k } else { best });
        peak as f64 / steps as f64
    }

    #[test]
    fn random_removal_chi_peak_approaches_the_square_lattice_threshold() {
        // A wrapped +grid is an L×L torus, and random removal is site
        // percolation on the square lattice: occupied fraction
        // p_c ≈ 0.5927, so χ peaks near loss 1 − p_c ≈ 0.4073 as L grows.
        // Finite size shifts the peak toward higher loss (~0.45 at L = 32).
        const LOSS_AT_THRESHOLD: f64 = 1.0 - 0.592_746;
        let gap = |l: usize| (mean_chi_peak(l, 400, 16) - LOSS_AT_THRESHOLD).abs();
        let (small, large) = (gap(32), gap(128));
        assert!(
            large < small,
            "the peak must close in on 1 − p_c: {small} at L=32, {large} at L=128"
        );
        assert!(large < 0.02, "L=128 peak {large} from 1 − p_c");
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
            assert!((got - expect).abs() < 1e-9, "path n={n}: {got} vs {expect}");
        }
        // Cycle C_n: λ₂ = 2(1 − cos(2π/n)), doubly degenerate.
        for n in [3usize, 4, 6, 10] {
            let topo = cycle(n);
            let expect = 2.0 * (1.0 - (2.0 * PI / n as f64).cos());
            let got = algebraic_connectivity(&topo, &vec![true; n], &config);
            assert!((got - expect).abs() < 1e-9, "cycle n={n}: {got} vs {expect}");
        }
        // Complete K_n: λ₂ = n. Every vector orthogonal to the ones
        // vector is an eigenvector, so the first residual already meets
        // the bound: no iteration, and the start vector's application is
        // the only one.
        for n in [2usize, 4, 7] {
            let topo = complete(n);
            let solve = algebraic_connectivity_solve(&topo, &vec![true; n], &config);
            let got = solve.value;
            assert!((got - n as f64).abs() < 1e-9, "complete n={n}: {got}");
            assert_eq!((solve.iterations, solve.products), (0, 1), "complete n={n}: {solve:?}");
        }
    }

    #[test]
    fn lambda2_matches_the_torus_spectrum() {
        use std::f64::consts::PI;
        let config = Lambda2Config::default();
        // C_m □ C_n: λ₂ = 2 − 2cos(2π/max(m, n)); the +grid of a Walker
        // shell is this graph. Once on a single plane, once with row r
        // as plane r, where the aggregates stop at every plane boundary
        // (row lengths that are not multiples of 4 leave a short one).
        let shapes = [(12usize, 40usize), (40, 12), (5, 7), (16, 16), (3, 50), (40, 13), (9, 30)];
        for (rows, cols) in shapes {
            let one_plane = torus(rows, cols);
            let row_planes = layered(&vec![cols; rows], &torus_edges(rows, cols));
            for (layout, topo) in [("one plane", one_plane), ("row planes", row_planes)] {
                let solve = algebraic_connectivity_solve(&topo, &vec![true; rows * cols], &config);
                let expect = 2.0 - 2.0 * (2.0 * PI / rows.max(cols) as f64).cos();
                let what = format!("torus {rows}x{cols}, {layout}");
                assert!((solve.value - expect).abs() < 1e-9, "{what}: {} vs {expect}", solve.value);
                // Degree 4 everywhere: c = 8.
                assert!(solve.converged, "{what}: {solve:?}");
                assert!(solve.residual <= config.tolerance * 8.0, "{what}: {solve:?}");
                assert!(solve.iterations > 0 && solve.iterations <= config.max_iterations);
                // The start vector's application, one per iteration, and
                // the final re-check.
                assert_eq!(solve.products, solve.iterations + 2, "{what}: {solve:?}");
            }
        }
    }

    #[test]
    fn lambda2_does_not_depend_on_the_seed() {
        // On the square torus λ₂ has multiplicity 4, so every seed lands
        // on a different eigenvector but must report the same value.
        let topo = torus(16, 16);
        let alive = vec![true; 256];
        let a = algebraic_connectivity_solve(&topo, &alive, &Lambda2Config::default());
        let b = algebraic_connectivity_solve(
            &topo,
            &alive,
            &Lambda2Config { seed: 7, ..Lambda2Config::default() },
        );
        assert!(a.converged && b.converged);
        assert!((a.value - b.value).abs() < 1e-9, "seeds disagree: {a:?} vs {b:?}");
    }

    #[test]
    fn lambda2_reports_a_capped_solve_as_unconverged() {
        let topo = torus(12, 40);
        let config = Lambda2Config { max_iterations: 3, ..Lambda2Config::default() };
        let solve = algebraic_connectivity_solve(&topo, &vec![true; 480], &config);
        assert!(!solve.converged, "3 steps cannot resolve a 480-node torus: {solve:?}");
        assert_eq!(solve.iterations, 3);
        assert!(solve.residual > config.tolerance * 8.0);
        // Still an upper estimate of λ₂: the Rayleigh quotient of any
        // vector orthogonal to the ones vector is at least λ₂.
        let expect = 2.0 - 2.0 * (2.0 * std::f64::consts::PI / 40.0).cos();
        assert!(solve.value.is_finite() && solve.value >= expect - 1e-12, "{solve:?}");
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
        assert!((got - expect).abs() < 1e-9, "masked path: {got} vs {expect}");
        // The combinatorial zero is exact and converged.
        let zero = algebraic_connectivity_solve(&topo, &[true; 4], &config);
        assert_eq!(
            zero,
            Lambda2Solve { value: 0.0, residual: 0.0, iterations: 0, products: 0, converged: true }
        );
    }

    #[test]
    fn lambda2_converges_over_uneven_and_empty_planes() {
        use std::f64::consts::PI;
        // C_21 over planes of 5, 0, 7, 3 and 6 slots: none a multiple of
        // 4, one empty. Once along the flat order, once striding by 5 so
        // every link crosses aggregates and most cross planes.
        let sizes = [5, 0, 7, 3, 6];
        let expect = 2.0 - 2.0 * (2.0 * PI / 21.0).cos();
        for stride in [1usize, 5] {
            let ring: Vec<(usize, usize)> =
                (0..21).map(|i| (i * stride % 21, (i + 1) * stride % 21)).collect();
            let solve = algebraic_connectivity_solve(
                &layered(&sizes, &ring),
                &[true; 21],
                &Lambda2Config::default(),
            );
            assert_converged_to(&solve, expect, 2.0, &format!("stride {stride}"));
        }
    }

    #[test]
    fn lambda2_of_a_path_around_a_dead_plane() {
        use std::f64::consts::PI;
        // Planes 0..4, 4..10 and 10..15. The path runs through plane 0,
        // then plane 2, then ends in plane 1, so masking plane 1's
        // interior (or all of it) leaves a connected path with an
        // aggregate-free plane in the middle of the layout.
        let order: Vec<usize> = (0..4).chain(10..15).chain(4..10).collect();
        let edges: Vec<(usize, usize)> = order.windows(2).map(|w| (w[0], w[1])).collect();
        let topo = layered(&[4, 6, 5], &edges);
        for (dead, survivors) in [(5..10, 10), (4..10, 9)] {
            let mut alive = [true; 15];
            alive[dead.clone()].iter_mut().for_each(|a| *a = false);
            let solve = algebraic_connectivity_solve(&topo, &alive, &Lambda2Config::default());
            let expect = 2.0 * (1.0 - (PI / survivors as f64).cos());
            assert_converged_to(&solve, expect, 2.0, &format!("dead {dead:?}"));
        }
    }

    #[test]
    fn ritz_pair_drops_collapsed_directions() {
        // x = e1, w = e2 and p = e2 again under L = [[1, ½], [½, 2]]: p
        // adds nothing, so it is dropped and the pair is the 2×2 one.
        let a = [[1.0, 0.5, 0.5], [0.5, 2.0, 2.0], [0.5, 2.0, 2.0]];
        let b = [[1.0, 0.0, 0.0], [0.0, 1.0, 1.0], [0.0, 1.0, 1.0]];
        let (value, c) = smallest_ritz_pair(&a, &b, [true; 3]).expect("x and w span a plane");
        assert!((value - (1.5 - 0.5f64.sqrt())).abs() < 1e-15, "{value}");
        assert_eq!(c[2], 0.0, "the collapsed p takes no part");
        assert!(c.iter().all(|v| v.is_finite()), "{c:?}");
        // A zero direction is dropped without dividing by its zero norm.
        let zero_w = [[1.0, 0.0, 0.5], [0.0, 0.0, 0.0], [0.5, 0.0, 2.0]];
        let zero_b = [[1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 1.0]];
        let (value, c) = smallest_ritz_pair(&zero_w, &zero_b, [true; 3]).expect("x and p remain");
        assert!((value - (1.5 - 0.5f64.sqrt())).abs() < 1e-15, "{value}");
        assert_eq!(c[1], 0.0);
        // Nothing beside x: no step is possible.
        assert_eq!(smallest_ritz_pair(&zero_w, &zero_b, [true, true, false]), None);
        assert_eq!(smallest_ritz_pair(&a, &b, [true, false, false]), None);
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
