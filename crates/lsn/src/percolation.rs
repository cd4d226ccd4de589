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
//!   Laplacian via a seeded Lanczos solve that stops on the explicit
//!   residual and reports it, so reports stay byte-reproducible across
//!   runs and thread counts without any external eigensolver;
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

/// The seed of the λ₂ Lanczos start vector ("lambda2").
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

/// Configuration of the λ₂ Lanczos solve. Every parameter is fixed, so
/// a solve is deterministic; the result says whether it met the
/// residual contract ([`Lambda2Solve::converged`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Lambda2Config {
    /// Residual tolerance relative to `c = 2·d_max` (a Gershgorin bound
    /// on the Laplacian spectrum): the solve has converged once its unit
    /// Ritz vector `y` satisfies `‖Ly − θy‖ ≤ tolerance · c`.
    pub tolerance: f64,
    /// Cap on Lanczos steps (the cost bound when the spectral gap is too
    /// small to meet the tolerance).
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
    /// λ₂: the Rayleigh quotient of the final Ritz vector (exactly `0.0`
    /// for a disconnected, empty or single-node alive set).
    pub value: f64,
    /// Explicit residual `‖Ly − θy‖` of the unit Ritz vector `y` (`0.0`
    /// for the combinatorial zero).
    pub residual: f64,
    /// Lanczos steps taken (`0` for the combinatorial zero).
    pub iterations: usize,
    /// Whether `residual ≤ tolerance · 2·d_max`; `false` means the solve
    /// stopped (at the step cap) first and `value` is only an upper
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
/// its residual — a seeded Lanczos solve on `L` over the complement of
/// the all-ones kernel vector. No external eigensolver, no randomness
/// beyond the seeded start vector, no threading: byte-reproducible
/// across runs and thread counts.
///
/// The three-term recurrence keeps only two Lanczos vectors (memory
/// O(nodes + links), no stored basis) and subtracts the mean from each
/// new vector to stay orthogonal to the ones vector. Every
/// `LANCZOS_CHECK_EVERY` steps the smallest Ritz value θ of the
/// tridiagonal `T_j` is found by Sturm bisection and its eigenvector `s`
/// by inverse iteration; once the residual estimate `β_j·|s_j|` meets
/// `tolerance · c` (`c = 2·d_max`), the recurrence re-runs from the same
/// start to form the Ritz vector `y = V s`, whose Rayleigh quotient is
/// the value and whose explicit residual `‖Ly − θy‖` decides
/// convergence. If the explicit residual misses the tolerance (lost
/// orthogonality can make the estimate optimistic) the recurrence
/// resumes, up to `max_iterations` steps.
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
    let exact_zero = Lambda2Solve { value: 0.0, residual: 0.0, iterations: 0, converged: true };
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
    let bound = config.tolerance * c;
    let start = start_vector(laplacian.len(), config.seed);
    let mut lanczos = Lanczos::new(&laplacian, start.clone());
    let (mut alphas, mut betas) = (Vec::new(), Vec::new());
    loop {
        let (alpha, beta) = lanczos.step();
        alphas.push(alpha);
        betas.push(beta);
        let j = alphas.len();
        // Stop at the step cap, or once β_j is below the bound: the
        // Krylov space is then (numerically) invariant and v_{j+1} would
        // be roundoff.
        let last = beta <= bound || j >= config.max_iterations;
        if !last && j % LANCZOS_CHECK_EVERY != 0 {
            continue;
        }
        let s = smallest_ritz_vector(&alphas, &betas[..j - 1]);
        if !last && beta * s[j - 1].abs() > bound {
            continue;
        }
        let y = ritz_vector(&laplacian, start.clone(), &s);
        let (value, residual) = laplacian.rayleigh_residual(&y);
        let converged = residual <= bound;
        if converged || last {
            return Lambda2Solve { value: value.max(0.0), residual, iterations: j, converged };
        }
    }
}

/// Lanczos steps between two checks of the Ritz residual estimate.
const LANCZOS_CHECK_EVERY: usize = 10;

/// The unweighted Laplacian of the alive subgraph (the convention the
/// closed-form spectra use), with the alive nodes compacted to `0..m`
/// and the adjacency in CSR form.
struct Laplacian {
    degree: Vec<f64>,
    offsets: Vec<usize>,
    targets: Vec<usize>,
}

impl Laplacian {
    fn new(topology: &Topology, alive: &[bool]) -> Laplacian {
        let mut compact = vec![usize::MAX; alive.len()];
        let mut m = 0;
        for (v, _) in alive.iter().enumerate().filter(|(_, &a)| a) {
            compact[v] = m;
            m += 1;
        }
        let mut offsets = Vec::with_capacity(m + 1);
        let mut targets = Vec::new();
        offsets.push(0);
        for (v, _) in alive.iter().enumerate().filter(|(_, &a)| a) {
            targets.extend(
                topology
                    .neighbors(v)
                    .iter()
                    .filter(|&&(nb, _)| alive[nb])
                    .map(|&(nb, _)| compact[nb]),
            );
            offsets.push(targets.len());
        }
        let degree = offsets.windows(2).map(|w| (w[1] - w[0]) as f64).collect();
        Laplacian { degree, offsets, targets }
    }

    fn len(&self) -> usize {
        self.degree.len()
    }

    fn max_degree(&self) -> f64 {
        self.degree.iter().copied().fold(0.0, f64::max)
    }

    /// `Lx` in node order: `(Lx)_i = d_i·x_i − Σ_{j∈N(i)} x_j`.
    fn apply<'s>(&'s self, x: &'s [f64]) -> impl Iterator<Item = f64> + 's {
        self.offsets.windows(2).zip(self.degree.iter().zip(x)).map(|(range, (&d, &xi))| {
            d * xi - self.targets[range[0]..range[1]].iter().map(|&j| x[j]).sum::<f64>()
        })
    }

    /// The Rayleigh quotient `θ = yᵀLy / yᵀy` and the residual
    /// `‖Ly − θy‖ / ‖y‖`.
    fn rayleigh_residual(&self, y: &[f64]) -> (f64, f64) {
        let ly: Vec<f64> = self.apply(y).collect();
        let norm_sq = dot(y, y);
        let theta = dot(y, &ly) / norm_sq;
        let residual_sq: f64 = ly.iter().zip(y).map(|(l, v)| (l - theta * v).powi(2)).sum();
        (theta, (residual_sq / norm_sq).sqrt())
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

/// The Lanczos three-term recurrence on a [`Laplacian`], holding only
/// the current and previous basis vectors.
struct Lanczos<'a> {
    laplacian: &'a Laplacian,
    prev: Vec<f64>,
    cur: Vec<f64>,
    beta_prev: f64,
}

impl<'a> Lanczos<'a> {
    /// A recurrence from a unit start vector orthogonal to the ones
    /// vector.
    fn new(laplacian: &'a Laplacian, start: Vec<f64>) -> Lanczos<'a> {
        Lanczos { laplacian, prev: vec![0.0; start.len()], cur: start, beta_prev: 0.0 }
    }

    /// One step from `v_j` (the current vector): returns `(α_j, β_j)`
    /// and advances to `v_{j+1}` (left unnormalized when `β_j = 0`).
    fn step(&mut self) -> (f64, f64) {
        let (prev, cur) = (&mut self.prev, &self.cur);
        // w = L v_j − β_{j−1} v_{j−1}, written over v_{j−1}.
        let (mut alpha, mut sum_w, mut sum_v) = (0.0, 0.0, 0.0);
        for ((w, lv), &v) in prev.iter_mut().zip(self.laplacian.apply(cur)).zip(cur) {
            *w = lv - self.beta_prev * *w;
            alpha += *w * v;
            sum_w += *w;
            sum_v += v;
        }
        // w − α_j v_j, minus its mean: the ones-vector component that
        // roundoff lets back in.
        let mean = (sum_w - alpha * sum_v) / prev.len() as f64;
        let mut norm_sq = 0.0;
        for (w, v) in prev.iter_mut().zip(cur) {
            *w -= alpha * v + mean;
            norm_sq += *w * *w;
        }
        let beta = norm_sq.sqrt();
        if beta > 0.0 {
            let inv = beta.recip();
            prev.iter_mut().for_each(|w| *w *= inv);
        }
        std::mem::swap(&mut self.prev, &mut self.cur);
        self.beta_prev = beta;
        (alpha, beta)
    }
}

/// The Ritz vector `y = Σ s_i v_i`, re-running the recurrence from
/// `start` (bit-identically, so no basis is stored).
fn ritz_vector(laplacian: &Laplacian, start: Vec<f64>, s: &[f64]) -> Vec<f64> {
    let mut y = vec![0.0; start.len()];
    let mut lanczos = Lanczos::new(laplacian, start);
    for (i, &si) in s.iter().enumerate() {
        if i > 0 {
            lanczos.step();
        }
        y.iter_mut().zip(&lanczos.cur).for_each(|(y, v)| *y += si * v);
    }
    y
}

/// The unit eigenvector of the smallest eigenvalue of the symmetric
/// tridiagonal matrix with diagonal `alpha` and off-diagonal `beta`
/// (`beta.len() == alpha.len() − 1`): the eigenvalue by Sturm bisection,
/// the vector by two steps of inverse iteration.
fn smallest_ritz_vector(alpha: &[f64], beta: &[f64]) -> Vec<f64> {
    let n = alpha.len();
    let off = |i: usize| if i < beta.len() { beta[i].abs() } else { 0.0 };
    // Gershgorin lower bound; the smallest eigenvalue is at most any
    // diagonal entry.
    let mut lo = (0..n)
        .map(|i| alpha[i] - off(i) - if i > 0 { off(i - 1) } else { 0.0 })
        .fold(f64::INFINITY, f64::min);
    let mut hi = alpha.iter().copied().fold(f64::INFINITY, f64::min);
    let scale = lo.abs().max(hi.abs()).max(f64::MIN_POSITIVE);
    let pivot_floor = f64::EPSILON * scale;
    // Eigenvalues below x: negative pivots of the LDLᵀ of T − xI.
    let count_below = |x: f64| {
        let mut q = 1.0;
        let mut count = 0;
        for i in 0..n {
            let coupling = if i > 0 { beta[i - 1] * beta[i - 1] / q } else { 0.0 };
            q = alpha[i] - x - coupling;
            if q.abs() < pivot_floor {
                q = -pivot_floor;
            }
            if q < 0.0 {
                count += 1;
            }
        }
        count
    };
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if mid <= lo || mid >= hi {
            break;
        }
        if count_below(mid) >= 1 {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    let mut s = vec![1.0; n];
    for _ in 0..2 {
        s = solve_shifted_tridiagonal(alpha, beta, hi, &s, pivot_floor);
        let norm = dot(&s, &s).sqrt();
        s.iter_mut().for_each(|x| *x /= norm);
    }
    s
}

/// Solves `(T − σI) x = rhs` for the symmetric tridiagonal `T`
/// (diagonal `alpha`, off-diagonal `beta`) by Gaussian elimination with
/// partial pivoting; pivots below `pivot_floor` are raised to it, as
/// inverse iteration at a converged shift requires.
fn solve_shifted_tridiagonal(
    alpha: &[f64],
    beta: &[f64],
    sigma: f64,
    rhs: &[f64],
    pivot_floor: f64,
) -> Vec<f64> {
    let n = alpha.len();
    let floor = |d: f64| if d.abs() < pivot_floor { pivot_floor.copysign(d) } else { d };
    // Upper-triangular rows: entries at columns (k, k+1, k+2).
    let mut upper = Vec::with_capacity(n);
    let mut y = Vec::with_capacity(n);
    // The reduced row at column k: entries at columns (k, k+1), rhs r.
    let (mut d, mut u, mut r) = (alpha[0] - sigma, beta.first().copied().unwrap_or(0.0), rhs[0]);
    for k in 0..n - 1 {
        // Row k+1: entries at columns (k, k+1, k+2).
        let (l, nd, nu, nr) =
            (beta[k], alpha[k + 1] - sigma, beta.get(k + 1).copied().unwrap_or(0.0), rhs[k + 1]);
        if l.abs() > d.abs() {
            // Row k+1 pivots and the reduced row is eliminated.
            let f = d / l;
            upper.push((l, nd, nu));
            y.push(nr);
            (d, u, r) = (u - f * nd, -f * nu, r - f * nr);
        } else {
            let pivot = floor(d);
            let f = l / pivot;
            upper.push((pivot, u, 0.0));
            y.push(r);
            (d, u, r) = (nd - f * u, nu, nr - f * r);
        }
    }
    upper.push((d, 0.0, 0.0));
    y.push(r);
    let mut x = vec![0.0; n];
    for k in (0..n).rev() {
        let (pd, p1, p2) = upper[k];
        let mut acc = y[k];
        if k + 1 < n {
            acc -= p1 * x[k + 1];
        }
        if k + 2 < n {
            acc -= p2 * x[k + 2];
        }
        x[k] = acc / floor(pd);
    }
    x
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

    /// The torus C_rows □ C_cols: node `r·cols + k` links to its ring
    /// successors along both dimensions (both sides at least 3, so no
    /// link repeats).
    fn torus(rows: usize, cols: usize) -> Topology {
        let mut edges = Vec::new();
        for r in 0..rows {
            for k in 0..cols {
                edges.push((r * cols + k, r * cols + (k + 1) % cols));
                edges.push((r * cols + k, ((r + 1) % rows) * cols + k));
            }
        }
        graph(rows * cols, &edges)
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
        // Complete K_n: λ₂ = n.
        for n in [2usize, 4, 7] {
            let topo = complete(n);
            let got = algebraic_connectivity(&topo, &vec![true; n], &config);
            assert!((got - n as f64).abs() < 1e-9, "complete n={n}: {got}");
        }
    }

    #[test]
    fn lambda2_matches_the_torus_spectrum() {
        use std::f64::consts::PI;
        let config = Lambda2Config::default();
        // C_m □ C_n: λ₂ = 2 − 2cos(2π/max(m, n)); the +grid of a Walker
        // shell is this graph.
        for (rows, cols) in [(12usize, 40usize), (40, 12), (5, 7), (16, 16), (3, 50)] {
            let topo = torus(rows, cols);
            let solve = algebraic_connectivity_solve(&topo, &vec![true; rows * cols], &config);
            let expect = 2.0 - 2.0 * (2.0 * PI / rows.max(cols) as f64).cos();
            assert!(
                (solve.value - expect).abs() < 1e-9,
                "torus {rows}x{cols}: {} vs {expect}",
                solve.value
            );
            // Degree 4 everywhere: c = 8.
            assert!(solve.converged, "torus {rows}x{cols}: {solve:?}");
            assert!(solve.residual <= config.tolerance * 8.0, "torus {rows}x{cols}: {solve:?}");
            assert!(solve.iterations > 0 && solve.iterations <= config.max_iterations);
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
        // Still an upper estimate of λ₂ (the Ritz value interlaces).
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
            Lambda2Solve { value: 0.0, residual: 0.0, iterations: 0, converged: true }
        );
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
