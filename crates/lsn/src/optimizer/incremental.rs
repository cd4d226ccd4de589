//! Incremental candidate evaluation for the attack search.
//!
//! [`super::DegradedEvaluator::score_attack`] re-runs the full masked
//! pipeline per candidate: re-attach the endpoints whose server died,
//! re-label the surviving components and re-route every flow over the
//! intact topology with the dead satellites skipped. The search shapes that feed it are far more structured
//! than that — greedy-frontier neighbours share a (k−1)-victim prefix,
//! swap neighbours share k−1 of k victims — so almost all of that work
//! repeats verbatim between candidates. [`IncrementalScorer`] exploits
//! the structure with these mechanisms, each *exact*, never heuristic:
//!
//! 1. **Dynamic shortest-path-tree repair** — per-source trees are
//!    built once on the intact per-slot topologies; a candidate mask
//!    invalidates only the dead nodes' subtrees and repairs them with a
//!    bounded Dijkstra seeded from the frontier of still-final labels,
//!    cut short as soon as the re-routed flows' destinations settle
//!    (`ShortestPathTree::repaired_paths`), falling back to a full
//!    recompute past the evaluator's damage threshold
//!    ([`super::DegradedEvaluator::with_repair_threshold`]) — a tree
//!    built for that one evaluation and not cached. With the
//!    canonical `(dist, node)` heap order every repaired label is
//!    bit-identical to a from-scratch run over the masked topology, so
//!    the same repair also supplies round 0 (the plain shortest paths)
//!    of every recomputed served-demand k-path set. Repairs write their
//!    labels into a generation-stamped buffers shared by a slot's
//!    repairs, so none copies or resets a whole tree.
//! 2. **Per-plane cut bitsets** — each cached intact tree carries, built
//!    once on its first plane repair, the subtree and frontier bitset of
//!    every plane (`routing::PlaneCuts`). A repair ORs its whole victim
//!    planes' bitsets and seeds the alive, finite-label nodes in
//!    frontier AND NOT region — exactly the region and seeds a subtree
//!    walk from every dead node finds — so a plane-budget repair sets
//!    its region up in O(n/64) words instead of walking most of the
//!    tree. Victims
//!    outside whole planes still go through the subtree walk in the same
//!    routine, and the damage threshold compares the region's popcount.
//! 3. **Ranked attachment** — the evaluator lists, per slot, the serving
//!    candidates of one endpoint table once, best first (elevation
//!    descending, flat index ascending: `ServingIndex::ranked`): the
//!    classic flows' interned endpoints, then the workload's. The scorer
//!    reads a range of that table: the classic range for routed fraction
//!    and load inflation, the workload range for served demand. An
//!    endpoint's server under a mask is the first alive entry — the
//!    masked index's first-wins maximum without a constellation-wide
//!    scan, and the same answer the evaluator's masked passes read.
//! 4. **An indexed demand tally, reused while attachment holds** —
//!    workload flows are interned by endpoint pair once per workload,
//!    each pair is classified once per tally, and one flow-order pass
//!    accumulates into a dense per-satellite-pair vector
//!    (`traffic_engine::tally_attachments`, the same routine the full
//!    engine uses), making the same additions in the same order as a
//!    per-flow map. The tally reads nothing but each endpoint's serving
//!    satellite, so a slot's state keeps both, and a candidate whose new
//!    victims serve no endpoint there shares its parent's tally.
//! 5. **Candidate-delta scoring** — a candidate starts from a parent
//!    state (per-flow routes, k-path sets, demand tallies) whose victims
//!    are a subset of its own and applies only the delta. The greedy
//!    loop pins its growing prefix as that parent, so every frontier
//!    neighbour is a one-unit delta; any other candidate deltas off the
//!    intact state.
//! 6. **Affected-flow filtering** — only flows whose cached route
//!    touches a newly dead node (or whose attachment changed) are
//!    re-routed, and a source's k-path set is recomputed only when its
//!    destinations changed or a stored path lost a hop; everything else
//!    replays its cached outcome. Alive-component labels settle
//!    reachability first: a pair split across components is unreachable
//!    outright, so no repair or k-path round waits on a destination it
//!    can never settle.
//!
//! Each slot yields the objective's one per-slot value — the routed
//! count, the largest-component fraction, the mean link load, the served
//! fraction or the masking-collapse score — and the evaluator's finish
//! step reduces them, exactly as
//! [`super::DegradedEvaluator::score_attack`] does. The values are
//! rebuilt in flow order from the per-flow outcomes and the tally —
//! never adjusted by floating-point deltas — so every objective value is
//! **byte-identical** to the full path, candidate for candidate, for all
//! objectives and thread counts. Per-link loads go through the traffic
//! assignment's own tally (`traffic::LinkTally`, a dense per-arc array
//! read back in ascending link order), so the mean link load is the full
//! path's by construction. The scorer also deduplicates repeated
//! candidates with a seen-cache keyed by canonical victim set and reports
//! scored-vs-unique counts.

use super::{component_fraction, AttackObjective, DegradedEvaluator};
use crate::routing::{Cut, PlaneCuts, RepairBuffers, ShortestPathTree};
use crate::topology::{Components, SatId};
use crate::traffic::{mean_link_load, serving_pairs, LinkTally};
use crate::traffic_engine::{
    k_paths_for_source, local_only_summary, tally_attachments, waterfill_summary, AttachmentTally,
    ServedDemandSummary,
};
use ssplane_astro::par::par_map;
use std::cell::OnceCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// A cached intact tree and its per-plane cuts, built on the tree's
/// first plane repair.
#[derive(Debug)]
struct IntactTree {
    tree: ShortestPathTree,
    cuts: OnceLock<PlaneCuts>,
}

/// A canonical victim set split for repair: the planes it kills whole,
/// and its remaining satellites.
#[derive(Debug, Default)]
struct VictimSplit {
    planes: Vec<usize>,
    others: Vec<usize>,
}

impl VictimSplit {
    /// Splits sorted, unique flat `victims` over the plane layout
    /// `offsets` (start per plane plus a trailing total).
    fn new(victims: &[usize], offsets: &[usize]) -> Self {
        let mut split = VictimSplit::default();
        let mut i = 0;
        for (p, w) in offsets.windows(2).enumerate() {
            let j = i + victims[i..].partition_point(|&v| v < w[1]);
            if j > i && j - i == w[1] - w[0] {
                split.planes.push(p);
            } else {
                split.others.extend_from_slice(&victims[i..j]);
            }
            i = j;
        }
        split
    }
}

/// One candidate as a delta off its cached parent state: what each
/// slot's evaluation reads.
struct Delta<'d> {
    parent: &'d MaskState,
    /// The candidate's canonical victims.
    victims: &'d [usize],
    /// The candidate's alive mask.
    mask: &'d [bool],
    /// The whole victim set split for intact-tree repairs, on first use.
    split: OnceCell<VictimSplit>,
    /// The masking-threshold removal ordering, on first use.
    order: OnceCell<Vec<usize>>,
}

/// One classic flow's ISL route under a mask: flat hops from its source
/// server to its destination server — everything a stricter mask needs
/// to decide reuse. `None` when it has none: unattached, local or split.
type FlowRoute = Option<Arc<[usize]>>;

/// The k-path candidate set of one source satellite, shared between a
/// parent state and the states built off it while it stays valid.
#[derive(Debug)]
struct SourcePaths {
    /// The destination set the rounds were run over (ascending).
    dsts: Vec<usize>,
    /// Up-to-k deduplicated candidate paths per destination, aligned
    /// with `dsts`.
    paths: Vec<Vec<Vec<usize>>>,
}

/// Served-demand evaluation state of one slot.
#[derive(Debug, Clone)]
struct ServedState {
    /// Per workload endpoint: its serving satellite under the state's
    /// mask.
    servers: Vec<Option<usize>>,
    /// The demand tally of `servers`, shared with the parent state when
    /// its endpoints attach the same way.
    tally: Arc<AttachmentTally>,
    /// Per source satellite: its k-path candidate set.
    sources: BTreeMap<usize, Arc<SourcePaths>>,
}

/// Cached evaluation state of one slot under one mask.
#[derive(Debug, Clone, Default)]
struct SlotState {
    /// Per classic flow: its route, when the objective loads links.
    flows: Vec<FlowRoute>,
    /// Served-demand state, when the objective needs it.
    served: Option<ServedState>,
}

/// A fully evaluated candidate: its victims and every slot's reusable
/// state. The intact state is one with no victims.
#[derive(Debug)]
struct MaskState {
    /// Sorted, deduplicated flat victim indices — the canonical key.
    victims: Vec<usize>,
    /// Per-slot state.
    slots: Vec<SlotState>,
}

impl MaskState {
    /// The empty bootstrap parent: no victims, nothing cached — every
    /// lookup against it recomputes from the intact tree cache.
    fn bootstrap(n_slots: usize) -> MaskState {
        MaskState {
            victims: Vec::new(),
            slots: (0..n_slots).map(|_| SlotState::default()).collect(),
        }
    }
}

/// Sorted-slice subset test.
fn is_subset(small: &[usize], big: &[usize]) -> bool {
    let mut j = 0;
    for &s in small {
        while j < big.len() && big[j] < s {
            j += 1;
        }
        if j >= big.len() || big[j] != s {
            return false;
        }
        j += 1;
    }
    true
}

/// The incremental candidate scorer: [`Self::score`] is pinned
/// byte-identical to [`DegradedEvaluator::score_attack`] on the same
/// destroyed set and objective, at a per-candidate cost proportional to
/// the *damage delta* from the pinned prefix or the intact state instead
/// of the whole constellation. Build one per search via
/// [`DegradedEvaluator::incremental_scorer`]; it is `Sync`, so one
/// instance serves every scoring thread (the caches are internally
/// locked, and cache content never influences returned values — only
/// how much work they cost).
#[derive(Debug)]
pub struct IncrementalScorer<'e, 'a> {
    ev: &'e DegradedEvaluator<'a>,
    /// The objective, resolved by the evaluator.
    objective: AttackObjective,
    /// Damage-threshold fallback: repaired regions larger than this many
    /// nodes recompute from scratch instead.
    max_affected: usize,
    /// Per-slot intact per-source trees, built lazily, kept for the
    /// scorer's lifetime — the repair baseline every state can reach.
    intact_trees: Vec<Mutex<BTreeMap<usize, Arc<IntactTree>>>>,
    /// The fully evaluated intact state — the universal parent.
    intact_state: Arc<MaskState>,
    /// The objective value of the intact state.
    pub(super) intact_value: f64,
    /// The greedy prefix pinned by [`Self::ensure_resident`], so a whole
    /// frontier batch deltas off it.
    pinned: Mutex<Option<Arc<MaskState>>>,
    /// Seen-cache: canonical victim set → objective value.
    seen: Mutex<BTreeMap<Vec<usize>, f64>>,
    /// Score requests (cache hits included).
    scored: AtomicUsize,
}

impl<'e, 'a> IncrementalScorer<'e, 'a> {
    /// Builds the scorer over the evaluator's interned flows and ranked
    /// servers, and evaluates the intact state (one tree per distinct
    /// intact source — the only whole-constellation Dijkstras the
    /// scorer's lifetime pays for, outside damage-threshold fallbacks).
    pub fn new(ev: &'e DegradedEvaluator<'a>, objective: AttackObjective) -> Self {
        let objective = ev.resolve(objective);
        let n_slots = ev.n_slots();
        let n = ev.n_sats();
        let max_affected = crate::cast::f64_to_index(((n as f64) * ev.repair_threshold).ceil());
        let bootstrap = Arc::new(MaskState::bootstrap(n_slots));
        let mut scorer = IncrementalScorer {
            ev,
            objective,
            max_affected,
            intact_trees: (0..n_slots).map(|_| Mutex::new(BTreeMap::new())).collect(),
            intact_state: bootstrap.clone(),
            intact_value: 0.0,
            pinned: Mutex::new(None),
            seen: Mutex::new(BTreeMap::new()),
            scored: AtomicUsize::new(0),
        };
        let (intact, value) = scorer.build_state(Vec::new(), &bootstrap);
        scorer.intact_state = Arc::new(intact);
        scorer.intact_value = value;
        scorer
    }

    /// Score requests so far, cache hits included — the search-loop
    /// work the throughput benchmarks normalize by.
    pub fn candidates_scored(&self) -> usize {
        self.scored.load(Ordering::Relaxed)
    }

    /// Distinct candidates actually evaluated (canonical victim sets in
    /// the seen-cache) — `candidates_scored() − candidates_unique()` is
    /// what the dedup saved.
    pub fn candidates_unique(&self) -> usize {
        self.seen.lock().expect("seen cache poisoned").len()
    }

    /// Drops the pinned state (with the routes, k-path sets and demand
    /// tallies it holds) and every seen value, keeping only the intact
    /// state and intact tree cache — each following score pays
    /// the full delta-from-intact cost again. Benchmarks call this
    /// per iteration so repeated timing loops measure real incremental
    /// work instead of replaying the seen-cache. Counters keep counting.
    pub fn clear_cache(&self) {
        *self.pinned.lock().expect("pinned state poisoned") = None;
        self.seen.lock().expect("seen cache poisoned").clear();
    }

    /// Scores one destroyed set — byte-identical to
    /// [`DegradedEvaluator::score_attack`] with this scorer's objective.
    /// The destroyed set is canonicalized (sorted unique in-range flat
    /// indices) for caching — the set `score_attack` destroys; the
    /// masking-collapse ordering takes the victims in that order, as it
    /// takes the sorted sets the search passes.
    pub fn score(&self, destroyed: &[SatId]) -> f64 {
        self.scored.fetch_add(1, Ordering::Relaxed);
        let key = self.canonical(destroyed);
        if let Some(&v) = self.seen.lock().expect("seen cache poisoned").get(&key) {
            return v;
        }
        let parent = self.best_parent(&key);
        let (_, value) = self.build_state(key.clone(), &parent);
        self.seen.lock().expect("seen cache poisoned").insert(key, value);
        value
    }

    /// Scores a batch across `threads` workers (`0` = the machine) via
    /// [`par_map`], returning scores in candidate order: the pinned state
    /// changes how much a candidate costs, never what it scores.
    pub fn score_batch(&self, candidates: &[Vec<SatId>], threads: usize) -> Vec<f64> {
        par_map(candidates.iter().collect(), threads, |c| self.score(c))
    }

    /// Pins the state of `destroyed` (evaluating it if needed, without
    /// touching the counters) so following one-unit extensions delta off
    /// it — the greedy loop pins its prefix after every step. Pinning is
    /// a pure cache operation: values never depend on it.
    pub(super) fn ensure_resident(&self, destroyed: &[SatId]) {
        let key = self.canonical(destroyed);
        let parent = self.best_parent(&key);
        let (state, _) = self.build_state(key, &parent);
        *self.pinned.lock().expect("pinned state poisoned") = Some(Arc::new(state));
    }

    /// Canonical victim key: sorted unique in-range flat indices —
    /// exactly the set [`DegradedEvaluator::score_attack`] destroys.
    fn canonical(&self, destroyed: &[SatId]) -> Vec<usize> {
        let mut v = self.ev.flat_victims(destroyed);
        v.sort_unstable();
        v.dedup();
        v
    }

    /// The pinned prefix if its victims are a subset of `victims`, else
    /// the intact state.
    fn best_parent(&self, victims: &[usize]) -> Arc<MaskState> {
        let pinned = self.pinned.lock().expect("pinned state poisoned");
        match pinned.as_ref() {
            Some(st) if is_subset(&st.victims, victims) => Arc::clone(st),
            _ => Arc::clone(&self.intact_state),
        }
    }

    /// The intact tree of source `s` in slot `k`, built on first use and
    /// kept for the scorer's lifetime.
    fn intact_tree(&self, k: usize, s: usize) -> Arc<IntactTree> {
        let mut cache = self.intact_trees[k].lock().expect("intact tree cache poisoned");
        cache
            .entry(s)
            .or_insert_with(|| {
                Arc::new(IntactTree {
                    tree: ShortestPathTree::from_flat(&self.ev.topologies[k], s, None),
                    cuts: OnceLock::new(),
                })
            })
            .clone()
    }

    /// The routes from alive source `s` to each of `dsts` (ascending,
    /// deduplicated) under the candidate's mask: a targeted repair of the
    /// intact tree by the whole victim set (whole planes through the
    /// tree's plane cuts, the rest walked), cut short once the needed
    /// destinations settle ([`ShortestPathTree::repaired_paths`]), or —
    /// damage threshold hit — a from-scratch masked tree. Both are
    /// bit-identical. Repairs label into `buffers`, shared by the slot's
    /// repairs.
    fn paths_for(
        &self,
        k: usize,
        s: usize,
        dsts: &[usize],
        delta: &Delta<'_>,
        buffers: &mut RepairBuffers,
    ) -> Vec<Option<Arc<[usize]>>> {
        let from_tree = |tree: &ShortestPathTree| {
            dsts.iter().map(|&d| tree.flat_path_to(d).map(|(h, _)| h.into())).collect()
        };
        let intact = self.intact_tree(k, s);
        let (topo, mask) = (&self.ev.topologies[k], delta.mask);
        let split =
            delta.split.get_or_init(|| VictimSplit::new(delta.victims, topo.plane_offsets()));
        if split.planes.is_empty() && split.others.is_empty() {
            return from_tree(&intact.tree);
        }
        let planes = (!split.planes.is_empty())
            .then(|| (intact.cuts.get_or_init(|| intact.tree.plane_cuts(topo)), &split.planes[..]));
        let cut = Cut { planes, nodes: &split.others };
        match intact.tree.repaired_paths(topo, mask, cut, self.max_affected, dsts, buffers) {
            Some(paths) => paths.into_iter().map(|p| p.map(|(h, _)| h.into())).collect(),
            None => from_tree(&ShortestPathTree::from_flat(topo, s, Some(mask))),
        }
    }

    /// The served-demand stage replay: ranked attachment, the indexed
    /// tally (the parent's own when every endpoint keeps its server) and
    /// per-source k-path reuse, then the shared waterfilling —
    /// bit-identical to
    /// [`crate::traffic_engine::assign_capacity_constrained`] over the
    /// masked snapshot and topology. A recomputed source takes its
    /// round-0 (plain shortest) paths from [`Self::paths_for`]'s tree
    /// repair; `components` reads the slot's labels. The state is `None`
    /// for an empty workload.
    fn eval_served<'c>(
        &self,
        k: usize,
        delta: &Delta<'_>,
        components: &impl Fn() -> &'c Components,
    ) -> (Option<ServedState>, ServedDemandSummary) {
        let mask = delta.mask;
        let w = self.ev.inputs.workload.expect("served demand needs a workload");
        if w.flows.is_empty() {
            return (None, ServedDemandSummary::empty(0, 0.0, 0.0));
        }
        let flows = w.flows.index();
        let topo = &self.ev.topologies[k];
        let servers = self.ev.ranked[k].servers(self.ev.inputs.workload_range(), Some(mask));
        let pserved = delta.parent.slots[k].served.as_ref();
        // The tally is a function of the servers alone, so a candidate
        // whose new victims serve no endpoint replays its parent's.
        let tally = match pserved {
            Some(ps) if ps.servers == servers => Arc::clone(&ps.tally),
            _ => Arc::new(tally_attachments(&w.flows, flows, &servers)),
        };
        let n_flows = w.flows.len();
        let mut sources: BTreeMap<usize, Arc<SourcePaths>> = BTreeMap::new();
        if tally.sat_pairs.is_empty() {
            let summary = local_only_summary(n_flows, flows.offered, &tally);
            return (Some(ServedState { servers, tally, sources }), summary);
        }
        let kp = w.capacity.k_paths.max(1);
        let mut buffers = RepairBuffers::default();
        for group in tally.sat_pairs.chunk_by(|a, b| a.0 == b.0) {
            let s = group[0].0;
            let dsts: Vec<usize> = group.iter().map(|&(_, d)| d).collect();
            // Round-r penalties couple every destination of a source, so
            // reuse is whole-source: same destination set and every
            // stored candidate path still alive — then each round
            // replays identically and so does the merged path set.
            let reusable = pserved.and_then(|ps| ps.sources.get(&s)).filter(|sp| {
                sp.dsts == dsts && sp.paths.iter().flatten().flatten().all(|&h| mask[h])
            });
            let sp = match reusable {
                Some(sp) => Arc::clone(sp),
                None => {
                    // Round 0 from the repaired tree, which only has to
                    // settle the destinations `s` can reach.
                    let labels = &components().labels;
                    let reachable: Vec<usize> =
                        dsts.iter().copied().filter(|&d| labels[d] == labels[s]).collect();
                    let mut found =
                        self.paths_for(k, s, &reachable, delta, &mut buffers).into_iter();
                    let shortest = dsts
                        .iter()
                        .map(|&d| {
                            let path = (labels[d] == labels[s]).then(|| found.next()).flatten();
                            path.flatten().map(|hops| hops.to_vec())
                        })
                        .collect();
                    let paths =
                        k_paths_for_source(topo, s, &dsts, kp, Some(mask), labels, Some(shortest));
                    Arc::new(SourcePaths { paths, dsts })
                }
            };
            sources.insert(s, sp);
        }
        // Sources ascend like the tally's pairs and each source's paths
        // align with its destinations, so the flattening aligns with
        // `tally.sat_pairs`.
        let pair_paths: Vec<&[Vec<usize>]> =
            sources.values().flat_map(|sp| sp.paths.iter().map(Vec::as_slice)).collect();
        let capacity = w.capacity.link_capacity;
        let summary =
            waterfill_summary(n_flows, flows.offered, &tally, |j| pair_paths[j], capacity);
        (Some(ServedState { servers, tally, sources }), summary)
    }

    /// One slot's delta evaluation: its reusable state and its value of
    /// the objective — the routed flow count, the largest-component
    /// fraction, the mean link load, the served-demand fraction or the
    /// masking-collapse score — bit for bit the full path's. The slot's
    /// components are labelled on first use.
    fn build_slot(&self, k: usize, delta: &Delta<'_>) -> (SlotState, f64) {
        let mask = delta.mask;
        let cell = OnceCell::new();
        let components = || cell.get_or_init(|| self.ev.topologies[k].components(Some(mask)));
        let mut state = SlotState::default();
        let value = match self.objective {
            AttackObjective::RoutedFraction => {
                // A flow routes iff it has a serving pair in one
                // component, so the pairs give the exact routed count
                // without building a single path.
                let pairs = self.classic_pairs(k, mask, &components().labels);
                pairs.iter().flatten().count() as f64
            }
            AttackObjective::Connectivity => {
                component_fraction(components().largest(), self.ev.n_sats() - delta.victims.len())
            }
            AttackObjective::LoadInflation => {
                state.flows = self.route_flows(k, delta, &components().labels);
                let mut tally = LinkTally::new(&self.ev.topologies[k]);
                for (flow, hops) in self.ev.inputs.flows.iter().zip(&state.flows) {
                    if let Some(hops) = hops {
                        tally.add(hops, flow.demand);
                    }
                }
                mean_link_load(&tally.into_loads(), self.ev.inputs.link_capacity)
            }
            AttackObjective::ServedDemand => {
                let (served, summary) = self.eval_served(k, delta, &components);
                state.served = served;
                summary.served_fraction
            }
            AttackObjective::MaskingThreshold => {
                let order = delta.order.get_or_init(|| self.ev.masking_order(delta.victims));
                self.ev.collapse_score(k, order)
            }
        };
        (state, value)
    }

    /// Each classic flow's serving pair in slot `k` under `mask`, as the
    /// full path's [`serving_pairs`] reads it: the classic range of the
    /// slot's ranked endpoint table, checked against the components
    /// `labels`.
    fn classic_pairs(
        &self,
        k: usize,
        mask: &[bool],
        labels: &[u32],
    ) -> Vec<Option<(usize, usize)>> {
        let servers = self.ev.ranked[k].servers(self.ev.inputs.classic(), Some(mask));
        serving_pairs(&self.ev.inputs.index, &servers, labels)
    }

    /// Stage one of a routed slot: every classic flow's ISL route under
    /// the candidate's mask. A flow without a serving pair in one of the
    /// components `labels`, or with both ends on one satellite, has none;
    /// one whose parent route still holds keeps it; the others are
    /// grouped by source, so each source pays one targeted repair
    /// ([`Self::paths_for`]) that only waits for destinations it will
    /// settle.
    fn route_flows(&self, k: usize, delta: &Delta<'_>, labels: &[u32]) -> Vec<FlowRoute> {
        let (parent, mask) = (delta.parent, delta.mask);
        let mut by_src: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        // A flow still to route holds its serving pair.
        let staged: Vec<_> = (self.classic_pairs(k, mask, labels).into_iter().enumerate())
            .map(|(i, pair)| match pair {
                Some((a, b)) if a != b => match parent.slots[k].flows.get(i) {
                    // Same serving pair and every hop alive: the cached
                    // route is still canonical (removals only lengthen
                    // competitors).
                    Some(Some(hops))
                        if (hops[0], hops[hops.len() - 1]) == (a, b)
                            && hops.iter().all(|&h| mask[h]) =>
                    {
                        Ok(Some(Arc::clone(hops)))
                    }
                    _ => {
                        by_src.entry(a).or_default().push(b);
                        Err((a, b))
                    }
                },
                _ => Ok(None),
            })
            .collect();
        let mut routes: BTreeMap<(usize, usize), FlowRoute> = BTreeMap::new();
        let mut buffers = RepairBuffers::default();
        for (&s, dsts) in &mut by_src {
            dsts.sort_unstable();
            dsts.dedup();
            let found = self.paths_for(k, s, dsts, delta, &mut buffers);
            routes.extend(dsts.iter().map(|&d| (s, d)).zip(found));
        }
        staged.into_iter().map(|st| st.unwrap_or_else(|pair| routes[&pair].clone())).collect()
    }

    /// Evaluates `victims` as a delta off `parent`, returning the new
    /// cacheable state and the candidate's objective value: the
    /// evaluator's finish step over the per-slot values.
    fn build_state(&self, victims: Vec<usize>, parent: &MaskState) -> (MaskState, f64) {
        let mask = self.ev.attack_mask(&victims);
        let delta = Delta {
            parent,
            victims: &victims,
            mask: &mask,
            split: OnceCell::new(),
            order: OnceCell::new(),
        };
        let (slots, per_slot): (Vec<SlotState>, Vec<f64>) =
            (0..self.ev.n_slots()).map(|k| self.build_slot(k, &delta)).unzip();
        let value = self.ev.objective_value(self.objective, &per_slot);
        (MaskState { victims, slots }, value)
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{capacity_workload, city_flows, constellation, evaluator_fixture};
    use super::super::{
        optimize_attack, AttackBudget, AttackObjective, AttackSearchConfig, DegradedEvaluator,
    };
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Random distinct victim sets of every shape the search emits.
    fn random_victims(ev: &DegradedEvaluator<'_>, rng: &mut StdRng, k: usize) -> Vec<SatId> {
        let snapshot = ev.series.snapshot(0);
        let ids: Vec<SatId> = snapshot.ids().collect();
        let mut picked = Vec::new();
        let mut taken = vec![false; ids.len()];
        while picked.len() < k.min(ids.len()) {
            let i = rng.gen_index(ids.len());
            if !taken[i] {
                taken[i] = true;
                picked.push(ids[i]);
            }
        }
        picked.sort_unstable();
        picked
    }

    #[test]
    fn incremental_matches_full_for_every_objective() {
        let c = constellation(5, 12);
        let flows = city_flows();
        let (series, flows) = evaluator_fixture(&c, &flows, 2);
        let evaluator =
            DegradedEvaluator::new(&series, &flows, 20f64.to_radians(), Default::default())
                .unwrap();
        let mut rng = StdRng::seed_from_u64(99);
        let candidates: Vec<Vec<SatId>> = (0..8)
            .map(|i| random_victims(&evaluator, &mut rng, 1 + i % 7))
            .chain(std::iter::once(
                (0..12).map(|s| SatId { plane: 1, slot: s }).collect::<Vec<_>>(),
            ))
            .collect();
        for objective in [
            AttackObjective::RoutedFraction,
            AttackObjective::Connectivity,
            AttackObjective::LoadInflation,
            AttackObjective::ServedDemand, // no workload: routed-fraction semantics
            AttackObjective::MaskingThreshold,
        ] {
            let scorer = evaluator.incremental_scorer(objective);
            for destroyed in &candidates {
                let full = evaluator.score_attack(destroyed, objective).unwrap();
                let fast = scorer.score(destroyed);
                assert_eq!(
                    full.to_bits(),
                    fast.to_bits(),
                    "{objective:?} diverged on {destroyed:?}"
                );
            }
            // Chained prefixes (the greedy shape) stay exact too.
            let chain = random_victims(&evaluator, &mut rng, 6);
            for end in 1..=chain.len() {
                let prefix = &chain[..end];
                let full = evaluator.score_attack(prefix, objective).unwrap();
                let fast = scorer.score(prefix);
                assert_eq!(full.to_bits(), fast.to_bits(), "{objective:?} prefix {end}");
                scorer.ensure_resident(prefix);
            }
        }
    }

    #[test]
    fn incremental_matches_full_with_a_workload() {
        let c = constellation(10, 24);
        let flows = city_flows();
        let (series, flows) = evaluator_fixture(&c, &flows, 2);
        let workload = capacity_workload();
        let evaluator = DegradedEvaluator::with_workload(
            &series,
            &flows,
            20f64.to_radians(),
            Default::default(),
            Some(&workload),
        )
        .unwrap();
        let scorer = evaluator.incremental_scorer(AttackObjective::ServedDemand);
        let mut rng = StdRng::seed_from_u64(5);
        for k in [1usize, 4, 24] {
            let destroyed = random_victims(&evaluator, &mut rng, k);
            let full = evaluator.score_attack(&destroyed, AttackObjective::ServedDemand).unwrap();
            let fast = scorer.score(&destroyed);
            assert_eq!(full.to_bits(), fast.to_bits(), "served-demand diverged at k={k}");
        }
        // A whole plane, then the same plane plus more: prefix chaining.
        let plane: Vec<SatId> = (0..24).map(|slot| SatId { plane: 0, slot }).collect();
        let full = evaluator.score_attack(&plane, AttackObjective::ServedDemand).unwrap();
        assert_eq!(full.to_bits(), scorer.score(&plane).to_bits());
        scorer.ensure_resident(&plane);
        let mut wider = plane.clone();
        wider.extend((0..24).map(|slot| SatId { plane: 3, slot }));
        let full = evaluator.score_attack(&wider, AttackObjective::ServedDemand).unwrap();
        assert_eq!(full.to_bits(), scorer.score(&wider).to_bits());
    }

    #[test]
    fn incremental_matches_full_under_a_plane_budget_with_a_tight_threshold() {
        // A 5 % damage threshold (12 of 240 nodes) sends every whole-plane
        // repair to the from-scratch fallback while single-satellite
        // repairs of small subtrees still cut, so both branches run side
        // by side through greedy-shaped frontier batches — each a
        // one-plane delta off the pinned prefix — at 1, 2 and 7 threads.
        let c = constellation(10, 24);
        let flows = city_flows();
        let (series, flows) = evaluator_fixture(&c, &flows, 2);
        let workload = capacity_workload();
        let evaluator = DegradedEvaluator::with_workload(
            &series,
            &flows,
            20f64.to_radians(),
            Default::default(),
            Some(&workload),
        )
        .unwrap()
        .with_repair_threshold(0.05);
        let plane = |p: usize| (0..24).map(move |slot| SatId { plane: p, slot });
        for objective in [AttackObjective::ServedDemand, AttackObjective::LoadInflation] {
            for threads in [1usize, 2, 7] {
                let scorer = evaluator.incremental_scorer(objective);
                let mut prefix: Vec<SatId> = Vec::new();
                for (step, next) in [3usize, 7, 0].into_iter().enumerate() {
                    let mut batch: Vec<Vec<SatId>> = (0..10)
                        .filter(|&q| !prefix.iter().any(|id| id.plane == q))
                        .map(|q| {
                            let mut c: Vec<SatId> =
                                prefix.iter().copied().chain(plane(q)).collect();
                            c.sort_unstable();
                            c
                        })
                        .collect();
                    // Plane-plus-satellite mixes and a lone satellite.
                    let mut mixed = prefix.clone();
                    mixed.extend(plane(5 + step % 2).take(5));
                    mixed.push(SatId { plane: 9, slot: 11 });
                    mixed.sort_unstable();
                    batch.push(mixed);
                    batch.push(vec![SatId { plane: 2, slot: step }]);
                    let full: Vec<f64> = batch
                        .iter()
                        .map(|c| evaluator.score_attack(c, objective).unwrap())
                        .collect();
                    let fast = scorer.score_batch(&batch, threads);
                    for (i, (f, g)) in full.iter().zip(&fast).enumerate() {
                        assert_eq!(f.to_bits(), g.to_bits(), "{objective:?} step {step} #{i}");
                    }
                    prefix.extend(plane(next));
                    prefix.sort_unstable();
                    scorer.ensure_resident(&prefix);
                }
            }
        }
    }

    #[test]
    fn a_served_tally_is_shared_until_a_serving_satellite_dies() {
        let c = constellation(10, 24);
        let flows = city_flows();
        let (series, flows) = evaluator_fixture(&c, &flows, 2);
        let workload = capacity_workload();
        let evaluator = DegradedEvaluator::with_workload(
            &series,
            &flows,
            20f64.to_radians(),
            Default::default(),
            Some(&workload),
        )
        .unwrap();
        let scorer = evaluator.incremental_scorer(AttackObjective::ServedDemand);
        let intact = scorer.intact_state.slots[0].served.as_ref().expect("a served state");
        let serving: Vec<usize> = intact.servers.iter().flatten().copied().collect();
        let ids: Vec<SatId> = series.snapshot(0).ids().collect();
        let idle = (0..ids.len()).find(|f| !serving.contains(f)).expect("an idle satellite");
        for (victim, shared) in [(idle, true), (serving[0], false)] {
            let destroyed = [ids[victim]];
            let full = evaluator.score_attack(&destroyed, AttackObjective::ServedDemand).unwrap();
            assert_eq!(scorer.score(&destroyed).to_bits(), full.to_bits());
            let (state, value) = scorer.build_state(vec![victim], &scorer.intact_state);
            assert_eq!(value.to_bits(), full.to_bits());
            let served = state.slots[0].served.as_ref().expect("a served state");
            assert_eq!(Arc::ptr_eq(&served.tally, &intact.tally), shared, "victim {victim}");
        }
    }

    #[test]
    fn edge_cases_wipeout_zero_loss_and_duplicates() {
        let c = constellation(4, 10);
        let flows = city_flows();
        let (series, flows) = evaluator_fixture(&c, &flows, 2);
        let evaluator =
            DegradedEvaluator::new(&series, &flows, 20f64.to_radians(), Default::default())
                .unwrap();
        let everyone: Vec<SatId> = series.snapshot(0).ids().collect();
        // Duplicate and out-of-range victims canonicalize like attack_mask.
        let messy = vec![
            SatId { plane: 1, slot: 3 },
            SatId { plane: 1, slot: 3 },
            SatId { plane: 99, slot: 0 },
        ];
        for objective in [
            AttackObjective::RoutedFraction,
            AttackObjective::Connectivity,
            AttackObjective::LoadInflation,
            AttackObjective::ServedDemand, // no workload: routed-fraction semantics
            AttackObjective::MaskingThreshold,
        ] {
            let scorer = evaluator.incremental_scorer(objective);
            // Zero loss = the intact value, which the search reports.
            let intact = evaluator.score_attack(&[], objective).unwrap();
            assert_eq!(scorer.score(&[]).to_bits(), intact.to_bits(), "{objective:?}");
            let config = AttackSearchConfig {
                objective,
                budget: AttackBudget::Planes(1),
                restarts: 0,
                swaps: 0,
                threads: 1,
            };
            let outcome = optimize_attack(&evaluator, &config, 1, &[]).unwrap();
            assert_eq!(outcome.intact_value.to_bits(), intact.to_bits(), "{objective:?}");
            for destroyed in [&everyone, &messy] {
                let full = evaluator.score_attack(destroyed, objective).unwrap();
                assert_eq!(scorer.score(destroyed).to_bits(), full.to_bits(), "{objective:?}");
            }
        }
        // Wipeout: nobody alive, nothing routes.
        let scorer = evaluator.incremental_scorer(AttackObjective::RoutedFraction);
        assert_eq!(scorer.score(&everyone), 0.0);
    }

    #[test]
    fn seen_cache_dedups_and_counts() {
        let c = constellation(4, 10);
        let flows = city_flows();
        let (series, flows) = evaluator_fixture(&c, &flows, 2);
        let evaluator =
            DegradedEvaluator::new(&series, &flows, 20f64.to_radians(), Default::default())
                .unwrap();
        let scorer = evaluator.incremental_scorer(AttackObjective::RoutedFraction);
        let a = vec![SatId { plane: 0, slot: 1 }, SatId { plane: 2, slot: 5 }];
        let b = vec![SatId { plane: 2, slot: 5 }, SatId { plane: 0, slot: 1 }]; // same set
        let c2 = vec![SatId { plane: 1, slot: 0 }];
        let va = scorer.score(&a);
        assert_eq!(scorer.score(&b).to_bits(), va.to_bits());
        scorer.score(&c2);
        scorer.score(&a);
        assert_eq!(scorer.candidates_scored(), 4);
        assert_eq!(scorer.candidates_unique(), 2);
        // clear_cache drops values but keeps counting monotonically.
        scorer.clear_cache();
        assert_eq!(scorer.candidates_unique(), 0);
        assert_eq!(scorer.score(&a).to_bits(), va.to_bits());
        assert_eq!(scorer.candidates_scored(), 5);
        assert_eq!(scorer.candidates_unique(), 1);
    }

    #[test]
    fn score_batch_matches_sequential_across_thread_counts() {
        let c = constellation(5, 12);
        let flows = city_flows();
        let (series, flows) = evaluator_fixture(&c, &flows, 2);
        let evaluator =
            DegradedEvaluator::new(&series, &flows, 20f64.to_radians(), Default::default())
                .unwrap();
        let candidates: Vec<Vec<SatId>> =
            (0..5).map(|p| (0..12).map(|s| SatId { plane: p, slot: s }).collect()).collect();
        let reference: Vec<f64> = candidates
            .iter()
            .map(|c| evaluator.score_attack(c, AttackObjective::RoutedFraction).unwrap())
            .collect();
        for threads in [0usize, 1, 2, 7] {
            let scorer = evaluator.incremental_scorer(AttackObjective::RoutedFraction);
            let batch = scorer.score_batch(&candidates, threads);
            let bits: Vec<u64> = batch.iter().map(|v| v.to_bits()).collect();
            let ref_bits: Vec<u64> = reference.iter().map(|v| v.to_bits()).collect();
            assert_eq!(bits, ref_bits, "{threads} threads");
            assert_eq!(scorer.candidates_scored(), 5);
        }
    }

    #[test]
    fn tight_damage_threshold_still_exact() {
        // A threshold so low every repair falls back to full recompute:
        // values must not move (the fallback is the same math).
        let c = constellation(5, 12);
        let flows = city_flows();
        let (series, flows) = evaluator_fixture(&c, &flows, 2);
        let evaluator =
            DegradedEvaluator::new(&series, &flows, 20f64.to_radians(), Default::default())
                .unwrap()
                .with_repair_threshold(1e-9);
        let scorer = evaluator.incremental_scorer(AttackObjective::RoutedFraction);
        let destroyed: Vec<SatId> = (0..12).map(|s| SatId { plane: 2, slot: s }).collect();
        let full = evaluator.score_attack(&destroyed, AttackObjective::RoutedFraction).unwrap();
        assert_eq!(scorer.score(&destroyed).to_bits(), full.to_bits());
    }
}
