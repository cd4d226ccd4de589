//! Incremental candidate evaluation for the attack search.
//!
//! [`super::DegradedEvaluator::score_attack`] re-runs the full masked
//! pipeline per candidate: rebuild the masked topology, re-attach every
//! endpoint, re-run one Dijkstra per distinct serving satellite. The
//! search shapes that feed it are far more structured than that —
//! greedy-frontier neighbours share a (k−1)-victim prefix, swap
//! neighbours share k−1 of k victims — so almost all of that work
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
//!    ([`super::DegradedEvaluator::with_repair_threshold`]). With the
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
//! 3. **Ranked attachment** — per (slot, interned endpoint), the serving
//!    candidates are listed once, best first (elevation descending, flat
//!    index ascending: `ServingIndex::ranked`). An endpoint's server under
//!    a mask is the first alive entry — the masked index's first-wins
//!    maximum without a constellation-wide scan.
//! 4. **An indexed demand tally** — workload flows are interned by
//!    endpoint pair once per evaluator, each pair is classified once per
//!    candidate, and one flow-order pass accumulates into a dense
//!    per-satellite-pair vector (`traffic_engine::tally_attachments`,
//!    the same routine the full engine uses), making the same additions
//!    in the same order as a per-flow map.
//! 5. **Candidate-delta scoring** — the evaluation state of recent
//!    candidates (per-flow routes, fallback trees, k-path sets) is kept
//!    in a small LRU keyed by canonical victim set; a new candidate
//!    starts from the largest cached subset of its victims and applies
//!    only the delta. The greedy loop pins its growing prefix so every
//!    frontier neighbour is a one-unit delta.
//! 6. **Affected-flow filtering** — only flows whose cached route
//!    touches a newly dead node (or whose attachment changed) are
//!    re-routed, and a source's k-path set is recomputed only when its
//!    destinations changed or a stored path lost a hop; everything else
//!    replays its cached outcome. Alive-component labels settle
//!    reachability first: a pair split across components is unreachable
//!    outright, so no repair or k-path round waits on a destination it
//!    can never settle.
//!
//! Aggregates (routed counts, per-link loads, waterfilled served
//! demand) are rebuilt in flow order from the per-flow outcomes — never
//! adjusted by floating-point deltas — so every objective value is
//! **byte-identical** to the full [`super::DegradedEvaluator`] path,
//! candidate for candidate, for all objectives and thread counts. The
//! scorer also deduplicates repeated candidates with a seen-cache keyed
//! by canonical victim set and reports scored-vs-unique counts.

use super::{AttackObjective, DegradedEvaluator, SlotEvaluation};
use crate::error::Result;
use crate::routing::{Cut, PlaneCuts, RepairBuffers, ServingIndex, ShortestPathTree};
use crate::topology::{SatId, Topology};
use crate::traffic::TrafficReport;
use crate::traffic_engine::{
    k_paths_for_source, local_only_summary, tally_attachments, waterfill_summary, FlowIndex,
    ServedDemandSummary,
};
use ssplane_astro::geo::GeoPoint;
use ssplane_astro::par::par_map;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Cached candidate states kept for delta evaluation. Small on purpose:
/// the intact state (always available) bounds the worst case, and every
/// cached state holds repaired trees worth O(sources · nodes).
const LRU_CAP: usize = 12;

/// Per endpoint of one slot, every satellite able to serve it (flat
/// indices), best first — see [`ServingIndex::ranked`].
#[derive(Debug, Default)]
struct RankedServers {
    /// Endpoint `e`'s list is `sats[starts[e]..starts[e + 1]]`.
    starts: Vec<usize>,
    sats: Vec<usize>,
}

impl RankedServers {
    fn build(index: &ServingIndex<'_>, topology: &Topology, points: &[GeoPoint]) -> Self {
        let mut starts = Vec::with_capacity(points.len() + 1);
        let mut sats = Vec::new();
        starts.push(0);
        for &p in points {
            sats.extend(index.ranked(p).into_iter().map(|(id, _)| {
                topology.index_of(id).expect("snapshot and topology share the flat layout")
            }));
            starts.push(sats.len());
        }
        RankedServers { starts, sats }
    }

    /// Per endpoint: its serving satellite under `mask`, the first alive
    /// entry of its list.
    fn servers(&self, mask: &[bool]) -> Vec<Option<usize>> {
        self.starts
            .windows(2)
            .map(|w| self.sats[w[0]..w[1]].iter().copied().find(|&s| mask[s]))
            .collect()
    }
}

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
    /// The candidate's alive mask.
    mask: &'d [bool],
    /// The victims alive under the parent's mask.
    dead_new: &'d [usize],
    /// The whole victim set, split for intact-tree repairs.
    split: &'d VictimSplit,
}

/// One flow's routing outcome under a mask — everything a stricter mask
/// needs to decide reuse.
#[derive(Debug, Clone)]
enum FlowState {
    /// An endpoint had no serving satellite.
    Unattached,
    /// Both endpoints attach to the same satellite (routed, no ISL).
    Local,
    /// Routed over the ISL path `hops` (flat indices, `s` → `d`).
    Path { s: usize, d: usize, hops: Arc<[usize]> },
    /// Attached at both ends but partitioned.
    Unreachable { s: usize, d: usize },
}

/// The k-path candidate set of one source satellite, shared across
/// cached states while it stays valid.
#[derive(Debug)]
struct SourcePaths {
    /// The destination set the rounds were run over (ascending).
    dsts: Vec<usize>,
    /// Up-to-k deduplicated candidate paths per destination, aligned
    /// with `dsts`.
    paths: Vec<Vec<Vec<usize>>>,
}

/// Served-demand evaluation state of one slot.
#[derive(Debug, Clone, Default)]
struct ServedState {
    /// Per source satellite: its k-path candidate set.
    sources: BTreeMap<usize, Arc<SourcePaths>>,
}

/// Cached evaluation state of one slot under one mask.
#[derive(Debug, Clone, Default)]
struct SlotState {
    /// Per classic flow: its routing outcome.
    flows: Vec<FlowState>,
    /// Full from-scratch trees built past the damage threshold while
    /// evaluating this state (targeted repairs are consumed, not kept).
    trees: BTreeMap<usize, Arc<ShortestPathTree>>,
    /// Served-demand state, when the objective needs it.
    served: Option<ServedState>,
}

/// A fully evaluated candidate: the mask and every slot's reusable
/// state. The LRU holds these; the intact state is one with no victims.
#[derive(Debug)]
struct MaskState {
    /// Sorted, deduplicated flat victim indices — the canonical key.
    victims: Vec<usize>,
    /// The alive mask the state was evaluated under.
    mask: Vec<bool>,
    /// Per-slot state.
    slots: Vec<SlotState>,
}

impl MaskState {
    /// The empty bootstrap parent: no victims, nothing cached — every
    /// lookup against it recomputes from the intact tree cache.
    fn bootstrap(n_slots: usize, all_alive: &[bool]) -> MaskState {
        MaskState {
            victims: Vec::new(),
            mask: all_alive.to_vec(),
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

/// `victims − parent` for sorted slices with `parent ⊆ victims`.
fn diff_sorted(victims: &[usize], parent: &[usize]) -> Vec<usize> {
    let mut out = Vec::with_capacity(victims.len().saturating_sub(parent.len()));
    let mut j = 0;
    for &v in victims {
        if j < parent.len() && parent[j] == v {
            j += 1;
        } else {
            out.push(v);
        }
    }
    out
}

/// The incremental candidate scorer: [`Self::score`] is pinned
/// byte-identical to [`DegradedEvaluator::score_attack`] on the same
/// destroyed set and objective, at a per-candidate cost proportional to
/// the *damage delta* from the nearest cached state instead of the whole
/// constellation. Build one per search via
/// [`DegradedEvaluator::incremental_scorer`]; it is `Sync`, so one
/// instance serves every scoring thread (the caches are internally
/// locked, and cache content never influences returned values — only
/// how much work they cost).
#[derive(Debug)]
pub struct IncrementalScorer<'e, 'a> {
    ev: &'e DegradedEvaluator<'a>,
    objective: AttackObjective,
    /// Damage-threshold fallback: repaired regions larger than this many
    /// nodes recompute from scratch instead.
    max_affected: usize,
    /// Whether the objective reads classic per-flow routing.
    needs_routing: bool,
    /// Whether the objective reads per-link loads.
    need_load: bool,
    /// Whether the objective reads the waterfilled served demand.
    needs_served: bool,
    /// Whether the objective reads survivor-component sizes.
    needs_connectivity: bool,
    /// Flat index → network-layout id, for rebuilding `SatId` link keys.
    ids: Vec<SatId>,
    /// Interned classic flows (empty unless routing is needed).
    flow_index: FlowIndex,
    /// Per slot: the classic endpoints' ranked servers.
    ranked: Vec<RankedServers>,
    /// Per slot: the workload endpoints' ranked servers.
    w_ranked: Vec<RankedServers>,
    /// Per-slot intact per-source trees, built lazily, kept for the
    /// scorer's lifetime — the repair baseline every state can reach.
    intact_trees: Vec<Mutex<BTreeMap<usize, Arc<IntactTree>>>>,
    /// The fully evaluated intact state — the universal parent.
    intact_state: Arc<MaskState>,
    /// Recently evaluated candidate states, most recent first.
    lru: Mutex<Vec<Arc<MaskState>>>,
    /// The greedy prefix pinned by [`Self::ensure_resident`], exempt
    /// from LRU eviction so a whole frontier batch deltas off it.
    pinned: Mutex<Option<Arc<MaskState>>>,
    /// Seen-cache: canonical victim set → objective value.
    seen: Mutex<BTreeMap<Vec<usize>, f64>>,
    /// Score requests (cache hits included).
    scored: AtomicUsize,
}

impl<'e, 'a> IncrementalScorer<'e, 'a> {
    /// Builds the scorer: interns flows, ranks every endpoint's serving
    /// candidates per slot, and evaluates the intact state (one tree per
    /// distinct intact source — the only whole-constellation Dijkstras
    /// the scorer's lifetime pays for, outside damage-threshold
    /// fallbacks).
    pub fn new(ev: &'e DegradedEvaluator<'a>, objective: AttackObjective) -> Self {
        let needs_served = objective == AttackObjective::ServedDemand && ev.workload.is_some();
        let needs_routing =
            matches!(objective, AttackObjective::RoutedFraction | AttackObjective::LoadInflation)
                || (objective == AttackObjective::ServedDemand && ev.workload.is_none());
        let need_load = objective == AttackObjective::LoadInflation;
        let needs_connectivity = objective == AttackObjective::Connectivity;
        let n_slots = ev.n_slots();
        let ids: Vec<SatId> =
            if n_slots > 0 { ev.series.snapshot(0).ids().collect() } else { Vec::new() };
        let flow_index =
            if needs_routing { FlowIndex::new(ev.flows) } else { FlowIndex::default() };
        let mut ranked = Vec::new();
        let mut w_ranked = Vec::new();
        if needs_routing || needs_served {
            for k in 0..n_slots {
                let index = ServingIndex::new(ev.series.snapshot(k), ev.min_elevation);
                let topology = &ev.topologies[k];
                ranked.push(RankedServers::build(&index, topology, &flow_index.points));
                let w_points = match &ev.w_flows {
                    Some(w) if needs_served => &w.points[..],
                    _ => &[],
                };
                w_ranked.push(RankedServers::build(&index, topology, w_points));
            }
        }
        let n = ev.n_sats();
        let max_affected = crate::cast::f64_to_index(((n as f64) * ev.repair_threshold).ceil());
        let bootstrap = Arc::new(MaskState::bootstrap(n_slots, &ev.all_alive));
        let mut scorer = IncrementalScorer {
            ev,
            objective,
            max_affected,
            needs_routing,
            need_load,
            needs_served,
            needs_connectivity,
            ids,
            flow_index,
            ranked,
            w_ranked,
            intact_trees: (0..n_slots).map(|_| Mutex::new(BTreeMap::new())).collect(),
            intact_state: bootstrap.clone(),
            lru: Mutex::new(Vec::new()),
            pinned: Mutex::new(None),
            seen: Mutex::new(BTreeMap::new()),
            scored: AtomicUsize::new(0),
        };
        let (intact, _) = scorer.build_state(Vec::new(), &bootstrap);
        scorer.intact_state = Arc::new(intact);
        scorer
    }

    /// The objective this scorer evaluates.
    pub fn objective(&self) -> AttackObjective {
        self.objective
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

    /// Drops every cached candidate state and seen value, keeping only
    /// the intact state and intact tree cache — each following score
    /// pays the full delta-from-intact cost again. Benchmarks call this
    /// per iteration so repeated timing loops measure real incremental
    /// work instead of replaying the seen-cache. Counters keep counting.
    pub fn clear_cache(&self) {
        self.lru.lock().expect("state cache poisoned").clear();
        *self.pinned.lock().expect("pinned state poisoned") = None;
        self.seen.lock().expect("seen cache poisoned").clear();
    }

    /// Scores one destroyed set — byte-identical to
    /// [`DegradedEvaluator::score_attack`] with this scorer's objective.
    /// The destroyed set is canonicalized (sorted unique in-range flat
    /// indices) for caching, exactly the `DegradedEvaluator::attack_mask`
    /// semantics.
    ///
    /// # Errors
    /// None in practice; the `Result` mirrors `score_attack` so the two
    /// paths stay drop-in interchangeable.
    pub fn score(&self, destroyed: &[SatId]) -> Result<f64> {
        self.scored.fetch_add(1, Ordering::Relaxed);
        let key = self.canonical(destroyed);
        if let Some(&v) = self.seen.lock().expect("seen cache poisoned").get(&key) {
            return Ok(v);
        }
        let value = if self.objective == AttackObjective::MaskingThreshold {
            // Pure union-find over the prebuilt topologies, like
            // score_attack — only the seen-cache is new. Canonical ids
            // match the sorted sets the search always passes.
            let sorted_ids: Vec<SatId> = key.iter().map(|&f| self.ids[f]).collect();
            self.ev.masking_collapse_value(&sorted_ids)
        } else {
            let parent = self.best_parent(&key);
            let (state, slots) = self.build_state(key.clone(), &parent);
            let value = self.ev.objective_value(self.objective, &slots);
            self.push_lru(Arc::new(state));
            value
        };
        self.seen.lock().expect("seen cache poisoned").insert(key, value);
        Ok(value)
    }

    /// Scores a batch across `threads` workers (`0` = the machine) via
    /// [`par_map`], returning scores in candidate order — the incremental
    /// counterpart of [`DegradedEvaluator::score_batch`]: cached states
    /// change how much a candidate costs, never what it scores.
    ///
    /// # Errors
    /// The first (lowest-index) candidate failure.
    pub fn score_batch(&self, candidates: &[Vec<SatId>], threads: usize) -> Result<Vec<f64>> {
        par_map(candidates.iter().collect(), threads, |c| self.score(c)).into_iter().collect()
    }

    /// Pins the state of `destroyed` (evaluating it if needed, without
    /// touching the counters) so following one-unit extensions delta off
    /// it — the greedy loop pins its prefix after every step. Pinning is
    /// a pure cache operation: values never depend on it.
    pub(super) fn ensure_resident(&self, destroyed: &[SatId]) {
        if self.objective == AttackObjective::MaskingThreshold {
            return;
        }
        let key = self.canonical(destroyed);
        let resident = {
            let mut lru = self.lru.lock().expect("state cache poisoned");
            lru.iter().position(|st| st.victims == key).map(|pos| lru.remove(pos))
        };
        let state = resident.unwrap_or_else(|| {
            let parent = self.best_parent(&key);
            let (state, _) = self.build_state(key, &parent);
            Arc::new(state)
        });
        *self.pinned.lock().expect("pinned state poisoned") = Some(state);
    }

    /// Canonical victim key: sorted unique in-range flat indices —
    /// exactly the set [`DegradedEvaluator::attack_mask`] would kill.
    fn canonical(&self, destroyed: &[SatId]) -> Vec<usize> {
        if self.ev.n_slots() == 0 {
            return Vec::new();
        }
        let snapshot = self.ev.series.snapshot(0);
        let mut v: Vec<usize> =
            destroyed.iter().filter_map(|id| snapshot.flat_index(*id)).collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// The largest cached state whose victims are a subset of `victims`
    /// (pinned state first, then most-recent LRU order); the intact
    /// state when nothing better is cached.
    fn best_parent(&self, victims: &[usize]) -> Arc<MaskState> {
        let pinned = self.pinned.lock().expect("pinned state poisoned").clone();
        let lru = self.lru.lock().expect("state cache poisoned");
        let mut best: Option<&Arc<MaskState>> = None;
        for st in pinned.iter().chain(lru.iter()) {
            if st.victims.len() <= victims.len()
                && best.is_none_or(|b| st.victims.len() > b.victims.len())
                && is_subset(&st.victims, victims)
            {
                best = Some(st);
            }
        }
        best.cloned().unwrap_or_else(|| self.intact_state.clone())
    }

    fn push_lru(&self, state: Arc<MaskState>) {
        let mut lru = self.lru.lock().expect("state cache poisoned");
        lru.insert(0, state);
        lru.truncate(LRU_CAP);
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
    /// deduplicated) under the candidate's mask: a fallback tree built
    /// earlier in this evaluation, then a targeted repair of the parent's
    /// fallback tree by the newly dead nodes, then a targeted repair of
    /// the intact tree by the whole victim set (whole planes through the
    /// tree's plane cuts, the rest walked) — each cut short once the
    /// needed destinations settle ([`ShortestPathTree::repaired_paths`])
    /// — then (damage threshold hit) a from-scratch masked tree, kept in
    /// `local` for this state's lifetime. Every branch is bit-identical.
    /// Repairs label into `buffers`, shared by the slot's repairs.
    fn paths_for(
        &self,
        k: usize,
        s: usize,
        dsts: &[usize],
        delta: &Delta<'_>,
        local: &mut BTreeMap<usize, Arc<ShortestPathTree>>,
        buffers: &mut RepairBuffers,
    ) -> Vec<Option<Arc<[usize]>>> {
        let from_tree = |tree: &ShortestPathTree| {
            dsts.iter().map(|&d| tree.flat_path_to(d).map(|(h, _)| h.into())).collect()
        };
        if let Some(tree) = local.get(&s) {
            return from_tree(tree);
        }
        let intact = self.intact_tree(k, s);
        let split = delta.split;
        if split.planes.is_empty() && split.others.is_empty() {
            return from_tree(&intact.tree);
        }
        let (topo, mask) = (&self.ev.topologies[k], delta.mask);
        let repaired = delta.parent.slots[k]
            .trees
            .get(&s)
            .and_then(|t| {
                let cut = Cut { planes: None, nodes: delta.dead_new };
                t.repaired_paths(topo, mask, cut, self.max_affected, dsts, buffers)
            })
            .or_else(|| {
                let planes = (!split.planes.is_empty()).then(|| {
                    (intact.cuts.get_or_init(|| intact.tree.plane_cuts(topo)), &split.planes[..])
                });
                let cut = Cut { planes, nodes: &split.others };
                intact.tree.repaired_paths(topo, mask, cut, self.max_affected, dsts, buffers)
            });
        match repaired {
            Some(paths) => paths.into_iter().map(|p| p.map(|(h, _)| h.into())).collect(),
            None => {
                let tree = Arc::new(ShortestPathTree::from_flat(topo, s, Some(mask)));
                local.insert(s, Arc::clone(&tree));
                from_tree(&tree)
            }
        }
    }

    /// The served-demand stage replay: ranked attachment, the shared
    /// indexed tally and per-source k-path reuse, then the shared
    /// waterfilling — bit-identical to
    /// [`crate::traffic_engine::assign_capacity_constrained`] over the
    /// masked snapshot and topology. A recomputed source takes its
    /// round-0 (plain shortest) paths from [`Self::paths_for`]'s tree
    /// repair; `local` and `buffers` are as there.
    fn eval_served(
        &self,
        k: usize,
        delta: &Delta<'_>,
        local: &mut BTreeMap<usize, Arc<ShortestPathTree>>,
        buffers: &mut RepairBuffers,
    ) -> (ServedState, ServedDemandSummary) {
        let mask = delta.mask;
        let w = self.ev.workload.expect("served demand needs a workload");
        if w.flows.is_empty() {
            return (ServedState::default(), ServedDemandSummary::empty(0, 0.0, 0.0));
        }
        let flows = self.ev.w_flows.as_ref().expect("interned with the workload");
        let topo = &self.ev.topologies[k];
        let servers = self.w_ranked[k].servers(mask);
        let tally = tally_attachments(&w.flows, flows, &servers);
        let n_flows = w.flows.len();
        if tally.sat_pairs.is_empty() {
            let summary = local_only_summary(n_flows, flows.offered, &tally);
            return (ServedState::default(), summary);
        }
        let fresh = ServedState::default();
        let pserved = delta.parent.slots[k].served.as_ref().unwrap_or(&fresh);
        let kp = w.capacity.k_paths.max(1);
        let mut reach: Option<Vec<u32>> = None;
        let mut sources: BTreeMap<usize, Arc<SourcePaths>> = BTreeMap::new();
        for group in tally.sat_pairs.chunk_by(|a, b| a.0 == b.0) {
            let s = group[0].0;
            let dsts: Vec<usize> = group.iter().map(|&(_, d)| d).collect();
            // Round-r penalties couple every destination of a source, so
            // reuse is whole-source: same destination set and every
            // stored candidate path still alive — then each round
            // replays identically and so does the merged path set.
            let reusable = pserved.sources.get(&s).filter(|sp| {
                sp.dsts == dsts && sp.paths.iter().flatten().flatten().all(|&h| mask[h])
            });
            let sp = match reusable {
                Some(sp) => Arc::clone(sp),
                None => {
                    // Round 0 from the repaired tree, which only has to
                    // settle the destinations `s` can reach.
                    let reach = reach.get_or_insert_with(|| topo.component_labels(Some(mask)));
                    let reachable: Vec<usize> =
                        dsts.iter().copied().filter(|&d| reach[d] == reach[s]).collect();
                    let mut found =
                        self.paths_for(k, s, &reachable, delta, local, buffers).into_iter();
                    let shortest = dsts
                        .iter()
                        .map(|&d| {
                            let path = (reach[d] == reach[s]).then(|| found.next()).flatten();
                            path.flatten().map(|hops| hops.to_vec())
                        })
                        .collect();
                    let paths =
                        k_paths_for_source(topo, s, &dsts, kp, Some(mask), reach, Some(shortest));
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
        (ServedState { sources }, summary)
    }

    /// One slot's delta evaluation: cached-or-repaired routing plus the
    /// slot aggregates the objective reads, synthesized into a
    /// [`SlotEvaluation`] whose read fields match the full pipeline's
    /// bit for bit (unread fields — stretch, hops, outcomes — are left
    /// inert).
    fn build_slot(&self, k: usize, delta: &Delta<'_>) -> (SlotState, SlotEvaluation) {
        let (parent, mask) = (delta.parent, delta.mask);
        let mut state = SlotState::default();
        let mut buffers = RepairBuffers::default();
        let mut routed = 0usize;
        let mut unrouted = 0usize;
        let mut link_load: BTreeMap<(SatId, SatId), f64> = BTreeMap::new();
        let flow_ends =
            |i: usize| self.flow_index.pairs[crate::cast::widen_u32(self.flow_index.flow_pair[i])];
        if self.needs_routing && !self.need_load {
            // Reachability-only objectives (routed fraction and its
            // served-demand fallback): the masked Dijkstra finds a path
            // iff both serving satellites share an alive component, so
            // component labels give the exact same routed/unrouted
            // counts without building a single path.
            let servers = self.ranked[k].servers(mask);
            let comp = self.ev.topologies[k].component_labels(Some(mask));
            for i in 0..self.ev.flows.len() {
                let (ea, eb) = flow_ends(i);
                match (servers[ea], servers[eb]) {
                    (Some(a), Some(b)) if a == b || comp[a] == comp[b] => routed += 1,
                    _ => unrouted += 1,
                }
            }
        } else if self.needs_routing {
            let servers = self.ranked[k].servers(mask);
            // Classify every flow first; flows needing a fresh route are
            // grouped by source so each source pays one targeted repair
            // for all of its destinations. Pairs in different alive
            // components are unreachable outright, so a repair only ever
            // waits for destinations it will settle.
            let comp = self.ev.topologies[k].component_labels(Some(mask));
            let mut staged: Vec<Option<FlowState>> = Vec::with_capacity(self.ev.flows.len());
            let mut pairs: Vec<(usize, usize)> = Vec::new();
            let mut by_src: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
            for i in 0..self.ev.flows.len() {
                let (ea, eb) = flow_ends(i);
                let fs = match (servers[ea], servers[eb]) {
                    (Some(a), Some(b)) if a == b => Some(FlowState::Local),
                    (Some(a), Some(b)) => match parent.slots[k].flows.get(i) {
                        // Same serving pair and every hop alive: the
                        // cached route is still canonical (removals only
                        // lengthen competitors).
                        Some(FlowState::Path { s, d, hops })
                            if *s == a && *d == b && hops.iter().all(|&h| mask[h]) =>
                        {
                            Some(FlowState::Path { s: a, d: b, hops: Arc::clone(hops) })
                        }
                        // Reachability only shrinks under a stricter
                        // mask: unreachable stays unreachable.
                        Some(FlowState::Unreachable { s, d }) if *s == a && *d == b => {
                            Some(FlowState::Unreachable { s: a, d: b })
                        }
                        _ if comp[a] != comp[b] => Some(FlowState::Unreachable { s: a, d: b }),
                        _ => {
                            by_src.entry(a).or_default().push(b);
                            pairs.push((a, b));
                            None
                        }
                    },
                    _ => Some(FlowState::Unattached),
                };
                staged.push(fs);
            }
            let mut routes: BTreeMap<(usize, usize), Option<Arc<[usize]>>> = BTreeMap::new();
            for (&s, dsts) in &mut by_src {
                dsts.sort_unstable();
                dsts.dedup();
                let found = self.paths_for(k, s, dsts, delta, &mut state.trees, &mut buffers);
                for (&d, hops) in dsts.iter().zip(found) {
                    routes.insert((s, d), hops);
                }
            }
            let mut pair_it = pairs.into_iter();
            let mut flows = Vec::with_capacity(self.ev.flows.len());
            for (flow, st) in self.ev.flows.iter().zip(staged) {
                let fs = st.unwrap_or_else(|| {
                    let (a, b) = pair_it.next().expect("one pending pair per staged hole");
                    match &routes[&(a, b)] {
                        Some(hops) => FlowState::Path { s: a, d: b, hops: Arc::clone(hops) },
                        None => FlowState::Unreachable { s: a, d: b },
                    }
                });
                match &fs {
                    FlowState::Local => routed += 1,
                    FlowState::Path { hops, .. } => {
                        routed += 1;
                        if self.need_load {
                            // Flow-order accumulation onto SatId keys:
                            // the exact summation the full path runs.
                            for hop in hops.windows(2) {
                                *link_load
                                    .entry((self.ids[hop[0]], self.ids[hop[1]]))
                                    .or_insert(0.0) += flow.demand;
                            }
                        }
                    }
                    FlowState::Unattached | FlowState::Unreachable { .. } => unrouted += 1,
                }
                flows.push(fs);
            }
            state.flows = flows;
        }
        let largest_component = if self.needs_connectivity {
            self.ev.topologies[k].largest_component_among(mask)
        } else {
            0
        };
        let served = if self.needs_served {
            let (ss, summary) = self.eval_served(k, delta, &mut state.trees, &mut buffers);
            state.served = Some(ss);
            Some(summary)
        } else {
            None
        };
        let evaluation = SlotEvaluation {
            connected: false,
            largest_component,
            // The victims are the parent's plus the disjoint new ones.
            alive: self.ev.n_sats() - parent.victims.len() - delta.dead_new.len(),
            traffic: TrafficReport {
                routed,
                unrouted,
                link_load,
                mean_stretch: f64::NAN,
                mean_hops: f64::NAN,
                flow_outcomes: Vec::new(),
                link_capacity: self.ev.link_capacity,
            },
            served,
        };
        (state, evaluation)
    }

    /// Evaluates `victims` as a delta off `parent`, returning the new
    /// cacheable state and the synthesized per-slot evaluations.
    fn build_state(
        &self,
        victims: Vec<usize>,
        parent: &MaskState,
    ) -> (MaskState, Vec<SlotEvaluation>) {
        let dead_new = diff_sorted(&victims, &parent.victims);
        let mut mask = parent.mask.clone();
        for &d in &dead_new {
            mask[d] = false;
        }
        let n_slots = self.ev.n_slots();
        let split = if (self.need_load || self.needs_served) && n_slots > 0 {
            VictimSplit::new(&victims, self.ev.topologies[0].plane_offsets())
        } else {
            VictimSplit::default()
        };
        let delta = Delta { parent, mask: &mask, dead_new: &dead_new, split: &split };
        let mut slots = Vec::with_capacity(n_slots);
        let mut evaluations = Vec::with_capacity(n_slots);
        for k in 0..n_slots {
            let (st, ev_k) = self.build_slot(k, &delta);
            slots.push(st);
            evaluations.push(ev_k);
        }
        (MaskState { victims, mask, slots }, evaluations)
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{capacity_workload, city_flows, constellation, evaluator_fixture};
    use super::super::{AttackObjective, DegradedEvaluator};
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
                let fast = scorer.score(destroyed).unwrap();
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
                let fast = scorer.score(prefix).unwrap();
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
            let fast = scorer.score(&destroyed).unwrap();
            assert_eq!(full.to_bits(), fast.to_bits(), "served-demand diverged at k={k}");
        }
        // A whole plane, then the same plane plus more: prefix chaining.
        let plane: Vec<SatId> = (0..24).map(|slot| SatId { plane: 0, slot }).collect();
        let full = evaluator.score_attack(&plane, AttackObjective::ServedDemand).unwrap();
        assert_eq!(full.to_bits(), scorer.score(&plane).unwrap().to_bits());
        scorer.ensure_resident(&plane);
        let mut wider = plane.clone();
        wider.extend((0..24).map(|slot| SatId { plane: 3, slot }));
        let full = evaluator.score_attack(&wider, AttackObjective::ServedDemand).unwrap();
        assert_eq!(full.to_bits(), scorer.score(&wider).unwrap().to_bits());
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
                    let full = evaluator.score_batch(&batch, objective, 1).unwrap();
                    let fast = scorer.score_batch(&batch, threads).unwrap();
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
    fn edge_cases_wipeout_zero_loss_and_duplicates() {
        let c = constellation(4, 10);
        let flows = city_flows();
        let (series, flows) = evaluator_fixture(&c, &flows, 2);
        let evaluator =
            DegradedEvaluator::new(&series, &flows, 20f64.to_radians(), Default::default())
                .unwrap();
        let scorer = evaluator.incremental_scorer(AttackObjective::RoutedFraction);
        // Zero loss = the intact value.
        let intact = evaluator.objective_value(AttackObjective::RoutedFraction, evaluator.intact());
        assert_eq!(scorer.score(&[]).unwrap().to_bits(), intact.to_bits());
        // Wipeout: nobody alive, nothing routes.
        let everyone: Vec<SatId> = series.snapshot(0).ids().collect();
        assert_eq!(scorer.score(&everyone).unwrap(), 0.0);
        assert_eq!(
            scorer.score(&everyone).unwrap().to_bits(),
            evaluator.score_attack(&everyone, AttackObjective::RoutedFraction).unwrap().to_bits()
        );
        // Duplicate and out-of-range victims canonicalize like attack_mask.
        let messy = vec![
            SatId { plane: 1, slot: 3 },
            SatId { plane: 1, slot: 3 },
            SatId { plane: 99, slot: 0 },
        ];
        let full = evaluator.score_attack(&messy, AttackObjective::RoutedFraction).unwrap();
        assert_eq!(scorer.score(&messy).unwrap().to_bits(), full.to_bits());
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
        let va = scorer.score(&a).unwrap();
        assert_eq!(scorer.score(&b).unwrap().to_bits(), va.to_bits());
        scorer.score(&c2).unwrap();
        scorer.score(&a).unwrap();
        assert_eq!(scorer.candidates_scored(), 4);
        assert_eq!(scorer.candidates_unique(), 2);
        // clear_cache drops values but keeps counting monotonically.
        scorer.clear_cache();
        assert_eq!(scorer.candidates_unique(), 0);
        assert_eq!(scorer.score(&a).unwrap().to_bits(), va.to_bits());
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
        let reference =
            evaluator.score_batch(&candidates, AttackObjective::RoutedFraction, 1).unwrap();
        for threads in [0usize, 1, 2, 7] {
            let scorer = evaluator.incremental_scorer(AttackObjective::RoutedFraction);
            let batch = scorer.score_batch(&candidates, threads).unwrap();
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
        assert_eq!(scorer.score(&destroyed).unwrap().to_bits(), full.to_bits());
    }
}
