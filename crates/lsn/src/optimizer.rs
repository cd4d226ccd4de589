//! Adversarial attack search: find the destroyed set that hurts the
//! routed network most.
//!
//! The fixed [`crate::disruption::AttackModel`]s answer "what does *this*
//! attack cost?"; the paper's survivability claim needs the converse —
//! "what is the **worst** attack a bounded adversary can mount?" ("Your
//! Mega-Constellations Can Be Slim" judges designs the same way: against
//! the most damaging loss pattern, not an average one). This module
//! provides:
//!
//! * a [`DegradedEvaluator`] — the reusable per-candidate evaluation the
//!   degraded network stage and the search share: one prebuilt intact
//!   [`Topology`], routing [`Landmarks`] and ground attachment per slot
//!   of a [`SnapshotSeries`], and candidate alive masks scored over that
//!   topology as it stands: each endpoint attaches to its first
//!   surviving ranked server, and the component pass, the
//!   landmark-guided traffic assignment
//!   ([`crate::traffic::assign_traffic`]) and the capacity engine's
//!   k-path rounds skip dead satellites as they walk it. No candidate
//!   builds a masked topology or snapshot, re-runs the geometric
//!   construction or re-propagates an orbit;
//! * an [`AttackObjective`] — the degraded metric the adversary drives
//!   down: mean routed-flow fraction, survivor connectivity (largest
//!   surviving component fraction), (negated) link-load inflation, the
//!   capacity-constrained served-demand fraction (with a
//!   population-scale [`TrafficWorkload`] attached) or the
//!   masking-collapse score. Each is the mean over slots of one per-slot
//!   value followed by one finish step, defined once here and shared by
//!   both candidate paths below;
//! * [`DegradedEvaluator::score_attack`] — the full path, one candidate
//!   at a time: each slot's value from a full masked evaluation (the
//!   collapse score straight from the prebuilt topology), then the
//!   finish step. It is the reference the incremental path is pinned to;
//! * an [`IncrementalScorer`] ([`incremental`] has the details) — the
//!   delta-evaluation layer the search scores through: per-source
//!   shortest-path trees repaired instead of rebuilt, the greedy prefix
//!   pinned as the frontier's parent state, a seen-cache keyed by
//!   canonical victim set, and only damage-affected flows re-routed;
//!   each slot yields the same per-slot value as the full path, bit for
//!   bit, and the same finish step reduces them;
//! * [`optimize_attack`] — a seeded, deterministic search over k-plane or
//!   k-satellite candidate sets: greedy construction (each step scores
//!   its whole frontier in parallel across threads) followed by
//!   random-restart local swap refinement, with caller-supplied fixed
//!   attacks (e.g. the strided plane baseline) seeded into the start
//!   pool so the found attack is never weaker than them.
//!
//! Determinism contract: for a given `(evaluator inputs, config, seed)`
//! the outcome is byte-identical across runs **and thread counts** —
//! parallel scoring writes into per-candidate slots and every selection
//! reduces over candidate index order with strict `<`.

pub mod incremental;

pub use incremental::IncrementalScorer;

use crate::cast::{index_u32, widen_u32};
use crate::error::Result;
use crate::routing::{Landmarks, ServingIndex};
use crate::snapshot::{Snapshot, SnapshotSeries};
use crate::topology::{GridTopologyConfig, SatId, Topology};
use crate::traffic::{assign_guided, serving_pairs, Flow, TrafficReport};
use crate::traffic_engine::{assign_interned, FlowIndex, ServedDemandSummary, TrafficWorkload};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ssplane_astro::geo::GeoPoint;
use ssplane_astro::par::par_map;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Greedy frontier sample per step for satellite-unit searches: scoring
/// every remaining satellite each step would cost O(budget · fleet)
/// evaluations on a mega-constellation, so each step scores a seeded
/// sample of this many candidates instead (plane-unit searches score
/// their whole frontier — plane counts are small).
const GREEDY_SAT_SAMPLE: usize = 24;

/// The degraded metric an adversary minimizes: the mean over slots of
/// one per-slot value — the routed flow count, the largest-component
/// fraction, the mean link load, the served-demand fraction or the
/// masking-collapse score — then one finish step that divides by the
/// flow count (routed fraction) or by the intact mean link load,
/// negated (load inflation), and leaves the others as they are.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttackObjective {
    /// Mean over slots of `routed flows / offered flows` — the headline
    /// service metric.
    RoutedFraction,
    /// Mean over slots of `largest surviving component / surviving
    /// satellites` — graded survivor connectivity (a 50/50 split scores
    /// far worse than one cut-off straggler).
    Connectivity,
    /// Negated load inflation: `-(mean degraded link load / mean intact
    /// link load)` — minimizing this *maximizes* the detour load the
    /// survivors carry.
    LoadInflation,
    /// Mean over slots of the capacity-constrained **served-demand
    /// fraction** ([`crate::traffic_engine`]) — the population-scale
    /// service metric. Needs an evaluator built with a
    /// [`TrafficWorkload`] ([`DegradedEvaluator::with_workload`]);
    /// without one it degrades to [`AttackObjective::RoutedFraction`]
    /// semantics.
    ServedDemand,
    /// Mean over slots of the **masking-collapse score**
    /// ([`crate::percolation::collapse_score`]): the candidate's victims
    /// lead a percolation removal ordering (the targeted plane schedule
    /// finishes it) and the score is the loss fraction at which the
    /// giant component stops masking the damage — so the search hunts
    /// the attack that collapses the masking regime *earliest*. Pure
    /// union-find over the prebuilt per-slot topologies: no routing, no
    /// traffic, far cheaper per candidate than the service objectives.
    MaskingThreshold,
}

/// The candidate-set unit and size of the search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttackBudget {
    /// Destroy whole planes: `k` planes of the network constellation.
    Planes(usize),
    /// Destroy individual satellites: `k` satellites anywhere.
    Sats(usize),
}

impl AttackBudget {
    /// The raw budget count.
    pub fn count(self) -> usize {
        match self {
            AttackBudget::Planes(k) | AttackBudget::Sats(k) => k,
        }
    }
}

/// Everything one slot's degraded evaluation produces — the raw material
/// of both the scenario report aggregates and the search objectives.
#[derive(Debug, Clone)]
pub struct SlotEvaluation {
    /// Whether the surviving subgraph is connected.
    pub connected: bool,
    /// Largest surviving connected component (satellites).
    pub largest_component: usize,
    /// Satellites in service.
    pub alive: usize,
    /// The traffic assignment over the survivors.
    pub traffic: TrafficReport,
    /// The capacity-constrained served-demand summary — present when the
    /// evaluator carries a [`TrafficWorkload`].
    pub served: Option<ServedDemandSummary>,
}

/// Per endpoint of one slot's table — the classic flows' interned
/// endpoints, then the workload's — every satellite able to serve it
/// (flat indices), best first ([`ServingIndex::ranked`]). The head is the
/// intact server; under any alive mask the first alive entry is what an
/// index rebuilt over the masked snapshot answers.
#[derive(Debug)]
struct RankedServers {
    /// Endpoint `e`'s list is `sats[starts[e]..starts[e + 1]]`.
    starts: Vec<u32>,
    sats: Vec<u32>,
}

impl RankedServers {
    /// Ranks every point through `index`.
    fn build(index: &ServingIndex<'_>, points: impl Iterator<Item = GeoPoint>) -> Self {
        let (mut starts, mut sats, mut visible) = (vec![0], Vec::new(), Vec::new());
        for p in points {
            index.rank_flat(p, &mut visible);
            sats.extend(visible.iter().map(|&(flat, _)| index_u32(flat)));
            starts.push(index_u32(sats.len()));
        }
        // The lists live as long as the evaluator: drop the growth slack.
        sats.shrink_to_fit();
        RankedServers { starts, sats }
    }

    /// Endpoint `e`'s list.
    fn list(&self, e: usize) -> &[u32] {
        &self.sats[widen_u32(self.starts[e])..widen_u32(self.starts[e + 1])]
    }

    /// Per endpoint of `endpoints`: its serving satellite under `alive`
    /// (`None` = intact), the first alive entry of its list.
    fn servers(&self, endpoints: Range<usize>, alive: Option<&[bool]>) -> Vec<Option<usize>> {
        endpoints
            .map(|e| {
                self.list(e).iter().map(|&s| widen_u32(s)).find(|&s| alive.is_none_or(|m| m[s]))
            })
            .collect()
    }

    /// Endpoints whose intact server `mask` kills.
    fn dead_heads(&self, mask: &[bool]) -> usize {
        let ends = 0..self.starts.len() - 1;
        ends.filter(|&e| self.list(e).first().is_some_and(|&s| !mask[widen_u32(s)])).count()
    }
}

/// The traffic every slot evaluation routes, shared by the intact build
/// and every masked pass.
#[derive(Debug)]
struct SlotInputs<'a> {
    flows: &'a [Flow],
    /// The classic flows, interned once for every slot and mask.
    index: FlowIndex,
    workload: Option<&'a TrafficWorkload>,
    /// The capacity the classic load statistics normalize by — the
    /// workload's link capacity when one is carried, else `1.0` (raw
    /// load, the historical semantics).
    link_capacity: f64,
}

impl<'a> SlotInputs<'a> {
    /// The workload's interned endpoints (none without a workload).
    fn workload_points(&self) -> &'a [GeoPoint] {
        self.workload.map_or(&[], |w| &w.flows.index().points)
    }

    /// The classic flows' endpoints in the slot's endpoint table.
    fn classic(&self) -> Range<usize> {
        0..self.index.points.len()
    }

    /// The workload's endpoints in the slot's endpoint table, after the
    /// classic flows'.
    fn workload_range(&self) -> Range<usize> {
        let start = self.index.points.len();
        start..start + self.workload_points().len()
    }

    /// Every endpoint of the slot's table.
    fn endpoints(&self) -> Range<usize> {
        0..self.workload_range().end
    }

    /// The slot's endpoint table ranked through `index`, an intact
    /// slot's.
    fn rank(&self, index: &ServingIndex<'_>) -> RankedServers {
        RankedServers::build(index, self.index.points.iter().chain(self.workload_points()).copied())
    }

    /// One slot's evaluation under `alive` (`None` = intact) for the intact
    /// build and every [`DegradedEvaluator::evaluate_slot`], with the
    /// endpoint table attached as `servers`: one component pass serves
    /// connectivity and both traffic passes' reachability.
    fn evaluate(
        &self,
        snapshot: &Snapshot<'_>,
        topology: &Topology,
        landmarks: &Landmarks,
        alive: Option<&[bool]>,
        servers: &[Option<usize>],
    ) -> SlotEvaluation {
        let components = topology.components(alive);
        let labels = &components.labels;
        let (classic, workload) = servers.split_at(self.index.points.len());
        let ends = serving_pairs(&self.index, classic, labels);
        let (flows, capacity) = (self.flows, self.link_capacity);
        let traffic = assign_guided(snapshot, topology, landmarks, alive, flows, &ends, capacity);
        // Snapshot flat indices are topology node indices: the slot's
        // topology is built from its snapshot.
        let served = self.workload.map(|w| {
            let (index, capacity) = (w.flows.index(), &w.capacity);
            assign_interned(topology, labels, alive, &w.flows, index, workload, capacity)
        });
        SlotEvaluation {
            connected: components.is_connected(),
            largest_component: components.largest(),
            alive: alive.map_or(topology.n_nodes(), |m| m.iter().filter(|&&a| a).count()),
            traffic,
            served,
        }
    }
}

/// The reusable per-candidate evaluation pipeline: mask → re-attachment
/// → traffic assignment over the alive satellites → aggregates, over
/// every slot of one prebuilt [`SnapshotSeries`]. Construction interns
/// the classic flows once and builds the intact per-slot topologies,
/// their routing [`Landmarks`], one endpoint table per slot — the
/// classic flows' interned endpoints, then the workload's — with each
/// endpoint's serving satellites ranked best first (one [`ServingIndex`]
/// per slot, the only place servers are ranked) **and** the intact
/// evaluations once; every candidate afterwards attaches each endpoint
/// to its first surviving ranked server and re-routes flows over the
/// intact slot's topology and landmarks, skipping dead satellites — no
/// candidate ever re-propagates, re-runs the geometric +grid search,
/// builds a masked topology or rebuilds a landmark table or a serving
/// index. The [`IncrementalScorer`] reads ranges of the same table.
#[derive(Debug)]
pub struct DegradedEvaluator<'a> {
    series: &'a SnapshotSeries,
    inputs: SlotInputs<'a>,
    topologies: Vec<Topology>,
    /// Each intact slot's routing bounds, reused by every masked pass
    /// over that slot.
    landmarks: Vec<Landmarks>,
    /// Each intact slot's ranked endpoint table: the head of each list
    /// is the intact attachment, the first alive entry a masked pass's.
    ranked: Vec<RankedServers>,
    /// Endpoints whose intact server a masked evaluation killed
    /// ([`Self::reattached`]).
    reattached: AtomicUsize,
    intact: Vec<SlotEvaluation>,
    intact_mean_link_load: f64,
    all_alive: Vec<bool>,
    /// The targeted plane-spread removal ordering the masking-threshold
    /// objective finishes candidate orderings with — one ordering for
    /// every slot, since all slots share the flat node layout.
    spread_order: Vec<usize>,
    /// Loss-fraction steps of the masking-threshold sweep.
    percolation_steps: usize,
    /// Giant-component gap that declares the masking regime broken.
    percolation_gap: f64,
    /// Damage-threshold fallback of the incremental scorer: a tree
    /// repair whose affected region exceeds this fraction of the
    /// constellation recomputes from scratch instead (the repair would
    /// cost more than it saves).
    repair_threshold: f64,
}

/// Default [`DegradedEvaluator::with_repair_threshold`] fraction: always
/// repair. Since repairs are cut short at the re-routed destinations, a
/// repair never costs more than the from-scratch rebuild it replaces, so
/// the fallback only pays off below this when callers want to bound the
/// damage-region walk itself.
pub const DEFAULT_REPAIR_THRESHOLD: f64 = 1.0;

impl<'a> DegradedEvaluator<'a> {
    /// Builds the evaluator: one intact +grid topology and one intact
    /// evaluation per slot of `series`.
    ///
    /// # Errors
    /// Propagates topology or traffic-assignment failure.
    pub fn new(
        series: &'a SnapshotSeries,
        flows: &'a [Flow],
        min_elevation: f64,
        config: GridTopologyConfig,
    ) -> Result<Self> {
        Self::with_workload(series, flows, min_elevation, config, None)
    }

    /// [`Self::new`] plus an optional population-scale
    /// [`TrafficWorkload`]: every evaluation (intact and per-candidate)
    /// then also runs the capacity-constrained engine and carries a
    /// [`ServedDemandSummary`], the classic load statistics normalize by
    /// the workload's link capacity, and
    /// [`AttackObjective::ServedDemand`] becomes meaningful.
    ///
    /// # Errors
    /// Propagates topology or traffic-assignment failure.
    pub fn with_workload(
        series: &'a SnapshotSeries,
        flows: &'a [Flow],
        min_elevation: f64,
        config: GridTopologyConfig,
        workload: Option<&'a TrafficWorkload>,
    ) -> Result<Self> {
        Self::with_workload_threads(series, flows, min_elevation, config, workload, 1)
    }

    /// [`Self::with_workload`], building the slots on `threads` workers
    /// (`0` = the machine) through [`par_map`], one job per slot. The
    /// topologies and intact evaluations are identical for every thread
    /// count.
    ///
    /// # Errors
    /// Propagates topology or traffic-assignment failure (the lowest
    /// failing slot's, whatever the thread count).
    pub fn with_workload_threads(
        series: &'a SnapshotSeries,
        flows: &'a [Flow],
        min_elevation: f64,
        config: GridTopologyConfig,
        workload: Option<&'a TrafficWorkload>,
        threads: usize,
    ) -> Result<Self> {
        let link_capacity = workload.map_or(1.0, |w| w.capacity.link_capacity);
        let index = FlowIndex::new(flows);
        let inputs = SlotInputs { flows, index, workload, link_capacity };
        let slots: Vec<((Topology, Landmarks), (RankedServers, SlotEvaluation))> =
            par_map((0..series.len()).collect(), threads, |k| {
                let snapshot = series.snapshot(k);
                let topology = Topology::plus_grid(&snapshot, config)?;
                let landmarks = Landmarks::build(&topology);
                let ranked = inputs.rank(&ServingIndex::new(snapshot, min_elevation));
                let servers = ranked.servers(inputs.endpoints(), None);
                let evaluation = inputs.evaluate(&snapshot, &topology, &landmarks, None, &servers);
                Ok(((topology, landmarks), (ranked, evaluation)))
            })
            .into_iter()
            .collect::<Result<_>>()?;
        let (built, attached): (Vec<_>, Vec<_>) = slots.into_iter().unzip();
        let (topologies, landmarks): (Vec<Topology>, Vec<Landmarks>) = built.into_iter().unzip();
        let (ranked, intact): (Vec<RankedServers>, Vec<SlotEvaluation>) =
            attached.into_iter().unzip();
        let intact_mean_link_load = intact.iter().map(|s| s.traffic.mean_link_load()).sum::<f64>()
            / intact.len().max(1) as f64;
        let spread_order =
            topologies.first().map(crate::percolation::plane_spread_ordering).unwrap_or_default();
        Ok(DegradedEvaluator {
            series,
            inputs,
            topologies,
            landmarks,
            ranked,
            reattached: AtomicUsize::new(0),
            intact,
            intact_mean_link_load,
            all_alive: vec![true; series.n_sats()],
            spread_order,
            percolation_steps: crate::percolation::DEFAULT_PERCOLATION_STEPS,
            percolation_gap: crate::percolation::DEFAULT_MASKING_GAP,
            repair_threshold: DEFAULT_REPAIR_THRESHOLD,
        })
    }

    /// Overrides the masking-threshold sweep parameters (defaults:
    /// [`crate::percolation::DEFAULT_PERCOLATION_STEPS`] steps,
    /// [`crate::percolation::DEFAULT_MASKING_GAP`] gap).
    ///
    /// # Panics
    /// If `steps == 0` or `gap` is not in `(0, 1)`.
    #[must_use]
    pub fn with_percolation(mut self, steps: usize, gap: f64) -> Self {
        assert!(steps >= 1, "a sweep needs at least one step");
        assert!(gap > 0.0 && gap < 1.0, "the masking gap is a fraction in (0, 1)");
        self.percolation_steps = steps;
        self.percolation_gap = gap;
        self
    }

    /// Overrides the incremental scorer's damage-threshold fraction
    /// (default [`DEFAULT_REPAIR_THRESHOLD`]): tree repairs whose
    /// affected region exceeds `fraction` of the constellation fall back
    /// to a from-scratch masked Dijkstra. Purely a performance knob —
    /// both branches produce bit-identical trees.
    ///
    /// # Panics
    /// If `fraction` is not in `(0, 1]`.
    #[must_use]
    pub fn with_repair_threshold(mut self, fraction: f64) -> Self {
        assert!(fraction > 0.0 && fraction <= 1.0, "the damage threshold is a fraction in (0, 1]");
        self.repair_threshold = fraction;
        self
    }

    /// Builds an [`IncrementalScorer`] over this evaluator for
    /// `objective` — the delta-evaluation layer [`optimize_attack`]
    /// scores through (see [`incremental`]).
    pub fn incremental_scorer(&self, objective: AttackObjective) -> IncrementalScorer<'_, 'a> {
        IncrementalScorer::new(self, objective)
    }

    /// Slots of the underlying series.
    pub fn n_slots(&self) -> usize {
        self.series.len()
    }

    /// Satellites per slot.
    pub fn n_sats(&self) -> usize {
        self.series.n_sats()
    }

    /// The intact (unmasked) per-slot evaluations, computed once at
    /// construction — the baseline the degraded stage reports against.
    pub fn intact(&self) -> &[SlotEvaluation] {
        &self.intact
    }

    /// The intact topology of slot `k`.
    ///
    /// # Panics
    /// If `k` is out of range.
    pub fn intact_topology(&self, k: usize) -> &Topology {
        &self.topologies[k]
    }

    /// Mean intact link load over slots (the load-inflation divisor).
    pub fn intact_mean_link_load(&self) -> f64 {
        self.intact_mean_link_load
    }

    /// The all-true alive mask, built once at construction — the shared
    /// buffer every per-candidate mask clones from instead of
    /// re-allocating an all-true vec per candidate (the scenario
    /// runner's degraded passes borrow it for the same reason).
    pub fn all_alive(&self) -> &[bool] {
        &self.all_alive
    }

    /// Endpoints re-attached by masked evaluations so far, over the
    /// endpoint table of every slot: those whose intact server a mask
    /// killed, so that they moved down their ranked list. A
    /// deterministic work counter — each evaluation adds a function of
    /// its slot and mask — so it reads the same for every thread count.
    pub fn reattached(&self) -> usize {
        self.reattached.load(Ordering::Relaxed)
    }

    /// Evaluates slot `k` under `alive` (`None` = the intact network,
    /// returned from the construction-time cache).
    ///
    /// # Errors
    /// None in practice: a masked pass only reads the prebuilt slot.
    ///
    /// # Panics
    /// If `k` is out of range or the mask length mismatches.
    pub fn evaluate_slot(&self, k: usize, alive: Option<&[bool]>) -> Result<SlotEvaluation> {
        let Some(mask) = alive else {
            return Ok(self.intact[k].clone());
        };
        let servers = self.reattach(k, mask);
        let snapshot = self.series.snapshot(k);
        let (topology, landmarks) = (&self.topologies[k], &self.landmarks[k]);
        Ok(self.inputs.evaluate(&snapshot, topology, landmarks, alive, &servers))
    }

    /// Slot `k`'s endpoint table attached under `mask`: each endpoint's
    /// first alive ranked server, what an index rebuilt over the masked
    /// snapshot answers (see [`ServingIndex::ranked`]). Counts the
    /// endpoints whose intact server the mask killed.
    fn reattach(&self, k: usize, mask: &[bool]) -> Vec<Option<usize>> {
        let ranked = &self.ranked[k];
        self.reattached.fetch_add(ranked.dead_heads(mask), Ordering::Relaxed);
        ranked.servers(self.inputs.endpoints(), Some(mask))
    }

    /// The objective a candidate is scored by: served demand without a
    /// capacity workload falls back to the flow-count service metric, so
    /// every objective stays total.
    fn resolve(&self, objective: AttackObjective) -> AttackObjective {
        match objective {
            AttackObjective::ServedDemand if self.inputs.workload.is_none() => {
                AttackObjective::RoutedFraction
            }
            other => other,
        }
    }

    /// The finish step of the resolved `objective` over its per-slot
    /// values (lower = more damaging): their mean, divided by the flow
    /// count for the routed fraction and taken relative to the intact
    /// mean link load (negated) for load inflation.
    fn objective_value(&self, objective: AttackObjective, per_slot: &[f64]) -> f64 {
        let mean = || per_slot.iter().sum::<f64>() / per_slot.len().max(1) as f64;
        match objective {
            AttackObjective::RoutedFraction => match self.inputs.flows.len() {
                0 => 0.0,
                flows => mean() / flows as f64,
            },
            AttackObjective::LoadInflation if self.intact_mean_link_load <= 0.0 => 0.0,
            AttackObjective::LoadInflation => -mean() / self.intact_mean_link_load,
            AttackObjective::Connectivity
            | AttackObjective::ServedDemand
            | AttackObjective::MaskingThreshold => mean(),
        }
    }

    /// The masking-threshold removal ordering of flat `victims`: the
    /// victims first, in their order, then the targeted plane-spread
    /// schedule.
    fn masking_order(&self, victims: &[usize]) -> Vec<usize> {
        crate::percolation::priority_ordering(victims, &self.spread_order)
    }

    /// Slot `k`'s masking-collapse score under removal `order` (lower =
    /// the masking regime collapses earlier): pure union-find over the
    /// prebuilt topology.
    fn collapse_score(&self, k: usize, order: &[usize]) -> f64 {
        let (steps, gap) = (self.percolation_steps, self.percolation_gap);
        crate::percolation::collapse_score(&self.topologies[k], order, steps, gap)
    }

    /// The flat indices of `destroyed`, in its order; out-of-range ids
    /// are dropped.
    fn flat_victims(&self, destroyed: &[SatId]) -> Vec<usize> {
        if self.n_slots() == 0 {
            return Vec::new();
        }
        let snapshot = self.series.snapshot(0);
        destroyed.iter().filter_map(|id| snapshot.flat_index(*id)).collect()
    }

    /// The alive mask destroying exactly the flat `victims`.
    fn attack_mask(&self, victims: &[usize]) -> Vec<bool> {
        let mut mask = self.all_alive.clone();
        for &flat in victims {
            mask[flat] = false;
        }
        mask
    }

    /// Scores one destroyed set under `objective`: the finish step over
    /// each slot's value — its routed flow count, survivor
    /// largest-component fraction, mean link load or served-demand
    /// fraction from a full masked evaluation, or its masking-collapse
    /// score with the victims leading the removal ordering.
    ///
    /// # Errors
    /// Propagates evaluation failure.
    pub fn score_attack(&self, destroyed: &[SatId], objective: AttackObjective) -> Result<f64> {
        let objective = self.resolve(objective);
        let victims = self.flat_victims(destroyed);
        let (mask, order) = (self.attack_mask(&victims), self.masking_order(&victims));
        let per_slot = (0..self.n_slots())
            .map(|k| {
                let slot = || self.evaluate_slot(k, Some(&mask));
                Ok(match objective {
                    AttackObjective::RoutedFraction => slot()?.traffic.routed as f64,
                    AttackObjective::Connectivity => {
                        let slot = slot()?;
                        component_fraction(slot.largest_component, slot.alive)
                    }
                    AttackObjective::LoadInflation => slot()?.traffic.mean_link_load(),
                    AttackObjective::ServedDemand => {
                        slot()?
                            .served
                            .expect("a resolved objective has its workload")
                            .served_fraction
                    }
                    AttackObjective::MaskingThreshold => self.collapse_score(k, &order),
                })
            })
            .collect::<Result<Vec<f64>>>()?;
        Ok(self.objective_value(objective, &per_slot))
    }
}

/// The connectivity objective's per-slot value: the largest surviving
/// component over the surviving satellites (`0` with nobody alive).
fn component_fraction(largest: usize, alive: usize) -> f64 {
    if alive == 0 {
        0.0
    } else {
        largest as f64 / alive as f64
    }
}

/// Configuration of one attack search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AttackSearchConfig {
    /// The degraded metric to minimize.
    pub objective: AttackObjective,
    /// Candidate-set unit and size (clamped to the constellation).
    pub budget: AttackBudget,
    /// Random-restart local searches after the greedy construction.
    pub restarts: usize,
    /// Swap proposals per start point (greedy, seeds, and restarts all
    /// get the same refinement length).
    pub swaps: usize,
    /// Worker threads for candidate scoring (`0` = the machine).
    pub threads: usize,
}

impl Default for AttackSearchConfig {
    fn default() -> Self {
        AttackSearchConfig {
            objective: AttackObjective::RoutedFraction,
            budget: AttackBudget::Planes(2),
            restarts: 3,
            swaps: 16,
            threads: 0,
        }
    }
}

/// The search result.
#[derive(Debug, Clone, PartialEq)]
pub struct AttackSearchOutcome {
    /// The worst attack found: destroyed satellites in network-layout
    /// ids, sorted plane-major.
    pub destroyed: Vec<SatId>,
    /// Its objective value (lower = more damaging).
    pub objective_value: f64,
    /// The intact network's value of the same objective.
    pub intact_value: f64,
    /// Candidate evaluations requested by the search loop (the work the
    /// bench normalizes by); seen-cache hits included.
    pub candidates_evaluated: usize,
    /// Distinct candidate victim sets actually evaluated —
    /// `candidates_evaluated − candidates_unique` is what the
    /// canonical-victim-set dedup saved.
    pub candidates_unique: usize,
}

/// One candidate as sorted unit indices (plane indices for a plane
/// budget, flat satellite indices for a satellite budget).
type Units = Vec<usize>;

/// The search state shared by greedy and refinement: unit expansion and
/// membership bookkeeping.
struct UnitSpace {
    /// Satellites of each unit.
    members: Vec<Vec<SatId>>,
}

impl UnitSpace {
    fn build(series: &SnapshotSeries, budget: AttackBudget) -> Self {
        let snapshot = series.snapshot(0);
        let members = match budget {
            AttackBudget::Planes(_) => (0..snapshot.n_planes())
                .map(|p| {
                    (0..snapshot.slots_in_plane(p)).map(|s| SatId { plane: p, slot: s }).collect()
                })
                .collect(),
            AttackBudget::Sats(_) => snapshot.ids().map(|id| vec![id]).collect(),
        };
        UnitSpace { members }
    }

    fn n_units(&self) -> usize {
        self.members.len()
    }

    /// The destroyed set of a unit selection, sorted plane-major.
    fn expand(&self, units: &[usize]) -> Vec<SatId> {
        let mut out: Vec<SatId> =
            units.iter().flat_map(|&u| self.members[u].iter().copied()).collect();
        out.sort_unstable();
        out
    }
}

/// Runs the adversarial attack search over `evaluator`'s network.
///
/// `seeds` are caller-supplied fixed attacks (network-layout destroyed
/// sets, e.g. the strided-plane baseline or a seeded random set) scored
/// and refined alongside the search's own start points — the returned
/// attack is therefore **never weaker** (by the configured objective)
/// than any of them. For a plane budget the strided baseline is always
/// seeded implicitly.
///
/// Deterministic in `(evaluator inputs, config, seed)` across runs and
/// thread counts.
///
/// # Errors
/// None today: every candidate scores through the infallible
/// [`IncrementalScorer`]. The `Result` stays for the callers that
/// propagate it with `?`, perfbench's trace among them.
pub fn optimize_attack(
    evaluator: &DegradedEvaluator<'_>,
    config: &AttackSearchConfig,
    seed: u64,
    seeds: &[Vec<SatId>],
) -> Result<AttackSearchOutcome> {
    let space = UnitSpace::build(evaluator.series, config.budget);
    let k = config.budget.count().min(space.n_units());
    // Every candidate scores through the incremental delta layer —
    // byte-identical to `score_attack`, but each greedy-frontier
    // neighbour costs only its one-unit delta off the pinned prefix, any
    // other candidate its delta off the intact state, and repeated victim
    // sets dedup through the seen-cache. The intact
    // value is the scorer's no-victim state.
    let scorer = evaluator.incremental_scorer(config.objective);
    let intact_value = scorer.intact_value;
    if k == 0 {
        return Ok(AttackSearchOutcome {
            destroyed: Vec::new(),
            objective_value: intact_value,
            intact_value,
            candidates_evaluated: 0,
            candidates_unique: 0,
        });
    }
    let search = Search { scorer: &scorer, space: &space, config, seed, k };
    let (greedy, greedy_value) = search.greedy(intact_value);
    let refined = search.refine_starts(search.start_pool(seeds, greedy), greedy_value);

    // The final pick: strict < over start order, so ties resolve to the
    // earliest start (greedy, then baseline, then seeds, then restarts).
    let mut best: Option<(usize, f64)> = None;
    for (i, (_, value)) in refined.iter().enumerate() {
        if best.is_none_or(|(_, bv)| *value < bv) {
            best = Some((i, *value));
        }
    }
    let (best_idx, best_value) = best.expect("at least the greedy start exists");
    Ok(AttackSearchOutcome {
        destroyed: space.expand(&refined[best_idx].0),
        objective_value: best_value,
        intact_value,
        candidates_evaluated: scorer.candidates_scored(),
        candidates_unique: scorer.candidates_unique(),
    })
}

/// One attack search's fixed inputs, shared by its stages: greedy
/// construction, the start pool, and refinement.
struct Search<'s> {
    scorer: &'s IncrementalScorer<'s, 's>,
    space: &'s UnitSpace,
    config: &'s AttackSearchConfig,
    seed: u64,
    /// The budget in units.
    k: usize,
}

impl Search<'_> {
    /// Greedy construction: grows the destroyed set one unit at a time,
    /// scoring the whole frontier of each step in one parallel batch
    /// (satellite budgets sample their frontier — see
    /// [`GREEDY_SAT_SAMPLE`]). Returns the units and their value.
    fn greedy(&self, intact_value: f64) -> (Units, f64) {
        let n_units = self.space.n_units();
        let mut greedy: Units = Vec::with_capacity(self.k);
        let mut member = vec![false; n_units];
        let mut greedy_rng = StdRng::seed_from_u64(self.seed ^ 0x6772_6565_6479); // "greedy"
        let mut greedy_value = intact_value;
        for _ in 0..self.k {
            let remaining: Vec<usize> = (0..n_units).filter(|&u| !member[u]).collect();
            let frontier: Vec<usize> = match self.config.budget {
                AttackBudget::Planes(_) => remaining,
                AttackBudget::Sats(_) if remaining.len() <= GREEDY_SAT_SAMPLE => remaining,
                AttackBudget::Sats(_) => {
                    // Seeded sample without replacement: a partial
                    // Fisher-Yates over the remaining units.
                    let mut pool = remaining;
                    for i in 0..GREEDY_SAT_SAMPLE {
                        let j = i + greedy_rng.gen_index(pool.len() - i);
                        pool.swap(i, j);
                    }
                    pool.truncate(GREEDY_SAT_SAMPLE);
                    pool
                }
            };
            let candidates: Vec<Vec<SatId>> = frontier
                .iter()
                .map(|&u| {
                    let mut units = greedy.clone();
                    units.push(u);
                    self.space.expand(&units)
                })
                .collect();
            let scores = self.scorer.score_batch(&candidates, self.config.threads);
            let mut best = 0usize;
            for (i, &s) in scores.iter().enumerate() {
                if s < scores[best] {
                    best = i;
                }
            }
            greedy.push(frontier[best]);
            member[frontier[best]] = true;
            greedy_value = scores[best];
            if greedy.len() < self.k {
                // Pin the grown prefix so the next frontier batch deltas
                // off it instead of the intact state.
                self.scorer.ensure_resident(&self.space.expand(&greedy));
            }
        }
        (greedy, greedy_value)
    }

    /// The start pool, in tie-break order: the greedy set, the implicit
    /// strided-plane baseline (plane budgets), the caller's seeded fixed
    /// attacks, and seeded random restarts.
    fn start_pool(&self, seeds: &[Vec<SatId>], greedy: Units) -> Vec<Units> {
        let (n_units, k) = (self.space.n_units(), self.k);
        let mut starts: Vec<Units> = vec![greedy];
        if let AttackBudget::Planes(_) = self.config.budget {
            starts.push(crate::disruption::strided_plane_indices(n_units, k));
        }
        for fixed in seeds {
            // Map a destroyed set back onto whole units: a unit is
            // selected when any of its satellites is in the fixed attack.
            // Truncate or pad (lowest unselected units) to the budget so
            // every start is comparable. The membership probe needs sorted
            // ids; callers owe no ordering, so sort a local copy.
            let mut fixed = fixed.clone();
            fixed.sort_unstable();
            let mut units: Units = Vec::new();
            let mut selected = vec![false; n_units];
            for (u, sats) in self.space.members.iter().enumerate() {
                if sats.iter().any(|id| fixed.binary_search(id).is_ok()) && !selected[u] {
                    selected[u] = true;
                    units.push(u);
                }
            }
            units.truncate(k);
            let mut fill = 0usize;
            while units.len() < k && fill < n_units {
                if !selected[fill] {
                    selected[fill] = true;
                    units.push(fill);
                }
                fill += 1;
            }
            starts.push(units);
        }
        for r in 0..self.config.restarts {
            let mut rng = StdRng::seed_from_u64(
                self.seed ^ (crate::cast::count_u64(r) + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            );
            let mut units: Units = Vec::with_capacity(k);
            let mut taken = vec![false; n_units];
            while units.len() < k {
                let u = rng.gen_index(n_units);
                if !taken[u] {
                    taken[u] = true;
                    units.push(u);
                }
            }
            starts.push(units);
        }
        starts
    }

    /// Refinement: scores every start but the greedy one (whose value the
    /// construction already produced) in one parallel batch, then refines
    /// each with the same swap budget, in parallel across starts, each on
    /// its own deterministic stream. Returns the results in start order.
    fn refine_starts(&self, starts: Vec<Units>, greedy_value: f64) -> Vec<(Units, f64)> {
        let expanded: Vec<Vec<SatId>> =
            starts.iter().skip(1).map(|units| self.space.expand(units)).collect();
        let start_values = self.scorer.score_batch(&expanded, self.config.threads);
        let jobs: Vec<(Units, f64, u64)> = starts
            .into_iter()
            .zip(std::iter::once(greedy_value).chain(start_values))
            .enumerate()
            .map(|(i, (units, value))| {
                let stream = crate::cast::count_u64(i).wrapping_mul(0xA076_1D64_78BD_642F);
                (units, value, self.seed ^ stream)
            })
            .collect();
        par_map(jobs, self.config.threads, |(units, value, s)| self.refine(units, value, s))
    }

    /// Local swap refinement: propose `swaps` member/non-member exchanges
    /// (both drawn through the shared seeded [`Rng::gen_index`]), keeping
    /// each only on strict improvement. Returns the refined units and
    /// value. Scoring through the [`IncrementalScorer`] makes each trial
    /// a delta off the pinned greedy prefix when the trial keeps it, else
    /// off the intact state (and repeats — revisited swaps — free via its
    /// seen-cache).
    fn refine(&self, start: Units, start_value: f64, seed: u64) -> (Units, f64) {
        let n_units = self.space.n_units();
        let mut current = start;
        let mut value = start_value;
        if current.is_empty() || current.len() >= n_units {
            return (current, value);
        }
        let mut member = vec![false; n_units];
        for &u in &current {
            member[u] = true;
        }
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..self.config.swaps {
            let out_pos = rng.gen_index(current.len());
            // The pick-th unit currently outside the set.
            let pick = rng.gen_index(n_units - current.len());
            let incoming = (0..n_units)
                .filter(|&u| !member[u])
                .nth(pick)
                .expect("pick is within the non-member count");
            let outgoing = current[out_pos];
            current[out_pos] = incoming;
            let trial = self.scorer.score(&self.space.expand(&current));
            if trial < value {
                value = trial;
                member[outgoing] = false;
                member[incoming] = true;
            } else {
                current[out_pos] = outgoing;
            }
        }
        (current, value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::time_grid;
    use crate::topology::Constellation;
    use crate::traffic::assign_traffic;
    use ssplane_astro::geo::GeoPoint;
    use ssplane_astro::kepler::OrbitalElements;
    use ssplane_astro::sunsync::sun_synchronous_orbit;
    use ssplane_astro::time::Epoch;

    pub(super) fn constellation(planes: usize, slots: usize) -> Constellation {
        let epoch = Epoch::J2000;
        let orbit = sun_synchronous_orbit(560.0).unwrap();
        let element_planes: Vec<Vec<OrbitalElements>> = (0..planes)
            .map(|p| orbit.with_ltan(7.5 + p as f64 * 1.2).plane_elements(epoch, slots).unwrap())
            .collect();
        Constellation::new(epoch, element_planes).unwrap()
    }

    pub(super) fn city_flows() -> Vec<Flow> {
        let cities = [
            (40.7, -74.0),
            (51.5, -0.1),
            (35.7, 139.7),
            (-23.5, -46.6),
            (19.1, 72.9),
            (48.9, 2.3),
            (34.1, -118.2),
            (1.3, 103.8),
        ];
        let mut out = Vec::new();
        for (i, &(a_lat, a_lon)) in cities.iter().enumerate() {
            for &(b_lat, b_lon) in cities.iter().skip(i + 1) {
                out.push(Flow {
                    src: GeoPoint::from_degrees(a_lat, a_lon),
                    dst: GeoPoint::from_degrees(b_lat, b_lon),
                    demand: 1.0,
                });
            }
        }
        out
    }

    pub(super) fn evaluator_fixture(
        c: &Constellation,
        flows: &[Flow],
        slots: usize,
    ) -> (SnapshotSeries, Vec<Flow>) {
        let series = SnapshotSeries::build(c, &time_grid(Epoch::J2000, slots, 300.0)).unwrap();
        let _ = c;
        (series, flows.to_vec())
    }

    #[test]
    fn intact_evaluation_matches_the_reference_pipeline() {
        let c = constellation(5, 12);
        let flows = city_flows();
        let (series, flows) = evaluator_fixture(&c, &flows, 3);
        let evaluator =
            DegradedEvaluator::new(&series, &flows, 20f64.to_radians(), Default::default())
                .unwrap();
        assert_eq!(evaluator.n_slots(), 3);
        assert_eq!(evaluator.n_sats(), 60);
        for (k, cached) in evaluator.intact().iter().enumerate() {
            let snapshot = series.snapshot(k);
            let topology = Topology::plus_grid(&snapshot, Default::default()).unwrap();
            let reference =
                assign_traffic(&snapshot, &topology, &flows, 20f64.to_radians()).unwrap();
            assert_eq!(cached.traffic.routed, reference.routed);
            assert_eq!(cached.traffic.link_load, reference.link_load);
            assert_eq!(cached.connected, topology.is_connected());
            assert_eq!(cached.alive, 60);
        }
        // evaluate_slot(_, None) returns the cache.
        let again = evaluator.evaluate_slot(0, None).unwrap();
        assert_eq!(again.traffic.routed, evaluator.intact()[0].traffic.routed);
    }

    #[test]
    fn slot_parallel_build_matches_the_serial_one() {
        let c = constellation(6, 12);
        let flows = city_flows();
        let (series, flows) = evaluator_fixture(&c, &flows, 4);
        let workload = capacity_workload();
        let build = |threads| {
            DegradedEvaluator::with_workload_threads(
                &series,
                &flows,
                20f64.to_radians(),
                Default::default(),
                Some(&workload),
                threads,
            )
            .unwrap()
        };
        let (serial, pooled) = (build(1), build(3));
        assert!(serial.intact().iter().all(|e| e.served.is_some()), "the engine ran");
        // Debug output spells every float exactly, so equal strings mean
        // bit-equal evaluations and link sets.
        assert_eq!(format!("{:?}", serial.intact()), format!("{:?}", pooled.intact()));
        for k in 0..serial.n_slots() {
            assert_eq!(
                format!("{:?}", serial.intact_topology(k)),
                format!("{:?}", pooled.intact_topology(k)),
                "slot {k}"
            );
        }
        assert_eq!(serial.intact_mean_link_load(), pooled.intact_mean_link_load());
    }

    /// Slot `k` of `series` under `mask`, evaluated from scratch: a
    /// `plus_grid` rebuilt over the masked snapshot, then the classic
    /// assignment and the capacity-constrained engine over it — the
    /// reference a masked [`DegradedEvaluator::evaluate_slot`], which
    /// filters the intact slot by the mask instead, is held to.
    fn rebuilt_evaluation(
        series: &SnapshotSeries,
        k: usize,
        mask: &[bool],
        flows: &[Flow],
        workload: &TrafficWorkload,
        min_elevation: f64,
    ) -> SlotEvaluation {
        let snapshot = series.snapshot(k).with_alive(mask);
        let topology = Topology::plus_grid(&snapshot, Default::default()).unwrap();
        let components = topology.components(Some(mask));
        let traffic = assign_traffic(&snapshot, &topology, flows, min_elevation).unwrap();
        let (demand, capacity) = (&workload.flows, &workload.capacity);
        let served = crate::traffic_engine::assign_capacity_constrained(
            &snapshot,
            &topology,
            demand,
            min_elevation,
            capacity,
        )
        .unwrap();
        SlotEvaluation {
            connected: components.is_connected(),
            largest_component: components.largest(),
            alive: components.sizes.iter().sum(),
            traffic: TrafficReport { link_capacity: capacity.link_capacity, ..traffic },
            served: Some(served),
        }
    }

    /// Asserts that slot `k`'s masked evaluation is [`rebuilt_evaluation`]
    /// to the bit: Debug output spells every float exactly, so equal
    /// strings mean equal counts, link loads, flow outcomes and
    /// served-demand summaries.
    fn check_masked_evaluation(
        ev: &DegradedEvaluator<'_>,
        k: usize,
        mask: &[bool],
        min_elevation: f64,
    ) -> SlotEvaluation {
        let workload = ev.inputs.workload.expect("the evaluator carries a workload");
        let fast = ev.evaluate_slot(k, Some(mask)).unwrap();
        let reference =
            rebuilt_evaluation(ev.series, k, mask, ev.inputs.flows, workload, min_elevation);
        assert_eq!(format!("{fast:?}"), format!("{reference:?}"), "slot {k}");
        fast
    }

    #[test]
    fn masked_evaluation_matches_a_from_scratch_rebuild() {
        let (series, flows) = evaluator_fixture(&constellation(10, 24), &city_flows(), 2);
        let workload = capacity_workload();
        let elevation = 20f64.to_radians();
        let evaluator = DegradedEvaluator::with_workload(
            &series,
            &flows,
            elevation,
            Default::default(),
            Some(&workload),
        )
        .unwrap();
        let destroyed: Vec<SatId> = (0..24).map(|s| SatId { plane: 4, slot: s }).collect();
        let plane_lost = evaluator.attack_mask(&evaluator.flat_victims(&destroyed));
        let scattered = evaluator.attack_mask(&(3..240).step_by(7).collect::<Vec<_>>());
        let all_dead = vec![false; 240];
        for k in 0..2 {
            for mask in [&plane_lost, &scattered] {
                let slot = check_masked_evaluation(&evaluator, k, mask, elevation);
                assert!(slot.traffic.routed > 0, "slot {k}: some flows survive");
                let served = slot.served.expect("the engine ran");
                assert!(served.pairs > 0 && served.served > 0.0, "slot {k}: ISL pairs served");
            }
            let slot = check_masked_evaluation(&evaluator, k, &all_dead, elevation);
            assert_eq!((slot.alive, slot.traffic.routed), (0, 0));
        }
    }

    /// A 240-satellite, 2-slot evaluator carrying the city flows and a
    /// gravity workload, built once for the re-attachment properties.
    fn attachment_evaluator() -> &'static DegradedEvaluator<'static> {
        use std::sync::OnceLock;
        static FIXTURE: OnceLock<(SnapshotSeries, Vec<Flow>, TrafficWorkload)> = OnceLock::new();
        static EVALUATOR: OnceLock<DegradedEvaluator<'static>> = OnceLock::new();
        let (series, flows, workload) = FIXTURE.get_or_init(|| {
            let (series, flows) = evaluator_fixture(&constellation(10, 24), &city_flows(), 2);
            (series, flows, capacity_workload())
        });
        EVALUATOR.get_or_init(|| {
            let elevation = 20f64.to_radians();
            DegradedEvaluator::with_workload(
                series,
                flows,
                elevation,
                Default::default(),
                Some(workload),
            )
            .unwrap()
        })
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(12))]

        /// Masked re-attachment answers what an index rebuilt over the
        /// masked snapshot answers, for every classic and workload
        /// endpoint under whole-plane and scattered losses, and queries
        /// exactly the endpoints whose intact server died.
        #[test]
        fn masked_reattachment_matches_a_rebuilt_index(
            planes in proptest::collection::vec(0usize..10, 0..4),
            sats in proptest::collection::vec(0usize..240, 0..60),
            k in 0usize..2,
        ) {
            let ev = attachment_evaluator();
            let offsets = ev.series.snapshot(0).plane_offsets().to_vec();
            let mut mask = ev.all_alive().to_vec();
            for p in planes {
                mask[offsets[p]..offsets[p + 1]].fill(false);
            }
            for s in sats {
                mask[s] = false;
            }
            check_reattachment(ev, k, &mask, 20f64.to_radians());
        }
    }

    /// Slot `k`'s attachment, built at `min_elevation`, read intact and
    /// under `mask`: the intact heads are what an index over the intact
    /// snapshot answers, the masked servers what an index rebuilt over
    /// the masked snapshot answers, for every classic and workload
    /// endpoint, and the counter adds exactly the endpoints whose intact
    /// server died.
    fn check_reattachment(ev: &DegradedEvaluator<'_>, k: usize, mask: &[bool], min_elevation: f64) {
        let before = ev.reattached();
        let got = ev.reattach(k, mask);
        let moved = ev.reattached() - before;
        let heads = ev.ranked[k].servers(ev.inputs.endpoints(), None);
        let intact = ServingIndex::new(ev.series.snapshot(k), min_elevation);
        let rebuilt = ServingIndex::new(ev.series.snapshot(k).with_alive(mask), min_elevation);
        let sets = [
            (ev.inputs.classic(), &ev.inputs.index.points[..]),
            (ev.inputs.workload_range(), ev.inputs.workload_points()),
        ];
        assert_eq!(got.len(), ev.inputs.endpoints().len(), "one server per endpoint");
        let mut dead = 0;
        for (range, points) in sets {
            assert!(!points.is_empty(), "both endpoint sets are covered");
            let (servers, heads) = (&got[range.clone()], &heads[range]);
            let was = intact.attach(points);
            assert_eq!(heads, &was[..], "slot {k}: the intact heads are the intact servers");
            assert_eq!(servers, &rebuilt.attach(points)[..], "slot {k}: the masked servers");
            dead += was.iter().filter(|s| s.is_some_and(|s| !mask[s])).count();
        }
        assert_eq!(moved, dead, "the counter adds the endpoints whose server died");
    }

    /// [`check_reattachment`] on a twin fleet: the second half repeats
    /// the first plane for plane, so every elevation ties exactly and
    /// the intact head must be the lower twin. Losing the lower half
    /// hands every served endpoint to its upper twin.
    #[test]
    fn twin_servers_attach_to_the_lower_flat_index_first() {
        let epoch = Epoch::J2000;
        let orbit = sun_synchronous_orbit(560.0).unwrap();
        let half: Vec<Vec<OrbitalElements>> = (0..5)
            .map(|p| orbit.with_ltan(7.5 + p as f64 * 1.2).plane_elements(epoch, 24).unwrap())
            .collect();
        let c = Constellation::new(epoch, [half.clone(), half].concat()).unwrap();
        let (series, flows) = evaluator_fixture(&c, &city_flows(), 2);
        let workload = capacity_workload();
        let elevation = 20f64.to_radians();
        let ev = DegradedEvaluator::with_workload(
            &series,
            &flows,
            elevation,
            Default::default(),
            Some(&workload),
        )
        .unwrap();
        let mut lower_lost = ev.all_alive().to_vec();
        lower_lost[..120].fill(false);
        let mut scattered = ev.all_alive().to_vec();
        for flat in (0..240).step_by(7) {
            scattered[flat] = false;
        }
        for k in 0..2 {
            for mask in [ev.all_alive(), &lower_lost, &scattered] {
                check_reattachment(&ev, k, mask, elevation);
            }
        }
        assert!(ev.reattached() > 0, "the lower twins served some endpoints");
    }

    /// [`check_reattachment`] on a mega-constellation: a 10k-satellite
    /// Walker (50 planes × 200), 4 slots, a strided 4-plane loss and
    /// random-satellite losses, 200 demand-sampled flows (400 endpoints)
    /// and a 64-site gravity workload; and [`check_masked_evaluation`]
    /// under the 4-plane and the 3000-satellite losses, which routes both
    /// workloads through the alive-filtered guided search and k-path
    /// rounds. Ignored by default; run it with
    /// `cargo test --release -p ssplane-lsn --lib optimizer:: -- --ignored`.
    #[test]
    #[ignore = "mega-scale oracle, run in release"]
    fn masked_reattachment_matches_a_rebuilt_index_at_mega_scale() {
        use ssplane_astro::walker::WalkerDelta;
        use ssplane_demand::gravity::{gravity_flows, GravityConfig};
        use ssplane_demand::DemandModel;
        let pattern =
            WalkerDelta::new(550.0, 53f64.to_radians(), 10_000, 50, 1).unwrap().generate().unwrap();
        let planes: Vec<_> = pattern.chunks(200).map(<[_]>::to_vec).collect();
        let c = Constellation::from_planes(Epoch::J2000, planes).unwrap();
        let series =
            SnapshotSeries::build_parallel(&c, &time_grid(Epoch::J2000, 4, 420.0), 0).unwrap();
        let model = DemandModel::synthetic_seeded(42).unwrap();
        let flows = crate::traffic::sample_flows(&model, 12.0, 200, 7);
        let config = GravityConfig { pairs: 20_000, sites: 64, seed: 3, ..Default::default() };
        let gravity = gravity_flows(&model, &config, 0).unwrap();
        let workload = TrafficWorkload::from_gravity(&gravity, 1e-3, Default::default());
        let ev = DegradedEvaluator::with_workload_threads(
            &series,
            &flows,
            20f64.to_radians(),
            Default::default(),
            Some(&workload),
            0,
        )
        .unwrap();
        let mut masks = Vec::new();
        let mut planes_lost = ev.all_alive().to_vec();
        for p in [0usize, 12, 25, 37] {
            planes_lost[p * 200..(p + 1) * 200].fill(false);
        }
        masks.push(planes_lost);
        let mut rng = StdRng::seed_from_u64(17);
        for lost in [50usize, 500, 3000] {
            let mut mask = ev.all_alive().to_vec();
            for _ in 0..lost {
                let victim = rng.gen_index(mask.len());
                mask[victim] = false;
            }
            masks.push(mask);
        }
        let mut both = masks[0].clone();
        both.iter_mut().zip(&masks[2]).for_each(|(a, &b)| *a &= b);
        masks.push(both);
        let before = ev.reattached();
        for mask in &masks {
            for k in 0..ev.n_slots() {
                check_reattachment(&ev, k, mask, 20f64.to_radians());
            }
        }
        assert!(ev.reattached() > before, "the losses killed some servers");
        for mask in [&masks[0], &masks[3]] {
            for k in 0..ev.n_slots() {
                check_masked_evaluation(&ev, k, mask, 20f64.to_radians());
            }
        }
    }

    #[test]
    fn one_plane_budget_finds_the_argmin_plane() {
        // With budget Planes(1) the greedy step scores every plane, so
        // the outcome must be exactly the single most damaging plane.
        let c = constellation(5, 12);
        let flows = city_flows();
        let (series, flows) = evaluator_fixture(&c, &flows, 2);
        let evaluator =
            DegradedEvaluator::new(&series, &flows, 20f64.to_radians(), Default::default())
                .unwrap();
        let config = AttackSearchConfig {
            budget: AttackBudget::Planes(1),
            restarts: 1,
            swaps: 4,
            ..Default::default()
        };
        let outcome = optimize_attack(&evaluator, &config, 42, &[]).unwrap();
        assert_eq!(outcome.destroyed.len(), 12, "one whole plane");
        let mut best = f64::INFINITY;
        for p in 0..5 {
            let plane: Vec<SatId> = (0..12).map(|s| SatId { plane: p, slot: s }).collect();
            best =
                best.min(evaluator.score_attack(&plane, AttackObjective::RoutedFraction).unwrap());
        }
        assert_eq!(outcome.objective_value, best);
        assert!(outcome.objective_value <= outcome.intact_value);
        assert!(outcome.candidates_evaluated > 0);
    }

    #[test]
    fn search_is_deterministic_and_never_weaker_than_its_seeds() {
        let c = constellation(6, 10);
        let flows = city_flows();
        let (series, flows) = evaluator_fixture(&c, &flows, 2);
        let evaluator =
            DegradedEvaluator::new(&series, &flows, 20f64.to_radians(), Default::default())
                .unwrap();
        let config = AttackSearchConfig {
            budget: AttackBudget::Planes(2),
            restarts: 2,
            swaps: 6,
            ..Default::default()
        };
        // A deliberately arbitrary fixed seed attack: planes 1 and 4.
        let fixed: Vec<SatId> = [1usize, 4]
            .iter()
            .flat_map(|&p| (0..10).map(move |s| SatId { plane: p, slot: s }))
            .collect();
        let fixed_value = evaluator.score_attack(&fixed, config.objective).unwrap();
        let strided: Vec<SatId> = crate::disruption::strided_plane_indices(6, 2)
            .into_iter()
            .flat_map(|p| (0..10).map(move |s| SatId { plane: p, slot: s }))
            .collect();
        let strided_value = evaluator.score_attack(&strided, config.objective).unwrap();

        let a = optimize_attack(&evaluator, &config, 7, std::slice::from_ref(&fixed)).unwrap();
        let b = optimize_attack(&evaluator, &config, 7, std::slice::from_ref(&fixed)).unwrap();
        assert_eq!(a, b, "same seed, same outcome");
        assert_eq!(a.destroyed.len(), 20, "two whole planes");
        assert!(a.objective_value <= fixed_value, "never weaker than a seeded attack");
        assert!(a.objective_value <= strided_value, "never weaker than the strided baseline");
        assert!(a.objective_value <= a.intact_value);
        // Thread counts don't change the outcome.
        let serial = optimize_attack(
            &evaluator,
            &AttackSearchConfig { threads: 1, ..config },
            7,
            std::slice::from_ref(&fixed),
        )
        .unwrap();
        assert_eq!(a, serial);
        // A different seed may walk elsewhere but respects the budget.
        let other = optimize_attack(&evaluator, &config, 8, &[fixed]).unwrap();
        assert_eq!(other.destroyed.len(), 20);
    }

    #[test]
    fn satellite_budget_and_objectives_run() {
        let c = constellation(4, 10);
        let flows = city_flows();
        let (series, flows) = evaluator_fixture(&c, &flows, 2);
        let evaluator =
            DegradedEvaluator::new(&series, &flows, 20f64.to_radians(), Default::default())
                .unwrap();
        for objective in [
            AttackObjective::RoutedFraction,
            AttackObjective::Connectivity,
            AttackObjective::LoadInflation,
            // No workload attached: served-demand falls back to the
            // routed-fraction semantics and must still search fine.
            AttackObjective::ServedDemand,
            AttackObjective::MaskingThreshold,
        ] {
            let config = AttackSearchConfig {
                objective,
                budget: AttackBudget::Sats(6),
                restarts: 1,
                swaps: 4,
                threads: 1,
            };
            let outcome = optimize_attack(&evaluator, &config, 3, &[]).unwrap();
            assert_eq!(outcome.destroyed.len(), 6, "{objective:?}");
            assert!(
                outcome.destroyed.windows(2).all(|w| w[0] < w[1]),
                "sorted distinct victims ({objective:?})"
            );
            assert!(outcome.objective_value <= outcome.intact_value, "{objective:?}");
        }
    }

    #[test]
    fn masking_threshold_objective_collapses_earliest_and_is_deterministic() {
        let c = constellation(8, 12);
        let flows = city_flows();
        let (series, flows) = evaluator_fixture(&c, &flows, 2);
        let evaluator =
            DegradedEvaluator::new(&series, &flows, 20f64.to_radians(), Default::default())
                .unwrap()
                .with_percolation(32, 0.1);
        let intact = evaluator.score_attack(&[], AttackObjective::MaskingThreshold).unwrap();
        // A concentrated two-plane attack leads the ordering and can
        // only accelerate (never delay) the collapse.
        let strided: Vec<SatId> = crate::disruption::strided_plane_indices(8, 2)
            .into_iter()
            .flat_map(|p| (0..12).map(move |s| SatId { plane: p, slot: s }))
            .collect();
        let strided_value =
            evaluator.score_attack(&strided, AttackObjective::MaskingThreshold).unwrap();
        assert!(strided_value <= intact, "victims up front never delay the collapse");
        // The search is never weaker than the same-budget strided
        // baseline (implicitly seeded for plane budgets) and reruns
        // byte-identically across thread counts.
        let config = AttackSearchConfig {
            objective: AttackObjective::MaskingThreshold,
            budget: AttackBudget::Planes(2),
            restarts: 2,
            swaps: 6,
            threads: 0,
        };
        let a = optimize_attack(&evaluator, &config, 13, &[]).unwrap();
        assert_eq!(a.destroyed.len(), 24, "two whole planes");
        assert!(a.objective_value <= strided_value, "never weaker than the strided baseline");
        assert!(a.objective_value <= a.intact_value);
        for threads in [1usize, 2, 7] {
            let again =
                optimize_attack(&evaluator, &AttackSearchConfig { threads, ..config }, 13, &[])
                    .unwrap();
            assert_eq!(a, again, "thread count {threads} changed the outcome");
        }
        // Sweep parameters are really consulted: a coarser sweep
        // quantizes the threshold differently.
        let coarse =
            DegradedEvaluator::new(&series, &flows, 20f64.to_radians(), Default::default())
                .unwrap()
                .with_percolation(4, 0.1);
        assert_ne!(
            coarse.score_attack(&strided, AttackObjective::MaskingThreshold).unwrap(),
            strided_value
        );
    }

    /// A small gravity workload for the served-demand objective tests.
    pub(super) fn capacity_workload() -> TrafficWorkload {
        use ssplane_demand::diurnal::DiurnalModel;
        use ssplane_demand::gravity::{gravity_flows, GravityConfig};
        use ssplane_demand::population::{PopulationConfig, PopulationGrid};
        use ssplane_demand::DemandModel;
        let model = DemandModel::new(
            PopulationGrid::synthetic(PopulationConfig {
                lat_bins: 90,
                lon_bins: 180,
                n_cities: 400,
                seed: 42,
            })
            .unwrap(),
            DiurnalModel::default(),
        );
        let gravity = gravity_flows(
            &model,
            &GravityConfig { pairs: 1200, sites: 32, seed: 9, ..Default::default() },
            1,
        )
        .unwrap();
        let total: f64 = gravity.iter().map(|g| g.rate).sum();
        TrafficWorkload::from_gravity(
            &gravity,
            60.0 / total,
            crate::traffic_engine::CapacityConfig { link_capacity: 1.0, k_paths: 2 },
        )
    }

    #[test]
    fn served_demand_objective_degrades_under_attack_and_reruns_identically() {
        // A population-scale workload needs population-scale coverage:
        // 60 satellites leave nearly all gravity endpoints unattached, so
        // this test runs on a 240-satellite shell.
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
        // Every slot evaluation carries a served summary.
        for slot in evaluator.intact() {
            let served = slot.served.as_ref().expect("workload attached");
            assert!(served.served_fraction > 0.0, "the intact network serves demand");
        }
        let intact_value = evaluator.score_attack(&[], AttackObjective::ServedDemand).unwrap();
        // A 10% satellite loss (24 of 240) must cut served demand. The
        // loss is concentrated — one whole plane — because a scattered
        // sprinkle merely reshuffles attachment under saturation.
        let destroyed: Vec<SatId> = (0..24).map(|slot| SatId { plane: 0, slot }).collect();
        let attacked = evaluator.score_attack(&destroyed, AttackObjective::ServedDemand).unwrap();
        assert!(
            attacked < intact_value,
            "10% loss must reduce served demand: {attacked} vs intact {intact_value}"
        );
        // The search over the new objective is deterministic across
        // reruns and thread counts, and never weaker than its baseline.
        let config = AttackSearchConfig {
            objective: AttackObjective::ServedDemand,
            budget: AttackBudget::Planes(1),
            restarts: 1,
            swaps: 2,
            threads: 0,
        };
        let a = optimize_attack(&evaluator, &config, 11, &[]).unwrap();
        let b = optimize_attack(&evaluator, &config, 11, &[]).unwrap();
        assert_eq!(a, b, "served-demand search must rerun identically");
        let serial =
            optimize_attack(&evaluator, &AttackSearchConfig { threads: 1, ..config }, 11, &[])
                .unwrap();
        assert_eq!(a, serial, "thread count changed the served-demand search");
        assert!(a.objective_value <= a.intact_value);
        assert_eq!(a.destroyed.len(), 24, "one whole plane");
    }

    #[test]
    fn workload_capacity_normalizes_the_classic_load_statistics() {
        // The same evaluator inputs with a 2x-capacity workload report
        // exactly halved link-load statistics (same raw loads).
        let c = constellation(4, 10);
        let flows = city_flows();
        let (series, flows) = evaluator_fixture(&c, &flows, 1);
        let plain = DegradedEvaluator::new(&series, &flows, 20f64.to_radians(), Default::default())
            .unwrap();
        let mut workload = capacity_workload();
        workload.capacity.link_capacity = 2.0;
        let scaled = DegradedEvaluator::with_workload(
            &series,
            &flows,
            20f64.to_radians(),
            Default::default(),
            Some(&workload),
        )
        .unwrap();
        let (a, b) = (&plain.intact()[0].traffic, &scaled.intact()[0].traffic);
        assert_eq!(a.link_load, b.link_load);
        assert!((b.max_link_load() - a.max_link_load() / 2.0).abs() < 1e-12);
        assert!(
            (scaled.intact_mean_link_load() - plain.intact_mean_link_load() / 2.0).abs() < 1e-12
        );
    }

    #[test]
    fn zero_budget_is_the_intact_network() {
        let c = constellation(3, 10);
        let flows = city_flows();
        let (series, flows) = evaluator_fixture(&c, &flows, 1);
        let evaluator =
            DegradedEvaluator::new(&series, &flows, 20f64.to_radians(), Default::default())
                .unwrap();
        let config = AttackSearchConfig { budget: AttackBudget::Planes(0), ..Default::default() };
        let outcome = optimize_attack(&evaluator, &config, 1, &[]).unwrap();
        assert!(outcome.destroyed.is_empty());
        assert_eq!(outcome.objective_value, outcome.intact_value);
        assert_eq!(outcome.candidates_evaluated, 0);
        // An over-budget search destroys everything and still terminates.
        let all = AttackSearchConfig {
            budget: AttackBudget::Planes(99),
            restarts: 1,
            swaps: 2,
            ..Default::default()
        };
        let wipeout = optimize_attack(&evaluator, &all, 1, &[]).unwrap();
        assert_eq!(wipeout.destroyed.len(), 30);
        assert_eq!(wipeout.objective_value, 0.0, "nothing routes with nobody alive");
    }
}
