//! Scenario execution: the end-to-end pipeline for one spec, and a
//! thread-pooled runner for sweeps.
//!
//! Execution is a pure function of the spec: demand synthesis, every
//! designer, the fluence integrals, and the survivability simulation are
//! all seeded, so [`execute_scenario`] called twice returns identical
//! reports — and the parallel [`Runner`] preserves that by collecting
//! results into slot `i` for scenario `i` regardless of which worker ran
//! it. JSON-lines output is therefore byte-identical across runs **and**
//! across thread counts. Wall-clock stage timings are collected on the
//! side (see [`ScenarioTimings`]) and never enter the report.
//!
//! The pipeline is **design-generic**: every system a scenario selects
//! (`design.kinds`) is produced by a [`Designer`] from the
//! `ssplane-core` registry, and one shared sequence of stages — design →
//! attack → fluence → survivability → network — runs over the resulting
//! [`DesignedSystem`]s in registry order. Stage plumbing goes through the
//! existing crates, not re-implementations: `ssplane_demand` (grid) →
//! `ssplane_core::system` designers → `ssplane_core::evaluate` fluence
//! sampling over `ssplane_radiation` → `ssplane_lsn::{survivability,
//! traffic, routing}`.

use crate::error::{Result, ScenarioError};
use crate::report::{
    AttackReport, AttackSearchReport, DegradedNetworkReport, DesignReport, FluenceReport,
    NamedSystemReport, NetworkReport, PerSatelliteReport, PercolationModelReport,
    PercolationReport, ScenarioReport, ServedDemandReport, SurvivabilityOutcome, SystemReport,
    TimeGridReport,
};
use crate::spec::{AttackKind, AttackUnit, DesignSpec, ScenarioSpec, TrafficModel};
use crate::sweep::SweepSpec;
use ssplane_astro::geo::GeoPoint;
use ssplane_astro::time::Epoch;
use ssplane_core::evaluate::{plane_fluence_samples, weighted_median_fluence};
use ssplane_core::system::{
    DesignParams, DesignSummary, DesignedSystem, Designer, RgtDesigner, SlimDesigner, SsDesigner,
    StarlinkDesigner, WalkerDesigner,
};
use ssplane_demand::gravity::{gravity_flows, grid_demand_total, GravityConfig};
use ssplane_demand::grid::LatTodGrid;
use ssplane_demand::DemandModel;
use ssplane_lsn::disruption::{strided_plane_indices, AttackModel, AttackTarget, OutageTimeline};
use ssplane_lsn::optimizer::{optimize_attack, DegradedEvaluator};
use ssplane_lsn::percolation::{
    algebraic_connectivity, percolation_sweep, plane_spread_ordering, priority_ordering,
    random_ordering, Lambda2Config, PercolationCurve,
};
use ssplane_lsn::routing::{route_ground_to_ground, route_over_time, Route, TimeExpandedRoutes};
use ssplane_lsn::snapshot::{time_grid, SnapshotSeries};
use ssplane_lsn::survivability::{outage_timeline, simulate_process};
use ssplane_lsn::topology::{Constellation, GridTopologyConfig, SatId};
use ssplane_lsn::traffic::{sample_flows, Flow, TrafficReport};
use ssplane_lsn::traffic_engine::{CapacityConfig, TrafficWorkload};
use ssplane_lsn::LsnError;
use ssplane_radiation::fluence::DailyFluence;
use ssplane_radiation::RadiationEnvironment;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Salt XORed into the scenario seed for the degraded-network outage
/// timeline, so its realization is an explicitly independent stream from
/// the aggregate survivability simulation's.
const OUTAGE_SEED_SALT: u64 = 0x4F55_5441_4745;

/// Salt XORed into the scenario seed for the percolation stage's
/// random-loss baseline ordering, so its stream is independent of every
/// other consumer of the scenario seed.
const PERCOLATION_SEED_SALT: u64 = 0x5045_5243_4F4C;

/// Salt XORed into the scenario seed for the gravity workload's pair
/// sampling, so the population-scale demand stream is independent of the
/// flow sample's and the outage timeline's.
const TRAFFIC_SEED_SALT: u64 = 0x0054_5241_4646_4943;

/// The synthetic demand model for a given `demand.seed`, built once per
/// process and shared. Synthesizing the 0.5° population grid takes tens
/// of milliseconds in a release build and depends on nothing but the
/// seed, so sweeps whose points agree on the seed (the common case)
/// share one synthesis and one ~2 MB grid, while a `demand.seed` axis
/// still gets a distinct model per value.
///
/// Entries live for the process (a `demand.seed` axis re-reads its
/// models on every rerun of the sweep). The lock is held across
/// synthesis so concurrent workers wanting the *same* new seed do the
/// work once rather than racing on it; that serializes first touches of
/// distinct seeds too, which now costs each waiter tens of ms.
fn shared_demand_model(seed: u64) -> Arc<DemandModel> {
    static CACHE: OnceLock<Mutex<BTreeMap<u64, Arc<DemandModel>>>> = OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(BTreeMap::new()));
    let mut models = cache.lock().expect("demand cache poisoned");
    models
        .entry(seed)
        .or_insert_with(|| {
            Arc::new(
                DemandModel::synthetic_seeded(seed)
                    .expect("default-resolution synthesis is valid for every seed"),
            )
        })
        .clone()
}

/// The designer registry: the [`Designer`] a registry name (an entry of
/// `ssplane_core::system::DESIGNER_REGISTRY`, as validated by
/// [`crate::spec::resolve_design_kind`]) selects, configured from the
/// spec. The fallthrough arm is `ss` — spec validation guarantees every
/// kind reaching the pipeline is a registry name.
fn designer_for(kind: &str, design: &DesignSpec) -> Box<dyn Designer> {
    match kind {
        "wd" => Box::new(WalkerDesigner { config: design.wd.clone() }),
        "rgt" => Box::new(RgtDesigner { config: design.rgt.clone() }),
        "slim" => Box::new(SlimDesigner {
            config: design.wd.clone(),
            plane_factor: design.slim_plane_factor,
            min_planes: design.slim_min_planes,
        }),
        "starlink" => Box::new(StarlinkDesigner { scale: design.starlink_scale }),
        _ => Box::new(SsDesigner { config: design.ss }),
    }
}

/// The optional survivability-per-satellite normalization
/// (`survivability.per_satellite`): outcome metrics divided by the
/// *designed* fleet size, so systems of very different scale (a slim
/// Walker vs the deployed Starlink catalog) compare on efficiency rather
/// than raw totals. `None` when the switch is off or the design is empty
/// — the block never changes existing bytes.
fn per_satellite_block(
    spec: &ScenarioSpec,
    design_sats: usize,
    availability: f64,
    lost_slot_days: f64,
    initial_spares: usize,
) -> Option<PerSatelliteReport> {
    if !spec.survivability.per_satellite || design_sats == 0 {
        return None;
    }
    let n = design_sats as f64;
    Some(PerSatelliteReport {
        sats: design_sats,
        availability_per_ksat: availability / n * 1000.0,
        lost_slot_days_per_sat: lost_slot_days / n,
        spares_per_sat: initial_spares as f64 / n,
    })
}

/// Per-stage wall-clock of one scenario — the timing side channel. Kept
/// strictly out of [`ScenarioReport`] so the report JSON stays a pure
/// (byte-deterministic) function of the spec; timings go to a separate
/// file or stderr (`scenario-runner --timings`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ScenarioTimings {
    /// The scenario's name.
    pub name: String,
    /// `(stage, seconds)` in execution order. Stages are named
    /// `demand.model`, `demand.grid`, and `<system>.<stage>` for the
    /// per-system design/fluence/survivability/network stages.
    pub stages: Vec<(String, f64)>,
    /// `(metric, value)` derived-rate rows in execution order — e.g.
    /// `<system>.attack_search.candidates_per_sec`, the attack search's
    /// scoring throughput. Not wall-clock, so kept out of
    /// [`Self::total_seconds`].
    pub metrics: Vec<(String, f64)>,
}

impl ScenarioTimings {
    /// Total wall-clock across stages \[s\] (metric rows excluded).
    pub fn total_seconds(&self) -> f64 {
        self.stages.iter().map(|&(_, s)| s).sum()
    }
}

/// Collects `(stage, seconds)` pairs around closures, plus derived
/// `(metric, value)` rate rows.
struct StageClock {
    stages: Vec<(String, f64)>,
    metrics: Vec<(String, f64)>,
}

impl StageClock {
    fn time<T>(&mut self, stage: &str, f: impl FnOnce() -> T) -> T {
        // ssplane-lint: allow(wall-clock) -- --timings side channel; durations never enter report bytes
        let start = std::time::Instant::now();
        let out = f();
        self.stages.push((stage.to_string(), start.elapsed().as_secs_f64()));
        out
    }

    /// The wall-clock of the most recently timed stage \[s\].
    fn last_stage_seconds(&self) -> f64 {
        self.stages.last().map_or(0.0, |&(_, s)| s)
    }

    fn metric(&mut self, name: String, value: f64) {
        self.metrics.push((name, value));
    }
}

/// The slots destroyed by the scenario's *fixed* attack on one designed
/// system (empty when the attack stage is inactive, or when the kind is
/// `optimized` — the searched attack is computed against the network
/// context, see [`run_attack_search`]). The attack model comes from the
/// `attack.kind` registry; selection is deterministic in the scenario
/// seed.
fn attack_destroyed(spec: &ScenarioSpec, sys: &DesignedSystem, epoch: Epoch) -> Result<Vec<SatId>> {
    if !spec.attack.is_active() || sys.planes.is_empty() {
        return Ok(Vec::new());
    }
    let Some(model) = spec.attack.fixed_model() else {
        return Ok(Vec::new());
    };
    let target = AttackTarget {
        planes: sys.planes.iter().map(|p| p.satellites.as_slice()).collect(),
        plane_groups: sys.planes.iter().map(|p| p.eval_idx).collect(),
        epoch,
    };
    Ok(model.destroyed(&target, spec.seed)?)
}

/// The report row of a design summary.
fn design_report(summary: &DesignSummary) -> DesignReport {
    DesignReport {
        sats: summary.sats,
        planes: summary.planes,
        shells: summary.shells,
        sats_per_plane: summary.sats_per_plane,
        inclination_deg: summary.inclination_deg,
        unserved_demand: summary.unserved_demand,
    }
}

/// Runs every post-design, pre-network stage for one designed system.
/// `destroyed` is the attack's victim set ([`attack_destroyed`]); the
/// per-plane doses are returned alongside the report so the degraded
/// network stage can drive its outage timeline without re-sampling
/// fluence.
#[allow(clippy::too_many_arguments)]
fn system_report(
    spec: &ScenarioSpec,
    name: &str,
    sys: &DesignedSystem,
    destroyed: &[SatId],
    env: &RadiationEnvironment,
    epoch: Epoch,
    fluence_stage: bool,
    clock: &mut StageClock,
) -> Result<(SystemReport, Option<Vec<DailyFluence>>)> {
    let mut report = SystemReport {
        design: design_report(&sys.summary),
        fluence: None,
        attack: None,
        attack_search: None,
        survivability: None,
        network: None,
    };

    // Attack bookkeeping over the destroyed set: pure counting, so it
    // runs (and reports capacity retention) even in design-only
    // scenarios with the radiation stage disabled.
    let mut destroyed_per_plane = vec![0usize; sys.planes.len()];
    for id in destroyed {
        destroyed_per_plane[id.plane] += 1;
    }
    if spec.attack.is_active() && !sys.planes.is_empty() {
        let planes_lost = sys
            .planes
            .iter()
            .zip(&destroyed_per_plane)
            .filter(|(p, &d)| p.n_sats > 0 && d >= p.n_sats)
            .count();
        let sats_lost = destroyed.len();
        let total: usize = sys.total_sats();
        report.attack = Some(AttackReport {
            planes_lost,
            sats_lost,
            capacity_retained: if total == 0 { 0.0 } else { 1.0 - sats_lost as f64 / total as f64 },
        });
    }

    if !fluence_stage || sys.eval_groups.is_empty() {
        return Ok((report, None));
    }

    // The fig10-parity statistic: `phases` samples per evaluation group,
    // weighted median across the constellation.
    let phases = spec.radiation.phases.max(1);
    let samples = clock.time(&format!("{name}.fluence"), || {
        plane_fluence_samples(&sys.eval_groups, env, epoch, phases, spec.radiation.step_s)
    })?;
    let median = weighted_median_fluence(&samples);

    // Per-evaluation-group dose (mean over its phase samples); planes
    // inherit the dose of their group.
    let eval_doses: Vec<DailyFluence> = samples
        .chunks(phases)
        .map(|chunk| {
            let n = chunk.len() as f64;
            DailyFluence {
                electron: chunk.iter().map(|(f, _)| f.electron).sum::<f64>() / n,
                proton: chunk.iter().map(|(f, _)| f.proton).sum::<f64>() / n,
            }
        })
        .collect();
    let plane_doses: Vec<DailyFluence> =
        sys.planes.iter().map(|p| eval_doses[p.eval_idx]).collect();
    let mean = DailyFluence {
        electron: plane_doses.iter().map(|d| d.electron).sum::<f64>()
            / plane_doses.len().max(1) as f64,
        proton: plane_doses.iter().map(|d| d.proton).sum::<f64>() / plane_doses.len().max(1) as f64,
    };
    report.fluence = Some(FluenceReport {
        median_electron: median.electron,
        median_proton: median.proton,
        mean_electron: mean.electron,
        mean_proton: mean.proton,
        solar_activity: env.solar.activity(epoch),
    });

    if spec.survivability.enabled {
        // A plane survives unless the attack destroyed every one of its
        // satellites; partial losses keep the plane with a reduced count.
        let surviving: Vec<(usize, usize)> = sys
            .planes
            .iter()
            .enumerate()
            .filter(|(i, p)| !(p.n_sats > 0 && destroyed_per_plane[*i] >= p.n_sats))
            .map(|(i, p)| (i, p.n_sats - destroyed_per_plane[i]))
            .collect();
        if surviving.is_empty() {
            // The attack wiped out every plane: that is an availability-0
            // outcome, not a missing stage — a sweep plotting
            // availability vs planes_lost must see its extreme point.
            // `lost_slot_days` counts vacancy-days among *surviving*
            // slots (the simulation's metric), so it is 0 here, exactly
            // as attack-destroyed slots are excluded in partial attacks;
            // the destroyed capacity itself is the attack report's
            // `sats_lost` / `capacity_retained`.
            report.survivability = Some(SurvivabilityOutcome {
                availability: 0.0,
                failures: 0,
                replacements: 0,
                lost_slot_days: 0.0,
                spares_consumed: 0,
                initial_spares: 0,
                per_satellite: per_satellite_block(spec, sys.total_sats(), 0.0, 0.0, 0),
            });
        } else {
            let doses: Vec<DailyFluence> = surviving.iter().map(|&(i, _)| plane_doses[i]).collect();
            let sats: usize = surviving.iter().map(|&(_, n)| n).sum();
            // Round to nearest: flooring the mean would silently drop up
            // to one satellite per plane from the simulated fleet (a ~10%
            // undercount for small uneven Walker shells).
            let sats_per_plane = ((sats as f64 / surviving.len() as f64).round() as usize).max(1);
            let process = spec.survivability.process();
            let sim = clock.time(&format!("{name}.survivability"), || {
                simulate_process(
                    &doses,
                    sats_per_plane,
                    &*process,
                    &spec.survivability.policy,
                    spec.survivability.sim_config(spec.seed),
                )
            })?;
            let initial_spares = spec.survivability.policy.total_spares(surviving.len());
            report.survivability = Some(SurvivabilityOutcome {
                availability: sim.availability,
                failures: sim.failures,
                replacements: sim.replacements,
                lost_slot_days: sim.lost_slot_days,
                spares_consumed: sim.spares_consumed,
                initial_spares,
                per_satellite: per_satellite_block(
                    spec,
                    sys.total_sats(),
                    sim.availability,
                    sim.lost_slot_days,
                    initial_spares,
                ),
            });
        }
    }
    Ok((report, Some(plane_doses)))
}

/// Nearest-rank percentile of an ascending-sorted sample (NaN if empty):
/// the smallest value with at least `q·n` of the sample at or below it,
/// i.e. 1-based rank `ceil(q·n)` clamped to `[1, n]`. At `n = 10, q =
/// 0.5` this is the 5th value — not the rounded linear index the
/// pre-fix implementation returned.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let n = sorted.len();
    let rank = (q * n as f64).ceil() as usize;
    sorted[rank.clamp(1, n) - 1]
}

/// The per-slot statistics the intact `time_grid` block and the
/// `degraded` block both report, computed by one aggregator so the two
/// stay method-for-method comparable.
struct SlotAggregates {
    slots: usize,
    connected_slots: usize,
    min_routed: usize,
    mean_routed: f64,
    peak_link_load: f64,
    mean_link_load: f64,
    delay_p50_ms: f64,
    delay_p90_ms: f64,
    delay_p99_ms: f64,
}

fn slot_aggregates(per_slot: &[(bool, &TrafficReport)]) -> SlotAggregates {
    let slots = per_slot.len();
    let denom = slots.max(1) as f64;
    let connected_slots = per_slot.iter().filter(|(connected, _)| *connected).count();
    let min_routed = per_slot.iter().map(|(_, t)| t.routed).min().unwrap_or(0);
    let mean_routed = per_slot.iter().map(|(_, t)| t.routed as f64).sum::<f64>() / denom;
    let peak_link_load = per_slot.iter().map(|(_, t)| t.max_link_load()).fold(0.0, f64::max);
    let mean_link_load = per_slot.iter().map(|(_, t)| t.mean_link_load()).sum::<f64>() / denom;
    // Delay distribution over every routed (flow, slot) pair, in
    // deterministic (slot-major, then flow) collection order before the
    // total-order sort.
    let mut delays: Vec<f64> = per_slot
        .iter()
        .flat_map(|(_, t)| t.flow_outcomes.iter().flatten().map(|o| o.delay_ms))
        .collect();
    delays.sort_by(|a, b| a.partial_cmp(b).expect("finite delays"));
    SlotAggregates {
        slots,
        connected_slots,
        min_routed,
        mean_routed,
        peak_link_load,
        mean_link_load,
        delay_p50_ms: percentile(&delays, 0.50),
        delay_p90_ms: percentile(&delays, 0.90),
        delay_p99_ms: percentile(&delays, 0.99),
    }
}

/// The time-resolved aggregate over per-slot traffic reports and
/// connectivity flags (the `time_grid` report block).
fn time_grid_report(per_slot: &[(bool, TrafficReport)]) -> TimeGridReport {
    let views: Vec<(bool, &TrafficReport)> =
        per_slot.iter().map(|(connected, t)| (*connected, t)).collect();
    let agg = slot_aggregates(&views);

    // Per-flow serving-pair handoffs across consecutive routable slots.
    // A slot where the flow is unroutable resets the previous pair: a
    // route re-acquired on a different pair after a gap is a fresh
    // attachment, not a handoff (the same contract as
    // `TimeExpandedRoutes::handoffs`).
    let n_flows = per_slot.first().map_or(0, |(_, t)| t.flow_outcomes.len());
    let mut handoffs = 0usize;
    for flow in 0..n_flows {
        let mut prev = None;
        for (_, t) in per_slot {
            let Some(ends) = t.flow_outcomes[flow].map(|o| o.ends) else {
                prev = None;
                continue;
            };
            if let Some(p) = prev {
                if p != ends {
                    handoffs += 1;
                }
            }
            prev = Some(ends);
        }
    }

    TimeGridReport {
        slots: agg.slots,
        connected_slots: agg.connected_slots,
        min_routed: agg.min_routed,
        mean_routed: agg.mean_routed,
        peak_link_load: agg.peak_link_load,
        mean_link_load: agg.mean_link_load,
        delay_p50_ms: agg.delay_p50_ms,
        delay_p90_ms: agg.delay_p90_ms,
        delay_p99_ms: agg.delay_p99_ms,
        handoffs,
    }
}

/// The degraded-network aggregate over per-slot `(connected, alive,
/// traffic)` triples, reported next to the intact baseline.
fn degraded_report(
    per_slot: &[(bool, usize, TrafficReport)],
    total_sats: usize,
    n_flows: usize,
    intact_mean_link_load: f64,
) -> DegradedNetworkReport {
    let views: Vec<(bool, &TrafficReport)> =
        per_slot.iter().map(|(connected, _, t)| (*connected, t)).collect();
    let agg = slot_aggregates(&views);
    let denom = per_slot.len().max(1) as f64;
    let min_alive = per_slot.iter().map(|&(_, alive, _)| alive).min().unwrap_or(0);
    let mean_alive = per_slot.iter().map(|&(_, alive, _)| alive as f64).sum::<f64>() / denom;
    DegradedNetworkReport {
        slots: agg.slots,
        mean_alive_fraction: if total_sats == 0 { 0.0 } else { mean_alive / total_sats as f64 },
        min_alive,
        connected_slots: agg.connected_slots,
        min_routed: agg.min_routed,
        mean_routed: agg.mean_routed,
        routed_fraction: if n_flows == 0 { 0.0 } else { agg.mean_routed / n_flows as f64 },
        peak_link_load: agg.peak_link_load,
        mean_link_load: agg.mean_link_load,
        // Serialized `null` when the intact grid carries no load.
        load_inflation: agg.mean_link_load / intact_mean_link_load,
        delay_p50_ms: agg.delay_p50_ms,
        delay_p90_ms: agg.delay_p90_ms,
        delay_p99_ms: agg.delay_p99_ms,
        served_fraction: None,
        min_served_fraction: None,
    }
}

/// The network constellation's flat layout relative to the design's
/// plane order: `Constellation::from_planes` permutes planes by
/// `network_order` and drops empty planes, so attack victims expressed
/// as design-plane [`SatId`]s must be translated before they can mask a
/// snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
struct NetworkLayout {
    /// Design plane index of each network plane (empty planes dropped).
    kept: Vec<usize>,
    /// Network plane index per design plane (`usize::MAX` for planes the
    /// network dropped).
    net_plane_of_design: Vec<usize>,
    /// Flat start index per network plane.
    offsets: Vec<usize>,
    /// Satellites per network plane.
    plane_sats: Vec<usize>,
    /// Total satellites in the network layout.
    total: usize,
}

impl NetworkLayout {
    /// Flat network index of a design-plane satellite id (`None` when
    /// its plane was dropped or the slot is out of range).
    fn flat_of_design(&self, id: SatId) -> Option<usize> {
        let np = *self.net_plane_of_design.get(id.plane)?;
        if np == usize::MAX || id.slot >= self.plane_sats[np] {
            return None;
        }
        Some(self.offsets[np] + id.slot)
    }

    /// The design-plane id of a network-layout id.
    fn design_id(&self, id: SatId) -> SatId {
        SatId { plane: self.kept[id.plane], slot: id.slot }
    }
}

/// Computes the [`NetworkLayout`] of one designed system — exactly the
/// permutation-plus-drop `Constellation::from_planes(sys.network_planes())`
/// performs.
fn network_layout(sys: &DesignedSystem) -> NetworkLayout {
    let kept: Vec<usize> = sys
        .network_order
        .iter()
        .copied()
        .filter(|&i| !sys.planes[i].satellites.is_empty())
        .collect();
    let mut net_plane_of_design = vec![usize::MAX; sys.planes.len()];
    let mut offsets = Vec::with_capacity(kept.len());
    let mut plane_sats = Vec::with_capacity(kept.len());
    let mut acc = 0usize;
    for (np, &dp) in kept.iter().enumerate() {
        net_plane_of_design[dp] = np;
        offsets.push(acc);
        plane_sats.push(sys.planes[dp].satellites.len());
        acc += sys.planes[dp].satellites.len();
    }
    NetworkLayout { kept, net_plane_of_design, offsets, plane_sats, total: acc }
}

/// Everything the network-facing stages share for one designed system:
/// the network constellation, the batch-propagated traffic-grid
/// [`SnapshotSeries`], the demand-weighted flow sample, and the
/// design↔network plane mapping. Built once per system — the attack
/// search and the network report ride the same propagation cache, so an
/// optimized attack never costs a second build.
struct NetworkContext {
    constellation: Constellation,
    topo_config: GridTopologyConfig,
    min_elev: f64,
    t: Epoch,
    grid: Vec<Epoch>,
    series: SnapshotSeries,
    flows: Vec<Flow>,
    layout: NetworkLayout,
    /// The population-scale gravity workload (`traffic.model =
    /// "gravity"`), in satellite-capacity units: the emitted rates are
    /// rescaled so the total offered demand equals
    /// `demand.total_demand_b`.
    workload: Option<TrafficWorkload>,
}

/// Builds the [`NetworkContext`]: one parallel snapshot build over the
/// traffic grid (`build_threads` scoped workers, `0` = the machine) and
/// one seeded flow sample.
fn network_context(
    spec: &ScenarioSpec,
    model: &DemandModel,
    sys: &DesignedSystem,
    epoch: Epoch,
    build_threads: usize,
) -> Result<NetworkContext> {
    let constellation = Constellation::from_planes(epoch, sys.network_planes())?;
    let topo_config = GridTopologyConfig {
        max_range_km: spec.network.max_range_km,
        ..GridTopologyConfig::default()
    };
    let t = epoch + spec.network.utc_hour * 3600.0;
    let grid_slots = spec.network.time_grid_slots.max(1);
    let grid = time_grid(t, grid_slots, spec.network.time_grid_slot_s);
    let series = SnapshotSeries::build_parallel(&constellation, &grid, build_threads)?;
    // Flow endpoints are demand-weighted; the stream is derived from the
    // scenario seed so sweeps decorrelate. One flow set is routed at
    // every slot (the grid varies the geometry, not the demand sample).
    let flows = sample_flows(
        model,
        spec.network.utc_hour,
        spec.network.n_flows,
        spec.seed.wrapping_add(0x9E37_79B9),
    );
    let layout = network_layout(sys);
    debug_assert_eq!(layout.total, series.n_sats(), "network layout mismatch");
    // The gravity workload, when asked for: seeded pair sampling over the
    // same demand model, rescaled so the offered total is the scenario's
    // `demand.total_demand_b` (satellite-capacity units — the same units
    // `traffic.capacity_gbps` budgets each ISL in).
    let workload = if spec.traffic.model == TrafficModel::Gravity {
        let config = GravityConfig {
            pairs: spec.traffic.pairs,
            sites: spec.traffic.sites,
            utc_hour: spec.network.utc_hour,
            seed: spec.seed ^ TRAFFIC_SEED_SALT,
            ..GravityConfig::default()
        };
        let gravity = gravity_flows(model, &config, build_threads)?;
        let total = grid_demand_total(model, spec.network.utc_hour);
        Some(TrafficWorkload::from_gravity(
            &gravity,
            spec.demand.total_demand_b / total,
            CapacityConfig {
                link_capacity: spec.traffic.capacity_gbps,
                k_paths: spec.traffic.k_paths,
            },
        ))
    } else {
        None
    };
    Ok(NetworkContext {
        constellation,
        topo_config,
        min_elev: spec.network.min_elevation_deg.to_radians(),
        t,
        grid,
        series,
        flows,
        layout,
        workload,
    })
}

/// Runs the adversarial attack search (`attack.kind = "optimized"`) for
/// one designed system over its prebuilt [`NetworkContext`]. Returns the
/// found worst-case destroyed set translated back to **design-plane**
/// ids (what the attack bookkeeping and survivability stages consume)
/// plus the report block.
///
/// The same-budget fixed-attack baseline (`leading-planes` for a plane
/// budget, `random-sats` for a satellite budget) is scored with the same
/// objective and seeded into the search's start pool, so the found
/// attack is reported next to it and is never weaker.
fn run_attack_search(
    spec: &ScenarioSpec,
    sys: &DesignedSystem,
    ctx: &NetworkContext,
    evaluator: &DegradedEvaluator<'_>,
    threads: usize,
) -> Result<(Vec<SatId>, AttackSearchReport)> {
    let config = spec.attack.search_config(threads);
    let n_net_planes = ctx.layout.kept.len();
    let (baseline_name, baseline): (&str, Vec<SatId>) = match spec.attack.unit {
        AttackUnit::Planes => {
            let victims = strided_plane_indices(n_net_planes, spec.attack.budget)
                .into_iter()
                .flat_map(|p| {
                    (0..ctx.layout.plane_sats[p]).map(move |s| SatId { plane: p, slot: s })
                })
                .collect();
            ("leading-planes", victims)
        }
        AttackUnit::Sats => {
            // The seeded random baseline over the *network* constellation
            // (the search's own candidate space).
            let element_planes: Vec<&[ssplane_astro::kepler::OrbitalElements]> =
                ctx.layout.kept.iter().map(|&dp| sys.planes[dp].satellites.as_slice()).collect();
            let target = AttackTarget {
                plane_groups: (0..element_planes.len()).collect(),
                planes: element_planes,
                epoch: ctx.t,
            };
            let model = ssplane_lsn::disruption::RandomSats { sats_lost: spec.attack.budget };
            ("random-sats", model.destroyed(&target, spec.seed)?)
        }
    };
    let baseline_value = evaluator.score_attack(&baseline, config.objective)?;
    let outcome = optimize_attack(evaluator, &config, spec.seed, &[baseline])?;
    let mut destroyed: Vec<SatId> =
        outcome.destroyed.iter().map(|&id| ctx.layout.design_id(id)).collect();
    destroyed.sort_unstable();
    let report = AttackSearchReport {
        objective: config.objective.as_str().to_string(),
        unit: spec.attack.unit.as_str().to_string(),
        budget: spec.attack.budget,
        restarts: spec.attack.restarts,
        // The baseline's standalone scoring above is one extra candidate
        // on top of the search's own counts (and it is always distinct
        // work: it runs through the full evaluator, not the scorer).
        candidates_scored: outcome.candidates_evaluated + 1,
        candidates_unique: outcome.candidates_unique + 1,
        objective_value: outcome.objective_value,
        baseline: baseline_name.to_string(),
        baseline_value,
        intact_value: outcome.intact_value,
    };
    Ok((destroyed, report))
}

/// Runs the networking stage over one designed system's prebuilt
/// [`NetworkContext`]: a [`DegradedEvaluator`] supplies the per-slot
/// intact topologies and traffic assignments (the same reusable
/// evaluation the attack search scores candidates through), plus the
/// time-expanded reference route. With `time_grid_slots = 1` this is
/// byte-identical to the classic single-instant stage; with more slots
/// the per-slot metrics aggregate into the `time_grid` report block.
///
/// With `network.with_outages`, the same series (no re-propagation)
/// additionally feeds a **degraded** pass: each slot's snapshot is
/// masked by the attack's `destroyed` set plus, when survivability is
/// enabled, an [`OutageTimeline`] driven by `plane_doses` and sampled at
/// the slot's mission fraction — so the grid reads as orbital geometry
/// *and* mission life at once. Each masked slot filters the prebuilt
/// intact topology ([`ssplane_lsn::topology::Topology::masked`]) instead
/// of re-running the geometric construction.
#[allow(clippy::too_many_lines)]
fn network_report(
    spec: &ScenarioSpec,
    ctx: &NetworkContext,
    evaluator: &DegradedEvaluator<'_>,
    destroyed: &[SatId],
    plane_doses: Option<&[DailyFluence]>,
    build_threads: usize,
) -> Result<NetworkReport> {
    let NetworkContext {
        constellation,
        topo_config,
        min_elev,
        t,
        grid,
        series,
        flows,
        layout,
        workload,
    } = ctx;
    let (topo_config, min_elev) = (*topo_config, *min_elev);
    let per_slot: Vec<(bool, TrafficReport)> =
        evaluator.intact().iter().map(|e| (e.connected, e.traffic.clone())).collect();

    // The reference pair of every routing walkthrough in this repo:
    // New York -> London across the configured (route-grid) slots. When
    // the route grid coincides with the traffic grid, the reference
    // route rides the evaluator's per-slot topologies instead of
    // rebuilding the whole series.
    let src = GeoPoint::from_degrees(40.7, -74.0);
    let dst = GeoPoint::from_degrees(51.5, -0.1);
    let route_grid = time_grid(*t, spec.network.slots.max(1), spec.network.slot_s);
    let routes = if route_grid == *grid {
        let mut shared_routes: Vec<Option<Route>> = Vec::with_capacity(series.len());
        for (k, snapshot) in series.iter().enumerate() {
            match route_ground_to_ground(
                &snapshot,
                evaluator.intact_topology(k),
                src,
                dst,
                min_elev,
            ) {
                Ok(r) => shared_routes.push(Some(r)),
                Err(LsnError::NoRoute) => shared_routes.push(None),
                Err(e) => return Err(e.into()),
            }
        }
        TimeExpandedRoutes { epochs: route_grid, routes: shared_routes }
    } else {
        let route_series =
            SnapshotSeries::build_parallel(constellation, &route_grid, build_threads)?;
        route_over_time(&route_series, src, dst, min_elev, topo_config)?
    };

    // The degraded pass: rides the same snapshot series (and prebuilt
    // intact topologies) as the intact loop above.
    let degraded = if spec.network.with_outages {
        let total = series.n_sats();
        // Seed both working masks from the evaluator's shared all-alive
        // buffer instead of rebuilding the all-true vec from scratch.
        let mut alive_base = evaluator.all_alive().to_vec();
        for id in destroyed {
            if let Some(flat) = layout.flat_of_design(*id) {
                alive_base[flat] = false;
            }
        }

        // The outage timeline over the real per-plane fleet (the scalar
        // survivability report keeps its historical uniform-plane
        // approximation); destroyed slots draw no lifetimes and consume
        // no spares.
        let timeline: Option<OutageTimeline> = match plane_doses {
            Some(doses) if spec.survivability.enabled => {
                let kept_doses: Vec<DailyFluence> = layout.kept.iter().map(|&i| doses[i]).collect();
                let dead: Vec<bool> = alive_base.iter().map(|&a| !a).collect();
                let process = spec.survivability.process();
                Some(outage_timeline(
                    &kept_doses,
                    &layout.plane_sats,
                    Some(&dead),
                    &*process,
                    &spec.survivability.policy,
                    spec.survivability.sim_config(spec.seed ^ OUTAGE_SEED_SALT),
                )?)
            }
            _ => None,
        };

        let mut degraded_slots: Vec<(bool, usize, TrafficReport)> =
            Vec::with_capacity(series.len());
        let mut served_fractions: Vec<f64> = Vec::with_capacity(series.len());
        let mut mask = evaluator.all_alive().to_vec();
        for k in 0..series.len() {
            mask.copy_from_slice(&alive_base);
            if let Some(tl) = &timeline {
                // Slot k samples the mission at fraction (k + 0.5)/slots.
                let day = tl.horizon_days * (k as f64 + 0.5) / series.len() as f64;
                tl.mask_alive(day, &mut mask);
            }
            let eval = evaluator.evaluate_slot(k, Some(&mask))?;
            if let Some(s) = &eval.served {
                served_fractions.push(s.served_fraction);
            }
            degraded_slots.push((eval.connected, eval.alive, eval.traffic));
        }
        let mut deg =
            degraded_report(&degraded_slots, total, flows.len(), evaluator.intact_mean_link_load());
        if workload.is_some() && served_fractions.len() == degraded_slots.len() {
            let denom = served_fractions.len().max(1) as f64;
            deg.served_fraction = Some(served_fractions.iter().sum::<f64>() / denom);
            deg.min_served_fraction =
                Some(served_fractions.iter().copied().fold(f64::INFINITY, f64::min));
        }
        Some(deg)
    } else {
        None
    };

    // The engine's headline block: the classic instant (slot 0 of the
    // grid), reported next to the sampled-flow statistics it generalizes.
    let served = evaluator.intact()[0].served.as_ref().map(|s| {
        let safe = |x: f64| if s.offered > 0.0 { x / s.offered } else { 0.0 };
        ServedDemandReport {
            flows: s.flows,
            pairs: s.pairs,
            offered: s.offered,
            served_fraction: s.served_fraction,
            dropped_fraction: safe(s.dropped),
            unattached_fraction: safe(s.unattached),
            utilization_p50: s.utilization_p50,
            utilization_p90: s.utilization_p90,
            utilization_p99: s.utilization_p99,
            utilization_max: s.utilization_max,
        }
    });

    let (_, traffic) = &per_slot[0];
    Ok(NetworkReport {
        routed: traffic.routed,
        unrouted: traffic.unrouted,
        mean_stretch: traffic.mean_stretch,
        mean_hops: traffic.mean_hops,
        max_link_load: traffic.max_link_load(),
        mean_link_load: traffic.mean_link_load(),
        reachable_slots: routes.reachable_slots(),
        slots: routes.routes.len(),
        handoffs: routes.handoffs(),
        mean_delay_ms: routes.mean_delay_ms(),
        served,
        time_grid: (grid.len() > 1).then(|| time_grid_report(&per_slot)),
        degraded,
        percolation: None,
    })
}

/// Averages per-slot percolation curves point-wise. Every slot sweeps
/// the same ordering over the same satellite count, so the loss and
/// removed axes are identical across slots; only the cluster statistics
/// differ with each slot's geometry-feasible link set.
fn averaged_curve(curves: &[PercolationCurve]) -> PercolationCurve {
    let first = &curves[0];
    let n = curves.len() as f64;
    let avg = |pick: fn(&PercolationCurve) -> &Vec<f64>| -> Vec<f64> {
        (0..first.len()).map(|k| curves.iter().map(|c| pick(c)[k]).sum::<f64>() / n).collect()
    };
    PercolationCurve {
        n_nodes: first.n_nodes,
        loss_fraction: first.loss_fraction.clone(),
        removed: first.removed.clone(),
        giant_fraction: avg(|c| &c.giant_fraction),
        susceptibility: avg(|c| &c.susceptibility),
        mean_finite_cluster: avg(|c| &c.mean_finite_cluster),
    }
}

/// Runs the percolation stage (`network.percolation`) over the network
/// stage's prebuilt intact per-slot topologies — pure union-find replay
/// and one power iteration per slot, no re-propagation and no routing.
///
/// One loss-fraction sweep per attack-registry ordering, slot-averaged:
/// `"leading-planes"` (the plane-spread schedule whose power-of-two
/// prefixes reproduce the strided plane attack), `"random-sats"` (the
/// seeded uniform baseline every targeted ordering's
/// `threshold_vs_random` is measured against), and — when the scenario's
/// attack destroyed anything — `"attack"`, the destroyed set leading the
/// plane-spread schedule.
fn percolation_report(
    spec: &ScenarioSpec,
    ctx: &NetworkContext,
    evaluator: &DegradedEvaluator<'_>,
    destroyed: &[SatId],
) -> PercolationReport {
    let (steps, gap) = (spec.network.percolation_steps, spec.network.percolation_gap);
    let slots = ctx.series.len();
    let spread = plane_spread_ordering(evaluator.intact_topology(0));
    let random = random_ordering(ctx.series.n_sats(), spec.seed ^ PERCOLATION_SEED_SALT);
    let mut orderings: Vec<(&str, Vec<usize>)> =
        vec![("leading-planes", spread.clone()), ("random-sats", random)];
    if !destroyed.is_empty() {
        let priority: Vec<usize> =
            destroyed.iter().filter_map(|&id| ctx.layout.flat_of_design(id)).collect();
        orderings.push(("attack", priority_ordering(&priority, &spread)));
    }

    let lambda2_intact = (0..slots)
        .map(|k| {
            algebraic_connectivity(
                evaluator.intact_topology(k),
                evaluator.all_alive(),
                &Lambda2Config::default(),
            )
        })
        .sum::<f64>()
        / slots as f64;

    let curves: Vec<(&str, PercolationCurve)> = orderings
        .iter()
        .map(|(name, order)| {
            let per_slot: Vec<PercolationCurve> = (0..slots)
                .map(|k| percolation_sweep(evaluator.intact_topology(k), order, steps))
                .collect();
            (*name, averaged_curve(&per_slot))
        })
        .collect();
    let random_curve =
        &curves.iter().find(|(name, _)| *name == "random-sats").expect("baseline swept").1;

    let models = curves
        .iter()
        .map(|(name, curve)| {
            let (chi_peak_loss, chi_peak) = curve.chi_peak();
            PercolationModelReport {
                model: (*name).to_string(),
                masking_threshold: curve.masking_threshold(gap),
                threshold_vs_random: (*name != "random-sats")
                    .then(|| curve.threshold_vs(random_curve, gap))
                    .flatten(),
                chi_peak_loss,
                chi_peak,
                mean_giant: curve.mean_giant(),
                giant_curve: curve.giant_fraction.clone(),
            }
        })
        .collect();

    PercolationReport {
        steps,
        gap,
        slots,
        lambda2_intact,
        loss_fraction: random_curve.loss_fraction.clone(),
        models,
    }
}

/// The scenario pipeline body, writing stage timings into `clock`.
/// `build_threads` caps the network stage's snapshot-build workers.
fn run_scenario(
    spec: &ScenarioSpec,
    clock: &mut StageClock,
    build_threads: usize,
) -> Result<ScenarioReport> {
    spec.validate()?;

    // Demand stage.
    let model = clock.time("demand.model", || shared_demand_model(spec.demand.seed));
    let grid = clock.time("demand.grid", || {
        LatTodGrid::from_model(&model, spec.demand.lat_bins, spec.demand.tod_bins)
    })?;
    let total = grid.total();
    if !total.is_finite() || total <= 0.0 {
        return Err(ScenarioError::bad_value(
            "demand.grid",
            "0",
            "a demand grid with positive total",
        ));
    }
    let multiplier = spec.demand.total_demand_b / total;
    let demand = grid.scaled(multiplier);

    let env = RadiationEnvironment::default();
    let epoch = spec.radiation.epoch();
    let params = DesignParams { epoch };

    // One generic pipeline per selected system, in registry order (so the
    // spec's `kinds` ordering can never change the output bytes).
    let mut systems = Vec::new();
    for kind in spec.design.ordered_kinds() {
        let designer = designer_for(kind, &spec.design);
        let name = designer.name();
        let sys = clock.time(&format!("{name}.design"), || designer.design(&demand, &params))?;
        // The network context (propagation cache + flows) and the
        // degraded evaluator (intact per-slot topologies + traffic) are
        // built once and shared by the attack search and the network
        // stage — an optimized attack never costs a second build of
        // either.
        let needs_network = spec.network.enabled && sys.total_sats() > 0;
        let optimized = needs_network && spec.attack.kind == AttackKind::Optimized;
        let net_ctx: Option<NetworkContext> = if needs_network {
            Some(clock.time(&format!("{name}.network.setup"), || {
                network_context(spec, &model, &sys, epoch, build_threads)
            })?)
        } else {
            None
        };
        let evaluator: Option<DegradedEvaluator<'_>> = match &net_ctx {
            Some(ctx) => Some(clock.time(&format!("{name}.network.intact"), || {
                // The spec's percolation knobs also configure the
                // masking-threshold attack objective; only forward them
                // when they are in-range (they are unvalidated while the
                // percolation stage itself is off).
                let (steps, gap) = (spec.network.percolation_steps, spec.network.percolation_gap);
                DegradedEvaluator::with_workload(
                    &ctx.series,
                    &ctx.flows,
                    ctx.min_elev,
                    ctx.topo_config,
                    ctx.workload.as_ref(),
                )
                .map(|e| {
                    let e = if steps >= 1 && gap.is_finite() && gap > 0.0 && gap < 1.0 {
                        e.with_percolation(steps, gap)
                    } else {
                        e
                    };
                    // The incremental scorer's repair-fallback knob; like
                    // the percolation knobs, forward it only when valid
                    // (it is unvalidated for fixed attacks).
                    let frac = spec.attack.damage_threshold;
                    if frac.is_finite() && frac > 0.0 && frac <= 1.0 {
                        e.with_repair_threshold(frac)
                    } else {
                        e
                    }
                })
            })?),
            None => None,
        };
        // An optimized attack is a search over that machinery; every
        // fixed kind stays a pure function of the geometry.
        let mut attack_search: Option<AttackSearchReport> = None;
        let destroyed = if optimized {
            let (ctx, eval) =
                (net_ctx.as_ref().expect("context built"), evaluator.as_ref().expect("built"));
            let (victims, search) = clock.time(&format!("{name}.attack_search"), || {
                run_attack_search(spec, &sys, ctx, eval, build_threads)
            })?;
            // Surface search throughput next to the stage's wall-clock —
            // the bench harness's candidates/s without the bench harness.
            let secs = clock.last_stage_seconds().max(f64::EPSILON);
            clock.metric(
                format!("{name}.attack_search.candidates_per_sec"),
                search.candidates_scored as f64 / secs,
            );
            attack_search = Some(search);
            victims
        } else {
            attack_destroyed(spec, &sys, epoch)?
        };
        let (mut report, plane_doses) = system_report(
            spec,
            name,
            &sys,
            &destroyed,
            &env,
            epoch,
            spec.radiation.enabled,
            clock,
        )?;
        report.attack_search = attack_search;
        if needs_network {
            let (ctx, eval) =
                (net_ctx.as_ref().expect("context built"), evaluator.as_ref().expect("built"));
            report.network = Some(clock.time(&format!("{name}.network"), || {
                network_report(spec, ctx, eval, &destroyed, plane_doses.as_deref(), build_threads)
            })?);
            if spec.network.percolation {
                // Its own timing entry: the sweep is a distinct analytic
                // pass over the stage's topologies, not routing work.
                let block = clock.time(&format!("{name}.percolation"), || {
                    percolation_report(spec, ctx, eval, &destroyed)
                });
                if let Some(net) = report.network.as_mut() {
                    net.percolation = Some(block);
                }
            }
        }
        systems.push(NamedSystemReport { system: name.to_string(), report });
    }

    Ok(ScenarioReport {
        name: spec.name.clone(),
        seed: spec.seed,
        total_demand_b: spec.demand.total_demand_b,
        demand_multiplier: multiplier,
        solar: spec.radiation.solar.as_str().to_string(),
        epoch_jd: epoch.julian_date(),
        systems,
    })
}

/// Executes one scenario end-to-end.
///
/// # Errors
/// Validation failures and any stage error, tagged with the crate that
/// produced it.
pub fn execute_scenario(spec: &ScenarioSpec) -> Result<ScenarioReport> {
    execute_scenario_timed(spec).0
}

/// Executes one scenario end-to-end, also returning its stage timings
/// (collected even when the scenario fails partway: the stages that did
/// run are reported). A standalone execution owns the machine, so the
/// snapshot build may use every core.
pub fn execute_scenario_timed(spec: &ScenarioSpec) -> (Result<ScenarioReport>, ScenarioTimings) {
    execute_scenario_timed_with(spec, 0)
}

/// As [`execute_scenario_timed`], with the network stage's snapshot
/// build capped at `build_threads` scoped workers (`0` = all cores) —
/// the sweep runner passes each worker's share of the thread budget.
fn execute_scenario_timed_with(
    spec: &ScenarioSpec,
    build_threads: usize,
) -> (Result<ScenarioReport>, ScenarioTimings) {
    let mut clock = StageClock { stages: Vec::new(), metrics: Vec::new() };
    let result = run_scenario(spec, &mut clock, build_threads);
    (
        result,
        ScenarioTimings { name: spec.name.clone(), stages: clock.stages, metrics: clock.metrics },
    )
}

/// A parallel scenario runner.
#[derive(Debug, Clone, Copy, Default)]
pub struct Runner {
    /// Worker threads; `0` (the default) uses the machine's available
    /// parallelism.
    pub threads: usize,
}

/// The result of running a sweep: per-scenario outcomes in **scenario
/// order** (independent of scheduling), plus accessors for the JSON-lines
/// and summary forms.
#[derive(Debug)]
pub struct SweepOutcome {
    /// The expanded scenario names, index-aligned with `reports` — kept
    /// so a *failed* point is still identifiable in the output (its
    /// error record carries the name even though no report exists).
    pub names: Vec<String>,
    /// One outcome per expanded scenario, index-aligned with the
    /// expansion order.
    pub reports: Vec<Result<ScenarioReport>>,
    /// Stage timings per scenario, index-aligned with `reports`. Not part
    /// of the JSON-lines output (wall-clock is nondeterministic); see
    /// [`SweepOutcome::timings_table`].
    pub timings: Vec<ScenarioTimings>,
}

impl SweepOutcome {
    /// The JSON-lines serialization: one line per scenario, in scenario
    /// order; failed scenarios serialize as `{"name": ..., "error": ...}`
    /// records so a sweep with one infeasible point still reports the
    /// other points — and the failing grid point stays identifiable.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, r) in self.reports.iter().enumerate() {
            match r {
                Ok(report) => out.push_str(&report.to_json_line()),
                Err(e) => {
                    out.push_str(
                        &crate::json::Json::obj()
                            .str("name", self.names.get(i).map_or("", String::as_str))
                            .str("error", &e.to_string())
                            .build()
                            .to_string_compact(),
                    );
                }
            }
            out.push('\n');
        }
        out
    }

    /// Scenarios that completed.
    pub fn ok_count(&self) -> usize {
        self.reports.iter().filter(|r| r.is_ok()).count()
    }

    /// The timing side channel as tab-separated text: one
    /// `scenario<TAB>stage<TAB>seconds` row per stage, in scenario order,
    /// with a per-scenario `total` row. Deliberately a separate artifact
    /// from the (byte-deterministic) report JSON.
    pub fn timings_table(&self) -> String {
        let mut out = String::from("scenario\tstage\tseconds\n");
        for t in &self.timings {
            for (stage, secs) in &t.stages {
                out.push_str(&format!("{}\t{stage}\t{secs:.6}\n", t.name));
            }
            out.push_str(&format!("{}\ttotal\t{:.6}\n", t.name, t.total_seconds()));
            // Derived rate rows (e.g. attack_search.candidates_per_sec)
            // after the totals: same three-column shape, value in the
            // last column, never summed into `total`.
            for (metric, value) in &t.metrics {
                out.push_str(&format!("{}\t{metric}\t{value:.6}\n", t.name));
            }
        }
        out
    }

    /// A human-readable aggregate summary (one row per scenario).
    pub fn summary(&self) -> String {
        const SYSTEMS: [(&str, &str); 5] =
            [("ss", "SS"), ("wd", "WD"), ("rgt", "RGT"), ("slim", "SLIM"), ("starlink", "STAR")];
        let mut out = String::new();
        out.push_str(&format!("{:<52}", "scenario"));
        for (_, label) in SYSTEMS {
            out.push_str(&format!(
                " {:>9} {:>10}",
                format!("{label} sats"),
                format!("{label} avail")
            ));
        }
        out.push('\n');
        for (i, r) in self.reports.iter().enumerate() {
            match r {
                Ok(rep) => {
                    out.push_str(&format!("{:<52}", rep.name));
                    for (name, _) in SYSTEMS {
                        let sats =
                            rep.system(name).map_or("-".to_string(), |x| x.design.sats.to_string());
                        let avail = rep
                            .system(name)
                            .and_then(|x| x.survivability.as_ref())
                            .map_or("-".to_string(), |v| format!("{:.4}", v.availability));
                        out.push_str(&format!(" {sats:>9} {avail:>10}"));
                    }
                    out.push('\n');
                }
                Err(e) => out.push_str(&format!(
                    "{:<52} error: {e}\n",
                    self.names.get(i).map_or("?", String::as_str)
                )),
            }
        }
        out
    }
}

/// The runner's total thread budget: the configured count, or the
/// machine's available parallelism when auto (`0`).
fn workers_total_budget(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism().map_or(4, std::num::NonZeroUsize::get)
    } else {
        threads
    }
}

impl Runner {
    /// A runner using `threads` workers (`0` = auto).
    pub fn with_threads(threads: usize) -> Self {
        Runner { threads }
    }

    fn worker_count(&self, jobs: usize) -> usize {
        workers_total_budget(self.threads).clamp(1, jobs.max(1))
    }

    /// Runs every spec, in parallel, returning outcomes in spec order.
    pub fn run_specs(&self, specs: &[ScenarioSpec]) -> SweepOutcome {
        let n = specs.len();
        let names: Vec<String> = specs.iter().map(|s| s.name.clone()).collect();
        let workers = self.worker_count(n);
        if workers <= 1 || n <= 1 {
            // The whole budget goes to intra-scenario parallelism (an
            // explicit `--threads k` still caps snapshot builds at k).
            let (reports, timings) =
                specs.iter().map(|spec| execute_scenario_timed_with(spec, self.threads)).unzip();
            return SweepOutcome { names, reports, timings };
        }
        let next = AtomicUsize::new(0);
        type Slot = Mutex<Option<(Result<ScenarioReport>, ScenarioTimings)>>;
        let slots: Vec<Slot> = (0..n).map(|_| Mutex::new(None)).collect();
        // Each concurrent worker gets its share of the thread budget for
        // intra-scenario parallelism (the network stage's snapshot
        // build), so a sweep never runs more threads than configured.
        let build_threads = (workers_total_budget(self.threads) / workers).max(1);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let outcome = execute_scenario_timed_with(&specs[i], build_threads);
                    *slots[i].lock().expect("runner slot poisoned") = Some(outcome);
                });
            }
        });
        let (reports, timings) = slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("runner slot poisoned")
                    .expect("every index claimed exactly once")
            })
            .unzip();
        SweepOutcome { names, reports, timings }
    }

    /// Expands and runs a sweep.
    ///
    /// # Errors
    /// Propagates expansion failure (unknown parameters, invalid specs);
    /// per-scenario execution failures are reported per line instead.
    pub fn run_sweep(&self, sweep: &SweepSpec) -> Result<SweepOutcome> {
        let specs = sweep.expand()?;
        Ok(self.run_specs(&specs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ScenarioSpec;

    fn tiny_spec() -> ScenarioSpec {
        let mut spec = ScenarioSpec::named("tiny");
        spec.demand.total_demand_b = 10.0;
        spec.radiation.phases = 1;
        spec.radiation.step_s = 300.0;
        spec.survivability.horizon_years = 2.0;
        spec
    }

    #[test]
    fn percolation_block_reports_targeted_collapse_before_random() {
        let mut spec = tiny_spec();
        spec.radiation.enabled = false;
        spec.survivability.enabled = false;
        spec.design.kinds = vec!["ss"];
        spec.network.enabled = true;
        spec.network.n_flows = 20;
        spec.network.slots = 2;

        // Baseline without the switch: no block, bytes as ever.
        let plain = execute_scenario(&spec).unwrap();
        assert!(plain.system("ss").unwrap().network.as_ref().unwrap().percolation.is_none());
        assert!(!plain.to_json_line().contains("percolation"));

        spec.network.percolation = true;
        let report = execute_scenario(&spec).unwrap();
        let net = report.system("ss").unwrap().network.clone().unwrap();
        let perc = net.percolation.expect("network.percolation adds the block");
        assert_eq!(perc.steps, 32);
        assert_eq!(perc.slots, 1, "defaults to the single-slot grid");
        assert_eq!(perc.loss_fraction.len(), 33);
        assert_eq!(perc.loss_fraction.first(), Some(&0.0));
        assert_eq!(perc.loss_fraction.last(), Some(&1.0));
        assert!(perc.lambda2_intact > 0.0, "the intact SS +grid is connected");
        let names: Vec<&str> = perc.models.iter().map(|m| m.model.as_str()).collect();
        assert_eq!(names, vec!["leading-planes", "random-sats"], "no attack, no attack sweep");
        for m in &perc.models {
            assert_eq!(m.giant_curve.len(), 33);
            assert!((m.giant_curve[0] - 1.0).abs() < 1e-12, "intact giant is everyone");
            assert_eq!(*m.giant_curve.last().unwrap(), 0.0, "total loss leaves nothing");
            assert!((0.0..=1.0).contains(&m.mean_giant));
            assert!(m.chi_peak_loss > 0.0 && m.chi_peak_loss < 1.0, "χ peaks inside the sweep");
        }
        // The paper-facing headline: targeted plane loss collapses the
        // giant component well before uniform random loss does, in the
        // exemplar's ~15–25 % critical-fraction band.
        let targeted = &perc.models[0];
        let random = &perc.models[1];
        let t = targeted.masking_threshold.expect("plane loss shatters the +grid");
        let r = random.masking_threshold.expect("random loss crosses the percolation threshold");
        assert!(t < r, "targeted collapse ({t}) must precede random collapse ({r})");
        assert!((0.1..=0.3).contains(&t), "targeted critical fraction {t} outside the band");
        assert!(random.threshold_vs_random.is_none(), "the baseline carries no self-gap");
        let vs = targeted.threshold_vs_random.expect("targeted opens a gap vs random");
        assert!(vs <= r);

        let line = report.to_json_line();
        assert!(line.contains(r#""percolation":{"steps":32"#), "{line}");
        // Byte determinism across reruns and across thread counts.
        assert_eq!(line, execute_scenario(&spec).unwrap().to_json_line());
        let (one, _) = execute_scenario_timed_with(&spec, 1);
        let (many, _) = execute_scenario_timed_with(&spec, 7);
        assert_eq!(one.unwrap().to_json_line(), many.unwrap().to_json_line());
    }

    #[test]
    fn attack_destroyed_set_joins_the_percolation_sweep() {
        let mut spec = tiny_spec();
        spec.radiation.enabled = false;
        spec.survivability.enabled = false;
        spec.design.kinds = vec!["ss"];
        spec.attack.planes_lost = 2;
        spec.network.enabled = true;
        spec.network.n_flows = 20;
        spec.network.slots = 2;
        spec.network.percolation = true;
        let report = execute_scenario(&spec).unwrap();
        let perc =
            report.system("ss").unwrap().network.clone().unwrap().percolation.expect("block on");
        let names: Vec<&str> = perc.models.iter().map(|m| m.model.as_str()).collect();
        assert_eq!(names, vec!["leading-planes", "random-sats", "attack"]);
        // Leading with the already-destroyed planes can only accelerate
        // the plane-spread schedule's collapse.
        let spread = perc.models[0].masking_threshold.unwrap();
        let attack = perc.models[2].masking_threshold.expect("the attack ordering collapses too");
        assert!(attack <= spread, "attack-led threshold {attack} vs spread {spread}");
    }

    #[test]
    fn masking_threshold_objective_runs_end_to_end() {
        use crate::spec::{AttackKind, AttackUnit};
        use ssplane_lsn::optimizer::AttackObjective;
        let mut spec = tiny_spec();
        spec.radiation.enabled = false;
        spec.survivability.enabled = false;
        spec.design.kinds = vec!["ss"];
        spec.attack.kind = AttackKind::Optimized;
        spec.attack.objective = AttackObjective::MaskingThreshold;
        spec.attack.unit = AttackUnit::Planes;
        spec.attack.budget = 2;
        spec.attack.restarts = 1;
        spec.attack.swaps = 3;
        spec.network.enabled = true;
        spec.network.n_flows = 20;
        spec.network.slots = 2;
        spec.network.percolation = true;
        spec.network.percolation_steps = 16;
        let report = execute_scenario(&spec).unwrap();
        let ss = report.system("ss").unwrap();
        let search = ss.attack_search.as_ref().expect("search block present");
        assert_eq!(search.objective, "masking-threshold");
        assert!(
            search.objective_value <= search.baseline_value,
            "the found attack ({}) must collapse no later than the same-budget \
             leading-planes baseline ({})",
            search.objective_value,
            search.baseline_value
        );
        assert!(search.objective_value <= search.intact_value);
        let perc =
            ss.network.as_ref().unwrap().percolation.clone().expect("percolation block present");
        assert_eq!(perc.steps, 16, "the spec's steps reach the sweep");
        let names: Vec<&str> = perc.models.iter().map(|m| m.model.as_str()).collect();
        assert_eq!(names, vec!["leading-planes", "random-sats", "attack"]);
        // Byte determinism across thread counts: the search and the
        // sweep share the strict index-ordered reductions.
        let (one, _) = execute_scenario_timed_with(&spec, 1);
        let (many, _) = execute_scenario_timed_with(&spec, 7);
        assert_eq!(one.unwrap().to_json_line(), many.unwrap().to_json_line());
    }

    #[test]
    fn execute_produces_both_systems() {
        let report = execute_scenario(&tiny_spec()).unwrap();
        let ss = report.system("ss").expect("ss present");
        let wd = report.system("wd").expect("wd present");
        assert!(report.system("rgt").is_none(), "rgt not selected by default");
        assert!(ss.design.sats > 0);
        assert!(wd.design.sats > ss.design.sats, "paper's headline: SS smaller");
        let ssf = ss.fluence.as_ref().expect("fluence on");
        let wdf = wd.fluence.as_ref().expect("fluence on");
        assert!(ssf.median_proton < wdf.median_proton, "SS sees fewer protons");
        assert!(ss.survivability.is_some());
        assert!(wd.survivability.is_some());
        assert!(ss.network.is_none(), "network off by default");
    }

    #[test]
    fn execution_is_deterministic() {
        let spec = tiny_spec();
        let a = execute_scenario(&spec).unwrap();
        let b = execute_scenario(&spec).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.to_json_line(), b.to_json_line());
    }

    #[test]
    fn rgt_kind_runs_end_to_end() {
        let mut spec = tiny_spec();
        spec.design.kinds = vec!["ss", "wd", "rgt"];
        let report = execute_scenario(&spec).unwrap();
        assert_eq!(
            report.systems.iter().map(|s| s.system.as_str()).collect::<Vec<_>>(),
            vec!["ss", "wd", "rgt"]
        );
        let rgt = report.system("rgt").unwrap();
        assert!(rgt.design.sats > 0);
        assert!(rgt.fluence.is_some(), "radiation stage covers RGT");
        assert!(rgt.survivability.is_some(), "survivability covers RGT");
        // The §2.2 negative result, visible in the report: covering the
        // repeat track costs more satellites than the SS design.
        let ss = report.system("ss").unwrap();
        assert!(rgt.design.sats > ss.design.sats, "rgt {} ss {}", rgt.design.sats, ss.design.sats);
    }

    #[test]
    fn kinds_order_never_changes_the_bytes() {
        let mut forward = tiny_spec();
        forward.design.kinds = vec!["ss", "wd"];
        let mut reversed = tiny_spec();
        reversed.design.kinds = vec!["wd", "ss"];
        let a = execute_scenario(&forward).unwrap().to_json_line();
        let b = execute_scenario(&reversed).unwrap().to_json_line();
        assert_eq!(a, b, "registry order must make kinds ordering irrelevant");
    }

    #[test]
    fn walker_network_stage_runs() {
        let mut spec = tiny_spec();
        spec.design.kinds = vec!["wd"];
        spec.survivability.enabled = false;
        spec.radiation.enabled = false;
        spec.network.enabled = true;
        spec.network.n_flows = 40;
        spec.network.slots = 2;
        let report = execute_scenario(&spec).unwrap();
        let net = report.system("wd").unwrap().network.as_ref().expect("Walker networking on");
        assert!(net.routed + net.unrouted == 40);
        assert!(net.routed > 0, "a Walker +grid must route some flows");
    }

    #[test]
    fn multi_slot_time_grid_adds_the_time_resolved_block() {
        let mut spec = tiny_spec();
        spec.design.kinds = vec!["ss"];
        spec.radiation.enabled = false;
        spec.survivability.enabled = false;
        spec.network.enabled = true;
        spec.network.n_flows = 30;
        spec.network.slots = 2;
        let single = execute_scenario(&spec).unwrap();
        let net = single.system("ss").unwrap().network.clone().expect("network on");
        assert!(net.time_grid.is_none(), "single-slot grid must not add the block");

        spec.network.time_grid_slots = 4;
        spec.network.time_grid_slot_s = 300.0;
        let multi = execute_scenario(&spec).unwrap();
        let mnet = multi.system("ss").unwrap().network.clone().expect("network on");
        let tg = mnet.time_grid.expect("multi-slot grid adds the block");
        assert_eq!(tg.slots, 4);
        assert!(tg.connected_slots <= 4);
        assert!(tg.min_routed <= net.routed);
        assert!(tg.mean_routed >= tg.min_routed as f64);
        assert!(tg.peak_link_load >= mnet.max_link_load);
        assert!(tg.delay_p50_ms <= tg.delay_p90_ms || tg.delay_p50_ms.is_nan());
        assert!(tg.delay_p90_ms <= tg.delay_p99_ms || tg.delay_p90_ms.is_nan());
        // Slot 0 of the grid *is* the classic instant: the headline
        // fields must be unchanged by widening the grid.
        assert_eq!(net.routed, mnet.routed);
        assert_eq!(net.mean_stretch, mnet.mean_stretch);
        assert_eq!(net.max_link_load, mnet.max_link_load);
        // The JSON gains exactly one new sub-object.
        let line = multi.to_json_line();
        assert!(line.contains(r#""time_grid":{"slots":4"#), "{line}");
        assert!(!single.to_json_line().contains("time_grid"));
    }

    #[test]
    fn shared_route_grid_reuses_topologies_without_changing_routes() {
        // When the reference-route grid coincides with the traffic grid
        // the stage rides the already-built per-slot topologies; the
        // route metrics must be exactly what a separate series yields.
        let mut spec = tiny_spec();
        spec.design.kinds = vec!["ss"];
        spec.radiation.enabled = false;
        spec.survivability.enabled = false;
        spec.network.enabled = true;
        spec.network.n_flows = 20;
        spec.network.slots = 3;
        spec.network.slot_s = 240.0;
        spec.network.time_grid_slots = 3;
        spec.network.time_grid_slot_s = 240.0; // shared with the route grid
        let shared = execute_scenario(&spec).unwrap();
        spec.network.time_grid_slots = 1; // forces the separate route series
        let separate = execute_scenario(&spec).unwrap();
        let s = shared.system("ss").unwrap().network.clone().unwrap();
        let n = separate.system("ss").unwrap().network.clone().unwrap();
        assert_eq!(s.reachable_slots, n.reachable_slots);
        assert_eq!(s.slots, n.slots);
        assert_eq!(s.handoffs, n.handoffs);
        assert_eq!(s.mean_delay_ms, n.mean_delay_ms);
        assert_eq!(s.routed, n.routed);
    }

    #[test]
    fn timings_are_collected_per_stage() {
        let mut spec = tiny_spec();
        spec.network.enabled = true;
        spec.network.n_flows = 20;
        spec.network.slots = 2;
        spec.network.percolation = true;
        spec.network.percolation_steps = 8;
        let (report, timings) = execute_scenario_timed(&spec);
        report.unwrap();
        let stages: Vec<&str> = timings.stages.iter().map(|(s, _)| s.as_str()).collect();
        for expected in [
            "demand.model",
            "demand.grid",
            "ss.design",
            "ss.fluence",
            "ss.survivability",
            "ss.network",
            "ss.percolation",
            "wd.design",
            "wd.fluence",
            "wd.survivability",
            "wd.network",
            "wd.percolation",
        ] {
            assert!(stages.contains(&expected), "missing stage {expected}: {stages:?}");
        }
        assert!(timings.stages.iter().all(|&(_, s)| s >= 0.0));
        assert!(timings.total_seconds() > 0.0);
    }

    #[test]
    fn demand_seed_changes_the_design() {
        let mut spec = tiny_spec();
        spec.radiation.enabled = false;
        spec.survivability.enabled = false;
        spec.design.kinds = vec!["ss"];
        let a = execute_scenario(&spec).unwrap();
        spec.demand.seed = 43;
        let b = execute_scenario(&spec).unwrap();
        assert_ne!(
            a.demand_multiplier, b.demand_multiplier,
            "a different synthetic world must change the demand normalization"
        );
    }

    #[test]
    fn attack_reduces_capacity_and_is_reported() {
        let mut spec = tiny_spec();
        spec.design.kinds = vec!["ss"];
        spec.attack.planes_lost = 2;
        let report = execute_scenario(&spec).unwrap();
        let ss = report.system("ss").unwrap();
        let attack = ss.attack.as_ref().expect("attack stage ran");
        assert!(attack.planes_lost <= 2);
        assert!(attack.capacity_retained < 1.0);
        assert!(attack.sats_lost > 0);
    }

    #[test]
    fn leading_planes_attack_matches_the_historical_selection() {
        // The parity pin the redesign promises: the default attack kind
        // with `attack.planes_lost` destroys exactly the satellites of
        // the historically strided plane indices.
        use ssplane_lsn::disruption::strided_plane_indices;
        let mut spec = tiny_spec();
        spec.design.kinds = vec!["ss"];
        spec.radiation.enabled = false;
        spec.survivability.enabled = false;
        let designer = designer_for("ss", &spec.design);
        let model = shared_demand_model(spec.demand.seed);
        let grid = LatTodGrid::from_model(&model, spec.demand.lat_bins, spec.demand.tod_bins)
            .unwrap()
            .scaled(1.0);
        let sys = designer.design(&grid, &DesignParams { epoch: spec.radiation.epoch() }).unwrap();
        for planes_lost in [0usize, 1, 2, 5, 1000] {
            spec.attack.planes_lost = planes_lost;
            let destroyed = attack_destroyed(&spec, &sys, spec.radiation.epoch()).unwrap();
            let expect: Vec<SatId> = strided_plane_indices(sys.planes.len(), planes_lost)
                .into_iter()
                .flat_map(|p| (0..sys.planes[p].n_sats).map(move |s| SatId { plane: p, slot: s }))
                .collect();
            assert_eq!(destroyed, expect, "planes_lost = {planes_lost}");
        }
    }

    #[test]
    fn zero_plane_attack_stays_silent() {
        // `attack.planes_lost = 0` under the default kind must produce no
        // attack block at all — the golden fixtures' contract.
        let mut spec = tiny_spec();
        spec.design.kinds = vec!["ss"];
        spec.attack.planes_lost = 0;
        let report = execute_scenario(&spec).unwrap();
        let ss = report.system("ss").unwrap();
        assert!(ss.attack.is_none());
        assert!(!report.to_json_line().contains("attack"));
    }

    /// A hand-built 1-plane system (no designer produces one for a full
    /// diurnal demand, so the edge case is exercised directly).
    fn one_plane_system() -> DesignedSystem {
        use ssplane_core::system::SystemPlane;
        let epoch = tiny_spec().radiation.epoch();
        let orbit = ssplane_astro::sunsync::sun_synchronous_orbit(560.0).unwrap();
        let satellites = orbit.with_ltan(10.5).plane_elements(epoch, 12).unwrap();
        DesignedSystem {
            summary: DesignSummary {
                sats: 12,
                planes: 1,
                shells: 1,
                sats_per_plane: 12,
                inclination_deg: 97.6,
                unserved_demand: 0.0,
            },
            eval_groups: vec![(satellites[0], 12)],
            planes: vec![SystemPlane { n_sats: 12, eval_idx: 0, satellites }],
            network_order: vec![0],
        }
    }

    #[test]
    fn one_plane_system_attack_and_survivability() {
        // A 1-plane system under a 1-plane attack is the smallest
        // wipeout: the attack block and the availability-0 outcome must
        // both appear — and with the attack off, the same system's
        // survivability must be intact.
        let mut spec = tiny_spec();
        spec.attack.planes_lost = 1;
        let sys = one_plane_system();
        let env = RadiationEnvironment::default();
        let epoch = spec.radiation.epoch();
        let destroyed = attack_destroyed(&spec, &sys, epoch).unwrap();
        assert_eq!(destroyed.len(), 12, "the whole plane is the whole fleet");
        let mut clock = StageClock { stages: Vec::new(), metrics: Vec::new() };
        let (report, doses) =
            system_report(&spec, "ss", &sys, &destroyed, &env, epoch, true, &mut clock).unwrap();
        let attack = report.attack.as_ref().expect("attack ran");
        assert_eq!(attack.planes_lost, 1);
        assert_eq!(attack.sats_lost, 12);
        assert_eq!(attack.capacity_retained, 0.0);
        let surv = report.survivability.as_ref().expect("wipeout outcome present");
        assert_eq!(surv.availability, 0.0);
        assert_eq!(surv.initial_spares, 0);
        assert_eq!(doses.map(|d| d.len()), Some(1));

        spec.attack.planes_lost = 0;
        let (unharmed, _) =
            system_report(&spec, "ss", &sys, &[], &env, epoch, true, &mut clock).unwrap();
        assert!(unharmed.attack.is_none());
        let surv = unharmed.survivability.as_ref().unwrap();
        assert!(surv.availability > 0.0);
        assert_eq!(surv.initial_spares, 3, "one plane's per-plane budget");
    }

    #[test]
    fn random_and_band_attacks_run_end_to_end() {
        use crate::spec::AttackKind;
        let mut spec = tiny_spec();
        spec.design.kinds = vec!["ss"];
        spec.attack.kind = AttackKind::RandomSats;
        spec.attack.sats_lost = 25;
        let report = execute_scenario(&spec).unwrap();
        let attack = report.system("ss").unwrap().attack.as_ref().expect("random attack ran");
        assert_eq!(attack.sats_lost, 25);
        assert!(attack.capacity_retained < 1.0);
        // A partial random loss rarely wipes whole planes, but the
        // survivability stage still runs on the reduced fleet.
        assert!(report.system("ss").unwrap().survivability.is_some());

        spec.attack.kind = AttackKind::DeclinationBand;
        spec.attack.band_min_deg = -10.0;
        spec.attack.band_max_deg = 10.0;
        let report = execute_scenario(&spec).unwrap();
        let attack = report.system("ss").unwrap().attack.as_ref().expect("band attack ran");
        assert!(attack.sats_lost > 0, "a polar design crosses the equator band");
        assert!(attack.sats_lost < report.system("ss").unwrap().design.sats);

        // Determinism: the seeded random attack reproduces byte-for-byte.
        spec.attack.kind = AttackKind::RandomSats;
        let a = execute_scenario(&spec).unwrap().to_json_line();
        let b = execute_scenario(&spec).unwrap().to_json_line();
        assert_eq!(a, b);
    }

    #[test]
    fn shell_attack_and_weibull_process() {
        use crate::spec::{AttackKind, FailureKind};
        let mut spec = tiny_spec();
        spec.design.kinds = vec!["wd"];
        spec.attack.kind = AttackKind::Shell;
        spec.attack.shell = 0;
        spec.survivability.failure_kind = FailureKind::Weibull;
        let report = execute_scenario(&spec).unwrap();
        let wd = report.system("wd").unwrap();
        let attack = wd.attack.as_ref().expect("shell attack ran");
        assert!(attack.sats_lost > 0);
        assert!(attack.planes_lost > 0, "a Walker shell is whole planes");
        let surv = wd.survivability.as_ref().expect("weibull survivability ran");
        assert!((0.0..=1.0).contains(&surv.availability));
        // An out-of-range shell is a per-scenario error, not a crash.
        spec.attack.shell = 500;
        assert!(execute_scenario(&spec).is_err());
    }

    #[test]
    fn with_outages_adds_the_degraded_block() {
        let mut spec = tiny_spec();
        spec.design.kinds = vec!["ss"];
        spec.attack.planes_lost = 2;
        spec.network.enabled = true;
        spec.network.n_flows = 30;
        spec.network.slots = 2;
        spec.network.time_grid_slots = 8;
        spec.network.time_grid_slot_s = 240.0;

        // Baseline without the switch: no degraded block, bytes as ever.
        spec.network.with_outages = false;
        let intact = execute_scenario(&spec).unwrap();
        let inet = intact.system("ss").unwrap().network.clone().unwrap();
        assert!(inet.degraded.is_none());
        assert!(!intact.to_json_line().contains("degraded"));

        spec.network.with_outages = true;
        let report = execute_scenario(&spec).unwrap();
        let net = report.system("ss").unwrap().network.clone().unwrap();
        let deg = net.degraded.expect("with_outages adds the block");
        assert_eq!(deg.slots, 8);
        assert!(deg.mean_alive_fraction < 1.0, "two planes plus outages are gone");
        assert!(deg.mean_alive_fraction > 0.0);
        assert!(deg.min_alive <= report.system("ss").unwrap().design.sats);
        assert!(deg.connected_slots <= 8);
        // The degraded network can never route more than the intact one.
        let tg = net.time_grid.as_ref().expect("multi-slot grid present");
        assert!(deg.mean_routed <= tg.mean_routed);
        assert!(deg.min_routed <= tg.min_routed);
        assert!((0.0..=1.0).contains(&deg.routed_fraction));
        // The intact headline fields are untouched by the switch.
        assert_eq!(net.routed, inet.routed);
        assert_eq!(net.mean_stretch, inet.mean_stretch);
        assert_eq!(
            net.time_grid.as_ref().unwrap(),
            inet.time_grid.as_ref().unwrap(),
            "the intact grid block must not change"
        );
        let line = report.to_json_line();
        assert!(line.contains(r#""degraded":{"slots":8"#), "{line}");

        // Byte determinism of the whole degraded pipeline.
        let again = execute_scenario(&spec).unwrap();
        assert_eq!(report.to_json_line(), again.to_json_line());
    }

    #[test]
    fn attack_only_outage_masking_needs_no_radiation() {
        // Degraded networking from the attack mask alone: radiation and
        // survivability off.
        let mut spec = tiny_spec();
        spec.design.kinds = vec!["ss"];
        spec.radiation.enabled = false;
        spec.survivability.enabled = false;
        spec.attack.planes_lost = 3;
        spec.network.enabled = true;
        spec.network.n_flows = 20;
        spec.network.slots = 2;
        spec.network.with_outages = true;
        let report = execute_scenario(&spec).unwrap();
        let net = report.system("ss").unwrap().network.clone().unwrap();
        let deg = net.degraded.expect("attack-only degraded block");
        assert_eq!(deg.slots, 1, "defaults to the single-slot grid");
        // With no timeline the mask is the attack alone: the alive
        // fraction equals the attack's capacity retention.
        let attack = report.system("ss").unwrap().attack.as_ref().unwrap();
        assert!((deg.mean_alive_fraction - attack.capacity_retained).abs() < 1e-12);
    }

    #[test]
    fn total_wipeout_reports_zero_availability() {
        let mut spec = tiny_spec();
        spec.design.kinds = vec!["ss"];
        spec.attack.planes_lost = 100_000;
        let report = execute_scenario(&spec).unwrap();
        let ss = report.system("ss").unwrap();
        let attack = ss.attack.as_ref().expect("attack ran");
        assert_eq!(attack.capacity_retained, 0.0);
        let surv =
            ss.survivability.as_ref().expect("wipeout is an availability-0 outcome, not a gap");
        assert_eq!(surv.availability, 0.0);
        // Vacancy-days cover surviving slots only (none here) — the
        // destroyed capacity lives in the attack report.
        assert_eq!(surv.lost_slot_days, 0.0);
    }

    #[test]
    fn percentile_is_true_nearest_rank() {
        // The issue's diverging pair: at n = 10, q = 0.5 nearest-rank is
        // the 5th value — the old rounded linear index returned the 6th.
        let sorted: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 0.5), 5.0);
        assert_ne!(percentile(&sorted, 0.5), 6.0, "the pre-fix answer must be gone");
        assert_eq!(percentile(&sorted, 0.9), 9.0);
        assert_eq!(percentile(&sorted, 0.99), 10.0);
        assert_eq!(percentile(&sorted, 1.0), 10.0);
        assert_eq!(percentile(&sorted, 0.0), 1.0, "rank clamps to the first value");
        // ceil(0.5 * 4) = rank 2.
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 0.5), 2.0);
        assert_eq!(percentile(&[7.5], 0.5), 7.5);
        assert!(percentile(&[], 0.5).is_nan());
    }

    /// A traffic report carrying only per-flow outcomes (what the
    /// handoff accounting reads).
    fn traffic_with(outcomes: Vec<Option<ssplane_lsn::traffic::FlowOutcome>>) -> TrafficReport {
        TrafficReport {
            routed: outcomes.iter().flatten().count(),
            unrouted: outcomes.iter().filter(|o| o.is_none()).count(),
            link_load: std::collections::BTreeMap::new(),
            link_capacity: 1.0,
            mean_stretch: 1.0,
            mean_hops: 1.0,
            flow_outcomes: outcomes,
        }
    }

    #[test]
    fn time_grid_handoffs_reset_across_unroutable_gaps() {
        use ssplane_lsn::traffic::FlowOutcome;
        let sat = |p: usize, s: usize| SatId { plane: p, slot: s };
        let out = |ends: (SatId, SatId)| Some(FlowOutcome { delay_ms: 10.0, ends });
        let a = (sat(0, 0), sat(1, 0));
        let b = (sat(2, 2), sat(3, 2));
        // One flow: routed on pair a, unroutable, routed on pair b — the
        // gap resets the comparison, so 0 handoffs.
        let gapped = vec![
            (true, traffic_with(vec![out(a)])),
            (true, traffic_with(vec![None])),
            (true, traffic_with(vec![out(b)])),
        ];
        assert_eq!(time_grid_report(&gapped).handoffs, 0);
        // The same pair change on adjacent slots is one handoff.
        let adjacent = vec![
            (true, traffic_with(vec![out(a)])),
            (true, traffic_with(vec![out(b)])),
            (true, traffic_with(vec![None])),
        ];
        assert_eq!(time_grid_report(&adjacent).handoffs, 1);
        // Two flows: one churns without gaps (1 handoff), one only
        // across a gap (0) — per-flow accounting keeps them separate.
        let two = vec![
            (true, traffic_with(vec![out(a), out(a)])),
            (true, traffic_with(vec![out(b), None])),
            (true, traffic_with(vec![out(b), out(b)])),
        ];
        assert_eq!(time_grid_report(&two).handoffs, 1);
    }

    /// A 3-plane system with a permuted network order and an empty
    /// middle plane — the RGT-style layout the degraded-stage mapping
    /// has to survive.
    fn permuted_system() -> DesignedSystem {
        use ssplane_core::system::SystemPlane;
        let epoch = tiny_spec().radiation.epoch();
        let orbit = ssplane_astro::sunsync::sun_synchronous_orbit(560.0).unwrap();
        let plane = |ltan: f64, n: usize| SystemPlane {
            n_sats: n,
            eval_idx: 0,
            satellites: if n == 0 {
                Vec::new()
            } else {
                orbit.with_ltan(ltan).plane_elements(epoch, n).unwrap()
            },
        };
        DesignedSystem {
            summary: DesignSummary {
                sats: 5,
                planes: 3,
                shells: 1,
                sats_per_plane: 2,
                inclination_deg: 97.6,
                unserved_demand: 0.0,
            },
            eval_groups: vec![(orbit.with_ltan(8.0).plane_elements(epoch, 1).unwrap()[0], 5)],
            planes: vec![plane(8.0, 2), plane(10.0, 0), plane(12.0, 3)],
            // Network order reverses the planes; the empty plane 1 must
            // be dropped, exactly as Constellation::from_planes does.
            network_order: vec![2, 1, 0],
        }
    }

    #[test]
    fn network_layout_maps_permuted_orders_and_empty_planes() {
        let sys = permuted_system();
        let layout = network_layout(&sys);
        assert_eq!(layout.kept, vec![2, 0], "plane 1 is empty and dropped");
        assert_eq!(layout.net_plane_of_design, vec![1, usize::MAX, 0]);
        assert_eq!(layout.offsets, vec![0, 3]);
        assert_eq!(layout.plane_sats, vec![3, 2]);
        assert_eq!(layout.total, 5);
        // A destroyed design satellite masks the correct flat index
        // under the permutation: design plane 0 lands *after* design
        // plane 2 in the network layout.
        assert_eq!(layout.flat_of_design(SatId { plane: 0, slot: 1 }), Some(4));
        assert_eq!(layout.flat_of_design(SatId { plane: 2, slot: 2 }), Some(2));
        assert_eq!(layout.flat_of_design(SatId { plane: 1, slot: 0 }), None, "dropped plane");
        assert_eq!(layout.flat_of_design(SatId { plane: 0, slot: 9 }), None, "slot bound");
        assert_eq!(layout.flat_of_design(SatId { plane: 7, slot: 0 }), None, "plane bound");
        // Network-id -> design-id is the inverse on kept planes.
        assert_eq!(layout.design_id(SatId { plane: 0, slot: 2 }), SatId { plane: 2, slot: 2 });
        assert_eq!(layout.design_id(SatId { plane: 1, slot: 0 }), SatId { plane: 0, slot: 0 });
        // The layout agrees with the real network constellation.
        let epoch = tiny_spec().radiation.epoch();
        let c = Constellation::from_planes(epoch, sys.network_planes()).unwrap();
        assert_eq!(c.total_sats(), layout.total);
        assert_eq!(c.plane_offsets()[..2], layout.offsets[..]);
    }

    #[test]
    fn optimized_attack_beats_its_fixed_baseline_and_is_deterministic() {
        use crate::spec::{AttackKind, AttackUnit};
        let mut spec = tiny_spec();
        spec.design.kinds = vec!["ss"];
        spec.attack.kind = AttackKind::Optimized;
        spec.attack.unit = AttackUnit::Planes;
        spec.attack.budget = 2;
        spec.attack.restarts = 1;
        spec.attack.swaps = 3;
        spec.network.enabled = true;
        spec.network.n_flows = 30;
        spec.network.slots = 2;
        spec.network.time_grid_slots = 2;
        spec.network.time_grid_slot_s = 300.0;
        spec.network.with_outages = true;
        let (report, timings) = execute_scenario_timed(&spec);
        let report = report.unwrap();
        // The attack-search stage surfaces its scoring throughput as a
        // derived metric row (not summed into the stage total).
        let (_, rate) = timings
            .metrics
            .iter()
            .find(|(m, _)| m == "ss.attack_search.candidates_per_sec")
            .expect("throughput metric present");
        assert!(*rate > 0.0, "a finished search scored at a positive rate");
        assert!(
            timings.stages.iter().all(|(s, _)| !s.ends_with("candidates_per_sec")),
            "metric rows stay out of the wall-clock stages (and the total)"
        );
        let ss = report.system("ss").unwrap();
        let attack = ss.attack.as_ref().expect("optimized attack reports like any other");
        assert!(attack.sats_lost > 0);
        assert!(attack.planes_lost <= 2);
        assert!(attack.capacity_retained < 1.0);
        let search = ss.attack_search.as_ref().expect("the search block is present");
        assert_eq!(search.objective, "routed-fraction");
        assert_eq!(search.unit, "planes");
        assert_eq!(search.budget, 2);
        assert_eq!(search.baseline, "leading-planes");
        assert!(
            search.objective_value <= search.baseline_value,
            "the found attack ({}) must be at least as damaging as the same-budget \
             leading-planes baseline ({})",
            search.objective_value,
            search.baseline_value
        );
        assert!(search.objective_value <= search.intact_value);
        assert!(search.candidates_scored > 0);
        assert!(search.candidates_unique > 0);
        assert!(
            search.candidates_unique <= search.candidates_scored,
            "dedup can only shrink the count"
        );
        // The degraded block reflects the searched attack.
        let net = ss.network.as_ref().expect("network stage on");
        let deg = net.degraded.as_ref().expect("with_outages on");
        assert!(deg.mean_alive_fraction < 1.0);
        let line = report.to_json_line();
        assert!(line.contains(r#""attack_search":{"objective":"routed-fraction""#), "{line}");
        // Rerun determinism: the whole search is a pure function of the
        // spec.
        let again = execute_scenario(&spec).unwrap();
        assert_eq!(report.to_json_line(), again.to_json_line());

        // Survivability consumes the searched victims too: the stage
        // reports a degraded (non-intact) fleet outcome.
        assert!(ss.survivability.is_some());
    }

    #[test]
    fn optimized_satellite_budget_runs_with_random_baseline() {
        use crate::spec::{AttackKind, AttackUnit};
        let mut spec = tiny_spec();
        spec.design.kinds = vec!["ss"];
        spec.radiation.enabled = false;
        spec.survivability.enabled = false;
        spec.attack.kind = AttackKind::Optimized;
        spec.attack.unit = AttackUnit::Sats;
        spec.attack.budget = 8;
        spec.attack.restarts = 1;
        spec.attack.swaps = 3;
        spec.network.enabled = true;
        spec.network.n_flows = 20;
        spec.network.slots = 2;
        let report = execute_scenario(&spec).unwrap();
        let ss = report.system("ss").unwrap();
        let attack = ss.attack.as_ref().expect("attack block present");
        assert_eq!(attack.sats_lost, 8);
        let search = ss.attack_search.as_ref().unwrap();
        assert_eq!(search.unit, "sats");
        assert_eq!(search.baseline, "random-sats");
        assert!(search.objective_value <= search.baseline_value);
    }

    #[test]
    fn gravity_traffic_reports_served_demand_and_degrades_under_attack() {
        use crate::spec::TrafficModel;
        let mut spec = tiny_spec();
        spec.design.kinds = vec!["ss"];
        spec.radiation.enabled = false;
        spec.survivability.enabled = false;
        spec.network.enabled = true;
        spec.network.n_flows = 20;
        spec.network.slots = 2;
        spec.traffic.model = TrafficModel::Gravity;
        spec.traffic.pairs = 1500;
        spec.traffic.sites = 32;
        spec.traffic.capacity_gbps = 4.0;
        spec.traffic.k_paths = 2;
        let intact = execute_scenario(&spec).unwrap();
        let inet = intact.system("ss").unwrap().network.clone().expect("network on");
        let served = inet.served.as_ref().expect("gravity model adds the served block");
        assert_eq!(served.flows, 1500);
        assert!(served.pairs > 0, "aggregation found serving pairs");
        assert!((served.offered - spec.demand.total_demand_b).abs() < 1e-6 * served.offered);
        assert!(served.served_fraction > 0.0, "the intact network serves demand");
        assert!(served.served_fraction <= 1.0 + 1e-9);
        let parts = served.served_fraction + served.dropped_fraction + served.unattached_fraction;
        assert!((parts - 1.0).abs() < 1e-6, "accounting closes: {parts}");
        assert!(served.utilization_max <= 1.0 + 1e-9, "capacity is a hard cap");
        let line = intact.to_json_line();
        assert!(line.contains(r#""served":{"flows":1500"#), "{line}");

        // A concentrated ~10% plane loss cuts the served fraction in the
        // degraded pass.
        spec.attack.planes_lost = 2;
        spec.network.with_outages = true;
        let attacked = execute_scenario(&spec).unwrap();
        let anet = attacked.system("ss").unwrap().network.clone().unwrap();
        let deg = anet.degraded.expect("with_outages adds the block");
        let deg_served = deg.served_fraction.expect("gravity adds degraded served fields");
        let min_served = deg.min_served_fraction.unwrap();
        assert!(min_served <= deg_served);
        assert!(
            deg_served < served.served_fraction,
            "plane loss must cut served demand: {deg_served} vs {}",
            served.served_fraction
        );
        // The intact headline block is unchanged by the attack.
        assert_eq!(anet.served.as_ref(), Some(served));
        let line = attacked.to_json_line();
        assert!(line.contains(r#""served_fraction":"#), "{line}");

        // Byte determinism across reruns and runner thread counts.
        let again = execute_scenario(&spec).unwrap();
        assert_eq!(attacked.to_json_line(), again.to_json_line());
        let specs = vec![spec.clone()];
        let serial = Runner::with_threads(1).run_specs(&specs);
        let threaded = Runner::with_threads(7).run_specs(&specs);
        assert_eq!(serial.to_jsonl(), threaded.to_jsonl());
    }

    #[test]
    fn sampled_traffic_never_adds_served_blocks() {
        // The default traffic model leaves the report byte-identical to
        // the pre-engine engine: no served block anywhere.
        let mut spec = tiny_spec();
        spec.design.kinds = vec!["ss"];
        spec.radiation.enabled = false;
        spec.survivability.enabled = false;
        spec.network.enabled = true;
        spec.network.n_flows = 20;
        spec.network.slots = 2;
        spec.attack.planes_lost = 2;
        spec.network.with_outages = true;
        let report = execute_scenario(&spec).unwrap();
        let net = report.system("ss").unwrap().network.clone().unwrap();
        assert!(net.served.is_none());
        assert!(net.degraded.as_ref().unwrap().served_fraction.is_none());
        let line = report.to_json_line();
        assert!(!line.contains(r#""served""#), "{line}");
        assert!(!line.contains("served_fraction"), "{line}");
    }

    #[test]
    fn attack_runs_without_the_radiation_stage() {
        // Capacity bookkeeping needs no fluence data: a design-only
        // scenario still reports the attack outcome.
        let mut spec = tiny_spec();
        spec.radiation.enabled = false;
        spec.survivability.enabled = false;
        spec.attack.planes_lost = 2;
        let report = execute_scenario(&spec).unwrap();
        let ss = report.system("ss").unwrap();
        assert!(ss.fluence.is_none());
        let attack = ss.attack.as_ref().expect("attack must run in design-only scenarios");
        assert!(attack.capacity_retained < 1.0);
    }

    #[test]
    fn design_only_scenario_skips_downstream() {
        let mut spec = tiny_spec();
        spec.radiation.enabled = false;
        spec.survivability.enabled = false;
        let report = execute_scenario(&spec).unwrap();
        let ss = report.system("ss").unwrap();
        assert!(ss.fluence.is_none());
        assert!(ss.survivability.is_none());
    }

    #[test]
    fn shell_attack_on_the_catalog_destroys_exactly_one_shell() {
        // The multi-shell contract end to end through the scenario
        // surface: on the deployed-catalog designer, `attack.kind =
        // "shell"` must destroy exactly the chosen shell's satellites
        // (alive fraction = 1 − that shell's share), different shell
        // indices must produce different degraded outcomes, and the
        // degraded block must be rerun-byte-deterministic.
        use crate::spec::AttackKind;
        let mut spec = tiny_spec();
        spec.design.kinds = vec!["starlink"];
        // Large enough that the +grid routes flows: shells 0 and 1 are
        // structural twins (72×22 at 550/540 km), so only live routing
        // over their distinct geometries can tell their attacks apart.
        spec.design.starlink_scale = 0.3;
        spec.radiation.enabled = false;
        spec.survivability.enabled = false;
        spec.attack.kind = AttackKind::Shell;
        spec.network.enabled = true;
        spec.network.n_flows = 20;
        spec.network.slots = 2;
        spec.network.with_outages = true;

        // The catalog's shell structure, from the same designer the
        // pipeline will run.
        let designer = designer_for("starlink", &spec.design);
        let model = shared_demand_model(spec.demand.seed);
        let grid = LatTodGrid::from_model(&model, spec.demand.lat_bins, spec.demand.tod_bins)
            .unwrap()
            .scaled(1.0);
        let sys = designer.design(&grid, &DesignParams { epoch: spec.radiation.epoch() }).unwrap();
        let meta = sys.shell_meta();
        assert_eq!(meta.len(), 5, "the scaled catalog keeps all five deployed shells");
        let total: usize = meta.iter().map(|m| m.sats).sum();

        let mut lines = Vec::new();
        for (shell, m) in meta.iter().enumerate() {
            spec.attack.shell = shell;
            let report = execute_scenario(&spec).unwrap();
            let sys_report = report.system("starlink").expect("catalog system present");
            let attack = sys_report.attack.as_ref().expect("shell attack ran");
            assert_eq!(attack.sats_lost, m.sats, "shell {shell} loses its own sats");
            assert_eq!(attack.planes_lost, m.planes, "whole planes of shell {shell}");
            let share = m.sats as f64 / total as f64;
            assert!(
                (attack.capacity_retained - (1.0 - share)).abs() < 1e-12,
                "alive fraction must be 1 − shell share: {} vs {}",
                attack.capacity_retained,
                1.0 - share
            );
            let deg =
                sys_report.network.as_ref().unwrap().degraded.as_ref().expect("with_outages on");
            assert!((deg.mean_alive_fraction - (1.0 - share)).abs() < 1e-12);
            // Rerun determinism of the whole line, degraded block included.
            let line = report.to_json_line();
            assert_eq!(line, execute_scenario(&spec).unwrap().to_json_line());
            lines.push(line);
        }
        // Different shells are different attacks: no two degraded
        // outcomes (nor whole report lines) may coincide.
        for i in 0..lines.len() {
            for j in i + 1..lines.len() {
                assert_ne!(lines[i], lines[j], "shells {i} and {j} produced identical bytes");
            }
        }
        // Out-of-range shells error per scenario, exactly as on
        // single-shell systems.
        spec.attack.shell = meta.len();
        assert!(execute_scenario(&spec).is_err());
    }

    #[test]
    fn per_satellite_block_is_opt_in_and_normalizes_by_design_sats() {
        let mut spec = tiny_spec();
        spec.design.kinds = vec!["ss", "slim"];

        // Off by default: bytes carry no per_satellite key.
        let plain = execute_scenario(&spec).unwrap();
        assert!(plain
            .system("ss")
            .unwrap()
            .survivability
            .as_ref()
            .unwrap()
            .per_satellite
            .is_none());
        assert!(!plain.to_json_line().contains("per_satellite"));

        spec.survivability.per_satellite = true;
        let report = execute_scenario(&spec).unwrap();
        for name in ["ss", "slim"] {
            let sys = report.system(name).unwrap();
            let surv = sys.survivability.as_ref().unwrap();
            let per = surv.per_satellite.as_ref().expect("opt-in block present");
            assert_eq!(per.sats, sys.design.sats, "denominator is the designed fleet");
            let n = per.sats as f64;
            assert!((per.availability_per_ksat - surv.availability / n * 1000.0).abs() < 1e-12);
            assert!((per.lost_slot_days_per_sat - surv.lost_slot_days / n).abs() < 1e-12);
            assert!((per.spares_per_sat - surv.initial_spares as f64 / n).abs() < 1e-12);
        }
        let ss = report.system("ss").unwrap();
        let slim = report.system("slim").unwrap();
        let line = report.to_json_line();
        assert!(line.contains(r#""per_satellite":{"sats":"#), "{line}");
        // The switch changes nothing outside the survivability block.
        assert_eq!(ss.design, plain.system("ss").unwrap().design);
        assert_eq!(slim.network, plain.system("slim").unwrap().network);
    }
}
