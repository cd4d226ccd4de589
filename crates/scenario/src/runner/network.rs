//! The network stage of one designed system. [`network_context`] builds
//! what every network-facing pass shares (the network constellation, its
//! snapshot series and the point's traffic), and
//! [`networked_system_report`] owns the system's [`DegradedEvaluator`]
//! for its whole lifetime: the optional attack search, the system stage,
//! the intact network report (reference route, `time_grid` block), the
//! degraded pass and the percolation analytics all ride that one
//! evaluator's per-slot topologies.

use super::percolation::percolation_report;
use super::system::{attack_destroyed, system_report};
use super::{gravity_key, StageClock};
use crate::error::{Result, ScenarioError};
use crate::report::{
    AttackSearchReport, DegradedNetworkReport, NetworkReport, ServedDemandReport, SystemReport,
    TimeGridReport,
};
use crate::spec::{AttackKind, AttackUnit, ScenarioSpec, TrafficModel};
use crate::sweep::{ATTACK_KINDS, ATTACK_UNITS, OBJECTIVES};
use ssplane_astro::geo::GeoPoint;
use ssplane_astro::kepler::OrbitalElements;
use ssplane_astro::par;
use ssplane_astro::time::Epoch;
use ssplane_core::cache::KernelCache;
use ssplane_core::system::DesignedSystem;
use ssplane_demand::gravity::{gravity_flows_in, GravityConfig};
use ssplane_demand::DemandModel;
use ssplane_lsn::disruption::{strided_plane_indices, AttackModel, AttackTarget, RandomSats};
use ssplane_lsn::optimizer::{optimize_attack, DegradedEvaluator, SlotEvaluation};
use ssplane_lsn::routing::{
    count_handoffs, route_ground_to_ground, route_over_time, TimeExpandedRoutes,
};
use ssplane_lsn::snapshot::{time_grid, Snapshot, SnapshotSeries};
use ssplane_lsn::survivability::outage_timeline;
use ssplane_lsn::topology::{Constellation, GridTopologyConfig, SatId};
use ssplane_lsn::traffic::{sample_flows, Flow};
use ssplane_lsn::traffic_engine::{percentile, CapacityConfig, TrafficWorkload};
use ssplane_lsn::LsnError;
use ssplane_radiation::fluence::DailyFluence;

/// Salt XORed into the scenario seed for the degraded-network outage
/// timeline, so its realization is an explicitly independent stream from
/// the aggregate survivability simulation's.
const OUTAGE_SEED_SALT: u64 = 0x4F55_5441_4745;

/// Salt XORed into the scenario seed for the gravity workload's pair
/// sampling, so the population-scale demand stream is independent of the
/// flow sample's and the outage timeline's.
const TRAFFIC_SEED_SALT: u64 = 0x0054_5241_4646_4943;

/// The traffic a network point offers: the demand-weighted flow sample
/// and, with `traffic.model = "gravity"`, the population-scale workload.
/// Both depend only on the spec and the demand model, never on the
/// system, so a point builds them once and every system's
/// [`NetworkContext`] borrows them.
pub(super) struct TrafficInputs {
    flows: Vec<Flow>,
    /// The population-scale gravity workload, in satellite-capacity
    /// units: the emitted rates are rescaled so the total offered demand
    /// equals `demand.total_demand_b`.
    workload: Option<TrafficWorkload>,
}

/// Builds the point's [`TrafficInputs`]: one seeded flow sample and, when
/// asked for, the gravity workload (its pair draws on `point_threads`
/// workers, `0` = the machine, from the run's shared field in `cache`).
pub(super) fn traffic_inputs(
    spec: &ScenarioSpec,
    model: &DemandModel,
    cache: &KernelCache,
    point_threads: usize,
) -> Result<TrafficInputs> {
    // Flow endpoints are demand-weighted; the stream is derived from the
    // scenario seed so sweeps decorrelate. One flow set is routed at
    // every slot (the grid varies the geometry, not the demand sample).
    let flows = sample_flows(
        model,
        spec.network.utc_hour,
        spec.network.n_flows,
        spec.seed.wrapping_add(0x9E37_79B9),
    );
    // The gravity workload, when asked for: seeded pair sampling over the
    // same demand model, rescaled so the offered total is the scenario's
    // `demand.total_demand_b` (satellite-capacity units — the same units
    // `traffic.capacity_gbps` budgets each ISL in). The seed-free field
    // is built once per run and shared by every point that reads it.
    let workload = if spec.traffic.model == TrafficModel::Gravity {
        let config = GravityConfig {
            pairs: spec.traffic.pairs,
            sites: spec.traffic.sites,
            utc_hour: spec.network.utc_hour,
            seed: spec.seed ^ TRAFFIC_SEED_SALT,
        };
        let field = cache.gravity_field(gravity_key(spec), model);
        let gravity = gravity_flows_in(&field, &config, point_threads)?;
        Some(TrafficWorkload::from_gravity(
            &gravity,
            spec.demand.total_demand_b / field.total(),
            CapacityConfig {
                link_capacity: spec.traffic.capacity_gbps,
                k_paths: spec.traffic.k_paths,
            },
        ))
    } else {
        None
    };
    Ok(TrafficInputs { flows, workload })
}

/// The design↔network plane maps of one designed system:
/// `Constellation::from_planes` permutes planes by `network_order` and
/// drops empty planes, so attack victims expressed as design-plane
/// [`SatId`]s must be translated before they can mask a snapshot. The
/// flat layout itself (plane offsets, sizes, total) is the snapshot
/// series'.
#[derive(Debug, Clone, PartialEq, Eq)]
struct NetworkLayout {
    /// Design plane index of each network plane (empty planes dropped).
    kept: Vec<usize>,
    /// Network plane index per design plane (`None` for planes the
    /// network dropped).
    net_plane_of_design: Vec<Option<usize>>,
}

impl NetworkLayout {
    /// Flat index in `snapshot` of a design-plane satellite id (`None`
    /// when its plane was dropped or the id is out of range).
    fn flat_of_design(&self, snapshot: &Snapshot<'_>, id: SatId) -> Option<usize> {
        let plane = (*self.net_plane_of_design.get(id.plane)?)?;
        snapshot.flat_index(SatId { plane, slot: id.slot })
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
    let mut net_plane_of_design = vec![None; sys.planes.len()];
    for (np, &dp) in kept.iter().enumerate() {
        net_plane_of_design[dp] = Some(np);
    }
    NetworkLayout { kept, net_plane_of_design }
}

/// Everything the network-facing passes share for one designed system:
/// the network constellation, the batch-propagated traffic-grid
/// [`SnapshotSeries`], the point's borrowed [`TrafficInputs`], and the
/// design↔network plane maps. Built once per system — the attack search
/// and the network report ride the same propagation cache, so an
/// optimized attack never costs a second build.
pub(super) struct NetworkContext<'t> {
    constellation: Constellation,
    topo_config: GridTopologyConfig,
    min_elev: f64,
    /// The traffic grid's start: the epoch plus `network.utc_hour`.
    t: Epoch,
    series: SnapshotSeries,
    traffic: &'t TrafficInputs,
    layout: NetworkLayout,
    /// Worker cap of every pool inside the point (`0` = the machine).
    threads: usize,
}

/// Builds the [`NetworkContext`]: one parallel snapshot build over the
/// traffic grid (`point_threads` workers, `0` = the machine) around the
/// point's shared `traffic`.
pub(super) fn network_context<'t>(
    spec: &ScenarioSpec,
    sys: &DesignedSystem,
    traffic: &'t TrafficInputs,
    point_threads: usize,
) -> Result<NetworkContext<'t>> {
    let epoch = spec.radiation.epoch();
    let constellation = Constellation::from_planes(epoch, sys.network_planes())?;
    let t = epoch + spec.network.utc_hour * 3600.0;
    let grid = time_grid(t, spec.network.time_grid_slots, spec.network.time_grid_slot_s);
    let series = SnapshotSeries::build_parallel(&constellation, &grid, point_threads)?;
    Ok(NetworkContext {
        constellation,
        topo_config: GridTopologyConfig { max_range_km: spec.network.max_range_km },
        min_elev: spec.network.min_elevation_deg.to_radians(),
        t,
        series,
        traffic,
        layout: network_layout(sys),
        threads: point_threads,
    })
}

/// Runs every stage of one networked system inside the scope of its
/// [`DegradedEvaluator`] (intact per-slot topologies and traffic), built
/// once from `ctx` and shared by the attack search, the network report
/// and the percolation analytics — an optimized attack never costs a
/// second build.
pub(super) fn networked_system_report(
    spec: &ScenarioSpec,
    name: &str,
    sys: &DesignedSystem,
    ctx: &NetworkContext<'_>,
    cache: &KernelCache,
    clock: &mut StageClock,
) -> Result<SystemReport> {
    let evaluator = clock.time(&format!("{name}.network.intact"), || {
        // The percolation knobs also configure the masking-threshold
        // attack objective, and the repair threshold the incremental
        // scorer; `validate` checks all three whenever the network stage
        // is on.
        DegradedEvaluator::with_workload_threads(
            &ctx.series,
            &ctx.traffic.flows,
            ctx.min_elev,
            ctx.topo_config,
            ctx.traffic.workload.as_ref(),
            ctx.threads,
        )
        .map(|e| {
            e.with_percolation(spec.network.percolation_steps, spec.network.percolation_gap)
                .with_repair_threshold(spec.attack.damage_threshold)
        })
    })?;
    // An optimized attack is a search over that evaluator; every fixed
    // kind stays a pure function of the geometry.
    let (destroyed, attack_search) = if spec.attack.kind == AttackKind::Optimized {
        let (victims, search) = clock.time(&format!("{name}.attack_search"), || {
            run_attack_search(spec, sys, ctx, &evaluator)
        })?;
        // Surface search throughput next to the stage's wall-clock — the
        // bench harness's candidates/s without the bench harness.
        let secs = clock.last_stage_seconds().max(f64::EPSILON);
        clock.metric(
            format!("{name}.attack_search.candidates_per_sec"),
            search.candidates_scored as f64 / secs,
        );
        (victims, Some(search))
    } else {
        (attack_destroyed(spec, sys)?, None)
    };
    let (mut report, plane_doses) = system_report(spec, name, sys, &destroyed, cache, clock)?;
    report.attack_search = attack_search;
    // The destroyed set in the network's flat order: the degraded pass
    // masks it, and the percolation sweep leads its attack ordering
    // with it.
    let snapshot = ctx.series.snapshot(0);
    let victims: Vec<usize> =
        destroyed.iter().filter_map(|&id| ctx.layout.flat_of_design(&snapshot, id)).collect();
    let before = evaluator.reattached();
    let mut network = clock.time(&format!("{name}.network"), || {
        network_report(spec, ctx, &evaluator, &victims, plane_doses.as_deref())
    })?;
    // The degraded pass's ground-attachment work: endpoints whose intact
    // server its masks killed, a deterministic counter.
    let reattached = evaluator.reattached() - before;
    clock.metric(format!("{name}.network.reattached"), reattached as f64);
    if spec.network.percolation {
        // Its own timing entry: the sweep is a distinct analytic pass
        // over the stage's topologies, not routing work.
        let (percolation, lambda2_products) = clock.time(&format!("{name}.percolation"), || {
            percolation_report(spec, &evaluator, &victims, ctx.threads)
        });
        // The λ₂ work counter next to the stage's wall-clock.
        clock.metric(format!("{name}.percolation.lambda2_products"), lambda2_products as f64);
        network.percolation = Some(percolation);
    }
    report.network = Some(network);
    Ok(report)
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
    ctx: &NetworkContext<'_>,
    evaluator: &DegradedEvaluator<'_>,
) -> Result<(Vec<SatId>, AttackSearchReport)> {
    let config = spec.attack.search_config(ctx.threads);
    let n_net_planes = ctx.layout.kept.len();
    // The search picks from the network constellation's planes or
    // satellites; a larger budget would quietly clamp to all of them.
    let n_units = match spec.attack.unit {
        AttackUnit::Planes => n_net_planes,
        AttackUnit::Sats => ctx.series.n_sats(),
    };
    if spec.attack.budget > n_units {
        let unit = ATTACK_UNITS.name(spec.attack.unit);
        return Err(ScenarioError::bad_value(
            "attack.budget",
            &spec.attack.budget.to_string(),
            &format!("at most the system's {n_units} network {unit}"),
        ));
    }
    let (baseline_name, baseline): (&str, Vec<SatId>) = match spec.attack.unit {
        AttackUnit::Planes => {
            let snapshot = ctx.series.snapshot(0);
            let victims = strided_plane_indices(n_net_planes, spec.attack.budget)
                .into_iter()
                .flat_map(|p| {
                    (0..snapshot.slots_in_plane(p)).map(move |s| SatId { plane: p, slot: s })
                })
                .collect();
            (ATTACK_KINDS.name(AttackKind::LeadingPlanes), victims)
        }
        AttackUnit::Sats => {
            // The seeded random baseline over the *network* constellation
            // (the search's own candidate space).
            let element_planes: Vec<&[OrbitalElements]> =
                ctx.layout.kept.iter().map(|&dp| sys.planes[dp].satellites.as_slice()).collect();
            let target = AttackTarget {
                plane_groups: (0..element_planes.len()).collect(),
                planes: element_planes,
                epoch: ctx.t,
            };
            let model = RandomSats { sats_lost: spec.attack.budget };
            (ATTACK_KINDS.name(AttackKind::RandomSats), model.destroyed(&target, spec.seed)?)
        }
    };
    let baseline_value = evaluator.score_attack(&baseline, config.objective)?;
    let outcome = optimize_attack(evaluator, &config, spec.seed, &[baseline])?;
    let mut destroyed: Vec<SatId> =
        outcome.destroyed.iter().map(|&id| ctx.layout.design_id(id)).collect();
    destroyed.sort_unstable();
    let report = AttackSearchReport {
        objective: OBJECTIVES.name(config.objective).to_string(),
        unit: ATTACK_UNITS.name(spec.attack.unit).to_string(),
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

/// The network block of one system: the evaluator's per-slot intact
/// traffic (slot 0 is the classic single instant; with more slots the
/// per-slot metrics aggregate into the `time_grid` block), the
/// time-expanded reference route, and — with `network.with_outages` —
/// the degraded pass over the flat `victims`.
fn network_report(
    spec: &ScenarioSpec,
    ctx: &NetworkContext<'_>,
    evaluator: &DegradedEvaluator<'_>,
    victims: &[usize],
    plane_doses: Option<&[DailyFluence]>,
) -> Result<NetworkReport> {
    let routes = reference_route(spec, ctx, evaluator)?;
    let degraded = spec
        .network
        .with_outages
        .then(|| degraded_pass(spec, ctx, evaluator, victims, plane_doses))
        .transpose()?;
    let intact = evaluator.intact();
    // The engine's headline block: the classic instant (slot 0 of the
    // grid), reported next to the sampled-flow statistics it generalizes.
    let served = intact[0].served.as_ref().map(|s| {
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
    let traffic = &intact[0].traffic;
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
        time_grid: (intact.len() > 1).then(|| time_grid_report(intact)),
        degraded,
        percolation: None,
    })
}

/// The reference pair of every routing walkthrough in this repo: New
/// York → London across the configured route-grid slots. When the route
/// grid coincides with the traffic grid, the route rides the evaluator's
/// per-slot topologies instead of rebuilding the whole series, one job
/// per slot on the point's pool; the routes land in slot order and a
/// failure reports the lowest failing slot's error, at every thread
/// count.
fn reference_route(
    spec: &ScenarioSpec,
    ctx: &NetworkContext<'_>,
    evaluator: &DegradedEvaluator<'_>,
) -> Result<TimeExpandedRoutes> {
    let src = GeoPoint::from_degrees(40.7, -74.0);
    let dst = GeoPoint::from_degrees(51.5, -0.1);
    let route_grid = time_grid(ctx.t, spec.network.slots, spec.network.slot_s);
    if route_grid != ctx.series.epochs() {
        let route_series =
            SnapshotSeries::build_parallel(&ctx.constellation, &route_grid, ctx.threads)?;
        return Ok(route_over_time(&route_series, src, dst, ctx.min_elev, ctx.topo_config)?);
    }
    let routes = par::par_map((0..ctx.series.len()).collect(), ctx.threads, |k| {
        let topology = evaluator.intact_topology(k);
        match route_ground_to_ground(&ctx.series.snapshot(k), topology, src, dst, ctx.min_elev) {
            Ok(route) => Ok(Some(route)),
            Err(LsnError::NoRoute) => Ok(None),
            Err(e) => Err(e.into()),
        }
    })
    .into_iter()
    .collect::<Result<_>>()?;
    Ok(TimeExpandedRoutes { epochs: route_grid, routes })
}

/// The degraded pass (`network.with_outages`), over the same snapshot
/// series and prebuilt intact topologies as the intact pass: each slot's
/// snapshot is masked by the attack's flat `victims` plus, when
/// survivability is enabled, an outage timeline driven by `plane_doses`
/// and sampled at the slot's mission fraction — so the grid reads as
/// orbital geometry *and* mission life at once. Each masked slot is
/// evaluated over the prebuilt intact topology, its dead satellites
/// skipped, instead of re-running the geometric construction.
fn degraded_pass(
    spec: &ScenarioSpec,
    ctx: &NetworkContext<'_>,
    evaluator: &DegradedEvaluator<'_>,
    victims: &[usize],
    plane_doses: Option<&[DailyFluence]>,
) -> Result<DegradedNetworkReport> {
    // Seed the attack mask from the evaluator's shared all-alive buffer
    // instead of rebuilding the all-true vec from scratch.
    let mut alive_base = evaluator.all_alive().to_vec();
    for &flat in victims {
        alive_base[flat] = false;
    }
    // The outage timeline over the real per-plane fleet (the scalar
    // survivability report keeps its historical uniform-plane
    // approximation); destroyed slots draw no lifetimes and consume no
    // spares.
    let timeline = match plane_doses {
        Some(doses) if spec.survivability.enabled => {
            let kept_doses: Vec<DailyFluence> = ctx.layout.kept.iter().map(|&i| doses[i]).collect();
            let offsets = ctx.series.snapshot(0).plane_offsets().to_vec();
            let plane_sats: Vec<usize> = offsets.windows(2).map(|w| w[1] - w[0]).collect();
            let dead: Vec<bool> = alive_base.iter().map(|&a| !a).collect();
            let process = spec.survivability.process();
            Some(outage_timeline(
                &kept_doses,
                &plane_sats,
                Some(&dead),
                &*process,
                &spec.survivability.policy,
                spec.survivability.sim_config(spec.seed ^ OUTAGE_SEED_SALT),
            )?)
        }
        _ => None,
    };
    // One job per slot, each masking its own copy of `alive_base`;
    // results land in slot order, so the report is the same for every
    // thread count.
    let slots = ctx.series.len();
    let evaluations = par::par_map((0..slots).collect(), ctx.threads, |k| {
        let mut mask = alive_base.clone();
        if let Some(tl) = &timeline {
            // Slot k samples the mission at fraction (k + 0.5)/slots.
            let day = tl.horizon_days * (k as f64 + 0.5) / slots as f64;
            tl.mask_alive(day, &mut mask);
        }
        evaluator.evaluate_slot(k, Some(&mask))
    })
    .into_iter()
    .collect::<std::result::Result<Vec<_>, _>>()?;
    Ok(degraded_report(ctx, &evaluations, evaluator.intact_mean_link_load()))
}

/// The per-slot statistics the intact `time_grid` block and the
/// `degraded` block both report, computed by one aggregator so the two
/// stay method-for-method comparable. `handoffs` is left 0: only the
/// intact block counts them ([`time_grid_report`]).
fn slot_aggregates(per_slot: &[SlotEvaluation]) -> TimeGridReport {
    let slots = per_slot.len();
    let denom = slots.max(1) as f64;
    let traffic = || per_slot.iter().map(|e| &e.traffic);
    // Delay distribution over every routed (flow, slot) pair, in
    // deterministic (slot-major, then flow) collection order before the
    // total-order sort.
    let mut delays: Vec<f64> =
        traffic().flat_map(|t| t.flow_outcomes.iter().flatten().map(|o| o.delay_ms)).collect();
    delays.sort_by(|a, b| a.partial_cmp(b).expect("finite delays"));
    let delay = |q: f64| percentile(&delays, q).unwrap_or(f64::NAN);
    TimeGridReport {
        slots,
        connected_slots: per_slot.iter().filter(|e| e.connected).count(),
        min_routed: traffic().map(|t| t.routed).min().unwrap_or(0),
        mean_routed: traffic().map(|t| t.routed as f64).sum::<f64>() / denom,
        peak_link_load: traffic().map(|t| t.max_link_load()).fold(0.0, f64::max),
        mean_link_load: traffic().map(|t| t.mean_link_load()).sum::<f64>() / denom,
        delay_p50_ms: delay(0.50),
        delay_p90_ms: delay(0.90),
        delay_p99_ms: delay(0.99),
        handoffs: 0,
    }
}

/// The time-resolved aggregate over the intact per-slot evaluations (the
/// `time_grid` report block), with per-flow serving-pair handoffs across
/// consecutive routable slots; an unroutable slot resets the flow's
/// previous pair.
fn time_grid_report(per_slot: &[SlotEvaluation]) -> TimeGridReport {
    let n_flows = per_slot.first().map_or(0, |e| e.traffic.flow_outcomes.len());
    let handoffs = (0..n_flows)
        .map(|f| {
            count_handoffs(per_slot.iter().map(|e| e.traffic.flow_outcomes[f].map(|o| o.ends)))
        })
        .sum();
    TimeGridReport { handoffs, ..slot_aggregates(per_slot) }
}

/// The degraded-network aggregate over the masked per-slot evaluations,
/// reported next to the intact baseline.
fn degraded_report(
    ctx: &NetworkContext<'_>,
    per_slot: &[SlotEvaluation],
    intact_mean_link_load: f64,
) -> DegradedNetworkReport {
    let agg = slot_aggregates(per_slot);
    let denom = per_slot.len().max(1) as f64;
    let min_alive = per_slot.iter().map(|e| e.alive).min().unwrap_or(0);
    let mean_alive = per_slot.iter().map(|e| e.alive as f64).sum::<f64>() / denom;
    let total_sats = ctx.series.n_sats();
    let n_flows = ctx.traffic.flows.len();
    // The served fields need a gravity workload and every slot's summary.
    let served: Vec<f64> =
        per_slot.iter().filter_map(|e| e.served.as_ref().map(|s| s.served_fraction)).collect();
    let served_known = ctx.traffic.workload.is_some() && served.len() == per_slot.len();
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
        served_fraction: served_known
            .then(|| served.iter().sum::<f64>() / served.len().max(1) as f64),
        min_served_fraction: served_known
            .then(|| served.iter().copied().fold(f64::INFINITY, f64::min)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::tests::tiny_spec;
    use ssplane_core::system::DesignSummary;
    use ssplane_lsn::traffic::{FlowOutcome, TrafficReport};

    /// A connected slot whose traffic report carries only per-flow
    /// outcomes (what the handoff accounting reads).
    fn slot_with(outcomes: Vec<Option<FlowOutcome>>) -> SlotEvaluation {
        let traffic = TrafficReport {
            routed: outcomes.iter().flatten().count(),
            unrouted: outcomes.iter().filter(|o| o.is_none()).count(),
            link_load: Vec::new(),
            link_capacity: 1.0,
            mean_stretch: 1.0,
            mean_hops: 1.0,
            flow_outcomes: outcomes,
        };
        SlotEvaluation { connected: true, largest_component: 0, alive: 0, traffic, served: None }
    }

    #[test]
    fn time_grid_handoffs_reset_across_unroutable_gaps() {
        let sat = |p: usize, s: usize| SatId { plane: p, slot: s };
        let out = |ends: (SatId, SatId)| Some(FlowOutcome { delay_ms: 10.0, ends });
        let a = (sat(0, 0), sat(1, 0));
        let b = (sat(2, 2), sat(3, 2));
        // One flow: routed on pair a, unroutable, routed on pair b — the
        // gap resets the comparison, so 0 handoffs.
        let gapped = vec![slot_with(vec![out(a)]), slot_with(vec![None]), slot_with(vec![out(b)])];
        assert_eq!(time_grid_report(&gapped).handoffs, 0);
        // The same pair change on adjacent slots is one handoff.
        let adjacent =
            vec![slot_with(vec![out(a)]), slot_with(vec![out(b)]), slot_with(vec![None])];
        assert_eq!(time_grid_report(&adjacent).handoffs, 1);
        // Two flows: one churns without gaps (1 handoff), one only
        // across a gap (0) — per-flow accounting keeps them separate.
        let two = vec![
            slot_with(vec![out(a), out(a)]),
            slot_with(vec![out(b), None]),
            slot_with(vec![out(b), out(b)]),
        ];
        assert_eq!(time_grid_report(&two).handoffs, 1);
    }

    #[test]
    fn pooled_reference_route_matches_a_rebuilt_series_slot_for_slot() {
        use crate::runner::{designer_for, shared_demand_model};
        use ssplane_core::system::DesignParams;
        use ssplane_demand::grid::LatTodGrid;
        let mut spec = tiny_spec();
        spec.network.enabled = true;
        spec.network.n_flows = 20;
        (spec.network.slots, spec.network.slot_s) = (4, 600.0);
        spec.network.time_grid_slot_s = 600.0;
        let model = shared_demand_model(&spec, 1);
        let grid = LatTodGrid::from_model(&model, spec.demand.lat_bins, spec.demand.tod_bins)
            .unwrap()
            .scaled(1.0);
        let params = DesignParams { epoch: spec.radiation.epoch() };
        let sys = designer_for("ss", &spec.design).design(&grid, &params).unwrap();
        let traffic = traffic_inputs(&spec, &model, &KernelCache::default(), 2).unwrap();
        let route = |time_grid_slots| {
            let mut spec = spec.clone();
            spec.network.time_grid_slots = time_grid_slots;
            let ctx = network_context(&spec, &sys, &traffic, 2).unwrap();
            let evaluator = DegradedEvaluator::with_workload_threads(
                &ctx.series,
                &traffic.flows,
                ctx.min_elev,
                ctx.topo_config,
                None,
                2,
            )
            .unwrap();
            reference_route(&spec, &ctx, &evaluator).unwrap()
        };
        // A 4-slot traffic grid is the route grid, so the route rides the
        // evaluator's topologies; a 1-slot one makes it rebuild a series.
        let (pooled, rebuilt) = (route(4), route(1));
        assert_eq!(pooled.epochs, rebuilt.epochs);
        // The slots route differently, so a permuted slot order shows.
        assert_ne!(rebuilt.routes.first(), rebuilt.routes.last(), "{rebuilt:?}");
        assert_eq!(pooled.routes, rebuilt.routes);
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
                Vec::new().into()
            } else {
                orbit.with_ltan(ltan).plane_elements(epoch, n).unwrap().into()
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
        assert_eq!(layout.net_plane_of_design, vec![Some(1), None, Some(0)]);
        // The flat layout is the real network constellation's snapshot.
        let epoch = tiny_spec().radiation.epoch();
        let c = Constellation::from_planes(epoch, sys.network_planes()).unwrap();
        let series = SnapshotSeries::build(&c, &[epoch]).unwrap();
        let snapshot = series.snapshot(0);
        assert_eq!(snapshot.plane_offsets(), &[0, 3, 5]);
        // A destroyed design satellite masks the correct flat index
        // under the permutation: design plane 0 lands *after* design
        // plane 2 in the network layout.
        let flat =
            |plane: usize, slot: usize| layout.flat_of_design(&snapshot, SatId { plane, slot });
        assert_eq!(flat(0, 1), Some(4));
        assert_eq!(flat(2, 2), Some(2));
        assert_eq!(flat(1, 0), None, "dropped plane");
        assert_eq!(flat(0, 9), None, "slot bound");
        assert_eq!(flat(7, 0), None, "plane bound");
        // Network-id -> design-id is the inverse on kept planes.
        assert_eq!(layout.design_id(SatId { plane: 0, slot: 2 }), SatId { plane: 2, slot: 2 });
        assert_eq!(layout.design_id(SatId { plane: 1, slot: 0 }), SatId { plane: 0, slot: 0 });
    }
}
