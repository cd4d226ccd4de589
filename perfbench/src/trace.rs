//! The traced run. The sweep's points go once through the real runner at
//! one thread (their times are the base of `trace.coverage`) and once
//! through the benchmark's own mirror of the scenario pipeline, which
//! calls each layer's public functions in the runner's order with the
//! runner's arguments and times every call. Work counts are taken at the
//! same calls and cross-checked against the runner's reports, so a mirror
//! that drifts from the pipeline fails the run instead of mis-attributing
//! time.
//!
//! Three spans re-run, on the same inputs, calls that
//! `DegradedEvaluator::with_workload` makes internally — `lsn.topology_s`
//! (`Topology::plus_grid`), `lsn.traffic_s` (`assign_traffic` and
//! `route_over_time`) and `lsn.traffic_engine_s`
//! (`assign_capacity_constrained`). They break `lsn.evaluator_s` down and
//! are left out of the coverage sum.

use crate::host::fnv1a;
use crate::metrics::{is_count, Outcome, PER_LAYER};
use crate::workloads::{Workload, DEMAND_SEED};
use ssplane_astro::geo::GeoPoint;
use ssplane_core::evaluate::plane_fluence_samples;
use ssplane_core::system::{DesignParams, DesignedSystem, Designer, SsDesigner, WalkerDesigner};
use ssplane_demand::gravity::{gravity_flows, grid_demand_total, GravityConfig};
use ssplane_demand::{DemandModel, LatTodGrid};
use ssplane_lsn::disruption::{strided_plane_indices, AttackTarget};
use ssplane_lsn::optimizer::{optimize_attack, DegradedEvaluator};
use ssplane_lsn::percolation::{
    algebraic_connectivity, percolation_sweep, plane_spread_ordering, priority_ordering,
    random_ordering, Lambda2Config,
};
use ssplane_lsn::routing::{route_ground_to_ground, route_over_time};
use ssplane_lsn::snapshot::{time_grid, SnapshotSeries};
use ssplane_lsn::survivability::simulate_process;
use ssplane_lsn::topology::{Constellation, GridTopologyConfig, SatId, Topology};
use ssplane_lsn::traffic::{assign_traffic, sample_flows, Flow};
use ssplane_lsn::traffic_engine::{assign_capacity_constrained, CapacityConfig, TrafficWorkload};
use ssplane_lsn::LsnError;
use ssplane_radiation::fluence::DailyFluence;
use ssplane_radiation::RadiationEnvironment;
use ssplane_scenario::spec::{AttackKind, AttackUnit, TrafficModel};
use ssplane_scenario::{Runner, ScenarioReport, ScenarioSpec, SweepOutcome};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

// Stream offsets the runner derives from the scenario seed. They mirror
// private constants of `ssplane_scenario::runner`; a drift changes the
// traced inputs and shows up in the cross-checked counts.
const FLOW_SEED_OFFSET: u64 = 0x9E37_79B9;
const TRAFFIC_SEED_SALT: u64 = 0x0054_5241_4646_4943;
const PERCOLATION_SEED_SALT: u64 = 0x5045_5243_4F4C;

/// Spans that time work outside the points (set-up, serialization) or
/// re-run calls nested in `lsn.evaluator_s`: not part of coverage.
const NOT_COVERED: &[&str] = &[
    "demand.synthetic_s",
    "scenario.jsonl_s",
    "lsn.topology_s",
    "lsn.traffic_s",
    "lsn.traffic_engine_s",
];

/// Completed attack searches: the runner's report counts one extra
/// (baseline) candidate per search.
const SEARCHES: &str = "lsn.optimizer.searches";

/// Busy time per span and work per counter.
#[derive(Debug, Default)]
struct Trace {
    busy: BTreeMap<&'static str, f64>,
    counts: BTreeMap<&'static str, u64>,
}

impl Trace {
    fn time<T>(&mut self, span: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = black_box(f());
        *self.busy.entry(span).or_default() += start.elapsed().as_secs_f64();
        out
    }

    fn count(&mut self, counter: &'static str, n: usize) {
        *self.counts.entry(counter).or_default() += n as u64;
    }

    fn busy(&self, span: &str) -> f64 {
        self.busy.get(span).copied().unwrap_or(0.0)
    }

    fn counted(&self, counter: &str) -> u64 {
        self.counts.get(counter).copied().unwrap_or(0)
    }
}

fn text(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// New York and London: the reference pair of the runner's route.
fn reference_pair() -> (GeoPoint, GeoPoint) {
    (GeoPoint::from_degrees(40.7, -74.0), GeoPoint::from_degrees(51.5, -0.1))
}

/// Where each design plane sits in the network constellation, which
/// orders planes by `network_order` and drops empty ones.
struct Layout {
    /// Design plane of each network plane.
    kept: Vec<usize>,
    /// Satellites per network plane.
    plane_sats: Vec<usize>,
    /// `(flat offset, satellites)` of each design plane (`None` when the
    /// network dropped it).
    span_of_design: Vec<Option<(usize, usize)>>,
}

impl Layout {
    fn of(sys: &DesignedSystem) -> Layout {
        let kept: Vec<usize> = sys
            .network_order
            .iter()
            .copied()
            .filter(|&i| !sys.planes[i].satellites.is_empty())
            .collect();
        let plane_sats: Vec<usize> = kept.iter().map(|&p| sys.planes[p].satellites.len()).collect();
        let mut span_of_design = vec![None; sys.planes.len()];
        let mut offset = 0;
        for (&p, &n) in kept.iter().zip(&plane_sats) {
            span_of_design[p] = Some((offset, n));
            offset += n;
        }
        Layout { kept, plane_sats, span_of_design }
    }

    /// Flat network index of a design-plane satellite.
    fn flat(&self, id: SatId) -> Option<usize> {
        let (offset, n) = (*self.span_of_design.get(id.plane)?)?;
        (id.slot < n).then_some(offset + id.slot)
    }
}

/// What the network stages of one designed system share.
struct Network {
    series: SnapshotSeries,
    flows: Vec<Flow>,
    workload: Option<TrafficWorkload>,
    layout: Layout,
    topo_config: GridTopologyConfig,
    min_elev: f64,
}

impl Network {
    fn build(
        spec: &ScenarioSpec,
        model: &DemandModel,
        sys: &DesignedSystem,
        params: DesignParams,
        trace: &mut Trace,
    ) -> Result<Network, String> {
        let net = &spec.network;
        let t = params.epoch + net.utc_hour * 3600.0;
        let grid = time_grid(t, net.time_grid_slots.max(1), net.time_grid_slot_s);
        if time_grid(t, net.slots.max(1), net.slot_s) != grid {
            return Err(format!(
                "{}: the traced pipeline needs the route grid to be the time grid",
                spec.name
            ));
        }
        let constellation = trace
            .time("lsn.network_setup_s", || {
                Constellation::from_planes(params.epoch, sys.network_planes())
            })
            .map_err(text)?;
        let flows = trace.time("lsn.network_setup_s", || {
            sample_flows(model, net.utc_hour, net.n_flows, spec.seed.wrapping_add(FLOW_SEED_OFFSET))
        });
        let series = trace
            .time("lsn.snapshot_s", || SnapshotSeries::build_parallel(&constellation, &grid, 1))
            .map_err(text)?;
        trace.count("lsn.snapshot.positions", series.n_sats() * series.len());
        let workload = if spec.traffic.model == TrafficModel::Gravity {
            let config = GravityConfig {
                pairs: spec.traffic.pairs,
                sites: spec.traffic.sites,
                utc_hour: net.utc_hour,
                seed: spec.seed ^ TRAFFIC_SEED_SALT,
                ..GravityConfig::default()
            };
            let gravity = trace
                .time("demand.gravity_s", || gravity_flows(model, &config, 1))
                .map_err(text)?;
            trace.count("demand.gravity_flows", gravity.len());
            let capacity = CapacityConfig {
                link_capacity: spec.traffic.capacity_gbps,
                k_paths: spec.traffic.k_paths,
            };
            Some(trace.time("lsn.network_setup_s", || {
                let scale = spec.demand.total_demand_b / grid_demand_total(model, net.utc_hour);
                TrafficWorkload::from_gravity(&gravity, scale, capacity)
            }))
        } else {
            None
        };
        Ok(Network {
            series,
            flows,
            workload,
            layout: Layout::of(sys),
            topo_config: GridTopologyConfig {
                max_range_km: net.max_range_km,
                ..GridTopologyConfig::default()
            },
            min_elev: net.min_elevation_deg.to_radians(),
        })
    }

    /// The evaluator with the runner's percolation and repair knobs.
    fn evaluator(&self, spec: &ScenarioSpec) -> Result<DegradedEvaluator<'_>, LsnError> {
        let e = DegradedEvaluator::with_workload(
            &self.series,
            &self.flows,
            self.min_elev,
            self.topo_config,
            self.workload.as_ref(),
        )?;
        let (steps, gap) = (spec.network.percolation_steps, spec.network.percolation_gap);
        let e = if steps >= 1 && gap.is_finite() && gap > 0.0 && gap < 1.0 {
            e.with_percolation(steps, gap)
        } else {
            e
        };
        let frac = spec.attack.damage_threshold;
        Ok(if frac.is_finite() && frac > 0.0 && frac <= 1.0 {
            e.with_repair_threshold(frac)
        } else {
            e
        })
    }

    /// The calls the evaluator makes per slot, re-run on their own.
    fn probe_evaluator_layers(&self, trace: &mut Trace) -> Result<(), String> {
        for k in 0..self.series.len() {
            let snapshot = self.series.snapshot(k);
            let topology = trace
                .time("lsn.topology_s", || Topology::plus_grid(&snapshot, self.topo_config))
                .map_err(text)?;
            trace.count("lsn.topology.links", topology.edges().count());
            let traffic = trace
                .time("lsn.traffic_s", || {
                    assign_traffic(&snapshot, &topology, &self.flows, self.min_elev)
                })
                .map_err(text)?;
            trace.count("lsn.traffic.flows_routed", traffic.routed);
            if let Some(w) = &self.workload {
                let served = trace
                    .time("lsn.traffic_engine_s", || {
                        assign_capacity_constrained(
                            &snapshot,
                            &topology,
                            &w.flows,
                            self.min_elev,
                            &w.capacity,
                        )
                    })
                    .map_err(text)?;
                trace.count("lsn.traffic_engine.pairs", served.pairs);
            }
        }
        let (src, dst) = reference_pair();
        trace
            .time("lsn.traffic_s", || {
                route_over_time(&self.series, src, dst, self.min_elev, self.topo_config)
            })
            .map_err(text)?;
        Ok(())
    }
}

/// The optimized attack: the runner's strided baseline, scored, then the
/// search. Returns the victims as design-plane ids.
fn search_attack(
    spec: &ScenarioSpec,
    net: &Network,
    evaluator: &DegradedEvaluator<'_>,
    trace: &mut Trace,
) -> Result<Vec<SatId>, String> {
    let config = spec.attack.search_config(1);
    let baseline: Vec<SatId> = strided_plane_indices(net.layout.kept.len(), spec.attack.budget)
        .into_iter()
        .flat_map(|plane| (0..net.layout.plane_sats[plane]).map(move |slot| SatId { plane, slot }))
        .collect();
    trace
        .time("lsn.attack_s", || evaluator.score_attack(&baseline, config.objective))
        .map_err(text)?;
    let outcome = trace
        .time("lsn.optimizer_s", || optimize_attack(evaluator, &config, spec.seed, &[baseline]))
        .map_err(text)?;
    trace.count("lsn.optimizer.candidates_scored", outcome.candidates_evaluated);
    trace.count("lsn.optimizer.candidates_unique", outcome.candidates_unique);
    trace.count(SEARCHES, 1);
    let mut destroyed: Vec<SatId> = outcome
        .destroyed
        .iter()
        .map(|id| SatId { plane: net.layout.kept[id.plane], slot: id.slot })
        .collect();
    destroyed.sort_unstable();
    Ok(destroyed)
}

/// A fixed attack's victims (none when the attack stage is off).
fn fixed_attack(
    spec: &ScenarioSpec,
    sys: &DesignedSystem,
    params: DesignParams,
    trace: &mut Trace,
) -> Result<Vec<SatId>, String> {
    let model = match spec.attack.fixed_model() {
        Some(model) if spec.attack.is_active() && !sys.planes.is_empty() => model,
        _ => return Ok(Vec::new()),
    };
    let target = AttackTarget {
        planes: sys.planes.iter().map(|p| p.satellites.as_slice()).collect(),
        plane_groups: sys.planes.iter().map(|p| p.eval_idx).collect(),
        epoch: params.epoch,
    };
    trace.time("lsn.attack_s", || model.destroyed(&target, spec.seed)).map_err(text)
}

/// Fluence sampling, then the survivability simulation over the planes
/// the attack left, with the runner's per-group mean doses.
fn fluence_and_survivability(
    spec: &ScenarioSpec,
    sys: &DesignedSystem,
    destroyed: &[SatId],
    params: DesignParams,
    trace: &mut Trace,
) -> Result<(), String> {
    let phases = spec.radiation.phases.max(1);
    let env = RadiationEnvironment::default();
    let samples = trace
        .time("core.fluence_s", || {
            plane_fluence_samples(
                &sys.eval_groups,
                &env,
                params.epoch,
                phases,
                spec.radiation.step_s,
            )
        })
        .map_err(text)?;
    trace.count("core.fluence.samples", samples.len());
    if !spec.survivability.enabled {
        return Ok(());
    }
    let group_doses: Vec<DailyFluence> = samples
        .chunks(phases)
        .map(|chunk| {
            let n = chunk.len() as f64;
            DailyFluence {
                electron: chunk.iter().map(|(f, _)| f.electron).sum::<f64>() / n,
                proton: chunk.iter().map(|(f, _)| f.proton).sum::<f64>() / n,
            }
        })
        .collect();
    let mut lost = vec![0usize; sys.planes.len()];
    for id in destroyed {
        lost[id.plane] += 1;
    }
    let surviving: Vec<(usize, usize)> = sys
        .planes
        .iter()
        .enumerate()
        .filter(|&(i, p)| !(p.n_sats > 0 && lost[i] >= p.n_sats))
        .map(|(i, p)| (i, p.n_sats - lost[i]))
        .collect();
    if surviving.is_empty() {
        return Ok(());
    }
    let doses: Vec<DailyFluence> =
        surviving.iter().map(|&(i, _)| group_doses[sys.planes[i].eval_idx]).collect();
    let sats: usize = surviving.iter().map(|&(_, n)| n).sum();
    let sats_per_plane = ((sats as f64 / surviving.len() as f64).round() as usize).max(1);
    let process = spec.survivability.process();
    let survivability = &spec.survivability;
    let sim = trace
        .time("lsn.survivability_s", || {
            simulate_process(
                &doses,
                sats_per_plane,
                &*process,
                &survivability.policy,
                survivability.sim_config(spec.seed),
            )
        })
        .map_err(text)?;
    trace.count("lsn.survivability.events", sim.failures + sim.replacements);
    Ok(())
}

/// The network report's own work: the reference route per slot, the
/// degraded pass, and the percolation block.
fn network_stages(
    spec: &ScenarioSpec,
    net: &Network,
    evaluator: &DegradedEvaluator<'_>,
    destroyed: &[SatId],
    trace: &mut Trace,
) -> Result<(), String> {
    let slots = net.series.len();
    let (src, dst) = reference_pair();
    trace
        .time("lsn.routing_s", || {
            (0..slots).try_for_each(|k| {
                match route_ground_to_ground(
                    &net.series.snapshot(k),
                    evaluator.intact_topology(k),
                    src,
                    dst,
                    net.min_elev,
                ) {
                    Ok(_) | Err(LsnError::NoRoute) => Ok(()),
                    Err(e) => Err(e),
                }
            })
        })
        .map_err(text)?;
    if spec.network.with_outages {
        let mut alive = evaluator.all_alive().to_vec();
        for flat in destroyed.iter().filter_map(|&id| net.layout.flat(id)) {
            alive[flat] = false;
        }
        trace
            .time("lsn.degraded_s", || {
                (0..slots).try_for_each(|k| evaluator.evaluate_slot(k, Some(&alive)).map(drop))
            })
            .map_err(text)?;
    }
    if spec.network.percolation {
        trace.time("lsn.percolation.lambda2_s", || {
            (0..slots)
                .map(|k| {
                    algebraic_connectivity(
                        evaluator.intact_topology(k),
                        evaluator.all_alive(),
                        &Lambda2Config::default(),
                    )
                })
                .sum::<f64>()
        });
        trace.time("lsn.percolation.sweep_s", || {
            let spread = plane_spread_ordering(evaluator.intact_topology(0));
            let mut orderings =
                vec![random_ordering(net.series.n_sats(), spec.seed ^ PERCOLATION_SEED_SALT)];
            if !destroyed.is_empty() {
                let priority: Vec<usize> =
                    destroyed.iter().filter_map(|&id| net.layout.flat(id)).collect();
                orderings.push(priority_ordering(&priority, &spread));
            }
            orderings.push(spread);
            for order in &orderings {
                for k in 0..slots {
                    black_box(percolation_sweep(
                        evaluator.intact_topology(k),
                        order,
                        spec.network.percolation_steps,
                    ));
                }
            }
        });
    }
    Ok(())
}

/// One point through the mirrored pipeline, in the runner's stage order:
/// design, network set-up and evaluator, attack, fluence and
/// survivability, network report, percolation.
fn trace_point(spec: &ScenarioSpec, model: &DemandModel, trace: &mut Trace) -> Result<(), String> {
    let outages_with_doses =
        spec.network.with_outages && spec.survivability.enabled && spec.radiation.enabled;
    let sats_budget =
        spec.attack.kind == AttackKind::Optimized && spec.attack.unit != AttackUnit::Planes;
    if spec.network.enabled && (outages_with_doses || sats_budget) {
        return Err(format!(
            "{}: the traced pipeline does not mirror this network configuration",
            spec.name
        ));
    }
    let demand = trace
        .time("demand.grid_s", || {
            let grid = LatTodGrid::from_model(model, spec.demand.lat_bins, spec.demand.tod_bins)?;
            Ok::<_, ssplane_demand::DemandError>(
                grid.scaled(spec.demand.total_demand_b / grid.total()),
            )
        })
        .map_err(text)?;
    let params = DesignParams { epoch: spec.radiation.epoch() };
    for kind in spec.design.ordered_kinds() {
        let sys = match kind {
            "ss" => trace.time("core.design.ss_s", || {
                SsDesigner { config: spec.design.ss }.design(&demand, &params)
            }),
            "wd" => trace.time("core.design.wd_s", || {
                WalkerDesigner { config: spec.design.wd.clone() }.design(&demand, &params)
            }),
            other => {
                return Err(format!(
                    "{}: the traced pipeline mirrors ss and wd, not {other}",
                    spec.name
                ))
            }
        }
        .map_err(text)?;
        trace.count("core.design.sats", sys.total_sats());

        let net = if spec.network.enabled && sys.total_sats() > 0 {
            Some(Network::build(spec, model, &sys, params, trace)?)
        } else {
            None
        };
        let evaluator = match &net {
            Some(n) => Some(trace.time("lsn.evaluator_s", || n.evaluator(spec)).map_err(text)?),
            None => None,
        };
        if let Some(n) = &net {
            n.probe_evaluator_layers(trace)?;
        }
        let destroyed = match (&net, &evaluator) {
            (Some(n), Some(e)) if spec.attack.kind == AttackKind::Optimized => {
                search_attack(spec, n, e, trace)?
            }
            _ => fixed_attack(spec, &sys, params, trace)?,
        };
        if spec.radiation.enabled && !sys.eval_groups.is_empty() {
            fluence_and_survivability(spec, &sys, &destroyed, params, trace)?;
        }
        if let (Some(n), Some(e)) = (&net, &evaluator) {
            network_stages(spec, n, e, &destroyed, trace)?;
        }
    }
    Ok(())
}

/// Counts the runner's reports carry, to check the mirror did the same
/// work: `(counter, traced, reported)`.
fn cross_checks(trace: &Trace, reports: &[&ScenarioReport]) -> Vec<(&'static str, u64, u64)> {
    let systems: Vec<_> =
        reports.iter().flat_map(|r| r.systems.iter().map(|s| &s.report)).collect();
    let sum = |f: &dyn Fn(&ssplane_scenario::SystemReport) -> usize| {
        systems.iter().map(|s| f(s) as u64).sum::<u64>()
    };
    let searches = trace.counted(SEARCHES);
    vec![
        ("core.design.sats", trace.counted("core.design.sats"), sum(&|s| s.design.sats)),
        (
            "lsn.optimizer.candidates_scored",
            trace.counted("lsn.optimizer.candidates_scored") + searches,
            sum(&|s| s.attack_search.as_ref().map_or(0, |a| a.candidates_scored)),
        ),
        (
            "lsn.optimizer.candidates_unique",
            trace.counted("lsn.optimizer.candidates_unique") + searches,
            sum(&|s| s.attack_search.as_ref().map_or(0, |a| a.candidates_unique)),
        ),
        (
            "lsn.survivability.events",
            trace.counted("lsn.survivability.events"),
            sum(&|s| s.survivability.as_ref().map_or(0, |v| v.failures + v.replacements)),
        ),
    ]
}

/// A trivial point on the workloads' population grid: running it fills
/// the runner's per-process demand cache, so no measured point pays
/// synthesis.
fn warm_up_spec() -> ScenarioSpec {
    let mut spec = ScenarioSpec::named("warm-up");
    spec.demand.seed = DEMAND_SEED;
    spec.demand.total_demand_b = 10.0;
    spec.design.kinds = vec!["ss"];
    spec.radiation.enabled = false;
    spec.survivability.enabled = false;
    spec
}

/// The traced run of `workload` at `seed`; `threads` is T, used once for
/// the parallel-efficiency pass.
pub fn run(workload: Workload, seed: u64, threads: usize) -> Result<Outcome, String> {
    let specs = workload.sweep(seed)?.expand().map_err(text)?;
    let mut trace = Trace::default();
    let mut out = Outcome { correct: true, attempted: specs.len(), ..Outcome::default() };

    let model = trace
        .time("demand.synthetic_s", || DemandModel::synthetic_seeded(DEMAND_SEED))
        .map_err(text)?;
    Runner::with_threads(1).run_specs(&[warm_up_spec()]);

    // Each point once through the real runner at one thread, then once
    // through the mirror right after, so both see the host in one state.
    let mut point_s = Vec::with_capacity(specs.len());
    let mut single = SweepOutcome { names: Vec::new(), reports: Vec::new(), timings: Vec::new() };
    for spec in &specs {
        let start = Instant::now();
        let one = Runner::with_threads(1).run_specs(std::slice::from_ref(spec));
        point_s.push(start.elapsed().as_secs_f64());
        single.names.extend(one.names);
        single.reports.extend(one.reports);
        single.timings.extend(one.timings);
        trace_point(spec, &model, &mut trace)?;
    }
    out.failed = single.reports.iter().filter(|r| r.is_err()).count();
    let jsonl = trace.time("scenario.jsonl_s", || single.to_jsonl());
    trace.count("scenario.jsonl_bytes", jsonl.len());

    let start = Instant::now();
    let parallel = Runner::with_threads(threads).run_specs(&specs);
    let sweep_s = start.elapsed().as_secs_f64();
    if parallel.to_jsonl() != jsonl {
        out.problem(format!("the {threads}-thread pass differs from the one-thread points"));
    }
    let ok: Vec<&ScenarioReport> = single.reports.iter().filter_map(|r| r.as_ref().ok()).collect();
    for problem in workload.check_reports(&ok) {
        out.problem(problem);
    }
    for (counter, traced, reported) in cross_checks(&trace, &ok) {
        if traced != reported {
            out.problem(format!(
                "{counter}: the traced pipeline counted {traced}, the reports {reported}"
            ));
        }
    }

    let points_total: f64 = point_s.iter().sum();
    let covered: f64 =
        trace.busy.iter().filter(|(span, _)| !NOT_COVERED.contains(span)).map(|(_, s)| s).sum();
    let scored = trace.counted("lsn.optimizer.candidates_scored") as f64;
    let optimizer_s = trace.busy("lsn.optimizer_s");
    let derived = [
        (
            "lsn.optimizer.unique_ratio",
            if scored > 0.0 {
                trace.counted("lsn.optimizer.candidates_unique") as f64 / scored
            } else {
                0.0
            },
        ),
        (
            "lsn.optimizer.candidates_per_s",
            if optimizer_s > 0.0 { scored / optimizer_s } else { 0.0 },
        ),
        ("scenario.runner.parallel_efficiency", points_total / (threads as f64 * sweep_s)),
        ("trace.coverage", covered / points_total),
    ];
    for metric in PER_LAYER {
        let value = if let Some(&(_, v)) = derived.iter().find(|(name, _)| *name == metric.name) {
            v
        } else if is_count(metric) {
            let n = trace.counted(metric.name);
            out.repeatable.insert(metric.name.to_string(), n.to_string());
            n as f64
        } else {
            trace.busy(metric.name)
        };
        out.values.insert(metric.name, value);
    }
    out.repeatable.insert("jsonl.fnv1a".into(), format!("{:016x}", fnv1a(jsonl.as_bytes())));

    out.notes.push(format!("jsonl: fnv1a={:016x} bytes={}", fnv1a(jsonl.as_bytes()), jsonl.len()));
    out.notes.push(format!(
        "points: {} at 1 thread in {points_total:.3} s; {threads}-thread pass {sweep_s:.3} s",
        specs.len()
    ));
    for (span, secs) in &trace.busy {
        let covered = if NOT_COVERED.contains(span) { "" } else { " (covered)" };
        out.notes.push(format!("span {span} {secs:.6} s{covered}"));
    }
    for (counter, n) in &trace.counts {
        out.notes.push(format!("count {counter} {n}"));
    }
    Ok(out)
}
