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
//! Each [`Runner::run_specs`] call builds one [`KernelCache`] and lends
//! it to every point: the daily fluence integral of each distinct
//! (orbit, epoch, step) and the SS designer's candidate planes through
//! each distinct peak cell (per grid shape, altitude and elevation mask)
//! are computed once per run, however many points need them, and so is
//! the gravity workload's seed-free field per distinct (demand model,
//! UTC hour, site budget). Points of the paper sweep repeat the first two
//! (the same plane recurs across demand levels and spare budgets), points
//! of an attack or capacity sweep the field (each point draws its own
//! seeded pairs from it), and the reuse is exact, so a point inside
//! a sweep reports the same bytes as the point run alone. The cache is
//! per run, not per process: a long-lived process would otherwise grow
//! it without bound, and a timed pass would reuse work an earlier pass
//! did. Only the demand models (`shared_demand_model`) live for the
//! process.
//!
//! The pipeline is **design-generic**: every system a scenario selects
//! (`design.kinds`) is produced by a [`Designer`] from the
//! `ssplane-core` registry, and one shared sequence of stages runs over
//! the resulting designed systems in registry order. Each stage has its
//! own file:
//!
//! * this module — demand, design, the per-point loop, stage timings and
//!   the sweep [`Runner`];
//! * `system` — the fixed attack, the attack bookkeeping, fluence and
//!   survivability of one system;
//! * `network` — one networked system's scope: its context, the intact
//!   evaluator, the attack search, the reference route and the degraded
//!   pass;
//! * `percolation` — loss-fraction sweeps and λ₂ over the network
//!   stage's topologies.

mod network;
mod percolation;
mod system;

use crate::error::{Result, ScenarioError};
use crate::report::{NamedSystemReport, ScenarioReport};
use crate::spec::{DesignSpec, ScenarioSpec};
use crate::sweep::{SweepSpec, SOLAR};
use network::{network_context, networked_system_report, traffic_inputs, TrafficInputs};
use ssplane_astro::par;
use ssplane_core::cache::{CacheCount, ComputeOnce, DemandGridKey, GravityKey, KernelCache};
use ssplane_core::system::{
    DesignParams, Designer, RgtDesigner, SlimDesigner, SsDesigner, StarlinkDesigner,
    WalkerDesigner, DESIGNER_REGISTRY,
};
use ssplane_demand::DemandModel;
use std::cell::OnceCell;
use std::sync::Arc;
use system::{attack_destroyed, system_report};

/// The synthetic demand model for a given `demand.seed`, built once per
/// process and shared. Synthesizing the 0.5° population grid takes tens
/// of milliseconds in a release build and depends on nothing but the
/// seed, so sweeps whose points agree on the seed (the common case)
/// share one synthesis and one ~2 MB grid, while a `demand.seed` axis
/// still gets a distinct model per value.
///
/// Entries live for the process (a `demand.seed` axis re-reads its
/// models on every rerun of the sweep), unlike the per-run
/// [`KernelCache`]. Each seed is a compute-once cell: concurrent workers
/// wanting the *same* new seed wait for one synthesis rather than racing
/// on it, while first touches of *distinct* seeds synthesize in parallel.
///
/// The synthesis fills the grid's rows on the first caller's
/// `point_threads` workers, like every other pool inside a point: a lone
/// point gets the whole budget, the points of a multi-point sweep fill
/// inline, and `--threads 1` spawns no thread. The model is the same at
/// every worker count.
fn shared_demand_model(spec: &ScenarioSpec, point_threads: usize) -> Arc<DemandModel> {
    static MODELS: ComputeOnce<u64, Arc<DemandModel>> = ComputeOnce::new();
    let seed = demand_key(spec);
    MODELS.get_or_compute(seed, || {
        Arc::new(
            DemandModel::synthetic_seeded_in(seed, point_threads)
                .expect("default-resolution synthesis is valid for every seed"),
        )
    })
}

/// The key of the spec's demand model: the `demand.seed` it is
/// synthesized from. [`shared_demand_model`], [`gravity_key`] and
/// [`demand_grid_key`] all derive from it, so the caches cannot disagree
/// on which model a spec names.
fn demand_key(spec: &ScenarioSpec) -> u64 {
    spec.demand.seed
}

/// The run cache's key for the spec's gravity field: exactly what
/// [`GravityField::new`](ssplane_demand::gravity::GravityField::new)
/// reads — the demand model, `network.utc_hour` and `traffic.sites`.
fn gravity_key(spec: &ScenarioSpec) -> GravityKey {
    (demand_key(spec), spec.network.utc_hour.to_bits(), spec.traffic.sites)
}

/// The run cache's key for the spec's unscaled demand grid: exactly what
/// [`LatTodGrid::from_model`](ssplane_demand::grid::LatTodGrid::from_model)
/// reads — the demand model, `demand.lat_bins` and `demand.tod_bins`.
/// Each point scales its own copy to `demand.total_demand_b`.
fn demand_grid_key(spec: &ScenarioSpec) -> DemandGridKey {
    (demand_key(spec), spec.demand.lat_bins, spec.demand.tod_bins)
}

/// The designer registry: the [`Designer`] a registry name (an entry of
/// `ssplane_core::system::DESIGNER_REGISTRY`, as validated by
/// [`crate::sweep::resolve_design_kind`]) selects, configured from the
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
    /// `(metric, value)` derived rows in execution order — rates such as
    /// `<system>.attack_search.candidates_per_sec`, the attack search's
    /// scoring throughput, and deterministic work counters:
    /// `<system>.percolation.lambda2_products`, the λ₂ solves' Laplacian
    /// applications, and `<system>.network.reattached`, the endpoints the
    /// degraded pass re-attached because a mask killed their intact
    /// server. Not wall-clock, so kept out of `Self::total_seconds`.
    pub metrics: Vec<(String, f64)>,
    /// `(kernel, count)` of this point's requests to the run's
    /// [`KernelCache`] ([`KernelCache::counters`]). Which point computes a
    /// shared key depends on scheduling; the sums over a run do not (see
    /// [`SweepOutcome::cache_counters`]).
    pub cache: Vec<(&'static str, CacheCount)>,
}

impl ScenarioTimings {
    /// Total wall-clock across stages \[s\] (metric rows excluded).
    fn total_seconds(&self) -> f64 {
        self.stages.iter().map(|&(_, s)| s).sum()
    }
}

/// Collects `(stage, seconds)` pairs around closures, plus derived
/// `(metric, value)` rows (rates and work counters).
#[derive(Default)]
struct StageClock {
    stages: Vec<(String, f64)>,
    metrics: Vec<(String, f64)>,
}

impl StageClock {
    fn time<T>(&mut self, stage: &str, f: impl FnOnce() -> T) -> T {
        #[expect(
            clippy::disallowed_methods,
            reason = "--timings side channel; durations never enter report bytes"
        )]
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

/// The scenario pipeline body, writing stage timings into `clock`.
/// `point_threads` caps every pool inside the point: a cold demand
/// synthesis's row fill, snapshot builds, gravity draws, the evaluator's
/// slots, the reference route, the attack search, the degraded pass and
/// the percolation jobs. Design and fluence kernels go through
/// `cache`, whose environment the fluence integrals run in.
fn run_scenario(
    spec: &ScenarioSpec,
    clock: &mut StageClock,
    point_threads: usize,
    cache: &KernelCache,
) -> Result<ScenarioReport> {
    spec.validate()?;

    // Demand stage.
    let model = clock.time("demand.model", || shared_demand_model(spec, point_threads));
    let grid = clock.time("demand.grid", || cache.demand_grid(demand_grid_key(spec), &model))?;
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
    let params = DesignParams { epoch: spec.radiation.epoch() };

    // The point's traffic, built on the first system that needs the
    // network and borrowed by every later one; a point whose systems all
    // skip the network never builds it.
    let traffic: OnceCell<TrafficInputs> = OnceCell::new();

    // One generic pipeline per selected system, in registry order (so the
    // spec's `kinds` ordering can never change the output bytes).
    let mut systems = Vec::new();
    for name in spec.design.ordered_kinds() {
        let designer = designer_for(name, &spec.design);
        let sys = clock
            .time(&format!("{name}.design"), || designer.design_in(&demand, &params, cache))?;
        let report = if spec.network.enabled && sys.total_sats() > 0 {
            let ctx = clock.time(&format!("{name}.network.setup"), || {
                let inputs = match traffic.get() {
                    Some(inputs) => inputs,
                    None => {
                        let built = traffic_inputs(spec, &model, cache, point_threads)?;
                        traffic.get_or_init(|| built)
                    }
                };
                network_context(spec, &sys, inputs, point_threads)
            })?;
            networked_system_report(spec, name, &sys, &ctx, cache, clock)?
        } else {
            system_report(spec, name, &sys, &attack_destroyed(spec, &sys)?, cache, clock)?.0
        };
        systems.push(NamedSystemReport { system: name.to_string(), report });
    }

    Ok(ScenarioReport {
        name: spec.name.clone(),
        seed: spec.seed,
        total_demand_b: spec.demand.total_demand_b,
        demand_multiplier: multiplier,
        solar: SOLAR.name(spec.radiation.solar).to_string(),
        epoch_jd: params.epoch.julian_date(),
        systems,
    })
}

/// Executes one scenario end-to-end. A standalone execution owns the
/// machine, so its intra-point pools may use every core, and its kernels
/// a fresh cache.
///
/// # Errors
/// Validation failures and any stage error, tagged with the crate that
/// produced it.
pub fn execute_scenario(spec: &ScenarioSpec) -> Result<ScenarioReport> {
    execute_timed(spec, 0, &KernelCache::default()).0
}

/// Executes one scenario end-to-end with every intra-point pool capped at
/// `point_threads` workers (`0` = all cores) and the design and fluence
/// kernels served from `cache`, also returning its stage timings
/// (collected even when the scenario fails partway: the stages that did
/// run are reported). The sweep runner passes each worker's share of the
/// thread budget and a handle on the run's cache.
fn execute_timed(
    spec: &ScenarioSpec,
    point_threads: usize,
    cache: &KernelCache,
) -> (Result<ScenarioReport>, ScenarioTimings) {
    let mut clock = StageClock::default();
    let result = run_scenario(spec, &mut clock, point_threads, cache);
    let timings = ScenarioTimings {
        name: spec.name.clone(),
        stages: clock.stages,
        metrics: clock.metrics,
        cache: cache.counters().to_vec(),
    };
    (result, timings)
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

    /// Per-kernel `(kernel, count)` totals over every point's requests to
    /// the run's [`KernelCache`], in [`KernelCache::counters`] order. Both
    /// totals are a pure function of the specs: every distinct key is
    /// computed once whatever the thread count.
    pub fn cache_counters(&self) -> Vec<(&'static str, CacheCount)> {
        let mut totals: Vec<(&'static str, CacheCount)> = Vec::new();
        for (kernel, count) in self.timings.iter().flat_map(|t| &t.cache) {
            match totals.iter_mut().find(|(k, _)| k == kernel) {
                Some((_, total)) => {
                    total.computed += count.computed;
                    total.requested += count.requested;
                }
                None => totals.push((kernel, *count)),
            }
        }
        totals
    }

    /// The timing side channel as tab-separated text: one
    /// `scenario<TAB>stage<TAB>seconds` row per stage, in scenario order,
    /// with a per-scenario `total` row, closed by the run's kernel-cache
    /// totals ([`Self::cache_counters`]) as whole-number
    /// `sweep<TAB>cache.<kernel>.{computed,requested}<TAB>n` rows.
    /// Deliberately a separate artifact from the (byte-deterministic)
    /// report JSON.
    pub fn timings_table(&self) -> String {
        let mut out = String::from("scenario\tstage\tseconds\n");
        for t in &self.timings {
            for (stage, secs) in &t.stages {
                out.push_str(&format!("{}\t{stage}\t{secs:.6}\n", t.name));
            }
            out.push_str(&format!("{}\ttotal\t{:.6}\n", t.name, t.total_seconds()));
            // Derived rows (rates such as
            // attack_search.candidates_per_sec, counters such as
            // percolation.lambda2_products) after the totals: same
            // three-column shape, value in the last column, never summed
            // into `total`.
            for (metric, value) in &t.metrics {
                out.push_str(&format!("{}\t{metric}\t{value:.6}\n", t.name));
            }
        }
        for (kernel, count) in self.cache_counters() {
            out.push_str(&format!("sweep\tcache.{kernel}.computed\t{}\n", count.computed));
            out.push_str(&format!("sweep\tcache.{kernel}.requested\t{}\n", count.requested));
        }
        out
    }

    /// A human-readable aggregate summary: one row per scenario, with a
    /// satellite-count and an availability column per
    /// [`DESIGNER_REGISTRY`] entry (`-` where the point did not run it).
    pub fn summary(&self) -> String {
        let columns: Vec<(&str, String, String)> = DESIGNER_REGISTRY
            .iter()
            .map(|&(name, _)| {
                let label = name.to_uppercase();
                (name, format!("{label} sats"), format!("{label} avail"))
            })
            .collect();
        let mut out = format!("{:<52}", "scenario");
        for (_, sats, avail) in &columns {
            out.push_str(&format!(" {sats:>9} {avail:>10}"));
        }
        out.push('\n');
        for (i, r) in self.reports.iter().enumerate() {
            match r {
                Ok(rep) => {
                    out.push_str(&format!("{:<52}", rep.name));
                    for (name, sats_head, avail_head) in &columns {
                        let system = rep.system(name);
                        let sats = system.map_or("-".to_string(), |x| x.design.sats.to_string());
                        let avail = system
                            .and_then(|x| x.survivability.as_ref())
                            .map_or("-".to_string(), |v| format!("{:.4}", v.availability));
                        let (w, v) = (sats_head.len().max(9), avail_head.len().max(10));
                        out.push_str(&format!(" {sats:>w$} {avail:>v$}"));
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

impl Runner {
    /// A runner using `threads` workers (`0` = auto).
    pub fn with_threads(threads: usize) -> Self {
        Runner { threads }
    }

    /// Runs every spec, in parallel, returning outcomes in spec order.
    pub fn run_specs(&self, specs: &[ScenarioSpec]) -> SweepOutcome {
        let names: Vec<String> = specs.iter().map(|s| s.name.clone()).collect();
        // Each concurrent worker gets its share of the thread budget for
        // the pools inside its point (a cold demand synthesis, snapshot
        // builds, gravity draws, the evaluator's slots, the reference
        // route, attack search, degraded pass, percolation),
        // so a sweep never runs more threads than configured: a
        // multi-point sweep's points run them inline, a lone point gets
        // the whole budget.
        let point_threads = par::budget(self.threads) / par::workers(self.threads, specs.len());
        // One kernel cache for the run, lent to every point through its
        // own counting handle; it is dropped with the run.
        let cache = KernelCache::default();
        let (reports, timings) = par::par_map(specs.iter().collect(), self.threads, |spec| {
            execute_timed(spec, point_threads, &cache.share())
        })
        .into_iter()
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
    use ssplane_demand::grid::LatTodGrid;
    use ssplane_lsn::topology::SatId;

    pub(super) fn tiny_spec() -> ScenarioSpec {
        let mut spec = ScenarioSpec::named("tiny");
        spec.demand.total_demand_b = 10.0;
        spec.radiation.phases = 1;
        spec.radiation.step_s = 300.0;
        spec.survivability.horizon_years = 2.0;
        spec
    }

    #[test]
    fn out_of_range_radiation_knobs_fail_per_point() {
        let mut ok = tiny_spec();
        ok.survivability.enabled = false;
        ok.design.kinds = vec!["ss"];
        let mut coarse = ok.clone();
        coarse.radiation.step_s = 3600.0;
        let mut no_phases = ok.clone();
        crate::sweep::apply_param(
            &mut no_phases,
            "radiation.phases",
            &crate::toml::TomlValue::Int(0),
        )
        .unwrap();
        assert_eq!(no_phases.radiation.phases, 0, "the sweep layer no longer clamps phases");
        let outcome = Runner::with_threads(1).run_specs(&[ok, coarse, no_phases]);
        assert!(outcome.reports[0].is_ok());
        for (k, key) in [(1, "radiation.step_s"), (2, "radiation.phases")] {
            let err = outcome.reports[k].as_ref().unwrap_err().to_string();
            assert!(err.contains(key), "point {k}: {err}");
        }
    }

    #[test]
    fn out_of_range_spare_cadences_fail_per_point() {
        use crate::toml::TomlValue;
        let mut ok = tiny_spec();
        ok.design.kinds = vec!["ss"];
        let with = |key: &str, x: f64| {
            let mut spec = ok.clone();
            crate::sweep::apply_param(&mut spec, key, &TomlValue::Float(x)).unwrap();
            spec
        };
        // A negative cadence credited availability above 1 and 0 meant
        // "never resupply"; a negative repair time raised availability.
        let bad = [
            ("survivability.resupply_days", -180.0),
            ("survivability.resupply_days", 0.0),
            ("survivability.resupply_days", f64::NAN),
            ("survivability.resupply_days", f64::INFINITY),
            ("spares.replacement_days", -5.0),
            ("spares.replacement_days", f64::NAN),
            ("spares.replacement_days", f64::INFINITY),
        ];
        let mut specs: Vec<ScenarioSpec> = bad.iter().map(|&(key, x)| with(key, x)).collect();
        specs.extend([ok.clone(), with("spares.replacement_days", 0.0)]);
        let outcome = Runner::with_threads(1).run_specs(&specs);
        for (k, &(key, x)) in bad.iter().enumerate() {
            let err = outcome.reports[k].as_ref().unwrap_err();
            assert!(
                matches!(err, ScenarioError::BadValue { key: got, .. } if got == key),
                "{key} = {x}: {err}"
            );
        }
        assert!(outcome.reports[bad.len()..].iter().all(Result::is_ok));
        // Off the survivability stage neither knob is read.
        let mut off = with("survivability.resupply_days", -180.0);
        off.survivability.enabled = false;
        assert!(execute_scenario(&off).is_ok());
    }

    #[test]
    fn out_of_range_network_elevations_fail_per_point() {
        use crate::toml::TomlValue;
        let mut ok = tiny_spec();
        ok.radiation.enabled = false;
        ok.survivability.enabled = false;
        ok.design.kinds = vec!["ss"];
        ok.network.enabled = true;
        ok.network.n_flows = 20;
        let with = |x: f64| {
            let mut spec = ok.clone();
            crate::sweep::apply_param(&mut spec, "network.min_elevation_deg", &TomlValue::Float(x))
                .unwrap();
            spec
        };
        // Each of these once reported `routed: 0` (or, negative, attached
        // terminals below the horizon) without an error.
        let bad = [95.0, 90.0, 1e308, -30.0, -1e-9, f64::INFINITY];
        let good = [0.0, 20.0, 89.9];
        let specs: Vec<ScenarioSpec> = bad.iter().chain(&good).map(|&x| with(x)).collect();
        let outcome = Runner::with_threads(1).run_specs(&specs);
        for (k, x) in bad.iter().enumerate() {
            let err = outcome.reports[k].as_ref().unwrap_err();
            assert!(
                matches!(err, ScenarioError::BadValue { key, .. } if key == "network.min_elevation_deg"),
                "{x}: {err}"
            );
        }
        for (report, x) in outcome.reports[bad.len()..].iter().zip(good) {
            assert!(report.is_ok(), "{x}: {report:?}");
        }
    }

    #[test]
    fn oversized_flow_and_pair_budgets_fail_per_point() {
        let mut ok = tiny_spec();
        ok.radiation.enabled = false;
        ok.survivability.enabled = false;
        ok.design.kinds = vec!["ss"];
        ok.network.enabled = true;
        ok.network.n_flows = 20;
        ok.network.slots = 2;
        let mut flows = ok.clone();
        crate::sweep::apply_param(
            &mut flows,
            "network.n_flows",
            &crate::toml::TomlValue::Int(100_000_000_000_000),
        )
        .unwrap();
        let mut pairs = ok.clone();
        pairs.traffic.model = crate::spec::TrafficModel::Gravity;
        pairs.traffic.pairs = crate::sweep::MAX_TRAFFIC_PAIRS + 1;
        // The stage each key needs on to be read.
        let as_is: fn(&mut ScenarioSpec) = |_| ();
        let radiation: fn(&mut ScenarioSpec) = |s| s.radiation.enabled = true;
        let survivability: fn(&mut ScenarioSpec) = |s| {
            s.radiation.enabled = true;
            s.survivability.enabled = true;
        };
        let optimized: fn(&mut ScenarioSpec) = |s| {
            s.attack.kind = crate::spec::AttackKind::Optimized;
            s.attack.budget = 1;
        };
        let gravity: fn(&mut ScenarioSpec) =
            |s| s.traffic.model = crate::spec::TrafficModel::Gravity;
        // Each of these sizes an allocation, a loop or a product, so an
        // unbounded value can abort the whole process, hang it or wrap.
        let sized = [
            ("demand.lat_bins", as_is),
            ("demand.tod_bins", as_is),
            ("network.time_grid_slots", as_is),
            ("network.slots", as_is),
            ("network.percolation_steps", as_is),
            ("radiation.phases", radiation),
            ("survivability.horizon_years", survivability),
            ("spares.count", survivability),
            ("attack.restarts", optimized),
            ("attack.swaps", optimized),
            ("traffic.k_paths", gravity),
            ("traffic.sites", gravity),
        ];
        let mut points = vec![flows, ok.clone(), pairs, ok.clone()];
        for (key, stage_on) in sized {
            let mut spec = ok.clone();
            stage_on(&mut spec);
            let huge = crate::toml::TomlValue::Int(10_000_000_000_000);
            crate::sweep::apply_param(&mut spec, key, &huge).unwrap();
            points.push(spec);
        }
        let outcome = Runner::with_threads(1).run_specs(&points);
        assert!(outcome.reports[1].is_ok() && outcome.reports[3].is_ok());
        let keys = ["network.n_flows", "traffic.pairs"].into_iter().chain(sized.map(|(k, _)| k));
        for (k, key) in [0, 2].into_iter().chain(4..).zip(keys) {
            let err = outcome.reports[k].as_ref().unwrap_err();
            assert!(
                matches!(err, ScenarioError::BadValue { key: bad, .. } if bad == key),
                "point {k}: {err}"
            );
        }
    }

    #[test]
    fn out_of_range_utc_hours_fail_per_point() {
        let mut ok = tiny_spec();
        ok.radiation.enabled = false;
        ok.survivability.enabled = false;
        ok.design.kinds = vec!["ss"];
        ok.network.enabled = true;
        ok.network.n_flows = 20;
        ok.network.slots = 1;
        ok.traffic.model = crate::spec::TrafficModel::Gravity;
        ok.traffic.pairs = 200;
        ok.traffic.sites = 16;
        let at = |hour: f64| {
            let mut spec = ok.clone();
            spec.network.utc_hour = hour;
            spec
        };
        let bad = [1e20, 1e308, 24.0, -1.0, -1e-9, f64::NAN, f64::INFINITY];
        let mut specs: Vec<ScenarioSpec> = bad.iter().map(|&h| at(h)).collect();
        specs.extend([at(0.0), at(-0.0), at(23.99)]);
        let outcome = Runner::with_threads(1).run_specs(&specs);
        for (k, hour) in bad.iter().enumerate() {
            let err = outcome.reports[k].as_ref().unwrap_err().to_string();
            assert!(err.contains("network.utc_hour"), "utc_hour {hour}: {err}");
        }
        assert!(outcome.reports[bad.len()..].iter().all(Result::is_ok));
        // Off the network stage the hour is never read, so it never fails.
        let mut off = at(1e20);
        off.network.enabled = false;
        off.traffic.model = crate::spec::TrafficModel::Sampled;
        assert!(execute_scenario(&off).is_ok());
    }

    #[test]
    fn out_of_range_evaluator_knobs_fail_per_point() {
        use crate::toml::TomlValue;
        let mut ok = tiny_spec();
        ok.radiation.enabled = false;
        ok.survivability.enabled = false;
        ok.design.kinds = vec!["ss"];
        ok.network.enabled = true;
        ok.network.n_flows = 20;
        ok.network.slots = 2;
        // A fixed attack and no percolation stage: none of the three
        // knobs is used, yet each must be valid or fail its own point.
        let bad = |key: &str, value: TomlValue| {
            let mut spec = ok.clone();
            crate::sweep::apply_param(&mut spec, key, &value).unwrap();
            spec
        };
        // The RGT designer once designed an empty constellation at any
        // inclination outside [0, 180] deg and reported all demand unserved.
        let rgt = |x: f64| {
            let mut spec = bad("design.rgt_inclination_deg", TomlValue::Float(x));
            spec.design.kinds = vec!["rgt"];
            spec
        };
        // The Walker designer refuses an inclination outside (0, 180) deg.
        let mut walker =
            bad("design.walker_inclinations_deg", TomlValue::Array(vec![TomlValue::Float(500.0)]));
        walker.design.kinds = vec!["wd"];
        let points = [
            bad("attack.damage_threshold", TomlValue::Float(1.5)),
            ok.clone(),
            bad("network.percolation_steps", TomlValue::Int(0)),
            bad("network.percolation_gap", TomlValue::Float(1.0)),
            rgt(-30.0),
            rgt(500.0),
            walker,
        ];
        let outcome = Runner::with_threads(1).run_specs(&points);
        assert!(outcome.reports[1].is_ok());
        for (k, expected) in [
            (0, "attack.damage_threshold"),
            (2, "network.percolation_steps"),
            (3, "network.percolation_gap"),
            (4, "design.rgt_inclination_deg"),
            (5, "design.rgt_inclination_deg"),
            (6, "design.walker_inclinations_deg"),
        ] {
            let err = outcome.reports[k].as_ref().unwrap_err();
            assert!(
                matches!(err, ScenarioError::BadValue { key, .. } if key == expected),
                "point {k}: {err}"
            );
        }
    }

    #[test]
    fn zero_slot_and_backward_grids_fail_per_point() {
        use crate::toml::TomlValue;
        let mut ok = tiny_spec();
        ok.radiation.enabled = false;
        ok.survivability.enabled = false;
        ok.design.kinds = vec!["ss"];
        ok.network.enabled = true;
        ok.network.n_flows = 20;
        ok.network.slots = 2;
        let bad = |key: &str, value: TomlValue| {
            let mut spec = ok.clone();
            crate::sweep::apply_param(&mut spec, key, &value).unwrap();
            spec
        };
        // Zero slots would report a one-slot route, and a negative spacing
        // would step the route grid backwards in time.
        let points = [
            bad("network.slots", TomlValue::Int(0)),
            ok.clone(),
            bad("network.slot_s", TomlValue::Float(-120.0)),
            bad("network.time_grid_slots", TomlValue::Int(0)),
        ];
        let outcome = Runner::with_threads(1).run_specs(&points);
        assert!(outcome.reports[1].is_ok());
        for (k, expected) in
            [(0, "network.slots"), (2, "network.slot_s"), (3, "network.time_grid_slots")]
        {
            let err = outcome.reports[k].as_ref().unwrap_err();
            assert!(
                matches!(err, ScenarioError::BadValue { key, .. } if key == expected),
                "point {k}: {err}"
            );
        }
    }

    #[test]
    fn attack_budget_beyond_the_candidate_space_fails_per_point() {
        use crate::spec::{AttackKind, AttackUnit};
        let mut ok = tiny_spec();
        ok.radiation.enabled = false;
        ok.survivability.enabled = false;
        ok.design.kinds = vec!["ss"];
        ok.attack.kind = AttackKind::Optimized;
        ok.attack.unit = AttackUnit::Planes;
        ok.attack.budget = 2;
        ok.attack.restarts = 1;
        ok.attack.swaps = 3;
        ok.network.enabled = true;
        ok.network.n_flows = 20;
        ok.network.slots = 2;
        // Only the kind that reads a loss count checks it.
        ok.attack.planes_lost = 1_000_000;
        ok.attack.sats_lost = 1_000_000;
        let mut planes = ok.clone();
        planes.attack.budget = 1_000_000;
        let mut sats = planes.clone();
        sats.attack.unit = AttackUnit::Sats;
        let mut planes_lost = ok.clone();
        planes_lost.attack.kind = AttackKind::LeadingPlanes;
        let mut sats_lost = ok.clone();
        sats_lost.attack.kind = AttackKind::RandomSats;
        let outcome =
            Runner::with_threads(1).run_specs(&[planes, ok, sats, planes_lost, sats_lost]);
        let report = outcome.reports[1].as_ref().expect("an in-range budget runs");
        let design = &report.system("ss").unwrap().design;
        for (k, key, n, unit) in [
            (0, "attack.budget", design.planes, "network planes"),
            (2, "attack.budget", design.sats, "network sats"),
            (3, "attack.planes_lost", design.planes, "planes"),
            (4, "attack.sats_lost", design.sats, "satellites"),
        ] {
            let err = outcome.reports[k].as_ref().unwrap_err().to_string();
            assert!(err.contains(key), "{err}");
            assert!(err.contains(&format!("at most the system's {n} {unit}")), "{err}");
        }
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
        assert!(perc.lambda2_converged, "the default λ₂ solve converges: {perc:?}");
        assert!(perc.lambda2_residual > 0.0 && perc.lambda2_residual < 1e-8);
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
        let (one, _) = execute_timed(&spec, 1, &KernelCache::default());
        let (many, _) = execute_timed(&spec, 7, &KernelCache::default());
        assert_eq!(one.unwrap().to_json_line(), many.unwrap().to_json_line());
    }

    #[test]
    fn percolation_reports_its_lambda2_work_counter() {
        let mut spec = tiny_spec();
        spec.radiation.enabled = false;
        spec.survivability.enabled = false;
        spec.design.kinds = vec!["ss"];
        spec.network.enabled = true;
        spec.network.n_flows = 20;
        spec.network.slots = 2;
        spec.network.percolation = true;
        let products = |threads| {
            let (report, timings) = execute_timed(&spec, threads, &KernelCache::default());
            report.unwrap();
            let row = timings.metrics.iter().find(|(m, _)| m == "ss.percolation.lambda2_products");
            row.expect("the λ₂ work counter is a timings row").1
        };
        let one = products(1);
        // The start vector's application, one per iteration, and the
        // final re-check: at least one iteration on a +grid.
        assert!(one >= 3.0 && one.fract() == 0.0, "a whole count: {one}");
        assert_eq!(one, products(3), "the counter does not depend on the thread count");
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
        let (one, _) = execute_timed(&spec, 1, &KernelCache::default());
        let (many, _) = execute_timed(&spec, 7, &KernelCache::default());
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
    fn summary_header_names_every_registry_designer() {
        let empty = SweepOutcome { names: Vec::new(), reports: Vec::new(), timings: Vec::new() };
        let summary = empty.summary();
        let header = summary.lines().next().expect("a header row");
        for &(name, _) in DESIGNER_REGISTRY {
            let label = name.to_uppercase();
            for column in [format!("{label} sats"), format!("{label} avail")] {
                assert!(header.contains(&column), "no `{column}` column: {header}");
            }
        }
    }

    #[test]
    fn timings_are_collected_per_stage() {
        let mut spec = tiny_spec();
        spec.network.enabled = true;
        spec.network.n_flows = 20;
        spec.network.slots = 2;
        spec.network.percolation = true;
        spec.network.percolation_steps = 8;
        let (report, timings) = execute_timed(&spec, 0, &KernelCache::default());
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

    /// Two demand levels × two solar epochs × two spare budgets over SS
    /// and WD: the paper sweep's shape at test scale.
    fn paper_shaped_sweep() -> SweepSpec {
        crate::config::sweep_from_toml(
            r#"
name = "kernels"
seed = 5

[demand]
lat_bins = 18
tod_bins = 12

[design]
kinds = ["ss", "wd"]

[radiation]
phases = 1
step_s = 600.0

[survivability]
horizon_years = 2.0

[sweep]
"demand.total_demand_b" = [20.0, 60.0]
"radiation.solar" = ["min", "max"]
"spares.count" = [1, 3]
"#,
        )
        .unwrap()
    }

    /// Three latitude resolutions × two demand levels over SS and WD:
    /// six points that need three distinct unscaled demand grids (and
    /// three sets of SS candidate planes).
    fn lat_bins_sweep() -> SweepSpec {
        crate::config::sweep_from_toml(
            r#"
name = "demand-grids"
seed = 5

[demand]
tod_bins = 12

[design]
kinds = ["ss", "wd"]

[radiation]
enabled = false

[survivability]
enabled = false

[sweep]
"demand.lat_bins" = [12, 18, 36]
"demand.total_demand_b" = [20.0, 60.0]
"#,
        )
        .unwrap()
    }

    /// Two UTC hours × two link capacities over a small gravity
    /// workload: four points, each drawing its own seeded pairs, from
    /// two distinct gravity fields.
    fn gravity_hours_sweep() -> SweepSpec {
        crate::config::sweep_from_toml(
            r#"
name = "gravity-fields"
seed = 5

[demand]
total_demand_b = 10.0
lat_bins = 18
tod_bins = 12

[design]
kinds = ["ss"]

[radiation]
enabled = false

[survivability]
enabled = false

[network]
enabled = true
n_flows = 20
slots = 1

[traffic]
model = "gravity"
pairs = 400
sites = 16

[sweep]
"network.utc_hour" = [6.0, 12.0]
"traffic.capacity_gbps" = [2.0, 8.0]
"#,
        )
        .unwrap()
    }

    #[test]
    fn kernel_cache_counts_are_pinned_and_thread_independent() {
        let cases = [
            (
                paper_shaped_sweep(),
                8,
                vec![
                    ("fluence", CacheCount { computed: 34, requested: 120 }),
                    ("ss_candidates", CacheCount { computed: 6, requested: 68 }),
                    ("gravity", CacheCount { computed: 0, requested: 0 }),
                    ("demand_grid", CacheCount { computed: 1, requested: 8 }),
                ],
            ),
            (
                gravity_hours_sweep(),
                4,
                vec![
                    ("fluence", CacheCount { computed: 0, requested: 0 }),
                    ("ss_candidates", CacheCount { computed: 6, requested: 24 }),
                    ("gravity", CacheCount { computed: 2, requested: 4 }),
                    ("demand_grid", CacheCount { computed: 1, requested: 4 }),
                ],
            ),
            (
                lat_bins_sweep(),
                6,
                vec![
                    ("fluence", CacheCount { computed: 0, requested: 0 }),
                    ("ss_candidates", CacheCount { computed: 18, requested: 51 }),
                    ("gravity", CacheCount { computed: 0, requested: 0 }),
                    ("demand_grid", CacheCount { computed: 3, requested: 6 }),
                ],
            ),
        ];
        for (sweep, points, expected) in &cases {
            // A cached kernel value is the value a fresh computation
            // returns: every point's bytes equal a standalone run's.
            let fresh: String = sweep
                .expand()
                .unwrap()
                .iter()
                .map(|spec| execute_scenario(spec).unwrap().to_json_line() + "\n")
                .collect();
            for threads in [1, 2, 7] {
                let runner = Runner::with_threads(threads);
                let outcome = runner.run_sweep(sweep).unwrap();
                assert_eq!(outcome.ok_count(), *points);
                assert_eq!(&outcome.cache_counters(), expected, "{threads} threads");
                assert_eq!(outcome.to_jsonl(), fresh, "{threads} threads");
                let table = outcome.timings_table();
                for (kernel, count) in expected {
                    let row = format!("sweep\tcache.{kernel}.computed\t{}\n", count.computed);
                    assert!(table.contains(&row), "{row:?} missing");
                }
                // The cache lives for one run: the next run starts empty
                // and computes every kernel again.
                assert_eq!(&runner.run_sweep(sweep).unwrap().cache_counters(), expected);
            }
        }
    }

    #[test]
    fn reattachment_counts_are_pinned_and_thread_independent() {
        // A two-plane attack masks the degraded pass of both systems;
        // only the endpoints whose intact server it killed are queried
        // again, classic flows and gravity sites alike.
        let toml = r#"
name = "reattach"
seed = 5

[demand]
total_demand_b = 10.0
lat_bins = 18
tod_bins = 12

[design]
kinds = ["ss", "wd"]

[radiation]
enabled = false

[survivability]
enabled = false

[attack]
planes_lost = 2

[network]
enabled = true
n_flows = 40
slots = 1
time_grid_slots = 2
with_outages = true

[traffic]
model = "gravity"
pairs = 400
sites = 16
"#;
        let sweep = crate::config::sweep_from_toml(toml).unwrap();
        // With the route grid equal to the traffic grid, the reference
        // route rides the evaluator's topologies on the point's pool.
        let equal_grids =
            crate::config::sweep_from_toml(&toml.replace("\nslots = 1\n", "\nslots = 2\n"))
                .unwrap();
        let mut serial: Option<String> = None;
        for threads in [1, 2, 7] {
            let runner = Runner::with_threads(threads);
            let table = runner.run_sweep(&sweep).unwrap().timings_table();
            for (system, count) in [("ss", 38), ("wd", 12)] {
                let row = format!("reattach\t{system}.network.reattached\t{count}.000000\n");
                assert!(table.contains(&row), "{row:?} missing at {threads} threads:\n{table}");
            }
            let outcome = runner.run_sweep(&equal_grids).unwrap();
            assert_eq!(outcome.ok_count(), 1);
            let jsonl = outcome.to_jsonl();
            assert_eq!(jsonl.matches("\"reachable_slots\":2,\"slots\":2,").count(), 2, "{jsonl}");
            assert_eq!(&jsonl, serial.get_or_insert_with(|| jsonl.clone()), "{threads} threads");
        }
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
        let model = shared_demand_model(&spec, 1);
        let grid = LatTodGrid::from_model(&model, spec.demand.lat_bins, spec.demand.tod_bins)
            .unwrap()
            .scaled(1.0);
        let sys = designer.design(&grid, &DesignParams { epoch: spec.radiation.epoch() }).unwrap();
        for planes_lost in [0usize, 1, 2, 5, sys.planes.len()] {
            spec.attack.planes_lost = planes_lost;
            let destroyed = attack_destroyed(&spec, &sys).unwrap();
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
        // Every plane: a count above the plane count fails the point.
        spec.attack.planes_lost = execute_scenario(&spec).unwrap().systems[0].report.design.planes;
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
        let (report, timings) = execute_timed(&spec, 0, &KernelCache::default());
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
    fn intra_point_pools_never_change_the_bytes() {
        // A lone point gets the runner's whole budget, so at 2 and 3
        // threads the evaluator build, degraded pass and percolation jobs
        // run pooled; both systems share one gravity workload.
        let mut spec = tiny_spec();
        spec.attack.planes_lost = 2;
        spec.network.enabled = true;
        spec.network.n_flows = 20;
        spec.network.slots = 3;
        spec.network.slot_s = 300.0;
        spec.network.time_grid_slots = 3;
        spec.network.time_grid_slot_s = 300.0;
        spec.network.with_outages = true;
        spec.network.percolation = true;
        spec.network.percolation_steps = 8;
        spec.traffic.model = crate::spec::TrafficModel::Gravity;
        spec.traffic.pairs = 600;
        spec.traffic.sites = 16;
        let specs = vec![spec];
        let serial = Runner::with_threads(1).run_specs(&specs);
        let report = serial.reports[0].as_ref().unwrap();
        for system in ["ss", "wd"] {
            let net = report.system(system).unwrap().network.as_ref().unwrap();
            let deg = net.degraded.as_ref().expect("with_outages adds the block");
            assert!(deg.served_fraction.is_some(), "{system}: gravity adds degraded served");
            assert!(deg.mean_alive_fraction < 1.0, "{system}: attack and outages mask slots");
            assert_eq!(net.percolation.as_ref().expect("percolation on").slots, 3);
        }
        for threads in [2, 3] {
            let pooled = Runner::with_threads(threads).run_specs(&specs);
            assert_eq!(serial.to_jsonl(), pooled.to_jsonl(), "{threads} threads");
        }
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
        let model = shared_demand_model(&spec, 1);
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
