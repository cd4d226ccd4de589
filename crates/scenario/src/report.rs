//! Structured results of one scenario run, and their JSON-lines form.
//!
//! Field order in the JSON is part of the engine's contract: the
//! determinism tests assert byte-identical output across runs and thread
//! counts, so everything here emits through the insertion-ordered
//! [`crate::json::Json`] builder.

use crate::json::Json;
use ssplane_core::system::DesignSummary;

/// The design block of a system's JSON: every [`DesignSummary`] field,
/// in declaration order.
fn design_json(design: &DesignSummary) -> Json {
    Json::obj()
        .uint("sats", design.sats as u64)
        .uint("planes", design.planes as u64)
        .uint("shells", design.shells as u64)
        .uint("sats_per_plane", design.sats_per_plane as u64)
        .num("inclination_deg", design.inclination_deg)
        .num("unserved_demand", design.unserved_demand)
        .build()
}

/// Radiation-stage outcome for one system.
#[derive(Debug, Clone, PartialEq)]
pub struct FluenceReport {
    /// Median per-satellite daily electron fluence \[#/cm²/MeV\] (the
    /// Fig. 10a statistic).
    pub median_electron: f64,
    /// Median per-satellite daily proton fluence \[#/cm²/MeV\] (Fig. 10b).
    pub median_proton: f64,
    /// Mean per-plane daily electron fluence.
    pub mean_electron: f64,
    /// Mean per-plane daily proton fluence.
    pub mean_proton: f64,
    /// Solar-activity index in `[0, 1]` at the evaluation epoch.
    pub solar_activity: f64,
}

impl FluenceReport {
    fn to_json(&self) -> Json {
        Json::obj()
            .num("median_electron", self.median_electron)
            .num("median_proton", self.median_proton)
            .num("mean_electron", self.mean_electron)
            .num("mean_proton", self.mean_proton)
            .num("solar_activity", self.solar_activity)
            .build()
    }
}

/// Plane-loss attack outcome for one system.
#[derive(Debug, Clone, PartialEq)]
pub struct AttackReport {
    /// Planes destroyed.
    pub planes_lost: usize,
    /// Satellites destroyed with them.
    pub sats_lost: usize,
    /// Fraction of design capacity retained.
    pub capacity_retained: f64,
}

impl AttackReport {
    fn to_json(&self) -> Json {
        Json::obj()
            .uint("planes_lost", self.planes_lost as u64)
            .uint("sats_lost", self.sats_lost as u64)
            .num("capacity_retained", self.capacity_retained)
            .build()
    }
}

/// The outcome of an adversarial attack search (`attack.kind =
/// "optimized"`): the worst attack found, its objective value, and the
/// fixed-attack baseline with the same budget it is reported next to.
/// Present only for optimized attacks, so every fixed-attack scenario —
/// including all pre-search goldens — serializes exactly as before.
#[derive(Debug, Clone, PartialEq)]
pub struct AttackSearchReport {
    /// Objective token (`routed-fraction` / `connectivity` /
    /// `load-inflation`); lower values = more damage.
    pub objective: String,
    /// Candidate-set unit (`planes` / `sats`).
    pub unit: String,
    /// The configured budget (units the search may destroy).
    pub budget: usize,
    /// Random restarts the search ran.
    pub restarts: usize,
    /// Candidate evaluations the search loop requested (seen-cache hits
    /// included) — the count throughput is normalized by.
    pub candidates_scored: usize,
    /// Distinct candidate victim sets actually evaluated; the difference
    /// from `candidates_scored` is what the canonical-victim-set dedup
    /// saved.
    pub candidates_unique: usize,
    /// Objective value of the found worst-case attack.
    pub objective_value: f64,
    /// The same-budget fixed-attack baseline's registry name
    /// (`leading-planes` for a plane budget, `random-sats` for a
    /// satellite budget).
    pub baseline: String,
    /// Objective value of that baseline (never better than
    /// `objective_value`: the baseline seeds the search).
    pub baseline_value: f64,
    /// Objective value of the intact, unattacked network.
    pub intact_value: f64,
}

impl AttackSearchReport {
    fn to_json(&self) -> Json {
        Json::obj()
            .str("objective", &self.objective)
            .str("unit", &self.unit)
            .uint("budget", self.budget as u64)
            .uint("restarts", self.restarts as u64)
            .uint("candidates_scored", self.candidates_scored as u64)
            .uint("candidates_unique", self.candidates_unique as u64)
            .num("objective_value", self.objective_value)
            .str("baseline", &self.baseline)
            .num("baseline_value", self.baseline_value)
            .num("intact_value", self.intact_value)
            .build()
    }
}

/// Survivability normalized by the satellites the design spends — the
/// shootout's efficiency axis: a catalog constellation can post a higher
/// raw availability than a slim variant while buying each availability
/// point with far more hardware. Present only with
/// `survivability.per_satellite = true`, so every scenario without the
/// key — including all pre-shootout goldens — serializes exactly as
/// before.
#[derive(Debug, Clone, PartialEq)]
pub struct PerSatelliteReport {
    /// Designed satellites — the normalization denominator.
    pub sats: usize,
    /// Availability bought per thousand designed satellites.
    pub availability_per_ksat: f64,
    /// Vacancy slot-days per designed satellite.
    pub lost_slot_days_per_sat: f64,
    /// Up-front spares parked per designed satellite.
    pub spares_per_sat: f64,
}

impl PerSatelliteReport {
    fn to_json(&self) -> Json {
        Json::obj()
            .uint("sats", self.sats as u64)
            .num("availability_per_ksat", self.availability_per_ksat)
            .num("lost_slot_days_per_sat", self.lost_slot_days_per_sat)
            .num("spares_per_sat", self.spares_per_sat)
            .build()
    }
}

/// Survivability-stage outcome for one system.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SurvivabilityOutcome {
    /// Time-averaged fraction of slots with a working satellite.
    pub availability: f64,
    /// Failures over the horizon.
    pub failures: usize,
    /// Replacements performed.
    pub replacements: usize,
    /// Slot-days lost to vacancies.
    pub lost_slot_days: f64,
    /// Spares consumed (counting resupply).
    pub spares_consumed: usize,
    /// Spares the policy parks up front.
    pub initial_spares: usize,
    /// Per-satellite normalization (only with
    /// `survivability.per_satellite`).
    pub per_satellite: Option<PerSatelliteReport>,
}

impl SurvivabilityOutcome {
    fn to_json(&self) -> Json {
        let mut obj = Json::obj()
            .num("availability", self.availability)
            .uint("failures", self.failures as u64)
            .uint("replacements", self.replacements as u64)
            .num("lost_slot_days", self.lost_slot_days)
            .uint("spares_consumed", self.spares_consumed as u64)
            .uint("initial_spares", self.initial_spares as u64);
        if let Some(p) = &self.per_satellite {
            obj = obj.field("per_satellite", p.to_json());
        }
        obj.build()
    }
}

/// Time-resolved networking metrics over the `network.time_grid_*` grid:
/// the whole topology + traffic stage evaluated per slot. Present only
/// when the grid has more than one slot, so single-instant scenarios —
/// including every pre-refactor golden — serialize exactly as before.
#[derive(Debug, Clone, PartialEq)]
pub struct TimeGridReport {
    /// Traffic grid slots evaluated.
    pub slots: usize,
    /// Slots whose ISL topology was connected.
    pub connected_slots: usize,
    /// Fewest flows routed in any slot.
    pub min_routed: usize,
    /// Mean flows routed per slot.
    pub mean_routed: f64,
    /// Maximum directed-link load over all slots.
    pub peak_link_load: f64,
    /// Mean (over slots) of the per-slot mean link load.
    pub mean_link_load: f64,
    /// Median delay over all routed (flow, slot) pairs \[ms\].
    pub delay_p50_ms: f64,
    /// 90th-percentile delay \[ms\].
    pub delay_p90_ms: f64,
    /// 99th-percentile delay \[ms\].
    pub delay_p99_ms: f64,
    /// Serving-pair handoffs summed over flows across consecutive
    /// routable slots.
    pub handoffs: usize,
}

impl TimeGridReport {
    fn to_json(&self) -> Json {
        Json::obj()
            .uint("slots", self.slots as u64)
            .uint("connected_slots", self.connected_slots as u64)
            .uint("min_routed", self.min_routed as u64)
            .num("mean_routed", self.mean_routed)
            .num("peak_link_load", self.peak_link_load)
            .num("mean_link_load", self.mean_link_load)
            .num("delay_p50_ms", self.delay_p50_ms)
            .num("delay_p90_ms", self.delay_p90_ms)
            .num("delay_p99_ms", self.delay_p99_ms)
            .uint("handoffs", self.handoffs as u64)
            .build()
    }
}

/// The population-scale traffic engine's outcome at the classic instant
/// (slot 0 of the traffic grid): gravity demand aggregated by
/// serving-satellite pair and assigned under per-link capacities.
/// Present only with `traffic.model = "gravity"`, so every sampled-flow
/// scenario — including all pre-engine goldens — serializes exactly as
/// before.
#[derive(Debug, Clone, PartialEq)]
pub struct ServedDemandReport {
    /// City-pair flows the gravity model emitted.
    pub flows: usize,
    /// Distinct serving-satellite pairs after aggregation (the routing
    /// problem's actual size).
    pub pairs: usize,
    /// Total offered rate (satellite-capacity units, normalized to
    /// `demand.total_demand_b`).
    pub offered: f64,
    /// Fraction of the offered rate delivered under link capacities.
    pub served_fraction: f64,
    /// Fraction dropped at saturated links.
    pub dropped_fraction: f64,
    /// Fraction with no serving satellite (or a disconnected pair).
    pub unattached_fraction: f64,
    /// Median utilization over loaded directed links.
    pub utilization_p50: f64,
    /// 90th-percentile link utilization.
    pub utilization_p90: f64,
    /// 99th-percentile link utilization.
    pub utilization_p99: f64,
    /// Peak link utilization (never exceeds 1 under a finite capacity).
    pub utilization_max: f64,
}

impl ServedDemandReport {
    fn to_json(&self) -> Json {
        Json::obj()
            .uint("flows", self.flows as u64)
            .uint("pairs", self.pairs as u64)
            .num("offered", self.offered)
            .num("served_fraction", self.served_fraction)
            .num("dropped_fraction", self.dropped_fraction)
            .num("unattached_fraction", self.unattached_fraction)
            .num("utilization_p50", self.utilization_p50)
            .num("utilization_p90", self.utilization_p90)
            .num("utilization_p99", self.utilization_p99)
            .num("utilization_max", self.utilization_max)
            .build()
    }
}

/// Degraded-network metrics over the same time grid as the intact
/// stage: every slot's snapshot masked by the attack's destroyed set
/// plus (when survivability is enabled) the outage timeline sampled at
/// the slot's mission fraction. Present only with
/// `network.with_outages`, so every scenario without the key — including
/// all pre-disruption goldens — serializes exactly as before.
#[derive(Debug, Clone, PartialEq)]
pub struct DegradedNetworkReport {
    /// Grid slots evaluated (same grid as the intact stage).
    pub slots: usize,
    /// Mean fraction of satellites in service over the slots.
    pub mean_alive_fraction: f64,
    /// Fewest satellites in service in any slot.
    pub min_alive: usize,
    /// Slots whose *surviving* subgraph was connected.
    pub connected_slots: usize,
    /// Fewest flows routed in any slot.
    pub min_routed: usize,
    /// Mean flows routed per slot.
    pub mean_routed: f64,
    /// Mean routed fraction: `mean_routed / flows offered`.
    pub routed_fraction: f64,
    /// Maximum directed-link load over all slots.
    pub peak_link_load: f64,
    /// Mean (over slots) of the per-slot mean link load.
    pub mean_link_load: f64,
    /// Load inflation vs the intact baseline: degraded `mean_link_load`
    /// over intact `mean_link_load` (surviving links carry the detoured
    /// traffic). Non-finite (serialized `null`) when the intact grid
    /// carries no load.
    pub load_inflation: f64,
    /// Median delay over routed (flow, slot) pairs \[ms\].
    pub delay_p50_ms: f64,
    /// 90th-percentile delay \[ms\].
    pub delay_p90_ms: f64,
    /// 99th-percentile delay \[ms\].
    pub delay_p99_ms: f64,
    /// Mean served-demand fraction over the degraded slots (only with
    /// `traffic.model = "gravity"`).
    pub served_fraction: Option<f64>,
    /// Worst per-slot served-demand fraction (only with `traffic.model =
    /// "gravity"`).
    pub min_served_fraction: Option<f64>,
}

impl DegradedNetworkReport {
    fn to_json(&self) -> Json {
        let mut obj = Json::obj()
            .uint("slots", self.slots as u64)
            .num("mean_alive_fraction", self.mean_alive_fraction)
            .uint("min_alive", self.min_alive as u64)
            .uint("connected_slots", self.connected_slots as u64)
            .uint("min_routed", self.min_routed as u64)
            .num("mean_routed", self.mean_routed)
            .num("routed_fraction", self.routed_fraction)
            .num("peak_link_load", self.peak_link_load)
            .num("mean_link_load", self.mean_link_load)
            .num("load_inflation", self.load_inflation)
            .num("delay_p50_ms", self.delay_p50_ms)
            .num("delay_p90_ms", self.delay_p90_ms)
            .num("delay_p99_ms", self.delay_p99_ms);
        if let Some(s) = self.served_fraction {
            obj = obj.num("served_fraction", s);
        }
        if let Some(s) = self.min_served_fraction {
            obj = obj.num("min_served_fraction", s);
        }
        obj.build()
    }
}

/// One attack model's percolation sweep, averaged over the network
/// stage's grid slots: the giant-component curve against loss fraction
/// plus its masking threshold (the critical loss fraction where the
/// damage stops hiding behind redundancy).
#[derive(Debug, Clone, PartialEq)]
pub struct PercolationModelReport {
    /// Removal-ordering name (`"leading-planes"`, `"random-sats"`, … or
    /// `"attack"` for the scenario's destroyed set).
    pub model: String,
    /// First loss fraction where the giant component falls more than
    /// `gap` below the surviving fraction (`null`: never detected).
    pub masking_threshold: Option<f64>,
    /// First loss fraction where this ordering's giant component falls
    /// more than `gap` below the random baseline's (`null`: never, or
    /// this *is* the random baseline).
    pub threshold_vs_random: Option<f64>,
    /// Loss fraction of the susceptibility peak (the phase transition).
    pub chi_peak_loss: f64,
    /// Susceptibility χ at its peak.
    pub chi_peak: f64,
    /// Mean giant-component fraction over the sweep (area under the
    /// percolation curve — the robustness scalar).
    pub mean_giant: f64,
    /// Giant-component fraction at each loss step (`steps + 1` points,
    /// 0 % to 100 % loss), slot-averaged.
    pub giant_curve: Vec<f64>,
}

impl PercolationModelReport {
    fn to_json(&self) -> Json {
        let opt = |x: Option<f64>| x.map_or(Json::Null, Json::Num);
        Json::obj()
            .str("model", &self.model)
            .field("masking_threshold", opt(self.masking_threshold))
            .field("threshold_vs_random", opt(self.threshold_vs_random))
            .num("chi_peak_loss", self.chi_peak_loss)
            .num("chi_peak", self.chi_peak)
            .num("mean_giant", self.mean_giant)
            .field(
                "giant_curve",
                Json::Arr(self.giant_curve.iter().map(|&g| Json::Num(g)).collect()),
            )
            .build()
    }
}

/// Percolation & robustness analytics over the intact per-slot
/// topologies: loss-fraction phase-transition sweeps per attack model,
/// the intact network's algebraic connectivity, and targeted-vs-random
/// masking thresholds. Present only with `network.percolation`, so every
/// scenario without the key serializes exactly as before.
#[derive(Debug, Clone, PartialEq)]
pub struct PercolationReport {
    /// Loss-fraction steps per sweep (curves have `steps + 1` points).
    pub steps: usize,
    /// Masking-threshold detection gap.
    pub gap: f64,
    /// Grid slots the curves were averaged over.
    pub slots: usize,
    /// Algebraic connectivity λ₂ of the intact topology, slot-averaged
    /// (0 when a slot's +grid is disconnected).
    pub lambda2_intact: f64,
    /// The largest λ₂ solve residual `‖Ly − θy‖` over the slots.
    pub lambda2_residual: f64,
    /// Whether every slot's λ₂ solve met its residual tolerance.
    pub lambda2_converged: bool,
    /// Loss fraction at each sweep step (shared x-axis of every model's
    /// `giant_curve`).
    pub loss_fraction: Vec<f64>,
    /// Per-ordering sweeps; the `"random-sats"` entry is the baseline
    /// the others' `threshold_vs_random` compares against.
    pub models: Vec<PercolationModelReport>,
}

impl PercolationReport {
    fn to_json(&self) -> Json {
        Json::obj()
            .uint("steps", self.steps as u64)
            .num("gap", self.gap)
            .uint("slots", self.slots as u64)
            .num("lambda2_intact", self.lambda2_intact)
            .num("lambda2_residual", self.lambda2_residual)
            .field("lambda2_converged", Json::Bool(self.lambda2_converged))
            .field(
                "loss_fraction",
                Json::Arr(self.loss_fraction.iter().map(|&f| Json::Num(f)).collect()),
            )
            .field("models", Json::Arr(self.models.iter().map(|m| m.to_json()).collect()))
            .build()
    }
}

/// Networking-stage outcome for one system.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkReport {
    /// Flows routed at the snapshot.
    pub routed: usize,
    /// Flows with no route.
    pub unrouted: usize,
    /// Mean latency stretch of routed flows.
    pub mean_stretch: f64,
    /// Mean hop count of routed flows.
    pub mean_hops: f64,
    /// Maximum directed-link load.
    pub max_link_load: f64,
    /// Mean load over loaded links.
    pub mean_link_load: f64,
    /// Slots (of the time-expanded reference route) with a route.
    pub reachable_slots: usize,
    /// Slots evaluated.
    pub slots: usize,
    /// Path handoffs across slots.
    pub handoffs: usize,
    /// Mean delay over reachable slots \[ms\].
    pub mean_delay_ms: f64,
    /// Population-scale served-demand metrics (only with `traffic.model =
    /// "gravity"`).
    pub served: Option<ServedDemandReport>,
    /// Time-resolved metrics (only for a multi-slot `network.time_grid`).
    pub time_grid: Option<TimeGridReport>,
    /// Degraded-network metrics (only with `network.with_outages`).
    pub degraded: Option<DegradedNetworkReport>,
    /// Percolation analytics (only with `network.percolation`).
    pub percolation: Option<PercolationReport>,
}

impl NetworkReport {
    fn to_json(&self) -> Json {
        let mut obj = Json::obj()
            .uint("routed", self.routed as u64)
            .uint("unrouted", self.unrouted as u64)
            .num("mean_stretch", self.mean_stretch)
            .num("mean_hops", self.mean_hops)
            .num("max_link_load", self.max_link_load)
            .num("mean_link_load", self.mean_link_load)
            .uint("reachable_slots", self.reachable_slots as u64)
            .uint("slots", self.slots as u64)
            .uint("handoffs", self.handoffs as u64)
            .num("mean_delay_ms", self.mean_delay_ms);
        if let Some(s) = &self.served {
            obj = obj.field("served", s.to_json());
        }
        if let Some(tg) = &self.time_grid {
            obj = obj.field("time_grid", tg.to_json());
        }
        if let Some(d) = &self.degraded {
            obj = obj.field("degraded", d.to_json());
        }
        if let Some(p) = &self.percolation {
            obj = obj.field("percolation", p.to_json());
        }
        obj.build()
    }
}

/// Everything the pipeline produced for one system.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemReport {
    /// Design stage (always present).
    pub design: DesignSummary,
    /// Radiation stage (if enabled).
    pub fluence: Option<FluenceReport>,
    /// Attack stage (if `planes_lost > 0`).
    pub attack: Option<AttackReport>,
    /// Attack-search outcome (only for `attack.kind = "optimized"`).
    pub attack_search: Option<AttackSearchReport>,
    /// Survivability stage (if enabled).
    pub survivability: Option<SurvivabilityOutcome>,
    /// Networking stage (if enabled and the system has satellites).
    pub network: Option<NetworkReport>,
}

impl SystemReport {
    fn to_json(&self) -> Json {
        let mut obj = Json::obj().field("design", design_json(&self.design));
        if let Some(f) = &self.fluence {
            obj = obj.field("fluence", f.to_json());
        }
        if let Some(a) = &self.attack {
            obj = obj.field("attack", a.to_json());
        }
        if let Some(s) = &self.attack_search {
            obj = obj.field("attack_search", s.to_json());
        }
        if let Some(s) = &self.survivability {
            obj = obj.field("survivability", s.to_json());
        }
        if let Some(n) = &self.network {
            obj = obj.field("network", n.to_json());
        }
        obj.build()
    }
}

/// One designed system's results, tagged with its registry name.
#[derive(Debug, Clone, PartialEq)]
pub struct NamedSystemReport {
    /// The designer's registry name (`"ss"`, `"wd"`, `"rgt"`, `"slim"`,
    /// `"starlink"`) — also the system's JSON key in the report line.
    pub system: String,
    /// The system's per-stage results.
    pub report: SystemReport,
}

/// The complete result of one scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioReport {
    /// Scenario name (base name plus sweep coordinates).
    pub name: String,
    /// The seed the scenario ran with.
    pub seed: u64,
    /// Total bandwidth demand B the demand grid was normalized to.
    pub total_demand_b: f64,
    /// The raw grid multiplier `B / grid.total()` the designers consumed
    /// (the evaluate-API multiplier).
    pub demand_multiplier: f64,
    /// Solar-activity token (`cycle24` / `max` / `min`).
    pub solar: String,
    /// Evaluation epoch \[Julian date\] of the radiation stage.
    pub epoch_jd: f64,
    /// Per-system results, always in **registry order** (`ss`, `wd`,
    /// `rgt`, `slim`, `starlink`) regardless of how the spec listed its
    /// kinds — so the JSON bytes are a pure function of the parameter
    /// point.
    pub systems: Vec<NamedSystemReport>,
}

impl ScenarioReport {
    /// The results of the system named `name`, if it was designed.
    pub fn system(&self, name: &str) -> Option<&SystemReport> {
        self.systems.iter().find(|s| s.system == name).map(|s| &s.report)
    }

    /// One JSON-lines record (no trailing newline). Each system is one
    /// top-level field keyed by its registry name, in registry order —
    /// byte-compatible with the pre-`Designer` fixed `ss`/`wd` layout.
    pub fn to_json_line(&self) -> String {
        let mut obj = Json::obj()
            .str("name", &self.name)
            .uint("seed", self.seed)
            .num("total_demand_b", self.total_demand_b)
            .num("demand_multiplier", self.demand_multiplier)
            .str("solar", &self.solar)
            .num("epoch_jd", self.epoch_jd);
        for sys in &self.systems {
            obj = obj.field(&sys.system, sys.report.to_json());
        }
        obj.build().to_string_compact()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_shape() {
        let report = ScenarioReport {
            name: "t".to_string(),
            seed: 1,
            total_demand_b: 10.0,
            demand_multiplier: 0.05,
            solar: "cycle24".to_string(),
            epoch_jd: 2_456_444.5,
            systems: vec![NamedSystemReport {
                system: "ss".to_string(),
                report: SystemReport {
                    design: DesignSummary {
                        sats: 100,
                        planes: 4,
                        shells: 4,
                        sats_per_plane: 25,
                        inclination_deg: 97.6,
                        unserved_demand: 0.0,
                    },
                    fluence: None,
                    attack: None,
                    attack_search: None,
                    survivability: None,
                    network: None,
                },
            }],
        };
        let line = report.to_json_line();
        assert!(line.starts_with(r#"{"name":"t","seed":1,"total_demand_b":10.0"#), "{line}");
        assert!(line.contains(r#""ss":{"design":{"sats":100"#), "{line}");
        assert!(!line.contains("wd"), "{line}");
        assert!(!line.contains('\n'));
        assert!(report.system("ss").is_some());
        assert!(report.system("wd").is_none());
    }
}
