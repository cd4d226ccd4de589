//! Structured results of one scenario run, and their JSON-lines form.
//!
//! Field order in the JSON is part of the engine's contract: the
//! determinism tests assert byte-identical output across runs and thread
//! counts, so everything here emits through the insertion-ordered
//! [`crate::json::Json`] builder.
//!
//! Each report block is declared once, in the `blocks!` table below:
//! its JSON object has one key per field, named after the field, in
//! declaration order. An absent optional block or number is omitted; a
//! field marked `as null` is always written (`None` as `null`), and the
//! one marked `as by_name` is written as one key per named entry.

use crate::json::{Json, JsonObj};
use ssplane_core::system::DesignSummary;

/// A report value: how one field is written into its block's object.
trait Field {
    /// The value as JSON.
    fn to_json(&self) -> Json;

    /// Appends `key` with this value to `obj` (an absent value appends
    /// nothing).
    fn put(&self, key: &str, obj: JsonObj) -> JsonObj {
        obj.field(key, self.to_json())
    }
}

impl Field for usize {
    fn to_json(&self) -> Json {
        Json::UInt(*self as u64)
    }
}

impl Field for u64 {
    fn to_json(&self) -> Json {
        Json::UInt(*self)
    }
}

impl Field for f64 {
    fn to_json(&self) -> Json {
        Json::Num(*self)
    }
}

impl Field for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl Field for String {
    fn to_json(&self) -> Json {
        Json::str(self)
    }
}

impl<T: Field> Field for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(Field::to_json).collect())
    }
}

impl<T: Field> Field for Option<T> {
    fn to_json(&self) -> Json {
        self.as_ref().map_or(Json::Null, Field::to_json)
    }

    fn put(&self, key: &str, obj: JsonObj) -> JsonObj {
        match self {
            Some(value) => value.put(key, obj),
            None => obj,
        }
    }
}

/// The design block: every [`DesignSummary`] field, in declaration
/// order (the struct lives in `ssplane-core`, outside the table).
impl Field for DesignSummary {
    fn to_json(&self) -> Json {
        Json::obj()
            .uint("sats", self.sats as u64)
            .uint("planes", self.planes as u64)
            .uint("shells", self.shells as u64)
            .uint("sats_per_plane", self.sats_per_plane as u64)
            .num("inclination_deg", self.inclination_deg)
            .num("unserved_demand", self.unserved_demand)
            .build()
    }
}

/// `as null`: the key is always written, `None` as `null`.
fn null<T: Field>(value: &Option<T>, key: &str, obj: JsonObj) -> JsonObj {
    obj.field(key, value.to_json())
}

/// `as by_name`: one key per system, named by its registry name, in
/// list order.
fn by_name(systems: &[NamedSystemReport], _key: &str, obj: JsonObj) -> JsonObj {
    systems.iter().fold(obj, |obj, sys| sys.report.put(&sys.system, obj))
}

/// Declares each report struct as written and derives its [`Field`]
/// impl: one key per field, in declaration order, each written by the
/// field's type or by the writer its `as` marker names.
macro_rules! blocks {
    (@put $obj:ident, $field:ident, $value:expr) => {
        $value.put(stringify!($field), $obj)
    };
    (@put $obj:ident, $field:ident, $value:expr, $writer:ident) => {
        $writer($value, stringify!($field), $obj)
    };
    ($(
        $(#[$attr:meta])*
        pub struct $name:ident {
            $($(#[$doc:meta])* pub $field:ident: $ty:ty $(as $writer:ident)?,)*
        }
    )*) => {$(
        $(#[$attr])*
        pub struct $name {
            $($(#[$doc])* pub $field: $ty,)*
        }

        impl Field for $name {
            fn to_json(&self) -> Json {
                let obj = Json::obj();
                $(let obj = blocks!(@put obj, $field, &self.$field $(, $writer)?);)*
                obj.build()
            }
        }
    )*};
}

blocks! {
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

    /// The outcome of an adversarial attack search (`attack.kind =
    /// "optimized"`): the worst attack found, its objective value, and the
    /// fixed-attack baseline with the same budget it is reported next to.
    /// Present only for optimized attacks, so every fixed-attack scenario —
    /// including all pre-search goldens — serializes exactly as before.
    #[derive(Debug, Clone, PartialEq)]
    pub struct AttackSearchReport {
        /// Objective token, canonical in
        /// [`OBJECTIVES`](crate::sweep::OBJECTIVES); lower values = more
        /// damage.
        pub objective: String,
        /// Candidate-set unit token, canonical in
        /// [`ATTACK_UNITS`](crate::sweep::ATTACK_UNITS).
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
        /// The same-budget fixed-attack baseline's kind token, canonical
        /// in [`ATTACK_KINDS`](crate::sweep::ATTACK_KINDS): leading planes
        /// for a plane budget, random satellites for a satellite budget.
        pub baseline: String,
        /// Objective value of that baseline (never better than
        /// `objective_value`: the baseline seeds the search).
        pub baseline_value: f64,
        /// Objective value of the intact, unattacked network.
        pub intact_value: f64,
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
        pub masking_threshold: Option<f64> as null,
        /// First loss fraction where this ordering's giant component falls
        /// more than `gap` below the random baseline's (`null`: never, or
        /// this *is* the random baseline).
        pub threshold_vs_random: Option<f64> as null,
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
        /// Solar-activity token, canonical in [`SOLAR`](crate::sweep::SOLAR).
        pub solar: String,
        /// Evaluation epoch \[Julian date\] of the radiation stage.
        pub epoch_jd: f64,
        /// Per-system results, always in **registry order** (`ss`, `wd`,
        /// `rgt`, `slim`, `starlink`) regardless of how the spec listed its
        /// kinds — so the JSON bytes are a pure function of the parameter
        /// point.
        pub systems: Vec<NamedSystemReport> as by_name,
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

impl ScenarioReport {
    /// The results of the system named `name`, if it was designed.
    pub fn system(&self, name: &str) -> Option<&SystemReport> {
        self.systems.iter().find(|s| s.system == name).map(|s| &s.report)
    }

    /// One JSON-lines record (no trailing newline). Each system is one
    /// top-level field keyed by its registry name, in registry order —
    /// byte-compatible with the pre-`Designer` fixed `ss`/`wd` layout.
    pub fn to_json_line(&self) -> String {
        self.to_json().to_string_compact()
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

        // Every block set at once: the exact bytes pin each key, its
        // order and the optional-field policy (absent blocks omitted,
        // thresholds and non-finite numbers written as `null`).
        assert_eq!(full_report(report.systems[0].clone()).to_json_line(), FULL_LINE);
    }

    /// [`full_report`]'s line, byte for byte.
    const FULL_LINE: &str = concat!(
        r#"{"name":"full","seed":1,"total_demand_b":10.0,"demand_multiplier":0.05,"#,
        r#""solar":"cycle24","epoch_jd":2456444.5,"#,
        r#""ss":{"#,
        r#""design":{"sats":100,"planes":4,"shells":4,"sats_per_plane":25,"inclination_deg":97.6,"#,
        r#""unserved_demand":0.0}},"#,
        r#""wd":{"#,
        r#""design":{"sats":200,"planes":10,"shells":2,"sats_per_plane":20,"#,
        r#""inclination_deg":53.0,"unserved_demand":1.5},"#,
        r#""fluence":{"median_electron":1000000000.0,"median_proton":25000000.0,"#,
        r#""mean_electron":1250000000.0,"mean_proton":30000000.0,"solar_activity":0.5},"#,
        r#""attack":{"planes_lost":2,"sats_lost":40,"capacity_retained":0.8},"#,
        r#""attack_search":{"objective":"routed-fraction","unit":"planes","budget":2,"#,
        r#""restarts":3,"candidates_scored":120,"candidates_unique":90,"objective_value":0.25,"#,
        r#""baseline":"leading-planes","baseline_value":0.5,"intact_value":1.0},"#,
        r#""survivability":{"availability":0.995,"failures":7,"replacements":6,"#,
        r#""lost_slot_days":12.5,"spares_consumed":6,"initial_spares":10},"#,
        r#""network":{"routed":190,"unrouted":10,"mean_stretch":1.25,"mean_hops":4.5,"#,
        r#""max_link_load":12.0,"mean_link_load":3.5,"reachable_slots":9,"slots":10,"handoffs":4,"#,
        r#""mean_delay_ms":42.5,"#,
        r#""served":{"flows":1000,"pairs":50,"offered":25.0,"served_fraction":0.75,"#,
        r#""dropped_fraction":0.125,"unattached_fraction":0.125,"utilization_p50":0.25,"#,
        r#""utilization_p90":0.5,"utilization_p99":0.875,"utilization_max":1.0},"#,
        r#""time_grid":{"slots":10,"connected_slots":9,"min_routed":180,"mean_routed":189.5,"#,
        r#""peak_link_load":14.0,"mean_link_load":3.25,"delay_p50_ms":40.0,"delay_p90_ms":60.5,"#,
        r#""delay_p99_ms":80.25,"handoffs":30},"#,
        r#""degraded":{"slots":10,"mean_alive_fraction":0.8,"min_alive":150,"connected_slots":7,"#,
        r#""min_routed":120,"mean_routed":150.5,"routed_fraction":0.75,"peak_link_load":20.0,"#,
        r#""mean_link_load":5.0,"load_inflation":null,"delay_p50_ms":45.0,"delay_p90_ms":70.0,"#,
        r#""delay_p99_ms":95.5},"#,
        r#""percolation":{"steps":2,"gap":0.1,"slots":3,"lambda2_intact":0.05,"#,
        r#""lambda2_residual":0.000000001,"lambda2_converged":true,"loss_fraction":[0.0,0.5,1.0],"#,
        r#""models":[{"model":"random-sats","masking_threshold":null,"threshold_vs_random":null,"#,
        r#""chi_peak_loss":0.5,"chi_peak":2.0,"mean_giant":0.5,"giant_curve":[1.0,0.5,0.0]},"#,
        r#"{"model":"attack","masking_threshold":0.25,"threshold_vs_random":0.5,"#,
        r#""chi_peak_loss":0.25,"chi_peak":3.0,"mean_giant":0.25,"giant_curve":[1.0,0.25,"#,
        r#"0.0]}]}}},"#,
        r#""rgt":{"#,
        r#""design":{"sats":200,"planes":10,"shells":2,"sats_per_plane":20,"#,
        r#""inclination_deg":53.0,"unserved_demand":1.5},"#,
        r#""survivability":{"availability":0.995,"failures":7,"replacements":6,"#,
        r#""lost_slot_days":12.5,"spares_consumed":6,"initial_spares":10,"#,
        r#""per_satellite":{"sats":200,"availability_per_ksat":4.975,"#,
        r#""lost_slot_days_per_sat":0.0625,"spares_per_sat":0.05}},"#,
        r#""network":{"routed":190,"unrouted":10,"mean_stretch":1.25,"mean_hops":4.5,"#,
        r#""max_link_load":12.0,"mean_link_load":3.5,"reachable_slots":9,"slots":10,"handoffs":4,"#,
        r#""mean_delay_ms":42.5,"#,
        r#""degraded":{"slots":10,"mean_alive_fraction":0.8,"min_alive":150,"connected_slots":7,"#,
        r#""min_routed":120,"mean_routed":150.5,"routed_fraction":0.75,"peak_link_load":20.0,"#,
        r#""mean_link_load":5.0,"load_inflation":1.5,"delay_p50_ms":45.0,"delay_p90_ms":70.0,"#,
        r#""delay_p99_ms":95.5,"served_fraction":0.5,"min_served_fraction":0.25}}}}"#,
    );

    /// `ss` as given, `wd` with every block set, and `rgt` with the
    /// optionals `wd` leaves out.
    fn full_report(ss: NamedSystemReport) -> ScenarioReport {
        let mut rgt =
            SystemReport { fluence: None, attack: None, attack_search: None, ..full_system() };
        rgt.survivability.as_mut().unwrap().per_satellite = Some(PerSatelliteReport {
            sats: 200,
            availability_per_ksat: 4.975,
            lost_slot_days_per_sat: 0.0625,
            spares_per_sat: 0.05,
        });
        let network = rgt.network.as_mut().unwrap();
        (network.served, network.time_grid, network.percolation) = (None, None, None);
        let degraded = network.degraded.as_mut().unwrap();
        degraded.load_inflation = 1.5;
        degraded.served_fraction = Some(0.5);
        degraded.min_served_fraction = Some(0.25);
        ScenarioReport {
            name: "full".to_string(),
            seed: 1,
            total_demand_b: 10.0,
            demand_multiplier: 0.05,
            solar: "cycle24".to_string(),
            epoch_jd: 2_456_444.5,
            systems: vec![
                ss,
                NamedSystemReport { system: "wd".to_string(), report: full_system() },
                NamedSystemReport { system: "rgt".to_string(), report: rgt },
            ],
        }
    }

    /// A system with every block set except `per_satellite`.
    fn full_system() -> SystemReport {
        SystemReport {
            design: DesignSummary {
                sats: 200,
                planes: 10,
                shells: 2,
                sats_per_plane: 20,
                inclination_deg: 53.0,
                unserved_demand: 1.5,
            },
            fluence: Some(FluenceReport {
                median_electron: 1e9,
                median_proton: 2.5e7,
                mean_electron: 1.25e9,
                mean_proton: 3e7,
                solar_activity: 0.5,
            }),
            attack: Some(AttackReport { planes_lost: 2, sats_lost: 40, capacity_retained: 0.8 }),
            attack_search: Some(AttackSearchReport {
                objective: "routed-fraction".to_string(),
                unit: "planes".to_string(),
                budget: 2,
                restarts: 3,
                candidates_scored: 120,
                candidates_unique: 90,
                objective_value: 0.25,
                baseline: "leading-planes".to_string(),
                baseline_value: 0.5,
                intact_value: 1.0,
            }),
            survivability: Some(SurvivabilityOutcome {
                availability: 0.995,
                failures: 7,
                replacements: 6,
                lost_slot_days: 12.5,
                spares_consumed: 6,
                initial_spares: 10,
                per_satellite: None,
            }),
            network: Some(full_network()),
        }
    }

    /// A network block with every sub-block set; `degraded` leaves its
    /// optionals out and has a non-finite `load_inflation`.
    fn full_network() -> NetworkReport {
        NetworkReport {
            routed: 190,
            unrouted: 10,
            mean_stretch: 1.25,
            mean_hops: 4.5,
            max_link_load: 12.0,
            mean_link_load: 3.5,
            reachable_slots: 9,
            slots: 10,
            handoffs: 4,
            mean_delay_ms: 42.5,
            served: Some(ServedDemandReport {
                flows: 1000,
                pairs: 50,
                offered: 25.0,
                served_fraction: 0.75,
                dropped_fraction: 0.125,
                unattached_fraction: 0.125,
                utilization_p50: 0.25,
                utilization_p90: 0.5,
                utilization_p99: 0.875,
                utilization_max: 1.0,
            }),
            time_grid: Some(TimeGridReport {
                slots: 10,
                connected_slots: 9,
                min_routed: 180,
                mean_routed: 189.5,
                peak_link_load: 14.0,
                mean_link_load: 3.25,
                delay_p50_ms: 40.0,
                delay_p90_ms: 60.5,
                delay_p99_ms: 80.25,
                handoffs: 30,
            }),
            degraded: Some(DegradedNetworkReport {
                slots: 10,
                mean_alive_fraction: 0.8,
                min_alive: 150,
                connected_slots: 7,
                min_routed: 120,
                mean_routed: 150.5,
                routed_fraction: 0.75,
                peak_link_load: 20.0,
                mean_link_load: 5.0,
                load_inflation: f64::NAN,
                delay_p50_ms: 45.0,
                delay_p90_ms: 70.0,
                delay_p99_ms: 95.5,
                served_fraction: None,
                min_served_fraction: None,
            }),
            percolation: Some(PercolationReport {
                steps: 2,
                gap: 0.1,
                slots: 3,
                lambda2_intact: 0.05,
                lambda2_residual: 1e-9,
                lambda2_converged: true,
                loss_fraction: vec![0.0, 0.5, 1.0],
                models: vec![
                    PercolationModelReport {
                        model: "random-sats".to_string(),
                        masking_threshold: None,
                        threshold_vs_random: None,
                        chi_peak_loss: 0.5,
                        chi_peak: 2.0,
                        mean_giant: 0.5,
                        giant_curve: vec![1.0, 0.5, 0.0],
                    },
                    PercolationModelReport {
                        model: "attack".to_string(),
                        masking_threshold: Some(0.25),
                        threshold_vs_random: Some(0.5),
                        chi_peak_loss: 0.25,
                        chi_peak: 3.0,
                        mean_giant: 0.25,
                        giant_curve: vec![1.0, 0.25, 0.0],
                    },
                ],
            }),
        }
    }
}
