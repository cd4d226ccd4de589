//! The declarative description of one experiment: which constellation(s)
//! to design, against what demand, under which radiation environment,
//! with what failure/spare/mission assumptions, and which pipeline stages
//! to run.
//!
//! A [`ScenarioSpec`] is a plain value: building one never touches the
//! pipeline, and running one (see [`crate::runner`]) is a pure function
//! of the spec — the same spec always produces the same
//! [`crate::report::ScenarioReport`].

use crate::error::{Result, ScenarioError};
use crate::sweep::{ATTACK_KINDS, OBJECTIVES};
use ssplane_astro::time::Epoch;
use ssplane_core::designer::DesignConfig;
use ssplane_core::rgt_analysis::RgtDesignConfig;
use ssplane_core::system::DESIGNER_REGISTRY;
use ssplane_core::walker_baseline::WalkerBaselineConfig;
use ssplane_lsn::disruption::{
    AttackModel, DeclinationBand, FailureProcess, LeadingPlanes, RadiationExponential, RandomSats,
    WeibullBathtub, WholeShell,
};
use ssplane_lsn::failures::FailureModel;
use ssplane_lsn::optimizer::{AttackBudget, AttackObjective, AttackSearchConfig};
use ssplane_lsn::spares::SparePolicy;
use ssplane_lsn::survivability::SurvivabilityConfig;

/// Constellation-design stage configuration: the designer knobs for every
/// system, embedded as the *actual* designer config structs so a
/// scenario run is bit-for-bit the same design the hand-written pipelines
/// produce.
#[derive(Debug, Clone, PartialEq)]
pub struct DesignSpec {
    /// Which systems to design, as canonical [`DESIGNER_REGISTRY`]
    /// names. Execution and reporting always follow registry order with
    /// duplicates collapsed, so the list's order never changes the
    /// output bytes.
    pub kinds: Vec<&'static str>,
    /// SS-plane designer configuration.
    pub ss: DesignConfig,
    /// Walker-baseline designer configuration.
    pub wd: WalkerBaselineConfig,
    /// RGT designer configuration.
    pub rgt: RgtDesignConfig,
    /// Fraction of each Walker shell's planes the `slim` designer keeps,
    /// in `(0, 1]` (`design.slim_plane_factor`).
    pub slim_plane_factor: f64,
    /// Plane floor per shell after slimming (`design.slim_min_planes`).
    pub slim_min_planes: usize,
    /// Uniform down-scale of the `starlink` catalog in `(0, 1]`
    /// (`design.starlink_scale`; `1.0` is the full deployed catalog).
    pub starlink_scale: f64,
}

impl DesignSpec {
    /// The kinds to execute, in registry order with duplicates collapsed.
    pub fn ordered_kinds(&self) -> Vec<&'static str> {
        DESIGNER_REGISTRY
            .iter()
            .map(|&(name, _)| name)
            .filter(|name| self.kinds.contains(name))
            .collect()
    }

    /// Whether `kind` is selected.
    pub(crate) fn includes(&self, kind: &str) -> bool {
        self.kinds.contains(&kind)
    }
}

impl Default for DesignSpec {
    fn default() -> Self {
        DesignSpec {
            kinds: vec!["ss", "wd"],
            ss: DesignConfig::default(),
            wd: WalkerBaselineConfig::default(),
            rgt: RgtDesignConfig::default(),
            slim_plane_factor: 0.5,
            slim_min_planes: 3,
            starlink_scale: 1.0,
        }
    }
}

/// Demand-model stage configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct DemandSpec {
    /// Total bandwidth demand, in multiples of one satellite's capacity
    /// (Fig. 9's x-axis). The synthetic demand grid is normalized so its
    /// total equals this.
    pub total_demand_b: f64,
    /// Latitude bins of the sun-relative demand grid.
    pub lat_bins: usize,
    /// Time-of-day bins of the sun-relative demand grid.
    pub tod_bins: usize,
    /// Seed of the synthetic demand synthesis (city placement). Scenarios
    /// sharing a seed share one synthesized model per process.
    pub seed: u64,
}

impl Default for DemandSpec {
    fn default() -> Self {
        // The paper's Fig. 8 resolution (5° × 1 h) at a mid-range demand;
        // seed 42 is the synthetic model's historical default.
        DemandSpec { total_demand_b: 200.0, lat_bins: 36, tod_bins: 24, seed: 42 }
    }
}

/// Solar-activity setting of the radiation environment; its tokens are
/// [`crate::sweep::SOLAR`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SolarActivity {
    /// Mid solar cycle 24 at the scenario's epoch (the figures' default).
    #[default]
    Cycle24,
    /// Force the epoch to the cycle-24 activity maximum (storm-time
    /// electron enhancement: the sustainability worst case).
    Max,
    /// Force the epoch to deep solar minimum.
    Min,
}

/// Radiation/fluence stage configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct RadiationSpec {
    /// Whether to run the fluence stage at all (design-only sweeps skip
    /// it; survivability requires it).
    pub enabled: bool,
    /// Solar-cycle setting; [`SolarActivity::Cycle24`] evaluates at the
    /// configured epoch, Max/Min override the epoch to the cycle extreme.
    pub solar: SolarActivity,
    /// Evaluation epoch as `(year, month, day)` UTC midnight. The default
    /// is the figures' reference epoch (2013-06-01, mid cycle 24).
    pub epoch_ymd: (i32, u32, u32),
    /// Orbit phases sampled per plane for the fluence statistics (the
    /// Fig. 10 sampling knob).
    pub phases: usize,
    /// Fluence integration step \[s\].
    pub step_s: f64,
}

impl Default for RadiationSpec {
    fn default() -> Self {
        RadiationSpec {
            enabled: true,
            solar: SolarActivity::Cycle24,
            epoch_ymd: (2013, 6, 1),
            phases: 2,
            step_s: 60.0,
        }
    }
}

impl RadiationSpec {
    /// The concrete evaluation epoch: the configured calendar date for
    /// [`SolarActivity::Cycle24`], or the cycle-24 activity extreme for
    /// Max/Min (computed from the cycle's phase envelope: the maximum sits
    /// at 40% of the period, the minimum at its start).
    pub fn epoch(&self) -> Epoch {
        let cycle = ssplane_radiation::solar::SolarCycle::cycle24();
        match self.solar {
            SolarActivity::Cycle24 => {
                let (y, m, d) = self.epoch_ymd;
                Epoch::from_calendar(y, m, d, 0, 0, 0.0)
            }
            SolarActivity::Max => cycle.start + 0.4 * cycle.period_days * 86_400.0,
            SolarActivity::Min => cycle.start + 0.02 * cycle.period_days * 86_400.0,
        }
    }
}

/// The failure-process family the survivability stage samples lifetimes
/// from — the spec's name for a
/// [`FailureProcess`] implementation. Its tokens are
/// [`crate::sweep::FAILURE_KINDS`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FailureKind {
    /// The radiation-driven exponential (the historical model).
    #[default]
    Exponential,
    /// The Weibull bathtub: infant mortality plus dose-accelerated
    /// wear-out.
    Weibull,
}

/// Failure-and-spares stage configuration (the survivability simulation).
#[derive(Debug, Clone, PartialEq)]
pub struct SurvivabilitySpec {
    /// Whether to run the survivability simulation (requires the
    /// radiation stage).
    pub enabled: bool,
    /// Which failure process samples satellite lifetimes.
    pub failure_kind: FailureKind,
    /// Radiation-driven exponential hazard model (the
    /// [`FailureKind::Exponential`] parameters, configured by the
    /// `failures.*` keys).
    pub failure: FailureModel,
    /// Bathtub parameters (the [`FailureKind::Weibull`] parameters,
    /// configured by the `survivability.failure.*` keys).
    pub weibull: WeibullBathtub,
    /// Spare-provisioning policy.
    pub policy: SparePolicy,
    /// Mission horizon \[years\].
    pub horizon_years: f64,
    /// Resupply cadence \[days\].
    pub resupply_days: f64,
    /// Whether to add the `per_satellite` block to the survivability
    /// report: the same outcomes normalized by constellation size, the
    /// design-shootout's survivability-per-satellite score. Off by
    /// default so pre-existing reports keep their bytes.
    pub per_satellite: bool,
}

impl Default for SurvivabilitySpec {
    fn default() -> Self {
        SurvivabilitySpec {
            enabled: true,
            failure_kind: FailureKind::default(),
            failure: FailureModel::default(),
            weibull: WeibullBathtub::default(),
            policy: SparePolicy::PerPlane { spares_per_plane: 3, replacement_days: 3.0 },
            horizon_years: 5.0,
            resupply_days: 180.0,
            per_satellite: false,
        }
    }
}

impl SurvivabilitySpec {
    /// The `ssplane-lsn` simulation config for a scenario seeded with
    /// `seed`.
    pub fn sim_config(&self, seed: u64) -> SurvivabilityConfig {
        SurvivabilityConfig {
            horizon_years: self.horizon_years,
            resupply_days: self.resupply_days,
            seed,
        }
    }

    /// The configured [`FailureProcess`], from the registry the
    /// `survivability.failure.kind` key names.
    pub fn process(&self) -> Box<dyn FailureProcess> {
        match self.failure_kind {
            FailureKind::Exponential => Box::new(RadiationExponential { model: self.failure }),
            FailureKind::Weibull => Box::new(self.weibull),
        }
    }
}

/// The attack family the attack stage applies — the spec's name for an
/// [`AttackModel`] implementation. Its tokens are
/// [`crate::sweep::ATTACK_KINDS`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AttackKind {
    /// Whole-plane loss at evenly strided plane indices (the historical
    /// `attack.planes_lost` semantics, byte-compatible).
    #[default]
    LeadingPlanes,
    /// Seeded uniform random satellite loss.
    RandomSats,
    /// Regional loss: every satellite inside a declination band at the
    /// scenario epoch (a debris-event signature).
    DeclinationBand,
    /// Loss of one whole evaluation shell (an SS plane, a Walker shell,
    /// or the RGT track).
    Shell,
    /// Adversarially *searched* loss: a seeded greedy + random-restart
    /// search ([`ssplane_lsn::optimizer`]) for the worst k-plane /
    /// k-satellite set against a degraded-network objective. Requires the
    /// network stage (the objective is a network metric).
    Optimized,
}

/// The candidate-set unit of an optimized attack search; its tokens are
/// [`crate::sweep::ATTACK_UNITS`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AttackUnit {
    /// Search over whole-plane sets.
    #[default]
    Planes,
    /// Search over individual-satellite sets.
    Sats,
}

/// The population-scale traffic workload family the network stage runs —
/// the spec's name for how `traffic.*` demand is synthesized. Its tokens
/// are [`crate::sweep::TRAFFIC_MODELS`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TrafficModel {
    /// The classic demand-weighted flow sample (`network.n_flows` unit
    /// flows): no capacity-constrained engine, byte-compatible with every
    /// pre-engine scenario.
    #[default]
    Sampled,
    /// The seeded gravity model over the population grid
    /// ([`ssplane_demand::gravity`]): `traffic.pairs` city-pair flows
    /// with real rate weights, aggregated by serving-satellite pair and
    /// assigned under per-link capacities — the served-demand metric.
    Gravity,
}

/// Population-scale traffic-engine configuration (the `traffic.*` keys).
/// Only consulted when the network stage is enabled; the default
/// [`TrafficModel::Sampled`] runs no engine at all, so every scenario
/// without a `[traffic]` section reports exactly as before.
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficSpec {
    /// Which workload family to synthesize.
    pub model: TrafficModel,
    /// City-pair flows the gravity model draws ([`TrafficModel::Gravity`]).
    pub pairs: usize,
    /// Gravity attraction sites: the top population cells flows are drawn
    /// between ([`TrafficModel::Gravity`]).
    pub sites: usize,
    /// Per-ISL capacity in satellite-capacity units (the same units as
    /// `demand.total_demand_b`; the workload's total offered rate is
    /// normalized to `demand.total_demand_b`).
    pub capacity_gbps: f64,
    /// Candidate paths per serving-satellite pair for the
    /// capacity-constrained splitting.
    pub k_paths: usize,
}

impl Default for TrafficSpec {
    fn default() -> Self {
        TrafficSpec {
            model: TrafficModel::Sampled,
            pairs: 100_000,
            sites: 256,
            capacity_gbps: 1.0,
            k_paths: 3,
        }
    }
}

/// The attack stage: a pluggable [`AttackModel`] destroys part of the
/// constellation before the survivability simulation, the capacity it
/// retains is reported, and — with `network.with_outages` — the degraded
/// network is evaluated over the masked fleet.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AttackSpec {
    /// Which attack model to apply.
    pub kind: AttackKind,
    /// Whole planes lost ([`AttackKind::LeadingPlanes`]; 0 disables the
    /// attack under that kind, preserving the historical semantics).
    pub planes_lost: usize,
    /// Satellites lost ([`AttackKind::RandomSats`]).
    pub sats_lost: usize,
    /// Band lower edge \[deg\] ([`AttackKind::DeclinationBand`]).
    pub band_min_deg: f64,
    /// Band upper edge \[deg\] ([`AttackKind::DeclinationBand`]).
    pub band_max_deg: f64,
    /// Evaluation-shell index to destroy ([`AttackKind::Shell`]).
    pub shell: usize,
    /// Degraded-network objective the search minimizes
    /// ([`AttackKind::Optimized`]).
    pub objective: AttackObjective,
    /// Candidate-set unit of the search ([`AttackKind::Optimized`]).
    pub unit: AttackUnit,
    /// Planes or satellites the searched attack may destroy
    /// ([`AttackKind::Optimized`]; a budget above the system's network
    /// plane or satellite count fails the point).
    pub budget: usize,
    /// Random-restart local searches after the greedy construction
    /// ([`AttackKind::Optimized`]).
    pub restarts: usize,
    /// Swap proposals per search start point ([`AttackKind::Optimized`]).
    pub swaps: usize,
    /// Damage-threshold fraction of the incremental candidate scorer
    /// ([`AttackKind::Optimized`]): shortest-path-tree repairs touching
    /// more than this fraction of the constellation fall back to a full
    /// recompute. Purely a performance knob — results are byte-identical
    /// either way. In `(0, 1]` whenever the network stage is on.
    pub damage_threshold: f64,
}

impl Default for AttackSpec {
    fn default() -> Self {
        AttackSpec {
            kind: AttackKind::default(),
            planes_lost: 0,
            sats_lost: 0,
            band_min_deg: -20.0,
            band_max_deg: 20.0,
            shell: 0,
            objective: AttackObjective::RoutedFraction,
            unit: AttackUnit::Planes,
            budget: 2,
            restarts: 3,
            swaps: 16,
            damage_threshold: ssplane_lsn::optimizer::DEFAULT_REPAIR_THRESHOLD,
        }
    }
}

impl AttackSpec {
    /// Whether the attack stage runs. [`AttackKind::LeadingPlanes`] with
    /// `planes_lost = 0` stays inactive (the historical "0 disables"
    /// contract the golden fixtures pin); every explicitly selected
    /// non-default kind is active, even if it happens to destroy
    /// nothing — a sweep's zero-loss point still gets its attack block.
    pub fn is_active(&self) -> bool {
        self.kind != AttackKind::LeadingPlanes || self.planes_lost > 0
    }

    /// The configured *fixed* [`AttackModel`], from the registry the
    /// `attack.kind` key names — `None` for [`AttackKind::Optimized`],
    /// whose destroyed set is a search outcome (driven by the network
    /// stage in the runner), not a pure function of the geometry.
    pub fn fixed_model(&self) -> Option<Box<dyn AttackModel>> {
        match self.kind {
            AttackKind::LeadingPlanes => {
                Some(Box::new(LeadingPlanes { planes_lost: self.planes_lost }))
            }
            AttackKind::RandomSats => Some(Box::new(RandomSats { sats_lost: self.sats_lost })),
            AttackKind::DeclinationBand => Some(Box::new(DeclinationBand {
                min_deg: self.band_min_deg,
                max_deg: self.band_max_deg,
            })),
            AttackKind::Shell => Some(Box::new(WholeShell { shell: self.shell })),
            AttackKind::Optimized => None,
        }
    }

    /// The optimizer configuration of an [`AttackKind::Optimized`] spec;
    /// `threads` caps candidate-scoring workers (`0` = the machine).
    pub fn search_config(&self, threads: usize) -> AttackSearchConfig {
        AttackSearchConfig {
            objective: self.objective,
            budget: match self.unit {
                AttackUnit::Planes => AttackBudget::Planes(self.budget),
                AttackUnit::Sats => AttackBudget::Sats(self.budget),
            },
            restarts: self.restarts,
            swaps: self.swaps,
            threads,
        }
    }
}

/// Traffic/routing stage configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkSpec {
    /// Whether to run the networking stage (builds ISL topologies per
    /// slot, for every designed system with satellites).
    pub enabled: bool,
    /// Number of demand-weighted ground flows to route.
    pub n_flows: usize,
    /// UTC hour at which flows are sampled, in `[0, 24)`.
    pub utc_hour: f64,
    /// Minimum terminal elevation \[deg\] for up/downlinks, in `[0, 90)`
    /// (the routing examples' 20°, more permissive than the design
    /// elevation).
    pub min_elevation_deg: f64,
    /// Maximum ISL range \[km\].
    pub max_range_km: f64,
    /// Time slots of the time-expanded reference route.
    pub slots: usize,
    /// Slot spacing \[s\].
    pub slot_s: f64,
    /// Slots of the traffic time grid: the whole topology + traffic
    /// stage is evaluated at this many instants starting at `utc_hour`,
    /// all fed from one shared [`SnapshotSeries`] propagation cache.
    /// `1` (the default) is the classic single-instant stage; `> 1` adds
    /// the time-resolved `time_grid` block to the network report.
    ///
    /// [`SnapshotSeries`]: ssplane_lsn::snapshot::SnapshotSeries
    pub time_grid_slots: usize,
    /// Spacing of the traffic time grid \[s\].
    pub time_grid_slot_s: f64,
    /// Whether to also evaluate the **degraded** network: the attack's
    /// destroyed set plus (when survivability is enabled) an outage
    /// timeline mask each grid slot's snapshot, and the per-slot
    /// degraded connectivity / routed fraction / load inflation is
    /// reported next to the intact baseline. Slot `k` of the grid
    /// samples the outage timeline at mission fraction `(k + 0.5) /
    /// slots`, so the grid doubles as a mission-life sampler.
    pub with_outages: bool,
    /// Whether to run the percolation stage: loss-fraction sweeps per
    /// attack model over the intact per-slot topologies (union-find
    /// replay, no re-propagation), algebraic connectivity λ₂ of the
    /// intact network, and the masking threshold of each targeted
    /// ordering against the random-loss baseline.
    pub percolation: bool,
    /// Loss-fraction steps of each percolation sweep (the curve has
    /// `steps + 1` points from 0 % to 100 % loss).
    pub percolation_steps: usize,
    /// Masking-threshold gap: the giant-component shortfall (vs the
    /// surviving fraction, and vs the random baseline) that counts as
    /// detected damage. In (0, 1).
    pub percolation_gap: f64,
}

impl Default for NetworkSpec {
    fn default() -> Self {
        NetworkSpec {
            enabled: false,
            n_flows: 200,
            utc_hour: 12.0,
            min_elevation_deg: 20.0,
            max_range_km: 5000.0,
            slots: 8,
            slot_s: 60.0,
            time_grid_slots: 1,
            time_grid_slot_s: 60.0,
            with_outages: false,
            percolation: false,
            percolation_steps: ssplane_lsn::percolation::DEFAULT_PERCOLATION_STEPS,
            percolation_gap: ssplane_lsn::percolation::DEFAULT_MASKING_GAP,
        }
    }
}

/// One fully-specified experiment.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ScenarioSpec {
    /// Human-readable scenario name (propagated into the report; sweep
    /// expansion appends the grid coordinates).
    pub name: String,
    /// Base RNG seed. Every stochastic stage derives its stream from this
    /// and the scenario's sweep coordinates — see
    /// [`crate::sweep::SweepSpec::expand`].
    pub seed: u64,
    /// Constellation design stage.
    pub design: DesignSpec,
    /// Demand stage.
    pub demand: DemandSpec,
    /// Radiation stage.
    pub radiation: RadiationSpec,
    /// Survivability stage.
    pub survivability: SurvivabilitySpec,
    /// Plane-loss attack.
    pub attack: AttackSpec,
    /// Networking stage.
    pub network: NetworkSpec,
    /// Population-scale traffic engine (rides the networking stage).
    pub traffic: TrafficSpec,
}

impl ScenarioSpec {
    /// A named spec with all defaults (the paper's baseline setup).
    pub fn named(name: &str) -> Self {
        ScenarioSpec { name: name.to_string(), seed: 42, ..Default::default() }
    }

    /// Validates a spec before a run: every ranged key against its
    /// `PARAMS` row (see [`crate::sweep`]), then the rules that tie keys
    /// together.
    ///
    /// # Errors
    /// [`ScenarioError::BadValue`] on the first violated constraint.
    pub fn validate(&self) -> Result<()> {
        for param in crate::sweep::PARAMS {
            param.check(self)?;
        }
        if self.survivability.enabled && !self.radiation.enabled {
            return Err(ScenarioError::bad_value(
                "survivability.enabled",
                "true",
                "radiation.enabled = true (the failure model is fluence-driven)",
            ));
        }
        if self.design.kinds.is_empty() {
            return Err(ScenarioError::bad_value("design.kinds", "[]", "at least one design kind"));
        }
        let attack = &self.attack;
        if attack.kind == AttackKind::DeclinationBand
            && !(attack.band_min_deg.is_finite()
                && attack.band_max_deg.is_finite()
                && attack.band_min_deg <= attack.band_max_deg)
        {
            return Err(ScenarioError::bad_value(
                "attack.band_min_deg/band_max_deg",
                &format!("[{}, {}]", attack.band_min_deg, attack.band_max_deg),
                "a finite band with band_min_deg <= band_max_deg",
            ));
        }
        if attack.kind == AttackKind::Optimized && !self.network.enabled {
            return Err(ScenarioError::bad_value(
                ATTACK_KINDS.key,
                ATTACK_KINDS.name(attack.kind),
                "network.enabled = true (the search scores candidates by a degraded-network \
                 objective)",
            ));
        }
        if attack.kind == AttackKind::Optimized
            && attack.objective == AttackObjective::ServedDemand
            && self.traffic.model != TrafficModel::Gravity
        {
            return Err(ScenarioError::bad_value(
                OBJECTIVES.key,
                OBJECTIVES.name(attack.objective),
                "traffic.model = \"gravity\" (the objective scores the capacity-constrained \
                 engine's served fraction)",
            ));
        }
        let network = &self.network;
        if !network.enabled {
            if network.percolation {
                return Err(ScenarioError::bad_value(
                    "network.percolation",
                    "true",
                    "network.enabled = true (the sweep replays the network stage's topologies)",
                ));
            }
            return Ok(());
        }
        // A multi-slot grid must step forward in time.
        let steps_forward = |slots: usize, s: f64| slots <= 1 || (s.is_finite() && s > 0.0);
        if !steps_forward(network.time_grid_slots, network.time_grid_slot_s) {
            return Err(ScenarioError::bad_value(
                "network.time_grid_slot_s",
                &network.time_grid_slot_s.to_string(),
                "> 0 for a multi-slot time grid",
            ));
        }
        if !steps_forward(network.slots, network.slot_s) {
            return Err(ScenarioError::bad_value(
                "network.slot_s",
                &network.slot_s.to_string(),
                "> 0 for a multi-slot reference route",
            ));
        }
        if network.with_outages && !attack.is_active() && !self.survivability.enabled {
            return Err(ScenarioError::bad_value(
                "network.with_outages",
                "true",
                "an active attack or survivability.enabled = true (otherwise the degraded \
                 network is the intact network)",
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::{MAX_N_FLOWS, MAX_TRAFFIC_PAIRS};
    use ssplane_radiation::fluence::{MAX_STEP_S, MIN_STEP_S};

    #[test]
    fn defaults_validate() {
        ScenarioSpec::named("x").validate().unwrap();
    }

    #[test]
    fn token_round_trips() {
        use crate::sweep::resolve_design_kind;
        for &(name, _) in DESIGNER_REGISTRY {
            assert_eq!(resolve_design_kind(name).unwrap(), name);
        }
        // Historical aliases still resolve to their canonical names.
        assert_eq!(resolve_design_kind("walker").unwrap(), "wd");
        assert_eq!(resolve_design_kind("ss-plane").unwrap(), "ss");
        assert_eq!(resolve_design_kind("ssplane").unwrap(), "ss");
        assert!(resolve_design_kind("sparkle").is_err());
        // Near misses get a did-you-mean hint naming the closest
        // registered designer.
        let err = resolve_design_kind("starlnk").unwrap_err().to_string();
        assert!(err.contains("did you mean `starlink`"), "{err}");
        let err = resolve_design_kind("slin").unwrap_err().to_string();
        assert!(err.contains("did you mean `slim`"), "{err}");
    }

    #[test]
    fn survivability_requires_radiation() {
        let mut spec = ScenarioSpec::named("x");
        spec.radiation.enabled = false;
        assert!(spec.validate().is_err());
        spec.survivability.enabled = false;
        spec.validate().unwrap();
    }

    #[test]
    fn networking_valid_for_every_design_kind() {
        // The SS-only restriction is gone: the network stage runs over
        // any designed system's plane geometry.
        let mut spec = ScenarioSpec::named("x");
        spec.network.enabled = true;
        for &(kind, _) in DESIGNER_REGISTRY {
            spec.design.kinds = vec![kind];
            spec.validate().unwrap();
        }
    }

    #[test]
    fn empty_kinds_rejected_and_ordering_is_canonical() {
        let mut spec = ScenarioSpec::named("x");
        spec.design.kinds = Vec::new();
        assert!(spec.validate().is_err());
        spec.design.kinds = vec!["rgt", "ss", "rgt"];
        spec.validate().unwrap();
        assert_eq!(spec.design.ordered_kinds(), vec!["ss", "rgt"]);
        assert!(spec.design.includes("rgt"));
        assert!(!spec.design.includes("wd"));
        spec.design.kinds = vec!["starlink", "slim", "ss"];
        assert_eq!(spec.design.ordered_kinds(), vec!["ss", "slim", "starlink"]);
    }

    #[test]
    fn slim_and_starlink_knobs_validated_when_selected() {
        let mut spec = ScenarioSpec::named("x");
        spec.design.kinds = vec!["slim", "starlink"];
        spec.validate().unwrap();
        for bad in [0.0, -1.0, 1.5, f64::NAN] {
            spec.design.slim_plane_factor = bad;
            assert!(spec.validate().is_err(), "slim_plane_factor {bad}");
        }
        spec.design.slim_plane_factor = 0.5;
        spec.design.slim_min_planes = 0;
        assert!(spec.validate().is_err());
        spec.design.slim_min_planes = 3;
        for bad in [0.0, 2.0, f64::NAN] {
            spec.design.starlink_scale = bad;
            assert!(spec.validate().is_err(), "starlink_scale {bad}");
        }
        spec.design.starlink_scale = 0.25;
        spec.validate().unwrap();
        // Unselected designers do not police their knobs.
        spec.design.kinds = vec!["ss"];
        spec.design.starlink_scale = 0.0;
        spec.design.slim_plane_factor = 0.0;
        spec.validate().unwrap();
    }

    #[test]
    fn time_grid_validation() {
        let mut spec = ScenarioSpec::named("x");
        spec.network.enabled = true;
        spec.validate().unwrap();
        spec.network.time_grid_slots = 0;
        assert!(spec.validate().is_err());
        spec.network.time_grid_slots = 4;
        spec.network.time_grid_slot_s = 0.0;
        assert!(spec.validate().is_err());
        spec.network.time_grid_slot_s = 120.0;
        spec.validate().unwrap();
        // The reference route's grid follows the same rules.
        spec.network.slots = 0;
        assert!(spec.validate().is_err());
        spec.network.slots = 1;
        spec.network.slot_s = -120.0;
        spec.validate().unwrap();
        spec.network.slots = 3;
        assert!(spec.validate().is_err());
        spec.network.slot_s = 120.0;
        spec.validate().unwrap();
        // A disabled network stage does not police its grids.
        spec.network.enabled = false;
        spec.network.time_grid_slots = 0;
        spec.network.slots = 0;
        spec.validate().unwrap();
    }

    #[test]
    fn radiation_step_and_phases_must_be_in_range() {
        let mut spec = ScenarioSpec::named("x");
        for bad in [0.0, 0.5, 600.5, 3600.0, -60.0, f64::NAN, f64::INFINITY] {
            spec.radiation.step_s = bad;
            let err = spec.validate().unwrap_err().to_string();
            assert!(err.contains("radiation.step_s"), "{bad}: {err}");
        }
        for good in [MIN_STEP_S, 60.0, 120.0, 300.0, MAX_STEP_S] {
            spec.radiation.step_s = good;
            spec.validate().unwrap();
        }
        spec.radiation.phases = 0;
        let err = spec.validate().unwrap_err().to_string();
        assert!(err.contains("radiation.phases"), "{err}");
        spec.radiation.phases = 3;
        spec.validate().unwrap();
        // A disabled radiation stage does not police its knobs.
        spec.radiation.enabled = false;
        spec.survivability.enabled = false;
        spec.radiation.phases = 0;
        spec.radiation.step_s = 3600.0;
        spec.validate().unwrap();
    }

    #[test]
    fn max_range_must_be_finite_and_positive() {
        let mut spec = ScenarioSpec::named("x");
        spec.network.enabled = true;
        for bad in [-5.0, 0.0, f64::NAN, f64::INFINITY] {
            spec.network.max_range_km = bad;
            let err = spec.validate().unwrap_err().to_string();
            assert!(err.contains("network.max_range_km"), "{bad}: {err}");
        }
        spec.network.max_range_km = 2500.0;
        spec.validate().unwrap();
        // A disabled network stage does not police its range.
        spec.network.enabled = false;
        spec.network.max_range_km = -5.0;
        spec.validate().unwrap();
    }

    #[test]
    fn flow_and_pair_budgets_are_bounded() {
        let mut spec = ScenarioSpec::named("x");
        spec.network.enabled = true;
        spec.network.n_flows = MAX_N_FLOWS;
        spec.validate().unwrap();
        spec.network.n_flows = MAX_N_FLOWS + 1;
        let err = spec.validate().unwrap_err().to_string();
        assert!(err.contains("network.n_flows"), "{err}");
        // A disabled network stage samples no flows.
        spec.network.enabled = false;
        spec.validate().unwrap();

        spec.traffic.model = TrafficModel::Gravity;
        spec.traffic.pairs = MAX_TRAFFIC_PAIRS;
        spec.validate().unwrap();
        spec.traffic.pairs = MAX_TRAFFIC_PAIRS + 1;
        let err = spec.validate().unwrap_err().to_string();
        assert!(err.contains("traffic.pairs"), "{err}");
    }

    #[test]
    fn attack_and_failure_tokens_round_trip() {
        // Every attack token but `optimized` configures a fixed model;
        // the optimized kind's destroyed set is a search outcome, not a
        // geometry function.
        for &(kind, _) in crate::sweep::ATTACK_KINDS.values {
            let spec = AttackSpec { kind, ..Default::default() };
            assert_eq!(spec.fixed_model().is_none(), kind == AttackKind::Optimized, "{kind:?}");
        }
        let optimized = AttackSpec { kind: AttackKind::Optimized, ..Default::default() };
        assert!(optimized.is_active());
        // Every failure token configures a valid process.
        for &(failure_kind, _) in crate::sweep::FAILURE_KINDS.values {
            let spec = SurvivabilitySpec { failure_kind, ..Default::default() };
            spec.process().validate().unwrap();
        }
    }

    #[test]
    fn attack_activity_rules() {
        let mut spec = AttackSpec::default();
        assert!(!spec.is_active(), "default leading-planes with 0 planes stays off");
        spec.planes_lost = 2;
        assert!(spec.is_active());
        for kind in [AttackKind::RandomSats, AttackKind::DeclinationBand, AttackKind::Shell] {
            let spec = AttackSpec { kind, ..Default::default() };
            assert!(spec.is_active(), "{kind:?} is active when selected");
        }
    }

    #[test]
    fn with_outages_needs_a_disruption_source() {
        let mut spec = ScenarioSpec::named("x");
        spec.network.enabled = true;
        spec.network.with_outages = true;
        spec.validate().unwrap(); // survivability is on by default
        spec.survivability.enabled = false;
        assert!(spec.validate().is_err(), "no attack and no survivability");
        spec.attack.planes_lost = 1;
        spec.validate().unwrap(); // attack-only masking is fine
                                  // A disabled network stage does not police the switch.
        spec.attack.planes_lost = 0;
        spec.network.enabled = false;
        spec.validate().unwrap();
    }

    #[test]
    fn percolation_needs_the_network_stage_and_sane_knobs() {
        let mut spec = ScenarioSpec::named("x");
        spec.network.percolation = true;
        assert!(spec.validate().is_err(), "percolation rides the network stage");
        spec.network.enabled = true;
        spec.validate().unwrap();
        spec.network.percolation_steps = 0;
        assert!(spec.validate().is_err(), "a sweep needs at least one step");
        spec.network.percolation_steps = 8;
        for bad in [0.0, 1.0, -0.25, f64::NAN] {
            spec.network.percolation_gap = bad;
            assert!(spec.validate().is_err(), "gap {bad} must be in (0, 1)");
        }
        spec.network.percolation_gap = 0.1;
        spec.validate().unwrap();
        // The knobs are policed with the percolation stage off too (the
        // network stage's evaluator takes them); a disabled network
        // stage skips them.
        spec.network.percolation = false;
        spec.network.percolation_steps = 0;
        assert!(spec.validate().is_err());
        spec.network.enabled = false;
        spec.validate().unwrap();
    }

    #[test]
    fn evaluator_knobs_are_checked_whenever_the_network_runs() {
        let mut spec = ScenarioSpec::named("x");
        spec.network.enabled = true;
        // A fixed attack and no percolation stage: the knobs still reach
        // the network stage's evaluator, so they must be in range.
        for bad in [0.0, -0.5, 1.5, f64::NAN] {
            spec.attack.damage_threshold = bad;
            let err = spec.validate().unwrap_err().to_string();
            assert!(err.contains("attack.damage_threshold"), "{bad}: {err}");
        }
        spec.attack.damage_threshold = 1.0;
        spec.validate().unwrap();
        spec.network.percolation_steps = 0;
        let err = spec.validate().unwrap_err().to_string();
        assert!(err.contains("network.percolation_steps"), "{err}");
        spec.network.percolation_steps = 4;
        for bad in [0.0, 1.0, f64::INFINITY] {
            spec.network.percolation_gap = bad;
            let err = spec.validate().unwrap_err().to_string();
            assert!(err.contains("network.percolation_gap"), "{bad}: {err}");
        }
        // With the network stage off no evaluator is built.
        spec.network.enabled = false;
        spec.attack.damage_threshold = 7.0;
        spec.validate().unwrap();
    }

    #[test]
    fn optimized_attack_tokens_and_search_config() {
        let spec = AttackSpec {
            kind: AttackKind::Optimized,
            unit: AttackUnit::Sats,
            budget: 9,
            restarts: 5,
            swaps: 7,
            ..Default::default()
        };
        let config = spec.search_config(3);
        assert_eq!(config.budget, AttackBudget::Sats(9));
        assert_eq!(config.restarts, 5);
        assert_eq!(config.swaps, 7);
        assert_eq!(config.threads, 3);
        assert_eq!(
            AttackSpec { unit: AttackUnit::Planes, budget: 4, ..spec }.search_config(0).budget,
            AttackBudget::Planes(4)
        );
    }

    #[test]
    fn optimized_attack_requires_the_network_stage() {
        let mut spec = ScenarioSpec::named("x");
        spec.attack.kind = AttackKind::Optimized;
        assert!(spec.validate().is_err(), "no network stage to score candidates against");
        spec.network.enabled = true;
        spec.validate().unwrap();
    }

    #[test]
    fn traffic_tokens_round_trip_and_validation_rules() {
        let mut spec = ScenarioSpec::named("x");
        spec.traffic.capacity_gbps = 0.0;
        assert!(spec.validate().is_err(), "zero capacity rejected");
        spec.traffic.capacity_gbps = 2.0;
        spec.traffic.k_paths = 0;
        assert!(spec.validate().is_err(), "zero k_paths rejected");
        spec.traffic.k_paths = 2;
        spec.validate().unwrap();

        // Gravity needs a non-degenerate pair/site budget.
        spec.traffic.model = TrafficModel::Gravity;
        spec.traffic.pairs = 0;
        assert!(spec.validate().is_err());
        spec.traffic.pairs = 100;
        spec.traffic.sites = 1;
        assert!(spec.validate().is_err());
        spec.traffic.sites = 16;
        spec.validate().unwrap();
    }

    #[test]
    fn served_demand_objective_requires_the_gravity_model() {
        let mut spec = ScenarioSpec::named("x");
        spec.network.enabled = true;
        spec.attack.kind = AttackKind::Optimized;
        spec.attack.objective = AttackObjective::ServedDemand;
        assert!(spec.validate().is_err(), "no gravity workload to score");
        spec.traffic.model = TrafficModel::Gravity;
        spec.validate().unwrap();
        // A non-optimized attack never consults the objective.
        spec.traffic.model = TrafficModel::Sampled;
        spec.attack.kind = AttackKind::LeadingPlanes;
        spec.validate().unwrap();
    }

    #[test]
    fn inverted_declination_band_rejected() {
        let mut spec = ScenarioSpec::named("x");
        spec.attack.kind = AttackKind::DeclinationBand;
        spec.attack.band_min_deg = 30.0;
        spec.attack.band_max_deg = -30.0;
        assert!(spec.validate().is_err());
        spec.attack.band_max_deg = 45.0;
        spec.validate().unwrap();
    }

    #[test]
    fn solar_extremes_move_the_epoch() {
        let mut spec = RadiationSpec::default();
        let mid = spec.epoch();
        spec.solar = SolarActivity::Max;
        let max = spec.epoch();
        spec.solar = SolarActivity::Min;
        let min = spec.epoch();
        let cycle = ssplane_radiation::solar::SolarCycle::cycle24();
        assert!(cycle.activity(max) > 0.8, "max activity {}", cycle.activity(max));
        assert!(cycle.activity(min) < 0.25, "min activity {}", cycle.activity(min));
        assert_ne!(mid, max);
    }
}
