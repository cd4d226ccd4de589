//! The benchmark's workloads: each is a scenario sweep generated from the
//! seed argument as TOML and loaded through the public config API, so a
//! workload is exactly what a user would feed `scenario-runner`.
//!
//! The seed is the scenario seed: it drives every stochastic stream of
//! the sweep (failure draws, flow and gravity-pair sampling, the attack
//! search). The population grid stays at [`DEMAND_SEED`], so every seed
//! designs the same constellations and asks for the same amount of work.

use ssplane_scenario::config::sweep_from_toml;
use ssplane_scenario::{ScenarioReport, SweepSpec};

/// The seed a run uses when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 1;

/// A seed kept out of tuning: a claimed gain must also hold here.
pub const HELD_OUT_SEED: u64 = 1009;

/// `demand.seed` of every workload (the synthetic model's historical
/// default): the grid set-up synthesizes and the sweep runs on.
pub const DEMAND_SEED: u64 = 42;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's Fig. 9/10 pipeline: design, fluence and survivability
    /// over 48 cheap points, network off.
    PaperSweep,
    /// One ~10k-satellite network point: snapshot, +grid topology,
    /// gravity traffic engine, degraded pass and percolation.
    MegaNetwork,
    /// The optimized plane attack over four objectives: thousands of
    /// incremental scorings against one prebuilt evaluator per point.
    AttackSearch,
}

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const ALL: [Workload; 3] =
    [Workload::PaperSweep, Workload::MegaNetwork, Workload::AttackSearch];

impl Workload {
    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperSweep => "paper-sweep",
            Workload::MegaNetwork => "mega-network",
            Workload::AttackSearch => "attack-search",
        }
    }

    /// The workload a name selects.
    pub fn parse(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    /// Expanded points of the sweep.
    pub fn points(self) -> usize {
        match self {
            Workload::PaperSweep => 48,
            Workload::MegaNetwork => 1,
            Workload::AttackSearch => 4,
        }
    }

    /// The sweep as scenario TOML for `seed`.
    pub fn toml(self, seed: u64) -> String {
        let body = match self {
            Workload::PaperSweep => PAPER_SWEEP,
            Workload::MegaNetwork => MEGA_NETWORK,
            Workload::AttackSearch => ATTACK_SEARCH,
        };
        format!(
            "name = \"{}\"\nseed = {seed}\n\n[demand]\nseed = {DEMAND_SEED}\n{body}",
            self.name()
        )
    }

    /// The sweep for `seed`, parsed and validated.
    ///
    /// # Errors
    /// A seed TOML cannot hold (above `i64::MAX`), or a config the
    /// scenario crate rejects.
    pub fn sweep(self, seed: u64) -> Result<SweepSpec, String> {
        if i64::try_from(seed).is_err() {
            return Err(format!("seed {seed} does not fit a TOML integer"));
        }
        let sweep =
            sweep_from_toml(&self.toml(seed)).map_err(|e| format!("{}: {e}", self.name()))?;
        sweep.base.validate().map_err(|e| format!("{}: {e}", self.name()))?;
        Ok(sweep)
    }

    /// Checks the workload's reports against what the pipeline promises
    /// for it, returning one message per broken promise. Failed points
    /// are counted by the caller, not here.
    pub fn check_reports(self, reports: &[&ScenarioReport]) -> Vec<String> {
        let mut problems = Vec::new();
        for report in reports {
            let mut fail = |what: &str| problems.push(format!("{}: {what}", report.name));
            for kind in self.systems() {
                let Some(sys) = report.system(kind) else {
                    fail(&format!("no {kind} system"));
                    continue;
                };
                if sys.design.sats == 0 {
                    fail(&format!("{kind} designed no satellites"));
                }
                match self {
                    Workload::PaperSweep => {
                        let avail = sys.survivability.as_ref().map(|s| s.availability);
                        if sys.fluence.is_none() || !avail.is_some_and(|a| (0.0..=1.0).contains(&a))
                        {
                            fail(&format!("{kind} lacks fluence or a valid availability"));
                        }
                    }
                    Workload::MegaNetwork => {
                        let net = sys.network.as_ref();
                        let lambda2 =
                            net.and_then(|n| n.percolation.as_ref()).map(|p| p.lambda2_intact);
                        if net.is_none_or(|n| n.degraded.is_none() || n.served.is_none())
                            || !lambda2.is_some_and(|l| l > 0.0)
                        {
                            fail(&format!("{kind} lacks degraded, served or percolation blocks"));
                        }
                    }
                    Workload::AttackSearch => {
                        let search = sys.attack_search.as_ref();
                        if !search.is_some_and(|s| s.objective_value <= s.baseline_value) {
                            fail(&format!("{kind} search is missing or weaker than its baseline"));
                        }
                        if sys.network.as_ref().is_none_or(|n| n.degraded.is_none()) {
                            fail(&format!("{kind} lacks the degraded network block"));
                        }
                    }
                }
            }
        }
        problems
    }

    /// The designed systems every point reports.
    fn systems(self) -> &'static [&'static str] {
        match self {
            Workload::PaperSweep | Workload::MegaNetwork => &["ss", "wd"],
            Workload::AttackSearch => &["ss"],
        }
    }
}

/// Demand x solar activity x spare budget over SS and the demand-aware
/// Walker baseline: the paper's Fig. 9/10 grid, extended to 5000 B.
const PAPER_SWEEP: &str = r#"
[design]
kinds = ["ss", "wd"]

[radiation]
phases = 1
step_s = 120.0

[survivability]
horizon_years = 5.0

[sweep]
"demand.total_demand_b" = [10.0, 50.0, 100.0, 200.0, 500.0, 1000.0, 2000.0, 5000.0]
"radiation.solar" = ["min", "cycle24", "max"]
"spares.count" = [2, 6]
"#;

/// SS + Walker at 600 B (~2.6k + ~8k satellites) under a fixed 4-plane
/// attack, on a 4-slot grid with outages, 100k gravity pairs and a
/// 32-step percolation sweep.
const MEGA_NETWORK: &str = r#"total_demand_b = 600.0

[design]
kinds = ["ss", "wd"]

[radiation]
enabled = false

[survivability]
enabled = false

[attack]
planes_lost = 4

[network]
enabled = true
n_flows = 200
utc_hour = 12.0
min_elevation_deg = 20.0
slots = 4
slot_s = 420.0
time_grid_slots = 4
time_grid_slot_s = 420.0
with_outages = true
percolation = true
percolation_steps = 32

[traffic]
model = "gravity"
pairs = 100000
sites = 64
k_paths = 2
"#;

/// SS at 300 B (~1.4k satellites): an optimized 4-plane attack swept over
/// four objectives, on a 4-slot grid with 20k gravity pairs.
const ATTACK_SEARCH: &str = r#"total_demand_b = 300.0

[design]
kinds = ["ss"]

[radiation]
enabled = false

[survivability]
enabled = false

[attack]
kind = "optimized"
unit = "planes"
budget = 4
restarts = 4
swaps = 24

[network]
enabled = true
n_flows = 80
utc_hour = 12.0
min_elevation_deg = 20.0
slots = 4
slot_s = 420.0
time_grid_slots = 4
time_grid_slot_s = 420.0
with_outages = true

[traffic]
model = "gravity"
pairs = 20000
sites = 64
k_paths = 2

[sweep]
"attack.objective" = ["routed-fraction", "served-demand", "load-inflation", "masking-threshold"]
"#;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_parses_validates_and_expands_for_both_seeds() {
        for w in ALL {
            for seed in [DEFAULT_SEED, HELD_OUT_SEED] {
                let sweep = w.sweep(seed).unwrap_or_else(|e| panic!("{}: {e}", w.name()));
                let specs = sweep.expand().unwrap_or_else(|e| panic!("{}: {e}", w.name()));
                assert_eq!(specs.len(), w.points(), "{} point count", w.name());
                for spec in &specs {
                    assert_eq!(spec.demand.seed, DEMAND_SEED, "one population grid for every seed");
                    spec.validate().expect("expanded points validate");
                }
            }
        }
    }

    #[test]
    fn seeds_change_the_inputs_and_names_round_trip() {
        for w in ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
            assert_ne!(w.toml(DEFAULT_SEED), w.toml(HELD_OUT_SEED));
            assert_eq!(w.toml(DEFAULT_SEED), w.toml(DEFAULT_SEED));
        }
        assert_eq!(Workload::parse("nope"), None);
        assert!(Workload::PaperSweep.sweep(u64::MAX).is_err());
    }
}
