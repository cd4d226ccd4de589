//! The built-in scenario library: the `scenarios/*.toml` files at the
//! repository root, embedded at compile time so `scenario-runner` can run
//! them by name anywhere and so the test suite pins them all as valid.

use crate::config::sweep_from_toml;
use crate::error::Result;
use crate::sweep::SweepSpec;

/// One built-in scenario file.
#[derive(Debug, Clone, Copy)]
pub struct Builtin {
    /// The name `scenario-runner` resolves.
    pub name: &'static str,
    /// One-line description for `--list`.
    pub summary: &'static str,
    /// The embedded TOML source.
    pub toml: &'static str,
}

/// Every built-in, in presentation order.
pub const BUILTINS: &[Builtin] = &[
    Builtin {
        name: "baseline",
        summary: "Figs. 9/10: SS vs Walker across demand levels, radiation + survivability",
        toml: include_str!("../../../scenarios/baseline.toml"),
    },
    Builtin {
        name: "paper-grid",
        summary: "36-point default grid: demand x solar activity x spare budget",
        toml: include_str!("../../../scenarios/paper-grid.toml"),
    },
    Builtin {
        name: "solar-sweep",
        summary: "solar min / mid / max sensitivity at two demand levels",
        toml: include_str!("../../../scenarios/solar-sweep.toml"),
    },
    Builtin {
        name: "plane-attack",
        summary: "plane-loss attacks x spare budgets: capacity retention and availability",
        toml: include_str!("../../../scenarios/plane-attack.toml"),
    },
    Builtin {
        name: "spare-budget",
        summary: "the '2-10 spares per plane' practice: budget x resupply cadence",
        toml: include_str!("../../../scenarios/spare-budget.toml"),
    },
    Builtin {
        name: "mega-constellation",
        summary: "demand pushed to 10k-satellite Walker scale",
        toml: include_str!("../../../scenarios/mega-constellation.toml"),
    },
    Builtin {
        name: "routing",
        summary: "traffic assignment + time-expanded NYC->London route over an SS design",
        toml: include_str!("../../../scenarios/routing.toml"),
    },
    Builtin {
        name: "walker-network",
        summary: "the same networking stage over the Walker baseline's plane geometry",
        toml: include_str!("../../../scenarios/walker-network.toml"),
    },
    Builtin {
        name: "design-shootout",
        summary: "the full designer registry side by side, scored per satellite spent",
        toml: include_str!("../../../scenarios/design-shootout.toml"),
    },
    Builtin {
        name: "design-catalog",
        summary: "deployed Starlink shells + slim Walker under whole-shell attacks",
        toml: include_str!("../../../scenarios/design-catalog.toml"),
    },
    Builtin {
        name: "time-resolved",
        summary: "multi-slot network.time_grid: per-slot connectivity, load, delay percentiles",
        toml: include_str!("../../../scenarios/time-resolved.toml"),
    },
    Builtin {
        name: "disruption",
        summary: "attack kinds x weibull failures: the outage-coupled degraded network stage",
        toml: include_str!("../../../scenarios/disruption.toml"),
    },
    Builtin {
        name: "attack-opt",
        summary: "adversarial attack search: the worst k-plane set vs the routed network",
        toml: include_str!("../../../scenarios/attack-opt.toml"),
    },
    Builtin {
        name: "traffic-scale",
        summary: "gravity-model demand under per-link capacities: the served-demand metric",
        toml: include_str!("../../../scenarios/traffic-scale.toml"),
    },
    Builtin {
        name: "percolation",
        summary: "phase-transition sweeps: targeted-vs-random masking thresholds, lambda2",
        toml: include_str!("../../../scenarios/percolation.toml"),
    },
];

/// Looks a built-in up by name.
pub fn find(name: &str) -> Option<&'static Builtin> {
    BUILTINS.iter().find(|b| b.name == name)
}

/// Parses a built-in into its sweep.
///
/// # Errors
/// Never for shipped built-ins (the test suite pins this); parse errors
/// would surface here if the embedded TOML were edited into invalidity.
pub fn sweep(builtin: &Builtin) -> Result<SweepSpec> {
    sweep_from_toml(builtin.toml)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_builtin_parses_and_expands() {
        for b in BUILTINS {
            let sweep = sweep(b).unwrap_or_else(|e| panic!("{} failed to parse: {e}", b.name));
            let specs =
                sweep.expand().unwrap_or_else(|e| panic!("{} failed to expand: {e}", b.name));
            assert!(!specs.is_empty(), "{} expands to nothing", b.name);
            assert_eq!(sweep.base.name, b.name, "file name key must match builtin name");
        }
    }

    #[test]
    fn every_scenario_file_is_a_builtin() {
        // With this, `every_builtin_parses_and_expands` covers the whole
        // directory: no file ships without the loader checking it.
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios");
        let mut on_disk = 0;
        for entry in std::fs::read_dir(&dir).expect("scenarios/ readable") {
            let path = entry.expect("directory entry").path();
            if path.extension().and_then(|e| e.to_str()) != Some("toml") {
                continue;
            }
            let stem = path.file_stem().and_then(|s| s.to_str()).expect("UTF-8 file name");
            let builtin = find(stem).unwrap_or_else(|| panic!("{stem}.toml is not a builtin"));
            let source = std::fs::read_to_string(&path).expect("scenario readable");
            assert_eq!(builtin.toml, source, "{stem}: builtin embeds another file");
            on_disk += 1;
        }
        assert_eq!(on_disk, BUILTINS.len(), "a builtin has no file of its name");
    }

    #[test]
    fn default_grid_has_at_least_24_points() {
        let grid = find("paper-grid").unwrap();
        assert!(sweep(grid).unwrap().expand().unwrap().len() >= 24);
    }

    #[test]
    fn library_covers_the_paper_axes() {
        for name in [
            "baseline",
            "solar-sweep",
            "plane-attack",
            "spare-budget",
            "mega-constellation",
            "walker-network",
            "design-shootout",
            "design-catalog",
            "time-resolved",
            "disruption",
            "attack-opt",
            "traffic-scale",
            "percolation",
        ] {
            assert!(find(name).is_some(), "missing builtin {name}");
        }
        assert!(find("nope").is_none());
    }
}
