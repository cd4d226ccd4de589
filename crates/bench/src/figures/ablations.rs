//! Ablations of the design choices called out in DESIGN.md §6:
//! branch-selection rule, minimum elevation, grid resolution, and the
//! Walker supply model.

use crate::render;
use ssplane_core::designer::{design_ss_constellation, BranchRule, DesignConfig};
use ssplane_core::error::Result;
use ssplane_core::walker_baseline::{
    design_walker_constellation, SupplyModel, WalkerBaselineConfig,
};
use ssplane_demand::grid::LatTodGrid;

/// One ablation outcome: a configuration label and the satellite count it
/// produces at the probe demand level.
#[derive(Debug, Clone, PartialEq)]
pub struct AblationRow {
    /// Which knob was varied.
    pub knob: &'static str,
    /// The setting.
    pub setting: String,
    /// Total satellites designed.
    pub total_sats: usize,
    /// Planes or shells.
    pub groups: usize,
}

/// Probe total-demand level for the ablations \[satellite capacities\].
const PROBE_TOTAL_B: f64 = 200.0;

/// Runs all ablations at the probe demand level.
///
/// # Errors
/// Propagates designer failure.
pub fn data() -> Result<Vec<AblationRow>> {
    let model = super::default_demand_model();
    let mut rows = Vec::new();

    // --- Branch rule (greedy plane selection) -------------------------
    let grid = super::default_grid(&model);
    let demand = grid.scaled(PROBE_TOTAL_B / grid.total());
    for rule in [BranchRule::BestOfBoth, BranchRule::AscendingOnly, BranchRule::Alternate] {
        let c = design_ss_constellation(
            &demand,
            DesignConfig { branch_rule: rule, ..Default::default() },
        )?;
        rows.push(AblationRow {
            knob: "branch_rule",
            setting: format!("{rule:?}"),
            total_sats: c.total_sats(),
            groups: c.planes.len(),
        });
    }

    // --- Minimum elevation ---------------------------------------------
    for elev in [15.0, 25.0, 30.0, 40.0] {
        let c = design_ss_constellation(
            &demand,
            DesignConfig { min_elevation_deg: elev, ..Default::default() },
        )?;
        rows.push(AblationRow {
            knob: "min_elevation_deg",
            setting: format!("{elev}"),
            total_sats: c.total_sats(),
            groups: c.planes.len(),
        });
    }

    // --- Grid resolution -------------------------------------------------
    for (lat_bins, tod_bins) in [(24usize, 16usize), (36, 24), (72, 48)] {
        let g = LatTodGrid::from_model(&model, lat_bins, tod_bins)?;
        let d = g.scaled(PROBE_TOTAL_B / g.total());
        let c = design_ss_constellation(&d, DesignConfig::default())?;
        rows.push(AblationRow {
            knob: "grid_resolution",
            setting: format!("{lat_bins}x{tod_bins}"),
            total_sats: c.total_sats(),
            groups: c.planes.len(),
        });
    }

    // --- Walker supply model (baseline strength) -------------------------
    for supply in [SupplyModel::WorstCase, SupplyModel::TimeAverage] {
        let c = design_walker_constellation(
            &demand,
            WalkerBaselineConfig { supply_model: supply, ..Default::default() },
        )?;
        rows.push(AblationRow {
            knob: "wd_supply_model",
            setting: format!("{supply:?}"),
            total_sats: c.total_sats(),
            groups: c.shells.len(),
        });
    }

    // --- Single- vs multi-shell baseline ---------------------------------
    for (label, candidates) in [
        ("multi_shell", vec![15.0, 25.0, 35.0, 45.0, 55.0, 65.0, 75.0, 85.0]),
        ("single_65deg", vec![65.0]),
    ] {
        let c = design_walker_constellation(
            &demand,
            WalkerBaselineConfig { candidate_inclinations_deg: candidates, ..Default::default() },
        )?;
        rows.push(AblationRow {
            knob: "wd_shells",
            setting: label.to_string(),
            total_sats: c.total_sats(),
            groups: c.shells.len(),
        });
    }

    Ok(rows)
}

/// Renders the ablation table.
pub fn render(rows: &[AblationRow]) -> String {
    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.knob.to_string(),
                r.setting.clone(),
                r.total_sats.to_string(),
                r.groups.to_string(),
            ]
        })
        .collect();
    render::table(&["knob", "setting", "total_sats", "planes/shells"], &table_rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ablations_run_and_are_robust() {
        let rows = data().unwrap();
        assert!(rows.len() >= 12);
        // Branch rules agree within 25% (the greedy is robust to the
        // choice, as the paper's loose specification implies).
        let branch: Vec<usize> =
            rows.iter().filter(|r| r.knob == "branch_rule").map(|r| r.total_sats).collect();
        let max = *branch.iter().max().unwrap() as f64;
        let min = *branch.iter().min().unwrap() as f64;
        assert!(max / min < 1.25, "branch-rule spread {min}..{max}");
        // Lower elevation mask -> fewer satellites (monotone).
        let elev: Vec<usize> =
            rows.iter().filter(|r| r.knob == "min_elevation_deg").map(|r| r.total_sats).collect();
        assert!(elev.windows(2).all(|w| w[0] <= w[1]), "elevation not monotone: {elev:?}");
        // The worst-case supply model is the stronger (larger) baseline.
        let supply: Vec<usize> =
            rows.iter().filter(|r| r.knob == "wd_supply_model").map(|r| r.total_sats).collect();
        assert!(supply[0] > supply[1], "worst-case {} vs time-average {}", supply[0], supply[1]);
        assert!(render(&rows).contains("wd_supply_model"));
    }
}
