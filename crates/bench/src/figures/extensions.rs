//! Extension experiments beyond the paper's figures: the sustainability
//! ledger (title claim, quantified) and per-plane eclipse/power
//! feasibility — two of the "future work" directions §5 sketches, made
//! measurable.

use crate::render;
use ssplane_core::designer::{design_ss_constellation, DesignConfig};
use ssplane_core::error::Result as CoreResult;
use ssplane_core::sustainability::{assess, SustainabilityParams, SustainabilityReport};
use ssplane_core::walker_baseline::{design_walker_constellation, WalkerBaselineConfig};
use ssplane_lsn::failures::FailureModel;
use ssplane_radiation::fluence::daily_fluence;
use ssplane_radiation::RadiationEnvironment;

/// The extension dataset.
#[derive(Debug, Clone)]
pub struct ExtensionData {
    /// Probe total-demand level.
    pub total_b: f64,
    /// Sustainability ledgers (SS, WD).
    pub sustainability: (SustainabilityReport, SustainabilityReport),
    /// Per-plane `(LTAN h, eclipse fraction)` of the SS design.
    pub eclipse_by_plane: Vec<(f64, f64)>,
}

/// Runs the extension experiments at total demand `total_b`.
///
/// # Errors
/// Propagates design or fluence failure.
pub fn data(total_b: f64) -> CoreResult<ExtensionData> {
    let model = super::default_demand_model();
    let grid = super::default_grid(&model);
    let demand = grid.scaled(total_b / grid.total());
    let epoch = super::design_epoch();
    let env = RadiationEnvironment::default();

    let ss = design_ss_constellation(&demand, DesignConfig::default())?;
    let wd = design_walker_constellation(&demand, WalkerBaselineConfig::default())?;

    // Representative doses.
    let ss_dose = {
        let el = ss.planes[0].orbit.elements_at(epoch, 0.0)?;
        daily_fluence(&env, &el, epoch, 60.0)?
    };
    // Dose of the WD shell holding the most satellites.
    let wd_dose = {
        let shell =
            wd.shells.iter().max_by_key(|s| s.n_sats).expect("baseline has at least one shell");
        let el = ssplane_astro::kepler::OrbitalElements::circular(
            shell.altitude_km,
            shell.inclination,
            0.0,
            0.0,
        )?;
        daily_fluence(&env, &el, epoch, 60.0)?
    };

    // Both ledgers take their failure rates from the one failure model
    // the survivability stage samples lifetimes from.
    let failures = FailureModel::default();
    let params = SustainabilityParams::default();
    let ss_hazard = failures.hazard_per_year(ss_dose);
    let ss_ledger = assess(ss.total_sats(), ss.planes.len(), ss_hazard, true, params)?;
    let wd_shell_count: usize = wd.shells.iter().map(|s| s.planes).sum();
    let wd_hazard = failures.hazard_per_year(wd_dose);
    let wd_ledger = assess(wd.total_sats(), wd_shell_count, wd_hazard, false, params)?;

    let eclipse_by_plane = ss
        .planes
        .iter()
        .map(|p| {
            let el = p.orbit.elements_at(epoch, 0.0)?;
            Ok((p.orbit.ltan_h, ssplane_astro::eclipse::orbit_eclipse_fraction(epoch, &el)))
        })
        .collect::<CoreResult<Vec<_>>>()?;

    Ok(ExtensionData { total_b, sustainability: (ss_ledger, wd_ledger), eclipse_by_plane })
}

/// Renders the extension report.
pub fn render(d: &ExtensionData) -> String {
    let (ss, wd) = &d.sustainability;
    let ledger_rows = vec![
        vec![
            "SS-plane".to_string(),
            ss.active_sats.to_string(),
            ss.spare_sats.to_string(),
            render::fnum(ss.fleet_mass_kg / 1000.0),
            render::fnum(ss.launches_per_year),
            render::fnum(ss.reentry_aerosol_kg_per_year),
        ],
        vec![
            "Walker".to_string(),
            wd.active_sats.to_string(),
            wd.spare_sats.to_string(),
            render::fnum(wd.fleet_mass_kg / 1000.0),
            render::fnum(wd.launches_per_year),
            render::fnum(wd.reentry_aerosol_kg_per_year),
        ],
    ];
    let mut out = format!("# sustainability ledger at total demand B = {}\n", d.total_b);
    out.push_str(&render::table(
        &["design", "active", "spares", "fleet_mass_t", "launches/yr", "aerosol_kg/yr"],
        &ledger_rows,
    ));
    out.push_str("\n# SS plane eclipse fractions (power feasibility per LTAN)\n");
    let rows: Vec<Vec<String>> = d
        .eclipse_by_plane
        .iter()
        .map(|&(ltan, frac)| vec![format!("{ltan:.2}"), format!("{frac:.3}")])
        .collect();
    out.push_str(&render::table(&["ltan_h", "eclipse_fraction"], &rows));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extensions_reproduce_title_claim() {
        let d = data(100.0).unwrap();
        let (ss, wd) = &d.sustainability;
        // Sustainability AND survivability: smaller fleet mass, fewer
        // launches, less re-entry aerosol — despite the retrograde launch
        // penalty.
        assert!(ss.fleet_mass_kg < wd.fleet_mass_kg);
        assert!(ss.launches_per_year < wd.launches_per_year);
        assert!(ss.reentry_aerosol_kg_per_year < wd.reentry_aerosol_kg_per_year);
        // Eclipse fractions physical.
        assert!(!d.eclipse_by_plane.is_empty());
        for &(ltan, frac) in &d.eclipse_by_plane {
            assert!((0.0..24.0).contains(&ltan));
            assert!((0.0..0.45).contains(&frac));
        }
        assert!(render(&d).contains("fleet_mass_t"));
    }

    #[test]
    fn ledgers_are_pinned_bit_for_bit() {
        // The ledgers' exact bits: any change to the hazard expression
        // (`FailureModel::hazard_per_year`) or its evaluation order shows
        // here, not just a change in the SS < WD ordering.
        let d = data(100.0).unwrap();
        let bits = |r: &SustainabilityReport| {
            (
                r.active_sats,
                r.spare_sats,
                r.fleet_mass_kg.to_bits(),
                r.replacement_rate_per_year.to_bits(),
                r.launches_per_year.to_bits(),
                r.reentry_aerosol_kg_per_year.to_bits(),
            )
        };
        let (ss, wd) = &d.sustainability;
        assert_eq!(
            bits(ss),
            (
                550,
                33,
                0x411f_5040_0000_0001,
                0x4061_94d8_44c2_9e5f,
                0x401e_f17c_a1fa_5e6a,
                0x40e0_7b8a_c076_7479
            )
        );
        assert_eq!(
            bits(wd),
            (
                2744,
                234,
                0x4142_2d20_0000_0000,
                0x4086_bac9_2fde_a501,
                0x4042_2f07_597e_ea67,
                0x4105_4f1c_9ce0_bab1
            )
        );
    }
}
