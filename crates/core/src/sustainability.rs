//! Sustainability accounting — the paper's title claim, quantified.
//!
//! The paper motivates SS-plane design with the environmental cost of
//! megaconstellations: continuous launch cadence, de-orbit disposal
//! burning satellites into the upper atmosphere (its refs. [8, 10]), and
//! the survivability tax of spare satellites. This module turns a
//! constellation design plus its radiation environment into those costs,
//! so the SS-vs-Walker comparison can be made in fleet mass and annual
//! launches rather than raw satellite counts.
//!
//! The model is deliberately first-order and fully parameterized: every
//! constant is a field with a documented default, and the comparisons the
//! tests assert are ratio claims that hold across wide parameter ranges.
//! The failure hazard is an input, not a parameter: callers take it from
//! the one radiation-driven failure model (`ssplane_lsn`'s
//! `FailureModel::hazard_per_year`), so the ledger and the survivability
//! stage never disagree about how often satellites fail.

use crate::error::Result;

/// Per-satellite and launch-vehicle cost parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SustainabilityParams {
    /// Satellite wet mass \[kg\] (Starlink v2-mini-class default).
    pub satellite_mass_kg: f64,
    /// Extra launch cost factor for retrograde (sun-synchronous) orbits:
    /// launching against the Earth's spin costs payload capacity. The
    /// paper concedes "higher launch costs"; ~10% capacity penalty at
    /// 97.6° vs 53° is representative.
    pub retrograde_mass_penalty: f64,
    /// Satellite design life \[years\] absent radiation failures.
    pub design_life_years: f64,
    /// Payload capacity of one launch \[kg\] to the design altitude.
    pub launch_capacity_kg: f64,
    /// Fraction of satellite mass that survives re-entry ablation into
    /// long-lived upper-atmosphere aerosol (alumina), per its ref. \[10\].
    pub ablation_aerosol_fraction: f64,
    /// Spare satellites carried per plane per expected in-period failure
    /// (sizing looseness; deployed systems carry 2-10 per plane).
    pub spare_margin: f64,
    /// Resupply cadence \[days\].
    pub resupply_days: f64,
}

impl Default for SustainabilityParams {
    fn default() -> Self {
        SustainabilityParams {
            satellite_mass_kg: 800.0,
            retrograde_mass_penalty: 0.10,
            design_life_years: 5.0,
            launch_capacity_kg: 16_000.0,
            ablation_aerosol_fraction: 0.3,
            spare_margin: 2.0,
            resupply_days: 180.0,
        }
    }
}

/// The sustainability ledger of one constellation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SustainabilityReport {
    /// Active satellites.
    pub active_sats: usize,
    /// Spare satellites carried in orbit.
    pub spare_sats: usize,
    /// Total fleet mass \[kg\], including the retrograde penalty as
    /// equivalent mass.
    pub fleet_mass_kg: f64,
    /// Satellites replaced per year (end-of-life + radiation failures).
    pub replacement_rate_per_year: f64,
    /// Launches per year to sustain the fleet.
    pub launches_per_year: f64,
    /// Upper-atmosphere aerosol deposited per year by re-entry \[kg\].
    pub reentry_aerosol_kg_per_year: f64,
}

/// Computes the ledger for a constellation of `active_sats` satellites in
/// `planes` planes whose satellites fail at `hazard_per_year` (the annual
/// failure rate at the constellation's representative dose), retrograde
/// or not.
///
/// # Errors
/// Rejects non-positive parameters and a negative or non-finite hazard.
pub fn assess(
    active_sats: usize,
    planes: usize,
    hazard_per_year: f64,
    retrograde: bool,
    params: SustainabilityParams,
) -> Result<SustainabilityReport> {
    if params.satellite_mass_kg <= 0.0
        || params.launch_capacity_kg <= 0.0
        || params.design_life_years <= 0.0
    {
        return Err(crate::error::CoreError::BadConfig {
            name: "SustainabilityParams",
            constraint: "positive masses, capacity, and design life",
        });
    }
    if !(hazard_per_year.is_finite() && hazard_per_year >= 0.0) {
        return Err(crate::error::CoreError::BadConfig {
            name: "hazard_per_year",
            constraint: "finite and >= 0",
        });
    }
    // Replacement: radiation/random failures plus scheduled end-of-life.
    let replacement_rate = active_sats as f64 * (hazard_per_year + 1.0 / params.design_life_years);
    // Spares: margin x expected failures per plane per resupply period,
    // at least 1 per plane, summed over planes.
    let per_plane_failures = if planes == 0 {
        0.0
    } else {
        active_sats as f64 / planes as f64 * hazard_per_year * params.resupply_days / 365.25
    };
    let spares_per_plane = (params.spare_margin * per_plane_failures).ceil().max(1.0);
    let spare_sats = (spares_per_plane * planes as f64) as usize;

    let mass_factor = if retrograde { 1.0 + params.retrograde_mass_penalty } else { 1.0 };
    let per_sat_mass = params.satellite_mass_kg * mass_factor;
    let fleet_mass = (active_sats + spare_sats) as f64 * per_sat_mass;
    let launches = replacement_rate * per_sat_mass / params.launch_capacity_kg;
    let aerosol = replacement_rate * params.satellite_mass_kg * params.ablation_aerosol_fraction;

    Ok(SustainabilityReport {
        active_sats,
        spare_sats,
        fleet_mass_kg: fleet_mass,
        replacement_rate_per_year: replacement_rate,
        launches_per_year: launches,
        reentry_aerosol_kg_per_year: aerosol,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    // Annual hazards below are the default radiation failure model's rates
    // at representative daily doses (1e10-8e10 electrons, 1e7-9e7 protons
    // per cm² per MeV).

    #[test]
    fn basic_ledger() {
        let r = assess(1000, 20, 0.054, true, Default::default()).unwrap();
        assert_eq!(r.active_sats, 1000);
        assert!(r.spare_sats >= 20, "at least one spare per plane");
        assert!(r.fleet_mass_kg > 800.0 * 1000.0);
        assert!(r.replacement_rate_per_year > 1000.0 / 5.0 - 1e-9);
        assert!(r.launches_per_year > 0.0);
        assert!(r.reentry_aerosol_kg_per_year > 0.0);
    }

    #[test]
    fn paper_headline_ss_cheaper_despite_retrograde_penalty() {
        // SS: fewer satellites (Fig. 9) and less radiation (Fig. 10), but
        // retrograde launch penalty. WD: more satellites, more radiation.
        // Representative mid-demand numbers from the fig9/fig10 pipelines.
        let ss = assess(4150, 83, 0.056, true, Default::default()).unwrap();
        let wd = assess(11_939, 140, 0.068, false, Default::default()).unwrap();
        assert!(
            ss.fleet_mass_kg < 0.5 * wd.fleet_mass_kg,
            "SS fleet {:.0} t vs WD {:.0} t",
            ss.fleet_mass_kg / 1000.0,
            wd.fleet_mass_kg / 1000.0
        );
        assert!(ss.launches_per_year < wd.launches_per_year);
        assert!(ss.reentry_aerosol_kg_per_year < 0.5 * wd.reentry_aerosol_kg_per_year);
    }

    #[test]
    fn radiation_dose_raises_spares_and_launches() {
        let cool = assess(1000, 20, 0.032, false, Default::default()).unwrap();
        let hot = assess(1000, 20, 0.196, false, Default::default()).unwrap();
        assert!(hot.spare_sats >= cool.spare_sats);
        assert!(hot.replacement_rate_per_year > cool.replacement_rate_per_year);
        assert!(hot.launches_per_year > cool.launches_per_year);
    }

    #[test]
    fn retrograde_penalty_applies() {
        let pro = assess(100, 5, 0.032, false, Default::default()).unwrap();
        let retro = assess(100, 5, 0.032, true, Default::default()).unwrap();
        assert!(retro.fleet_mass_kg > pro.fleet_mass_kg);
        assert!((retro.fleet_mass_kg / pro.fleet_mass_kg - 1.1).abs() < 0.02);
    }

    #[test]
    fn invalid_params_rejected() {
        let p = SustainabilityParams { satellite_mass_kg: 0.0, ..Default::default() };
        assert!(assess(10, 2, 0.032, false, p).is_err());
        let p = SustainabilityParams { design_life_years: -1.0, ..Default::default() };
        assert!(assess(10, 2, 0.032, false, p).is_err());
        for hazard in [-0.01, f64::NAN, f64::INFINITY] {
            assert!(assess(10, 2, hazard, false, Default::default()).is_err(), "{hazard}");
        }
    }

    #[test]
    fn zero_planes_safe() {
        let r = assess(0, 0, 0.032, false, Default::default()).unwrap();
        assert_eq!(r.spare_sats, 0);
        assert_eq!(r.fleet_mass_kg, 0.0);
    }
}
