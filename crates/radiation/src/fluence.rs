//! Fluence accumulation along orbits — the quantities behind the paper's
//! Fig. 7 (fluence vs inclination) and Fig. 10 (median per-satellite
//! fluence of a constellation).

use crate::error::Result;
use crate::flux::RadiationEnvironment;
use ssplane_astro::kepler::OrbitalElements;
use ssplane_astro::propagate::J2Propagator;
use ssplane_astro::time::Epoch;

/// Fluence accumulated over one day \[#/cm²/MeV\] for both species.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DailyFluence {
    /// Electron fluence \[#/cm²/MeV\].
    pub electron: f64,
    /// Proton fluence \[#/cm²/MeV\].
    pub proton: f64,
}

/// Shortest integration step \[s\] [`daily_fluence`] uses.
pub const MIN_STEP_S: f64 = 1.0;

/// Longest integration step \[s\] [`daily_fluence`] uses: a ~95-minute
/// LEO orbit still gets about ten samples per revolution.
pub const MAX_STEP_S: f64 = 600.0;

/// Integrates the daily fluence of a satellite on `elements` starting at
/// `epoch`, sampling the environment every `step_s` seconds for 24 hours.
///
/// `step_s` is clamped into [[`MIN_STEP_S`], [`MAX_STEP_S`]]; callers that
/// take the step from user input should reject values outside it instead
/// (the scenario validator does).
///
/// # Errors
/// Propagates propagation or flux-evaluation failure (invalid elements or
/// an orbit dipping below ~100 km).
pub fn daily_fluence(
    env: &RadiationEnvironment,
    elements: &OrbitalElements,
    epoch: Epoch,
    step_s: f64,
) -> Result<DailyFluence> {
    let step_s = step_s.clamp(MIN_STEP_S, MAX_STEP_S);
    let prop = J2Propagator::new(epoch, *elements)?;
    let n_steps = (86_400.0 / step_s).round() as usize;
    let mut total = DailyFluence::default();
    for k in 0..n_steps {
        let t = epoch + (k as f64 + 0.5) * step_s;
        let r = prop.position_at(t)?;
        let s = env.flux_eci(r, t)?;
        total.electron += s.electron * step_s;
        total.proton += s.proton * step_s;
    }
    Ok(total)
}

/// The paper's Fig. 7 sweep: daily fluence of circular orbits at
/// `altitude_km` for each inclination \[deg\], starting at `epoch`.
///
/// # Errors
/// Propagates [`daily_fluence`] failure.
pub fn fluence_vs_inclination(
    env: &RadiationEnvironment,
    altitude_km: f64,
    inclinations_deg: &[f64],
    epoch: Epoch,
    step_s: f64,
) -> Result<Vec<(f64, DailyFluence)>> {
    inclinations_deg
        .iter()
        .map(|&inc| {
            let el = OrbitalElements::circular(altitude_km, inc.to_radians(), 0.0, 0.0)?;
            Ok((inc, daily_fluence(env, &el, epoch, step_s)?))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env() -> RadiationEnvironment {
        RadiationEnvironment::default()
    }

    fn epoch() -> Epoch {
        // Mid-cycle epoch for stable activity.
        Epoch::from_calendar(2013, 6, 1, 0, 0, 0.0)
    }

    fn circ(alt: f64, inc_deg: f64) -> OrbitalElements {
        OrbitalElements::circular(alt, inc_deg.to_radians(), 0.0, 0.0).unwrap()
    }

    #[test]
    fn fig7_decades_at_560km() {
        // Paper Fig. 7: electron daily fluence of order 10⁹–10¹⁰ and
        // proton fluence of order 10⁷ at 560 km for 60-80° inclinations.
        let f = daily_fluence(&env(), &circ(560.0, 65.0), epoch(), 60.0).unwrap();
        assert!(f.electron > 1e9 && f.electron < 1e11, "electron fluence = {:e}", f.electron);
        assert!(f.proton > 1e6 && f.proton < 1e8, "proton fluence = {:e}", f.proton);
    }

    #[test]
    fn fig7_shape_moderate_inclination_worst_for_electrons() {
        let e = env();
        let t = epoch();
        let sweep =
            fluence_vs_inclination(&e, 560.0, &[30.0, 50.0, 65.0, 80.0, 97.64], t, 60.0).unwrap();
        let by_inc: Vec<f64> = sweep.iter().map(|(_, f)| f.electron).collect();
        // 65° near the worst case.
        let at65 = by_inc[2];
        assert!(at65 > by_inc[0], "65° must beat 30°");
        assert!(at65 > by_inc[4] * 1.1, "65° ({:e}) must exceed SSO ({:e})", at65, by_inc[4]);
        // 50° sits in the dip between the SAA band and the horns.
        assert!(by_inc[1] < 0.9 * at65, "50° = {:e}, 65° = {:e}", by_inc[1], at65);
    }

    #[test]
    fn protons_lower_for_sso_than_mid_inclination() {
        let e = env();
        let t = epoch();
        let mid = daily_fluence(&e, &circ(560.0, 40.0), t, 60.0).unwrap();
        let sso = daily_fluence(&e, &circ(560.0, 97.64), t, 60.0).unwrap();
        assert!(
            sso.proton < mid.proton,
            "SSO proton {:e} must be below 40° proton {:e}",
            sso.proton,
            mid.proton
        );
    }

    #[test]
    fn fluence_scales_with_duration_step_invariance() {
        // Halving the step should not change the daily fluence much.
        let e = env();
        let el = circ(560.0, 65.0);
        let a = daily_fluence(&e, &el, epoch(), 120.0).unwrap();
        let b = daily_fluence(&e, &el, epoch(), 60.0).unwrap();
        assert!((a.electron - b.electron).abs() / b.electron < 0.05);
        assert!((a.proton - b.proton).abs() / b.proton.max(1.0) < 0.15);
    }

    #[test]
    fn constellation_fluences_per_satellite() {
        let e = env();
        let sats = [circ(560.0, 65.0), circ(560.0, 97.64)];
        let fl: Vec<DailyFluence> =
            sats.iter().map(|el| daily_fluence(&e, el, epoch(), 120.0).unwrap()).collect();
        assert!(fl[0].electron > fl[1].electron);
    }

    #[test]
    fn phase_variation_within_plane_is_modest() {
        // Satellites at different phases of the same plane accumulate
        // similar daily fluence (they traverse the same shells).
        let e = env();
        let t = epoch();
        let mut worst_ratio = 1.0f64;
        let base = daily_fluence(&e, &circ(560.0, 65.0), t, 120.0).unwrap().electron;
        for j in 1..4 {
            let mut el = circ(560.0, 65.0);
            el.mean_anomaly = core::f64::consts::TAU * j as f64 / 4.0;
            let f = daily_fluence(&e, &el, t, 120.0).unwrap().electron;
            worst_ratio = worst_ratio.max(f / base).max(base / f);
        }
        assert!(worst_ratio < 1.25, "phase spread ratio = {worst_ratio}");
    }
}
