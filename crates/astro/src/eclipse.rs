//! Eclipse geometry and solar beta angle.
//!
//! The LTAN of a sun-synchronous plane is not only a demand-coverage
//! choice (§4.2) but a power-system one: a *dawn-dusk* plane (LTAN ≈
//! 06:00/18:00) keeps its solar panels nearly always lit, while a
//! *noon-midnight* plane (LTAN ≈ 00:00/12:00) is eclipsed every orbit.
//! The greedy designer places planes at demand-driven LTANs, so this
//! module quantifies the power cost of each choice.

use crate::constants::EARTH_RADIUS_KM;
use crate::kepler::OrbitalElements;
use crate::linalg::Vec3;
use crate::sun::sun_position;
use crate::time::Epoch;

/// Solar beta angle \[rad\]: the angle between the sun direction and the
/// orbital plane, in `[-π/2, π/2]`. |β| = 90° means the sun is normal to
/// the plane (no eclipses); β ≈ 0 maximizes eclipse duration.
fn beta_angle(epoch: Epoch, elements: &OrbitalElements) -> f64 {
    // Orbit normal in ECI.
    let (si, ci) = elements.inclination.sin_cos();
    let (sr, cr) = elements.raan.sin_cos();
    let normal = Vec3::new(sr * si, -cr * si, ci);
    let sun = sun_position(epoch).direction_eci;
    (normal.dot(sun)).clamp(-1.0, 1.0).asin()
}

/// Fraction of the orbit spent in the Earth's (cylindrical) shadow for a
/// circular orbit with the given beta angle.
///
/// Cylindrical-shadow model (Vallado §5.3): eclipse occurs while the
/// satellite's anti-sun angle keeps it inside the shadow cylinder of
/// radius Rₑ. Zero when `|sin β| ≥ Rₑ/a` (the orbit clears the cylinder).
fn eclipse_fraction(semi_major_axis_km: f64, beta: f64) -> f64 {
    let rho = EARTH_RADIUS_KM / semi_major_axis_km;
    let cos_beta = beta.cos();
    if cos_beta <= 0.0 {
        return 0.0;
    }
    let s = (rho * rho - beta.sin() * beta.sin()).max(0.0);
    if s == 0.0 {
        return 0.0;
    }
    // Half-angle of the eclipse arc.
    let half_arc = (s.sqrt() / cos_beta).min(1.0).asin();
    half_arc / core::f64::consts::PI
}

/// Eclipse fraction of a circular orbit at `epoch` (combines
/// `beta_angle` and `eclipse_fraction`).
pub fn orbit_eclipse_fraction(epoch: Epoch, elements: &OrbitalElements) -> f64 {
    eclipse_fraction(elements.semi_major_axis_km, beta_angle(epoch, elements))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sunsync::sun_synchronous_orbit;

    #[test]
    fn beta_angle_bounds() {
        let el = OrbitalElements::circular(560.0, 1.0, 2.0, 0.0).unwrap();
        for days in [0.0, 91.0, 182.0, 273.0] {
            let b = beta_angle(Epoch::from_days_j2000(days), &el);
            assert!(b.abs() <= core::f64::consts::FRAC_PI_2 + 1e-12);
        }
    }

    #[test]
    fn eclipse_fraction_extremes() {
        let a = EARTH_RADIUS_KM + 560.0;
        // Beta = 0: maximum eclipse, roughly asin(Re/a)/pi ≈ 0.37.
        let max = eclipse_fraction(a, 0.0);
        assert!((0.3..0.45).contains(&max), "max eclipse fraction {max}");
        // Sun normal to the plane: no eclipse.
        assert_eq!(eclipse_fraction(a, core::f64::consts::FRAC_PI_2), 0.0);
        // Monotone decreasing in |beta|.
        let mid = eclipse_fraction(a, 0.5);
        assert!(mid < max && mid > 0.0);
        // Higher orbits eclipse less at beta = 0.
        assert!(eclipse_fraction(a + 20_000.0, 0.0) < max);
    }

    #[test]
    fn dawn_dusk_sso_nearly_eclipse_free() {
        // LTAN 06:00 SSO: sun roughly normal to the plane year-round.
        let orbit = sun_synchronous_orbit(560.0).unwrap().with_ltan(6.0);
        let mut worst = 0.0f64;
        for month in 1..=12 {
            let epoch = Epoch::from_calendar(2021, month, 15, 0, 0, 0.0);
            let el = orbit.elements_at(epoch, 0.0).unwrap();
            worst = worst.max(orbit_eclipse_fraction(epoch, &el));
        }
        // Well below the ~0.37 of a beta-0 orbit; the residual months are
        // the solstice seasons when the solar declination tips the sun
        // out of the plane normal.
        assert!(worst < 0.27, "dawn-dusk worst-month eclipse fraction {worst}");
    }

    #[test]
    fn noon_midnight_sso_eclipses_every_orbit() {
        let orbit = sun_synchronous_orbit(560.0).unwrap().with_ltan(12.0);
        let epoch = Epoch::from_calendar(2021, 3, 20, 12, 0, 0.0);
        let el = orbit.elements_at(epoch, 0.0).unwrap();
        let frac = orbit_eclipse_fraction(epoch, &el);
        assert!(frac > 0.3, "noon-midnight eclipse fraction {frac}");
        // And strictly worse than the dawn-dusk plane at the same epoch.
        let dd = sun_synchronous_orbit(560.0).unwrap().with_ltan(6.0);
        let dd_el = dd.elements_at(epoch, 0.0).unwrap();
        assert!(orbit_eclipse_fraction(epoch, &dd_el) < frac);
    }

    #[test]
    fn sso_beta_stable_over_year() {
        // Sun-synchrony holds the beta angle (hence power budget) nearly
        // constant across seasons — another operational advantage of the
        // SS-plane primitive. Allow the declination-driven wobble.
        let orbit = sun_synchronous_orbit(560.0).unwrap().with_ltan(9.0);
        let mut betas = Vec::new();
        for month in 1..=12 {
            let epoch = Epoch::from_calendar(2021, month, 15, 0, 0, 0.0);
            let el = orbit.elements_at(epoch, 0.0).unwrap();
            betas.push(beta_angle(epoch, &el).to_degrees());
        }
        let max = betas.iter().cloned().fold(f64::MIN, f64::max);
        let min = betas.iter().cloned().fold(f64::MAX, f64::min);
        assert!(max - min < 30.0, "beta swing {min}..{max}");
        // Control: a 53° non-SS plane's beta swings much more over a year
        // as the node drifts relative to the sun.
        let el = OrbitalElements::circular(560.0, 53f64.to_radians(), 0.0, 0.0).unwrap();
        let prop = crate::propagate::J2Propagator::new(Epoch::J2000, el).unwrap();
        let mut swing = (f64::MAX, f64::MIN);
        for day in (0..365).step_by(10) {
            let t = Epoch::from_days_j2000(day as f64);
            let b = beta_angle(t, &prop.elements_at(t)).to_degrees();
            swing = (swing.0.min(b), swing.1.max(b));
        }
        assert!(swing.1 - swing.0 > max - min, "non-SS swing {swing:?}");
    }
}
