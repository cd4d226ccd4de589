//! Sun-synchronous orbit design — the astrodynamic primitive behind the
//! paper's *SS-plane*.
//!
//! A sun-synchronous orbit (SSO) chooses the inclination at which J2 nodal
//! precession exactly tracks the Sun's mean motion (360° per tropical
//! year, eastward). Its orbital plane therefore keeps a fixed orientation
//! relative to the Sun: every ascending equator crossing happens at the
//! same *mean local solar time* (the LTAN), and the whole plane traces a
//! **fixed curve on the (latitude, local-time-of-day) grid** — the property
//! §4.1 of the paper builds its constellation design on.

use crate::angles::{wrap_hours, wrap_two_pi};
use crate::constants::SUN_SYNC_NODE_RATE;
use crate::error::{AstroError, Result};
use crate::frames::SunRelativePoint;
use crate::kepler::OrbitalElements;
use crate::time::Epoch;
use core::f64::consts::TAU;

/// Sun-synchronous inclination \[rad\] for a circular orbit at
/// `altitude_km`.
///
/// Closed form from the J2 secular node rate:
/// `cos i = -ρ_ss / [ (3/2) J₂ n (Re/a)² ]`, always > 90° (retrograde) —
/// the reason the paper notes SS launches cost extra fuel.
///
/// # Errors
/// Returns [`AstroError::NoSolution`] above the altitude where the
/// required `|cos i|` exceeds 1, and [`AstroError::InvalidElement`] for
/// non-positive altitudes.
pub fn sun_synchronous_inclination(altitude_km: f64) -> Result<f64> {
    if altitude_km <= 0.0 {
        return Err(AstroError::InvalidElement {
            name: "altitude_km",
            value: altitude_km,
            constraint: "positive",
        });
    }
    let probe = OrbitalElements::circular(altitude_km, core::f64::consts::FRAC_PI_2, 0.0, 0.0)?;
    let n = probe.mean_motion();
    let k = 1.5
        * crate::constants::EARTH_J2
        * (crate::constants::EARTH_RADIUS_KM / probe.semi_major_axis_km).powi(2)
        * n;
    let cos_i = -SUN_SYNC_NODE_RATE / k;
    if cos_i < -1.0 {
        return Err(AstroError::NoSolution {
            what: "sun-synchronous inclination undefined at this altitude (too high)",
        });
    }
    Ok(cos_i.acos())
}

/// A sun-synchronous circular orbit, identified by its altitude and its
/// **LTAN** — the mean local solar time (hours) of the ascending node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SunSyncOrbit {
    /// Circular altitude \[km\].
    pub altitude_km: f64,
    /// Inclination \[rad\] (retrograde, > π/2).
    pub inclination: f64,
    /// Local time of the ascending node \[hours, 0–24)\].
    pub ltan_h: f64,
}

/// Builds the sun-synchronous orbit at `altitude_km` (solving the
/// inclination) with LTAN 12:00 (noon).
///
/// # Errors
/// See [`sun_synchronous_inclination`].
pub fn sun_synchronous_orbit(altitude_km: f64) -> Result<SunSyncOrbit> {
    Ok(SunSyncOrbit {
        altitude_km,
        inclination: sun_synchronous_inclination(altitude_km)?,
        ltan_h: 12.0,
    })
}

impl SunSyncOrbit {
    /// Returns a copy with the given LTAN \[hours\].
    pub fn with_ltan(self, ltan_h: f64) -> Self {
        SunSyncOrbit { ltan_h: wrap_hours(ltan_h), ..self }
    }

    /// Inclination in degrees.
    pub fn inclination_deg(&self) -> f64 {
        self.inclination.to_degrees()
    }

    /// Local solar time \[hours\] of the *descending* node: LTAN + 12 h.
    pub fn ltdn_h(&self) -> f64 {
        wrap_hours(self.ltan_h + 12.0)
    }

    /// Maximum |latitude| \[rad\] reached by the ground track:
    /// `π - i` for retrograde orbits.
    pub fn max_latitude(&self) -> f64 {
        if self.inclination > core::f64::consts::FRAC_PI_2 {
            core::f64::consts::PI - self.inclination
        } else {
            self.inclination
        }
    }

    /// RAAN \[rad\] that realizes this LTAN at `epoch`: the node sits
    /// `(LTAN − 12h)` east of the mean sun's right ascension.
    fn raan_at(&self, epoch: Epoch) -> f64 {
        let t = epoch.julian_centuries();
        let mean_sun_ra = wrap_two_pi((280.460f64 + 36_000.771 * t).to_radians());
        wrap_two_pi(mean_sun_ra + (self.ltan_h - 12.0) / 24.0 * TAU)
    }

    /// Orbital elements of a satellite in this plane at `epoch`, at
    /// argument of latitude `arg_latitude` \[rad\].
    ///
    /// # Errors
    /// Propagates element validation failure.
    pub fn elements_at(&self, epoch: Epoch, arg_latitude: f64) -> Result<OrbitalElements> {
        OrbitalElements::circular(
            self.altitude_km,
            self.inclination,
            self.raan_at(epoch),
            arg_latitude,
        )
    }

    /// Elements of `n_sats` satellites evenly spaced along the plane.
    ///
    /// # Errors
    /// Propagates element validation failure; errors on `n_sats == 0`.
    pub fn plane_elements(&self, epoch: Epoch, n_sats: usize) -> Result<Vec<OrbitalElements>> {
        if n_sats == 0 {
            return Err(AstroError::InvalidElement {
                name: "n_sats",
                value: 0.0,
                constraint: "non-zero",
            });
        }
        (0..n_sats).map(|j| self.elements_at(epoch, TAU * j as f64 / n_sats as f64)).collect()
    }

    /// The point of the plane's **fixed sun-relative track** at argument of
    /// latitude `u` \[rad\].
    ///
    /// For a sun-synchronous plane this curve does not move (up to the
    /// equation of time): latitude `φ = asin(sin i · sin u)` and local time
    /// offset from the LTAN given by the node-relative right ascension
    /// `Δα = atan2(cos i · sin u, cos u)`.
    pub fn sun_relative_point(&self, u: f64) -> SunRelativePoint {
        let (su, cu) = u.sin_cos();
        let lat = (self.inclination.sin() * su).clamp(-1.0, 1.0).asin();
        let dalpha = (self.inclination.cos() * su).atan2(cu);
        SunRelativePoint { lat, local_time_h: wrap_hours(self.ltan_h + dalpha / TAU * 24.0) }
    }

    /// Verifies sun-synchrony: the actual J2 node rate of this orbit
    /// relative to the target rate, as a relative error (a test check).
    #[cfg(test)]
    pub fn node_rate_relative_error(&self) -> f64 {
        let el = OrbitalElements {
            semi_major_axis_km: crate::constants::EARTH_RADIUS_KM + self.altitude_km,
            eccentricity: 0.0,
            inclination: self.inclination,
            raan: 0.0,
            arg_perigee: 0.0,
            mean_anomaly: 0.0,
        };
        (crate::propagate::j2_rates(&el).raan_rate - SUN_SYNC_NODE_RATE).abs() / SUN_SYNC_NODE_RATE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frames::{eci_to_sun_relative, subsatellite_point};
    use crate::propagate::J2Propagator;

    #[test]
    fn known_sso_inclinations() {
        // Reference values (Vallado / mission handbooks):
        // 560 km -> ~97.6°, 800 km -> ~98.6°, 1000 km -> ~99.5°.
        for (alt, expect) in [(560.0, 97.64), (800.0, 98.6), (1000.0, 99.48)] {
            let i = sun_synchronous_inclination(alt).unwrap().to_degrees();
            assert!((i - expect).abs() < 0.15, "alt {alt}: i = {i}, expected ~{expect}");
        }
    }

    #[test]
    fn sso_is_retrograde_and_rate_exact() {
        let orbit = sun_synchronous_orbit(560.0).unwrap();
        assert!(orbit.inclination > core::f64::consts::FRAC_PI_2);
        assert!(orbit.node_rate_relative_error() < 1e-9);
    }

    #[test]
    fn sso_infeasible_at_high_altitude() {
        // The required inclination reaches 180° near 5975 km.
        assert!(sun_synchronous_inclination(5800.0).is_ok());
        assert!(sun_synchronous_inclination(6150.0).is_err());
        assert!(sun_synchronous_inclination(8000.0).is_err());
        assert!(sun_synchronous_inclination(-5.0).is_err());
    }

    #[test]
    fn ltan_round_trip_through_raan() {
        // Build elements from LTAN, propagate to the ascending node, and
        // check the sub-satellite local time equals the LTAN.
        let epoch = Epoch::from_calendar(2021, 3, 1, 0, 0, 0.0);
        let orbit = sun_synchronous_orbit(560.0).unwrap().with_ltan(10.5);
        let el = orbit.elements_at(epoch, 0.0).unwrap(); // at ascending node
        let (r, _) = el.to_cartesian().unwrap();
        let sr = eci_to_sun_relative(epoch, r).unwrap();
        let dh = (sr.local_time_h - 10.5).abs();
        assert!(dh.min(24.0 - dh) < 0.02, "LTAN realized as {}", sr.local_time_h);
        assert!(sr.lat.abs() < 1e-9);
    }

    #[test]
    fn ltan_stays_fixed_over_months() {
        // The defining property: propagate 120 days under J2 and check the
        // ascending-node local time has not drifted.
        let epoch = Epoch::from_calendar(2021, 1, 1, 0, 0, 0.0);
        let orbit = sun_synchronous_orbit(560.0).unwrap().with_ltan(13.0);
        let el = orbit.elements_at(epoch, 0.0).unwrap();
        let prop = J2Propagator::new(epoch, el).unwrap();

        // Find an ascending equator crossing ~120 days out by scanning.
        let t0 = epoch + 120.0 * 86400.0;
        let mut crossing = None;
        let mut prev: Option<(f64, Epoch)> = None;
        for step in 0..2000 {
            let t = t0 + step as f64 * 10.0;
            let (r, _) = prop.state_at(t).unwrap();
            let lat = (r.z / r.norm()).asin();
            if let Some((plat, pt)) = prev {
                if plat < 0.0 && lat >= 0.0 {
                    // linear interpolation to the crossing
                    let frac = -plat / (lat - plat);
                    crossing = Some(pt + frac * (t - pt));
                    break;
                }
            }
            prev = Some((lat, t));
        }
        let tc = crossing.expect("found ascending crossing");
        let (r, _) = prop.state_at(tc).unwrap();
        let sr = eci_to_sun_relative(tc, r).unwrap();
        let dh = (sr.local_time_h - 13.0).abs();
        assert!(dh.min(24.0 - dh) < 0.1, "LTAN after 120 d: {}", sr.local_time_h);
    }

    #[test]
    fn non_sso_ltan_drifts() {
        // Control experiment: a 65° orbit's node local time drifts by hours
        // within 120 days (this is exactly why non-SS constellations cannot
        // pin supply to local time).
        let epoch = Epoch::from_calendar(2021, 1, 1, 0, 0, 0.0);
        let el = OrbitalElements::circular(560.0, 65f64.to_radians(), 0.0, 0.0).unwrap();
        let prop = J2Propagator::new(epoch, el).unwrap();
        let raan_rate = prop.rates().raan_rate;
        // Node local-time drift rate = (Ω̇ - ρ_ss) in hours/day.
        let drift_h_per_day = (raan_rate - SUN_SYNC_NODE_RATE) * 86400.0 / TAU * 24.0;
        // (-3.1°/day node regression - 0.99°/day sun motion) / 15°/h ≈ -0.27 h/day.
        assert!(drift_h_per_day < -0.2, "drift = {drift_h_per_day} h/day");
    }

    #[test]
    fn sun_relative_track_shape() {
        let orbit = sun_synchronous_orbit(560.0).unwrap().with_ltan(14.0);
        // u = 0: ascending node -> (0°, LTAN).
        let p0 = orbit.sun_relative_point(0.0);
        assert!(p0.lat.abs() < 1e-12 && (p0.local_time_h - 14.0).abs() < 1e-9);
        // u = π: descending node -> (0°, LTAN+12).
        let p180 = orbit.sun_relative_point(core::f64::consts::PI);
        assert!(p180.lat.abs() < 1e-9);
        let dh = (p180.local_time_h - 2.0).abs();
        assert!(dh.min(24.0 - dh) < 1e-6, "ltdn = {}", p180.local_time_h);
        // u = π/2: maximum latitude = 180° - i.
        let p90 = orbit.sun_relative_point(core::f64::consts::FRAC_PI_2);
        assert!((p90.lat - orbit.max_latitude()).abs() < 1e-9);
    }

    #[test]
    fn sun_relative_track_matches_propagation() {
        // The analytic sun-relative curve must agree with brute-force
        // propagation + frame conversion at a sample of points.
        let epoch = Epoch::from_calendar(2021, 6, 1, 0, 0, 0.0);
        let orbit = sun_synchronous_orbit(560.0).unwrap().with_ltan(9.0);
        for j in 0..8 {
            let u = TAU * j as f64 / 8.0;
            let el = orbit.elements_at(epoch, u).unwrap();
            let (r, _) = el.to_cartesian().unwrap();
            let sr = eci_to_sun_relative(epoch, r).unwrap();
            let analytic = orbit.sun_relative_point(u);
            assert!((sr.lat - analytic.lat).abs() < 1e-6, "u={u}");
            let dh = (sr.local_time_h - analytic.local_time_h).abs();
            assert!(
                dh.min(24.0 - dh) < 0.02,
                "u={u}: {} vs {}",
                sr.local_time_h,
                analytic.local_time_h
            );
        }
        // And the sub-satellite points are physically at those latitudes.
        let el = orbit.elements_at(epoch, 1.0).unwrap();
        let (r, _) = el.to_cartesian().unwrap();
        let (gp, alt) = subsatellite_point(epoch, r).unwrap();
        assert!((alt - 560.0).abs() < 20.0);
        assert!((gp.lat - orbit.sun_relative_point(1.0).lat).abs() < 1e-6);
    }

    #[test]
    fn plane_elements_even_spacing() {
        let epoch = Epoch::J2000;
        let orbit = sun_synchronous_orbit(560.0).unwrap();
        let sats = orbit.plane_elements(epoch, 20).unwrap();
        assert_eq!(sats.len(), 20);
        for w in sats.windows(2) {
            let d = crate::angles::separation(w[1].mean_anomaly, w[0].mean_anomaly);
            assert!((d - TAU / 20.0).abs() < 1e-9);
        }
        assert!(orbit.plane_elements(epoch, 0).is_err());
    }
}
