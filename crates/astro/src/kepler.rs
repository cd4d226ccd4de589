//! Keplerian orbital elements, anomaly conversions, and conversion to/from
//! Cartesian state vectors.

use crate::angles::wrap_two_pi;
use crate::constants::{EARTH_MU, EARTH_RADIUS_KM};
use crate::error::{AstroError, Result};
use crate::linalg::{Mat3, Vec3};
use core::f64::consts::TAU;

/// Maximum iterations for the Kepler-equation Newton solver.
const KEPLER_MAX_ITER: usize = 50;
/// Convergence tolerance for the Kepler-equation solver \[rad\].
const KEPLER_TOL: f64 = 1e-12;

/// Classical Keplerian orbital elements (Earth-centered).
///
/// Angles in radians, semi-major axis in kilometers. The fast variable is
/// the **mean anomaly** `mean_anomaly` — the natural choice for secular J2
/// propagation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OrbitalElements {
    /// Semi-major axis \[km\]. Must exceed the Earth radius for the orbits
    /// this crate designs.
    pub semi_major_axis_km: f64,
    /// Eccentricity (0 ≤ e < 1; this crate designs near-circular orbits).
    pub eccentricity: f64,
    /// Inclination \[rad\], in `[0, π]`. Values > π/2 are retrograde
    /// (sun-synchronous orbits live here).
    pub inclination: f64,
    /// Right ascension of the ascending node Ω \[rad\].
    pub raan: f64,
    /// Argument of perigee ω \[rad\].
    pub arg_perigee: f64,
    /// Mean anomaly M \[rad\].
    pub mean_anomaly: f64,
}

impl OrbitalElements {
    /// Creates a circular orbit at the given altitude, inclination, RAAN and
    /// argument of latitude (angle from the ascending node along track).
    ///
    /// # Errors
    /// Returns [`AstroError::InvalidElement`] if the altitude is negative or
    /// the inclination falls outside `[0, π]`.
    pub fn circular(
        altitude_km: f64,
        inclination: f64,
        raan: f64,
        arg_latitude: f64,
    ) -> Result<Self> {
        if altitude_km < 0.0 {
            return Err(AstroError::InvalidElement {
                name: "altitude_km",
                value: altitude_km,
                constraint: "altitude >= 0",
            });
        }
        if !(0.0..=core::f64::consts::PI).contains(&inclination) {
            return Err(AstroError::InvalidElement {
                name: "inclination",
                value: inclination,
                constraint: "0 <= i <= pi",
            });
        }
        Ok(OrbitalElements {
            semi_major_axis_km: EARTH_RADIUS_KM + altitude_km,
            eccentricity: 0.0,
            inclination,
            raan: wrap_two_pi(raan),
            arg_perigee: 0.0,
            // For e = 0 mean anomaly equals true anomaly; with ω = 0 the
            // mean anomaly is the argument of latitude.
            mean_anomaly: wrap_two_pi(arg_latitude),
        })
    }

    /// Validates the elements' physical domain.
    ///
    /// # Errors
    /// Returns [`AstroError::InvalidElement`] naming the first element that
    /// violates its constraint.
    pub fn validate(&self) -> Result<()> {
        if !self.semi_major_axis_km.is_finite() || self.semi_major_axis_km <= EARTH_RADIUS_KM * 0.5
        {
            return Err(AstroError::InvalidElement {
                name: "semi_major_axis_km",
                value: self.semi_major_axis_km,
                constraint: "finite and well above Earth's center",
            });
        }
        if !(0.0..1.0).contains(&self.eccentricity) {
            return Err(AstroError::InvalidElement {
                name: "eccentricity",
                value: self.eccentricity,
                constraint: "0 <= e < 1 (elliptical)",
            });
        }
        if !(0.0..=core::f64::consts::PI).contains(&self.inclination) {
            return Err(AstroError::InvalidElement {
                name: "inclination",
                value: self.inclination,
                constraint: "0 <= i <= pi",
            });
        }
        Ok(())
    }

    /// Altitude of a circular orbit \[km\] (semi-major axis minus Earth
    /// radius). For eccentric orbits this is the mean altitude.
    #[inline]
    pub fn altitude_km(&self) -> f64 {
        self.semi_major_axis_km - EARTH_RADIUS_KM
    }

    /// Inclination in degrees (convenience for display and tests).
    #[inline]
    pub fn inclination_deg(&self) -> f64 {
        self.inclination.to_degrees()
    }

    /// Mean motion n = √(μ/a³) \[rad/s\].
    #[inline]
    pub fn mean_motion(&self) -> f64 {
        (EARTH_MU / self.semi_major_axis_km.powi(3)).sqrt()
    }

    /// Keplerian (unperturbed) orbital period \[s\]: the tests' yardstick
    /// for the J2 nodal period and the integration horizons.
    #[cfg(test)]
    pub fn period_s(&self) -> f64 {
        TAU / self.mean_motion()
    }

    /// Semi-latus rectum p = a(1-e²) \[km\].
    #[inline]
    pub fn semi_latus_rectum(&self) -> f64 {
        self.semi_major_axis_km * (1.0 - self.eccentricity * self.eccentricity)
    }

    /// Converts the elements to an ECI Cartesian state (position km,
    /// velocity km/s).
    ///
    /// # Errors
    /// Propagates Kepler-solver non-convergence (practically unreachable
    /// for valid eccentricities).
    pub fn to_cartesian(&self) -> Result<(Vec3, Vec3)> {
        self.validate()?;
        let e = self.eccentricity;
        let ea = solve_kepler(self.mean_anomaly, e)?;
        let nu = eccentric_to_true(ea, e);
        let p = self.semi_latus_rectum();
        let r = p / (1.0 + e * nu.cos());

        // Perifocal frame position/velocity.
        let (snu, cnu) = nu.sin_cos();
        let r_pf = Vec3::new(r * cnu, r * snu, 0.0);
        let coef = (EARTH_MU / p).sqrt();
        let v_pf = Vec3::new(-coef * snu, coef * (e + cnu), 0.0);

        // Perifocal -> ECI: ROT3(-Ω) ROT1(-i) ROT3(-ω).
        let dcm = Mat3::rot_z(-self.raan)
            .mul_mat(Mat3::rot_x(-self.inclination))
            .mul_mat(Mat3::rot_z(-self.arg_perigee));
        Ok((dcm * r_pf, dcm * v_pf))
    }

    /// Recovers orbital elements from an ECI Cartesian state — the
    /// inverse of [`Self::to_cartesian`]. The pipeline only ever goes from
    /// elements to states; the tests use this to check that direction and
    /// to read elements off numerically integrated states.
    ///
    /// Near-circular and near-equatorial degeneracies are resolved with the
    /// usual conventions (node at +X for equatorial orbits, perigee at the
    /// node for circular orbits).
    ///
    /// # Errors
    /// Returns [`AstroError::InvalidElement`] for unbound (parabolic or
    /// hyperbolic) states.
    pub fn from_cartesian(position_km: Vec3, velocity_km_s: Vec3) -> Result<Self> {
        let r = position_km.norm();
        let v2 = velocity_km_s.norm_squared();
        let energy = v2 / 2.0 - EARTH_MU / r;
        if energy >= 0.0 {
            return Err(AstroError::InvalidElement {
                name: "specific energy",
                value: energy,
                constraint: "negative (bound orbit)",
            });
        }
        let a = -EARTH_MU / (2.0 * energy);

        let h = position_km.cross(velocity_km_s);
        let hn = h.norm();
        // Eccentricity vector.
        let e_vec = velocity_km_s.cross(h) / EARTH_MU - position_km / r;
        let e = e_vec.norm();

        let inclination = (h.z / hn).acos();

        // Node vector (points to ascending node).
        let n_vec = Vec3::Z.cross(h);
        let nn = n_vec.norm();
        let equatorial = nn < 1e-11 * hn;
        let circular = e < 1e-11;

        let raan = if equatorial { 0.0 } else { wrap_two_pi(n_vec.y.atan2(n_vec.x)) };

        let arg_perigee = if circular {
            0.0
        } else if equatorial {
            // Angle of e_vec from +X, signed by h direction.
            let w = e_vec.y.atan2(e_vec.x);
            wrap_two_pi(if h.z >= 0.0 { w } else { -w })
        } else {
            let cos_w = (n_vec.dot(e_vec) / (nn * e)).clamp(-1.0, 1.0);
            let mut w = cos_w.acos();
            if e_vec.z < 0.0 {
                w = TAU - w;
            }
            w
        };

        // True anomaly (or argument of latitude for circular orbits).
        let nu = if circular {
            if equatorial {
                wrap_two_pi(position_km.y.atan2(position_km.x) - raan)
            } else {
                let cos_u = (n_vec.dot(position_km) / (nn * r)).clamp(-1.0, 1.0);
                let mut u = cos_u.acos();
                if position_km.z < 0.0 {
                    u = TAU - u;
                }
                u
            }
        } else {
            let cos_nu = (e_vec.dot(position_km) / (e * r)).clamp(-1.0, 1.0);
            let mut nu = cos_nu.acos();
            if position_km.dot(velocity_km_s) < 0.0 {
                nu = TAU - nu;
            }
            nu
        };

        let ea = true_to_eccentric(nu, e);
        let mean_anomaly = wrap_two_pi(ea - e * ea.sin());

        Ok(OrbitalElements {
            semi_major_axis_km: a,
            eccentricity: e,
            inclination,
            raan,
            arg_perigee,
            mean_anomaly,
        })
    }
}

/// Solves Kepler's equation `M = E - e sin E` for the eccentric anomaly `E`.
///
/// Newton-Raphson with a third-order starter; converges in a handful of
/// iterations for all elliptical eccentricities.
///
/// # Errors
/// Returns [`AstroError::NoConvergence`] if the tolerance is not reached
/// within the iteration cap (not observed for `0 <= e < 1`).
pub fn solve_kepler(mean_anomaly: f64, eccentricity: f64) -> Result<f64> {
    let m = wrap_two_pi(mean_anomaly);
    let e = eccentricity;
    // Starter (Vallado alg. 2): E0 = M + e sin M works well below e ~ 0.9.
    let mut ea = if e < 0.8 { m + e * m.sin() } else { core::f64::consts::PI };
    for _ in 0..KEPLER_MAX_ITER {
        let f = ea - e * ea.sin() - m;
        let fp = 1.0 - e * ea.cos();
        let delta = f / fp;
        ea -= delta;
        if delta.abs() < KEPLER_TOL {
            return Ok(ea);
        }
    }
    Err(AstroError::NoConvergence { what: "Kepler equation solver", iterations: KEPLER_MAX_ITER })
}

/// Converts eccentric anomaly to true anomaly.
#[inline]
pub fn eccentric_to_true(ea: f64, e: f64) -> f64 {
    let beta = e / (1.0 + (1.0 - e * e).sqrt());
    ea + 2.0 * (beta * ea.sin() / (1.0 - beta * ea.cos())).atan()
}

/// Converts true anomaly to eccentric anomaly: the inverse the tests
/// check [`eccentric_to_true`] against.
#[inline]
pub fn true_to_eccentric(nu: f64, e: f64) -> f64 {
    let beta = e / (1.0 + (1.0 - e * e).sqrt());
    nu - 2.0 * (beta * nu.sin() / (1.0 + beta * nu.cos())).atan()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::angles::separation;

    #[test]
    fn circular_orbit_basics() {
        let el = OrbitalElements::circular(560.0, 65f64.to_radians(), 0.0, 0.0).unwrap();
        assert!((el.altitude_km() - 560.0).abs() < 1e-9);
        // ~95.7 minutes at 560 km.
        assert!((el.period_s() / 60.0 - 95.6).abs() < 0.5, "T = {} min", el.period_s() / 60.0);
    }

    #[test]
    fn kepler_solver_exact_for_circular() {
        let ea = solve_kepler(1.234, 0.0).unwrap();
        assert!((ea - 1.234).abs() < 1e-12);
    }

    #[test]
    fn kepler_solver_satisfies_equation() {
        for &e in &[0.001, 0.1, 0.5, 0.9, 0.99] {
            for i in 0..32 {
                let m = TAU * (i as f64) / 32.0;
                let ea = solve_kepler(m, e).unwrap();
                let residual = (ea - e * ea.sin() - m + TAU) % TAU;
                let residual = residual.min(TAU - residual);
                assert!(residual < 1e-10, "e={e} m={m} residual={residual}");
            }
        }
    }

    #[test]
    fn anomaly_round_trip() {
        for &e in &[0.0, 0.2, 0.7] {
            for i in 0..16 {
                let nu = TAU * (i as f64) / 16.0;
                let ea = true_to_eccentric(nu, e);
                let back = eccentric_to_true(ea, e);
                assert!(separation(nu, back) < 1e-10, "e={e} nu={nu} back={back}");
            }
        }
    }

    #[test]
    fn cartesian_round_trip_general_orbit() {
        let el = OrbitalElements {
            semi_major_axis_km: 7100.0,
            eccentricity: 0.02,
            inclination: 1.2,
            raan: 2.3,
            arg_perigee: 0.7,
            mean_anomaly: 4.0,
        };
        let (r, v) = el.to_cartesian().unwrap();
        let back = OrbitalElements::from_cartesian(r, v).unwrap();
        assert!((back.semi_major_axis_km - el.semi_major_axis_km).abs() < 1e-6);
        assert!((back.eccentricity - el.eccentricity).abs() < 1e-9);
        assert!((back.inclination - el.inclination).abs() < 1e-9);
        assert!(separation(back.raan, el.raan) < 1e-9);
        assert!(separation(back.arg_perigee, el.arg_perigee) < 1e-8);
        assert!(separation(back.mean_anomaly, el.mean_anomaly) < 1e-8);
    }

    #[test]
    fn cartesian_round_trip_circular_retrograde() {
        // Sun-synchronous-like orbit: retrograde, circular.
        let el = OrbitalElements::circular(560.0, 97.7f64.to_radians(), 1.0, 2.5).unwrap();
        let (r, v) = el.to_cartesian().unwrap();
        let back = OrbitalElements::from_cartesian(r, v).unwrap();
        assert!((back.inclination - el.inclination).abs() < 1e-9);
        assert!(separation(back.raan, el.raan) < 1e-9);
        // For circular orbits compare argument of latitude (ω + M).
        let u0 = el.arg_perigee + el.mean_anomaly;
        let u1 = back.arg_perigee + back.mean_anomaly;
        assert!(separation(u0, u1) < 1e-8);
    }

    #[test]
    fn vis_viva_on_conversion() {
        let el = OrbitalElements::circular(1000.0, 0.9, 0.3, 1.1).unwrap();
        let (r, v) = el.to_cartesian().unwrap();
        let vis_viva = (EARTH_MU * (2.0 / r.norm() - 1.0 / el.semi_major_axis_km)).sqrt();
        assert!((v.norm() - vis_viva).abs() < 1e-9);
    }

    #[test]
    fn hyperbolic_state_rejected() {
        let r = Vec3::new(EARTH_RADIUS_KM + 500.0, 0.0, 0.0);
        let v = Vec3::new(0.0, 20.0, 0.0); // way above escape velocity
        assert!(matches!(
            OrbitalElements::from_cartesian(r, v),
            Err(AstroError::InvalidElement { .. })
        ));
    }

    #[test]
    fn invalid_elements_rejected() {
        assert!(OrbitalElements::circular(-10.0, 0.5, 0.0, 0.0).is_err());
        assert!(OrbitalElements::circular(500.0, 3.5, 0.0, 0.0).is_err());
        let mut el = OrbitalElements::circular(500.0, 0.5, 0.0, 0.0).unwrap();
        el.eccentricity = 1.5;
        assert!(el.validate().is_err());
    }
}
