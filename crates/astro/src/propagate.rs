//! Orbit propagation with secular J2 effects.
//!
//! [`J2Propagator`] is closed-form secular propagation of the mean
//! elements (Ω, ω, M advance linearly in time). This captures exactly the
//! physics the paper's arguments rest on — J2 nodal precession
//! (sun-synchrony) and nodal-period commensurability (repeat ground
//! tracks) — at a few ns per evaluation and with no accumulation of
//! numerical error over multi-day horizons. The tests validate its
//! secular rates against an RK4 integrator of the full two-body + J2
//! acceleration.

use crate::constants::{EARTH_J2, EARTH_RADIUS_KM};
use crate::error::Result;
use crate::kepler::OrbitalElements;
use crate::linalg::Vec3;
use crate::time::Epoch;

/// Secular J2 rates (radians per second) for a given mean-element set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct J2Rates {
    /// Nodal precession rate Ω̇ \[rad/s\]. Negative for prograde orbits,
    /// positive for retrograde — sun-synchronous orbits choose the
    /// inclination where this equals [`crate::constants::SUN_SYNC_NODE_RATE`].
    pub raan_rate: f64,
    /// Apsidal rotation rate ω̇ \[rad/s\].
    pub arg_perigee_rate: f64,
    /// Secular correction to the mean anomaly rate beyond the two-body mean
    /// motion \[rad/s\].
    pub mean_anomaly_drift: f64,
}

/// Computes the secular J2 rates for the given elements.
///
/// Standard first-order secular theory (Vallado §9.4):
///
/// ```text
/// Ω̇  = -(3/2) J₂ n (Re/p)² cos i
/// ω̇  =  (3/4) J₂ n (Re/p)² (5 cos²i - 1)
/// ΔṀ =  (3/4) J₂ n (Re/p)² √(1-e²) (3 cos²i - 1)
/// ```
pub fn j2_rates(elements: &OrbitalElements) -> J2Rates {
    let n = elements.mean_motion();
    let p = elements.semi_latus_rectum();
    let cos_i = elements.inclination.cos();
    let k = 1.5 * EARTH_J2 * (EARTH_RADIUS_KM / p).powi(2) * n;
    let e2 = elements.eccentricity * elements.eccentricity;
    J2Rates {
        raan_rate: -k * cos_i,
        arg_perigee_rate: 0.5 * k * (5.0 * cos_i * cos_i - 1.0),
        mean_anomaly_drift: 0.5 * k * (1.0 - e2).sqrt() * (3.0 * cos_i * cos_i - 1.0),
    }
}

/// Nodal (draconic) period: time between successive ascending-node
/// crossings \[s\], accounting for secular J2 rates.
pub fn nodal_period_s(elements: &OrbitalElements) -> f64 {
    let rates = j2_rates(elements);
    let angular_rate = elements.mean_motion() + rates.mean_anomaly_drift + rates.arg_perigee_rate;
    core::f64::consts::TAU / angular_rate
}

/// Closed-form secular J2 propagator over mean elements.
///
/// Construct once per satellite; evaluation at any epoch is O(1) and does
/// not accumulate error, which matters for the multi-day fluence and
/// coverage integrations driving the paper's figures.
#[derive(Debug, Clone, Copy)]
pub struct J2Propagator {
    epoch: Epoch,
    elements: OrbitalElements,
    rates: J2Rates,
    mean_motion: f64,
}

impl J2Propagator {
    /// Creates a propagator for `elements` valid at `epoch`.
    ///
    /// # Errors
    /// Returns an error if the elements are outside their physical domain.
    pub fn new(epoch: Epoch, elements: OrbitalElements) -> Result<Self> {
        elements.validate()?;
        Ok(J2Propagator {
            epoch,
            elements,
            rates: j2_rates(&elements),
            mean_motion: elements.mean_motion(),
        })
    }

    /// The reference epoch of the propagator.
    pub fn epoch(&self) -> Epoch {
        self.epoch
    }

    /// The mean elements at the reference epoch.
    pub fn elements(&self) -> &OrbitalElements {
        &self.elements
    }

    /// The secular rates in effect (the tests read them back).
    #[cfg(test)]
    pub fn rates(&self) -> J2Rates {
        self.rates
    }

    /// Mean elements propagated to epoch `t`.
    pub fn elements_at(&self, t: Epoch) -> OrbitalElements {
        let dt = t - self.epoch;
        let mut el = self.elements;
        el.raan = crate::angles::wrap_two_pi(el.raan + self.rates.raan_rate * dt);
        el.arg_perigee =
            crate::angles::wrap_two_pi(el.arg_perigee + self.rates.arg_perigee_rate * dt);
        el.mean_anomaly = crate::angles::wrap_two_pi(
            el.mean_anomaly + (self.mean_motion + self.rates.mean_anomaly_drift) * dt,
        );
        el
    }

    /// ECI state (position km, velocity km/s) at epoch `t`.
    ///
    /// # Errors
    /// Propagates Kepler-solver failure (practically unreachable).
    pub fn state_at(&self, t: Epoch) -> Result<(Vec3, Vec3)> {
        self.elements_at(t).to_cartesian()
    }

    /// ECI position \[km\] at epoch `t` (velocity discarded).
    ///
    /// # Errors
    /// Propagates Kepler-solver failure (practically unreachable).
    pub fn position_at(&self, t: Epoch) -> Result<Vec3> {
        Ok(self.state_at(t)?.0)
    }
}

/// Batch-propagates a satellite set to one epoch, writing ECI positions
/// \[km\] into parallel structure-of-arrays buffers.
///
/// This is the entry point the `ssplane-lsn` snapshot cache builds on:
/// one call fills a whole constellation's worth of coordinates for one
/// time slot, and because the output buffers are plain `&mut [f64]`
/// slices, a caller can carve a larger time-grid allocation into
/// disjoint per-slot chunks and fill them from parallel workers. Each
/// position is computed by [`J2Propagator::position_at`], so the values
/// are bit-identical to per-satellite calls.
///
/// # Panics
/// If the buffer lengths differ from `props.len()`.
///
/// # Errors
/// Propagates Kepler-solver failure (practically unreachable).
pub fn batch_positions_soa(
    props: &[J2Propagator],
    t: Epoch,
    xs: &mut [f64],
    ys: &mut [f64],
    zs: &mut [f64],
) -> Result<()> {
    assert!(
        xs.len() == props.len() && ys.len() == props.len() && zs.len() == props.len(),
        "SoA buffers must match the propagator count"
    );
    for (i, prop) in props.iter().enumerate() {
        let r = prop.position_at(t)?;
        xs[i] = r.x;
        ys[i] = r.y;
        zs[i] = r.z;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::angles::separation;
    use crate::constants::{EARTH_MU, SUN_SYNC_NODE_RATE};

    fn circ(alt: f64, inc_deg: f64) -> OrbitalElements {
        OrbitalElements::circular(alt, inc_deg.to_radians(), 0.0, 0.0).unwrap()
    }

    /// Two-body + J2 point-mass acceleration \[km/s²\] at ECI position `r`.
    fn acceleration_two_body_j2(r: Vec3) -> Vec3 {
        let rn = r.norm();
        let rn2 = rn * rn;
        let two_body = r * (-EARTH_MU / (rn2 * rn));
        // J2 perturbation (Vallado eq. 8-30).
        let k = -1.5 * EARTH_J2 * EARTH_MU * EARTH_RADIUS_KM * EARTH_RADIUS_KM / (rn2 * rn2 * rn);
        let z2_r2 = (r.z * r.z) / rn2;
        let j2 = Vec3::new(
            k * r.x * (1.0 - 5.0 * z2_r2),
            k * r.y * (1.0 - 5.0 * z2_r2),
            k * r.z * (3.0 - 5.0 * z2_r2),
        );
        two_body + j2
    }

    /// Fixed-step RK4 integrator of the two-body + J2 equations of motion:
    /// the reference [`J2Propagator`]'s secular rates are checked against.
    struct NumericalPropagator {
        epoch: Epoch,
        position: Vec3,
        velocity: Vec3,
    }

    impl NumericalPropagator {
        /// Integration step \[s\]. 10 s keeps LEO position error < 1 m/orbit.
        const STEP_S: f64 = 10.0;

        fn new(epoch: Epoch, position: Vec3, velocity: Vec3) -> Self {
            NumericalPropagator { epoch, position, velocity }
        }

        /// Starts from mean elements converted to a Cartesian state.
        fn from_elements(epoch: Epoch, elements: &OrbitalElements) -> Result<Self> {
            let (r, v) = elements.to_cartesian()?;
            Ok(Self::new(epoch, r, v))
        }

        /// Integrates forward (or backward) to epoch `t` and returns the state.
        fn propagate_to(&mut self, t: Epoch) -> (Vec3, Vec3) {
            let mut remaining = t - self.epoch;
            let dir = if remaining >= 0.0 { 1.0 } else { -1.0 };
            remaining = remaining.abs();
            while remaining > 0.0 {
                let h = remaining.min(Self::STEP_S) * dir;
                self.rk4_step(h);
                remaining -= h.abs();
            }
            self.epoch = t;
            (self.position, self.velocity)
        }

        fn rk4_step(&mut self, h: f64) {
            let (r0, v0) = (self.position, self.velocity);

            let k1v = acceleration_two_body_j2(r0);
            let k1r = v0;

            let k2v = acceleration_two_body_j2(r0 + k1r * (h / 2.0));
            let k2r = v0 + k1v * (h / 2.0);

            let k3v = acceleration_two_body_j2(r0 + k2r * (h / 2.0));
            let k3r = v0 + k2v * (h / 2.0);

            let k4v = acceleration_two_body_j2(r0 + k3r * h);
            let k4r = v0 + k3v * h;

            self.position = r0 + (k1r + 2.0 * k2r + 2.0 * k3r + k4r) * (h / 6.0);
            self.velocity = v0 + (k1v + 2.0 * k2v + 2.0 * k3v + k4v) * (h / 6.0);
        }
    }

    #[test]
    fn j2_rates_signs() {
        // Prograde: node regresses (west); retrograde: node advances (east).
        assert!(j2_rates(&circ(560.0, 53.0)).raan_rate < 0.0);
        assert!(j2_rates(&circ(560.0, 97.7)).raan_rate > 0.0);
        // Polar orbit: no nodal precession.
        assert!(j2_rates(&circ(560.0, 90.0)).raan_rate.abs() < 1e-12);
    }

    #[test]
    fn j2_nodal_rate_matches_reference_value() {
        // Textbook check: ISS-like orbit (420 km, 51.6°) precesses about
        // -5.0 °/day.
        let rates = j2_rates(&circ(420.0, 51.6));
        let deg_day = rates.raan_rate.to_degrees() * 86400.0;
        assert!((deg_day + 5.0).abs() < 0.15, "got {deg_day} deg/day");
    }

    #[test]
    fn sun_sync_inclination_gives_sun_sync_rate() {
        // ~97.64° at 560 km is the known SSO inclination.
        let rates = j2_rates(&circ(560.0, 97.64));
        assert!(
            (rates.raan_rate - SUN_SYNC_NODE_RATE).abs() / SUN_SYNC_NODE_RATE < 0.01,
            "raan rate {} vs target {}",
            rates.raan_rate,
            SUN_SYNC_NODE_RATE
        );
    }

    #[test]
    fn secular_propagation_wraps_and_advances() {
        let el = circ(560.0, 65.0);
        let prop = J2Propagator::new(Epoch::J2000, el).unwrap();
        let one_day = Epoch::J2000 + 86400.0;
        let el1 = prop.elements_at(one_day);
        // About 15.2 orbits/day at 560 km: mean anomaly advanced and wrapped.
        assert!((0.0..core::f64::consts::TAU).contains(&el1.mean_anomaly));
        // Node moved west by a few degrees.
        let moved = separation(el1.raan, el.raan).to_degrees();
        assert!(moved > 2.0 && moved < 8.0, "node moved {moved} deg/day");
    }

    #[test]
    fn numerical_propagator_conserves_radius_for_circular() {
        let el = circ(560.0, 65.0);
        let mut num = NumericalPropagator::from_elements(Epoch::J2000, &el).unwrap();
        let (r, _) = num.propagate_to(Epoch::J2000 + el.period_s());
        // J2 causes small periodic radius oscillation (~10 km), not secular decay.
        assert!((r.norm() - el.semi_major_axis_km).abs() < 25.0);
    }

    #[test]
    fn secular_node_rate_matches_numerical_integration() {
        // Validate the secular Ω̇ against brute-force RK4 over 10 orbits.
        let el = circ(700.0, 98.0);
        let period = el.period_s();
        let horizon = 10.0 * period;
        let mut num = NumericalPropagator::from_elements(Epoch::J2000, &el).unwrap();
        let (r, v) = num.propagate_to(Epoch::J2000 + horizon);
        let osc = OrbitalElements::from_cartesian(r, v).unwrap();
        let analytic = j2_rates(&el).raan_rate * horizon;
        let numeric = crate::angles::wrap_pi(osc.raan - el.raan);
        // Agreement within ~6% over 10 orbits (short-period terms not modeled
        // in the secular theory account for the residual).
        let err = (numeric - analytic).abs() / analytic.abs();
        assert!(err < 0.06, "numeric {numeric}, analytic {analytic}, rel err {err}");
    }

    #[test]
    fn rk4_energy_stability() {
        let el = circ(560.0, 97.7);
        let (r0, v0) = el.to_cartesian().unwrap();
        let energy = |r: Vec3, v: Vec3| {
            v.norm_squared() / 2.0
                - EARTH_MU / r.norm()
                - EARTH_MU * EARTH_J2 * EARTH_RADIUS_KM * EARTH_RADIUS_KM / (2.0 * r.norm().powi(3))
                    * (1.0 - 3.0 * (r.z / r.norm()).powi(2))
        };
        let e0 = energy(r0, v0);
        let mut num = NumericalPropagator::new(Epoch::J2000, r0, v0);
        let (r1, v1) = num.propagate_to(Epoch::J2000 + 86400.0);
        let e1 = energy(r1, v1);
        assert!(((e1 - e0) / e0).abs() < 1e-7, "energy drift {}", (e1 - e0) / e0);
    }

    #[test]
    fn batch_positions_match_per_satellite_calls() {
        let props: Vec<J2Propagator> = (0..7)
            .map(|k| {
                let el = OrbitalElements::circular(
                    560.0 + 10.0 * f64::from(k),
                    1.7,
                    0.3,
                    0.2 * f64::from(k),
                )
                .unwrap();
                J2Propagator::new(Epoch::J2000, el).unwrap()
            })
            .collect();
        let t = Epoch::J2000 + 4321.0;
        let (mut xs, mut ys, mut zs) = (vec![0.0; 7], vec![0.0; 7], vec![0.0; 7]);
        batch_positions_soa(&props, t, &mut xs, &mut ys, &mut zs).unwrap();
        for (i, prop) in props.iter().enumerate() {
            let r = prop.position_at(t).unwrap();
            assert_eq!((xs[i], ys[i], zs[i]), (r.x, r.y, r.z), "satellite {i}");
        }
    }

    #[test]
    fn nodal_period_shorter_than_keplerian_for_sso() {
        // For retrograde SSO, ω̇+ΔṀ > 0 near the critical inclination? Just
        // check it is within 1% of the Keplerian period and positive.
        let el = circ(560.0, 97.64);
        let t_n = nodal_period_s(&el);
        assert!(t_n > 0.0);
        assert!((t_n - el.period_s()).abs() / el.period_s() < 0.01);
    }
}
