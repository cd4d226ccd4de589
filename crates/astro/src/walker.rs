//! Walker-delta constellation generation.
//!
//! A Walker-delta pattern `i: t/p/f` distributes `t` satellites over `p`
//! planes of common inclination `i`, with ascending nodes evenly spread
//! over the full 0–2π of right ascension and an inter-plane phase offset of
//! `2π·f/t` — the geometry used by Starlink-class constellations and by the
//! paper's baseline designs.

use crate::error::{AstroError, Result};
use crate::kepler::OrbitalElements;
use core::f64::consts::TAU;

/// A Walker-delta constellation specification.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WalkerDelta {
    /// Circular-orbit altitude \[km\].
    pub altitude_km: f64,
    /// Common inclination \[rad\].
    pub inclination: f64,
    /// Total number of satellites `t`.
    pub total_sats: usize,
    /// Number of planes `p` (must divide `t`).
    pub planes: usize,
    /// Phasing parameter `f` in `0..p`.
    pub phasing: usize,
    /// Right ascension of the first plane's node \[rad\].
    pub raan_offset: f64,
}

impl WalkerDelta {
    /// Creates a Walker-delta specification, validating divisibility.
    ///
    /// # Errors
    /// Returns [`AstroError::InvalidElement`] if `p` does not divide `t`,
    /// either is zero, or `f >= p`.
    pub fn new(
        altitude_km: f64,
        inclination: f64,
        total_sats: usize,
        planes: usize,
        phasing: usize,
    ) -> Result<Self> {
        if planes == 0 || total_sats == 0 {
            return Err(AstroError::InvalidElement {
                name: "planes/total_sats",
                value: planes.min(total_sats) as f64,
                constraint: "non-zero",
            });
        }
        if !total_sats.is_multiple_of(planes) {
            return Err(AstroError::InvalidElement {
                name: "total_sats",
                value: total_sats as f64,
                constraint: "divisible by planes",
            });
        }
        if phasing >= planes {
            return Err(AstroError::InvalidElement {
                name: "phasing",
                value: phasing as f64,
                constraint: "f < p",
            });
        }
        Ok(WalkerDelta { altitude_km, inclination, total_sats, planes, phasing, raan_offset: 0.0 })
    }

    /// Satellites per plane.
    #[inline]
    pub fn sats_per_plane(&self) -> usize {
        self.total_sats / self.planes
    }

    /// Generates the orbital elements of plane `plane`'s satellites, in
    /// slot order.
    ///
    /// Satellite `(plane k, slot j)` sits at RAAN `Ω₀ + 2πk/p` and argument
    /// of latitude `2πj/s + 2πfk/t`.
    ///
    /// # Errors
    /// Propagates element validation failure (e.g. negative altitude).
    pub fn plane_elements(&self, plane: usize) -> Result<Vec<OrbitalElements>> {
        let s = self.sats_per_plane();
        let raan = self.raan_offset + TAU * plane as f64 / self.planes as f64;
        let phase = TAU * (self.phasing * plane) as f64 / self.total_sats as f64;
        let mut out = Vec::with_capacity(s);
        for slot in 0..s {
            let u = TAU * slot as f64 / s as f64 + phase;
            out.push(OrbitalElements::circular(self.altitude_km, self.inclination, raan, u)?);
        }
        Ok(out)
    }

    /// Generates the orbital elements of every satellite, plane by plane
    /// (see [`WalkerDelta::plane_elements`]).
    ///
    /// # Errors
    /// Propagates element validation failure (e.g. negative altitude).
    pub fn generate(&self) -> Result<Vec<OrbitalElements>> {
        let mut out = Vec::with_capacity(self.total_sats);
        for plane in 0..self.planes {
            out.extend(self.plane_elements(plane)?);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::angles::separation;

    #[test]
    fn generates_t_satellites() {
        let w = WalkerDelta::new(560.0, 1.0, 60, 12, 1).unwrap();
        let sats = w.generate().unwrap();
        assert_eq!(sats.len(), 60);
        assert_eq!(w.sats_per_plane(), 5);
    }

    #[test]
    fn planes_evenly_spread_in_raan() {
        let w = WalkerDelta::new(560.0, 1.0, 24, 6, 0).unwrap();
        let sats = w.generate().unwrap();
        let spacing = TAU / 6.0;
        for p in 0..6 {
            let raan = sats[p * 4].raan;
            assert!(separation(raan, spacing * p as f64) < 1e-12);
            // All sats in a plane share the RAAN.
            for j in 0..4 {
                assert!(separation(sats[p * 4 + j].raan, raan) < 1e-12);
            }
        }
    }

    #[test]
    fn in_plane_phasing_even() {
        let w = WalkerDelta::new(560.0, 0.9, 20, 4, 2).unwrap();
        let sats = w.generate().unwrap();
        for p in 0..4 {
            for j in 0..4 {
                let a = sats[p * 5 + j].mean_anomaly;
                let b = sats[p * 5 + j + 1].mean_anomaly;
                assert!(separation(b - a, TAU / 5.0) < 1e-9);
            }
        }
        // Adjacent planes offset by 2π f / t = 2π·2/20.
        let du = separation(sats[5].mean_anomaly, sats[0].mean_anomaly + TAU * 2.0 / 20.0);
        assert!(du < 1e-9, "du = {du}");
    }

    #[test]
    fn each_plane_is_its_slice_of_the_pattern() {
        let mut w = WalkerDelta::new(560.0, 0.9, 20, 4, 3).unwrap();
        w.raan_offset = 0.25;
        let all = w.generate().unwrap();
        for k in 0..4 {
            let plane = w.plane_elements(k).unwrap();
            assert_eq!(plane, all[k * 5..(k + 1) * 5], "plane {k}");
            for (j, el) in plane.iter().enumerate() {
                let raan = 0.25 + TAU * k as f64 / 4.0;
                let u = TAU * j as f64 / 5.0 + TAU * (3 * k) as f64 / 20.0;
                let want = OrbitalElements::circular(560.0, 0.9, raan, u).unwrap();
                assert_eq!(el.raan.to_bits(), want.raan.to_bits(), "({k}, {j})");
                assert_eq!(el.mean_anomaly.to_bits(), want.mean_anomaly.to_bits(), "({k}, {j})");
            }
        }
    }

    #[test]
    fn validation_errors() {
        assert!(WalkerDelta::new(560.0, 1.0, 10, 3, 0).is_err()); // 3 ∤ 10
        assert!(WalkerDelta::new(560.0, 1.0, 0, 1, 0).is_err());
        assert!(WalkerDelta::new(560.0, 1.0, 10, 0, 0).is_err());
        assert!(WalkerDelta::new(560.0, 1.0, 10, 5, 5).is_err()); // f >= p
    }

    #[test]
    fn all_elements_valid_and_circular() {
        let w = WalkerDelta::new(1200.0, 1.2, 36, 6, 3).unwrap();
        for el in w.generate().unwrap() {
            el.validate().unwrap();
            assert_eq!(el.eccentricity, 0.0);
            assert!((el.altitude_km() - 1200.0).abs() < 1e-9);
        }
    }
}
