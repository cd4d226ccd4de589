//! Offset tilted dipole model of the geomagnetic field.
//!
//! The Earth's field at LEO is ~90% dipolar, but two departures from a
//! centered aligned dipole dominate the radiation geography the paper
//! cares about:
//!
//! * the **tilt** (~11°) between the dipole axis and the rotation axis,
//!   which swings the radiation-belt footprints in longitude, and
//! * the **offset** (~500 km) of the dipole center toward the western
//!   Pacific, which weakens the field over the South Atlantic and lets the
//!   inner belt sag to LEO altitudes there — the **South Atlantic
//!   Anomaly**.
//!
//! Both are modeled here with the classic eccentric-dipole parameters.

use ssplane_astro::constants::EARTH_RADIUS_KM;
use ssplane_astro::geo::GeoPoint;
use ssplane_astro::linalg::Vec3;

/// Surface equatorial field strength of the dipole \[Tesla\] (0.301 G,
/// IGRF-2015 dipole moment).
pub(crate) const B0_SURFACE_T: f64 = 3.012e-5;

/// Geodetic position of the geomagnetic north pole used for the tilt
/// (IGRF-era value: 80.4°N, 287.4°E).
const GEOMAGNETIC_NORTH_POLE: (f64, f64) = (80.4, -72.6);

/// Eccentric-dipole center offset from the Earth center \[km\] in ECEF,
/// ~500 km toward (≈22°N, 141°E) — western Pacific.
const DIPOLE_OFFSET_KM: Vec3 = Vec3 { x: -385.0, y: 285.0, z: 170.0 };

/// The offset tilted dipole field model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DipoleField {
    /// Unit vector of the dipole moment in ECEF. Points toward the
    /// *southern* magnetic hemisphere (physical convention: the field
    /// emerges near the geographic south pole).
    pub moment_dir: Vec3,
    /// Dipole center offset from the geocenter \[km\], ECEF.
    pub offset_km: Vec3,
    /// Surface equatorial field strength \[T\].
    pub b0: f64,
}

impl Default for DipoleField {
    fn default() -> Self {
        let (lat, lon) = GEOMAGNETIC_NORTH_POLE;
        let north = GeoPoint::from_degrees(lat, lon).to_unit_vector();
        DipoleField { moment_dir: -north, offset_km: DIPOLE_OFFSET_KM, b0: B0_SURFACE_T }
    }
}

impl DipoleField {
    /// A centered, axis-aligned dipole (no tilt, no offset) — the tests
    /// validate against closed-form dipole results with it.
    #[cfg(test)]
    pub fn centered_aligned() -> Self {
        DipoleField { moment_dir: -Vec3::Z, offset_km: Vec3::ZERO, b0: B0_SURFACE_T }
    }

    /// Magnetic field vector \[T\] at an ECEF position \[km\].
    ///
    /// Dipole formula `B = (B0·Re³/r³)·(3(m̂·r̂)r̂ − m̂)` with `r` measured
    /// from the (offset) dipole center.
    pub fn field(&self, ecef_km: Vec3) -> Vec3 {
        let rel = ecef_km - self.offset_km;
        let r = rel.norm();
        let r_hat = rel / r;
        let k = self.b0 * (EARTH_RADIUS_KM / r).powi(3);
        (r_hat * (3.0 * self.moment_dir.dot(r_hat)) - self.moment_dir) * k
    }

    /// Field magnitude \[T\] at an ECEF position.
    pub fn field_magnitude(&self, ecef_km: Vec3) -> f64 {
        self.field(ecef_km).norm()
    }

    /// Magnetic latitude \[rad\] of an ECEF position: the latitude in the
    /// dipole-centered frame whose pole is the (northern) dipole axis.
    pub fn magnetic_latitude(&self, ecef_km: Vec3) -> f64 {
        let rel = ecef_km - self.offset_km;
        let r_hat = match rel.normalized() {
            Some(u) => u,
            None => return 0.0,
        };
        // moment_dir points south; magnetic latitude is measured toward
        // the northern magnetic pole.
        (-(r_hat.dot(self.moment_dir))).clamp(-1.0, 1.0).asin()
    }

    /// Radial distance \[km\] from the dipole center.
    pub fn dipole_radius(&self, ecef_km: Vec3) -> f64 {
        (ecef_km - self.offset_km).norm()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn centered_dipole_equator_and_pole_magnitudes() {
        let d = DipoleField::centered_aligned();
        // Equator at surface: B = B0.
        let b_eq = d.field_magnitude(Vec3::new(EARTH_RADIUS_KM, 0.0, 0.0));
        assert!((b_eq - B0_SURFACE_T).abs() / B0_SURFACE_T < 1e-12);
        // Pole at surface: B = 2·B0.
        let b_pole = d.field_magnitude(Vec3::new(0.0, 0.0, EARTH_RADIUS_KM));
        assert!((b_pole - 2.0 * B0_SURFACE_T).abs() / B0_SURFACE_T < 1e-12);
    }

    #[test]
    fn field_decays_cubically() {
        let d = DipoleField::centered_aligned();
        let b1 = d.field_magnitude(Vec3::new(EARTH_RADIUS_KM, 0.0, 0.0));
        let b2 = d.field_magnitude(Vec3::new(2.0 * EARTH_RADIUS_KM, 0.0, 0.0));
        assert!((b1 / b2 - 8.0).abs() < 1e-9);
    }

    #[test]
    fn field_points_north_at_equator() {
        // At the magnetic equator the field points toward magnetic north
        // (horizontal, opposite the moment direction).
        let d = DipoleField::centered_aligned();
        let b = d.field(Vec3::new(EARTH_RADIUS_KM, 0.0, 0.0));
        assert!(b.z > 0.0, "northward (+z for aligned dipole): {b:?}");
        assert!(b.x.abs() < 1e-20 && b.y.abs() < 1e-20);
    }

    #[test]
    fn saa_field_weaker_than_antipode() {
        // The hallmark of the offset dipole: at 560 km over the South
        // Atlantic (-25°, -45°) the field is markedly weaker than over the
        // western Pacific antipode (+25°, 135°).
        let d = DipoleField::default();
        let saa = GeoPoint::from_degrees(-25.0, -45.0).to_unit_vector() * (EARTH_RADIUS_KM + 560.0);
        let pac = GeoPoint::from_degrees(25.0, 135.0).to_unit_vector() * (EARTH_RADIUS_KM + 560.0);
        let b_saa = d.field_magnitude(saa);
        let b_pac = d.field_magnitude(pac);
        assert!(b_saa < 0.75 * b_pac, "B_SAA = {b_saa:e}, B_Pacific = {b_pac:e}");
        // And the global surface-field minimum at that altitude is in the
        // SAA quadrant (southern hemisphere, western longitudes).
        let mut min = (f64::INFINITY, 0.0, 0.0);
        for lat in (-80..=80).step_by(4) {
            for lon in (-180..180).step_by(4) {
                let p = GeoPoint::from_degrees(lat as f64, lon as f64).to_unit_vector()
                    * (EARTH_RADIUS_KM + 560.0);
                let b = d.field_magnitude(p);
                if b < min.0 {
                    min = (b, lat as f64, lon as f64);
                }
            }
        }
        assert!(min.1 < 0.0 && min.2 < 0.0, "field minimum at ({}, {})", min.1, min.2);
    }

    #[test]
    fn magnetic_latitude_poles_and_equator() {
        let d = DipoleField::centered_aligned();
        let up = d.magnetic_latitude(Vec3::new(0.0, 0.0, 7000.0));
        assert!((up - core::f64::consts::FRAC_PI_2).abs() < 1e-9);
        let eq = d.magnetic_latitude(Vec3::new(7000.0, 0.0, 0.0));
        assert!(eq.abs() < 1e-12);
        // Tilted dipole: geographic pole is NOT at magnetic latitude 90°.
        let t = DipoleField::default();
        let gp = t.magnetic_latitude(Vec3::new(0.0, 0.0, 7000.0));
        assert!(gp < 85f64.to_radians() && gp > 70f64.to_radians());
    }

    #[test]
    fn zero_vector_safe() {
        let d = DipoleField::centered_aligned();
        assert_eq!(d.magnetic_latitude(Vec3::ZERO), 0.0);
    }
}
