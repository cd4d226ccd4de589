//! McIlwain L-shell magnetic coordinates in the dipole approximation.
//!
//! Trapped particles organize on drift shells labeled by `L` (the
//! equatorial crossing distance of the field line, in Earth radii) and by
//! the local field ratio `B/B₀(L)` (how far down the field line toward the
//! mirror points a position sits). All belt flux models in this crate are
//! functions of these two numbers, so radiation "geography" — the SAA, the
//! outer-belt horns — falls out of the field geometry computed here.

use crate::dipole::DipoleField;
use crate::error::{RadiationError, Result};
use ssplane_astro::constants::EARTH_RADIUS_KM;
use ssplane_astro::linalg::Vec3;

/// Magnetic coordinates of a position.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MagneticCoords {
    /// McIlwain L parameter \[Earth radii\]: `L = (r/Re)/cos²λₘ` in the
    /// dipole approximation.
    pub l_shell: f64,
    /// Local field magnitude \[T\].
    pub b_local: f64,
    /// Equatorial field on this L-shell \[T\]: `B₀/L³`.
    pub b_equatorial: f64,
    /// Magnetic latitude \[rad\].
    pub magnetic_latitude: f64,
}

impl MagneticCoords {
    /// Ratio of the local field to the shell's equatorial field (≥ 1 for
    /// physical trapped-particle positions). The belt models read the two
    /// fields directly; the tests check the dipole identities through
    /// this ratio.
    pub fn b_over_b0(&self) -> f64 {
        self.b_local / self.b_equatorial
    }
}

/// Computes magnetic coordinates for an ECEF position \[km\].
///
/// # Errors
/// Returns [`RadiationError::BelowSurface`] for positions under ~100 km
/// altitude, where trapped populations are scattered by the atmosphere and
/// the coordinates would be meaningless for this crate's purposes.
pub fn magnetic_coordinates(field: &DipoleField, ecef_km: Vec3) -> Result<MagneticCoords> {
    let geocentric_radius = ecef_km.norm();
    if geocentric_radius < EARTH_RADIUS_KM + 100.0 {
        return Err(RadiationError::BelowSurface { radius_km: geocentric_radius });
    }
    let r_dipole = field.dipole_radius(ecef_km);
    let lambda = field.magnetic_latitude(ecef_km);
    let cos2 = lambda.cos().powi(2).max(1e-6);
    let l_shell = (r_dipole / EARTH_RADIUS_KM) / cos2;
    let b_local = field.field_magnitude(ecef_km);
    let b_equatorial = field.b0 / l_shell.powi(3);
    Ok(MagneticCoords { l_shell, b_local, b_equatorial, magnetic_latitude: lambda })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssplane_astro::geo::GeoPoint;

    fn at(lat_deg: f64, lon_deg: f64, alt_km: f64) -> Vec3 {
        GeoPoint::from_degrees(lat_deg, lon_deg).to_unit_vector() * (EARTH_RADIUS_KM + alt_km)
    }

    #[test]
    fn centered_dipole_l_values() {
        let d = DipoleField::centered_aligned();
        // Equator at altitude h: L = 1 + h/Re.
        let c = magnetic_coordinates(&d, at(0.0, 10.0, 560.0)).unwrap();
        assert!((c.l_shell - (1.0 + 560.0 / EARTH_RADIUS_KM)).abs() < 1e-9);
        assert!((c.b_over_b0() - 1.0).abs() < 1e-9);
        // 60° magnetic latitude at the same radius: L = r/cos²60 = 4r.
        let c = magnetic_coordinates(&d, at(60.0, 10.0, 560.0)).unwrap();
        let r_re = 1.0 + 560.0 / EARTH_RADIUS_KM;
        assert!((c.l_shell - r_re / 0.25).abs() < 1e-6);
        // Dipole identity: B/B0 = sqrt(1+3sin²λ)/cos⁶λ.
        let expect = (1.0f64 + 3.0 * (60f64.to_radians()).sin().powi(2)).sqrt()
            / (60f64.to_radians()).cos().powi(6);
        assert!((c.b_over_b0() - expect).abs() / expect < 1e-9);
    }

    #[test]
    fn outer_belt_horns_at_high_latitude() {
        // The L=4.5..6 shells must come down to 560 km at magnetic
        // latitudes ~60-66°: L(60°) < 4.5 < L(64°) < 6 < L(68°).
        let d = DipoleField::centered_aligned();
        let l_at = |lat: f64| magnetic_coordinates(&d, at(lat, 10.0, 560.0)).unwrap().l_shell;
        let (l60, l64, l68) = (l_at(60.0), l_at(64.0), l_at(68.0));
        assert!(l60 < 4.5 && 4.5 < l64, "L=4.5 footprint outside 60-64°: {l60} {l64}");
        assert!(l64 < 6.0 && 6.0 < l68, "L=6 footprint outside 64-68°: {l64} {l68}");
    }

    #[test]
    fn saa_has_low_l_at_leo() {
        // In the SAA, LEO positions sit on unusually low L-shells compared
        // with the same geographic latitude elsewhere.
        let d = DipoleField::default();
        let saa = magnetic_coordinates(&d, at(-25.0, -45.0, 560.0)).unwrap();
        let ref_pt = magnetic_coordinates(&d, at(-25.0, 135.0, 560.0)).unwrap();
        assert!(saa.l_shell < ref_pt.l_shell, "SAA L {} vs {}", saa.l_shell, ref_pt.l_shell);
        assert!(saa.b_local < ref_pt.b_local);
    }

    #[test]
    fn below_surface_rejected() {
        let d = DipoleField::default();
        assert!(matches!(
            magnetic_coordinates(&d, Vec3::new(6000.0, 0.0, 0.0)),
            Err(RadiationError::BelowSurface { .. })
        ));
    }

    #[test]
    fn b_over_b0_at_least_one_off_equator() {
        let d = DipoleField::centered_aligned();
        for lat in [-70.0, -40.0, -10.0, 0.0, 25.0, 55.0, 80.0] {
            let c = magnetic_coordinates(&d, at(lat, 0.0, 800.0)).unwrap();
            assert!(c.b_over_b0() >= 1.0 - 1e-9, "lat {lat}: B/B0 = {}", c.b_over_b0());
        }
    }
}
