//! Reference frames: ECI ↔ ECEF ↔ geodetic, and the sun-relative frame.
//!
//! The sun-relative frame is the conceptual core of the SS-plane design:
//! a coordinate system `(latitude, local solar time)` in which the paper's
//! demand model is (approximately) stationary. A sun-synchronous orbital
//! plane traces a *fixed* curve in this frame, which is what lets a
//! constellation "pin" supply to demand.

use crate::angles::wrap_two_pi;
use crate::geo::GeoPoint;
use crate::linalg::{Mat3, Vec3};
use crate::sun::local_solar_time_of_right_ascension;
use crate::time::Epoch;

/// Rotates an ECI position vector into the Earth-fixed (ECEF) frame.
#[inline]
pub fn eci_to_ecef(epoch: Epoch, r_eci: Vec3) -> Vec3 {
    Mat3::rot_z(epoch.gmst()) * r_eci
}

/// Rotates an ECEF position vector into the ECI frame.
#[inline]
pub fn ecef_to_eci(epoch: Epoch, r_ecef: Vec3) -> Vec3 {
    Mat3::rot_z(-epoch.gmst()) * r_ecef
}

/// Sub-satellite point and altitude for an ECI position.
///
/// Returns `(ground point, altitude above the spherical Earth in km)`.
/// Returns `None` for the zero vector.
pub fn subsatellite_point(epoch: Epoch, r_eci: Vec3) -> Option<(GeoPoint, f64)> {
    let r_ecef = eci_to_ecef(epoch, r_eci);
    let point = GeoPoint::from_vector(r_ecef)?;
    Some((point, r_ecef.norm() - crate::constants::EARTH_RADIUS_KM))
}

/// A position expressed in the sun-relative grid the paper's demand model
/// lives on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SunRelativePoint {
    /// Latitude \[rad\], identical to the geographic latitude.
    pub lat: f64,
    /// Mean local solar time \[hours, 0-24)\]. 12.0 is local noon (the
    /// meridian facing the Sun).
    pub local_time_h: f64,
}

/// Converts an ECI position to the sun-relative grid at `epoch`.
///
/// Returns `None` for the zero vector.
pub fn eci_to_sun_relative(epoch: Epoch, r_eci: Vec3) -> Option<SunRelativePoint> {
    let n = r_eci.normalized()?;
    let lat = n.z.clamp(-1.0, 1.0).asin();
    let right_ascension = wrap_two_pi(n.y.atan2(n.x));
    Some(SunRelativePoint {
        lat,
        local_time_h: local_solar_time_of_right_ascension(epoch, right_ascension),
    })
}

/// Converts a ground point to the sun-relative grid at `epoch`. The
/// pipeline works from ECI positions ([`eci_to_sun_relative`]); this
/// ground-point form is the reference the tests check that path
/// against.
pub fn ground_to_sun_relative(epoch: Epoch, point: GeoPoint) -> SunRelativePoint {
    SunRelativePoint {
        lat: point.lat,
        local_time_h: crate::sun::local_solar_time_of_longitude(epoch, point.lon),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constants::EARTH_RADIUS_KM;

    /// A spherical-Earth ground point at `altitude_km` as an ECEF vector.
    fn geodetic_to_ecef(point: GeoPoint, altitude_km: f64) -> Vec3 {
        point.to_unit_vector() * (EARTH_RADIUS_KM + altitude_km)
    }

    #[test]
    fn eci_ecef_round_trip() {
        let e = Epoch::from_calendar(2021, 4, 1, 3, 45, 0.0);
        let r = Vec3::new(7000.0, -1234.5, 3456.7);
        let back = ecef_to_eci(e, eci_to_ecef(e, r));
        assert!((back - r).norm() < 1e-9);
    }

    #[test]
    fn subsatellite_altitude() {
        let e = Epoch::J2000;
        let r = Vec3::new(EARTH_RADIUS_KM + 560.0, 0.0, 0.0);
        let (_, alt) = subsatellite_point(e, r).unwrap();
        assert!((alt - 560.0).abs() < 1e-9);
    }

    #[test]
    fn geodetic_ecef_round_trip() {
        let p = GeoPoint::from_degrees(45.0, -120.0);
        let r = geodetic_to_ecef(p, 560.0);
        let (q, alt) = {
            let gp = GeoPoint::from_vector(r).unwrap();
            (gp, r.norm() - EARTH_RADIUS_KM)
        };
        assert!((q.lat - p.lat).abs() < 1e-12);
        assert!(crate::angles::separation(q.lon, p.lon) < 1e-12);
        assert!((alt - 560.0).abs() < 1e-9);
    }

    #[test]
    fn sun_relative_ground_point_consistency() {
        // A ground point's sun-relative coordinates computed directly and
        // via ECI must agree.
        let e = Epoch::from_calendar(2022, 9, 10, 15, 30, 0.0);
        let p = GeoPoint::from_degrees(37.0, 23.0);
        let direct = ground_to_sun_relative(e, p);
        let via_eci = eci_to_sun_relative(e, ecef_to_eci(e, geodetic_to_ecef(p, 0.0))).unwrap();
        assert!((direct.lat - via_eci.lat).abs() < 1e-9);
        let dh = (direct.local_time_h - via_eci.local_time_h).abs();
        assert!(dh.min(24.0 - dh) < 1e-6, "dh = {dh}");
    }

    #[test]
    fn sun_relative_point_is_stationary_for_sun_fixed_observer() {
        // A point rotating with the *mean sun* keeps constant local time.
        // Approximate: take the subsolar longitude at two epochs; both map
        // to local noon.
        for (y, m, d) in [(2020, 1, 1), (2020, 7, 1)] {
            let e = Epoch::from_calendar(y, m, d, 8, 0, 0.0);
            let lon = crate::sun::subsolar_longitude(e);
            let sr = ground_to_sun_relative(e, GeoPoint::new(0.3, lon));
            assert!((sr.local_time_h - 12.0).abs() < 1e-6, "{:?}", sr);
        }
    }
}
