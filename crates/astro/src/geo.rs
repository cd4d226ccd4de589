//! Spherical-Earth geography: geodetic points, great-circle math.

use crate::constants::EARTH_RADIUS_KM;
use crate::linalg::Vec3;

/// A point on the (spherical) Earth surface.
///
/// Latitude in `[-π/2, π/2]`, longitude in `(-π, π]`, radians.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct GeoPoint {
    /// Geocentric latitude \[rad\], positive north.
    pub lat: f64,
    /// Longitude \[rad\], positive east.
    pub lon: f64,
}

impl GeoPoint {
    /// Creates a point from latitude/longitude in radians.
    #[inline]
    pub fn new(lat: f64, lon: f64) -> Self {
        GeoPoint { lat, lon: crate::angles::wrap_pi(lon) }
    }

    /// Creates a point from latitude/longitude in degrees.
    #[inline]
    pub fn from_degrees(lat_deg: f64, lon_deg: f64) -> Self {
        GeoPoint::new(lat_deg.to_radians(), lon_deg.to_radians())
    }

    /// Latitude in degrees.
    #[inline]
    pub fn lat_deg(&self) -> f64 {
        self.lat.to_degrees()
    }

    /// Longitude in degrees.
    #[inline]
    pub fn lon_deg(&self) -> f64 {
        self.lon.to_degrees()
    }

    /// Unit vector from the Earth's center through this point (in the
    /// Earth-fixed frame).
    #[inline]
    pub fn to_unit_vector(&self) -> Vec3 {
        let (slat, clat) = self.lat.sin_cos();
        let (slon, clon) = self.lon.sin_cos();
        Vec3::new(clat * clon, clat * slon, slat)
    }

    /// Recovers a point from any non-zero vector in the Earth-fixed frame
    /// (only the direction is used).
    ///
    /// Returns the north pole for vectors along ±Z with zero horizontal
    /// component and `None` only for the zero vector.
    pub fn from_vector(v: Vec3) -> Option<Self> {
        let n = v.normalized()?;
        // atan2 keeps full precision near the poles where asin(z) degrades.
        let horizontal = (n.x * n.x + n.y * n.y).sqrt();
        Some(GeoPoint { lat: n.z.atan2(horizontal), lon: n.y.atan2(n.x) })
    }

    /// Great-circle central angle to `other` \[rad\], in `[0, π]`.
    pub fn central_angle_to(&self, other: &GeoPoint) -> f64 {
        self.to_unit_vector().angle_to(other.to_unit_vector())
    }

    /// Great-circle surface distance to `other` \[km\] on the spherical
    /// Earth.
    #[inline]
    pub fn distance_km(&self, other: &GeoPoint) -> f64 {
        self.central_angle_to(other) * EARTH_RADIUS_KM
    }
}

/// Area \[km²\] of the latitude band `[lat0, lat1]` on the spherical Earth.
pub fn latitude_band_area_km2(lat0: f64, lat1: f64) -> f64 {
    let (lo, hi) = if lat0 <= lat1 { (lat0, lat1) } else { (lat1, lat0) };
    core::f64::consts::TAU * EARTH_RADIUS_KM * EARTH_RADIUS_KM * (hi.sin() - lo.sin())
}

#[cfg(test)]
mod tests {
    use super::*;
    use core::f64::consts::{FRAC_PI_2, PI};

    #[test]
    fn unit_vector_round_trip() {
        for (lat, lon) in [(0.0, 0.0), (0.5, 1.0), (-1.2, -2.9), (FRAC_PI_2 - 1e-6, 0.3)] {
            let p = GeoPoint::new(lat, lon);
            let q = GeoPoint::from_vector(p.to_unit_vector()).unwrap();
            assert!((p.lat - q.lat).abs() < 1e-12);
            assert!(crate::angles::separation(p.lon, q.lon) < 1e-9);
        }
    }

    #[test]
    fn central_angle_quarter_turn() {
        let equator = GeoPoint::from_degrees(0.0, 0.0);
        let pole = GeoPoint::from_degrees(90.0, 0.0);
        assert!((equator.central_angle_to(&pole) - FRAC_PI_2).abs() < 1e-12);
    }

    #[test]
    fn antipodal_distance() {
        let a = GeoPoint::from_degrees(10.0, 20.0);
        let b = GeoPoint::from_degrees(-10.0, -160.0);
        assert!((a.central_angle_to(&b) - PI).abs() < 1e-9);
    }

    #[test]
    fn band_area_sums_to_sphere() {
        let total: f64 = latitude_band_area_km2(-FRAC_PI_2, FRAC_PI_2);
        let sphere = 4.0 * PI * EARTH_RADIUS_KM * EARTH_RADIUS_KM;
        assert!((total - sphere).abs() / sphere < 1e-12);
        // Symmetric bands have equal area.
        let n = latitude_band_area_km2(0.2, 0.5);
        let s = latitude_band_area_km2(-0.5, -0.2);
        assert!((n - s).abs() < 1e-6);
    }

    #[test]
    fn known_city_distance() {
        // London <-> New York: ~5570 km great-circle.
        let london = GeoPoint::from_degrees(51.5074, -0.1278);
        let nyc = GeoPoint::from_degrees(40.7128, -74.0060);
        let d = london.distance_km(&nyc);
        assert!((d - 5570.0).abs() < 60.0, "d = {d}");
    }
}
