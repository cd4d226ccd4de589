//! Coverage geometry: spherical coverage caps, streets of coverage, and
//! analytic constellation sizing.
//!
//! All results use the classic spherical-cap model: a satellite at altitude
//! `h` serving users above a minimum elevation angle `ε` covers a spherical
//! cap of Earth-central half-angle
//!
//! ```text
//! θ = arccos( Re/(Re+h) · cos ε ) − ε
//! ```
//!
//! The workspace default minimum elevation is [`DEFAULT_MIN_ELEVATION_DEG`]
//! (30°), which calibrates the analytic sizes to the satellite counts the
//! paper reports (the `min_elevation_deg` rows of
//! `ssplane_bench::figures::ablations` are the sensitivity ablation).

use crate::constants::EARTH_RADIUS_KM;
use crate::error::{AstroError, Result};
use core::f64::consts::PI;

/// Default minimum elevation angle \[degrees\] used across the workspace.
///
/// 30° reproduces the paper's headline satellite counts (RGT ≈ 356 vs
/// Walker ≈ 200 at 1215 km) and is within the 25–40° range used by
/// deployed LEO systems.
pub const DEFAULT_MIN_ELEVATION_DEG: f64 = 30.0;

/// Earth-central coverage half-angle θ \[rad\] for a satellite at
/// `altitude_km` with minimum elevation `min_elevation` \[rad\].
///
/// # Errors
/// Returns [`AstroError::InfeasibleGeometry`] for non-positive altitudes or
/// elevations outside `[0, π/2)`.
pub fn coverage_half_angle(altitude_km: f64, min_elevation: f64) -> Result<f64> {
    if altitude_km <= 0.0 {
        return Err(AstroError::InfeasibleGeometry { what: "altitude must be positive" });
    }
    if !(0.0..PI / 2.0).contains(&min_elevation) {
        return Err(AstroError::InfeasibleGeometry { what: "min elevation must be in [0, pi/2)" });
    }
    let ratio = EARTH_RADIUS_KM / (EARTH_RADIUS_KM + altitude_km);
    Ok((ratio * min_elevation.cos()).acos() - min_elevation)
}

/// Elevation angle \[rad\] of a satellite seen from a ground point at
/// Earth-central separation `central_angle` \[rad\], for a satellite at
/// `altitude_km`. Negative values mean the satellite is below the horizon.
pub fn elevation_at_central_angle(altitude_km: f64, central_angle: f64) -> f64 {
    let r = EARTH_RADIUS_KM + altitude_km;
    let (s, c) = central_angle.sin_cos();
    // tan ε = (cos θ - Re/r) / sin θ
    ((c - EARTH_RADIUS_KM / r) / s).atan()
}

/// Half-width `c` \[rad\] of the *street of coverage* laid down by
/// `sats_per_plane` equally spaced satellites each covering a cap of
/// half-angle `theta`:
///
/// ```text
/// cos θ = cos c · cos(π/S)   ⇒   c = arccos(cos θ / cos(π/S))
/// ```
///
/// # Errors
/// Returns [`AstroError::InfeasibleGeometry`] when the satellites are too
/// sparse for their caps to overlap (`π/S > θ`).
pub fn street_half_width(theta: f64, sats_per_plane: usize) -> Result<f64> {
    if sats_per_plane == 0 {
        return Err(AstroError::InfeasibleGeometry { what: "need at least one satellite" });
    }
    let half_spacing = PI / sats_per_plane as f64;
    let ratio = theta.cos() / half_spacing.cos();
    if !(0.0..=1.0).contains(&ratio) {
        return Err(AstroError::InfeasibleGeometry {
            what: "caps of adjacent satellites in plane do not overlap",
        });
    }
    Ok(ratio.acos())
}

/// Minimum satellites in one plane so that every point of the sub-satellite
/// track is continuously covered (adjacent caps touch): `S = ⌈π/θ⌉`.
fn min_sats_for_track_coverage(theta: f64) -> usize {
    (PI / theta).ceil() as usize
}

/// Satellites per plane for a *robust* street: in-plane spacing equal to θ
/// (adjacent caps overlap at 50%), giving a street half-width of
/// `√3/2 · θ`. This is the spacing rule used throughout the paper
/// reproduction (it recovers the paper's RGT and SS-plane satellite
/// counts).
pub fn sats_per_plane_half_overlap(theta: f64) -> usize {
    (2.0 * PI / theta).ceil() as usize
}

/// Result of analytic Walker-delta sizing for continuous coverage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalkerSizing {
    /// Number of orbital planes.
    pub planes: usize,
    /// Satellites per plane.
    pub sats_per_plane: usize,
}

impl WalkerSizing {
    /// Total satellite count.
    pub fn total(&self) -> usize {
        self.planes * self.sats_per_plane
    }
}

/// Analytic streets-of-coverage sizing of a Walker-delta constellation for
/// continuous coverage of the latitude band reachable at inclination
/// `inclination` \[rad\], with per-satellite cap half-angle `theta` \[rad\].
///
/// The binding constraint for the mid-inclination constellations studied in
/// the paper is the equator: ascending and descending streets of `P` planes
/// cross it at effective spacing `π/P`, with perpendicular width reduced by
/// `sin i`, giving `P ≥ π·sin i / (2c)`. The satellites-per-plane count `S`
/// trades against street width `c(S)`; this routine searches `S` for the
/// minimum total.
///
/// # Errors
/// Returns [`AstroError::InfeasibleGeometry`] for `theta` outside
/// `(0, π/2)` or inclination outside `(0, π)`.
pub fn size_walker_delta(theta: f64, inclination: f64) -> Result<WalkerSizing> {
    if !(theta > 0.0 && theta < PI / 2.0) {
        return Err(AstroError::InfeasibleGeometry { what: "theta must be in (0, pi/2)" });
    }
    if !(inclination > 0.0 && inclination < PI) {
        return Err(AstroError::InfeasibleGeometry { what: "inclination must be in (0, pi)" });
    }
    let sin_i = inclination.sin().max(0.05);
    let s_min = min_sats_for_track_coverage(theta).max(2);
    let mut best: Option<WalkerSizing> = None;
    // Beyond ~4x the minimum in-plane count the street width saturates at
    // theta and totals only grow; the search window is generous.
    for s in s_min..=(s_min * 4 + 8) {
        let Ok(c) = street_half_width(theta, s) else { continue };
        if c <= 1e-9 {
            continue;
        }
        let planes = ((PI * sin_i) / (2.0 * c)).ceil() as usize;
        let planes = planes.max(1);
        let candidate = WalkerSizing { planes, sats_per_plane: s };
        if best.is_none_or(|b| candidate.total() < b.total()) {
            best = Some(candidate);
        }
    }
    best.ok_or(AstroError::InfeasibleGeometry { what: "no feasible street configuration" })
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS30: f64 = 30.0 * PI / 180.0;

    fn size_at(altitude_km: f64, inclination_deg: f64) -> WalkerSizing {
        let theta = coverage_half_angle(altitude_km, EPS30).unwrap();
        size_walker_delta(theta, inclination_deg.to_radians()).unwrap()
    }

    #[test]
    fn coverage_half_angle_reference_values() {
        // At 560 km / ε=30°: θ ≈ 7.25°.
        let t = coverage_half_angle(560.0, EPS30).unwrap().to_degrees();
        assert!((t - 7.25).abs() < 0.1, "theta = {t}");
        // At 1215 km / ε=30°: θ ≈ 13.3°.
        let t = coverage_half_angle(1215.0, EPS30).unwrap().to_degrees();
        assert!((t - 13.3).abs() < 0.15, "theta = {t}");
    }

    #[test]
    fn coverage_monotone_in_altitude_and_elevation() {
        let mut prev = 0.0;
        for h in [300.0, 600.0, 1200.0, 2000.0] {
            let t = coverage_half_angle(h, EPS30).unwrap();
            assert!(t > prev, "theta not increasing at {h}");
            prev = t;
        }
        let t_low = coverage_half_angle(560.0, 0.1).unwrap();
        let t_high = coverage_half_angle(560.0, 0.9).unwrap();
        assert!(t_low > t_high);
    }

    #[test]
    fn zero_elevation_is_horizon_geometry() {
        // At ε=0, θ = arccos(Re/(Re+h)).
        let t = coverage_half_angle(560.0, 0.0).unwrap();
        let expect = (EARTH_RADIUS_KM / (EARTH_RADIUS_KM + 560.0)).acos();
        assert!((t - expect).abs() < 1e-12);
    }

    #[test]
    fn elevation_at_cap_edge_equals_min_elevation() {
        let theta = coverage_half_angle(560.0, EPS30).unwrap();
        let e = elevation_at_central_angle(560.0, theta);
        assert!((e - EPS30).abs() < 1e-9);
        // At nadir-adjacent separation elevation approaches 90°.
        let near = elevation_at_central_angle(560.0, 1e-6);
        assert!(near > 89.0f64.to_radians());
    }

    #[test]
    fn street_width_behaviour() {
        let theta = 0.2;
        // Too few satellites: caps don't overlap.
        assert!(street_half_width(theta, 3).is_err());
        // Marginal: c ≈ 0.
        let s_min = min_sats_for_track_coverage(theta);
        let c_min = street_half_width(theta, s_min).unwrap();
        assert!(c_min >= 0.0 && c_min < theta);
        // More satellites: street approaches theta.
        let c_dense = street_half_width(theta, s_min * 8).unwrap();
        assert!(c_dense > c_min && c_dense < theta);
        assert!((street_half_width(theta, 10_000).unwrap() - theta).abs() < 1e-3);
    }

    #[test]
    fn half_overlap_street_width_is_sqrt3_over_2_theta() {
        let theta: f64 = 0.15;
        let s = sats_per_plane_half_overlap(theta);
        let c = street_half_width(theta, s).unwrap();
        // Spacing theta (half overlap) gives c = acos(cos θ / cos(θ/2)) ≈ √3/2·θ
        // for small θ.
        let expect = (theta.cos() / (theta / 2.0).cos()).acos();
        assert!((c - expect).abs() < 0.02 * theta, "c = {c}, expect ≈ {expect}");
        assert!((expect - 3f64.sqrt() / 2.0 * theta).abs() < 0.01 * theta);
    }

    #[test]
    fn walker_sizing_paper_anchor_1215km() {
        // The paper's Fig. 1 anchor: ~200 satellites at 1215 km, 65°.
        let sizing = size_at(1215.0, 65.0);
        let n = sizing.total();
        assert!((150..=260).contains(&n), "total = {n} ({sizing:?})");
    }

    #[test]
    fn walker_sizing_decreases_with_altitude() {
        let lo = size_at(500.0, 65.0).total();
        let hi = size_at(2000.0, 65.0).total();
        assert!(lo > hi, "lo={lo} hi={hi}");
    }

    #[test]
    fn walker_sizing_rejects_bad_domain() {
        assert!(size_walker_delta(0.0, 1.0).is_err());
        assert!(size_walker_delta(2.0, 1.0).is_err());
        assert!(size_walker_delta(0.2, 0.0).is_err());
        assert!(coverage_half_angle(-5.0, 0.3).is_err());
        assert!(coverage_half_angle(560.0, 2.0).is_err());
    }

    #[test]
    fn nadir_plus_coverage_plus_elevation_is_right_angle() {
        // η + θ + ε = 90° (spherical triangle identity), with the nadir
        // cone half-angle η from `sin η = Re/(Re+h) · cos ε`.
        let h = 780.0;
        let eps: f64 = 0.4;
        let eta = (EARTH_RADIUS_KM / (EARTH_RADIUS_KM + h) * eps.cos()).asin();
        let theta = coverage_half_angle(h, eps).unwrap();
        assert!((eta + theta + eps - PI / 2.0).abs() < 1e-12);
    }
}
