//! The SS-plane primitive (§4.1): a sun-synchronous orbital plane as a
//! fixed path on the (latitude, local-time-of-day) demand grid.

use crate::error::Result;
use ssplane_astro::frames::SunRelativePoint;
use ssplane_astro::kepler::OrbitalElements;
use ssplane_astro::sunsync::SunSyncOrbit;
use ssplane_astro::time::Epoch;
use ssplane_demand::grid::LatTodGrid;

/// A sun-synchronous plane populated with equally spaced satellites.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SsPlane {
    /// The plane's orbit (altitude, inclination, LTAN).
    pub orbit: SunSyncOrbit,
    /// Number of satellites in the plane.
    pub n_sats: usize,
}

impl SsPlane {
    /// Samples the plane's fixed sun-relative track at `n` points of
    /// argument of latitude: the dense reference the designer's coverage
    /// tests and proptests compare swaths against.
    pub fn track_points(&self, n: usize) -> Vec<SunRelativePoint> {
        (0..n)
            .map(|k| self.orbit.sun_relative_point(core::f64::consts::TAU * k as f64 / n as f64))
            .collect()
    }

    /// The set of grid cells supplied by the plane: cells whose *area*
    /// intersects the swath of half-width `swath_half_angle` \[rad\]
    /// around the plane's track.
    ///
    /// A cell counts as covered when its center lies within
    /// `swath + half-cell-diagonal` of the track — the paper's grid model
    /// subtracts a satellite of capacity from every "point covered by the
    /// plane's path", i.e. any cell the swath touches. Distance on the
    /// grid uses the local metric `Δσ² ≈ Δlat² + (cos(lat)·Δlon)²` with
    /// `Δlon = Δtod·15°`, exact to second order for the swath widths of
    /// interest (≲ 0.2 rad).
    pub fn covered_cells(&self, grid: &LatTodGrid, swath_half_angle: f64) -> Vec<(usize, usize)> {
        let lat_bins = grid.lat_bins();
        let tod_bins = grid.tod_bins();
        let dlat = core::f64::consts::PI / lat_bins as f64;
        let dtod_rad = core::f64::consts::TAU / tod_bins as f64; // hour bin as angle

        // Sample the track densely relative to both the cell size and the
        // swath radius.
        let n_samples = (4.0 * core::f64::consts::TAU / swath_half_angle.min(dlat).max(1e-3))
            .ceil()
            .clamp(256.0, 8192.0) as usize;
        let mut covered = vec![false; lat_bins * tod_bins];

        for s in 0..n_samples {
            let u = core::f64::consts::TAU * s as f64 / n_samples as f64;
            let p = self.orbit.sun_relative_point(u);
            let cos_lat = p.lat.cos().max(0.05);

            // Swath dilated by the half-diagonal of a cell at this
            // latitude (cell-area intersection test via its center).
            let half_diag = ((dlat / 2.0).powi(2) + (dtod_rad * cos_lat / 2.0).powi(2)).sqrt();
            let reach = swath_half_angle + half_diag;

            // Neighborhood of cells possibly within reach.
            let lat_reach = (reach / dlat).ceil() as isize + 1;
            let tod_reach = (reach / (cos_lat * dtod_rad)).ceil() as isize + 1;
            let (ci, cj) = grid.cell_of(p);
            for di in -lat_reach..=lat_reach {
                let i = ci as isize + di;
                if i < 0 || i >= lat_bins as isize {
                    continue;
                }
                let i = i as usize;
                let lat_c = grid.lat_center_deg(i).to_radians();
                let dl = lat_c - p.lat;
                for dj in -tod_reach..=tod_reach {
                    let j = (cj as isize + dj).rem_euclid(tod_bins as isize) as usize;
                    if covered[i * tod_bins + j] {
                        continue;
                    }
                    // Hour difference with wrap, as an angle.
                    let mut dh = (grid.tod_center_h(j) - p.local_time_h).abs();
                    if dh > 12.0 {
                        dh = 24.0 - dh;
                    }
                    let dt = dh / 24.0 * core::f64::consts::TAU * 0.5 * (lat_c.cos() + p.lat.cos());
                    if dl * dl + dt * dt <= reach * reach {
                        covered[i * tod_bins + j] = true;
                    }
                }
            }
        }
        let mut out = Vec::new();
        for i in 0..lat_bins {
            for j in 0..tod_bins {
                if covered[i * tod_bins + j] {
                    out.push((i, j));
                }
            }
        }
        out
    }

    /// Orbital elements of the plane's satellites at `epoch`.
    ///
    /// # Errors
    /// Propagates element validation failure; errors if the plane has zero
    /// satellites.
    pub fn satellites(&self, epoch: Epoch) -> Result<Vec<OrbitalElements>> {
        Ok(self.orbit.plane_elements(epoch, self.n_sats)?)
    }
}

/// The two SS-planes (ascending-branch and descending-branch) whose tracks
/// pass through the sun-relative point `(lat, tod_h)`, for the orbit
/// template `orbit` (altitude/inclination fixed, LTAN solved).
///
/// Returns `None` if `|lat|` exceeds the orbit's maximum latitude (no
/// plane at this inclination reaches the point).
pub fn planes_through(
    orbit: SunSyncOrbit,
    lat: f64,
    tod_h: f64,
    n_sats: usize,
) -> Option<[SsPlane; 2]> {
    let max_lat = orbit.max_latitude();
    if lat.abs() > max_lat {
        return None;
    }
    // lat = asin(sin i · sin u)  ⇒  sin u = sin lat / sin i.
    let sin_u = (lat.sin() / orbit.inclination.sin()).clamp(-1.0, 1.0);
    let u_asc = sin_u.asin(); // ascending branch (u near 0 or 2π)
    let u_desc = core::f64::consts::PI - u_asc; // descending branch

    let plane_for = |u: f64| {
        // The track's local time at u for LTAN=0, then shift the LTAN so
        // the track passes through tod_h at this u.
        let base = orbit.with_ltan(0.0).sun_relative_point(u);
        let ltan = ssplane_astro::angles::wrap_hours(tod_h - base.local_time_h);
        SsPlane { orbit: orbit.with_ltan(ltan), n_sats }
    };
    Some([plane_for(u_asc), plane_for(u_desc)])
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssplane_astro::sunsync::sun_synchronous_orbit;
    use ssplane_demand::grid::LatTodGrid;

    fn orbit() -> SunSyncOrbit {
        sun_synchronous_orbit(560.0).unwrap()
    }

    fn uniform_grid() -> LatTodGrid {
        LatTodGrid::from_values(36, 24, vec![1.0; 36 * 24]).unwrap()
    }

    #[test]
    fn track_points_shape() {
        let plane = SsPlane { orbit: orbit().with_ltan(13.5), n_sats: 20 };
        let pts = plane.track_points(64);
        assert_eq!(pts.len(), 64);
        // Track reaches ±max latitude.
        let max = pts.iter().map(|p| p.lat.abs()).fold(0.0, f64::max);
        assert!((max - plane.orbit.max_latitude()).abs() < 0.01);
        // Equator crossings at LTAN and LTAN+12.
        assert!((pts[0].local_time_h - 13.5).abs() < 1e-9);
    }

    #[test]
    fn covered_cells_contains_both_branches() {
        let grid = uniform_grid();
        let plane = SsPlane { orbit: orbit().with_ltan(10.0), n_sats: 20 };
        let cells = plane.covered_cells(&grid, 0.12);
        assert!(!cells.is_empty());
        // The ascending equator cell (lat 0, tod 10) and descending (tod 22)
        // must both be covered.
        let eq_row = 18; // lat ≈ +2.5° row center for 36 bins... row 18 = +2.5
        let asc_col = 10; // tod 10.5h
        let desc_col = 22; // tod 22.5h
        assert!(
            cells
                .iter()
                .any(|&(i, j)| (i as i32 - eq_row).abs() <= 1 && (j as i32 - asc_col).abs() <= 1),
            "ascending node not covered"
        );
        assert!(
            cells
                .iter()
                .any(|&(i, j)| (i as i32 - eq_row).abs() <= 1 && (j as i32 - desc_col).abs() <= 1),
            "descending node not covered"
        );
    }

    #[test]
    fn covered_cells_grow_with_swath() {
        let grid = uniform_grid();
        let plane = SsPlane { orbit: orbit().with_ltan(6.0), n_sats: 20 };
        let narrow = plane.covered_cells(&grid, 0.05).len();
        let wide = plane.covered_cells(&grid, 0.2).len();
        assert!(wide > narrow, "wide {wide} vs narrow {narrow}");
        // All cells valid.
        for (i, j) in plane.covered_cells(&grid, 0.2) {
            assert!(i < grid.lat_bins() && j < grid.tod_bins());
        }
    }

    #[test]
    fn high_latitude_cells_covered_wide_in_tod() {
        // Near the turn-around latitude the plane sweeps a wide range of
        // local times: many tod columns covered at the top rows.
        let grid = uniform_grid();
        let plane = SsPlane { orbit: orbit().with_ltan(12.0), n_sats: 20 };
        let cells = plane.covered_cells(&grid, 0.12);
        let max_lat_row =
            ((90.0 + plane.orbit.max_latitude().to_degrees()) / 5.0).floor() as usize - 1;
        let cols_at_top: usize = cells.iter().filter(|&&(i, _)| i == max_lat_row).count();
        let cols_at_equator: usize = cells.iter().filter(|&&(i, _)| i == 18).count();
        assert!(
            cols_at_top > 2 * cols_at_equator,
            "top row cols {cols_at_top} vs equator {cols_at_equator}"
        );
    }

    #[test]
    fn planes_through_hits_target_cell() {
        // Target cell *centers*, as the greedy designer does: the plane
        // then passes exactly through the center and the cell is covered
        // for any positive swath.
        let grid = uniform_grid();
        for (i, j) in [(25usize, 14usize), (14, 9), (18, 3), (30, 20)] {
            let lat = grid.lat_center_deg(i).to_radians();
            let tod = grid.tod_center_h(j);
            let planes = planes_through(orbit(), lat, tod, 10).unwrap();
            for plane in planes {
                let cells = plane.covered_cells(&grid, 0.1);
                assert!(
                    cells.contains(&(i, j)),
                    "plane ltan {:.2} misses cell ({i}, {j})",
                    plane.orbit.ltan_h
                );
            }
        }
    }

    #[test]
    fn planes_through_rejects_polar_targets() {
        assert!(planes_through(orbit(), 89f64.to_radians(), 12.0, 10).is_none());
        assert!(planes_through(orbit(), -89f64.to_radians(), 12.0, 10).is_none());
        // Max latitude itself is fine.
        let max = orbit().max_latitude() - 1e-6;
        assert!(planes_through(orbit(), max, 12.0, 10).is_some());
    }

    #[test]
    fn ascending_descending_branches_differ() {
        let [a, d] = planes_through(orbit(), 0.5, 10.0, 10).unwrap();
        // Same point covered, different LTANs (unless the point is at the
        // turnaround).
        assert!((a.orbit.ltan_h - d.orbit.ltan_h).abs() > 0.1);
    }

    #[test]
    fn satellites_generated() {
        let plane = SsPlane { orbit: orbit().with_ltan(9.0), n_sats: 12 };
        let sats = plane.satellites(Epoch::J2000).unwrap();
        assert_eq!(sats.len(), 12);
        for el in sats {
            assert!((el.inclination - plane.orbit.inclination).abs() < 1e-12);
        }
    }
}
