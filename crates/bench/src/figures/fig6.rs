//! Figure 6: maximum electron flux at 560 km over a sample of days from
//! solar cycle 24.

use crate::render;
use ssplane_radiation::error::Result;
use ssplane_radiation::{RadiationEnvironment, Species};

/// Parameters of the flux map.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Params {
    /// Altitude \[km\].
    pub altitude_km: f64,
    /// Number of sampled days from cycle 24 (the paper uses 128).
    pub n_days: usize,
    /// Latitude rows.
    pub n_lat: usize,
    /// Longitude columns.
    pub n_lon: usize,
    /// Species to map.
    pub species: Species,
    /// Day-sampling seed.
    pub seed: u64,
}

impl Default for Params {
    fn default() -> Self {
        Params {
            altitude_km: 560.0,
            n_days: 128,
            n_lat: 45,
            n_lon: 90,
            species: Species::Electron,
            seed: 6,
        }
    }
}

/// The Fig. 6 dataset.
#[derive(Debug, Clone)]
pub struct Fig6Data {
    /// Map rows (south→north) × columns (west→east) \[#/cm²/s/MeV\].
    pub map: Vec<Vec<f64>>,
    /// Parameters used.
    pub params: Params,
}

impl Fig6Data {
    /// Center latitude of row `i` \[deg\].
    fn lat_of(&self, i: usize) -> f64 {
        -90.0 + 180.0 * (i as f64 + 0.5) / self.params.n_lat as f64
    }

    /// Center longitude of column `j` \[deg\].
    pub fn lon_of(&self, j: usize) -> f64 {
        -180.0 + 360.0 * (j as f64 + 0.5) / self.params.n_lon as f64
    }

    /// Location (lat°, lon°) and value of the map maximum.
    pub fn peak(&self) -> (f64, f64, f64) {
        let mut best = (0.0, 0.0, 0.0);
        for (i, row) in self.map.iter().enumerate() {
            for (j, &v) in row.iter().enumerate() {
                if v > best.2 {
                    best = (self.lat_of(i), self.lon_of(j), v);
                }
            }
        }
        best
    }
}

/// Computes the max-flux map.
///
/// # Errors
/// Propagates flux-evaluation failure.
pub fn data(params: Params) -> Result<Fig6Data> {
    let env = RadiationEnvironment::default();
    let days = env.solar.sample_days(params.n_days, params.seed);
    let map =
        env.max_flux_map(params.species, params.altitude_km, &days, params.n_lat, params.n_lon)?;
    Ok(Fig6Data { map, params })
}

/// Renders as long-form CSV.
pub fn render(d: &Fig6Data) -> String {
    let mut rows = Vec::new();
    for (i, row) in d.map.iter().enumerate() {
        for (j, &v) in row.iter().enumerate() {
            rows.push(vec![render::fnum(d.lat_of(i)), render::fnum(d.lon_of(j)), render::fnum(v)]);
        }
    }
    render::csv(&["lat_deg", "lon_deg", "max_flux"], &rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn saa_and_horns_visible() {
        let d = data(Params { n_days: 12, n_lat: 19, n_lon: 36, ..Default::default() }).unwrap();
        // The map's electron peak is either the SAA or a horn; the SAA
        // region must clearly beat the equatorial Pacific.
        let row = 6; // ~ -28°
        let saa = d.map[row][13]; // ~ -45°E
        let pacific = d.map[row][34]; // ~165°E
        assert!(saa > 3.0 * pacific.max(1e-9), "SAA {saa:e} vs Pacific {pacific:e}");
        // Horn row outshines the mid-latitude row at the same longitude.
        let horn = d.map[16][18]; // ~+66°, 5°E
        let mid = d.map[12][18]; // ~+28°
        assert!(horn > mid, "horn {horn:e} vs mid {mid:e}");
        assert!(render(&d).contains("max_flux"));
        let (_, _, peak) = d.peak();
        assert!(peak > 0.0);
    }
}
