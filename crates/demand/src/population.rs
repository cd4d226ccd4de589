//! Synthetic gridded world population density.
//!
//! A procedural stand-in for the SEDAC Gridded World Population dataset the
//! paper uses (its ref. \[11\]). The generator is calibrated so that the
//! *maximum density per latitude* profile — the only spatial moment the
//! paper's Fig. 3 and the constellation designers consume — matches the
//! published curve: population mass concentrated at intermediate northern
//! latitudes with a peak of ≈ 6000 persons/km² near 20–30°N, a secondary
//! southern-hemisphere mass near the tropics, and near-zero density
//! poleward of ±60°.
//!
//! Spatial texture (continents, Zipf-sized city clusters) is added so the
//! Earth-fixed demand map of Fig. 5 has realistic longitudinal clustering.

use crate::error::{DemandError, Result};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ssplane_astro::par::par_map;

/// Configuration for the synthetic population generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PopulationConfig {
    /// Number of latitude bins (default 360 → 0.5° cells, matching SEDAC).
    pub lat_bins: usize,
    /// Number of longitude bins (default 720 → 0.5° cells).
    pub lon_bins: usize,
    /// Number of synthetic city clusters.
    pub n_cities: usize,
    /// RNG seed; every run with the same seed is identical.
    pub seed: u64,
}

impl Default for PopulationConfig {
    fn default() -> Self {
        PopulationConfig { lat_bins: 360, lon_bins: 720, n_cities: 2500, seed: 42 }
    }
}

/// Rectangular "continent" regions (lat/lon degrees) with sampling weights
/// roughly proportional to real population shares.
const LAND_BOXES: &[(f64, f64, f64, f64, f64)] = &[
    // (lat_min, lat_max, lon_min, lon_max, weight)
    (15.0, 55.0, -125.0, -65.0, 0.07),  // North America
    (-40.0, 15.0, -82.0, -40.0, 0.06),  // Central & South America
    (36.0, 60.0, -10.0, 40.0, 0.10),    // Europe
    (-35.0, 36.0, -16.0, 50.0, 0.17),   // Africa & Middle East (west)
    (5.0, 40.0, 50.0, 92.0, 0.28),      // South Asia / Middle East (east)
    (18.0, 48.0, 92.0, 130.0, 0.20),    // East Asia
    (-10.0, 18.0, 92.0, 128.0, 0.09),   // Southeast Asia
    (-40.0, -12.0, 113.0, 155.0, 0.02), // Australia
    (30.0, 45.0, 128.0, 143.0, 0.01),   // Japan / Korea (east)
];

/// The latitude envelope \[persons/km²\]: target maximum density at each
/// latitude, matched to the paper's Fig. 3.
///
/// Modeled as the max of Gaussian components so each peak value is
/// directly controlled.
pub fn latitude_envelope(lat_deg: f64) -> f64 {
    const COMPONENTS: &[(f64, f64, f64)] = &[
        // (center latitude, sigma, peak persons/km²)
        (23.0, 11.0, 6000.0), // South/East Asia belt — the Fig. 3 peak
        (38.0, 7.0, 4200.0),  // Mediterranean/China/US band
        (50.0, 5.0, 1800.0),  // Northern Europe
        (8.0, 8.0, 3200.0),   // Equatorial belt
        (-8.0, 8.0, 2000.0),  // Southern tropics (Java, Brazil)
        (-30.0, 6.0, 1000.0), // Southern mid-latitudes
    ];
    COMPONENTS
        .iter()
        .map(|&(mu, sigma, peak)| peak * (-((lat_deg - mu) / sigma).powi(2) / 2.0).exp())
        .fold(0.0, f64::max)
}

/// One synthetic city cluster: a truncated Gaussian kernel.
struct City {
    lat: f64,
    lon: f64,
    /// Peak modulation contribution in [0, 1].
    amplitude: f64,
    /// Kernel width [deg].
    sigma: f64,
}

impl City {
    /// Adds this city's kernel at the cell centred at longitude `lon` to
    /// `modulation` when the cell is within reach, `d² = dl² + dn² < 16`;
    /// `dl2` is the row's latitude term `dl²`.
    fn add_kernel(&self, modulation: &mut f64, dl2: f64, lon: f64) {
        // Longitude wrap for kernels near the date line.
        let mut dlon_c = (lon - self.lon).abs();
        if dlon_c > 180.0 {
            dlon_c = 360.0 - dlon_c;
        }
        let dn = dlon_c / self.sigma;
        let d2 = dl2 + dn * dn;
        if d2 < 16.0 {
            *modulation += self.amplitude * (-d2 / 2.0).exp();
        }
    }
}

/// Samples the anchor megacities and the `n_cities` Zipf-sized clusters
/// from `config.seed`, in the order their kernels are summed. Each
/// cluster picks a land box by weight and rejection-samples its latitude
/// against the envelope under that box's bound, the envelope's maximum
/// over 64 sample latitudes, computed once per box.
fn sample_cities(config: &PopulationConfig) -> Vec<City> {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let total_weight: f64 = LAND_BOXES.iter().map(|b| b.4).sum();
    let env_max: Vec<f64> = LAND_BOXES
        .iter()
        .map(|&(lat_min, lat_max, ..)| {
            (0..64)
                .map(|k| latitude_envelope(lat_min + (lat_max - lat_min) * (k as f64 + 0.5) / 64.0))
                .fold(1e-9, f64::max)
        })
        .collect();
    let mut cities = Vec::with_capacity(config.n_cities + 4 * LAND_BOXES.len());
    // Anchor megacities: a few per land box, guaranteeing that each
    // region's core latitudes saturate the envelope (the SEDAC max-per-
    // latitude curve is achieved by a single dense city in each band).
    for &(lat_min, lat_max, lon_min, lon_max, _) in LAND_BOXES {
        for a in 0..4 {
            let frac = (a as f64 + 0.5) / 4.0;
            let lat = lat_min + (lat_max - lat_min) * frac;
            let lon = lon_min + (lon_max - lon_min) * rng.gen::<f64>();
            cities.push(City { lat, lon, amplitude: 2.0, sigma: 1.0 + rng.gen::<f64>() });
        }
    }
    for rank in 0..config.n_cities {
        // Pick a land box by weight.
        let mut pick = rng.gen::<f64>() * total_weight;
        let chosen = LAND_BOXES
            .iter()
            .position(|b| {
                pick -= b.4;
                pick <= 0.0
            })
            .unwrap_or(0);
        let (lat_min, lat_max, lon_min, lon_max, _) = LAND_BOXES[chosen];
        // Rejection-sample latitude proportionally to the envelope so
        // big cities sit where Fig. 3 has mass.
        let lat = loop {
            let cand = lat_min + (lat_max - lat_min) * rng.gen::<f64>();
            if rng.gen::<f64>() * env_max[chosen] <= latitude_envelope(cand) {
                break cand;
            }
        };
        let lon = lon_min + (lon_max - lon_min) * rng.gen::<f64>();
        // Zipf-like sizes: the first few hundred cities can saturate
        // the envelope; the tail adds texture.
        let amplitude = (1.0 / (1.0 + rank as f64).powf(0.55)).min(1.0) * 3.0;
        let sigma = 0.5 + 1.5 * rng.gen::<f64>();
        cities.push(City { lat, lon, amplitude, sigma });
    }
    cities
}

/// Land/ocean base modulation of the cell centred at (`lat`, `lon`).
fn base_modulation(lat: f64, lon: f64) -> f64 {
    let on_land =
        LAND_BOXES.iter().any(|&(a, b, c, d, _)| lat >= a && lat <= b && lon >= c && lon <= d);
    if on_land {
        0.02
    } else {
        0.0005
    }
}

/// Fills the row-major density grid from the sampled cities, one job per
/// latitude row on [`par_map`]`(…, threads, …)` (`0` = the machine).
///
/// A cell's density is its land/ocean base plus every city kernel within
/// reach (`d² = dl² + dn² < 16`), summed in city-index order, clamped at
/// 1 and scaled by the row's latitude envelope. Each row is filled by
/// scatter: the row's cells start at their base, then each city whose
/// latitude term alone passes (`dl² < 16`) visits, in city-index order,
/// only the columns whose centre lies within its longitude reach
/// `σ·sqrt(16 − dl²)` (plus a 1e-6° margin and one column of slack at
/// each end), wrapping across the date line, or the whole ring once when
/// that reach covers it. Every visited cell runs the unchanged kernel
/// test; an unvisited one has `d² ≥ 16` and would add nothing. So every
/// cell takes the same additions in the same order as evaluating every
/// city at every cell, and the grid is bit-identical to that. A row reads
/// nothing but its own index and the cities, and each job writes only
/// its own `&mut` row, so the grid is the same at every worker count.
fn fill_grid(config: &PopulationConfig, cities: &[City], threads: usize) -> Vec<f64> {
    let cols = config.lon_bins;
    let mut density = vec![0.0; config.lat_bins * cols];
    let dlat = 180.0 / config.lat_bins as f64;
    let dlon = 360.0 / cols as f64;
    let lon_of = |j: usize| -180.0 + dlon * (j as f64 + 0.5);
    let ring = cols as isize;
    let rows: Vec<(usize, &mut [f64])> = density.chunks_exact_mut(cols).enumerate().collect();
    par_map(rows, threads, |(i, row)| {
        let lat = -90.0 + dlat * (i as f64 + 0.5);
        let envelope = latitude_envelope(lat);
        if envelope < 1e-6 {
            return;
        }
        for (j, cell) in row.iter_mut().enumerate() {
            *cell = base_modulation(lat, lon_of(j));
        }
        for city in cities {
            let dl = (lat - city.lat) / city.sigma;
            let dl2 = dl * dl;
            if dl2 >= 16.0 {
                continue;
            }
            let reach = city.sigma * (16.0 - dl2).sqrt() + 1e-6;
            let first = ((city.lon - reach + 180.0) / dlon - 0.5).floor() as isize;
            let last = ((city.lon + reach + 180.0) / dlon - 0.5).ceil() as isize;
            let span = if last - first < ring { first..last + 1 } else { 0..ring };
            for j in span {
                let j = j.rem_euclid(ring) as usize;
                city.add_kernel(&mut row[j], dl2, lon_of(j));
            }
        }
        for cell in row {
            *cell = envelope * cell.min(1.0);
        }
    });
    density
}

/// A latitude × longitude grid of population density \[persons/km²\].
#[derive(Debug, Clone)]
pub struct PopulationGrid {
    lat_bins: usize,
    lon_bins: usize,
    /// Row-major `[lat][lon]`, south-to-north, west-to-east.
    density: Vec<f64>,
}

impl PopulationGrid {
    /// Generates the synthetic population grid, filling its rows on every
    /// core of the machine ([`Self::synthetic_in`] with `threads = 0`).
    ///
    /// # Errors
    /// Returns [`DemandError::EmptyGrid`] for zero-sized dimensions.
    pub fn synthetic(config: PopulationConfig) -> Result<Self> {
        Self::synthetic_in(config, 0)
    }

    /// Generates the synthetic population grid with its rows filled on
    /// `threads` workers (`0` = the machine; `1` spawns no thread). City
    /// sampling is one RNG stream and stays serial. The grid is
    /// bit-identical at every worker count.
    ///
    /// # Errors
    /// Returns [`DemandError::EmptyGrid`] for zero-sized dimensions.
    pub fn synthetic_in(config: PopulationConfig, threads: usize) -> Result<Self> {
        if config.lat_bins == 0 {
            return Err(DemandError::EmptyGrid { dimension: "lat_bins" });
        }
        if config.lon_bins == 0 {
            return Err(DemandError::EmptyGrid { dimension: "lon_bins" });
        }
        let density = fill_grid(&config, &sample_cities(&config), threads);
        Ok(PopulationGrid { lat_bins: config.lat_bins, lon_bins: config.lon_bins, density })
    }

    /// Number of latitude bins.
    pub fn lat_bins(&self) -> usize {
        self.lat_bins
    }

    /// Number of longitude bins.
    pub fn lon_bins(&self) -> usize {
        self.lon_bins
    }

    /// Center latitude \[deg\] of latitude bin `i` (south to north).
    pub fn lat_center_deg(&self, i: usize) -> f64 {
        -90.0 + 180.0 * (i as f64 + 0.5) / self.lat_bins as f64
    }

    /// Center longitude \[deg\] of longitude bin `j` (west to east).
    pub fn lon_center_deg(&self, j: usize) -> f64 {
        -180.0 + 360.0 * (j as f64 + 0.5) / self.lon_bins as f64
    }

    /// Density \[persons/km²\] of cell `(i, j)`.
    pub fn cell(&self, i: usize, j: usize) -> f64 {
        self.density[i * self.lon_bins + j]
    }

    /// Density at geographic coordinates \[deg\] (nearest cell; longitude
    /// wraps, latitude clamps).
    pub fn density_at(&self, lat_deg: f64, lon_deg: f64) -> f64 {
        let i = (((lat_deg + 90.0) / 180.0 * self.lat_bins as f64).floor() as isize)
            .clamp(0, self.lat_bins as isize - 1) as usize;
        let mut lon = (lon_deg + 180.0).rem_euclid(360.0);
        if lon >= 360.0 {
            lon -= 360.0;
        }
        let j = ((lon / 360.0 * self.lon_bins as f64).floor() as usize).min(self.lon_bins - 1);
        self.cell(i, j)
    }

    /// Maximum density over all longitudes at each latitude — the paper's
    /// Fig. 3 curve. Returns `(lat_center_deg, max_density)` pairs, south
    /// to north.
    pub fn max_density_per_latitude(&self) -> Vec<(f64, f64)> {
        (0..self.lat_bins)
            .map(|i| {
                let max = (0..self.lon_bins).map(|j| self.cell(i, j)).fold(0.0, f64::max);
                (self.lat_center_deg(i), max)
            })
            .collect()
    }

    /// Area \[km²\] of one cell in latitude row `i`.
    pub fn cell_area_km2(&self, i: usize) -> f64 {
        let dlat = core::f64::consts::PI / self.lat_bins as f64;
        let lat0 = -core::f64::consts::FRAC_PI_2 + dlat * i as f64;
        ssplane_astro::geo::latitude_band_area_km2(lat0, lat0 + dlat) / self.lon_bins as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use ssplane_astro::constants::EARTH_RADIUS_KM;

    /// The brute-force fill — every city kernel at every cell, in
    /// city-index order — kept as the scatter [`fill_grid`]'s bit-exact
    /// oracle.
    fn fill_grid_brute_force(config: &PopulationConfig, cities: &[City]) -> Vec<f64> {
        let mut density = vec![0.0; config.lat_bins * config.lon_bins];
        let dlat = 180.0 / config.lat_bins as f64;
        let dlon = 360.0 / config.lon_bins as f64;
        for i in 0..config.lat_bins {
            let lat = -90.0 + dlat * (i as f64 + 0.5);
            let envelope = latitude_envelope(lat);
            if envelope < 1e-6 {
                continue;
            }
            for j in 0..config.lon_bins {
                let lon = -180.0 + dlon * (j as f64 + 0.5);
                let mut modulation = base_modulation(lat, lon);
                for city in cities {
                    let dl = (lat - city.lat) / city.sigma;
                    city.add_kernel(&mut modulation, dl * dl, lon);
                }
                density[i * config.lon_bins + j] = envelope * modulation.min(1.0);
            }
        }
        density
    }

    /// FNV-1a over the little-endian bytes of every density value.
    fn density_digest(density: &[f64]) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in density.iter().flat_map(|d| d.to_bits().to_le_bytes()) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
        h
    }

    fn assert_bits_eq(a: &[f64], b: &[f64]) {
        assert_eq!(a.len(), b.len());
        for (k, (x, y)) in a.iter().zip(b).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "cell {k}: {x} vs {y}");
        }
    }

    fn small_grid() -> PopulationGrid {
        PopulationGrid::synthetic(PopulationConfig {
            lat_bins: 90,
            lon_bins: 180,
            n_cities: 600,
            seed: 42,
        })
        .unwrap()
    }

    #[test]
    fn envelope_matches_fig3_shape() {
        // Peak ~6000 near 20-30N.
        let peak = latitude_envelope(23.0);
        assert!((peak - 6000.0).abs() < 50.0);
        // Intermediate northern latitudes dominate the south.
        assert!(latitude_envelope(35.0) > latitude_envelope(-35.0));
        // Near-zero poleward of ±60°.
        assert!(latitude_envelope(70.0) < 100.0);
        assert!(latitude_envelope(-70.0) < 10.0);
        assert!(latitude_envelope(89.0) < 1.0);
    }

    #[test]
    fn grid_max_per_latitude_tracks_envelope() {
        let g = small_grid();
        let profile = g.max_density_per_latitude();
        // At populated latitudes the realized max should come within 40% of
        // the envelope (cities saturate the modulation).
        for target_lat in [23.0, 38.0, 8.0] {
            let (lat, max) = profile
                .iter()
                .min_by(|a, b| {
                    (a.0 - target_lat).abs().partial_cmp(&(b.0 - target_lat).abs()).unwrap()
                })
                .copied()
                .unwrap();
            let env = latitude_envelope(lat);
            assert!(max > 0.6 * env, "lat {lat}: max {max} vs envelope {env}");
            assert!(max <= env + 1e-9, "modulation must be clamped at 1");
        }
        // Poles empty.
        assert!(profile.first().unwrap().1 < 1.0);
        assert!(profile.last().unwrap().1 < 100.0);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = small_grid();
        let b = small_grid();
        assert_eq!(a.density, b.density);
        let c = PopulationGrid::synthetic(PopulationConfig {
            seed: 43,
            lat_bins: 90,
            lon_bins: 180,
            n_cities: 600,
        })
        .unwrap();
        assert_ne!(a.density, c.density);
    }

    #[test]
    fn density_lookup_consistent_with_cells() {
        let g = small_grid();
        let lat = g.lat_center_deg(40);
        let lon = g.lon_center_deg(100);
        assert_eq!(g.density_at(lat, lon), g.cell(40, 100));
        // Longitude wrap.
        assert_eq!(g.density_at(lat, lon + 360.0), g.cell(40, 100));
        assert_eq!(g.density_at(lat, lon - 360.0), g.cell(40, 100));
        // Latitude clamp at the poles.
        let _ = g.density_at(95.0, 0.0);
        let _ = g.density_at(-95.0, 0.0);
    }

    #[test]
    fn total_population_plausible() {
        let g = small_grid();
        let total: f64 = (0..g.lat_bins())
            .map(|i| (0..g.lon_bins()).map(|j| g.cell(i, j)).sum::<f64>() * g.cell_area_km2(i))
            .sum();
        // Synthetic effective population: order 10^9 - 10^11.
        assert!(total > 1e9 && total < 1e11, "total = {total:e}");
    }

    #[test]
    fn ocean_cells_sparse() {
        let g = small_grid();
        // Mid-Pacific around (0°, -150°): far from any land box.
        let d = g.density_at(0.0, -150.0);
        assert!(d < 0.01 * latitude_envelope(0.0), "pacific density = {d}");
    }

    #[test]
    fn empty_grid_rejected() {
        assert!(PopulationGrid::synthetic(PopulationConfig { lat_bins: 0, ..Default::default() })
            .is_err());
        assert!(PopulationGrid::synthetic(PopulationConfig { lon_bins: 0, ..Default::default() })
            .is_err());
    }

    #[test]
    fn cell_areas_sum_to_earth_surface() {
        let g = small_grid();
        let total: f64 = (0..g.lat_bins()).map(|i| g.cell_area_km2(i) * g.lon_bins() as f64).sum();
        let sphere = 4.0 * core::f64::consts::PI * EARTH_RADIUS_KM * EARTH_RADIUS_KM;
        assert!((total - sphere).abs() / sphere < 1e-9);
    }

    #[test]
    fn default_grid_digest_is_pinned() {
        // Any change to synthesis — city sampling, the kernel, or the
        // fill's summation order — moves this digest, and so does a row
        // the pooled fill drops, shifts or writes twice.
        for threads in [1, 2, 3, 7] {
            let g = PopulationGrid::synthetic_in(PopulationConfig::default(), threads).unwrap();
            assert_eq!(density_digest(&g.density), 0x23f9_4508_7856_f33f, "{threads} workers");
        }
    }

    #[test]
    #[ignore = "~5 s in release: three brute-force fills of the default grid"]
    fn default_grid_matches_brute_force_at_more_seeds() {
        // The digest pin covers seed 42; these seeds draw other cities.
        for seed in [1, 7, 1009] {
            let config = PopulationConfig { seed, ..Default::default() };
            let cities = sample_cities(&config);
            let oracle = fill_grid_brute_force(&config, &cities);
            for threads in [1, 2, 7] {
                assert_bits_eq(&fill_grid(&config, &cities, threads), &oracle);
            }
        }
    }

    #[test]
    fn narrow_rings_and_seam_straddling_reaches_match_brute_force() {
        // The shipped land boxes never put a kernel across the date line,
        // and random grids rarely come this narrow, so place the cities
        // by hand: reaches that straddle the seam from either side or sit
        // on it, and one (4σ = 240°) that covers the whole ring. Small
        // amplitudes keep the modulation below its clamp at 1.
        let cities = [
            City { lat: 19.0, lon: 179.5, amplitude: 0.3, sigma: 2.0 },
            City { lat: -11.0, lon: -179.9, amplitude: 0.2, sigma: 0.5 },
            City { lat: 41.0, lon: 176.0, amplitude: 0.1, sigma: 1.0 },
            City { lat: 5.0, lon: 180.0, amplitude: 0.1, sigma: 30.0 },
            City { lat: 0.0, lon: 10.0, amplitude: 0.05, sigma: 60.0 },
            City { lat: 30.0, lon: -180.0, amplitude: 0.2, sigma: 1.5 },
        ];
        for (lat_bins, lon_bins) in [(1, 1), (2, 2), (3, 3), (7, 5), (13, 2), (90, 180)] {
            let config = PopulationConfig { lat_bins, lon_bins, n_cities: 0, seed: 0 };
            let scattered = fill_grid(&config, &cities, 1);
            assert_bits_eq(&scattered, &fill_grid_brute_force(&config, &cities));
            // Seven workers over as few as one row: the idle ones must
            // not disturb the grid.
            assert_bits_eq(&fill_grid(&config, &cities, 7), &scattered);
            if lon_bins == 180 {
                // Row 54 is centred on 19°N; its westernmost cell (-179°)
                // sits 1.5° across the seam from the first city and takes
                // its kernel.
                let west_edge = scattered[54 * 180];
                assert!(west_edge > 0.2 * latitude_envelope(19.0), "west edge = {west_edge}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// The scatter fill equals the brute-force oracle bit for bit on
        /// any grid shape, city count, seed and worker count.
        #[test]
        fn scatter_fill_matches_brute_force(
            lat_bins in 1usize..=400,
            lon_bins in 1usize..=800,
            n_cities in 0usize..=800,
            seed in 0u64..=u64::MAX,
            threads in 1usize..=4,
        ) {
            let config = PopulationConfig { lat_bins, lon_bins, n_cities, seed };
            let cities = sample_cities(&config);
            assert_bits_eq(
                &fill_grid(&config, &cities, threads),
                &fill_grid_brute_force(&config, &cities),
            );
        }
    }
}
