//! The sun-relative demand grid (§4.1, Fig. 8): bandwidth demand as a
//! function of **latitude** and **local time of day**.
//!
//! Each `(latitude, time-of-day)` point of this grid sees every longitude
//! as the Earth rotates underneath, so it must be provisioned for the
//! *maximum* demand over longitudes at that latitude, scaled by the diurnal
//! weight at its (fixed) local time. A constellation that satisfies this
//! grid satisfies the rotating Earth-fixed demand — the key reduction that
//! turns constellation design into a 2-D covering problem.

use crate::error::{DemandError, Result};
use crate::spatiotemporal::DemandModel;
use ssplane_astro::frames::SunRelativePoint;

/// A latitude × time-of-day demand grid.
///
/// Values are stored normalized so the peak cell is `1.0`; scale by a
/// *bandwidth multiplier* (demand measured in multiples of one satellite's
/// capacity, as in the paper's Figs. 9-10) via [`LatTodGrid::scaled`].
#[derive(Debug, Clone, PartialEq)]
pub struct LatTodGrid {
    lat_bins: usize,
    tod_bins: usize,
    /// Row-major `[lat][tod]`, south-to-north, midnight-to-midnight.
    values: Vec<f64>,
}

impl LatTodGrid {
    /// Builds the grid from a demand model:
    /// `value(lat, tod) = max_lon population(lat, lon) × diurnal(tod)`,
    /// normalized to a unit peak.
    ///
    /// # Errors
    /// Returns [`DemandError::EmptyGrid`] for zero-sized dimensions.
    pub fn from_model(model: &DemandModel, lat_bins: usize, tod_bins: usize) -> Result<Self> {
        if lat_bins == 0 {
            return Err(DemandError::EmptyGrid { dimension: "lat_bins" });
        }
        if tod_bins == 0 {
            return Err(DemandError::EmptyGrid { dimension: "tod_bins" });
        }
        // Max population density per latitude bin (aggregating the
        // population grid's finer rows into ours).
        let profile = model.population.max_density_per_latitude();
        let mut max_pop = vec![0.0f64; lat_bins];
        for (lat_deg, dens) in profile {
            let i =
                (((lat_deg + 90.0) / 180.0 * lat_bins as f64).floor() as usize).min(lat_bins - 1);
            max_pop[i] = max_pop[i].max(dens);
        }
        let mut values = vec![0.0; lat_bins * tod_bins];
        let mut peak = 0.0f64;
        for (i, &pop) in max_pop.iter().enumerate() {
            for j in 0..tod_bins {
                let hour = 24.0 * (j as f64 + 0.5) / tod_bins as f64;
                let v = pop * model.diurnal.weight(hour);
                values[i * tod_bins + j] = v;
                peak = peak.max(v);
            }
        }
        if peak > 0.0 {
            for v in &mut values {
                *v /= peak;
            }
        }
        Ok(LatTodGrid { lat_bins, tod_bins, values })
    }

    /// Builds a grid directly from raw values (row-major `[lat][tod]`),
    /// used by tests and ablations. Values are **not** renormalized.
    ///
    /// # Errors
    /// Returns [`DemandError::EmptyGrid`] if dimensions are zero or
    /// [`DemandError::OutOfDomain`] if the value count mismatches.
    pub fn from_values(lat_bins: usize, tod_bins: usize, values: Vec<f64>) -> Result<Self> {
        if lat_bins == 0 {
            return Err(DemandError::EmptyGrid { dimension: "lat_bins" });
        }
        if tod_bins == 0 {
            return Err(DemandError::EmptyGrid { dimension: "tod_bins" });
        }
        if values.len() != lat_bins * tod_bins {
            return Err(DemandError::OutOfDomain {
                name: "values",
                expected: "lat_bins * tod_bins entries",
            });
        }
        Ok(LatTodGrid { lat_bins, tod_bins, values })
    }

    /// Number of latitude bins.
    pub fn lat_bins(&self) -> usize {
        self.lat_bins
    }

    /// Number of time-of-day bins.
    pub fn tod_bins(&self) -> usize {
        self.tod_bins
    }

    /// Value of cell `(lat index, tod index)`.
    pub fn value(&self, i: usize, j: usize) -> f64 {
        self.values[i * self.tod_bins + j]
    }

    /// Mutable access to cell `(i, j)` (used by the greedy designer's
    /// demand-subtraction step).
    pub fn value_mut(&mut self, i: usize, j: usize) -> &mut f64 {
        &mut self.values[i * self.tod_bins + j]
    }

    /// Center latitude \[deg\] of bin `i`.
    pub fn lat_center_deg(&self, i: usize) -> f64 {
        -90.0 + 180.0 * (i as f64 + 0.5) / self.lat_bins as f64
    }

    /// Center hour of time-of-day bin `j`.
    pub fn tod_center_h(&self, j: usize) -> f64 {
        24.0 * (j as f64 + 0.5) / self.tod_bins as f64
    }

    /// Bin indices containing a sun-relative point.
    pub fn cell_of(&self, p: SunRelativePoint) -> (usize, usize) {
        let lat_deg = p.lat.to_degrees();
        let i = (((lat_deg + 90.0) / 180.0 * self.lat_bins as f64).floor() as isize)
            .clamp(0, self.lat_bins as isize - 1) as usize;
        let h = p.local_time_h.rem_euclid(24.0);
        let j = ((h / 24.0 * self.tod_bins as f64).floor() as usize).min(self.tod_bins - 1);
        (i, j)
    }

    /// Returns a copy with all values multiplied by `multiplier`.
    pub fn scaled(&self, multiplier: f64) -> LatTodGrid {
        LatTodGrid {
            lat_bins: self.lat_bins,
            tod_bins: self.tod_bins,
            values: self.values.iter().map(|v| v * multiplier).collect(),
        }
    }

    /// The maximum cell value.
    pub fn peak(&self) -> f64 {
        self.values.iter().cloned().fold(0.0, f64::max)
    }

    /// Sum of all cell values.
    pub fn total(&self) -> f64 {
        self.values.iter().sum()
    }

    /// Index `(i, j)` of the maximum cell, or `None` if all cells are ≤ 0.
    pub fn argmax(&self) -> Option<(usize, usize)> {
        let (mut best, mut best_idx) = (0.0f64, None);
        for i in 0..self.lat_bins {
            for j in 0..self.tod_bins {
                let v = self.value(i, j);
                if v > best {
                    best = v;
                    best_idx = Some((i, j));
                }
            }
        }
        best_idx
    }

    /// Iterates `(lat_idx, tod_idx, value)` over all cells.
    pub fn cells(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        (0..self.lat_bins)
            .flat_map(move |i| (0..self.tod_bins).map(move |j| (i, j, self.value(i, j))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diurnal::DiurnalModel;
    use crate::population::{PopulationConfig, PopulationGrid};

    fn grid() -> LatTodGrid {
        let model = DemandModel::new(
            PopulationGrid::synthetic(PopulationConfig {
                lat_bins: 90,
                lon_bins: 180,
                n_cities: 500,
                seed: 42,
            })
            .unwrap(),
            DiurnalModel::default(),
        );
        LatTodGrid::from_model(&model, 36, 24).unwrap()
    }

    #[test]
    fn normalized_peak_is_one() {
        let g = grid();
        assert!((g.peak() - 1.0).abs() < 1e-12);
        for (_, _, v) in g.cells() {
            assert!((0.0..=1.0).contains(&v));
        }
    }

    #[test]
    fn fig8_structure_lat_and_tod() {
        let g = grid();
        // The peak cell sits at intermediate northern latitude and waking
        // hours.
        let (i, j) = g.argmax().unwrap();
        let lat = g.lat_center_deg(i);
        let hour = g.tod_center_h(j);
        assert!((5.0..55.0).contains(&lat), "peak lat = {lat}");
        assert!((9.0..23.0).contains(&hour), "peak hour = {hour}");
        // Night columns are much quieter than day columns.
        let col_sum = |j: usize| (0..g.lat_bins()).map(|i| g.value(i, j)).sum::<f64>();
        let night = col_sum(4); // ~04:30
        let day = col_sum(15); // ~15:30
        assert!(day > 3.0 * night, "day {day} night {night}");
        // Polar rows empty.
        let row_sum = |i: usize| (0..g.tod_bins()).map(|j| g.value(i, j)).sum::<f64>();
        assert!(row_sum(0) < 1e-3);
        assert!(row_sum(g.lat_bins() - 1) < 0.2 * row_sum(g.lat_bins() / 2 + 4));
    }

    #[test]
    fn scaling_and_satisfaction() {
        let g = grid();
        let s = g.scaled(10.0);
        assert!((s.peak() - 10.0).abs() < 1e-9);
        assert!((s.total() - 10.0 * g.total()).abs() < 1e-6);
        assert_eq!(s.scaled(0.0).peak(), 0.0);
    }

    #[test]
    fn cell_of_round_trip() {
        let g = grid();
        for i in [0, 10, 35] {
            for j in [0, 12, 23] {
                let p = SunRelativePoint {
                    lat: g.lat_center_deg(i).to_radians(),
                    local_time_h: g.tod_center_h(j),
                };
                assert_eq!(g.cell_of(p), (i, j));
            }
        }
        // Extremes clamp / wrap safely.
        let north_pole =
            SunRelativePoint { lat: core::f64::consts::FRAC_PI_2 - 1e-4, local_time_h: 24.0 };
        let (i, j) = g.cell_of(north_pole);
        assert_eq!(i, g.lat_bins() - 1);
        assert_eq!(j, 0);
    }

    #[test]
    fn from_values_validation() {
        assert!(LatTodGrid::from_values(0, 4, vec![]).is_err());
        assert!(LatTodGrid::from_values(4, 0, vec![]).is_err());
        assert!(LatTodGrid::from_values(2, 2, vec![0.0; 3]).is_err());
        let g = LatTodGrid::from_values(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(g.value(1, 1), 4.0);
        assert_eq!(g.argmax(), Some((1, 1)));
    }

    #[test]
    fn argmax_none_when_empty() {
        let g = LatTodGrid::from_values(2, 2, vec![0.0; 4]).unwrap();
        assert_eq!(g.argmax(), None);
        assert_eq!(g.peak(), 0.0);
    }
}
