//! Repeat-ground-track coverage analysis — the §2.2 negative result
//! (Fig. 1): covering a single RGT continuously costs more satellites than
//! a uniform Walker-delta at the same altitude, and most LEO RGTs provide
//! near-uniform coverage anyway.
//!
//! Besides the Fig. 1 dataset, this module hosts the **demand-driven RGT
//! designer** ([`design_rgt_constellation`]): the same negative result
//! expressed as a [`crate::system::Designer`]-compatible design point, so
//! scenario sweeps can put the RGT option side by side with the SS-plane
//! and Walker systems and watch it lose.

use crate::error::{CoreError, Result};
use crate::walker_baseline::latitude_requirements;
use ssplane_astro::angles::wrap_two_pi;
use ssplane_astro::coverage::{
    coverage_half_angle, sats_per_plane_half_overlap, size_walker_delta, street_half_width,
};
use ssplane_astro::kepler::OrbitalElements;
use ssplane_astro::rgt::{enumerate_rgt_orbits, rgt_orbit, RgtOrbit};
use ssplane_demand::grid::LatTodGrid;
use std::f64::consts::TAU;

/// Coverage cost of one RGT orbit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RgtCoverage {
    /// The orbit analyzed.
    pub orbit: RgtOrbit,
    /// Satellites required for continuous coverage of the track (paper's
    /// half-overlap spacing: in-track spacing of one coverage half-angle).
    pub sats_required: usize,
    /// Whether adjacent passes sit within a swath width — i.e. the RGT
    /// degenerates to near-uniform coverage (Fig. 1's `RGT (unif.)`
    /// series vs `RGT (non-unif.)`).
    pub effectively_uniform: bool,
}

/// One row of the Fig. 1 Walker series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WalkerCoverage {
    /// Altitude \[km\].
    pub altitude_km: f64,
    /// Total satellites for continuous uniform coverage.
    pub sats_required: usize,
}

/// The full Fig. 1 dataset.
#[derive(Debug, Clone)]
pub struct Fig1Data {
    /// RGT orbits found in the altitude window with their coverage costs.
    pub rgts: Vec<RgtCoverage>,
    /// Walker-delta sizing across the altitude sweep.
    pub walker: Vec<WalkerCoverage>,
}

impl Fig1Data {
    /// The non-uniform RGT rows (the interesting series; the figure tests
    /// count them).
    pub fn non_uniform(&self) -> impl Iterator<Item = &RgtCoverage> {
        self.rgts.iter().filter(|r| !r.effectively_uniform)
    }
}

/// Analyzes one RGT's coverage cost at the given elevation mask.
///
/// # Errors
/// Propagates coverage-geometry domain errors.
pub fn analyze_rgt(orbit: RgtOrbit, min_elevation_deg: f64) -> Result<RgtCoverage> {
    let theta = coverage_half_angle(orbit.altitude_km, min_elevation_deg.to_radians())?;
    // Paper spacing rule: in-track spacing = θ (adjacent caps 50%
    // overlapped), giving a street of half-width √3/2·θ.
    let sats_required = orbit.sats_to_cover_track(theta);
    let swath_half = street_half_width(theta, sats_per_plane_half_overlap(theta))?;
    Ok(RgtCoverage {
        orbit,
        sats_required,
        effectively_uniform: orbit.is_effectively_uniform(swath_half),
    })
}

/// Generates the complete Fig. 1 dataset: all RGTs with repeat cycles up
/// to `max_days` and altitudes in `[min_alt, max_alt]` km, plus the
/// Walker-delta curve sampled every `walker_step_km`.
///
/// # Errors
/// Propagates coverage-geometry domain errors.
pub fn fig1_data(
    min_alt_km: f64,
    max_alt_km: f64,
    max_days: u32,
    inclination: f64,
    min_elevation_deg: f64,
    walker_step_km: f64,
) -> Result<Fig1Data> {
    let mut rgts = Vec::new();
    for orbit in enumerate_rgt_orbits(min_alt_km, max_alt_km, max_days, inclination) {
        rgts.push(analyze_rgt(orbit, min_elevation_deg)?);
    }
    let mut walker = Vec::new();
    let mut alt = min_alt_km;
    while alt <= max_alt_km + 1e-9 {
        let theta = coverage_half_angle(alt, min_elevation_deg.to_radians())?;
        let sizing = size_walker_delta(theta, inclination)?;
        walker.push(WalkerCoverage { altitude_km: alt, sats_required: sizing.total() });
        alt += walker_step_km;
    }
    Ok(Fig1Data { rgts, walker })
}

/// Configuration of the demand-driven RGT designer.
#[derive(Debug, Clone, PartialEq)]
pub struct RgtDesignConfig {
    /// Revolutions per repeat cycle `k` (the default 15:1 is the paper's
    /// ~560 km daily repeat, the closest RGT to the SS design altitude).
    pub revs: u32,
    /// Nodal days per repeat cycle `m`.
    pub days: u32,
    /// Orbit inclination \[deg\] (the paper's comparisons use 65°).
    pub inclination_deg: f64,
    /// Minimum user elevation \[deg\].
    pub min_elevation_deg: f64,
    /// Capacity of one satellite in demand units.
    pub sat_capacity: f64,
}

impl Default for RgtDesignConfig {
    fn default() -> Self {
        RgtDesignConfig {
            revs: 15,
            days: 1,
            inclination_deg: 65.0,
            min_elevation_deg: ssplane_astro::coverage::DEFAULT_MIN_ELEVATION_DEG,
            sat_capacity: 1.0,
        }
    }
}

/// A designed repeat-ground-track constellation: satellites strung along
/// one repeating track at the spacing needed for continuous coverage,
/// replicated to the demand's worst-case multiplicity.
#[derive(Debug, Clone)]
pub struct RgtConstellation {
    /// The underlying repeat-ground-track orbit.
    pub orbit: RgtOrbit,
    /// Track-arc groups the satellites are organized into (one per
    /// revolution of the repeat cycle) — the "plane" unit the attack and
    /// spare-provisioning stages act on.
    pub planes: usize,
    /// Satellites per arc group.
    pub sats_per_plane: usize,
    /// Coverage multiplicity the demand required (peak simultaneous
    /// satellites per track point).
    pub multiplicity: usize,
    /// Demand (capacity units) beyond the track's latitude reach.
    pub unserved_demand: f64,
    /// The configuration that produced the design.
    pub config: RgtDesignConfig,
}

impl RgtConstellation {
    /// Total satellite count.
    pub fn total_sats(&self) -> usize {
        self.planes * self.sats_per_plane
    }

    /// Orbital elements of every satellite, grouped by track arc.
    ///
    /// Satellites are placed at equal time offsets `τ_j = j·P/N` along the
    /// repeat cycle of period `P` (`N` total satellites). A satellite
    /// trailing the reference ground track by `τ` must sit at
    /// `RAAN = (ω⊕ − Ω̇)·τ` and mean anomaly `−n_eff·τ`; with the repeat
    /// condition `n_eff·P = 2πk`, `(ω⊕ − Ω̇)·P = 2πm` these reduce to the
    /// closed form `RAAN_j = 2π·m·j/N`, `M_j = −2π·k·j/N`. Group `p` is
    /// the contiguous arc `j ∈ [p·N/planes, (p+1)·N/planes)` — for a
    /// track-following constellation the natural analogue of an orbital
    /// plane (and what a plane-loss attack removes: a stretch of track).
    ///
    /// # Errors
    /// Propagates element validation failure.
    pub fn satellites(&self) -> Result<Vec<Vec<OrbitalElements>>> {
        (0..self.planes).map(|p| self.arc(p)).collect()
    }

    /// Orbital elements of track-arc group `p`'s satellites (see
    /// [`RgtConstellation::satellites`] for the placement).
    ///
    /// # Errors
    /// Propagates element validation failure.
    pub(crate) fn arc(&self, p: usize) -> Result<Vec<OrbitalElements>> {
        let n = self.total_sats();
        let mut arc = Vec::with_capacity(self.sats_per_plane);
        for s in 0..self.sats_per_plane {
            let f = (p * self.sats_per_plane + s) as f64 / n as f64;
            let raan = wrap_two_pi(TAU * self.orbit.days as f64 * f);
            let u = wrap_two_pi(-TAU * self.orbit.revs as f64 * f);
            arc.push(
                OrbitalElements::circular(self.orbit.altitude_km, self.orbit.inclination, raan, u)
                    .map_err(CoreError::from)?,
            );
        }
        Ok(arc)
    }
}

/// Designs the RGT constellation for `demand` (scaled to the bandwidth
/// multiplier): continuous coverage of the `revs:days` repeat track at the
/// worst-case multiplicity the demand requires, mirroring the Walker
/// baseline's worst-case supply accounting. Demand poleward of the track's
/// reach (`|lat| > i_eff + swath`) is reported unserved, as in the
/// SS designer.
///
/// # Errors
/// * [`CoreError::BadConfig`] for non-positive capacity or an
///   inclination outside \[0°, 180°\] (non-finite included);
/// * astrodynamics errors for infeasible `revs:days` requests or geometry.
pub fn design_rgt_constellation(
    demand: &LatTodGrid,
    config: RgtDesignConfig,
) -> Result<RgtConstellation> {
    if config.sat_capacity <= 0.0 {
        return Err(CoreError::BadConfig { name: "sat_capacity", constraint: "> 0" });
    }
    if !(0.0..=180.0).contains(&config.inclination_deg) {
        return Err(CoreError::BadConfig { name: "inclination_deg", constraint: "in [0, 180]" });
    }
    let inclination = config.inclination_deg.to_radians();
    let orbit = rgt_orbit(config.revs, config.days, inclination).map_err(CoreError::from)?;
    let theta = coverage_half_angle(orbit.altitude_km, config.min_elevation_deg.to_radians())?;
    let swath = street_half_width(theta, sats_per_plane_half_overlap(theta))?;

    // Worst-case multiplicity over the latitudes the track reaches; demand
    // beyond reach is unserved (summed over the full grid rows, matching
    // the SS designer's unserved accounting).
    let i_eff = inclination.min(core::f64::consts::PI - inclination);
    let reach = i_eff + swath;
    let mut multiplicity = 0.0f64;
    let mut unserved = 0.0f64;
    for (i, (lat, peak)) in latitude_requirements(demand).into_iter().enumerate() {
        if lat.abs() <= reach {
            multiplicity = multiplicity.max(peak / config.sat_capacity);
        } else {
            unserved += (0..demand.tod_bins()).map(|j| demand.value(i, j)).sum::<f64>();
        }
    }

    let (planes, sats_per_plane, multiplicity) = if multiplicity <= 1e-9 {
        (0, 0, 0)
    } else {
        let m = multiplicity.ceil() as usize;
        let base = orbit.sats_to_cover_track(theta);
        let planes = config.revs.max(1) as usize;
        (planes, (m * base).div_ceil(planes), m)
    };
    Ok(RgtConstellation {
        orbit,
        planes,
        sats_per_plane,
        multiplicity,
        unserved_demand: unserved,
        config,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const INC65: f64 = 65.0 * core::f64::consts::PI / 180.0;

    fn data() -> Fig1Data {
        fig1_data(500.0, 2000.0, 4, INC65, 30.0, 250.0).unwrap()
    }

    #[test]
    fn paper_anchor_13_to_1_rgt() {
        // Fig. 1's headline: the ~1215 km daily RGT needs ≥356 satellites
        // vs ≥200 for Walker. Our J2-aware RGT altitude sits near 1170 km;
        // accept the window and check the counts land in the paper's
        // regime.
        let d = data();
        let rgt13 = d
            .rgts
            .iter()
            .find(|r| r.orbit.revs == 13 && r.orbit.days == 1)
            .expect("13:1 RGT in range");
        assert!(
            (280..=430).contains(&rgt13.sats_required),
            "13:1 needs {} sats",
            rgt13.sats_required
        );
        assert!(!rgt13.effectively_uniform, "13:1 must be in the non-uniform series");

        let walker_at = d
            .walker
            .iter()
            .min_by(|a, b| {
                (a.altitude_km - rgt13.orbit.altitude_km)
                    .abs()
                    .partial_cmp(&(b.altitude_km - rgt13.orbit.altitude_km).abs())
                    .unwrap()
            })
            .unwrap();
        assert!(
            (140..=280).contains(&walker_at.sats_required),
            "walker needs {}",
            walker_at.sats_required
        );
        // The paper's point: RGT coverage strictly worse than Walker.
        assert!(rgt13.sats_required as f64 > 1.3 * walker_at.sats_required as f64);
    }

    #[test]
    fn exactly_three_non_uniform_daily_rgts() {
        // "only three of the possible RGTs at LEO do not automatically
        // provide uniform global coverage" — the daily 13:1, 14:1, 15:1.
        let d = data();
        let non_uniform: Vec<_> = d.non_uniform().collect();
        assert_eq!(non_uniform.len(), 3, "{non_uniform:?}");
        let mut revs: Vec<u32> = non_uniform.iter().map(|r| r.orbit.revs).collect();
        revs.sort_unstable();
        assert_eq!(revs, vec![13, 14, 15]);
        for r in &non_uniform {
            assert_eq!(r.orbit.days, 1);
        }
    }

    #[test]
    fn rgt_always_costs_more_than_walker_at_same_altitude() {
        // The paper's Fig. 1 takeaway, across every RGT in the window.
        let d = data();
        for r in &d.rgts {
            let w = d
                .walker
                .iter()
                .min_by(|a, b| {
                    (a.altitude_km - r.orbit.altitude_km)
                        .abs()
                        .partial_cmp(&(b.altitude_km - r.orbit.altitude_km).abs())
                        .unwrap()
                })
                .unwrap();
            assert!(
                r.sats_required > w.sats_required,
                "{}:{} at {:.0} km: RGT {} <= Walker {}",
                r.orbit.revs,
                r.orbit.days,
                r.orbit.altitude_km,
                r.sats_required,
                w.sats_required
            );
        }
    }

    #[test]
    fn multi_day_rgts_are_uniform() {
        let d = data();
        for r in &d.rgts {
            if r.orbit.days >= 2 {
                assert!(
                    r.effectively_uniform,
                    "{}:{} at {:.0} km should be uniform",
                    r.orbit.revs, r.orbit.days, r.orbit.altitude_km
                );
            }
        }
    }

    #[test]
    fn walker_curve_monotone_decreasing() {
        let d = data();
        for w in d.walker.windows(2) {
            assert!(w[0].sats_required >= w[1].sats_required, "walker not decreasing: {:?}", w);
        }
    }

    #[test]
    fn sats_required_decrease_with_altitude_within_series() {
        // Within the daily (m=1) series, higher k (lower altitude) needs
        // more satellites.
        let d = data();
        let mut daily: Vec<_> = d.rgts.iter().filter(|r| r.orbit.days == 1).collect();
        daily.sort_by(|a, b| a.orbit.altitude_km.partial_cmp(&b.orbit.altitude_km).unwrap());
        for pair in daily.windows(2) {
            assert!(pair[0].sats_required > pair[1].sats_required);
        }
    }

    fn band_demand(rows: &[(usize, f64)]) -> LatTodGrid {
        let mut v = vec![0.0; 36 * 24];
        for &(i, val) in rows {
            for j in 0..24 {
                v[i * 24 + j] = val;
            }
        }
        LatTodGrid::from_values(36, 24, v).unwrap()
    }

    #[test]
    fn rgt_design_scales_with_demand_multiplicity() {
        let one = design_rgt_constellation(&band_demand(&[(23, 1.0)]), Default::default()).unwrap();
        let three =
            design_rgt_constellation(&band_demand(&[(23, 3.0)]), Default::default()).unwrap();
        assert!(one.total_sats() > 0);
        assert_eq!(one.multiplicity, 1);
        assert_eq!(three.multiplicity, 3);
        assert!(three.total_sats() >= 3 * one.total_sats() - 3 * one.planes);
        // The §2.2 negative result holds for the designed system too: the
        // track-coverage floor dwarfs a Walker shell's.
        assert!(one.total_sats() > 300, "floor = {}", one.total_sats());
    }

    #[test]
    fn rgt_design_empty_and_unreachable_demand() {
        let empty = design_rgt_constellation(&band_demand(&[]), Default::default()).unwrap();
        assert_eq!(empty.total_sats(), 0);
        assert_eq!(empty.planes, 0);
        assert!(empty.satellites().unwrap().is_empty());
        // Demand at ±87.5° only: beyond a 65° track's reach.
        let polar =
            design_rgt_constellation(&band_demand(&[(35, 2.0)]), Default::default()).unwrap();
        assert_eq!(polar.total_sats(), 0);
        assert!(polar.unserved_demand > 0.0);
    }

    #[test]
    fn rgt_satellites_follow_the_repeat_track_structure() {
        let c = design_rgt_constellation(&band_demand(&[(23, 1.0)]), Default::default()).unwrap();
        let arcs = c.satellites().unwrap();
        assert_eq!(arcs.len(), c.planes);
        let n = c.total_sats();
        assert_eq!(arcs.iter().map(Vec::len).sum::<usize>(), n);
        // The closed-form placement: satellite j at RAAN 2π·m·j/N and
        // argument −2π·k·j/N, all on the solved altitude/inclination.
        for (j, el) in arcs.iter().flatten().enumerate() {
            assert!((el.altitude_km() - c.orbit.altitude_km).abs() < 1e-9);
            assert!((el.inclination - c.orbit.inclination).abs() < 1e-12);
            let expect_raan = wrap_two_pi(TAU * c.orbit.days as f64 * j as f64 / n as f64);
            assert!(
                ssplane_astro::angles::separation(el.raan, expect_raan) < 1e-9,
                "sat {j}: raan {} vs {expect_raan}",
                el.raan
            );
        }
    }

    #[test]
    fn rgt_design_bad_config_rejected() {
        let g = band_demand(&[(23, 1.0)]);
        assert!(design_rgt_constellation(
            &g,
            RgtDesignConfig { sat_capacity: 0.0, ..Default::default() }
        )
        .is_err());
        assert!(design_rgt_constellation(&g, RgtDesignConfig { revs: 0, ..Default::default() })
            .is_err());
    }

    #[test]
    fn rgt_design_rejects_inclinations_outside_0_to_180_deg() {
        let g = band_demand(&[(23, 1.0)]);
        let design = |inclination_deg| {
            design_rgt_constellation(&g, RgtDesignConfig { inclination_deg, ..Default::default() })
        };
        // Each of these once designed an empty constellation that left all
        // the demand unserved instead of failing.
        for bad in [-30.0, -1e-9, 180.5, 500.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(
                matches!(design(bad), Err(CoreError::BadConfig { name: "inclination_deg", .. })),
                "{bad}"
            );
        }
        for good in [0.0, 65.0, 115.0, 180.0] {
            assert!(!matches!(design(good), Err(CoreError::BadConfig { .. })), "{good}");
        }
        assert!(design(65.0).unwrap().total_sats() > 0);
    }
}
