//! The greedy SS-plane constellation designer (§4.2 of the paper).
//!
//! Given the sun-relative demand grid scaled to a *bandwidth multiplier*
//! (demand in multiples of one satellite's capacity), the algorithm is the
//! paper's:
//!
//! 1. select the (latitude, time-of-day) cell with maximum residual
//!    demand;
//! 2. add an SS-plane whose track intersects that cell, and subtract one
//!    satellite of capacity from every cell covered by the plane's swath
//!    (clamping at zero);
//! 3. repeat until all demand is satisfied.
//!
//! Each plane covers a large range of cells besides the peak (the whole
//! track, which widens dramatically near the turn-around latitudes), which
//! is why the greedy converges quickly even though it is not optimal.
//!
//! One refinement the paper leaves open is *which* of the two planes
//! through the peak cell to take (ascending or descending branch); we pick
//! the one that removes more residual demand, and expose the choice for
//! the ablation benches ([`BranchRule`]).
//!
//! The greedy keeps returning to the same few peak cells (on the default
//! 36 × 24 grid, 11–12 distinct cells at every demand from 10 B to
//! 5000 B), so the two candidate planes through a peak cell and the cells
//! each one covers come from a [`KernelCache`], computed once per cell for
//! as long as the cache lives: one design call
//! ([`design_ss_constellation`]) or a whole sweep
//! ([`design_ss_constellation_in`] with the runner's cache). The reuse is
//! exact: both are a pure function of the cell's centre, the grid shape
//! and the altitude/elevation configuration, never of the residual
//! demand, and the cache key holds all of those. Branch gains are still
//! scored against the live residual at every step.

use crate::cache::KernelCache;
use crate::error::{CoreError, Result};
use crate::ssplane::{planes_through, SsPlane};
use ssplane_astro::coverage::{
    coverage_half_angle, sats_per_plane_half_overlap, street_half_width,
};
use ssplane_astro::kepler::OrbitalElements;
use ssplane_astro::sunsync::sun_synchronous_orbit;
use ssplane_astro::time::Epoch;
use ssplane_demand::grid::LatTodGrid;

/// How the designer chooses between the ascending- and descending-branch
/// planes through the peak cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BranchRule {
    /// Evaluate both and keep the one that removes more residual demand
    /// (the default).
    #[default]
    BestOfBoth,
    /// Always the ascending branch (ablation).
    AscendingOnly,
    /// Alternate branches (ablation).
    Alternate,
}

/// Designer configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DesignConfig {
    /// Constellation altitude \[km\] (the paper evaluates ~560 km).
    pub altitude_km: f64,
    /// Minimum user elevation angle \[deg\] (drives the coverage cap).
    pub min_elevation_deg: f64,
    /// Capacity of one satellite in demand units (the demand grid is in
    /// multiples of this; the paper sets it to 1).
    pub sat_capacity: f64,
    /// Safety bound on the number of planes.
    pub max_planes: usize,
    /// Branch selection rule.
    pub branch_rule: BranchRule,
}

/// Residual demand at or below this counts as satisfied (absolute
/// units).
const EPSILON: f64 = 1e-9;

impl Default for DesignConfig {
    fn default() -> Self {
        DesignConfig {
            altitude_km: 560.0,
            min_elevation_deg: ssplane_astro::coverage::DEFAULT_MIN_ELEVATION_DEG,
            sat_capacity: 1.0,
            max_planes: 50_000,
            branch_rule: BranchRule::BestOfBoth,
        }
    }
}

/// A designed SS-plane constellation.
#[derive(Debug, Clone)]
pub struct SsConstellation {
    /// The selected planes (LTANs vary; altitude/inclination shared).
    pub planes: Vec<SsPlane>,
    /// Satellites per plane (street-of-coverage sizing at the design
    /// altitude/elevation).
    pub sats_per_plane: usize,
    /// Swath half-angle \[rad\] used for cell coverage.
    pub swath_half_angle: f64,
    /// The configuration that produced the design.
    pub config: DesignConfig,
    /// Demand (capacity units) that no SS-plane at this altitude can reach
    /// — cells poleward of the orbit's maximum latitude plus swath. Zero
    /// for realistic demand models.
    pub unserved_demand: f64,
}

impl SsConstellation {
    /// Total satellite count.
    pub fn total_sats(&self) -> usize {
        self.planes.len() * self.sats_per_plane
    }

    /// Orbital elements of every satellite at `epoch`.
    ///
    /// # Errors
    /// Propagates element generation failure.
    pub fn satellites(&self, epoch: Epoch) -> Result<Vec<OrbitalElements>> {
        let mut out = Vec::with_capacity(self.total_sats());
        for p in &self.planes {
            out.extend(p.satellites(epoch)?);
        }
        Ok(out)
    }

    /// The common inclination \[rad\] (all SS-planes at one altitude share
    /// it) — the property that keeps Fig. 10's SS radiation curve flat.
    pub fn inclination(&self) -> Option<f64> {
        self.planes.first().map(|p| p.orbit.inclination)
    }
}

/// The ascending- and descending-branch planes through one peak cell,
/// with the cells each one covers.
pub(crate) type Candidates = ([SsPlane; 2], [Vec<(usize, usize)>; 2]);

/// Residual demand removed by subtracting `capacity` from `cells` of
/// `grid` (without mutating it).
fn removable(grid: &LatTodGrid, cells: &[(usize, usize)], capacity: f64) -> f64 {
    cells.iter().map(|&(i, j)| grid.value(i, j).min(capacity)).sum()
}

/// Subtracts `capacity` from every listed cell, clamping at zero.
fn subtract(grid: &mut LatTodGrid, cells: &[(usize, usize)], capacity: f64) {
    for &(i, j) in cells {
        let v = grid.value_mut(i, j);
        *v = (*v - capacity).max(0.0);
    }
}

/// Runs the paper's greedy SS-plane cover on `demand` (already scaled to
/// the bandwidth multiplier).
///
/// # Errors
/// * [`CoreError::BadConfig`] for out-of-domain configuration;
/// * [`CoreError::PlaneBudgetExhausted`] if `max_planes` is hit;
/// * astrodynamics errors for infeasible geometry.
pub fn design_ss_constellation(
    demand: &LatTodGrid,
    config: DesignConfig,
) -> Result<SsConstellation> {
    design_ss_constellation_in(demand, config, &KernelCache::default())
}

/// As [`design_ss_constellation`], taking the peak-cell candidates from
/// `cache` (and adding the ones it computes), so designs that share a
/// cache compute each candidate once.
///
/// # Errors
/// As [`design_ss_constellation`].
pub fn design_ss_constellation_in(
    demand: &LatTodGrid,
    config: DesignConfig,
    cache: &KernelCache,
) -> Result<SsConstellation> {
    if config.sat_capacity <= 0.0 {
        return Err(CoreError::BadConfig { name: "sat_capacity", constraint: "> 0" });
    }
    if config.max_planes == 0 {
        return Err(CoreError::BadConfig { name: "max_planes", constraint: "> 0" });
    }
    let theta = coverage_half_angle(config.altitude_km, config.min_elevation_deg.to_radians())?;
    let sats_per_plane = sats_per_plane_half_overlap(theta);
    let swath = street_half_width(theta, sats_per_plane)?;
    let orbit = sun_synchronous_orbit(config.altitude_km)?;

    // Demand above the orbit's max latitude cannot be served by this
    // inclination; peak targets are clamped to the reachable band (their
    // swath still reaches the cell if within the swath margin).
    let max_lat = orbit.max_latitude() - 1e-6;
    let (alt_bits, elev_bits) = (config.altitude_km.to_bits(), config.min_elevation_deg.to_bits());

    let mut residual = demand.clone();
    let mut planes: Vec<SsPlane> = Vec::new();
    let mut flip = false;
    let mut unserved = 0.0f64;

    while let Some((i, j)) = residual.argmax() {
        if residual.value(i, j) <= EPSILON {
            break;
        }
        if planes.len() >= config.max_planes {
            return Err(CoreError::PlaneBudgetExhausted {
                placed: planes.len(),
                residual_demand: residual.total(),
            });
        }
        let key = (demand.lat_bins(), demand.tod_bins(), alt_bits, elev_bits, i, j);
        let cell = cache.ss_candidates(key, || {
            let lat = demand.lat_center_deg(i).to_radians();
            let tod = demand.tod_center_h(j);
            let candidates =
                planes_through(orbit, lat.clamp(-max_lat, max_lat), tod, sats_per_plane)
                    .expect("target latitude clamped into reachable band");
            Ok((candidates, candidates.map(|p| p.covered_cells(demand, swath))))
        })?;
        let (candidates, covered) = &*cell;

        let branch = match config.branch_rule {
            BranchRule::AscendingOnly => 0,
            BranchRule::Alternate => {
                flip = !flip;
                usize::from(!flip)
            }
            BranchRule::BestOfBoth => {
                let gain0 = removable(&residual, &covered[0], config.sat_capacity);
                let gain1 = removable(&residual, &covered[1], config.sat_capacity);
                if gain0 >= gain1 {
                    0
                } else {
                    1
                }
            }
        };
        let cells = &covered[branch];
        if !cells.contains(&(i, j)) {
            // The peak cell sits poleward of the constellation's reach
            // (|lat| > max latitude + swath margin): no SS-plane at this
            // altitude can serve it. Mark it unserved and move on rather
            // than looping (only near-pole cells can hit this, and the
            // synthetic demand there is vanishingly small).
            unserved += residual.value(i, j);
            *residual.value_mut(i, j) = 0.0;
            continue;
        }
        subtract(&mut residual, cells, config.sat_capacity);
        planes.push(candidates[branch]);
    }

    Ok(SsConstellation {
        planes,
        sats_per_plane,
        swath_half_angle: swath,
        config,
        unserved_demand: unserved,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The memo-free greedy loop [`design_ss_constellation`] replaced —
    /// both candidate swaths recomputed at every placement — kept as its
    /// bit-exact oracle.
    fn design_ss_constellation_oracle(
        demand: &LatTodGrid,
        config: DesignConfig,
    ) -> Result<SsConstellation> {
        if config.sat_capacity <= 0.0 {
            return Err(CoreError::BadConfig { name: "sat_capacity", constraint: "> 0" });
        }
        if config.max_planes == 0 {
            return Err(CoreError::BadConfig { name: "max_planes", constraint: "> 0" });
        }
        let theta = coverage_half_angle(config.altitude_km, config.min_elevation_deg.to_radians())?;
        let sats_per_plane = sats_per_plane_half_overlap(theta);
        let swath = street_half_width(theta, sats_per_plane)?;
        let orbit = sun_synchronous_orbit(config.altitude_km)?;

        let mut residual = demand.clone();
        let mut planes: Vec<SsPlane> = Vec::new();
        let mut flip = false;
        let mut unserved = 0.0f64;

        while let Some((i, j)) = residual.argmax() {
            if residual.value(i, j) <= EPSILON {
                break;
            }
            if planes.len() >= config.max_planes {
                return Err(CoreError::PlaneBudgetExhausted {
                    placed: planes.len(),
                    residual_demand: residual.total(),
                });
            }
            let lat = residual.lat_center_deg(i).to_radians();
            let tod = residual.tod_center_h(j);
            let max_lat = orbit.max_latitude() - 1e-6;
            let target_lat = lat.clamp(-max_lat, max_lat);
            let candidates = planes_through(orbit, target_lat, tod, sats_per_plane)
                .expect("target latitude clamped into reachable band");

            let chosen = match config.branch_rule {
                BranchRule::AscendingOnly => candidates[0],
                BranchRule::Alternate => {
                    flip = !flip;
                    candidates[if flip { 0 } else { 1 }]
                }
                BranchRule::BestOfBoth => {
                    let gain0 = removable(
                        &residual,
                        &candidates[0].covered_cells(&residual, swath),
                        config.sat_capacity,
                    );
                    let gain1 = removable(
                        &residual,
                        &candidates[1].covered_cells(&residual, swath),
                        config.sat_capacity,
                    );
                    candidates[if gain0 >= gain1 { 0 } else { 1 }]
                }
            };
            let cells = chosen.covered_cells(&residual, swath);
            if !cells.contains(&(i, j)) {
                unserved += residual.value(i, j);
                *residual.value_mut(i, j) = 0.0;
                continue;
            }
            subtract(&mut residual, &cells, config.sat_capacity);
            planes.push(chosen);
        }

        Ok(SsConstellation {
            planes,
            sats_per_plane,
            swath_half_angle: swath,
            config,
            unserved_demand: unserved,
        })
    }

    /// Asserts two design outcomes are identical: the same planes (LTANs
    /// bit for bit), the same unserved demand, or the same error.
    fn assert_same_design(memo: &Result<SsConstellation>, oracle: &Result<SsConstellation>) {
        match (memo, oracle) {
            (Ok(a), Ok(b)) => {
                assert_eq!(a.planes.len(), b.planes.len(), "plane count");
                for (k, (p, q)) in a.planes.iter().zip(&b.planes).enumerate() {
                    assert_eq!(
                        p.orbit.ltan_h.to_bits(),
                        q.orbit.ltan_h.to_bits(),
                        "plane {k} LTAN"
                    );
                    assert_eq!(p.n_sats, q.n_sats, "plane {k} n_sats");
                }
                assert_eq!(a.sats_per_plane, b.sats_per_plane);
                assert_eq!(a.unserved_demand.to_bits(), b.unserved_demand.to_bits(), "unserved");
            }
            (
                Err(CoreError::PlaneBudgetExhausted { placed: pa, residual_demand: ra }),
                Err(CoreError::PlaneBudgetExhausted { placed: pb, residual_demand: rb }),
            ) => {
                assert_eq!(pa, pb, "planes placed before the budget ran out");
                assert_eq!(ra.to_bits(), rb.to_bits(), "residual at the budget");
            }
            (a, b) => assert_eq!(a.as_ref().err(), b.as_ref().err(), "outcomes differ"),
        }
    }

    const RULES: [BranchRule; 3] =
        [BranchRule::BestOfBoth, BranchRule::AscendingOnly, BranchRule::Alternate];

    /// A `lat_bins × tod_bins` grid of hashed pseudo-random cell weights
    /// (polar rows included, so the unserved path runs), scaled to a total
    /// of `total_b` satellite capacities.
    fn random_demand(lat_bins: usize, tod_bins: usize, seed: u64, total_b: f64) -> LatTodGrid {
        let mut state = seed | 1;
        let values: Vec<f64> = (0..lat_bins * tod_bins)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                // Roughly a third of the cells carry no demand at all.
                let u = (state >> 11) as f64 / (1u64 << 53) as f64;
                if u < 0.33 {
                    0.0
                } else {
                    u * u * u
                }
            })
            .collect();
        let grid = LatTodGrid::from_values(lat_bins, tod_bins, values).unwrap();
        let total = grid.total();
        grid.scaled(if total > 0.0 { total_b / total } else { 0.0 })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// The memoised designer equals the memo-free oracle bit for bit on
        /// any grid shape, demand pattern, demand scale from 10 B to 5000 B
        /// and branch rule; under a small plane budget both fail
        /// identically. Polar rows carry demand, and high elevation masks
        /// narrow the swath until they fall out of reach, so the unserved
        /// path runs too.
        #[test]
        fn memoised_design_matches_oracle(
            lat_bins in 2usize..=72,
            tod_bins in 2usize..=48,
            seed in 0u64..=u64::MAX,
            log_b in 10f64.ln()..=5000f64.ln(),
            min_elevation_deg in 25f64..=60.0,
            small_budget in 1usize..=40,
        ) {
            let demand = random_demand(lat_bins, tod_bins, seed, log_b.exp());
            for rule in RULES {
                let config =
                    DesignConfig { branch_rule: rule, min_elevation_deg, ..DesignConfig::default() };
                assert_same_design(
                    &design_ss_constellation(&demand, config),
                    &design_ss_constellation_oracle(&demand, config),
                );
                let tight = DesignConfig { max_planes: small_budget, ..config };
                assert_same_design(
                    &design_ss_constellation(&demand, tight),
                    &design_ss_constellation_oracle(&demand, tight),
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// One cache shared across two grid shapes, two altitudes, two
        /// elevation masks, two demand scales and all three branch rules
        /// designs exactly what a fresh cache designs, down to the budget
        /// errors: its candidates are keyed on every input they read. The
        /// first peak cell of one demand grid is the same at every
        /// altitude and mask, so a key missing either would hand a later
        /// design the wrong planes.
        #[test]
        fn shared_cache_design_matches_fresh_cache(
            lat_bins in 2usize..=72,
            tod_bins in 2usize..=48,
            seed in 0u64..=u64::MAX,
            log_b in 10f64.ln()..=5000f64.ln(),
            altitude_km in 500f64..=800.0,
            min_elevation_deg in 25f64..=60.0,
            small_budget in 1usize..=40,
        ) {
            let cache = KernelCache::default();
            let shapes = [(lat_bins, tod_bins), (tod_bins.max(3) + 1, lat_bins.max(3) - 1)];
            let mut k = 0usize;
            for (lat_bins, tod_bins) in shapes {
                for altitude_km in [altitude_km, altitude_km + 37.5] {
                    for min_elevation_deg in [min_elevation_deg, 85.0 - min_elevation_deg] {
                        for total_b in [log_b.exp(), log_b.exp() * 0.3] {
                            let demand = random_demand(lat_bins, tod_bins, seed, total_b);
                            let config = DesignConfig {
                                altitude_km,
                                min_elevation_deg,
                                branch_rule: RULES[k % RULES.len()],
                                max_planes: if k % 4 == 3 { small_budget } else { 50_000 },
                                ..DesignConfig::default()
                            };
                            k += 1;
                            assert_same_design(
                                &design_ss_constellation_in(&demand, config, &cache),
                                &design_ss_constellation(&demand, config),
                            );
                        }
                    }
                }
            }
            let (_, candidates) = cache.counters()[1];
            assert!(
                candidates.requested == 0 || candidates.computed < candidates.requested,
                "the shared cache reused nothing: {candidates:?}"
            );
        }
    }

    #[test]
    fn memoised_design_matches_oracle_on_paper_shaped_demand() {
        // A demand peak that keeps recurring on a handful of cells — the
        // regime the memo is for — at both ends of the paper's range.
        let base = crate::evaluate::tests::small_demand();
        for total_b in [10.0, 5000.0] {
            let demand = base.scaled(total_b / base.total());
            for rule in RULES {
                let config = DesignConfig { branch_rule: rule, ..DesignConfig::default() };
                let memo = design_ss_constellation(&demand, config);
                assert!(memo.as_ref().is_ok_and(|c| !c.planes.is_empty()));
                assert_same_design(&memo, &design_ss_constellation_oracle(&demand, config));
            }
        }
    }

    #[test]
    fn memoised_design_matches_oracle_on_unreachable_polar_demand() {
        // At a 60° elevation mask the swath is too narrow to reach the
        // 2.5°-wide polar rows, so their demand ends up unserved.
        let mut demand = random_demand(72, 24, 7, 500.0);
        for j in 0..24 {
            *demand.value_mut(0, j) += 0.5;
            *demand.value_mut(71, j) += 0.25;
        }
        for rule in RULES {
            let config = DesignConfig {
                branch_rule: rule,
                min_elevation_deg: 60.0,
                ..DesignConfig::default()
            };
            let memo = design_ss_constellation(&demand, config);
            assert!(memo.as_ref().is_ok_and(|c| c.unserved_demand >= 18.0), "{rule:?}");
            assert_same_design(&memo, &design_ss_constellation_oracle(&demand, config));
        }
    }

    fn point_demand(lat_idx: usize, tod_idx: usize, value: f64) -> LatTodGrid {
        let mut v = vec![0.0; 36 * 24];
        v[lat_idx * 24 + tod_idx] = value;
        LatTodGrid::from_values(36, 24, v).unwrap()
    }

    fn fast_config() -> DesignConfig {
        DesignConfig { max_planes: 5000, ..Default::default() }
    }

    #[test]
    fn empty_demand_needs_no_planes() {
        let g = LatTodGrid::from_values(36, 24, vec![0.0; 36 * 24]).unwrap();
        let c = design_ss_constellation(&g, fast_config()).unwrap();
        assert_eq!(c.planes.len(), 0);
        assert_eq!(c.total_sats(), 0);
        assert!(c.inclination().is_none());
    }

    #[test]
    fn single_cell_demand_takes_ceil_capacity_planes() {
        // Demand of 3.5 satellite-capacities at one cell → 4 planes.
        let g = point_demand(25, 14, 3.5);
        let c = design_ss_constellation(&g, fast_config()).unwrap();
        assert_eq!(c.planes.len(), 4, "got {} planes", c.planes.len());
        // ~50 satellites per plane at 560 km / 30° elevation.
        assert!((40..=60).contains(&c.sats_per_plane), "S = {}", c.sats_per_plane);
    }

    #[test]
    fn demand_is_satisfied_by_construction() {
        // Re-run the subtraction with the returned planes and verify the
        // demand empties.
        let mut v = vec![0.0; 36 * 24];
        for (k, slot) in v.iter_mut().enumerate() {
            *slot = ((k % 7) as f64) * 0.5;
        }
        // Zero out polar rows (unreachable demand is a modelling artifact).
        for i in [0, 1, 34, 35] {
            for j in 0..24 {
                v[i * 24 + j] = 0.0;
            }
        }
        let g = LatTodGrid::from_values(36, 24, v).unwrap();
        let c = design_ss_constellation(&g, fast_config()).unwrap();
        let mut residual = g.clone();
        for p in &c.planes {
            let cells = p.covered_cells(&residual, c.swath_half_angle);
            subtract(&mut residual, &cells, c.config.sat_capacity);
        }
        assert!(residual.peak() <= 1e-9, "left {}", residual.total());
    }

    #[test]
    fn plane_count_grows_sublinearly_near_origin_then_linearly() {
        // Greedy plane counts for increasing multipliers are monotone
        // non-decreasing.
        let base = point_demand(22, 15, 1.0);
        let mut prev = 0;
        for mult in [1.0, 2.0, 5.0, 10.0] {
            let c = design_ss_constellation(&base.scaled(mult), fast_config()).unwrap();
            assert!(c.planes.len() >= prev);
            assert_eq!(c.planes.len(), mult as usize, "point demand costs mult planes");
            prev = c.planes.len();
        }
    }

    #[test]
    fn shared_track_demand_cheaper_than_spread_demand() {
        // Demand spread along one plane's track costs fewer planes than
        // the same total demand spread across opposing local times.
        let orbit = sun_synchronous_orbit(560.0).unwrap();
        let g_empty = LatTodGrid::from_values(36, 24, vec![0.0; 36 * 24]).unwrap();

        // On-track: sample the LTAN-10h plane's own path.
        let plane = SsPlane { orbit: orbit.with_ltan(10.0), n_sats: 1 };
        let mut on_track = g_empty.clone();
        for p in plane.track_points(48) {
            let (i, j) = on_track.cell_of(p);
            *on_track.value_mut(i, j) = 1.0;
        }
        let cost_on = design_ss_constellation(&on_track, fast_config()).unwrap().planes.len();

        // Spread: same number of unit-demand cells, but scattered at a
        // fixed latitude across all local times (no single plane covers
        // opposite-noon cells at low latitude).
        let n_cells = {
            let mut n = 0;
            for i in 0..36 {
                for j in 0..24 {
                    if on_track.value(i, j) > 0.0 {
                        n += 1;
                    }
                }
            }
            n
        };
        let mut spread = g_empty.clone();
        let mut placed = 0;
        'outer: for j in 0..24 {
            for i in [20usize, 23, 17] {
                if placed == n_cells {
                    break 'outer;
                }
                *spread.value_mut(i, j) = 1.0;
                placed += 1;
            }
        }
        let cost_spread = design_ss_constellation(&spread, fast_config()).unwrap().planes.len();
        assert!(cost_on < cost_spread, "on-track {cost_on} planes vs spread {cost_spread} planes");
    }

    #[test]
    fn branch_rules_all_converge() {
        let g = point_demand(20, 8, 2.0);
        for rule in [BranchRule::BestOfBoth, BranchRule::AscendingOnly, BranchRule::Alternate] {
            let c =
                design_ss_constellation(&g, DesignConfig { branch_rule: rule, ..fast_config() })
                    .unwrap();
            assert_eq!(c.planes.len(), 2, "{rule:?}");
        }
    }

    #[test]
    fn bad_config_rejected() {
        let g = point_demand(20, 8, 1.0);
        assert!(matches!(
            design_ss_constellation(&g, DesignConfig { sat_capacity: 0.0, ..fast_config() }),
            Err(CoreError::BadConfig { .. })
        ));
        assert!(matches!(
            design_ss_constellation(&g, DesignConfig { max_planes: 0, ..fast_config() }),
            Err(CoreError::BadConfig { .. })
        ));
    }

    #[test]
    fn plane_budget_error_reports_residual() {
        let g = point_demand(20, 8, 10.0);
        let err = design_ss_constellation(&g, DesignConfig { max_planes: 3, ..fast_config() })
            .unwrap_err();
        match err {
            CoreError::PlaneBudgetExhausted { placed, residual_demand } => {
                assert_eq!(placed, 3);
                assert!((residual_demand - 7.0).abs() < 1e-9);
            }
            other => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn all_planes_share_inclination() {
        let g = point_demand(25, 14, 3.0);
        let c = design_ss_constellation(&g, fast_config()).unwrap();
        let inc = c.inclination().unwrap();
        for p in &c.planes {
            assert!((p.orbit.inclination - inc).abs() < 1e-12);
        }
        // Retrograde sun-synchronous.
        assert!(inc > core::f64::consts::FRAC_PI_2);
    }
}
