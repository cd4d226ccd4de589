//! Multi-shell Walker-delta baseline designer.
//!
//! The paper's comparison constellation (Fig. 9): Walker-delta shells
//! stacked around the design altitude, with shell inclinations "determined
//! by maximum population density at each latitude". This module implements
//! that as a greedy capacity-placement loop driven by an analytic supply
//! model:
//!
//! * the demand a Walker constellation must provision for is the
//!   *time-maximum* demand at every latitude — it cannot exploit the
//!   diurnal structure because its planes drift through all local times
//!   (see [`ssplane_astro::sunsync`] for the drift rate);
//! * a satellite at inclination `i` spends its time in latitudes `< i`
//!   with the classic dwell density peaking at the turn-around, so shells
//!   are placed at the inclinations that most efficiently cover the
//!   worst remaining latitude deficit;
//! * every shell is finally rounded up to a feasible continuous-coverage
//!   Walker pattern (streets-of-coverage sizing), which produces the
//!   satellite-count floor visible at low bandwidth multipliers in Fig. 9.

use crate::error::{CoreError, Result};
use ssplane_astro::coverage::{coverage_half_angle, size_walker_delta};
use ssplane_astro::kepler::OrbitalElements;
use ssplane_astro::walker::WalkerDelta;
use ssplane_demand::grid::LatTodGrid;

/// How a Walker shell's supply is accounted against demand.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SupplyModel {
    /// **Worst-case multiplicity** (default): a shell provides continuous
    /// `m`-fold coverage of its latitude band only when sized at `m ×` the
    /// streets-of-coverage minimum. This is what a bandwidth guarantee
    /// requires and what produces the paper's WD satellite counts.
    #[default]
    WorstCase,
    /// **Time-average multiplicity** (ablation): supply counted as the
    /// mean number of satellites overhead ([`coverage_kernel`]). Cheaper
    /// on paper but does not guarantee capacity at any instant.
    TimeAverage,
}

/// Configuration for the Walker baseline designer.
#[derive(Debug, Clone, PartialEq)]
pub struct WalkerBaselineConfig {
    /// Nominal altitude \[km\]; shells are stacked every
    /// `shell_spacing_km` around it.
    pub altitude_km: f64,
    /// Vertical spacing between stacked shells \[km\].
    pub shell_spacing_km: f64,
    /// Minimum user elevation \[deg\].
    pub min_elevation_deg: f64,
    /// Capacity of one satellite in demand units.
    pub sat_capacity: f64,
    /// Candidate shell inclinations \[deg\].
    pub candidate_inclinations_deg: Vec<f64>,
    /// Supply accounting model.
    pub supply_model: SupplyModel,
}

/// Safety bound on design iterations.
const MAX_ITERATIONS: usize = 10_000;

impl Default for WalkerBaselineConfig {
    fn default() -> Self {
        WalkerBaselineConfig {
            altitude_km: 560.0,
            shell_spacing_km: 10.0,
            min_elevation_deg: ssplane_astro::coverage::DEFAULT_MIN_ELEVATION_DEG,
            sat_capacity: 1.0,
            candidate_inclinations_deg: vec![15.0, 25.0, 35.0, 45.0, 55.0, 65.0, 75.0, 85.0],
            supply_model: SupplyModel::WorstCase,
        }
    }
}

/// One Walker-delta shell of the baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WalkerShell {
    /// Shell inclination \[rad\].
    pub inclination: f64,
    /// Shell altitude \[km\].
    pub altitude_km: f64,
    /// Total satellites in the shell (a feasible `planes × sats_per_plane`
    /// Walker pattern).
    pub n_sats: usize,
    /// Number of planes.
    pub planes: usize,
}

impl WalkerShell {
    /// The shell's Walker-delta pattern (`n_sats = planes ×
    /// sats_per_plane` by construction). The single home of the shell's
    /// phasing convention (`F = 1 mod planes`), so every consumer — flat
    /// satellite lists, the network stage's plane geometry — sees the
    /// same orbits.
    ///
    /// # Errors
    /// Propagates Walker-pattern validation failure.
    pub(crate) fn pattern(&self) -> Result<WalkerDelta> {
        let n_planes = self.planes.max(1);
        Ok(WalkerDelta::new(
            self.altitude_km,
            self.inclination,
            self.n_sats,
            n_planes,
            1 % n_planes,
        )?)
    }
}

/// The designed multi-shell Walker constellation.
#[derive(Debug, Clone)]
pub struct WalkerConstellation {
    /// Shells, in the order placed.
    pub shells: Vec<WalkerShell>,
    /// Configuration used.
    pub config: WalkerBaselineConfig,
}

impl WalkerConstellation {
    /// Total satellites across shells.
    pub fn total_sats(&self) -> usize {
        self.shells.iter().map(|s| s.n_sats).sum()
    }

    /// Orbital elements of every satellite, shell by shell.
    ///
    /// # Errors
    /// Propagates Walker-pattern generation failure.
    pub fn satellites(&self) -> Result<Vec<OrbitalElements>> {
        let mut out = Vec::with_capacity(self.total_sats());
        for shell in &self.shells {
            out.extend(shell.pattern()?.generate()?);
        }
        Ok(out)
    }
}

/// Time-averaged number of satellites covering a ground point at latitude
/// `lat` \[rad\], per satellite of a shell at inclination `inclination`
/// with coverage half-angle `theta` — the analytic supply kernel.
///
/// Computed as the probability that the satellite's sub-point falls within
/// the point's coverage cap: `∫ p(φ′) · Δλ(φ, φ′)/π dφ′`, where `p` is the
/// orbital latitude-dwell density and `Δλ` the cap's longitude half-width.
pub fn coverage_kernel(lat: f64, inclination: f64, theta: f64) -> f64 {
    // Retrograde orbits cover the same latitudes as their supplement.
    let i_eff = inclination.min(core::f64::consts::PI - inclination);
    if i_eff <= 0.0 {
        return 0.0;
    }
    let sin_i = i_eff.sin();
    let lo = (lat - theta).max(-i_eff + 1e-9);
    let hi = (lat + theta).min(i_eff - 1e-9);
    if lo >= hi {
        return 0.0;
    }
    let steps = 32;
    let dl = (hi - lo) / steps as f64;
    let cos_t = theta.cos();
    let mut acc = 0.0;
    for k in 0..steps {
        let phi = lo + (k as f64 + 0.5) * dl;
        let s = phi.sin();
        let denom = (sin_i * sin_i - s * s).max(1e-12).sqrt();
        let p = phi.cos() / (core::f64::consts::PI * denom);
        // Longitude half-width of the cap at latitude φ′ seen from a point
        // at latitude `lat`.
        let cos_dl = ((cos_t - lat.sin() * s) / (lat.cos() * phi.cos())).clamp(-1.0, 1.0);
        let dlam = cos_dl.acos();
        acc += p * (dlam / core::f64::consts::PI) * dl;
    }
    acc
}

/// Per-latitude-band requirement for a time-invariant constellation: the
/// maximum demand over the day in each latitude row of the grid.
pub fn latitude_requirements(demand: &LatTodGrid) -> Vec<(f64, f64)> {
    (0..demand.lat_bins())
        .map(|i| {
            let peak = (0..demand.tod_bins()).map(|j| demand.value(i, j)).fold(0.0, f64::max);
            (demand.lat_center_deg(i).to_radians(), peak)
        })
        .collect()
}

/// Designs the multi-shell Walker-delta baseline for `demand` (scaled to
/// the bandwidth multiplier).
///
/// # Errors
/// * [`CoreError::BadConfig`] for empty candidate sets or non-positive
///   capacity;
/// * [`CoreError::PlaneBudgetExhausted`] if the iteration bound is hit;
/// * astrodynamics errors for infeasible geometry.
pub fn design_walker_constellation(
    demand: &LatTodGrid,
    config: WalkerBaselineConfig,
) -> Result<WalkerConstellation> {
    if config.sat_capacity <= 0.0 {
        return Err(CoreError::BadConfig { name: "sat_capacity", constraint: "> 0" });
    }
    if config.candidate_inclinations_deg.is_empty() {
        return Err(CoreError::BadConfig {
            name: "candidate_inclinations_deg",
            constraint: "non-empty",
        });
    }
    let theta = coverage_half_angle(config.altitude_km, config.min_elevation_deg.to_radians())?;

    // Requirements: satellites simultaneously in view per latitude band.
    let mut deficits: Vec<(f64, f64)> = latitude_requirements(demand)
        .into_iter()
        .map(|(lat, d)| (lat, d / config.sat_capacity))
        .collect();

    let candidates: Vec<f64> =
        config.candidate_inclinations_deg.iter().map(|d| d.to_radians()).collect();

    let alloc = match config.supply_model {
        SupplyModel::WorstCase => allocate_worst_case(&mut deficits, &candidates, theta)?,
        SupplyModel::TimeAverage => allocate_time_average(&mut deficits, &candidates, theta)?,
    };

    // Round every used inclination into a feasible shell: at least the
    // continuous-coverage minimum, in full planes.
    let mut shells = Vec::new();
    let mut shell_idx = 0usize;
    for (c, &n) in alloc.iter().enumerate() {
        if n <= 0.0 {
            continue;
        }
        let sizing = size_walker_delta(theta, candidates[c])?;
        let n_min = sizing.total();
        let per_plane = sizing.sats_per_plane;
        let n_target = (n.ceil() as usize).max(n_min);
        let planes = n_target.div_ceil(per_plane);
        let altitude = config.altitude_km + shell_idx as f64 * config.shell_spacing_km;
        shells.push(WalkerShell {
            inclination: candidates[c],
            altitude_km: altitude,
            n_sats: planes * per_plane,
            planes,
        });
        shell_idx += 1;
    }
    Ok(WalkerConstellation { shells, config })
}

/// Worst-case multiplicity allocation: a shell at inclination `i` sized at
/// `m ×` its streets-of-coverage minimum provides continuous `m`-fold
/// coverage of the band `|lat| ≤ i_eff + θ` (and nothing beyond). For each
/// worst remaining deficit the *cheapest covering* inclination (the one
/// minimizing coverage-minimum satellites, i.e. the lowest feasible
/// inclination — which is exactly "determined by the population latitude")
/// is filled in one shot.
fn allocate_worst_case(
    deficits: &mut [(f64, f64)],
    candidates: &[f64],
    theta: f64,
) -> Result<Vec<f64>> {
    // Coverage minima per candidate.
    let minima: Vec<usize> = candidates
        .iter()
        .map(|&inc| Ok(size_walker_delta(theta, inc)?.total()))
        .collect::<Result<Vec<_>>>()?;
    let mut alloc = vec![0.0; candidates.len()];
    let mut iterations = 0usize;
    while let Some((band, &(_, worst))) = deficits
        .iter()
        .enumerate()
        .max_by(|a, b| a.1 .1.partial_cmp(&b.1 .1).expect("finite demand"))
    {
        if worst <= 1e-9 {
            break;
        }
        iterations += 1;
        if iterations > MAX_ITERATIONS {
            return Err(CoreError::PlaneBudgetExhausted {
                placed: iterations,
                residual_demand: deficits.iter().map(|d| d.1.max(0.0)).sum(),
            });
        }
        let lat = deficits[band].0.abs();
        // Cheapest candidate whose coverage band reaches this latitude.
        let best = candidates
            .iter()
            .enumerate()
            .filter(|&(_, &inc)| {
                let i_eff = inc.min(core::f64::consts::PI - inc);
                i_eff + theta >= lat
            })
            .min_by_key(|&(c, _)| minima[c])
            .map(|(c, _)| c);
        let Some(best) = best else {
            // Unreachable latitude: mark unserved.
            deficits[band].1 = 0.0;
            continue;
        };
        let m = worst.ceil();
        alloc[best] += m * minima[best] as f64;
        let i_eff = candidates[best].min(core::f64::consts::PI - candidates[best]);
        for d in deficits.iter_mut() {
            if d.0.abs() <= i_eff + theta {
                d.1 = (d.1 - m).max(0.0);
            }
        }
    }
    Ok(alloc)
}

/// Time-average allocation (ablation): fills deficits using the mean
/// overhead-multiplicity kernel.
fn allocate_time_average(
    deficits: &mut [(f64, f64)],
    candidates: &[f64],
    theta: f64,
) -> Result<Vec<f64>> {
    let kernels: Vec<Vec<f64>> = candidates
        .iter()
        .map(|&inc| deficits.iter().map(|&(lat, _)| coverage_kernel(lat, inc, theta)).collect())
        .collect();
    let mut alloc = vec![0.0; candidates.len()];
    let mut iterations = 0usize;
    while let Some((band, &(_, worst))) = deficits
        .iter()
        .enumerate()
        .max_by(|a, b| a.1 .1.partial_cmp(&b.1 .1).expect("finite demand"))
    {
        if worst <= 1e-9 {
            break;
        }
        iterations += 1;
        if iterations > MAX_ITERATIONS {
            return Err(CoreError::PlaneBudgetExhausted {
                placed: iterations,
                residual_demand: deficits.iter().map(|d| d.1.max(0.0)).sum(),
            });
        }
        let (best, kernel) = kernels
            .iter()
            .enumerate()
            .map(|(c, k)| (c, k[band]))
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite kernel"))
            .expect("non-empty candidates");
        if kernel <= 0.0 {
            deficits[band].1 = 0.0;
            continue;
        }
        let dn = (worst / kernel).ceil();
        alloc[best] += dn;
        for (b, d) in deficits.iter_mut().enumerate() {
            d.1 = (d.1 - dn * kernels[best][b]).max(0.0);
        }
    }
    Ok(alloc)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_with_rows(rows: &[(usize, f64)]) -> LatTodGrid {
        let mut v = vec![0.0; 36 * 24];
        for &(i, val) in rows {
            for j in 0..24 {
                v[i * 24 + j] = val;
            }
        }
        LatTodGrid::from_values(36, 24, v).unwrap()
    }

    #[test]
    fn kernel_basic_properties() {
        let theta = 0.13;
        // Peak near the turn-around latitude.
        let at_inc = coverage_kernel(0.5, 0.5, theta);
        let at_eq = coverage_kernel(0.0, 0.5, theta);
        assert!(at_inc > at_eq, "turnaround {at_inc} vs equator {at_eq}");
        // Zero beyond reach.
        assert_eq!(coverage_kernel(0.8, 0.5, theta), 0.0);
        // Symmetric in hemisphere.
        let n = coverage_kernel(0.3, 0.9, theta);
        let s = coverage_kernel(-0.3, 0.9, theta);
        assert!((n - s).abs() < 1e-9);
        // Retrograde equivalence: i and π−i identical.
        let pro = coverage_kernel(0.4, 1.0, theta);
        let retro = coverage_kernel(0.4, core::f64::consts::PI - 1.0, theta);
        assert!((pro - retro).abs() < 1e-12);
    }

    #[test]
    fn kernel_integrates_to_cap_fraction() {
        // Summing n_vis over a fine latitude partition weighted by band
        // area fraction recovers the cap's share of the sphere:
        // ∫ kernel(φ) cosφ/2 dφ = (1-cosθ)/2.
        let theta: f64 = 0.13;
        let inc = 1.0;
        let steps = 400;
        let mut acc = 0.0;
        for k in 0..steps {
            let lat = -core::f64::consts::FRAC_PI_2
                + core::f64::consts::PI * (k as f64 + 0.5) / steps as f64;
            acc += coverage_kernel(lat, inc, theta) * lat.cos() / 2.0
                * (core::f64::consts::PI / steps as f64);
        }
        let expect = (1.0 - theta.cos()) / 2.0;
        assert!((acc - expect).abs() / expect < 0.05, "acc {acc} vs {expect}");
    }

    #[test]
    fn empty_demand_no_shells() {
        let g = grid_with_rows(&[]);
        let c = design_walker_constellation(&g, Default::default()).unwrap();
        assert!(c.shells.is_empty());
        assert_eq!(c.total_sats(), 0);
    }

    #[test]
    fn single_band_demand_selects_matching_inclination() {
        // Demand at ~+25° latitude (row 23 of 36 → center 27.5°).
        let g = grid_with_rows(&[(23, 3.0)]);
        let c = design_walker_constellation(&g, Default::default()).unwrap();
        assert!(!c.shells.is_empty());
        // The chosen shell's inclination is near (at or slightly above)
        // the demand latitude.
        let inc = c.shells[0].inclination.to_degrees();
        assert!((20.0..=45.0).contains(&inc), "chose {inc}°");
    }

    #[test]
    fn coverage_floor_at_small_demand() {
        // Tiny demand still costs the continuous-coverage minimum.
        let g_small = grid_with_rows(&[(23, 0.2)]);
        let c_small = design_walker_constellation(&g_small, Default::default()).unwrap();
        let g_smaller = grid_with_rows(&[(23, 0.01)]);
        let c_smaller = design_walker_constellation(&g_smaller, Default::default()).unwrap();
        assert_eq!(c_small.total_sats(), c_smaller.total_sats());
        // A single low-inclination shell's streets-of-coverage minimum.
        assert!(c_small.total_sats() > 150, "floor = {}", c_small.total_sats());
    }

    #[test]
    fn total_grows_with_demand() {
        let mut prev = 0;
        for mult in [1.0, 10.0, 100.0] {
            let g = grid_with_rows(&[(23, mult), (27, 0.6 * mult), (13, 0.4 * mult)]);
            let c = design_walker_constellation(&g, Default::default()).unwrap();
            assert!(c.total_sats() >= prev, "not monotone at {mult}");
            prev = c.total_sats();
        }
        // Large demand ⇒ roughly linear growth (well past the floor).
        assert!(prev > 10_000, "100x demand should need >10k sats, got {prev}");
    }

    #[test]
    fn satellites_generate_valid_walker_patterns() {
        let g = grid_with_rows(&[(23, 2.0), (30, 1.0)]);
        let c = design_walker_constellation(&g, Default::default()).unwrap();
        let sats = c.satellites().unwrap();
        assert_eq!(sats.len(), c.total_sats());
        // Shells stacked at distinct altitudes.
        for (a, b) in c.shells.iter().zip(c.shells.iter().skip(1)) {
            assert!((a.altitude_km - b.altitude_km).abs() >= c.config.shell_spacing_km - 1e-9);
        }
    }

    #[test]
    fn bad_config_rejected() {
        let g = grid_with_rows(&[(23, 1.0)]);
        assert!(design_walker_constellation(
            &g,
            WalkerBaselineConfig { sat_capacity: 0.0, ..Default::default() }
        )
        .is_err());
        assert!(design_walker_constellation(
            &g,
            WalkerBaselineConfig { candidate_inclinations_deg: vec![], ..Default::default() }
        )
        .is_err());
    }

    #[test]
    fn polar_demand_handled_gracefully() {
        // Demand at ±87.5° (rows 0/35) is beyond all candidate
        // inclinations + swath: the designer must not loop forever.
        let g = grid_with_rows(&[(35, 1.0)]);
        let c = design_walker_constellation(&g, Default::default()).unwrap();
        // Either an 85° shell covers it or it is declared unserviceable;
        // both are acceptable terminations.
        let _ = c.total_sats();
    }
}
