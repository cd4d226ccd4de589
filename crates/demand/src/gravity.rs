//! Gravity-model synthesis of city-pair traffic flows — the
//! population-scale workload generator.
//!
//! The network stage historically routed a hand-counted flow sample; a
//! production-scale evaluation needs 10⁵–10⁶ flows whose *rates* carry
//! real demand weight. This module derives that workload from the same
//! [`PopulationGrid`] × [`DiurnalModel`] substrate everything else uses
//! (via [`DemandModel`]):
//!
//! 1. **Attraction sites** — the top-N grid cells by demand *mass*
//!    (density × diurnal weight × cell area) at the configured UTC hour:
//!    the synthetic stand-ins for metro areas.
//! 2. **Pair sampling** — source and destination sites drawn with
//!    probability proportional to site mass (the product form
//!    `m_i · m_j` of the classic gravity model), importance-weighted by
//!    an exponential distance-deterrence term.
//! 3. **Conservation** — flow rates are normalized so the emitted total
//!    equals the whole grid's demand mass at that hour, so aggregate
//!    statistics stay comparable across `pairs` settings and the grid
//!    total is conserved exactly (up to float summation).
//!
//! Steps 1 and 3 read no seed: the sites, their sampling tables and the
//! grid total form a [`GravityField`], a function of the model, the UTC
//! hour and the site budget alone. Only step 2's draws are seeded, so a
//! sweep whose points differ in seed or pair count builds one field and
//! draws from it per point ([`gravity_flows_in`]); [`gravity_flows`] is
//! a fresh field plus one draw. A cell's diurnal weight depends on its
//! longitude alone, so a field scan evaluates it once per column.
//!
//! A draw is a [`GravityFlows`]: the field's site table plus one
//! 16-byte [`GravityFlow`] per pair, which names its endpoints by index
//! into that table. The sites are distinct grid cells, so distinct
//! indices name distinct coordinates, and a consumer can intern
//! endpoints and pairs by index alone.
//!
//! Determinism contract: the flow list is a pure function of
//! `(model, config)` — byte-identical across runs **and thread counts**.
//! Generation is chunked; every chunk owns a seed derived from
//! `config.seed` and its chunk index, and chunks run through
//! [`ssplane_astro::par::par_map`], which returns them in index order.
//!
//! [`PopulationGrid`]: crate::population::PopulationGrid
//! [`DiurnalModel`]: crate::diurnal::DiurnalModel

use crate::error::{DemandError, Result};
use crate::population::PopulationGrid;
use crate::spatiotemporal::DemandModel;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ssplane_astro::angles::wrap_hours;
use ssplane_astro::geo::GeoPoint;
use ssplane_astro::par::par_map;

/// Flows generated per RNG chunk — the unit of parallelism *and* of the
/// determinism contract (each chunk's stream is independent of who runs
/// it).
const CHUNK: usize = 8192;

/// Per-chunk seed salt (distinct from every other stream salt in the
/// workspace).
const CHUNK_SALT: u64 = 0x6772_6176_6974_7921; // "gravity!"

/// Distance-deterrence scale \[km\]: a pair's weight carries
/// `exp(-d / DETERRENCE_KM)`.
const DETERRENCE_KM: f64 = 8000.0;

/// Configuration of one gravity-model synthesis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GravityConfig {
    /// City-pair flows to emit.
    pub pairs: usize,
    /// Attraction sites: the top-N demand cells pairs are drawn from.
    pub sites: usize,
    /// UTC hour the demand field is evaluated at.
    pub utc_hour: f64,
    /// RNG seed; the flow list is byte-identical per seed.
    pub seed: u64,
}

impl Default for GravityConfig {
    fn default() -> Self {
        GravityConfig { pairs: 100_000, sites: 256, utc_hour: 12.0, seed: 42 }
    }
}

/// One attraction site: a top-demand grid cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GravitySite {
    /// Cell-center latitude \[deg\].
    pub lat_deg: f64,
    /// Cell-center longitude \[deg\].
    pub lon_deg: f64,
    /// Demand mass at the configured hour (density × diurnal weight ×
    /// cell area).
    pub mass: f64,
}

/// One synthesized city-pair flow: its endpoints as indices into its
/// draw's site table ([`GravityFlows::sites`]) and its offered rate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GravityFlow {
    /// Source site index.
    pub src_site: u32,
    /// Destination site index, never the source's.
    pub dst_site: u32,
    /// Offered rate, in the same units as [`grid_demand_total`].
    pub rate: f64,
}

/// One gravity draw: a copy of the field's site table and the flows
/// drawn over it, in draw order. Only [`gravity_flows_in`] builds one,
/// so every flow's site indices are in range and distinct sites carry
/// distinct coordinates. It derefs to `[GravityFlow]`.
#[derive(Debug, PartialEq)]
pub struct GravityFlows {
    sites: Vec<GravitySite>,
    flows: Vec<GravityFlow>,
}

impl GravityFlows {
    /// The site table the flows index, heaviest first
    /// ([`GravityField::sites`]).
    pub fn sites(&self) -> &[GravitySite] {
        &self.sites
    }
}

impl std::ops::Deref for GravityFlows {
    type Target = [GravityFlow];

    fn deref(&self) -> &[GravityFlow] {
        &self.flows
    }
}

/// The diurnal weight of each longitude column at `utc_hour`. A cell's
/// local solar hour, hence its weight, depends on its longitude alone,
/// so one evaluation per column serves every latitude row.
fn column_weights(model: &DemandModel, utc_hour: f64) -> Vec<f64> {
    let grid = &model.population;
    (0..grid.lon_bins())
        .map(|j| model.diurnal.weight(wrap_hours(utc_hour + grid.lon_center_deg(j) / 15.0)))
        .collect()
}

/// A grid cell's `(mass, lat index, lon index)`.
type Cell = (f64, usize, usize);

/// Every grid cell's [`Cell`] under the column `weights`, south to north
/// and west to east. A mass is `(density * weight) * area`: the product
/// order of `demand_at_utc(..) * area`, so it is bit-identical to it.
fn cell_masses<'a>(
    grid: &'a PopulationGrid,
    weights: &'a [f64],
) -> impl Iterator<Item = Cell> + 'a {
    (0..grid.lat_bins()).flat_map(move |i| {
        let area = grid.cell_area_km2(i);
        weights.iter().enumerate().map(move |(j, &w)| ((grid.cell(i, j) * w) * area, i, j))
    })
}

/// The whole grid's demand mass at `utc_hour` — the total the emitted
/// flow rates conserve (summed in fixed south-to-north, west-to-east
/// cell order).
pub fn grid_demand_total(model: &DemandModel, utc_hour: f64) -> f64 {
    let weights = column_weights(model, utc_hour);
    cell_masses(&model.population, &weights).fold(0.0, |total, (mass, _, _)| total + mass)
}

/// Orders cells heaviest first, ties by cell index.
fn heaviest_first(a: &Cell, b: &Cell) -> std::cmp::Ordering {
    b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal).then((a.1, a.2).cmp(&(b.1, b.2)))
}

/// The first `n` of `cells` under [`heaviest_first`], in that order.
/// It buffers at most `2n` cells (at least 64): whenever the buffer
/// fills, it keeps the buffer's heaviest `n`, each dropped cell having
/// `n` heavier ones. Finite masses and unique `(i, j)` make the
/// comparator a total order, so the result equals a full sort's prefix
/// without ever holding the whole grid.
fn heaviest_cells(cells: impl IntoIterator<Item = Cell>, n: usize) -> Vec<Cell> {
    let cap = n.saturating_mul(2).max(64);
    let mut kept = Vec::new();
    for cell in cells {
        if kept.len() == cap {
            kept.select_nth_unstable_by(n, heaviest_first);
            kept.truncate(n);
        }
        kept.push(cell);
    }
    if n < kept.len() {
        kept.select_nth_unstable_by(n, heaviest_first);
        kept.truncate(n);
    }
    kept.sort_unstable_by(heaviest_first);
    kept
}

/// The sites of `cells` (already in [`heaviest_first`] order).
fn sites_of(grid: &PopulationGrid, cells: Vec<Cell>) -> Vec<GravitySite> {
    cells
        .into_iter()
        .map(|(mass, i, j)| GravitySite {
            lat_deg: grid.lat_center_deg(i),
            lon_deg: grid.lon_center_deg(j),
            mass,
        })
        .collect()
}

/// The top `n_sites` grid cells by demand mass at `utc_hour`, heaviest
/// first (ties break on cell index, so the selection is deterministic).
/// Cells with zero mass never become sites.
pub fn gravity_sites(model: &DemandModel, utc_hour: f64, n_sites: usize) -> Vec<GravitySite> {
    let weights = column_weights(model, utc_hour);
    let cells = cell_masses(&model.population, &weights).filter(|&(mass, _, _)| mass > 0.0);
    sites_of(&model.population, heaviest_cells(cells, n_sites))
}

/// The seed-free half of a gravity synthesis: the attraction sites at
/// one UTC hour, the sampling tables over them, and the grid total the
/// rates are normalized to. It depends only on the demand model, the UTC
/// hour and the site budget, so every draw at those inputs — whatever
/// its seed and pair count — can share one field
/// ([`gravity_flows_in`]).
#[derive(Debug)]
pub struct GravityField {
    utc_hour: f64,
    site_budget: usize,
    sites: Vec<GravitySite>,
    /// Cumulative site mass, in site order.
    prefix: Vec<f64>,
    /// Site-to-site great-circle distance \[km\], row-major.
    distance: Vec<f64>,
    total: f64,
}

impl GravityField {
    /// The field of `model` at `utc_hour` over its top `sites` cells: the
    /// sites are [`gravity_sites`] and the total is
    /// [`grid_demand_total`], both from one scan of the grid.
    pub fn new(model: &DemandModel, utc_hour: f64, sites: usize) -> Self {
        let grid = &model.population;
        let weights = column_weights(model, utc_hour);
        let mut total = 0.0;
        let cells = cell_masses(grid, &weights)
            .inspect(|&(mass, _, _)| total += mass)
            .filter(|&(mass, _, _)| mass > 0.0);
        let top = sites_of(grid, heaviest_cells(cells, sites));
        // A few hundred sites: the tables are trivially small next to the
        // draw count.
        let mut prefix = Vec::with_capacity(top.len());
        let mut acc = 0.0;
        for s in &top {
            acc += s.mass;
            prefix.push(acc);
        }
        let points: Vec<GeoPoint> =
            top.iter().map(|s| GeoPoint::from_degrees(s.lat_deg, s.lon_deg)).collect();
        let distance =
            points.iter().flat_map(|a| points.iter().map(|b| a.distance_km(b))).collect();
        GravityField { utc_hour, site_budget: sites, sites: top, prefix, distance, total }
    }

    /// The attraction sites, heaviest first.
    pub fn sites(&self) -> &[GravitySite] {
        &self.sites
    }

    /// The whole grid's demand mass at the field's UTC hour
    /// ([`grid_demand_total`]).
    pub fn total(&self) -> f64 {
        self.total
    }
}

/// Draws one site index proportionally to site mass: binary search on
/// the cumulative-mass prefix.
fn pick_site(prefix: &[f64], rng: &mut StdRng) -> usize {
    let total = *prefix.last().expect("at least one site");
    let u = rng.gen::<f64>() * total;
    prefix.partition_point(|&p| p <= u).min(prefix.len() - 1)
}

/// One chunk of draws on its own seeded stream, each flow's rate still
/// its raw gravity weight.
fn generate_chunk(
    chunk: usize,
    count: usize,
    field: &GravityField,
    config: &GravityConfig,
) -> Vec<GravityFlow> {
    let (sites, prefix) = (&field.sites, &field.prefix);
    let mut rng = StdRng::seed_from_u64(config.seed ^ (chunk as u64 + 1).wrapping_mul(CHUNK_SALT));
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        let src = pick_site(prefix, &mut rng);
        let dst = loop {
            let d = pick_site(prefix, &mut rng);
            if d != src {
                break d;
            }
        };
        let d_km = field.distance[src * sites.len() + dst];
        let rate = sites[src].mass * sites[dst].mass * (-d_km / DETERRENCE_KM).exp();
        out.push(GravityFlow { src_site: src as u32, dst_site: dst as u32, rate });
    }
    out
}

/// Synthesizes `config.pairs` gravity-model flows over `threads` workers
/// (`0` = the machine): a fresh [`GravityField`] plus
/// [`gravity_flows_in`]. The output is byte-identical for every thread
/// count and the rates sum to [`grid_demand_total`] at `config.utc_hour`.
///
/// # Errors
/// As [`gravity_flows_in`].
pub fn gravity_flows(
    model: &DemandModel,
    config: &GravityConfig,
    threads: usize,
) -> Result<GravityFlows> {
    gravity_flows_in(&GravityField::new(model, config.utc_hour, config.sites), config, threads)
}

/// The seeded half of a gravity synthesis: `config.pairs` flows drawn
/// over `field` on `threads` workers (`0` = the machine), byte-identical
/// to [`gravity_flows`] for the same model and config.
///
/// # Errors
/// [`DemandError::EmptyGrid`] when `pairs` is zero or fewer than two
/// sites carry demand mass, and [`DemandError::OutOfDomain`] for a
/// config whose UTC hour or site budget is not the field's, or draws
/// that leave no pair with positive weight.
pub fn gravity_flows_in(
    field: &GravityField,
    config: &GravityConfig,
    threads: usize,
) -> Result<GravityFlows> {
    if config.pairs == 0 {
        return Err(DemandError::EmptyGrid { dimension: "pairs" });
    }
    if config.utc_hour.to_bits() != field.utc_hour.to_bits() || config.sites != field.site_budget {
        return Err(DemandError::OutOfDomain {
            name: "utc_hour, sites",
            expected: "the UTC hour and site budget the field was built at",
        });
    }
    if field.sites.len() < 2 {
        return Err(DemandError::EmptyGrid { dimension: "sites" });
    }

    // Chunked generation: each chunk is a pure function of its index,
    // and `par_map` returns chunks in index order, so the output is
    // independent of scheduling.
    let n_chunks = config.pairs.div_ceil(CHUNK);
    let chunks: Vec<Vec<GravityFlow>> = par_map((0..n_chunks).collect(), threads, |c| {
        generate_chunk(c, CHUNK.min(config.pairs - c * CHUNK), field, config)
    });
    let mut flows = chunks.concat();

    // Normalize in draw order so the float summation is the same serial
    // reduction for every thread count.
    let weight_sum: f64 = flows.iter().map(|f| f.rate).sum();
    if weight_sum <= 0.0 {
        return Err(DemandError::OutOfDomain {
            name: "pair weights",
            expected: "at least one pair with positive weight",
        });
    }
    let scale = field.total / weight_sum;
    for f in &mut flows {
        f.rate *= scale;
    }
    Ok(GravityFlows { sites: field.sites.clone(), flows })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diurnal::DiurnalModel;
    use crate::population::{PopulationConfig, PopulationGrid};
    use proptest::prelude::*;

    fn model() -> DemandModel {
        DemandModel::new(
            PopulationGrid::synthetic(PopulationConfig {
                lat_bins: 90,
                lon_bins: 180,
                n_cities: 400,
                seed: 42,
            })
            .unwrap(),
            DiurnalModel::default(),
        )
    }

    fn config(pairs: usize, seed: u64) -> GravityConfig {
        GravityConfig { pairs, sites: 64, seed, ..Default::default() }
    }

    /// The per-cell oracle of [`grid_demand_total`]: one
    /// `demand_at_utc` (a diurnal weight) per cell.
    fn total_per_cell(model: &DemandModel, utc_hour: f64) -> f64 {
        let grid = &model.population;
        let mut total = 0.0;
        for i in 0..grid.lat_bins() {
            let area = grid.cell_area_km2(i);
            let lat = grid.lat_center_deg(i);
            for j in 0..grid.lon_bins() {
                total += model.demand_at_utc(lat, grid.lon_center_deg(j), utc_hour) * area;
            }
        }
        total
    }

    /// The per-cell oracle of [`gravity_sites`].
    fn sites_per_cell(model: &DemandModel, utc_hour: f64, n_sites: usize) -> Vec<GravitySite> {
        let grid = &model.population;
        let mut cells = Vec::new();
        for i in 0..grid.lat_bins() {
            let area = grid.cell_area_km2(i);
            let lat = grid.lat_center_deg(i);
            for j in 0..grid.lon_bins() {
                let mass = model.demand_at_utc(lat, grid.lon_center_deg(j), utc_hour) * area;
                if mass > 0.0 {
                    cells.push((mass, i, j));
                }
            }
        }
        cells.sort_by(heaviest_first);
        cells.truncate(n_sites);
        sites_of(grid, cells)
    }

    /// Bit patterns of sites, so `-0.0` and `0.0` tell apart.
    fn site_bits(sites: &[GravitySite]) -> Vec<[u64; 3]> {
        sites.iter().map(|s| [s.lat_deg.to_bits(), s.lon_deg.to_bits(), s.mass.to_bits()]).collect()
    }

    fn flow_bits(flows: &GravityFlows) -> Vec<(u32, u32, u64)> {
        flows.iter().map(|f| (f.src_site, f.dst_site, f.rate.to_bits())).collect()
    }

    #[test]
    fn one_field_serves_every_draw_bit_for_bit() {
        let m = model();
        let field = GravityField::new(&m, 12.0, 64);
        for (seed, pairs) in [(0, 1), (7, 500), (8, 500), (21, CHUNK + 3), (99, 2 * CHUNK)] {
            let cfg = config(pairs, seed);
            let shared = gravity_flows_in(&field, &cfg, 2).unwrap();
            let fresh = gravity_flows(&m, &cfg, 1).unwrap();
            assert_eq!(flow_bits(&shared), flow_bits(&fresh), "seed {seed}, {pairs} pairs");
            assert_eq!(site_bits(shared.sites()), site_bits(field.sites()));
        }
    }

    #[test]
    fn a_field_rejects_a_config_it_was_not_built_for() {
        let m = model();
        let field = GravityField::new(&m, 12.0, 64);
        assert!(gravity_flows_in(&field, &config(100, 1), 1).is_ok());
        let other_hour = GravityConfig { utc_hour: 6.0, ..config(100, 1) };
        assert!(gravity_flows_in(&field, &other_hour, 1).is_err());
        let other_sites = GravityConfig { sites: 65, ..config(100, 1) };
        assert!(gravity_flows_in(&field, &other_sites, 1).is_err());
    }

    #[test]
    fn sites_are_the_heaviest_cells_in_order() {
        let m = model();
        let sites = gravity_sites(&m, 12.0, 48);
        assert_eq!(sites.len(), 48);
        for pair in sites.windows(2) {
            assert!(pair[0].mass >= pair[1].mass, "sites must be sorted heaviest-first");
        }
        assert!(sites[0].mass > 0.0);
        // Sites sit at inhabited latitudes.
        for s in &sites {
            assert!(s.lat_deg.abs() < 65.0, "site at {}", s.lat_deg);
        }
    }

    #[test]
    fn flows_conserve_the_grid_total_and_are_deterministic() {
        let m = model();
        let flows = gravity_flows(&m, &config(10_000, 7), 1).unwrap();
        assert_eq!(flows.len(), 10_000);
        let total: f64 = flows.iter().map(|f| f.rate).sum();
        let grid_total = grid_demand_total(&m, 12.0);
        assert!(
            (total - grid_total).abs() / grid_total < 1e-9,
            "emitted {total} vs grid {grid_total}"
        );
        for f in flows.iter() {
            assert!(f.rate > 0.0);
            assert_ne!(f.src_site, f.dst_site, "self-pair emitted");
        }
        let again = gravity_flows(&m, &config(10_000, 7), 1).unwrap();
        assert_eq!(flows, again);
        let other_seed = gravity_flows(&m, &config(10_000, 8), 1).unwrap();
        assert_ne!(flows, other_seed);
    }

    #[test]
    fn thread_count_does_not_change_the_bytes() {
        let m = model();
        // Spans multiple chunks so the queue actually interleaves.
        let cfg = config(3 * CHUNK + 100, 21);
        let serial = gravity_flows(&m, &cfg, 1).unwrap();
        for threads in [0, 2, 4, 7] {
            let parallel = gravity_flows(&m, &cfg, threads).unwrap();
            assert_eq!(flow_bits(&serial), flow_bits(&parallel), "{threads} threads changed bytes");
        }
    }

    #[test]
    fn bad_configs_are_rejected() {
        let m = model();
        assert!(gravity_flows(&m, &GravityConfig { pairs: 0, ..Default::default() }, 1).is_err());
        assert!(gravity_flows(&m, &GravityConfig { sites: 1, ..Default::default() }, 1).is_err());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The bounded selection keeps exactly the prefix the full stable
        /// sort keeps, in the same order — also when every cell is kept,
        /// when the buffer compacts many times, and when masses tie.
        #[test]
        fn selection_equals_the_full_sort(
            masses in proptest::collection::vec(0u8..6, 1..600),
            lon_bins in 1usize..12,
            n in 0usize..240,
        ) {
            let cells: Vec<Cell> = masses
                .iter()
                .enumerate()
                .map(|(k, &m)| (f64::from(m) * 0.25, k / lon_bins, k % lon_bins))
                .collect();
            let mut full = cells.clone();
            full.sort_by(heaviest_first);
            full.truncate(n);
            prop_assert_eq!(heaviest_cells(cells, n), full);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]

        /// The column-factored scans equal the per-cell oracle bit for
        /// bit — total, sites, and the field built from one scan — over
        /// grid shapes (odd `lon_bins` included), UTC hours at and near
        /// the wrap, and site budgets.
        #[test]
        fn factored_scans_equal_the_per_cell_oracle(
            lat_bins in 1usize..48,
            lon_bins in 1usize..97,
            hour_case in 0usize..5,
            any_hour in 0.0f64..24.0,
            n_sites in 0usize..90,
            seed in 0u64..1000,
        ) {
            let m = DemandModel::new(
                PopulationGrid::synthetic(PopulationConfig { lat_bins, lon_bins, n_cities: 60, seed })
                    .unwrap(),
                DiurnalModel::default(),
            );
            let hour = [0.0, -0.0, 11.999, 23.99, any_hour][hour_case];
            let total = total_per_cell(&m, hour);
            let sites = site_bits(&sites_per_cell(&m, hour, n_sites));
            prop_assert_eq!(grid_demand_total(&m, hour).to_bits(), total.to_bits());
            prop_assert_eq!(site_bits(&gravity_sites(&m, hour, n_sites)), sites.clone());
            let field = GravityField::new(&m, hour, n_sites);
            prop_assert_eq!(field.total().to_bits(), total.to_bits());
            prop_assert_eq!(site_bits(field.sites()), sites);
            // Distinct sites sit at distinct coordinates, so a draw's site
            // indices intern its endpoints one to one.
            let mut at: Vec<(u64, u64)> =
                field.sites().iter().map(|s| (s.lat_deg.to_bits(), s.lon_deg.to_bits())).collect();
            at.sort_unstable();
            at.dedup();
            prop_assert_eq!(at.len(), field.sites().len());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        /// Conservation holds for any seed, pair count, and site budget:
        /// the emitted rates always sum to the grid's demand mass.
        #[test]
        fn conservation_is_seed_and_size_independent(
            seed in 0u64..1000,
            pairs in 1usize..3000,
            sites in 2usize..96,
        ) {
            let m = model();
            let cfg = GravityConfig { pairs, sites, seed, ..Default::default() };
            let flows = gravity_flows(&m, &cfg, 1).unwrap();
            prop_assert_eq!(flows.len(), pairs);
            let total: f64 = flows.iter().map(|f| f.rate).sum();
            let grid_total = grid_demand_total(&m, cfg.utc_hour);
            prop_assert!((total - grid_total).abs() / grid_total < 1e-9);
        }
    }
}
