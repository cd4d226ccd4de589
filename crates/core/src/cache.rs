//! Compute-once caches for the pure kernels a sweep repeats.
//!
//! A sweep's points keep asking for the same kernel outputs: an SS plane
//! placed through the same peak cell has bit-identical elements at every
//! demand level, so its daily fluence is integrated again on every point
//! that places it, and the designer's peak-cell candidate planes depend
//! on the grid shape and the altitude/elevation configuration, never on
//! the demand. Likewise the gravity workload's seed-free field (sites,
//! sampling tables and grid total) depends on the demand model, the UTC
//! hour and the site budget, never on the point's seed, and the unscaled
//! latitude × time-of-day demand grid depends on the demand model and
//! the bin counts, never on the point's demand level. [`KernelCache`]
//! keys each kernel on the bits of every input it reads and computes each
//! key once for as long as the cache lives; the scenario runner builds
//! one per run and lends it to every point.
//!
//! The reuse is exact: a key holds every input bit the kernel reads, so a
//! cached value is the value a fresh computation would return.

use crate::designer::Candidates;
use crate::error::Result;
use ssplane_astro::kepler::OrbitalElements;
use ssplane_astro::time::Epoch;
use ssplane_demand::gravity::GravityField;
use ssplane_demand::grid::LatTodGrid;
use ssplane_demand::DemandModel;
use ssplane_radiation::fluence::{daily_fluence, DailyFluence};
use ssplane_radiation::RadiationEnvironment;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// A map of compute-once cells: each key's value is computed by the first
/// caller that wants it, while later callers for the same key wait for
/// that computation and then read its result. Each key is therefore
/// computed exactly once at any thread count. The map lock is held only
/// while a cell is fetched, so distinct keys compute concurrently.
/// Errors are returned to the caller and never stored: the next caller
/// for that key computes again.
#[derive(Debug, Default)]
pub struct ComputeOnce<K, V> {
    cells: Mutex<BTreeMap<K, Arc<Mutex<Option<V>>>>>,
}

impl<K: Ord, V: Clone> ComputeOnce<K, V> {
    /// An empty cache (usable in a `static`).
    pub const fn new() -> Self {
        ComputeOnce { cells: Mutex::new(BTreeMap::new()) }
    }

    /// The value for `key`, computed by `compute` unless an earlier call
    /// already stored it.
    ///
    /// # Errors
    /// Whatever `compute` returns; the error is not cached.
    pub fn get_or_try_compute<E>(
        &self,
        key: K,
        compute: impl FnOnce() -> std::result::Result<V, E>,
    ) -> std::result::Result<V, E> {
        // A panicking computation leaves its cell empty and the map
        // consistent, so a poisoned lock is safe to take over.
        let cell = Arc::clone(
            self.cells.lock().unwrap_or_else(PoisonError::into_inner).entry(key).or_default(),
        );
        let mut slot = cell.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(value) = slot.as_ref() {
            return Ok(value.clone());
        }
        let value = compute()?;
        *slot = Some(value.clone());
        Ok(value)
    }

    /// As [`Self::get_or_try_compute`] for a computation that cannot fail.
    pub fn get_or_compute(&self, key: K, compute: impl FnOnce() -> V) -> V {
        self.get_or_try_compute(key, || Ok::<V, std::convert::Infallible>(compute()))
            .unwrap_or_else(|never| match never {})
    }
}

/// How often one kernel was asked for a value, and how often it had to
/// compute one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheCount {
    /// Kernel computations run (one per distinct key, plus one per
    /// request of a key whose computation failed).
    pub computed: u64,
    /// Values requested.
    pub requested: u64,
}

/// A live [`CacheCount`].
#[derive(Debug, Default)]
struct Tally {
    computed: AtomicU64,
    requested: AtomicU64,
}

impl Tally {
    /// Fetches `key` from `store`, counting the request and, if it runs,
    /// the computation.
    fn fetch<K: Ord, V: Clone, E>(
        &self,
        store: &ComputeOnce<K, V>,
        key: K,
        compute: impl FnOnce() -> std::result::Result<V, E>,
    ) -> std::result::Result<V, E> {
        self.requested.fetch_add(1, Ordering::Relaxed);
        store.get_or_try_compute(key, || {
            self.computed.fetch_add(1, Ordering::Relaxed);
            compute()
        })
    }

    fn count(&self) -> CacheCount {
        CacheCount {
            computed: self.computed.load(Ordering::Relaxed),
            requested: self.requested.load(Ordering::Relaxed),
        }
    }
}

/// `(element bits, epoch bits, step bits)`: every input of one
/// `daily_fluence` integration besides the cache's environment.
type FluenceKey = ([u64; 6], u64, u64);

/// `(lat_bins, tod_bins, altitude_km bits, min_elevation_deg bits, i, j)`:
/// everything the designer's candidate planes through cell `(i, j)` and
/// their covered cells depend on.
pub(crate) type CandidateKey = (usize, usize, u64, u64, usize, usize);

/// `(demand model key, utc_hour bits, sites)`: everything a
/// [`GravityField`] reads, given that the caller's demand model key
/// names its model uniquely.
pub type GravityKey = (u64, u64, usize);

/// `(demand model key, lat_bins, tod_bins)`: everything a
/// [`LatTodGrid::from_model`] reads, given that the caller's demand model
/// key names its model uniquely.
pub type DemandGridKey = (u64, usize, usize);

/// The entries a [`KernelCache`] and its [`KernelCache::share`]d handles
/// hold in common.
#[derive(Debug)]
struct Kernels {
    env: RadiationEnvironment,
    fluence: ComputeOnce<FluenceKey, DailyFluence>,
    ss_candidates: ComputeOnce<CandidateKey, Arc<Candidates>>,
    gravity: ComputeOnce<GravityKey, Arc<GravityField>>,
    demand_grid: ComputeOnce<DemandGridKey, Arc<LatTodGrid>>,
}

/// The compute-once cache of the sweep kernels: daily fluence
/// integrations in one radiation environment, the SS designer's
/// peak-cell candidate planes with the cells they cover, the gravity
/// workload's seed-free fields, and the unscaled demand grids.
///
/// Each handle counts its own requests ([`Self::counters`]); handles made
/// by [`Self::share`] read and fill the same entries, so summing their
/// counts gives the totals of the cache.
#[derive(Debug)]
pub struct KernelCache {
    kernels: Arc<Kernels>,
    fluence: Tally,
    ss_candidates: Tally,
    gravity: Tally,
    demand_grid: Tally,
}

impl Default for KernelCache {
    /// An empty cache over the default radiation environment.
    fn default() -> Self {
        KernelCache::new(RadiationEnvironment::default())
    }
}

impl KernelCache {
    /// An empty cache whose fluence integrals run in `env`.
    pub fn new(env: RadiationEnvironment) -> Self {
        KernelCache {
            kernels: Arc::new(Kernels {
                env,
                fluence: ComputeOnce::new(),
                ss_candidates: ComputeOnce::new(),
                gravity: ComputeOnce::new(),
                demand_grid: ComputeOnce::new(),
            }),
            fluence: Tally::default(),
            ss_candidates: Tally::default(),
            gravity: Tally::default(),
            demand_grid: Tally::default(),
        }
    }

    /// A handle on the same entries with its own zeroed counters.
    pub fn share(&self) -> KernelCache {
        KernelCache {
            kernels: Arc::clone(&self.kernels),
            fluence: Tally::default(),
            ss_candidates: Tally::default(),
            gravity: Tally::default(),
            demand_grid: Tally::default(),
        }
    }

    /// The radiation environment fluence is integrated in.
    pub fn env(&self) -> &RadiationEnvironment {
        &self.kernels.env
    }

    /// This handle's `(kernel, count)` pairs: `fluence` (daily fluence
    /// integrations), `ss_candidates` (SS peak-cell candidates),
    /// `gravity` (gravity fields) and `demand_grid` (unscaled demand
    /// grids).
    pub fn counters(&self) -> [(&'static str, CacheCount); 4] {
        [
            ("fluence", self.fluence.count()),
            ("ss_candidates", self.ss_candidates.count()),
            ("gravity", self.gravity.count()),
            ("demand_grid", self.demand_grid.count()),
        ]
    }

    /// The daily fluence of `elements` from `epoch` at `step_s`
    /// ([`daily_fluence`] in the cache's environment).
    pub(crate) fn daily_fluence(
        &self,
        elements: &OrbitalElements,
        epoch: Epoch,
        step_s: f64,
    ) -> Result<DailyFluence> {
        let key = (element_bits(elements), epoch.seconds_j2000().to_bits(), step_s.to_bits());
        self.fluence.fetch(&self.kernels.fluence, key, || {
            Ok(daily_fluence(&self.kernels.env, elements, epoch, step_s)?)
        })
    }

    /// The SS designer's candidates for `key`, computed by `compute` on
    /// first request.
    pub(crate) fn ss_candidates(
        &self,
        key: CandidateKey,
        compute: impl FnOnce() -> Result<Candidates>,
    ) -> Result<Arc<Candidates>> {
        self.ss_candidates.fetch(&self.kernels.ss_candidates, key, || compute().map(Arc::new))
    }

    /// The gravity field of `model` at `key`'s UTC hour and site budget
    /// ([`GravityField::new`]), built on first request. `key.0` must name
    /// `model`: equal keys are served one field.
    pub fn gravity_field(&self, key: GravityKey, model: &DemandModel) -> Arc<GravityField> {
        let (_, hour_bits, sites) = key;
        self.gravity
            .fetch(&self.kernels.gravity, key, || {
                let field = GravityField::new(model, f64::from_bits(hour_bits), sites);
                Ok::<_, std::convert::Infallible>(Arc::new(field))
            })
            .unwrap_or_else(|never| match never {})
    }

    /// The unscaled demand grid of `model` at `key`'s bin counts
    /// ([`LatTodGrid::from_model`]), built on first request. `key.0` must
    /// name `model`: equal keys are served one grid.
    ///
    /// # Errors
    /// As [`LatTodGrid::from_model`]; the error is not cached, so every
    /// request of a failing key fails again.
    pub fn demand_grid(
        &self,
        key: DemandGridKey,
        model: &DemandModel,
    ) -> ssplane_demand::Result<Arc<LatTodGrid>> {
        let (_, lat_bins, tod_bins) = key;
        self.demand_grid.fetch(&self.kernels.demand_grid, key, || {
            LatTodGrid::from_model(model, lat_bins, tod_bins).map(Arc::new)
        })
    }
}

/// The bit patterns of all six orbital elements: equal keys mean
/// bit-identical inputs, hence bit-identical fluence.
pub(crate) fn element_bits(el: &OrbitalElements) -> [u64; 6] {
    [
        el.semi_major_axis_km.to_bits(),
        el.eccentricity.to_bits(),
        el.inclination.to_bits(),
        el.raan.to_bits(),
        el.arg_perigee.to_bits(),
        el.mean_anomaly.to_bits(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_key_computes_once_and_errors_are_not_stored() {
        let cache: ComputeOnce<u32, u32> = ComputeOnce::new();
        let mut runs = 0;
        for _ in 0..3 {
            let v = cache.get_or_try_compute(7, || {
                runs += 1;
                Ok::<_, ()>(49)
            });
            assert_eq!(v, Ok(49));
        }
        assert_eq!(runs, 1);
        assert_eq!(cache.get_or_try_compute(8, || Err("boom")), Err("boom"));
        assert_eq!(cache.get_or_try_compute(8, || Ok::<_, &str>(64)), Ok(64));
        assert_eq!(cache.get_or_compute(8, || unreachable!("stored")), 64);
    }

    #[test]
    fn concurrent_callers_compute_each_key_once() {
        let cache: ComputeOnce<u32, u64> = ComputeOnce::new();
        let runs = AtomicU64::new(0);
        let keys: Vec<u32> = (0..64).map(|k| k % 4).collect();
        let values = ssplane_astro::par::par_map(keys, 7, |k| {
            cache.get_or_compute(k, || {
                runs.fetch_add(1, Ordering::Relaxed);
                // Long enough for the other workers to pile up on the cell.
                std::thread::sleep(std::time::Duration::from_millis(2));
                u64::from(k) * 10
            })
        });
        assert_eq!(runs.load(Ordering::Relaxed), 4);
        assert!(values.iter().enumerate().all(|(n, &v)| v == (n as u64 % 4) * 10));
    }

    #[test]
    fn shared_handles_count_their_own_requests() {
        let run = KernelCache::default();
        let (a, b) = (run.share(), run.share());
        let el = OrbitalElements::circular(560.0, 1.2, 0.0, 0.0).unwrap();
        let epoch = Epoch::from_calendar(2013, 6, 1, 0, 0, 0.0);
        let fa = a.daily_fluence(&el, epoch, 600.0).unwrap();
        let fb = b.daily_fluence(&el, epoch, 600.0).unwrap();
        assert_eq!(fa, fb);
        assert_eq!(a.counters()[0].1, CacheCount { computed: 1, requested: 1 });
        assert_eq!(b.counters()[0].1, CacheCount { computed: 0, requested: 1 });
        assert_eq!(run.counters()[0].1, CacheCount::default());
    }

    #[test]
    fn demand_grids_are_keyed_on_the_bins_and_errors_are_not_stored() {
        use ssplane_demand::diurnal::DiurnalModel;
        use ssplane_demand::population::{PopulationConfig, PopulationGrid};
        let population = PopulationConfig { lat_bins: 90, lon_bins: 180, n_cities: 200, seed: 7 };
        let model = DemandModel::new(
            PopulationGrid::synthetic(population).unwrap(),
            DiurnalModel::default(),
        );
        let cache = KernelCache::default();
        for bins in [(18, 12), (36, 12), (18, 12), (36, 12)] {
            let grid = cache.demand_grid((7, bins.0, bins.1), &model).unwrap();
            assert_eq!(*grid, LatTodGrid::from_model(&model, bins.0, bins.1).unwrap());
        }
        assert!(cache.demand_grid((7, 0, 12), &model).is_err());
        assert!(cache.demand_grid((7, 0, 12), &model).is_err());
        assert_eq!(cache.counters()[3], ("demand_grid", CacheCount { computed: 4, requested: 6 }));
    }
}
