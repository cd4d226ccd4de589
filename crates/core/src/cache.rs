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
//! Points that run at the same time often ask for the same keys: points
//! that differ only in what neither design nor fluence reads (say
//! `spares.count`) share every fluence integration. A point's fluence
//! samples are fetched as one batch that computes every key no other point
//! holds before it waits on one that another point is computing, so
//! concurrent points split the shared integrations instead of queueing on
//! them.
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
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, TryLockError};

/// A map of compute-once cells: each key's value is computed by the first
/// caller that claims its cell, and every other caller reads the stored
/// result. Each key is therefore computed exactly once at any thread
/// count. The map lock is held only while cells are fetched, so distinct
/// keys compute concurrently, and a caller never waits on a cell another
/// caller holds while one of its own keys is still free: a fetch claims
/// and fills every free cell first and waits for the held ones last
/// ([`Self::get_or_try_compute_each`]). Errors are returned to the caller
/// and never stored: the next caller for that key computes again.
#[derive(Debug, Default)]
pub struct ComputeOnce<K, V> {
    cells: Mutex<BTreeMap<K, Arc<Mutex<Option<V>>>>>,
}

impl<K: Ord, V: Clone> ComputeOnce<K, V> {
    /// An empty cache (usable in a `static`).
    pub const fn new() -> Self {
        ComputeOnce { cells: Mutex::new(BTreeMap::new()) }
    }

    /// Hands the value of each of `keys` to `put`, with the key's index
    /// in `keys`; a value no earlier fetch stored is computed by
    /// `compute(i)`. Nothing is allocated unless a key is deferred.
    ///
    /// A first pass claims every cell no other caller holds and reads or
    /// computes it; a second pass waits for the cells it deferred and
    /// computes any still empty (the holder's computation failed). So
    /// `put` sees the deferred keys last, and which caller computes a key
    /// depends on timing, but its value and the number of computations do
    /// not.
    ///
    /// # Errors
    /// The lowest-index error `compute` returns. Every key is fetched even
    /// so, and no error is stored.
    pub fn get_or_try_compute_each<E>(
        &self,
        keys: impl IntoIterator<Item = K>,
        mut compute: impl FnMut(usize) -> std::result::Result<V, E>,
        mut put: impl FnMut(usize, V),
    ) -> std::result::Result<(), E> {
        let mut fill = |i: usize, mut slot: MutexGuard<'_, Option<V>>| match slot.as_ref() {
            Some(value) => Ok(value.clone()),
            None => {
                let value = compute(i)?;
                *slot = Some(value.clone());
                Ok(value)
            }
        };
        let mut first_error: Option<(usize, E)> = None;
        let mut settle = |i: usize, value| match value {
            Ok(value) => put(i, value),
            Err(e) if first_error.as_ref().is_none_or(|&(first, _)| i < first) => {
                first_error = Some((i, e));
            }
            Err(_) => {}
        };
        let mut deferred = Vec::new();
        for (i, key) in keys.into_iter().enumerate() {
            // A panicking computation leaves its cell empty and the map
            // consistent, so a poisoned lock is safe to take over.
            let cell = Arc::clone(
                self.cells.lock().unwrap_or_else(PoisonError::into_inner).entry(key).or_default(),
            );
            let claimed = match cell.try_lock() {
                Ok(slot) => Some(fill(i, slot)),
                Err(TryLockError::Poisoned(poisoned)) => Some(fill(i, poisoned.into_inner())),
                Err(TryLockError::WouldBlock) => None,
            };
            match claimed {
                Some(value) => settle(i, value),
                None => deferred.push((i, cell)),
            }
        }
        for (i, cell) in deferred {
            let value = fill(i, cell.lock().unwrap_or_else(PoisonError::into_inner));
            settle(i, value);
        }
        first_error.map_or(Ok(()), |(_, e)| Err(e))
    }

    /// The value for `key`: [`Self::get_or_try_compute_each`] of one key.
    ///
    /// # Errors
    /// Whatever `compute` returns; the error is not cached.
    pub fn get_or_try_compute<E>(
        &self,
        key: K,
        compute: impl FnOnce() -> std::result::Result<V, E>,
    ) -> std::result::Result<V, E> {
        let (mut compute, mut value) = (Some(compute), None);
        self.get_or_try_compute_each(
            [key],
            |_| compute.take().expect("a one-key fetch computes at most once")(),
            |_, fetched| value = Some(fetched),
        )?;
        Ok(value.expect("a fetch that succeeds puts its value"))
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

    /// Fetches every key of `keys` from `store`
    /// ([`ComputeOnce::get_or_try_compute_each`]), counting each request
    /// and each computation that runs.
    fn fetch_each<K: Ord, V: Clone, E>(
        &self,
        store: &ComputeOnce<K, V>,
        keys: impl ExactSizeIterator<Item = K>,
        mut compute: impl FnMut(usize) -> std::result::Result<V, E>,
        put: impl FnMut(usize, V),
    ) -> std::result::Result<(), E> {
        self.requested.fetch_add(keys.len() as u64, Ordering::Relaxed);
        let compute = |i| {
            self.computed.fetch_add(1, Ordering::Relaxed);
            compute(i)
        };
        store.get_or_try_compute_each(keys, compute, put)
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

    /// Hands the daily fluence of each of `n` sample orbits to `put`, with
    /// the sample's index: [`daily_fluence`] in the cache's environment of
    /// `sample(i)` from `epoch` at `step_s`, fetched as one batch
    /// ([`ComputeOnce::get_or_try_compute_each`]).
    ///
    /// # Errors
    /// The lowest-index integration failure. Every sample is requested
    /// even so, so the counters do not depend on which caller computed
    /// what.
    pub(crate) fn daily_fluence(
        &self,
        n: usize,
        sample: impl Fn(usize) -> OrbitalElements,
        epoch: Epoch,
        step_s: f64,
        put: impl FnMut(usize, DailyFluence),
    ) -> Result<()> {
        let (epoch_bits, step_bits) = (epoch.seconds_j2000().to_bits(), step_s.to_bits());
        let keys = (0..n).map(|i| (element_bits(&sample(i)), epoch_bits, step_bits));
        self.fluence.fetch_each(
            &self.kernels.fluence,
            keys,
            |i| Ok(daily_fluence(&self.kernels.env, &sample(i), epoch, step_s)?),
            put,
        )
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
    use ssplane_astro::par::par_map;

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
        let values = par_map(keys, 7, |k| {
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
    fn a_fetch_fills_every_free_cell_before_waiting_on_a_held_one() {
        use std::sync::mpsc::channel;
        use std::time::Duration;
        let cache: ComputeOnce<u32, u32> = ComputeOnce::new();
        let (claimed_tx, claimed_rx) = channel();
        let (release_tx, release_rx) = channel();
        let (claimed_rx, release_rx) = (Mutex::new(claimed_rx), Mutex::new(release_rx));
        // Caller A holds key 0's computation open until caller B releases
        // it from inside key 2's computation. A fetch that waited on key 0
        // before computing 1 and 2 would never get there: A then gives up
        // after the timeout and reports that nobody released it.
        let callers = par_map(vec![true, false], 2, |holder| {
            if holder {
                let mut released = false;
                let value = cache.get_or_compute(0, || {
                    claimed_tx.send(()).expect("caller B waits for the claim");
                    let release = release_rx.lock().expect("one holder");
                    released = release.recv_timeout(Duration::from_secs(5)).is_ok();
                    0
                });
                (vec![Some(value)], Vec::new(), released)
            } else {
                claimed_rx.lock().expect("one batch").recv().expect("caller A claims key 0");
                let (mut computed, mut values) = (Vec::new(), vec![None; 3]);
                cache
                    .get_or_try_compute_each(
                        [0, 1, 2],
                        |i| {
                            computed.push(i);
                            if i == 2 {
                                release_tx.send(()).expect("the holder outlives the batch");
                            }
                            Ok::<_, ()>(10 * u32::try_from(i).expect("three keys"))
                        },
                        |i, value| values[i] = Some(value),
                    )
                    .unwrap();
                (values, computed, false)
            }
        });
        assert_eq!(callers[0], (vec![Some(0)], vec![], true), "caller B released the held key");
        assert_eq!(callers[1], (vec![Some(0), Some(10), Some(20)], vec![1, 2], false));
    }

    #[test]
    fn a_failing_key_returns_the_lowest_index_error_at_every_caller_count() {
        // Keys 2 and 4 fail, and key 1 is asked for twice.
        let keys = [0_u32, 1, 2, 3, 4, 5, 1];
        for callers in [1_u64, 2, 7] {
            let store: ComputeOnce<u32, u32> = ComputeOnce::new();
            let tally = Tally::default();
            let n = usize::try_from(callers).unwrap();
            let start = std::sync::Barrier::new(n);
            let results = par_map(vec![(); n], n, |()| {
                start.wait();
                let mut values = [None; 7];
                tally
                    .fetch_each(
                        &store,
                        keys.into_iter(),
                        |i| match keys[i] {
                            k @ (2 | 4) => Err(k),
                            k => Ok(10 * k),
                        },
                        |i, value| values[i] = Some(value),
                    )
                    .map(|()| values)
            });
            assert!(results.iter().all(|r| *r == Err(2)), "{callers} callers: {results:?}");
            // Each succeeding key computes once in all; each request of a
            // failing key computes, since its error is never stored.
            let count = CacheCount { computed: 4 + 2 * callers, requested: 7 * callers };
            assert_eq!(tally.count(), count, "{callers} callers");
            assert_eq!(store.get_or_try_compute(2, || Ok::<_, u32>(20)), Ok(20));
            assert_eq!(store.get_or_compute(4, || 40), 40);
        }
    }

    #[test]
    fn concurrent_plane_fluence_samples_match_a_fresh_cache() {
        use crate::evaluate::{plane_fluence_samples, plane_fluence_samples_in};
        let env = RadiationEnvironment::default();
        let epoch = Epoch::from_calendar(2013, 6, 1, 0, 0, 0.0);
        let orbit = |raan| OrbitalElements::circular(560.0, 1.7, raan, 0.0).unwrap();
        // The second group repeats the first orbit, as SS planes placed
        // through one peak cell do: 3 distinct orbits × 2 phases.
        let groups = [(orbit(0.0), 50), (orbit(0.0), 50), (orbit(1.0), 30), (orbit(2.0), 7)];
        let bits = |samples: &[(DailyFluence, usize)]| -> Vec<(u64, u64, usize)> {
            samples.iter().map(|(f, w)| (f.electron.to_bits(), f.proton.to_bits(), *w)).collect()
        };
        let fresh = bits(&plane_fluence_samples(&groups, &env, epoch, 2, 600.0).unwrap());
        for callers in [1_u64, 2, 7] {
            let n = usize::try_from(callers).unwrap();
            let cache = KernelCache::new(env);
            let start = std::sync::Barrier::new(n);
            let runs = par_map(vec![(); n], n, |()| {
                let handle = cache.share();
                start.wait();
                let samples = plane_fluence_samples_in(&groups, &handle, epoch, 2, 600.0).unwrap();
                (bits(&samples), handle.counters()[0].1)
            });
            assert!(runs.iter().all(|(samples, _)| *samples == fresh), "{callers} callers");
            let computed: u64 = runs.iter().map(|(_, count)| count.computed).sum();
            assert_eq!(computed, 6, "{callers} callers");
            assert!(runs.iter().all(|(_, count)| count.requested == 8));
        }
    }

    #[test]
    fn shared_handles_count_their_own_requests() {
        let run = KernelCache::default();
        let (a, b) = (run.share(), run.share());
        let el = OrbitalElements::circular(560.0, 1.2, 0.0, 0.0).unwrap();
        let epoch = Epoch::from_calendar(2013, 6, 1, 0, 0, 0.0);
        let (mut fa, mut fb) = (DailyFluence::default(), DailyFluence::default());
        a.daily_fluence(1, |_| el, epoch, 600.0, |_, f| fa = f).unwrap();
        b.daily_fluence(1, |_| el, epoch, 600.0, |_, f| fb = f).unwrap();
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
