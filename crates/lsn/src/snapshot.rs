//! The shared time-grid propagation cache.
//!
//! Every stage of the network pipeline needs satellite positions, and
//! before this module each stage recomputed them on demand: topology
//! construction propagated all N satellites per call, ground attachment
//! propagated all N per terminal per flow, and the time-expanded router
//! repeated both per slot. A [`SnapshotSeries`] batch-propagates the
//! whole constellation over an explicit time grid **once** — in
//! parallel across slots when asked — into flat structure-of-arrays
//! buffers, and every consumer ([`crate::topology::Topology::plus_grid`],
//! [`crate::routing`], [`crate::traffic`]) reads positions from a cheap
//! [`Snapshot`] view instead of re-propagating.
//!
//! Positions are produced by the same
//! [`ssplane_astro::propagate::J2Propagator::position_at`] math as the
//! per-call path (via [`ssplane_astro::propagate::batch_positions_soa`]),
//! so snapshot-fed results are bit-identical to the legacy
//! recompute-everywhere results — a property the parity suite in
//! `tests/proptests.rs` pins down.

use crate::error::{LsnError, Result};
use crate::topology::{Constellation, SatId};
use ssplane_astro::linalg::Vec3;
use ssplane_astro::par::par_map;
use ssplane_astro::propagate::batch_positions_soa;
use ssplane_astro::time::Epoch;

/// The epochs of a uniform time grid: `n_slots` slots spaced `slot_s`
/// seconds from `start`.
pub fn time_grid(start: Epoch, n_slots: usize, slot_s: f64) -> Vec<Epoch> {
    (0..n_slots).map(|k| start + k as f64 * slot_s).collect()
}

/// Batch-propagated positions of one constellation over a time grid.
///
/// Storage is slot-major SoA: coordinate `i` of slot `k` lives at index
/// `k * total_sats + i` of the `xs`/`ys`/`zs` buffers, where `i` is the
/// flat plane-major satellite index (the same order
/// [`Constellation::ids`] enumerates).
#[derive(Debug, Clone)]
pub struct SnapshotSeries {
    epochs: Vec<Epoch>,
    xs: Vec<f64>,
    ys: Vec<f64>,
    zs: Vec<f64>,
    plane_offsets: Vec<usize>,
    n_sats: usize,
}

impl SnapshotSeries {
    /// Builds the series sequentially.
    ///
    /// # Errors
    /// Rejects an empty epoch list; propagates propagation failure.
    pub fn build(constellation: &Constellation, epochs: &[Epoch]) -> Result<Self> {
        Self::build_parallel(constellation, epochs, 1)
    }

    /// Builds the series with `threads` workers (`0` = the machine's
    /// available parallelism) via [`par_map`]: one job per slot, each
    /// writing its own disjoint chunk of the buffers in place, so the
    /// result is identical for every thread count.
    ///
    /// # Errors
    /// Rejects an empty epoch list; propagates the lowest-slot
    /// propagation failure.
    pub fn build_parallel(
        constellation: &Constellation,
        epochs: &[Epoch],
        threads: usize,
    ) -> Result<Self> {
        if epochs.is_empty() {
            return Err(LsnError::BadParameter { name: "epochs", constraint: "non-empty" });
        }
        let props = constellation.propagators();
        let n = props.len();
        let mut xs = vec![0.0; n * epochs.len()];
        let mut ys = vec![0.0; n * epochs.len()];
        let mut zs = vec![0.0; n * epochs.len()];

        // One job per slot: its epoch and its disjoint chunk of each
        // buffer (`max(1)`: an empty constellation has no chunks at all).
        let chunk = n.max(1);
        let jobs: Vec<_> = epochs
            .iter()
            .copied()
            .zip(xs.chunks_mut(chunk).zip(ys.chunks_mut(chunk).zip(zs.chunks_mut(chunk))))
            .collect();
        par_map(jobs, threads, |(t, (x, (y, z)))| batch_positions_soa(&props, t, x, y, z))
            .into_iter()
            .collect::<std::result::Result<(), _>>()?;
        Ok(SnapshotSeries {
            epochs: epochs.to_vec(),
            xs,
            ys,
            zs,
            plane_offsets: constellation.plane_offsets(),
            n_sats: n,
        })
    }

    /// Number of time slots.
    pub fn len(&self) -> usize {
        self.epochs.len()
    }

    /// Whether the series has no slots (never true for a built series).
    pub fn is_empty(&self) -> bool {
        self.epochs.is_empty()
    }

    /// The slot epochs.
    pub fn epochs(&self) -> &[Epoch] {
        &self.epochs
    }

    /// Satellites per slot.
    pub fn n_sats(&self) -> usize {
        self.n_sats
    }

    /// The view of slot `k`.
    ///
    /// # Panics
    /// If `k` is out of range.
    pub fn snapshot(&self, k: usize) -> Snapshot<'_> {
        assert!(k < self.epochs.len(), "slot {k} out of range");
        Snapshot { series: self, slot: k, alive: None }
    }

    /// Iterates the slots in time order.
    pub fn iter(&self) -> impl Iterator<Item = Snapshot<'_>> {
        (0..self.epochs.len()).map(move |k| self.snapshot(k))
    }
}

/// One time slot of a [`SnapshotSeries`]: every consumer that used to
/// take `(constellation, t)` now takes one of these.
///
/// A snapshot can carry an **alive mask** ([`Snapshot::with_alive`]):
/// consumers that build the network — topology construction, ground
/// attachment, traffic assignment — then see only the surviving
/// satellites. That from-scratch rebuild of a degraded slot is the
/// reference the tests and benches hold the degraded passes to; the
/// passes themselves read the intact snapshot and topology under the
/// [`disruption`](crate::disruption) attack's or outage timeline's alive
/// slice. Positions of dead satellites remain addressable (the buffers
/// are untouched); only network participation is masked.
#[derive(Debug, Clone, Copy)]
pub struct Snapshot<'a> {
    series: &'a SnapshotSeries,
    slot: usize,
    /// One flag per satellite (flat order); `None` = everything alive.
    alive: Option<&'a [bool]>,
}

impl<'a> Snapshot<'a> {
    /// This view restricted to the satellites flagged `true` in `alive`
    /// (flat plane-major order, one flag per satellite).
    ///
    /// # Panics
    /// If `alive.len()` is not the satellite count.
    pub fn with_alive(self, alive: &'a [bool]) -> Snapshot<'a> {
        assert_eq!(alive.len(), self.series.n_sats, "alive mask length mismatch");
        Snapshot { alive: Some(alive), ..self }
    }
}

impl Snapshot<'_> {
    /// Whether the satellite at flat index `i` is in service (always
    /// `true` for an unmasked snapshot).
    pub fn is_alive_flat(&self, i: usize) -> bool {
        self.alive.is_none_or(|mask| mask[i])
    }

    /// The slot's epoch.
    pub fn epoch(&self) -> Epoch {
        self.series.epochs[self.slot]
    }

    /// Number of planes.
    pub fn n_planes(&self) -> usize {
        self.series.plane_offsets.len() - 1
    }

    /// Slots in plane `p` (0 if out of range).
    pub fn slots_in_plane(&self, p: usize) -> usize {
        match (self.series.plane_offsets.get(p), self.series.plane_offsets.get(p + 1)) {
            (Some(&a), Some(&b)) => b - a,
            _ => 0,
        }
    }

    /// Total satellites.
    pub fn total_sats(&self) -> usize {
        self.series.n_sats
    }

    /// Start index per plane (with a trailing total) in the flat order.
    pub fn plane_offsets(&self) -> &[usize] {
        &self.series.plane_offsets
    }

    /// Flat plane-major index of a satellite id (`None` if out of range).
    pub fn flat_index(&self, id: SatId) -> Option<usize> {
        let start = *self.series.plane_offsets.get(id.plane)?;
        let end = *self.series.plane_offsets.get(id.plane + 1)?;
        let idx = start + id.slot;
        (idx < end).then_some(idx)
    }

    /// All satellite ids, plane-major (flat order).
    pub fn ids(&self) -> impl Iterator<Item = SatId> + '_ {
        (0..self.n_planes()).flat_map(move |p| {
            (0..self.slots_in_plane(p)).map(move |s| SatId { plane: p, slot: s })
        })
    }

    /// ECI position \[km\] of the satellite at flat index `i`.
    ///
    /// # Panics
    /// If `i` is out of range.
    pub fn position_flat(&self, i: usize) -> Vec3 {
        let base = self.slot * self.series.n_sats;
        Vec3::new(self.series.xs[base + i], self.series.ys[base + i], self.series.zs[base + i])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssplane_astro::kepler::OrbitalElements;
    use ssplane_astro::sunsync::sun_synchronous_orbit;

    fn constellation(planes: usize, slots: usize) -> Constellation {
        let epoch = Epoch::J2000;
        let orbit = sun_synchronous_orbit(560.0).unwrap();
        let element_planes: Vec<Vec<OrbitalElements>> = (0..planes)
            .map(|p| orbit.with_ltan(7.0 + p as f64 * 1.1).plane_elements(epoch, slots).unwrap())
            .collect();
        Constellation::new(epoch, element_planes).unwrap()
    }

    #[test]
    fn positions_bit_identical_to_per_call_propagation() {
        let c = constellation(4, 9);
        let epochs = time_grid(Epoch::J2000, 5, 137.0);
        let series = SnapshotSeries::build(&c, &epochs).unwrap();
        assert_eq!(series.len(), 5);
        assert_eq!(series.n_sats(), 36);
        for (k, snap) in series.iter().enumerate() {
            assert_eq!(snap.epoch(), epochs[k]);
            for (flat, id) in c.ids().into_iter().enumerate() {
                let expected = c.position(id, epochs[k]).unwrap();
                let got = snap.position_flat(flat);
                assert_eq!((got.x, got.y, got.z), (expected.x, expected.y, expected.z));
            }
        }
    }

    #[test]
    fn parallel_build_matches_sequential() {
        let c = constellation(3, 11);
        let epochs = time_grid(Epoch::J2000 + 60.0, 9, 73.0);
        let seq = SnapshotSeries::build(&c, &epochs).unwrap();
        for threads in [0, 2, 3, 16] {
            let par = SnapshotSeries::build_parallel(&c, &epochs, threads).unwrap();
            assert_eq!(par.xs, seq.xs, "{threads} threads");
            assert_eq!(par.ys, seq.ys, "{threads} threads");
            assert_eq!(par.zs, seq.zs, "{threads} threads");
        }
    }

    #[test]
    fn snapshot_accessors_and_bounds() {
        let c = constellation(2, 6);
        let series = SnapshotSeries::build(&c, &[Epoch::J2000]).unwrap();
        let snap = series.snapshot(0);
        assert_eq!(snap.n_planes(), 2);
        assert_eq!(snap.slots_in_plane(1), 6);
        assert_eq!(snap.slots_in_plane(5), 0);
        assert_eq!(snap.total_sats(), 12);
        assert_eq!(snap.ids().count(), 12);
        assert_eq!(snap.flat_index(SatId { plane: 1, slot: 2 }), Some(8));
        assert!(snap.flat_index(SatId { plane: 1, slot: 9 }).is_none());
        assert!(snap.flat_index(SatId { plane: 3, slot: 0 }).is_none());
        assert!(!series.is_empty());
    }

    #[test]
    fn alive_mask_view() {
        let c = constellation(2, 5);
        let series = SnapshotSeries::build(&c, &[Epoch::J2000]).unwrap();
        let snap = series.snapshot(0);
        assert!((0..10).all(|i| snap.is_alive_flat(i)));
        let mut mask = vec![true; 10];
        mask[3] = false;
        mask[7] = false;
        let masked = snap.with_alive(&mask);
        let alive: Vec<bool> = (0..10).map(|i| masked.is_alive_flat(i)).collect();
        assert_eq!(alive, mask);
        // Positions stay addressable for dead satellites.
        assert_eq!(masked.position_flat(3).x, snap.position_flat(3).x);
    }

    #[test]
    #[should_panic(expected = "alive mask length mismatch")]
    fn alive_mask_length_checked() {
        let c = constellation(1, 4);
        let series = SnapshotSeries::build(&c, &[Epoch::J2000]).unwrap();
        let _ = series.snapshot(0).with_alive(&[true, false]);
    }

    #[test]
    fn empty_grid_rejected() {
        let c = constellation(1, 4);
        assert!(matches!(
            SnapshotSeries::build(&c, &[]),
            Err(LsnError::BadParameter { name: "epochs", .. })
        ));
    }

    #[test]
    fn time_grid_spacing() {
        let grid = time_grid(Epoch::J2000, 4, 30.0);
        assert_eq!(grid.len(), 4);
        assert_eq!(grid[0], Epoch::J2000);
        assert!((grid[3] - Epoch::J2000 - 90.0).abs() < 1e-12);
    }
}
