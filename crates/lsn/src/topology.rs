//! Inter-satellite-link (ISL) topology construction.
//!
//! Satellites are organized as `planes × slots`; the workhorse topology is
//! the **+grid** used by deployed LSNs: each satellite links fore and aft
//! within its plane and to the nearest slot in the two adjacent planes.
//! Links are checked for physical feasibility (range and Earth occlusion)
//! at construction epochs.

use crate::error::{LsnError, Result};
use crate::snapshot::Snapshot;
use ssplane_astro::constants::EARTH_RADIUS_KM;
use ssplane_astro::kepler::OrbitalElements;
use ssplane_astro::linalg::Vec3;
use ssplane_astro::propagate::J2Propagator;
use ssplane_astro::time::Epoch;
use ssplane_core::SsConstellation;

/// Identifier of a satellite as (plane, slot).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SatId {
    /// Orbital plane index.
    pub plane: usize,
    /// Slot within the plane.
    pub slot: usize,
}

/// The satellite at flat index `flat` under `plane_offsets` (start index
/// per plane plus a trailing total), `None` past the end. A binary search
/// over the offsets: an empty plane shares its offset with the next one,
/// so the last plane starting at or before `flat` is the one holding it.
pub(crate) fn sat_id_at(plane_offsets: &[usize], flat: usize) -> Option<SatId> {
    if flat >= *plane_offsets.last()? {
        return None;
    }
    let plane = plane_offsets.partition_point(|&start| start <= flat) - 1;
    Some(SatId { plane, slot: flat - plane_offsets[plane] })
}

/// A constellation as planes of orbital elements, with propagators.
#[derive(Debug, Clone)]
pub struct Constellation {
    planes: Vec<Vec<J2Propagator>>,
    epoch: Epoch,
}

impl Constellation {
    /// Builds from explicit per-plane elements at `epoch`.
    ///
    /// # Errors
    /// Rejects empty constellations and invalid elements.
    pub fn new(epoch: Epoch, planes: Vec<Vec<OrbitalElements>>) -> Result<Self> {
        if planes.is_empty() || planes.iter().all(|p| p.is_empty()) {
            return Err(LsnError::BadParameter { name: "planes", constraint: "non-empty" });
        }
        let planes = planes
            .into_iter()
            .map(|els| {
                els.into_iter()
                    .map(|el| J2Propagator::new(epoch, el).map_err(LsnError::from))
                    .collect::<Result<Vec<_>>>()
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(Constellation { planes, epoch })
    }

    /// Builds from the per-plane satellite geometry of *any* designed
    /// system (SS, Walker, RGT, …), in the caller's network order. Planes
    /// that carry no satellites are dropped: a design may keep an empty
    /// plane for bookkeeping, but the topology only links real nodes.
    ///
    /// # Errors
    /// Rejects constellations with no satellites at all, and invalid
    /// elements.
    pub fn from_planes(epoch: Epoch, planes: Vec<Vec<OrbitalElements>>) -> Result<Self> {
        let planes: Vec<Vec<OrbitalElements>> =
            planes.into_iter().filter(|p| !p.is_empty()).collect();
        Constellation::new(epoch, planes)
    }

    /// Builds from a designed SS constellation, ordering planes by LTAN.
    ///
    /// # Errors
    /// Propagates element generation failure.
    pub fn from_ss(epoch: Epoch, constellation: &SsConstellation) -> Result<Self> {
        let mut planes = constellation.planes.clone();
        planes.sort_by(|a, b| a.orbit.ltan_h.partial_cmp(&b.orbit.ltan_h).expect("finite LTAN"));
        let element_planes = planes
            .iter()
            .map(|p| p.satellites(epoch).map_err(LsnError::from))
            .collect::<Result<Vec<_>>>()?;
        Constellation::from_planes(epoch, element_planes)
    }

    /// Construction epoch.
    pub fn epoch(&self) -> Epoch {
        self.epoch
    }

    /// Number of planes.
    pub fn n_planes(&self) -> usize {
        self.planes.len()
    }

    /// Slots in plane `p` (0 if out of range).
    pub fn slots_in_plane(&self, p: usize) -> usize {
        self.planes.get(p).map_or(0, Vec::len)
    }

    /// Total satellites.
    pub fn total_sats(&self) -> usize {
        self.planes.iter().map(Vec::len).sum()
    }

    /// All satellite ids, plane-major.
    pub fn ids(&self) -> Vec<SatId> {
        (0..self.planes.len())
            .flat_map(|p| (0..self.planes[p].len()).map(move |s| SatId { plane: p, slot: s }))
            .collect()
    }

    /// Start index per plane in the flat plane-major satellite order,
    /// with a trailing total — the layout snapshots and topologies share.
    pub fn plane_offsets(&self) -> Vec<usize> {
        let mut offsets = Vec::with_capacity(self.planes.len() + 1);
        let mut total = 0usize;
        for p in &self.planes {
            offsets.push(total);
            total += p.len();
        }
        offsets.push(total);
        offsets
    }

    /// The propagators in flat plane-major order (the snapshot layout).
    pub fn propagators(&self) -> Vec<J2Propagator> {
        self.planes.iter().flatten().copied().collect()
    }

    /// ECI position \[km\] of a satellite at epoch `t`.
    ///
    /// # Errors
    /// [`LsnError::UnknownNode`] for out-of-range ids.
    pub fn position(&self, id: SatId, t: Epoch) -> Result<Vec3> {
        let prop = self
            .planes
            .get(id.plane)
            .and_then(|p| p.get(id.slot))
            .ok_or(LsnError::UnknownNode { plane: id.plane, slot: id.slot })?;
        Ok(prop.position_at(t)?)
    }
}

/// Whether the straight line between two ECI positions clears the Earth
/// plus an atmosphere margin of `margin_km` (ISL feasibility).
pub fn line_of_sight(a: Vec3, b: Vec3, margin_km: f64) -> bool {
    let r_min = EARTH_RADIUS_KM + margin_km;
    let ab = b - a;
    let len2 = ab.norm_squared();
    if len2 == 0.0 {
        return a.norm() >= r_min;
    }
    // Closest approach of the segment to the geocenter.
    let t = (-a.dot(ab) / len2).clamp(0.0, 1.0);
    (a + ab * t).norm() >= r_min
}

/// One inter-satellite link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Link {
    /// Endpoint A.
    pub a: SatId,
    /// Endpoint B.
    pub b: SatId,
    /// Link length \[km\] at the topology's evaluation epoch.
    pub length_km: f64,
}

/// An ISL topology over a constellation, stored as its CSR adjacency
/// only: each link is the pair of arcs `a → b` and `b → a`.
#[derive(Debug, Clone)]
pub struct Topology {
    /// CSR adjacency: node `i`'s neighbors live at
    /// `adj_entries[adj_offsets[i]..adj_offsets[i + 1]]`. One flat
    /// allocation instead of a `Vec` per node — Dijkstra's inner loop
    /// walks contiguous memory.
    adj_offsets: Vec<usize>,
    adj_entries: Vec<(usize, f64)>,
    /// Flattened index bounds: start index per plane.
    plane_offsets: Vec<usize>,
}

/// Builds the topology's CSR adjacency from an undirected link list.
/// Entries keep the per-node insertion order a `Vec<Vec<_>>` build would
/// produce (links scanned in emission order, both directions appended),
/// so graph traversal order — and every downstream tie-break — follows
/// the emission order.
fn build_adjacency(links: &[Link], plane_offsets: Vec<usize>) -> Topology {
    let total = *plane_offsets.last().unwrap_or(&0);
    let flat = |id: SatId| plane_offsets[id.plane] + id.slot;
    let mut degrees = vec![0usize; total];
    for l in links {
        degrees[flat(l.a)] += 1;
        degrees[flat(l.b)] += 1;
    }
    let mut adj_offsets = Vec::with_capacity(total + 1);
    let mut acc = 0usize;
    adj_offsets.push(0);
    for &d in &degrees {
        acc += d;
        adj_offsets.push(acc);
    }
    let mut cursor = adj_offsets[..total].to_vec();
    let mut adj_entries = vec![(0usize, 0.0f64); acc];
    for l in links {
        let (ia, ib) = (flat(l.a), flat(l.b));
        adj_entries[cursor[ia]] = (ib, l.length_km);
        cursor[ia] += 1;
        adj_entries[cursor[ib]] = (ia, l.length_km);
        cursor[ib] += 1;
    }
    Topology { adj_offsets, adj_entries, plane_offsets }
}

/// Atmosphere clearance margin \[km\] an ISL's line of sight must keep
/// above the Earth.
const OCCLUSION_MARGIN_KM: f64 = 80.0;

/// Configuration for +grid topology construction. The highest-index
/// plane links to no plane after it, leaving a *seam*, as deployed
/// systems do between counter-rotating or LTAN-wrapped planes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GridTopologyConfig {
    /// Maximum ISL range \[km\] (laser terminal budget).
    pub max_range_km: f64,
}

impl Default for GridTopologyConfig {
    fn default() -> Self {
        GridTopologyConfig { max_range_km: 5000.0 }
    }
}

/// The slot of the plane at flat indices `offset..offset + slots` nearest
/// to `x` (plane-relative), `None` for an empty plane. An exact scan:
/// strict `<` in ascending slot order, so the lowest index wins ties.
fn nearest_slot_scan(
    x: Vec3,
    positions: &impl Fn(usize) -> Vec3,
    offset: usize,
    slots: usize,
) -> Option<usize> {
    let mut best: Option<(usize, f64)> = None;
    for sq in 0..slots {
        let d = (x - positions(offset + sq)).norm();
        if best.is_none_or(|(_, bd)| d < bd) {
            best = Some((sq, d));
        }
    }
    best.map(|(sq, _)| sq)
}

impl Topology {
    /// Builds a +grid topology over one [`Snapshot`]: intra-plane ring
    /// plus links to the nearest slot of each adjacent plane, keeping
    /// only links that are in range and unoccluded at the snapshot's
    /// epoch. Positions come from the snapshot's shared buffers — nothing
    /// is propagated here.
    ///
    /// Links are emitted in canonical `(min, max)` flat order, each
    /// exactly once: the ring walks `s -> s+1` and closes with `(0,
    /// slots-1)`, so no post-hoc deduplication pass (and no special case
    /// for 2-slot planes) is needed. Each cross-plane partner is the
    /// next plane's nearest slot, found by the same exact scan as
    /// [`Topology::plus_grid_at`].
    ///
    /// If the snapshot carries an alive mask
    /// ([`Snapshot::with_alive`](crate::snapshot::Snapshot::with_alive)),
    /// links touching a dead satellite are dropped: +grid laser terminals
    /// point at fixed fore/aft/cross-plane partners, so a destroyed
    /// neighbor takes its links down with it rather than being re-pointed
    /// around — the standard node-failure model on a fixed grid. Dead
    /// satellites remain zero-degree nodes (indexing is unchanged); use
    /// [`Topology::components`] under the same mask for connectivity over
    /// the survivors.
    ///
    /// # Errors
    /// Currently infallible (positions are precomputed); kept fallible
    /// for signature stability with construction-time feasibility checks.
    pub fn plus_grid(snapshot: &Snapshot<'_>, config: GridTopologyConfig) -> Result<Topology> {
        let n_planes = snapshot.n_planes();
        let plane_offsets = snapshot.plane_offsets().to_vec();
        let total = snapshot.total_sats();
        let position = |i: usize| snapshot.position_flat(i);

        let flat = |id: SatId| plane_offsets[id.plane] + id.slot;
        // Each satellite contributes at most one ring link and one
        // cross-plane link.
        let mut links: Vec<Link> = Vec::with_capacity(2 * total);
        let push_link = |a: SatId, b: SatId, links: &mut Vec<Link>| {
            debug_assert!(flat(a) < flat(b), "links are emitted in canonical order");
            if !snapshot.is_alive_flat(flat(a)) || !snapshot.is_alive_flat(flat(b)) {
                return;
            }
            let (pa, pb) = (position(flat(a)), position(flat(b)));
            let length = (pa - pb).norm();
            if length <= config.max_range_km && line_of_sight(pa, pb, OCCLUSION_MARGIN_KM) {
                links.push(Link { a, b, length_km: length });
            }
        };

        for p in 0..n_planes {
            let slots = snapshot.slots_in_plane(p);
            // Intra-plane ring, canonical order, each link once.
            if slots > 1 {
                for s in 0..slots - 1 {
                    push_link(
                        SatId { plane: p, slot: s },
                        SatId { plane: p, slot: s + 1 },
                        &mut links,
                    );
                }
                if slots > 2 {
                    push_link(
                        SatId { plane: p, slot: 0 },
                        SatId { plane: p, slot: slots - 1 },
                        &mut links,
                    );
                }
            }
            // Cross-plane to the next plane's nearest slot.
            if p + 1 < n_planes {
                let q = p + 1;
                let q_slots = snapshot.slots_in_plane(q);
                for s in 0..slots {
                    let from = SatId { plane: p, slot: s };
                    let x = position(flat(from));
                    if let Some(sq) = nearest_slot_scan(x, &position, plane_offsets[q], q_slots) {
                        push_link(from, SatId { plane: q, slot: sq }, &mut links);
                    }
                }
            }
        }

        // Emission above is duplicate-free by construction, so no dedup
        // pass.
        Ok(build_adjacency(&links, plane_offsets))
    }

    /// The legacy single-shot construction: propagates every position on
    /// demand from `constellation` at epoch `t` and runs the original
    /// per-pair nearest-slot scan with a post-hoc dedup pass. Kept as the
    /// reference implementation the snapshot-based [`Topology::plus_grid`]
    /// is parity-tested and benchmarked against; prefer building a
    /// [`SnapshotSeries`](crate::snapshot::SnapshotSeries) and using
    /// [`Topology::plus_grid`].
    ///
    /// # Errors
    /// Propagates position evaluation failure.
    pub fn plus_grid_at(
        constellation: &Constellation,
        t: Epoch,
        config: GridTopologyConfig,
    ) -> Result<Topology> {
        let n_planes = constellation.n_planes();
        let plane_offsets = constellation.plane_offsets();
        let total = *plane_offsets.last().expect("offsets non-empty");

        // Cache positions.
        let mut positions = Vec::with_capacity(total);
        for p in 0..n_planes {
            for s in 0..constellation.slots_in_plane(p) {
                positions.push(constellation.position(SatId { plane: p, slot: s }, t)?);
            }
        }

        let flat = |id: SatId| plane_offsets[id.plane] + id.slot;
        let mut links: Vec<Link> = Vec::new();
        let push_link = |a: SatId, b: SatId, links: &mut Vec<Link>| {
            let (pa, pb) = (positions[flat(a)], positions[flat(b)]);
            let length = (pa - pb).norm();
            if length <= config.max_range_km && line_of_sight(pa, pb, OCCLUSION_MARGIN_KM) {
                links.push(Link { a, b, length_km: length });
            }
        };

        for p in 0..n_planes {
            let slots = constellation.slots_in_plane(p);
            // Intra-plane ring.
            if slots > 1 {
                for s in 0..slots {
                    let next = (s + 1) % slots;
                    if slots == 2 && next < s {
                        continue; // avoid double link on 2-slot planes
                    }
                    push_link(
                        SatId { plane: p, slot: s },
                        SatId { plane: p, slot: next },
                        &mut links,
                    );
                }
            }
            // Cross-plane to the next plane's nearest slot.
            if p + 1 < n_planes {
                let q = p + 1;
                let q_slots = constellation.slots_in_plane(q);
                for s in 0..slots {
                    let from = SatId { plane: p, slot: s };
                    let x = positions[flat(from)];
                    if let Some(sq) =
                        nearest_slot_scan(x, &|i| positions[i], plane_offsets[q], q_slots)
                    {
                        push_link(from, SatId { plane: q, slot: sq }, &mut links);
                    }
                }
            }
        }

        // Build adjacency (deduplicated, undirected). An ordered set —
        // never a hash set — so the membership structure itself can
        // never leak iteration-order nondeterminism into link order
        // (`clippy.toml` bans hash collections outright).
        let mut seen = std::collections::BTreeSet::new();
        links.retain(|l| {
            let key =
                if flat(l.a) < flat(l.b) { (flat(l.a), flat(l.b)) } else { (flat(l.b), flat(l.a)) };
            seen.insert(key)
        });
        Ok(build_adjacency(&links, plane_offsets))
    }

    /// Builds a topology directly from an explicit link list and plane
    /// layout — the analytic-graph entry point the percolation and
    /// spectral tests pin closed-form results with (path, cycle, and
    /// complete graphs have known Laplacian spectra that no orbital
    /// geometry reproduces exactly), and the routing properties build
    /// equal-weight lattices with (ties no orbital geometry produces).
    /// Each node's neighbors follow the given link order; endpoints must
    /// be valid under `plane_offsets`.
    ///
    /// # Panics
    /// If a link endpoint is outside the plane layout.
    pub fn from_links(links: Vec<Link>, plane_offsets: Vec<usize>) -> Topology {
        for id in links.iter().flat_map(|l| [l.a, l.b]) {
            let idx = plane_offsets[id.plane] + id.slot;
            assert!(idx < plane_offsets[id.plane + 1], "link endpoint outside its plane");
        }
        build_adjacency(&links, plane_offsets)
    }

    /// The subgraph of this topology over the satellites flagged alive:
    /// each alive node keeps its alive neighbors in their intact order, a
    /// dead node keeps none. Because a masked [`Topology::plus_grid`]
    /// selects its partners from *positions* (nearest-slot queries never
    /// consult the mask) and only filters at link emission, this is
    /// **exactly** the topology `plus_grid` builds over the same snapshot
    /// with the same alive mask — arc for arc, length for length. It is
    /// the reference the tests and benches hold the alive-filtered passes
    /// to: every production pass (components, Dijkstra, the guided
    /// search, the k-path rounds, the tree repair, percolation and λ₂)
    /// reads the intact topology and skips dead neighbors instead.
    ///
    /// # Panics
    /// If `alive.len()` is not the node count.
    pub fn masked(&self, alive: &[bool]) -> Topology {
        assert_eq!(alive.len(), self.n_nodes(), "alive mask length mismatch");
        let mut adj_offsets = Vec::with_capacity(self.n_nodes() + 1);
        let mut adj_entries = Vec::new();
        adj_offsets.push(0);
        for u in 0..self.n_nodes() {
            if alive[u] {
                adj_entries.extend(self.neighbors(u).iter().filter(|&&(v, _)| alive[v]));
            }
            adj_offsets.push(adj_entries.len());
        }
        Topology { adj_offsets, adj_entries, plane_offsets: self.plane_offsets.clone() }
    }

    /// Number of nodes.
    pub fn n_nodes(&self) -> usize {
        *self.plane_offsets.last().unwrap_or(&0)
    }

    /// Flattened index of a satellite id (`None` if out of range).
    pub fn index_of(&self, id: SatId) -> Option<usize> {
        let start = *self.plane_offsets.get(id.plane)?;
        let end = *self.plane_offsets.get(id.plane + 1)?;
        let idx = start + id.slot;
        (idx < end).then_some(idx)
    }

    /// Satellite id of a flattened index.
    pub fn id_of(&self, index: usize) -> Option<SatId> {
        sat_id_at(&self.plane_offsets, index)
    }

    /// Neighbors (flattened index, link length km) of a node.
    pub fn neighbors(&self, index: usize) -> &[(usize, f64)] {
        &self.adj_entries[self.adj_offsets[index]..self.adj_offsets[index + 1]]
    }

    /// The arc id of `neighbors(index)[0]`: the `j`-th neighbor entry of
    /// `index` is directed arc `arc_offset(index) + j`, so per-arc data
    /// can live in one dense array of [`Self::n_arcs`] entries.
    pub(crate) fn arc_offset(&self, index: usize) -> usize {
        self.adj_offsets[index]
    }

    /// Directed arcs: twice the link count.
    pub(crate) fn n_arcs(&self) -> usize {
        self.adj_entries.len()
    }

    /// Neighbors of a node restricted to an alive mask — the lazy
    /// equivalent of `self.masked(alive).neighbors(index)`. The masked
    /// neighbor list is exactly the alive subsequence of the intact one,
    /// so filtering on the fly visits the same `(neighbor, length)` pairs
    /// in the same order without materializing the masked topology. This
    /// is what makes every alive-filtered pass over the intact topology
    /// bit-identical to the same pass over [`Topology::masked`]. A dead
    /// `index` has no surviving links at all (masking drops a link when
    /// *either* endpoint is dead), so its list is empty. The passes
    /// filter inline; the tests pin the invariant through this.
    #[cfg(test)]
    pub fn neighbors_alive<'m>(
        &'m self,
        index: usize,
        alive: &'m [bool],
    ) -> impl Iterator<Item = (usize, f64)> + 'm {
        self.neighbors(index).iter().copied().filter(move |&(v, _)| alive[index] && alive[v])
    }

    /// Start index per plane (with a trailing total) in the flat node
    /// order — the layout [`crate::snapshot::Snapshot`]s share. The
    /// percolation cluster machinery walks planes through this.
    pub fn plane_offsets(&self) -> &[usize] {
        &self.plane_offsets
    }

    /// Number of planes.
    pub fn n_planes(&self) -> usize {
        self.plane_offsets.len().saturating_sub(1)
    }

    /// Every undirected link as a flat node-index pair `(a, b)` with
    /// `a < b`, read off the adjacency in node order (by `a`, then by
    /// `b`'s place in `a`'s neighbor list) — the edge stream the
    /// percolation cluster tracker unions over.
    pub fn edges(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        (0..self.n_nodes()).flat_map(move |a| {
            self.neighbors(a).iter().filter(move |&&(b, _)| a < b).map(move |&(b, _)| (a, b))
        })
    }

    /// Mean node degree.
    pub fn mean_degree(&self) -> f64 {
        if self.n_nodes() == 0 {
            0.0
        } else {
            self.n_arcs() as f64 / self.n_nodes() as f64
        }
    }

    /// Whether the topology is connected (an empty one is).
    pub fn is_connected(&self) -> bool {
        self.components(None).sizes.len() <= 1
    }

    /// The connected components over the nodes `alive` keeps (all of them
    /// for `None`) — the crate's one component traversal. Two alive nodes
    /// share a label iff the masked topology connects them, the exact
    /// reachability verdict of a masked Dijkstra. Components are numbered
    /// by their lowest node index.
    ///
    /// # Panics
    /// If `alive` is given and its length is not the node count.
    pub fn components(&self, alive: Option<&[bool]>) -> Components {
        let n = self.n_nodes();
        assert!(alive.is_none_or(|m| m.len() == n), "alive mask length mismatch");
        let is_alive = |v: usize| alive.is_none_or(|m| m[v]);
        let mut labels = vec![u32::MAX; n];
        let mut sizes = Vec::new();
        let mut stack: Vec<usize> = Vec::new();
        for v in 0..n {
            if !is_alive(v) || labels[v] != u32::MAX {
                continue;
            }
            let label = crate::cast::index_u32(sizes.len());
            labels[v] = label;
            stack.push(v);
            let mut size = 1;
            while let Some(u) = stack.pop() {
                for &(w, _) in self.neighbors(u) {
                    if is_alive(w) && labels[w] == u32::MAX {
                        labels[w] = label;
                        size += 1;
                        stack.push(w);
                    }
                }
            }
            sizes.push(size);
        }
        Components { labels, sizes }
    }
}

/// One [`Topology::components`] pass: every question about the survivors'
/// connectivity (connected, giant-component size, whether two satellites
/// can reach each other) reads from it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Components {
    /// Per node: its component's label, `u32::MAX` for a dead node.
    pub labels: Vec<u32>,
    /// Per component label: its node count.
    pub sizes: Vec<usize>,
}

impl Components {
    /// Whether the alive nodes form exactly one component (false with no
    /// survivors).
    pub fn is_connected(&self) -> bool {
        self.sizes.len() == 1
    }

    /// The largest component's size, 0 with no survivors.
    pub fn largest(&self) -> usize {
        self.sizes.iter().copied().max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::SnapshotSeries;
    use ssplane_astro::sunsync::sun_synchronous_orbit;

    /// Snapshot-based +grid at one epoch (the test-suite shorthand).
    fn grid_at(c: &Constellation, t: Epoch, config: GridTopologyConfig) -> Topology {
        let series = SnapshotSeries::build(c, &[t]).unwrap();
        Topology::plus_grid(&series.snapshot(0), config).unwrap()
    }

    fn test_constellation(planes: usize, slots: usize) -> Constellation {
        let epoch = Epoch::J2000;
        let orbit = sun_synchronous_orbit(560.0).unwrap();
        let element_planes: Vec<Vec<OrbitalElements>> = (0..planes)
            .map(|p| orbit.with_ltan(8.0 + p as f64 * 0.8).plane_elements(epoch, slots).unwrap())
            .collect();
        Constellation::new(epoch, element_planes).unwrap()
    }

    #[test]
    fn line_of_sight_geometry() {
        let r = EARTH_RADIUS_KM + 560.0;
        let a = Vec3::new(r, 0.0, 0.0);
        // Neighbor 30° along the orbit: clear.
        let b = Vec3::new(r * 0.866, r * 0.5, 0.0);
        assert!(line_of_sight(a, b, 80.0));
        // Antipodal satellite: blocked by the Earth.
        let c = Vec3::new(-r, 0.0, 0.0);
        assert!(!line_of_sight(a, c, 80.0));
        // Degenerate zero-length segment above surface.
        assert!(line_of_sight(a, a, 80.0));
    }

    /// The one cross-plane partner rule both +grid builders share, on
    /// hand-placed positions: an exact tie goes to the lower slot, the
    /// answer is relative to the queried plane (whose flat offset is
    /// nonzero, and whose neighbors sit nearer the query), and a
    /// one-slot plane answers its only slot.
    #[test]
    fn nearest_slot_scan_rule() {
        let positions = [
            // Plane 0 (flat 0..2): on the query point itself.
            Vec3::new(0.0, 0.0, 0.0),
            Vec3::new(0.0, 0.0, 0.5),
            // Plane 1 (flat 2..6): slots 1 and 3 are both exactly 1 away.
            Vec3::new(0.0, 5.0, 0.0),
            Vec3::new(1.0, 0.0, 0.0),
            Vec3::new(0.0, -5.0, 0.0),
            Vec3::new(-1.0, 0.0, 0.0),
            // Plane 2 (flat 6..7): one far slot.
            Vec3::new(900.0, 0.0, 0.0),
        ];
        let at = |i: usize| positions[i];
        let x = Vec3::new(0.0, 0.0, 0.0);
        assert_eq!(nearest_slot_scan(x, &at, 2, 4), Some(1));
        assert_eq!(nearest_slot_scan(Vec3::new(-0.5, 0.0, 0.0), &at, 2, 4), Some(3));
        assert_eq!(nearest_slot_scan(x, &at, 6, 1), Some(0));
        assert_eq!(nearest_slot_scan(x, &at, 6, 0), None);
    }

    #[test]
    fn constellation_accessors() {
        let c = test_constellation(4, 10);
        assert_eq!(c.n_planes(), 4);
        assert_eq!(c.slots_in_plane(0), 10);
        assert_eq!(c.slots_in_plane(9), 0);
        assert_eq!(c.total_sats(), 40);
        assert_eq!(c.ids().len(), 40);
        assert!(c.position(SatId { plane: 7, slot: 0 }, Epoch::J2000).is_err());
        let r = c.position(SatId { plane: 0, slot: 0 }, Epoch::J2000).unwrap();
        assert!((r.norm() - (EARTH_RADIUS_KM + 560.0)).abs() < 30.0);
    }

    #[test]
    fn empty_constellation_rejected() {
        assert!(Constellation::new(Epoch::J2000, vec![]).is_err());
        assert!(Constellation::new(Epoch::J2000, vec![vec![], vec![]]).is_err());
    }

    /// The legacy builder's dedup pass must be order-stable: the
    /// adjacency is a function of the geometry alone, with no duplicate
    /// undirected pairs and no run-to-run variation (the dedup
    /// membership set is ordered precisely so it cannot reorder links).
    #[test]
    fn plus_grid_at_dedup_is_deterministic() {
        let c = test_constellation(5, 8);
        let config = GridTopologyConfig::default();
        let first = Topology::plus_grid_at(&c, Epoch::J2000, config).unwrap();
        let mut pairs = std::collections::BTreeSet::new();
        for edge in first.edges() {
            assert!(pairs.insert(edge), "duplicate undirected link {edge:?} survived dedup");
        }
        for _ in 0..3 {
            let again = Topology::plus_grid_at(&c, Epoch::J2000, config).unwrap();
            for node in 0..first.n_nodes() {
                assert_eq!(first.neighbors(node), again.neighbors(node), "node {node} varied");
            }
        }
    }

    #[test]
    fn edges_list_each_link_once_from_the_adjacency() {
        let c = test_constellation(4, 9);
        let topo = Topology::plus_grid_at(&c, Epoch::J2000, Default::default()).unwrap();
        let edges: Vec<(usize, usize)> = topo.edges().collect();
        assert!(edges.iter().all(|&(a, b)| a < b), "an edge out of (min, max) order");
        let distinct: std::collections::BTreeSet<_> = edges.iter().copied().collect();
        assert_eq!(distinct.len(), edges.len(), "an edge listed twice");
        // Each link is two arcs, one in each endpoint's neighbor list.
        for &(a, b) in &edges {
            assert!(topo.neighbors(a).iter().any(|&(v, _)| v == b));
            assert!(topo.neighbors(b).iter().any(|&(v, _)| v == a));
        }
        assert_eq!(2 * edges.len(), topo.n_arcs());
        let degree = 2.0 * edges.len() as f64 / topo.n_nodes() as f64;
        assert_eq!(topo.mean_degree().to_bits(), degree.to_bits());
    }

    #[test]
    fn from_planes_drops_empty_planes_and_takes_any_geometry() {
        let epoch = Epoch::J2000;
        let orbit = sun_synchronous_orbit(560.0).unwrap();
        let real = orbit.with_ltan(8.0).plane_elements(epoch, 6).unwrap();
        let c = Constellation::from_planes(epoch, vec![vec![], real, vec![]]).unwrap();
        assert_eq!(c.n_planes(), 1);
        assert_eq!(c.total_sats(), 6);
        assert!(Constellation::from_planes(epoch, vec![vec![], vec![]]).is_err());

        // Non-sun-synchronous (Walker-delta) geometry builds and routes
        // through the same +grid machinery (12 sats/plane keeps the
        // intra-plane spacing under the default ISL range).
        let pattern = ssplane_astro::walker::WalkerDelta::new(550.0, 53f64.to_radians(), 96, 8, 1)
            .unwrap()
            .generate()
            .unwrap();
        let planes: Vec<Vec<OrbitalElements>> = pattern.chunks(12).map(<[_]>::to_vec).collect();
        let walker = Constellation::from_planes(epoch, planes).unwrap();
        assert_eq!(walker.n_planes(), 8);
        let topo = grid_at(&walker, epoch, Default::default());
        assert!(topo.is_connected(), "Walker +grid must be connected");
    }

    #[test]
    fn plus_grid_structure() {
        let c = test_constellation(4, 12);
        let topo = grid_at(&c, Epoch::J2000, Default::default());
        assert_eq!(topo.n_nodes(), 48);
        // Ring links: 12 per plane × 4 planes; cross-plane ≈ 12 × 3.
        let links = topo.edges().count();
        assert!(links >= 48 + 24, "links = {links}");
        assert!(topo.mean_degree() >= 3.0, "degree = {}", topo.mean_degree());
        assert!(topo.is_connected());
        // index/id round trip.
        for id in c.ids() {
            let idx = topo.index_of(id).unwrap();
            assert_eq!(topo.id_of(idx), Some(id));
        }
        assert!(topo.index_of(SatId { plane: 0, slot: 99 }).is_none());
        assert!(topo.id_of(999).is_none());
    }

    #[test]
    fn sat_id_at_skips_empty_planes() {
        // Planes 1 and 3 are empty: their offsets repeat.
        let offsets = [0, 3, 3, 5, 5, 6];
        let ids: Vec<SatId> = (0..6).map(|f| sat_id_at(&offsets, f).unwrap()).collect();
        let want = [(0, 0), (0, 1), (0, 2), (2, 0), (2, 1), (4, 0)];
        for (id, &(plane, slot)) in ids.iter().zip(&want) {
            assert_eq!(*id, SatId { plane, slot });
        }
        assert_eq!(sat_id_at(&offsets, 6), None);
        assert_eq!(sat_id_at(&[0], 0), None);
        assert_eq!(sat_id_at(&[], 0), None);
    }

    #[test]
    fn range_limit_prunes_links() {
        let c = test_constellation(3, 8);
        let tight = grid_at(&c, Epoch::J2000, GridTopologyConfig { max_range_km: 100.0 });
        assert_eq!(tight.edges().count(), 0, "no link is under 100 km");
        let loose = grid_at(&c, Epoch::J2000, Default::default());
        assert!(loose.edges().count() > 0);
    }

    #[test]
    fn all_links_within_range_and_los() {
        let c = test_constellation(5, 15);
        let cfg = GridTopologyConfig::default();
        let topo = grid_at(&c, Epoch::J2000, cfg);
        let position = |v: usize| c.position(topo.id_of(v).unwrap(), Epoch::J2000).unwrap();
        for a in 0..topo.n_nodes() {
            for &(b, length_km) in topo.neighbors(a) {
                assert!(length_km <= cfg.max_range_km);
                assert!(line_of_sight(position(a), position(b), OCCLUSION_MARGIN_KM));
            }
        }
    }

    #[test]
    fn alive_mask_drops_incident_links_only() {
        let c = test_constellation(4, 12);
        let series = SnapshotSeries::build(&c, &[Epoch::J2000]).unwrap();
        let snap = series.snapshot(0);
        let intact = Topology::plus_grid(&snap, Default::default()).unwrap();

        // An all-alive mask is byte-identical to no mask.
        let all = vec![true; 48];
        let same = Topology::plus_grid(&snap.with_alive(&all), Default::default()).unwrap();
        for node in 0..48 {
            assert_eq!(same.neighbors(node), intact.neighbors(node), "node {node}");
        }

        // Kill one satellite: exactly its incident links disappear, no
        // others move.
        let victim = intact.index_of(SatId { plane: 1, slot: 5 }).unwrap();
        let mut mask = all.clone();
        mask[victim] = false;
        let degraded = Topology::plus_grid(&snap.with_alive(&mask), Default::default()).unwrap();
        let expected: Vec<(usize, usize)> =
            intact.edges().filter(|&(a, b)| a != victim && b != victim).collect();
        assert_eq!(degraded.edges().collect::<Vec<_>>(), expected);
        assert!(degraded.neighbors(victim).is_empty());

        // The survivors stay connected; the full node set (dead node
        // included) does not.
        assert!(degraded.components(Some(&mask)).is_connected());
        assert!(!degraded.is_connected());
    }

    #[test]
    fn connectivity_among_survivors() {
        let c = test_constellation(3, 10);
        let series = SnapshotSeries::build(&c, &[Epoch::J2000]).unwrap();
        let snap = series.snapshot(0);
        // Kill the whole middle plane: planes 0 and 2 are only bridged
        // through plane 1, so the survivors split.
        let mut mask = vec![true; 30];
        mask[10..20].fill(false);
        let degraded = Topology::plus_grid(&snap.with_alive(&mask), Default::default()).unwrap();
        assert!(!degraded.components(Some(&mask)).is_connected(), "severed planes must disconnect");
        // Nobody alive: not connected by definition.
        assert!(!degraded.components(Some(&[false; 30])).is_connected());
        // A single survivor is trivially connected.
        let mut lone = vec![false; 30];
        lone[0] = true;
        assert!(degraded.components(Some(&lone)).is_connected());
    }

    #[test]
    fn masked_subgraph_matches_masked_plus_grid() {
        // The incremental fast path's contract: filtering the intact
        // topology by a mask is link-for-link identical to rebuilding
        // plus_grid over the masked snapshot — including adjacency order
        // (and therefore every downstream tie-break).
        let c = test_constellation(5, 12);
        let series = SnapshotSeries::build(&c, &[Epoch::J2000 + 400.0]).unwrap();
        let snap = series.snapshot(0);
        let intact = Topology::plus_grid(&snap, Default::default()).unwrap();
        // Kill a mixed set: a whole plane, scattered slots, a ring pair.
        let mut mask = vec![true; 60];
        mask[12..24].fill(false);
        for flat in [3usize, 30, 31, 47, 59] {
            mask[flat] = false;
        }
        let filtered = intact.masked(&mask);
        let rebuilt = Topology::plus_grid(&snap.with_alive(&mask), Default::default()).unwrap();
        for node in 0..60 {
            assert_eq!(filtered.neighbors(node), rebuilt.neighbors(node), "node {node}");
        }
        assert!(filtered.edges().eq(rebuilt.edges()));
        // All-alive filtering is the identity.
        let same = intact.masked(&[true; 60]);
        assert!((0..60).all(|node| same.neighbors(node) == intact.neighbors(node)));
        // All-dead filtering leaves a linkless graph.
        assert_eq!(intact.masked(&[false; 60]).edges().count(), 0);
    }

    #[test]
    fn neighbors_alive_matches_masked_adjacency() {
        // The lazy filter must visit exactly the masked topology's
        // neighbor list, pair for pair, in order — the contract the
        // incremental evaluator's alive-filtered Dijkstra rests on.
        let c = test_constellation(4, 9);
        let series = SnapshotSeries::build(&c, &[Epoch::J2000 + 90.0]).unwrap();
        let intact = Topology::plus_grid(&series.snapshot(0), Default::default()).unwrap();
        let n = intact.n_nodes();
        let mut mask = vec![true; n];
        for flat in (0..n).step_by(4) {
            mask[flat] = false;
        }
        mask[9..18].fill(false);
        let masked = intact.masked(&mask);
        for node in 0..n {
            let lazy: Vec<(usize, f64)> = intact.neighbors_alive(node, &mask).collect();
            assert_eq!(lazy.as_slice(), masked.neighbors(node), "node {node}");
        }
        // All-alive is the identity; all-dead leaves every list empty.
        let all = vec![true; n];
        for node in 0..n {
            let lazy: Vec<(usize, f64)> = intact.neighbors_alive(node, &all).collect();
            assert_eq!(lazy.as_slice(), intact.neighbors(node));
        }
        let none = vec![false; n];
        assert!((0..n).all(|v| intact.neighbors_alive(v, &none).next().is_none()));
    }

    #[test]
    fn largest_component_grades_connectivity() {
        let c = test_constellation(3, 10);
        let series = SnapshotSeries::build(&c, &[Epoch::J2000]).unwrap();
        let snap = series.snapshot(0);
        let topo = Topology::plus_grid(&snap, Default::default()).unwrap();
        let all = vec![true; 30];
        assert_eq!(topo.components(Some(&all)).largest(), 30, "intact +grid is one component");
        // Kill the middle plane: survivors split into the two outer
        // plane rings of 10 each.
        let mut mask = all.clone();
        mask[10..20].fill(false);
        let degraded = topo.masked(&mask);
        assert!(!degraded.components(Some(&mask)).is_connected());
        assert_eq!(degraded.components(Some(&mask)).largest(), 10);
        // Nobody alive: size 0; one survivor: size 1.
        assert_eq!(topo.components(Some(&[false; 30])).largest(), 0);
        let mut lone = vec![false; 30];
        lone[7] = true;
        assert_eq!(topo.components(Some(&lone)).largest(), 1);
    }
}
