//! The population-scale traffic engine: attachment aggregation and
//! capacity-constrained k-path assignment with a served-demand metric.
//!
//! [`crate::traffic::assign_traffic`] piles every flow onto one shortest
//! path and counts *routed flows* — fine for a hand-sized sample, but at
//! 10⁵–10⁶ gravity-model flows ([`ssplane_demand::gravity`]) the
//! questions change: how much of the offered demand is actually
//! **served** once links have finite capacity, and what do the survivors
//! carry? This module answers them in three stages:
//!
//! 1. **Attachment aggregation** — every flow endpoint resolves to its
//!    serving satellite through one [`ServingIndex`] (one exact query per
//!    *distinct* endpoint — gravity flows reuse a few hundred sites; the
//!    degraded evaluator ranks their servers once per intact slot and,
//!    under a mask, takes each one's first surviving server), and flows
//!    collapse into per-(source satellite, destination satellite)
//!    demand. Per-slot routing cost then scales with *attachment points*,
//!    not users: a million flows between 256 sites cost the same routing
//!    work as one flow per site pair.
//! 2. **k-path candidates** — per distinct source satellite, `k_paths`
//!    rounds of the crate's one Dijkstra ([`crate::routing`]) with a
//!    per-arc penalty (edges of already-chosen paths get their weight
//!    inflated each round, the classic path-diversity penalty scheme)
//!    produce up to `k` loop-free candidate paths per destination,
//!    shortest first, deduplicated.
//! 3. **Waterfilling with drop accounting** — aggregated pairs are
//!    visited in deterministic (source, destination) order; each pair's
//!    demand spills across its candidate paths in order, bounded by the
//!    minimum *residual* capacity along each path (ECMP-style splitting
//!    with saturation). Demand that no candidate path can carry is
//!    **dropped**; demand with an uncovered endpoint is **unattached**.
//!    `served + dropped + unattached = offered` by construction.
//!
//! The output is a [`ServedDemandSummary`]: the served-demand fraction
//! plus link-utilization percentiles — the capacity-aware counterpart of
//! the routed-fraction metric, and the `served-demand` objective of the
//! adversarial attack search ([`crate::optimizer`]).
//!
//! Everything is deterministic: aggregation sums in flow order into
//! satellite pairs sorted by `(source, destination)`, waterfilling visits
//! them in that order, and the penalized rounds break distance ties with
//! the routing kernel's canonical `(dist, node)` heap order.

use crate::error::Result;
use crate::routing::{dijkstra, ServingIndex};
use crate::snapshot::Snapshot;
use crate::topology::Topology;
use crate::traffic::Flow;
use ssplane_astro::geo::GeoPoint;
use ssplane_demand::gravity::GravityFlows;
use std::cmp::Ordering;
use std::collections::BTreeMap;

/// Capacity and path-diversity configuration of one assignment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CapacityConfig {
    /// Per-directed-ISL capacity, in the same units as flow demand.
    pub link_capacity: f64,
    /// Candidate paths per satellite pair (≥ 1; 1 = single shortest
    /// path with saturation).
    pub k_paths: usize,
}

impl Default for CapacityConfig {
    fn default() -> Self {
        CapacityConfig { link_capacity: 1.0, k_paths: 3 }
    }
}

/// A population-scale workload: the flow list plus the capacity model it
/// is assigned under. Built once per scenario and shared by the intact
/// and degraded passes.
#[derive(Debug, Clone)]
pub struct TrafficWorkload {
    /// Ground-to-ground flows (typically gravity-model output), interned
    /// once at construction.
    pub flows: InternedFlows,
    /// The capacity model.
    pub capacity: CapacityConfig,
}

impl TrafficWorkload {
    /// Builds a workload from a gravity draw, rescaling rates by `scale`
    /// (e.g. from grid demand mass to satellite-capacity units). The
    /// flows are interned by their site indices, constant work per flow.
    pub fn from_gravity(gravity: &GravityFlows, scale: f64, capacity: CapacityConfig) -> Self {
        // Interning first keeps its scratch table and the flow list apart
        // in memory, and hands every flow its endpoints already
        // converted: an interned point is bit for bit the endpoint it
        // names.
        let index = FlowIndex::from_gravity(gravity, scale);
        let flows = gravity
            .iter()
            .enumerate()
            .map(|(i, g)| {
                let (a, b) = index.ends(i);
                Flow { src: index.points[a], dst: index.points[b], demand: g.rate * scale }
            })
            .collect();
        TrafficWorkload { flows: InternedFlows { flows, index }, capacity }
    }
}

/// A read-only flow list with its interned endpoints and endpoint pairs,
/// built together so the index always describes the flows. It derefs to
/// `[Flow]`; every assignment over a workload reuses the one index
/// instead of interning the flows again.
#[derive(Debug, Clone)]
pub struct InternedFlows {
    flows: Vec<Flow>,
    index: FlowIndex,
}

impl InternedFlows {
    /// The interned endpoints and endpoint pairs of the flows.
    pub(crate) fn index(&self) -> &FlowIndex {
        &self.index
    }
}

impl std::ops::Deref for InternedFlows {
    type Target = [Flow];

    fn deref(&self) -> &[Flow] {
        &self.flows
    }
}

/// What one capacity-constrained assignment served, dropped, and loaded.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServedDemandSummary {
    /// Flows offered.
    pub flows: usize,
    /// Distinct (source satellite, destination satellite) attachment
    /// pairs the flows collapsed into.
    pub pairs: usize,
    /// Total offered demand.
    pub offered: f64,
    /// Demand actually carried (including same-satellite local demand,
    /// which needs no ISL).
    pub served: f64,
    /// Demand attached at both ends but beyond what the candidate paths'
    /// residual capacity could carry (saturation and partitions).
    pub dropped: f64,
    /// Demand with at least one endpoint no satellite serves.
    pub unattached: f64,
    /// `served / offered` (0 when nothing is offered).
    pub served_fraction: f64,
    /// Median link utilization (load / capacity) over loaded links.
    pub utilization_p50: f64,
    /// 90th-percentile link utilization.
    pub utilization_p90: f64,
    /// 99th-percentile link utilization.
    pub utilization_p99: f64,
    /// Peak link utilization (≤ 1 by construction).
    pub utilization_max: f64,
}

impl ServedDemandSummary {
    pub(crate) fn empty(flows: usize, unattached: f64, offered: f64) -> Self {
        ServedDemandSummary {
            flows,
            pairs: 0,
            offered,
            served: 0.0,
            dropped: 0.0,
            unattached,
            served_fraction: 0.0,
            utilization_p50: 0.0,
            utilization_p90: 0.0,
            utilization_p99: 0.0,
            utilization_max: 0.0,
        }
    }
}

/// Nearest-rank percentile of an ascending-sorted sample (`None` if
/// empty): the smallest value with at least `q·n` of the sample at or
/// below it, i.e. 1-based rank `ceil(q·n)` clamped to `[1, n]`. At
/// `n = 10, q = 0.5` this is the 5th value, not a rounded linear index.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    let n = sorted.len();
    let rank = crate::cast::f64_to_index((q * n as f64).ceil());
    (n > 0).then(|| sorted[rank.clamp(1, n) - 1])
}

/// Flow endpoints and endpoint pairs, interned once per flow list: the
/// attachment work of a mask is then one lookup per distinct endpoint,
/// and the demand tally classifies each distinct endpoint pair once
/// instead of every flow. The degraded evaluator interns its flow lists
/// once and ranks the endpoints' servers once per intact slot; masked
/// evaluations take each endpoint's first surviving server.
#[derive(Debug, Default, Clone, PartialEq)]
pub(crate) struct FlowIndex {
    /// Distinct endpoint coordinates (bit-exact), first-appearance order.
    pub(crate) points: Vec<GeoPoint>,
    /// Distinct (source endpoint, destination endpoint) pairs,
    /// first-appearance order.
    pub(crate) pairs: Vec<(usize, usize)>,
    /// Per flow: its endpoint pair (`u32` keeps a 10⁵-flow index small).
    pub(crate) flow_pair: Vec<u32>,
    /// Total demand, summed in flow order.
    pub(crate) offered: f64,
}

/// The bit pattern an endpoint is interned by.
fn point_key(p: GeoPoint) -> (u64, u64) {
    (p.lat.to_bits(), p.lon.to_bits())
}

impl FlowIndex {
    pub(crate) fn new(flows: &[Flow]) -> Self {
        let mut point_ids: BTreeMap<(u64, u64), usize> = BTreeMap::new();
        let mut pair_ids: BTreeMap<(usize, usize), usize> = BTreeMap::new();
        let mut points: Vec<GeoPoint> = Vec::new();
        let mut pairs: Vec<(usize, usize)> = Vec::new();
        let mut flow_pair = Vec::with_capacity(flows.len());
        for f in flows {
            let mut intern = |p: GeoPoint| -> usize {
                *point_ids.entry(point_key(p)).or_insert_with(|| {
                    points.push(p);
                    points.len() - 1
                })
            };
            let pair = (intern(f.src), intern(f.dst));
            flow_pair.push(crate::cast::index_u32(*pair_ids.entry(pair).or_insert_with(|| {
                pairs.push(pair);
                pairs.len() - 1
            })));
        }
        let offered = flows.iter().map(|f| f.demand).sum();
        FlowIndex { points, pairs, flow_pair, offered }
    }

    /// [`Self::new`] of the flows `gravity` makes at `scale`
    /// ([`TrafficWorkload::from_gravity`]), interned by site index in one
    /// flow-order pass: an endpoint through a per-site table, a pair
    /// through a dense `sites × sites` table (half the size of the
    /// field's own distance table). Distinct sites carry distinct
    /// coordinates, so the ids equal [`Self::new`]'s.
    pub(crate) fn from_gravity(gravity: &GravityFlows, scale: f64) -> Self {
        use crate::cast::{index_u32, widen_u32};
        const NONE: u32 = u32::MAX;
        let sites = gravity.sites();
        let mut point_of_site = vec![NONE; sites.len()];
        let mut pair_of_sites = vec![NONE; sites.len() * sites.len()];
        let mut points: Vec<GeoPoint> = Vec::new();
        let mut pairs: Vec<(usize, usize)> = Vec::new();
        let mut flow_pair = Vec::with_capacity(gravity.len());
        for g in gravity.iter() {
            let (src, dst) = (widen_u32(g.src_site), widen_u32(g.dst_site));
            let mut intern = |site: usize| {
                if point_of_site[site] == NONE {
                    point_of_site[site] = index_u32(points.len());
                    points.push(GeoPoint::from_degrees(sites[site].lat_deg, sites[site].lon_deg));
                }
                widen_u32(point_of_site[site])
            };
            let ends = (intern(src), intern(dst));
            let pair = &mut pair_of_sites[src * sites.len() + dst];
            if *pair == NONE {
                *pair = index_u32(pairs.len());
                pairs.push(ends);
            }
            flow_pair.push(*pair);
        }
        let offered = gravity.iter().map(|g| g.rate * scale).sum();
        FlowIndex { points, pairs, flow_pair, offered }
    }

    /// Flow `i`'s endpoint pair.
    pub(crate) fn ends(&self, i: usize) -> (usize, usize) {
        self.pairs[crate::cast::widen_u32(self.flow_pair[i])]
    }
}

/// Stage-1 output: how the flow list classified under some attachment
/// resolution — shared between the from-scratch assignment and the
/// incremental evaluator.
#[derive(Debug)]
pub(crate) struct AttachmentTally {
    /// Demand with at least one unserved endpoint.
    pub(crate) unattached: f64,
    /// Same-satellite demand, served without touching an ISL.
    pub(crate) local_served: f64,
    /// Distinct (source satellite, destination satellite) pairs,
    /// ascending.
    pub(crate) sat_pairs: Vec<(usize, usize)>,
    /// Aggregated demand per entry of `sat_pairs`.
    pub(crate) demand: Vec<f64>,
}

/// The rank of an endpoint no satellite serves.
const NO_RANK: usize = usize::MAX;

/// Stable counting sort of `items` by `key`, which is below `buckets`.
fn counting_sort(items: &[usize], buckets: usize, key: impl Fn(usize) -> usize) -> Vec<usize> {
    let mut starts = vec![0usize; buckets + 1];
    for &i in items {
        starts[key(i) + 1] += 1;
    }
    for b in 0..buckets {
        starts[b + 1] += starts[b];
    }
    let mut out = vec![0usize; items.len()];
    for &i in items {
        let k = key(i);
        out[starts[k]] = i;
        starts[k] += 1;
    }
    out
}

/// Classifies `flows` (interned by `index`) under per-endpoint
/// `servers`. Each endpoint pair is classified once: unattached, local,
/// or an ISL pair of serving satellites, ordered ascending by two stable
/// counting passes over the servers' ranks. One flow-order pass then
/// adds each flow's demand to its pair's accumulator, so every
/// accumulator sees the same additions in the same order as a per-flow
/// loop into a `(source, destination)`-keyed map — the tally is
/// bit-identical to it.
pub(crate) fn tally_attachments(
    flows: &[Flow],
    index: &FlowIndex,
    servers: &[Option<usize>],
) -> AttachmentTally {
    let mut ranked: Vec<usize> = servers.iter().flatten().copied().collect();
    ranked.sort_unstable();
    ranked.dedup();
    let rank: Vec<usize> = servers
        .iter()
        .map(|s| s.map_or(NO_RANK, |s| ranked.binary_search(&s).expect("a ranked server")))
        .collect();
    // Accumulator 0 sums unattached demand, 1 local demand, and 2 + j
    // the demand of satellite pair j.
    let mut class = vec![0usize; index.pairs.len()];
    let mut isl: Vec<usize> = Vec::new();
    for (p, &(a, b)) in index.pairs.iter().enumerate() {
        let (ra, rb) = (rank[a], rank[b]);
        if ra != NO_RANK && rb != NO_RANK {
            if ra == rb {
                class[p] = 1;
            } else {
                isl.push(p);
            }
        }
    }
    let by_dst = counting_sort(&isl, ranked.len(), |p| rank[index.pairs[p].1]);
    let ordered = counting_sort(&by_dst, ranked.len(), |p| rank[index.pairs[p].0]);
    let mut sat_pairs: Vec<(usize, usize)> = Vec::new();
    for p in ordered {
        let (a, b) = index.pairs[p];
        let key = (ranked[rank[a]], ranked[rank[b]]);
        if sat_pairs.last() != Some(&key) {
            sat_pairs.push(key);
        }
        class[p] = 1 + sat_pairs.len();
    }
    let mut acc = vec![0.0; 2 + sat_pairs.len()];
    for (flow, &p) in flows.iter().zip(&index.flow_pair) {
        acc[class[crate::cast::widen_u32(p)]] += flow.demand;
    }
    let demand = acc.split_off(2);
    AttachmentTally { unattached: acc[0], local_served: acc[1], sat_pairs, demand }
}

/// Stage 2 for one source satellite: `k` penalized rounds of the routing
/// kernel ([`crate::routing::dijkstra`]) over `dsts` (ascending), giving
/// up to `k` deduplicated candidate paths per destination, shortest
/// first, aligned with `dsts` (empty where unreachable). A round stops
/// once every destination in `s`'s component (`labels`, the
/// [`Topology::components`] labels under `alive`) has settled, and its
/// paths add one penalty to every arc joining the same node pair — which
/// masking preserves, so an alive-filtered run over the intact topology
/// is bit-identical to one over [`Topology::masked`]. Round 0 carries no penalty: a caller
/// holding those plain shortest paths (from a tree under the same mask)
/// passes them as `shortest`, `None` per unreachable destination.
pub(crate) fn k_paths_for_source(
    topology: &Topology,
    s: usize,
    dsts: &[usize],
    k: usize,
    alive: Option<&[bool]>,
    labels: &[u32],
    mut shortest: Option<Vec<Option<Vec<usize>>>>,
) -> Vec<Vec<Vec<usize>>> {
    let mut penalty = vec![0.0; topology.n_arcs()];
    let mut round_arcs: Vec<usize> = Vec::new();
    let mut paths: Vec<Vec<Vec<usize>>> = vec![Vec::new(); dsts.len()];
    let reachable: Vec<usize> = dsts.iter().copied().filter(|&d| labels[d] == labels[s]).collect();
    for round in 0..k {
        let found = shortest.take().unwrap_or_else(|| {
            let tree = dijkstra(topology, s, alive, Some(&penalty), Some(&reachable));
            dsts.iter().map(|&d| tree.flat_path_to(d).map(|(hops, _)| hops)).collect()
        });
        let penalize = round + 1 < k;
        for (entry, path) in paths.iter_mut().zip(found) {
            let Some(path) = path else { continue };
            if penalize {
                for hop in path.windows(2) {
                    let first_arc = topology.arc_offset(hop[0]);
                    for (j, &(v, _)) in topology.neighbors(hop[0]).iter().enumerate() {
                        if v == hop[1] {
                            round_arcs.push(first_arc + j);
                        }
                    }
                }
            }
            if !entry.contains(&path) {
                entry.push(path);
            }
        }
        // A node pair on several of this round's paths is penalized once,
        // on every arc joining it.
        round_arcs.sort_unstable();
        round_arcs.dedup();
        for arc in round_arcs.drain(..) {
            penalty[arc] += 1.0;
        }
    }
    paths
}

/// Stage 3: deterministic residual-capacity waterfilling over the tally,
/// visiting its satellite pairs in ascending `(source, destination)`
/// order and spilling each pair's demand across `paths_for(pair index)`
/// in candidate order. The tally's `local_served` seeds the served
/// accumulator, preserving the original single-pass summation order
/// exactly.
pub(crate) fn waterfill_summary<'p, F>(
    n_flows: usize,
    offered: f64,
    tally: &AttachmentTally,
    paths_for: F,
    capacity: f64,
) -> ServedDemandSummary
where
    F: Fn(usize) -> &'p [Vec<usize>],
{
    let mut served = tally.local_served;
    let mut residual: BTreeMap<(usize, usize), f64> = BTreeMap::new();
    let mut load: BTreeMap<(usize, usize), f64> = BTreeMap::new();
    let mut dropped = 0.0;
    for (j, &dem) in tally.demand.iter().enumerate() {
        let mut rest = dem;
        for path in paths_for(j) {
            if rest <= 0.0 {
                break;
            }
            let available = path
                .windows(2)
                .map(|hop| residual.get(&(hop[0], hop[1])).copied().unwrap_or(capacity))
                .fold(f64::INFINITY, f64::min);
            let put = rest.min(available);
            if put <= 0.0 {
                continue;
            }
            for hop in path.windows(2) {
                *residual.entry((hop[0], hop[1])).or_insert(capacity) -= put;
                *load.entry((hop[0], hop[1])).or_insert(0.0) += put;
            }
            served += put;
            rest -= put;
        }
        dropped += rest.max(0.0);
    }

    let mut utilization: Vec<f64> = load.values().map(|&l| l / capacity).collect();
    utilization.sort_by(|a, b| a.partial_cmp(b).unwrap_or(Ordering::Equal));
    ServedDemandSummary {
        flows: n_flows,
        pairs: tally.sat_pairs.len(),
        offered,
        served,
        dropped,
        unattached: tally.unattached,
        served_fraction: if offered > 0.0 { served / offered } else { 0.0 },
        utilization_p50: percentile(&utilization, 0.50).unwrap_or(0.0),
        utilization_p90: percentile(&utilization, 0.90).unwrap_or(0.0),
        utilization_p99: percentile(&utilization, 0.99).unwrap_or(0.0),
        utilization_max: utilization.last().copied().unwrap_or(0.0),
    }
}

/// The summary of a tally with no ISL pair: only local demand is served.
pub(crate) fn local_only_summary(
    n_flows: usize,
    offered: f64,
    tally: &AttachmentTally,
) -> ServedDemandSummary {
    let fraction = if offered > 0.0 { tally.local_served / offered } else { 0.0 };
    ServedDemandSummary {
        served: tally.local_served,
        served_fraction: fraction,
        ..ServedDemandSummary::empty(n_flows, tally.unattached, offered)
    }
}

/// Assigns `flows` over `topology` under finite per-link capacity:
/// attachment aggregation → per-source k-path candidates → deterministic
/// residual-capacity waterfilling. See the module docs for the scheme.
///
/// Dead satellites (a masked snapshot) never serve an endpoint and carry
/// no links, so the same call evaluates the degraded network.
///
/// `topology` must be built from `snapshot` (as [`Topology::plus_grid`]
/// builds it): the endpoints attach by the snapshot's flat satellite
/// index, which is then that topology's node index.
///
/// # Errors
/// Currently infallible in practice (the `Result` mirrors the other
/// assignment entry points so capacity models that can fail slot in).
pub fn assign_capacity_constrained(
    snapshot: &Snapshot<'_>,
    topology: &Topology,
    flows: &[Flow],
    min_elevation: f64,
    config: &CapacityConfig,
) -> Result<ServedDemandSummary> {
    let labels = topology.components(None).labels;
    let index = FlowIndex::new(flows);
    let servers = ServingIndex::new(*snapshot, min_elevation).attach(&index.points);
    Ok(assign_interned(topology, &labels, None, flows, &index, &servers, config))
}

/// [`assign_capacity_constrained`] over `flows` interned once as
/// `interned`, whose endpoints attach to the `servers` (per interned
/// endpoint, a `topology` node index), over the nodes of `topology`
/// flagged in `alive` (`None` = all) and their component `labels`
/// ([`Topology::components`] under the same mask). The degraded
/// evaluator interns a workload once, ranks its servers once per intact
/// slot, and computes the labels once per evaluated slot for every
/// consumer.
pub(crate) fn assign_interned(
    topology: &Topology,
    labels: &[u32],
    alive: Option<&[bool]>,
    flows: &[Flow],
    interned: &FlowIndex,
    servers: &[Option<usize>],
    config: &CapacityConfig,
) -> ServedDemandSummary {
    if flows.is_empty() {
        return ServedDemandSummary::empty(0, 0.0, 0.0);
    }

    // --- 1. attachment aggregation ----------------------------------
    let tally = tally_attachments(flows, interned, servers);
    if tally.sat_pairs.is_empty() {
        return local_only_summary(flows.len(), interned.offered, &tally);
    }

    // --- 2. k-path candidates per source satellite -------------------
    let k = config.k_paths.max(1);
    let mut paths: Vec<Vec<Vec<usize>>> = Vec::with_capacity(tally.sat_pairs.len());
    for group in tally.sat_pairs.chunk_by(|a, b| a.0 == b.0) {
        let dsts: Vec<usize> = group.iter().map(|&(_, d)| d).collect();
        paths.extend(k_paths_for_source(topology, group[0].0, &dsts, k, alive, labels, None));
    }

    // --- 3. deterministic residual-capacity waterfilling -------------
    waterfill_summary(flows.len(), interned.offered, &tally, |j| &paths[j], config.link_capacity)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::SnapshotSeries;
    use crate::topology::{Constellation, GridTopologyConfig};
    use proptest::prelude::*;
    use ssplane_astro::kepler::OrbitalElements;
    use ssplane_astro::sunsync::sun_synchronous_orbit;
    use ssplane_astro::time::Epoch;
    use ssplane_demand::diurnal::DiurnalModel;
    use ssplane_demand::gravity::{gravity_flows, GravityConfig};
    use ssplane_demand::population::{PopulationConfig, PopulationGrid};
    use ssplane_demand::DemandModel;

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

    fn constellation() -> Constellation {
        let epoch = Epoch::J2000;
        let orbit = sun_synchronous_orbit(560.0).unwrap();
        let planes: Vec<Vec<OrbitalElements>> = (0..10)
            .map(|p| orbit.with_ltan(p as f64 * 2.4).plane_elements(epoch, 24).unwrap())
            .collect();
        Constellation::new(epoch, planes).unwrap()
    }

    fn workload(pairs: usize, capacity: f64, k_paths: usize) -> TrafficWorkload {
        let m = model();
        let gravity = gravity_flows(
            &m,
            &GravityConfig { pairs, sites: 48, seed: 5, ..Default::default() },
            1,
        )
        .unwrap();
        // Rescale the grid-mass rates to a few hundred capacity units so
        // saturation is reachable but not total.
        let total: f64 = gravity.iter().map(|g| g.rate).sum();
        TrafficWorkload::from_gravity(
            &gravity,
            120.0 / total,
            CapacityConfig { link_capacity: capacity, k_paths },
        )
    }

    #[test]
    fn a_workload_index_is_the_index_of_its_flows() {
        let w = workload(3000, 1.0, 2);
        let fresh = FlowIndex::new(&w.flows);
        assert_eq!(w.flows.index(), &fresh);
        assert_eq!(fresh.flow_pair.len(), 3000);
        assert!(fresh.points.len() <= 48, "gravity endpoints are the 48 sites");
        assert_eq!(w.clone().flows.index(), &fresh, "a clone carries the same index");
    }

    /// The gravity interning against the coordinate-keyed one: equal
    /// points (bit for bit), pairs and per-flow pairs, and the offered
    /// total bit for bit.
    fn assert_interned_by_coordinates(gravity: &GravityFlows, scale: f64) {
        let at = |site: u32| {
            let s = &gravity.sites()[crate::cast::widen_u32(site)];
            GeoPoint::from_degrees(s.lat_deg, s.lon_deg)
        };
        let flows: Vec<Flow> = gravity
            .iter()
            .map(|g| Flow { src: at(g.src_site), dst: at(g.dst_site), demand: g.rate * scale })
            .collect();
        let (fast, oracle) = (FlowIndex::from_gravity(gravity, scale), FlowIndex::new(&flows));
        let bits = |index: &FlowIndex| -> Vec<(u64, u64)> {
            index.points.iter().map(|&p| point_key(p)).collect()
        };
        assert_eq!(bits(&fast), bits(&oracle), "points");
        assert_eq!(fast.pairs, oracle.pairs, "pairs");
        assert_eq!(fast.flow_pair, oracle.flow_pair, "flow pairs");
        assert_eq!(fast.offered.to_bits(), oracle.offered.to_bits(), "offered");
    }

    #[test]
    fn gravity_interning_matches_the_coordinate_interning() {
        let m = model();
        for seed in [3u64, 1009] {
            let config = GravityConfig { pairs: 20_000, sites: 64, seed, ..Default::default() };
            let gravity = gravity_flows(&m, &config, 2).unwrap();
            assert_interned_by_coordinates(&gravity, 0.37);
            let w = TrafficWorkload::from_gravity(&gravity, 0.37, CapacityConfig::default());
            assert_eq!(w.flows.index(), &FlowIndex::new(&w.flows), "seed {seed}");
        }
        // Two sites: every pair repeated, both ways round.
        let two = GravityConfig { pairs: 40, sites: 2, seed: 5, ..Default::default() };
        let gravity = gravity_flows(&m, &two, 1).unwrap();
        assert!(gravity.iter().any(|g| g.src_site == 0) && gravity.iter().any(|g| g.src_site == 1));
        assert_interned_by_coordinates(&gravity, 1.5);
        // Sparse site use: a few flows over many sites.
        for (pairs, sites) in [(1, 64), (3, 64), (1, 256), (3, 256)] {
            let config = GravityConfig { pairs, sites, seed: 11, ..Default::default() };
            assert_interned_by_coordinates(&gravity_flows(&m, &config, 1).unwrap(), 2.0);
        }
    }

    #[test]
    fn served_plus_dropped_plus_unattached_is_offered() {
        let c = constellation();
        let series = SnapshotSeries::build(&c, &[Epoch::J2000]).unwrap();
        let snap = series.snapshot(0);
        let topo = Topology::plus_grid(&snap, GridTopologyConfig::default()).unwrap();
        let w = workload(5000, 1.0, 3);
        let summary =
            assign_capacity_constrained(&snap, &topo, &w.flows, 25f64.to_radians(), &w.capacity)
                .unwrap();
        assert_eq!(summary.flows, 5000);
        assert!(summary.pairs > 0, "flows must aggregate into satellite pairs");
        assert!(summary.pairs < 5000, "aggregation must collapse flows");
        let accounted = summary.served + summary.dropped + summary.unattached;
        assert!(
            (accounted - summary.offered).abs() < 1e-6 * summary.offered.max(1.0),
            "accounting leak: {accounted} vs offered {}",
            summary.offered
        );
        assert!(summary.served > 0.0);
        assert!(summary.served_fraction > 0.0 && summary.served_fraction <= 1.0);
        assert!(summary.utilization_max <= 1.0 + 1e-9, "capacity exceeded");
        assert!(summary.utilization_p50 <= summary.utilization_p90);
        assert!(summary.utilization_p90 <= summary.utilization_p99);
        assert!(summary.utilization_p99 <= summary.utilization_max);
    }

    #[test]
    fn unconstrained_capacity_serves_everything_attached_and_connected() {
        let c = constellation();
        let series = SnapshotSeries::build(&c, &[Epoch::J2000]).unwrap();
        let snap = series.snapshot(0);
        let topo = Topology::plus_grid(&snap, GridTopologyConfig::default()).unwrap();
        let w = workload(2000, f64::INFINITY, 1);
        let summary =
            assign_capacity_constrained(&snap, &topo, &w.flows, 25f64.to_radians(), &w.capacity)
                .unwrap();
        if topo.is_connected() {
            assert!(summary.dropped.abs() < 1e-9, "infinite capacity must drop nothing");
        }
        assert!((summary.served + summary.unattached - summary.offered).abs() < 1e-6);
    }

    #[test]
    fn tighter_capacity_serves_less_and_more_paths_serve_more() {
        let c = constellation();
        let series = SnapshotSeries::build(&c, &[Epoch::J2000]).unwrap();
        let snap = series.snapshot(0);
        let topo = Topology::plus_grid(&snap, GridTopologyConfig::default()).unwrap();
        let min_elev = 25f64.to_radians();
        let loose = workload(4000, 4.0, 3);
        let tight = workload(4000, 0.5, 3);
        let a = assign_capacity_constrained(&snap, &topo, &loose.flows, min_elev, &loose.capacity)
            .unwrap();
        let b = assign_capacity_constrained(&snap, &topo, &tight.flows, min_elev, &tight.capacity)
            .unwrap();
        assert!(b.served <= a.served + 1e-9, "tighter links cannot serve more");
        // With saturation present, extra candidate paths only help.
        let k1 = workload(4000, 0.5, 1);
        let single =
            assign_capacity_constrained(&snap, &topo, &k1.flows, min_elev, &k1.capacity).unwrap();
        assert!(
            b.served >= single.served - 1e-9,
            "k=3 ({}) must serve at least k=1 ({})",
            b.served,
            single.served
        );
    }

    #[test]
    fn degraded_network_serves_no_more_than_intact() {
        let c = constellation();
        let series = SnapshotSeries::build(&c, &[Epoch::J2000]).unwrap();
        let snap = series.snapshot(0);
        let topo = Topology::plus_grid(&snap, GridTopologyConfig::default()).unwrap();
        let w = workload(3000, 1.0, 3);
        let min_elev = 25f64.to_radians();
        let intact =
            assign_capacity_constrained(&snap, &topo, &w.flows, min_elev, &w.capacity).unwrap();
        // Kill 10% of the fleet as an adversary would: one whole plane
        // (24 of 240) — concentrated capacity loss, not scattered noise.
        let mut mask = vec![true; snap.total_sats()];
        for (flat, alive) in mask.iter_mut().enumerate() {
            if flat < 24 {
                *alive = false;
            }
        }
        let masked = snap.with_alive(&mask);
        let degraded_topo = topo.masked(&mask);
        let degraded =
            assign_capacity_constrained(&masked, &degraded_topo, &w.flows, min_elev, &w.capacity)
                .unwrap();
        assert!(
            degraded.served_fraction < intact.served_fraction,
            "10% loss must cut served demand: {} vs {}",
            degraded.served_fraction,
            intact.served_fraction
        );
        let rerun =
            assign_capacity_constrained(&masked, &degraded_topo, &w.flows, min_elev, &w.capacity)
                .unwrap();
        assert_eq!(degraded, rerun, "assignment must be deterministic");
    }

    #[test]
    fn empty_flow_list_is_all_zeros() {
        let c = constellation();
        let series = SnapshotSeries::build(&c, &[Epoch::J2000]).unwrap();
        let snap = series.snapshot(0);
        let topo = Topology::plus_grid(&snap, GridTopologyConfig::default()).unwrap();
        let summary =
            assign_capacity_constrained(&snap, &topo, &[], 0.5, &CapacityConfig::default())
                .unwrap();
        assert_eq!(summary.flows, 0);
        assert_eq!(summary.offered, 0.0);
        assert_eq!(summary.served_fraction, 0.0);
        assert_eq!(summary.utilization_max, 0.0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4))]

        /// The capacity invariant as a property: whatever the seed,
        /// capacity, and path budget, no directed link ever carries more
        /// than its capacity (checked through the utilization ceiling)
        /// and the demand accounting never leaks.
        #[test]
        fn no_link_ever_exceeds_capacity(
            seed in 0u64..100,
            capacity in 0.1f64..4.0,
            k_paths in 1usize..5,
        ) {
            let m = model();
            let gravity = gravity_flows(
                &m,
                &GravityConfig { pairs: 1500, sites: 32, seed, ..Default::default() },
                1,
            ).unwrap();
            let total: f64 = gravity.iter().map(|g| g.rate).sum();
            let w = TrafficWorkload::from_gravity(
                &gravity,
                90.0 / total,
                CapacityConfig { link_capacity: capacity, k_paths },
            );
            let c = constellation();
            let series = SnapshotSeries::build(&c, &[Epoch::J2000]).unwrap();
            let snap = series.snapshot(0);
            let topo = Topology::plus_grid(&snap, GridTopologyConfig::default()).unwrap();
            let s = assign_capacity_constrained(
                &snap, &topo, &w.flows, 25f64.to_radians(), &w.capacity,
            ).unwrap();
            prop_assert!(s.utilization_max <= 1.0 + 1e-9, "utilization {}", s.utilization_max);
            let accounted = s.served + s.dropped + s.unattached;
            prop_assert!((accounted - s.offered).abs() < 1e-6 * s.offered.max(1.0));
        }
    }

    #[test]
    fn percentile_is_true_nearest_rank() {
        // At n = 10, q = 0.5 nearest-rank is the 5th value; a rounded
        // linear index would return the 6th.
        let sorted: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 0.5), Some(5.0));
        assert_eq!(percentile(&sorted, 0.9), Some(9.0));
        assert_eq!(percentile(&sorted, 0.99), Some(10.0));
        assert_eq!(percentile(&sorted, 1.0), Some(10.0));
        assert_eq!(percentile(&sorted, 0.0), Some(1.0), "rank clamps to the first value");
        // ceil(0.5 * 4) = rank 2.
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 0.5), Some(2.0));
        assert_eq!(percentile(&[7.5], 0.5), Some(7.5));
        assert_eq!(percentile(&[], 0.5), None, "callers choose the empty value");
    }
}
