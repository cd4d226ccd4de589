//! Flow-level traffic assignment over ISL topologies.
//!
//! §5(1): bandwidth allocation should "exploit the regularity of human
//! activity". This module generates ground-to-ground flows weighted by the
//! spatiotemporal demand model, routes them over a topology snapshot, and
//! reports link utilization and latency stretch — the metrics a time-aware
//! traffic engineer would optimize.

use crate::error::Result;
use crate::routing::{
    great_circle_delay_ms, ground_route_km_ms, GuidedSearch, Landmarks, ServingIndex,
};
use crate::snapshot::Snapshot;
use crate::topology::{SatId, Topology};
use crate::traffic_engine::FlowIndex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ssplane_astro::geo::GeoPoint;
use ssplane_demand::DemandModel;

/// A ground-to-ground traffic flow.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Flow {
    /// Source terminal.
    pub src: GeoPoint,
    /// Destination terminal.
    pub dst: GeoPoint,
    /// Offered load \[arbitrary capacity units\].
    pub demand: f64,
}

/// Samples `n` flows with endpoints drawn from the demand model at the
/// given UTC hour (rejection sampling against the Earth-fixed demand
/// snapshot) — busy regions originate and attract proportionally more
/// traffic.
pub fn sample_flows(model: &DemandModel, utc_hour: f64, n: usize, seed: u64) -> Vec<Flow> {
    let mut rng = StdRng::seed_from_u64(seed);
    // Upper bound for rejection sampling.
    let mut max_d: f64 = 1e-12;
    for lat in (-60..=70).step_by(5) {
        for lon in (-180..180).step_by(10) {
            max_d = max_d.max(model.demand_at_utc(lat as f64, lon as f64, utc_hour));
        }
    }
    let sample_point = |rng: &mut StdRng| -> GeoPoint {
        loop {
            // cos-weighted latitude for uniform-area proposals.
            let lat = (rng.gen::<f64>() * 2.0 - 1.0).asin().to_degrees();
            let lon = rng.gen::<f64>() * 360.0 - 180.0;
            let d = model.demand_at_utc(lat, lon, utc_hour);
            if rng.gen::<f64>() * max_d <= d {
                return GeoPoint::from_degrees(lat, lon);
            }
        }
    };
    (0..n)
        .map(|_| {
            let src = sample_point(&mut rng);
            let dst = sample_point(&mut rng);
            Flow { src, dst, demand: 0.5 + rng.gen::<f64>() }
        })
        .collect()
}

/// The per-flow routing outcome a time-resolved analysis needs: enough
/// to compute delay percentiles and serving-pair handoffs across slots
/// without keeping whole routes alive.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowOutcome {
    /// End-to-end delay \[ms\].
    pub delay_ms: f64,
    /// The serving pair (first/last hop).
    pub ends: (SatId, SatId),
}

/// Result of assigning flows to a snapshot.
#[derive(Debug, Clone)]
pub struct TrafficReport {
    /// Flows successfully routed.
    pub routed: usize,
    /// Flows with no route (endpoint uncovered or partition).
    pub unrouted: usize,
    /// Load per loaded directed link, keyed by ordered satellite pair, in
    /// ascending key order — the summation order of the aggregate
    /// statistics, so the network stage's bytes are deterministic.
    pub link_load: Vec<((SatId, SatId), f64)>,
    /// Mean latency stretch over routed flows: route delay / great-circle
    /// fiber delay.
    pub mean_stretch: f64,
    /// Mean hop count of routed flows.
    pub mean_hops: f64,
    /// Per-flow outcomes, index-aligned with the input flow list (`None`
    /// where unrouted) — the raw material for slot-to-slot handoff and
    /// delay-distribution statistics.
    pub flow_outcomes: Vec<Option<FlowOutcome>>,
    /// The per-link capacity the load statistics normalize by.
    /// [`assign_traffic`] reports raw offered load (capacity `1.0`, the
    /// historical behavior); the degraded evaluator normalizes by its
    /// workload's capacity, turning the same statistics into link
    /// *utilization*.
    pub link_capacity: f64,
}

impl TrafficReport {
    /// The maximum utilization on any link (raw load at unit capacity).
    pub fn max_link_load(&self) -> f64 {
        self.link_load.iter().map(|&(_, load)| load).fold(0.0, f64::max) / self.link_capacity
    }

    /// Mean utilization over loaded links (raw load at unit capacity).
    pub fn mean_link_load(&self) -> f64 {
        mean_link_load(&self.link_load, self.link_capacity)
    }
}

/// The mean of per-link `loads`, summed in their order, at link
/// `capacity` (`0` with no loaded link).
pub(crate) fn mean_link_load<K>(loads: &[(K, f64)], capacity: f64) -> f64 {
    let sum: f64 = loads.iter().map(|&(_, load)| load).sum();
    if loads.is_empty() {
        0.0
    } else {
        sum / loads.len() as f64 / capacity
    }
}

/// The per-link load tally of routed paths over one topology — the one
/// link-load accumulation: the traffic assignment's report and the
/// incremental scorer's load inflation both read it. Loads accumulate
/// in path order into a dense array indexed by each node pair's first
/// arc ([`Topology::arc_offset`]), so parallel arcs load one link and a
/// zero-demand path still counts its links.
#[derive(Debug)]
pub(crate) struct LinkTally<'t> {
    topology: &'t Topology,
    /// Load per directed arc, and whether a path crossed it.
    load: Vec<f64>,
    loaded: Vec<bool>,
    /// Each loaded link as `(a, b, arc)`, in first-load order.
    links: Vec<(usize, usize, usize)>,
}

impl<'t> LinkTally<'t> {
    /// An empty tally over `topology`'s arcs.
    pub(crate) fn new(topology: &'t Topology) -> Self {
        let arcs = topology.n_arcs();
        LinkTally { topology, load: vec![0.0; arcs], loaded: vec![false; arcs], links: Vec::new() }
    }

    /// Adds `demand` to every link of the flat path `hops`.
    ///
    /// # Panics
    /// If consecutive hops are not linked.
    pub(crate) fn add(&mut self, hops: &[usize], demand: f64) {
        for hop in hops.windows(2) {
            let (a, b) = (hop[0], hop[1]);
            let j = self.topology.neighbors(a).iter().position(|&(v, _)| v == b);
            let arc = self.topology.arc_offset(a) + j.expect("a path hop is a link");
            if !std::mem::replace(&mut self.loaded[arc], true) {
                self.links.push((a, b, arc));
            }
            self.load[arc] += demand;
        }
    }

    /// Each loaded link's load, in ascending flat `(a, b)` order — the
    /// `SatId` key order, since flat indices ascend plane-major.
    pub(crate) fn into_loads(mut self) -> Vec<((usize, usize), f64)> {
        self.links.sort_unstable();
        self.links.iter().map(|&(a, b, arc)| ((a, b), self.load[arc])).collect()
    }
}

/// Routes every flow at the snapshot's epoch and accumulates per-link
/// load. Ground attachment reads positions from the snapshot (no
/// propagation) through one [`ServingIndex`], one query per distinct
/// endpoint, and each flow's ISL path comes from one landmark-guided
/// [`GuidedSearch`] over [`Landmarks`] built for `topology` —
/// bit-identical to the per-flow [`crate::routing::shortest_path`]
/// reference. `topology` is built over `snapshot`: snapshot flat indices
/// are its node indices.
///
/// # Errors
/// None: per-flow unreachability is counted, not raised.
///
/// # Panics
/// If `topology` has fewer nodes than `snapshot` has satellites.
pub fn assign_traffic(
    snapshot: &Snapshot<'_>,
    topology: &Topology,
    flows: &[Flow],
    min_elevation: f64,
) -> Result<TrafficReport> {
    let landmarks = Landmarks::build(topology);
    let labels = topology.components(None).labels;
    let index = FlowIndex::new(flows);
    let servers = ServingIndex::new(*snapshot, min_elevation).attach(&index.points);
    let ends = serving_pairs(&index, &servers, &labels);
    Ok(assign_guided(snapshot, topology, &landmarks, None, flows, &ends, 1.0))
}

/// Each flow's serving pair (first and last hop, flat indices) under
/// `servers`, the flat snapshot index serving each endpoint of `index` —
/// `None` where an endpoint is unserved or the two servers lie in
/// different components (`labels`, [`Topology::components`]). Such a
/// flow has no route — Dijkstra returns `NoRoute` exactly when the
/// labels differ — so it is counted unrouted without a search.
pub(crate) fn serving_pairs(
    index: &FlowIndex,
    servers: &[Option<usize>],
    labels: &[u32],
) -> Vec<Option<(usize, usize)>> {
    (0..index.flow_pair.len())
        .map(|i| {
            let (a, b) = index.ends(i);
            let (s, d) = servers[a].zip(servers[b])?;
            (labels[s] == labels[d]).then_some((s, d))
        })
        .collect()
}

/// [`assign_traffic`] over each flow's serving pair `ends`
/// ([`serving_pairs`]) and the nodes of `topology` flagged in `alive`
/// (`None` = all), searched under `topology`'s prebuilt `landmarks`,
/// which stay valid bounds on any masked subgraph (see [`Landmarks`]),
/// with the load statistics read as utilization of `link_capacity`
/// (routing is identical: no admission control, which is
/// [`crate::traffic_engine`]'s job). Routing runs on flat indices end to
/// end; `SatId`s are built only for each outcome's serving pair and the
/// report's link keys. The degraded evaluator builds the landmarks and
/// ranks the servers once per intact slot, and every masked pass routes
/// over the intact topology under its mask.
///
/// # Panics
/// If a serving pair of one component has no route — the component
/// labels and the search disagree.
pub(crate) fn assign_guided(
    snapshot: &Snapshot<'_>,
    topology: &Topology,
    landmarks: &Landmarks,
    alive: Option<&[bool]>,
    flows: &[Flow],
    ends: &[Option<(usize, usize)>],
    link_capacity: f64,
) -> TrafficReport {
    let id = |flat| topology.id_of(flat).expect("a node of the topology");
    let mut tally = LinkTally::new(topology);
    let mut routed = 0usize;
    let mut unrouted = 0usize;
    let mut stretch_sum = 0.0;
    let mut hop_sum = 0usize;
    let mut flow_outcomes: Vec<Option<FlowOutcome>> = Vec::with_capacity(flows.len());
    let mut search = GuidedSearch::new();
    for (flow, pair) in flows.iter().zip(ends) {
        let Some((s, d)) = *pair else {
            unrouted += 1;
            flow_outcomes.push(None);
            continue;
        };
        let (hops, isl_km) = search
            .flat_path(topology, landmarks, alive, s, d)
            .expect("a serving pair of one component has a route");
        let (_, delay_ms) = ground_route_km_ms(snapshot, flow.src, flow.dst, (s, d), isl_km);
        routed += 1;
        hop_sum += hops.len();
        let fiber = great_circle_delay_ms(flow.src, flow.dst).max(0.1);
        stretch_sum += delay_ms / fiber;
        tally.add(&hops, flow.demand);
        flow_outcomes.push(Some(FlowOutcome { delay_ms, ends: (id(s), id(d)) }));
    }
    let link_load =
        tally.into_loads().into_iter().map(|((a, b), load)| ((id(a), id(b)), load)).collect();
    TrafficReport {
        routed,
        unrouted,
        link_load,
        mean_stretch: if routed == 0 { f64::NAN } else { stretch_sum / routed as f64 },
        mean_hops: if routed == 0 { f64::NAN } else { hop_sum as f64 / routed as f64 },
        flow_outcomes,
        link_capacity,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::LsnError;
    use crate::snapshot::SnapshotSeries;
    use crate::topology::{Constellation, GridTopologyConfig};
    use ssplane_astro::kepler::OrbitalElements;
    use ssplane_astro::sunsync::sun_synchronous_orbit;
    use ssplane_astro::time::Epoch;
    use ssplane_demand::diurnal::DiurnalModel;
    use ssplane_demand::population::{PopulationConfig, PopulationGrid};
    use std::collections::BTreeMap;

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

    #[test]
    fn flows_deterministic_and_in_populated_areas() {
        let m = model();
        let flows = sample_flows(&m, 12.0, 40, 7);
        assert_eq!(flows.len(), 40);
        assert_eq!(sample_flows(&m, 12.0, 40, 7)[0].src, flows[0].src);
        // Flow endpoints should cluster at inhabited latitudes.
        let mean_abs_lat: f64 =
            flows.iter().map(|f| f.src.lat.abs().to_degrees()).sum::<f64>() / 40.0;
        assert!(mean_abs_lat < 50.0, "mean |lat| = {mean_abs_lat}");
        for f in &flows {
            assert!(f.demand > 0.0);
        }
    }

    #[test]
    fn traffic_assignment_end_to_end() {
        let c = constellation();
        let series = SnapshotSeries::build(&c, &[Epoch::J2000]).unwrap();
        let snap = series.snapshot(0);
        let topo = Topology::plus_grid(&snap, GridTopologyConfig::default()).unwrap();
        let flows = sample_flows(&model(), 12.0, 30, 3);
        let report = assign_traffic(&snap, &topo, &flows, 25f64.to_radians()).unwrap();
        assert_eq!(report.routed + report.unrouted, 30);
        assert!(report.routed > 0, "some flows must route on a 240-sat constellation");
        if report.routed > 0 {
            assert!(report.mean_stretch >= 1.0, "stretch {}", report.mean_stretch);
            assert!(report.mean_hops >= 1.0);
            assert!(report.max_link_load() >= report.mean_link_load());
        }
        // Per-flow outcomes line up with the aggregate counts.
        assert_eq!(report.flow_outcomes.len(), 30);
        assert_eq!(report.flow_outcomes.iter().flatten().count(), report.routed);
        for outcome in report.flow_outcomes.iter().flatten() {
            assert!(outcome.delay_ms > 0.0);
        }
    }

    #[test]
    fn guided_routing_matches_per_flow_routing() {
        // The landmark-guided search must be invisible: routing the same
        // flow list one flow at a time through the Dijkstra reference
        // path gives identical outcomes.
        let c = constellation();
        let series = SnapshotSeries::build(&c, &[Epoch::J2000]).unwrap();
        let snap = series.snapshot(0);
        let topo = Topology::plus_grid(&snap, GridTopologyConfig::default()).unwrap();
        let flows = sample_flows(&model(), 9.0, 40, 11);
        let batched = assign_traffic(&snap, &topo, &flows, 25f64.to_radians()).unwrap();
        for (flow, outcome) in flows.iter().zip(&batched.flow_outcomes) {
            let reference = crate::routing::route_ground_to_ground(
                &snap,
                &topo,
                flow.src,
                flow.dst,
                25f64.to_radians(),
            );
            match (reference, outcome) {
                (Ok(route), Some(out)) => {
                    assert_eq!(route.delay_ms.to_bits(), out.delay_ms.to_bits());
                    assert_eq!(
                        (*route.hops.first().unwrap(), *route.hops.last().unwrap()),
                        out.ends
                    );
                }
                (Err(LsnError::NoRoute), None) => {}
                (r, o) => panic!("divergent flow outcome: {r:?} vs {o:?}"),
            }
        }
    }

    #[test]
    fn masked_assignment_routes_around_dead_satellites() {
        // The degraded-network coupling: the same flows over the same
        // snapshot with half a plane destroyed must route no *more*
        // flows, never transit a dead satellite, and still be
        // deterministic.
        let c = constellation();
        let series = SnapshotSeries::build(&c, &[Epoch::J2000]).unwrap();
        let snap = series.snapshot(0);
        let flows = sample_flows(&model(), 12.0, 40, 5);
        let intact_topo = Topology::plus_grid(&snap, GridTopologyConfig::default()).unwrap();
        let intact = assign_traffic(&snap, &intact_topo, &flows, 25f64.to_radians()).unwrap();

        let mut mask = vec![true; snap.total_sats()];
        for (flat, alive) in mask.iter_mut().enumerate() {
            if flat % 24 < 12 && flat < 5 * 24 {
                *alive = false; // half of each of the first 5 planes
            }
        }
        let masked = snap.with_alive(&mask);
        let degraded_topo = Topology::plus_grid(&masked, GridTopologyConfig::default()).unwrap();
        let degraded = assign_traffic(&masked, &degraded_topo, &flows, 25f64.to_radians()).unwrap();
        assert!(degraded.routed <= intact.routed);
        assert_eq!(degraded.routed + degraded.unrouted, 40);
        for &((a, b), _) in &degraded.link_load {
            for end in [a, b] {
                assert!(mask[snap.flat_index(end).unwrap()], "load crosses dead sat {end:?}");
            }
        }
        let rerun = assign_traffic(&masked, &degraded_topo, &flows, 25f64.to_radians()).unwrap();
        assert_eq!(rerun.routed, degraded.routed);
        assert_eq!(rerun.link_load, degraded.link_load);
    }

    #[test]
    fn split_topology_matches_per_flow_routing() {
        // Strided whole-plane loss splits the +grid into components, so
        // many flows are cut off between served endpoints. Skipping their
        // searches on the component labels must leave every count, hop
        // and link load bit-identical to routing each flow alone.
        let c = constellation();
        let series = SnapshotSeries::build(&c, &[Epoch::J2000 + 1800.0]).unwrap();
        let snap = series.snapshot(0);
        let mut alive = vec![true; snap.total_sats()];
        for p in [0, 3, 6] {
            alive[p * 24..(p + 1) * 24].fill(false);
        }
        let masked = snap.with_alive(&alive);
        let topo = Topology::plus_grid(&masked, GridTopologyConfig::default()).unwrap();
        assert!(!topo.components(Some(&alive)).is_connected(), "the loss must split the grid");
        let min_elev = 25f64.to_radians();
        let flows = sample_flows(&model(), 15.0, 120, 21);
        let report = assign_traffic(&masked, &topo, &flows, min_elev).unwrap();

        let mut link_load: BTreeMap<(SatId, SatId), f64> = BTreeMap::new();
        let (mut routed, mut hop_sum, mut cut_off) = (0usize, 0usize, 0usize);
        for (flow, outcome) in flows.iter().zip(&report.flow_outcomes) {
            match crate::routing::route_ground_to_ground(
                &masked, &topo, flow.src, flow.dst, min_elev,
            ) {
                Ok(route) => {
                    let out = outcome.expect("reference routed the flow");
                    assert_eq!(route.delay_ms.to_bits(), out.delay_ms.to_bits());
                    assert_eq!((route.hops[0], *route.hops.last().unwrap()), out.ends);
                    routed += 1;
                    hop_sum += route.hops.len();
                    for pair in route.hops.windows(2) {
                        *link_load.entry((pair[0], pair[1])).or_insert(0.0) += flow.demand;
                    }
                }
                Err(LsnError::NoRoute) => {
                    assert_eq!(*outcome, None);
                    let served = |p| crate::routing::serving_satellite(&masked, p, min_elev);
                    if served(flow.src).is_some() && served(flow.dst).is_some() {
                        cut_off += 1;
                    }
                }
                Err(e) => panic!("reference failed: {e:?}"),
            }
        }
        assert!(cut_off > 0, "no flow crossed the split");
        assert!(routed > 0, "no flow stayed inside a component");
        assert_eq!((report.routed, report.unrouted), (routed, flows.len() - routed));
        assert_eq!(report.mean_hops.to_bits(), (hop_sum as f64 / routed as f64).to_bits());
        assert_eq!(report.link_load.len(), link_load.len());
        for ((key, got), (want_key, want)) in report.link_load.iter().zip(&link_load) {
            assert_eq!((key, got.to_bits()), (want_key, want.to_bits()));
        }
    }

    #[test]
    fn capacity_normalizes_the_load_statistics() {
        // Unit capacity is the historical raw-load report; capacity c
        // divides both load statistics by exactly c and changes nothing
        // else.
        let c = constellation();
        let series = SnapshotSeries::build(&c, &[Epoch::J2000]).unwrap();
        let snap = series.snapshot(0);
        let topo = Topology::plus_grid(&snap, GridTopologyConfig::default()).unwrap();
        let flows = sample_flows(&model(), 12.0, 30, 3);
        let unit = assign_traffic(&snap, &topo, &flows, 25f64.to_radians()).unwrap();
        assert_eq!(unit.link_capacity, 1.0);
        let (landmarks, labels) = (Landmarks::build(&topo), topo.components(None).labels);
        let index = FlowIndex::new(&flows);
        let servers = ServingIndex::new(snap, 25f64.to_radians()).attach(&index.points);
        let ends = serving_pairs(&index, &servers, &labels);
        let scaled = assign_guided(&snap, &topo, &landmarks, None, &flows, &ends, 2.0);
        assert_eq!(scaled.routed, unit.routed);
        assert_eq!(scaled.link_load, unit.link_load, "raw loads are capacity-independent");
        assert!((scaled.max_link_load() - unit.max_link_load() / 2.0).abs() < 1e-12);
        assert!((scaled.mean_link_load() - unit.mean_link_load() / 2.0).abs() < 1e-12);
    }

    #[test]
    fn dense_link_loads_match_the_per_link_map() {
        // Two arcs join (0, 0)–(0, 1), the last path carries no demand,
        // and node 1 lists node 2 before node 0, so neither arc order nor
        // first-load order is the key order — and with these demands the
        // sum's last bit depends on its order.
        let id = |plane, slot| SatId { plane, slot };
        let link = |a, b| crate::topology::Link { a, b, length_km: 1.0 };
        let topology = Topology::from_links(
            vec![
                link(id(0, 1), id(1, 0)),
                link(id(0, 0), id(0, 1)),
                link(id(0, 1), id(0, 0)),
                link(id(1, 0), id(1, 1)),
            ],
            vec![0, 2, 4],
        );
        let paths: [(f64, &[usize]); 4] =
            [(0.1, &[0, 1, 2]), (0.2, &[1, 0]), (0.2, &[0, 1]), (0.0, &[2, 3])];
        let mut reference: BTreeMap<(SatId, SatId), f64> = BTreeMap::new();
        let mut tally = LinkTally::new(&topology);
        for &(demand, hops) in &paths {
            for hop in hops.windows(2) {
                let key = (topology.id_of(hop[0]).unwrap(), topology.id_of(hop[1]).unwrap());
                *reference.entry(key).or_insert(0.0) += demand;
            }
            tally.add(hops, demand);
        }
        assert_eq!(reference.len(), 4, "one link per node pair, the idle one included");
        let loads = tally.into_loads();
        let key = |(a, b)| (topology.id_of(a).unwrap(), topology.id_of(b).unwrap());
        let bits = |(k, load): (_, f64)| (k, load.to_bits());
        assert_eq!(
            loads.iter().map(|&(k, load)| bits((key(k), load))).collect::<Vec<_>>(),
            reference.iter().map(|(&k, &load)| bits((k, load))).collect::<Vec<_>>(),
            "the whole per-link list, key for key and bit for bit"
        );
        for capacity in [1.0, 3.0] {
            let report = TrafficReport {
                routed: paths.len(),
                unrouted: 0,
                link_load: loads.iter().map(|&(k, load)| (key(k), load)).collect(),
                mean_stretch: f64::NAN,
                mean_hops: f64::NAN,
                flow_outcomes: Vec::new(),
                link_capacity: capacity,
            };
            let n = reference.len() as f64;
            let mean = reference.values().sum::<f64>() / n / capacity;
            let max = reference.values().copied().fold(0.0, f64::max) / capacity;
            assert_eq!(report.mean_link_load().to_bits(), mean.to_bits(), "capacity {capacity}");
            assert_eq!(report.max_link_load().to_bits(), max.to_bits(), "capacity {capacity}");
        }
        assert!(LinkTally::new(&topology).into_loads().is_empty());
        assert_eq!(mean_link_load::<()>(&[], 1.0), 0.0);
    }

    #[test]
    fn empty_flow_list() {
        let c = constellation();
        let series = SnapshotSeries::build(&c, &[Epoch::J2000]).unwrap();
        let snap = series.snapshot(0);
        let topo = Topology::plus_grid(&snap, GridTopologyConfig::default()).unwrap();
        let report = assign_traffic(&snap, &topo, &[], 0.5).unwrap();
        assert_eq!(report.routed, 0);
        assert_eq!(report.unrouted, 0);
        assert!(report.link_load.is_empty());
        assert!(report.mean_stretch.is_nan());
        assert_eq!(report.max_link_load(), 0.0);
        assert_eq!(report.mean_link_load(), 0.0);
        assert!(report.flow_outcomes.is_empty());
    }
}
