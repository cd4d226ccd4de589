//! Topology and time-expanded-routing benches on mega-constellation
//! geometry: the legacy rebuild-per-slot path (positions re-propagated
//! on demand, a post-hoc dedup pass) against the `SnapshotSeries` path
//! (one batch propagation over the whole time grid, links emitted once
//! over the shared positions). Both find each cross-plane partner with
//! the same exact O(S) scan of the next plane.
//!
//! Single-slot `plus_grid` is also timed on the plane shapes the
//! designers produce. Plane size follows altitude and minimum elevation,
//! not demand: at the default 560 km and 30 deg mask, Walker designs carry
//! 33-38 satellites per plane and SS designs 50, at every demand from 10
//! to 20,000 B. A 60 deg mask (`design.min_elevation_deg`) narrows each
//! footprint and raises that to 96 and 137.
//!
//! The headline numbers land in `BENCH_topology.json` at the repository
//! root; re-capture with
//! `cargo bench -p ssplane-bench --bench topology`.

use criterion::{criterion_group, criterion_main, Criterion};
use ssplane_astro::constants::EARTH_RADIUS_KM;
use ssplane_astro::coverage::elevation_at_central_angle;
use ssplane_astro::frames::ecef_to_eci;
use ssplane_astro::geo::GeoPoint;
use ssplane_astro::sunsync::sun_synchronous_orbit;
use ssplane_astro::time::Epoch;
use ssplane_astro::walker::WalkerDelta;
use ssplane_lsn::routing::{route_over_time, shortest_path};
use ssplane_lsn::snapshot::{time_grid, SnapshotSeries};
use ssplane_lsn::topology::{Constellation, GridTopologyConfig, SatId, Topology};
use ssplane_lsn::traffic::{assign_traffic, Flow};
use std::hint::black_box;

/// The benchmark time grid: 8 slots, 2 minutes apart.
const SLOTS: usize = 8;
const SLOT_S: f64 = 120.0;

/// Reference ground pair (New York -> London).
const NYC: (f64, f64) = (40.7, -74.0);
const LONDON: (f64, f64) = (51.5, -0.1);

/// A Walker delta of `planes x slots` satellites at `altitude_km` and
/// `inclination_deg`, phasing 1.
fn walker(altitude_km: f64, inclination_deg: f64, planes: usize, slots: usize) -> Constellation {
    let pattern =
        WalkerDelta::new(altitude_km, inclination_deg.to_radians(), planes * slots, planes, 1)
            .unwrap()
            .generate()
            .unwrap();
    let planes = pattern.chunks(slots).map(<[_]>::to_vec).collect();
    Constellation::from_planes(Epoch::J2000, planes).unwrap()
}

/// The mega-constellation geometry: a 10 000-satellite Walker delta
/// (50 planes x 200 slots at 550 km / 53 deg), a large-graph stress
/// shape. At the default 30 deg mask no designer produces 200-satellite
/// planes; the SS designer reaches them near a 69 deg mask.
fn mega_constellation() -> Constellation {
    walker(550.0, 53.0, 50, 200)
}

/// The shape of an SS design: `planes` sun-synchronous planes (560 km,
/// 97.6 deg) of `slots` satellites, LTANs spread evenly over the day.
fn ss_shape(planes: usize, slots: usize) -> Constellation {
    let orbit = sun_synchronous_orbit(560.0).unwrap();
    let planes = (0..planes)
        .map(|p| {
            let ltan = 24.0 * p as f64 / planes as f64;
            orbit.with_ltan(ltan).plane_elements(Epoch::J2000, slots).unwrap()
        })
        .collect();
    Constellation::from_planes(Epoch::J2000, planes).unwrap()
}

/// A deterministic city-to-city flow set (no demand model needed here).
fn flows() -> Vec<Flow> {
    let cities = [
        (40.7, -74.0),
        (51.5, -0.1),
        (35.7, 139.7),
        (-23.5, -46.6),
        (19.1, 72.9),
        (30.0, 31.2),
        (55.8, 37.6),
        (1.3, 103.8),
        (34.1, -118.2),
        (48.9, 2.3),
        (-33.9, 151.2),
        (52.5, 13.4),
    ];
    let mut out = Vec::new();
    for (i, &(a_lat, a_lon)) in cities.iter().enumerate() {
        for &(b_lat, b_lon) in cities.iter().skip(i + 1).step_by(5) {
            out.push(Flow {
                src: GeoPoint::from_degrees(a_lat, a_lon),
                dst: GeoPoint::from_degrees(b_lat, b_lon),
                demand: 1.0,
            });
        }
    }
    out
}

/// The legacy ground-attachment scan: propagates every satellite at `t`
/// (exactly what `serving_satellite` did before the snapshot refactor).
fn serving_satellite_legacy(
    c: &Constellation,
    ground: GeoPoint,
    t: Epoch,
    min_elevation: f64,
) -> Option<(SatId, f64)> {
    let g_eci = ecef_to_eci(t, ground.to_unit_vector() * EARTH_RADIUS_KM);
    let mut best: Option<(SatId, f64)> = None;
    for id in c.ids() {
        let r = c.position(id, t).unwrap();
        let central = g_eci.angle_to(r);
        let elev = elevation_at_central_angle(r.norm() - EARTH_RADIUS_KM, central.max(1e-9));
        if elev >= min_elevation && best.is_none_or(|(_, be)| elev > be) {
            best = Some((id, elev));
        }
    }
    best
}

/// The legacy time-expanded route: rebuild the topology and re-propagate
/// ground attachment per slot. Returns the reachable-slot count.
fn route_over_time_legacy(
    c: &Constellation,
    src: GeoPoint,
    dst: GeoPoint,
    start: Epoch,
    min_elevation: f64,
    config: GridTopologyConfig,
) -> usize {
    let mut reachable = 0usize;
    for k in 0..SLOTS {
        let t = start + k as f64 * SLOT_S;
        let topology = Topology::plus_grid_at(c, t, config).unwrap();
        let (Some((s_sat, _)), Some((d_sat, _))) = (
            serving_satellite_legacy(c, src, t, min_elevation),
            serving_satellite_legacy(c, dst, t, min_elevation),
        ) else {
            continue;
        };
        if s_sat == d_sat || shortest_path(&topology, s_sat, d_sat).is_ok() {
            reachable += 1;
        }
    }
    reachable
}

/// The legacy traffic stage: per slot, rebuild the topology and route
/// every flow with per-flow ground attachment (2 N propagations per
/// flow) and a per-pair Dijkstra.
fn traffic_stage_legacy(
    c: &Constellation,
    flow_list: &[Flow],
    start: Epoch,
    min_elevation: f64,
    config: GridTopologyConfig,
) -> usize {
    let mut routed = 0usize;
    for k in 0..SLOTS {
        let t = start + k as f64 * SLOT_S;
        let topology = Topology::plus_grid_at(c, t, config).unwrap();
        for flow in flow_list {
            let (Some((s_sat, _)), Some((d_sat, _))) = (
                serving_satellite_legacy(c, flow.src, t, min_elevation),
                serving_satellite_legacy(c, flow.dst, t, min_elevation),
            ) else {
                continue;
            };
            if s_sat == d_sat || shortest_path(&topology, s_sat, d_sat).is_ok() {
                routed += 1;
            }
        }
    }
    routed
}

/// The snapshot-path traffic stage: one series build, then per-slot
/// topology + batched assignment.
fn traffic_stage_snapshot(
    c: &Constellation,
    flow_list: &[Flow],
    start: Epoch,
    min_elevation: f64,
    config: GridTopologyConfig,
) -> usize {
    let series = SnapshotSeries::build_parallel(c, &time_grid(start, SLOTS, SLOT_S), 0).unwrap();
    let mut routed = 0usize;
    for snapshot in series.iter() {
        let topology = Topology::plus_grid(&snapshot, config).unwrap();
        routed += assign_traffic(&snapshot, &topology, flow_list, min_elevation).unwrap().routed;
    }
    routed
}

fn bench_topology(criterion: &mut Criterion) {
    let c = mega_constellation();
    let start = Epoch::J2000;
    let config = GridTopologyConfig::default();
    let min_elev = 20f64.to_radians();
    let src = GeoPoint::from_degrees(NYC.0, NYC.1);
    let dst = GeoPoint::from_degrees(LONDON.0, LONDON.1);
    let flow_list = flows();

    // Sanity: the two paths agree before we time them.
    let legacy_reachable = route_over_time_legacy(&c, src, dst, start, min_elev, config);
    let series = SnapshotSeries::build(&c, &time_grid(start, SLOTS, SLOT_S)).unwrap();
    let snapshot_routes = route_over_time(&series, src, dst, min_elev, config).unwrap();
    assert_eq!(legacy_reachable, snapshot_routes.reachable_slots(), "paths disagree");
    assert_eq!(
        traffic_stage_legacy(&c, &flow_list, start, min_elev, config),
        traffic_stage_snapshot(&c, &flow_list, start, min_elev, config),
        "traffic stages disagree"
    );

    let mut group = criterion.benchmark_group("topology_10000sats");
    group.sample_size(10);

    // Single-slot +grid: legacy on-demand propagation and dedup vs one
    // build over a prebuilt snapshot.
    group.bench_with_input(
        criterion::BenchmarkId::new("plus_grid", "legacy_scan"),
        &(),
        |b, ()| {
            b.iter(|| black_box(Topology::plus_grid_at(&c, start, config).unwrap().edges().count()))
        },
    );
    let single = SnapshotSeries::build(&c, &[start]).unwrap();
    group.bench_with_input(criterion::BenchmarkId::new("plus_grid", "snapshot"), &(), |b, ()| {
        b.iter(|| {
            black_box(Topology::plus_grid(&single.snapshot(0), config).unwrap().edges().count())
        })
    });

    // The multi-slot network stage, slot-by-slot rebuild vs shared cache.
    group.bench_with_input(
        criterion::BenchmarkId::new("route_over_time_8slots", "legacy_rebuild"),
        &(),
        |b, ()| b.iter(|| black_box(route_over_time_legacy(&c, src, dst, start, min_elev, config))),
    );
    group.bench_with_input(
        criterion::BenchmarkId::new("route_over_time_8slots", "snapshot_series"),
        &(),
        |b, ()| {
            b.iter(|| {
                let series =
                    SnapshotSeries::build_parallel(&c, &time_grid(start, SLOTS, SLOT_S), 0)
                        .unwrap();
                black_box(
                    route_over_time(&series, src, dst, min_elev, config).unwrap().reachable_slots(),
                )
            })
        },
    );

    group.bench_with_input(
        criterion::BenchmarkId::new("traffic_stage_8slots", "legacy_rebuild"),
        &(),
        |b, ()| b.iter(|| black_box(traffic_stage_legacy(&c, &flow_list, start, min_elev, config))),
    );
    group.bench_with_input(
        criterion::BenchmarkId::new("traffic_stage_8slots", "snapshot_series"),
        &(),
        |b, ()| {
            b.iter(|| black_box(traffic_stage_snapshot(&c, &flow_list, start, min_elev, config)))
        },
    );

    group.finish();
}

/// Single-slot `plus_grid` over a prebuilt snapshot, on the plane shapes
/// the designers produce for the mega-network workload's 600 B demand.
/// At the default 30 deg mask: a Walker 231 x 34 at 560 km / 47 deg (the
/// WD design, 7,854 satellites) and the SS design's 53 x 50 at 97.6 deg
/// (2,650 satellites). At a 60 deg mask: a Walker 615 x 96 (59,040
/// satellites) and SS 54 x 137 (7,398 satellites).
fn bench_designer_shapes(criterion: &mut Criterion) {
    let config = GridTopologyConfig::default();
    let mut group = criterion.benchmark_group("topology_designer_shapes");
    group.sample_size(10);
    for (name, c) in [
        ("walker_231x34", walker(560.0, 47.0, 231, 34)),
        ("ss_53x50", ss_shape(53, 50)),
        ("walker_615x96", walker(560.0, 47.0, 615, 96)),
        ("ss_54x137", ss_shape(54, 137)),
    ] {
        let single = SnapshotSeries::build(&c, &[Epoch::J2000]).unwrap();
        group.bench_with_input(criterion::BenchmarkId::new("plus_grid", name), &(), |b, ()| {
            b.iter(|| {
                black_box(Topology::plus_grid(&single.snapshot(0), config).unwrap().edges().count())
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_topology, bench_designer_shapes);
criterion_main!(benches);
