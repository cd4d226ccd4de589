//! Degraded-network benches on mega-constellation geometry: the
//! outage-coupled network stage (attack mask + outage-timeline mask per
//! slot over one shared `SnapshotSeries`) against the intact stage, plus
//! the cost of the masked +grid build, of generating a 10k-satellite
//! outage timeline, and of the scalar survivability report the same
//! renewal loop yields without keeping intervals.
//!
//! The headline numbers land in `BENCH_disruption.json` at the
//! repository root; re-capture with
//! `cargo bench -p ssplane-bench --bench disruption`.

use criterion::{criterion_group, criterion_main, Criterion};
use ssplane_astro::geo::GeoPoint;
use ssplane_astro::time::Epoch;
use ssplane_astro::walker::WalkerDelta;
use ssplane_lsn::disruption::{AttackModel, AttackTarget, RadiationExponential, RandomSats};
use ssplane_lsn::failures::FailureModel;
use ssplane_lsn::snapshot::{time_grid, SnapshotSeries};
use ssplane_lsn::spares::SparePolicy;
use ssplane_lsn::survivability::{outage_timeline, simulate_process, SurvivabilityConfig};
use ssplane_lsn::topology::{Constellation, GridTopologyConfig, Topology};
use ssplane_lsn::traffic::{assign_traffic, Flow};
use ssplane_radiation::fluence::DailyFluence;
use std::hint::black_box;

/// The benchmark time grid: 8 slots, 2 minutes apart.
const SLOTS: usize = 8;
const SLOT_S: f64 = 120.0;

/// Mega-constellation shape: 50 planes x 200 slots at 550 km / 53 deg.
const PLANES: usize = 50;
const PER_PLANE: usize = 200;

fn mega_constellation() -> (Constellation, Vec<Vec<ssplane_astro::kepler::OrbitalElements>>) {
    let pattern = WalkerDelta::new(550.0, 53f64.to_radians(), PLANES * PER_PLANE, PLANES, 1)
        .unwrap()
        .generate()
        .unwrap();
    let planes: Vec<Vec<_>> = pattern.chunks(PER_PLANE).map(<[_]>::to_vec).collect();
    (Constellation::from_planes(Epoch::J2000, planes.clone()).unwrap(), planes)
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

/// The network stage over a prebuilt series, optionally masking each
/// slot with `masks[k]`. Returns total routed flows.
fn traffic_stage(
    series: &SnapshotSeries,
    flow_list: &[Flow],
    min_elevation: f64,
    config: GridTopologyConfig,
    masks: Option<&[Vec<bool>]>,
) -> usize {
    let mut routed = 0usize;
    for (k, snapshot) in series.iter().enumerate() {
        let snapshot = match masks {
            Some(m) => snapshot.with_alive(&m[k]),
            None => snapshot,
        };
        let topology = Topology::plus_grid(&snapshot, config).unwrap();
        routed += assign_traffic(&snapshot, &topology, flow_list, min_elevation).unwrap().routed;
    }
    routed
}

fn bench_disruption(criterion: &mut Criterion) {
    let (c, element_planes) = mega_constellation();
    let start = Epoch::J2000;
    let config = GridTopologyConfig::default();
    let min_elev = 20f64.to_radians();
    let flow_list = flows();
    let series = SnapshotSeries::build_parallel(&c, &time_grid(start, SLOTS, SLOT_S), 0).unwrap();
    let total = series.n_sats();

    // The disruption: a seeded 10% random-satellite attack plus a hot
    // radiation-exponential outage timeline, sampled per slot across the
    // mission — the same masking the scenario engine's
    // `network.with_outages` stage performs.
    let target = AttackTarget {
        planes: element_planes.iter().map(Vec::as_slice).collect(),
        plane_groups: (0..PLANES).collect(),
        epoch: start,
    };
    let attack = RandomSats { sats_lost: total / 10 };
    let destroyed = attack.destroyed(&target, 42).unwrap();
    let mut alive_base = vec![true; total];
    for id in &destroyed {
        alive_base[id.plane * PER_PLANE + id.slot] = false;
    }
    let dead: Vec<bool> = alive_base.iter().map(|&a| !a).collect();
    let doses = vec![DailyFluence { electron: 3.5e10, proton: 2.2e7 }; PLANES];
    let plane_sats = vec![PER_PLANE; PLANES];
    let process = RadiationExponential { model: FailureModel::default() };
    let policy = SparePolicy::PerPlane { spares_per_plane: 2, replacement_days: 3.0 };
    let sim_config = SurvivabilityConfig::default();
    let timeline =
        outage_timeline(&doses, &plane_sats, Some(&dead), &process, &policy, sim_config).unwrap();
    let masks: Vec<Vec<bool>> = (0..SLOTS)
        .map(|k| {
            let mut mask = alive_base.clone();
            let day = timeline.horizon_days * (k as f64 + 0.5) / SLOTS as f64;
            timeline.mask_alive(day, &mut mask);
            mask
        })
        .collect();

    // Sanity: the degraded stage can never out-route the intact one.
    let intact_routed = traffic_stage(&series, &flow_list, min_elev, config, None);
    let degraded_routed = traffic_stage(&series, &flow_list, min_elev, config, Some(&masks));
    assert!(degraded_routed <= intact_routed, "{degraded_routed} > {intact_routed}");

    let mut group = criterion.benchmark_group("disruption_10000sats");
    group.sample_size(10);

    // Generating the whole 10k-satellite outage timeline (5-year
    // mission, per-satellite intervals).
    group.bench_with_input(
        criterion::BenchmarkId::new("outage_timeline", "5y_mission"),
        &(),
        |b, ()| {
            b.iter(|| {
                black_box(
                    outage_timeline(
                        &doses,
                        &plane_sats,
                        Some(&dead),
                        &process,
                        &policy,
                        sim_config,
                    )
                    .unwrap()
                    .failures,
                )
            })
        },
    );

    // The scalar survivability report over the whole 10k-satellite fleet
    // (no attack mask): the same renewal loop, keeping no intervals.
    group.bench_with_input(
        criterion::BenchmarkId::new("simulate_process", "5y_mission"),
        &(),
        |b, ()| {
            b.iter(|| {
                black_box(
                    simulate_process(&doses, PER_PLANE, &process, &policy, sim_config)
                        .unwrap()
                        .failures,
                )
            })
        },
    );

    // Single-slot +grid: intact vs masked build.
    let single = SnapshotSeries::build(&c, &[start]).unwrap();
    group.bench_with_input(criterion::BenchmarkId::new("plus_grid", "intact"), &(), |b, ()| {
        b.iter(|| {
            black_box(Topology::plus_grid(&single.snapshot(0), config).unwrap().edges().count())
        })
    });
    group.bench_with_input(
        criterion::BenchmarkId::new("plus_grid", "masked_10pct"),
        &(),
        |b, ()| {
            b.iter(|| {
                black_box(
                    Topology::plus_grid(&single.snapshot(0).with_alive(&masks[0]), config)
                        .unwrap()
                        .edges()
                        .count(),
                )
            })
        },
    );

    // The 8-slot network stage: intact baseline vs the outage-coupled
    // degraded pass (both off the same prebuilt series, as in the
    // scenario engine).
    group.bench_with_input(
        criterion::BenchmarkId::new("traffic_stage_8slots", "intact"),
        &(),
        |b, ()| b.iter(|| black_box(traffic_stage(&series, &flow_list, min_elev, config, None))),
    );
    group.bench_with_input(
        criterion::BenchmarkId::new("traffic_stage_8slots", "degraded"),
        &(),
        |b, ()| {
            b.iter(|| black_box(traffic_stage(&series, &flow_list, min_elev, config, Some(&masks))))
        },
    );

    group.finish();
}

criterion_group!(benches, bench_disruption);
criterion_main!(benches);
