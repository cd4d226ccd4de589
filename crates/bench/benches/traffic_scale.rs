//! Population-scale traffic-engine benches: seeded gravity-model
//! synthesis of the 100k-pair workload (whole, and split into its
//! seed-free field and its seeded draws), the workload's interning, and
//! the capacity-constrained
//! served-demand assignment (attachment aggregation → k-path candidates
//! → residual waterfilling) at 10k-satellite scale — one slot and the
//! full 4-slot grid, the per-scenario stage `scenario-runner` pays. On
//! the same slot, the sampled-flow path a network point routes twice
//! (intact, then under an attack mask): ground attachment through the
//! serving index, the landmark tables the routing is bounded by, and
//! landmark-guided shortest-path routing of 200 demand-sampled flows
//! over the intact topology and over one rebuilt under a 4-plane mask;
//! then the same mask as the degraded evaluator runs it, over the intact
//! slot's topology and landmarks with the lost satellites skipped.
//!
//! The headline numbers land in `BENCH_traffic_scale.json` at the
//! repository root; re-capture with
//! `cargo bench -p ssplane-bench --bench traffic_scale`.

use criterion::{criterion_group, criterion_main, Criterion};
use ssplane_astro::time::Epoch;
use ssplane_astro::walker::WalkerDelta;
use ssplane_demand::gravity::{gravity_flows, gravity_flows_in, GravityConfig, GravityField};
use ssplane_demand::spatiotemporal::DemandModel;
use ssplane_lsn::optimizer::DegradedEvaluator;
use ssplane_lsn::routing::{Landmarks, ServingIndex};
use ssplane_lsn::snapshot::{time_grid, SnapshotSeries};
use ssplane_lsn::topology::{Constellation, Topology};
use ssplane_lsn::traffic::{assign_traffic, sample_flows};
use ssplane_lsn::traffic_engine::{assign_capacity_constrained, CapacityConfig, TrafficWorkload};
use std::hint::black_box;

/// The benchmark time grid: 4 slots, 2 minutes apart (the multi-slot
/// stage assigns the workload once per slot).
const SLOTS: usize = 4;
const SLOT_S: f64 = 120.0;

/// City-pair flows in the synthesized workload.
const PAIRS: usize = 100_000;

/// Total offered demand in link-capacity units — deep enough into
/// saturation that waterfilling and drop accounting are both on the
/// measured path, not just the attachment aggregation.
const OFFERED: f64 = 200.0;

/// Demand-sampled flows a network point routes per pass.
const SAMPLED_FLOWS: usize = 200;

/// Planes the masked sampled-flow case loses: four, evenly strided, so
/// the +grid splits into components and many flows are cut off.
const LOST_PLANES: [usize; 4] = [0, 12, 25, 37];

fn walker(planes: usize, per_plane: usize) -> Constellation {
    let pattern = WalkerDelta::new(550.0, 53f64.to_radians(), planes * per_plane, planes, 1)
        .unwrap()
        .generate()
        .unwrap();
    Constellation::from_planes(Epoch::J2000, pattern.chunks(per_plane).map(<[_]>::to_vec).collect())
        .unwrap()
}

fn bench_traffic_scale(criterion: &mut Criterion) {
    let model = DemandModel::synthetic_seeded(42).unwrap();
    let config = GravityConfig { pairs: PAIRS, ..GravityConfig::default() };

    let mut group = criterion.benchmark_group("traffic_scale");
    group.sample_size(10);

    // Workload synthesis: 100k seeded city-pair flows over the
    // population grid (chunked parallel RNG, deterministic per seed).
    group.bench_with_input(
        criterion::BenchmarkId::new("gravity_flows", format!("{PAIRS}pairs")),
        &(),
        |b, ()| b.iter(|| black_box(gravity_flows(&model, &config, 0).unwrap().len())),
    );
    // Its two halves: the seed-free field a run builds once per (model,
    // hour, site budget), and the seeded draws every point pays.
    group.bench_with_input(
        criterion::BenchmarkId::new("gravity_field", format!("{}sites", config.sites)),
        &(),
        |b, ()| {
            b.iter(|| black_box(GravityField::new(&model, config.utc_hour, config.sites).total()))
        },
    );
    let field = GravityField::new(&model, config.utc_hour, config.sites);
    group.bench_with_input(
        criterion::BenchmarkId::new("gravity_draws", format!("{PAIRS}pairs")),
        &(),
        |b, ()| b.iter(|| black_box(gravity_flows_in(&field, &config, 0).unwrap().len())),
    );

    let gravity = gravity_flows(&model, &config, 0).unwrap();
    let total: f64 = gravity.iter().map(|g| g.rate).sum();
    let capacity = CapacityConfig { link_capacity: 1.0, k_paths: 2 };
    // The workload a point builds from its draws, serially: the flow
    // list plus its endpoints and endpoint pairs, interned through the
    // draw's site table and one dense site-pair table.
    group.bench_with_input(
        criterion::BenchmarkId::new("from_gravity", format!("{PAIRS}pairs")),
        &(),
        |b, ()| {
            b.iter(|| black_box(TrafficWorkload::from_gravity(&gravity, OFFERED / total, capacity)))
        },
    );
    let workload = TrafficWorkload::from_gravity(&gravity, OFFERED / total, capacity);

    // 10k satellites: 50 planes x 200 slots (the mega-constellation
    // geometry every other bench uses), with the per-slot +grid
    // topologies prebuilt exactly as the runner's evaluator holds them.
    let c = walker(50, 200);
    let series =
        SnapshotSeries::build_parallel(&c, &time_grid(Epoch::J2000, SLOTS, SLOT_S), 0).unwrap();
    let topologies: Vec<Topology> = series
        .iter()
        .map(|snapshot| Topology::plus_grid(&snapshot, Default::default()).unwrap())
        .collect();
    let min_elevation = 20f64.to_radians();

    // Sampled-flow routing on slot 0: index build plus one query per
    // distinct endpoint, then whole assignments, intact and masked.
    let snapshot = series.snapshot(0);
    let flows = sample_flows(&model, 12.0, SAMPLED_FLOWS, 7);
    group.bench_with_input(
        criterion::BenchmarkId::new("serving_index", format!("{}queries", 2 * SAMPLED_FLOWS)),
        &(),
        |b, ()| {
            b.iter(|| {
                let index = ServingIndex::new(snapshot, min_elevation);
                let served = flows
                    .iter()
                    .flat_map(|f| [f.src, f.dst])
                    .filter(|&p| index.query(p).is_some())
                    .count();
                black_box(served)
            })
        },
    );
    // The routing bounds of one slot: six landmarks by farthest-point
    // selection, one full Dijkstra each (plus the selection's seed run).
    group.bench_with_input(criterion::BenchmarkId::new("landmarks", "build"), &(), |b, ()| {
        b.iter(|| black_box(Landmarks::build(&topologies[0])))
    });
    group.bench_with_input(criterion::BenchmarkId::new("sampled_flows", "intact"), &(), |b, ()| {
        b.iter(|| {
            black_box(
                assign_traffic(&snapshot, &topologies[0], &flows, min_elevation).unwrap().routed,
            )
        })
    });
    let mut alive = vec![true; snapshot.total_sats()];
    let offsets = snapshot.plane_offsets();
    for p in LOST_PLANES {
        alive[offsets[p]..offsets[p + 1]].fill(false);
    }
    let masked = snapshot.with_alive(&alive);
    let masked_topology = Topology::plus_grid(&masked, Default::default()).unwrap();
    group.bench_with_input(
        criterion::BenchmarkId::new("sampled_flows", "4planes_masked"),
        &(),
        |b, ()| {
            b.iter(|| {
                black_box(
                    assign_traffic(&masked, &masked_topology, &flows, min_elevation)
                        .unwrap()
                        .routed,
                )
            })
        },
    );
    // The degraded pass as a network point runs it: the flows re-routed
    // over the evaluator's intact slot and landmarks with the masked
    // satellites skipped, survivor components counted.
    let first_slot = SnapshotSeries::build(&c, &[snapshot.epoch()]).unwrap();
    let evaluator =
        DegradedEvaluator::new(&first_slot, &flows, min_elevation, Default::default()).unwrap();
    group.bench_with_input(
        criterion::BenchmarkId::new("degraded_slot", "4planes_masked"),
        &(),
        |b, ()| {
            b.iter(|| black_box(evaluator.evaluate_slot(0, Some(&alive)).unwrap().traffic.routed))
        },
    );

    // One slot: ServingIndex attachment of 100k flows + penalized
    // k-path rounds + waterfilling on the 10k-node topology.
    group.sample_size(5);
    group.bench_with_input(
        criterion::BenchmarkId::new("assign_slot", format!("10000sats_{PAIRS}flows")),
        &(),
        |b, ()| {
            b.iter(|| {
                black_box(
                    assign_capacity_constrained(
                        &series.snapshot(0),
                        &topologies[0],
                        &workload.flows,
                        min_elevation,
                        &workload.capacity,
                    )
                    .unwrap()
                    .served_fraction,
                )
            })
        },
    );

    // The full multi-slot stage: the acceptance number — every slot of
    // the grid assigned back-to-back, as one scenario point pays it.
    group.sample_size(3);
    group.bench_with_input(
        criterion::BenchmarkId::new("assign_grid", format!("{SLOTS}slots")),
        &(),
        |b, ()| {
            b.iter(|| {
                let mut served = 0.0;
                for (k, topology) in topologies.iter().enumerate() {
                    served += assign_capacity_constrained(
                        &series.snapshot(k),
                        topology,
                        &workload.flows,
                        min_elevation,
                        &workload.capacity,
                    )
                    .unwrap()
                    .served_fraction;
                }
                black_box(served)
            })
        },
    );

    group.finish();
}

criterion_group!(benches, bench_traffic_scale);
criterion_main!(benches);
