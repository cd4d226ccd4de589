//! Attack-search benches: candidate-evaluation throughput of the
//! `DegradedEvaluator` (the per-candidate mask → filtered topology →
//! traffic-assignment pipeline every search step pays) against the
//! incremental `IncrementalScorer` delta path at 1k- and 10k-satellite
//! scale, for three objectives: routed fraction (component labels),
//! load inflation (shortest-path-tree repair through per-plane cuts)
//! and served demand over a gravity workload (ranked attachment, the
//! indexed demand tally and k-path reuse). One end-to-end
//! `optimize_attack` run on the 1k constellation closes the set. Every
//! incremental batch is pinned byte-identical to `score_attack` before
//! it is timed.
//!
//! The headline numbers land in `BENCH_attack_opt.json` at the
//! repository root; re-capture with
//! `cargo bench -p ssplane-bench --bench attack_opt`.

use criterion::{criterion_group, criterion_main, BenchmarkGroup, Criterion};
use ssplane_astro::geo::GeoPoint;
use ssplane_astro::par::par_map;
use ssplane_astro::time::Epoch;
use ssplane_astro::walker::WalkerDelta;
use ssplane_demand::gravity::{gravity_flows, GravityConfig};
use ssplane_demand::spatiotemporal::DemandModel;
use ssplane_lsn::optimizer::{
    optimize_attack, AttackBudget, AttackObjective, AttackSearchConfig, DegradedEvaluator,
};
use ssplane_lsn::snapshot::{time_grid, SnapshotSeries};
use ssplane_lsn::topology::{Constellation, SatId};
use ssplane_lsn::traffic::Flow;
use ssplane_lsn::traffic_engine::{CapacityConfig, TrafficWorkload};
use ssplane_scenario::sweep::OBJECTIVES;
use std::hint::black_box;

/// The benchmark time grid: 4 slots, 2 minutes apart (every candidate
/// is scored over all slots).
const SLOTS: usize = 4;
const SLOT_S: f64 = 120.0;

/// Candidates per measured batch (single-plane attacks, one per plane
/// stride — the shape a greedy frontier scores).
const BATCH: usize = 10;

fn walker(planes: usize, per_plane: usize) -> Constellation {
    let pattern = WalkerDelta::new(550.0, 53f64.to_radians(), planes * per_plane, planes, 1)
        .unwrap()
        .generate()
        .unwrap();
    Constellation::from_planes(Epoch::J2000, pattern.chunks(per_plane).map(<[_]>::to_vec).collect())
        .unwrap()
}

/// The same deterministic city-to-city flow set the disruption bench
/// routes.
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

/// Gravity pairs in the served-demand workload (the attack-search
/// workload's size).
const GRAVITY_PAIRS: usize = 20_000;

/// Offered gravity demand in link-capacity units: deep enough into
/// saturation that waterfilling and drop accounting stay on the path.
const OFFERED: f64 = 200.0;

/// The served-demand workload: seeded gravity flows over the synthetic
/// population grid, rescaled to [`OFFERED`], two candidate paths per
/// satellite pair.
fn gravity_workload() -> TrafficWorkload {
    let model = DemandModel::synthetic_seeded(42).unwrap();
    let config = GravityConfig { pairs: GRAVITY_PAIRS, sites: 64, ..GravityConfig::default() };
    let gravity = gravity_flows(&model, &config, 0).unwrap();
    let total: f64 = gravity.iter().map(|g| g.rate).sum();
    TrafficWorkload::from_gravity(
        &gravity,
        OFFERED / total,
        CapacityConfig { link_capacity: 1.0, k_paths: 2 },
    )
}

/// Times the incremental scorer of `objective` on `candidates`, after
/// pinning its batch bit for bit to the full `score_attack` path. The
/// cache is cleared inside the loop so every iteration pays the honest
/// delta-from-intact cost, never a seen-cache hit.
fn incremental_batch(
    group: &mut BenchmarkGroup<'_>,
    evaluator: &DegradedEvaluator<'_>,
    candidates: &[Vec<SatId>],
    objective: AttackObjective,
) {
    let scorer = evaluator.incremental_scorer(objective);
    let full: Vec<u64> = candidates
        .iter()
        .map(|c| evaluator.score_attack(c, objective).unwrap().to_bits())
        .collect();
    let fast: Vec<u64> = scorer.score_batch(candidates, 0).iter().map(|v| v.to_bits()).collect();
    let name = OBJECTIVES.name(objective);
    assert_eq!(full, fast, "incremental {name} diverged from score_attack");
    group.bench_with_input(
        criterion::BenchmarkId::new("score_batch_incremental", format!("{name}/{BATCH}x1plane")),
        &(),
        |b, ()| {
            b.iter(|| {
                scorer.clear_cache();
                black_box(scorer.score_batch(candidates, 0).len())
            })
        },
    );
}

/// `BATCH` single-plane candidates, strided across the plane count.
fn plane_candidates(planes: usize, per_plane: usize) -> Vec<Vec<SatId>> {
    (0..BATCH)
        .map(|k| {
            let p = k * planes / BATCH;
            (0..per_plane).map(|s| SatId { plane: p, slot: s }).collect()
        })
        .collect()
}

fn bench_scale(
    criterion: &mut Criterion,
    label: &str,
    planes: usize,
    per_plane: usize,
    workload: &TrafficWorkload,
) {
    let c = walker(planes, per_plane);
    let series =
        SnapshotSeries::build_parallel(&c, &time_grid(Epoch::J2000, SLOTS, SLOT_S), 0).unwrap();
    let flow_list = flows();
    let evaluator =
        DegradedEvaluator::new(&series, &flow_list, 20f64.to_radians(), Default::default())
            .unwrap();
    let candidates = plane_candidates(planes, per_plane);

    let group_name = format!("attack_opt_{label}");
    let mut group = criterion.benchmark_group(&group_name);
    group.sample_size(10);

    // Evaluator construction: the once-per-system cost (intact per-slot
    // topologies + intact traffic) the candidates amortize.
    group.bench_with_input(
        criterion::BenchmarkId::new("evaluator_build", format!("{SLOTS}slots")),
        &(),
        |b, ()| {
            b.iter(|| {
                black_box(
                    DegradedEvaluator::new(
                        &series,
                        &flow_list,
                        20f64.to_radians(),
                        Default::default(),
                    )
                    .unwrap()
                    .intact()
                    .len(),
                )
            })
        },
    );

    // The headline: candidate-evaluation throughput of the full path,
    // `score_attack` mapped over the batch in parallel. Each candidate
    // filters the prebuilt intact topology per slot and re-routes the
    // flow set — candidates/sec = BATCH / measured seconds.
    group.bench_with_input(
        criterion::BenchmarkId::new("score_batch", format!("{BATCH}x1plane")),
        &(),
        |b, ()| {
            b.iter(|| {
                let scores = par_map(candidates.iter().collect(), 0, |c| {
                    evaluator.score_attack(c, AttackObjective::RoutedFraction).unwrap()
                });
                black_box(scores.len())
            })
        },
    );

    // The incremental scorer on the same batch, per objective: routed
    // fraction through component labels, load inflation through
    // per-source tree repairs cut by whole-plane bitsets, and served
    // demand over a gravity workload (its own evaluator, since the
    // workload rides on the evaluator).
    incremental_batch(&mut group, &evaluator, &candidates, AttackObjective::RoutedFraction);
    incremental_batch(&mut group, &evaluator, &candidates, AttackObjective::LoadInflation);
    let with_workload = DegradedEvaluator::with_workload(
        &series,
        &flow_list,
        20f64.to_radians(),
        Default::default(),
        Some(workload),
    )
    .unwrap();
    incremental_batch(&mut group, &with_workload, &candidates, AttackObjective::ServedDemand);

    group.finish();
}

fn bench_attack_opt(criterion: &mut Criterion) {
    let workload = gravity_workload();
    // 1k satellites: 10 planes x 100 slots.
    bench_scale(criterion, "1000sats", 10, 100, &workload);
    // 10k satellites: 50 planes x 200 slots (the mega-constellation
    // geometry every other bench uses).
    bench_scale(criterion, "10000sats", 50, 200, &workload);

    // One full search at 1k-satellite scale for context: greedy k=2 over
    // 10 planes + 1 restart of 4 swaps.
    let c = walker(10, 100);
    let series =
        SnapshotSeries::build_parallel(&c, &time_grid(Epoch::J2000, SLOTS, SLOT_S), 0).unwrap();
    let flow_list = flows();
    let evaluator =
        DegradedEvaluator::new(&series, &flow_list, 20f64.to_radians(), Default::default())
            .unwrap();
    let config = AttackSearchConfig {
        objective: AttackObjective::RoutedFraction,
        budget: AttackBudget::Planes(2),
        restarts: 1,
        swaps: 4,
        threads: 0,
    };
    let mut group = criterion.benchmark_group("attack_opt_search");
    group.sample_size(10);
    group.bench_with_input(
        criterion::BenchmarkId::new("optimize_attack", "1000sats_2planes"),
        &(),
        |b, ()| {
            b.iter(|| {
                black_box(
                    optimize_attack(&evaluator, &config, 42, &[]).unwrap().candidates_evaluated,
                )
            })
        },
    );
    group.finish();
}

criterion_group!(benches, bench_attack_opt);
criterion_main!(benches);
