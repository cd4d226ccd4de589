//! Percolation-analytics benches on mega-constellation geometry: the
//! union-find loss-fraction sweep (32 steps over 10k satellites), the
//! residual-checked LOBPCG λ₂, and the full scenario-stage equivalent
//! (4 slots × 2 orderings + per-slot λ₂) — the ISSUE's "a few seconds"
//! budget, measured.
//!
//! The headline numbers land in `BENCH_percolation.json` at the
//! repository root; re-capture with
//! `cargo bench -p ssplane-bench --bench percolation`.

use criterion::{criterion_group, criterion_main, Criterion};
use ssplane_astro::time::Epoch;
use ssplane_astro::walker::WalkerDelta;
use ssplane_lsn::percolation::{
    algebraic_connectivity, algebraic_connectivity_solve, percolation_sweep, plane_spread_ordering,
    random_ordering, Lambda2Config,
};
use ssplane_lsn::snapshot::{time_grid, SnapshotSeries};
use ssplane_lsn::topology::{Constellation, GridTopologyConfig, Topology};
use std::hint::black_box;

/// The benchmark time grid: 4 slots, 2 minutes apart.
const SLOTS: usize = 4;
const SLOT_S: f64 = 120.0;

/// Loss-fraction steps per sweep (the scenario default).
const STEPS: usize = 32;

/// Mega-constellation shape: 50 planes x 200 slots at 550 km / 53 deg.
const PLANES: usize = 50;
const PER_PLANE: usize = 200;

fn mega_constellation() -> Constellation {
    let pattern = WalkerDelta::new(550.0, 53f64.to_radians(), PLANES * PER_PLANE, PLANES, 1)
        .unwrap()
        .generate()
        .unwrap();
    let planes: Vec<Vec<_>> = pattern.chunks(PER_PLANE).map(<[_]>::to_vec).collect();
    Constellation::from_planes(Epoch::J2000, planes).unwrap()
}

fn bench_percolation(criterion: &mut Criterion) {
    let c = mega_constellation();
    let config = GridTopologyConfig::default();
    let series =
        SnapshotSeries::build_parallel(&c, &time_grid(Epoch::J2000, SLOTS, SLOT_S), 0).unwrap();
    let topologies: Vec<Topology> =
        (0..SLOTS).map(|k| Topology::plus_grid(&series.snapshot(k), config).unwrap()).collect();
    let n = series.n_sats();
    let spread = plane_spread_ordering(&topologies[0]);
    let random = random_ordering(n, 42);
    let alive = vec![true; n];

    // Sanity: targeted plane loss collapses the +grid before uniform
    // random loss does, at 10k-satellite scale too.
    let targeted = percolation_sweep(&topologies[0], &spread, STEPS);
    let baseline = percolation_sweep(&topologies[0], &random, STEPS);
    let (t, r) =
        (targeted.masking_threshold(0.1).unwrap(), baseline.masking_threshold(0.1).unwrap());
    assert!(t < r, "targeted {t} vs random {r}");
    // Sanity: λ₂ converges on every slot, just above the 50×200 torus
    // value 2 − 2cos(2π/200) ≈ 9.87e-4.
    for topology in &topologies {
        let solve = algebraic_connectivity_solve(topology, &alive, &Lambda2Config::default());
        assert!(solve.converged && (solve.value - 1.0023e-3).abs() < 1e-7, "{solve:?}");
    }

    let mut group = criterion.benchmark_group("percolation_10000sats");
    group.sample_size(10);

    // One 32-step loss sweep: reverse union-find replay of the whole
    // removal ordering, 33 curve points.
    group.bench_with_input(
        criterion::BenchmarkId::new("sweep_32steps", "leading-planes"),
        &(),
        |b, ()| {
            b.iter(|| black_box(percolation_sweep(&topologies[0], &spread, STEPS).giant_fraction))
        },
    );
    group.bench_with_input(
        criterion::BenchmarkId::new("sweep_32steps", "random-sats"),
        &(),
        |b, ()| {
            b.iter(|| black_box(percolation_sweep(&topologies[0], &random, STEPS).giant_fraction))
        },
    );

    // Algebraic connectivity of the intact 10k-node +grid: the seeded
    // LOBPCG solve, to its residual tolerance. The +grid wraps in both
    // directions, so its 2,500-aggregate coarse matrix has the widest
    // envelope of the shipped geometries.
    group.bench_with_input(criterion::BenchmarkId::new("lambda2", "intact"), &(), |b, ()| {
        b.iter(|| {
            black_box(algebraic_connectivity(&topologies[0], &alive, &Lambda2Config::default()))
        })
    });

    // The full scenario-stage equivalent: per-slot λ₂ plus both
    // orderings' sweeps over every slot — the `{name}.percolation`
    // stage's whole workload at `network.time_grid_slots = 4`.
    group.bench_with_input(
        criterion::BenchmarkId::new("stage_4slots", "lambda2+2x_sweeps"),
        &(),
        |b, ()| {
            b.iter(|| {
                let mut acc = 0.0;
                for topology in &topologies {
                    acc += algebraic_connectivity(topology, &alive, &Lambda2Config::default());
                    acc += percolation_sweep(topology, &spread, STEPS).mean_giant();
                    acc += percolation_sweep(topology, &random, STEPS).mean_giant();
                }
                black_box(acc)
            })
        },
    );

    group.finish();
}

criterion_group!(benches, bench_percolation);
criterion_main!(benches);
