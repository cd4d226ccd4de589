//! Population-synthesis benches: the procedural SEDAC stand-in that every
//! scenario process pays once per `demand.seed` before any design work —
//! the default 360 × 720 / 2,500-city grid fill, and the full
//! `DemandModel::synthetic_seeded` call the scenario runner caches.
//!
//! The headline numbers land in `BENCH_population.json` at the
//! repository root; re-capture with
//! `cargo bench -p ssplane-bench --bench population`.

use criterion::{criterion_group, criterion_main, Criterion};
use ssplane_demand::population::{PopulationConfig, PopulationGrid};
use ssplane_demand::spatiotemporal::DemandModel;
use std::hint::black_box;

fn bench_population(criterion: &mut Criterion) {
    let mut group = criterion.benchmark_group("population");
    group.sample_size(10);

    group.bench_with_input(
        criterion::BenchmarkId::new("synthetic", "360x720_2500cities"),
        &(),
        |b, ()| b.iter(|| black_box(PopulationGrid::synthetic(PopulationConfig::default()))),
    );
    group.bench_with_input(
        criterion::BenchmarkId::new("demand_model", "synthetic_seeded_42"),
        &(),
        |b, ()| b.iter(|| black_box(DemandModel::synthetic_seeded(42))),
    );

    group.finish();
}

criterion_group!(benches, bench_population);
criterion_main!(benches);
