//! Ablation benches: time the design pipeline under the alternative
//! branch rules, grid resolutions and Walker supply models of
//! `figures::ablations` (the *result* comparison is produced by
//! `repro ablations`; these measure the cost of each variant).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ssplane_bench::figures::{default_demand_model, default_grid};
use ssplane_core::designer::{design_ss_constellation, BranchRule, DesignConfig};
use ssplane_core::walker_baseline::{
    design_walker_constellation, SupplyModel, WalkerBaselineConfig,
};
use ssplane_demand::grid::LatTodGrid;
use std::hint::black_box;

fn bench_ablations(c: &mut Criterion) {
    let model = default_demand_model();
    let grid = default_grid(&model);
    let demand = grid.scaled(100.0 / grid.total());

    let mut group = c.benchmark_group("branch_rule");
    for rule in [BranchRule::BestOfBoth, BranchRule::AscendingOnly, BranchRule::Alternate] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{rule:?}")),
            &rule,
            |b, &rule| {
                b.iter(|| {
                    let cons = design_ss_constellation(
                        black_box(&demand),
                        DesignConfig { branch_rule: rule, ..Default::default() },
                    )
                    .unwrap();
                    black_box(cons.total_sats())
                })
            },
        );
    }
    group.finish();

    let mut group = c.benchmark_group("grid_resolution");
    for (lat, tod) in [(24usize, 16usize), (36, 24), (72, 48)] {
        let g = LatTodGrid::from_model(&model, lat, tod).unwrap();
        let d = g.scaled(100.0 / g.total());
        group.bench_with_input(BenchmarkId::from_parameter(format!("{lat}x{tod}")), &d, |b, d| {
            b.iter(|| {
                let cons = design_ss_constellation(black_box(d), DesignConfig::default()).unwrap();
                black_box(cons.total_sats())
            })
        });
    }
    group.finish();

    let mut group = c.benchmark_group("wd_supply_model");
    for supply in [SupplyModel::WorstCase, SupplyModel::TimeAverage] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{supply:?}")),
            &supply,
            |b, &supply| {
                b.iter(|| {
                    let cons = design_walker_constellation(
                        black_box(&demand),
                        WalkerBaselineConfig { supply_model: supply, ..Default::default() },
                    )
                    .unwrap();
                    black_box(cons.total_sats())
                })
            },
        );
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_ablations
}
criterion_main!(benches);
