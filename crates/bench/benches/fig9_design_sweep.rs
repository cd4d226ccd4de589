//! Criterion bench for the Fig. 9/10 pipeline: the greedy SS-plane
//! designer and the multi-shell Walker baseline on the realistic demand
//! grid (alone, and at the top of the paper sweep as the runner's
//! `Designer::design_in`, system assembly included), the per-plane
//! fluence sampling of the largest SS design (alone and by two workers
//! sharing one cache), and the paper sweep's design and fluence kernels
//! through per-call caches vs one shared [`KernelCache`].
//!
//! The design and fluence kernel numbers land in `BENCH_design.json` at
//! the repository root; re-capture with
//! `cargo bench -p ssplane-bench --bench fig9_design_sweep`.

use criterion::{criterion_group, criterion_main, Criterion};
use ssplane_astro::kepler::OrbitalElements;
use ssplane_astro::par::par_map;
use ssplane_bench::figures::{
    default_demand_model, default_environment, default_grid, design_epoch,
};
use ssplane_core::cache::KernelCache;
use ssplane_core::designer::{design_ss_constellation, DesignConfig};
use ssplane_core::evaluate::{plane_fluence_samples, plane_fluence_samples_in};
use ssplane_core::system::{DesignParams, Designer, SsDesigner, WalkerDesigner};
use ssplane_core::walker_baseline::{design_walker_constellation, WalkerBaselineConfig};
use ssplane_demand::grid::LatTodGrid;
use ssplane_radiation::RadiationEnvironment;
use ssplane_scenario::spec::{RadiationSpec, SolarActivity};
use std::hint::black_box;

/// The paper sweep's demand levels \[B\].
const PAPER_SWEEP_B: [f64; 8] = [10.0, 50.0, 100.0, 200.0, 500.0, 1000.0, 2000.0, 5000.0];

/// SS and WD design plus fluence sampling (1 phase, 120 s steps) at every
/// paper-sweep demand level and solar epoch, as the runner does them:
/// through `cache` when given, else through the per-call entry points
/// (each with a fresh cache). Returns the fluence samples taken.
fn paper_sweep_kernels(
    grid: &LatTodGrid,
    env: &RadiationEnvironment,
    cache: Option<&KernelCache>,
) -> usize {
    let designers: [Box<dyn Designer>; 2] = [
        Box::new(SsDesigner { config: DesignConfig::default() }),
        Box::new(WalkerDesigner { config: WalkerBaselineConfig::default() }),
    ];
    let mut samples = 0;
    for b in PAPER_SWEEP_B {
        let demand = grid.scaled(b / grid.total());
        for solar in [SolarActivity::Min, SolarActivity::Cycle24, SolarActivity::Max] {
            let epoch = RadiationSpec { solar, ..RadiationSpec::default() }.epoch();
            let params = DesignParams { epoch };
            for designer in &designers {
                let groups = match cache {
                    Some(c) => designer.design_in(&demand, &params, c),
                    None => designer.design(&demand, &params),
                }
                .unwrap()
                .eval_groups;
                samples += match cache {
                    Some(c) => plane_fluence_samples_in(&groups, c, epoch, 1, 120.0),
                    None => plane_fluence_samples(&groups, env, epoch, 1, 120.0),
                }
                .unwrap()
                .len();
            }
        }
    }
    samples
}

fn bench_designers(c: &mut Criterion) {
    let model = default_demand_model();
    let grid = default_grid(&model);
    let demand = grid.scaled(200.0 / grid.total());

    c.bench_function("ss_greedy_design_B200", |b| {
        b.iter(|| {
            let cons =
                design_ss_constellation(black_box(&demand), DesignConfig::default()).unwrap();
            black_box(cons.total_sats())
        })
    });

    // The top of the paper sweep: 390 planes on 21 distinct orbits.
    let demand_5000 = grid.scaled(5000.0 / grid.total());
    c.bench_function("ss_greedy_design_B5000", |b| {
        b.iter(|| {
            let cons =
                design_ss_constellation(black_box(&demand_5000), DesignConfig::default()).unwrap();
            black_box(cons.total_sats())
        })
    });

    // The designers as the scenario runner calls them at that demand:
    // design plus system assembly (plane structure, evaluation groups),
    // through one cache shared by every iteration, as sweep points share
    // it.
    let epoch = design_epoch();
    let env = default_environment();
    let params = DesignParams { epoch };
    let cache = KernelCache::new(env);
    let ss = SsDesigner { config: DesignConfig::default() };
    let wd = WalkerDesigner { config: WalkerBaselineConfig::default() };
    for (name, designer) in [("ss", &ss as &dyn Designer), ("wd", &wd)] {
        c.bench_function(&format!("system_design_in_B5000/{name}"), |b| {
            b.iter(|| {
                let sys = designer.design_in(black_box(&demand_5000), &params, &cache).unwrap();
                black_box(sys.total_sats())
            })
        });
    }

    // Fluence sampling of that design, as the scenario runner calls it
    // (one evaluation group per placed plane, 1 phase, 120 s steps).
    let ss_5000 = design_ss_constellation(&demand_5000, DesignConfig::default()).unwrap();
    let groups: Vec<(OrbitalElements, usize)> = ss_5000
        .planes
        .iter()
        .map(|p| (p.orbit.elements_at(epoch, 0.0).unwrap(), p.n_sats))
        .collect();
    c.bench_function("plane_fluence_samples_ss_B5000", |b| {
        b.iter(|| {
            let samples = plane_fluence_samples(black_box(&groups), &env, epoch, 1, 120.0).unwrap();
            black_box(samples.len())
        })
    });

    // Two workers sampling that design at once through one fresh cache,
    // as two sweep points that share a design do: each distinct orbit is
    // still integrated once, by whichever worker claims it first.
    c.bench_function("plane_fluence_samples_ss_B5000/pair", |b| {
        b.iter(|| {
            let cache = KernelCache::new(env);
            black_box(par_map(vec![(); 2], 2, |()| {
                plane_fluence_samples_in(black_box(&groups), &cache, epoch, 1, 120.0).unwrap().len()
            }))
        })
    });

    // The whole paper sweep's kernels: a fresh cache per call, vs one
    // cache per sweep (built inside the iteration, so every iteration
    // computes each distinct kernel input once, as a runner pass does).
    c.bench_function("paper_sweep_kernels/fresh", |b| {
        b.iter(|| black_box(paper_sweep_kernels(black_box(&grid), &env, None)))
    });
    c.bench_function("paper_sweep_kernels/shared", |b| {
        b.iter(|| {
            let cache = KernelCache::new(env);
            black_box(paper_sweep_kernels(black_box(&grid), &env, Some(&cache)))
        })
    });

    c.bench_function("walker_baseline_design_B200", |b| {
        b.iter(|| {
            let cons =
                design_walker_constellation(black_box(&demand), WalkerBaselineConfig::default())
                    .unwrap();
            black_box(cons.total_sats())
        })
    });

    c.bench_function("demand_grid_build_36x24", |b| {
        b.iter(|| {
            let g =
                ssplane_demand::grid::LatTodGrid::from_model(black_box(&model), 36, 24).unwrap();
            black_box(g.total())
        })
    });
}

criterion_group! {
    name = benches;
    // Each iteration runs a full constellation design; keep sampling light.
    config = Criterion::default().sample_size(10);
    targets = bench_designers
}
criterion_main!(benches);
