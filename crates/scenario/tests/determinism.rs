//! The engine's reproducibility contract, pinned end to end:
//!
//! 1. running the same `SweepSpec` twice produces **byte-identical**
//!    JSON-lines output;
//! 2. so does running it under different thread counts;
//! 3. per-scenario seeds are stable under sweep-axis reordering;
//! 4. a point run alone reports the same bytes as inside a sweep whose
//!    points share the run's kernel cache (fluence integrals, SS
//!    candidate planes, gravity fields).

use proptest::prelude::*;
use ssplane_core::cache::CacheCount;
use ssplane_scenario::config::sweep_from_toml;
use ssplane_scenario::runner::{execute_scenario, Runner};
use ssplane_scenario::spec::ScenarioSpec;
use ssplane_scenario::sweep::{SweepAxis, SweepSpec};
use ssplane_scenario::toml::TomlValue;

/// A cheap but full-pipeline sweep: tiny demand, coarse fluence step,
/// short horizon — every stochastic stage (demand synthesis, fluence
/// sampling, survivability) still runs.
fn test_sweep() -> SweepSpec {
    let mut base = ScenarioSpec::named("determinism");
    base.demand.total_demand_b = 4.0;
    base.demand.lat_bins = 18;
    base.demand.tod_bins = 12;
    base.radiation.phases = 1;
    base.radiation.step_s = 600.0;
    base.survivability.horizon_years = 2.0;
    SweepSpec {
        base,
        axes: vec![
            SweepAxis {
                param: "demand.total_demand_b".to_string(),
                values: vec![TomlValue::Float(3.0), TomlValue::Float(7.0)],
            },
            SweepAxis {
                param: "spares.count".to_string(),
                values: vec![TomlValue::Int(1), TomlValue::Int(4)],
            },
        ],
    }
}

#[test]
fn same_sweep_twice_is_byte_identical() {
    let sweep = test_sweep();
    let a = Runner::with_threads(2).run_sweep(&sweep).unwrap().to_jsonl();
    let b = Runner::with_threads(2).run_sweep(&sweep).unwrap().to_jsonl();
    assert!(!a.is_empty());
    assert_eq!(a.lines().count(), 4);
    assert_eq!(a.as_bytes(), b.as_bytes());
}

#[test]
fn thread_count_does_not_change_the_bytes() {
    let sweep = test_sweep();
    let serial = Runner::with_threads(1).run_sweep(&sweep).unwrap().to_jsonl();
    for threads in [2, 4, 7] {
        let parallel = Runner::with_threads(threads).run_sweep(&sweep).unwrap().to_jsonl();
        assert_eq!(
            serial.as_bytes(),
            parallel.as_bytes(),
            "thread count {threads} changed the output"
        );
    }
}

#[test]
fn seeds_and_reports_stable_under_axis_reordering() {
    let forward = test_sweep();
    let reversed = SweepSpec {
        base: forward.base.clone(),
        axes: vec![forward.axes[1].clone(), forward.axes[0].clone()],
    };

    // Same parameter points, same seeds — independent of grid order.
    let mut seeds_fwd: Vec<(String, u64)> =
        forward.expand().unwrap().into_iter().map(|s| (s.name.clone(), s.seed)).collect();
    let mut seeds_rev: Vec<(String, u64)> =
        reversed.expand().unwrap().into_iter().map(|s| (s.name.clone(), s.seed)).collect();
    seeds_fwd.sort();
    seeds_rev.sort();
    assert_eq!(seeds_fwd, seeds_rev);

    // And therefore the same reports, line for line once sorted by name
    // (enumeration order legitimately differs).
    let runner = Runner::with_threads(3);
    let mut lines_fwd: Vec<String> =
        runner.run_sweep(&forward).unwrap().to_jsonl().lines().map(str::to_string).collect();
    let mut lines_rev: Vec<String> =
        runner.run_sweep(&reversed).unwrap().to_jsonl().lines().map(str::to_string).collect();
    lines_fwd.sort();
    lines_rev.sort();
    assert_eq!(lines_fwd, lines_rev);
}

#[test]
fn distinct_points_get_distinct_seeds() {
    let specs = test_sweep().expand().unwrap();
    let mut seeds: Vec<u64> = specs.iter().map(|s| s.seed).collect();
    seeds.sort_unstable();
    seeds.dedup();
    assert_eq!(seeds.len(), specs.len(), "seed collision across grid points");
}

/// The paper sweep's shape at test scale: two demand levels × two solar
/// epochs × two spare budgets over SS and WD, so points share SS
/// candidate planes across demand and fluence integrals across spares.
fn paper_shaped_sweep() -> SweepSpec {
    sweep_from_toml(
        r#"
name = "alone-vs-sweep"
seed = 11

[demand]
lat_bins = 18
tod_bins = 12

[design]
kinds = ["ss", "wd"]

[radiation]
phases = 2
step_s = 600.0

[survivability]
horizon_years = 2.0

[sweep]
"demand.total_demand_b" = [15.0, 45.0]
"radiation.solar" = ["cycle24", "max"]
"spares.count" = [2, 5]
"#,
    )
    .unwrap()
}

/// A gravity workload over SS at test scale: two demand models × two
/// site budgets × two pair counts, so each of the four gravity fields
/// serves two points that draw their own seeded pairs from it.
fn gravity_sweep() -> SweepSpec {
    sweep_from_toml(
        r#"
name = "alone-vs-sweep-gravity"
seed = 11

[demand]
total_demand_b = 10.0
lat_bins = 18
tod_bins = 12

[design]
kinds = ["ss"]

[radiation]
enabled = false

[survivability]
enabled = false

[attack]
planes_lost = 1

[network]
enabled = true
n_flows = 20
slots = 2
slot_s = 300.0
with_outages = true

[traffic]
model = "gravity"
k_paths = 2

[sweep]
"demand.seed" = [42, 7]
"traffic.sites" = [16, 24]
"traffic.pairs" = [300, 500]
"#,
    )
    .unwrap()
}

#[test]
fn a_point_alone_equals_the_same_point_inside_a_sweep() {
    let cases = [
        (paper_shaped_sweep(), &["fluence", "ss_candidates", "demand_grid"][..]),
        (gravity_sweep(), &["ss_candidates", "gravity", "demand_grid"][..]),
    ];
    for (sweep, shared) in cases {
        let specs = sweep.expand().unwrap();
        let outcome = Runner::with_threads(2).run_specs(&specs);
        // Every kernel the sweep requests must be shared across its
        // points; every other kernel must not be requested at all.
        for (kernel, count) in outcome.cache_counters() {
            if shared.contains(&kernel) {
                assert!(count.computed < count.requested, "{kernel}: shared nothing: {count:?}");
            } else {
                assert_eq!(count, CacheCount::default(), "{kernel}: requested unexpectedly");
            }
        }
        let jsonl = outcome.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), specs.len());
        for (spec, line) in specs.iter().zip(lines) {
            let alone = execute_scenario(spec).unwrap().to_json_line();
            assert_eq!(alone, line, "{}", spec.name);
        }
    }
}

/// A cheap design-only scenario over every registry family (the catalog
/// designer is scaled down so the full 5-system permutation stays cheap).
fn all_kinds_spec(kinds: Vec<&'static str>) -> ScenarioSpec {
    let mut spec = ScenarioSpec::named("kinds-order");
    spec.demand.total_demand_b = 4.0;
    spec.demand.lat_bins = 18;
    spec.demand.tod_bins = 12;
    spec.radiation.enabled = false;
    spec.survivability.enabled = false;
    spec.design.starlink_scale = 0.1;
    spec.design.kinds = kinds;
    spec
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The redesign's ordering contract as a property: however a spec
    /// permutes (or duplicates) `design.kinds`, the report bytes are
    /// those of the canonical registry order.
    #[test]
    fn kinds_ordering_never_changes_report_bytes(perm in 0usize..120, dup in 0usize..6) {
        let canonical = vec!["ss", "wd", "rgt", "slim", "starlink"];
        let reference = execute_scenario(&all_kinds_spec(canonical.clone()))
            .expect("canonical run succeeds")
            .to_json_line();

        // The `perm`-th permutation of the registry, Lehmer-decoded.
        let mut pool = canonical.clone();
        let mut shuffled = Vec::with_capacity(5);
        let mut code = perm;
        for radix in (1..=pool.len()).rev() {
            shuffled.push(pool.remove(code % radix));
            code /= radix;
        }
        if dup < shuffled.len() {
            let extra = shuffled[dup];
            shuffled.push(extra);
        }

        let line = execute_scenario(&all_kinds_spec(shuffled.clone()))
            .expect("permuted run succeeds")
            .to_json_line();
        prop_assert_eq!(&line, &reference, "kinds {:?} changed the bytes", shuffled);
    }
}
