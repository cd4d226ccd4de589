//! Bit-parity pins: every sweep listed here must keep producing
//! byte-identical JSON-lines — every float, every field, every byte — at
//! 1, 2 and 7 threads, and the same deterministic work counters, which
//! `golden/counters.tsv` pins.
//!
//! The first seven fixtures under `tests/golden/` were captured from the
//! engine before the `Designer` redesign (fixed `ss_groups`/`wd_groups`
//! paths, SS-only networking); the generic design → attack → fluence →
//! survivability → network pipeline reproduces them exactly. The
//! `disruption` and `traffic-scale` fixtures pin the degraded network
//! pass — plane, random and band attacks, outage timelines and gravity
//! served-demand under alive masks — as captured before ground
//! attachment moved to the windowed serving index and flow routing to
//! component-checked searches. The next six (`walker-network`,
//! `design-shootout`, `design-catalog`, `time-resolved`, `attack-opt`,
//! `percolation`) were captured before the runner was split along its
//! stages: they pin the Walker network, the full designer registry, the
//! multi-slot time grid, the optimized attack search and the percolation
//! block. Every built-in scenario has a pin.
//!
//! `attack-search-objectives` is no built-in: it pins the optimized plane
//! attack under the served-demand and load-inflation objectives, which no
//! shipped scenario searches, as captured before the incremental scorer
//! reused its parent's demand tally and summed link loads densely.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::OnceLock;

use ssplane_scenario::library;
use ssplane_scenario::runner::{Runner, SweepOutcome};
use ssplane_scenario::sweep::{apply_param, SweepAxis, SweepSpec};
use ssplane_scenario::toml::TomlValue;

/// The pinned sweeps and their output.
const GOLDEN: &[(&str, &str)] = &[
    ("baseline", include_str!("golden/baseline.jsonl")),
    ("paper-grid", include_str!("golden/paper-grid.jsonl")),
    ("solar-sweep", include_str!("golden/solar-sweep.jsonl")),
    ("plane-attack", include_str!("golden/plane-attack.jsonl")),
    ("spare-budget", include_str!("golden/spare-budget.jsonl")),
    ("mega-constellation", include_str!("golden/mega-constellation.jsonl")),
    ("routing", include_str!("golden/routing.jsonl")),
    ("disruption", include_str!("golden/disruption.jsonl")),
    ("traffic-scale", include_str!("golden/traffic-scale.jsonl")),
    ("walker-network", include_str!("golden/walker-network.jsonl")),
    ("design-shootout", include_str!("golden/design-shootout.jsonl")),
    ("design-catalog", include_str!("golden/design-catalog.jsonl")),
    ("time-resolved", include_str!("golden/time-resolved.jsonl")),
    ("attack-opt", include_str!("golden/attack-opt.jsonl")),
    ("percolation", include_str!("golden/percolation.jsonl")),
    ("attack-search-objectives", include_str!("golden/attack-search-objectives.jsonl")),
];

/// Every pinned sweep's deterministic work counters, one
/// `scenario<TAB>counter<TAB>value` row each, in [`GOLDEN`] order: per
/// point its `<system>.network.reattached` and
/// `<system>.percolation.lambda2_products` rows, then the sweep's
/// `cache.<kernel>.{computed,requested}` totals under the sweep's name.
const LEDGER: &str = include_str!("golden/counters.tsv");

/// Inline, pooled, and more workers than points or cores.
const THREADS: [usize; 3] = [1, 2, 7];

/// `traffic-scale` with its fixed plane loss swapped for a small optimized
/// 2-plane search, swept over the two objectives that score through the
/// gravity workload and the per-link loads.
fn attack_search_objectives() -> SweepSpec {
    let builtin = library::find("traffic-scale").expect("traffic-scale is shipped");
    let mut sweep = library::sweep(builtin).expect("traffic-scale parses");
    let base = &mut sweep.base;
    base.name = "attack-search-objectives".to_string();
    for (key, value) in [
        ("attack.kind", TomlValue::Str("optimized".into())),
        ("attack.unit", TomlValue::Str("planes".into())),
        ("attack.budget", TomlValue::Int(2)),
        ("attack.restarts", TomlValue::Int(1)),
        ("attack.swaps", TomlValue::Int(4)),
    ] {
        apply_param(base, key, &value).expect("a valid override");
    }
    let objectives = ["served-demand", "load-inflation"];
    sweep.axes = vec![SweepAxis {
        param: "attack.objective".to_string(),
        values: objectives.iter().map(|o| TomlValue::Str((*o).into())).collect(),
    }];
    sweep
}

fn pinned_sweep(name: &str) -> SweepSpec {
    if name == "attack-search-objectives" {
        return attack_search_objectives();
    }
    let builtin = library::find(name).expect("pinned scenario still shipped");
    library::sweep(builtin).expect("pinned scenario parses")
}

/// One pinned sweep's run at one thread count.
struct Run {
    name: &'static str,
    threads: usize,
    outcome: SweepOutcome,
}

/// Every pinned sweep at every thread count, run once for all the tests
/// below.
fn runs() -> &'static [Run] {
    static RUNS: OnceLock<Vec<Run>> = OnceLock::new();
    RUNS.get_or_init(|| {
        let mut runs = Vec::new();
        for threads in THREADS {
            for &(name, _) in GOLDEN {
                let outcome =
                    Runner::with_threads(threads).run_sweep(&pinned_sweep(name)).expect("expands");
                runs.push(Run { name, threads, outcome });
            }
        }
        runs
    })
}

/// The run's ledger rows (see [`LEDGER`]).
fn counter_rows(run: &Run) -> String {
    let mut rows = String::new();
    for t in &run.outcome.timings {
        for (metric, value) in &t.metrics {
            if metric.ends_with(".network.reattached")
                || metric.ends_with(".percolation.lambda2_products")
            {
                rows.push_str(&format!("{}\t{metric}\t{value}\n", t.name));
            }
        }
    }
    for (kernel, count) in run.outcome.cache_counters() {
        rows.push_str(&format!("{}\tcache.{kernel}.computed\t{}\n", run.name, count.computed));
        rows.push_str(&format!("{}\tcache.{kernel}.requested\t{}\n", run.name, count.requested));
    }
    rows
}

/// `scenario counter: ledger old, run new` for every row whose value
/// differs between the two ledgers (`-` for a missing row).
fn ledger_diff(ledger: &str, run: &str) -> Vec<String> {
    fn rows(text: &str) -> BTreeMap<&str, &str> {
        text.lines().skip(1).filter_map(|l| l.rsplit_once('\t')).collect()
    }
    let (old, new) = (rows(ledger), rows(run));
    let keys: BTreeSet<&str> = old.keys().chain(new.keys()).copied().collect();
    keys.into_iter()
        .filter(|k| old.get(k) != new.get(k))
        .map(|k| {
            let (o, n) = (old.get(k).unwrap_or(&"-"), new.get(k).unwrap_or(&"-"));
            format!("{}: ledger {o}, run {n}", k.replace('\t', " "))
        })
        .collect()
}

/// The pins that [`searched_attacks_reproduce_their_pinned_bytes_at_every_thread_count`]
/// holds; every other pin is a built-in scenario, captured before one of
/// the refactors named above.
const SEARCHED: &[&str] = &["attack-search-objectives"];

/// The sweep a ledger row belongs to: its point rows are named
/// `<sweep>/<axis values>`, its cache rows `<sweep>`.
fn row_sweep(row: &str) -> &str {
    let scenario = row.split('\t').next().unwrap_or_default();
    scenario.split('/').next().unwrap_or_default()
}

/// Holds every run of the named pins, at each of [`THREADS`], to its
/// golden bytes and to the named pins' rows of [`LEDGER`].
fn check_pins(names: &[&str]) {
    let header = LEDGER.lines().next().unwrap_or_default();
    let mut want = format!("{header}\n");
    for row in LEDGER.lines().skip(1).filter(|row| names.contains(&row_sweep(row))) {
        want.push_str(row);
        want.push('\n');
    }
    for threads in THREADS {
        let mut ledger = format!("{header}\n");
        let pins = runs().iter().filter(|r| r.threads == threads).zip(GOLDEN);
        for (run, (name, golden)) in pins.filter(|(_, (name, _))| names.contains(name)) {
            let outcome = &run.outcome;
            assert_eq!(
                outcome.ok_count(),
                outcome.reports.len(),
                "{name} at {threads} threads: a point failed"
            );
            // Line by line first for a readable failure, then the full
            // byte string (which also catches line-count drift).
            let jsonl = outcome.to_jsonl();
            for (i, (got, want)) in jsonl.lines().zip(golden.lines()).enumerate() {
                assert_eq!(got, want, "{name} at {threads} threads: line {i} left its pin");
            }
            assert_eq!(jsonl, *golden, "{name} at {threads} threads left its pin");
            ledger.push_str(&counter_rows(run));
        }
        assert!(
            ledger == want,
            "{threads} threads: work counters left golden/counters.tsv:\n{}\n\
             the regenerated rows, if the change is intended:\n{ledger}",
            ledger_diff(&want, &ledger).join("\n")
        );
    }
}

#[test]
fn every_builtin_scenario_is_pinned() {
    for builtin in library::BUILTINS {
        assert!(
            GOLDEN.iter().any(|(name, _)| *name == builtin.name),
            "built-in scenario {} has no golden fixture",
            builtin.name
        );
    }
    for row in LEDGER.lines().skip(1) {
        let sweep = row_sweep(row);
        assert!(GOLDEN.iter().any(|(name, _)| *name == sweep), "ledger row of no pin: {row}");
    }
}

#[test]
fn pre_refactor_scenarios_reproduce_their_pinned_bytes() {
    let names: Vec<&str> =
        GOLDEN.iter().map(|(name, _)| *name).filter(|name| !SEARCHED.contains(name)).collect();
    check_pins(&names);
}

#[test]
fn searched_attacks_reproduce_their_pinned_bytes_at_every_thread_count() {
    check_pins(SEARCHED);
}

/// λ₂ of the `percolation` pin as the residual-checked Lanczos solve
/// reported it before the LOBPCG solve replaced it: the re-captured pin
/// moved only in the last digits of `lambda2_intact` and in
/// `lambda2_residual`, and this keeps the value tied to the old answer.
const LANCZOS_LAMBDA2: [(&str, f64); 2] =
    [("ss", 0.01579673260901879), ("wd", 0.0012697531964047843)];

#[test]
fn percolation_lambda2_matches_the_lanczos_answer() {
    for run in runs().iter().filter(|r| r.name == "percolation") {
        let report = run.outcome.reports[0].as_ref().expect("the point runs");
        for (system, lanczos) in LANCZOS_LAMBDA2 {
            let network = report.system(system).and_then(|s| s.network.as_ref());
            let perc = network.and_then(|n| n.percolation.as_ref()).expect("a percolation block");
            assert!(perc.lambda2_converged, "{system}: {perc:?}");
            let rel = (perc.lambda2_intact - lanczos).abs() / lanczos;
            assert!(rel <= 1e-12, "{system}: {} vs {lanczos} ({rel:e})", perc.lambda2_intact);
        }
    }
}
