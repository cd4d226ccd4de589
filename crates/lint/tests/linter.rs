//! Fixture-driven rule tests plus the live-workspace gate: the real
//! tree must scan clean, and deliberate corruptions (a hash map in a
//! `crates/lsn` hot path, a typo'd scenario key) must be caught — the
//! scenario key by the real scenario loader, which owns the key table.

use ssplane_lint::rules::{scan_rust, Rule, ALL_RULES};
use ssplane_lint::{rules_for_path, scan_workspace, Finding};
use ssplane_scenario::config::sweep_from_toml;
use ssplane_scenario::ScenarioError;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn scan_fixture(name: &str, rules: &[Rule]) -> Vec<Finding> {
    scan_rust(name, &fixture(name), rules).0
}

#[test]
fn hash_iter_positive_and_negative() {
    let findings = scan_fixture("hash_iter_pos.rs", &ALL_RULES);
    assert!(!findings.is_empty(), "positive fixture must trip hash-iter");
    assert!(findings.iter().all(|f| f.rule == "hash-iter"), "{findings:?}");
    assert!(scan_fixture("hash_iter_neg.rs", &ALL_RULES).is_empty());
}

#[test]
fn wall_clock_positive_and_negative() {
    let findings = scan_fixture("wall_clock_pos.rs", &ALL_RULES);
    assert!(findings.len() >= 2, "Instant::now and SystemTime must both trip: {findings:?}");
    assert!(findings.iter().all(|f| f.rule == "wall-clock"), "{findings:?}");
    assert!(scan_fixture("wall_clock_neg.rs", &ALL_RULES).is_empty());
}

#[test]
fn unseeded_rng_positive_and_negative() {
    let findings = scan_fixture("unseeded_rng_pos.rs", &ALL_RULES);
    assert!(findings.len() >= 2, "thread_rng and from_entropy must both trip: {findings:?}");
    assert!(findings.iter().all(|f| f.rule == "unseeded-rng"), "{findings:?}");
    assert!(scan_fixture("unseeded_rng_neg.rs", &ALL_RULES).is_empty());
}

#[test]
fn lossy_cast_positive_and_negative() {
    let findings = scan_fixture("lossy_cast_pos.rs", &ALL_RULES);
    assert_eq!(findings.len(), 2, "`as u32` and `as usize` must both trip: {findings:?}");
    assert!(findings.iter().all(|f| f.rule == "lossy-cast"), "{findings:?}");
    // Float targets, try_from, and `use … as …` renames are all clean.
    assert!(scan_fixture("lossy_cast_neg.rs", &ALL_RULES).is_empty());
}

#[test]
fn lossy_cast_only_fires_where_enabled() {
    // The same source is clean when scanned with a non-lsn rule set.
    let rules = rules_for_path("crates/scenario/src/runner/mod.rs");
    assert!(!rules.contains(&Rule::LossyCast));
    assert!(scan_fixture("lossy_cast_pos.rs", &rules).is_empty());
}

#[test]
fn thread_pool_positive_and_negative() {
    let findings = scan_fixture("thread_pool_pos.rs", &ALL_RULES);
    let lines: Vec<usize> = findings.iter().map(|f| f.line).collect();
    assert_eq!(lines, [3, 5, 18], "available_parallelism, scope and spawn: {findings:?}");
    assert!(findings.iter().all(|f| f.rule == "thread-pool"), "{findings:?}");
    assert!(scan_fixture("thread_pool_neg.rs", &ALL_RULES).is_empty());
}

#[test]
fn allow_annotations_suppress_and_malformed_allows_are_findings() {
    let (findings, allows) = scan_rust("allows.rs", &fixture("allows.rs"), &ALL_RULES);
    // Trailing hash-iter allow and standalone wall-clock allow suppress;
    // the justification-free lossy-cast allow suppresses nothing and is
    // itself flagged.
    let rules: Vec<&str> = findings.iter().map(|f| f.rule).collect();
    assert!(rules.contains(&"bad-allow"), "{findings:?}");
    assert!(rules.contains(&"lossy-cast"), "malformed allow must not suppress: {findings:?}");
    assert!(!rules.contains(&"wall-clock"), "{findings:?}");
    // The second HashMap mention (no annotation) still trips.
    assert!(rules.contains(&"hash-iter"), "{findings:?}");
    assert_eq!(findings.iter().filter(|f| f.rule == "hash-iter").count(), 1);
    assert_eq!(allows.declared(), 2);
    assert_eq!(allows.used(), 2);
}

#[test]
fn live_workspace_is_clean() {
    let report = scan_workspace(&workspace_root()).expect("workspace scan");
    assert!(
        report.is_clean(),
        "the workspace must lint clean; findings:\n{}",
        report.findings.iter().map(ToString::to_string).collect::<Vec<_>>().join("\n")
    );
    // Every allow must be justified AND load-bearing — a stale allow
    // (declared but suppressing nothing) fails here.
    assert_eq!(report.allows.declared, report.allows.used, "stale allow annotation");
    assert!(report.allows.declared <= 4, "allow budget exceeded: {}", report.allows.declared);
    assert!(report.files_scanned > 50, "scan missed the tree: {}", report.files_scanned);
}

#[test]
fn workspace_scan_is_deterministic() {
    let root = workspace_root();
    let a = scan_workspace(&root).expect("scan");
    let b = scan_workspace(&root).expect("scan");
    assert_eq!(a, b);
    assert_eq!(a.to_json(), b.to_json());
}

#[test]
fn corrupting_lsn_code_is_caught() {
    // The acceptance corruption: a hash map introduced into a crates/lsn
    // hot path must produce findings under that path's rule set.
    let rules = rules_for_path("crates/lsn/src/percolation.rs");
    let corrupt = "pub fn bad(n: u64) -> usize {\n    let m = std::collections::HashMap::<u64, \
                   u64>::new();\n    m.len() + n as usize\n}\n";
    let (findings, _) = scan_rust("crates/lsn/src/percolation.rs", corrupt, &rules);
    let rules_hit: BTreeSet<&str> = findings.iter().map(|f| f.rule).collect();
    assert!(rules_hit.contains("hash-iter"), "{findings:?}");
    assert!(rules_hit.contains("lossy-cast"), "{findings:?}");
}

#[test]
fn schema_accepts_clean_and_rejects_typos() {
    // Scenario keys are checked by the real loader, against the one key
    // table `ssplane_scenario::sweep::PARAMS`, not by this crate.
    let clean = "name = \"fixture-clean\"\nseed = 7\n\n[design]\nkind = \"both\"\n\n\
                 [spares]\npolicy = \"per-plane\"\ncount = 3\n\n\
                 [sweep]\n\"demand.total_demand_b\" = [10.0, 50.0]\n";
    let sweep = sweep_from_toml(clean).expect("clean scenario loads");
    assert_eq!(sweep.expand().expect("clean scenario expands").len(), 2);

    // A typo'd key, an unknown section and a reserved sweep axis: the
    // loader stops at the first fault, so each is peeled off in turn.
    let seed_axis = "name = \"fixture-typo\"\nseed = 7\n\n[sweep]\nseed = [1, 2, 3]\n";
    let made_up = format!("[made_up]\nknob = 1.0\n\n{seed_axis}");
    let typo = format!("[attack]\nplanes_lots = 2\n\n{made_up}");
    let err = sweep_from_toml(&typo).unwrap_err().to_string();
    assert!(err.contains("attack.planes_lots"), "{err}");
    assert!(err.contains("did you mean `attack.planes_lost`"), "{err}");
    let err = sweep_from_toml(&made_up).unwrap_err().to_string();
    assert!(err.contains("made_up.knob"), "{err}");
    let err = sweep_from_toml(seed_axis).expect("seed is a known key").expand().unwrap_err();
    assert!(err.to_string().contains("got 'a sweep axis'"), "{err}");
}

#[test]
fn corrupting_a_scenario_key_is_caught() {
    // The acceptance corruption: typo one key of a real shipped scenario.
    let baseline = std::fs::read_to_string(workspace_root().join("scenarios/baseline.toml"))
        .expect("baseline scenario readable");
    sweep_from_toml(&baseline).expect("shipped baseline loads");
    let corrupt = baseline.replacen("[spares]", "[spare]", 1);
    assert_ne!(baseline, corrupt, "corruption did not apply");
    let err = sweep_from_toml(&corrupt).expect_err("typo'd section must be rejected");
    assert!(matches!(err, ScenarioError::UnknownParameter { .. }), "{err}");
    assert!(err.to_string().contains("did you mean `spares."), "{err}");
}
