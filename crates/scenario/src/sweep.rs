//! Sweep expansion: a base [`ScenarioSpec`] plus parameter axes become a
//! list of concrete scenarios, each with a deterministic seed.
//!
//! Two properties the determinism tests pin down:
//!
//! * **Seeds ignore grid order.** A scenario's seed is a hash of the base
//!   seed and its *sorted* `(parameter, value)` overrides, so swapping
//!   axis declaration order (which permutes the cartesian enumeration)
//!   still assigns each parameter combination the same seed.
//! * **Expansion is pure.** The same `SweepSpec` always expands to the
//!   same scenarios in the same order.

use crate::error::{Result, ScenarioError};
use crate::spec::{AttackKind, AttackUnit, FailureKind, ScenarioSpec, SolarActivity, TrafficModel};
use crate::toml::TomlValue;
use core::ops::Bound::{self, Excluded, Included, Unbounded};
use core::ops::RangeBounds;
use ssplane_core::designer::BranchRule;
use ssplane_core::system::DESIGNER_REGISTRY;
use ssplane_core::walker_baseline::SupplyModel;
use ssplane_lsn::optimizer::AttackObjective;
use ssplane_lsn::spares::SparePolicy;
use ssplane_radiation::fluence::{MAX_STEP_S, MIN_STEP_S};
use Gate::{Always, Gravity, Network, Radiation, Rgt, Slim, Starlink, Survivability, Walker};

/// One sweep axis: a dotted parameter path and the values it takes.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepAxis {
    /// Dotted parameter path, e.g. `demand.total_demand_b`.
    pub param: String,
    /// The values the axis enumerates.
    pub values: Vec<TomlValue>,
}

/// A parameter grid over a base scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSpec {
    /// The scenario every grid point starts from.
    pub base: ScenarioSpec,
    /// The axes, in declaration order (last axis varies fastest).
    pub axes: Vec<SweepAxis>,
}

impl SweepSpec {
    /// Number of grid points (0 if any axis has no values, matching
    /// [`SweepSpec::expand`]).
    pub fn len(&self) -> usize {
        self.axes.iter().map(|a| a.values.len()).product()
    }

    /// Whether the grid is empty (an axis with no values).
    pub fn is_empty(&self) -> bool {
        self.axes.iter().any(|a| a.values.is_empty())
    }

    /// Expands the grid into concrete scenarios (row-major: the last axis
    /// varies fastest). Each scenario gets `name = base.name +
    /// sorted-override suffix` and `seed = scenario_seed(...)`; every
    /// expanded spec is validated.
    ///
    /// # Errors
    /// Unknown parameters, un-coercible values, reserved axes (`name`,
    /// `seed` — both are assigned by the expansion itself, so sweeping
    /// them would be silently overwritten), or invalid expanded specs.
    pub fn expand(&self) -> Result<Vec<ScenarioSpec>> {
        for axis in &self.axes {
            if axis.param == "seed" || axis.param == "name" {
                return Err(ScenarioError::bad_value(
                    &axis.param,
                    "a sweep axis",
                    "a non-reserved parameter (expansion derives per-scenario names and seeds \
                     from the grid coordinates, so sweeping them would be overwritten)",
                ));
            }
        }
        if self.is_empty() {
            return Ok(Vec::new());
        }
        let n = self.len();
        let mut out = Vec::with_capacity(n);
        for flat in 0..n {
            // Decode the row-major grid coordinate.
            let mut rem = flat;
            let mut overrides: Vec<(String, TomlValue)> = Vec::with_capacity(self.axes.len());
            for axis in self.axes.iter().rev() {
                let k = rem % axis.values.len();
                rem /= axis.values.len();
                overrides.push((axis.param.clone(), axis.values[k].clone()));
            }
            overrides.reverse();

            let mut spec = self.base.clone();
            for (param, value) in &overrides {
                apply_param(&mut spec, param, value)?;
            }
            let mut sorted: Vec<(String, TomlValue)> = overrides.clone();
            sorted.sort_by(|a, b| a.0.cmp(&b.0));
            spec.seed = scenario_seed(self.base.seed, &sorted);
            if !sorted.is_empty() {
                let suffix: Vec<String> =
                    sorted.iter().map(|(k, v)| format!("{k}={}", canonical_value(v))).collect();
                spec.name = format!("{}/{}", self.base.name, suffix.join(","));
            }
            spec.validate()?;
            out.push(spec);
        }
        Ok(out)
    }
}

/// Canonical textual form of a value — the form hashed into the seed, so
/// `10`, `10.0`, and `1e1` all mean the same scenario.
pub fn canonical_value(v: &TomlValue) -> String {
    match v {
        TomlValue::Str(s) => s.clone(),
        TomlValue::Int(i) => format!("{}", *i as f64),
        TomlValue::Float(x) => format!("{x}"),
        TomlValue::Bool(b) => b.to_string(),
        TomlValue::Array(items) => {
            let inner: Vec<String> = items.iter().map(canonical_value).collect();
            format!("[{}]", inner.join(","))
        }
    }
}

/// Deterministic per-scenario seed: FNV-1a over the base seed and the
/// **sorted** `(param, value)` overrides. Stable across axis reordering,
/// platforms, and thread counts; `[]` returns the base seed unchanged.
fn scenario_seed(base_seed: u64, sorted_overrides: &[(String, TomlValue)]) -> u64 {
    if sorted_overrides.is_empty() {
        return base_seed;
    }
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
    };
    eat(&base_seed.to_le_bytes());
    for (param, value) in sorted_overrides {
        eat(param.as_bytes());
        eat(&[0x1f]);
        eat(canonical_value(value).as_bytes());
        eat(&[0x1e]);
    }
    h
}

/// A field type whose key's setter the table derives: the key's TOML
/// value is read as the field's type.
trait Plain: Sized {
    /// Reads `v` as this type; the error names `key`.
    fn read(key: &str, v: &TomlValue) -> Result<Self>;
}

/// The error for a value that is not `expected`.
fn not_a(key: &str, v: &TomlValue, expected: &str) -> ScenarioError {
    ScenarioError::bad_value(key, &canonical_value(v), expected)
}

impl Plain for f64 {
    fn read(key: &str, v: &TomlValue) -> Result<Self> {
        v.as_f64().ok_or_else(|| not_a(key, v, "a number"))
    }
}

impl Plain for u64 {
    fn read(key: &str, v: &TomlValue) -> Result<Self> {
        v.as_u64().ok_or_else(|| not_a(key, v, "a non-negative integer"))
    }
}

impl Plain for usize {
    fn read(key: &str, v: &TomlValue) -> Result<Self> {
        v.as_usize().ok_or_else(|| not_a(key, v, "a non-negative integer"))
    }
}

impl Plain for u32 {
    fn read(key: &str, v: &TomlValue) -> Result<Self> {
        u32::try_from(u64::read(key, v)?).map_err(|_| not_a(key, v, "a small positive integer"))
    }
}

impl Plain for bool {
    fn read(key: &str, v: &TomlValue) -> Result<Self> {
        v.as_bool().ok_or_else(|| not_a(key, v, "a boolean"))
    }
}

fn need_str<'v>(key: &str, v: &'v TomlValue) -> Result<&'v str> {
    v.as_str().ok_or_else(|| not_a(key, v, "a string"))
}

/// One enum-valued key's vocabulary: each value with its spellings,
/// canonical first. The key's parser, the name a report prints for a
/// value and the expected list of a rejected token all come from it.
pub struct Vocab<T: 'static> {
    /// The key whose tokens these are.
    pub(crate) key: &'static str,
    /// `(value, spellings)` rows; a value's first spelling is canonical.
    pub(crate) values: &'static [(T, &'static [&'static str])],
}

impl<T: Copy + PartialEq> Vocab<T> {
    /// The value `token` spells.
    ///
    /// # Errors
    /// [`ScenarioError::BadValue`] listing the canonical names, with a
    /// did-you-mean hint when the token is a near miss.
    pub fn parse(&self, token: &str) -> Result<T> {
        let spellings =
            self.values.iter().flat_map(|&(value, names)| names.iter().map(move |&n| (n, value)));
        resolve(self.key, token, spellings, self.values.iter().map(|&(_, names)| names[0]))
    }

    /// The canonical name of `value`.
    pub fn name(&self, value: T) -> &'static str {
        self.values.iter().find(|&&(v, _)| v == value).expect("every value has a row").1[0]
    }
}

/// The value `token` spells among `(spelling, value)` pairs; a miss is a
/// `BadValue` for `key` that lists `canonical`, with the nearest of them
/// as a did-you-mean hint.
fn resolve<'a, T>(
    key: &str,
    token: &str,
    spellings: impl IntoIterator<Item = (&'a str, T)>,
    canonical: impl IntoIterator<Item = &'a str>,
) -> Result<T> {
    if let Some((_, value)) = spellings.into_iter().find(|&(s, _)| s == token) {
        return Ok(value);
    }
    let names: Vec<&str> = canonical.into_iter().collect();
    let mut expected = names.join(" | ");
    if let Some(hint) = nearest(token, names) {
        expected = format!("{expected} — did you mean `{hint}`?");
    }
    Err(ScenarioError::bad_value(key, token, &expected))
}

/// The did-you-mean hint for a rejected token or key: the candidate
/// nearest to `s` within 3 edits (ties go to the alphabetically first).
fn nearest<'c>(s: &str, candidates: impl IntoIterator<Item = &'c str>) -> Option<&'c str> {
    candidates
        .into_iter()
        .map(|c| (edit_distance(s, c), c))
        .filter(|&(d, _)| d <= 3)
        .min()
        .map(|(_, c)| c)
}

/// Plain Levenshtein distance (tokens and scenario keys are short; the
/// O(nm) table is fine).
fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    for (i, &ca) in a.iter().enumerate() {
        let mut cur = vec![i + 1];
        for (j, &cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            cur.push(sub.min(prev[j + 1] + 1).min(cur[j] + 1));
        }
        prev = cur;
    }
    prev[b.len()]
}

/// Accepted spellings of each canonical designer name, for specs written
/// against older tokens (`"walker"` predates the `wd` registry name).
const DESIGN_KIND_ALIASES: &[(&str, &str)] =
    &[("ss-plane", "ss"), ("ssplane", "ss"), ("walker", "wd")];

/// Resolves a `design.kind` token against the [`DESIGNER_REGISTRY`]
/// names plus their historical aliases. Adding a `Designer` to the core
/// registry makes its name parse here with no edit.
///
/// # Errors
/// [`ScenarioError::BadValue`] listing the registered names, with a
/// did-you-mean hint when the token is a near miss.
pub fn resolve_design_kind(s: &str) -> Result<&'static str> {
    design_kind("design.kind", s)
}

/// [`resolve_design_kind`] for the token of `key`, whose name a rejected
/// token's error carries.
fn design_kind(key: &str, s: &str) -> Result<&'static str> {
    let names = DESIGNER_REGISTRY.iter().map(|&(name, _)| name);
    resolve(key, s, names.clone().map(|n| (n, n)).chain(DESIGN_KIND_ALIASES.iter().copied()), names)
}

/// Parses a `design.kind` token into the canonical kinds list it
/// selects: any registered designer name plus the legacy `"both"` (SS +
/// Walker, the pre-`design.kinds` spelling of the paper's comparisons).
fn parse_design_kinds(s: &str) -> Result<Vec<&'static str>> {
    if s == "both" {
        return Ok(vec!["ss", "wd"]);
    }
    resolve_design_kind(s).map(|k| vec![k])
}

/// Parses a `radiation.epoch` date `"YYYY-MM-DD"` into `(year, month,
/// day)`.
fn parse_ymd(s: &str) -> Result<(i32, u32, u32)> {
    let key = "radiation.epoch";
    let parts: Vec<&str> = s.split('-').collect();
    let bad = || ScenarioError::bad_value(key, s, "a date 'YYYY-MM-DD'");
    if parts.len() != 3 {
        return Err(bad());
    }
    let y: i32 = parts[0].parse().map_err(|_| bad())?;
    let m: u32 = parts[1].parse().map_err(|_| bad())?;
    let d: u32 = parts[2].parse().map_err(|_| bad())?;
    // The astro crate's calendar conversion (Vallado) is only valid for
    // 1901-2099 and does no legality checking — an out-of-domain year or
    // an impossible date like 06-31 would map to a silently shifted
    // Julian date rather than an error, so both are rejected here.
    if !(1901..=2099).contains(&y) || !(1..=12).contains(&m) {
        return Err(ScenarioError::bad_value(key, s, "a date 'YYYY-MM-DD' with year 1901-2099"));
    }
    let leap = y % 4 == 0; // exact within 1901-2099 (2000 is a leap year)
    let days_in_month =
        [31, if leap { 29 } else { 28 }, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31][(m - 1) as usize];
    if d < 1 || d > days_in_month {
        return Err(ScenarioError::bad_value(
            key,
            s,
            "a calendar-legal date (that month has fewer days)",
        ));
    }
    Ok((y, m, d))
}

/// How one key writes its value into a spec. The key is passed along
/// for error messages.
pub type Setter = fn(&mut ScenarioSpec, &str, &TomlValue) -> Result<()>;

/// The values a ranged key accepts: an interval of finite numbers,
/// whole at both ends for an integer key.
type Range = (Bound<f64>, Bound<f64>);

/// (0, ∞).
const POSITIVE: Range = (Excluded(0.0), Unbounded);

/// (0, 1].
const FRACTION: Range = (Excluded(0.0), Included(1.0));

/// [0, 180]: an inclination in degrees.
const DEGREES: Range = (Included(0.0), Included(180.0));

/// The integers from `lo` to `hi`.
const fn count(lo: usize, hi: usize) -> Range {
    (Included(lo as f64), Included(hi as f64))
}

/// The range in interval notation, as an error message states it.
fn describe((lo, hi): Range) -> String {
    let lo = match lo {
        Included(x) => format!("[{x}"),
        Excluded(x) => format!("({x}"),
        Unbounded => "(-∞".to_string(),
    };
    let hi = match hi {
        Included(x) => format!("{x}]"),
        Excluded(x) => format!("{x})"),
        Unbounded => "∞)".to_string(),
    };
    format!("a value in {lo}, {hi}")
}

/// The stage whose enabled state gates a key's range check: always, a
/// stage's `enabled` switch, the gravity traffic model, or a designer
/// being selected (`rgt`, `slim`, `starlink`, or either designer that
/// reads the Walker config, `wd` or `slim`). A disabled stage does not
/// police its knobs.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Gate {
    Always,
    Radiation,
    Survivability,
    Network,
    Gravity,
    Rgt,
    Walker,
    Slim,
    Starlink,
}

impl Gate {
    fn is_on(self, s: &ScenarioSpec) -> bool {
        match self {
            Always => true,
            Radiation => s.radiation.enabled,
            Survivability => s.survivability.enabled,
            Network => s.network.enabled,
            Gravity => s.traffic.model == TrafficModel::Gravity,
            Rgt => s.design.includes("rgt"),
            Walker => s.design.includes("wd") || s.design.includes("slim"),
            Slim => s.design.includes("slim"),
            Starlink => s.design.includes("starlink"),
        }
    }
}

/// Reads a ranged key's value out of a spec for its check: one number,
/// or every entry of a list-valued key.
#[derive(Clone, Copy)]
enum Getter {
    One(fn(&ScenarioSpec) -> f64),
    Each(fn(&ScenarioSpec) -> &[f64]),
}

/// One scenario key: its name, its setter and, for a ranged key, a
/// getter for its value, its range, and the gate of its check.
pub(crate) struct Param {
    key: &'static str,
    set: Setter,
    range: Option<(Getter, Range, Gate)>,
}

impl Param {
    /// Checks the key's value, or each entry of a list, against its
    /// range while its gate is on.
    pub(crate) fn check(&self, spec: &ScenarioSpec) -> Result<()> {
        let Some((get, range, gate)) = self.range else { return Ok(()) };
        if !gate.is_on(spec) {
            return Ok(());
        }
        let outside = |x: &f64| !(x.is_finite() && range.contains(x));
        let bad = match get {
            Getter::One(get) => Some(get(spec)).filter(outside),
            Getter::Each(get) => get(spec).iter().copied().find(outside),
        };
        match bad {
            Some(x) => Err(ScenarioError::bad_value(self.key, &x.to_string(), &describe(range))),
            None => Ok(()),
        }
    }
}

/// A key with no range.
const fn row(key: &'static str, set: Setter) -> Param {
    Param { key, set, range: None }
}

/// `param` with a range, checked while `gate` is on.
const fn ranged(param: Param, get: Getter, range: Range, gate: Gate) -> Param {
    Param { range: Some((get, range, gate)), ..param }
}

/// A key that writes one [`Plain`] field, `field!(key, path)`, with
/// `range, gate` appended for a ranged key. The setter, and the getter,
/// come from the field's path and type.
macro_rules! field {
    ($key:literal, $($f:ident).+) => {
        row($key, |s, k, v| Plain::read(k, v).map(|x| s.$($f).+ = x))
    };
    ($key:literal, $($f:ident).+, $range:expr, $gate:expr) => {
        ranged(field!($key, $($f).+), Getter::One(|s| s.$($f).+ as f64), $range, $gate)
    };
}

/// A key whose token `parse` turns into one field's value,
/// `token!(key, parse, path)`, or `token!(VOCAB, path)` for a key with a
/// vocabulary table.
macro_rules! token {
    ($vocab:ident, $($f:ident).+) => {
        token!($vocab.key, |t| $vocab.parse(t), $($f).+)
    };
    ($key:expr, $parse:expr, $($f:ident).+) => {
        row($key, |s, k, v| ($parse)(need_str(k, v)?).map(|x| s.$($f).+ = x))
    };
}

/// Most `demand.lat_bins` a point may request: 0.5° rows, 10× the
/// largest value in use (36). The design grid holds `lat_bins · tod_bins`
/// cells, so an unbounded count can abort the whole sweep on one
/// allocation.
const MAX_LAT_BINS: usize = 360;

/// Most `demand.tod_bins` a point may request: five-minute bins, 12× the
/// largest value in use (24). It sizes the design grid with
/// `demand.lat_bins`.
const MAX_TOD_BINS: usize = 288;

/// Most `radiation.phases` a point may sample per plane: one per degree
/// of orbit, 180× the largest value in use (2). 10^8 asked for 26 GB.
const MAX_PHASES: usize = 360;

/// Longest `survivability.horizon_years` a point may simulate, 20× the
/// largest value in use (5). Outage timelines grow with the horizon.
const MAX_HORIZON_YEARS: f64 = 100.0;

/// Most `spares.count` a point may carry, per plane or in one pool, 100×
/// the largest value in use (10). A per-plane count is multiplied by the
/// plane count, which an unbounded count overflows.
const MAX_SPARES: usize = 1000;

/// Most `attack.restarts` a search may take, 16× the largest value in
/// use (4). The search allocates its start points up front.
const MAX_RESTARTS: usize = 64;

/// Most `attack.swaps` a search may propose per start point, 32× the
/// largest value in use (24). Each proposal scores one candidate.
const MAX_SWAPS: usize = 768;

/// Most `network.n_flows` a point may request. The flow list and every
/// per-slot routing pass grow linearly with it (40 bytes a flow before
/// routing state), so an unbounded count can abort the whole sweep on
/// one allocation. 100k is 500× the largest value in use (200).
pub(crate) const MAX_N_FLOWS: usize = 100_000;

/// Most `network.slots` the reference route may span: a day of
/// five-minute slots, 36× the largest value in use (8). The route's
/// snapshot series holds every satellite's position per slot.
const MAX_ROUTE_SLOTS: usize = 288;

/// Most `network.time_grid_slots` a point may request: a day of
/// 15-minute slots, 12× the largest value in use (8). Every slot holds a
/// topology, routing landmarks and an intact evaluation for the whole
/// stage (a few MB per slot of a 10k-satellite point).
const MAX_TIME_GRID_SLOTS: usize = 96;

/// Most `network.percolation_steps` a sweep may take, 312× the largest
/// value in use (32). Every curve holds five samples per step.
const MAX_PERCOLATION_STEPS: usize = 10_000;

/// Most `traffic.pairs` the gravity model may draw. The draws, the flow
/// list and the per-pair aggregation grow linearly with it (16 bytes a
/// pair drawn, 44 once routable, ~60 while one becomes the other), so an
/// unbounded count can abort the whole sweep on one allocation. 1M is
/// 10× the 100k-pair mega-network workload, the largest in use.
pub(crate) const MAX_TRAFFIC_PAIRS: usize = 1_000_000;

/// Most `traffic.sites` the gravity model may draw pairs between, 8× the
/// largest value in use (256). The field's distance table holds sites²
/// `f64`s, and interning a draw's pairs takes a sites² `u32` table.
const MAX_SITES: usize = 2048;

/// Most `traffic.k_paths` per serving-satellite pair, 10× the largest
/// value in use (3). Each path is one Dijkstra round per source.
const MAX_K_PATHS: usize = 30;

/// `radiation.solar`.
pub const SOLAR: Vocab<SolarActivity> = Vocab {
    key: "radiation.solar",
    values: &[
        (SolarActivity::Cycle24, &["cycle24", "mid"]),
        (SolarActivity::Max, &["max", "solar-max"]),
        (SolarActivity::Min, &["min", "solar-min"]),
    ],
};

/// `design.branch_rule`.
pub const BRANCH_RULES: Vocab<BranchRule> = Vocab {
    key: "design.branch_rule",
    values: &[
        (BranchRule::BestOfBoth, &["best-of-both"]),
        (BranchRule::AscendingOnly, &["ascending-only"]),
        (BranchRule::Alternate, &["alternate"]),
    ],
};

/// `design.walker_supply_model`.
pub const SUPPLY_MODELS: Vocab<SupplyModel> = Vocab {
    key: "design.walker_supply_model",
    values: &[
        (SupplyModel::WorstCase, &["worst-case"]),
        (SupplyModel::TimeAverage, &["time-average"]),
    ],
};

/// `survivability.failure.kind`.
pub const FAILURE_KINDS: Vocab<FailureKind> = Vocab {
    key: "survivability.failure.kind",
    values: &[
        (FailureKind::Exponential, &["exponential", "radiation-exponential"]),
        (FailureKind::Weibull, &["weibull", "bathtub"]),
    ],
};

/// `spares.policy`: whether the spares sit in one shared pool.
pub const SPARE_POOLS: Vocab<bool> =
    Vocab { key: "spares.policy", values: &[(false, &["per-plane"]), (true, &["shared-pool"])] };

/// `attack.kind`.
pub const ATTACK_KINDS: Vocab<AttackKind> = Vocab {
    key: "attack.kind",
    values: &[
        (AttackKind::LeadingPlanes, &["leading-planes", "planes"]),
        (AttackKind::RandomSats, &["random-sats", "random"]),
        (AttackKind::DeclinationBand, &["declination-band", "band"]),
        (AttackKind::Shell, &["shell"]),
        (AttackKind::Optimized, &["optimized", "worst-case"]),
    ],
};

/// `attack.objective`.
pub const OBJECTIVES: Vocab<AttackObjective> = Vocab {
    key: "attack.objective",
    values: &[
        (AttackObjective::RoutedFraction, &["routed-fraction", "routed"]),
        (AttackObjective::Connectivity, &["connectivity"]),
        (AttackObjective::LoadInflation, &["load-inflation", "load"]),
        (AttackObjective::ServedDemand, &["served-demand", "served"]),
        (AttackObjective::MaskingThreshold, &["masking-threshold", "masking"]),
    ],
};

/// `attack.unit`.
pub const ATTACK_UNITS: Vocab<AttackUnit> = Vocab {
    key: "attack.unit",
    values: &[(AttackUnit::Planes, &["planes"]), (AttackUnit::Sats, &["sats", "satellites"])],
};

/// `traffic.model`.
pub const TRAFFIC_MODELS: Vocab<TrafficModel> = Vocab {
    key: "traffic.model",
    values: &[
        (TrafficModel::Sampled, &["sampled", "flows"]),
        (TrafficModel::Gravity, &["gravity"]),
    ],
};

/// Every scenario key, its setter, and its range and gate: the *entire*
/// config surface. The TOML loader funnels every `section.key` pair and
/// every sweep axis through [`apply_param`], so config files and sweep
/// axes address exactly these knobs, and an unknown key's did-you-mean
/// hint is drawn from this list. [`ScenarioSpec::validate`] checks every
/// range here and keeps only the rules that tie keys together.
pub(crate) const PARAMS: &[Param] = &[
    row("name", |s, k, v| need_str(k, v).map(|x| s.name = x.to_string())),
    field!("seed", seed),
    // `design.kind` is the scalar spelling (kept for back-compat:
    // `"both"` still selects the paper's SS + Walker pair);
    // `design.kinds` is the open list form.
    token!("design.kind", parse_design_kinds, design.kinds),
    row("design.kinds", |s, k, v| {
        let arr = v.as_array().ok_or_else(|| not_a(k, v, "an array of design kinds"))?;
        let mut kinds = Vec::with_capacity(arr.len());
        for item in arr {
            kinds.push(design_kind(k, need_str(k, item)?)?);
        }
        if kinds.is_empty() {
            return Err(ScenarioError::bad_value(k, "[]", "at least one design kind"));
        }
        s.design.kinds = kinds;
        Ok(())
    }),
    row("design.altitude_km", |s, k, v| {
        let alt = f64::read(k, v)?;
        s.design.ss.altitude_km = alt;
        s.design.wd.altitude_km = alt;
        Ok(())
    }),
    row("design.min_elevation_deg", |s, k, v| {
        let elev = f64::read(k, v)?;
        s.design.ss.min_elevation_deg = elev;
        s.design.wd.min_elevation_deg = elev;
        s.design.rgt.min_elevation_deg = elev;
        Ok(())
    }),
    row("design.sat_capacity", |s, k, v| {
        let cap = f64::read(k, v)?;
        s.design.ss.sat_capacity = cap;
        s.design.wd.sat_capacity = cap;
        s.design.rgt.sat_capacity = cap;
        Ok(())
    }),
    field!("design.rgt_revs", design.rgt.revs),
    field!("design.rgt_days", design.rgt.days),
    field!("design.rgt_inclination_deg", design.rgt.inclination_deg, DEGREES, Rgt),
    field!("design.max_planes", design.ss.max_planes),
    token!(BRANCH_RULES, design.ss.branch_rule),
    field!("design.walker_shell_spacing_km", design.wd.shell_spacing_km),
    token!(SUPPLY_MODELS, design.wd.supply_model),
    // The Walker designers take inclinations in (0, 180) deg only; each
    // entry is checked here so that the error names this key.
    ranged(
        row("design.walker_inclinations_deg", |s, k, v| {
            let arr = v.as_array().ok_or_else(|| not_a(k, v, "an array of degrees"))?;
            let mut incs = Vec::with_capacity(arr.len());
            for item in arr {
                incs.push(f64::read(k, item)?);
            }
            if incs.is_empty() {
                return Err(ScenarioError::bad_value(k, "[]", "at least one inclination"));
            }
            s.design.wd.candidate_inclinations_deg = incs;
            Ok(())
        }),
        Getter::Each(|s| &s.design.wd.candidate_inclinations_deg),
        (Excluded(0.0), Excluded(180.0)),
        Walker,
    ),
    field!("design.slim_plane_factor", design.slim_plane_factor, FRACTION, Slim),
    field!("design.slim_min_planes", design.slim_min_planes, (Included(1.0), Unbounded), Slim),
    field!("design.starlink_scale", design.starlink_scale, FRACTION, Starlink),
    field!("demand.total_demand_b", demand.total_demand_b, POSITIVE, Always),
    field!("demand.lat_bins", demand.lat_bins, count(1, MAX_LAT_BINS), Always),
    field!("demand.tod_bins", demand.tod_bins, count(1, MAX_TOD_BINS), Always),
    field!("demand.seed", demand.seed),
    field!("radiation.enabled", radiation.enabled),
    token!(SOLAR, radiation.solar),
    token!("radiation.epoch", parse_ymd, radiation.epoch_ymd),
    field!("radiation.phases", radiation.phases, count(1, MAX_PHASES), Radiation),
    // The integrator would clamp an out-of-range step and run at a step
    // the report never mentions; refuse it instead.
    field!(
        "radiation.step_s",
        radiation.step_s,
        (Included(MIN_STEP_S), Included(MAX_STEP_S)),
        Radiation
    ),
    field!("survivability.enabled", survivability.enabled),
    field!(
        "survivability.horizon_years",
        survivability.horizon_years,
        (Excluded(0.0), Included(MAX_HORIZON_YEARS)),
        Survivability
    ),
    // A negative cadence would credit availability above 1, and 0 would
    // silently mean "never resupply".
    field!("survivability.resupply_days", survivability.resupply_days, POSITIVE, Survivability),
    field!("survivability.per_satellite", survivability.per_satellite),
    token!(FAILURE_KINDS, survivability.failure_kind),
    field!("survivability.failure.infant_shape", survivability.weibull.infant_shape),
    field!("survivability.failure.infant_scale_years", survivability.weibull.infant_scale_years),
    field!("survivability.failure.wearout_shape", survivability.weibull.wearout_shape),
    field!("survivability.failure.wearout_scale_years", survivability.weibull.wearout_scale_years),
    field!("survivability.failure.electron_accel", survivability.weibull.electron_accel),
    field!("survivability.failure.proton_accel", survivability.weibull.proton_accel),
    field!("failures.baseline_per_year", survivability.failure.baseline_per_year),
    field!("failures.electron_coeff", survivability.failure.electron_coeff),
    field!("failures.proton_coeff", survivability.failure.proton_coeff),
    row(SPARE_POOLS.key, |s, k, v| {
        let shared = SPARE_POOLS.parse(need_str(k, v)?)?;
        edit_policy(s, |policy| policy.0 = shared);
        Ok(())
    }),
    ranged(
        row("spares.count", |s, k, v| {
            usize::read(k, v).map(|n| edit_policy(s, |policy| policy.1 = n))
        }),
        Getter::One(|s| match s.survivability.policy {
            SparePolicy::PerPlane { spares_per_plane: n, .. }
            | SparePolicy::SharedPool { pool_size: n, .. } => n as f64,
        }),
        count(0, MAX_SPARES),
        Survivability,
    ),
    ranged(
        row("spares.replacement_days", |s, k, v| {
            f64::read(k, v).map(|days| edit_policy(s, |policy| policy.2 = days))
        }),
        Getter::One(|s| s.survivability.policy.replacement_days()),
        (Included(0.0), Unbounded),
        Survivability,
    ),
    token!(ATTACK_KINDS, attack.kind),
    field!("attack.planes_lost", attack.planes_lost),
    field!("attack.sats_lost", attack.sats_lost),
    field!("attack.band_min_deg", attack.band_min_deg),
    field!("attack.band_max_deg", attack.band_max_deg),
    field!("attack.shell", attack.shell),
    token!(OBJECTIVES, attack.objective),
    token!(ATTACK_UNITS, attack.unit),
    field!("attack.budget", attack.budget),
    // An attack search runs inside the network stage, whose evaluator
    // takes the damage threshold whether or not a search runs.
    field!("attack.restarts", attack.restarts, count(0, MAX_RESTARTS), Network),
    field!("attack.swaps", attack.swaps, count(0, MAX_SWAPS), Network),
    field!("attack.damage_threshold", attack.damage_threshold, FRACTION, Network),
    field!("network.enabled", network.enabled),
    field!("network.with_outages", network.with_outages),
    field!("network.n_flows", network.n_flows, count(0, MAX_N_FLOWS), Network),
    // The hour places the constellation and the demand field (and keys
    // the run's gravity-field cache): one day's hours only.
    field!("network.utc_hour", network.utc_hour, (Included(0.0), Excluded(24.0)), Network),
    // Terminals attach above the horizon only: a negative angle would
    // reach satellites below it, and at 90° or more no satellite is ever
    // in view.
    field!(
        "network.min_elevation_deg",
        network.min_elevation_deg,
        (Included(0.0), Excluded(90.0)),
        Network
    ),
    field!("network.max_range_km", network.max_range_km, POSITIVE, Network),
    field!("network.slots", network.slots, count(1, MAX_ROUTE_SLOTS), Network),
    field!("network.slot_s", network.slot_s),
    field!(
        "network.time_grid_slots",
        network.time_grid_slots,
        count(1, MAX_TIME_GRID_SLOTS),
        Network
    ),
    field!("network.time_grid_slot_s", network.time_grid_slot_s),
    field!("network.percolation", network.percolation),
    // The network stage's evaluator takes both percolation knobs whether
    // or not the percolation stage uses them.
    field!(
        "network.percolation_steps",
        network.percolation_steps,
        count(1, MAX_PERCOLATION_STEPS),
        Network
    ),
    field!(
        "network.percolation_gap",
        network.percolation_gap,
        (Excluded(0.0), Excluded(1.0)),
        Network
    ),
    token!(TRAFFIC_MODELS, traffic.model),
    field!("traffic.pairs", traffic.pairs, count(1, MAX_TRAFFIC_PAIRS), Gravity),
    // The gravity model needs distinct endpoints.
    field!("traffic.sites", traffic.sites, count(2, MAX_SITES), Gravity),
    field!("traffic.capacity_gbps", traffic.capacity_gbps, POSITIVE, Always),
    field!("traffic.k_paths", traffic.k_paths, count(1, MAX_K_PATHS), Always),
];

/// Applies one dotted-path override to a spec: looks the key up in
/// `PARAMS` and runs its setter.
///
/// # Errors
/// [`ScenarioError::UnknownParameter`] for keys outside `PARAMS` (with
/// the nearest key as a hint), [`ScenarioError::BadValue`] for
/// un-coercible values.
pub fn apply_param(spec: &mut ScenarioSpec, key: &str, value: &TomlValue) -> Result<()> {
    match PARAMS.iter().find(|p| p.key == key) {
        Some(param) => (param.set)(spec, key, value),
        None => Err(ScenarioError::UnknownParameter {
            key: key.to_string(),
            hint: nearest(key, PARAMS.iter().map(|p| p.key)),
        }),
    }
}

/// Rewrites the spare policy through its three keys: whether the pool
/// is shared, the spare count, and the replacement time.
fn edit_policy(s: &mut ScenarioSpec, edit: impl FnOnce(&mut (bool, usize, f64))) {
    let mut parts = match s.survivability.policy {
        SparePolicy::PerPlane { spares_per_plane, replacement_days } => {
            (false, spares_per_plane, replacement_days)
        }
        SparePolicy::SharedPool { pool_size, replacement_days } => {
            (true, pool_size, replacement_days)
        }
    };
    edit(&mut parts);
    let (shared, count, replacement_days) = parts;
    s.survivability.policy = if shared {
        SparePolicy::SharedPool { pool_size: count, replacement_days }
    } else {
        SparePolicy::PerPlane { spares_per_plane: count, replacement_days }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn axis(param: &str, values: &[f64]) -> SweepAxis {
        SweepAxis {
            param: param.to_string(),
            values: values.iter().map(|&x| TomlValue::Float(x)).collect(),
        }
    }

    #[test]
    fn expansion_is_row_major_and_complete() {
        let sweep = SweepSpec {
            base: ScenarioSpec::named("g"),
            axes: vec![
                axis("demand.total_demand_b", &[10.0, 100.0]),
                axis("survivability.horizon_years", &[1.0, 2.0, 3.0]),
            ],
        };
        let specs = sweep.expand().unwrap();
        assert_eq!(specs.len(), 6);
        assert_eq!(specs[0].demand.total_demand_b, 10.0);
        assert_eq!(specs[0].survivability.horizon_years, 1.0);
        assert_eq!(specs[1].survivability.horizon_years, 2.0);
        assert_eq!(specs[3].demand.total_demand_b, 100.0);
        assert!(specs[0].name.contains("demand.total_demand_b=10"));
    }

    #[test]
    fn seeds_stable_under_axis_reordering() {
        let a = SweepSpec {
            base: ScenarioSpec::named("g"),
            axes: vec![
                axis("demand.total_demand_b", &[10.0, 100.0]),
                axis("survivability.horizon_years", &[1.0, 2.0]),
            ],
        };
        let b =
            SweepSpec { base: a.base.clone(), axes: vec![a.axes[1].clone(), a.axes[0].clone()] };
        let mut sa: Vec<(String, u64)> =
            a.expand().unwrap().into_iter().map(|s| (s.name, s.seed)).collect();
        let mut sb: Vec<(String, u64)> =
            b.expand().unwrap().into_iter().map(|s| (s.name, s.seed)).collect();
        sa.sort();
        sb.sort();
        assert_eq!(sa, sb);
    }

    #[test]
    fn seeds_distinct_across_points_and_int_float_agree() {
        let overrides_int = vec![("demand.total_demand_b".to_string(), TomlValue::Int(10))];
        let overrides_float = vec![("demand.total_demand_b".to_string(), TomlValue::Float(10.0))];
        assert_eq!(scenario_seed(1, &overrides_int), scenario_seed(1, &overrides_float));
        let other = vec![("demand.total_demand_b".to_string(), TomlValue::Float(20.0))];
        assert_ne!(scenario_seed(1, &overrides_int), scenario_seed(1, &other));
        assert_eq!(scenario_seed(9, &[]), 9);
    }

    #[test]
    fn unknown_parameter_rejected() {
        let mut spec = ScenarioSpec::named("x");
        let err = apply_param(&mut spec, "demand.flux_capacitor", &TomlValue::Int(1)).unwrap_err();
        assert!(matches!(err, ScenarioError::UnknownParameter { .. }));

        // Corrupted files fail at load: a renamed section in a shipped
        // scenario, a typo'd key (with the nearest key as a hint) and a
        // made-up section.
        let baseline = crate::library::find("baseline").unwrap().toml;
        let corrupt = baseline.replacen("[spares]", "[spare]", 1);
        assert_ne!(baseline, corrupt, "corruption did not apply");
        let err = crate::config::sweep_from_toml(&corrupt).unwrap_err().to_string();
        assert!(err.contains("'spare.") && err.contains("did you mean `spares."), "{err}");
        let err =
            crate::config::sweep_from_toml("[attack]\nplanes_lots = 2\n").unwrap_err().to_string();
        assert!(err.contains("did you mean `attack.planes_lost`"), "{err}");
        let err = crate::config::sweep_from_toml("[made_up]\nknob = 1.0\n").unwrap_err();
        assert_eq!(err, ScenarioError::UnknownParameter { key: "made_up.knob".into(), hint: None });
    }

    /// A vocabulary's parser, answering with canonical names.
    type NameParser = Box<dyn Fn(&str) -> Result<&'static str>>;

    /// One vocabulary seen through canonical names: its key, every
    /// `(spelling, canonical name)` pair, its parser, and the expected
    /// list an unknown token's error states.
    struct VocabCase {
        key: &'static str,
        spellings: Vec<(&'static str, &'static str)>,
        parse: NameParser,
        expected: &'static str,
    }

    fn case<T: Copy + PartialEq>(vocab: &'static Vocab<T>, expected: &'static str) -> VocabCase {
        let spellings = vocab
            .values
            .iter()
            .flat_map(|&(value, names)| names.iter().map(move |&n| (n, vocab.name(value))))
            .collect();
        let parse = Box::new(move |t: &str| vocab.parse(t).map(|value| vocab.name(value)));
        VocabCase { key: vocab.key, spellings, parse, expected }
    }

    #[test]
    fn every_vocabulary_parses_names_and_rejects_from_its_table() {
        let registry = DESIGNER_REGISTRY.iter().map(|&(name, _)| (name, name));
        let cases = [
            case(&SOLAR, "cycle24 | max | min"),
            case(&BRANCH_RULES, "best-of-both | ascending-only | alternate"),
            case(&SUPPLY_MODELS, "worst-case | time-average"),
            case(&FAILURE_KINDS, "exponential | weibull"),
            case(&SPARE_POOLS, "per-plane | shared-pool"),
            case(&ATTACK_KINDS, "leading-planes | random-sats | declination-band | shell | optimized"),
            case(
                &OBJECTIVES,
                "routed-fraction | connectivity | load-inflation | served-demand | masking-threshold",
            ),
            case(&ATTACK_UNITS, "planes | sats"),
            case(&TRAFFIC_MODELS, "sampled | gravity"),
            VocabCase {
                key: "design.kind",
                spellings: registry.clone().chain(DESIGN_KIND_ALIASES.iter().copied()).collect(),
                parse: Box::new(resolve_design_kind),
                expected: "ss | wd | rgt | slim | starlink",
            },
            // The list form names its own key.
            VocabCase {
                key: "design.kinds",
                spellings: registry.chain(DESIGN_KIND_ALIASES.iter().copied()).collect(),
                parse: Box::new(|t: &str| {
                    let mut spec = ScenarioSpec::named("k");
                    let kinds = TomlValue::Array(vec![TomlValue::Str(t.to_string())]);
                    apply_param(&mut spec, "design.kinds", &kinds).map(|()| spec.design.kinds[0])
                }),
                expected: "ss | wd | rgt | slim | starlink",
            },
        ];
        for c in &cases {
            let key = c.key;
            assert!(PARAMS.iter().any(|p| p.key == key), "{key} has no PARAMS row");
            for &(spelling, name) in &c.spellings {
                assert_eq!((c.parse)(spelling).unwrap(), name, "{key}: {spelling}");
                assert_eq!((c.parse)(name).unwrap(), name, "{key}: canonical {name}");
                if spelling == name {
                    // A near miss of a canonical name is hinted at it.
                    let err = (c.parse)(&format!("{name}x")).unwrap_err().to_string();
                    assert!(err.contains(&format!("did you mean `{name}`")), "{key}: {err}");
                }
            }
            let mut spellings: Vec<&str> = c.spellings.iter().map(|&(s, _)| s).collect();
            spellings.sort_unstable();
            let n = spellings.len();
            spellings.dedup();
            assert_eq!(spellings.len(), n, "{key}: a spelling repeats");
            let far = "zzzzzzzzzzzz";
            assert_eq!((c.parse)(far), Err(ScenarioError::bad_value(key, far, c.expected)));
        }
    }

    #[test]
    fn param_keys_are_unique() {
        // A repeated key would shadow its second setter without a word.
        let mut keys: Vec<&str> = PARAMS.iter().map(|p| p.key).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), PARAMS.len(), "duplicate key in PARAMS");
    }

    /// Turns `gate` on or off in an otherwise default spec.
    fn set_gate(spec: &mut ScenarioSpec, gate: Gate, on: bool) {
        match gate {
            Always => {}
            Radiation => {
                spec.radiation.enabled = on;
                // Survivability needs the radiation stage.
                spec.survivability.enabled = on;
            }
            Survivability => spec.survivability.enabled = on,
            Network => spec.network.enabled = on,
            Gravity => {
                spec.traffic.model = if on { TrafficModel::Gravity } else { TrafficModel::Sampled }
            }
            Rgt => spec.design.kinds = vec![if on { "rgt" } else { "ss" }],
            Walker => spec.design.kinds = vec![if on { "wd" } else { "ss" }],
            Slim => spec.design.kinds = vec![if on { "slim" } else { "ss" }],
            Starlink => spec.design.kinds = vec![if on { "starlink" } else { "ss" }],
        }
        assert_eq!(gate.is_on(spec), on || gate == Always, "{gate:?}");
    }

    /// Validates a spec built from `base` with `key` set to `x`.
    fn validate_with(base: &ScenarioSpec, key: &str, x: TomlValue) -> Result<()> {
        let mut spec = base.clone();
        apply_param(&mut spec, key, &x).unwrap();
        spec.validate()
    }

    #[test]
    fn every_range_holds_at_its_ends_while_its_gate_is_on() {
        let mut ranged = 0;
        for param in PARAMS {
            let Some((get, (lo, hi), gate)) = param.range else { continue };
            ranged += 1;
            let key = param.key;
            let list = matches!(get, Getter::Each(_));
            // An integer key refuses a fraction; its neighbours are ±1.
            let integer = !list
                && apply_param(&mut ScenarioSpec::named("x"), key, &TomlValue::Float(0.5)).is_err();
            let scalar =
                |x: f64| if integer { TomlValue::Int(x as i64) } else { TomlValue::Float(x) };
            let down = |x: f64| if integer { x - 1.0 } else { x.next_down() };
            let up = |x: f64| if integer { x + 1.0 } else { x.next_up() };
            // (the end itself or the first value inside it, the first
            // value outside it) at each end of the range.
            let mut ends = Vec::new();
            match lo {
                Included(x) => ends.push((x, down(x))),
                Excluded(x) => ends.push((up(x), x)),
                Unbounded => {}
            }
            match hi {
                Included(x) => ends.push((x, up(x))),
                Excluded(x) => ends.push((down(x), x)),
                Unbounded => {}
            }
            // A list key takes `x` after an entry inside the range, so a
            // bad entry must fail behind a good one.
            let value = |x: f64| {
                if list {
                    TomlValue::Array(vec![scalar(ends[0].0), scalar(x)])
                } else {
                    scalar(x)
                }
            };
            let mut outside: Vec<f64> = ends.iter().map(|&(_, out)| out).collect();
            if !integer {
                outside.extend([f64::NAN, f64::INFINITY, f64::NEG_INFINITY]);
            }
            // A negative count cannot be written at all.
            outside.retain(|&x| !(integer && x < 0.0));

            let mut on = ScenarioSpec::named("x");
            set_gate(&mut on, gate, true);
            on.validate().unwrap();
            for &(inside, _) in &ends {
                let ok = validate_with(&on, key, value(inside));
                assert!(ok.is_ok(), "{key} = {inside}: {ok:?}");
            }
            for &x in &outside {
                let err = validate_with(&on, key, value(x)).unwrap_err();
                assert!(
                    matches!(&err, ScenarioError::BadValue { key: bad, .. } if bad == key),
                    "{key} = {x}: {err}"
                );
            }
            if gate != Always {
                let mut off = ScenarioSpec::named("x");
                set_gate(&mut off, gate, false);
                for &x in &outside {
                    let ok = validate_with(&off, key, value(x));
                    assert!(ok.is_ok(), "{key} = {x} with {gate:?} off: {ok:?}");
                }
            }
        }
        assert_eq!(ranged, 29, "ranged rows");
    }

    #[test]
    fn design_kind_and_kinds_paths() {
        let mut spec = ScenarioSpec::named("x");
        apply_param(&mut spec, "design.kind", &TomlValue::Str("rgt".into())).unwrap();
        assert_eq!(spec.design.kinds, vec!["rgt"]);
        apply_param(&mut spec, "design.kind", &TomlValue::Str("both".into())).unwrap();
        assert_eq!(spec.design.kinds, vec!["ss", "wd"]);
        apply_param(&mut spec, "design.kind", &TomlValue::Str("starlink".into())).unwrap();
        assert_eq!(spec.design.kinds, vec!["starlink"]);
        let all = TomlValue::Array(vec![
            TomlValue::Str("rgt".into()),
            TomlValue::Str("ss".into()),
            TomlValue::Str("walker".into()),
            TomlValue::Str("slim".into()),
            TomlValue::Str("starlink".into()),
        ]);
        apply_param(&mut spec, "design.kinds", &all).unwrap();
        assert_eq!(spec.design.kinds, vec!["rgt", "ss", "wd", "slim", "starlink"]);
        assert!(apply_param(&mut spec, "design.kinds", &TomlValue::Array(vec![])).is_err());
        assert!(
            apply_param(&mut spec, "design.kinds", &TomlValue::Str("ss".into())).is_err(),
            "the list path needs an array (the scalar path is design.kind)"
        );
    }

    #[test]
    fn slim_starlink_and_per_satellite_paths() {
        let mut spec = ScenarioSpec::named("x");
        apply_param(&mut spec, "design.slim_plane_factor", &TomlValue::Float(0.4)).unwrap();
        apply_param(&mut spec, "design.slim_min_planes", &TomlValue::Int(2)).unwrap();
        apply_param(&mut spec, "design.starlink_scale", &TomlValue::Float(0.25)).unwrap();
        assert_eq!(spec.design.slim_plane_factor, 0.4);
        assert_eq!(spec.design.slim_min_planes, 2);
        assert_eq!(spec.design.starlink_scale, 0.25);
        apply_param(&mut spec, "survivability.per_satellite", &TomlValue::Bool(true)).unwrap();
        assert!(spec.survivability.per_satellite);
        assert!(apply_param(&mut spec, "survivability.per_satellite", &TomlValue::Int(1)).is_err());
        assert!(
            apply_param(&mut spec, "design.starlink_scale", &TomlValue::Str("x".into())).is_err()
        );
    }

    #[test]
    fn rgt_and_demand_seed_paths() {
        let mut spec = ScenarioSpec::named("x");
        apply_param(&mut spec, "design.rgt_revs", &TomlValue::Int(14)).unwrap();
        apply_param(&mut spec, "design.rgt_days", &TomlValue::Int(1)).unwrap();
        apply_param(&mut spec, "design.rgt_inclination_deg", &TomlValue::Float(55.0)).unwrap();
        assert_eq!(spec.design.rgt.revs, 14);
        assert_eq!(spec.design.rgt.days, 1);
        assert_eq!(spec.design.rgt.inclination_deg, 55.0);
        // The shared designer knobs reach the RGT config too.
        apply_param(&mut spec, "design.sat_capacity", &TomlValue::Float(2.0)).unwrap();
        apply_param(&mut spec, "design.min_elevation_deg", &TomlValue::Float(30.0)).unwrap();
        assert_eq!(spec.design.rgt.sat_capacity, 2.0);
        assert_eq!(spec.design.rgt.min_elevation_deg, 30.0);

        apply_param(&mut spec, "demand.seed", &TomlValue::Int(7)).unwrap();
        assert_eq!(spec.demand.seed, 7);
        assert!(apply_param(&mut spec, "demand.seed", &TomlValue::Float(-1.0)).is_err());
    }

    #[test]
    fn reserved_axes_rejected() {
        for reserved in ["seed", "name"] {
            let sweep = SweepSpec {
                base: ScenarioSpec::named("g"),
                axes: vec![SweepAxis {
                    param: reserved.to_string(),
                    values: vec![TomlValue::Int(1), TomlValue::Int(2)],
                }],
            };
            let err = sweep.expand().unwrap_err();
            assert!(matches!(err, ScenarioError::BadValue { .. }), "{reserved}: {err}");
        }
    }

    #[test]
    fn empty_axis_means_zero_points() {
        let sweep = SweepSpec {
            base: ScenarioSpec::named("g"),
            axes: vec![SweepAxis { param: "attack.planes_lost".to_string(), values: vec![] }],
        };
        assert!(sweep.is_empty());
        assert_eq!(sweep.len(), 0);
        assert_eq!(sweep.expand().unwrap().len(), 0);
    }

    #[test]
    fn epoch_year_outside_algorithm_domain_rejected() {
        let mut spec = ScenarioSpec::named("x");
        for bad in ["2150-06-01", "1850-06-01"] {
            let err = apply_param(&mut spec, "radiation.epoch", &TomlValue::Str(bad.to_string()))
                .unwrap_err();
            assert!(err.to_string().contains("1901-2099"), "{bad}: {err}");
        }
        apply_param(&mut spec, "radiation.epoch", &TomlValue::Str("2014-04-01".to_string()))
            .unwrap();
        assert_eq!(spec.radiation.epoch_ymd, (2014, 4, 1));
    }

    #[test]
    fn impossible_calendar_dates_rejected() {
        let mut spec = ScenarioSpec::named("x");
        for bad in ["2013-06-31", "2013-02-30", "2013-02-29", "2013-04-31"] {
            assert!(
                apply_param(&mut spec, "radiation.epoch", &TomlValue::Str(bad.to_string()))
                    .is_err(),
                "{bad} accepted"
            );
        }
        // Leap day on an actual leap year is fine.
        apply_param(&mut spec, "radiation.epoch", &TomlValue::Str("2016-02-29".to_string()))
            .unwrap();
        assert_eq!(spec.radiation.epoch_ymd, (2016, 2, 29));
    }

    #[test]
    fn network_time_grid_paths() {
        let mut spec = ScenarioSpec::named("x");
        apply_param(&mut spec, "network.time_grid_slots", &TomlValue::Int(6)).unwrap();
        apply_param(&mut spec, "network.time_grid_slot_s", &TomlValue::Float(300.0)).unwrap();
        assert_eq!(spec.network.time_grid_slots, 6);
        assert_eq!(spec.network.time_grid_slot_s, 300.0);
        assert!(apply_param(&mut spec, "network.time_grid_slots", &TomlValue::Float(1.5)).is_err());
    }

    #[test]
    fn disruption_paths() {
        let mut spec = ScenarioSpec::named("x");
        apply_param(&mut spec, "attack.kind", &TomlValue::Str("random-sats".into())).unwrap();
        apply_param(&mut spec, "attack.sats_lost", &TomlValue::Int(40)).unwrap();
        assert_eq!(spec.attack.kind, AttackKind::RandomSats);
        assert_eq!(spec.attack.sats_lost, 40);
        apply_param(&mut spec, "attack.kind", &TomlValue::Str("declination-band".into())).unwrap();
        apply_param(&mut spec, "attack.band_min_deg", &TomlValue::Float(-5.0)).unwrap();
        apply_param(&mut spec, "attack.band_max_deg", &TomlValue::Float(5.0)).unwrap();
        assert_eq!(spec.attack.band_min_deg, -5.0);
        apply_param(&mut spec, "attack.kind", &TomlValue::Str("shell".into())).unwrap();
        apply_param(&mut spec, "attack.shell", &TomlValue::Int(1)).unwrap();
        assert_eq!(spec.attack.shell, 1);
        assert!(apply_param(&mut spec, "attack.kind", &TomlValue::Str("emp".into())).is_err());

        apply_param(&mut spec, "survivability.failure.kind", &TomlValue::Str("weibull".into()))
            .unwrap();
        apply_param(&mut spec, "survivability.failure.wearout_shape", &TomlValue::Float(2.5))
            .unwrap();
        apply_param(
            &mut spec,
            "survivability.failure.infant_scale_years",
            &TomlValue::Float(300.0),
        )
        .unwrap();
        assert_eq!(spec.survivability.failure_kind, FailureKind::Weibull);
        assert_eq!(spec.survivability.weibull.wearout_shape, 2.5);
        assert_eq!(spec.survivability.weibull.infant_scale_years, 300.0);

        apply_param(&mut spec, "network.with_outages", &TomlValue::Bool(true)).unwrap();
        assert!(spec.network.with_outages);
        assert!(apply_param(&mut spec, "network.with_outages", &TomlValue::Int(1)).is_err());

        apply_param(&mut spec, "network.percolation", &TomlValue::Bool(true)).unwrap();
        apply_param(&mut spec, "network.percolation_steps", &TomlValue::Int(16)).unwrap();
        apply_param(&mut spec, "network.percolation_gap", &TomlValue::Float(0.2)).unwrap();
        assert!(spec.network.percolation);
        assert_eq!(spec.network.percolation_steps, 16);
        assert_eq!(spec.network.percolation_gap, 0.2);
        assert!(apply_param(&mut spec, "network.percolation", &TomlValue::Int(1)).is_err());
    }

    #[test]
    fn optimized_attack_paths() {
        use ssplane_lsn::optimizer::AttackObjective;
        let mut spec = ScenarioSpec::named("x");
        apply_param(&mut spec, "attack.kind", &TomlValue::Str("optimized".into())).unwrap();
        apply_param(&mut spec, "attack.objective", &TomlValue::Str("load-inflation".into()))
            .unwrap();
        apply_param(&mut spec, "attack.unit", &TomlValue::Str("sats".into())).unwrap();
        apply_param(&mut spec, "attack.budget", &TomlValue::Int(12)).unwrap();
        apply_param(&mut spec, "attack.restarts", &TomlValue::Int(4)).unwrap();
        apply_param(&mut spec, "attack.swaps", &TomlValue::Int(9)).unwrap();
        apply_param(&mut spec, "attack.damage_threshold", &TomlValue::Float(0.4)).unwrap();
        assert_eq!(spec.attack.kind, AttackKind::Optimized);
        assert_eq!(spec.attack.objective, AttackObjective::LoadInflation);
        assert_eq!(spec.attack.unit, AttackUnit::Sats);
        assert_eq!(spec.attack.budget, 12);
        assert_eq!(spec.attack.restarts, 4);
        assert_eq!(spec.attack.swaps, 9);
        assert_eq!(spec.attack.damage_threshold, 0.4);
        assert!(
            apply_param(&mut spec, "attack.objective", &TomlValue::Str("chaos".into())).is_err()
        );
        assert!(apply_param(&mut spec, "attack.budget", &TomlValue::Float(1.5)).is_err());
    }

    #[test]
    fn traffic_paths() {
        let mut spec = ScenarioSpec::named("x");
        apply_param(&mut spec, "traffic.model", &TomlValue::Str("gravity".into())).unwrap();
        apply_param(&mut spec, "traffic.pairs", &TomlValue::Int(150_000)).unwrap();
        apply_param(&mut spec, "traffic.sites", &TomlValue::Int(128)).unwrap();
        apply_param(&mut spec, "traffic.capacity_gbps", &TomlValue::Float(2.5)).unwrap();
        apply_param(&mut spec, "traffic.k_paths", &TomlValue::Int(4)).unwrap();
        assert_eq!(spec.traffic.model, TrafficModel::Gravity);
        assert_eq!(spec.traffic.pairs, 150_000);
        assert_eq!(spec.traffic.sites, 128);
        assert_eq!(spec.traffic.capacity_gbps, 2.5);
        assert_eq!(spec.traffic.k_paths, 4);
        assert!(apply_param(&mut spec, "traffic.model", &TomlValue::Str("psychic".into())).is_err());
        assert!(apply_param(&mut spec, "traffic.k_paths", &TomlValue::Float(1.5)).is_err());
        // The served-demand objective token reaches the attack spec.
        apply_param(&mut spec, "attack.objective", &TomlValue::Str("served-demand".into()))
            .unwrap();
        assert_eq!(spec.attack.objective, ssplane_lsn::optimizer::AttackObjective::ServedDemand);
    }

    #[test]
    fn spares_paths_update_the_policy() {
        let mut spec = ScenarioSpec::named("x");
        apply_param(&mut spec, "spares.policy", &TomlValue::Str("shared-pool".into())).unwrap();
        apply_param(&mut spec, "spares.count", &TomlValue::Int(40)).unwrap();
        apply_param(&mut spec, "spares.replacement_days", &TomlValue::Float(20.0)).unwrap();
        assert_eq!(
            spec.survivability.policy,
            SparePolicy::SharedPool { pool_size: 40, replacement_days: 20.0 }
        );
    }
}
