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
use crate::spec::{
    nearest, parse_branch_rule, parse_design_kinds, parse_objective, parse_supply_model,
    resolve_design_kind, AttackKind, AttackUnit, FailureKind, ScenarioSpec, SolarActivity,
    TrafficModel,
};
use crate::toml::TomlValue;
use ssplane_lsn::spares::SparePolicy;

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

fn need_f64(key: &str, v: &TomlValue) -> Result<f64> {
    v.as_f64().ok_or_else(|| ScenarioError::bad_value(key, &canonical_value(v), "a number"))
}

fn need_usize(key: &str, v: &TomlValue) -> Result<usize> {
    v.as_usize()
        .ok_or_else(|| ScenarioError::bad_value(key, &canonical_value(v), "a non-negative integer"))
}

fn need_u64(key: &str, v: &TomlValue) -> Result<u64> {
    v.as_u64()
        .ok_or_else(|| ScenarioError::bad_value(key, &canonical_value(v), "a non-negative integer"))
}

fn need_u32(key: &str, v: &TomlValue) -> Result<u32> {
    u32::try_from(need_usize(key, v)?)
        .map_err(|_| ScenarioError::bad_value(key, &canonical_value(v), "a small positive integer"))
}

fn need_str<'v>(key: &str, v: &'v TomlValue) -> Result<&'v str> {
    v.as_str().ok_or_else(|| ScenarioError::bad_value(key, &canonical_value(v), "a string"))
}

fn need_bool(key: &str, v: &TomlValue) -> Result<bool> {
    v.as_bool().ok_or_else(|| ScenarioError::bad_value(key, &canonical_value(v), "a boolean"))
}

/// Parses `"YYYY-MM-DD"` into `(year, month, day)`.
fn parse_ymd(key: &str, s: &str) -> Result<(i32, u32, u32)> {
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

/// Every scenario key and its setter: the *entire* config surface. The
/// TOML loader funnels every `section.key` pair and every sweep axis
/// through [`apply_param`], so config files and sweep axes address
/// exactly these knobs, and an unknown key's did-you-mean hint is drawn
/// from this list.
const PARAMS: &[(&str, Setter)] = &[
    ("name", |s, k, v| need_str(k, v).map(|x| s.name = x.to_string())),
    ("seed", |s, k, v| need_u64(k, v).map(|x| s.seed = x)),
    // `design.kind` is the scalar spelling (kept for back-compat:
    // `"both"` still selects the paper's SS + Walker pair);
    // `design.kinds` is the open list form.
    ("design.kind", |s, k, v| parse_design_kinds(need_str(k, v)?).map(|x| s.design.kinds = x)),
    ("design.kinds", |s, k, v| {
        let arr = v.as_array().ok_or_else(|| {
            ScenarioError::bad_value(k, &canonical_value(v), "an array of design kinds")
        })?;
        let mut kinds = Vec::with_capacity(arr.len());
        for item in arr {
            kinds.push(resolve_design_kind(need_str(k, item)?)?);
        }
        if kinds.is_empty() {
            return Err(ScenarioError::bad_value(k, "[]", "at least one design kind"));
        }
        s.design.kinds = kinds;
        Ok(())
    }),
    ("design.altitude_km", |s, k, v| {
        let alt = need_f64(k, v)?;
        s.design.ss.altitude_km = alt;
        s.design.wd.altitude_km = alt;
        Ok(())
    }),
    ("design.min_elevation_deg", |s, k, v| {
        let elev = need_f64(k, v)?;
        s.design.ss.min_elevation_deg = elev;
        s.design.wd.min_elevation_deg = elev;
        s.design.rgt.min_elevation_deg = elev;
        Ok(())
    }),
    ("design.sat_capacity", |s, k, v| {
        let cap = need_f64(k, v)?;
        s.design.ss.sat_capacity = cap;
        s.design.wd.sat_capacity = cap;
        s.design.rgt.sat_capacity = cap;
        Ok(())
    }),
    ("design.rgt_revs", |s, k, v| need_u32(k, v).map(|x| s.design.rgt.revs = x)),
    ("design.rgt_days", |s, k, v| need_u32(k, v).map(|x| s.design.rgt.days = x)),
    ("design.rgt_inclination_deg", |s, k, v| {
        need_f64(k, v).map(|x| s.design.rgt.inclination_deg = x)
    }),
    ("design.max_planes", |s, k, v| need_usize(k, v).map(|x| s.design.ss.max_planes = x)),
    ("design.branch_rule", |s, k, v| {
        parse_branch_rule(need_str(k, v)?).map(|x| s.design.ss.branch_rule = x)
    }),
    ("design.walker_shell_spacing_km", |s, k, v| {
        need_f64(k, v).map(|x| s.design.wd.shell_spacing_km = x)
    }),
    ("design.walker_supply_model", |s, k, v| {
        parse_supply_model(need_str(k, v)?).map(|x| s.design.wd.supply_model = x)
    }),
    ("design.walker_inclinations_deg", |s, k, v| {
        let arr = v.as_array().ok_or_else(|| {
            ScenarioError::bad_value(k, &canonical_value(v), "an array of degrees")
        })?;
        let mut incs = Vec::with_capacity(arr.len());
        for item in arr {
            incs.push(need_f64(k, item)?);
        }
        if incs.is_empty() {
            return Err(ScenarioError::bad_value(k, "[]", "at least one inclination"));
        }
        s.design.wd.candidate_inclinations_deg = incs;
        Ok(())
    }),
    ("design.slim_plane_factor", |s, k, v| need_f64(k, v).map(|x| s.design.slim_plane_factor = x)),
    ("design.slim_min_planes", |s, k, v| need_usize(k, v).map(|x| s.design.slim_min_planes = x)),
    ("design.starlink_scale", |s, k, v| need_f64(k, v).map(|x| s.design.starlink_scale = x)),
    ("demand.total_demand_b", |s, k, v| need_f64(k, v).map(|x| s.demand.total_demand_b = x)),
    ("demand.lat_bins", |s, k, v| need_usize(k, v).map(|x| s.demand.lat_bins = x)),
    ("demand.tod_bins", |s, k, v| need_usize(k, v).map(|x| s.demand.tod_bins = x)),
    ("demand.seed", |s, k, v| need_u64(k, v).map(|x| s.demand.seed = x)),
    ("radiation.enabled", |s, k, v| need_bool(k, v).map(|x| s.radiation.enabled = x)),
    ("radiation.solar", |s, k, v| {
        SolarActivity::parse(need_str(k, v)?).map(|x| s.radiation.solar = x)
    }),
    ("radiation.epoch", |s, k, v| parse_ymd(k, need_str(k, v)?).map(|x| s.radiation.epoch_ymd = x)),
    ("radiation.phases", |s, k, v| need_usize(k, v).map(|x| s.radiation.phases = x)),
    ("radiation.step_s", |s, k, v| need_f64(k, v).map(|x| s.radiation.step_s = x)),
    ("survivability.enabled", |s, k, v| need_bool(k, v).map(|x| s.survivability.enabled = x)),
    ("survivability.horizon_years", |s, k, v| {
        need_f64(k, v).map(|x| s.survivability.horizon_years = x)
    }),
    ("survivability.resupply_days", |s, k, v| {
        need_f64(k, v).map(|x| s.survivability.resupply_days = x)
    }),
    ("survivability.per_satellite", |s, k, v| {
        need_bool(k, v).map(|x| s.survivability.per_satellite = x)
    }),
    ("survivability.failure.kind", |s, k, v| {
        FailureKind::parse(need_str(k, v)?).map(|x| s.survivability.failure_kind = x)
    }),
    ("survivability.failure.infant_shape", |s, k, v| {
        need_f64(k, v).map(|x| s.survivability.weibull.infant_shape = x)
    }),
    ("survivability.failure.infant_scale_years", |s, k, v| {
        need_f64(k, v).map(|x| s.survivability.weibull.infant_scale_years = x)
    }),
    ("survivability.failure.wearout_shape", |s, k, v| {
        need_f64(k, v).map(|x| s.survivability.weibull.wearout_shape = x)
    }),
    ("survivability.failure.wearout_scale_years", |s, k, v| {
        need_f64(k, v).map(|x| s.survivability.weibull.wearout_scale_years = x)
    }),
    ("survivability.failure.electron_accel", |s, k, v| {
        need_f64(k, v).map(|x| s.survivability.weibull.electron_accel = x)
    }),
    ("survivability.failure.proton_accel", |s, k, v| {
        need_f64(k, v).map(|x| s.survivability.weibull.proton_accel = x)
    }),
    ("failures.baseline_per_year", |s, k, v| {
        need_f64(k, v).map(|x| s.survivability.failure.baseline_per_year = x)
    }),
    ("failures.electron_coeff", |s, k, v| {
        need_f64(k, v).map(|x| s.survivability.failure.electron_coeff = x)
    }),
    ("failures.proton_coeff", |s, k, v| {
        need_f64(k, v).map(|x| s.survivability.failure.proton_coeff = x)
    }),
    ("spares.policy", |s, k, v| {
        let (count, replacement_days) = policy_parts(&s.survivability.policy);
        s.survivability.policy = match need_str(k, v)? {
            "per-plane" => SparePolicy::PerPlane { spares_per_plane: count, replacement_days },
            "shared-pool" => SparePolicy::SharedPool { pool_size: count, replacement_days },
            other => return Err(ScenarioError::bad_value(k, other, "per-plane | shared-pool")),
        };
        Ok(())
    }),
    ("spares.count", |s, k, v| {
        let n = need_usize(k, v)?;
        s.survivability.policy = match s.survivability.policy {
            SparePolicy::PerPlane { replacement_days, .. } => {
                SparePolicy::PerPlane { spares_per_plane: n, replacement_days }
            }
            SparePolicy::SharedPool { replacement_days, .. } => {
                SparePolicy::SharedPool { pool_size: n, replacement_days }
            }
        };
        Ok(())
    }),
    ("spares.replacement_days", |s, k, v| {
        let days = need_f64(k, v)?;
        s.survivability.policy = match s.survivability.policy {
            SparePolicy::PerPlane { spares_per_plane, .. } => {
                SparePolicy::PerPlane { spares_per_plane, replacement_days: days }
            }
            SparePolicy::SharedPool { pool_size, .. } => {
                SparePolicy::SharedPool { pool_size, replacement_days: days }
            }
        };
        Ok(())
    }),
    ("attack.kind", |s, k, v| AttackKind::parse(need_str(k, v)?).map(|x| s.attack.kind = x)),
    ("attack.planes_lost", |s, k, v| need_usize(k, v).map(|x| s.attack.planes_lost = x)),
    ("attack.sats_lost", |s, k, v| need_usize(k, v).map(|x| s.attack.sats_lost = x)),
    ("attack.band_min_deg", |s, k, v| need_f64(k, v).map(|x| s.attack.band_min_deg = x)),
    ("attack.band_max_deg", |s, k, v| need_f64(k, v).map(|x| s.attack.band_max_deg = x)),
    ("attack.shell", |s, k, v| need_usize(k, v).map(|x| s.attack.shell = x)),
    ("attack.objective", |s, k, v| {
        parse_objective(need_str(k, v)?).map(|x| s.attack.objective = x)
    }),
    ("attack.unit", |s, k, v| AttackUnit::parse(need_str(k, v)?).map(|x| s.attack.unit = x)),
    ("attack.budget", |s, k, v| need_usize(k, v).map(|x| s.attack.budget = x)),
    ("attack.restarts", |s, k, v| need_usize(k, v).map(|x| s.attack.restarts = x)),
    ("attack.swaps", |s, k, v| need_usize(k, v).map(|x| s.attack.swaps = x)),
    ("attack.damage_threshold", |s, k, v| need_f64(k, v).map(|x| s.attack.damage_threshold = x)),
    ("network.enabled", |s, k, v| need_bool(k, v).map(|x| s.network.enabled = x)),
    ("network.with_outages", |s, k, v| need_bool(k, v).map(|x| s.network.with_outages = x)),
    ("network.n_flows", |s, k, v| need_usize(k, v).map(|x| s.network.n_flows = x)),
    ("network.utc_hour", |s, k, v| need_f64(k, v).map(|x| s.network.utc_hour = x)),
    ("network.min_elevation_deg", |s, k, v| {
        need_f64(k, v).map(|x| s.network.min_elevation_deg = x)
    }),
    ("network.max_range_km", |s, k, v| need_f64(k, v).map(|x| s.network.max_range_km = x)),
    ("network.slots", |s, k, v| need_usize(k, v).map(|x| s.network.slots = x)),
    ("network.slot_s", |s, k, v| need_f64(k, v).map(|x| s.network.slot_s = x)),
    ("network.time_grid_slots", |s, k, v| need_usize(k, v).map(|x| s.network.time_grid_slots = x)),
    ("network.time_grid_slot_s", |s, k, v| need_f64(k, v).map(|x| s.network.time_grid_slot_s = x)),
    ("network.percolation", |s, k, v| need_bool(k, v).map(|x| s.network.percolation = x)),
    ("network.percolation_steps", |s, k, v| {
        need_usize(k, v).map(|x| s.network.percolation_steps = x)
    }),
    ("network.percolation_gap", |s, k, v| need_f64(k, v).map(|x| s.network.percolation_gap = x)),
    ("traffic.model", |s, k, v| TrafficModel::parse(need_str(k, v)?).map(|x| s.traffic.model = x)),
    ("traffic.pairs", |s, k, v| need_usize(k, v).map(|x| s.traffic.pairs = x)),
    ("traffic.sites", |s, k, v| need_usize(k, v).map(|x| s.traffic.sites = x)),
    ("traffic.capacity_gbps", |s, k, v| need_f64(k, v).map(|x| s.traffic.capacity_gbps = x)),
    ("traffic.k_paths", |s, k, v| need_usize(k, v).map(|x| s.traffic.k_paths = x)),
];

/// Applies one dotted-path override to a spec: looks the key up in
/// `PARAMS` and runs its setter.
///
/// # Errors
/// [`ScenarioError::UnknownParameter`] for keys outside `PARAMS` (with
/// the nearest key as a hint), [`ScenarioError::BadValue`] for
/// un-coercible values.
pub fn apply_param(spec: &mut ScenarioSpec, key: &str, value: &TomlValue) -> Result<()> {
    match PARAMS.iter().find(|&&(k, _)| k == key) {
        Some((_, set)) => set(spec, key, value),
        None => Err(ScenarioError::UnknownParameter {
            key: key.to_string(),
            hint: nearest(key, PARAMS.iter().map(|&(k, _)| k)),
        }),
    }
}

/// The `(count, replacement_days)` of either policy variant.
fn policy_parts(policy: &SparePolicy) -> (usize, f64) {
    match *policy {
        SparePolicy::PerPlane { spares_per_plane, replacement_days } => {
            (spares_per_plane, replacement_days)
        }
        SparePolicy::SharedPool { pool_size, replacement_days } => (pool_size, replacement_days),
    }
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

    #[test]
    fn param_keys_are_unique() {
        // A repeated key would shadow its second setter without a word.
        let mut keys: Vec<&str> = PARAMS.iter().map(|&(k, _)| k).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), PARAMS.len(), "duplicate key in PARAMS");
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
