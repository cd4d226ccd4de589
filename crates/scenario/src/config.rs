//! Loading scenario/sweep specs from their TOML form.
//!
//! The file format is flat sections of `key = value` pairs; every
//! `section.key` pair funnels through [`crate::sweep::apply_param`], so
//! the file surface and the sweep-axis surface are one and the same. The
//! special `[sweep]` section declares parameter axes: each key is a
//! dotted parameter path (quoted, since bare TOML keys cannot contain
//! dots meaningfully here) and its value the array of grid values.
//!
//! ```toml
//! name = "solar-sweep"
//! seed = 42
//!
//! [demand]
//! total_demand_b = 200.0
//!
//! [sweep]
//! "radiation.solar" = ["min", "cycle24", "max"]
//! "demand.total_demand_b" = [50.0, 200.0]
//! ```

use crate::error::{Result, ScenarioError};
use crate::spec::ScenarioSpec;
use crate::sweep::{apply_param, SweepAxis, SweepSpec};
use crate::toml;

/// Parses a TOML scenario file into a sweep (a file without a `[sweep]`
/// section is a single-scenario sweep).
///
/// # Errors
/// Parse errors, unknown parameters, or un-coercible values.
pub fn sweep_from_toml(source: &str) -> Result<SweepSpec> {
    let doc = toml::parse(source)?;
    let mut base = ScenarioSpec::named("scenario");
    for (section, entries) in &doc {
        if section == "sweep" {
            continue;
        }
        for (key, value) in entries.iter() {
            let path = if section.is_empty() { key.clone() } else { format!("{section}.{key}") };
            apply_param(&mut base, &path, value)?;
        }
    }

    // Axes in file-declaration order: the last declared axis varies
    // fastest in the expansion, as the README documents.
    let mut axes = Vec::new();
    if let Some(sweep) = doc.get("sweep") {
        for (param, value) in sweep.iter() {
            let values = value
                .as_array()
                .ok_or_else(|| {
                    ScenarioError::bad_value(
                        &format!("sweep.{param}"),
                        &crate::sweep::canonical_value(value),
                        "an array of axis values",
                    )
                })?
                .to_vec();
            if values.is_empty() {
                return Err(ScenarioError::bad_value(
                    &format!("sweep.{param}"),
                    "[]",
                    "at least one axis value",
                ));
            }
            // Check the parameter path and every value eagerly, so a typo
            // fails at load time instead of mid-sweep.
            for v in &values {
                let mut probe = base.clone();
                apply_param(&mut probe, param, v)?;
            }
            axes.push(SweepAxis { param: param.clone(), values });
        }
    }
    Ok(SweepSpec { base, axes })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::SolarActivity;

    #[test]
    fn full_file_round_trip() {
        let sweep = sweep_from_toml(
            r#"
name = "demo"
seed = 7

[design]
kind = "ss"
altitude_km = 550.0

[demand]
total_demand_b = 75.0

[radiation]
solar = "max"

[spares]
policy = "shared-pool"
count = 12

[sweep]
"attack.planes_lost" = [0, 2]
"#,
        )
        .unwrap();
        assert_eq!(sweep.base.name, "demo");
        assert_eq!(sweep.base.seed, 7);
        assert_eq!(sweep.base.design.ss.altitude_km, 550.0);
        assert_eq!(sweep.base.design.wd.altitude_km, 550.0);
        assert_eq!(sweep.base.demand.total_demand_b, 75.0);
        assert_eq!(sweep.base.radiation.solar, SolarActivity::Max);
        assert_eq!(sweep.axes.len(), 1);
        let specs = sweep.expand().unwrap();
        assert_eq!(specs.len(), 2);
        assert_eq!(specs[1].attack.planes_lost, 2);
        // Axis points inherit the base and differ only on the axis.
        assert_eq!(specs[0].design.ss.altitude_km, 550.0);
        assert_ne!(specs[0].seed, specs[1].seed);
    }

    #[test]
    fn sweep_axes_keep_declaration_order() {
        // The last *declared* axis must vary fastest, regardless of the
        // keys' alphabetical order.
        let sweep = sweep_from_toml(
            "[radiation]\nenabled = false\n[survivability]\nenabled = false\n[sweep]\n\
             \"radiation.phases\" = [1, 2]\n\"attack.planes_lost\" = [0, 3]\n",
        )
        .unwrap();
        assert_eq!(sweep.axes[0].param, "radiation.phases");
        assert_eq!(sweep.axes[1].param, "attack.planes_lost");
        let specs = sweep.expand().unwrap();
        assert_eq!(
            specs.iter().map(|s| s.attack.planes_lost).collect::<Vec<_>>(),
            vec![0, 3, 0, 3],
            "last declared axis varies fastest"
        );
        assert_eq!(specs.iter().map(|s| s.radiation.phases).collect::<Vec<_>>(), vec![1, 1, 2, 2]);
    }

    #[test]
    fn unknown_axis_param_fails_at_load() {
        let err = sweep_from_toml("[sweep]\n\"demand.warp\" = [1]\n").unwrap_err();
        assert!(matches!(err, ScenarioError::UnknownParameter { .. }), "{err}");
        let err = sweep_from_toml("[sweep]\n\"attack.planes_lots\" = [0, 2]\n").unwrap_err();
        assert!(err.to_string().contains("did you mean `attack.planes_lost`"), "{err}");
        // A mistyped section key is hinted the same way.
        let err = sweep_from_toml("[attack]\nplane_lost = 3\n").unwrap_err();
        assert_eq!(
            err,
            ScenarioError::UnknownParameter {
                key: "attack.plane_lost".into(),
                hint: Some("attack.planes_lost"),
            }
        );
        // An axis is looked up by its whole dotted path, not by a suffix.
        let err = sweep_from_toml("[sweep]\n\"planes_lost\" = [0, 2]\n").unwrap_err();
        assert!(
            matches!(&err, ScenarioError::UnknownParameter { key, .. } if key == "planes_lost"),
            "{err}"
        );
        let err = sweep_from_toml("[sweep]\n\"made_up.knob\" = [1.0]\n").unwrap_err();
        assert!(matches!(err, ScenarioError::UnknownParameter { hint: None, .. }), "{err}");
        // `seed` is a real key, so the axis loads; expansion refuses it
        // because it assigns every point's seed itself.
        let sweep = sweep_from_toml("[sweep]\n\"seed\" = [1, 2, 3]\n").unwrap();
        let err = sweep.expand().unwrap_err().to_string();
        assert!(err.contains("seed") && err.contains("a sweep axis"), "{err}");
    }

    #[test]
    fn schema_accepts_clean_and_rejects_typos() {
        // Scenario keys are checked by the loader, against the one key
        // table `crate::sweep::PARAMS`.
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
        // Typo one key of a real shipped scenario.
        let baseline = include_str!("../../../scenarios/baseline.toml");
        sweep_from_toml(baseline).expect("shipped baseline loads");
        let corrupt = baseline.replacen("[spares]", "[spare]", 1);
        assert_ne!(baseline, corrupt, "corruption did not apply");
        let err = sweep_from_toml(&corrupt).expect_err("typo'd section must be rejected");
        assert!(matches!(err, ScenarioError::UnknownParameter { .. }), "{err}");
        assert!(err.to_string().contains("did you mean `spares."), "{err}");
    }
}
