//! Whole-file schema checks: the scenario key surface ([`PARAMS`]) as
//! the loader enforces it on TOML source. A typo'd key is an error that
//! names the nearest known key, sweep axes are full dotted paths, and
//! `seed` is refused as an axis when the sweep expands.
//!
//! [`PARAMS`]: crate::sweep::PARAMS

#[cfg(test)]
mod tests {
    use crate::config::sweep_from_toml;
    use crate::error::ScenarioError;

    #[test]
    fn validation_flags_typos_with_hints() {
        let clean = "name = \"x\"\n[attack]\nplanes_lost = 2\n";
        assert_eq!(sweep_from_toml(clean).unwrap().expand().unwrap().len(), 1);

        let typo = format!("{clean}plane_lost = 3\n");
        let err = sweep_from_toml(&typo).unwrap_err();
        assert_eq!(
            err,
            ScenarioError::UnknownParameter {
                key: "attack.plane_lost".into(),
                hint: Some("attack.planes_lost"),
            }
        );
        assert!(err.to_string().contains("did you mean `attack.planes_lost`"), "{err}");
    }

    #[test]
    fn sweep_keys_are_full_paths_and_reserved_axes_rejected() {
        let good = "[sweep]\n\"attack.planes_lost\" = [0, 2]\n";
        assert_eq!(sweep_from_toml(good).unwrap().expand().unwrap().len(), 2);

        // An axis is looked up by its whole dotted path, not by a suffix.
        let err = sweep_from_toml("[sweep]\n\"planes_lost\" = [0, 2]\n").unwrap_err();
        assert!(
            matches!(&err, ScenarioError::UnknownParameter { key, .. } if key == "planes_lost"),
            "{err}"
        );
        let err = sweep_from_toml(&format!("{good}\"demand.warp\" = [1]\n")).unwrap_err();
        assert!(err.to_string().contains("demand.warp"), "{err}");

        // `seed` is a real key, so the axis loads; expansion refuses it.
        let sweep = sweep_from_toml(&format!("{good}\"seed\" = [1, 2]\n")).unwrap();
        let err = sweep.expand().unwrap_err();
        assert!(
            matches!(&err, ScenarioError::BadValue { key, value, .. }
                if key == "seed" && value == "a sweep axis"),
            "{err}"
        );
    }
}
