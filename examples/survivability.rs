//! Survivability comparison (the paper's §5(2) agenda): the same spare
//! policy applied to an SS constellation and a 65° Walker workhorse, under
//! radiation-driven failures.
//!
//! ```sh
//! cargo run --release --example survivability
//! ```

use ssplane_astro::kepler::OrbitalElements;
use ssplane_astro::sunsync::sun_synchronous_inclination;
use ssplane_astro::time::Epoch;
use ssplane_lsn::disruption::RadiationExponential;
use ssplane_lsn::failures::FailureModel;
use ssplane_lsn::spares::{expected_failures_per_plane, spares_for_availability, SparePolicy};
use ssplane_lsn::survivability::{simulate_process, SurvivabilityConfig};
use ssplane_radiation::fluence::daily_fluence;
use ssplane_radiation::RadiationEnvironment;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let env = RadiationEnvironment::default();
    let epoch = Epoch::from_calendar(2013, 6, 1, 0, 0, 0.0);
    let model = FailureModel::default();

    let dose_at = |inc_deg: f64| -> Result<_, Box<dyn std::error::Error>> {
        let el = OrbitalElements::circular(560.0, inc_deg.to_radians(), 0.0, 0.0)?;
        Ok(daily_fluence(&env, &el, epoch, 60.0)?)
    };
    let sso_inc = sun_synchronous_inclination(560.0)?.to_degrees();
    let ss_dose = dose_at(sso_inc)?;
    let wd_dose = dose_at(65.0)?;

    println!(
        "daily dose   SS({sso_inc:.2} deg): e {:.3e}  p {:.3e}",
        ss_dose.electron, ss_dose.proton
    );
    println!("daily dose   WD(65 deg):    e {:.3e}  p {:.3e}", wd_dose.electron, wd_dose.proton);
    println!(
        "annual hazard: SS {:.3}/yr  WD {:.3}/yr",
        model.hazard_per_year(ss_dose),
        model.hazard_per_year(wd_dose)
    );

    // Spares for a 1% per-resupply-period exhaustion probability.
    let sats_per_plane = 25;
    for (name, dose) in [("SS", ss_dose), ("WD", wd_dose)] {
        let lambda =
            expected_failures_per_plane(sats_per_plane, model.hazard_per_year(dose), 180.0);
        let spares = spares_for_availability(lambda, 0.01)?;
        println!("{name}: expected failures/plane/resupply = {lambda:.2} -> {spares} spares/plane");
    }

    // Full event simulation, 20 planes x 25 sats, 3 spares each.
    let policy = SparePolicy::PerPlane { spares_per_plane: 3, replacement_days: 3.0 };
    let process = RadiationExponential { model };
    let config = SurvivabilityConfig { horizon_years: 7.0, ..Default::default() };
    let ss = simulate_process(&[ss_dose; 20], sats_per_plane, &process, &policy, config)?;
    let wd = simulate_process(&[wd_dose; 20], sats_per_plane, &process, &policy, config)?;
    println!("\n7-year simulation, 20 planes x 25 sats, 3 hot spares/plane:");
    println!(
        "  SS: availability {:.4}, failures {}, spares consumed {}",
        ss.availability, ss.failures, ss.spares_consumed
    );
    println!(
        "  WD: availability {:.4}, failures {}, spares consumed {}",
        wd.availability, wd.failures, wd.spares_consumed
    );
    Ok(())
}
