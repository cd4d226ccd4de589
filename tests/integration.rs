//! Cross-crate integration tests: the full pipeline from synthetic demand
//! and radiation models through constellation design, empirical
//! verification, networking, and survivability.

use ssplane_bench::figures::{default_demand_model, default_grid, design_epoch};
use ssplane_core::designer::{design_ss_constellation, DesignConfig};
use ssplane_core::evaluate::{verify_earth_fixed_supply, verify_sun_relative_supply};
use ssplane_core::walker_baseline::{design_walker_constellation, WalkerBaselineConfig};
use ssplane_lsn::disruption::RadiationExponential;
use ssplane_lsn::failures::FailureModel;
use ssplane_lsn::routing::route_over_time;
use ssplane_lsn::snapshot::{time_grid, SnapshotSeries};
use ssplane_lsn::spares::{spares_for_availability, SparePolicy};
use ssplane_lsn::survivability::{simulate_process, SurvivabilityConfig};
use ssplane_lsn::topology::{Constellation, GridTopologyConfig, Topology};
use ssplane_radiation::fluence::daily_fluence;
use ssplane_radiation::RadiationEnvironment;

/// The realistic demand grid scaled to a total-demand level.
fn demand_at(total_b: f64) -> ssplane_demand::grid::LatTodGrid {
    let model = default_demand_model();
    let grid = default_grid(&model);
    grid.scaled(total_b / grid.total())
}

#[test]
fn ss_design_on_realistic_demand_beats_walker() {
    // The paper's headline comparison at a mid-range demand level.
    let demand = demand_at(200.0);
    let ss = design_ss_constellation(&demand, DesignConfig::default()).unwrap();
    let wd = design_walker_constellation(&demand, WalkerBaselineConfig::default()).unwrap();
    assert!(ss.total_sats() > 0);
    assert!(
        2 * ss.total_sats() <= wd.total_sats(),
        "SS {} should be at most half of WD {}",
        ss.total_sats(),
        wd.total_sats()
    );
    assert_eq!(ss.unserved_demand, 0.0, "realistic demand must be fully servable");
}

#[test]
fn ss_design_verified_by_propagation() {
    // Design against the grid model, then *verify by propagating the
    // actual satellites* and counting coverage of demanded cells.
    let demand = demand_at(60.0);
    let ss = design_ss_constellation(&demand, DesignConfig::default()).unwrap();
    let epoch = design_epoch();
    let sats = ss.satellites(epoch).unwrap();
    let report = verify_sun_relative_supply(
        &sats,
        &demand,
        epoch,
        6,
        ss.config.altitude_km,
        ss.config.min_elevation_deg,
    )
    .unwrap();
    assert!(report.cells_checked > 100);
    assert!(
        report.satisfied_fraction() > 0.85,
        "satisfied {:.3} worst shortfall {:.2}",
        report.satisfied_fraction(),
        report.worst_shortfall
    );
    assert!(report.mean_supply_ratio > 1.0);
}

#[test]
fn walker_design_verified_on_average() {
    let demand = demand_at(60.0);
    let wd = design_walker_constellation(&demand, WalkerBaselineConfig::default()).unwrap();
    let epoch = design_epoch();
    let sats = wd.satellites().unwrap();
    let report = verify_earth_fixed_supply(
        &sats,
        &demand,
        epoch,
        4,
        6,
        wd.config.altitude_km,
        wd.config.min_elevation_deg,
    )
    .unwrap();
    assert!(report.cells_checked > 10);
    assert!(report.mean_supply_ratio > 0.9, "ratio {:.3}", report.mean_supply_ratio);
}

#[test]
fn sso_radiation_advantage_end_to_end() {
    // Radiation chain: the designed SS constellation's inclination sees
    // less daily fluence than the 65° Walker workhorse.
    let env = RadiationEnvironment::default();
    let epoch = design_epoch();
    let demand = demand_at(50.0);
    let ss = design_ss_constellation(&demand, DesignConfig::default()).unwrap();
    let inc = ss.inclination().unwrap();
    let ss_el = ssplane_astro::kepler::OrbitalElements::circular(560.0, inc, 0.0, 0.0).unwrap();
    let wd_el =
        ssplane_astro::kepler::OrbitalElements::circular(560.0, 65f64.to_radians(), 0.0, 0.0)
            .unwrap();
    let f_ss = daily_fluence(&env, &ss_el, epoch, 60.0).unwrap();
    let f_wd = daily_fluence(&env, &wd_el, epoch, 60.0).unwrap();
    assert!(f_ss.electron < f_wd.electron, "{:e} vs {:e}", f_ss.electron, f_wd.electron);
    assert!(f_ss.proton < f_wd.proton);
    // The headline "~23% less": our reproduction lands in 10-35%.
    let saving = 1.0 - f_ss.electron / f_wd.electron;
    assert!((0.05..0.5).contains(&saving), "electron saving {saving:.2}");
}

#[test]
fn routing_works_on_designed_constellation() {
    let demand = demand_at(40.0);
    let ss = design_ss_constellation(&demand, DesignConfig::default()).unwrap();
    let epoch = design_epoch();
    let constellation = Constellation::from_ss(epoch, &ss).unwrap();
    assert_eq!(constellation.total_sats(), ss.total_sats());
    // One shared propagation cache feeds topology and routing.
    let series = SnapshotSeries::build(&constellation, &time_grid(epoch, 5, 120.0)).unwrap();
    let topo = Topology::plus_grid(&series.snapshot(0), GridTopologyConfig::default()).unwrap();
    assert!(topo.mean_degree() > 2.0);

    // Route between two populated places over 5 slots.
    let src = ssplane_astro::geo::GeoPoint::from_degrees(40.7, -74.0); // NYC
    let dst = ssplane_astro::geo::GeoPoint::from_degrees(51.5, -0.1); // London
    let routes =
        route_over_time(&series, src, dst, 20f64.to_radians(), GridTopologyConfig::default())
            .unwrap();
    // A design sized for demand coverage should route trans-Atlantic
    // traffic in at least some slots.
    assert!(routes.reachable_slots() >= 1, "no reachable slot out of {}", routes.routes.len());
    if routes.reachable_slots() > 0 {
        assert!(routes.mean_delay_ms() > 18.0, "faster than light?");
        assert!(routes.mean_delay_ms() < 500.0);
    }
}

#[test]
fn survivability_ss_needs_fewer_spares() {
    // §5(2): same availability target, fewer spares for the
    // lower-radiation constellation.
    let env = RadiationEnvironment::default();
    let epoch = design_epoch();
    let model = FailureModel::default();

    let dose = |inc_deg: f64| {
        let el =
            ssplane_astro::kepler::OrbitalElements::circular(560.0, inc_deg.to_radians(), 0.0, 0.0)
                .unwrap();
        daily_fluence(&env, &el, epoch, 120.0).unwrap()
    };
    let ss_dose = dose(97.64);
    let wd_dose = dose(65.0);

    // Spares to keep exhaustion probability < 1% per resupply period.
    let per_plane = 25;
    let ss_expected = ssplane_lsn::spares::expected_failures_per_plane(
        per_plane,
        model.hazard_per_year(ss_dose),
        180.0,
    );
    let wd_expected = ssplane_lsn::spares::expected_failures_per_plane(
        per_plane,
        model.hazard_per_year(wd_dose),
        180.0,
    );
    let ss_spares = spares_for_availability(ss_expected, 0.01).unwrap();
    let wd_spares = spares_for_availability(wd_expected, 0.01).unwrap();
    assert!(ss_spares <= wd_spares, "ss {ss_spares} vs wd {wd_spares}");

    // And the event simulation agrees on fewer failures / better
    // availability.
    let policy = SparePolicy::PerPlane { spares_per_plane: 3, replacement_days: 3.0 };
    let process = RadiationExponential { model };
    let config = SurvivabilityConfig { horizon_years: 6.0, ..Default::default() };
    let ss_rep = simulate_process(&[ss_dose; 12], per_plane, &process, &policy, config).unwrap();
    let wd_rep = simulate_process(&[wd_dose; 12], per_plane, &process, &policy, config).unwrap();
    assert!(ss_rep.failures < wd_rep.failures);
    assert!(ss_rep.availability >= wd_rep.availability);
}
