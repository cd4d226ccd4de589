//! Shape assertions for every reproduced figure: the paper-vs-measured
//! checks, one test per figure. Each test runs the figure pipeline at
//! reduced resolution and asserts the *qualitative* claims the paper
//! makes about that figure.

use ssplane_bench::figures::*;
use ssplane_radiation::Species;

#[test]
fn fig1_rgt_worse_than_walker_and_three_nonuniform() {
    let d = fig1::data(fig1::Params { walker_step_km: 250.0, ..Default::default() }).unwrap();
    // Claim 1: exactly three LEO RGTs do not give uniform coverage.
    assert_eq!(d.non_uniform().count(), 3);
    // Claim 2: every RGT costs more than Walker at its altitude.
    for r in &d.rgts {
        let w = d
            .walker
            .iter()
            .min_by(|a, b| {
                (a.altitude_km - r.orbit.altitude_km)
                    .abs()
                    .partial_cmp(&(b.altitude_km - r.orbit.altitude_km).abs())
                    .unwrap()
            })
            .unwrap();
        assert!(r.sats_required > w.sats_required);
    }
    // Claim 3 (anchors): the 13:1 RGT needs ~350 satellites vs ~200 for
    // Walker near 1215 km (paper: ≥356 vs ≥200).
    let rgt13 = d.rgts.iter().find(|r| r.orbit.revs == 13 && r.orbit.days == 1).unwrap();
    assert!((280..=430).contains(&rgt13.sats_required), "{}", rgt13.sats_required);
}

#[test]
fn fig2_track_closes_and_covers_partially() {
    let d = fig2::data(fig2::Params { step_s: 60.0, ..Default::default() }).unwrap();
    assert!((450.0..650.0).contains(&d.altitude_km));
    // Closed track: first and last samples nearly coincide.
    let first = d.track_deg.first().unwrap();
    let last = d.track_deg.last().unwrap();
    assert!((first.0 - last.0).abs() < 2.0, "lat closure");
    // Single-satellite swath covers a band, not the globe.
    assert!(d.covered_fraction < 0.95);
}

#[test]
fn fig3_population_clusters_at_intermediate_north() {
    let d = fig3::data();
    let peak = d.iter().cloned().fold((0.0, 0.0), |a, b| if b.1 > a.1 { b } else { a });
    assert!((10.0..45.0).contains(&peak.0));
    assert!(peak.1 > 4000.0);
    // Northern hemisphere mass exceeds southern.
    let north: f64 = d.iter().filter(|(l, _)| *l > 0.0).map(|(_, v)| v).sum();
    let south: f64 = d.iter().filter(|(l, _)| *l < 0.0).map(|(_, v)| v).sum();
    assert!(north > 2.0 * south);
}

#[test]
fn fig4_diurnal_percentiles() {
    let d = fig4::data(fig4::Params { n_sites: 80, n_days: 90, bins: 24, seed: 7 });
    let med_peak = d.median_percent.iter().cloned().fold(0.0, f64::max);
    let med_trough = d.median_percent.iter().cloned().fold(f64::INFINITY, f64::min);
    // Paper's Fig. 4: median swings from well below to well above 100%.
    assert!(med_trough < 80.0 && med_peak > 150.0);
    // p95 curve sits far above the median (heavy-tailed sites).
    let p95_peak = d.p95_percent.iter().cloned().fold(0.0, f64::max);
    assert!(p95_peak > 3.0 * med_peak);
    // Trough in the small hours (bins 2-6), peak in waking hours.
    let trough_idx =
        (0..24).min_by(|&a, &b| d.median_percent[a].partial_cmp(&d.median_percent[b]).unwrap());
    assert!((1..=7).contains(&trough_idx.unwrap()));
}

#[test]
fn fig5_sun_relative_stationarity() {
    let d =
        fig5::data(fig5::Params { rings: 9, sectors: 24, hours: [0.0, 6.0, 12.0, 18.0] }).unwrap();
    assert_eq!(d.len(), 4);
    // Day sectors outshine night sectors when summed across all four
    // snapshots (each sector has seen 4 different longitudes).
    let mut day = 0.0;
    let mut night = 0.0;
    for (_, grid) in &d {
        for ring in grid {
            for (s, &v) in ring.iter().enumerate() {
                let h = 24.0 * (s as f64 + 0.5) / 24.0;
                if (9.0..18.0).contains(&h) {
                    day += v;
                } else if !(5.0..22.0).contains(&h) {
                    night += v;
                }
            }
        }
    }
    assert!(day > 1.5 * night, "day {day} night {night}");
}

#[test]
fn fig6_saa_and_horn_structure() {
    let d = fig6::data(fig6::Params { n_days: 16, n_lat: 19, n_lon: 36, ..Default::default() })
        .unwrap();
    let (peak_lat, peak_lon, peak) = d.peak();
    assert!(peak > 0.0);
    // The electron maximum is in the SAA quadrant or the horn bands.
    let in_saa = peak_lat < 0.0 && peak_lon < 0.0;
    let in_horns = peak_lat.abs() > 50.0;
    assert!(in_saa || in_horns, "peak at ({peak_lat}, {peak_lon})");
    // Proton map: SAA-confined.
    let p = fig6::data(fig6::Params {
        species: Species::Proton,
        n_days: 8,
        n_lat: 19,
        n_lon: 36,
        ..Default::default()
    })
    .unwrap();
    let (plat, plon, _) = p.peak();
    assert!(plat < 10.0 && plat > -60.0 && plon < 30.0, "proton peak ({plat}, {plon})");
}

#[test]
fn fig7_inclination_worst_case() {
    let d = fig7::data(fig7::Params {
        inclinations_deg: vec![50.0, 60.0, 65.0, 70.0, 75.0, 80.0, 90.0, 97.64],
        step_s: 60.0,
        ..Default::default()
    })
    .unwrap();
    let electron: Vec<f64> = d.iter().map(|(_, f)| f.electron).collect();
    // Peak at moderate inclination (60-75°), as the paper argues.
    let peak_idx = (0..electron.len())
        .max_by(|&a, &b| electron[a].partial_cmp(&electron[b]).unwrap())
        .unwrap();
    let peak_inc = d[peak_idx].0;
    assert!((57.5..=77.5).contains(&peak_inc), "electron peak at {peak_inc}");
    // SSO (97.64°) sees less than the peak by ~10-35% (paper: ~23%).
    let sso = electron.last().unwrap();
    let saving = 1.0 - sso / electron[peak_idx];
    assert!((0.05..0.5).contains(&saving), "saving {saving:.2}");
    // Electron decades match the paper's axis (10⁹-10¹⁰ range).
    assert!(electron[peak_idx] > 1e9 && electron[peak_idx] < 1e11);
    // Protons: monotone decline over 50-97° (SAA dwell shrinks).
    let protons: Vec<f64> = d.iter().map(|(_, f)| f.proton).collect();
    assert!(protons[0] > *protons.last().unwrap());
    assert!(protons[0] > 1e6 && protons[0] < 1e9);
}

#[test]
fn fig8_demand_grid_structure() {
    let g = fig8::data();
    let (i, j) = g.argmax().unwrap();
    assert!((5.0..50.0).contains(&g.lat_center_deg(i)));
    assert!((10.0..22.0).contains(&g.tod_center_h(j)));
    // Night columns quiet; polar rows empty.
    let col = |j: usize| (0..g.lat_bins()).map(|i| g.value(i, j)).sum::<f64>();
    assert!(col(14) > 3.0 * col(3));
}

#[test]
fn fig9_ss_beats_wd_and_gap_narrows() {
    let d = fig9::data(fig9::Params { totals: vec![10.0, 200.0, 2000.0], ..Default::default() })
        .unwrap();
    for p in &d {
        assert!(
            p.row.ss_sats < p.row.wd_sats,
            "B={}: SS {} >= WD {}",
            p.total_demand,
            p.row.ss_sats,
            p.row.wd_sats
        );
    }
    // Both series monotone.
    for w in d.windows(2) {
        assert!(w[1].row.ss_sats >= w[0].row.ss_sats);
        assert!(w[1].row.wd_sats >= w[0].row.wd_sats);
    }
    // Gap narrows as demand saturates the grid (paper's takeaway).
    let ratio = |p: &fig9::Fig9Point| p.row.wd_sats as f64 / p.row.ss_sats as f64;
    assert!(
        ratio(&d[0]) > ratio(&d[2]),
        "low-B ratio {:.2} should exceed high-B ratio {:.2}",
        ratio(&d[0]),
        ratio(&d[2])
    );
    // Low-B advantage is multiple-fold (paper: up to an order of
    // magnitude; our reproduction: ≥3x at the floor).
    assert!(ratio(&d[0]) >= 3.0, "low-B ratio {:.2}", ratio(&d[0]));
}

#[test]
fn fig10_radiation_savings() {
    let d = fig10::data(fig10::Params {
        totals: vec![50.0, 500.0],
        phases: 1,
        step_s: 120.0,
        ..Default::default()
    })
    .unwrap();
    for r in &d {
        // SS's median proton fluence beats WD's (the SAA-dodging effect).
        assert!(r.ss.proton < r.wd.proton);
    }
    // SS median electron fluence stays flat across demand levels (all
    // planes share one inclination), within integration noise.
    let e0 = d[0].ss.electron;
    let e1 = d[1].ss.electron;
    assert!((e0 - e1).abs() / e0 < 0.25, "SS electron drift {e0:e} -> {e1:e}");
}

#[test]
fn ablations_table_generates() {
    let rows = ablations::data().unwrap();
    assert!(rows.iter().any(|r| r.knob == "branch_rule"));
    assert!(rows.iter().any(|r| r.knob == "wd_supply_model"));
}
