//! `repro` — regenerates every figure of the paper's evaluation.
//!
//! ```text
//! repro <fig1..fig10|ablations|extensions|all> [--quick]
//! ```
//!
//! Output is printed to stdout as aligned tables or CSV; the workspace's
//! `tests/figures.rs` asserts each figure's qualitative claims.
//! `--quick` shrinks sweep sizes ~10x for smoke runs.

use ssplane_bench::figures;
use std::process::ExitCode;

fn run_figure(name: &str, quick: bool) -> Result<String, Box<dyn std::error::Error>> {
    let text = match name {
        "fig1" => {
            let params = figures::fig1::Params {
                walker_step_km: if quick { 500.0 } else { 100.0 },
                ..Default::default()
            };
            figures::fig1::render(&figures::fig1::data(params)?)
        }
        "fig2" => {
            let params = figures::fig2::Params {
                step_s: if quick { 120.0 } else { 30.0 },
                ..Default::default()
            };
            figures::fig2::render(&figures::fig2::data(params)?)
        }
        "fig3" => figures::fig3::render(&figures::fig3::data()),
        "fig4" => {
            let params = if quick {
                figures::fig4::Params { n_sites: 60, n_days: 60, ..Default::default() }
            } else {
                Default::default()
            };
            figures::fig4::render(&figures::fig4::data(params))
        }
        "fig5" => {
            let params = if quick {
                figures::fig5::Params { rings: 9, sectors: 24, ..Default::default() }
            } else {
                Default::default()
            };
            figures::fig5::render(&figures::fig5::data(params)?)
        }
        "fig6" => {
            let params = if quick {
                figures::fig6::Params { n_days: 16, n_lat: 19, n_lon: 36, ..Default::default() }
            } else {
                Default::default()
            };
            figures::fig6::render(&figures::fig6::data(params)?)
        }
        "fig7" => {
            let params = if quick {
                figures::fig7::Params {
                    inclinations_deg: vec![50.0, 57.5, 65.0, 72.5, 80.0, 90.0, 97.64],
                    step_s: 60.0,
                    ..Default::default()
                }
            } else {
                Default::default()
            };
            figures::fig7::render(&figures::fig7::data(params)?)
        }
        "fig8" => figures::fig8::render(&figures::fig8::data()),
        "fig9" => {
            let params = if quick {
                figures::fig9::Params { totals: vec![10.0, 100.0, 1000.0], ..Default::default() }
            } else {
                Default::default()
            };
            figures::fig9::render(&figures::fig9::data(params)?)
        }
        "fig10" => {
            let params = if quick {
                figures::fig10::Params {
                    totals: vec![100.0],
                    phases: 1,
                    step_s: 120.0,
                    ..Default::default()
                }
            } else {
                Default::default()
            };
            figures::fig10::render(&figures::fig10::data(params)?)
        }
        "ablations" => figures::ablations::render(&figures::ablations::data()?),
        "extensions" => figures::extensions::render(&figures::extensions::data(if quick {
            50.0
        } else {
            200.0
        })?),
        other => return Err(format!("unknown figure '{other}'").into()),
    };
    Ok(text)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let targets: Vec<String> = args.into_iter().filter(|a| a != "--quick").collect();
    let all = ["fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10"];
    let selected: Vec<&str> = match targets.first().map(String::as_str) {
        None | Some("all") => all.to_vec(),
        Some(name) => vec![name],
    };
    for name in selected {
        println!("==== {name} ====");
        match run_figure(name, quick) {
            Ok(text) => println!("{text}"),
            Err(e) => {
                eprintln!("error generating {name}: {e}");
                eprintln!("usage: repro <fig1..fig10|all> [--quick]");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
