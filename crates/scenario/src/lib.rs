//! # ssplane-scenario
//!
//! A config-driven, parallel scenario-sweep engine over the full
//! `ss-plane` pipeline — the repository's experiment platform.
//!
//! The paper's claim (SS-plane constellations match Walker baselines on
//! demand satisfaction while slashing radiation exposure) is only as
//! strong as the range of scenarios it survives. This crate turns "add a
//! scenario" from copy-pasting a `fig*.rs` pipeline into writing a TOML
//! file:
//!
//! * [`spec`] — [`spec::ScenarioSpec`]: constellation designs (any
//!   subset of the SS-plane / demand-aware Walker / RGT designer
//!   registry via `design.kinds`, with the designers' own config structs
//!   embedded), demand level, grid resolution and synthesis seed,
//!   solar-cycle setting, failure model + spare policy, plane-loss
//!   attacks, traffic/routing options, and mission horizon;
//! * [`sweep`] — [`sweep::SweepSpec`]: parameter grids expanded into
//!   concrete scenarios with deterministic per-scenario seeds (stable
//!   under grid reordering);
//! * [`toml`] / [`config`] — the TOML-subset config format;
//! * [`runner`] — [`runner::Runner`]: a thread-pooled executor driving
//!   `ssplane_core::designer` → `ssplane_demand` →
//!   `ssplane_radiation::fluence` → `ssplane_lsn::{survivability,
//!   traffic, routing}` end-to-end, with byte-identical JSON-lines
//!   output regardless of thread count;
//! * [`report`] — typed per-scenario results and their JSON form;
//! * [`library`] — the built-in scenarios (`scenarios/*.toml`).
//!
//! The `scenario-runner` binary is the CLI; `ssplane-bench`'s Fig. 9 and
//! Fig. 10 pipelines run through this engine, so the figures and the
//! platform cannot drift apart.
//!
//! ## Quick example
//!
//! ```
//! use ssplane_scenario::config::sweep_from_toml;
//! use ssplane_scenario::runner::Runner;
//!
//! let sweep = sweep_from_toml(r#"
//!     name = "quick"
//!     [demand]
//!     total_demand_b = 10.0
//!     [radiation]
//!     enabled = false
//!     [survivability]
//!     enabled = false
//!     [sweep]
//!     "design.kind" = ["ss", "walker"]
//! "#).unwrap();
//! let outcome = Runner::with_threads(2).run_sweep(&sweep).unwrap();
//! assert_eq!(outcome.reports.len(), 2);
//! let jsonl = outcome.to_jsonl();
//! assert_eq!(jsonl.lines().count(), 2);
//! ```

#![warn(missing_docs)]
#![warn(clippy::too_many_lines)]
#![forbid(unsafe_code)]

pub mod config;
pub mod error;
pub mod json;
pub mod library;
pub mod report;
pub mod runner;
pub mod spec;
pub mod sweep;
pub mod toml;

pub use error::{Result, ScenarioError};
pub use report::{NamedSystemReport, ScenarioReport, SystemReport};
pub use runner::{execute_scenario, Runner, ScenarioTimings, SweepOutcome};
pub use spec::ScenarioSpec;
pub use sweep::{resolve_design_kind, SweepSpec};
