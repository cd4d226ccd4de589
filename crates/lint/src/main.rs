//! `ssplane-lint` CLI.
//!
//! ```text
//! cargo run -p ssplane-lint -- --workspace            # full scan, human output
//! cargo run -p ssplane-lint -- --workspace --json     # machine-readable
//! cargo run -p ssplane-lint -- path/to/file.rs …      # ad-hoc files (all rules)
//! ```
//!
//! Exit codes: `0` clean, `1` findings, `2` usage or I/O error.

use ssplane_lint::rules::{scan_rust, ALL_RULES};
use ssplane_lint::{find_root, scan_workspace, Report};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    workspace: bool,
    json: bool,
    root: Option<PathBuf>,
    files: Vec<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { workspace: false, json: false, root: None, files: Vec::new() };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workspace" => args.workspace = true,
            "--json" => args.json = true,
            "--root" => {
                let path = it.next().ok_or("--root needs a path")?;
                args.root = Some(PathBuf::from(path));
            }
            "--help" | "-h" => {
                return Err(
                    "usage: ssplane-lint [--workspace | FILES…] [--json] [--root PATH]".to_string()
                )
            }
            other if other.starts_with('-') => return Err(format!("unknown flag `{other}`")),
            other => args.files.push(PathBuf::from(other)),
        }
    }
    if !args.workspace && args.files.is_empty() {
        return Err("nothing to do: pass --workspace or file paths (--help)".to_string());
    }
    Ok(args)
}

fn run() -> Result<Report, String> {
    let args = parse_args()?;
    let mut report = if args.workspace {
        let cwd = std::env::current_dir().map_err(|e| format!("cwd: {e}"))?;
        scan_workspace(&find_root(args.root.as_deref(), &cwd))?
    } else {
        Report::default()
    };

    // Ad-hoc file mode: every rule, no path-based scoping — the caller
    // pointed at the file on purpose.
    for path in &args.files {
        let rel = path.to_string_lossy().replace('\\', "/");
        let src = std::fs::read_to_string(path).map_err(|e| format!("{rel}: {e}"))?;
        let (findings, allows) = scan_rust(&rel, &src, &ALL_RULES);
        report.findings.extend(findings);
        report.allows.absorb(&allows);
        report.files_scanned += 1;
    }
    report
        .findings
        .sort_by(|a, b| (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule)));

    if args.json {
        println!("{}", report.to_json());
    } else {
        for f in &report.findings {
            println!("{f}");
        }
        println!(
            "ssplane-lint: {} finding(s), {} allow(s) declared ({} used), {} file(s) scanned",
            report.findings.len(),
            report.allows.declared,
            report.allows.used,
            report.files_scanned
        );
    }
    Ok(report)
}

fn main() -> ExitCode {
    match run() {
        Ok(report) if report.is_clean() => ExitCode::SUCCESS,
        Ok(_) => ExitCode::from(1),
        Err(msg) => {
            eprintln!("ssplane-lint: {msg}");
            ExitCode::from(2)
        }
    }
}
