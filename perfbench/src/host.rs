//! What a result must record about where it ran, plus the state that
//! lets a run compare itself with earlier runs of the same sources.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

/// The repository root: the benchmark package's parent directory.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
}

/// FNV-1a, 64-bit: the digest of report bytes and of the source tree.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// The machine, toolchain and code a result was measured with.
#[derive(Debug)]
pub struct Host {
    /// Logical CPUs available to the process.
    pub nproc: usize,
    /// `model name` of the first CPU.
    pub cpu: String,
    /// The compiler that built the benchmark.
    pub rustc: &'static str,
    /// The run's thread budget T.
    pub threads: usize,
    /// The git commit, when the sources are a git checkout.
    pub commit: String,
    /// Digest of the library sources the benchmark built against: names
    /// the code even where there is no git metadata.
    pub sources: String,
}

impl Host {
    /// Reads the host description; `threads` is the run's budget.
    pub fn detect(threads: usize) -> Host {
        let cpu = fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        Host {
            nproc: nproc(),
            cpu,
            rustc: env!("PERFBENCH_RUSTC"),
            threads,
            commit: git_commit(&repo_root()).unwrap_or_else(|| "unknown".to_string()),
            sources: format!("{:016x}", source_digest(&repo_root())),
        }
    }

    /// One `host:` line for the run's output.
    pub fn describe(&self) -> String {
        format!(
            "host: nproc={} cpu=\"{}\" rustc=\"{}\" threads={} commit={} sources={}",
            self.nproc, self.cpu, self.rustc, self.threads, self.commit, self.sources
        )
    }
}

/// Logical CPUs available to the process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The commit `HEAD` names, read from `.git` without running git.
fn git_commit(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = fs::read_to_string(git.join("HEAD")).ok()?;
    let Some(name) = head.trim().strip_prefix("ref: ") else {
        return Some(head.trim().to_string());
    };
    if let Ok(sha) = fs::read_to_string(git.join(name)) {
        return Some(sha.trim().to_string());
    }
    let packed = fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|l| l.strip_suffix(name).map(|sha| sha.trim().to_string()))
}

/// Digest over the workspace manifests and every library source file, in
/// sorted path order.
fn source_digest(root: &Path) -> u64 {
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    collect_sources(&root.join("crates"), &mut files);
    files.sort();
    let mut all = Vec::new();
    for file in files {
        if let Ok(bytes) = fs::read(&file) {
            all.extend_from_slice(
                file.strip_prefix(root).unwrap_or(&file).to_string_lossy().as_bytes(),
            );
            all.extend_from_slice(&bytes);
        }
    }
    fnv1a(&all)
}

fn collect_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else { return };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
            out.push(path);
        }
    }
}

/// Peak resident memory of this process \[MB\], from `VmHWM`.
pub fn peak_rss_mb() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// Values that must repeat between runs of the same sources, workload
/// and seed, kept beside the benchmark's executable (inside its build
/// directory).
pub struct RunState {
    path: PathBuf,
}

impl RunState {
    /// The state of one workload and seed.
    pub fn new(workload: &str, seed: u64) -> RunState {
        let dir = std::env::current_exe()
            .ok()
            .and_then(|exe| exe.parent().map(Path::to_path_buf))
            .unwrap_or_else(|| PathBuf::from("."))
            .join("perfbench-state");
        RunState { path: dir.join(format!("{workload}-{seed}.tsv")) }
    }

    /// Compares `values` with those an earlier run of the same `sources`
    /// recorded, then records them. Returns one message per value that
    /// changed; values seen for the first time only get recorded.
    pub fn check_and_record(
        &self,
        sources: &str,
        values: &BTreeMap<String, String>,
    ) -> Vec<String> {
        let mut stored: BTreeMap<String, String> = fs::read_to_string(&self.path)
            .unwrap_or_default()
            .lines()
            .filter_map(|l| l.split_once('\t'))
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        if stored.get("sources").map(String::as_str) != Some(sources) {
            stored = BTreeMap::from([("sources".to_string(), sources.to_string())]);
        }
        let mut changed = Vec::new();
        for (key, value) in values {
            match stored.get(key) {
                Some(old) if old != value => {
                    changed.push(format!(
                        "{key} is {value}, an earlier run of the same sources had {old}"
                    ));
                }
                _ => {
                    stored.insert(key.clone(), value.clone());
                }
            }
        }
        let text: String = stored.iter().map(|(k, v)| format!("{k}\t{v}\n")).collect();
        if let Some(dir) = self.path.parent() {
            let _ = fs::create_dir_all(dir);
        }
        if let Err(e) = fs::write(&self.path, text) {
            eprintln!("perfbench: cannot record run state in {}: {e}", self.path.display());
        }
        changed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_changed_value_is_reported_and_new_sources_start_over() {
        let exe = std::env::current_exe().expect("test executable path");
        let dir = exe.parent().expect("build directory");
        let state =
            RunState { path: dir.join(format!("perfbench-test-{}.tsv", std::process::id())) };
        let values = |v: &str| BTreeMap::from([("lsn.topology.links".to_string(), v.to_string())]);
        assert!(state.check_and_record("a", &values("10")).is_empty());
        assert!(state.check_and_record("a", &values("10")).is_empty());
        assert_eq!(state.check_and_record("a", &values("11")).len(), 1);
        assert!(
            state.check_and_record("b", &values("11")).is_empty(),
            "other sources, fresh state"
        );
        let _ = fs::remove_file(&state.path);
    }

    #[test]
    fn fnv_matches_the_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
