//! The host fingerprint every report carries, so that numbers measured on
//! different machines, compilers, code or filesystems are never compared.

use std::path::Path;

use crate::requests::{fnv1a, FNV_OFFSET};

pub struct Fingerprint {
    pub cpu: String,
    pub nproc: usize,
    pub rustc: &'static str,
    pub profile: &'static str,
    /// Hash of the source tree the benchmark was built from (the checkout
    /// it runs in is not a git repository).
    pub source: String,
    /// Filesystem type under the store directory.
    pub store_fs: String,
    pub seed: u64,
}

impl Fingerprint {
    pub fn take(seed: u64, store_dir: &Path) -> Fingerprint {
        Fingerprint {
            cpu: cpu_model(),
            nproc: nproc(),
            rustc: env!("QUESTBENCH_RUSTC"),
            profile: env!("QUESTBENCH_PROFILE"),
            source: source_hash(),
            store_fs: filesystem_of(store_dir),
            seed,
        }
    }

    pub fn to_json(&self) -> String {
        use qatk_obs::json::escape;
        format!(
            "{{\"cpu\":\"{}\",\"nproc\":{},\"rustc\":\"{}\",\"profile\":\"{}\",\"source\":\"{}\",\"store_fs\":\"{}\",\"seed\":{}}}",
            escape(&self.cpu),
            self.nproc,
            escape(self.rustc),
            escape(self.profile),
            escape(&self.source),
            escape(&self.store_fs),
            self.seed
        )
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// FNV-1a over the path and bytes of every file under `crates/` and
/// `questbench/src/`, the root `Cargo.lock`, `questbench/Cargo.toml` and
/// `BENCHMARK.json`, in path order: the program and the benchmark both.
fn source_hash() -> String {
    fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else {
                out.push(p);
            }
        }
    }
    let mut files: Vec<std::path::PathBuf> =
        ["Cargo.lock", "questbench/Cargo.toml", "BENCHMARK.json"]
            .iter()
            .map(|f| Path::new(f).to_path_buf())
            .collect();
    walk(Path::new("crates"), &mut files);
    walk(Path::new("questbench/src"), &mut files);
    files.sort();
    let mut h = FNV_OFFSET;
    for f in &files {
        if let Ok(bytes) = std::fs::read(f) {
            h = fnv1a(fnv1a(h, f.to_string_lossy().as_bytes()), &bytes);
        }
    }
    format!("fnv64:{h:016x}")
}

/// The filesystem type of the mount that holds `dir`, from mountinfo.
fn filesystem_of(dir: &Path) -> String {
    let Ok(dir) = dir.canonicalize() else {
        return "unknown".to_owned();
    };
    let Ok(info) = std::fs::read_to_string("/proc/self/mountinfo") else {
        return "unknown".to_owned();
    };
    info.lines()
        .filter_map(|line| {
            let (pre, post) = line.split_once(" - ")?;
            let mount = pre.split(' ').nth(4)?;
            let fs = post.split(' ').next()?;
            dir.starts_with(mount).then(|| (mount.len(), fs.to_owned()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".to_owned(), |(_, fs)| fs)
}
