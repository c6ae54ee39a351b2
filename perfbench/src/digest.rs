//! Source digest: an FNV-1a hash over every file the benchmark binary is
//! built from. `build.rs` embeds it at compile time and the binary
//! recomputes it at start-up, so a binary built from other sources than
//! the ones on disk refuses to run (and never serves as a stale worker).

use std::fs;
use std::path::{Path, PathBuf};

/// Paths, relative to the repository root, whose contents the binary is
/// built from.
pub const SOURCE_ROOTS: [&str; 5] =
    ["Cargo.toml", "Cargo.lock", "crates", "vendor", "perfbench/src"];

/// 64-bit FNV-1a.
#[derive(Clone, Copy)]
pub struct Fnv(pub u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn write(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

fn collect(path: &Path, out: &mut Vec<PathBuf>) {
    if path.is_dir() {
        let Ok(entries) = fs::read_dir(path) else { return };
        for entry in entries.flatten() {
            let p = entry.path();
            // Build outputs inside the tree are not sources.
            if p.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            collect(&p, out);
        }
    } else if path.is_file() {
        out.push(path.to_path_buf());
    }
}

/// Digest of the source files under `repo_root`, as 16 hex digits.
pub fn source_digest(repo_root: &Path) -> String {
    let mut files = Vec::new();
    for root in SOURCE_ROOTS {
        collect(&repo_root.join(root), &mut files);
    }
    files.sort();
    let mut h = Fnv::new();
    for f in &files {
        let rel = f.strip_prefix(repo_root).unwrap_or(f);
        h.write(rel.to_string_lossy().as_bytes());
        h.write(&[0]);
        h.write(&fs::read(f).unwrap_or_default());
        h.write(&[0]);
    }
    format!("{:016x}", h.0)
}
