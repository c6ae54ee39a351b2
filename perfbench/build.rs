//! Embeds the source digest and the compiler version into the binary.

#[path = "src/digest.rs"]
#[allow(dead_code)]
mod digest;

use std::path::Path;
use std::process::Command;

fn main() {
    let manifest = std::env::var("CARGO_MANIFEST_DIR").expect("cargo sets CARGO_MANIFEST_DIR");
    let repo = Path::new(&manifest).join("..");
    for root in digest::SOURCE_ROOTS {
        println!("cargo:rerun-if-changed=../{root}");
    }
    println!("cargo:rustc-env=PERFBENCH_SOURCE_DIGEST={}", digest::source_digest(&repo));

    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |v| v.trim().to_string());
    println!("cargo:rustc-env=PERFBENCH_RUSTC={version}");
}
