//! Embeds the build context the benchmark reports with every result: the
//! compiler version, the git revision when the sources are a git checkout,
//! and a digest of the measured sources, which identifies the code even
//! where there is no git metadata.

use std::path::{Path, PathBuf};
use std::process::Command;

fn command_output(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    let text = String::from_utf8_lossy(&out.stdout).trim().to_string();
    (out.status.success() && !text.is_empty()).then_some(text)
}

fn collect_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_files(&path, out);
        } else {
            out.push(path);
        }
    }
}

fn main() {
    let root = PathBuf::from(std::env::var("CARGO_MANIFEST_DIR").expect("cargo sets CARGO_MANIFEST_DIR")).join("..");
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = command_output(&rustc, &["--version"]).unwrap_or_else(|| "unknown".into());
    let rev = command_output("git", &["-C", &root.to_string_lossy(), "rev-parse", "--short=12", "HEAD"])
        .unwrap_or_else(|| "none".into());

    let mut files = Vec::new();
    for dir in ["crates", "shims"] {
        collect_files(&root.join(dir), &mut files);
        println!("cargo:rerun-if-changed={}", root.join(dir).display());
    }
    files.sort();
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    for path in &files {
        let rel = path.strip_prefix(&root).unwrap_or(path).to_string_lossy().into_owned();
        let bytes = std::fs::read(path).unwrap_or_default();
        for &b in rel.as_bytes().iter().chain(&bytes) {
            digest = (digest ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    println!("cargo:rustc-env=PERFBENCH_RUSTC={version}");
    println!("cargo:rustc-env=PERFBENCH_GIT_REV={rev}");
    println!("cargo:rustc-env=PERFBENCH_SOURCE_DIGEST={digest:016x}");
    println!("cargo:rerun-if-changed=build.rs");
}
