//! Records the host facts each result carries: the compiler version and
//! the commit the benchmark was built from ("unknown" outside a git
//! checkout).

use std::process::Command;

fn output_of(cmd: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(cmd).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let s = String::from_utf8(out.stdout).ok()?.trim().to_string();
    (!s.is_empty()).then_some(s)
}

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = output_of(&rustc, &["--version"]).unwrap_or_else(|| "unknown".into());
    // Git must not look above the checkout the benchmark builds in.
    let manifest = std::env::var("CARGO_MANIFEST_DIR").unwrap_or_default();
    let checkout = std::path::Path::new(&manifest).parent();
    let ceiling = checkout.and_then(std::path::Path::parent);
    let commit = Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .current_dir(checkout.unwrap_or(std::path::Path::new(".")))
        .env(
            "GIT_CEILING_DIRECTORIES",
            ceiling.unwrap_or(std::path::Path::new("/")),
        )
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into());
    println!(
        "cargo:rustc-env=PERFBENCH_RUSTC={}",
        version.replace('"', "'")
    );
    println!("cargo:rustc-env=PERFBENCH_COMMIT={commit}");
}
