//! CLI for `els-lint`. Run from the workspace root:
//!
//! ```text
//! cargo run --release -q -p els-lint            # human report
//! cargo run --release -q -p els-lint -- --json  # structured report
//! ```
//!
//! Exit codes: 0 clean, 1 unsuppressed violations or malformed/unused
//! suppressions, 2 usage or I/O errors.

use std::env;
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut json = false;
    let mut root: Option<PathBuf> = None;
    let mut args = env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--root" => match args.next() {
                Some(p) => root = Some(PathBuf::from(p)),
                None => return usage("--root needs a path"),
            },
            other => return usage(&format!("unknown argument `{other}`")),
        }
    }
    let root = root.unwrap_or_else(find_workspace_root);

    let outcome = match els_lint::run(&root) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("els-lint: {e}");
            return ExitCode::from(2);
        }
    };

    if json {
        print!("{}", els_lint::report::json(&outcome));
    } else {
        print!("{}", els_lint::report::human(&outcome));
    }
    if outcome.is_ok() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("els-lint: {msg}");
    eprintln!("usage: els-lint [--json] [--root <workspace>]");
    ExitCode::from(2)
}

/// Walk up from the current directory to the first directory holding a
/// workspace `Cargo.toml` (one with a `[workspace]` table).
fn find_workspace_root() -> PathBuf {
    let mut dir = env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            let text = std::fs::read_to_string(&manifest).unwrap_or_default();
            if text.lines().any(|l| l.trim() == "[workspace]") {
                return dir;
            }
        }
        if !dir.pop() {
            return PathBuf::from(".");
        }
    }
}
