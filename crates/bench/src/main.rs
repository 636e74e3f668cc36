//! `els-bench <experiment>`: regenerate one table or figure of
//! `EXPERIMENTS.md` on stdout.

use std::process::ExitCode;

use els_bench::experiments::{find, EXPERIMENTS};

fn main() -> ExitCode {
    let name = std::env::args().nth(1).unwrap_or_default();
    let Some(experiment) = find(&name) else {
        eprintln!("usage: els-bench <experiment>   (got `{name}`)");
        for e in EXPERIMENTS {
            eprintln!("  {:<8} {}", e.name, e.title);
        }
        return ExitCode::from(2);
    };
    match (experiment.run)() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("els-bench {name}: {e}");
            ExitCode::FAILURE
        }
    }
}
