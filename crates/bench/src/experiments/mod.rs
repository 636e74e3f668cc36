//! The experiments behind `EXPERIMENTS.md`, one module each, and the
//! registry the `els-bench` driver looks them up in.

pub mod bakeoff;
pub mod band;
mod f1;
mod f10;
mod f2;
mod f3;
mod f4;
mod f5;
mod f6;
mod f7;
mod f8;
mod f9;
mod t1;

/// One runnable experiment.
pub struct Experiment {
    /// The driver's first argument.
    pub name: &'static str,
    /// What it regenerates.
    pub title: &'static str,
    /// Print the experiment's tables to stdout.
    pub run: fn() -> Result<(), Box<dyn std::error::Error>>,
}

/// Every experiment, in `EXPERIMENTS.md` order.
pub const EXPERIMENTS: &[Experiment] = &[
    Experiment { name: "t1", title: "Section 8 experiment table", run: t1::run },
    Experiment { name: "f1", title: "estimation error vs number of joins", run: f1::run },
    Experiment { name: "f2", title: "urn vs proportional distinct counts", run: f2::run },
    Experiment { name: "f3", title: "sensitivity to Zipf skew", run: f3::run },
    Experiment { name: "f4", title: "plan quality across a query family", run: f4::run },
    Experiment { name: "f5", title: "distinct-reduction model inside joins", run: f5::run },
    Experiment { name: "f6", title: "access-method ablation", run: f6::run },
    Experiment { name: "f7", title: "join-ordering strategies", run: f7::run },
    Experiment { name: "f8", title: "buffer-size sensitivity", run: f8::run },
    Experiment { name: "f9", title: "q-error distributions", run: f9::run },
    Experiment { name: "f10", title: "catalog-error amplification", run: f10::run },
    Experiment { name: "band", title: "band-join estimation accuracy", run: band::run },
    Experiment { name: "bakeoff", title: "five-estimator bake-off", run: bakeoff::run },
];

/// The experiment registered under `name`.
pub fn find(name: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|e| e.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique() {
        for (i, e) in EXPERIMENTS.iter().enumerate() {
            assert!(EXPERIMENTS[..i].iter().all(|earlier| earlier.name != e.name), "{}", e.name);
        }
    }

    /// Every `-p els-bench -- <name>` command the docs quote must run.
    #[test]
    fn documented_commands_name_registered_experiments() {
        let docs = [
            ("EXPERIMENTS.md", include_str!("../../../../EXPERIMENTS.md")),
            ("README.md", include_str!("../../../../README.md")),
        ];
        for (file, text) in docs {
            let quoted: Vec<&str> = text
                .split("-p els-bench -- ")
                .skip(1)
                .map(|rest| rest.split(|c: char| !c.is_alphanumeric()).next().unwrap_or(""))
                .collect();
            assert!(!quoted.is_empty(), "{file} quotes no els-bench command");
            for name in quoted {
                assert!(find(name).is_some(), "{file} quotes unregistered experiment `{name}`");
            }
        }
    }
}
