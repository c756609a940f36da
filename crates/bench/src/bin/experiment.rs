//! Runs the paper's experiments from one registry
//! ([`rangeamp_bench::experiments`]).
//!
//! ```text
//! cargo run -p rangeamp-bench --release --bin experiment -- table4
//! cargo run -p rangeamp-bench --release --bin experiment -- retry_amp --threads 8 --json ra.json
//! cargo run -p rangeamp-bench --release --bin experiment -- all > experiments/all_output.txt
//! cargo run -p rangeamp-bench --release --bin experiment -- list
//! ```
//!
//! The first argument names an experiment, `all` or `list`; the shared
//! harness flags (`--json`, `--threads`, `--seed`) follow, and
//! `retry_amp` also takes `--trace <path>`. `all` prints every
//! experiment's text in registry order and writes
//! `experiments/<name>.json` for each (`--json` is ignored there). Output
//! is byte-identical at any `--threads` value.

use rangeamp_bench::experiments::{find, EXPERIMENTS};
use rangeamp_bench::{write_output, BenchCli};

const DIR: &str = "experiments";

fn main() {
    let name = std::env::args().nth(1).unwrap_or_default();
    let cli = BenchCli::parse();
    match name.as_str() {
        "list" => {
            for experiment in EXPERIMENTS {
                println!("{}", experiment.name);
            }
        }
        "all" => {
            for experiment in EXPERIMENTS {
                eprintln!("== {} ==", experiment.name);
                let output = (experiment.run)(&cli);
                print!("{}", output.text);
                let json = serde_json::to_string_pretty(&output.json).expect("serializable");
                write_output(&format!("{DIR}/{}.json", experiment.name), &json);
            }
            eprintln!("all experiments complete; JSON in {DIR}");
        }
        _ => {
            let Some(experiment) = find(&name) else {
                let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
                eprintln!(
                    "usage: experiment <name|all|list> [--json <path>] [--threads <n>] [--seed <n>]\n\
                     experiments: {}",
                    names.join(", ")
                );
                std::process::exit(2);
            };
            let output = (experiment.run)(&cli);
            print!("{}", output.text);
            cli.write_json(&output.json);
        }
    }
}
