//! Runs one benchmark workload and prints its metrics.
//!
//! ```text
//! edgebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. With `--trace 1` the kept spans of
//! the first traced round are written to
//! `.bench_traces/<workload>-seed<n>.tsv`.

use std::process::ExitCode;

use edgebench::{result_json, run, Options, Workload};

fn usage(problem: &str) -> ExitCode {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    eprintln!("edgebench: {problem}");
    eprintln!(
        "usage: edgebench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        names.join("|")
    );
    ExitCode::from(2)
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        workload: Workload::EdgeHot,
        seed: 1,
        seconds: 10.0,
        trace: false,
        requests: None,
        max_rounds: None,
    };
    let mut workload = None;
    let mut pairs = args.chunks(2);
    for pair in &mut pairs {
        let [flag, value] = pair else {
            return Err(format!("{} needs a value", pair[0]));
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => {
                opts.seed = value
                    .parse::<u64>()
                    .map_err(|_| format!("--seed must be a whole number, got {value:?}"))?
            }
            "--seconds" => {
                opts.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| {
                        format!("--seconds must be a non-negative number, got {value:?}")
                    })?
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                }
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    opts.workload = workload.ok_or("--workload is required")?;
    Ok(opts)
}

fn write_spans(opts: &Options, spans: &str) -> std::io::Result<String> {
    let dir = std::path::Path::new(".bench_traces");
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{}-seed{}.tsv", opts.workload.name(), opts.seed));
    std::fs::write(&path, spans)?;
    Ok(path.display().to_string())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(opts) => opts,
        Err(problem) => return usage(&problem),
    };
    edgebench::alloc::retain_freed_memory();
    let report = run(&opts);
    println!(
        "# {} seed={} digest={:016x} victim_bytes={} client_bytes={}",
        opts.workload.name(),
        opts.seed,
        report.digest,
        report.wire.0,
        report.wire.1
    );
    for m in &report.metrics {
        println!(
            "# {:<26} {:>16.4} {:<6} samples={}",
            m.name, m.value, m.unit, m.samples
        );
    }
    for note in &report.notes {
        println!("# {note}");
    }
    for error in &report.errors {
        println!("# error: {error}");
    }
    if let Some(spans) = &report.spans {
        match write_spans(&opts, spans) {
            Ok(path) => println!("# spans written to {path}"),
            Err(e) => {
                eprintln!("edgebench: writing spans: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    println!("{}", result_json(&report));
    ExitCode::SUCCESS
}
