//! `perf` accepts only `--threads`, `--out` and `--baseline`. Any other
//! argument, including the iteration and tolerance flags it no longer
//! has, must stop it before a workload runs: a script passing
//! `--tolerance 5` must not get a silent +15% gate.

use std::process::Command;

#[test]
fn unknown_flags_exit_2_before_any_workload_runs() {
    // Run from an empty directory: the default `--out` report would land
    // there if a workload ran.
    let dir = std::env::temp_dir().join(format!("rangeamp-perf-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let cases: [&[&str]; 6] = [
        &["--tolerance", "5"],
        &["--iters", "9"],
        &["--warmup", "0"],
        &["--bogus"],
        &["--threads", "1", "--tolerance=5"],
        &["--baseline"],
    ];
    for args in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_perf"))
            .args(args)
            .current_dir(&dir)
            .output()
            .expect("perf starts");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        for flag in ["--threads", "--out", "--baseline"] {
            assert!(
                stderr.contains(flag),
                "{args:?}: usage lacks {flag}: {stderr}"
            );
        }
        assert!(out.stdout.is_empty(), "{args:?} ran a workload");
        assert!(!dir.join("BENCH_campaigns.json").exists(), "{args:?}");
    }
    std::fs::remove_dir_all(&dir).expect("temp dir removable");
}
