//! Integration tests for the `rangeamp` CLI binary.

use std::process::{Command, Output};

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_rangeamp"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn stdout(output: &Output) -> String {
    String::from_utf8_lossy(&output.stdout).to_string()
}

#[test]
fn no_arguments_prints_usage_and_fails() {
    let output = run(&[]);
    assert!(!output.status.success());
    assert!(String::from_utf8_lossy(&output.stderr).contains("USAGE"));
}

#[test]
fn help_succeeds() {
    let output = run(&["help"]);
    assert!(output.status.success());
    assert!(stdout(&output).contains("rangeamp"));
}

#[test]
fn list_names_all_vendors_and_obr_roles() {
    let output = run(&["list"]);
    assert!(output.status.success());
    let text = stdout(&output);
    for vendor in ["Akamai", "Cloudflare", "Tencent Cloud"] {
        assert!(text.contains(vendor), "{text}");
    }
    assert!(text.contains("StackPath [OBR-FCDN] [OBR-BCDN]"), "{text}");
}

#[test]
fn sbr_reports_amplification() {
    let output = run(&["sbr", "--cdn", "akamai", "--size-mb", "1"]);
    assert!(output.status.success());
    let text = stdout(&output);
    assert!(text.contains("exploited case: bytes=0-0"), "{text}");
    assert!(text.contains('×'), "{text}");
}

#[test]
fn sbr_trace_prints_both_segments() {
    let output = run(&["sbr", "--cdn", "fastly", "--size-mb", "1", "--trace"]);
    assert!(output.status.success());
    let text = stdout(&output);
    assert!(text.contains("-- client-cdn --"), "{text}");
    assert!(text.contains("-- cdn-origin --"), "{text}");
    assert!(text.contains("-> GET /target.bin"), "{text}");
}

#[test]
fn obr_reports_max_n() {
    let output = run(&["obr", "--fcdn", "cdn77", "--bcdn", "azure"]);
    assert!(output.status.success());
    let text = stdout(&output);
    assert!(
        text.contains("max n admitted by header limits: 64"),
        "{text}"
    );
    assert!(text.contains("amplification"), "{text}");
}

#[test]
fn vendor_names_are_fuzzy_matched() {
    for spelling in ["gcorelabs", "G-Core Labs", "g-core-labs", "GCORELABS"] {
        let output = run(&["drop", "--cdn", spelling, "--size-mb", "1"]);
        assert!(output.status.success(), "{spelling}");
    }
}

#[test]
fn unknown_vendor_fails_with_hint() {
    let output = run(&["sbr", "--cdn", "nopecdn"]);
    assert!(!output.status.success());
    assert!(String::from_utf8_lossy(&output.stderr).contains("rangeamp list"));
}

#[test]
fn unknown_command_fails() {
    let output = run(&["frobnicate"]);
    assert!(!output.status.success());
}

#[test]
fn invalid_number_fails_cleanly() {
    let output = run(&["sbr", "--cdn", "akamai", "--size-mb", "lots"]);
    assert!(!output.status.success());
    assert!(String::from_utf8_lossy(&output.stderr).contains("invalid --size-mb"));
}

#[test]
fn overflowing_size_fails_cleanly() {
    // 2^44 MB is 2^64 bytes: one past u64::MAX, so it must be refused
    // rather than wrap to a 0-byte (or, one higher, a 1 MB) resource.
    for (command, size_mb) in [("sbr", "17592186044416"), ("drop", "17592186044417")] {
        let output = run(&[command, "--cdn", "akamai", "--size-mb", size_mb]);
        assert!(!output.status.success(), "{command} --size-mb {size_mb}");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(stderr.contains("--size-mb"), "{command}: {stderr}");
        assert!(!stderr.contains("panicked"), "{command}: {stderr}");
    }
}
