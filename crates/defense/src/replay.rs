//! Offline replay of detector verdicts from golden trace fixtures.
//!
//! A fixture under `tests/corpus/` is a plain-text file with two
//! sections: a trace of traffic events and the verdict stream the
//! defense must produce for it. Format:
//!
//! ```text
//! # free-form comments
//! event <t_ms> <client> <target> <range|-> <origin_bytes> <client_bytes>
//! …
//! == verdicts ==
//! t=<t_ms> client=<c> class=<class> action=<action> score=<s.2>
//! ```
//!
//! Each `event` line is one request/outcome pair as the edge pipeline
//! would report it: the replay builds the request, runs it through a
//! fresh [`DefenseLayer`]'s decide/observe cycle (a blocked request
//! costs the origin nothing, like the real pipeline), and renders one
//! verdict line. Regressions in feature extraction, detector
//! thresholds, or ladder transitions show up as a readable line diff.

use rangeamp_cdn::{DefenseAction, DefenseHook, RequestOutcome, CLIENT_ID_HEADER};
use rangeamp_http::Request;

use crate::enforce::DefenseLayer;

/// One traffic event of a replay trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayEvent {
    /// Virtual timestamp in milliseconds.
    pub at_ms: u64,
    /// Client key.
    pub client: String,
    /// Request target (path plus optional query).
    pub target: String,
    /// `Range` header value, if the request carried one.
    pub range: Option<String>,
    /// Origin-side bytes the undefended pipeline reported.
    pub origin_bytes: u64,
    /// Client-facing response bytes the undefended pipeline reported.
    pub client_bytes: u64,
}

/// Wire size charged to a blocked (429) response during replay.
const BLOCKED_RESPONSE_BYTES: u64 = 150;

/// The section separator between trace and verdicts.
pub const VERDICT_SEPARATOR: &str = "== verdicts ==";

/// Parses a fixture into its events and expected verdict lines.
///
/// # Errors
///
/// Returns a message naming the offending line on malformed input.
pub fn parse_fixture(text: &str) -> Result<(Vec<ReplayEvent>, Vec<String>), String> {
    let mut events = Vec::new();
    let mut expected = Vec::new();
    let mut in_verdicts = false;
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if line == VERDICT_SEPARATOR {
            in_verdicts = true;
            continue;
        }
        if in_verdicts {
            expected.push(line.to_string());
            continue;
        }
        let fields: Vec<&str> = line.split_whitespace().collect();
        if fields.len() != 7 || fields[0] != "event" {
            return Err(format!(
                "line {}: expected `event <t> <client> <target> <range|-> <origin> <client_bytes>`, got `{line}`",
                lineno + 1
            ));
        }
        let parse_u64 = |field: &str, what: &str| {
            field
                .parse::<u64>()
                .map_err(|_| format!("line {}: bad {what} `{field}`", lineno + 1))
        };
        events.push(ReplayEvent {
            at_ms: parse_u64(fields[1], "timestamp")?,
            client: fields[2].to_string(),
            target: fields[3].to_string(),
            range: (fields[4] != "-").then(|| fields[4].to_string()),
            origin_bytes: parse_u64(fields[5], "origin bytes")?,
            client_bytes: parse_u64(fields[6], "client bytes")?,
        });
    }
    Ok((events, expected))
}

/// Replays events through a fresh [`DefenseLayer`] and renders one
/// verdict line per event.
pub fn replay(events: &[ReplayEvent]) -> Vec<String> {
    let layer = DefenseLayer::default();
    let mut lines = Vec::with_capacity(events.len());
    for event in events {
        let mut builder = Request::get(&event.target)
            .header("Host", "victim.example")
            .header(CLIENT_ID_HEADER, event.client.clone());
        if let Some(range) = &event.range {
            builder = builder.header("Range", range.clone());
        }
        let req = builder.build();
        let action = layer.decide(&event.client, &req, event.at_ms);
        let outcome = if action == DefenseAction::Block {
            RequestOutcome {
                origin_bytes: 0,
                client_bytes: BLOCKED_RESPONSE_BYTES,
                status: 429,
            }
        } else {
            RequestOutcome {
                origin_bytes: event.origin_bytes,
                client_bytes: event.client_bytes,
                status: 200,
            }
        };
        layer.observe(&event.client, &req, action, &outcome, event.at_ms);
        let verdict = layer
            .client_report(&event.client)
            .and_then(|report| report.last_verdict)
            .expect("observe records a verdict");
        lines.push(format!(
            "t={} client={} class={} action={} score={:.2}",
            event.at_ms,
            event.client,
            verdict.class.as_str(),
            action.as_str(),
            verdict.score,
        ));
    }
    lines
}

/// Parses a fixture, replays its trace, and
/// diffs the verdict stream against the expected section.
///
/// # Errors
///
/// Returns a readable mismatch report (first diverging line plus the
/// full actual stream, ready to paste into the fixture).
pub fn check_fixture(text: &str) -> Result<(), String> {
    let (events, expected) = parse_fixture(text)?;
    if events.is_empty() {
        return Err("fixture has no events".to_string());
    }
    let actual = replay(&events);
    if actual == expected {
        return Ok(());
    }
    let mut msg = String::from("verdict stream diverged from fixture\n");
    for i in 0..actual.len().max(expected.len()) {
        let got = actual.get(i).map(String::as_str).unwrap_or("<missing>");
        let want = expected.get(i).map(String::as_str).unwrap_or("<missing>");
        if got != want {
            msg.push_str(&format!(
                "first mismatch at verdict {i}:\n  expected: {want}\n  actual:   {got}\n"
            ));
            break;
        }
    }
    msg.push_str("full actual stream:\n");
    for line in &actual {
        msg.push_str(line);
        msg.push('\n');
    }
    Err(msg)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixture_round_trip() {
        let text = "\
# tiny trace
event 0 alice /t.bin - 1000 1000
event 100 mallory /t.bin?rnd=1 bytes=0-0 1000000 700
";
        let (events, expected) = parse_fixture(text).expect("parses");
        assert_eq!(events.len(), 2);
        assert!(expected.is_empty());
        assert_eq!(events[0].range, None);
        assert_eq!(events[1].range.as_deref(), Some("bytes=0-0"));
        let lines = replay(&events);
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("t=0 client=alice class=benign action=allow"));
    }

    #[test]
    fn malformed_lines_are_reported_with_numbers() {
        let err = parse_fixture("event 0 alice /t.bin").unwrap_err();
        assert!(err.contains("line 1"), "{err}");
        let err = parse_fixture("event x alice /t.bin - 1 1").unwrap_err();
        assert!(err.contains("bad timestamp"), "{err}");
    }

    #[test]
    fn check_fixture_reports_divergence() {
        let text = "\
event 0 alice /t.bin - 1000 1000
== verdicts ==
t=0 client=alice class=benign action=block score=9.99
";
        let err = check_fixture(text).unwrap_err();
        assert!(err.contains("first mismatch at verdict 0"), "{err}");
        assert!(err.contains("full actual stream"), "{err}");
    }

    #[test]
    fn consistent_fixture_checks_clean() {
        let text = "\
event 0 alice /t.bin - 1000 1000
";
        let (events, _) = parse_fixture(text).unwrap();
        let lines = replay(&events);
        let full = format!("{text}{VERDICT_SEPARATOR}\n{}\n", lines.join("\n"));
        check_fixture(&full).expect("self-generated fixture is consistent");
    }
}
