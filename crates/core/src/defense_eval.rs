//! Evaluation harness for the online defense layer (DESIGN.md §12).
//!
//! Each scenario replays a mixed workload — the four benign client
//! archetypes of §II-B plus one attacker running a Table IV SBR case or
//! a Table V OBR cascade — against a testbed twice: once undefended and
//! once with a fresh [`DefenseLayer`] attached to the victim-facing
//! edge. Requests follow a virtual-time schedule (the edge clock is
//! advanced to each event's timestamp), so the defense's sliding
//! windows, token buckets and calm-window de-escalation behave exactly
//! as they would online.
//!
//! The harness reports, per scenario: whether the attacker was
//! detected and how long detection took, precision/recall of suspect
//! verdicts over the labeled request stream, how far enforcement cut
//! the victim-link bytes versus the undefended twin, and the residual
//! amplification the attacker retained while enforcement was active.
//!
//! Scenarios are independent [`Executor`] units — reports are
//! byte-identical at any thread count.

use std::sync::Arc;

use rangeamp_cdn::{DefenseAction, Vendor};
use rangeamp_defense::DefenseLayer;
use rangeamp_http::Request;
use serde::Serialize;

use crate::attack::{exploited_range_case, obr_combos, ObrAttack};
use crate::executor::{splitmix64, Executor};
use crate::testbed::{Testbed, TARGET_HOST, TARGET_PATH};
use crate::workload::{BenignClient, WorkloadGenerator};

/// One scenario of the defense evaluation campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DefenseScenario {
    /// A Table IV SBR attacker against one vendor's edge.
    Sbr(Vendor),
    /// A Table V OBR attacker against an FCDN→BCDN cascade; the
    /// defense sits on the FCDN, whose origin-facing segment is the
    /// victim link.
    Obr(Vendor, Vendor),
}

impl DefenseScenario {
    /// Stable human-readable label (also the report's sort identity).
    pub fn label(&self) -> String {
        match self {
            DefenseScenario::Sbr(vendor) => format!("sbr {}", vendor.name()),
            DefenseScenario::Obr(fcdn, bcdn) => {
                format!("obr {} -> {}", fcdn.name(), bcdn.name())
            }
        }
    }

    /// The full campaign: 13 SBR scenarios + the 11 OBR combos.
    pub fn all() -> Vec<DefenseScenario> {
        let mut scenarios: Vec<DefenseScenario> = Vendor::ALL
            .iter()
            .copied()
            .map(DefenseScenario::Sbr)
            .collect();
        scenarios.extend(
            obr_combos()
                .into_iter()
                .map(|(fcdn, bcdn)| DefenseScenario::Obr(fcdn, bcdn)),
        );
        scenarios
    }
}

/// Campaign parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DefenseEvalConfig {
    /// SBR target resource size (Table IV uses multi-MB files; 1 MB
    /// keeps every vendor's exploited case shape intact).
    pub sbr_resource_size: u64,
    /// OBR target resource size (Table V's 1 KB configuration).
    pub obr_resource_size: u64,
    /// Total virtual duration of one scenario.
    pub duration_ms: u64,
    /// Attack burst start (benign-only warmup before it).
    pub attack_start_ms: u64,
    /// Attack burst end (benign-only cooldown after it).
    pub attack_end_ms: u64,
    /// Virtual interval between one benign client's requests.
    pub benign_interval_ms: u64,
    /// Virtual interval between attack rounds.
    pub attack_interval_ms: u64,
    /// Overlapping ranges per OBR round (capped by the header solver).
    pub obr_ranges: usize,
}

impl Default for DefenseEvalConfig {
    fn default() -> DefenseEvalConfig {
        DefenseEvalConfig {
            sbr_resource_size: 1024 * 1024,
            obr_resource_size: 1024,
            duration_ms: 40_000,
            attack_start_ms: 10_000,
            attack_end_ms: 30_000,
            benign_interval_ms: 1_000,
            attack_interval_ms: 500,
            obr_ranges: 32,
        }
    }
}

/// Per-action request counts for the attacker.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Default)]
pub struct ActionCounts {
    /// Requests decided Allow.
    pub allowed: u64,
    /// Requests handled under Deflate.
    pub deflated: u64,
    /// Requests handled under Throttle.
    pub throttled: u64,
    /// Requests answered 429.
    pub blocked: u64,
}

/// One row of the defense evaluation table.
#[derive(Debug, Clone, Serialize)]
pub struct DefenseScenarioReport {
    /// Scenario label (`sbr <vendor>` / `obr <fcdn> -> <bcdn>`).
    pub scenario: String,
    /// `"sbr"` or `"obr"`.
    pub kind: String,
    /// The exploited range case the attacker used.
    pub exploited_case: String,
    /// Attack requests sent (KeyCDN rounds send two).
    pub attack_requests: u64,
    /// Benign requests sent across the four archetype clients.
    pub benign_requests: u64,
    /// Whether the attacker accumulated any suspect verdict.
    pub detected: bool,
    /// Virtual ms from burst start to the first suspect verdict.
    pub detection_latency_ms: Option<u64>,
    /// Suspect verdicts on attacker requests (true positives).
    pub attacker_suspect_verdicts: u64,
    /// Suspect verdicts on benign requests (false positives).
    pub benign_suspect_verdicts: u64,
    /// Benign requests answered 429 — must stay zero.
    pub benign_requests_blocked: u64,
    /// Suspect-verdict precision over the labeled stream.
    pub precision: f64,
    /// Fraction of attack requests carrying a suspect verdict.
    pub recall: f64,
    /// The most severe action the attacker reached.
    pub peak_action: String,
    /// Victim-link response bytes without the defense.
    pub undefended_victim_bytes: u64,
    /// Victim-link response bytes with the defense attached.
    pub defended_victim_bytes: u64,
    /// Origin bytes per attacker request byte while enforcement was
    /// active (0 if enforcement never engaged).
    pub residual_amplification: f64,
    /// Attacker request counts per action.
    pub actions: ActionCounts,
}

/// The attacker's client id in every scenario.
pub const ATTACKER_ID: &str = "mallory";

/// One scheduled request of a scenario's virtual-time timeline.
#[derive(Debug, Clone)]
struct ScheduledEvent {
    at_ms: u64,
    seq: u64,
    kind: EventKind,
}

#[derive(Debug, Clone)]
enum EventKind {
    Benign(BenignClient),
    AttackRound(u64),
}

fn benign_client_id(client: BenignClient) -> &'static str {
    match client {
        BenignClient::FullDownload => "alice",
        BenignClient::ResumeFromBreakpoint => "bob",
        BenignClient::MediaSeek => "carol",
        BenignClient::MultiThreadDownload => "dave",
    }
}

/// Builds the deterministic schedule: each benign archetype fires every
/// `benign_interval_ms` for the whole run, the attacker every
/// `attack_interval_ms` inside the burst window. Ties at one timestamp
/// resolve by construction order (benign archetypes first, then the
/// attacker), fixed by the `seq` key.
fn build_schedule(config: &DefenseEvalConfig) -> Vec<ScheduledEvent> {
    let mut events = Vec::new();
    let mut seq = 0u64;
    for (slot, client) in BenignClient::ALL.iter().enumerate() {
        // Stagger archetypes inside the interval so they do not all
        // land on the same virtual millisecond.
        let offset = (slot as u64 * config.benign_interval_ms) / BenignClient::ALL.len() as u64;
        let mut t = offset;
        while t < config.duration_ms {
            events.push(ScheduledEvent {
                at_ms: t,
                seq,
                kind: EventKind::Benign(*client),
            });
            seq += 1;
            t += config.benign_interval_ms;
        }
    }
    let mut round = 0u64;
    let mut t = config.attack_start_ms;
    while t < config.attack_end_ms {
        events.push(ScheduledEvent {
            at_ms: t,
            seq,
            kind: EventKind::AttackRound(round),
        });
        seq += 1;
        round += 1;
        t += config.attack_interval_ms;
    }
    events.sort_by_key(|event| (event.at_ms, event.seq));
    events
}

/// The scenario's testbed, one tier for SBR and the cascade for OBR, with
/// `defense` on its client-facing edge.
fn build_bed(
    scenario: DefenseScenario,
    config: &DefenseEvalConfig,
    defense: Option<Arc<DefenseLayer>>,
) -> Testbed {
    let builder = match scenario {
        DefenseScenario::Sbr(vendor) => Testbed::builder()
            .vendor(vendor)
            .resource(TARGET_PATH, config.sbr_resource_size),
        DefenseScenario::Obr(fcdn, bcdn) => Testbed::cascade(fcdn.fcdn_profile(), bcdn.profile())
            .resource(TARGET_PATH, config.obr_resource_size),
    };
    match defense {
        Some(layer) => builder.defense(layer),
        None => builder,
    }
    .build()
}

/// One run of a scenario's schedule; returns
/// `(attack_requests, benign_requests, victim_bytes)`.
fn drive_schedule(
    bed: &Testbed,
    scenario: DefenseScenario,
    config: &DefenseEvalConfig,
    seed: u64,
    generator: &mut WorkloadGenerator,
) -> (u64, u64, u64) {
    let mut attack_requests = 0u64;
    let mut benign_requests = 0u64;
    let clock = bed.edge().resilience().clock();
    for event in build_schedule(config) {
        let now = clock.now_millis();
        if event.at_ms > now {
            clock.advance_millis(event.at_ms - now);
        }
        match event.kind {
            EventKind::Benign(client) => {
                let labeled = generator
                    .benign(client)
                    .with_client_id(benign_client_id(client));
                bed.request(&labeled.request);
                benign_requests += 1;
            }
            EventKind::AttackRound(round) => match scenario {
                DefenseScenario::Sbr(vendor) => {
                    let case = exploited_range_case(vendor, config.sbr_resource_size);
                    let rnd = splitmix64(seed ^ round.wrapping_mul(0x9E37));
                    let uri = format!("{TARGET_PATH}?rnd={rnd:016x}");
                    for range in &case.ranges {
                        let req = Request::get(&uri)
                            .header("Host", TARGET_HOST)
                            .header("X-Client-Id", ATTACKER_ID)
                            .header("Range", range.to_string())
                            .build();
                        bed.request(&req);
                        attack_requests += 1;
                    }
                }
                DefenseScenario::Obr(fcdn, bcdn) => {
                    let attack = ObrAttack::new(fcdn, bcdn);
                    let n = config.obr_ranges.min(attack.max_n()).max(2);
                    let rnd = splitmix64(seed ^ round.wrapping_mul(0x9E37));
                    let uri = format!("{TARGET_PATH}?rnd={rnd:016x}");
                    let req = Request::get(&uri)
                        .header("Host", TARGET_HOST)
                        .header("X-Client-Id", ATTACKER_ID)
                        .header("Range", attack.range_case().header(n).to_string())
                        .build();
                    // The OBR attacker caps their own cost with a small
                    // receive window (§IV-C).
                    bed.request_with_small_window(&req, 1024);
                    attack_requests += 1;
                }
            },
        }
    }
    (
        attack_requests,
        benign_requests,
        bed.victim_segment().stats().response_bytes,
    )
}

/// Runs one scenario: an undefended and a defended twin over the same
/// schedule and workload seed, then assembles the report row.
pub fn run_scenario(
    scenario: DefenseScenario,
    config: &DefenseEvalConfig,
    seed: u64,
) -> DefenseScenarioReport {
    let resource_size = match scenario {
        DefenseScenario::Sbr(_) => config.sbr_resource_size,
        DefenseScenario::Obr(..) => config.obr_resource_size,
    };

    let undefended_bed = build_bed(scenario, config, None);
    let mut generator = WorkloadGenerator::new(seed, resource_size);
    let (_, _, undefended_victim_bytes) =
        drive_schedule(&undefended_bed, scenario, config, seed, &mut generator);

    let layer = Arc::new(DefenseLayer::default());
    let defended_bed = build_bed(scenario, config, Some(layer.clone()));
    let mut generator = WorkloadGenerator::new(seed, resource_size);
    let (attack_requests, benign_requests, defended_victim_bytes) =
        drive_schedule(&defended_bed, scenario, config, seed, &mut generator);

    let attacker = layer.client_report(ATTACKER_ID).unwrap_or_default();
    let mut benign_suspect_verdicts = 0u64;
    let mut benign_requests_blocked = 0u64;
    for report in layer.report() {
        if report.client != ATTACKER_ID {
            benign_suspect_verdicts += report.suspects;
            benign_requests_blocked += report.blocked;
        }
    }

    let exploited_case = match scenario {
        DefenseScenario::Sbr(vendor) => {
            exploited_range_case(vendor, config.sbr_resource_size).description
        }
        DefenseScenario::Obr(fcdn, bcdn) => ObrAttack::new(fcdn, bcdn)
            .range_case()
            .describe()
            .to_string(),
    };

    let tp = attacker.suspects;
    let precision = if tp + benign_suspect_verdicts == 0 {
        1.0
    } else {
        tp as f64 / (tp + benign_suspect_verdicts) as f64
    };
    let recall = if attack_requests == 0 {
        0.0
    } else {
        tp as f64 / attack_requests as f64
    };

    DefenseScenarioReport {
        scenario: scenario.label(),
        kind: match scenario {
            DefenseScenario::Sbr(_) => "sbr".to_string(),
            DefenseScenario::Obr(..) => "obr".to_string(),
        },
        exploited_case,
        attack_requests,
        benign_requests,
        detected: attacker.first_flag_ms.is_some(),
        detection_latency_ms: attacker
            .first_flag_ms
            .map(|at| at.saturating_sub(config.attack_start_ms)),
        attacker_suspect_verdicts: tp,
        benign_suspect_verdicts,
        benign_requests_blocked,
        precision,
        recall,
        peak_action: attacker
            .peak_action
            .unwrap_or(DefenseAction::Allow)
            .as_str()
            .to_string(),
        undefended_victim_bytes,
        defended_victim_bytes,
        residual_amplification: attacker.residual_amplification(),
        actions: ActionCounts {
            allowed: attacker.allowed,
            deflated: attacker.deflated,
            throttled: attacker.throttled,
            blocked: attacker.blocked,
        },
    }
}

/// Runs the full campaign (all 24 scenarios) on the executor. Each
/// scenario is one unit; reports come back in scenario order and are
/// byte-identical at any thread count.
pub fn run_defense_eval(
    config: &DefenseEvalConfig,
    executor: &Executor,
    seed: u64,
) -> Vec<DefenseScenarioReport> {
    executor.map(seed, DefenseScenario::all(), |ctx, scenario| {
        run_scenario(scenario, config, ctx.seed)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small config for unit tests: shorter run, fewer rounds.
    fn quick_config() -> DefenseEvalConfig {
        DefenseEvalConfig {
            duration_ms: 16_000,
            attack_start_ms: 4_000,
            attack_end_ms: 12_000,
            benign_interval_ms: 1_000,
            attack_interval_ms: 500,
            ..DefenseEvalConfig::default()
        }
    }

    #[test]
    fn schedule_is_sorted_and_covers_both_phases() {
        let config = quick_config();
        let events = build_schedule(&config);
        assert!(events.windows(2).all(|w| w[0].at_ms <= w[1].at_ms));
        let attacks = events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::AttackRound(_)))
            .count();
        assert_eq!(attacks, 16, "8 s burst at 500 ms intervals");
        let benign = events.len() - attacks;
        assert_eq!(benign, 4 * 16, "4 archetypes over 16 s");
    }

    #[test]
    fn sbr_scenario_detects_and_contains_the_attacker() {
        let report = run_scenario(DefenseScenario::Sbr(Vendor::Akamai), &quick_config(), 7);
        assert!(report.detected, "{report:?}");
        assert!(report.detection_latency_ms.unwrap() < 8_000, "{report:?}");
        assert_eq!(report.benign_requests_blocked, 0, "{report:?}");
        assert!(
            report.defended_victim_bytes < report.undefended_victim_bytes / 2,
            "enforcement must cut the victim link: {report:?}"
        );
        assert!(report.residual_amplification <= 10.0, "{report:?}");
    }

    #[test]
    fn obr_scenario_detects_on_shape_immediately() {
        let report = run_scenario(
            DefenseScenario::Obr(Vendor::Cloudflare, Vendor::Akamai),
            &quick_config(),
            7,
        );
        assert!(report.detected, "{report:?}");
        // Overlap multiplicity flags the very first attack request.
        assert!(report.detection_latency_ms.unwrap() <= 1_000, "{report:?}");
        assert_eq!(report.benign_requests_blocked, 0, "{report:?}");
        assert!(
            report.defended_victim_bytes < report.undefended_victim_bytes,
            "{report:?}"
        );
    }

    #[test]
    fn campaign_is_thread_count_invariant() {
        let config = DefenseEvalConfig {
            duration_ms: 8_000,
            attack_start_ms: 2_000,
            attack_end_ms: 6_000,
            ..quick_config()
        };
        let scenarios = vec![
            DefenseScenario::Sbr(Vendor::Akamai),
            DefenseScenario::Sbr(Vendor::KeyCdn),
            DefenseScenario::Obr(Vendor::Cdn77, Vendor::Azure),
        ];
        let run = |threads: usize| {
            Executor::new(threads).map(3, scenarios.clone(), |ctx, s| {
                serde_json::to_string(&run_scenario(s, &config, ctx.seed)).expect("serializes")
            })
        };
        assert_eq!(run(1), run(4));
    }

    #[test]
    fn scenario_list_has_24_entries() {
        let all = DefenseScenario::all();
        assert_eq!(all.len(), 24);
        assert_eq!(all[0].label(), "sbr Akamai");
        assert!(all.iter().any(|s| s.label().starts_with("obr ")));
    }
}
