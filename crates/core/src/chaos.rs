//! Chaos campaigns: the paper's amplification experiments re-run under
//! deterministic fault injection, with retry-amplification accounting.
//!
//! The paper's steady-state numbers (Tables IV/V) assume the CDN → origin
//! path never fails. Real edges retry failed fetches, trip circuit
//! breakers, and fall back to stale cache entries — and every *retry* of
//! an amplified fetch multiplies the origin-side damage again. A chaos
//! campaign replays a vendor's exploited range case for many rounds under
//! a seeded [`FaultPlan`] and reports how much of the back-to-origin
//! traffic was retry traffic.
//!
//! Everything is deterministic: the fault schedule is seeded per vendor,
//! backoff advances a virtual clock, and reports iterate vendors in
//! [`Vendor::ALL`] order — the same seed always produces byte-identical
//! output.

use rangeamp_cdn::{ResilienceStats, Vendor};
use rangeamp_http::Request;
use rangeamp_net::{FaultPlan, FaultRates, SegmentStats, Telemetry};

use crate::attack::{exploited_range_case, ObrAttack};
use crate::executor::Executor;
use crate::testbed::{Testbed, TARGET_HOST, TARGET_PATH};

/// Parameters of a chaos campaign.
#[derive(Debug, Clone, Copy)]
pub struct ChaosConfig {
    /// Base RNG seed; each vendor's fault schedule derives from it.
    pub seed: u64,
    /// Attack rounds per vendor (each round is one exploited case, one
    /// cache-busted URL).
    pub rounds: u32,
    /// Target resource size in bytes.
    pub resource_size: u64,
    /// Per-transfer fault probabilities on the CDN → origin path.
    pub rates: FaultRates,
}

impl Default for ChaosConfig {
    fn default() -> ChaosConfig {
        ChaosConfig {
            seed: 0xCD4_BACF1,
            rounds: 32,
            resource_size: 1024 * 1024,
            rates: FaultRates::FLAKY_ORIGIN,
        }
    }
}

impl ChaosConfig {
    /// The fault-schedule seed for `vendor`: distinct per vendor but a
    /// pure function of the base seed, so campaigns are reproducible
    /// vendor by vendor.
    pub fn vendor_seed(&self, vendor: Vendor) -> u64 {
        let index = Vendor::ALL
            .iter()
            .position(|v| *v == vendor)
            .expect("vendor is in Vendor::ALL") as u64;
        self.seed ^ (index + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }
}

/// Outcome of one vendor's SBR chaos campaign.
#[derive(Debug, Clone, Copy)]
pub struct VendorChaosReport {
    /// The vendor under test.
    pub vendor: Vendor,
    /// Rounds executed.
    pub rounds: u32,
    /// Attacker-side (`client-cdn`) traffic counters.
    pub client: SegmentStats,
    /// Victim-side (`cdn-origin`) traffic counters.
    pub origin: SegmentStats,
    /// Retry/breaker/stale counters from the edge's resilience layer.
    pub resilience: ResilienceStats,
    /// Client-facing responses with status ≥ 500 (failures that survived
    /// retries, breaker short-circuits and serve-stale).
    pub client_errors: u64,
    /// Edge-cache lookups answered from a fresh entry.
    pub cache_hits: u64,
    /// Edge-cache lookups that missed (or found only an expired entry).
    pub cache_misses: u64,
}

impl VendorChaosReport {
    /// Back-to-origin response bytes attributable to first attempts
    /// (total minus retry traffic).
    pub fn first_attempt_origin_bytes(&self) -> u64 {
        self.origin
            .response_bytes
            .saturating_sub(self.resilience.retry_response_bytes)
    }

    /// The retry-amplification factor: total origin response bytes over
    /// first-attempt origin response bytes. `1.0` means no retry ever
    /// re-shipped data; `1.3` means retries inflated the origin's damage
    /// by 30% on top of the range-amplification itself.
    pub fn retry_amplification(&self) -> f64 {
        let first = self.first_attempt_origin_bytes();
        if first == 0 {
            return 1.0;
        }
        self.origin.response_bytes as f64 / first as f64
    }

    /// Mean upstream attempts per logical fetch.
    pub fn attempts_per_fetch(&self) -> f64 {
        let fetches = self.resilience.attempts - self.resilience.retries;
        if fetches == 0 {
            return 0.0;
        }
        self.resilience.attempts as f64 / fetches as f64
    }

    /// Fraction of client responses that were not 5xx.
    pub fn availability(&self) -> f64 {
        if self.client.responses == 0 {
            return 1.0;
        }
        1.0 - self.client_errors as f64 / self.client.responses as f64
    }

    /// Mean retries per client request.
    pub fn retries_per_request(&self) -> f64 {
        if self.client.requests == 0 {
            return 0.0;
        }
        self.resilience.retries as f64 / self.client.requests as f64
    }

    /// Fraction of edge-cache lookups answered from a fresh entry.
    pub fn cache_hit_ratio(&self) -> f64 {
        let lookups = self.cache_hits + self.cache_misses;
        if lookups == 0 {
            return 0.0;
        }
        self.cache_hits as f64 / lookups as f64
    }
}

/// Runs one vendor's exploited SBR case for `config.rounds` rounds under
/// that vendor's derived fault schedule.
///
/// With a telemetry bundle every round is traced end to end, and after
/// the run the campaign publishes gauges (`retries_per_request`,
/// `cache_hit_ratio`) computed from the *same* authoritative counters
/// the report carries, so metrics and [`ResilienceStats`] can never
/// disagree.
pub fn run_sbr_chaos(
    vendor: Vendor,
    config: &ChaosConfig,
    telemetry: Option<&Telemetry>,
) -> VendorChaosReport {
    let plan = FaultPlan::with_rates(config.vendor_seed(vendor), config.rates);
    let mut builder = Testbed::builder()
        .vendor(vendor)
        .resource(TARGET_PATH, config.resource_size)
        .faults(plan);
    if let Some(tel) = telemetry {
        builder = builder.telemetry(tel.clone());
    }
    let bed = builder.build();
    let case = exploited_range_case(vendor, config.resource_size);
    let mut client_errors = 0u64;
    for round in 0..config.rounds {
        let uri = format!("{TARGET_PATH}?rnd={round:08x}");
        for range in &case.ranges {
            let req = Request::get(&uri)
                .header("Host", TARGET_HOST)
                .header("Range", range.to_string())
                .build();
            let resp = bed.request(&req);
            if resp.status().as_u16() >= 500 {
                client_errors += 1;
            }
        }
    }
    let (cache_hits, cache_misses) = bed.edge().cache().stats();
    let report = VendorChaosReport {
        vendor,
        rounds: config.rounds,
        client: bed.client_segment().stats(),
        origin: bed.origin_segment().stats(),
        resilience: bed.edge().resilience().stats(),
        client_errors,
        cache_hits,
        cache_misses,
    };
    if let Some(tel) = telemetry {
        publish_vendor_metrics(tel, &report);
    }
    report
}

/// Publishes a finished vendor report into the metrics registry, keyed
/// per vendor, from the report's own counters.
fn publish_vendor_metrics(tel: &Telemetry, report: &VendorChaosReport) {
    let vendor = report.vendor.to_string();
    let labels = [("vendor", vendor.as_str())];
    let metrics = tel.metrics();
    metrics.counter_add("chaos_attempts_total", &labels, report.resilience.attempts);
    metrics.counter_add("chaos_retries_total", &labels, report.resilience.retries);
    metrics.counter_add(
        "chaos_breaker_opens_total",
        &labels,
        report.resilience.breaker_opens,
    );
    metrics.counter_add(
        "chaos_stale_serves_total",
        &labels,
        report.resilience.stale_serves,
    );
    metrics.counter_add("chaos_client_errors_total", &labels, report.client_errors);
    metrics.counter_add("cache_hits_total", &labels, report.cache_hits);
    metrics.counter_add("cache_misses_total", &labels, report.cache_misses);
    metrics.gauge_set("retries_per_request", &labels, report.retries_per_request());
    metrics.gauge_set("cache_hit_ratio", &labels, report.cache_hit_ratio());
    metrics.gauge_set("retry_amplification", &labels, report.retry_amplification());
    metrics.gauge_set("availability", &labels, report.availability());
}

/// Runs [`run_sbr_chaos`] for every vendor, in [`Vendor::ALL`] order,
/// sharded over a deterministic [`Executor`].
///
/// Each vendor is one unit: its fault schedule derives from
/// [`ChaosConfig::vendor_seed`] (unchanged by parallelism), and with a
/// telemetry bundle every unit traces into its *own* bundle seeded from
/// the executor's per-unit seed stream; the bundles are absorbed into
/// `telemetry` in vendor order after the parallel section. Reports,
/// rendered tables, metrics snapshots and Chrome-trace exports are
/// therefore byte-identical at any thread count.
pub fn run_sbr_campaign(
    config: &ChaosConfig,
    telemetry: Option<&Telemetry>,
    executor: &Executor,
) -> Vec<VendorChaosReport> {
    let traced = telemetry.is_some();
    let results = executor.map(config.seed, Vendor::ALL.to_vec(), |ctx, vendor| {
        let unit_tel = traced.then(|| Telemetry::seeded(ctx.seed));
        (run_sbr_chaos(vendor, config, unit_tel.as_ref()), unit_tel)
    });
    results
        .into_iter()
        .map(|(report, unit_tel)| {
            if let (Some(main), Some(unit)) = (telemetry, unit_tel.as_ref()) {
                main.absorb(unit);
            }
            report
        })
        .collect()
}

/// Outcome of one cascaded OBR chaos run.
#[derive(Debug, Clone, Copy)]
pub struct CascadeChaosReport {
    /// Front-end CDN.
    pub fcdn: Vendor,
    /// Back-end CDN.
    pub bcdn: Vendor,
    /// Rounds executed.
    pub rounds: u32,
    /// `fcdn-bcdn` (victim link) traffic counters.
    pub middle: SegmentStats,
    /// `bcdn-origin` traffic counters.
    pub origin: SegmentStats,
    /// The FCDN edge's resilience counters (retries into the BCDN).
    pub fcdn_resilience: ResilienceStats,
    /// The BCDN edge's resilience counters (retries into the origin).
    pub bcdn_resilience: ResilienceStats,
}

impl CascadeChaosReport {
    /// Retry amplification on the victim (`fcdn-bcdn`) link: every FCDN
    /// retry re-ships the BCDN's n-part overlapping response.
    pub fn middle_retry_amplification(&self) -> f64 {
        let first = self
            .middle
            .response_bytes
            .saturating_sub(self.fcdn_resilience.retry_response_bytes);
        if first == 0 {
            return 1.0;
        }
        self.middle.response_bytes as f64 / first as f64
    }
}

/// Runs an OBR cascade for `config.rounds` rounds with faults injected
/// on the `bcdn-origin` path. The OBR `n` is kept small (the damage
/// under study is the *retry* multiplier, not the part count). A
/// telemetry bundle, when given, is shared by both edges and the origin.
pub fn run_obr_chaos(
    fcdn: Vendor,
    bcdn: Vendor,
    config: &ChaosConfig,
    telemetry: Option<&Telemetry>,
) -> CascadeChaosReport {
    let seed = config.vendor_seed(fcdn) ^ config.vendor_seed(bcdn).rotate_left(17);
    let plan = FaultPlan::with_rates(seed, config.rates);
    let mut builder = Testbed::cascade(fcdn.fcdn_profile(), bcdn.profile()).faults(plan);
    if let Some(tel) = telemetry {
        builder = builder.telemetry(tel.clone());
    }
    let bed = builder.build();
    let attack = ObrAttack::new(fcdn, bcdn).overlapping_ranges(16);
    let case = attack.range_case();
    for round in 0..config.rounds {
        let req = Request::get(&format!("{TARGET_PATH}?rnd={round:08x}"))
            .header("Host", TARGET_HOST)
            .header("Range", case.header(16).to_string())
            .build();
        bed.request(&req);
    }
    CascadeChaosReport {
        fcdn,
        bcdn,
        rounds: config.rounds,
        middle: bed.victim_segment().stats(),
        origin: bed.origin_segment().stats(),
        fcdn_resilience: bed.fcdn().resilience().stats(),
        bcdn_resilience: bed.bcdn().resilience().stats(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> ChaosConfig {
        ChaosConfig {
            rounds: 12,
            resource_size: 64 * 1024,
            ..ChaosConfig::default()
        }
    }

    #[test]
    fn same_seed_same_bytes() {
        let config = small_config();
        let a = run_sbr_chaos(Vendor::Akamai, &config, None);
        let b = run_sbr_chaos(Vendor::Akamai, &config, None);
        assert_eq!(a.client, b.client);
        assert_eq!(a.origin, b.origin);
        assert_eq!(a.resilience, b.resilience);
        assert_eq!(a.client_errors, b.client_errors);
    }

    #[test]
    fn different_seeds_diverge() {
        let config = small_config();
        let other = ChaosConfig {
            seed: config.seed + 1,
            ..config
        };
        let a = run_sbr_chaos(Vendor::Akamai, &config, None);
        let b = run_sbr_chaos(Vendor::Akamai, &other, None);
        // Fault schedules differ, so some counter must differ.
        assert!(
            a.origin != b.origin || a.resilience != b.resilience,
            "distinct seeds should produce distinct campaigns"
        );
    }

    #[test]
    fn healthy_rates_mean_no_retries() {
        let config = ChaosConfig {
            rates: FaultRates::HEALTHY,
            ..small_config()
        };
        let report = run_sbr_chaos(Vendor::Akamai, &config, None);
        assert_eq!(report.resilience.retries, 0);
        assert_eq!(report.resilience.upstream_failures, 0);
        assert_eq!(report.resilience.breaker_opens, 0);
        assert_eq!(report.client_errors, 0);
        assert!((report.retry_amplification() - 1.0).abs() < f64::EPSILON);
        assert!((report.availability() - 1.0).abs() < f64::EPSILON);
    }

    #[test]
    fn flaky_origin_inflates_retry_amplification() {
        let report = run_sbr_chaos(Vendor::Akamai, &small_config(), None);
        assert!(
            report.resilience.upstream_failures > 0,
            "faults should fire"
        );
        assert!(report.resilience.retries > 0, "Akamai retries failures");
        assert!(
            report.retry_amplification() > 1.0,
            "retries re-ship amplified fetches: {}",
            report.retry_amplification()
        );
        assert!(report.attempts_per_fetch() > 1.0);
    }

    #[test]
    fn fastly_never_retries() {
        // Fastly's policy is fail-fast (RetryPolicy::none()).
        let report = run_sbr_chaos(Vendor::Fastly, &small_config(), None);
        assert_eq!(report.resilience.retries, 0);
        assert!((report.retry_amplification() - 1.0).abs() < f64::EPSILON);
    }

    #[test]
    fn campaign_covers_all_vendors_in_order() {
        let config = ChaosConfig {
            rounds: 2,
            resource_size: 16 * 1024,
            ..ChaosConfig::default()
        };
        let reports = run_sbr_campaign(&config, None, &Executor::sequential());
        assert_eq!(reports.len(), Vendor::ALL.len());
        for (report, vendor) in reports.iter().zip(Vendor::ALL) {
            assert_eq!(report.vendor, vendor);
        }
    }

    #[test]
    fn campaign_is_byte_identical_across_thread_counts() {
        let config = ChaosConfig {
            rounds: 4,
            resource_size: 32 * 1024,
            ..ChaosConfig::default()
        };
        let run = |threads: usize| {
            let tel = Telemetry::seeded(config.seed);
            let reports = run_sbr_campaign(&config, Some(&tel), &Executor::new(threads));
            let digest: Vec<String> = reports.iter().map(|r| format!("{r:?}")).collect();
            (
                digest,
                tel.metrics().snapshot().render(),
                tel.tracer().chrome_trace_json(),
            )
        };
        let reference = run(1);
        for threads in [2, 4, 8] {
            assert_eq!(run(threads), reference, "threads={threads}");
        }
    }

    #[test]
    fn obr_chaos_is_deterministic() {
        let config = ChaosConfig {
            rounds: 6,
            ..ChaosConfig::default()
        };
        let a = run_obr_chaos(Vendor::Cloudflare, Vendor::Akamai, &config, None);
        let b = run_obr_chaos(Vendor::Cloudflare, Vendor::Akamai, &config, None);
        assert_eq!(a.middle, b.middle);
        assert_eq!(a.origin, b.origin);
        assert_eq!(a.fcdn_resilience, b.fcdn_resilience);
        assert_eq!(a.bcdn_resilience, b.bcdn_resilience);
    }
}
