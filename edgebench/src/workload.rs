//! The four workloads and their seeded, lazily generated input streams.
//!
//! A round sends a fixed number of requests. The stream depends only on
//! the workload and the seed, so every round of one run sends the same
//! requests and sees the same cache state, and two runs with one seed
//! send identical streams.

use rangeamp::attack::{exploited_range_case, obr_combos, ObrAttack};
use rangeamp::cdn::{Vendor, CLIENT_ID_HEADER};
use rangeamp::http::range::RangeHeader;
use rangeamp::http::Request;
use rangeamp::origin::ResourceStore;
use rangeamp::workload::BenignClient;
use rangeamp::{TARGET_HOST, TARGET_PATH};

use crate::rng::{mix, SplitMix64};

/// Objects in the benign catalog. Fits inside the edge cache's default
/// capacity (4096 entries), so a warmed edge serves every benign request
/// from cache.
pub const CATALOG_OBJECTS: usize = 2000;
/// Zipf exponent of benign object popularity.
const ZIPF_S: f64 = 1.0;
/// SBR target sizes: the Table IV size and one Fig 6 size above 10 MB,
/// which puts the Azure, CloudFront and Huawei size conditionals on the
/// path.
pub const SBR_TARGETS: [(&str, u64); 2] = [("/sbr/1m.bin", MB), ("/sbr/16m.bin", 16 * MB)];
/// The OBR attacker's receive window (bytes).
pub const OBR_WINDOW: u64 = 1024;
/// OBR combinations with at most this many ranges are light (the
/// →Azure combinations, n = 64).
const OBR_LIGHT_N: usize = 1000;
/// Distinct benign client ids on `defended_mix`.
pub const BENIGN_CLIENTS: u64 = 100_000;
/// SBR attacker ids on `defended_mix`.
pub const ATTACKERS: u64 = 40;
/// Share of `defended_mix` requests sent by attackers, in percent.
pub const ATTACK_PERCENT: u64 = 5;
/// The vendor fronting `edge_hot` and `defended_mix`.
pub const EDGE_VENDOR: Vendor = Vendor::Akamai;

const MB: u64 = 1024 * 1024;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Benign traffic over a warm cache: the edge hit path.
    EdgeHot,
    /// Cache-busted SBR misses on all 13 vendors: the miss/store/evict path.
    SbrFlood,
    /// Table V OBR cascades at maximum n: range parsing and multipart bodies.
    ObrCascade,
    /// Benign clients and SBR attackers behind the online defense.
    DefendedMix,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 4] = [
        Workload::EdgeHot,
        Workload::SbrFlood,
        Workload::ObrCascade,
        Workload::DefendedMix,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::EdgeHot => "edge_hot",
            Workload::SbrFlood => "sbr_flood",
            Workload::ObrCascade => "obr_cascade",
            Workload::DefendedMix => "defended_mix",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Requests per round.
    pub fn round_requests(self) -> usize {
        match self {
            Workload::EdgeHot => 40_000,
            Workload::SbrFlood => 39_000,
            Workload::ObrCascade => 54,
            Workload::DefendedMix => 150_000,
        }
    }
}

/// One generated request and where it goes.
#[derive(Debug, Clone)]
pub struct Input {
    /// Index of the testbed that receives it.
    pub bed: usize,
    /// The request.
    pub req: Request,
    /// Sent by an attacker (the defense may refuse it).
    pub attack: bool,
}

/// One Table IV exploited case on one vendor and target.
#[derive(Debug, Clone)]
pub struct SbrCase {
    /// Index into [`Vendor::ALL`] (and the testbed list).
    pub vendor: usize,
    /// Target path.
    pub path: &'static str,
    /// `Range` value of each request, in send order, on one busted URL.
    pub ranges: Vec<String>,
}

/// One Table V combination at its maximum n.
#[derive(Debug, Clone)]
pub struct ObrCombo {
    /// Front CDN.
    pub fcdn: Vendor,
    /// Back CDN.
    pub bcdn: Vendor,
    /// Overlapping ranges in the request.
    pub n: usize,
    /// The `Range` header value.
    pub range: String,
}

/// Everything needed to generate a workload's inputs.
#[derive(Debug, Clone)]
pub struct Plan {
    /// The workload.
    pub workload: Workload,
    /// The seed.
    pub seed: u64,
    /// Requests per round.
    pub requests: usize,
    zipf_cdf: Vec<f64>,
    /// SBR cases (`sbr_flood`).
    pub sbr: Vec<SbrCase>,
    /// OBR combinations (`obr_cascade`).
    pub obr: Vec<ObrCombo>,
    /// Seeded round-robin cycle over indices of `sbr` or `obr`.
    order: Vec<usize>,
}

impl Plan {
    /// The plan for `workload` under `seed`; `requests` overrides the
    /// per-round request count.
    pub fn new(workload: Workload, seed: u64, requests: Option<usize>) -> Plan {
        let mut rng = SplitMix64::new(seed ^ 0x5EED_0F0F_ED6E_BE9C);
        let mut plan = Plan {
            workload,
            seed,
            requests: requests.unwrap_or_else(|| workload.round_requests()),
            zipf_cdf: Vec::new(),
            sbr: Vec::new(),
            obr: Vec::new(),
            order: Vec::new(),
        };
        match workload {
            Workload::EdgeHot | Workload::DefendedMix => plan.zipf_cdf = zipf_cdf(CATALOG_OBJECTS),
            Workload::SbrFlood => {
                plan.sbr = sbr_cases();
                plan.order = rng.permutation(plan.sbr.len());
            }
            Workload::ObrCascade => {
                plan.obr = obr_cases();
                // One cycle sends each combination whose BCDN caps n
                // (→Azure, n = 64, ~0.1 ms) once and every other
                // combination twice. The heavy combinations fall in three
                // latency modes that grow with n; sorted by latency, the
                // cycle puts p50 in the middle of the middle mode and p90
                // inside the slowest one, not at a boundary between modes.
                let cycle: Vec<usize> = plan
                    .obr
                    .iter()
                    .enumerate()
                    .flat_map(|(i, combo)| vec![i; if combo.n <= OBR_LIGHT_N { 1 } else { 2 }])
                    .collect();
                plan.order = rng
                    .permutation(cycle.len())
                    .into_iter()
                    .map(|slot| cycle[slot])
                    .collect();
            }
        }
        plan
    }

    /// The round's input stream, generated lazily.
    pub fn stream(&self) -> Stream<'_> {
        Stream {
            plan: self,
            rng: SplitMix64::new(self.seed),
            emitted: 0,
            cursor: 0,
            pending: Vec::new(),
        }
    }
}

/// The origin's content for `edge_hot` and `defended_mix`: the benign
/// catalog plus the 1 MB SBR target.
pub fn catalog_store() -> ResourceStore {
    let mut store = ResourceStore::new();
    for i in 0..CATALOG_OBJECTS {
        store.add_synthetic(
            &catalog_path(i),
            catalog_size(i),
            "application/octet-stream",
        );
    }
    let (path, size) = SBR_TARGETS[0];
    store.add_synthetic(path, size, "application/octet-stream");
    store
}

/// The origin's content for `sbr_flood`.
pub fn sbr_store() -> ResourceStore {
    let mut store = ResourceStore::new();
    for (path, size) in SBR_TARGETS {
        store.add_synthetic(path, size, "application/octet-stream");
    }
    store
}

/// Path of catalog object `i`.
pub fn catalog_path(i: usize) -> String {
    format!("/obj/{i:04}.bin")
}

/// Size of catalog object `i`: log-uniform in 1 KiB..128 KiB, fixed by
/// the index (not the seed), so set-up work is the same for every seed.
pub fn catalog_size(i: usize) -> u64 {
    let u = (mix(i as u64 + 1) >> 11) as f64 / (1u64 << 53) as f64;
    (1024.0 * 2f64.powf(7.0 * u)) as u64
}

fn zipf_cdf(n: usize) -> Vec<f64> {
    let weights: Vec<f64> = (1..=n)
        .map(|rank| 1.0 / (rank as f64).powf(ZIPF_S))
        .collect();
    let total: f64 = weights.iter().sum();
    let mut acc = 0.0;
    weights
        .iter()
        .map(|w| {
            acc += w / total;
            acc
        })
        .collect()
}

fn sbr_cases() -> Vec<SbrCase> {
    let mut cases = Vec::new();
    for (vendor_index, vendor) in Vendor::ALL.iter().enumerate() {
        for (path, size) in SBR_TARGETS {
            let case = exploited_range_case(*vendor, size);
            cases.push(SbrCase {
                vendor: vendor_index,
                path,
                ranges: case.ranges.iter().map(|r| r.to_string()).collect(),
            });
        }
    }
    cases
}

fn obr_cases() -> Vec<ObrCombo> {
    obr_combos()
        .into_iter()
        .map(|(fcdn, bcdn)| {
            let attack = ObrAttack::new(fcdn, bcdn);
            let n = attack.max_n();
            ObrCombo {
                fcdn,
                bcdn,
                n,
                range: attack.range_case().header(n).to_string(),
            }
        })
        .collect()
}

/// A GET for `path` with the victim's Host header.
pub fn get(path: &str) -> rangeamp::http::RequestBuilder {
    Request::get(path).header("Host", TARGET_HOST)
}

/// The lazily generated input stream of one round.
#[derive(Debug)]
pub struct Stream<'a> {
    plan: &'a Plan,
    rng: SplitMix64,
    emitted: usize,
    cursor: usize,
    pending: Vec<Input>,
}

impl Stream<'_> {
    fn benign(&mut self) -> Request {
        let u = self.rng.unit();
        let cdf = &self.plan.zipf_cdf;
        let object = cdf.partition_point(|&c| c < u).min(cdf.len() - 1);
        let size = catalog_size(object);
        let client = BenignClient::ALL[self.rng.below(4) as usize];
        let range = match client {
            BenignClient::FullDownload => None,
            BenignClient::ResumeFromBreakpoint => {
                Some(RangeHeader::from_first(1 + self.rng.below(size - 1)))
            }
            BenignClient::MediaSeek => {
                let probe = 1 + self.rng.below(64.min(size));
                Some(RangeHeader::from_to(0, probe - 1))
            }
            BenignClient::MultiThreadDownload => {
                let threads = 2 + self.rng.below(3);
                let chunk = (size / threads).max(1);
                let thread = self.rng.below(threads);
                let first = thread * chunk;
                let last = if thread == threads - 1 {
                    size - 1
                } else {
                    first + chunk - 1
                };
                Some(RangeHeader::from_to(first, last))
            }
        };
        let mut builder = get(&catalog_path(object));
        if let Some(range) = range {
            builder = builder.header("Range", range.to_string());
        }
        builder.build()
    }

    fn busted(&mut self, path: &str) -> String {
        format!("{path}?rnd={:016x}", self.rng.next_u64())
    }

    fn generate(&mut self) -> Input {
        let plan = self.plan;
        match plan.workload {
            Workload::EdgeHot => Input {
                bed: 0,
                req: self.benign(),
                attack: false,
            },
            Workload::DefendedMix => {
                if self.rng.below(100) < ATTACK_PERCENT {
                    let attacker = self.rng.below(ATTACKERS);
                    let uri = self.busted(SBR_TARGETS[0].0);
                    let req = get(&uri)
                        .header("Range", "bytes=0-0")
                        .header(CLIENT_ID_HEADER, format!("a{attacker:02}"))
                        .build();
                    Input {
                        bed: 0,
                        req,
                        attack: true,
                    }
                } else {
                    let client = self.rng.below(BENIGN_CLIENTS);
                    let mut req = self.benign();
                    req.headers_mut()
                        .append(CLIENT_ID_HEADER, format!("c{client:05}"));
                    Input {
                        bed: 0,
                        req,
                        attack: false,
                    }
                }
            }
            Workload::SbrFlood => {
                let case = &plan.sbr[plan.order[self.cursor % plan.order.len()]];
                self.cursor += 1;
                let uri = self.busted(case.path);
                let mut inputs: Vec<Input> = case
                    .ranges
                    .iter()
                    .map(|range| Input {
                        bed: case.vendor,
                        req: get(&uri).header("Range", range.clone()).build(),
                        attack: true,
                    })
                    .collect();
                inputs.reverse();
                let first = inputs.pop().expect("every exploited case has a request");
                self.pending = inputs;
                first
            }
            Workload::ObrCascade => {
                let combo = plan.order[self.cursor % plan.order.len()];
                self.cursor += 1;
                Input {
                    bed: combo,
                    req: get(TARGET_PATH)
                        .header("Range", plan.obr[combo].range.clone())
                        .build(),
                    attack: true,
                }
            }
        }
    }
}

impl Iterator for Stream<'_> {
    type Item = Input;

    fn next(&mut self) -> Option<Input> {
        if self.emitted == self.plan.requests {
            return None;
        }
        self.emitted += 1;
        Some(match self.pending.pop() {
            Some(input) => input,
            None => self.generate(),
        })
    }
}
