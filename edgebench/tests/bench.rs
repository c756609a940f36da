//! Tests of the benchmark itself: correctness of short runs, the outside
//! checker, seed determinism, and traced/untraced equivalence.

use edgebench::check::{check, Parts};
use edgebench::run::{run, Options, Report};
use edgebench::topology::Topology;
use edgebench::workload::{Input, Plan, Workload};
use rangeamp::http::multipart::MultipartBuilder;
use rangeamp::http::range::ResolvedRange;
use rangeamp::http::{Body, Response, StatusCode};

/// Requests per round small enough for a debug build.
fn short(workload: Workload) -> usize {
    match workload {
        Workload::ObrCascade => 11,
        _ => 500,
    }
}

fn short_run(workload: Workload, seed: u64, trace: bool) -> Report {
    run(&Options {
        workload,
        seed,
        seconds: 0.0,
        trace,
        requests: Some(short(workload)),
        max_rounds: Some(1),
    })
}

fn stream_bytes(workload: Workload, seed: u64) -> Vec<Vec<u8>> {
    let plan = Plan::new(workload, seed, Some(short(workload)));
    plan.stream()
        .map(|input| input.req.to_wire_bytes())
        .collect()
}

#[test]
fn short_run_of_every_workload_has_no_failures() {
    for workload in Workload::ALL {
        let report = short_run(workload, 7, false);
        assert_eq!(report.failed, 0, "{}: {:?}", workload.name(), report.errors);
        assert!(report.correct, "{}: {:?}", workload.name(), report.errors);
        assert_eq!(report.metric("correct_share"), Some(1.0));
        assert!(report.metric("wire_amp").is_some_and(|v| v > 0.0));
    }
}

#[test]
fn traced_run_reproduces_untraced_bytes_and_digest() {
    for workload in Workload::ALL {
        let report = short_run(workload, 3, true);
        assert!(report.correct, "{}: {:?}", workload.name(), report.errors);
        assert!(report.metric("trace.overhead_pct").is_some());
        assert!(report
            .spans
            .as_deref()
            .is_some_and(|s| s.lines().count() > 1));
    }
}

#[test]
fn same_seed_repeats_inputs_digest_and_wire_amp() {
    for workload in Workload::ALL {
        assert_eq!(stream_bytes(workload, 11), stream_bytes(workload, 11));
        let a = short_run(workload, 11, false);
        let b = short_run(workload, 11, false);
        assert_eq!(a.digest, b.digest, "{}", workload.name());
        assert_eq!(a.wire, b.wire, "{}", workload.name());
        let amp = |r: &Report| r.metric("wire_amp").map(f64::to_bits);
        assert_eq!(amp(&a), amp(&b), "{}", workload.name());
    }
}

#[test]
fn different_seed_changes_the_input_stream() {
    for workload in Workload::ALL {
        assert_ne!(
            stream_bytes(workload, 1),
            stream_bytes(workload, 2),
            "{}",
            workload.name()
        );
    }
}

/// One real request/response pair of `workload`, from its first round.
fn served(workload: Workload, pick: impl Fn(&Input) -> bool) -> (Topology, Input, Response) {
    let plan = Plan::new(workload, 5, Some(short(workload)));
    let topology = Topology::build(&plan, None);
    topology.warm(&plan);
    let input = plan
        .stream()
        .find(|i| pick(i))
        .expect("stream has such a request");
    let resp = topology.beds[input.bed].request(&input.req);
    (topology, input, resp)
}

fn with_body(resp: &Response, body: Vec<u8>) -> Response {
    let mut copy = resp.clone();
    copy.set_body(Body::from(body));
    copy
}

#[test]
fn checker_flags_a_corrupted_body() {
    let (topology, input, resp) = served(Workload::EdgeHot, |i| {
        i.req.headers().get("range").is_none()
    });
    let store = topology.beds[0].store();
    check(store, &input, &resp, Parts::Either).expect("the real response passes");

    let mut bytes = resp.body().as_bytes().to_vec();
    let middle = bytes.len() / 2;
    bytes[middle] ^= 0xFF;
    let corrupted = with_body(&resp, bytes);
    assert!(check(store, &input, &corrupted, Parts::Either).is_err());
}

#[test]
fn checker_flags_a_wrong_range_and_status() {
    let (topology, input, resp) = served(Workload::SbrFlood, |_| true);
    let store = topology.beds[input.bed].store();
    check(store, &input, &resp, Parts::Either).expect("the real response passes");

    let mut shifted = resp.clone();
    if shifted.headers().contains("content-range") {
        shifted
            .headers_mut()
            .set("Content-Range", "bytes 1-1/1048576");
        assert!(check(store, &input, &shifted, Parts::Either).is_err());
    }
    let ok = Response::builder(StatusCode::OK)
        .sized_body(resp.body().clone())
        .build();
    assert!(check(store, &input, &ok, Parts::Either).is_err());
}

#[test]
fn checker_flags_a_wrong_part_count() {
    let (topology, input, resp) = served(Workload::ObrCascade, |_| true);
    let store = topology.beds[input.bed].store();
    let parts = check(store, &input, &resp, Parts::Exact).expect("the real response passes");
    assert!(parts > 2);

    // The same multipart reply with one part missing.
    let resource = store.get(input.req.uri().path()).expect("target stored");
    let full = resource.full_body();
    let size = full.len();
    let mut builder = MultipartBuilder::new("application/octet-stream", size);
    for _ in 1..parts {
        let range = ResolvedRange {
            first: 0,
            last: size - 1,
        };
        builder = builder.part(range, full.clone());
    }
    let short_reply = Response::builder(StatusCode::PARTIAL_CONTENT)
        .header("Content-Type", builder.content_type_header())
        .sized_body(builder.build())
        .build();
    assert!(check(store, &input, &short_reply, Parts::Exact).is_err());
}
