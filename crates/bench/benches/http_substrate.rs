//! Micro-benchmarks for the HTTP substrate: `Range` grammar parsing,
//! multipart/byteranges assembly, and wire-format round-trips. These are
//! the hot paths of every experiment (each SBR run serializes multi-MB
//! responses; each OBR run parses 30 KB `Range` headers). `cache_hit_4096`
//! measures the edge cache's hit path in isolation, `edge_hit` a whole
//! warm Akamai edge answering a small range from cache.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use rangeamp::{Testbed, TARGET_HOST, TARGET_PATH};
use rangeamp_cdn::{Cache, CacheKey, Vendor};
use rangeamp_http::multipart::MultipartBuilder;
use rangeamp_http::range::{coalesce, RangeHeader, ResolvedRange};
use rangeamp_http::{wire, Body, Request, Response, StatusCode};

fn bench_range_parsing(c: &mut Criterion) {
    let mut group = c.benchmark_group("range_parse");
    for n in [1usize, 64, 1024, 10_750] {
        let header = RangeHeader::overlapping(n).to_string();
        group.throughput(Throughput::Bytes(header.len() as u64));
        group.bench_with_input(BenchmarkId::new("overlapping", n), &header, |b, header| {
            b.iter(|| RangeHeader::parse(black_box(header)).expect("valid"));
        });
    }
    group.bench_function("single_small", |b| {
        b.iter(|| RangeHeader::parse(black_box("bytes=0-0")).expect("valid"));
    });
    group.finish();
}

fn bench_coalesce(c: &mut Criterion) {
    let mut group = c.benchmark_group("coalesce");
    for n in [64usize, 1024, 10_750] {
        let ranges: Vec<ResolvedRange> = vec![
            ResolvedRange {
                first: 0,
                last: 1023
            };
            n
        ];
        group.bench_with_input(BenchmarkId::from_parameter(n), &ranges, |b, ranges| {
            b.iter(|| coalesce(black_box(ranges)));
        });
    }
    group.finish();
}

fn bench_multipart_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("multipart_build");
    let body = Body::from(vec![0u8; 1024]);
    let builder_of = |n: usize| {
        let mut builder = MultipartBuilder::new("application/octet-stream", 1024);
        for _ in 0..n {
            builder = builder.part(
                ResolvedRange {
                    first: 0,
                    last: 1023,
                },
                black_box(body.clone()),
            );
        }
        builder
    };
    // 10,000 parts of `0-1023` is the shape of an OBR reply at max n.
    for n in [4usize, 64, 1024, 10_000] {
        group.throughput(Throughput::Bytes((n * 1024) as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| builder_of(n).build());
        });
    }
    // The flattening fallback: build, then read the payload contiguously.
    for n in [64usize, 10_000] {
        group.throughput(Throughput::Bytes((n * 1024) as u64));
        group.bench_with_input(BenchmarkId::new("as_bytes", n), &n, |b, &n| {
            b.iter(|| builder_of(n).build().as_bytes().len());
        });
    }
    group.finish();
}

fn bench_wire_round_trip(c: &mut Criterion) {
    let mut group = c.benchmark_group("wire");
    let req = Request::get("/10MB.bin?rnd=0123456789abcdef")
        .header("Host", "victim.example")
        .header("Range", "bytes=0-0")
        .build();
    let req_bytes = req.to_wire_bytes();
    group.bench_function("encode_request", |b| {
        b.iter(|| black_box(&req).to_wire_bytes());
    });
    group.bench_function("decode_request", |b| {
        b.iter(|| wire::decode_request(black_box(&req_bytes)).expect("valid"));
    });

    let resp = Response::builder(StatusCode::OK)
        .header("Content-Type", "application/octet-stream")
        .sized_body(vec![0u8; 1024 * 1024])
        .build();
    group.throughput(Throughput::Bytes(resp.wire_len()));
    group.bench_function("encode_response_1mb", |b| {
        b.iter(|| black_box(&resp).to_wire_bytes());
    });
    group.finish();
}

/// `Cache::get` on the least-recently-used key of a full 4096-entry cache.
/// Keys are looked up in insertion order, so each hit refreshes the
/// current LRU key and leaves the next one at the LRU end.
fn bench_cache_hit(c: &mut Criterion) {
    let capacity = Cache::DEFAULT_MAX_ENTRIES;
    let cache = Cache::with_capacity(capacity);
    let paths: Vec<String> = (0..capacity).map(|i| format!("/obj/{i}.bin")).collect();
    let keys: Vec<CacheKey<'_>> = paths
        .iter()
        .map(|path| CacheKey::new("victim.example", path, None))
        .collect();
    for &key in &keys {
        let resp = Response::builder(StatusCode::OK)
            .header("Content-Type", "application/octet-stream")
            .header("ETag", "\"bench\"")
            .sized_body(vec![0u8; 1024])
            .build();
        cache.put(key, resp, 0);
    }
    let mut next = 0;
    c.bench_function("cache_hit_4096", |b| {
        b.iter(|| {
            let key = keys[next];
            next = (next + 1) % capacity;
            cache.get(black_box(key), 0).expect("cached")
        });
    });
}

/// `EdgeNode::handle` for a 64-byte range of a cached 1 MB object on an
/// Akamai edge: cache lookup, `serve_from_full`, and the vendor's
/// standing headers, as on every `edge_hot` request.
fn bench_edge_hit(c: &mut Criterion) {
    let bed = Testbed::builder()
        .vendor(Vendor::Akamai)
        .resource(TARGET_PATH, 1024 * 1024)
        .build();
    bed.request(
        &Request::get(TARGET_PATH)
            .header("Host", TARGET_HOST)
            .build(),
    );
    let req = Request::get(TARGET_PATH)
        .header("Host", TARGET_HOST)
        .header("Range", "bytes=0-63")
        .build();
    let edge = bed.edge();
    c.bench_function("edge_hit", |b| {
        b.iter(|| edge.handle(black_box(&req)));
    });
}

criterion_group!(
    benches,
    bench_range_parsing,
    bench_coalesce,
    bench_multipart_build,
    bench_wire_round_trip,
    bench_cache_hit,
    bench_edge_hit
);
criterion_main!(benches);
