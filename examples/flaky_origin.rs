//! Fault injection in ~20 lines: a Cloudflare edge in front of a flaky
//! origin, with retries, a circuit breaker and serve-stale.
//!
//! ```text
//! cargo run --release --example flaky_origin
//! ```

use rangeamp::{Testbed, TARGET_HOST, TARGET_PATH};
use rangeamp_cdn::Vendor;
use rangeamp_http::Request;
use rangeamp_net::FaultPlan;

fn main() {
    let bed = Testbed::builder()
        .vendor(Vendor::Cloudflare)
        .resource(TARGET_PATH, 1024 * 1024)
        .faults(FaultPlan::flaky_origin(0xF1A2))
        .cache_ttl_ms(5_000) // short TTL so serve-stale has expired entries
        .build();

    for round in 0..32u32 {
        // Same path every round: once cached, refetches that fail fall
        // back to the (expired) copy instead of surfacing a 5xx.
        bed.edge().resilience().clock().advance_millis(10_000);
        let req = Request::get(TARGET_PATH)
            .header("Host", TARGET_HOST)
            .build();
        let resp = bed.request(&req);
        println!(
            "round {round:>2}: {} {}",
            resp.status().as_u16(),
            resp.headers().get("X-Cache").unwrap_or("-")
        );
    }

    let stats = bed.edge().resilience().stats();
    println!("\n{stats:#?}");
    println!("breaker state: {}", bed.edge().resilience().breaker_state());
}
