//! The upstream abstraction that lets edge nodes front an origin server
//! directly or another CDN (the cascaded FCDN → BCDN topology of Fig 3b),
//! plus the failure-aware wrappers the chaos campaigns compose in.

use std::fmt;
use std::sync::Arc;

use rangeamp_http::{Request, Response, StatusCode};
use rangeamp_net::{FaultKind, FaultPlan};
use rangeamp_origin::OriginServer;

/// How a back-to-origin exchange can fail before a usable response
/// reaches the edge.
///
/// Variants that interrupt a transfer mid-flight carry the response that
/// *was* being delivered plus how many wire bytes actually arrived, so
/// the edge can meter the partial traffic faithfully — the bytes still
/// crossed the origin's uplink even though the edge can't use them.
#[derive(Debug, Clone)]
pub enum UpstreamError {
    /// The upstream never answered within the (virtual) timeout budget.
    Timeout,
    /// The connection was reset mid-transfer.
    Reset {
        /// The response that was in flight.
        partial: Response,
        /// Wire bytes delivered before the reset.
        delivered: u64,
    },
    /// The response body ended early but cleanly.
    Truncated {
        /// The response that was in flight.
        partial: Response,
        /// Wire bytes delivered before the stream ended.
        delivered: u64,
    },
    /// The response arrived whole but is self-inconsistent (e.g. a
    /// `Content-Range` window that disagrees with the body length); the
    /// edge must not assemble client data from it.
    Malformed {
        /// What was wrong.
        detail: String,
    },
    /// The edge's circuit breaker is open: no fetch was attempted.
    CircuitOpen,
}

impl UpstreamError {
    /// Whether another attempt could plausibly succeed. Malformed
    /// responses and an open breaker fail fast.
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            UpstreamError::Timeout | UpstreamError::Reset { .. } | UpstreamError::Truncated { .. }
        )
    }
}

impl fmt::Display for UpstreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UpstreamError::Timeout => f.write_str("upstream timeout"),
            UpstreamError::Reset { delivered, .. } => {
                write!(f, "connection reset after {delivered} bytes")
            }
            UpstreamError::Truncated { delivered, .. } => {
                write!(f, "response truncated at {delivered} bytes")
            }
            UpstreamError::Malformed { detail } => {
                write!(f, "malformed upstream response: {detail}")
            }
            UpstreamError::CircuitOpen => f.write_str("circuit breaker open"),
        }
    }
}

/// Something an edge node can forward requests to: the origin server,
/// another edge node (cascading), or a measurement proxy.
pub trait UpstreamService: fmt::Debug + Send + Sync {
    /// Handles one forwarded request.
    ///
    /// # Errors
    ///
    /// Returns an [`UpstreamError`] when the exchange fails before a
    /// usable response reaches the edge (timeout, reset, truncation).
    /// Origin-side HTTP errors (404, 503, ...) are `Ok` responses — the
    /// wire exchange itself succeeded.
    fn handle(&self, req: &Request) -> Result<Response, UpstreamError>;

    /// Size in bytes of the representation at `path`, if known.
    ///
    /// Real CDNs learn representation sizes from cached metadata or prior
    /// responses; several of the paper's conditional behaviours (Azure's
    /// 8 MB window, Huawei's 10 MB threshold) key on it. Modelling the
    /// metadata channel as a size probe keeps the *byte traffic on the
    /// measured segments* identical to the mechanism the paper observed
    /// while avoiding an extra bookkeeping fetch.
    fn resource_size(&self, path: &str) -> Option<u64>;
}

impl UpstreamService for OriginServer {
    fn handle(&self, req: &Request) -> Result<Response, UpstreamError> {
        Ok(OriginServer::handle(self, req))
    }

    fn resource_size(&self, path: &str) -> Option<u64> {
        self.store().get(path).map(|r| r.len())
    }
}

impl<T: UpstreamService + ?Sized> UpstreamService for Arc<T> {
    fn handle(&self, req: &Request) -> Result<Response, UpstreamError> {
        (**self).handle(req)
    }

    fn resource_size(&self, path: &str) -> Option<u64> {
        (**self).resource_size(path)
    }
}

/// An upstream whose transfers fail on a seeded [`FaultPlan`] schedule.
///
/// Each successful inner exchange consumes one draw from the plan:
///
/// * no event — the response passes through untouched;
/// * `Origin5xx` — the payload is replaced by a small synthesized server
///   error (what a failing origin actually puts on the wire);
/// * `Timeout` — [`UpstreamError::Timeout`], nothing delivered;
/// * `ConnectionReset` / `Truncation` — the matching [`UpstreamError`],
///   carrying the in-flight response and the delivered byte count so the
///   edge meters the partial transfer;
/// * `SlowLink` — delivery succeeds (timing-only event, consumed by
///   flow-level simulations).
///
/// A healthy plan short-circuits without advancing its RNG, so wrapping
/// an upstream with `FaultyUpstream::new(inner, FaultPlan::healthy())`
/// is byte-for-byte identical to the bare upstream.
#[derive(Debug)]
pub struct FaultyUpstream {
    inner: Arc<dyn UpstreamService>,
    plan: Arc<FaultPlan>,
}

impl FaultyUpstream {
    /// Wraps `inner` with the given fault schedule.
    pub fn new(inner: Arc<dyn UpstreamService>, plan: Arc<FaultPlan>) -> FaultyUpstream {
        FaultyUpstream { inner, plan }
    }

    /// The fault schedule in force.
    pub fn plan(&self) -> &Arc<FaultPlan> {
        &self.plan
    }
}

impl UpstreamService for FaultyUpstream {
    fn handle(&self, req: &Request) -> Result<Response, UpstreamError> {
        let resp = self.inner.handle(req)?;
        let Some(event) = self.plan.next_for_transfer(resp.wire_len()) else {
            return Ok(resp);
        };
        match event.kind {
            FaultKind::Origin5xx { status } => {
                let status = StatusCode::new(status).unwrap_or(StatusCode::INTERNAL_SERVER_ERROR);
                Ok(Response::builder(status)
                    .header("Date", crate::assemble::CDN_DATE)
                    .header("Content-Type", "text/html")
                    .sized_body(
                        format!(
                            "<html><body><h1>{} {}</h1></body></html>",
                            status.as_u16(),
                            status.reason_phrase()
                        )
                        .into_bytes(),
                    )
                    .build())
            }
            FaultKind::Timeout => Err(UpstreamError::Timeout),
            FaultKind::ConnectionReset { after_bytes } => Err(UpstreamError::Reset {
                delivered: after_bytes.min(resp.wire_len()),
                partial: resp,
            }),
            FaultKind::Truncation { keep_bytes } => Err(UpstreamError::Truncated {
                delivered: keep_bytes.min(resp.wire_len()),
                partial: resp,
            }),
            FaultKind::SlowLink { .. } => Ok(resp),
        }
    }

    fn resource_size(&self, path: &str) -> Option<u64> {
        self.inner.resource_size(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rangeamp_net::{FaultRates, SharedClock};
    use rangeamp_origin::ResourceStore;

    fn origin() -> OriginServer {
        let mut store = ResourceStore::new();
        store.add_synthetic("/f.bin", 1234, "application/octet-stream");
        OriginServer::new(store)
    }

    #[test]
    fn origin_server_is_an_upstream() {
        let origin = origin();
        let req = Request::get("/f.bin").build();
        let resp = UpstreamService::handle(&origin, &req).unwrap();
        assert_eq!(resp.status(), StatusCode::OK);
        assert_eq!(origin.resource_size("/f.bin"), Some(1234));
        assert_eq!(origin.resource_size("/missing"), None);
    }

    #[test]
    fn arc_delegates() {
        let origin = Arc::new(origin());
        assert_eq!(origin.resource_size("/f.bin"), Some(1234));
        let req = Request::get("/f.bin").build();
        assert_eq!(
            UpstreamService::handle(&origin, &req).unwrap().status(),
            StatusCode::OK
        );
    }

    #[test]
    fn healthy_faulty_upstream_is_transparent() {
        let bare = Arc::new(origin());
        let wrapped = FaultyUpstream::new(bare.clone(), Arc::new(FaultPlan::healthy()));
        let req = Request::get("/f.bin").build();
        let direct = bare.handle(&req).unwrap();
        let via = wrapped.handle(&req).unwrap();
        assert_eq!(direct.wire_len(), via.wire_len());
        assert_eq!(wrapped.plan().transfers_seen(), 0, "no RNG draws");
    }

    #[test]
    fn all_faults_plan_always_fails() {
        let rates = FaultRates {
            timeout: 1.0,
            ..FaultRates::HEALTHY
        };
        let wrapped = FaultyUpstream::new(
            Arc::new(origin()),
            Arc::new(FaultPlan::with_rates(7, rates)),
        );
        let req = Request::get("/f.bin").build();
        for _ in 0..3 {
            assert!(matches!(wrapped.handle(&req), Err(UpstreamError::Timeout)));
        }
    }

    #[test]
    fn origin_5xx_fault_synthesizes_error_response() {
        let rates = FaultRates {
            origin_5xx: 1.0,
            ..FaultRates::HEALTHY
        };
        let wrapped = FaultyUpstream::new(
            Arc::new(origin()),
            Arc::new(FaultPlan::with_rates(1, rates)),
        );
        let req = Request::get("/f.bin").build();
        let resp = wrapped.handle(&req).unwrap();
        assert!(resp.status().as_u16() >= 500);
        assert!(resp.body().len() < 100, "small error page, not the payload");
    }

    #[test]
    fn reset_fault_carries_partial_delivery() {
        let rates = FaultRates {
            connection_reset: 1.0,
            ..FaultRates::HEALTHY
        };
        let wrapped = FaultyUpstream::new(
            Arc::new(origin()),
            Arc::new(FaultPlan::with_rates(3, rates)),
        );
        let req = Request::get("/f.bin").build();
        match wrapped.handle(&req) {
            Err(UpstreamError::Reset { partial, delivered }) => {
                assert!(delivered <= partial.wire_len());
            }
            other => panic!("expected a reset, got {other:?}"),
        }
    }

    #[test]
    fn clocked_origin_feeds_virtual_now() {
        use rangeamp_net::Telemetry;
        let tel = Telemetry::seeded(1);
        let clock = SharedClock::new();
        let clocked = Arc::new(origin().with_telemetry(tel.clone(), clock.clone()));
        let upstream: Arc<dyn UpstreamService> = clocked.clone();
        let req = Request::get("/f.bin").build();
        clock.advance_millis(1_250);
        let via = upstream.handle(&req).unwrap();
        assert_eq!(via, origin().handle(&req));
        clock.advance_millis(250);
        OriginServer::handle(&clocked, &req);
        let stamps: Vec<u64> = tel
            .tracer()
            .finished_spans()
            .iter()
            .map(|span| span.start_ms)
            .collect();
        assert_eq!(stamps, vec![1_250, 1_500], "upstream, then direct");
        assert_eq!(upstream.resource_size("/f.bin"), Some(1234));
    }

    #[test]
    fn error_display_and_retryability() {
        assert!(UpstreamError::Timeout.is_retryable());
        assert!(!UpstreamError::CircuitOpen.is_retryable());
        let malformed = UpstreamError::Malformed { detail: "x".into() };
        assert!(!malformed.is_retryable());
        assert_eq!(malformed.to_string(), "malformed upstream response: x");
        assert_eq!(UpstreamError::Timeout.to_string(), "upstream timeout");
    }
}
