//! HTTP/1.1 substrate for the RangeAmp testbed.
//!
//! This crate implements everything the RangeAmp reproduction needs from
//! HTTP itself, from scratch:
//!
//! * an HTTP/1.1 message model ([`Request`], [`Response`]) with an ordered,
//!   case-insensitive [`HeaderMap`],
//! * exact wire-format serialization and parsing ([`wire`]) so traffic on a
//!   simulated connection can be metered in real bytes,
//! * the complete RFC 7233 `Range` / `Content-Range` grammar ([`range`]):
//!   parsing, emission, satisfiability against a representation length,
//!   overlap detection and coalescing,
//! * `multipart/byteranges` payload construction and parsing
//!   ([`multipart`]), and
//! * an ABNF-driven random generator of valid range requests
//!   ([`range::RangeRequestGenerator`]) used by the vulnerability scanner (paper §V-A,
//!   experiment 1).
//!
//! # Example
//!
//! ```
//! use rangeamp_http::{Request, Method};
//! use rangeamp_http::range::RangeHeader;
//!
//! # fn main() -> Result<(), rangeamp_http::Error> {
//! let req = Request::builder(Method::Get, "/10MB.bin")
//!     .header("Host", "victim.example")
//!     .header("Range", "bytes=0-0")
//!     .build();
//! let ranges = RangeHeader::parse("bytes=0-0")?;
//! assert_eq!(ranges.specs().len(), 1);
//! assert_eq!(req.wire_len(), req.to_wire_bytes().len() as u64);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod body;
mod conditional;
mod decimal;
mod error;
mod headers;
mod method;
mod request;
mod response;
mod status;
mod uri;
mod version;

pub mod h2frame;
pub mod multipart;
pub mod range;
pub mod wire;

pub use body::{Body, Chunks};
pub use conditional::IfRange;
pub use error::{Error, Result};
pub use headers::{
    HeaderIter, HeaderMap, HeaderName, HeaderValue, IntoHeaderName, IntoHeaderValue,
};
pub use method::Method;
pub use request::{Request, RequestBuilder};
pub use response::{Response, ResponseBuilder};
pub use status::StatusCode;
pub use uri::Uri;
pub use version::Version;
