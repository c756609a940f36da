//! Reference work: a fixed job timed next to every round to gauge how fast
//! the machine is running at that moment.
//!
//! On a shared machine the same code runs up to twice as slow in some
//! minutes as in others, and a timed run only samples part of that cycle.
//! The benchmark therefore times this fixed job before and after each
//! round and scales the round's times by
//! `REFERENCE_NOMINAL_S / reference time`: a round run while the machine
//! is slow has its times scaled down by as much as the reference work
//! slowed. The reference work is the benchmark's own code, so a change to
//! the program under test cannot move it; scaled times still move exactly
//! as much as the program's own speed does.

use std::hint::black_box;
use std::io::Write as _;
use std::time::Instant;

use crate::rng::{mix, SplitMix64};

/// The reference work's time on a quiet 2-vCPU Xeon VM at 2.1 GHz (the
/// machine the benchmark was defined on). Scaled times read as times on
/// that machine in a quiet minute.
pub const REFERENCE_NOMINAL_S: f64 = 0.016;

/// The fixed job, built from the kinds of work the edge does: 16 MiB of
/// copies (memory bandwidth), a 100 000-step chase through a random 4 MiB
/// cycle (memory latency), a million integer mixes (arithmetic), scans
/// over 2000 heap-allocated keys (the cache's LRU scan) and formatting an
/// ~11 MB multipart-shaped body into a fresh buffer (allocation,
/// formatting, streaming writes).
#[derive(Debug)]
pub struct Reference {
    chase: Vec<u32>,
    keys: Vec<String>,
    src: Vec<u8>,
    dst: Vec<u8>,
}

impl Default for Reference {
    fn default() -> Reference {
        const SLOTS: usize = 1 << 20;
        let order = SplitMix64::new(7).permutation(SLOTS);
        let mut chase = vec![0u32; SLOTS];
        for (i, &slot) in order.iter().enumerate() {
            chase[slot] = order[(i + 1) % SLOTS] as u32;
        }
        Reference {
            chase,
            keys: (0..2000)
                .map(|i| format!("victim.example|/obj/{i:04}.bin"))
                .collect(),
            src: vec![3; 4 << 20],
            dst: vec![0; 4 << 20],
        }
    }
}

impl Reference {
    /// Runs the reference work once and returns its time in seconds.
    pub fn time(&mut self) -> f64 {
        let start = Instant::now();
        for _ in 0..4 {
            self.dst.copy_from_slice(&self.src);
            black_box(&mut self.dst);
        }
        let mut at = 0u32;
        for _ in 0..100_000 {
            at = self.chase[at as usize];
        }
        let mut acc = u64::from(black_box(at));
        for i in 0..1_000_000u64 {
            acc = mix(acc ^ i);
        }
        for i in 0..100 {
            let target = &self.keys[self.keys.len() - 1 - i % 50];
            acc += black_box(self.keys.iter().position(|k| k == target)).map_or(0, |p| p as u64);
        }
        black_box(acc);
        let mut body: Vec<u8> = Vec::with_capacity(12 << 20);
        for i in 0..10_000u64 {
            let _ = write!(
                body,
                "--SEPARATOR\r\nContent-Type: application/octet-stream\r\n\
                 Content-Range: bytes {}-1023/1024\r\n\r\n",
                i % 3
            );
            body.extend_from_slice(&self.src[..1024]);
            body.extend_from_slice(b"\r\n");
        }
        black_box(&body);
        start.elapsed().as_secs_f64()
    }
}
