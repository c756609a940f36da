//! Discrete-time max-min-fair flow-level bandwidth simulator.
//!
//! The paper's fourth experiment (Fig 7) measures the origin's outgoing
//! bandwidth while an attacker sends `m` SBR requests per second for 30
//! seconds: the origin's 1000 Mbps uplink is the shared bottleneck and the
//! per-request 10 MB back-to-origin transfers compete on it. Flow-level
//! simulation with max-min fair sharing (the classic fluid model of TCP
//! fair sharing at a single bottleneck) reproduces the saturation behaviour
//! without packet-level detail.
//!
//! # Example
//!
//! ```
//! use rangeamp_net::FlowSim;
//!
//! let mut sim = FlowSim::new(10);
//! let uplink = sim.add_link("origin-uplink", 1000.0);
//! // Two 100 MB transfers start at t=0 and share the link; together they
//! // demand 1600 Mbit/s, so the 1000 Mbps uplink saturates.
//! sim.schedule_flow(0, 100 * 1024 * 1024, &[uplink]);
//! sim.schedule_flow(0, 100 * 1024 * 1024, &[uplink]);
//! sim.run_until_millis(1_000);
//! let series = sim.link_throughput_mbps(uplink);
//! assert!(series[0] > 990.0);
//! ```

use std::collections::BTreeMap;

/// Identifies a link inside a [`FlowSim`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LinkId(usize);

/// Identifies a flow inside a [`FlowSim`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FlowId(usize);

#[derive(Debug)]
struct Link {
    label: String,
    capacity_bytes_per_sec: f64,
    /// Bytes delivered through this link, bucketed per virtual second.
    delivered_per_sec: BTreeMap<u64, f64>,
}

#[derive(Debug)]
struct Flow {
    start_ms: u64,
    remaining_bytes: f64,
    links: Vec<LinkId>,
    finished_at_ms: Option<u64>,
}

/// The simulator. See the [module docs](self) for the model.
#[derive(Debug)]
pub struct FlowSim {
    tick_ms: u64,
    now_ms: u64,
    links: Vec<Link>,
    flows: Vec<Flow>,
}

impl FlowSim {
    /// Creates a simulator advancing in `tick_ms`-millisecond steps.
    ///
    /// # Panics
    ///
    /// Panics if `tick_ms` is zero or larger than one second (the
    /// per-second reporting buckets assume sub-second ticks).
    pub fn new(tick_ms: u64) -> FlowSim {
        assert!(
            tick_ms > 0 && tick_ms <= 1000,
            "tick must be in 1..=1000 ms"
        );
        FlowSim {
            tick_ms,
            now_ms: 0,
            links: Vec::new(),
            flows: Vec::new(),
        }
    }

    /// Adds a link with the given capacity in megabits per second.
    pub fn add_link(&mut self, label: &str, capacity_mbps: f64) -> LinkId {
        let id = LinkId(self.links.len());
        self.links.push(Link {
            label: label.to_string(),
            capacity_bytes_per_sec: capacity_mbps * 1_000_000.0 / 8.0,
            delivered_per_sec: BTreeMap::new(),
        });
        id
    }

    /// Schedules a transfer of `bytes` over `links` starting at
    /// `start_ms` (virtual time).
    ///
    /// # Panics
    ///
    /// Panics if `links` is empty or refers to an unknown link.
    pub fn schedule_flow(&mut self, start_ms: u64, bytes: u64, links: &[LinkId]) -> FlowId {
        assert!(!links.is_empty(), "a flow must traverse at least one link");
        for link in links {
            assert!(link.0 < self.links.len(), "unknown link {link:?}");
        }
        let id = FlowId(self.flows.len());
        self.flows.push(Flow {
            start_ms,
            remaining_bytes: bytes as f64,
            links: links.to_vec(),
            finished_at_ms: None,
        });
        id
    }

    /// Current virtual time in milliseconds.
    pub fn now_millis(&self) -> u64 {
        self.now_ms
    }

    /// Advances the simulation until `end_ms` of virtual time.
    pub fn run_until_millis(&mut self, end_ms: u64) {
        while self.now_ms < end_ms {
            self.tick();
        }
    }

    /// Advances until every scheduled flow has finished or `max_ms` is
    /// reached, returning whether all flows drained.
    pub fn run_until_idle(&mut self, max_ms: u64) -> bool {
        while self.now_ms < max_ms {
            if self.flows.iter().all(|f| f.finished_at_ms.is_some()) {
                return true;
            }
            self.tick();
        }
        self.flows.iter().all(|f| f.finished_at_ms.is_some())
    }

    fn tick(&mut self) {
        let tick_secs = self.tick_ms as f64 / 1000.0;
        let active: Vec<usize> = self
            .flows
            .iter()
            .enumerate()
            .filter(|(_, f)| {
                f.finished_at_ms.is_none() && f.start_ms <= self.now_ms && f.remaining_bytes > 0.0
            })
            .map(|(i, _)| i)
            .collect();

        let rates = self.max_min_rates(&active);

        for (&flow_idx, &rate) in active.iter().zip(rates.iter()) {
            let flow = &mut self.flows[flow_idx];
            let delivered = (rate * tick_secs).min(flow.remaining_bytes);
            flow.remaining_bytes -= delivered;
            if flow.remaining_bytes <= f64::EPSILON {
                flow.remaining_bytes = 0.0;
                flow.finished_at_ms = Some(self.now_ms + self.tick_ms);
            }
            let second = self.now_ms / 1000;
            for link in flow.links.clone() {
                *self.links[link.0]
                    .delivered_per_sec
                    .entry(second)
                    .or_insert(0.0) += delivered;
            }
        }
        self.now_ms += self.tick_ms;
    }

    /// Progressive-filling max-min fair allocation for the given active
    /// flows; returns one rate (bytes/sec) per flow, aligned with `active`.
    fn max_min_rates(&self, active: &[usize]) -> Vec<f64> {
        let mut rates = vec![0.0f64; active.len()];
        if active.is_empty() {
            return rates;
        }
        let mut frozen = vec![false; active.len()];
        let mut cap_left: Vec<f64> = self
            .links
            .iter()
            .map(|l| l.capacity_bytes_per_sec)
            .collect();

        loop {
            // Count unfrozen flows per link.
            let mut users = vec![0usize; self.links.len()];
            for (slot, &flow_idx) in active.iter().enumerate() {
                if frozen[slot] {
                    continue;
                }
                for link in &self.flows[flow_idx].links {
                    users[link.0] += 1;
                }
            }
            // Find the bottleneck link: minimal fair share.
            let mut bottleneck: Option<(usize, f64)> = None;
            for (link_idx, &count) in users.iter().enumerate() {
                if count == 0 {
                    continue;
                }
                let share = cap_left[link_idx] / count as f64;
                if bottleneck.is_none_or(|(_, best)| share < best) {
                    bottleneck = Some((link_idx, share));
                }
            }
            let Some((bottleneck_link, share)) = bottleneck else {
                break; // every flow frozen
            };
            // Freeze flows crossing the bottleneck at the fair share.
            for (slot, &flow_idx) in active.iter().enumerate() {
                if frozen[slot] {
                    continue;
                }
                let flow = &self.flows[flow_idx];
                if flow.links.iter().any(|l| l.0 == bottleneck_link) {
                    frozen[slot] = true;
                    rates[slot] = share;
                    for link in &flow.links {
                        cap_left[link.0] -= share;
                    }
                }
            }
        }
        rates
    }

    /// Per-second throughput series for a link in Mbps, from second 0 to
    /// the last second that saw traffic (inclusive); empty if none did.
    pub fn link_throughput_mbps(&self, link: LinkId) -> Vec<f64> {
        let delivered = &self.links[link.0].delivered_per_sec;
        let Some((&last, _)) = delivered.iter().next_back() else {
            return Vec::new();
        };
        (0..=last)
            .map(|sec| delivered.get(&sec).copied().unwrap_or(0.0) * 8.0 / 1_000_000.0)
            .collect()
    }

    /// Human label of a link.
    pub fn link_label(&self, link: LinkId) -> &str {
        &self.links[link.0].label
    }

    /// Virtual completion time of a flow, if it finished.
    pub fn flow_finished_at_ms(&self, flow: FlowId) -> Option<u64> {
        self.flows[flow.0].finished_at_ms
    }

    /// Bytes still queued for a flow.
    pub fn flow_remaining_bytes(&self, flow: FlowId) -> u64 {
        self.flows[flow.0].remaining_bytes.round() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MB: u64 = 1024 * 1024;

    #[test]
    fn single_flow_runs_at_line_rate() {
        let mut sim = FlowSim::new(10);
        let link = sim.add_link("l", 800.0); // 100 MB/s
        let flow = sim.schedule_flow(0, 50 * 1_000_000, &[link]);
        assert!(sim.run_until_idle(10_000));
        // 50 MB at 100 MB/s finishes at ~0.5 s.
        let done = sim.flow_finished_at_ms(flow).unwrap();
        assert!((450..=600).contains(&done), "finished at {done} ms");
    }

    #[test]
    fn two_flows_share_fairly() {
        let mut sim = FlowSim::new(10);
        let link = sim.add_link("l", 80.0); // 10 MB/s
        let a = sim.schedule_flow(0, 10 * 1_000_000, &[link]);
        let b = sim.schedule_flow(0, 10 * 1_000_000, &[link]);
        assert!(sim.run_until_idle(60_000));
        // Each gets 5 MB/s → both finish near 2 s.
        let done_a = sim.flow_finished_at_ms(a).unwrap();
        let done_b = sim.flow_finished_at_ms(b).unwrap();
        assert!((1900..=2200).contains(&done_a), "{done_a}");
        assert_eq!(done_a, done_b);
    }

    #[test]
    fn bottleneck_caps_throughput_series() {
        let mut sim = FlowSim::new(10);
        let link = sim.add_link("uplink", 1000.0);
        for i in 0..40 {
            sim.schedule_flow(i * 50, 10 * MB, &[link]);
        }
        sim.run_until_millis(3_000);
        let series = sim.link_throughput_mbps(link);
        for (sec, mbps) in series.iter().enumerate() {
            assert!(*mbps <= 1000.5, "second {sec} exceeded capacity: {mbps}");
        }
        assert!(series[1] > 950.0, "link should saturate: {:?}", series);
    }

    #[test]
    fn max_min_respects_per_flow_bottleneck() {
        // Flow A crosses a 10 Mbps access link and the shared 1000 Mbps
        // uplink; flow B only the uplink. A must be capped at 10, B gets
        // the rest.
        let mut sim = FlowSim::new(10);
        let access = sim.add_link("access", 10.0);
        let uplink = sim.add_link("uplink", 1000.0);
        sim.schedule_flow(0, 100 * MB, &[access, uplink]);
        sim.schedule_flow(0, 200 * MB, &[uplink]);
        sim.run_until_millis(1_000);
        let access_series = sim.link_throughput_mbps(access);
        let uplink_series = sim.link_throughput_mbps(uplink);
        // A is capped by its 10 Mbps access link...
        assert!((access_series[0] - 10.0).abs() < 0.5, "{access_series:?}");
        // ...and B gets the rest: 10 + 990 for the whole first second
        // (B carries 200 MB, far more than 990 Mbps can drain in 1 s).
        assert!(uplink_series[0] > 995.0, "{uplink_series:?}");
    }

    #[test]
    fn flows_start_at_their_scheduled_time() {
        let mut sim = FlowSim::new(10);
        let link = sim.add_link("l", 80.0);
        let flow = sim.schedule_flow(5_000, 1_000_000, &[link]);
        sim.run_until_millis(4_000);
        assert_eq!(sim.flow_finished_at_ms(flow), None);
        assert_eq!(sim.flow_remaining_bytes(flow), 1_000_000);
        sim.run_until_millis(8_000);
        assert!(sim.flow_finished_at_ms(flow).is_some());
    }

    #[test]
    fn idle_link_has_empty_series() {
        let mut sim = FlowSim::new(100);
        let link = sim.add_link("l", 100.0);
        sim.run_until_millis(1_000);
        assert!(sim.link_throughput_mbps(link).is_empty());
    }

    #[test]
    #[should_panic]
    fn flow_requires_a_link() {
        let mut sim = FlowSim::new(10);
        sim.schedule_flow(0, 100, &[]);
    }

    #[test]
    fn labels_round_trip() {
        let mut sim = FlowSim::new(10);
        let link = sim.add_link("origin-uplink", 1.0);
        assert_eq!(sim.link_label(link), "origin-uplink");
    }
}
