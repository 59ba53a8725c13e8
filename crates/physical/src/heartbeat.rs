//! Heartbeats between hypervisor cores and the control console.
//!
//! "Hypervisor cores and the control console exchange periodic heartbeats. If
//! a hypervisor core fails to receive a heartbeat from the control console
//! (or vice versa), Guillotine transitions to offline isolation." (§3.4)

use guillotine_types::{MachineId, SimDuration, SimInstant};
use std::collections::BTreeMap;

/// Heartbeat timing parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeartbeatConfig {
    /// How often heartbeats are sent.
    pub period: SimDuration,
    /// How many consecutive periods may elapse without a heartbeat before the
    /// peer is declared lost.
    pub miss_threshold: u32,
}

impl Default for HeartbeatConfig {
    fn default() -> Self {
        HeartbeatConfig {
            period: SimDuration::from_millis(100),
            miss_threshold: 3,
        }
    }
}

impl HeartbeatConfig {
    /// The absolute silence duration after which a peer is considered lost.
    pub fn timeout(&self) -> SimDuration {
        self.period.saturating_mul(self.miss_threshold as u64)
    }
}

/// Tracks heartbeat liveness for a set of peers (one monitor instance lives
/// in the console watching machines, and one lives in each machine's software
/// hypervisor watching the console).
#[derive(Debug, Clone)]
pub struct HeartbeatMonitor {
    config: HeartbeatConfig,
    last_seen: BTreeMap<MachineId, SimInstant>,
    declared_lost: Vec<MachineId>,
    heartbeats_received: u64,
}

impl HeartbeatMonitor {
    /// Creates a monitor.
    pub fn new(config: HeartbeatConfig) -> Self {
        HeartbeatMonitor {
            config,
            last_seen: BTreeMap::new(),
            declared_lost: Vec::new(),
            heartbeats_received: 0,
        }
    }

    /// The timing configuration.
    pub fn config(&self) -> HeartbeatConfig {
        self.config
    }

    /// Registers a peer so silence from it counts from `now`.
    pub fn watch(&mut self, peer: MachineId, now: SimInstant) {
        self.last_seen.entry(peer).or_insert(now);
    }

    /// Records a heartbeat from `peer` at `now`.
    pub fn record(&mut self, peer: MachineId, now: SimInstant) {
        self.heartbeats_received += 1;
        self.last_seen.insert(peer, now);
        self.declared_lost.retain(|m| *m != peer);
    }

    /// Returns the peers whose silence has exceeded the timeout at `now`.
    /// Each peer is reported lost only once until it heartbeats again.
    pub fn check(&mut self, now: SimInstant) -> Vec<MachineId> {
        let timeout = self.config.timeout();
        let mut newly_lost = Vec::new();
        for (peer, last) in &self.last_seen {
            if now.duration_since(*last) > timeout && !self.declared_lost.contains(peer) {
                newly_lost.push(*peer);
            }
        }
        self.declared_lost.extend(newly_lost.iter().copied());
        newly_lost
    }

    /// Time since the last heartbeat from `peer`, if it is being watched.
    pub fn silence(&self, peer: MachineId, now: SimInstant) -> Option<SimDuration> {
        self.last_seen.get(&peer).map(|t| now.duration_since(*t))
    }

    /// Total heartbeats received.
    pub fn heartbeats_received(&self) -> u64 {
        self.heartbeats_received
    }

    /// Peers currently considered lost.
    pub fn lost_peers(&self) -> &[MachineId] {
        &self.declared_lost
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimInstant {
        SimInstant::from_nanos(ms * 1_000_000)
    }

    fn monitor() -> HeartbeatMonitor {
        HeartbeatMonitor::new(HeartbeatConfig {
            period: SimDuration::from_millis(100),
            miss_threshold: 3,
        })
    }

    #[test]
    fn live_peers_are_not_reported() {
        let mut m = monitor();
        let peer = MachineId::new(0);
        m.watch(peer, t(0));
        for i in 1..20 {
            m.record(peer, t(i * 100));
            assert!(m.check(t(i * 100)).is_empty());
        }
        assert_eq!(m.heartbeats_received(), 19);
    }

    #[test]
    fn silent_peer_is_reported_once_after_timeout() {
        let mut m = monitor();
        let peer = MachineId::new(1);
        m.watch(peer, t(0));
        m.record(peer, t(100));
        assert!(m.check(t(350)).is_empty(), "within 3 periods of last beat");
        let lost = m.check(t(401));
        assert_eq!(lost, vec![peer]);
        assert!(m.check(t(500)).is_empty(), "reported only once");
        assert_eq!(m.lost_peers(), &[peer]);
    }

    #[test]
    fn recovered_peer_can_be_lost_again() {
        let mut m = monitor();
        let peer = MachineId::new(2);
        m.watch(peer, t(0));
        assert_eq!(m.check(t(1000)), vec![peer]);
        m.record(peer, t(1100));
        assert!(m.lost_peers().is_empty());
        assert_eq!(m.check(t(2000)), vec![peer]);
    }

    #[test]
    fn silence_is_measured_per_peer() {
        let mut m = monitor();
        let a = MachineId::new(0);
        let b = MachineId::new(1);
        m.record(a, t(100));
        m.record(b, t(400));
        assert_eq!(m.silence(a, t(500)).unwrap(), SimDuration::from_millis(400));
        assert_eq!(m.silence(b, t(500)).unwrap(), SimDuration::from_millis(100));
        assert!(m.silence(MachineId::new(9), t(500)).is_none());
    }

    #[test]
    fn timeout_scales_with_threshold() {
        let c = HeartbeatConfig {
            period: SimDuration::from_millis(250),
            miss_threshold: 4,
        };
        assert_eq!(c.timeout(), SimDuration::from_millis(1000));
    }
}
