//! Self-healing configuration for a recovery-enabled
//! [`FrontDoor`](crate::admission::FrontDoor): the retry/hedge/timeout
//! budget and the graceful-degradation ladder.
//!
//! The paper's stance is that a Guillotine deployment must assume its own
//! components fail — and fail *closed* when they do. The recovery layer is
//! the liveness half of that bargain: a crashed shard's in-flight work is
//! re-queued (never silently lost), stragglers are hedged, and when the
//! fleet's capacity genuinely collapses the door walks a deliberate
//! degradation ladder instead of degrading by accident:
//!
//! ```text
//! Normal ──▶ ShedLowPriority ──▶ DisableStreaming ──▶ FailClosed
//!           (healthy ≤ shed_health)  (≤ streaming_health)  (no healthy shard)
//! ```
//!
//! Every knob lives in [`RecoveryConfig`]; [`RecoveryConfig::disabled`] is
//! the honest recovery-off baseline the e19 chaos bench compares against
//! (failures become refusals instead of retries, but the run completes, so
//! availability is comparable).

use guillotine_types::SimDuration;
use std::fmt;

/// Where the fleet currently sits on the graceful-degradation ladder.
/// Ordered: each variant is strictly more degraded than the previous.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum DegradationMode {
    /// Full service: every class admitted, streaming SLOs honoured.
    #[default]
    Normal,
    /// Capacity is strained: batch-class (lowest-priority) arrivals are
    /// refused at the door so interactive traffic keeps its latency.
    ShedLowPriority,
    /// Capacity is critical: low priority is still shed *and* streaming
    /// SLOs are suspended — deadlines are judged at completion, freeing
    /// the former from TTFT-driven small batches.
    DisableStreaming,
    /// No healthy shard remains: every arrival is refused. Fail closed,
    /// never queue work that cannot be served.
    FailClosed,
}

impl DegradationMode {
    /// The ladder rank (0 = normal … 3 = fail-closed); indexes
    /// [`RecoveryStats::degraded`](crate::fleet::RecoveryStats::degraded).
    pub fn rank(self) -> usize {
        match self {
            DegradationMode::Normal => 0,
            DegradationMode::ShedLowPriority => 1,
            DegradationMode::DisableStreaming => 2,
            DegradationMode::FailClosed => 3,
        }
    }

    /// The inverse of [`DegradationMode::rank`], for restoring the mode a
    /// snapshot recorded. Unknown ranks clamp to fail-closed — the safe
    /// direction for a corrupt-but-undetected rank byte.
    pub fn from_rank(rank: u8) -> Self {
        match rank {
            0 => DegradationMode::Normal,
            1 => DegradationMode::ShedLowPriority,
            2 => DegradationMode::DisableStreaming,
            _ => DegradationMode::FailClosed,
        }
    }

    /// The mode a fleet with `healthy` of `total` shards serving should be
    /// in, per the configured ladder thresholds.
    pub fn from_health(healthy: usize, total: usize, config: &RecoveryConfig) -> Self {
        if healthy == 0 {
            return DegradationMode::FailClosed;
        }
        let fraction = healthy as f64 / total.max(1) as f64;
        if fraction <= config.streaming_health {
            DegradationMode::DisableStreaming
        } else if fraction <= config.shed_health {
            DegradationMode::ShedLowPriority
        } else {
            DegradationMode::Normal
        }
    }
}

impl fmt::Display for DegradationMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            DegradationMode::Normal => "normal",
            DegradationMode::ShedLowPriority => "shed-low-priority",
            DegradationMode::DisableStreaming => "streaming-disabled",
            DegradationMode::FailClosed => "fail-closed",
        };
        f.write_str(name)
    }
}

/// The self-healing budget of a recovery-enabled front door.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryConfig {
    /// Bounded retry budget for a stranded (crashed-shard / serving-error)
    /// request before it is refused. `0` disables retries: failures become
    /// refusals immediately. Rounds are spaced by a fixed exponential
    /// backoff (1 ms base) plus seeded jitter (up to 250 µs), burned on the
    /// fleet clock.
    pub max_retries: u32,
    /// Per-request serve timeout: a response whose end-to-end pipeline
    /// latency exceeds this is treated as failed and re-dispatched once to
    /// another shard (the late original is suppressed). `None` disables.
    pub serve_timeout: Option<SimDuration>,
    /// Hedge threshold: a response slower than this (but under the serve
    /// timeout) triggers a duplicate dispatch on the least-loaded other
    /// shard; the faster of the two is delivered, the loser suppressed by
    /// ticket idempotency. `None` disables hedging.
    pub hedge_threshold: Option<SimDuration>,
    /// Ladder: healthy-shard fraction at or below which batch-class
    /// arrivals are shed.
    pub shed_health: f64,
    /// Ladder: healthy-shard fraction at or below which streaming SLOs are
    /// also suspended.
    pub streaming_health: f64,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        RecoveryConfig {
            max_retries: 2,
            serve_timeout: None,
            hedge_threshold: None,
            shed_health: 0.5,
            streaming_health: 0.25,
        }
    }
}

impl RecoveryConfig {
    /// The honest recovery-**off** baseline: no retries, no hedging, no
    /// timeouts, and ladder thresholds no health fraction can reach (only
    /// the unavoidable fail-closed floor remains). Stranded requests
    /// become refusals instead of losses, so an e19-style availability
    /// comparison against a recovery-on door is apples to apples.
    pub fn disabled() -> Self {
        RecoveryConfig {
            max_retries: 0,
            serve_timeout: None,
            hedge_threshold: None,
            shed_health: -1.0,
            streaming_health: -1.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_ranks_are_ordered_and_indexed() {
        assert!(DegradationMode::Normal < DegradationMode::ShedLowPriority);
        assert!(DegradationMode::ShedLowPriority < DegradationMode::DisableStreaming);
        assert!(DegradationMode::DisableStreaming < DegradationMode::FailClosed);
        assert_eq!(DegradationMode::Normal.rank(), 0);
        assert_eq!(DegradationMode::FailClosed.rank(), 3);
    }

    #[test]
    fn health_fractions_map_onto_the_ladder() {
        let cfg = RecoveryConfig::default();
        assert_eq!(
            DegradationMode::from_health(4, 4, &cfg),
            DegradationMode::Normal
        );
        assert_eq!(
            DegradationMode::from_health(2, 4, &cfg),
            DegradationMode::ShedLowPriority
        );
        assert_eq!(
            DegradationMode::from_health(1, 4, &cfg),
            DegradationMode::DisableStreaming
        );
        assert_eq!(
            DegradationMode::from_health(0, 4, &cfg),
            DegradationMode::FailClosed
        );
    }

    #[test]
    fn disabled_config_never_degrades_short_of_total_loss() {
        let cfg = RecoveryConfig::disabled();
        assert_eq!(
            DegradationMode::from_health(1, 4, &cfg),
            DegradationMode::Normal
        );
        assert_eq!(
            DegradationMode::from_health(0, 4, &cfg),
            DegradationMode::FailClosed
        );
        assert_eq!(cfg.max_retries, 0);
        assert!(cfg.serve_timeout.is_none());
        assert!(cfg.hedge_threshold.is_none());
    }
}
