//! End-to-end observability for the Guillotine fleet.
//!
//! One thing is live, the rest is derived from it:
//!
//! - [`Tracer`] — the span store: causal span trees on the simulated
//!   clock, correlated by [`TicketId`] across admission, routing, per-shard
//!   serve stages, streaming chunk rounds and recovery actions. Complete
//!   whenever telemetry is on; it is the only thing a recorded span is
//!   written to.
//! - [`FlightRecorder`] — incident dumps on tail events (escalation, sever,
//!   crash, deadline miss): each copies a bounded, optionally head-sampled
//!   window off the tail of the span store when it fires, with the WAL
//!   offset reached; the chaos fault it answers to is resolved when the
//!   dump is read. It holds fault and delay notes, and no spans of its own.
//! - [`MetricsRegistry`] — hierarchically named counters/gauges/histograms,
//!   serialized to a stable `METRICS.json` and a Prometheus-style text
//!   form. An export format, not a store: the fleet builds one on demand
//!   from its typed stats and one fold over the span store.
//!
//! [`Telemetry`] bundles the tracer and the recorder behind one enable
//! switch so the serving path pays a single branch when observability is
//! off.

mod recorder;
mod registry;
mod span;

use guillotine_types::{SimInstant, TicketId};
pub use recorder::{FaultCorrelation, FaultNote, FlightRecorder, Incident, IncidentKind};
pub use registry::{MetricsRegistry, METRICS_SCHEMA};
pub use span::{NewSpan, RawSpan, ShardTracer, Span, SpanId, Spans, Tracer};

/// Knobs for one telemetry instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TelemetryConfig {
    /// Master switch; everything is a no-op when false.
    pub enabled: bool,
    /// Most spans an incident dump carries: the flight recorder's window
    /// over the tail of the span store.
    pub ring_capacity: usize,
    /// Head-sampling modulus: an incident dump keeps spans of every k-th
    /// ticket (1 keeps all). The span store itself is never sampled.
    pub head_sample_every: u64,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            enabled: false,
            ring_capacity: 256,
            head_sample_every: 1,
        }
    }
}

impl TelemetryConfig {
    /// Everything on, no sampling — the configuration the observability
    /// bench measures overhead with.
    pub fn full() -> Self {
        TelemetryConfig {
            enabled: true,
            ..TelemetryConfig::default()
        }
    }
}

/// The facade the fleet owns: the span store and the flight recorder.
#[derive(Debug, Default)]
pub struct Telemetry {
    config: TelemetryConfig,
    tracer: Tracer,
    recorder: FlightRecorder,
}

impl Telemetry {
    /// Disabled telemetry: every record call is a cheap no-op.
    pub fn disabled() -> Self {
        Telemetry::default()
    }

    /// Telemetry with the given knobs.
    pub fn new(config: TelemetryConfig) -> Self {
        let mut recorder = FlightRecorder::new(config.ring_capacity);
        recorder.set_head_sampling(config.head_sample_every);
        Telemetry {
            config,
            tracer: if config.enabled {
                Tracer::enabled()
            } else {
                Tracer::disabled()
            },
            recorder,
        }
    }

    /// Whether recording is on.
    pub fn is_enabled(&self) -> bool {
        self.config.enabled
    }

    /// The active configuration.
    pub fn config(&self) -> TelemetryConfig {
        self.config
    }

    /// Records a span and returns its id; `None` when disabled.
    pub fn span(&mut self, new: NewSpan) -> Option<SpanId> {
        self.tracer.record(new)
    }

    /// Fires an incident dump: the trigger plus a copy of the last
    /// `ring_capacity` head-sampled spans recorded. A no-op when disabled.
    pub fn incident(
        &mut self,
        kind: IncidentKind,
        at: SimInstant,
        ticket: Option<TicketId>,
        shard: Option<usize>,
        wal_offset: u64,
        detail: String,
    ) {
        if !self.config.enabled {
            return;
        }
        let trigger = Incident {
            kind,
            at,
            ticket,
            shard,
            wal_offset,
            detail,
            spans: Vec::new(),
        };
        self.recorder.fire(&self.tracer, trigger);
    }

    /// The span store, for causal queries.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The flight recorder, for incident queries and dumps.
    pub fn recorder(&self) -> &FlightRecorder {
        &self.recorder
    }

    /// Mutable flight recorder, for fault and delay notes.
    pub fn recorder_mut(&mut self) -> &mut FlightRecorder {
        &mut self.recorder
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fire(t: &mut Telemetry) {
        t.incident(
            IncidentKind::DeadlineMiss,
            SimInstant::from_nanos(20),
            None,
            None,
            0,
            String::new(),
        );
    }

    #[test]
    fn disabled_telemetry_is_a_no_op() {
        let mut t = Telemetry::disabled();
        assert!(!t.is_enabled());
        let id = t.span(NewSpan {
            name: "request",
            ..NewSpan::default()
        });
        assert_eq!(id, None);
        assert!(t.tracer().is_empty());
        fire(&mut t);
        assert!(t.recorder().incidents().is_empty());
    }

    #[test]
    fn spans_reach_both_tracer_and_ring() {
        let mut t = Telemetry::new(TelemetryConfig::full());
        let root = t.span(NewSpan {
            name: "request",
            ticket: Some(TicketId::new(1)),
            start: SimInstant::from_nanos(0),
            end: SimInstant::from_nanos(10),
            ..NewSpan::default()
        });
        assert!(root.is_some());
        assert_eq!(t.tracer().len(), 1);
        fire(&mut t);
        let window = &t.recorder().incidents()[0].spans;
        assert_eq!(
            window.iter().map(|s| Some(s.id)).collect::<Vec<_>>(),
            [root]
        );
    }
}
