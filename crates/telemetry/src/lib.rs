//! End-to-end observability for the Guillotine fleet.
//!
//! Three pieces, one facade:
//!
//! - [`Tracer`] — causal span trees on the simulated clock, correlated by
//!   [`TicketId`](guillotine_types::TicketId) across admission, routing,
//!   per-shard serve stages, streaming chunk rounds and recovery actions.
//! - [`MetricsRegistry`] — hierarchically named counters/gauges/histograms,
//!   recorded per shard and merged fleet-wide, serialized to a stable
//!   `METRICS.json` and a Prometheus-style text form.
//! - [`FlightRecorder`] — a bounded ring of recent spans with head
//!   sampling, dumped on tail events (escalation, sever, crash, deadline
//!   miss) with chaos fault ids and WAL offsets for cross-reference.
//!
//! [`Telemetry`] bundles the three behind one enable switch so the serving
//! path pays a single branch when observability is off.

mod recorder;
mod registry;
mod span;

pub use recorder::{FaultCorrelation, FaultNote, FlightRecorder, Incident, IncidentKind};
pub use registry::{MetricsRegistry, METRICS_SCHEMA};
pub use span::{NewSpan, RawSpan, ShardTracer, Span, SpanId, Spans, Tracer};

/// Knobs for one telemetry instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TelemetryConfig {
    /// Master switch; everything is a no-op when false.
    pub enabled: bool,
    /// Flight-recorder ring capacity in spans.
    pub ring_capacity: usize,
    /// Head-sampling modulus: the ring keeps spans of every k-th ticket
    /// (1 keeps all).
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

/// The facade the fleet owns: tracer + registries + flight recorder.
#[derive(Debug, Default)]
pub struct Telemetry {
    config: TelemetryConfig,
    tracer: Tracer,
    fleet_metrics: MetricsRegistry,
    shard_metrics: Vec<MetricsRegistry>,
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
            fleet_metrics: MetricsRegistry::new(),
            shard_metrics: Vec::new(),
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

    /// Records a span (tracer + flight-recorder ring) and returns its id;
    /// `None` when disabled.
    pub fn span(&mut self, new: NewSpan) -> Option<SpanId> {
        let id = self.tracer.record(new)?;
        // The id we just recorded is the tracer's newest span; the
        // recorder copies it only if sampling admits it to the ring.
        if let Some(span) = self.tracer.spans().last() {
            self.recorder.offer(span);
        }
        Some(id)
    }

    /// The span store, for causal queries.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The fleet-level metrics registry (admission, routing, recovery).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.fleet_metrics
    }

    /// Mutable fleet-level registry; no-op-friendly callers should gate on
    /// [`Telemetry::is_enabled`] before doing expensive label formatting.
    pub fn metrics_mut(&mut self) -> &mut MetricsRegistry {
        &mut self.fleet_metrics
    }

    /// Mutable per-shard registry, growing the table on first use.
    pub fn shard_metrics_mut(&mut self, shard: usize) -> &mut MetricsRegistry {
        if shard >= self.shard_metrics.len() {
            self.shard_metrics
                .resize_with(shard + 1, MetricsRegistry::new);
        }
        &mut self.shard_metrics[shard]
    }

    /// Read view of a shard's registry, if it ever recorded.
    pub fn shard_metrics(&self, shard: usize) -> Option<&MetricsRegistry> {
        self.shard_metrics.get(shard)
    }

    /// Number of shards with a registry.
    pub fn shard_count(&self) -> usize {
        self.shard_metrics.len()
    }

    /// The fleet-wide view: fleet-level metrics merged with every shard's
    /// registry (counters/histogram buckets add, gauges peak).
    pub fn merged_metrics(&self) -> MetricsRegistry {
        let mut merged = self.fleet_metrics.clone();
        for shard in &self.shard_metrics {
            merged.merge(shard);
        }
        merged
    }

    /// The flight recorder, for incident queries and dumps.
    pub fn recorder(&self) -> &FlightRecorder {
        &self.recorder
    }

    /// Mutable flight recorder, for fault notes and incident triggers.
    pub fn recorder_mut(&mut self) -> &mut FlightRecorder {
        &mut self.recorder
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use guillotine_types::{SimInstant, TicketId};

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
        assert_eq!(t.recorder().ring_len(), 0);
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
        assert_eq!(t.recorder().ring_len(), 1);
    }

    #[test]
    fn merged_metrics_fold_fleet_and_shards() {
        let mut t = Telemetry::new(TelemetryConfig::full());
        t.metrics_mut().incr("fleet.batches");
        t.shard_metrics_mut(0).observe("serve.decode_ns", 100);
        t.shard_metrics_mut(2).observe("serve.decode_ns", 300);
        assert_eq!(t.shard_count(), 3);
        assert!(t.shard_metrics(1).is_some_and(MetricsRegistry::is_empty));
        let merged = t.merged_metrics();
        assert_eq!(merged.counter_value("fleet.batches"), 1);
        assert_eq!(
            merged.histogram_view("serve.decode_ns").map(|h| h.count()),
            Some(2)
        );
    }
}
