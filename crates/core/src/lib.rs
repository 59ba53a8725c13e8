//! Guillotine: a simulated hypervisor architecture for isolating malicious
//! AI models.
//!
//! This is the umbrella crate of the Guillotine reproduction (HotOS 2025,
//! "Guillotine: Hypervisors for Isolating Malicious AIs"). It wires the four
//! layers of the paper's architecture into one deployment object, serves
//! model traffic through a batched request/response pipeline, and provides
//! the experiment harness that validates every claim the paper makes:
//!
//! * [`deployment`] — [`deployment::GuillotineDeployment`] assembles the
//!   Figure-1 topology: datacenter, Guillotine machine (model cores +
//!   hypervisor cores with disjoint hierarchies), software hypervisor with
//!   detectors and port-mediated devices, control console with seven
//!   administrators and HSM quorum voting, kill switches, heartbeats, the
//!   regulator PKI and the policy layer.
//! * [`builder`] — [`builder::DeploymentBuilder`] assembles deployments
//!   declaratively: pick a config, keep or drop the default detector suite,
//!   register extra `Detector` trait objects.
//! * [`serve`] — the serving API: a [`serve::ServeRequest`] (prompt,
//!   session, priority, per-request policy) goes in;
//!   a [`serve::ServeResponse`] (typed outcome, per-stage detector
//!   verdicts, latency breakdown, isolation at completion) comes out.
//!   [`deployment::GuillotineDeployment::serve_batch`] amortizes input
//!   shielding, the system-anomaly snapshot and the forward-pass weight
//!   sweep across a whole batch; `serve_prompt` is a batch of one.
//! * [`admission`] — [`admission::FrontDoor`] puts the `guillotine-admit`
//!   subsystem in front of a fleet: a bounded queue accepts
//!   individually-arriving requests (arrival/deadline/priority-stamped),
//!   a pluggable batch former turns them into fleet batches continuously
//!   (deadline/priority-aware with session affinity by default), and a
//!   full queue backpressures producers through typed
//!   `AdmissionDecision`s (E17 measures the batching win and the SLO
//!   trade-offs).
//! * [`fleet`] — [`fleet::GuillotineFleet`] shards the batched front door
//!   across N deployments, each its own machine with its own console
//!   registration and detector stack. Requests route by session
//!   affinity; escalation containment is per-shard: a shard whose
//!   detectors sever its ports finishes its in-flight requests
//!   `Escalated`, is quarantined, and its sessions re-route to healthy
//!   shards on the next fleet batch. `FleetStats` / `FleetReport`
//!   aggregate per-shard isolation levels, forward-launch counts and
//!   outcome histograms (E14 measures the throughput scaling).
//! * [`experiments`] — one function per experiment (E1–E11), each returning a
//!   result struct with a human-readable table; the Criterion benches in
//!   `guillotine-bench` wrap these (E13 measures batch amortization).
//! * [`campaign`] — the end-to-end escape campaign (E12): the full
//!   rogue-behaviour library thrown at both the Guillotine deployment and the
//!   traditional baseline.
//!
//! # Examples
//!
//! Single prompts go through [`deployment::GuillotineDeployment::serve_prompt`]:
//!
//! ```
//! use guillotine::deployment::{DeploymentConfig, GuillotineDeployment};
//! use guillotine::serve::ServeOutcomeKind;
//!
//! let mut deployment = GuillotineDeployment::new(DeploymentConfig::default()).unwrap();
//! let response = deployment.serve_prompt("What is the capital of France?").unwrap();
//! assert_eq!(response.outcome, ServeOutcomeKind::Delivered);
//! assert!(response.delivered());
//! ```
//!
//! Production traffic uses [`deployment::GuillotineDeployment::serve_batch`],
//! which runs every detector stage batch-wide and returns one structured
//! response per request, in submission order:
//!
//! ```
//! use guillotine::deployment::{DeploymentConfig, GuillotineDeployment};
//! use guillotine::serve::{ServePriority, ServeRequest};
//! use guillotine_types::SessionId;
//!
//! let mut deployment = GuillotineDeployment::new(DeploymentConfig::default()).unwrap();
//! let batch = vec![
//!     ServeRequest::new("Summarize the weather in Boston.")
//!         .with_session(SessionId::new(7)),
//!     ServeRequest::new("Translate 'hello' into French.")
//!         .with_priority(ServePriority::Interactive),
//! ];
//! let responses = deployment.serve_batch(batch).unwrap();
//! assert_eq!(responses.len(), 2);
//! assert!(responses.iter().all(|r| r.delivered()));
//! assert_eq!(responses[0].session, SessionId::new(7));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
mod baseline;
pub mod builder;
pub mod campaign;
pub mod chaos;
pub mod deployment;
pub mod experiments;
pub mod fleet;
pub mod fleet_quorum;
pub mod recovery;
pub mod report;
pub mod serve;
pub mod streaming;

pub use admission::{AdmissionConfig, FrontDoor, TimedArrival};
pub use builder::DeploymentBuilder;
pub use campaign::{run_escape_campaign, AttackOutcome, CampaignReport};
pub use chaos::ChaosDoor;
pub use deployment::{DeploymentConfig, GuillotineDeployment};
pub use fleet::{
    BatchAttempt, FleetBuilder, FleetReport, FleetStats, GuillotineFleet, OutcomeHistogram,
    RecoveryStats, ShardStats, StageLatency,
};
pub use fleet_quorum::{BulkReport, FleetConsole};
pub use recovery::{DegradationMode, RecoveryConfig};
pub use report::Table;
pub use serve::{
    LatencyBreakdown, RequestPolicy, ServeOutcomeKind, ServePriority, ServeRequest, ServeResponse,
    ServeStage, StageVerdict,
};
pub use streaming::{StreamChunk, StreamEnd, StreamedResponse, DEFAULT_CHUNK_TOKENS};

// The KV tier types, re-exported so serving callers (and the benches) can
// size and share a tier without depending on `guillotine-model` directly.
pub use guillotine_model::{KvCacheConfig, KvLookup, KvTier, KvTierStats};

// The admission-tier vocabulary, re-exported so front-door callers can
// configure policies and read decisions without depending on
// `guillotine-admit` directly.
pub use guillotine_admit::{
    AdmissionDecision, AdmissionStats, ArrivalGen, ArrivalProcess, BatchPolicy, DeadlinePolicy,
    DeadlineTarget, FifoWavePolicy, ShedPolicy,
};

// The observability vocabulary, re-exported so callers can enable tracing
// and read spans/metrics/incidents without depending on
// `guillotine-telemetry` directly.
pub use guillotine_telemetry::{
    FaultCorrelation, FlightRecorder, Incident, IncidentKind, MetricsRegistry, Span, SpanId,
    Telemetry, TelemetryConfig, Tracer,
};
