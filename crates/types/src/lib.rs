//! Shared foundation types for the Guillotine hypervisor simulator.
//!
//! This crate contains the pieces that every other Guillotine crate builds
//! upon: a deterministic simulated clock, strongly-typed identifiers, the
//! common error type, the audit/event log, a deterministic random-number
//! helper and lightweight metrics containers.
//!
//! Nothing in this crate is specific to a single layer of the Guillotine
//! architecture; it is the vocabulary shared by the microarchitectural
//! hypervisor (`guillotine-hw`), the software hypervisor (`guillotine-hv`),
//! the physical hypervisor (`guillotine-physical`) and the policy hypervisor
//! (`guillotine-policy`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod encode;
pub mod error;
pub mod events;
pub mod ids;
pub mod metrics;
pub mod rng;

pub use clock::{SimClock, SimDuration, SimInstant};
pub use error::{GuillotineError, Result};
pub use events::{AuditEvent, AuditSeverity, EventKind, EventLog};
pub use ids::{
    AdminId, CertId, ConnectionId, CoreId, CoreKind, DeviceId, MachineId, ModelId, PortId,
    RequestId, SessionId, TicketId, WatchpointId,
};
pub use metrics::{Counter, Gauge, Histogram};
pub use rng::DetRng;
