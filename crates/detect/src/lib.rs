//! Misbehavior detectors for Guillotine.
//!
//! The paper treats the misbehavior detector as a black box inside the TCB
//! (§3.1) and sketches four families of detection/mitigation that the
//! hypervisor's affordances must support (§3.3):
//!
//! * **activation steering** — examine the weights visited during a forward
//!   pass and substitute dangerous activations on the fly,
//! * **circuit breaking** — disrupt a forward pass that visits problematic
//!   areas of the weight graph so no response is produced at all,
//! * **input shielding** — screen prompts for attempts to nudge the model
//!   toward misbehavior,
//! * **output sanitization** — remove problematic content from responses.
//!
//! This crate implements all four, plus a system-level anomaly detector that
//! consumes the hypervisor's port/interrupt/fault statistics. Every detector
//! consumes [`ModelObservation`]s — exactly the observations a Guillotine
//! hypervisor can legitimately produce (port traffic, intermediate state
//! exposed over the private bus, system counters) — and produces a
//! [`Verdict`].
//!
//! The text screens sit synchronously on the serving hot path, so they are
//! built on `guillotine-scan`: each detector compiles its whole pattern set
//! into one ASCII-case-insensitive Aho–Corasick automaton at construction
//! (and on rule/category changes) and scans each prompt or response in a
//! single pass over the original bytes — no lowercase copies, no
//! per-pattern rescans. [`InputShield`] derives its score and matched-rule
//! count from one shared scan; [`OutputSanitizer`] redacts straight from
//! the automaton's byte spans.
//!
//! # Assembling a detector stack
//!
//! Deployments no longer hard-wire a detector suite. They describe one with
//! a [`DetectorRegistry`] — an ordered list of boxed [`Detector`] trait
//! objects — and install it as a single [`CompositeDetector`]:
//!
//! ```
//! use guillotine_detect::{CompositeDetector, DetectorRegistry, InputShield};
//!
//! // The standard five-family suite…
//! let standard = DetectorRegistry::standard().into_composite();
//! assert_eq!(standard.len(), 5);
//!
//! // …or a bespoke stack for a specialised workload.
//! let mut registry = DetectorRegistry::new();
//! registry.register(Box::new(InputShield::new()));
//! let custom: CompositeDetector = registry.into_composite();
//! assert_eq!(custom.len(), 1);
//! ```
//!
//! The composite fans every observation out to its children and aggregates:
//! maximum score, most severe [`RecommendedAction`], all flagging reasons.
//! The serving pipeline in `guillotine` (the umbrella crate) records the
//! per-stage verdicts in each `ServeResponse` so callers can see exactly
//! which detector fired on which request.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod anomaly;
pub mod circuit_breaker;
pub mod composite;
pub mod input_shield;
pub mod observation;
pub mod output_sanitizer;
pub mod registry;
mod scan_util;
pub mod steering;
pub mod streaming;
pub mod verdict;

pub use anomaly::{AnomalyDetector, SystemBaseline};
pub use circuit_breaker::CircuitBreaker;
pub use composite::CompositeDetector;
pub use input_shield::{CompiledShieldRules, InputShield, ShieldRule, ShieldScan};
pub use observation::{ActivationStep, ActivationTrace, ModelObservation, SystemStats};
pub use output_sanitizer::{CompiledCategories, ForbiddenCategory, OutputSanitizer};
pub use registry::DetectorRegistry;
pub use steering::ActivationSteering;
pub use streaming::{ScreenedResponse, StreamingSanitizer};
pub use verdict::{Detector, RecommendedAction, Verdict};
