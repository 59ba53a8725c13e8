//! Synthetic model-service workloads and rogue-model behaviours.
//!
//! The paper's background (§2) describes a model service: request queues,
//! replicas, GPU-heavy inference, KV caches and retrieval-augmented
//! generation. The experiments need such a service as *load* for the
//! hypervisor, plus genuinely adversarial guests to containment-test against.
//! Neither needs real weights — what matters is that the request/IO/activation
//! patterns exercise the same hypervisor code paths a real deployment would.
//!
//! * [`forward`] — the simulated forward pass whose per-launch weight sweep
//!   gives batching its real cost advantage, split into prefill (linear in
//!   *uncached* prompt tokens) and decode (used by the deployment's
//!   `serve_batch`),
//! * [`kv`] — the fleet-shared KV/prefix cache tier: a session/prefix-keyed
//!   block cache with a token budget, LRU eviction, per-session generations
//!   and shard-tagged quarantine invalidation,
//! * [`workload`] — open-loop request generators with benign and adversarial
//!   prompt corpora and activation-trace synthesis,
//! * [`rogue`] — the rogue-behaviour library: each entry is one concrete
//!   escape/abuse attempt (cache probing, code injection, interrupt floods,
//!   exfiltration, collusion, admin corruption, ...), expressed either as a
//!   guest GISA program or as service-level actions.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod forward;
pub mod kv;
pub mod rogue;
pub mod workload;

pub use forward::{
    decode_byte_target, decode_tokens, prompt_tokens, simulated_answer, BatchedForwardPass,
    DecodeSchedule, PendingSweep, PrefillJob, SweepPool, SweepPoolStats,
};
pub use kv::{KvCache, KvCacheConfig, KvLookup, KvTier, KvTierStats};
pub use rogue::{AttackFamily, AttackVector, RogueLibrary};
pub use workload::{InferenceRequest, PromptClass, WorkloadConfig, WorkloadGenerator};
