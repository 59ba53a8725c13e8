//! The common error type shared by all Guillotine crates.

use crate::ids::{CoreId, PortId};
use std::fmt;

/// Convenient result alias used across the workspace.
pub type Result<T> = std::result::Result<T, GuillotineError>;

/// Errors surfaced by any layer of the Guillotine stack.
///
/// The variants are deliberately coarse-grained: they describe *which
/// isolation rule was violated or which subsystem failed*, which is what the
/// audit log, the misbehavior detector and the experiments care about.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GuillotineError {
    /// A memory access violated MMU permissions (e.g. a model attempted to
    /// write to an executable page after lockdown).
    MemoryFault {
        /// Virtual or physical address of the offending access.
        addr: u64,
        /// Human-readable reason for the fault.
        reason: String,
    },
    /// A guest instruction could not be decoded or executed.
    IllegalInstruction {
        /// Program counter of the offending instruction.
        pc: u64,
        /// Raw instruction word.
        word: u32,
        /// Human-readable reason.
        reason: String,
    },
    /// An operation targeted a core that does not exist or is of the wrong
    /// kind (e.g. a management-bus operation aimed at a hypervisor core).
    InvalidCore {
        /// The offending core id.
        core: CoreId,
        /// Human-readable reason.
        reason: String,
    },
    /// An operation was attempted on a core in the wrong power/run state
    /// (e.g. inspecting a running core without pausing it first).
    InvalidCoreState {
        /// The offending core id.
        core: CoreId,
        /// Human-readable reason.
        reason: String,
    },
    /// A port operation failed (unknown port, revoked capability, port type
    /// mismatch, queue full, ...).
    PortError {
        /// The offending port, if known.
        port: Option<PortId>,
        /// Human-readable reason.
        reason: String,
    },
    /// The requested isolation-level transition is not allowed by the
    /// physical hypervisor's rules (ratchet violations, missing quorum,
    /// irreversible-state violations).
    IsolationViolation {
        /// Human-readable reason.
        reason: String,
    },
    /// Quorum voting failed to reach the required threshold.
    QuorumNotReached {
        /// Votes in favour.
        approvals: u32,
        /// Votes required.
        required: u32,
    },
    /// An attestation or certificate check failed.
    AttestationFailure {
        /// Human-readable reason.
        reason: String,
    },
    /// A network-level failure (no route, connection refused, handshake
    /// rejected, link severed).
    NetworkError {
        /// Human-readable reason.
        reason: String,
    },
    /// A policy/regulatory compliance violation.
    PolicyViolation {
        /// Human-readable reason.
        reason: String,
    },
    /// A runtime assertion inside the software hypervisor failed; per §3.3
    /// the hypervisor must reboot into offline isolation.
    RuntimeAssertion {
        /// Human-readable description of the failed assertion.
        reason: String,
    },
    /// The hardware reported a machine-check style fault.
    MachineCheck {
        /// Human-readable reason.
        reason: String,
    },
    /// Tamper-evident enclosure reported physical interference.
    TamperDetected {
        /// Human-readable reason.
        reason: String,
    },
    /// A configuration or API-usage error by the caller.
    Config {
        /// Human-readable reason.
        reason: String,
    },
    /// The component is permanently destroyed (decapitated or immolated) and
    /// cannot service the request.
    Destroyed {
        /// Human-readable reason.
        reason: String,
    },
}

impl GuillotineError {
    /// Builds a [`GuillotineError::Config`] from anything printable.
    pub fn config(reason: impl fmt::Display) -> Self {
        GuillotineError::Config {
            reason: reason.to_string(),
        }
    }

    /// Builds a [`GuillotineError::PortError`] without a specific port id.
    pub fn port(reason: impl fmt::Display) -> Self {
        GuillotineError::PortError {
            port: None,
            reason: reason.to_string(),
        }
    }

    /// Builds a [`GuillotineError::IsolationViolation`].
    pub fn isolation(reason: impl fmt::Display) -> Self {
        GuillotineError::IsolationViolation {
            reason: reason.to_string(),
        }
    }

    /// Builds a [`GuillotineError::RuntimeAssertion`] from anything
    /// printable — the serve path returns this instead of panicking when an
    /// internal invariant breaks, so one bad batch fails closed rather than
    /// taking the worker thread (and any mutex it holds) down with it.
    pub fn runtime_assertion(reason: impl fmt::Display) -> Self {
        GuillotineError::RuntimeAssertion {
            reason: reason.to_string(),
        }
    }

    /// Returns true if this error denotes a *security-relevant* event that
    /// the misbehavior detector should be informed about (as opposed to a
    /// plain configuration or capacity error).
    pub fn is_security_relevant(&self) -> bool {
        !matches!(
            self,
            GuillotineError::Config { .. } | GuillotineError::NetworkError { .. }
        )
    }
}

impl fmt::Display for GuillotineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GuillotineError::MemoryFault { addr, reason } => {
                write!(f, "memory fault at {addr:#x}: {reason}")
            }
            GuillotineError::IllegalInstruction { pc, word, reason } => {
                write!(
                    f,
                    "illegal instruction {word:#010x} at pc {pc:#x}: {reason}"
                )
            }
            GuillotineError::InvalidCore { core, reason } => {
                write!(f, "invalid core {core}: {reason}")
            }
            GuillotineError::InvalidCoreState { core, reason } => {
                write!(f, "invalid state for core {core}: {reason}")
            }
            GuillotineError::PortError { port, reason } => match port {
                Some(p) => write!(f, "port error on {p}: {reason}"),
                None => write!(f, "port error: {reason}"),
            },
            GuillotineError::IsolationViolation { reason } => {
                write!(f, "isolation violation: {reason}")
            }
            GuillotineError::QuorumNotReached {
                approvals,
                required,
            } => write!(
                f,
                "quorum not reached: {approvals} approvals, {required} required"
            ),
            GuillotineError::AttestationFailure { reason } => {
                write!(f, "attestation failure: {reason}")
            }
            GuillotineError::NetworkError { reason } => write!(f, "network error: {reason}"),
            GuillotineError::PolicyViolation { reason } => write!(f, "policy violation: {reason}"),
            GuillotineError::RuntimeAssertion { reason } => {
                write!(f, "hypervisor runtime assertion failed: {reason}")
            }
            GuillotineError::MachineCheck { reason } => write!(f, "machine check: {reason}"),
            GuillotineError::TamperDetected { reason } => write!(f, "tamper detected: {reason}"),
            GuillotineError::Config { reason } => write!(f, "configuration error: {reason}"),
            GuillotineError::Destroyed { reason } => write!(f, "component destroyed: {reason}"),
        }
    }
}

impl std::error::Error for GuillotineError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = GuillotineError::MemoryFault {
            addr: 0x1000,
            reason: "write to executable page".into(),
        };
        let s = e.to_string();
        assert!(s.contains("0x1000"));
        assert!(s.contains("executable"));
    }

    #[test]
    fn security_relevance_classification() {
        assert!(GuillotineError::isolation("x").is_security_relevant());
        assert!(!GuillotineError::config("x").is_security_relevant());
        assert!(GuillotineError::TamperDetected {
            reason: "lid opened".into()
        }
        .is_security_relevant());
    }

    #[test]
    fn quorum_error_reports_counts() {
        let e = GuillotineError::QuorumNotReached {
            approvals: 3,
            required: 5,
        };
        assert!(e.to_string().contains("3 approvals"));
        assert!(e.to_string().contains("5 required"));
    }
}
