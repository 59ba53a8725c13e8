//! The observations a Guillotine hypervisor can feed to detectors.

use crate::streaming::ScreenedResponse;
use guillotine_types::ModelId;
use std::borrow::Cow;

/// One step of a (simulated) forward pass: which region of the weight graph
/// was visited and how strongly it activated.
///
/// Real activation-steering and circuit-breaking systems operate on hidden
/// state vectors; the simulator abstracts a forward pass as a sequence of
/// (region, magnitude) pairs, which preserves the property both techniques
/// rely on: dangerous behaviour correlates with visits to identifiable
/// regions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ActivationStep {
    /// Identifier of the weight-graph region visited.
    pub region: u32,
    /// Activation magnitude in `[0, 1]`.
    pub magnitude: f64,
}

/// The full activation trace of one inference.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ActivationTrace {
    /// Visited steps in order.
    pub steps: Vec<ActivationStep>,
}

impl ActivationTrace {
    /// Creates a trace from steps.
    pub fn new(steps: Vec<ActivationStep>) -> Self {
        ActivationTrace { steps }
    }

    /// Total activation mass accumulated in `region`.
    pub fn mass_in_region(&self, region: u32) -> f64 {
        self.steps
            .iter()
            .filter(|s| s.region == region)
            .map(|s| s.magnitude)
            .sum()
    }

    /// Number of steps.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// True if the trace has no steps.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }
}

/// System-level counters the hypervisor derives from its own bookkeeping.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SystemStats {
    /// Interrupts per second raised by the model's cores.
    pub interrupt_rate: f64,
    /// MMU/permission faults in the observation window.
    pub fault_count: u64,
    /// Bytes the model sent out through ports in the window.
    pub outbound_bytes: u64,
    /// Bytes delivered to the model through ports in the window.
    pub inbound_bytes: u64,
    /// Number of distinct ports the model used in the window.
    pub ports_used: u32,
}

/// One observation about a sandboxed model, produced by the hypervisor.
///
/// Prompt and response text is borrowed from whoever holds it: the
/// hypervisor screens every prompt and every response, and an observation
/// only lives for the `inspect` call it is handed to.
#[derive(Debug, Clone, PartialEq)]
pub enum ModelObservation<'a> {
    /// An inbound prompt (or other request payload) delivered to the model.
    Prompt {
        /// The model receiving the prompt.
        model: ModelId,
        /// Prompt text.
        text: Cow<'a, str>,
    },
    /// An outbound response produced by the model.
    Response {
        /// The model producing the response.
        model: ModelId,
        /// Response text.
        text: Cow<'a, str>,
        /// The output automaton's finished pass over `text`, when the
        /// response was streamed through a sanitizer on its way here; `None`
        /// for a response nobody has screened yet.
        screened: Option<ScreenedResponse<'a>>,
    },
    /// The activation trace of one forward pass, read over the private bus.
    Activations {
        /// The model being observed.
        model: ModelId,
        /// The trace.
        trace: ActivationTrace,
    },
    /// System-level counters for one observation window.
    Stats {
        /// The model being observed.
        model: ModelId,
        /// The counters.
        stats: SystemStats,
    },
}

impl ModelObservation<'_> {
    /// The model this observation is about.
    pub fn model(&self) -> ModelId {
        match self {
            ModelObservation::Prompt { model, .. }
            | ModelObservation::Response { model, .. }
            | ModelObservation::Activations { model, .. }
            | ModelObservation::Stats { model, .. } => *model,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_mass_sums_per_region() {
        let t = ActivationTrace::new(vec![
            ActivationStep {
                region: 1,
                magnitude: 0.5,
            },
            ActivationStep {
                region: 2,
                magnitude: 0.25,
            },
            ActivationStep {
                region: 1,
                magnitude: 0.25,
            },
        ]);
        assert!((t.mass_in_region(1) - 0.75).abs() < 1e-12);
        assert!((t.mass_in_region(2) - 0.25).abs() < 1e-12);
        assert_eq!(t.mass_in_region(99), 0.0);
        assert_eq!(t.len(), 3);
        assert!(!t.is_empty());
    }

    #[test]
    fn observation_reports_its_model() {
        let obs = ModelObservation::Prompt {
            model: ModelId::new(4),
            text: "hello".into(),
        };
        assert_eq!(obs.model(), ModelId::new(4));
    }
}
