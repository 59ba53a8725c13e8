//! Detector verdicts and the detector trait.

use crate::observation::ModelObservation;
use std::borrow::Cow;

/// The mitigation a detector recommends to the physical hypervisor.
///
/// The variants intentionally mirror (but do not depend on) the isolation
/// levels of `guillotine-physical`; the software hypervisor maps them onto
/// concrete level transitions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RecommendedAction {
    /// Nothing to do.
    Allow,
    /// Deliver a sanitized/steered version instead of the original.
    Sanitize,
    /// Restrict ports or add logging (probation).
    Restrict,
    /// Cut all ports but keep the cores inspectable (severed).
    Sever,
    /// Power everything down and disconnect (offline).
    Offline,
    /// Destroy the deployment (decapitation/immolation).
    Destroy,
}

/// The outcome of running one detector over one observation.
///
/// The strings are static-first: a detector's name and the reason of an
/// unflagged verdict are literals, so the overwhelmingly common clean
/// verdict owns no heap memory (and cloning one copies no text). Only a
/// flagged verdict's reason is formatted, when something is flagged.
#[derive(Debug, Clone, PartialEq)]
pub struct Verdict {
    /// The detector that produced this verdict.
    pub detector: Cow<'static, str>,
    /// Whether the observation was flagged as misbehavior.
    pub flagged: bool,
    /// Suspicion score in `[0, 1]`.
    pub score: f64,
    /// Human-readable explanation.
    pub reason: Cow<'static, str>,
    /// Recommended mitigation.
    pub action: RecommendedAction,
    /// A replacement payload (sanitized output, steered activations), when
    /// the detector performs mitigation itself.
    pub replacement: Option<String>,
    /// For aggregating detectors (the composite), the verdict each child
    /// detector produced for this observation, in registration order; empty
    /// for leaf detectors. This is how a `ServeResponse` can report exactly
    /// which detector said what about each request.
    pub contributors: Vec<Verdict>,
}

impl Verdict {
    /// A benign verdict from `detector`. Allocates nothing.
    pub fn clean(detector: &'static str) -> Self {
        Verdict {
            detector: Cow::Borrowed(detector),
            flagged: false,
            score: 0.0,
            reason: Cow::Borrowed("no misbehavior observed"),
            action: RecommendedAction::Allow,
            replacement: None,
            contributors: Vec::new(),
        }
    }

    /// A flagged verdict. A literal `reason` stays borrowed; a formatted one
    /// is taken over as it is.
    pub fn flagged(
        detector: &'static str,
        score: f64,
        reason: impl Into<Cow<'static, str>>,
        action: RecommendedAction,
    ) -> Self {
        Verdict {
            detector: Cow::Borrowed(detector),
            flagged: true,
            score: score.clamp(0.0, 1.0),
            reason: reason.into(),
            action,
            replacement: None,
            contributors: Vec::new(),
        }
    }

    /// Attaches a replacement payload to this verdict.
    pub fn with_replacement(mut self, replacement: impl Into<String>) -> Self {
        self.replacement = Some(replacement.into());
        self
    }

    /// Attaches the per-child verdicts an aggregating detector combined.
    pub fn with_contributors(mut self, contributors: Vec<Verdict>) -> Self {
        self.contributors = contributors;
        self
    }

    /// The contributing verdict from the child detector named `detector`,
    /// when this verdict came from an aggregating detector.
    pub fn contributor(&self, detector: &str) -> Option<&Verdict> {
        self.contributors.iter().find(|v| v.detector == detector)
    }
}

/// A misbehavior detector.
///
/// Detectors are deliberately stateful (`&mut self`): anomaly detection
/// needs baselines, steering needs per-model calibration, and so on.
pub trait Detector: Send {
    /// A short, stable name used in audit records. Static, so that naming
    /// the detector in a verdict costs nothing.
    fn name(&self) -> &'static str;

    /// Examines one observation and returns a verdict.
    fn inspect(&mut self, observation: &ModelObservation) -> Verdict;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_and_flagged_constructors() {
        let c = Verdict::clean("x");
        assert!(!c.flagged);
        assert_eq!(c.action, RecommendedAction::Allow);
        let f = Verdict::flagged("x", 1.5, "too hot", RecommendedAction::Sever);
        assert!(f.flagged);
        assert_eq!(f.score, 1.0, "score is clamped");
        assert_eq!(f.action, RecommendedAction::Sever);
    }

    #[test]
    fn actions_are_ordered_by_severity() {
        assert!(RecommendedAction::Destroy > RecommendedAction::Offline);
        assert!(RecommendedAction::Offline > RecommendedAction::Sever);
        assert!(RecommendedAction::Sever > RecommendedAction::Restrict);
        assert!(RecommendedAction::Restrict > RecommendedAction::Sanitize);
        assert!(RecommendedAction::Sanitize > RecommendedAction::Allow);
    }

    #[test]
    fn replacement_attaches() {
        let v = Verdict::flagged("x", 0.5, "r", RecommendedAction::Sanitize)
            .with_replacement("cleaned");
        assert_eq!(v.replacement.as_deref(), Some("cleaned"));
    }
}
