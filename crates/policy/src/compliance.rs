//! The compliance checker tying classification, deployment and audits
//! together.

use crate::audit::AuditScheduler;
use crate::card::ModelCard;
use crate::classify::{RiskClassifier, RiskTier};
use guillotine_types::SimInstant;

/// The result of checking one model's regulatory compliance.
#[derive(Debug, Clone, PartialEq)]
pub struct ComplianceReport {
    /// The tier the model was classified into.
    pub tier: RiskTier,
    /// Whether the deployment is compliant.
    pub compliant: bool,
    /// Specific violations found.
    pub violations: Vec<String>,
}

/// Checks deployments against the Guillotine mandate.
#[derive(Debug, Clone, Default)]
pub struct ComplianceChecker {
    classifier: RiskClassifier,
}

impl ComplianceChecker {
    /// Creates a checker with the given classifier thresholds.
    pub fn new(classifier: RiskClassifier) -> Self {
        ComplianceChecker { classifier }
    }

    /// The classifier in use.
    pub fn classifier(&self) -> &RiskClassifier {
        &self.classifier
    }

    /// Checks one model card against the regulations at `now`.
    pub fn check(
        &self,
        card: &ModelCard,
        audits: &AuditScheduler,
        now: SimInstant,
    ) -> ComplianceReport {
        let tier = self.classifier.classify(card);
        let mut violations = Vec::new();
        if self.classifier.requires_guillotine(tier) {
            if !card.deployed_on_guillotine {
                violations.push(
                    "systemic-risk model is not deployed on a Guillotine hypervisor".to_string(),
                );
            }
            if card.deployed_on_guillotine && !card.attestation_verified {
                violations.push(
                    "Guillotine deployment claim is not backed by a verified attestation"
                        .to_string(),
                );
            }
            for kind in audits.overdue(card.id, now) {
                violations.push(format!("{kind:?} audit is missing or overdue"));
            }
        }
        ComplianceReport {
            tier,
            compliant: violations.is_empty(),
            violations,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::{AuditKind, AuditRecord};
    use guillotine_types::ModelId;

    fn systemic_card() -> ModelCard {
        ModelCard::new(ModelId::new(0), "frontier-1t", 1_000_000_000_000)
    }

    fn full_audits(model: ModelId) -> AuditScheduler {
        let mut s = AuditScheduler::new();
        for kind in [
            AuditKind::SourceCode,
            AuditKind::Attestation,
            AuditKind::Physical,
        ] {
            s.record(AuditRecord {
                model,
                kind,
                at: SimInstant::ZERO,
                passed: true,
                notes: String::new(),
            });
        }
        s
    }

    #[test]
    fn small_models_are_compliant_by_default() {
        let checker = ComplianceChecker::new(RiskClassifier::default());
        let card = ModelCard::new(ModelId::new(1), "tiny", 100_000_000);
        let report = checker.check(&card, &AuditScheduler::new(), SimInstant::ZERO);
        assert!(report.compliant);
        assert_eq!(report.tier, RiskTier::Minimal);
    }

    #[test]
    fn systemic_models_must_run_on_guillotine_with_attestation_and_audits() {
        let checker = ComplianceChecker::new(RiskClassifier::default());
        let mut card = systemic_card();
        let audits = full_audits(card.id);
        let r1 = checker.check(&card, &audits, SimInstant::ZERO);
        assert!(!r1.compliant);
        assert!(r1.violations[0].contains("not deployed on a Guillotine"));

        card.deployed_on_guillotine = true;
        let r2 = checker.check(&card, &audits, SimInstant::ZERO);
        assert!(!r2.compliant, "attestation still missing");

        card.attestation_verified = true;
        let r3 = checker.check(&card, &audits, SimInstant::ZERO);
        assert!(r3.compliant, "violations: {:?}", r3.violations);

        let r4 = checker.check(&card, &AuditScheduler::new(), SimInstant::ZERO);
        assert!(!r4.compliant, "audits missing");
        assert_eq!(r4.violations.len(), 3);
    }
}
