//! Safe-harbor liability accounting.
//!
//! §3.5: "regulators can incentivize the use of Guillotine (rather than just
//! penalize its lack of use) via 'safe harbor' clauses in AI laws. These
//! clauses reduce a company's legal liability if a company adhered to best
//! practices but nonetheless generated harm."

use crate::compliance::ComplianceReport;

/// The safe-harbor policy parameters.
#[derive(Debug, Clone, Copy)]
pub struct SafeHarborPolicy {
    /// Fraction of liability waived when the operator is fully compliant.
    pub compliant_relief: f64,
    /// Extra penalty multiplier when a systemic-risk model is operated
    /// without Guillotine at all.
    pub noncompliance_multiplier: f64,
}

impl Default for SafeHarborPolicy {
    fn default() -> Self {
        SafeHarborPolicy {
            compliant_relief: 0.8,
            noncompliance_multiplier: 3.0,
        }
    }
}

/// The liability outcome of one harm incident.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LiabilityAssessment {
    /// Base damages from the incident.
    pub base_damages: f64,
    /// Damages actually owed after safe-harbor adjustment.
    pub adjusted_damages: f64,
    /// Whether safe harbor applied.
    pub safe_harbor_applied: bool,
}

impl SafeHarborPolicy {
    /// Assesses liability for an incident with `base_damages`, given the
    /// operator's compliance posture at the time.
    pub fn assess(&self, base_damages: f64, compliance: &ComplianceReport) -> LiabilityAssessment {
        if compliance.compliant {
            LiabilityAssessment {
                base_damages,
                adjusted_damages: base_damages * (1.0 - self.compliant_relief),
                safe_harbor_applied: true,
            }
        } else {
            LiabilityAssessment {
                base_damages,
                adjusted_damages: base_damages * self.noncompliance_multiplier,
                safe_harbor_applied: false,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::RiskTier;

    fn report(compliant: bool) -> ComplianceReport {
        ComplianceReport {
            tier: RiskTier::Systemic,
            compliant,
            violations: if compliant {
                vec![]
            } else {
                vec!["not on Guillotine".into()]
            },
        }
    }

    #[test]
    fn compliance_earns_relief() {
        let p = SafeHarborPolicy::default();
        let a = p.assess(1_000_000.0, &report(true));
        assert!(a.safe_harbor_applied);
        assert!((a.adjusted_damages - 200_000.0).abs() < 1e-6);
    }

    #[test]
    fn noncompliance_is_punished() {
        let p = SafeHarborPolicy::default();
        let a = p.assess(1_000_000.0, &report(false));
        assert!(!a.safe_harbor_applied);
        assert!((a.adjusted_damages - 3_000_000.0).abs() < 1e-6);
    }

    #[test]
    fn incentive_gap_is_large() {
        // The whole point of safe harbor: the compliant operator pays an
        // order of magnitude less for the same incident.
        let p = SafeHarborPolicy::default();
        let yes = p.assess(5e6, &report(true)).adjusted_damages;
        let no = p.assess(5e6, &report(false)).adjusted_damages;
        assert!(no / yes >= 10.0);
    }
}
