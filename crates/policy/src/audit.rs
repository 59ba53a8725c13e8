//! The regulatory audit regime.
//!
//! §3.5 asks for three kinds of checks: source-code inspection (does the
//! model target the Guillotine guest API?), live attestation via
//! network-connected audit computers, and in-person audits of the physical
//! environment (tamper enclosures, decapitation/immolation mechanisms).

use guillotine_types::{ModelId, SimDuration, SimInstant};

/// The kinds of audit the regulations mandate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AuditKind {
    /// Inspection of model source/targeting of the Guillotine guest API.
    SourceCode,
    /// Remote attestation of the running hardware+software stack.
    Attestation,
    /// In-person inspection of tamper evidence and kill-switch maintenance.
    Physical,
}

impl AuditKind {
    /// How often each kind of audit must recur.
    pub fn required_interval(self) -> SimDuration {
        match self {
            AuditKind::SourceCode => SimDuration::from_secs(180 * 86_400),
            AuditKind::Attestation => SimDuration::from_secs(7 * 86_400),
            AuditKind::Physical => SimDuration::from_secs(90 * 86_400),
        }
    }
}

/// One completed audit.
#[derive(Debug, Clone, PartialEq)]
pub struct AuditRecord {
    /// The model/deployment audited.
    pub model: ModelId,
    /// What kind of audit it was.
    pub kind: AuditKind,
    /// When it happened.
    pub at: SimInstant,
    /// Whether it passed.
    pub passed: bool,
    /// Auditor notes.
    pub notes: String,
}

/// Tracks audit history and due dates per model.
#[derive(Debug, Clone, Default)]
pub struct AuditScheduler {
    records: Vec<AuditRecord>,
}

impl AuditScheduler {
    /// Creates an empty scheduler.
    pub fn new() -> Self {
        AuditScheduler::default()
    }

    /// Records a completed audit.
    pub fn record(&mut self, record: AuditRecord) {
        self.records.push(record);
    }

    /// All records for a model.
    pub fn records_for(&self, model: ModelId) -> Vec<&AuditRecord> {
        self.records.iter().filter(|r| r.model == model).collect()
    }

    /// The most recent audit of a given kind for a model.
    pub fn latest(&self, model: ModelId, kind: AuditKind) -> Option<&AuditRecord> {
        self.records
            .iter()
            .filter(|r| r.model == model && r.kind == kind)
            .max_by_key(|r| r.at)
    }

    /// True if the model's most recent audit of `kind` passed and is not
    /// older than the required interval at `now`.
    pub fn is_current(&self, model: ModelId, kind: AuditKind, now: SimInstant) -> bool {
        match self.latest(model, kind) {
            Some(r) => r.passed && now.duration_since(r.at) <= kind.required_interval(),
            None => false,
        }
    }

    /// The audit kinds that are overdue (or missing) for a model at `now`.
    pub fn overdue(&self, model: ModelId, now: SimInstant) -> Vec<AuditKind> {
        [
            AuditKind::SourceCode,
            AuditKind::Attestation,
            AuditKind::Physical,
        ]
        .into_iter()
        .filter(|k| !self.is_current(model, *k, now))
        .collect()
    }

    /// Fraction of models in `fleet` whose audits are all current at `now`.
    pub fn fleet_coverage(&self, fleet: &[ModelId], now: SimInstant) -> f64 {
        if fleet.is_empty() {
            return 1.0;
        }
        let covered = fleet
            .iter()
            .filter(|m| self.overdue(**m, now).is_empty())
            .count();
        covered as f64 / fleet.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(days: u64) -> SimInstant {
        SimInstant::from_nanos(days * 86_400 * 1_000_000_000)
    }

    fn rec(model: u32, kind: AuditKind, at_days: u64, passed: bool) -> AuditRecord {
        AuditRecord {
            model: ModelId::new(model),
            kind,
            at: t(at_days),
            passed,
            notes: String::new(),
        }
    }

    #[test]
    fn missing_audits_are_overdue() {
        let s = AuditScheduler::new();
        assert_eq!(s.overdue(ModelId::new(0), t(0)).len(), 3);
    }

    #[test]
    fn current_audits_clear_the_overdue_list() {
        let mut s = AuditScheduler::new();
        s.record(rec(0, AuditKind::SourceCode, 0, true));
        s.record(rec(0, AuditKind::Attestation, 10, true));
        s.record(rec(0, AuditKind::Physical, 5, true));
        assert!(s.overdue(ModelId::new(0), t(12)).is_empty());
        // Attestation goes stale after 7 days.
        let overdue = s.overdue(ModelId::new(0), t(20));
        assert_eq!(overdue, vec![AuditKind::Attestation]);
    }

    #[test]
    fn failed_audits_do_not_count() {
        let mut s = AuditScheduler::new();
        s.record(rec(0, AuditKind::Physical, 1, false));
        assert!(!s.is_current(ModelId::new(0), AuditKind::Physical, t(2)));
    }

    #[test]
    fn latest_picks_the_newest_record() {
        let mut s = AuditScheduler::new();
        s.record(rec(0, AuditKind::Attestation, 1, false));
        s.record(rec(0, AuditKind::Attestation, 3, true));
        assert!(
            s.latest(ModelId::new(0), AuditKind::Attestation)
                .unwrap()
                .passed
        );
        assert_eq!(s.records_for(ModelId::new(0)).len(), 2);
    }

    #[test]
    fn fleet_coverage_fraction() {
        let mut s = AuditScheduler::new();
        for kind in [
            AuditKind::SourceCode,
            AuditKind::Attestation,
            AuditKind::Physical,
        ] {
            s.record(rec(0, kind, 1, true));
        }
        let fleet = vec![ModelId::new(0), ModelId::new(1)];
        assert!((s.fleet_coverage(&fleet, t(2)) - 0.5).abs() < 1e-9);
        assert_eq!(s.fleet_coverage(&[], t(2)), 1.0);
    }
}
