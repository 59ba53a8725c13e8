//! Typed findings and the machine-readable `AUDIT.json` report.
//!
//! Every analysis layer (configuration analyzer, model checker, lint pass)
//! produces [`Finding`]s; the audit binary collects them into an
//! [`AuditReport`] and serializes it by hand — the workspace is fully
//! offline and the schema is flat, so no serde round-trip is worth a
//! dependency here (the same call `guillotine-bench` makes for
//! `BENCH_*.json`).

use guillotine_types::encode::json_escape;
use std::fmt;
use std::fmt::Write as _;

/// How strongly a finding gates the build.
///
/// The CI contract is `-D`-style on [`Severity::Warning`] and above: the
/// audit binary exits nonzero if any warning or error survives its
/// suppressions. [`Severity::Info`] findings are advisory — they document a
/// configuration property worth knowing (e.g. deliberate rule layering)
/// without failing the gate, and still land in `AUDIT.json` so CI can diff
/// them across PRs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Advisory: recorded, never gates.
    Info,
    /// Gates the build; a defect that should be fixed or explicitly allowed.
    Warning,
    /// Gates the build; a proven violation (e.g. a model-checker
    /// counterexample).
    Error,
}

impl Severity {
    /// The lowercase JSON spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }

    /// True when this severity fails the audit gate.
    pub fn gates(self) -> bool {
        self >= Severity::Warning
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Which analysis layer produced a finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Layer {
    /// The ruleset/policy configuration analyzer.
    Config,
    /// The bounded containment model checker.
    Model,
    /// The token-level hot-path lint pass.
    Lint,
}

impl Layer {
    /// The lowercase JSON spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Layer::Config => "config",
            Layer::Model => "model",
            Layer::Lint => "lint",
        }
    }
}

/// One typed analysis result.
#[derive(Debug, Clone, PartialEq)]
pub struct Finding {
    /// The producing layer.
    pub layer: Layer,
    /// Stable machine-readable category slug (e.g. `dead-rule`,
    /// `no-panic`); CI diffs findings across PRs on this plus `location`.
    pub category: &'static str,
    /// Gate level.
    pub severity: Severity,
    /// Human-readable explanation.
    pub message: String,
    /// Where the finding anchors: `file:line` for lints, a ruleset/policy
    /// name for configuration findings, an invariant name for model
    /// counterexamples.
    pub location: String,
}

impl Finding {
    /// Creates a finding.
    pub fn new(
        layer: Layer,
        category: &'static str,
        severity: Severity,
        location: impl Into<String>,
        message: impl Into<String>,
    ) -> Self {
        Finding {
            layer,
            category,
            severity,
            message: message.into(),
            location: location.into(),
        }
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: [{}/{}] {}: {}",
            self.severity,
            self.layer.as_str(),
            self.category,
            self.location,
            self.message
        )
    }
}

/// The collected result of one audit run, serializable to `AUDIT.json`.
#[derive(Debug, Clone, Default)]
pub struct AuditReport {
    findings: Vec<Finding>,
    /// Invariants the model checker proved, with the state count each proof
    /// visited.
    proofs: Vec<(String, usize)>,
    /// Lint suppressions honoured this run (`file:line` → rule), so the
    /// escape hatch stays visible in the artifact CI archives.
    allows: Vec<(String, String)>,
}

impl AuditReport {
    /// Starts an empty report.
    pub fn new() -> Self {
        AuditReport::default()
    }

    /// Adds findings from one layer.
    pub fn extend(&mut self, findings: impl IntoIterator<Item = Finding>) {
        self.findings.extend(findings);
    }

    /// Records one proved invariant and the number of states its proof
    /// explored.
    pub fn add_proof(&mut self, invariant: impl Into<String>, states: usize) {
        self.proofs.push((invariant.into(), states));
    }

    /// Records one honoured `audit:allow` suppression.
    pub fn add_allow(&mut self, location: impl Into<String>, rule: impl Into<String>) {
        self.allows.push((location.into(), rule.into()));
    }

    /// All findings, in insertion order.
    pub fn findings(&self) -> &[Finding] {
        &self.findings
    }

    /// The invariants proved this run.
    pub fn proofs(&self) -> &[(String, usize)] {
        &self.proofs
    }

    /// Findings that fail the gate (severity `warning` or above).
    pub fn gating(&self) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(|f| f.severity.gates())
    }

    /// Number of gating findings.
    pub fn gating_count(&self) -> usize {
        self.gating().count()
    }

    /// Renders the machine-readable `AUDIT.json` document.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"tool\": \"guillotine-audit\",");
        let _ = writeln!(out, "  \"gating_findings\": {},", self.gating_count());
        let _ = writeln!(out, "  \"findings\": [");
        for (i, f) in self.findings.iter().enumerate() {
            let comma = if i + 1 < self.findings.len() { "," } else { "" };
            let _ = writeln!(
                out,
                "    {{\"layer\": \"{}\", \"category\": \"{}\", \"severity\": \"{}\", \
                 \"location\": \"{}\", \"message\": \"{}\"}}{comma}",
                f.layer.as_str(),
                json_escape(f.category),
                f.severity.as_str(),
                json_escape(&f.location),
                json_escape(&f.message),
            );
        }
        let _ = writeln!(out, "  ],");
        let _ = writeln!(out, "  \"proved_invariants\": [");
        for (i, (name, states)) in self.proofs.iter().enumerate() {
            let comma = if i + 1 < self.proofs.len() { "," } else { "" };
            let _ = writeln!(
                out,
                "    {{\"invariant\": \"{}\", \"states_explored\": {states}}}{comma}",
                json_escape(name)
            );
        }
        let _ = writeln!(out, "  ],");
        let _ = writeln!(out, "  \"suppressions\": [");
        for (i, (location, rule)) in self.allows.iter().enumerate() {
            let comma = if i + 1 < self.allows.len() { "," } else { "" };
            let _ = writeln!(
                out,
                "    {{\"location\": \"{}\", \"rule\": \"{}\"}}{comma}",
                json_escape(location),
                json_escape(rule)
            );
        }
        let _ = writeln!(out, "  ]");
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn severity_orders_and_gates() {
        assert!(Severity::Info < Severity::Warning);
        assert!(Severity::Warning < Severity::Error);
        assert!(!Severity::Info.gates());
        assert!(Severity::Warning.gates());
        assert!(Severity::Error.gates());
    }

    #[test]
    fn report_counts_only_gating_findings() {
        let mut report = AuditReport::new();
        report.extend([
            Finding::new(Layer::Config, "dead-rule", Severity::Info, "shield", "note"),
            Finding::new(
                Layer::Lint,
                "no-panic",
                Severity::Warning,
                "a.rs:1",
                "unwrap",
            ),
        ]);
        assert_eq!(report.findings().len(), 2);
        assert_eq!(report.gating_count(), 1);
    }

    #[test]
    fn json_is_well_formed_and_escaped() {
        let mut report = AuditReport::new();
        report.extend([Finding::new(
            Layer::Model,
            "counterexample",
            Severity::Error,
            "no-chunk-after-sever",
            "trace: \"EmitChunk\"\nafter sever",
        )]);
        report.add_proof("fail-closed-when-fully-quarantined", 1234);
        report.add_allow("crates/core/src/fleet.rs:495", "no-panic");
        let json = report.to_json();
        assert!(json.contains("\\\"EmitChunk\\\""));
        assert!(json.contains("\"\\nafter sever"), "{json}");
        assert!(json.contains("\"gating_findings\": 1"));
        assert!(json.contains("fail-closed-when-fully-quarantined"));
        assert!(json.contains("no-panic"));
        // Balanced braces/brackets (cheap well-formedness proxy without a
        // JSON parser in the workspace).
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "{json}"
        );
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }
}
