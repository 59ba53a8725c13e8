//! Integration tests for the hot-path lint pass: the working tree itself
//! must be clean, and the walker must find findings a single-file scan
//! would.

use guillotine_audit::lint::PER_REQUEST_FNS;
use guillotine_audit::lint_repo;
use std::path::Path;

fn repo_root() -> &'static Path {
    // crates/audit → repo root.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crate lives two levels below the repo root")
}

/// The gate contract at HEAD: linting the real tree yields zero
/// unsuppressed findings, and every honoured suppression names a real
/// file. This is the test that breaks when someone lands a serve-path
/// `unwrap()` without an `audit:allow`.
#[test]
fn working_tree_is_lint_clean() {
    let outcome = lint_repo(repo_root()).expect("source tree walk");
    assert!(
        outcome.findings.is_empty(),
        "unsuppressed lint findings at HEAD:\n{}",
        outcome
            .findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
    for (location, rule) in &outcome.allows {
        let file = location
            .rsplit_once(':')
            .map(|(f, _)| f)
            .unwrap_or(location);
        assert!(
            repo_root().join(file).is_file(),
            "suppression {location} ({rule}) names a missing file"
        );
    }
}

/// The alloc rules reach into `hv`'s screens, the deployment's batch halves,
/// the built-in detectors' `inspect`s, the front door's admission path and
/// the per-span record path by function name; a rename there would silently
/// drop the function from the lint, so every name must still be found.
#[test]
fn per_request_functions_exist_where_the_lint_looks() {
    for (file, names) in PER_REQUEST_FNS {
        let source = std::fs::read_to_string(repo_root().join(file)).expect("linted file");
        for name in names {
            assert!(
                source.contains(&format!("fn {name}(")) || source.contains(&format!("fn {name}<")),
                "{file} no longer defines `{name}`"
            );
        }
    }
}

/// The known, reviewed suppressions: the compile-time Unicode case-variant
/// expansion, the journal store's CI artifact dump (`dump_snapshots` — it
/// builds a `String` to hand to a file writer, off the append/snapshot
/// path), and the *flagged* branch of each built-in detector's `inspect`,
/// which formats its reason (and, for steering, names its replacement) only
/// once something has been flagged — the clean branch of every one of them,
/// `Verdict::clean`, the hypervisor's screens, the deployment's
/// `begin_batch`/`finish_batch` and the front door's `submit_at` are under
/// `no-string-alloc` needing no escape — and `ShardTracer::push`, which
/// formats the note of an annotated span (a sever marker) and nothing for
/// any other; `Tracer::record`, `Tracer::root_of`, `Telemetry::span` and
/// the fleet's `collect_shard_spans` need no escape. If this list
/// grows, the new entry was either justified in review or someone is
/// bypassing the gate — either way it should show up in a test diff.
#[test]
fn suppression_inventory_is_exactly_the_reviewed_set() {
    let outcome = lint_repo(repo_root()).expect("source tree walk");
    let mut allows: Vec<(&str, &str)> = outcome
        .allows
        .iter()
        .map(|(location, rule)| {
            let file = location
                .rsplit_once(':')
                .map_or(location.as_str(), |(f, _)| f);
            (file, rule.as_str())
        })
        .collect();
    allows.sort_unstable();
    assert_eq!(
        allows,
        [
            ("crates/detect/src/circuit_breaker.rs", "no-string-alloc"),
            ("crates/detect/src/composite.rs", "no-string-alloc"),
            ("crates/detect/src/input_shield.rs", "no-string-alloc"),
            ("crates/detect/src/output_sanitizer.rs", "no-string-alloc"),
            ("crates/detect/src/scan_util.rs", "no-case-alloc"),
            ("crates/detect/src/scan_util.rs", "no-case-alloc"),
            ("crates/detect/src/steering.rs", "no-string-alloc"),
            ("crates/detect/src/steering.rs", "no-string-alloc"),
            ("crates/journal/src/store.rs", "no-string-alloc"),
            ("crates/telemetry/src/span.rs", "no-string-alloc"),
        ],
    );
}
