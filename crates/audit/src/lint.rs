//! Layer 3: token-level hot-path lints clippy cannot express.
//!
//! A tiny lexer strips comments and string/char literals from each source
//! file (so a rule token inside a doc comment or a format string never
//! fires), drops `#[cfg(test)]` modules, and then matches repo-specific
//! rule tokens against what remains:
//!
//! * **`no-panic`** — no `unwrap()` / `expect()` / `panic!` /
//!   `unreachable!` / `todo!` / `unimplemented!` in the serve-path modules
//!   (`crates/core/src/{serve,deployment,fleet,admission,streaming}.rs`,
//!   the telemetry record path `crates/telemetry/src/*.rs`, and the
//!   forward pass with its sweep pool, `crates/model/src/forward.rs`).
//!   A panic there takes down a whole batch (or a sweep-pool helper, and
//!   with it the sweep someone is waiting to collect) for one request's
//!   error; fallible paths must return `GuillotineError` instead.
//! * **`lock-poison`** — a `.lock()` immediately unwrapped with
//!   `.unwrap()` / `.expect(...)` anywhere in workspace crates. A panicking
//!   serve thread poisons shared state for every later request; the
//!   poison-recovering idiom from `crates/model/src/kv.rs`
//!   (`.lock().unwrap_or_else(|poisoned| poisoned.into_inner())`) must be
//!   used instead.
//! * **`no-case-alloc`** — no `to_lowercase()` / `to_uppercase()` in
//!   `crates/scan/src` or `crates/detect/src`. The automaton's whole point
//!   is scanning original bytes; a Unicode case conversion allocates and
//!   shifts offsets. (`crates/scan/src/naive.rs`, the deliberately naive
//!   reference implementation benchmarks compare against, is exempt.)
//!   Also the per-request functions named under `no-string-alloc` below.
//! * **`no-string-alloc`** — no fresh `String` allocation
//!   (`String::new/from`, `to_string`, `to_owned`, `format!`,
//!   `fmt::format`) in the scan
//!   engine proper (`crates/scan/src/lib.rs`) — scans must stay
//!   zero-allocation beyond the caller's result collection — nor in the
//!   journal's write path (`crates/journal/src/{wal,snapshot,ticket_set,
//!   store}.rs`): every WAL record and snapshot is encoded by
//!   `encode_into` / `frame_into` into one reused buffer, and a temporary
//!   `String` per field is what made journaling the most expensive layer
//!   of a request. (The snapshot-chain artifact dump in `store.rs` is the
//!   reviewed exception.) The rule also reaches *into* files it does not
//!   cover whole, function by function ([`PER_REQUEST_FNS`]): the
//!   hypervisor's `screen_prompt` / `screen_response`, which see every
//!   prompt and every response and must lend the text to the detectors
//!   rather than copy it; the front door's `submit_at` with its
//!   `journal_enqueue`, which must encode an acked request from the queue's
//!   own entry rather than build its wire form as a `String` first; the
//!   deployment's `begin_batch` / `finish_batch`, which hold a stream's
//!   chunks as ranges of one buffer; `Verdict::clean` with every
//!   built-in detector's `inspect`, whose unflagged verdicts are static
//!   strings — only a flagged branch formats a reason, under an
//!   `audit:allow` that says so; and the functions every span passes
//!   through (`ShardTracer::push`, `GuillotineFleet::collect_shard_spans`,
//!   `Telemetry::span`, `Tracer::record`, and `Tracer::root_of`, which
//!   parents every door-side span), where only an annotated span — a sever
//!   marker — formats a note.
//!
//! # The `audit:allow` escape
//!
//! A finding is suppressed by a comment on the same line or the line
//! directly above:
//!
//! ```text
//! // audit:allow(no-panic, slot invariant: every request routed exactly once)
//! ```
//!
//! The rule name must match and a reason is required — a bare allow
//! suppresses nothing. Honoured suppressions are reported in `AUDIT.json`
//! so the escape hatch stays reviewable.

use crate::finding::{Finding, Layer, Severity};
use std::path::Path;

/// The serve-path modules held to the `no-panic` rule. The telemetry
/// record path is included: it runs inline on every span and incident the
/// serving loop emits, so a panic there takes down serving exactly as a
/// panic in a serve stage would. (`registry.rs` is no longer on that path —
/// a registry is an export — but `stats()` and the artifact dumps build one
/// on a live door between batches, so it stays listed.) So is the forward
/// pass: its sweep pool's helpers run the sweeps every batch waits on.
const SERVE_PATH: [&str; 10] = [
    "crates/core/src/serve.rs",
    "crates/core/src/deployment.rs",
    "crates/core/src/fleet.rs",
    "crates/core/src/admission.rs",
    "crates/core/src/streaming.rs",
    "crates/model/src/forward.rs",
    "crates/telemetry/src/lib.rs",
    "crates/telemetry/src/span.rs",
    "crates/telemetry/src/registry.rs",
    "crates/telemetry/src/recorder.rs",
];

/// The journal modules on the WAL-append / snapshot path, held to
/// `no-string-alloc`: they encode into one caller-owned buffer.
const JOURNAL_WRITE_PATH: [&str; 4] = [
    "crates/journal/src/wal.rs",
    "crates/journal/src/snapshot.rs",
    "crates/journal/src/ticket_set.rs",
    "crates/journal/src/store.rs",
];

/// Functions held to `no-string-alloc` and `no-case-alloc` inside files
/// those rules do not cover whole: `(file, function names)`. Each runs once
/// per request — on the request's full text, or once per verdict, per
/// streamed chunk or per span of it.
pub const PER_REQUEST_FNS: [(&str, &[&str]); 13] = [
    (
        "crates/hv/src/hypervisor.rs",
        &[
            "screen_prompt",
            "screen_response",
            "screen_streamed_response",
        ],
    ),
    (
        "crates/core/src/admission.rs",
        &["submit_at", "journal_enqueue"],
    ),
    (
        "crates/core/src/deployment.rs",
        &["begin_batch", "finish_batch", "decode_to", "flush", "emit"],
    ),
    ("crates/detect/src/verdict.rs", &["clean"]),
    ("crates/detect/src/composite.rs", &["inspect"]),
    ("crates/detect/src/input_shield.rs", &["inspect"]),
    (
        "crates/detect/src/output_sanitizer.rs",
        &["inspect", "verdict_of"],
    ),
    ("crates/detect/src/steering.rs", &["inspect"]),
    ("crates/detect/src/circuit_breaker.rs", &["inspect"]),
    ("crates/detect/src/anomaly.rs", &["inspect"]),
    (
        "crates/telemetry/src/span.rs",
        &["record", "push", "root_of"],
    ),
    ("crates/telemetry/src/lib.rs", &["span"]),
    ("crates/core/src/fleet.rs", &["collect_shard_spans"]),
];

/// Where in a file a rule applies.
enum Scope {
    /// Not at all.
    Nowhere,
    /// Every non-test line.
    File,
    /// Only inside the bodies of these functions.
    Functions(&'static [&'static str]),
}

/// [`Scope::File`] when `whole`, else the file's [`PER_REQUEST_FNS`].
fn whole_file_or_per_request_fns(whole: bool, rel: &str) -> Scope {
    if whole {
        return Scope::File;
    }
    PER_REQUEST_FNS
        .iter()
        .find(|(file, _)| *file == rel)
        .map_or(Scope::Nowhere, |(_, names)| Scope::Functions(names))
}

/// One honoured suppression: `(file:line, rule)`.
pub type Allow = (String, String);

/// The lint pass result over one file or one tree.
#[derive(Debug, Default)]
pub struct LintOutcome {
    /// Unsuppressed findings.
    pub findings: Vec<Finding>,
    /// Honoured `audit:allow` suppressions.
    pub allows: Vec<Allow>,
}

impl LintOutcome {
    fn merge(&mut self, other: LintOutcome) {
        self.findings.extend(other.findings);
        self.allows.extend(other.allows);
    }
}

/// An `audit:allow(rule, reason)` parsed out of a comment.
#[derive(Debug, Clone)]
struct AllowSite {
    line: usize,
    rule: String,
    has_reason: bool,
}

/// `source` with comments and string/char literals blanked to spaces
/// (newlines preserved, so byte offsets still map to lines), plus every
/// `audit:allow` found in the stripped comments.
fn strip(source: &str) -> (String, Vec<AllowSite>) {
    let bytes = source.as_bytes();
    let mut code = Vec::with_capacity(bytes.len());
    let mut allows = Vec::new();
    let mut line = 1usize;
    let mut comment = String::new();
    let mut i = 0usize;
    // Blank a byte but keep line structure.
    let blank = |b: u8| if b == b'\n' { b'\n' } else { b' ' };
    while i < bytes.len() {
        let b = bytes[i];
        if b == b'\n' {
            line += 1;
        }
        match b {
            b'/' if bytes.get(i + 1) == Some(&b'/') => {
                let start_line = line;
                comment.clear();
                while i < bytes.len() && bytes[i] != b'\n' {
                    comment.push(bytes[i] as char);
                    code.push(b' ');
                    i += 1;
                }
                collect_allows(&comment, start_line, &mut allows);
            }
            b'/' if bytes.get(i + 1) == Some(&b'*') => {
                let start_line = line;
                comment.clear();
                let mut depth = 0usize;
                while i < bytes.len() {
                    if bytes[i] == b'\n' && !code.is_empty() {
                        // line already counted at loop top for the first
                        // byte; count the rest here.
                    }
                    if bytes[i] == b'/' && bytes.get(i + 1) == Some(&b'*') {
                        depth += 1;
                        comment.push_str("/*");
                        code.extend([b' ', b' ']);
                        i += 2;
                        continue;
                    }
                    if bytes[i] == b'*' && bytes.get(i + 1) == Some(&b'/') {
                        depth -= 1;
                        comment.push_str("*/");
                        code.extend([b' ', b' ']);
                        i += 2;
                        if depth == 0 {
                            break;
                        }
                        continue;
                    }
                    if bytes[i] == b'\n' {
                        line += 1;
                    }
                    comment.push(bytes[i] as char);
                    code.push(blank(bytes[i]));
                    i += 1;
                }
                collect_allows(&comment, start_line, &mut allows);
            }
            b'"' => {
                // String literal (the `r`/`r#` prefix, if any, was emitted
                // as code already — harmless single identifiers).
                let hashes = {
                    let mut h = 0usize;
                    while i > h && bytes[i - h - 1] == b'#' {
                        h += 1;
                    }
                    if i > h && bytes[i - h - 1] == b'r' {
                        Some(h)
                    } else {
                        None
                    }
                };
                code.push(b' ');
                i += 1;
                match hashes {
                    Some(h) => {
                        // Raw string: ends at `"` followed by `h` hashes.
                        while i < bytes.len() {
                            if bytes[i] == b'"'
                                && bytes[i + 1..].iter().take_while(|&&c| c == b'#').count() >= h
                            {
                                code.extend(std::iter::repeat_n(b' ', h + 1));
                                i += 1 + h;
                                break;
                            }
                            if bytes[i] == b'\n' {
                                line += 1;
                            }
                            code.push(blank(bytes[i]));
                            i += 1;
                        }
                    }
                    None => {
                        while i < bytes.len() {
                            match bytes[i] {
                                b'\\' => {
                                    code.extend([b' ', b' ']);
                                    i += 2;
                                }
                                b'"' => {
                                    code.push(b' ');
                                    i += 1;
                                    break;
                                }
                                c => {
                                    if c == b'\n' {
                                        line += 1;
                                    }
                                    code.push(blank(c));
                                    i += 1;
                                }
                            }
                        }
                    }
                }
                continue;
            }
            b'\'' => {
                // Char literal or lifetime. A char literal is `'x'` or an
                // escape `'\n'`; anything else (`'a` in `&'a str`) is a
                // lifetime and passes through as code.
                if bytes.get(i + 1) == Some(&b'\\') {
                    code.push(b' ');
                    i += 2; // consume `'` and `\`
                    while i < bytes.len() && bytes[i] != b'\'' {
                        code.push(b' ');
                        i += 1;
                    }
                    code.push(b' ');
                    i += 1;
                    continue;
                }
                if bytes.get(i + 2) == Some(&b'\'') {
                    code.extend([b' ', b' ', b' ']);
                    i += 3;
                    continue;
                }
                code.push(b);
                i += 1;
                continue;
            }
            _ => {
                code.push(b);
                i += 1;
                continue;
            }
        }
    }
    (String::from_utf8_lossy(&code).into_owned(), allows)
}

/// Parses every `audit:allow(rule, reason)` in one comment.
fn collect_allows(comment: &str, start_line: usize, allows: &mut Vec<AllowSite>) {
    for (line, text) in (start_line..).zip(comment.split('\n')) {
        let mut rest = text;
        while let Some(at) = rest.find("audit:allow(") {
            rest = &rest[at + "audit:allow(".len()..];
            let Some(close) = rest.find(')') else { break };
            let inside = &rest[..close];
            let (rule, has_reason) = match inside.split_once(',') {
                Some((rule, reason)) => (rule.trim(), !reason.trim().is_empty()),
                None => (inside.trim(), false),
            };
            if !rule.is_empty() {
                allows.push(AllowSite {
                    line,
                    rule: rule.to_string(),
                    has_reason,
                });
            }
            rest = &rest[close..];
        }
    }
}

/// Marks each line of `code` (comment-stripped source) that belongs to a
/// `#[cfg(test)]` module, by brace matching from the `mod` that follows the
/// attribute.
fn test_lines(code: &str) -> Vec<bool> {
    let lines: Vec<&str> = code.split('\n').collect();
    let mut excluded = vec![false; lines.len() + 1];
    let mut index = 0usize;
    while index < lines.len() {
        if lines[index].trim_start().starts_with("#[cfg(test)]") {
            // Find the following `mod` and brace-match its body.
            let mut depth = 0i64;
            let mut opened = false;
            let start = index;
            let mut end = index;
            'outer: for (offset, line) in lines[index..].iter().enumerate() {
                for c in line.chars() {
                    match c {
                        '{' => {
                            depth += 1;
                            opened = true;
                        }
                        '}' => depth -= 1,
                        _ => {}
                    }
                }
                if opened && depth <= 0 {
                    end = index + offset;
                    break 'outer;
                }
                end = index + offset;
            }
            for flag in excluded.iter_mut().take(end + 1).skip(start) {
                *flag = true;
            }
            index = end + 1;
        } else {
            index += 1;
        }
    }
    excluded
}

/// Marks each line of `code` (comment-stripped source) inside the body of
/// a function named in `names`, by brace matching from the `{` that
/// follows `fn <name>`.
fn fn_lines(code: &str, names: &[&str]) -> Vec<bool> {
    let mut inside = vec![false; code.matches('\n').count() + 2];
    for name in names {
        let header = format!("fn {name}");
        let mut from = 0usize;
        while let Some(at) = code[from..].find(&header) {
            let start = from + at;
            from = start + header.len();
            // `fn submit` must not claim `fn submit_at`.
            if !code[from..].starts_with(['(', '<']) {
                continue;
            }
            let mut depth = 0usize;
            for (offset, c) in code[start..].char_indices() {
                match c {
                    '{' => depth += 1,
                    '}' if depth == 1 => {
                        let first = code[..start].matches('\n').count();
                        let last = code[..start + offset].matches('\n').count();
                        inside[first..=last].fill(true);
                        break;
                    }
                    '}' => depth = depth.saturating_sub(1),
                    // A declaration without a body (a trait method).
                    ';' if depth == 0 => break,
                    _ => {}
                }
            }
        }
    }
    inside
}

/// One lint rule: where it applies and which tokens it forbids.
struct Rule {
    name: &'static str,
    tokens: &'static [&'static str],
    advice: &'static str,
    scope: fn(&str) -> Scope,
}

const RULES: [Rule; 3] = [
    Rule {
        name: "no-panic",
        tokens: &[
            ".unwrap()",
            ".expect(",
            "panic!",
            "unreachable!",
            "todo!",
            "unimplemented!",
        ],
        advice: "serve-path code must return GuillotineError, not panic",
        scope: |rel| {
            if SERVE_PATH.contains(&rel) {
                Scope::File
            } else {
                Scope::Nowhere
            }
        },
    },
    Rule {
        name: "no-case-alloc",
        tokens: &["to_lowercase(", "to_uppercase("],
        advice: "scan/detect hot paths match original bytes; case conversion allocates \
                 and shifts offsets",
        scope: |rel| {
            whole_file_or_per_request_fns(
                (rel.starts_with("crates/scan/src") || rel.starts_with("crates/detect/src"))
                    && rel != "crates/scan/src/naive.rs",
                rel,
            )
        },
    },
    Rule {
        name: "no-string-alloc",
        tokens: &[
            "String::new(",
            "String::from(",
            ".to_string(",
            ".to_owned(",
            "format!",
            "fmt::format(",
        ],
        advice: "scans, screens and journal encoding borrow the text and write into the \
                 caller's buffers; no fresh String per call",
        scope: |rel| {
            whole_file_or_per_request_fns(
                rel == "crates/scan/src/lib.rs" || JOURNAL_WRITE_PATH.contains(&rel),
                rel,
            )
        },
    },
];

/// Lints one file's source text. `rel` is the repo-relative path with `/`
/// separators (it selects which rules apply).
pub fn lint_source(rel: &str, source: &str) -> LintOutcome {
    let (code, allow_sites) = strip(source);
    let excluded = test_lines(&code);
    let mut outcome = LintOutcome::default();
    let line_of = |offset: usize| code[..offset].matches('\n').count() + 1;
    let mut report = |rule: &'static str, line: usize, message: String| {
        let allowed = allow_sites.iter().any(|site| {
            site.rule == rule && site.has_reason && (site.line == line || site.line + 1 == line)
        });
        let location = format!("{rel}:{line}");
        if allowed {
            outcome.allows.push((location, rule.to_string()));
        } else {
            outcome.findings.push(Finding::new(
                Layer::Lint,
                rule,
                Severity::Warning,
                location,
                message,
            ));
        }
    };
    for rule in &RULES {
        let in_scope = match (rule.scope)(rel) {
            Scope::Nowhere => continue,
            Scope::File => None,
            Scope::Functions(names) => Some(fn_lines(&code, names)),
        };
        for token in rule.tokens {
            let mut from = 0usize;
            while let Some(at) = code[from..].find(token) {
                let offset = from + at;
                from = offset + token.len();
                let line = line_of(offset);
                if *excluded.get(line - 1).unwrap_or(&false) {
                    continue;
                }
                if in_scope.as_ref().is_some_and(|lines| !lines[line - 1]) {
                    continue;
                }
                report(
                    rule.name,
                    line,
                    format!("`{token}` forbidden here: {}", rule.advice),
                );
            }
        }
    }
    // lock-poison applies everywhere: `.lock()` must recover from poisoning
    // inline, never `.unwrap()`/`.expect()` (which would propagate one
    // panicked thread's poison to every later request).
    let mut from = 0usize;
    while let Some(at) = code[from..].find(".lock()") {
        let offset = from + at;
        from = offset + ".lock()".len();
        let line = line_of(offset);
        if *excluded.get(line - 1).unwrap_or(&false) {
            continue;
        }
        let rest = code[offset + ".lock()".len()..].trim_start();
        if rest.starts_with(".unwrap()") || rest.starts_with(".expect(") {
            report(
                "lock-poison",
                line,
                "`.lock().unwrap()` propagates poison; use \
                 `.lock().unwrap_or_else(|poisoned| poisoned.into_inner())` \
                 (the idiom from crates/model/src/kv.rs)"
                    .to_string(),
            );
        }
    }
    outcome
}

/// Lints every `.rs` file under `crates/*/src` below `root`.
pub fn lint_repo(root: &Path) -> std::io::Result<LintOutcome> {
    let mut outcome = LintOutcome::default();
    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<_> = std::fs::read_dir(&crates_dir)?
        .filter_map(|entry| entry.ok())
        .map(|entry| entry.path())
        .filter(|path| path.is_dir())
        .collect();
    crate_dirs.sort();
    for crate_dir in crate_dirs {
        let src = crate_dir.join("src");
        if !src.is_dir() {
            continue;
        }
        let mut stack = vec![src];
        while let Some(dir) = stack.pop() {
            let mut entries: Vec<_> = std::fs::read_dir(&dir)?
                .filter_map(|entry| entry.ok())
                .map(|entry| entry.path())
                .collect();
            entries.sort();
            for path in entries {
                if path.is_dir() {
                    stack.push(path);
                } else if path.extension().is_some_and(|ext| ext == "rs") {
                    let rel = path
                        .strip_prefix(root)
                        .unwrap_or(&path)
                        .components()
                        .map(|c| c.as_os_str().to_string_lossy())
                        .collect::<Vec<_>>()
                        .join("/");
                    let source = std::fs::read_to_string(&path)?;
                    outcome.merge(lint_source(&rel, &source));
                }
            }
        }
    }
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokens_in_comments_and_strings_do_not_fire() {
        let source = r#"
// calling .unwrap() here would be bad
fn f() -> usize {
    let s = "panic!(\".unwrap()\")";
    s.len()
}
"#;
        let outcome = lint_source("crates/core/src/serve.rs", source);
        assert!(outcome.findings.is_empty(), "{:?}", outcome.findings);
    }

    #[test]
    fn serve_path_panics_are_found_with_lines() {
        let source = "fn f(x: Option<u8>) -> u8 {\n    x.unwrap()\n}\n";
        let outcome = lint_source("crates/core/src/fleet.rs", source);
        assert_eq!(outcome.findings.len(), 1);
        assert_eq!(outcome.findings[0].location, "crates/core/src/fleet.rs:2");
        // The same source outside the serve path is fine.
        assert!(lint_source("crates/hv/src/lib.rs", source)
            .findings
            .is_empty());
    }

    #[test]
    fn cfg_test_modules_are_exempt() {
        let source = "fn f() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { None::<u8>.unwrap(); }\n}\n";
        let outcome = lint_source("crates/core/src/serve.rs", source);
        assert!(outcome.findings.is_empty(), "{:?}", outcome.findings);
    }

    #[test]
    fn allow_with_reason_suppresses_and_is_recorded() {
        let source = "fn f(x: Option<u8>) -> u8 {\n    // audit:allow(no-panic, provably Some by construction)\n    x.unwrap()\n}\n";
        let outcome = lint_source("crates/core/src/serve.rs", source);
        assert!(outcome.findings.is_empty(), "{:?}", outcome.findings);
        assert_eq!(outcome.allows.len(), 1);
        assert_eq!(outcome.allows[0].1, "no-panic");
        // Without a reason the allow is ignored.
        let bare = "fn f(x: Option<u8>) -> u8 {\n    // audit:allow(no-panic)\n    x.unwrap()\n}\n";
        assert_eq!(
            lint_source("crates/core/src/serve.rs", bare).findings.len(),
            1
        );
        // A mismatched rule name suppresses nothing.
        let wrong = "fn f(x: Option<u8>) -> u8 {\n    // audit:allow(lock-poison, nope)\n    x.unwrap()\n}\n";
        assert_eq!(
            lint_source("crates/core/src/serve.rs", wrong)
                .findings
                .len(),
            1
        );
    }

    #[test]
    fn lock_poison_rule_fires_everywhere_but_accepts_the_idiom() {
        let bad = "fn f(m: &std::sync::Mutex<u8>) -> u8 {\n    *m.lock().unwrap()\n}\n";
        let outcome = lint_source("crates/hw/src/lib.rs", bad);
        assert_eq!(outcome.findings.len(), 1);
        assert_eq!(outcome.findings[0].category, "lock-poison");
        let good = "fn f(m: &std::sync::Mutex<u8>) -> u8 {\n    *m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())\n}\n";
        assert!(lint_source("crates/hw/src/lib.rs", good)
            .findings
            .is_empty());
    }

    #[test]
    fn case_alloc_rule_scopes_to_scan_and_detect() {
        let source = "fn f(s: &str) -> String {\n    s.to_lowercase()\n}\n";
        assert_eq!(
            lint_source("crates/detect/src/anything.rs", source)
                .findings
                .len(),
            1
        );
        assert_eq!(
            lint_source("crates/scan/src/lib.rs", source).findings.len(),
            1
        );
        assert!(lint_source("crates/scan/src/naive.rs", source)
            .findings
            .is_empty());
        assert!(lint_source("crates/core/src/report.rs", source)
            .findings
            .is_empty());
    }

    #[test]
    fn string_alloc_rule_covers_the_scan_engine_and_the_journal_write_path() {
        let source = "fn f(n: u32) -> String {\n    format!(\"{n}\")\n}\n";
        for rel in [
            "crates/scan/src/lib.rs",
            "crates/journal/src/wal.rs",
            "crates/journal/src/snapshot.rs",
            "crates/journal/src/ticket_set.rs",
            "crates/journal/src/store.rs",
        ] {
            let outcome = lint_source(rel, source);
            assert_eq!(outcome.findings.len(), 1, "{rel}");
            assert_eq!(outcome.findings[0].category, "no-string-alloc");
        }
        // Replay runs once per crash, not once per request.
        assert!(lint_source("crates/journal/src/replay.rs", source)
            .findings
            .is_empty());
    }

    #[test]
    fn per_request_functions_are_held_to_the_alloc_rules_and_nothing_around_them() {
        let source = "impl Hv {\n    pub fn screen_prompt(&mut self, text: &str) -> Verdict {\n        self.inspect(text.to_string())\n    }\n    fn screen_prompt_log(&self, text: &str) -> String {\n        text.to_lowercase()\n    }\n    pub fn screen_response<'t>(&mut self, text: &'t str) -> String {\n        if text.is_empty() {\n            return format!(\"{}\", 0);\n        }\n        text.to_uppercase()\n    }\n}\n";
        let outcome = lint_source("crates/hv/src/hypervisor.rs", source);
        let found: Vec<(&str, &str)> = outcome
            .findings
            .iter()
            .map(|f| (f.category, f.location.as_str()))
            .collect();
        assert_eq!(
            found,
            [
                ("no-case-alloc", "crates/hv/src/hypervisor.rs:12"),
                ("no-string-alloc", "crates/hv/src/hypervisor.rs:3"),
                ("no-string-alloc", "crates/hv/src/hypervisor.rs:10"),
            ]
        );
        // The front door's admission path likewise; other files not at all.
        let submit = "fn submit_at(r: Request) {\n    journal(r.to_string());\n}\nfn report() -> String {\n    String::new()\n}\n";
        let outcome = lint_source("crates/core/src/admission.rs", submit);
        assert_eq!(outcome.findings.len(), 1, "{:?}", outcome.findings);
        assert_eq!(
            outcome.findings[0].location,
            "crates/core/src/admission.rs:2"
        );
        assert!(lint_source("crates/core/src/report.rs", submit)
            .findings
            .is_empty());
        // A detector's `inspect`: the clean branch may not build a string,
        // the flagged branch may under a reasoned allow, and the helpers
        // around it are not the lint's business.
        let detector = "fn evaluate(&self) -> String {\n    format!(\"{}\", 1)\n}\nfn inspect(&mut self, o: &Obs) -> Verdict {\n    if !self.hit(o) {\n        return Verdict::clean(self.name().to_string());\n    }\n    // audit:allow(no-string-alloc, flagged branch formats its reason)\n    Verdict::flagged(self.name(), format!(\"{}\", 2))\n}\n";
        let outcome = lint_source("crates/detect/src/anomaly.rs", detector);
        assert_eq!(outcome.findings.len(), 1, "{:?}", outcome.findings);
        assert_eq!(
            outcome.findings[0].location,
            "crates/detect/src/anomaly.rs:6"
        );
        assert_eq!(outcome.allows.len(), 1);
        // The per-span record path: `fmt::format` is `format!` without the
        // macro, and the functions beside the named ones are left alone.
        let tracer = "fn push(&mut self, note: fmt::Arguments<'_>) {\n    self.notes.push(fmt::format(note));\n}\nfn dump(&self) -> String {\n    format!(\"{}\", self.len)\n}\n";
        let outcome = lint_source("crates/telemetry/src/span.rs", tracer);
        assert_eq!(outcome.findings.len(), 1, "{:?}", outcome.findings);
        assert_eq!(
            outcome.findings[0].location,
            "crates/telemetry/src/span.rs:2"
        );
    }

    #[test]
    fn char_literals_and_lifetimes_do_not_derail_the_lexer() {
        let source = "fn f<'a>(s: &'a str) -> char {\n    let q = '\"';\n    let n = '\\n';\n    let _ = s;\n    q.min(n)\n}\nfn g(x: Option<u8>) -> u8 { x.unwrap() }\n";
        let outcome = lint_source("crates/core/src/serve.rs", source);
        // The unwrap in g must still be seen (the quote char literal did
        // not swallow the rest of the file as a string).
        assert_eq!(outcome.findings.len(), 1);
        assert_eq!(outcome.findings[0].location, "crates/core/src/serve.rs:7");
    }
}
