//! E15: single-pass multi-pattern scan throughput on the detector hot path.
//!
//! Two comparisons, both against the naive scanning the detectors used
//! before `guillotine-scan`:
//!
//! 1. **Scan microbench** — one `matched_ids` query over a realistic fleet
//!    ruleset (the 21 default shield rules plus 300 operator rules) and
//!    realistic ~1.5 KiB prompts. Naive = ASCII-lowercase the prompt, then
//!    one `contains` per pattern (O(rules × text) plus an allocation);
//!    automaton = one pass over the original bytes. Asserted ≥5x.
//! 2. **End-to-end `serve_batch`** — two deployments with identical rule
//!    sets, one running the old naive `Detector` implementations
//!    (replicated below, verbatim), one running the automaton-backed
//!    `InputShield`/`OutputSanitizer`. Asserted ≥1.5x; the measured win is
//!    printed so the trajectory lands in the BENCH output.
//! 3. **Per-byte kernel costs** — ns/byte of the four kernels every
//!    control-plane byte passes through (`Matcher::scan`, the streaming
//!    sanitizer in 32-byte chunks, `crc32`, `Escaped`), printed and written
//!    to `BENCH_e15.json` for the trajectory; no wall-clock bar (those
//!    flake). What *is* asserted is deterministic: the streaming
//!    sanitizer's scanned-bytes witness equals the bytes pushed, i.e. the
//!    chunked path walks each byte once, like the whole-string scan.

use guillotine::deployment::GuillotineDeployment;
use guillotine::serve::ServeRequest;
use guillotine::DeploymentBuilder;
use guillotine_bench::{measure, time, BenchJson};
use guillotine_detect::{
    CompiledCategories, Detector, ForbiddenCategory, InputShield, ModelObservation,
    OutputSanitizer, RecommendedAction, StreamingSanitizer, Verdict,
};
use guillotine_scan::{naive, Matcher};
use guillotine_types::encode::{crc32, push_escaped};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;

// ---------------------------------------------------------------------
// Workload: a fleet-scale ruleset and realistic prompt bodies.
// ---------------------------------------------------------------------

/// The default shield rules, read off the real `InputShield` so the naive
/// baseline can never drift from what the automaton path actually runs.
fn default_rules() -> Vec<(String, f64)> {
    InputShield::new()
        .rules()
        .iter()
        .map(|rule| (rule.pattern.clone(), rule.weight))
        .collect()
}

/// Operator-loaded rules a production fleet accumulates: individually cheap,
/// collectively what makes O(rules × text) scanning unaffordable.
fn extra_rules() -> Vec<(String, f64)> {
    (0..300)
        .map(|i| {
            (
                format!("forbidden ritual phrase number {i} of the covenant"),
                0.05,
            )
        })
        .collect()
}

/// The default sanitizer categories, read off the real `OutputSanitizer`.
fn default_categories() -> Vec<ForbiddenCategory> {
    OutputSanitizer::new().categories().to_vec()
}

/// Operator-loaded output categories mirroring the big shield ruleset.
fn extra_categories() -> Vec<ForbiddenCategory> {
    (0..60)
        .map(|i| ForbiddenCategory {
            name: format!("fleet-policy-{i}"),
            markers: (0..5)
                .map(|j| format!("restricted fleet artifact {i}-{j} designation"))
                .collect(),
            severity: 0.3,
        })
        .collect()
}

/// Benign ~1.5 KiB prompts (RAG-augmented requests are this size or bigger).
fn prompts(n: usize) -> Vec<String> {
    let filler = "The quarterly review covers shipping volumes, energy usage, staffing \
                  levels and maintenance backlogs across the euro region, with notes on \
                  vendor onboarding and datacenter capacity planning. ";
    (0..n)
        .map(|i| {
            let mut p = format!("Request {i}: please summarize the following report. ");
            while p.len() < 1500 {
                p.push_str(filler);
            }
            p
        })
        .collect()
}

// ---------------------------------------------------------------------
// The naive detectors the automaton replaced, replicated verbatim so the
// end-to-end comparison runs old pipeline vs new pipeline in one binary.
// ---------------------------------------------------------------------

struct NaiveShield {
    rules: Vec<(String, f64)>,
    flag_threshold: f64,
    sever_threshold: f64,
}

impl NaiveShield {
    fn score(&self, text: &str) -> f64 {
        let lower = text.to_lowercase();
        let mut score: f64 = 0.0;
        for (pattern, weight) in &self.rules {
            if lower.contains(pattern.as_str()) {
                score = 1.0 - (1.0 - score) * (1.0 - weight);
            }
        }
        score
    }

    fn count_matches(&self, text: &str) -> usize {
        let lower = text.to_lowercase();
        self.rules
            .iter()
            .filter(|(pattern, _)| lower.contains(pattern.as_str()))
            .count()
    }
}

impl Detector for NaiveShield {
    fn name(&self) -> &'static str {
        "naive-input-shield"
    }

    fn inspect(&mut self, observation: &ModelObservation) -> Verdict {
        let text = match observation {
            ModelObservation::Prompt { text, .. } => text,
            _ => return Verdict::clean(self.name()),
        };
        let score = self.score(text);
        if score >= self.flag_threshold {
            let action = if score >= self.sever_threshold {
                RecommendedAction::Sever
            } else {
                RecommendedAction::Restrict
            };
            Verdict::flagged(
                self.name(),
                score,
                format!(
                    "prompt matched {} suspicious pattern(s)",
                    self.count_matches(text)
                ),
                action,
            )
        } else {
            Verdict::clean(self.name())
        }
    }
}

struct NaiveSanitizer {
    categories: Vec<ForbiddenCategory>,
    redaction: String,
}

impl NaiveSanitizer {
    fn sanitize(&self, text: &str) -> (String, Vec<String>, f64) {
        let lower = text.to_lowercase();
        let mut matched = Vec::new();
        let mut severity: f64 = 0.0;
        let mut clean = text.to_string();
        for cat in &self.categories {
            let mut hit = false;
            for marker in &cat.markers {
                if lower.contains(marker.as_str()) {
                    hit = true;
                    let mut result = String::with_capacity(clean.len());
                    let mut rest = clean.as_str();
                    loop {
                        match rest.to_lowercase().find(marker.as_str()) {
                            Some(pos) => {
                                result.push_str(&rest[..pos]);
                                result.push_str(&self.redaction);
                                rest = &rest[pos + marker.len()..];
                            }
                            None => {
                                result.push_str(rest);
                                break;
                            }
                        }
                    }
                    clean = result;
                }
            }
            if hit {
                matched.push(cat.name.clone());
                severity = severity.max(cat.severity);
            }
        }
        (clean, matched, severity)
    }
}

impl Detector for NaiveSanitizer {
    fn name(&self) -> &'static str {
        "naive-output-sanitizer"
    }

    fn inspect(&mut self, observation: &ModelObservation) -> Verdict {
        let text = match observation {
            ModelObservation::Response { text, .. } => text,
            _ => return Verdict::clean(self.name()),
        };
        let (clean, matched, severity) = self.sanitize(text);
        if matched.is_empty() {
            Verdict::clean(self.name())
        } else {
            let action = if severity >= 0.9 {
                RecommendedAction::Restrict
            } else {
                RecommendedAction::Sanitize
            };
            Verdict::flagged(
                self.name(),
                severity,
                format!(
                    "response contained forbidden categories: {}",
                    matched.join(", ")
                ),
                action,
            )
            .with_replacement(clean)
        }
    }
}

// ---------------------------------------------------------------------
// Deployment assembly: identical rulesets, different scan engines.
// ---------------------------------------------------------------------

fn automaton_deployment() -> GuillotineDeployment {
    let mut shield = InputShield::new();
    shield.add_rules(extra_rules());
    let mut sanitizer = OutputSanitizer::new();
    sanitizer.add_categories(extra_categories());
    DeploymentBuilder::new()
        .without_default_detectors()
        .with_detector(Box::new(shield))
        .with_detector(Box::new(sanitizer))
        .build()
        .unwrap()
}

fn naive_deployment() -> GuillotineDeployment {
    let mut rules = default_rules();
    rules.extend(extra_rules());
    let mut categories = default_categories();
    categories.extend(extra_categories());
    DeploymentBuilder::new()
        .without_default_detectors()
        .with_detector(Box::new(NaiveShield {
            rules,
            flag_threshold: 0.5,
            sever_threshold: 0.9,
        }))
        .with_detector(Box::new(NaiveSanitizer {
            categories,
            redaction: "[REDACTED BY GUILLOTINE]".into(),
        }))
        .build()
        .unwrap()
}

fn requests(texts: &[String]) -> Vec<ServeRequest> {
    texts.iter().map(|p| ServeRequest::new(p.clone())).collect()
}

pub fn run() {
    let texts = prompts(64);

    // ---- Scan microbench: one matched_ids query, naive vs automaton. ----
    let patterns: Vec<String> = default_rules()
        .into_iter()
        .chain(extra_rules())
        .map(|(pattern, _)| pattern)
        .collect();
    let matcher = Matcher::compile(&patterns);
    // Sanity: identical match sets before timing anything.
    for text in &texts {
        let reference = naive::matched_ids(&patterns, text);
        let set = matcher.matched_ids(text);
        for (id, &hit) in reference.iter().enumerate() {
            assert_eq!(set.contains(id), hit, "divergence on pattern {id}");
        }
    }
    let naive_scan = time("e15_scan_throughput/matched_ids/naive", 20, || {
        for text in &texts {
            black_box(naive::matched_ids(&patterns, text));
        }
    });
    let automaton_scan = time("e15_scan_throughput/matched_ids/automaton", 20, || {
        for text in &texts {
            black_box(matcher.matched_ids(text));
        }
    });
    let scan_speedup = naive_scan.as_secs_f64() / automaton_scan.as_secs_f64().max(1e-12);
    println!(
        "e15: scan microbench ({} patterns, 64x{}B) naive {naive_scan:?} vs automaton \
         {automaton_scan:?} -> {scan_speedup:.1}x speedup (bar: >=5x)",
        patterns.len(),
        texts[0].len(),
    );
    assert!(
        scan_speedup >= 5.0,
        "automaton must be >=5x the naive scan, got {scan_speedup:.2}x"
    );

    // ---- End-to-end: serve_batch with naive vs automaton detectors. ----
    let mut fast = automaton_deployment();
    let mut slow = naive_deployment();
    let fast_out = fast.serve_batch(requests(&texts)).unwrap();
    let slow_out = slow.serve_batch(requests(&texts)).unwrap();
    assert_eq!(fast_out.len(), slow_out.len());
    for (f, s) in fast_out.iter().zip(&slow_out) {
        assert_eq!(f.outcome, s.outcome, "pipelines must agree on outcomes");
        assert_eq!(f.response, s.response, "pipelines must agree on responses");
        assert!(f.delivered());
    }
    let automaton_batch = time("e15_scan_throughput/serve_batch64/automaton", 5, || {
        fast.serve_batch(requests(&texts)).unwrap()
    });
    let naive_batch = time("e15_scan_throughput/serve_batch64/naive", 5, || {
        slow.serve_batch(requests(&texts)).unwrap()
    });
    let e2e_speedup = naive_batch.as_secs_f64() / automaton_batch.as_secs_f64().max(1e-12);
    println!(
        "e15: serve_batch(64) naive-detectors {naive_batch:?} vs automaton-detectors \
         {automaton_batch:?} -> {e2e_speedup:.1}x speedup (bar: >=1.5x)"
    );
    assert!(
        e2e_speedup >= 1.5,
        "end-to-end serve_batch win must be >=1.5x, got {e2e_speedup:.2}x"
    );
    // ---- Per-byte kernel costs over the same prompts. ----
    let bytes: usize = texts.iter().map(String::len).sum();
    let per_byte = |(mean, _min): (Duration, Duration)| mean.as_nanos() as f64 / bytes as f64;
    let categories = Arc::new(CompiledCategories::standard());
    let scan_ns = per_byte(measure(20, || {
        for text in &texts {
            categories.matcher().scan(text, |m| {
                black_box(m);
                true
            });
        }
    }));
    // 32 bytes is what eight decode tokens materialize per chunk.
    let stream_in_chunks = |text: &str| {
        let mut stream = StreamingSanitizer::new(Arc::clone(&categories));
        for chunk in text.as_bytes().chunks(32) {
            // The prompts are ASCII, so any cut is a character boundary.
            black_box(stream.push(std::str::from_utf8(chunk).unwrap()));
        }
        black_box(stream.finish());
        stream.scanned_bytes()
    };
    for text in &texts {
        assert_eq!(
            stream_in_chunks(text),
            text.len() as u64,
            "the chunked sanitizer must scan each pushed byte exactly once"
        );
    }
    let stream_ns = per_byte(measure(20, || {
        for text in &texts {
            black_box(stream_in_chunks(text));
        }
    }));
    let crc_ns = per_byte(measure(20, || {
        for text in &texts {
            black_box(crc32(text.as_bytes()));
        }
    }));
    let mut escaped = String::with_capacity(2 * texts[0].len());
    let escape_ns = per_byte(measure(20, || {
        for text in &texts {
            escaped.clear();
            push_escaped(&mut escaped, text);
            black_box(&escaped);
        }
    }));
    println!(
        "e15: per-byte kernels (64x{}B) scan {scan_ns:.2} ns/B, 32B-chunk streaming sanitizer \
         {stream_ns:.2} ns/B, crc32 {crc_ns:.2} ns/B, escape {escape_ns:.2} ns/B; \
         chunked bytes scanned == bytes pushed",
        texts[0].len(),
    );

    BenchJson::new("e15", "scan_throughput")
        .metric("patterns", patterns.len() as f64)
        .metric("scan_ns_per_byte", scan_ns)
        .metric("stream_sanitize_32b_ns_per_byte", stream_ns)
        .metric("crc32_ns_per_byte", crc_ns)
        .metric("escape_ns_per_byte", escape_ns)
        .metric("naive_scan_s", naive_scan.as_secs_f64())
        .metric("automaton_scan_s", automaton_scan.as_secs_f64())
        .metric("naive_batch_s", naive_batch.as_secs_f64())
        .metric("automaton_batch_s", automaton_batch.as_secs_f64())
        .bar("scan_speedup", scan_speedup, 5.0)
        .bar("serve_batch_speedup", e2e_speedup, 1.5)
        .write();
}
