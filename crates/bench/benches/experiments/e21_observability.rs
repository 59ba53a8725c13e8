//! E21: observability — what end-to-end tracing costs, and what it proves.
//!
//! Two halves:
//!
//! * **Overhead** — the e13 workload (repeated 64-prompt batches) runs
//!   through two identical fleets, telemetry off vs
//!   [`TelemetryConfig::full`] (every span, no sampling). Asserted: the
//!   traced fleet records exactly `WORKLOAD_SPANS` spans and the untraced
//!   one none — the cost of tracing as a count. The throughput ratio is
//!   recorded against a 0.90 bar in `BENCH_e21.json` but not enforced: a
//!   wall-clock bar on a 4 ms run flakes on a shared box (allocation cost
//!   per span is gated by `tests/alloc_budget.rs`).
//! * **Completeness under chaos** — the e19 seeded fault schedule plays
//!   against a traced, journaled, self-healing door. Every served ticket
//!   must end with a complete causal span tree (root + resolvable
//!   parent/follows links), the tracer must hold zero orphans, and the
//!   flight recorder must carry one correlation entry per injected fault,
//!   joining it to the tickets whose recovery it forced — and every crash
//!   incident it dumped must name the crash fault of its own shard, though
//!   a pre-armed crash fires before the chaos engine has noted it.
//!
//! Artifacts: `METRICS_e21.json` (the front door's metrics export) and
//! `FLIGHT_RECORDER_e21.json` (incident dumps + fault correlations), both
//! archived by CI next to `BENCH_e21.json`.

use super::fixtures::{
    chaos_door, e19_plan, e19_trace, fleet4, play, release_note_prompts, E19_SEED as SEED,
};
use guillotine::admission::JournalConfig;
use guillotine::recovery::RecoveryConfig;
use guillotine::serve::ServeRequest;
use guillotine::{AdmissionDecision, IncidentKind, TelemetryConfig};
use guillotine_bench::{time, BenchJson};
use guillotine_types::TicketId;

const BATCH: usize = 64;
const ROUNDS: usize = 12;
const TRIALS: usize = 5;
/// Spans a fully traced run of the workload records (the warm-up prompt
/// included): batch, sub-batch and per-request stage spans. Only a change
/// to what the serve path records moves this number.
const WORKLOAD_SPANS: usize = 4639;

/// One run of `ROUNDS` 64-prompt batches: wall-clock seconds, and the
/// spans the fleet's tracer holds afterwards.
fn run_workload(traced: bool) -> (f64, usize) {
    let texts = release_note_prompts(BATCH);
    let mut f = fleet4();
    if traced {
        f.enable_telemetry(TelemetryConfig::full());
    }
    // Warmup outside the timed window.
    f.serve_batch(vec![ServeRequest::new("warmup")]).unwrap();
    let start = std::time::Instant::now();
    for _ in 0..ROUNDS {
        let responses = f
            .serve_batch(texts.iter().map(|p| ServeRequest::new(p.clone())).collect())
            .unwrap();
        assert_eq!(responses.len(), BATCH);
    }
    let seconds = start.elapsed().as_secs_f64();
    (seconds, f.telemetry().tracer().len())
}

/// Best-of-`TRIALS` wall-clock for both modes, trials interleaved so a
/// scheduler hiccup or frequency shift hits untraced and traced runs
/// alike. What tracing *records* is deterministic and asserted per trial.
fn workload_seconds() -> (f64, f64) {
    let mut best_plain = f64::INFINITY;
    let mut best_traced = f64::INFINITY;
    for _ in 0..TRIALS {
        let (plain_s, plain_spans) = run_workload(false);
        let (traced_s, traced_spans) = run_workload(true);
        assert_eq!(plain_spans, 0, "an untraced fleet records no span");
        assert_eq!(
            traced_spans, WORKLOAD_SPANS,
            "full tracing records exactly the pinned span count"
        );
        best_plain = best_plain.min(plain_s);
        best_traced = best_traced.min(traced_s);
    }
    (best_plain, best_traced)
}

pub fn run() {
    // ---- Overhead: traced vs untraced e13 workload. ----
    let (plain_s, traced_s) = workload_seconds();
    let served = (BATCH * ROUNDS) as f64;
    let plain_rps = served / plain_s.max(1e-9);
    let traced_rps = served / traced_s.max(1e-9);
    let ratio = traced_rps / plain_rps.max(1e-9);
    println!(
        "e21: {ROUNDS}x{BATCH} prompts -> untraced {plain_rps:.0} req/s, full tracing \
         {traced_rps:.0} req/s ({:.1}% overhead)",
        (1.0 - ratio) * 100.0
    );

    // ---- Completeness under the seeded chaos schedule. ----
    let door = chaos_door(RecoveryConfig::default())
        .with_journal(JournalConfig::default())
        .with_telemetry(TelemetryConfig::full());
    let run = play(door, e19_plan(), e19_trace());
    let door = &run.door;
    let tickets: Vec<TicketId> = run
        .decisions
        .iter()
        .filter_map(|d| match d {
            AdmissionDecision::Enqueued { ticket, .. } => Some(*ticket),
            AdmissionDecision::Shed {
                admitted: Some(t), ..
            } => Some(*t),
            _ => None,
        })
        .collect();
    assert_eq!(
        run.responses.len(),
        tickets.len(),
        "every admitted ticket is answered"
    );
    let telemetry = door.fleet().telemetry();
    let tracer = telemetry.tracer();
    let orphans = tracer.orphans().len();
    assert_eq!(orphans, 0, "no span may carry a dangling causal link");
    let complete = tickets
        .iter()
        .filter(|&&t| tracer.has_complete_tree(t))
        .count();
    assert_eq!(
        complete,
        tickets.len(),
        "every served ticket must have a complete span tree"
    );
    let faults = run.faults.records().len();
    let correlations = telemetry.recorder().correlations();
    assert_eq!(
        correlations.len(),
        faults,
        "one correlation entry per injected fault"
    );
    let delayed_total: usize = correlations.iter().map(|c| c.delayed_tickets.len()).sum();
    let incidents = telemetry.recorder().incidents().len();
    println!(
        "e21: seeded plan {SEED:#x} -> {} spans over {} tickets, {complete} complete trees, \
         {orphans} orphans, {incidents} incident dumps, {faults} faults correlated to \
         {delayed_total} delayed-ticket entries",
        tracer.len(),
        tickets.len(),
    );
    assert!(
        delayed_total > 0,
        "the seeded schedule must delay at least one ticket via recovery"
    );
    assert!(
        incidents > 0,
        "the schedule fires at least one incident dump"
    );

    let recorder = telemetry.recorder();
    let crashes = recorder.incidents().iter();
    let crashes = crashes.filter(|incident| incident.kind == IncidentKind::ShardCrash);
    for incident in crashes.clone() {
        let shard = incident.shard.expect("a shard crash names its shard");
        assert_eq!(
            recorder.fault_at(incident.at).map(|f| f.kind.as_str()),
            Some(format!("shard-crash(shard {shard})").as_str()),
            "a crash incident must be attributed to its own shard's crash fault"
        );
    }
    assert!(
        crashes.count() > 0,
        "the seeded plan always crashes shard 0"
    );

    let metrics_json = door.metrics().to_json();
    std::fs::write("METRICS_e21.json", &metrics_json).expect("write metrics");
    std::fs::write("FLIGHT_RECORDER_e21.json", telemetry.recorder().to_json())
        .expect("write flight recorder");
    println!("e21: wrote METRICS_e21.json and FLIGHT_RECORDER_e21.json");

    let stages = door.stats().stages;
    let mut json = BenchJson::new("e21", "observability");
    json.metric("untraced_req_per_s", plain_rps)
        .metric("traced_req_per_s", traced_rps)
        .metric("workload_span_count", WORKLOAD_SPANS as f64)
        .metric("span_count", tracer.len() as f64)
        .metric("traced_tickets", tickets.len() as f64)
        .metric("incident_dumps", incidents as f64)
        .metric("faults_correlated", faults as f64)
        .metric("delayed_ticket_entries", delayed_total as f64)
        .bar("tracing_throughput_ratio", ratio, 0.90)
        .bar(
            "complete_span_trees",
            complete as f64 / tickets.len().max(1) as f64,
            1.0,
        )
        .holds("no_orphan_spans", orphans == 0);
    for stage in stages.iter().filter(|s| s.stage.starts_with("serve.")) {
        json.metric(
            &format!("{}_p95_ns", stage.stage.replace('.', "_")),
            stage.p95_ns as f64,
        );
    }
    json.write();

    // Wall-clock: the traced workload, so regressions in the record path
    // show up as mean/min deltas.
    let texts = release_note_prompts(BATCH);
    let mut f = fleet4();
    f.enable_telemetry(TelemetryConfig::full());
    time("e21_observability/traced_batch64", 10, || {
        f.serve_batch(texts.iter().map(|p| ServeRequest::new(p.clone())).collect())
            .unwrap()
    });
}
