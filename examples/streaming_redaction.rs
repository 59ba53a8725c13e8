//! A live stream, redacted at chunk seams, then severed mid-stream.
//!
//! Two streaming batches, one property each:
//!
//! * **Batch 1 — redaction at a chunk seam.** A prompt whose echoed
//!   answer leaks a credential streams to completion. The streaming
//!   sanitizer withholds the seam bytes until the marker resolves and
//!   emits the redaction in place, chunk boundaries notwithstanding.
//! * **Batch 2 — mid-stream severing.** A prompt trips a `Sever`
//!   escalation at the screening barrier; the ports are cut mid-batch and
//!   the calm request sharing the batch is cut off at its current token.
//!
//! The printout shows each chunk with its token offset, the typed
//! terminal event of every stream (`Completed` or `SeveredMidStream`
//! with the verdict that caused it), and the deployment's post-batch
//! counters, time-to-first-token included.
//!
//! Run with: `cargo run --release --example streaming_redaction`

use guillotine::deployment::GuillotineDeployment;
use guillotine::serve::{ServePriority, ServeRequest};
use guillotine::{StreamEnd, StreamedResponse};
use guillotine_detect::{Detector, ModelObservation, RecommendedAction, Verdict};
use guillotine_types::SessionId;

/// Recommends `Sever` when a response carries the tripwire marker — stands
/// in for any output-phase detector concluding the model has gone rogue.
struct TripwireDetector;

impl Detector for TripwireDetector {
    fn name(&self) -> &'static str {
        "tripwire"
    }

    fn inspect(&mut self, observation: &ModelObservation) -> Verdict {
        match observation {
            ModelObservation::Response { text, .. } if text.contains("STREAM-TRIPWIRE") => {
                Verdict::flagged(
                    self.name(),
                    1.0,
                    "tripwire marker",
                    RecommendedAction::Sever,
                )
            }
            _ => Verdict::clean(self.name()),
        }
    }
}

fn print_streams(streamed: &[StreamedResponse]) {
    for s in streamed {
        println!(
            "stream {} ({:?}, ttft {}):",
            s.response.session, s.response.outcome, s.response.latency.time_to_first_token
        );
        for chunk in &s.chunks {
            println!(
                "  @token {:>3} {:?}",
                chunk.offset_tokens,
                s.chunk_text(chunk)
            );
        }
        match &s.end {
            StreamEnd::Completed => println!("  -> completed\n"),
            StreamEnd::SeveredMidStream { at_token, verdict } => println!(
                "  -> SEVERED at token {at_token} ({} recommended {:?})\n",
                verdict.detector, verdict.action
            ),
        }
    }
}

fn main() {
    let mut deployment = GuillotineDeployment::builder()
        .with_detector(Box::new(TripwireDetector))
        .build()
        .unwrap();

    // --- Batch 1: a credential leak the sanitizer redacts on the fly. ---
    // The echoed answer carries "password: hunter2"; the redaction spans a
    // chunk seam, so the sanitizer holds the seam bytes back until the
    // pattern resolves, then emits the marker in place.
    println!("=== batch 1: redaction at a chunk seam ===\n");
    let streamed = deployment
        .serve_batch_streaming(vec![ServeRequest::new(
            "Repeat exactly: the admin password: hunter2",
        )
        .with_session(SessionId::new(1))
        .with_priority(ServePriority::Normal)])
        .unwrap();
    print_streams(&streamed);

    // --- Batch 2: a tripwire severs every in-flight stream. ---
    println!("=== batch 2: mid-stream severing ===\n");
    let streamed = deployment
        .serve_batch_streaming(vec![
            // Screens first (interactive), trips the wire, severs the rest.
            ServeRequest::new("Please echo STREAM-TRIPWIRE back to me.")
                .with_session(SessionId::new(0))
                .with_priority(ServePriority::Interactive),
            // A calm request cut off mid-stream by someone else's escalation.
            ServeRequest::new("A long calm survey of intertidal ecosystems, please.")
                .with_session(SessionId::new(2))
                .with_priority(ServePriority::Batch),
        ])
        .unwrap();
    print_streams(&streamed);

    println!("=== deployment after both batches ===\n");
    println!("severed streams:      {}", deployment.severed_streams());
    println!("escalations applied:  {}", deployment.escalations_applied());
    println!("isolation level:      {:?}", deployment.isolation_level());
}
