//! E13: batched serving throughput.
//!
//! Measures `serve_batch` against an equivalent loop of `serve_prompt` calls
//! at batch sizes 1, 8 and 64. The batch path runs input shielding and the
//! system-anomaly snapshot batch-wide and launches the simulated forward
//! pass (one weight sweep per launch) once per batch, so throughput should
//! scale roughly with batch size; the acceptance bar is ≥2x at batch 64.

use super::fixtures::release_note_prompts as prompts;
use guillotine::deployment::{DeploymentConfig, GuillotineDeployment};
use guillotine::serve::ServeRequest;
use guillotine_bench::{time, BenchJson};

fn deployment() -> GuillotineDeployment {
    GuillotineDeployment::new(DeploymentConfig::default()).unwrap()
}

pub fn run() {
    // Headline number first: one explicit comparison at batch 64.
    let texts = prompts(64);
    let mut batched = deployment();
    let mut sequential = deployment();
    batched
        .serve_batch(vec![ServeRequest::new("warmup")])
        .unwrap();
    sequential.serve_prompt("warmup").unwrap();
    let start = std::time::Instant::now();
    let responses = batched
        .serve_batch(texts.iter().map(|p| ServeRequest::new(p.clone())).collect())
        .unwrap();
    let batch_time = start.elapsed();
    assert!(responses.iter().all(|r| r.delivered()));
    let start = std::time::Instant::now();
    for prompt in &texts {
        sequential.serve_prompt(prompt).unwrap();
    }
    let sequential_time = start.elapsed();
    let speedup = sequential_time.as_secs_f64() / batch_time.as_secs_f64().max(1e-9);
    println!(
        "e13: serve_batch(64) {batch_time:?} vs 64x serve_prompt {sequential_time:?} -> {speedup:.1}x speedup"
    );
    BenchJson::new("e13", "batch_throughput")
        .metric("batch64_wall_s", batch_time.as_secs_f64())
        .metric("sequential64_wall_s", sequential_time.as_secs_f64())
        .bar("batch64_wall_speedup", speedup, 2.0)
        .write();

    for size in [1usize, 8, 64] {
        let texts = prompts(size);
        let mut d = deployment();
        time(
            &format!("e13_batch_throughput/serve_batch/{size}"),
            10,
            || {
                d.serve_batch(texts.iter().map(|p| ServeRequest::new(p.clone())).collect())
                    .unwrap()
            },
        );
        let mut d = deployment();
        time(
            &format!("e13_batch_throughput/serve_prompt_loop/{size}"),
            10,
            || {
                for prompt in &texts {
                    d.serve_prompt(prompt).unwrap();
                }
            },
        );
    }
}
