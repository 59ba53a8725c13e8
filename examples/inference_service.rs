//! Inference service: drive a synthetic model-service workload (multi-turn
//! sessions, RAG lookups, an adversarial tail) through the Guillotine
//! batched front door with a KV tier attached, and report service-level and
//! hypervisor-level statistics side by side.
//!
//! Run with: `cargo run --example inference_service`

use guillotine::deployment::GuillotineDeployment;
use guillotine::serve::{ServeOutcomeKind, ServeRequest};
use guillotine::KvCacheConfig;
use guillotine_hw::IoOpcode;
use guillotine_model::{WorkloadConfig, WorkloadGenerator};
use guillotine_types::{SessionId, SimDuration};

const BATCH: usize = 32;

fn main() -> guillotine_types::Result<()> {
    let mut deployment = GuillotineDeployment::builder()
        .with_kv_cache(KvCacheConfig::default())
        .build()?;
    let mut generator = WorkloadGenerator::new(WorkloadConfig {
        arrival_rate: 200.0,
        adversarial_fraction: 0.08,
        ..WorkloadConfig::default()
    });
    let gpu_port = deployment.ports().gpu;
    let rag_port = deployment.ports().rag;

    // One hostile prompt severs the deployment for good (fail closed, by
    // design), so the adversarial tail is served last: the benign waves in
    // front of it are what the service-level numbers describe.
    let mut requests = generator.batch(500);
    requests.sort_by_key(|r| r.class.is_adversarial());

    // Slot `i` of every wave is one more turn of session `i`: the prompt
    // extends that session's conversation so far, so the KV tier serves the
    // prefix and only the new turn is prefilled.
    let mut conversations = vec![String::new(); BATCH];
    let mut finished = 0u64;
    let mut latency = SimDuration::ZERO;
    let mut flagged = 0u64;
    let mut blocked = 0u64;
    let mut escalated = 0u64;
    // Every prompt goes through the screened front door, BATCH at a time —
    // the per-batch weight sweep and system snapshot amortize across each
    // wave, exactly what serve_batch exists for.
    for wave in requests.chunks(BATCH) {
        let batch: Vec<ServeRequest> = wave
            .iter()
            .zip(conversations.iter_mut())
            .enumerate()
            .map(|(session, (request, conversation))| {
                conversation.push_str(&request.prompt);
                conversation.push(' ');
                ServeRequest::new(conversation.clone()).with_session(SessionId::new(session as u32))
            })
            .collect();
        let responses = deployment.serve_batch(batch)?;
        let mut admitted = Vec::new();
        for (request, response) in wave.iter().zip(&responses) {
            if response.flagged() {
                flagged += 1;
            }
            match response.outcome {
                ServeOutcomeKind::Escalated => escalated += 1,
                ServeOutcomeKind::Refused => blocked += 1,
                _ => {
                    finished += 1;
                    latency = latency.saturating_add(response.latency.total());
                    admitted.push(request);
                }
            }
        }
        // The admitted requests' compute and retrieval go through ports.
        for request in admitted {
            deployment.hypervisor_mut().submit_model_request(
                gpu_port,
                IoOpcode::Send,
                request.output_tokens.to_le_bytes().to_vec(),
            )?;
            if request.needs_rag {
                deployment.hypervisor_mut().submit_model_request(
                    rag_port,
                    IoOpcode::Receive,
                    request.prompt.clone().into_bytes(),
                )?;
            }
        }
        let now = deployment.clock.now();
        deployment.hypervisor_mut().service_io(now)?;
        while deployment.hypervisor_mut().take_model_response()?.is_some() {}
    }

    let kv = deployment.kv_stats().unwrap_or_default();
    println!("--- Service-level statistics ---");
    println!("requests submitted : {}", requests.len());
    println!("inferences finished: {finished}");
    println!("forward launches   : {}", deployment.forward_launches());
    println!("KV-cache hit rate  : {:.2}", kv.hit_rate());
    println!("prompt token reuse : {:.2}", kv.token_reuse_rate());
    println!("tokens prefilled   : {}", kv.prefilled_tokens);
    println!(
        "mean latency       : {}",
        SimDuration::from_nanos(latency.as_nanos() / finished.max(1))
    );

    let io = deployment.hypervisor().io_report();
    println!("\n--- Hypervisor-level statistics ---");
    println!("port requests served: {}", io.served);
    println!("port requests denied: {}", io.denied);
    println!("payloads flagged    : {}", io.flagged);
    println!("prompts flagged     : {flagged}");
    println!("prompts blocked     : {blocked}");
    println!("prompts escalated   : {escalated}");
    println!("final isolation     : {}", deployment.isolation_level());
    println!(
        "audit events        : {}",
        deployment.hypervisor().machine().events().total_appended()
    );
    Ok(())
}
