//! The evaluation program: E1–E21 as one registry, one link.
//!
//! ```text
//! cargo bench -p guillotine-bench --bench experiments               # all 21, in order
//! cargo bench -p guillotine-bench --bench experiments -- e19 e20    # the named ones
//! cargo bench -p guillotine-bench --bench experiments -- --list     # the registry
//! ```
//!
//! An unknown id exits non-zero naming the known ones. Artifacts
//! (`BENCH_e13…e21.json` and the e19–e21 dumps) land in the working
//! directory, which for `cargo bench` is the bench crate root.

mod e13_batch_throughput;
mod e14_fleet_throughput;
mod e15_scan_throughput;
mod e16_kv_cache;
mod e17_admission;
mod e18_streaming;
mod e19_chaos;
mod e20_recovery;
mod e21_observability;
mod fixtures;
mod tables;

use std::process::ExitCode;

/// `(id, what it measures, how to run it)`.
type Experiment = (&'static str, &'static str, fn());

#[rustfmt::skip]
const REGISTRY: &[Experiment] = &[
    ("e1", "prime+probe side-channel leakage, shared vs disjoint hierarchies", tables::e1),
    ("e2", "MMU executable-region lockdown vs runtime code injection", tables::e2),
    ("e3", "port-mediated IO vs direct (SR-IOV-style) device access", tables::e3),
    ("e4", "interrupt-flood livelock prevention via LAPIC throttling", tables::e4),
    ("e5", "isolation-level transition latencies and the escalation ratchet", tables::e5),
    ("e6", "quorum-voting robustness under administrator corruption", tables::e6),
    ("e7", "heartbeat failure-detection latency under packet loss", tables::e7),
    ("e8", "misbehavior-detector efficacy and throughput", tables::e8),
    ("e9", "attested handshakes, self-identification and collusion refusal", tables::e9),
    ("e10", "audit-log completeness and per-request overhead", tables::e10),
    ("e11", "systemic-risk classification, compliance and safe harbor", tables::e11),
    ("e12", "the end-to-end escape campaign, Guillotine vs the traditional baseline", tables::e12),
    ("e13", "batched serving throughput, serve_batch vs a serve_prompt loop", e13_batch_throughput::run),
    ("e14", "fleet serving throughput at 1, 2 and 8 shards", e14_fleet_throughput::run),
    ("e15", "single-pass multi-pattern scan vs the naive detectors", e15_scan_throughput::run),
    ("e16", "KV/prefix cache reuse on a session-replay workload", e16_kv_cache::run),
    ("e17", "deadline/priority batch forming vs naive admission", e17_admission::run),
    ("e18", "time-to-first-token forming and mid-stream severing", e18_streaming::run),
    ("e19", "availability under a seeded fault schedule, recovery on vs off", e19_chaos::run),
    ("e20", "control-plane crash recovery at different snapshot cadences", e20_recovery::run),
    ("e21", "what end-to-end tracing costs, and what it proves", e21_observability::run),
];

/// The registry as `--list` prints it: one `id  description` line each.
fn listing() -> String {
    REGISTRY
        .iter()
        .map(|(id, description, _)| format!("{id:<4} {description}\n"))
        .collect()
}

/// The experiments an invocation names, in the order named — all of them
/// when it names none. `None` means `--list`. The `--bench` flag cargo
/// appends is ignored.
fn select(args: &[String]) -> Result<Option<Vec<&'static Experiment>>, String> {
    let mut chosen = Vec::new();
    for arg in args.iter().filter(|arg| *arg != "--bench") {
        if arg == "--list" {
            return Ok(None);
        }
        let found = REGISTRY.iter().find(|(id, ..)| id == arg);
        chosen.push(found.ok_or_else(|| {
            let known: Vec<&str> = REGISTRY.iter().map(|(id, ..)| *id).collect();
            format!("unknown experiment `{arg}`; known: {}", known.join(" "))
        })?);
    }
    if chosen.is_empty() {
        chosen.extend(REGISTRY);
    }
    Ok(Some(chosen))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match select(&args) {
        Ok(Some(chosen)) => chosen.iter().for_each(|(_, _, run)| run()),
        Ok(None) => print!("{}", listing()),
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    // No `use super::*`: cargo builds a `harness = false` bench with
    // `cfg(test)` on and the `#[test]` functions stripped, so a module-level
    // import here would be unused there.

    #[test]
    fn every_experiment_is_registered_once_in_order() {
        let expected: Vec<String> = (1..=21).map(|n| format!("e{n}")).collect();
        let registered: Vec<&str> = super::REGISTRY.iter().map(|(id, ..)| *id).collect();
        assert_eq!(registered, expected);
    }

    #[test]
    fn list_prints_one_line_per_experiment() {
        let listing = super::listing();
        assert_eq!(listing.lines().count(), 21);
        assert!(listing.starts_with("e1   prime+probe side-channel leakage"));
        assert!(listing.contains("\ne21  what end-to-end tracing costs, and what it proves\n"));
        let args = ["e19", "--list", "--bench"].map(String::from);
        assert!(matches!(super::select(&args), Ok(None)));
    }

    #[test]
    fn no_ids_selects_all_and_named_ids_select_themselves_in_the_order_named() {
        let all = super::select(&["--bench".to_string()]).unwrap().unwrap();
        assert_eq!(all.len(), 21);
        let named = super::select(&["e20", "e19", "--bench"].map(String::from));
        let named: Vec<&str> = named.unwrap().unwrap().iter().map(|e| e.0).collect();
        assert_eq!(named, ["e20", "e19"]);
    }

    #[test]
    fn an_unknown_id_is_an_error_naming_the_known_ones() {
        let Err(message) = super::select(&["e19", "e22"].map(String::from)) else {
            panic!("e22 is not an experiment");
        };
        assert!(message.contains("unknown experiment `e22`"));
        assert!(message.contains("e1 e2 e3") && message.ends_with("e21"));
    }
}
