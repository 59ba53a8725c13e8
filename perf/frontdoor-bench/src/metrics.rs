//! Every metric the benchmark reports: name, unit, direction, and for the
//! end-to-end ones the regression bound. `BENCHMARK.json` declares the same
//! table; `--check` fails when the two disagree.

use crate::json::Json;
use std::collections::BTreeMap;

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

impl Better {
    /// `"higher"` / `"lower"`, as `BENCHMARK.json` spells it.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// An end-to-end metric.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the parent's value by which the metric may worsen before it
    /// counts as a regression, between runs whose `--seed` differs — the
    /// bound `BENCHMARK.json` declares. It has to cover the difference
    /// between traces, so it is loose for the simulated-clock metrics.
    pub bound: f64,
    /// The same, between runs with the same `--seed` (identical traces):
    /// what `--compare` applies then. Zero means any worsening counts.
    pub same_seed_bound: f64,
    /// True when the metric reads the simulated clock or an exact count, so
    /// two runs of the same code with the same seed agree to the last
    /// digit; `--repeat` demands that.
    pub exact: bool,
}

use Better::{Higher, Lower};

/// The end-to-end metrics, in reporting order.
pub const END_TO_END: [EndToEnd; 9] = [
    EndToEnd {
        name: "req_per_s",
        unit: "req/s",
        better: Higher,
        bound: 0.20,
        same_seed_bound: 0.07,
        exact: false,
    },
    EndToEnd {
        name: "cpu_us_per_req",
        unit: "us",
        better: Lower,
        bound: 0.20,
        same_seed_bound: 0.10,
        exact: false,
    },
    EndToEnd {
        name: "allocs_per_req",
        unit: "count",
        better: Lower,
        bound: 0.15,
        same_seed_bound: 0.01,
        exact: true,
    },
    EndToEnd {
        name: "alloc_bytes_per_req",
        unit: "bytes",
        better: Lower,
        bound: 0.15,
        same_seed_bound: 0.01,
        exact: true,
    },
    EndToEnd {
        name: "peak_live_mb",
        unit: "MB",
        better: Lower,
        bound: 0.10,
        same_seed_bound: 0.02,
        exact: false,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
        same_seed_bound: 0.25,
        exact: false,
    },
    EndToEnd {
        name: "sim_ttft_p95_ms",
        unit: "ms",
        better: Lower,
        bound: 0.15,
        same_seed_bound: 0.0,
        exact: true,
    },
    EndToEnd {
        name: "sim_goodput_frac",
        unit: "fraction",
        better: Higher,
        bound: 0.01,
        same_seed_bound: 0.0,
        exact: true,
    },
    EndToEnd {
        name: "sim_digest_stable",
        unit: "0/1",
        better: Higher,
        bound: 0.01,
        same_seed_bound: 0.0,
        exact: true,
    },
];

/// Share of submitted requests not served as their class expects. Zero on
/// every canonical workload, so it cannot carry a relative bound and is
/// declared with the per-layer metrics; any rise fails `--compare`.
pub const FAIL_FRAC: &str = "fail_frac";

/// The per-layer metrics: `(name, unit, better)`, grouped by layer.
pub const PER_LAYER: [(&str, &str, Better); 70] = [
    (FAIL_FRAC, "fraction", Lower),
    // core.admission: the door's own work around the fleet.
    ("core.admission.submit_ns_per_req", "ns/req", Lower),
    ("core.admission.pump_ns_per_req", "ns/req", Lower),
    ("core.admission.self_ns_per_req", "ns/req", Lower),
    ("core.admission.self_allocs_per_req", "allocs/req", Lower),
    ("core.admission.batches", "count", Lower),
    ("core.admission.mean_batch", "req/batch", Higher),
    ("core.admission.refused", "count", Lower),
    ("core.admission.sim_queue_wait_p95_ms", "ms", Lower),
    ("core.admission.last_quarter_over_first", "ratio", Lower),
    // admit: the queue and batch former alone, on the door's own stamps.
    ("admit.submit_ns_per_req", "ns/req", Lower),
    ("admit.form_ns_per_batch", "ns/batch", Lower),
    ("admit.depth_max", "count", Lower),
    // journal
    ("journal.delta_ns_per_req", "ns/req", Lower),
    ("journal.delta_allocs_per_req", "allocs/req", Lower),
    ("journal.append_ns_per_record", "ns/record", Lower),
    ("journal.wal_records_per_req", "records/req", Lower),
    ("journal.wal_bytes_per_req", "bytes/req", Lower),
    ("journal.snapshots", "count", Lower),
    ("journal.snapshot_bytes_mean", "bytes", Lower),
    ("journal.snapshot_bytes_last", "bytes", Lower),
    ("journal.recover_ms", "ms", Lower),
    // telemetry
    ("telemetry.delta_ns_per_req", "ns/req", Lower),
    ("telemetry.delta_allocs_per_req", "allocs/req", Lower),
    ("telemetry.spans_per_req", "spans/req", Lower),
    ("telemetry.orphans", "count", Lower),
    ("telemetry.incidents", "count", Lower),
    // core.recovery + chaos
    ("core.recovery.delta_ns_per_req", "ns/req", Lower),
    ("core.recovery.delta_allocs_per_req", "allocs/req", Lower),
    ("core.recovery.retries", "count", Lower),
    ("core.recovery.hedges", "count", Lower),
    ("core.recovery.requeued", "count", Lower),
    ("core.recovery.control_crashes", "count", Lower),
    ("core.recovery.wal_replayed", "count", Lower),
    ("core.recovery.sim_mttr_ms", "ms", Lower),
    ("core.recovery.sim_degraded_frac", "fraction", Lower),
    ("chaos.faults_injected", "count", Lower),
    // core.fleet
    ("core.fleet.serve_ns_per_req", "ns/req", Lower),
    ("core.fleet.self_ns_per_req", "ns/req", Lower),
    ("core.fleet.self_allocs_per_req", "allocs/req", Lower),
    ("core.fleet.launches_per_req", "launches/req", Lower),
    ("core.fleet.sub_batches_per_batch", "count", Lower),
    ("core.fleet.busiest_shard_share", "fraction", Lower),
    // core.deployment
    ("core.deployment.serve_ns_per_req", "ns/req", Lower),
    ("core.deployment.self_ns_per_req", "ns/req", Lower),
    ("core.deployment.self_allocs_per_req", "allocs/req", Lower),
    ("core.deployment.chunks_per_req", "chunks/req", Lower),
    // hv
    ("hv.screen_prompt_ns_per_req", "ns/req", Lower),
    ("hv.screen_response_ns_per_req", "ns/req", Lower),
    ("hv.self_ns_per_kb", "ns/KB", Lower),
    // detect + scan
    ("detect.shield_ns_per_kb", "ns/KB", Lower),
    ("detect.sanitize_ns_per_kb", "ns/KB", Lower),
    ("detect.stream_sanitize_ns_per_kb", "ns/KB", Lower),
    ("detect.flagged_frac", "fraction", Lower),
    ("detect.redacted_frac", "fraction", Lower),
    ("scan.ns_per_kb", "ns/KB", Lower),
    // model
    ("model.forward_ns_per_launch", "ns/launch", Lower),
    ("model.forward_ns_per_req", "ns/req", Lower),
    ("model.forward_share", "fraction", Lower),
    ("model.sweep_words_per_req", "words/req", Lower),
    ("model.prefilled_tokens_per_req", "tokens/req", Lower),
    ("model.kv_lookup_ns_per_req", "ns/req", Lower),
    ("model.kv_hit_frac", "fraction", Higher),
    ("model.kv_token_reuse_frac", "fraction", Higher),
    // bench: the harness itself. Diagnostics, never gating.
    ("bench.samples", "count", Higher),
    ("bench.episode_ms_p50", "ms", Lower),
    ("bench.episode_ms_p90", "ms", Lower),
    ("bench.round_spread", "fraction", Lower),
    ("bench.trace_overhead_frac", "fraction", Lower),
    ("bench.unattributed_frac", "fraction", Lower),
];

/// Measured values by metric name.
pub type Values = BTreeMap<&'static str, f64>;

/// The unit of a declared metric.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .find(|m| m.name == name)
        .map(|m| m.unit)
        .or_else(|| PER_LAYER.iter().find(|m| m.0 == name).map(|m| m.1))
}

/// `{name: {"value": v, "unit": u}}` for `names`, in that order. A name
/// missing from `values` is a bug in the harness, reported to the caller.
pub fn to_json<'a>(names: impl Iterator<Item = &'a str>, values: &Values) -> Result<Json, String> {
    let mut out = Json::object();
    for name in names {
        let value = values
            .get(name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        let unit = unit_of(name).ok_or_else(|| format!("metric {name} is not declared"))?;
        out.set(
            name,
            Json::object()
                .with("value", Json::Num(*value))
                .with("unit", Json::Str(unit.to_string())),
        );
    }
    Ok(out)
}

/// Prints `name value unit` lines for `names`.
pub fn print<'a>(names: impl Iterator<Item = &'a str>, values: &Values) {
    for name in names {
        if let (Some(value), Some(unit)) = (values.get(name), unit_of(name)) {
            println!("  {name:<44} {value:>16.6} {unit}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn names_are_unique_and_within_the_contracts_limits() {
        let mut seen = HashSet::new();
        let all = END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.0, m.1)));
        for (name, unit) in all {
            assert!(seen.insert(name), "{name} declared twice");
            assert!(name.len() <= 64 && unit.len() <= 16, "{name} {unit}");
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
        assert!(END_TO_END.iter().any(|m| m.name == "setup_s"));
    }
}
