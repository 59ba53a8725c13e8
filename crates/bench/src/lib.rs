//! Benchmark support crate.
//!
//! The evaluation is one bench target, `benches/experiments/`: a registry of
//! E1–E21, each wrapping experiment functions from `guillotine::experiments`
//! (or the escape campaign, or the serving stack itself) and printing the
//! results table or headline the paper's claims imply. `cargo bench -p
//! guillotine-bench --bench experiments` runs them all; `-- e19 e20` runs
//! the named ones and `-- --list` prints the registry.
//!
//! This library is what every experiment shares. [`measure`] / [`time`] are
//! the wall-clock side: one warm-up, N timed runs, mean and minimum.
//! [`BenchJson`] is the machine-readable side: every serving experiment
//! (e13–e21) builds one and writes `BENCH_<experiment>.json` into the
//! working directory, recording its headline metrics and acceptance bars so
//! CI can archive the numbers without scraping stdout.

use guillotine_types::encode::{json_escape, json_number};
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// One untimed warm-up call of `routine`, then `samples` timed calls (at
/// least one): the mean and the minimum wall-clock time per call.
pub fn measure<O>(samples: usize, mut routine: impl FnMut() -> O) -> (Duration, Duration) {
    black_box(routine());
    let samples: Vec<Duration> = (0..samples.max(1))
        .map(|_| {
            let start = Instant::now();
            black_box(routine());
            start.elapsed()
        })
        .collect();
    let mean = samples.iter().sum::<Duration>() / samples.len() as u32;
    (mean, samples.into_iter().min().unwrap_or_default())
}

/// [`measure`]s `routine` and prints the mean, the minimum and the sample
/// count under `label`; returns the mean for runs that hold it to a bar.
pub fn time<O>(label: &str, samples: usize, routine: impl FnMut() -> O) -> Duration {
    let samples = samples.max(1);
    let (mean, min) = measure(samples, routine);
    println!("{label:<48} mean {mean:>12?}   min {min:>12?}   ({samples} samples)");
    mean
}

/// One bench run's machine-readable results: named scalar metrics plus the
/// acceptance bars the run was held to. Serialized by hand — the workspace
/// is fully offline and the schema is flat, so no serde round-trip is worth
/// a dependency here.
#[derive(Debug, Clone, Default)]
pub struct BenchJson {
    experiment: String,
    bench: String,
    metrics: Vec<(String, f64)>,
    bars: Vec<Bar>,
}

#[derive(Debug, Clone)]
struct Bar {
    name: String,
    value: f64,
    threshold: f64,
    pass: bool,
}

impl BenchJson {
    /// Starts a report for one experiment: the short id (`"e18"`) names
    /// the `BENCH_<id>.json` artifact, the bench name describes the run.
    pub fn new(experiment: &str, bench: &str) -> Self {
        BenchJson {
            experiment: experiment.to_string(),
            bench: bench.to_string(),
            ..BenchJson::default()
        }
    }

    /// Records one named scalar metric.
    pub fn metric(&mut self, name: &str, value: f64) -> &mut Self {
        self.metrics.push((name.to_string(), value));
        self
    }

    /// Records one acceptance bar: `value` measured against a `>= threshold`
    /// pass condition. The pass flag is recorded, not enforced — benches
    /// that enforce a bar assert on it themselves.
    pub fn bar(&mut self, name: &str, value: f64, threshold: f64) -> &mut Self {
        self.bars.push(Bar {
            name: name.to_string(),
            value,
            threshold,
            pass: value >= threshold,
        });
        self
    }

    /// Records a yes/no acceptance bar (a zero-count witness, say) as 1 or 0
    /// against a threshold of 1.
    pub fn holds(&mut self, name: &str, ok: bool) -> &mut Self {
        self.bar(name, if ok { 1.0 } else { 0.0 }, 1.0)
    }

    /// The serialized JSON document.
    pub fn render(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(
            out,
            "  \"experiment\": \"{}\",",
            json_escape(&self.experiment)
        );
        let _ = writeln!(out, "  \"bench\": \"{}\",", json_escape(&self.bench));
        out.push_str("  \"metrics\": {");
        for (i, (name, value)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\n    \"{}\": {}",
                json_escape(name),
                json_number(*value)
            );
        }
        out.push_str("\n  },\n  \"acceptance\": [");
        for (i, bar) in self.bars.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\n    {{ \"name\": \"{}\", \"value\": {}, \"threshold\": {}, \"op\": \">=\", \"pass\": {} }}",
                json_escape(&bar.name),
                json_number(bar.value),
                json_number(bar.threshold),
                bar.pass
            );
        }
        out.push_str("\n  ]\n}\n");
        out
    }

    /// Writes `BENCH_<experiment>.json` in the current working directory
    /// (for `cargo bench` that is the bench crate root) and announces the
    /// path on stdout so the run log points at the artifact.
    pub fn write(&self) {
        let path = format!("BENCH_{}.json", self.experiment);
        std::fs::write(&path, self.render()).expect("write bench json");
        println!("{}: wrote {path}", self.experiment);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_runs_one_warm_up_then_the_samples() {
        let mut runs = 0u32;
        time("demo/counting", 3, || runs += 1);
        assert_eq!(runs, 4);
        // A sample count of zero still measures once.
        time("demo/clamped", 0, || runs += 1);
        assert_eq!(runs, 6);
    }

    #[test]
    fn renders_flat_json_with_metrics_and_bars() {
        let mut report = BenchJson::new("e99", "example");
        report
            .metric("throughput_req_per_s", 1234.5)
            .metric("weird", f64::NAN)
            .bar("speedup", 2.0, 1.5)
            .bar("misses", 0.5, 1.0);
        let doc = report.render();
        assert!(doc.contains("\"experiment\": \"e99\""));
        assert!(doc.contains("\"bench\": \"example\""));
        assert!(doc.contains("\"throughput_req_per_s\": 1234.5"));
        assert!(doc.contains("\"weird\": null"));
        assert!(doc.contains("\"pass\": true"));
        assert!(doc.contains("\"pass\": false"));
        // Balanced braces/brackets — the document parses as flat JSON.
        assert_eq!(doc.matches('{').count(), doc.matches('}').count());
        assert_eq!(doc.matches('[').count(), doc.matches(']').count());
    }
}
