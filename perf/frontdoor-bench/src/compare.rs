//! `--compare A.json B.json`: per workload × end-to-end metric, is the
//! change (B) better than, the same as, or worse than the parent (A)?

use crate::json::Json;
use crate::metrics::{Better, EndToEnd, END_TO_END, FAIL_FRAC};

/// How one metric moved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Improved by more than the bound.
    Better,
    /// Within the bound either way.
    Same,
    /// Worsened by more than the bound.
    Worse,
    /// Worsened by more than the bound, but the runs' own round-to-round
    /// spread is wider than the bound and wider than the gap: the runs
    /// overlap and the difference cannot be told from noise.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// How much `change` is worse than `parent`, as a share of `parent`
/// (negative when it is better).
pub fn worsening(better: Better, parent: f64, change: f64) -> f64 {
    let delta = match better {
        Better::Lower => change - parent,
        Better::Higher => parent - change,
    };
    if parent == 0.0 {
        // A zero parent has no share to speak of; any move is total.
        delta.signum() * f64::from(u8::from(delta != 0.0))
    } else {
        delta / parent.abs()
    }
}

/// Judges one metric. `spread` is the larger `bench.round_spread` of the
/// two runs; `strict` demands that exact metrics repeat exactly (the same
/// code run twice).
pub fn judge(
    metric: &EndToEnd,
    bound: f64,
    parent: f64,
    change: f64,
    spread: f64,
    strict: bool,
) -> Verdict {
    let worse_by = worsening(metric.better, parent, change);
    if strict && metric.exact {
        return if parent == change {
            Verdict::Same
        } else {
            Verdict::Worse
        };
    }
    if worse_by > bound {
        // Only host-clock metrics are noisy; counts and the simulated
        // clock either moved or did not.
        if !metric.exact && spread > bound && worse_by.abs() <= spread {
            Verdict::Unresolved
        } else {
            Verdict::Worse
        }
    } else if -worse_by > bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

fn metric_value(workload: &Json, group: &str, name: &str) -> Option<f64> {
    workload.get(group)?.get(name)?.get("value")?.as_f64()
}

/// Compares two result documents; prints the table and returns true when
/// nothing is `worse` and no `fail_frac` rose.
pub fn compare(parent: &Json, change: &Json, strict: bool) -> Result<bool, String> {
    let same_seed = match (parent.get("seed"), change.get("seed")) {
        (Some(a), Some(b)) => a == b,
        _ => false,
    };
    let parent_workloads = parent
        .get("workloads")
        .ok_or("parent has no \"workloads\"")?;
    let change_workloads = change
        .get("workloads")
        .ok_or("change has no \"workloads\"")?;
    println!(
        "{:<16} {:<22} {:>16} {:>16} {:>9} {:>7}  verdict   ({} bounds)",
        "workload",
        "metric",
        "parent",
        "change",
        "delta",
        "bound",
        if same_seed { "same-seed" } else { "cross-seed" }
    );
    let mut ok = true;
    for (name, before) in parent_workloads.fields() {
        let Some(after) = change_workloads.get(name) else {
            println!("{name:<16} missing from the change: worse");
            ok = false;
            continue;
        };
        let spread = [before, after]
            .iter()
            .filter_map(|run| metric_value(run, "per_layer", "bench.round_spread"))
            .fold(0.0, f64::max);
        for metric in &END_TO_END {
            let (Some(a), Some(b)) = (
                metric_value(before, "end_to_end", metric.name),
                metric_value(after, "end_to_end", metric.name),
            ) else {
                println!("{name:<16} {:<22} missing: worse", metric.name);
                ok = false;
                continue;
            };
            let bound = if same_seed {
                metric.same_seed_bound
            } else {
                metric.bound
            };
            let verdict = judge(metric, bound, a, b, spread, strict && same_seed);
            if verdict == Verdict::Worse {
                ok = false;
            }
            println!(
                "{name:<16} {:<22} {a:>16.6} {b:>16.6} {:>+8.2}% {:>6.1}%  {}",
                metric.name,
                -100.0 * worsening(metric.better, a, b),
                100.0 * bound,
                verdict.as_str()
            );
        }
        let fails = (
            metric_value(before, "per_layer", FAIL_FRAC).unwrap_or(0.0),
            metric_value(after, "per_layer", FAIL_FRAC).unwrap_or(0.0),
        );
        let rose = fails.1 > fails.0;
        println!(
            "{name:<16} {FAIL_FRAC:<22} {:>16.6} {:>16.6} {:>9} {:>7}  {}",
            fails.0,
            fails.1,
            "",
            "any",
            if rose { "worse" } else { "same" }
        );
        if rose {
            ok = false;
        }
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(name: &str) -> &'static EndToEnd {
        END_TO_END.iter().find(|m| m.name == name).unwrap()
    }

    #[test]
    fn worsening_follows_the_metrics_direction() {
        assert!((worsening(Better::Higher, 100.0, 90.0) - 0.1).abs() < 1e-12);
        assert!((worsening(Better::Lower, 100.0, 90.0) + 0.1).abs() < 1e-12);
        assert_eq!(worsening(Better::Lower, 0.0, 0.0), 0.0);
        assert_eq!(worsening(Better::Lower, 0.0, 0.5), 1.0);
    }

    #[test]
    fn verdicts_respect_bound_direction_and_noise() {
        let rps = metric("req_per_s");
        assert_eq!(judge(rps, 0.07, 1000.0, 1050.0, 0.01, false), Verdict::Same);
        assert_eq!(
            judge(rps, 0.07, 1000.0, 1100.0, 0.01, false),
            Verdict::Better
        );
        assert_eq!(judge(rps, 0.07, 1000.0, 900.0, 0.01, false), Verdict::Worse);
        // A 10 % drop inside a 12 % round spread cannot be called.
        assert_eq!(
            judge(rps, 0.07, 1000.0, 900.0, 0.12, false),
            Verdict::Unresolved
        );
        // ...but a 30 % drop can.
        assert_eq!(judge(rps, 0.07, 1000.0, 700.0, 0.12, false), Verdict::Worse);

        // The simulated clock is never noisy, and repeats exactly.
        let ttft = metric("sim_ttft_p95_ms");
        assert_eq!(judge(ttft, 0.0, 61.5, 61.6, 0.5, false), Verdict::Worse);
        assert_eq!(judge(ttft, 0.0, 61.5, 61.5, 0.5, true), Verdict::Same);
        assert_eq!(judge(ttft, 0.0, 61.5, 61.4, 0.5, true), Verdict::Worse);
        assert_eq!(judge(ttft, 0.0, 61.5, 61.4, 0.5, false), Verdict::Better);
    }
}
