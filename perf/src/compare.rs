//! `perf compare A.json B.json`: one row per workload × end-to-end metric,
//! judged by the catalogue's bounds.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::json::Json;
use crate::report::{is_exact, Better, MetricDef, END_TO_END, ZERO_BASE_BOUND};
use crate::stats::quartiles;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Same,
    Better,
    Worse,
    /// The run-to-run spread is wider than the bound, so the medians
    /// cannot say.
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Values of each `(workload, metric)` over a document's untraced runs.
type Samples = BTreeMap<(String, String), Vec<f64>>;

pub fn samples(doc: &Json) -> Result<Samples, String> {
    let runs = doc
        .get("runs")
        .and_then(Json::array)
        .ok_or("no \"runs\" array")?;
    let mut out = Samples::new();
    for run in runs
        .iter()
        .filter(|r| r.get("trace") == Some(&Json::Bool(false)))
    {
        let workload = run
            .get("workload")
            .and_then(Json::str)
            .ok_or("run without a workload")?;
        let metrics = run
            .get("metrics")
            .and_then(Json::object)
            .ok_or("run without metrics")?;
        for (name, m) in metrics {
            let value = m
                .get("value")
                .and_then(Json::num)
                .ok_or("metric without a value")?;
            out.entry((workload.to_string(), name.clone()))
                .or_default()
                .push(value);
        }
    }
    Ok(out)
}

/// `b` against baseline `a`.
pub fn judge(def: &MetricDef, exact: bool, a: &[f64], b: &[f64]) -> Verdict {
    let ((a1, a_med, a3), (b1, b_med, b3)) = (quartiles(a), quartiles(b));
    if exact && a.iter().chain(b).all(|v| v.to_bits() == a[0].to_bits()) {
        return Verdict::Same;
    }
    // Everything in units of "how much worse", as a share of the baseline
    // (absolute where the baseline is 0).
    let (scale, bound) = match a_med == 0.0 {
        true => (
            1.0,
            ZERO_BASE_BOUND.min(def.bound.expect("end-to-end metric")),
        ),
        false => (a_med.abs(), def.bound.expect("end-to-end metric")),
    };
    let sign = match def.better {
        Better::Lower => 1.0,
        Better::Higher => -1.0,
    };
    let worse_by = sign * (b_med - a_med) / scale;
    let spread = (a3 - a1).max(b3 - b1) / scale;
    let worst = |v: &[f64]| v.iter().map(|x| sign * x).fold(f64::MIN, f64::max);
    let best = |v: &[f64]| v.iter().map(|x| sign * x).fold(f64::MAX, f64::min);
    if spread > bound && worst(b) >= best(a) && worst(a) >= best(b) {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// The comparison table, and whether any row is `worse`.
pub fn compare(a: &Json, b: &Json) -> Result<(String, bool), String> {
    let (a, b) = (samples(a)?, samples(b)?);
    let mut table = String::new();
    let mut any_worse = false;
    writeln!(
        table,
        "{:<16} {:<17} {:>13} {:>27} {:>13} {:>27} {:>8} {:>6}  verdict",
        "workload", "metric", "A median", "A [q1, q3]", "B median", "B [q1, q3]", "B vs A", "bound"
    )
    .expect("write to string");
    for ((workload, name), a_values) in &a {
        let Some(def) = END_TO_END.iter().find(|m| m.name == name) else {
            continue;
        };
        let Some(b_values) = b.get(&(workload.clone(), name.clone())) else {
            continue;
        };
        let verdict = judge(def, is_exact(workload, def), a_values, b_values);
        any_worse |= verdict == Verdict::Worse;
        let ((a1, a_med, a3), (b1, b_med, b3)) = (quartiles(a_values), quartiles(b_values));
        let change = match a_med == 0.0 {
            true => format!("{:+.4}", b_med - a_med),
            false => format!("{:+.2}%", 100.0 * (b_med - a_med) / a_med),
        };
        writeln!(
            table,
            "{workload:<16} {name:<17} {a_med:>13.4} {:>27} {b_med:>13.4} {:>27} {change:>8} {:>5.1}%  {}",
            format!("[{a1:.4}, {a3:.4}]"),
            format!("[{b1:.4}, {b3:.4}]"),
            100.0 * def.bound.expect("end-to-end metric"),
            verdict.name(),
        )
        .expect("write to string");
    }
    Ok((table, any_worse))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::metric;

    #[test]
    fn verdicts() {
        let with_bound = |better| MetricDef {
            name: "m",
            unit: "u",
            better,
            bound: Some(0.08),
            count: false,
        };
        let (ops, p50) = (&with_bound(Better::Higher), &with_bound(Better::Lower));
        let tight = [100.0, 101.0, 99.0, 100.5];
        assert_eq!(
            judge(ops, false, &tight, &[100.0, 102.0, 98.5, 101.0]),
            Verdict::Same
        );
        assert_eq!(
            judge(ops, false, &tight, &[80.0, 81.0, 79.0, 80.5]),
            Verdict::Worse
        );
        assert_eq!(
            judge(ops, false, &tight, &[120.0, 121.0, 119.0, 120.5]),
            Verdict::Better
        );
        assert_eq!(
            judge(p50, false, &tight, &[120.0, 121.0, 119.0, 120.5]),
            Verdict::Worse
        );
        assert_eq!(
            judge(p50, false, &tight, &[80.0, 81.0, 79.0, 80.5]),
            Verdict::Better
        );
        // Spread wider than the bound and overlapping runs: cannot say.
        let noisy = [100.0, 130.0, 80.0, 115.0];
        assert_eq!(
            judge(p50, false, &noisy, &[95.0, 125.0, 85.0, 110.0]),
            Verdict::Unresolved
        );
        // ... unless every run of B beats every run of A.
        assert_eq!(
            judge(p50, false, &noisy, &[40.0, 70.0, 30.0, 60.0]),
            Verdict::Better
        );
    }

    #[test]
    fn zero_baselines_and_exact_counts() {
        let flushes = metric("flushes_per_op").unwrap();
        let zeros = [0.0, 0.0, 0.0];
        assert_eq!(judge(flushes, true, &zeros, &zeros), Verdict::Same);
        assert_eq!(judge(flushes, true, &zeros, &[0.005; 3]), Verdict::Same);
        assert_eq!(judge(flushes, true, &zeros, &[0.02; 3]), Verdict::Worse);
        assert_eq!(judge(flushes, true, &[2.94; 3], &[2.94; 3]), Verdict::Same);
        assert_eq!(judge(flushes, true, &[2.94; 3], &[3.80; 3]), Verdict::Worse);
        let failed = metric("failed_frac").unwrap();
        assert_eq!(judge(failed, true, &zeros, &[1e-6; 3]), Verdict::Worse);
    }

    #[test]
    fn reads_documents_and_builds_a_table() {
        let doc = |ops: f64| {
            let run = |v: f64, trace: bool| {
                format!(
                    "{{\"workload\": \"tree_read\", \"trace\": {trace}, \"metrics\": \
                     {{\"ops_per_s\": {{\"value\": {v}, \"unit\": \"1/s\"}}}}}}"
                )
            };
            let runs = [run(ops, false), run(ops * 1.01, false), run(1.0, true)].join(",");
            Json::parse(&format!("{{\"runs\": [{runs}]}}")).unwrap()
        };
        let (table, worse) = compare(&doc(1000.0), &doc(700.0)).unwrap();
        assert!(worse && table.contains("worse") && table.contains("-30.00%"));
        let (table, worse) = compare(&doc(1000.0), &doc(1001.0)).unwrap();
        assert!(!worse && table.contains("same"));
        assert_eq!(
            samples(&doc(5.0)).unwrap().values().next().unwrap().len(),
            2
        );
    }
}
