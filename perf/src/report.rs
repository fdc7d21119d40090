//! The metric catalogue — every name the benchmark can print, with its
//! unit, direction and bound — and the output formats.

use std::collections::BTreeMap;
use std::fmt::Write as _;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[cfg(test)]
impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end metrics: the share of the baseline's median by which
    /// the metric may worsen before it counts as a regression (where the
    /// baseline is 0, [`ZERO_BASE_BOUND`] absolute).
    pub bound: Option<f64>,
    /// A count, not a time: bit-identical between two same-seed runs on
    /// the single-threaded workloads (see [`is_exact`]).
    pub count: bool,
}

/// Bound, in the metric's own unit, where the baseline median is 0
/// (`flushes_per_op` on `tree_read`).
pub const ZERO_BASE_BOUND: f64 = 0.01;

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    count: bool,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
        count,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better, count: bool) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
        count,
    }
}

use Better::{Higher, Lower};

/// What a user of the store sees. Every workload reports all eight.
pub const END_TO_END: [MetricDef; 8] = [
    e2e("setup_s", "s", Lower, 0.25, false),
    e2e("ops_per_s", "1/s", Higher, 0.2, false),
    e2e("p50_us", "us", Lower, 0.2, false),
    e2e("p99_us", "us", Lower, 0.25, false),
    e2e("failed_frac", "ratio", Lower, 0.0, true),
    e2e("flushes_per_op", "lines/op", Lower, 0.01, true),
    e2e("fences_per_op", "fences/op", Lower, 0.01, true),
    e2e("pm_bytes_per_key", "B/key", Lower, 0.01, true),
];

/// The end-to-end metrics that can read 0 on a healthy run. The driver's
/// contract bounds a metric as a share of its baseline, so these three
/// are listed in `BENCHMARK.json` without a bound, beside the layer
/// metrics; `perf compare` still judges them by the bounds above.
pub const CAN_BE_ZERO: [&str; 3] = ["failed_frac", "flushes_per_op", "fences_per_op"];

/// Single layers, from the traced run. Those marked `†` in the README are
/// also printed by the untraced run where their source can be read there.
pub const PER_LAYER: [MetricDef; 56] = [
    // read path
    layer("pmem.serial_misses_per_op", "lines/op", Lower, true),
    layer("pmem.parallel_lines_per_op", "lines/op", Lower, true),
    layer("core.get_ns", "ns", Lower, false),
    layer("core.scan_row_ns", "ns", Lower, false),
    layer("core.phase_search_ns_per_op", "ns/op", Lower, false),
    layer("core.height", "levels", Lower, true),
    // write path
    layer("core.insert_ns", "ns", Lower, false),
    layer("core.update_ns", "ns", Lower, false),
    layer("core.remove_ns", "ns", Lower, false),
    layer("core.apply_batch_op_ns", "ns", Lower, false),
    layer("core.phase_update_ns_per_op", "ns/op", Lower, false),
    layer("core.self_ns_per_op", "ns/op", Lower, false),
    layer("core.shifts_per_op", "shifts/op", Lower, true),
    layer("core.shift_steps_per_shift", "records", Lower, true),
    layer("pmem.flushes_coalesced_per_op", "lines/op", Higher, true),
    layer("pmem.flush_ns_per_op", "ns/op", Lower, false),
    layer("pmem.floor_ns", "ns", Lower, false),
    // space and reclamation
    layer("pmem.allocs_per_kop", "1/kop", Lower, true),
    layer("pmem.recycled_per_kop", "1/kop", Higher, true),
    layer("pmem.high_water_bytes", "B", Lower, true),
    layer("epoch.advances_per_kop", "1/kop", Higher, true),
    layer("epoch.recycled_online_per_kop", "1/kop", Higher, true),
    layer("epoch.limbo_end", "count", Lower, true),
    // routing
    layer("shard.ns_per_op", "ns/op", Lower, false),
    layer("shard.self_ns_per_op", "ns/op", Lower, false),
    layer("shard.calls_per_op", "calls/op", Lower, true),
    layer("shard.imbalance", "ratio", Lower, true),
    layer("core.calls_per_op", "calls/op", Lower, true),
    // commit path
    layer("txn.commit_ns_per_op", "ns/op", Lower, false),
    layer("txn.self_ns_per_op", "ns/op", Lower, false),
    layer("txn.commits_per_kop", "1/kop", Lower, true),
    layer("txn.fences_per_commit", "fences", Lower, true),
    layer("txn.journal_flushes_per_op", "lines/op", Lower, true),
    // request handoff
    layer("service.self_us_per_op", "us/op", Lower, false),
    layer("service.worker_busy_frac", "ratio", Higher, false),
    layer("service.mean_group", "writes", Higher, false),
    layer("service.largest_group", "writes", Higher, false),
    layer("service.queue_high_water", "requests", Lower, false),
    layer("service.get_hist_p50_us", "us", Lower, false),
    layer("service.write_hist_p50_us", "us", Lower, false),
    layer("service.shed", "count", Lower, false),
    layer("service.errors", "count", Lower, false),
    layer("service.sync_rtt_us", "us", Lower, false),
    // recovery
    layer("catalog.open_us", "us", Lower, false),
    layer("catalog.verify_us", "us", Lower, false),
    layer("core.open_us", "us", Lower, false),
    layer("txn.recover_us", "us", Lower, false),
    layer("txn.replays_per_restart", "entries", Lower, true),
    layer("service.boot_us", "us", Lower, false),
    // the instrument itself
    layer("trace.overhead_frac", "ratio", Lower, false),
    // the ladder: wall time per op of one op stream at each height, and
    // how much of the top height's wall time the self times account for
    layer("ladder.pmem_ns_per_op", "ns/op", Lower, false),
    layer("ladder.core_ns_per_op", "ns/op", Lower, false),
    layer("ladder.shard_ns_per_op", "ns/op", Lower, false),
    layer("ladder.txn_ns_per_op", "ns/op", Lower, false),
    layer("ladder.service_ns_per_op", "ns/op", Lower, false),
    layer("ladder.closure", "ratio", Higher, false),
];

pub fn metric(name: &str) -> Option<&'static MetricDef> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.name == name)
}

/// Whether `metric` on `workload` repeats exactly for a seed: counts on
/// the workloads where one thread does all the counted work.
pub fn is_exact(workload: &str, def: &MetricDef) -> bool {
    def.count && matches!(workload, "tree_read" | "tree_write" | "restart")
}

pub type Metrics = BTreeMap<&'static str, f64>;

/// One run of one workload.
#[derive(Debug, Clone)]
pub struct Run {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub attempted: u64,
    pub failed: u64,
    /// [`crate::gen::Plan::digest`] — same digest, same inputs.
    pub digest: u64,
    /// Latency samples behind the percentiles.
    pub samples: usize,
    pub metrics: Metrics,
}

impl Run {
    /// The names this run owes: every end-to-end metric untraced, every
    /// per-layer metric (and the three zero-able end-to-end ones) traced.
    pub fn required(&self) -> Vec<&'static MetricDef> {
        if self.trace {
            let zeroable = END_TO_END.iter().filter(|m| CAN_BE_ZERO.contains(&m.name));
            PER_LAYER.iter().chain(zeroable).collect()
        } else {
            END_TO_END.iter().collect()
        }
    }

    pub fn missing(&self) -> Vec<&'static str> {
        self.required()
            .iter()
            .map(|m| m.name)
            .filter(|n| !self.metrics.contains_key(n))
            .collect()
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.missing().is_empty()
    }

    /// `workload metric value unit` lines, the sample count beside every
    /// percentile.
    pub fn lines(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.metrics {
            let def = metric(name).expect("only catalogued metrics are recorded");
            let note = if name.starts_with("p50") || name.starts_with("p99") {
                format!(" n={}", self.samples)
            } else {
                String::new()
            };
            writeln!(
                out,
                "{} {} {} {}{}",
                self.workload,
                name,
                num(*value),
                def.unit,
                note
            )
            .expect("write to string");
        }
        out
    }

    /// The driver's result line: the gated end-to-end metrics untraced,
    /// everything `BENCHMARK.json` lists under `per_layer` traced.
    pub fn contract_line(&self) -> String {
        let metrics: Vec<String> = self
            .required()
            .iter()
            .filter(|m| self.trace || !CAN_BE_ZERO.contains(&m.name))
            .filter_map(|m| Some((m, self.metrics.get(m.name)?)))
            .map(|(m, v)| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    num(*v),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }

    /// This run as one element of the `--json` document.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, v)| {
                let def = metric(name).expect("catalogued");
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\", \"exact\": {}}}",
                    name,
                    num(*v),
                    def.unit,
                    is_exact(self.workload, def)
                )
            })
            .collect();
        format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"correct\": {}, \
             \"attempted\": {}, \"failed\": {}, \"digest\": \"{:016x}\", \"samples\": {}, \
             \"metrics\": {{{}}}}}",
            self.workload,
            self.seed,
            self.seconds,
            self.trace,
            self.correct(),
            self.attempted,
            self.failed,
            self.digest,
            self.samples,
            metrics.join(", ")
        )
    }
}

/// The `--json` document: every run of the invocation, in order.
pub fn document(runs: &[Run]) -> String {
    let runs: Vec<String> = runs.iter().map(Run::json).collect();
    format!(
        "{{\"schema\": 1, \"nproc\": {}, \"runs\": [\n{}\n]}}\n",
        std::thread::available_parallelism().map_or(0, usize::from),
        runs.join(",\n")
    )
}

/// A JSON number with every digit the measurement has.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let all: Vec<&MetricDef> = END_TO_END.iter().chain(PER_LAYER.iter()).collect();
        let mut names: Vec<&str> = all.iter().map(|m| m.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len());
        for m in all {
            assert!(m.name.len() <= 64 && m.unit.len() <= 16, "{}", m.name);
            let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
            assert!(m.name.chars().all(ok), "{}", m.name);
            assert!(
                m.unit.chars().all(|c| ok(c) || "/%".contains(c)),
                "{}",
                m.unit
            );
        }
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound.is_some_and(|b| b <= 0.25)));
    }

    /// `BENCHMARK.json` cannot carry an `exact` flag or an absolute bound,
    /// so the catalogue above is the source of truth and this keeps the
    /// two from drifting apart.
    #[test]
    fn benchmark_json_agrees_with_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let listed = |key: &str| -> Vec<(String, String, String, Option<f64>)> {
            doc.get(key)
                .and_then(Json::array)
                .unwrap()
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(Json::str).unwrap().to_string();
                    (
                        s("name"),
                        s("unit"),
                        s("better"),
                        m.get("bound").and_then(Json::num),
                    )
                })
                .collect()
        };
        let want = |m: &MetricDef, bounded: bool| {
            let bound = m.bound.filter(|_| bounded);
            (
                m.name.to_string(),
                m.unit.to_string(),
                m.better.name().to_string(),
                bound,
            )
        };
        let gated: Vec<_> = END_TO_END
            .iter()
            .filter(|m| !CAN_BE_ZERO.contains(&m.name))
            .map(|m| want(m, true))
            .collect();
        assert_eq!(listed("end_to_end"), gated);
        let traced = Run {
            workload: "tree_read",
            seed: 0,
            seconds: 0,
            trace: true,
            attempted: 0,
            failed: 0,
            digest: 0,
            samples: 0,
            metrics: Metrics::new(),
        };
        let per_layer: Vec<_> = traced.required().iter().map(|m| want(m, false)).collect();
        assert_eq!(listed("per_layer"), per_layer);
        let names: Vec<String> = doc
            .get("workloads")
            .and_then(Json::array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::str).unwrap().to_string())
            .collect();
        let ours: Vec<&str> = crate::workload::Workload::ALL
            .iter()
            .map(|w| w.name())
            .collect();
        assert_eq!(names, ours);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut run = Run {
            workload: "tree_read",
            seed: 1,
            seconds: 1,
            trace: false,
            attempted: 10,
            failed: 0,
            digest: 7,
            samples: 10,
            metrics: END_TO_END.iter().map(|m| (m.name, 1.5)).collect(),
        };
        let line = Json::parse(&run.contract_line()).unwrap();
        let keys: Vec<&str> = line
            .object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
        let metrics = line.get("metrics").and_then(Json::object).unwrap();
        assert_eq!(metrics.len(), END_TO_END.len() - CAN_BE_ZERO.len());
        assert!(metrics
            .iter()
            .all(|(k, _)| !CAN_BE_ZERO.contains(&k.as_str())));
        assert!(run.lines().contains("tree_read p99_us 1.5 us n=10"));
        // A missing metric or a failed op makes the run incorrect.
        run.metrics.remove("p50_us");
        assert!(!run.correct() && run.missing() == ["p50_us"]);
        run.metrics.insert("p50_us", 1.0);
        run.failed = 1;
        assert!(!run.correct());
        let doc = Json::parse(&document(&[run])).unwrap();
        assert_eq!(doc.get("runs").and_then(Json::array).unwrap().len(), 1);
    }
}
