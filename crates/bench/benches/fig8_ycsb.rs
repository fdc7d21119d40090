//! Figure 8 (extension): YCSB-style scenario sweep over the FAST+FAIR
//! layout variants — fingerprinted probes against the baseline.
//!
//! Four scenarios bracket the design space:
//!
//! * `hotkey`  — YCSB-A/B shape: 95 % reads / 5 % in-place updates with
//!   self-similar hot-key skew (80 % of accesses to 20 % of keys). Probe-
//!   dominated; fingerprints shine.
//! * `rmw`     — YCSB-F: every round reads a skewed key and writes it
//!   back. Balanced probe + in-place-persist load.
//! * `scan`    — YCSB-E: 95 % short range scans / 5 % inserts. Scans
//!   bypass the fingerprint array (sequential leaf reads); measures the
//!   variants' scan overhead.
//! * `append`  — monotonic time-series inserts. Rightmost-leaf appends
//!   never shift, isolating the variants' fixed per-insert costs.
//!
//! Alongside throughput, each cell samples the microarchitecture counters
//! the tentpole optimizations target: cache lines touched per op
//! (serial + parallel), mean shift distance (`shift_steps / shift_ops`),
//! and flushes issued vs. coalesced per op.

use fastfair_bench::common::*;
use pmem::{stats, LatencyProfile};
use pmindex::workload::{
    generate_keys, monotonic_append_keys, value_for, ycsb_hotkey_ops, ycsb_rmw_ops, ycsb_scan_ops,
    KeyDist, Op,
};
use pmindex::PmIndex;

/// Runs one op stream; update-`Insert`s write a fresh value each time so
/// the in-place path cannot shortcut on an identical word.
fn run_ops(idx: &dyn PmIndex, ops: &[Op]) -> usize {
    let mut out = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        match *op {
            Op::Insert(k) => {
                idx.insert(k, value_for(k.wrapping_add(i as u64 | 1)))
                    .expect("insert");
            }
            Op::Search(k) => {
                std::hint::black_box(idx.get(k));
            }
            Op::Delete(k) => {
                idx.remove(k);
            }
            Op::Scan(lo, hi) => {
                out.clear();
                idx.range(lo, hi, &mut out);
                std::hint::black_box(out.len());
            }
        }
    }
    ops.len()
}

fn main() {
    let scale = Scale::from_env();
    banner("Figure 8", "YCSB-style sweep over layout variants", scale);
    let n = scale.n(10_000_000); // paper-scale population: 10M
    let ops_n = (n / 2).max(500);
    let mut report = SmokeReport::new("fig8_ycsb", scale);

    let preload = generate_keys(n, KeyDist::Uniform, 211);
    let fresh = generate_keys(ops_n / 10 + 16, KeyDist::Uniform, 223);
    let append_base = monotonic_append_keys(n, 1 << 20, 227);
    let append_tail = monotonic_append_keys(
        ops_n,
        append_base.last().copied().unwrap_or(1 << 20) + 8,
        229,
    );

    // (scenario, preload keys, op stream)
    let scenarios: Vec<(&str, &[u64], Vec<Op>)> = vec![
        (
            "hotkey",
            &preload,
            ycsb_hotkey_ops(&preload, ops_n, 0.05, 0.2, 233),
        ),
        ("rmw", &preload, ycsb_rmw_ops(&preload, ops_n / 2, 0.2, 239)),
        (
            "scan",
            &preload,
            ycsb_scan_ops(&preload, &fresh, (ops_n / 10).max(200), 241),
        ),
        (
            "append",
            &append_base,
            append_tail.iter().map(|&k| Op::Insert(k)).collect(),
        ),
    ];

    for (scenario, load_keys, ops) in &scenarios {
        println!("\n-- {scenario} ({} ops) --", ops.len());
        header(&[
            "variant",
            "kops/s",
            "lines/op",
            "mean shift",
            "flushes/op",
            "coalesced/op",
        ]);
        for kind in IndexKind::FASTFAIR_VARIANTS {
            let pool = pool_with(LatencyProfile::dram(), load_keys.len() + ops.len());
            let idx = build_index(kind, &pool, 1024);
            load(idx.as_ref(), load_keys);
            stats::reset();
            let (secs, done) = timeit(|| run_ops(idx.as_ref(), ops));
            let s = stats::take();
            let per = done as f64;
            let kops = done as f64 / secs / 1e3;
            let lines_per_op = (s.serial_misses + s.parallel_lines) as f64 / per;
            let mean_shift = if s.shift_ops > 0 {
                s.shift_steps as f64 / s.shift_ops as f64
            } else {
                0.0
            };
            let flushes_per_op = s.flushes as f64 / per;
            let coalesced_per_op = s.flushes_coalesced as f64 / per;
            row(&[
                idx.name().to_string(),
                format!("{kops:.1}"),
                format!("{lines_per_op:.2}"),
                format!("{mean_shift:.2}"),
                format!("{flushes_per_op:.2}"),
                format!("{coalesced_per_op:.2}"),
            ]);
            let v = idx.name();
            report.sample(format!("{scenario}/{v}/kops"), kops);
            report.sample(format!("{scenario}/{v}/lines_per_op"), lines_per_op);
            report.sample(format!("{scenario}/{v}/mean_shift"), mean_shift);
            report.sample(format!("{scenario}/{v}/flushes_per_op"), flushes_per_op);
            report.sample(format!("{scenario}/{v}/coalesced_per_op"), coalesced_per_op);
        }
    }
    report.finish();
    println!(
        "\nexpected shape: +FP cuts lines/op on hotkey and rmw; flush coalescing \
         elides clean lines wherever splits run (coalesced/op > 0 on the \
         insert-bearing panels)."
    );
}
