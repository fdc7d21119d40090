//! Scale knobs, index construction and table printing shared by the bench
//! targets.
//!
//! Every bench accepts `FF_BENCH_SCALE` in the environment:
//!
//! * `smoke` — seconds-scale sanity run (default under `cargo bench` so CI
//!   completes);
//! * `full`  — minutes-scale run with crisper separation;
//! * `paper` — the paper's population sizes (10–50 M keys); expect long
//!   runtimes and ensure tens of GiB of RAM.
//!
//! `FF_BENCH_QUICK=1` overrides all of that with sub-second op counts and
//! switches on the [`SmokeReport`] sink: every sampled cell is merged into
//! `BENCH_smoke.json` (path overridable via `FF_BENCH_SMOKE_PATH`), which
//! CI's bench-smoke job uploads as an artifact — the repository's ongoing
//! perf-trajectory datapoints.

use std::sync::Arc;
use std::time::Instant;

use pmem::{LatencyProfile, Pool, PoolConfig};
use pmindex::PmIndex;

/// The index structures compared throughout the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexKind {
    /// FAST+FAIR (the paper's contribution).
    FastFair,
    /// FAST shifts + legacy logging splits (Fig. 5 baseline).
    FastLogging,
    /// FAST+FAIR with leaf read locks (serializable reads, Fig. 7).
    FastFairLeafLock,
    /// FP-tree (selective persistence + fingerprints).
    FpTree,
    /// wB+-tree (slot + bitmap).
    WbTree,
    /// WORT (persistent radix tree).
    Wort,
    /// Persistent skip list.
    SkipList,
    /// Volatile B-link tree (concurrency reference).
    Blink,
}

impl IndexKind {
    /// The single-threaded field of Figures 4–6.
    pub const SINGLE_THREADED: [IndexKind; 5] = [
        IndexKind::FastFair,
        IndexKind::FpTree,
        IndexKind::WbTree,
        IndexKind::Wort,
        IndexKind::SkipList,
    ];

    /// The concurrent field of Figure 7.
    pub const CONCURRENT: [IndexKind; 5] = [
        IndexKind::FastFair,
        IndexKind::FastFairLeafLock,
        IndexKind::FpTree,
        IndexKind::Blink,
        IndexKind::SkipList,
    ];
}

/// Builds one index of the given kind inside `pool`.
///
/// FAST+FAIR variants honour `node_size`; the fixed-layout baselines ignore
/// it (wB+-tree and FP-tree are pinned at their papers' 1 KB).
pub fn build_index(kind: IndexKind, pool: &Arc<Pool>, node_size: u32) -> Box<dyn PmIndex> {
    match kind {
        IndexKind::FastFair => Box::new(
            fastfair::FastFairTree::create(
                Arc::clone(pool),
                fastfair::TreeOptions::new().node_size(node_size),
            )
            .expect("fastfair"),
        ),
        IndexKind::FastLogging => Box::new(
            fastfair::FastFairTree::create(
                Arc::clone(pool),
                fastfair::TreeOptions::new()
                    .node_size(node_size)
                    .split(fastfair::SplitStrategy::Logging),
            )
            .expect("fastlogging"),
        ),
        IndexKind::FastFairLeafLock => Box::new(
            fastfair::FastFairTree::create(
                Arc::clone(pool),
                fastfair::TreeOptions::new()
                    .node_size(node_size)
                    .leaf_locks(true),
            )
            .expect("leaflock"),
        ),
        IndexKind::FpTree => Box::new(fptree::FpTree::create(Arc::clone(pool)).expect("fptree")),
        IndexKind::WbTree => Box::new(wbtree::WbTree::create(Arc::clone(pool)).expect("wbtree")),
        IndexKind::Wort => Box::new(wort::Wort::create(Arc::clone(pool)).expect("wort")),
        IndexKind::SkipList => {
            Box::new(pskiplist::PSkipList::create(Arc::clone(pool)).expect("skiplist"))
        }
        IndexKind::Blink => Box::new(blink::BlinkTree::new()),
    }
}

/// Benchmark scale selected via `FF_BENCH_SCALE` / `FF_BENCH_QUICK`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Sub-second CI run (`FF_BENCH_QUICK=1`): tiny op counts, capped
    /// thread sweep, results sunk into `BENCH_smoke.json`.
    Quick,
    /// Seconds-scale sanity run.
    Smoke,
    /// Minutes-scale run.
    Full,
    /// Paper-scale populations.
    Paper,
}

impl Scale {
    /// Reads the scale from the environment (default: smoke).
    /// `FF_BENCH_QUICK=1` wins over any `FF_BENCH_SCALE`.
    pub fn from_env() -> Scale {
        if std::env::var("FF_BENCH_QUICK").as_deref() == Ok("1") {
            return Scale::Quick;
        }
        match std::env::var("FF_BENCH_SCALE").as_deref() {
            Ok("full") => Scale::Full,
            Ok("paper") => Scale::Paper,
            _ => Scale::Smoke,
        }
    }

    /// Scales a population size: `quick` divides the paper size by
    /// 20 000, `smoke` by 100, `full` by 10, `paper` by 1.
    pub fn n(&self, paper_n: usize) -> usize {
        match self {
            Scale::Quick => (paper_n / 20_000).max(500),
            Scale::Smoke => (paper_n / 100).max(1_000),
            Scale::Full => (paper_n / 10).max(10_000),
            Scale::Paper => paper_n,
        }
    }

    /// Upper bound on the thread sweep: quick mode stops at 2 threads so
    /// the whole matrix finishes in CI seconds.
    pub fn max_threads(&self) -> usize {
        match self {
            Scale::Quick => 2,
            _ => usize::MAX,
        }
    }
}

/// Pool size that comfortably fits `n` keys across all index layouts.
pub fn pool_bytes_for(n: usize) -> usize {
    (n * 160).next_power_of_two().max(64 << 20)
}

/// Creates a pool with the given latency profile, sized for `n` keys.
pub fn pool_with(latency: LatencyProfile, n: usize) -> Arc<Pool> {
    Arc::new(
        Pool::new(PoolConfig::new().size(pool_bytes_for(n)).latency(latency))
            .expect("pool allocation"),
    )
}

/// Times `f` and returns (elapsed seconds, result).
pub fn timeit<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t0 = Instant::now();
    let out = f();
    (t0.elapsed().as_secs_f64(), out)
}

/// Mops/s for `ops` operations in `secs`.
pub fn mops(ops: usize, secs: f64) -> f64 {
    ops as f64 / secs / 1e6
}

/// Average microseconds per operation.
pub fn us_per_op(ops: usize, secs: f64) -> f64 {
    secs * 1e6 / ops as f64
}

/// Prints a markdown-ish table row.
pub fn row(cells: &[String]) {
    println!("| {} |", cells.join(" | "));
}

/// Prints a header row plus separator.
pub fn header(cells: &[&str]) {
    println!("| {} |", cells.join(" | "));
    println!(
        "|{}|",
        cells.iter().map(|_| "---").collect::<Vec<_>>().join("|")
    );
}

/// How the pre-measurement population is loaded (selected via
/// `FF_BENCH_WARMUP`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Warmup {
    /// Sorted [`PmIndex::bulk_load`] (the default): bottom-up build, one
    /// flush per cache line, seconds instead of minutes at paper scale —
    /// but FAST+FAIR leaves come out fully packed.
    #[default]
    Bulk,
    /// Paper-faithful random insertion: keys go in through the ordinary
    /// write path in their (random) generation order, leaving every index
    /// at the ~70 % leaf occupancy the paper's §5 methodology produces.
    /// Use when reproducing *absolute* numbers.
    Random,
}

impl Warmup {
    /// Reads the warm-up mode from `FF_BENCH_WARMUP` (`bulk` | `random`,
    /// default: bulk).
    pub fn from_env() -> Warmup {
        match std::env::var("FF_BENCH_WARMUP").as_deref() {
            Ok("random") => Warmup::Random,
            _ => Warmup::Bulk,
        }
    }
}

/// Warm-up load honouring `FF_BENCH_WARMUP`; panics on failure.
///
/// The measured phase of every bench starts *after* this. See
/// [`load_with`] for the two modes and the occupancy trade-off.
pub fn load(index: &dyn PmIndex, keys: &[u64]) {
    load_with(index, keys, Warmup::from_env());
}

/// Warm-up load with an explicit [`Warmup`] mode.
///
/// `Warmup::Bulk` sorts `keys` and bulk-loads them: indexes with a sorted
/// layout (FAST+FAIR) build bottom-up with one flush per cache line; the
/// baselines fall back to loop-inserting the sorted stream.
///
/// Methodology note (documented deviation): the paper preloads by random
/// insertion (~70 % leaf occupancy for every index), while the bulk path
/// leaves FAST+FAIR fully packed and the split-based baselines near-half
/// occupancy from the sorted stream. Denser leaves flatter FAST+FAIR's
/// scans slightly and make its first post-load inserts split-heavy; the
/// *relative ordering* of the figures is unchanged, and the warm-up itself
/// drops from minutes to seconds at paper scale. `Warmup::Random`
/// (`FF_BENCH_WARMUP=random`) restores the paper's methodology exactly:
/// keys are inserted unsorted through the normal write path, so every
/// index settles at its natural post-split occupancy.
pub fn load_with(index: &dyn PmIndex, keys: &[u64], warmup: Warmup) {
    match warmup {
        Warmup::Bulk => {
            let mut sorted = keys.to_vec();
            sorted.sort_unstable();
            let loaded = index
                .bulk_load(&mut sorted.iter().map(|&k| (k, pmindex::workload::value_for(k))))
                .expect("bench bulk load");
            assert_eq!(loaded, sorted.len(), "bulk load dropped keys");
        }
        Warmup::Random => {
            for &k in keys {
                index
                    .insert(k, pmindex::workload::value_for(k))
                    .expect("bench random-insert warm-up");
            }
        }
    }
}

/// The standard banner each bench prints first.
pub fn banner(figure: &str, what: &str, scale: Scale) {
    println!("\n=== {figure}: {what} ===");
    println!("scale = {scale:?} (set FF_BENCH_SCALE=smoke|full|paper, FF_BENCH_QUICK=1)  date = reproduction run");
}

/// Quick-mode measurement sink: labeled samples merged into one JSON file
/// (`BENCH_smoke.json`, or `FF_BENCH_SMOKE_PATH`) shared by every bench —
/// the artifact CI's bench-smoke job uploads.
///
/// Outside quick mode ([`Scale::Quick`]) every method is a no-op, so call
/// sites stay unconditional. The file holds one top-level key per bench:
///
/// ```json
/// { "fig4_range_query": [ {"label": "sel0.1%/FAST+FAIR", "value": 8.61} ] }
/// ```
///
/// [`SmokeReport::finish`] re-reads the file and replaces only its own
/// bench's section, so fig4 and fig7 runs compose in either order.
pub struct SmokeReport {
    bench: String,
    samples: Vec<(String, f64)>,
    enabled: bool,
}

impl SmokeReport {
    /// Creates the sink for one bench target; inert unless `scale` is
    /// [`Scale::Quick`].
    pub fn new(bench: &str, scale: Scale) -> SmokeReport {
        SmokeReport {
            bench: bench.to_string(),
            samples: Vec::new(),
            enabled: scale == Scale::Quick,
        }
    }

    /// Records one labeled measurement (no-op outside quick mode).
    pub fn sample(&mut self, label: impl Into<String>, value: f64) {
        if self.enabled {
            self.samples.push((label.into(), value));
        }
    }

    /// Path of the smoke-report file: `FF_BENCH_SMOKE_PATH`, defaulting
    /// to `BENCH_smoke.json` at the workspace root.
    pub fn path() -> std::path::PathBuf {
        match std::env::var("FF_BENCH_SMOKE_PATH") {
            Ok(p) if !p.is_empty() => std::path::PathBuf::from(p),
            _ => std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("../..")
                .join("BENCH_smoke.json"),
        }
    }

    /// Merges this bench's samples into the report file (no-op outside
    /// quick mode). Other benches' sections are preserved verbatim.
    pub fn finish(self) {
        if !self.enabled {
            return;
        }
        let path = Self::path();
        let mut sections = std::fs::read_to_string(&path)
            .map(|t| split_sections(&t))
            .unwrap_or_default();
        sections.retain(|(name, _)| name != &self.bench);
        let rows: Vec<String> = self
            .samples
            .iter()
            .map(|(label, value)| {
                format!(
                    "    {{\"label\": {}, \"value\": {value}}}",
                    json_string(label)
                )
            })
            .collect();
        sections.push((self.bench.clone(), format!("[\n{}\n  ]", rows.join(",\n"))));
        let body: Vec<String> = sections
            .iter()
            .map(|(name, raw)| format!("  {}: {raw}", json_string(name)))
            .collect();
        let text = format!("{{\n{}\n}}\n", body.join(",\n"));
        std::fs::write(&path, text)
            .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
        println!(
            "smoke report: {} samples -> {}",
            self.samples.len(),
            path.display()
        );
    }
}

/// Escapes a string as a JSON string literal (labels are plain ASCII, but
/// stay safe anyway).
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Splits the report file into `(bench name, raw JSON value)` sections.
///
/// Only needs to parse what [`SmokeReport::finish`] itself writes: one
/// top-level object whose values are arrays of flat objects. Tracks
/// string/escape state so labels containing braces cannot desync it.
fn split_sections(text: &str) -> Vec<(String, String)> {
    let bytes = text.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    // Find the opening brace of the top-level object.
    while i < bytes.len() && bytes[i] != b'{' {
        i += 1;
    }
    i += 1;
    while i < bytes.len() {
        // Next top-level key.
        while i < bytes.len() && bytes[i] != b'"' && bytes[i] != b'}' {
            i += 1;
        }
        if i >= bytes.len() || bytes[i] == b'}' {
            break;
        }
        let (key, after_key) = match read_json_string(bytes, i) {
            Some(pair) => pair,
            None => break,
        };
        i = after_key;
        while i < bytes.len() && bytes[i] != b':' {
            i += 1;
        }
        i += 1;
        while i < bytes.len() && (bytes[i] as char).is_whitespace() {
            i += 1;
        }
        // Capture the balanced array/object value.
        let start = i;
        let (mut depth, mut in_str, mut esc) = (0i32, false, false);
        while i < bytes.len() {
            let b = bytes[i];
            if in_str {
                if esc {
                    esc = false;
                } else if b == b'\\' {
                    esc = true;
                } else if b == b'"' {
                    in_str = false;
                }
            } else {
                match b {
                    b'"' => in_str = true,
                    b'[' | b'{' => depth += 1,
                    b']' | b'}' => {
                        depth -= 1;
                        if depth == 0 {
                            i += 1;
                            break;
                        }
                    }
                    _ => {}
                }
            }
            i += 1;
        }
        out.push((key, text[start..i].to_string()));
        // Skip the separating comma, if any.
        while i < bytes.len() && bytes[i] != b',' && bytes[i] != b'"' && bytes[i] != b'}' {
            i += 1;
        }
        if i < bytes.len() && bytes[i] == b',' {
            i += 1;
        }
    }
    out
}

/// Reads the JSON string starting at `bytes[at] == b'"'`; returns the
/// unescaped content and the index one past the closing quote.
fn read_json_string(bytes: &[u8], at: usize) -> Option<(String, usize)> {
    debug_assert_eq!(bytes[at], b'"');
    let mut out = String::new();
    let mut i = at + 1;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' => {
                if i + 1 >= bytes.len() {
                    return None;
                }
                match bytes[i + 1] {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    other => {
                        out.push('\\');
                        out.push(other as char);
                    }
                }
                i += 2;
            }
            b'"' => return Some((out, i + 1)),
            b => {
                out.push(b as char);
                i += 1;
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmindex::workload::{generate_keys, value_for, KeyDist};

    #[test]
    fn warmup_modes_load_identical_content() {
        let keys = generate_keys(3_000, KeyDist::Uniform, 9);
        let pool = pool_with(LatencyProfile::dram(), keys.len());
        let bulk = build_index(IndexKind::FastFair, &pool, 512);
        let random = build_index(IndexKind::FastFair, &pool, 512);
        load_with(bulk.as_ref(), &keys, Warmup::Bulk);
        load_with(random.as_ref(), &keys, Warmup::Random);
        assert_eq!(bulk.len(), keys.len());
        assert_eq!(random.len(), keys.len());
        for &k in &keys {
            assert_eq!(random.get(k), Some(value_for(k)));
            assert_eq!(bulk.get(k), random.get(k));
        }
    }

    /// The FAST+FAIR kinds build the variant their table rows are labelled
    /// with, at a non-default node size too.
    #[test]
    fn fastfair_kinds_build_the_named_variant() {
        let keys = generate_keys(500, KeyDist::Uniform, 11);
        for (kind, name) in [
            (IndexKind::FastFair, "FAST+FAIR"),
            (IndexKind::FastLogging, "FAST+Logging"),
            (IndexKind::FastFairLeafLock, "FAST+FAIR+LeafLock"),
        ] {
            let pool = pool_with(LatencyProfile::dram(), keys.len());
            let index = build_index(kind, &pool, 256);
            assert_eq!(index.name(), name, "{kind:?}");
            load_with(index.as_ref(), &keys, Warmup::Random);
            for &k in &keys {
                assert_eq!(index.get(k), Some(value_for(k)), "{kind:?}: key {k}");
            }
        }
    }

    #[test]
    fn warmup_default_is_bulk() {
        assert_eq!(Warmup::default(), Warmup::Bulk);
        // from_env falls back to Bulk when the variable is unset/unknown.
        std::env::remove_var("FF_BENCH_WARMUP");
        assert_eq!(Warmup::from_env(), Warmup::Bulk);
    }

    #[test]
    fn quick_scale_is_tiny_and_caps_threads() {
        assert_eq!(Scale::Quick.n(50_000_000), 2_500);
        assert_eq!(Scale::Quick.n(1_000), 500);
        assert_eq!(Scale::Quick.max_threads(), 2);
        assert_eq!(Scale::Smoke.max_threads(), usize::MAX);
    }

    #[test]
    fn smoke_report_sections_roundtrip_and_merge() {
        // Build two sections the way finish() writes them, then re-split.
        let dir = std::env::temp_dir().join(format!("ff_smoke_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_smoke.json");
        let _ = std::fs::remove_file(&path);
        std::env::set_var("FF_BENCH_SMOKE_PATH", path.to_str().unwrap());

        let mut a = SmokeReport::new("fig4", Scale::Quick);
        a.sample("sel0.1%/FAST+FAIR", 8.5);
        a.sample("odd \"label\" {with} [brackets]", 1.0);
        a.finish();
        let mut b = SmokeReport::new("fig7", Scale::Quick);
        b.sample("mixed/2T", 1234.0);
        b.finish();
        // Re-running a bench replaces only its own section.
        let mut a2 = SmokeReport::new("fig4", Scale::Quick);
        a2.sample("sel0.1%/FAST+FAIR", 9.25);
        a2.finish();

        let text = std::fs::read_to_string(&path).unwrap();
        let sections = split_sections(&text);
        let names: Vec<&str> = sections.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["fig7", "fig4"]);
        assert!(sections[1].1.contains("9.25"), "{text}");
        assert!(
            !sections[1].1.contains("8.5"),
            "old section not replaced: {text}"
        );
        assert!(sections[0].1.contains("1234"), "{text}");

        // Disabled sink writes nothing.
        std::fs::remove_file(&path).unwrap();
        let mut c = SmokeReport::new("fig4", Scale::Smoke);
        c.sample("x", 1.0);
        c.finish();
        assert!(!path.exists());
        std::env::remove_var("FF_BENCH_SMOKE_PATH");
    }
}
