//! The panic budget: how many `.unwrap()`, `.expect(`, `panic!`,
//! `unreachable!`, `todo!` and `unimplemented!` each crate's non-test
//! source (`crates/*/src`) holds, against the per-crate ceilings in
//! `tests/panic_budget.txt`. Doc comments, comments and `#[cfg(test)]`
//! items (inline test modules and the files they name) are not counted.
//!
//! A crate over its budget fails the test, as does a crate the file does
//! not list. Lower a budget when a change removes panics; raise one only
//! with a reason in the commit that does it.
//!
//! ```sh
//! cargo test -q --test panic_budget
//! ```

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

const PATTERNS: [&str; 6] = [
    ".unwrap()",
    ".expect(",
    "panic!",
    "unreachable!",
    "todo!",
    "unimplemented!",
];

/// Panic sites in one source file's non-test code. Pushes the files of
/// `#[cfg(test)] mod name;` declarations onto `skip`.
fn count_file(src: &str, dir: &Path, skip: &mut Vec<PathBuf>) -> usize {
    let mut count = 0;
    let mut lines = src.lines();
    while let Some(line) = lines.next() {
        let code = line.trim_start();
        if code.starts_with("//") {
            continue;
        }
        if code.starts_with("#[cfg(test)]") {
            // Skip the item the attribute guards: its other attributes, then
            // one line ending in `;` or `,` (a field), or a brace-balanced
            // block.
            let mut depth = 0i64;
            for item in lines.by_ref() {
                let item = item.trim();
                if item.starts_with("#[") || item.starts_with("//") {
                    continue;
                }
                if let Some(name) = item.strip_prefix("mod ").and_then(|m| m.strip_suffix(';')) {
                    skip.push(dir.join(format!("{name}.rs")));
                }
                depth += item.matches('{').count() as i64 - item.matches('}').count() as i64;
                if depth <= 0 && item.ends_with([';', ',', '}']) {
                    break;
                }
            }
            continue;
        }
        count += PATTERNS
            .iter()
            .map(|p| code.matches(p).count())
            .sum::<usize>();
    }
    count
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

fn count_crate(src: &Path) -> usize {
    let mut files = Vec::new();
    rust_files(src, &mut files);
    files.sort();
    let mut skip = Vec::new();
    let counts: Vec<(PathBuf, usize)> = files
        .iter()
        .map(|f| {
            let text = fs::read_to_string(f).unwrap();
            (f.clone(), count_file(&text, f.parent().unwrap(), &mut skip))
        })
        .collect();
    counts
        .into_iter()
        .filter(|(f, _)| !skip.contains(f))
        .map(|(_, n)| n)
        .sum()
}

fn measured() -> BTreeMap<String, usize> {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    let mut out = BTreeMap::new();
    for entry in fs::read_dir(crates).unwrap() {
        let dir = entry.unwrap().path();
        let src = dir.join("src");
        if src.is_dir() {
            let name = dir.file_name().unwrap().to_string_lossy().into_owned();
            out.insert(name, count_crate(&src));
        }
    }
    out
}

fn budget() -> BTreeMap<String, usize> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/panic_budget.txt");
    fs::read_to_string(path)
        .unwrap()
        .lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .map(|l| {
            let (name, n) = l.split_once(char::is_whitespace).unwrap();
            (name.to_string(), n.trim().parse().unwrap())
        })
        .collect()
}

#[test]
fn no_crate_exceeds_its_panic_budget() {
    let budget = budget();
    let measured = measured();
    let over: Vec<String> = measured
        .iter()
        .filter(|(name, &n)| budget.get(*name).is_none_or(|&b| n > b))
        .map(|(name, n)| format!("{name}: {n} (budget {:?})", budget.get(name)))
        .collect();
    assert!(
        over.is_empty(),
        "panic sites over budget: {over:?}\nmeasured: {measured:?}"
    );
}

#[test]
fn the_counter_skips_test_items_and_comments() {
    let src = "\
/// `x.unwrap()` in a doc comment
fn f() { a.unwrap(); b.expect(\"c\"); }
#[cfg(test)]
mod tests {
    fn g() { panic!(); }
}
#[cfg(test)]
#[allow(dead_code)]
fn h() { todo!() }
#[cfg(test)]
mod more_tests;
struct S {
    #[cfg(test)]
    t: u8,
    u: u8,
}
// unreachable!() in a comment
fn k() { unimplemented!() }
";
    let mut skip = Vec::new();
    assert_eq!(count_file(src, Path::new("d"), &mut skip), 3);
    assert_eq!(skip, vec![Path::new("d").join("more_tests.rs")]);
}
