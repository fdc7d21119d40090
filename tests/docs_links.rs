//! Documentation link check: every relative link in the repo's top-level
//! markdown docs must point at a file or directory that actually exists.
//! CI runs this test in the docs job, so a doc rename or a typoed path
//! fails the build instead of rotting silently.

use std::path::Path;

/// Extracts `](target)` link targets from markdown source.
fn markdown_links(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    let bytes = text.as_bytes();
    let mut i = 0;
    while i + 1 < bytes.len() {
        if bytes[i] == b']' && bytes[i + 1] == b'(' {
            if let Some(end) = text[i + 2..].find(')') {
                out.push(text[i + 2..i + 2 + end].to_string());
                i += 2 + end;
                continue;
            }
        }
        i += 1;
    }
    out
}

#[test]
fn top_level_docs_have_no_dead_relative_links() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let docs = ["README.md", "ARCHITECTURE.md", "PAPER.md", "ROADMAP.md"];
    let mut checked = 0;
    for doc in docs {
        let path = root.join(doc);
        let text =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {doc}: {e}"));
        for link in markdown_links(&text) {
            // External and intra-document links are out of scope.
            if link.contains("://") || link.starts_with('#') || link.starts_with("mailto:") {
                continue;
            }
            // Strip a trailing fragment: `ARCHITECTURE.md#data-flow`.
            let target = link.split('#').next().unwrap();
            if target.is_empty() {
                continue;
            }
            assert!(
                root.join(target).exists(),
                "{doc}: dead relative link `{link}` (no such path `{target}`)"
            );
            checked += 1;
        }
    }
    assert!(
        checked >= 5,
        "expected at least a handful of relative links across the docs, found {checked} — \
         did the link extractor break?"
    );
}

#[test]
fn architecture_doc_mentions_every_crate() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(root.join("ARCHITECTURE.md")).expect("ARCHITECTURE.md");
    let mut crates = 0;
    for entry in std::fs::read_dir(root.join("crates")).expect("crates/") {
        let krate = entry.expect("crates/ entry").file_name();
        let krate = krate.to_str().expect("UTF-8 crate directory");
        assert!(
            text.contains(&format!("crates/{krate}")),
            "ARCHITECTURE.md never mentions `crates/{krate}`"
        );
        crates += 1;
    }
    assert!(crates >= 10, "found only {crates} crate directories");
}
