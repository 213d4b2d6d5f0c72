//! Pins the workspace's `AFTER_*` environment surface: the set of
//! `"AFTER_…"` string literals in non-test code under `crates/*/src` must
//! equal the variables listed in the README's "Environment variables"
//! section. A retired switch cannot come back unnoticed, and a new one
//! cannot appear undocumented.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("readable source dir") {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Every `AFTER_[A-Z0-9_]+` token in `text`; with `whole_literal`, only
/// those that are an entire string literal (`"AFTER_X"`).
fn after_vars(text: &str, whole_literal: bool) -> BTreeSet<String> {
    let bytes = text.as_bytes();
    let mut found = BTreeSet::new();
    let mut from = 0;
    while let Some(offset) = text[from..].find("AFTER_") {
        let start = from + offset;
        let mut end = start + "AFTER_".len();
        while end < bytes.len()
            && (bytes[end].is_ascii_uppercase() || bytes[end].is_ascii_digit() || bytes[end] == b'_')
        {
            end += 1;
        }
        let quoted = start > 0 && bytes[start - 1] == b'"' && bytes.get(end) == Some(&b'"');
        if end > start + "AFTER_".len() && (quoted || !whole_literal) {
            found.insert(text[start..end].to_string());
        }
        from = end;
    }
    found
}

#[test]
fn after_env_vars_in_code_match_the_readme_list() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for entry in std::fs::read_dir(root.join("crates")).expect("crates/ is readable") {
        let src = entry.expect("dir entry").path().join("src");
        if src.is_dir() {
            rust_files(&src, &mut files);
        }
    }
    // each source file keeps its tests in one `#[cfg(test)]` module at the
    // end, so everything before it is the non-test code
    let code: BTreeSet<String> = files
        .iter()
        .map(|f| std::fs::read_to_string(f).expect("utf-8 source"))
        .flat_map(|source| after_vars(source.split("\n#[cfg(test)]").next().unwrap_or_default(), true))
        .collect();
    assert!(!code.is_empty(), "the scan found no AFTER_* literals — is it looking in the right place?");

    let readme = std::fs::read_to_string(root.join("README.md")).expect("README.md");
    let heading = "## Environment variables\n";
    let section = &readme[readme.find(heading).expect("README lists the environment variables")..];
    let section =
        &section[..section[heading.len()..].find("\n## ").map_or(section.len(), |i| i + heading.len())];
    let documented = after_vars(section, false);

    assert_eq!(
        code, documented,
        "the AFTER_* variables read in code (left) must equal the README's list (right)"
    );
}
