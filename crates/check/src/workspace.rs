//! Walks the workspace tree and lints every crate's sources under its
//! policy.

use crate::lints::lint_file;
use crate::policy::policy_for;
use crate::report::Finding;
use std::fs;
use std::path::{Path, PathBuf};

/// Lints `crates/*/src/**/*.rs` under `root` (the repository root),
/// returning findings with repo-relative paths. Crates missing from the
/// policy table produce a `policy` finding instead of silently getting
/// no rules.
pub fn lint_workspace(root: &Path) -> std::io::Result<Vec<Finding>> {
    let mut findings = Vec::new();
    let crates_dir = root.join("crates");
    let mut crates: Vec<PathBuf> = fs::read_dir(&crates_dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    crates.sort();
    for crate_dir in crates {
        let name = crate_dir
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default()
            .to_string();
        let Some(policy) = policy_for(&name) else {
            findings.push(Finding::new(
                &format!("crates/{name}"),
                1,
                "policy",
                format!(
                    "crate `{name}` has no entry in the policy table \
                     (crates/check/src/policy.rs)"
                ),
            ));
            continue;
        };
        let src = crate_dir.join("src");
        if !src.is_dir() {
            continue;
        }
        let mut files = Vec::new();
        collect_rs_files(&src, &mut files)?;
        files.sort();
        for file in files {
            let rel = file
                .strip_prefix(root)
                .unwrap_or(&file)
                .to_string_lossy()
                .replace('\\', "/");
            let source = fs::read_to_string(&file)?;
            findings.extend(lint_file(&rel, &source, &policy));
        }
    }
    findings.sort_by(|a, b| (&a.file, a.line, a.lint).cmp(&(&b.file, b.line, b.lint)));
    Ok(findings)
}

/// Recursively collects `.rs` files under `dir`.
pub(crate) fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}
