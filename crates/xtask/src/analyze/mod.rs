//! `cargo xtask analyze` — the workspace static-analysis engine.
//!
//! One engine, four analyses, all built on the same vendored parse layer
//! ([`parse`] → token trees, [`model`] → items/fields/statements):
//!
//! 1. [`lock_order`] — the may-hold-while-acquiring lock graph: cycles,
//!    guards live across device I/O, and the flush pipeline's
//!    submit-to-complete interval.
//! 2. [`tickets`] — linear-resource obligation tracking for async I/O
//!    tickets (`FlushTicket`s, queue-handle `.submit(…)`s): every submit must
//!    be resolved, reaped, or aborted on every path, including `?` exits.
//! 3. [`atomics`] — the atomic-ordering inventory: every atomic site with
//!    its `Ordering`, the Relaxed-needs-justification rule, and the
//!    protocol-module routing rule.
//! 4. [`unsafety`] — the unsafe inventory: every `unsafe` carries a
//!    `// SAFETY:` comment and appears in ANALYSIS.md.
//!
//! Old regex rules that survive (`zns-state-authority`, `no-panic-paths`,
//! `no-unwrap-in-recovery`) are reimplemented over the token model in
//! [`ported`], so there is exactly one lint engine.

pub mod atomics;
pub mod lock_order;
pub mod model;
pub mod parse;
pub mod ported;
pub mod tickets;
pub mod unsafety;

use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

/// One finding. `line == 0` means a file- or crate-level finding.
#[derive(Debug)]
pub struct Violation {
    pub rule: &'static str,
    pub file: String,
    pub line: u32,
    pub msg: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "{}: [{}] {}", self.file, self.rule, self.msg)
        } else {
            write!(f, "{}:{}: [{}] {}", self.file, self.line, self.rule, self.msg)
        }
    }
}

/// Appends one violation.
pub fn push(out: &mut Vec<Violation>, rule: &'static str, file: &str, line: u32, msg: String) {
    out.push(Violation {
        rule,
        file: file.to_string(),
        line,
        msg,
    });
}

/// A loaded workspace source file.
pub struct WorkspaceFile {
    /// Path relative to the workspace root, with `/` separators.
    pub rel: String,
    pub text: String,
}

/// Walks the workspace and loads every `.rs` file outside the analyzer
/// itself and build output.
pub fn load_workspace(root: &Path) -> Vec<WorkspaceFile> {
    let mut paths: Vec<PathBuf> = Vec::new();
    collect_rs(root, root, &mut paths);
    paths.sort();
    paths
        .into_iter()
        .filter_map(|p| {
            let rel = p
                .strip_prefix(root)
                .unwrap_or(&p)
                .to_string_lossy()
                .replace('\\', "/");
            let text = fs::read_to_string(&p).ok()?;
            Some(WorkspaceFile { rel, text })
        })
        .collect()
}

fn collect_rs(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else { return };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name == ".git" {
                continue;
            }
            // Vendored third-party shims are not ours to lint.
            if path.ends_with("shims") && dir == root {
                continue;
            }
            // The analyzer does not analyze itself: its fixtures are
            // deliberate violations.
            if path.ends_with("crates/xtask") {
                continue;
            }
            collect_rs(root, &path, out);
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

/// The crate a workspace-relative path belongs to (`crates/core/src/…` →
/// `core`), or `None` for files outside `crates/`/`shims/`.
pub fn crate_of(rel: &str) -> Option<&str> {
    let rest = rel
        .strip_prefix("crates/")
        .or_else(|| rel.strip_prefix("shims/"))?;
    Some(rest.split('/').next().unwrap_or(rest))
}

/// Everything one `analyze` run produces: findings plus the inventory
/// inputs for ANALYSIS.md.
#[derive(Default)]
pub struct Report {
    pub violations: Vec<Violation>,
    pub lock_graphs: Vec<(String, lock_order::LockGraph)>,
    pub atomic_sites: Vec<atomics::AtomicSite>,
    pub unsafe_sites: Vec<unsafety::UnsafeSite>,
}

/// Runs every analysis over the loaded workspace.
pub fn run(files: &[WorkspaceFile]) -> Report {
    let mut report = Report::default();
    let mut parsed: Vec<(usize, parse::SourceFile)> = Vec::new();
    for (i, f) in files.iter().enumerate() {
        match parse::parse(&f.text) {
            Ok(sf) => parsed.push((i, sf)),
            Err(e) => push(
                &mut report.violations,
                "parse",
                &f.rel,
                e.line,
                format!("cannot parse: {e} — a file the analyzer cannot parse is a file it cannot vouch for"),
            ),
        }
    }

    // Lock-order runs per crate: lock fields and call graphs are
    // crate-local.
    let mut crates: Vec<&str> = parsed
        .iter()
        .filter_map(|(i, _)| crate_of(&files[*i].rel))
        .collect();
    crates.sort_unstable();
    crates.dedup();
    for cr in crates {
        let cf: Vec<lock_order::CrateFile<'_>> = parsed
            .iter()
            .filter(|(i, _)| crate_of(&files[*i].rel) == Some(cr))
            .map(|(i, sf)| lock_order::CrateFile {
                path: &files[*i].rel,
                source: sf,
            })
            .collect();
        let graph = lock_order::analyze(cr, &cf, &mut report.violations);
        if !graph.nodes.is_empty() {
            report.lock_graphs.push((cr.to_string(), graph));
        }
    }

    // File-local analyses.
    for (i, sf) in &parsed {
        let rel = &files[*i].rel;
        tickets::analyze(rel, sf, &mut report.violations);
        report
            .atomic_sites
            .extend(atomics::analyze(rel, sf, &mut report.violations));
        report
            .unsafe_sites
            .extend(unsafety::analyze(rel, sf, &mut report.violations));
        ported::analyze(rel, sf, &mut report.violations);
    }
    report
}

/// Renders the checked-in ANALYSIS.md inventory from a report.
pub fn render_analysis_md(report: &Report) -> String {
    let mut out = String::new();
    out.push_str("# ANALYSIS.md — static-analysis inventory\n\n");
    out.push_str(
        "Generated by `cargo xtask analyze --write`. Checked in so that drift in\n\
         lock structure, atomic orderings, or unsafe surface shows up in diffs.\n\
         Do not edit by hand; re-run the command instead.\n",
    );

    out.push_str("\n## Lock-order graphs\n\n");
    out.push_str(
        "Edges read *held → acquired*; each edge names one example site. The\n\
         analyzer fails the build on any cycle.\n\n",
    );
    for (cr, g) in &report.lock_graphs {
        out.push_str(&format!("### crate `{cr}`\n\n"));
        for (node, kind) in &g.nodes {
            out.push_str(&format!("- `{node}` ({kind})\n"));
        }
        if g.edges.is_empty() {
            out.push_str("\nNo hold-while-acquiring edges.\n\n");
        } else {
            out.push('\n');
            for ((held, acq), site) in &g.edges {
                out.push_str(&format!("- `{held}` → `{acq}` (e.g. {site})\n"));
            }
            out.push('\n');
        }
    }

    out.push_str("## Atomic-ordering inventory\n\n");
    out.push_str(
        "Every atomic access site with its `Ordering`. Sites outside\n\
         `crates/core/src/protocol/` must be Relaxed-with-justification\n\
         (`relaxed-ok:`) or carry an `ordering-ok:` justification for stronger\n\
         orderings; protocol types are loom-modeled instead.\n\n",
    );
    out.push_str("| file | line | op | ordering | justified |\n");
    out.push_str("|---|---|---|---|---|\n");
    for s in &report.atomic_sites {
        out.push_str(&format!(
            "| {} | {} | {} | {} | {} |\n",
            s.file,
            s.line,
            s.op,
            s.ordering,
            if s.justified { "yes" } else { "n/a (protocol/test)" }
        ));
    }

    out.push_str("\n## Unsafe inventory\n\n");
    if report.unsafe_sites.is_empty() {
        out.push_str("No unsafe code outside test scaffolding.\n");
    } else {
        out.push_str("| file | line | kind | context |\n");
        out.push_str("|---|---|---|---|\n");
        for s in &report.unsafe_sites {
            out.push_str(&format!(
                "| {} | {} | {} | {} |\n",
                s.file,
                s.line,
                s.kind,
                s.context.as_deref().unwrap_or("-")
            ));
        }
    }
    out
}
