//! Drives the [rule table](crate::rules::RULES) and the
//! [interprocedural passes](crate::ipr) over source text and a
//! workspace tree: lex, parse, build the call graph, check, apply
//! `pti-allow` suppressions, report.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

use crate::graph::CallGraph;
use crate::ipr::{self, IprContext, RawFinding};
use crate::lexer::{lex, Line};
use crate::parser::{parse_file, FileModel};
use crate::rules::{
    classify, code_is_blank, known_rule_id, parse_allows, AllowParse, Check, Severity, RULES,
};

/// One reported violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path (forward slashes).
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// Rule id (`wall-clock`, …, or the engine's own `allow-syntax` /
    /// `unused-allow`).
    pub rule: &'static str,
    /// Whether it fails the run.
    pub severity: Severity,
    /// Human-readable explanation.
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let tier = match self.severity {
            Severity::Deny => "deny",
            Severity::Advisory => "advisory",
        };
        write!(
            f,
            "{}:{} {} [{}] {}",
            self.path, self.line, self.rule, tier, self.message
        )
    }
}

/// One entry of the `panic-reachability` report: a panic site in
/// library code transitively reachable from `Swarm::dispatch`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PanicSite {
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// The spelling at the site (`.unwrap()`, `panic!`, …).
    pub what: String,
    /// The call path from the dispatch root.
    pub via: String,
}

/// Everything one lint run produces.
#[derive(Debug, Clone, Default)]
pub struct Analysis {
    /// Suppression-filtered findings, sorted by path/line/rule.
    pub findings: Vec<Finding>,
    /// Total `pti-allow` annotations parsed across the input set — the
    /// number CI gates so it can only go down.
    pub allow_count: usize,
    /// The `panic-reachability` report (advisory; count gated in CI).
    pub panic_sites: Vec<PanicSite>,
}

/// The allows in force for each line: an allow on a code line binds to
/// that line; an allow on a comment-only line binds to the next
/// non-comment-only line (runs of comment-only lines accumulate).
/// Returns per-line `(rule, allow-line)` bindings plus any syntax
/// findings.
fn bind_allows(path: &str, lines: &[Line]) -> (Vec<Vec<(String, usize)>>, Vec<Finding>) {
    let mut bound: Vec<Vec<(String, usize)>> = vec![Vec::new(); lines.len()];
    let mut findings = Vec::new();
    let mut carried: Vec<(String, usize)> = Vec::new();
    for (idx, line) in lines.iter().enumerate() {
        match parse_allows(&line.comment) {
            AllowParse::None => {}
            AllowParse::Malformed(msg) => findings.push(Finding {
                path: path.to_string(),
                line: idx + 1,
                rule: "allow-syntax",
                severity: Severity::Deny,
                message: msg,
            }),
            AllowParse::Allows(allows) => {
                for a in allows {
                    if code_is_blank(line) {
                        carried.push((a.rule, idx));
                    } else {
                        bound[idx].push((a.rule, idx));
                    }
                }
            }
        }
        if !code_is_blank(line) && !carried.is_empty() {
            bound[idx].append(&mut carried);
        }
    }
    // Allows still carried at EOF bind nowhere; they surface as unused.
    for (rule, at) in carried {
        bound.push(Vec::new());
        let last = bound.len() - 1;
        bound[last].push((rule, at));
    }
    (bound, findings)
}

/// Finds an allow for `rule` governing the finding at 0-based `idx`.
///
/// Besides the finding's own line, rustfmt-split method chains are
/// handled: when the finding's line starts with `.` (a chained
/// continuation), the search walks back through the chain to the
/// statement head, so an allow written where the statement begins
/// suppresses a finding the checker attributes to a later link — and is
/// marked *used* rather than surfacing as `unused-allow`.
fn find_allow(
    bound: &[Vec<(String, usize)>],
    lines: &[Line],
    mut idx: usize,
    rule: &str,
) -> Option<usize> {
    loop {
        if let Some(&(_, allow_line)) = bound
            .get(idx)
            .and_then(|b| b.iter().find(|(r, _)| r == rule))
        {
            return Some(allow_line);
        }
        let line = lines.get(idx)?;
        if !line.code.trim_start().starts_with('.') || idx == 0 {
            return None;
        }
        // Walk one link up the chain: the previous non-blank code line.
        let mut j = idx;
        loop {
            j -= 1;
            if !code_is_blank(&lines[j]) {
                break;
            }
            if j == 0 {
                return None;
            }
        }
        idx = j;
    }
}

/// Lints a set of files as one workspace: file-granularity rules per
/// file, then the interprocedural passes over the whole set's call
/// graph. `inputs` are `(relpath, source)` pairs; relpaths choose rule
/// scopes and should use forward slashes.
pub fn analyze_files(inputs: &[(String, String)]) -> Analysis {
    let lines: Vec<Vec<Line>> = inputs.iter().map(|(_, src)| lex(src)).collect();

    let mut findings = Vec::new();
    let mut bounds: Vec<Vec<Vec<(String, usize)>>> = Vec::new();
    let mut allow_count = 0usize;
    for (fi, (path, _)) in inputs.iter().enumerate() {
        let (bound, syntax) = bind_allows(path, &lines[fi]);
        allow_count += bound.iter().map(Vec::len).sum::<usize>();
        findings.extend(syntax);
        bounds.push(bound);
    }

    // -- file-granularity rules -------------------------------------
    let mut raw: Vec<RawFinding> = Vec::new();
    for (fi, (path, _)) in inputs.iter().enumerate() {
        let class = classify(path);
        for rule in RULES {
            let Some(severity) = (rule.severity_for)(path, class) else {
                continue;
            };
            let hits: Vec<(usize, String)> = match rule.check {
                Check::Line(f) => lines[fi]
                    .iter()
                    .enumerate()
                    .filter_map(|(i, l)| f(&l.code).map(|m| (i, m)))
                    .collect(),
                Check::File(f) => f(&lines[fi]),
            };
            for (idx, message) in hits {
                if rule.exempt_tests && lines[fi][idx].in_test {
                    continue;
                }
                raw.push(RawFinding {
                    file: fi,
                    line: idx,
                    rule: rule.id,
                    severity,
                    message,
                });
            }
        }
    }

    // -- interprocedural passes -------------------------------------
    let models: Vec<FileModel> = inputs
        .iter()
        .enumerate()
        .map(|(fi, (path, _))| parse_file(path, &lines[fi]))
        .collect();
    let graph = CallGraph::build(&models);
    let ctx = IprContext {
        files: &models,
        lines: &lines,
        graph: &graph,
    };
    raw.extend(ipr::reactor_blocking(&ctx));
    raw.extend(ipr::refcell_reentrancy(&ctx));
    raw.extend(ipr::wire_determinism_taint(&ctx));

    // -- one suppression path for everything ------------------------
    let mut used: BTreeSet<(usize, usize, String)> = BTreeSet::new();
    for f in raw {
        match find_allow(&bounds[f.file], &lines[f.file], f.line, f.rule) {
            Some(allow_line) => {
                used.insert((f.file, allow_line, f.rule.to_string()));
            }
            None => findings.push(Finding {
                path: inputs[f.file].0.clone(),
                line: f.line + 1,
                rule: f.rule,
                severity: f.severity,
                message: f.message,
            }),
        }
    }

    // The panic report is suppression-aware too: an allowed site drops
    // out of the count the CI ceiling gates.
    let mut panic_sites = Vec::new();
    for s in ipr::panic_reachability(&ctx) {
        match find_allow(
            &bounds[s.file],
            &lines[s.file],
            s.line,
            "panic-reachability",
        ) {
            Some(allow_line) => {
                used.insert((s.file, allow_line, "panic-reachability".to_string()));
            }
            None => panic_sites.push(PanicSite {
                path: inputs[s.file].0.clone(),
                line: s.line + 1,
                what: s.what,
                via: s.via,
            }),
        }
    }

    // Advisory hygiene: an allow that suppressed nothing is stale —
    // either the violation was fixed (drop the comment) or the allow is
    // bound to the wrong line.
    for (fi, bound) in bounds.iter().enumerate() {
        for binds in bound {
            for (rule, allow_line) in binds {
                let consumed = used.contains(&(fi, *allow_line, rule.clone()));
                if !consumed && known_rule_id(rule) {
                    findings.push(Finding {
                        path: inputs[fi].0.clone(),
                        line: allow_line + 1,
                        rule: "unused-allow",
                        severity: Severity::Advisory,
                        message: format!("pti-allow({rule}) suppresses nothing on its target line"),
                    });
                }
            }
        }
    }

    findings.sort_by(|a, b| {
        (&a.path, a.line, a.rule, &a.message).cmp(&(&b.path, b.line, b.rule, &b.message))
    });
    findings.dedup();
    Analysis {
        findings,
        allow_count,
        panic_sites,
    }
}

/// Lints one file's source text (single-file view of [`analyze_files`];
/// interprocedural rules see only this file's call graph).
pub fn analyze_source(relpath: &str, src: &str) -> Vec<Finding> {
    analyze_files(&[(relpath.to_string(), src.to_string())]).findings
}

/// Recursively collects `.rs` files under `dir` (skipping `target`).
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    paths.sort();
    for path in paths {
        if path.is_dir() {
            if path
                .file_name()
                .is_some_and(|n| n == "target" || n == ".git")
            {
                continue;
            }
            collect_rs(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Reads the workspace rooted at `root` (the directory holding the
/// top-level `Cargo.toml`) into `(relpath, source)` pairs: `crates/`,
/// `tests/`, `examples/`.
pub fn read_workspace(root: &Path) -> std::io::Result<Vec<(String, String)>> {
    let mut files = Vec::new();
    for sub in ["crates", "tests", "examples"] {
        collect_rs(&root.join(sub), &mut files);
    }
    let mut inputs = Vec::new();
    for file in files {
        let rel = file
            .strip_prefix(root)
            .unwrap_or(&file)
            .to_string_lossy()
            .replace('\\', "/");
        let src = fs::read_to_string(&file)?;
        inputs.push((rel, src));
    }
    Ok(inputs)
}

/// Lints the whole workspace rooted at `root`.
pub fn analyze_workspace(root: &Path) -> std::io::Result<Analysis> {
    Ok(analyze_files(&read_workspace(root)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allow_on_comment_line_binds_to_next_code_line() {
        let src = "\
// pti-allow(wall-clock): prose explains why this is fine
let deadline = Instant::now();
";
        let f = analyze_source("crates/net/src/reactor.rs", src);
        assert!(f.iter().all(|f| f.rule != "wall-clock"), "{f:?}");
    }

    #[test]
    fn malformed_allow_is_a_deny_finding() {
        let src = "let x = 1; // pti-allow(wall-clock)\n";
        let f = analyze_source("crates/net/src/reactor.rs", src);
        assert!(f
            .iter()
            .any(|f| f.rule == "allow-syntax" && f.severity == Severity::Deny));
    }

    #[test]
    fn unknown_rule_in_allow_is_rejected() {
        let src = "let x = 1; // pti-allow(wallclock): typo\n";
        let f = analyze_source("crates/net/src/reactor.rs", src);
        assert!(f.iter().any(|f| f.rule == "allow-syntax"));
    }

    #[test]
    fn unused_allow_is_advisory() {
        let src = "let x = 1; // pti-allow(wall-clock): nothing here trips it\n";
        let f = analyze_source("crates/net/src/reactor.rs", src);
        assert!(f
            .iter()
            .any(|f| f.rule == "unused-allow" && f.severity == Severity::Advisory));
    }

    #[test]
    fn chained_finding_uses_statement_head_allow() {
        // The finding lands on a `.iter()` continuation line; the allow
        // sits on the statement head. It must suppress AND be counted
        // as used (no unused-allow).
        let src = "\
fn emit(&self, peers: HashMap<u64, Peer>) {
    let order = peers // pti-allow(unordered-iter): sorted three lines down
        .keys()
        .copied()
        .collect::<Vec<_>>();
}
";
        let f = analyze_source("crates/serialize/src/wire.rs", src);
        assert!(f.iter().all(|f| f.rule != "unordered-iter"), "{f:?}");
        assert!(f.iter().all(|f| f.rule != "unused-allow"), "{f:?}");
    }
}
