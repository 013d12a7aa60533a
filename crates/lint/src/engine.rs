//! The rule engine: one pass over one file's token stream
//! ([`check_source`]), honoring test-code exemptions and in-source
//! suppressions.
//!
//! The engine is deliberately grammar-free: every rule matches what is
//! visible in the token stream (hash containers, clock reads, unwraps,
//! panics, spawns, `fs::` paths, suppression comments), so a file's
//! findings depend on that file alone and no parser dependency is
//! needed. Each pattern errs toward *flagging*, and the suppression
//! mechanism — with a mandatory reason — is the escape hatch.

use crate::lexer::{lex, Tok, TokKind};
use crate::rules::{in_scope, rule, RuleSpec, RULES};

/// One rule violation at a source location.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Id of the violated rule.
    pub rule: &'static str,
    /// Workspace-relative path (`/`-separated).
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// The offending source line, trimmed and whitespace-collapsed.
    pub snippet: String,
    /// The rule's rationale.
    pub why: &'static str,
}

/// Outcome of checking one file.
#[derive(Clone, Debug, Default)]
pub struct FileReport {
    /// Violations that survived suppression filtering.
    pub findings: Vec<Finding>,
    /// Violations silenced by a valid `cascade-lint: allow` directive.
    pub suppressed: usize,
}

/// A parsed `// cascade-lint: allow…` directive.
struct Directive {
    rule_id: String,
    /// Line the directive silences (`None` for file-scope).
    target_line: Option<u32>,
    /// Where the directive itself sits (for error reporting).
    at_line: u32,
    /// Whether a non-empty reason followed the rule id.
    has_reason: bool,
    known: bool,
}

impl Directive {
    /// Whether this is a valid reasoned directive silencing `rule_id` at
    /// `line`.
    fn allows(&self, rule_id: &str, line: u32) -> bool {
        self.known
            && self.has_reason
            && self.rule_id == rule_id
            && (self.target_line.is_none() || self.target_line == Some(line))
    }
}

/// The offending source line, trimmed and whitespace-collapsed.
fn snippet_of(source: &str, line: u32) -> String {
    let raw = source.lines().nth(line as usize - 1).unwrap_or("");
    let mut s = raw.split_whitespace().collect::<Vec<_>>().join(" ");
    if s.len() > 120 {
        s.truncate(117);
        s.push_str("...");
    }
    s
}

/// Checks one Rust source file against every rule in scope for `path`
/// (workspace-relative, `/`-separated).
pub fn check_source(path: &str, source: &str) -> FileReport {
    let toks = lex(source);
    let code: Vec<&Tok> = toks.iter().filter(|t| t.kind != TokKind::Comment).collect();
    let in_test = test_regions(&code);
    let (directives, comment_lines) = parse_directives(&toks, &code);

    let mut report = FileReport::default();
    let mut raw: Vec<(&'static RuleSpec, u32, u32)> = Vec::new();
    // det-float-accum's statement state: a `HashMap`/`HashSet` was
    // mentioned since the last `;`, `{` or `}`.
    let mut hash_in_statement = false;
    for (i, t) in code.iter().enumerate() {
        let mut flag = |id| raw.push((force(id), t.line, t.col));

        // ---- Determinism ----
        if t.is_punct(';') || t.is_punct('{') || t.is_punct('}') {
            hash_in_statement = false;
        }
        if t.is_ident("HashMap") || t.is_ident("HashSet") {
            flag("det-hash-iter");
            hash_in_statement = true;
        }
        if t.is_ident("SystemTime") || (t.is_ident("Instant") && is_path_call(&code, i, "now")) {
            flag("det-wallclock");
        }
        // A float reduction (`.sum()` / `.product()` / `.fold(`) in the
        // same statement as a hash-container mention. Statement bounds
        // are coarse, but hash-ordered reductions are single expressions
        // in practice.
        if hash_in_statement
            && t.kind == TokKind::Ident
            && matches!(t.text.as_str(), "sum" | "product" | "fold")
            && i > 0
            && code[i - 1].is_punct('.')
        {
            flag("det-float-accum");
            hash_in_statement = false;
        }

        // ---- Panic safety ----
        if t.is_ident("unwrap") && is_method_call(&code, i) {
            flag("panic-unwrap");
        }
        if t.is_ident("expect") && is_method_call(&code, i) {
            if let Some(msg) = code.get(i + 2).filter(|a| a.kind == TokKind::Str) {
                if !message_states_invariant(&msg.text) {
                    flag("panic-expect");
                }
            }
        }
        if t.kind == TokKind::Ident
            && matches!(
                t.text.as_str(),
                "panic" | "unreachable" | "todo" | "unimplemented"
            )
            && code.get(i + 1).is_some_and(|n| n.is_punct('!'))
        {
            flag("panic-macro");
        }
        if t.is_punct('[') && is_unchecked_index(&code, i) {
            flag("panic-index");
        }

        // ---- Concurrency ----
        if t.is_ident("thread") && is_path_call(&code, i, "spawn") {
            flag("conc-spawn");
        }
        if t.is_ident("static") && code.get(i + 1).is_some_and(|n| n.is_ident("mut")) {
            flag("conc-static-mut");
        }

        // ---- Arena lifecycle ----
        // `arena::reset()` (or `cascade_tensor::arena::reset()`) outside
        // the designated batch-loop modules.
        if t.is_ident("arena") && is_path_call(&code, i, "reset") {
            flag("arena-reset-confined");
        }

        // ---- I/O confinement ----
        // `fs` as a path segment (`std::fs::…`, `use std::fs`,
        // `fs::File`); a plain identifier named `fs` with no `::` on
        // either side is not a filesystem access.
        if t.is_ident("fs") {
            let path_before = i >= 3
                && code[i - 3].is_ident("std")
                && code[i - 2].is_punct(':')
                && code[i - 1].is_punct(':');
            let path_after = code.get(i + 1).is_some_and(|n| n.is_punct(':'))
                && code.get(i + 2).is_some_and(|n| n.is_punct(':'));
            if path_before || path_after {
                flag("io-fs-confined");
            }
        }

        // ---- Policy ----
        if t.is_ident("allow")
            && code.get(i + 1).is_some_and(|n| n.is_punct('('))
            && code.get(i + 2).is_some_and(|n| n.is_ident("clippy"))
            && !comment_lines.contains(&t.line)
            && !comment_lines.contains(&(t.line - 1))
        {
            flag("policy-clippy-allow");
        }
    }
    for d in &directives {
        if !d.known || !d.has_reason {
            raw.push((force("policy-bare-suppression"), d.at_line, 1));
        }
    }

    // ---- Scope, test-code, and suppression filtering ----
    let test_lines: Vec<u32> = code
        .iter()
        .zip(&in_test)
        .filter(|(_, &t)| t)
        .map(|(tok, _)| tok.line)
        .collect();
    for (spec, line, col) in raw {
        if !in_scope(spec, path) {
            continue;
        }
        if !spec.applies_to_tests && test_lines.binary_search(&line).is_ok() {
            continue;
        }
        // `policy-bare-suppression` is the one rule that cannot be
        // suppressed — silencing the silencer defeats the audit trail.
        let suppressible = spec.id != "policy-bare-suppression";
        if suppressible && directives.iter().any(|d| d.allows(spec.id, line)) {
            report.suppressed += 1;
            continue;
        }
        report.findings.push(Finding {
            rule: spec.id,
            file: path.to_string(),
            line,
            col,
            snippet: snippet_of(source, line),
            why: spec.why,
        });
    }
    // Deterministic order: (line, col, rule), deduplicated.
    report
        .findings
        .sort_by(|a, b| (a.line, a.col, a.rule).cmp(&(b.line, b.col, b.rule)));
    report.findings.dedup();
    report
}

/// Resolves a rule id that is statically known to exist.
fn force(id: &'static str) -> &'static RuleSpec {
    match rule(id) {
        Some(spec) => spec,
        None => &RULES[0], // unreachable: ids above are registry literals
    }
}

/// `ident :: … :: tail (` starting at `i` (tolerating one intermediate
/// path segment, as in `std::thread::spawn` vs `thread::spawn`).
fn is_path_call(code: &[&Tok], i: usize, tail: &str) -> bool {
    let mut j = i + 1;
    for _ in 0..2 {
        if !(code.get(j).is_some_and(|t| t.is_punct(':'))
            && code.get(j + 1).is_some_and(|t| t.is_punct(':')))
        {
            return false;
        }
        j += 2;
        match code.get(j) {
            Some(t) if t.is_ident(tail) => {
                return code.get(j + 1).is_some_and(|n| n.is_punct('('));
            }
            Some(t) if t.kind == TokKind::Ident => j += 1,
            _ => return false,
        }
    }
    false
}

/// `. ident (` — token `i` is the method name of a call.
fn is_method_call(code: &[&Tok], i: usize) -> bool {
    i > 0 && code[i - 1].is_punct('.') && code.get(i + 1).is_some_and(|n| n.is_punct('('))
}

/// An `expect()` message that plausibly states an invariant: at least
/// two words and ten characters. "non-empty batch" passes; "boom" and
/// "failed" do not.
fn message_states_invariant(literal: &str) -> bool {
    let inner = literal
        .trim_start_matches(['b', 'r', '#'])
        .trim_matches(['#', '"']);
    inner.trim().len() >= 10 && inner.split_whitespace().count() >= 2
}

/// Keywords that can directly precede `[` without forming an index
/// expression (slice patterns, array types, `for x in [..]`).
const NON_INDEX_KEYWORDS: &[&str] = &[
    "let", "mut", "ref", "in", "if", "else", "match", "return", "break", "continue", "move", "as",
    "dyn", "impl", "where", "for", "const", "static", "type", "fn", "use", "pub",
];

/// panic-index: the `[` at `i` opens `expr[index]` with no `..` inside
/// the brackets (range slicing is conventional) — true for `v[i]`, false
/// for `v[a..b]`, attributes, array types, and slice patterns.
fn is_unchecked_index(code: &[&Tok], i: usize) -> bool {
    let Some(prev) = i.checked_sub(1).and_then(|p| code.get(p)) else {
        return false;
    };
    let indexable = match prev.kind {
        TokKind::Ident => !NON_INDEX_KEYWORDS.contains(&prev.text.as_str()),
        TokKind::Punct => prev.is_punct(')') || prev.is_punct(']'),
        _ => false,
    };
    if !indexable {
        return false;
    }
    // Walk to the matching `]`, rejecting ranges.
    let mut depth = 1usize;
    let mut j = i + 1;
    let mut empty = true;
    while depth > 0 {
        let Some(n) = code.get(j) else { break };
        empty = false;
        if n.is_punct('[') {
            depth += 1;
        } else if n.is_punct(']') {
            depth -= 1;
        } else if n.is_punct('.') && code.get(j + 1).is_some_and(|m| m.is_punct('.')) {
            return false;
        }
        j += 1;
    }
    !empty
}

/// Marks tokens inside `#[cfg(test)]` / `#[test]` items (the attribute,
/// the item header, and its brace-delimited body).
fn test_regions(code: &[&Tok]) -> Vec<bool> {
    let mut flags = vec![false; code.len()];
    let mut i = 0usize;
    while i < code.len() {
        if !(code[i].is_punct('#') && code.get(i + 1).is_some_and(|t| t.is_punct('['))) {
            i += 1;
            continue;
        }
        // Extract the attribute's token range.
        let attr_start = i;
        let mut j = i + 2;
        let mut depth = 1usize;
        while depth > 0 {
            match code.get(j) {
                Some(t) if t.is_punct('[') => depth += 1,
                Some(t) if t.is_punct(']') => depth -= 1,
                Some(_) => {}
                None => break,
            }
            j += 1;
        }
        let inner = &code[i + 2..j.saturating_sub(1).max(i + 2)];
        let is_test_attr = match inner.first() {
            Some(first) if first.is_ident("test") => true,
            Some(first) if first.is_ident("cfg") => inner.iter().any(|t| t.is_ident("test")),
            _ => false,
        };
        if !is_test_attr {
            i = j;
            continue;
        }
        // Skip any further attributes, then the item: either to `;`
        // (e.g. a cfg'd `use`) or through the matching `}` of its body.
        let mut k = j;
        while code.get(k).is_some_and(|t| t.is_punct('#'))
            && code.get(k + 1).is_some_and(|t| t.is_punct('['))
        {
            let mut d = 1usize;
            k += 2;
            while d > 0 {
                match code.get(k) {
                    Some(t) if t.is_punct('[') => d += 1,
                    Some(t) if t.is_punct(']') => d -= 1,
                    Some(_) => {}
                    None => break,
                }
                k += 1;
            }
        }
        let mut end = k;
        while let Some(t) = code.get(end) {
            if t.is_punct(';') {
                end += 1;
                break;
            }
            if t.is_punct('{') {
                let mut d = 1usize;
                end += 1;
                while d > 0 {
                    match code.get(end) {
                        Some(t) if t.is_punct('{') => d += 1,
                        Some(t) if t.is_punct('}') => d -= 1,
                        Some(_) => {}
                        None => break,
                    }
                    end += 1;
                }
                break;
            }
            end += 1;
        }
        for f in flags.iter_mut().take(end.min(code.len())).skip(attr_start) {
            *f = true;
        }
        i = end;
    }
    flags
}

/// Parses `cascade-lint:` directives out of comment tokens. Returns the
/// directives plus the set of lines that contain any comment (used by
/// policy-clippy-allow's justification check). Standalone comment lines
/// target the next line that has code; trailing comments target their
/// own line.
fn parse_directives(toks: &[Tok], code: &[&Tok]) -> (Vec<Directive>, Vec<u32>) {
    let mut comment_lines: Vec<u32> = Vec::new();
    let mut code_lines: Vec<u32> = Vec::new();
    for t in toks {
        if t.kind == TokKind::Comment {
            comment_lines.push(t.line);
        }
    }
    for t in code {
        code_lines.push(t.line);
    }
    comment_lines.dedup();
    code_lines.dedup();

    let mut directives = Vec::new();
    for t in toks {
        if t.kind != TokKind::Comment {
            continue;
        }
        // Doc comments describe the directive syntax; they never *are*
        // directives.
        if t.text.starts_with("///")
            || t.text.starts_with("//!")
            || t.text.starts_with("/**")
            || t.text.starts_with("/*!")
        {
            continue;
        }
        let Some(rest) = t.text.find("cascade-lint:").map(|p| &t.text[p + 13..]) else {
            continue;
        };
        let rest = rest.trim_start();
        // Prose that merely mentions the marker is not a directive; only
        // an `allow…` form engages the parser (and from there on,
        // malformed input is itself a finding).
        let (file_scope, rest) = if let Some(r) = rest.strip_prefix("allow-file(") {
            (true, r)
        } else if let Some(r) = rest.strip_prefix("allow(") {
            (false, r)
        } else {
            continue;
        };
        let Some(close) = rest.find(')') else {
            directives.push(Directive {
                rule_id: String::new(),
                target_line: None,
                at_line: t.line,
                has_reason: false,
                known: false,
            });
            continue;
        };
        let rule_id = rest[..close].trim().to_string();
        let after = rest[close + 1..].trim_start();
        let reason = after.strip_prefix(':').map(str::trim).unwrap_or("");
        let trailing = code_lines.binary_search(&t.line).is_ok();
        let target_line = if file_scope {
            None
        } else if trailing {
            Some(t.line)
        } else {
            // Standalone comment: silence the next code line.
            let next = code_lines
                .iter()
                .find(|&&l| l > t.line)
                .copied()
                .unwrap_or(t.line + 1);
            Some(next)
        };
        directives.push(Directive {
            known: rule(&rule_id).is_some(),
            rule_id,
            target_line,
            at_line: t.line,
            has_reason: reason.len() >= 8,
        });
    }
    (directives, comment_lines)
}

#[cfg(test)]
mod tests {
    use super::*;

    const EXEC: &str = "crates/exec/src/worker.rs";
    const CORE: &str = "crates/core/src/scheduler.rs";
    const STREAMING: &str = "crates/core/src/streaming.rs";

    fn rules_hit(path: &str, src: &str) -> Vec<&'static str> {
        check_source(path, src)
            .findings
            .iter()
            .map(|f| f.rule)
            .collect()
    }

    #[test]
    fn unwrap_flagged_in_hot_paths_only() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }";
        assert_eq!(rules_hit(CORE, src), ["panic-unwrap"]);
        assert_eq!(
            rules_hit("crates/util/src/json.rs", src),
            Vec::<&str>::new()
        );
        // `unwrap` as a plain identifier (not a method call) is not a finding.
        assert!(rules_hit(CORE, "fn unwrap(x: u32) -> u32 { x }").is_empty());
    }

    #[test]
    fn test_code_is_exempt_from_panic_rules() {
        let src =
            "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { None::<u32>.unwrap(); }\n}\n";
        assert!(rules_hit(CORE, src).is_empty());
        let src =
            "#[test]\nfn t() { panic!(\"boom\"); }\nfn hot(x: Option<u32>) -> u32 { x.unwrap() }\n";
        assert_eq!(rules_hit(CORE, src), ["panic-unwrap"]);
    }

    #[test]
    fn expect_needs_an_invariant_message() {
        assert_eq!(
            rules_hit(CORE, "fn f(x: Option<u32>) -> u32 { x.expect(\"oops\") }"),
            ["panic-expect"]
        );
        assert!(rules_hit(
            CORE,
            "fn f(x: Option<u32>) -> u32 { x.expect(\"scheduler inserted this chunk above\") }"
        )
        .is_empty());
    }

    #[test]
    fn panic_family_macros_flagged() {
        for mac in [
            "panic!(\"x\")",
            "unreachable!()",
            "todo!()",
            "unimplemented!()",
        ] {
            let src = format!("fn f() {{ {} }}", mac);
            assert_eq!(rules_hit(CORE, &src), ["panic-macro"], "{}", mac);
        }
    }

    #[test]
    fn unchecked_index_only_in_the_streaming_driver_and_ranges_pass() {
        let idx = "fn f(v: &[u32], i: usize) -> u32 { v[i] }";
        assert_eq!(rules_hit(STREAMING, idx), ["panic-index"]);
        assert!(
            rules_hit(CORE, idx).is_empty(),
            "panic-index binds the streaming driver only"
        );
        assert!(rules_hit(EXEC, idx).is_empty());
        assert!(rules_hit(STREAMING, "fn f(v: &[u32]) -> &[u32] { &v[1..3] }").is_empty());
        assert!(rules_hit(
            STREAMING,
            "fn f() { let [a, b] = [1u32, 2]; let _ = (a, b); }"
        )
        .is_empty());
        assert!(rules_hit(STREAMING, "#[derive(Clone)]\nstruct S;").is_empty());
    }

    #[test]
    fn wallclock_flagged_but_telemetry_module_allowlisted() {
        let src = "fn f() { let t = std::time::Instant::now(); let _ = t; }";
        assert_eq!(rules_hit(CORE, src), ["det-wallclock"]);
        assert!(rules_hit("crates/core/src/instrument.rs", src).is_empty());
    }

    #[test]
    fn hash_containers_flagged_in_compute_crates() {
        let src = "use std::collections::HashMap;";
        assert_eq!(
            rules_hit("crates/models/src/model.rs", src),
            ["det-hash-iter"]
        );
        assert!(rules_hit("crates/bench/src/main.rs", src).is_empty());
    }

    #[test]
    fn float_accum_needs_hash_and_reduction_in_one_statement() {
        let bad =
            "fn f() { let s: f32 = HashMap::from([(1u32, 1.0f32)]).values().sum(); let _ = s; }";
        // The HashMap mention itself plus the hash-ordered reduction.
        assert_eq!(rules_hit(CORE, bad), ["det-hash-iter", "det-float-accum"]);
        assert_eq!(
            rules_hit(CORE, "fn f(v: &[f32]) -> f32 { v.iter().sum() }"),
            Vec::<&str>::new()
        );
    }

    #[test]
    fn detached_spawn_banned_in_exec_and_core_but_the_scoped_loader_passes() {
        let src = "fn f() { std::thread::spawn(|| {}); }";
        assert_eq!(rules_hit(EXEC, src), ["conc-spawn"]);
        assert_eq!(rules_hit(CORE, src), ["conc-spawn"], "core spawns none");
        assert_eq!(rules_hit(STREAMING, src), ["conc-spawn"]);
        let scoped = "fn f() { std::thread::scope(|s| { s.spawn(|| {}); }); }";
        assert!(
            rules_hit(STREAMING, scoped).is_empty(),
            "the loader is scoped, not detached"
        );
        assert_eq!(
            rules_hit(EXEC, "fn f() { thread::spawn(|| {}); }"),
            ["conc-spawn"]
        );
    }

    #[test]
    fn fs_access_confined_to_storage_modules() {
        let src = "fn f() { std::fs::write(\"x\", b\"y\").ok(); }";
        assert_eq!(rules_hit(CORE, src), ["io-fs-confined"]);
        assert_eq!(rules_hit(EXEC, src), ["io-fs-confined"]);
        assert_eq!(
            rules_hit("crates/tgraph/src/source.rs", src),
            ["io-fs-confined"]
        );
        // The designated I/O modules and the storage layer itself pass.
        assert!(rules_hit("crates/tgraph/src/dataset.rs", src).is_empty());
        assert!(rules_hit("crates/models/src/checkpoint.rs", src).is_empty());
        assert!(rules_hit("crates/store/src/writer.rs", src).is_empty());
        // `use std::fs;` and a bare `fs::` path both count.
        assert_eq!(rules_hit(CORE, "use std::fs;"), ["io-fs-confined"]);
        assert_eq!(
            rules_hit(CORE, "fn f() { fs::remove_file(\"x\").ok(); }"),
            ["io-fs-confined"]
        );
        // A variable that happens to be named `fs` is not file I/O.
        assert!(rules_hit(CORE, "fn f(fs: u32) -> u32 { fs + 1 }").is_empty());
    }

    #[test]
    fn static_mut_flagged_everywhere() {
        assert_eq!(
            rules_hit("crates/util/src/rng.rs", "static mut COUNTER: u32 = 0;"),
            ["conc-static-mut"]
        );
    }

    #[test]
    fn clippy_allow_needs_a_nearby_comment() {
        let bare = "#[allow(clippy::too_many_arguments)]\nfn f() {}";
        assert_eq!(
            rules_hit("crates/util/src/x.rs", bare),
            ["policy-clippy-allow"]
        );
        let justified = "// wide API mirrors the paper's signature\n#[allow(clippy::too_many_arguments)]\nfn f() {}";
        assert!(rules_hit("crates/util/src/x.rs", justified).is_empty());
    }

    #[test]
    fn trailing_suppression_silences_its_line() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() } // cascade-lint: allow(panic-unwrap): caller checked is_some on entry\n";
        let report = check_source(CORE, src);
        assert!(report.findings.is_empty());
        assert_eq!(report.suppressed, 1);
    }

    #[test]
    fn standalone_suppression_targets_next_code_line() {
        let src = "// cascade-lint: allow(panic-unwrap): caller checked is_some on entry\nfn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
        let report = check_source(CORE, src);
        assert!(report.findings.is_empty());
        assert_eq!(report.suppressed, 1);
        // ...and only that line: a second violation further down stays.
        let src2 = format!("{}fn g(y: Option<u32>) -> u32 {{ y.unwrap() }}\n", src);
        assert_eq!(rules_hit(CORE, &src2), ["panic-unwrap"]);
    }

    #[test]
    fn file_scope_suppression_covers_whole_file() {
        let src = "// cascade-lint: allow-file(det-wallclock): telemetry only, never steers batching\nfn a() { let _ = Instant::now(); }\nfn b() { let _ = Instant::now(); }\n";
        let report = check_source(CORE, src);
        assert!(report.findings.is_empty());
        assert_eq!(report.suppressed, 2);
    }

    #[test]
    fn suppression_without_reason_is_itself_a_finding() {
        let src =
            "fn f(x: Option<u32>) -> u32 { x.unwrap() } // cascade-lint: allow(panic-unwrap)\n";
        let hits = rules_hit(CORE, src);
        // The unwrap still fires AND the bare directive is reported.
        assert!(hits.contains(&"panic-unwrap"), "{:?}", hits);
        assert!(hits.contains(&"policy-bare-suppression"), "{:?}", hits);
        // A too-short reason is the same as no reason.
        let short =
            "fn f(x: Option<u32>) -> u32 { x.unwrap() } // cascade-lint: allow(panic-unwrap): ok\n";
        assert!(rules_hit(CORE, short).contains(&"policy-bare-suppression"));
    }

    #[test]
    fn unknown_rule_in_suppression_is_flagged() {
        let src = "// cascade-lint: allow(no-such-rule): a perfectly good reason\nfn f() {}\n";
        assert_eq!(rules_hit(CORE, src), ["policy-bare-suppression"]);
    }

    #[test]
    fn bare_suppression_cannot_be_suppressed() {
        let src = "// cascade-lint: allow-file(policy-bare-suppression): trying to silence the silencer\n// cascade-lint: allow(panic-unwrap)\nfn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
        let hits = rules_hit(CORE, src);
        assert!(hits.contains(&"policy-bare-suppression"), "{:?}", hits);
    }

    #[test]
    fn doc_comments_describing_directives_are_not_directives() {
        let src = "/// Silence with `// cascade-lint: allow(panic-unwrap)` plus a reason.\n//! See `cascade-lint: allow(<rule>): <reason>` in the README.\nfn f() {}\n";
        assert!(rules_hit(CORE, src).is_empty());
    }

    #[test]
    fn findings_carry_location_and_snippet() {
        let src = "fn f(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n";
        let report = check_source(CORE, src);
        assert_eq!(report.findings.len(), 1);
        let f = &report.findings[0];
        assert_eq!((f.line, f.col), (2, 7));
        assert_eq!(f.snippet, "x.unwrap()");
        assert_eq!(f.file, CORE);
    }
}
