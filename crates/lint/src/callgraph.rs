//! Interprocedural analyses over the per-function facts extracted by
//! [`crate::flow`]: lock-order cycle detection (`conc-lock-order`) and
//! determinism taint propagation (`det-taint`).
//!
//! Calls are resolved **by name**, with different precision per
//! analysis:
//!
//! * **Taint** merges collisions conservatively — a call to `step`
//!   unions the behavior of every `step` in the workspace — because a
//!   missed propagation is a missed determinism bug and the union is
//!   still about real dataflow.
//! * **Lock order** resolves an ambiguous name (more than one def
//!   program-wide) only among defs in the *caller's own file*; a name
//!   with no same-file def must be globally unique to propagate.
//!   Unioning every namesake here does not err "safe": it invents
//!   lock-acquisition edges between unrelated types that merely share
//!   a method name (`clone`, `snapshot`, `reset`, ...) and
//!   manufactures deadlock cycles out of coincidental naming. Method
//!   calls overwhelmingly target the local impl, so same-file
//!   resolution keeps real intra-module cycles while cross-module
//!   helpers keep distinctive names that resolve uniquely.
//!
//! Both fixpoints are over sets that only grow, so termination is by
//! size bound.

use std::collections::{BTreeMap, BTreeSet};

use crate::flow::{LockFacts, TaintFacts};

/// One function's facts, positioned in the program.
pub struct ProgramFn {
    /// The function's name (unqualified).
    pub name: String,
    /// Index into the file list the engine scanned.
    pub file_idx: usize,
    /// Lock acquisition facts.
    pub lock: LockFacts,
    /// Taint facts.
    pub taint: TaintFacts,
}

/// A raw interprocedural finding; the engine applies scope, test, and
/// suppression filtering.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct ProgramFinding {
    /// Rule id.
    pub rule: &'static str,
    /// Index into the engine's file list.
    pub file_idx: usize,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
}

/// Functions that mutate training state: any tainted argument reaching
/// one of these is a determinism hazard.
const SINK_FNS: &[&str] = &[
    "apply_batch",
    "process_batch",
    "step",
    "import_state",
    "replay_adjacency",
    "update_memory",
    "set_memory",
    "write_memory",
    "push_mail",
    "apply_events",
    "ingest_batch",
    "apply_ingest",
    // cascade-dist: the worker-index-ordered gradient exchange and the
    // split-phase memory application. A clock or hash-order value
    // reaching any of these breaks the N=1 bit-identity guarantee the
    // dist tests and DESIGN.md §12 rely on.
    "all_reduce",
    "apply_writeback",
    "apply_messages",
    "memory_write",
    "mailbox_push",
];

/// Receiver-chain segments that name training state: a method call on
/// one of these with arguments is treated as a state mutation sink.
/// `plane` covers the memory plane (all of a model's node state).
const SINK_RECEIVERS: &[&str] = &["memory", "mailbox", "params", "plane"];

/// Detects lock-order cycles across the program.
///
/// Direct edges come from each function's `held → acquired` pairs;
/// interprocedural edges come from calls made while holding a lock,
/// targeting every lock the callee transitively acquires. An edge is
/// flagged when the acquired resource can reach the held resource back
/// through the edge graph (a cycle). Self-edges (`a → a`) are excluded:
/// distinct locks in different types can share a field name, and
/// re-acquisition of a true single resource is better caught by review
/// than by a name-collision-prone lint.
pub fn lock_order_findings(fns: &[ProgramFn]) -> Vec<ProgramFinding> {
    // name → defining fn indices, for call resolution.
    let mut defs: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (i, f) in fns.iter().enumerate() {
        defs.entry(f.name.as_str()).or_default().push(i);
    }
    // Resolve a call site to candidate bodies. A unique name resolves
    // program-wide; an ambiguous one only among the caller's own file
    // (see module docs — global unions of namesakes invent lock edges).
    let resolve = |caller_file: usize, callee: &str| -> Vec<usize> {
        match defs.get(callee) {
            None => Vec::new(),
            Some(c) if c.len() == 1 => c.clone(),
            Some(c) => c
                .iter()
                .copied()
                .filter(|&j| fns[j].file_idx == caller_file)
                .collect(),
        }
    };

    // fn index → transitively acquired resources, to fixpoint.
    let mut trans: Vec<BTreeSet<String>> = fns
        .iter()
        .map(|f| f.lock.acquires.iter().cloned().collect())
        .collect();
    loop {
        let mut changed = false;
        for (i, f) in fns.iter().enumerate() {
            let mut add: BTreeSet<String> = BTreeSet::new();
            for (callee, _, _, _) in &f.lock.calls {
                for j in resolve(f.file_idx, callee) {
                    add.extend(trans[j].iter().cloned());
                }
            }
            let before = trans[i].len();
            trans[i].extend(add);
            changed |= trans[i].len() != before;
        }
        if !changed {
            break;
        }
    }

    // Collect every held→acquired edge with its location.
    let mut edges: Vec<(String, String, usize, u32, u32)> = Vec::new();
    for f in fns {
        for (held, acquired, line, col) in &f.lock.edges {
            edges.push((held.clone(), acquired.clone(), f.file_idx, *line, *col));
        }
        for (callee, held, line, col) in &f.lock.calls {
            if held.is_empty() {
                continue;
            }
            let mut acquired: BTreeSet<&str> = BTreeSet::new();
            for j in resolve(f.file_idx, callee) {
                acquired.extend(trans[j].iter().map(String::as_str));
            }
            for h in held {
                for a in &acquired {
                    edges.push((h.clone(), (*a).to_string(), f.file_idx, *line, *col));
                }
            }
        }
    }

    // Reachability over the resource graph.
    let mut adj: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for (h, a, _, _, _) in &edges {
        adj.entry(h.as_str()).or_default().insert(a.as_str());
    }
    let reaches = |from: &str, to: &str| -> bool {
        let mut seen: BTreeSet<&str> = BTreeSet::new();
        let mut stack = vec![from];
        while let Some(n) = stack.pop() {
            if n == to {
                return true;
            }
            if !seen.insert(n) {
                continue;
            }
            if let Some(next) = adj.get(n) {
                stack.extend(next.iter().copied());
            }
        }
        false
    };

    let mut findings: BTreeSet<ProgramFinding> = BTreeSet::new();
    for (h, a, file_idx, line, col) in &edges {
        if h != a && reaches(a, h) {
            findings.insert(ProgramFinding {
                rule: "conc-lock-order",
                file_idx: *file_idx,
                line: *line,
                col: *col,
            });
        }
    }
    findings.into_iter().collect()
}

/// Whether a call is a state-mutation sink by itself (independent of
/// callee-body analysis).
fn is_direct_sink(callee: &str, receiver: &[String], has_args: bool) -> bool {
    if SINK_FNS.contains(&callee) {
        return true;
    }
    has_args
        && receiver
            .iter()
            .any(|r| SINK_RECEIVERS.contains(&r.as_str()))
}

/// Per-function view used by both taint fixpoints.
struct TaintState<'a> {
    f: &'a ProgramFn,
    /// Effective parameter names (leading `self` stripped so call
    /// arguments align positionally for method-style definitions).
    params: Vec<&'a str>,
}

impl<'a> TaintState<'a> {
    /// Locals holding tainted values, given the current set of
    /// taint-returning functions.
    fn tainted_locals(&self, ret_taint: &BTreeSet<&str>) -> BTreeSet<&'a str> {
        let mut tainted: BTreeSet<&str> = BTreeSet::new();
        // Two passes cover let-chains that a single forward pass would
        // miss only under shadow-reordering, which the scanner does not
        // model anyway.
        for _ in 0..2 {
            for l in &self.f.taint.lets {
                if l.direct
                    || l.callees.iter().any(|c| ret_taint.contains(c.as_str()))
                    || l.uses.iter().any(|u| tainted.contains(u.as_str()))
                {
                    tainted.insert(l.name.as_str());
                }
            }
        }
        tainted
    }

    /// For each local, the set of (effective) parameter indices whose
    /// value may flow into it.
    fn param_carriers(&self) -> BTreeMap<&'a str, BTreeSet<usize>> {
        let mut carries: BTreeMap<&str, BTreeSet<usize>> = BTreeMap::new();
        for _ in 0..2 {
            for l in &self.f.taint.lets {
                let mut set: BTreeSet<usize> = BTreeSet::new();
                for u in &l.uses {
                    if let Some(j) = self.params.iter().position(|p| p == u) {
                        set.insert(j);
                    }
                    if let Some(prev) = carries.get(u.as_str()) {
                        set.extend(prev.iter().copied());
                    }
                }
                if !set.is_empty() {
                    carries.entry(l.name.as_str()).or_default().extend(set);
                }
            }
        }
        carries
    }
}

/// Propagates determinism taint through the call graph and reports
/// every call site where a wall-clock/hash-iteration value reaches a
/// training-state mutation.
pub fn det_taint_findings(fns: &[ProgramFn]) -> Vec<ProgramFinding> {
    let states: Vec<TaintState> = fns
        .iter()
        .map(|f| TaintState {
            f,
            params: f
                .taint
                .params
                .iter()
                .map(String::as_str)
                .skip_while(|p| *p == "self")
                .collect(),
        })
        .collect();

    // Fixpoint 1: functions whose return value is tainted.
    let mut ret_taint: BTreeSet<&str> = BTreeSet::new();
    loop {
        let mut changed = false;
        for s in &states {
            if ret_taint.contains(s.f.name.as_str()) {
                continue;
            }
            let locals = s.tainted_locals(&ret_taint);
            let tainted_ret = s.f.taint.rets.iter().any(|r| {
                r.direct
                    || r.callees.iter().any(|c| ret_taint.contains(c.as_str()))
                    || r.uses.iter().any(|u| locals.contains(u.as_str()))
            });
            if tainted_ret {
                ret_taint.insert(s.f.name.as_str());
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    // Fixpoint 2: parameter positions that reach a sink inside the
    // callee (directly or through further calls).
    let mut sink_params: BTreeMap<&str, BTreeSet<usize>> = BTreeMap::new();
    loop {
        let mut changed = false;
        for s in &states {
            let carries = s.param_carriers();
            let mut found: BTreeSet<usize> = BTreeSet::new();
            for c in &s.f.taint.calls {
                let direct = is_direct_sink(&c.callee, &c.receiver, !c.args.is_empty());
                let callee_sinks = sink_params.get(c.callee.as_str());
                for (k, arg) in c.args.iter().enumerate() {
                    let arg_is_sink_position =
                        direct || callee_sinks.is_some_and(|set| set.contains(&k));
                    if !arg_is_sink_position {
                        continue;
                    }
                    for u in &arg.uses {
                        if let Some(j) = s.params.iter().position(|p| p == u) {
                            found.insert(j);
                        }
                        if let Some(set) = carries.get(u.as_str()) {
                            found.extend(set.iter().copied());
                        }
                    }
                }
            }
            if !found.is_empty() {
                let entry = sink_params.entry(s.f.name.as_str()).or_default();
                let before = entry.len();
                entry.extend(found);
                changed |= entry.len() != before;
            }
        }
        if !changed {
            break;
        }
    }

    // Emission: a call site is flagged when a tainted value occupies a
    // sink position — the site is where nondeterminism provably enters
    // the mutation chain.
    let mut findings: BTreeSet<ProgramFinding> = BTreeSet::new();
    for s in &states {
        let locals = s.tainted_locals(&ret_taint);
        for c in &s.f.taint.calls {
            let direct = is_direct_sink(&c.callee, &c.receiver, !c.args.is_empty());
            let callee_sinks = sink_params.get(c.callee.as_str());
            for (k, arg) in c.args.iter().enumerate() {
                let sink_position = direct || callee_sinks.is_some_and(|set| set.contains(&k));
                if !sink_position {
                    continue;
                }
                let tainted = arg.direct
                    || arg.callees.iter().any(|n| ret_taint.contains(n.as_str()))
                    || arg.uses.iter().any(|u| locals.contains(u.as_str()));
                if tainted {
                    findings.insert(ProgramFinding {
                        rule: "det-taint",
                        file_idx: s.f.file_idx,
                        line: c.line,
                        col: c.col,
                    });
                }
            }
        }
    }
    findings.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::{scan_calls_with_held, scan_locks, scan_taint};
    use crate::lexer::{lex, Tok, TokKind};
    use crate::parse::parse_fns;

    fn program(src: &str) -> Vec<ProgramFn> {
        program_files(&[src])
    }

    /// Like [`program`], one source string per simulated file.
    fn program_files(srcs: &[&str]) -> Vec<ProgramFn> {
        let mut out = Vec::new();
        for (file_idx, src) in srcs.iter().enumerate() {
            let toks = lex(src);
            let code: Vec<&Tok> = toks.iter().filter(|t| t.kind != TokKind::Comment).collect();
            let items = parse_fns(&code);
            for item in &items {
                let mut raw = Vec::new();
                let mut lock = scan_locks(&code, item, &mut raw);
                let calls = crate::parse::calls_in(&code, item.body, &item.nested);
                lock.calls = scan_calls_with_held(&code, item, &calls).calls;
                out.push(ProgramFn {
                    name: item.name.clone(),
                    file_idx,
                    lock,
                    taint: scan_taint(&code, item),
                });
            }
        }
        out
    }

    #[test]
    fn direct_ab_ba_cycle_is_flagged() {
        let fns = program(
            "fn f(&self) { let a = self.alpha.lock(); let b = self.beta.lock(); drop(b); drop(a); }\n\
             fn g(&self) { let b = self.beta.lock(); let a = self.alpha.lock(); drop(a); drop(b); }\n",
        );
        let found = lock_order_findings(&fns);
        assert_eq!(
            found.len(),
            2,
            "both acquisition sites flagged: {:?}",
            found
        );
    }

    #[test]
    fn consistent_order_is_clean() {
        let fns = program(
            "fn f(&self) { let a = self.alpha.lock(); let b = self.beta.lock(); drop(b); drop(a); }\n\
             fn g(&self) { let a = self.alpha.lock(); let b = self.beta.lock(); drop(b); drop(a); }\n",
        );
        assert!(lock_order_findings(&fns).is_empty());
    }

    #[test]
    fn cycle_through_a_callee_is_flagged() {
        let fns = program(
            "fn f(&self) { let a = self.alpha.lock(); self.helper(); drop(a); }\n\
             fn helper(&self) { let b = self.beta.lock(); drop(b); }\n\
             fn g(&self) { let b = self.beta.lock(); let a = self.alpha.lock(); drop(a); drop(b); }\n",
        );
        let found = lock_order_findings(&fns);
        assert!(
            !found.is_empty(),
            "call-graph edge alpha->beta closes the cycle"
        );
    }

    #[test]
    fn unique_name_still_resolves_across_files() {
        // `helper` is defined once program-wide, in another file — a
        // unique name propagates regardless of where it lives.
        let fns = program_files(&[
            "fn f(&self) { let a = self.alpha.lock(); self.helper(); drop(a); }\n\
             fn g(&self) { let b = self.beta.lock(); let a = self.alpha.lock(); drop(a); drop(b); }\n",
            "fn helper(&self) { let b = self.beta.lock(); drop(b); }\n",
        ]);
        assert!(
            !lock_order_findings(&fns).is_empty(),
            "unique cross-file callee closes the cycle"
        );
    }

    #[test]
    fn ambiguous_cross_file_namesakes_do_not_bridge_locks() {
        // `snapshot` has two defs, neither in the caller's file. The
        // old global union would graft file 1's beta acquisition onto
        // the call under alpha and report a deadlock between types
        // that never touch each other's locks.
        let fns = program_files(&[
            "fn f(&self) { let a = self.alpha.lock(); self.shard.snapshot(); drop(a); }\n",
            "fn snapshot(&self) { let b = self.beta.lock(); drop(b); }\n\
             fn g(&self) { let b = self.beta.lock(); let a = self.alpha.lock(); drop(a); drop(b); }\n",
            "fn snapshot(&self) -> u32 { self.version }\n",
        ]);
        assert!(
            lock_order_findings(&fns).is_empty(),
            "coincidental namesakes must not manufacture a cycle"
        );
    }

    #[test]
    fn ambiguous_name_with_same_file_def_still_resolves() {
        // `snapshot` is ambiguous program-wide, but the caller's own
        // file defines one — method calls target the local impl, so
        // the real intra-module cycle must still be caught.
        let fns = program_files(&[
            "fn f(&self) { let a = self.alpha.lock(); self.snapshot(); drop(a); }\n\
             fn snapshot(&self) { let b = self.beta.lock(); drop(b); }\n\
             fn g(&self) { let b = self.beta.lock(); let a = self.alpha.lock(); drop(a); drop(b); }\n",
            "fn snapshot(&self) -> u32 { self.version }\n",
        ]);
        assert!(
            !lock_order_findings(&fns).is_empty(),
            "same-file def closes the cycle despite the foreign namesake"
        );
    }

    #[test]
    fn taint_reaching_a_sink_through_a_helper_is_flagged() {
        let fns = program(
            "fn now_ms() -> f64 { let t = Instant::now(); t.elapsed().as_secs_f64() }\n\
             fn train(&mut self) { let lr = now_ms(); self.opt.step(lr); }\n",
        );
        let found = det_taint_findings(&fns);
        assert_eq!(found.len(), 1, "{:?}", found);
    }

    #[test]
    fn taint_through_a_sink_param_is_flagged_at_the_entry_site() {
        let fns = program(
            "fn apply_lr(&mut self, lr: f64) { self.opt.step(lr); }\n\
             fn train(&mut self) { let t = Instant::now(); let lr = t.elapsed().as_secs_f64(); self.tune(lr); }\n\
             fn tune(&mut self, rate: f64) { self.apply_lr(rate); }\n",
        );
        let found = det_taint_findings(&fns);
        assert_eq!(
            found.len(),
            1,
            "flag where taint enters the chain: {:?}",
            found
        );
    }

    #[test]
    fn clean_values_into_sinks_are_fine() {
        let fns = program(
            "fn train(&mut self, lr: f64) { let scaled = lr * 0.5; self.opt.step(scaled); self.model.apply_batch(scaled); }\n",
        );
        assert!(det_taint_findings(&fns).is_empty());
    }

    #[test]
    fn telemetry_use_of_wallclock_without_sink_is_fine() {
        let fns = program(
            "fn record(&self) { let t = Instant::now(); self.stats.observe(t.elapsed()); }\n",
        );
        assert!(det_taint_findings(&fns).is_empty());
    }
}
