//! Flow-sensitive intraprocedural taint engine with memoized
//! interprocedural summaries (DESIGN.md §12).
//!
//! The engine walks each function body's token stream as a linear sequence
//! of statements, maintaining a taint environment over local names:
//! `let` bindings and plain assignments are *strong* updates (they kill
//! the old taint — this is what makes the analysis flow-sensitive),
//! field stores and mutating method-call statements are *weak* updates on
//! the receiver's root, and `for` patterns bind from their iterated
//! expression. Expressions are evaluated left-to-right over the same
//! tokens; calls into the workspace resolve through [`RefGraph`] and apply
//! a memoized per-callee summary (return taint and parameter→sink flows,
//! inlining depth ≤ 8), so a raw column
//! laundered through `let hidden = pick(table);` is still seen at the
//! wire sink.
//!
//! Taint kinds and the lints they power:
//!
//! * `RAW` — raw feature-column data (L11 `raw-egress`): rooted at
//!   `Table`/partition column accessors, killed only by the sanctioned
//!   encoder path (`TableTransformer::encode` / `*transformer*.encode`),
//!   must never reach `Message` construction or a wire `encode` sink.
//! * `SEED` — positive seed/round provenance (L7): rooted at any name
//!   containing `seed`/`round` and propagated through flows, so
//!   `let s = cfg.seed; seed_from_u64(s)` now passes where the old
//!   name-co-occurrence rule required the name at the call site.
//!
//! Ambient nondeterminism (L12) is clippy's `disallowed-methods` and
//! `iter_over_hash_type`, and keeping the shuffle seed out of logs is
//! `gtv-vfl`'s unprintable seed types (DESIGN.md §7).
//!
//! Soundness caveats are documented in DESIGN.md §12: the call graph is
//! an under-approximation (ambiguous names add no edge), struct fields
//! are not tracked across functions, and match-arm bindings only inherit
//! taint through their scrutinee's `let`.

use crate::model::RefGraph;
use crate::parse::{TokKind, Token};
use crate::{suppressed, FileUnit, Finding, Rule};
use std::collections::HashMap;

/// Maximum summary inlining depth: twice the trainer's deepest call chain
/// (`train` → `train_round` → `d_step` → `sample_condition`), so every
/// protocol path is summarized in full while a long or recursive chain
/// stays bounded.
const MAX_DEPTH: usize = 8;

/// Raw-data roots: column accessors on partition tables (L11).
pub const RAW_ROOT_METHODS: &[&str] =
    &["column", "column_by_name", "as_float", "as_cat", "target_labels"];

/// The sanctioned encoder self-type: its `encode` output is an
/// activation-space tensor, not raw data (paper §3.1.4).
pub const SANCTIONED_ENCODER_TYPES: &[&str] = &["TableTransformer"];

/// Receiver-name substrings accepted as the sanctioned encoder when the
/// call is method-style (`transformer.encode(..)`).
const SANCTIONED_ENCODER_RECV: &[&str] = &["transformer", "encoder"];

/// RNG seeding constructors (the L7 seed sink).
const SEED_CTORS: &[&str] = &["seed_from_u64", "from_seed"];

/// Wire-serialization methods (the L11 wire sink when not the sanctioned
/// encoder).
const WIRE_ENCODE_METHODS: &[&str] = &["encode", "encode_with"];

/// Statement keywords that must never be treated as assignment targets or
/// tainted reads.
const STMT_KEYWORDS: &[&str] =
    &["let", "if", "else", "match", "while", "loop", "for", "return", "break", "continue", "in"];

// ---------------------------------------------------------------------------
// Taint lattice
// ---------------------------------------------------------------------------

/// A taint value: a union of kind bits (low byte) and parameter-origin
/// bits (`PARAM(i)`, used while computing summaries). The lattice is the
/// powerset of bits ordered by inclusion; `union` is join, strong updates
/// are the only kills.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct Taint(u32);

impl Taint {
    pub(crate) const NONE: Taint = Taint(0);
    /// Raw feature-column data (L11).
    pub(crate) const RAW: Taint = Taint(1);
    /// Positive seed/round provenance (L7).
    pub(crate) const SEED: Taint = Taint(1 << 1);

    const KIND_MASK: u32 = 0xff;
    const PARAM_BASE: u32 = 8;
    const PARAM_SLOTS: usize = 24;

    /// The taint marking "flowed from parameter `i`" (used for summaries;
    /// parameters beyond the last slot share it, erring toward unions).
    fn param(i: usize) -> Taint {
        Taint(1 << (Self::PARAM_BASE as usize + i.min(Self::PARAM_SLOTS - 1)))
    }

    pub(crate) fn union(self, other: Taint) -> Taint {
        Taint(self.0 | other.0)
    }

    /// Whether every bit of `other` (non-empty) is present.
    pub(crate) fn contains(self, other: Taint) -> bool {
        other.0 != 0 && self.0 & other.0 == other.0
    }

    /// Parameter indices whose bits are set.
    fn params(self) -> impl Iterator<Item = usize> {
        (0..Self::PARAM_SLOTS).filter(move |i| self.0 & (1 << (Self::PARAM_BASE as usize + i)) != 0)
    }

    fn has_params(self) -> bool {
        self.0 & !Self::KIND_MASK != 0
    }
}

// ---------------------------------------------------------------------------
// Sinks and per-function analysis results
// ---------------------------------------------------------------------------

/// The sink classes the engine observes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Sink {
    /// `Message::Variant` construction or a `.encode`/`.encode_with` call.
    Wire,
    /// An RNG seeding constructor argument.
    Seed,
}

/// One sink observation: what kind of sink, where, and with what taint.
#[derive(Debug, Clone)]
pub(crate) struct Hit {
    pub(crate) kind: Sink,
    /// 1-based line of the sink (the call line for summarized flows).
    pub(crate) line: usize,
    pub(crate) taint: Taint,
    /// Sink description (`Message::CondUpload`, `.encode_with`, or the
    /// rendered seed-ctor call for L7 messages).
    pub(crate) detail: String,
    /// The summarized callee the flow passed through, if interprocedural.
    pub(crate) via: Option<String>,
}

/// The memoized per-function summary: return-value taint (with `PARAM(i)`
/// bits for parameter→return flows) and every sink observation, including
/// parameter-mediated ones that callers translate at their call sites.
#[derive(Debug, Clone, Default)]
pub(crate) struct Analysis {
    /// Taint of the function's returned value(s).
    pub(crate) ret: Taint,
    /// Sink observations, in body order.
    pub(crate) hits: Vec<Hit>,
    /// First root description per taint-kind bit, for finding messages.
    notes: Vec<(u32, String)>,
}

impl Analysis {
    /// The recorded root description for a taint kind, if any.
    pub(crate) fn note(&self, kind: Taint) -> Option<&str> {
        self.notes.iter().find(|(b, _)| *b & kind.0 != 0).map(|(_, d)| d.as_str())
    }
}

/// The workspace-wide taint engine: the call graph plus one [`Analysis`]
/// per function, aligned with `graph.fns` indices.
pub(crate) struct TaintEngine<'a> {
    pub(crate) graph: RefGraph<'a>,
    pub(crate) analyses: Vec<Analysis>,
}

impl<'a> TaintEngine<'a> {
    /// Analyzes every workspace function, memoizing summaries bottom-up
    /// through resolved calls (cycle-guarded, depth ≤ [`MAX_DEPTH`]).
    pub(crate) fn build(units: &'a [FileUnit]) -> Self {
        let graph = RefGraph::build(units);
        let mut analyzer =
            Analyzer { graph: &graph, memo: vec![None; graph.fns.len()], stack: Vec::new() };
        for idx in 0..graph.fns.len() {
            analyzer.ensure(idx);
        }
        let analyses = analyzer.memo.into_iter().map(Option::unwrap_or_default).collect();
        Self { graph, analyses }
    }
}

// ---------------------------------------------------------------------------
// The analyzer
// ---------------------------------------------------------------------------

/// Per-function mutable state while walking a body.
#[derive(Default)]
struct FnState {
    /// Current taint of each local name (strong updates overwrite).
    env: HashMap<String, Taint>,
    hits: Vec<Hit>,
    notes: Vec<(u32, String)>,
}

impl FnState {
    fn note(&mut self, kind: Taint, desc: impl FnOnce() -> String) {
        if !self.notes.iter().any(|(b, _)| *b == kind.0) {
            self.notes.push((kind.0, desc()));
        }
    }

    fn read(&self, name: &str) -> Taint {
        let mut t = self.env.get(name).copied().unwrap_or(Taint::NONE);
        let lower = name.to_lowercase();
        if lower.contains("seed") || lower.contains("round") {
            t = t.union(Taint::SEED);
        }
        t
    }
}

struct Analyzer<'g, 'a> {
    graph: &'g RefGraph<'a>,
    memo: Vec<Option<Analysis>>,
    /// In-progress function indices (recursion/cycle guard; its length is
    /// the current inlining depth).
    stack: Vec<usize>,
}

impl<'g, 'a> Analyzer<'g, 'a> {
    fn ensure(&mut self, idx: usize) {
        if self.memo[idx].is_some() || self.stack.contains(&idx) {
            return;
        }
        self.stack.push(idx);
        let analysis = self.analyze(idx);
        self.stack.pop();
        self.memo[idx] = Some(analysis);
    }

    /// The callee's summary parts (return taint, parameter-mediated sink
    /// hits), or `None` when recursion or the depth cap forbids it.
    fn summary(&mut self, callee: usize) -> Option<(Taint, Vec<Hit>)> {
        if self.memo[callee].is_none() {
            if self.stack.contains(&callee) || self.stack.len() >= MAX_DEPTH {
                return None;
            }
            self.ensure(callee);
        }
        self.memo[callee].as_ref().map(|a| {
            let param_hits =
                a.hits.iter().filter(|h| h.taint.has_params()).cloned().collect::<Vec<_>>();
            (a.ret, param_hits)
        })
    }

    /// Flow-sensitively analyzes one function body.
    fn analyze(&mut self, idx: usize) -> Analysis {
        let graph = self.graph;
        let f = graph.fns[idx].1;
        let body: &[Token] = &f.body;
        let mut st = FnState::default();
        for (i, p) in f.params.iter().enumerate() {
            st.env.insert(p.clone(), Taint::param(i));
        }
        let mut ret = Taint::NONE;
        let len = body.len();
        let mut i = 0;
        while i < len {
            // Delimit one statement: up to a top-level `;`, a block-opening
            // `{` (control flow), or a closing `}`. A `{` preceded by a
            // CamelCase identifier is a struct literal and stays inside the
            // statement; braces nested in parens (closures) do too.
            let start = i;
            let mut d = 0i64;
            let mut j = i;
            let mut terminator = "";
            while j < len {
                match body[j].text.as_str() {
                    "(" | "[" => d += 1,
                    ")" | "]" => d -= 1,
                    ";" if d == 0 => {
                        terminator = ";";
                        break;
                    }
                    ";" => {}
                    "{" => {
                        let literal = j > start
                            && body[j - 1].kind == TokKind::Ident
                            && camel_case(&body[j - 1].text);
                        if d > 0 || literal {
                            d += 1;
                        } else {
                            terminator = "{";
                            break;
                        }
                    }
                    "}" => {
                        if d > 0 {
                            d -= 1;
                        } else {
                            terminator = "}";
                            break;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
            if j > start {
                let taint = self.statement(&mut st, idx, start, j);
                let first = &body[start];
                let is_tail = (terminator.is_empty() || terminator == "}")
                    && body[j..].iter().all(|t| matches!(t.text.as_str(), "}" | ";" | ","))
                    && !first.is_ident("let");
                if first.is_ident("return") || is_tail {
                    ret = ret.union(taint);
                }
            }
            i = j + 1;
        }
        Analysis { ret, hits: st.hits, notes: st.notes }
    }

    /// Processes one statement: records sinks, applies binding/assignment
    /// updates, and returns the statement's expression taint.
    fn statement(&mut self, st: &mut FnState, idx: usize, lo: usize, hi: usize) -> Taint {
        let graph = self.graph;
        let body: &[Token] = &graph.fns[idx].1.body;
        // Whole-statement evaluation records sinks; binding updates below
        // re-evaluate only the right-hand side (unrecorded) for the taint.
        let whole = self.eval(st, idx, lo, hi, true);
        let first = &body[lo];
        if first.is_ident("let") {
            if let Some((eq, _)) = find_assign_eq(body, lo + 1, hi) {
                let pat_end = top_level_colon(body, lo + 1, eq).unwrap_or(eq);
                let taint = self.eval(st, idx, eq + 1, hi, false);
                for t in &body[lo + 1..pat_end] {
                    if t.kind == TokKind::Ident && binding_name(&t.text) {
                        st.env.insert(t.text.clone(), taint);
                    }
                }
            }
            return whole;
        }
        if first.is_ident("for") {
            if let Some(in_i) = (lo + 1..hi).find(|&k| body[k].is_ident("in")) {
                let taint = self.eval(st, idx, in_i + 1, hi, false);
                for t in &body[lo + 1..in_i] {
                    if t.kind == TokKind::Ident && binding_name(&t.text) {
                        st.env.insert(t.text.clone(), taint);
                    }
                }
            }
            return whole;
        }
        if first.kind != TokKind::Ident || STMT_KEYWORDS.contains(&first.text.as_str()) {
            return whole;
        }
        // Assignment statements: `x = e` is a strong update (the kill that
        // makes the analysis flow-sensitive); `x.f = e`, `x[i] = e` and
        // compound ops are weak updates on the chain root.
        if let Some((eq, compound)) = find_assign_eq(body, lo, hi) {
            let taint = self.eval(st, idx, eq + 1, hi, false);
            let simple = eq == lo + 1 && !compound;
            let root = first.text.clone();
            if simple {
                st.env.insert(root, taint);
            } else {
                let cur = st.env.get(&root).copied().unwrap_or(Taint::NONE);
                st.env.insert(root, cur.union(taint));
            }
            return whole;
        }
        // Method-call statements mutate their receiver: `v.push(x)` makes
        // `v` at least as tainted as `x`.
        if hi > lo + 1 && body[lo + 1].is(".") {
            let root = first.text.clone();
            let cur = st.env.get(&root).copied().unwrap_or(Taint::NONE);
            st.env.insert(root, cur.union(whole));
        }
        whole
    }

    /// Evaluates the expression tokens in `lo..hi` left-to-right, returning
    /// the union taint. With `record`, sink observations are pushed.
    fn eval(&mut self, st: &mut FnState, idx: usize, lo: usize, hi: usize, record: bool) -> Taint {
        let graph = self.graph;
        let body: &[Token] = &graph.fns[idx].1.body;
        let hi = hi.min(body.len());
        let mut taint = Taint::NONE;
        let mut i = lo;
        while i < hi {
            let tok = &body[i];
            if tok.kind != TokKind::Ident {
                i += 1;
                continue;
            }
            let next = if i + 1 < hi { Some(body[i + 1].text.as_str()) } else { None };
            match next {
                // Macro invocation: evaluate its arguments.
                Some("!") if i + 2 < hi && matches!(body[i + 2].text.as_str(), "(" | "[" | "{") => {
                    let close = balanced(body, i + 2, hi);
                    taint = taint.union(self.eval(st, idx, i + 3, close, record));
                    i = close + 1;
                }
                Some("(") => {
                    let (at, close) = self.call(st, idx, i, hi, record);
                    taint = taint.union(at);
                    i = close + 1;
                }
                // Struct literal `Name { .. }` (a match-arm or `if let`
                // pattern, followed by `=`, binds nothing tainted).
                Some("{") if camel_case(&tok.text) => {
                    let close = balanced(body, i + 1, hi);
                    let pattern = body.get(close + 1).map(|t| t.is("=")).unwrap_or(false);
                    if !pattern {
                        let at = self.eval(st, idx, i + 2, close, record);
                        if qualifier(body, i) == Some("Message") && record {
                            st.hits.push(Hit {
                                kind: Sink::Wire,
                                line: tok.line,
                                taint: at,
                                detail: format!("Message::{}", tok.text),
                                via: None,
                            });
                        }
                        taint = taint.union(at);
                    }
                    i = close + 1;
                }
                _ => {
                    taint = taint.union(st.read(&tok.text));
                    i += 1;
                }
            }
        }
        taint
    }

    /// Classifies and evaluates one call whose callee identifier sits at
    /// `name_idx`; returns the call's value taint and the `)` index.
    fn call(
        &mut self,
        st: &mut FnState,
        idx: usize,
        name_idx: usize,
        hi: usize,
        record: bool,
    ) -> (Taint, usize) {
        let graph = self.graph;
        let body: &[Token] = &graph.fns[idx].1.body;
        let tok = &body[name_idx];
        let name = tok.text.as_str();
        let line = tok.line;
        let close = balanced(body, name_idx + 1, hi);
        let args = split_args(body, name_idx + 2, close);
        let qual = qualifier(body, name_idx);
        let method = name_idx > 0 && body[name_idx - 1].is(".");
        let recv_taint = if method {
            receiver_root(body, name_idx - 1).map(|r| st.read(&r)).unwrap_or(Taint::NONE)
        } else {
            Taint::NONE
        };
        let eval_args = |a: &mut Self, st: &mut FnState| -> Vec<Taint> {
            args.iter().map(|&(alo, ahi)| a.eval(st, idx, alo, ahi, record)).collect()
        };

        // Tuple-variant `Message::V(..)`: a wire sink when constructed, a
        // pattern when followed by `=>` / `= scrutinee`.
        if qual == Some("Message") && camel_case(name) {
            let pattern = body.get(close + 1).map(|t| t.is("=")).unwrap_or(false);
            if pattern {
                return (Taint::NONE, close);
            }
            let at = eval_args(self, st).into_iter().fold(Taint::NONE, Taint::union);
            if record {
                st.hits.push(Hit {
                    kind: Sink::Wire,
                    line,
                    taint: at,
                    detail: format!("Message::{name}"),
                    via: None,
                });
            }
            return (at, close);
        }

        // RNG seed constructors: the L7 seed sink. The stream they return
        // carries seed provenance.
        if SEED_CTORS.contains(&name) {
            let at = eval_args(self, st).into_iter().fold(Taint::NONE, Taint::union);
            if record {
                st.hits.push(Hit {
                    kind: Sink::Seed,
                    line,
                    taint: at,
                    detail: format!("{name}({})", arg_preview(body, name_idx + 1, close)),
                    via: None,
                });
            }
            return (Taint::SEED, close);
        }

        // Sanctioned encoder: output is activation-space, not raw data.
        if name == "encode" {
            let sanctioned_type =
                qual.map(|q| SANCTIONED_ENCODER_TYPES.contains(&q)).unwrap_or(false);
            let sanctioned_recv = method
                && receiver_root(body, name_idx - 1)
                    .map(|r| {
                        let l = r.to_lowercase();
                        SANCTIONED_ENCODER_RECV.iter().any(|s| l.contains(s))
                    })
                    .unwrap_or(false);
            if sanctioned_type || sanctioned_recv {
                eval_args(self, st);
                return (Taint::NONE, close);
            }
        }

        // Wire serialization: tainted payloads must not be encoded.
        if WIRE_ENCODE_METHODS.contains(&name) && method {
            let at = eval_args(self, st).into_iter().fold(recv_taint, Taint::union);
            if record {
                st.hits.push(Hit {
                    kind: Sink::Wire,
                    line,
                    taint: at,
                    detail: format!(".{name}"),
                    via: None,
                });
            }
            return (at, close);
        }

        // Raw column accessors: the L11 roots.
        if RAW_ROOT_METHODS.contains(&name) && method {
            st.note(Taint::RAW, || format!("`.{name}(..)` at line {line}"));
            let at = eval_args(self, st).into_iter().fold(recv_taint, Taint::union);
            return (at.union(Taint::RAW), close);
        }

        // Workspace call with a memoized summary: translate parameter bits
        // through the argument taints (and report the callee's
        // parameter-mediated sinks at this call site).
        if let Some(callee) = graph.resolve_call_at(idx, name_idx) {
            if callee != idx {
                let callee_fn = graph.fns[callee].1;
                let mut ats: Vec<Taint> = Vec::new();
                if method && callee_fn.params.first().map(|p| p == "self").unwrap_or(false) {
                    ats.push(recv_taint);
                }
                ats.extend(eval_args(self, st));
                if let Some((sret, param_hits)) = self.summary(callee) {
                    let translate = |t: Taint| -> Taint {
                        t.params()
                            .filter_map(|p| ats.get(p).copied())
                            .fold(Taint::NONE, Taint::union)
                    };
                    if record {
                        for h in param_hits {
                            let mapped = translate(h.taint);
                            if mapped != Taint::NONE {
                                st.hits.push(Hit {
                                    kind: h.kind,
                                    line,
                                    taint: mapped,
                                    detail: h.detail,
                                    via: Some(callee_fn.name.clone()),
                                });
                            }
                        }
                    }
                    let kinds = Taint(sret.0 & Taint::KIND_MASK);
                    return (kinds.union(translate(sret)), close);
                }
                // Cycle or depth cap: fall back to argument propagation.
                let at = ats.into_iter().fold(Taint::NONE, Taint::union);
                return (at, close);
            }
        }

        // Unknown call: conservatively propagate receiver and arguments.
        let at = eval_args(self, st).into_iter().fold(recv_taint, Taint::union);
        (at, close)
    }
}

// ---------------------------------------------------------------------------
// Token helpers
// ---------------------------------------------------------------------------

/// CamelCase heuristic: uppercase start plus at least one lowercase char —
/// distinguishes struct literals (`Batch {`) from SCREAMING consts in
/// `if n > MAX_PARTIES {` conditions.
fn camel_case(name: &str) -> bool {
    name.starts_with(|c: char| c.is_ascii_uppercase())
        && name.chars().any(|c| c.is_ascii_lowercase())
}

/// Whether an identifier may bind in a pattern (lowercase, not a keyword
/// or `_`-placeholder-like construct name).
fn binding_name(name: &str) -> bool {
    !STMT_KEYWORDS.contains(&name)
        && !matches!(name, "mut" | "ref" | "move" | "_")
        && !name.starts_with(|c: char| c.is_ascii_uppercase())
}

/// The `Type` of a `Type::name` path ending at `name_idx`, if any.
fn qualifier(body: &[Token], name_idx: usize) -> Option<&str> {
    if name_idx >= 3
        && body[name_idx - 1].is(":")
        && body[name_idx - 2].is(":")
        && body[name_idx - 3].kind == TokKind::Ident
    {
        Some(body[name_idx - 3].text.as_str())
    } else {
        None
    }
}

/// Index of the bracket closing the group opened at `open` (clamped to
/// `hi - 1` when unbalanced).
fn balanced(body: &[Token], open: usize, hi: usize) -> usize {
    let hi = hi.min(body.len());
    let mut d = 0i64;
    let mut j = open;
    while j < hi {
        match body[j].text.as_str() {
            "(" | "[" | "{" => d += 1,
            ")" | "]" | "}" => {
                d -= 1;
                if d == 0 {
                    return j;
                }
            }
            _ => {}
        }
        j += 1;
    }
    hi.saturating_sub(1).max(open)
}

/// Argument ranges of the group `open+1..close`, split at top-level commas.
fn split_args(body: &[Token], lo: usize, close: usize) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut d = 0i64;
    let mut start = lo;
    let mut j = lo;
    while j < close {
        match body[j].text.as_str() {
            "(" | "[" | "{" => d += 1,
            ")" | "]" | "}" => d -= 1,
            "," if d == 0 => {
                if j > start {
                    out.push((start, j));
                }
                start = j + 1;
            }
            _ => {}
        }
        j += 1;
    }
    if close > start {
        out.push((start, close));
    }
    out
}

/// The argument tokens rendered as the old L7 message did: everything
/// inside the outer parens except `(`, space-joined.
fn arg_preview(body: &[Token], open: usize, close: usize) -> String {
    body[open + 1..close]
        .iter()
        .filter(|t| t.text != "(")
        .map(|t| t.text.as_str())
        .collect::<Vec<_>>()
        .join(" ")
}

/// Walks left from the `.` at `dot_idx` over a postfix chain and returns
/// the chain's root identifier (`self` for `self.clients[p].sampler`).
fn receiver_root(body: &[Token], dot_idx: usize) -> Option<String> {
    let mut j = dot_idx;
    let mut root = None;
    while j > 0 {
        j -= 1;
        match body[j].text.as_str() {
            ")" | "]" => {
                let close = body[j].text.clone();
                let open = if close == ")" { "(" } else { "[" };
                let mut d = 1i64;
                while j > 0 && d > 0 {
                    j -= 1;
                    if body[j].text == close {
                        d += 1;
                    } else if body[j].text == open {
                        d -= 1;
                    }
                }
            }
            "." | "?" => {}
            _ => {
                if body[j].kind == TokKind::Ident {
                    root = Some(body[j].text.clone());
                    if j == 0 || !matches!(body[j - 1].text.as_str(), "." | ":") {
                        break;
                    }
                } else {
                    break;
                }
            }
        }
    }
    root
}

/// Position of the top-level assignment `=` in `lo..hi` (skipping `==`,
/// `!=`, `<=`, `>=`, `=>`), with whether it is a compound op (`+=` …).
fn find_assign_eq(body: &[Token], lo: usize, hi: usize) -> Option<(usize, bool)> {
    let mut d = 0i64;
    let mut j = lo;
    while j < hi {
        match body[j].text.as_str() {
            "(" | "[" | "{" => d += 1,
            ")" | "]" | "}" => d -= 1,
            "=" if d == 0 => {
                let next_eq = body.get(j + 1).map(|t| t.is("=") || t.is(">")).unwrap_or(false);
                let prev = if j > lo { body[j - 1].text.as_str() } else { "" };
                if next_eq {
                    j += 2;
                    continue;
                }
                if matches!(prev, "=" | "!" | "<" | ">") {
                    j += 1;
                    continue;
                }
                let compound = matches!(prev, "+" | "-" | "*" | "/" | "%" | "|" | "&" | "^");
                return Some((j, compound));
            }
            _ => {}
        }
        j += 1;
    }
    None
}

/// Position of a top-level `:` (not `::`) in `lo..hi` — the start of a
/// `let` type annotation.
fn top_level_colon(body: &[Token], lo: usize, hi: usize) -> Option<usize> {
    let mut d = 0i64;
    let mut j = lo;
    while j < hi {
        match body[j].text.as_str() {
            "(" | "[" | "{" => d += 1,
            ")" | "]" | "}" => d -= 1,
            ":" if d == 0 => {
                let double = body.get(j + 1).map(|t| t.is(":")).unwrap_or(false)
                    || (j > lo && body[j - 1].is(":"));
                if !double {
                    return Some(j);
                }
            }
            _ => {}
        }
        j += 1;
    }
    None
}

// ---------------------------------------------------------------------------
// L11 pass
// ---------------------------------------------------------------------------

/// Whether L11 polices this function (protocol-party code only).
fn in_flow_scope(unit: &FileUnit, in_test: bool) -> bool {
    !in_test && unit.rel_str.starts_with("crates/") && !unit.rel_str.starts_with("crates/bench/")
}

/// L11 `raw-egress`: raw feature-column data must never reach `Message`
/// construction or a wire `encode` sink except through the sanctioned
/// encoder→activation path (paper §3.1.4: parties exchange activations,
/// never columns).
pub(crate) fn lint_raw_egress(engine: &TaintEngine, findings: &mut Vec<Finding>) {
    for (idx, (unit, f)) in engine.graph.fns.iter().enumerate() {
        if !in_flow_scope(unit, f.in_test) {
            continue;
        }
        let analysis = &engine.analyses[idx];
        for hit in &analysis.hits {
            if hit.kind != Sink::Wire || !hit.taint.contains(Taint::RAW) {
                continue;
            }
            if suppressed(&unit.lines, hit.line - 1, Rule::RawEgress, &unit.rel, findings) {
                continue;
            }
            let root = analysis.note(Taint::RAW).unwrap_or("a raw column accessor").to_string();
            let flow = match &hit.via {
                Some(v) => format!("reaches wire sink `{}` through `{v}`", hit.detail),
                None => format!("reaches wire sink `{}`", hit.detail),
            };
            findings.push(Finding {
                file: unit.rel.clone(),
                line: hit.line,
                rule: Rule::RawEgress,
                message: format!(
                    "raw column data ({root}) {flow}; raw features may leave a party only as `TableTransformer::encode` activations (or `// gtv-lint: allow(raw-egress) -- why`)"
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::crate_ident;
    use crate::{lex, parse};
    use std::path::PathBuf;

    fn unit(rel: &str, src: &str) -> FileUnit {
        let lines = lex(src);
        let ast = parse::parse_file(&lines);
        FileUnit {
            rel: PathBuf::from(rel),
            rel_str: rel.to_string(),
            crate_ident: crate_ident(rel),
            lines,
            ast,
        }
    }

    fn analysis_of<'e>(engine: &'e TaintEngine, name: &str) -> &'e Analysis {
        let idx = engine.graph.fns.iter().position(|(_, f)| f.name == name).unwrap();
        &engine.analyses[idx]
    }

    #[test]
    fn let_rebinding_and_strong_update_kill_taint() {
        let units = vec![unit(
            "crates/cond/src/x.rs",
            "pub fn f(table: &Table) -> Message {\n\
             \x20   let a = table.column(0);\n\
             \x20   let b = a;\n\
             \x20   let a = 1;\n\
             \x20   Message::GenSlice(b)\n\
             }\n\
             pub fn g(table: &Table) -> Message {\n\
             \x20   let a = table.column(0);\n\
             \x20   let a = 1;\n\
             \x20   Message::GenSlice(a)\n\
             }\n",
        )];
        let engine = TaintEngine::build(&units);
        let f = analysis_of(&engine, "f");
        let wire: Vec<&Hit> = f.hits.iter().filter(|h| h.kind == Sink::Wire).collect();
        assert!(wire[0].taint.contains(Taint::RAW), "rebinding must carry taint: {wire:?}");
        let g = analysis_of(&engine, "g");
        let wire: Vec<&Hit> = g.hits.iter().filter(|h| h.kind == Sink::Wire).collect();
        assert!(!wire[0].taint.contains(Taint::RAW), "strong update must kill taint: {wire:?}");
    }

    #[test]
    fn summaries_carry_taint_through_returns_and_params() {
        let units = vec![unit(
            "crates/cond/src/x.rs",
            "fn pick(table: &Table) -> Vec<f32> {\n\
             \x20   table.as_float(2)\n\
             }\n\
             fn send(payload: Vec<f32>) -> Message {\n\
             \x20   Message::RealLogits(payload)\n\
             }\n\
             pub fn launder(table: &Table) -> Message {\n\
             \x20   let data = pick(table);\n\
             \x20   send(data)\n\
             }\n",
        )];
        let engine = TaintEngine::build(&units);
        let pick = analysis_of(&engine, "pick");
        assert!(pick.ret.contains(Taint::RAW), "return flow: {:?}", pick.ret);
        let launder = analysis_of(&engine, "launder");
        let translated: Vec<&Hit> = launder.hits.iter().filter(|h| h.via.is_some()).collect();
        assert_eq!(translated.len(), 1, "{:?}", launder.hits);
        assert!(translated[0].taint.contains(Taint::RAW));
        assert_eq!(translated[0].detail, "Message::RealLogits");
        assert_eq!(translated[0].via.as_deref(), Some("send"));
    }

    #[test]
    fn sanctioned_encoder_launders_raw_taint() {
        let units = vec![unit(
            "crates/cond/src/x.rs",
            "pub fn clean(table: &Table, transformer: &TableTransformer) -> Message {\n\
             \x20   let col = table.column(0);\n\
             \x20   let acts = transformer.encode(col, 7);\n\
             \x20   Message::GenSlice(acts)\n\
             }\n",
        )];
        let engine = TaintEngine::build(&units);
        let clean = analysis_of(&engine, "clean");
        let wire: Vec<&Hit> = clean.hits.iter().filter(|h| h.kind == Sink::Wire).collect();
        assert!(!wire[0].taint.contains(Taint::RAW), "{wire:?}");
    }

    #[test]
    fn seed_name_provenance_flows_through_locals() {
        let units = vec![unit(
            "crates/nn/src/x.rs",
            "pub fn derive(cfg: &Config) -> StdRng {\n\
             \x20   let s = cfg.seed;\n\
             \x20   let t = s * 3;\n\
             \x20   StdRng::seed_from_u64(t)\n\
             }\n",
        )];
        let engine = TaintEngine::build(&units);
        let a = analysis_of(&engine, "derive");
        let seed: Vec<&Hit> = a.hits.iter().filter(|h| h.kind == Sink::Seed).collect();
        assert_eq!(seed.len(), 1);
        assert!(seed[0].taint.contains(Taint::SEED), "{seed:?}");
    }
}
