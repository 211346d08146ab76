//! Workspace model: crate/module mapping, the approximate call/reference
//! graph and the type-containment graph built from parsed files.
//!
//! Resolution is intentionally conservative. A body identifier resolves to
//! a workspace function only when the target is unambiguous:
//!
//! * `Type::name(...)` resolves through the impl self-type;
//! * a bare or method call `name(...)` resolves only if exactly **one**
//!   workspace function bears that name and the name is not a ubiquitous
//!   std-style method (`new`, `len`, `iter`, …).
//!
//! Unresolvable calls simply add no edge — the graph under-approximates,
//! which keeps reachability-based passes (L6) free of name-collision false
//! positives at the cost of missing exotic call chains.

use crate::parse::{FnItem, TokKind};
use crate::FileUnit;
use std::collections::{BTreeSet, HashMap, HashSet, VecDeque};

/// Maps a workspace-relative path to the crate identifier its code compiles
/// into (`crates/core` is the `gtv` package; the umbrella `src/` is
/// `gtv_suite`; `examples/` are grouped under a pseudo-crate).
pub fn crate_ident(rel_str: &str) -> String {
    if let Some(rest) = rel_str.strip_prefix("crates/") {
        let name = rest.split('/').next().unwrap_or("");
        return match name {
            "core" => "gtv".to_string(),
            other => format!("gtv_{}", other.replace('-', "_")),
        };
    }
    if rel_str.starts_with("src/") {
        return "gtv_suite".to_string();
    }
    if rel_str.starts_with("examples/") {
        return "gtv_examples".to_string();
    }
    String::new()
}

/// Method-style names too common to resolve by uniqueness; following them
/// would wire std-container calls into the workspace call graph.
const UBIQUITOUS: &[&str] = &[
    "new",
    "default",
    "clone",
    "len",
    "is_empty",
    "iter",
    "into_iter",
    "map",
    "filter",
    "collect",
    "push",
    "pop",
    "insert",
    "remove",
    "get",
    "set",
    "next",
    "sum",
    "min",
    "max",
    "abs",
    "sort",
    "fmt",
    "from",
    "into",
    "as_ref",
    "as_slice",
    "to_vec",
    "to_string",
    "contains",
    "extend",
];

/// The approximate call/reference graph over every workspace function.
pub struct RefGraph<'a> {
    /// All functions, indexed densely; each entry keeps its file.
    pub fns: Vec<(&'a FileUnit, &'a FnItem)>,
    by_name: HashMap<&'a str, Vec<usize>>,
    by_qualified: HashMap<(&'a str, &'a str), Vec<usize>>,
}

impl<'a> RefGraph<'a> {
    /// Indexes every function of every file.
    pub fn build(units: &'a [FileUnit]) -> Self {
        let mut fns = Vec::new();
        let mut by_name: HashMap<&str, Vec<usize>> = HashMap::new();
        let mut by_qualified: HashMap<(&str, &str), Vec<usize>> = HashMap::new();
        for unit in units {
            for f in &unit.ast.fns {
                let idx = fns.len();
                fns.push((unit, f));
                by_name.entry(f.name.as_str()).or_default().push(idx);
                if let Some(st) = &f.self_type {
                    by_qualified.entry((st.as_str(), f.name.as_str())).or_default().push(idx);
                }
            }
        }
        Self { fns, by_name, by_qualified }
    }

    /// Resolves the call whose callee identifier sits at body index `i` of
    /// function `idx`, under the conservative rules above. Returns `None`
    /// when the token is not a call site or the name is ambiguous.
    pub fn resolve_call_at(&self, idx: usize, i: usize) -> Option<usize> {
        let body = &self.fns[idx].1.body;
        let t = body.get(i)?;
        if t.kind != TokKind::Ident || body.get(i + 1).map(|n| n.text != "(").unwrap_or(true) {
            return None;
        }
        // `Type::name(...)` — resolve through the impl self-type.
        let qualified = i >= 3
            && body[i - 1].text == ":"
            && body[i - 2].text == ":"
            && body[i - 3].kind == TokKind::Ident;
        if qualified {
            let ty = body[i - 3].text.as_str();
            match self.by_qualified.get(&(ty, t.text.as_str())) {
                Some(v) if v.len() == 1 => Some(v[0]),
                _ => None,
            }
        } else if !UBIQUITOUS.contains(&t.text.as_str()) {
            match self.by_name.get(t.text.as_str()) {
                Some(v) if v.len() == 1 => Some(v[0]),
                _ => None,
            }
        } else {
            None
        }
    }

    /// Out-edges of `idx`: workspace functions its body provably calls.
    pub fn callees(&self, idx: usize) -> Vec<usize> {
        let body_len = self.fns[idx].1.body.len();
        let mut out = Vec::new();
        let mut seen = HashSet::new();
        for i in 0..body_len {
            if let Some(r) = self.resolve_call_at(idx, i) {
                if r != idx && seen.insert(r) {
                    out.push(r);
                }
            }
        }
        out
    }

    /// Every function reachable from `start` (inclusive) through resolved
    /// call edges, bounded by `cap` nodes.
    pub fn reachable(&self, start: usize, cap: usize) -> Vec<usize> {
        let mut order = vec![start];
        let mut seen: HashSet<usize> = order.iter().copied().collect();
        let mut queue: VecDeque<usize> = order.iter().copied().collect();
        while let Some(cur) = queue.pop_front() {
            if order.len() >= cap {
                break;
            }
            for next in self.callees(cur) {
                if seen.insert(next) {
                    order.push(next);
                    queue.push_back(next);
                }
            }
        }
        order
    }
}

/// Type names that transitively *contain* one of `root_types` by field —
/// the type-containment closure (e.g. a struct holding a `SharedShuffler`
/// field is itself a secret carrier).
pub fn secret_carriers(units: &[FileUnit], root_types: &[&str]) -> BTreeSet<String> {
    let mut carriers: BTreeSet<String> = root_types.iter().map(|s| s.to_string()).collect();
    loop {
        let mut grew = false;
        for unit in units {
            for ty in &unit.ast.types {
                if carriers.contains(&ty.name) {
                    continue;
                }
                let contains =
                    ty.fields.iter().any(|f| f.type_idents.iter().any(|t| carriers.contains(t)));
                if contains {
                    carriers.insert(ty.name.clone());
                    grew = true;
                }
            }
        }
        if !grew {
            break;
        }
    }
    for root in root_types {
        carriers.remove(*root);
    }
    carriers
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{lex, parse};
    use std::path::PathBuf;

    fn unit(rel: &str, src: &str) -> FileUnit {
        FileUnit {
            rel: PathBuf::from(rel),
            rel_str: rel.to_string(),
            crate_ident: crate_ident(rel),
            ast: parse::parse_file(&lex(src)),
        }
    }

    #[test]
    fn crate_ident_maps_core_umbrella_and_examples() {
        assert_eq!(crate_ident("crates/vfl/src/wire.rs"), "gtv_vfl");
        assert_eq!(crate_ident("crates/core/src/trainer.rs"), "gtv");
        assert_eq!(crate_ident("src/lib.rs"), "gtv_suite");
        assert_eq!(crate_ident("examples/quickstart.rs"), "gtv_examples");
    }

    #[test]
    fn call_graph_resolves_unique_and_qualified_names() {
        let units = vec![unit(
            "crates/vfl/src/shuffle.rs",
            "fn leaf_secret() -> u64 { 7 }\n\
             fn middle() -> u64 { leaf_secret() }\n\
             struct S;\n\
             impl S {\n    fn go(&self) -> u64 { middle() }\n}\n\
             fn qualified_call() -> u64 { S::go(&S) }\n",
        )];
        let g = RefGraph::build(&units);
        let start = g.fns.iter().position(|(_, f)| f.name == "qualified_call").unwrap();
        let reach = g.reachable(start, 64);
        let names: Vec<&str> = reach.iter().map(|&i| g.fns[i].1.name.as_str()).collect();
        assert!(names.contains(&"go"));
        assert!(names.contains(&"middle"));
        assert!(names.contains(&"leaf_secret"));
    }

    #[test]
    fn ambiguous_and_ubiquitous_names_add_no_edges() {
        let units = vec![unit(
            "crates/a/src/lib.rs",
            "fn new() -> u64 { 1 }\n\
             fn dup() -> u64 { 1 }\n\
             mod b { pub fn dup() -> u64 { 2 } }\n\
             fn caller() -> u64 { new() + dup() }\n",
        )];
        let g = RefGraph::build(&units);
        let start = g.fns.iter().position(|(_, f)| f.name == "caller").unwrap();
        assert_eq!(g.reachable(start, 64), vec![start], "no unique resolution → no edges");
    }

    #[test]
    fn containment_closure_finds_indirect_carriers() {
        let units = vec![unit(
            "crates/core/src/t.rs",
            "struct Inner { shuffler: SharedShuffler }\n\
             struct Outer { inner: Inner, n: usize }\n\
             struct Clean { n: usize }\n",
        )];
        let carriers = secret_carriers(&units, &["SharedShuffler"]);
        assert!(carriers.contains("Inner"));
        assert!(carriers.contains("Outer"));
        assert!(!carriers.contains("Clean"));
        assert!(!carriers.contains("SharedShuffler"), "roots are reported separately");
    }
}
