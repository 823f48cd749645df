//! Determinism taint analysis (rule id `determinism-taint`).
//!
//! The per-line rules catch a wall clock *at the call site*; they are
//! blind to a sim-crate function that calls a helper in `core` or
//! `storage` which reads the clock three frames down. This pass marks
//! nondeterminism *sources* — wall-clock reads, OS entropy,
//! `HashMap`/`HashSet` iteration, `swap_remove` on ordered vectors — in
//! functions of crates the line rules do not police, then walks the call
//! graph: any function in a sim/replay crate ([`crate::rules::SIM_CRATES`])
//! that transitively reaches a source produces a finding *at the source
//! line*, naming the shortest sim-crate call chain that reaches it.
//!
//! Reporting at the source makes pragmas compose as **taint barriers**: a
//! justified `// tidy: allow(determinism-taint): ...` (or a pragma for
//! the underlying line rule, e.g. `wall-clock`) on the source line stops
//! propagation for every caller at once — justify the invariant where it
//! lives, not at each of its transitive users.
//!
//! Sources inside sim crates themselves are *not* re-reported here: the
//! per-line rules already fire on them directly (or a pragma suppresses
//! them, which is exactly the barrier semantics).

use crate::callgraph::CallGraph;
use crate::index::WorkspaceIndex;
use crate::pipeline::SourceFile;
use crate::registry;
use crate::rules::SIM_CRATES;
use crate::Finding;

/// One nondeterminism source occurrence.
struct Source {
    fn_id: usize,
    line: usize, // 0-based
    token: String,
}

/// Iteration markers that make a `HashMap`/`HashSet` binding order-
/// dependent. `get`/`contains`/`len` are order-free and never taint.
const HASH_ITER_MARKERS: &[&str] = &[
    ".iter()",
    ".iter_mut()",
    ".keys()",
    ".values()",
    ".values_mut()",
    ".into_iter()",
    ".drain(",
    ".retain(",
];

pub fn check(files: &[SourceFile], ix: &WorkspaceIndex, graph: &CallGraph) -> Vec<Finding> {
    let mut findings = Vec::new();
    let sources = collect_sources(files, ix);
    for src in sources {
        let Some(chain) = sim_reach_chain(ix, graph, src.fn_id) else {
            continue;
        };
        let file = &files[ix.fns[src.fn_id].file];
        let path: Vec<String> = chain.iter().map(|&id| ix.fns[id].display()).collect();
        findings.push(Finding::cross_file(
            registry::DETERMINISM_TAINT,
            &file.rel,
            src.line + 1,
            format!(
                "`{}` taints the deterministic replay path: reachable from `{}` via {}",
                src.token,
                path.first().cloned().unwrap_or_default(),
                path.join(" -> "),
            ),
            "make the helper deterministic (sim clock, seeded rng, ordered map), or justify \
             with `// tidy: allow(determinism-taint): <why this cannot skew a replay>`",
        ));
    }
    findings
}

/// Sources in crates the per-line determinism rules do NOT cover (they
/// own their crates), excluding `tidy` (out of scope).
fn collect_sources(files: &[SourceFile], ix: &WorkspaceIndex) -> Vec<Source> {
    let mut out = Vec::new();
    for (fn_id, item) in ix.fns.iter().enumerate() {
        if SIM_CRATES.contains(&item.krate.as_str()) || item.krate == "tidy" {
            continue;
        }
        let file = &files[item.file];
        let hash_typed = &ix.facts[item.file].hash_typed;
        let (a, b) = item.body;
        for line in a..=b {
            if ix.line_owner[item.file][line] != Some(fn_id) {
                continue;
            }
            let info = &file.scanned.lines[line];
            if info.in_test {
                continue;
            }
            let code = &info.code;
            let mut push = |token: String, underlying: &'static str| {
                if !file.allowed(line, &[registry::DETERMINISM_TAINT, underlying]) {
                    out.push(Source { fn_id, line, token });
                }
            };
            for token in ["Instant::now", "SystemTime::now", "SystemTime"] {
                if code.contains(token) {
                    push(token.to_string(), "wall-clock");
                    break;
                }
            }
            for token in ["thread_rng", "from_entropy", "rand::random"] {
                if code.contains(token) {
                    push(token.to_string(), "thread-rng");
                    break;
                }
            }
            if code.contains(".swap_remove(") {
                push(".swap_remove(".to_string(), "vec-swap-remove");
            }
            if let Some(binding) = hash_iteration(code, hash_typed) {
                push(binding, "unordered-map");
            }
        }
    }
    out
}

/// A `HashMap`/`HashSet`-typed binding iterated on this line, rendered as
/// the offending token (`active.iter()`).
fn hash_iteration(code: &str, hash_typed: &std::collections::BTreeSet<String>) -> Option<String> {
    for name in hash_typed {
        for marker in HASH_ITER_MARKERS {
            let needle = format!("{name}{marker}");
            if let Some(pos) = code.find(&needle) {
                let before = code[..pos].chars().next_back();
                let boundary = !before.is_some_and(|c| c.is_ascii_alphanumeric() || c == '_');
                if boundary {
                    return Some(format!("{name}{}", marker.trim_end_matches('(')));
                }
            }
        }
        // `for x in &map` / `for (k, v) in map` — iteration without a
        // method call.
        if let Some(pos) = code.find(" in ") {
            let tail = code[pos + 4..]
                .trim_start_matches(['&', ' '])
                .trim_start_matches("mut ");
            let ident: String = tail
                .chars()
                .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                .collect();
            if &ident == name && code.trim_start().starts_with("for ") {
                return Some(format!("for .. in {name}"));
            }
        }
    }
    None
}

/// Shortest caller chain from a sim-crate function down to `source_fn`,
/// as fn ids `[sim_entry, .., source_fn]`; `None` when no sim/replay
/// code can reach the source.
fn sim_reach_chain(ix: &WorkspaceIndex, graph: &CallGraph, source_fn: usize) -> Option<Vec<usize>> {
    let n = ix.fns.len();
    let mut parent: Vec<Option<usize>> = vec![None; n];
    let mut visited = vec![false; n];
    let mut queue = std::collections::VecDeque::new();
    visited[source_fn] = true;
    queue.push_back(source_fn);
    while let Some(cur) = queue.pop_front() {
        if SIM_CRATES.contains(&ix.fns[cur].krate.as_str()) {
            // Parent pointers lead from the sim entry back toward the
            // source, so walking them yields the chain in display order.
            let mut ordered = Vec::new();
            let mut walk = Some(cur);
            while let Some(id) = walk {
                ordered.push(id);
                walk = parent[id];
            }
            return Some(ordered);
        }
        for &(caller, _) in &graph.callers[cur] {
            if !visited[caller] {
                visited[caller] = true;
                parent[caller] = Some(cur);
                queue.push_back(caller);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph::CallGraph;
    use crate::index::WorkspaceIndex;
    use crate::pipeline::SourceFile;

    fn run(files: &[SourceFile]) -> Vec<Finding> {
        let ix = WorkspaceIndex::build(files);
        let graph = CallGraph::build(files, &ix);
        check(files, &ix, &graph)
    }

    #[test]
    fn helper_clock_read_taints_the_sim_caller() {
        let sim = SourceFile::from_source(
            "crates/simnet/src/engine.rs",
            "pub fn advance() {\n    let _ = wall_micros_helper();\n}\n",
        );
        let core = SourceFile::from_source(
            "crates/core/src/util.rs",
            "pub fn wall_micros_helper() -> u64 {\n    let _ = std::time::Instant::now();\n    0\n}\n",
        );
        let findings = run(&[sim, core]);
        assert_eq!(findings.len(), 1);
        let f = &findings[0];
        assert_eq!(f.rule, "determinism-taint");
        assert_eq!(f.path, "crates/core/src/util.rs");
        assert_eq!(f.line, 2);
        assert!(f.message.contains("simnet::advance"));
        assert!(f.message.contains("wall_micros_helper"));
    }

    #[test]
    fn pragma_on_the_source_line_is_a_barrier() {
        let sim = SourceFile::from_source(
            "crates/simnet/src/engine.rs",
            "pub fn advance() {\n    let _ = wall_micros_helper();\n}\n",
        );
        let core = SourceFile::from_source(
            "crates/core/src/util.rs",
            "pub fn wall_micros_helper() -> u64 {\n    // tidy: allow(determinism-taint): diagnostics only, never feeds replay state\n    let _ = std::time::Instant::now();\n    0\n}\n",
        );
        assert!(run(&[sim, core]).is_empty());
    }

    #[test]
    fn unreached_sources_and_hash_lookups_stay_quiet() {
        let core = SourceFile::from_source(
            "crates/core/src/util.rs",
            "pub fn lonely_clock() -> u64 {\n    let _ = std::time::Instant::now();\n    0\n}\n",
        );
        assert!(run(&[core]).is_empty());

        let sim = SourceFile::from_source(
            "crates/simnet/src/engine.rs",
            "pub fn advance() {\n    let _ = lookup_only(3);\n}\n",
        );
        let store = SourceFile::from_source(
            "crates/storage/src/map.rs",
            "pub fn lookup_only(k: u32) -> u32 {\n    let cache: HashMap<u32, u32> = HashMap::new();\n    *cache.get(&k).unwrap_or(&0)\n}\n",
        );
        assert!(run(&[sim, store]).is_empty());
    }

    #[test]
    fn hash_iteration_through_a_helper_is_tainted() {
        let sim = SourceFile::from_source(
            "crates/predict/src/rank.rs",
            "pub fn rank_all() -> u32 {\n    sum_counts_unordered()\n}\n",
        );
        let store = SourceFile::from_source(
            "crates/storage/src/map.rs",
            "pub fn sum_counts_unordered() -> u32 {\n    let counts: HashMap<u32, u32> = HashMap::new();\n    counts.values().sum()\n}\n",
        );
        let findings = run(&[sim, store]);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("counts.values"));
        assert!(findings[0].message.contains("predict::rank_all"));
    }
}
