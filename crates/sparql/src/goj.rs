//! The graph of triple patterns (GoT) and the graph of join variables
//! (GoJ) of §3.1, with acyclicity tests and the tree traversal orders used
//! by `get_jvar_order` (Alg 3.1).
//!
//! * **GoT**: one node per triple pattern, an undirected edge between TPs
//!   sharing a join variable; redundant cycles from >2 TPs sharing the same
//!   variable are removed by connecting such TPs in a star (per Bernstein
//!   et al.'s construction).
//! * **GoJ**: one node per join variable, an undirected edge between two
//!   join variables that co-occur in a TP. Lemma 3.2: GoT acyclic ⇒ GoJ
//!   acyclic.
//!
//! A *join variable* (jvar) is a variable occurring in two or more triple
//! patterns.

use crate::algebra::TriplePattern;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// The graph of join variables.
#[derive(Debug, Clone)]
pub struct Goj {
    jvars: Vec<String>,
    /// Collapsed simple adjacency (parallel edges merged).
    adj: Vec<BTreeSet<usize>>,
    cyclic: bool,
    /// Component id per jvar node.
    component: Vec<usize>,
    /// For each TP (by caller's index), the jvar node ids it contains.
    tp_jvars: Vec<Vec<usize>>,
}

impl Goj {
    /// Builds the GoJ of a TP list.
    pub fn from_tps(tps: &[TriplePattern]) -> Goj {
        // Count occurrences: a jvar occurs in ≥ 2 TPs.
        let mut occurrences: BTreeMap<&str, usize> = BTreeMap::new();
        for tp in tps {
            for v in tp.vars() {
                *occurrences.entry(v).or_default() += 1;
            }
        }
        let jvars: Vec<String> = occurrences
            .iter()
            .filter(|&(_, &c)| c >= 2)
            .map(|(v, _)| v.to_string())
            .collect();
        let index: BTreeMap<&str, usize> = jvars
            .iter()
            .enumerate()
            .map(|(i, v)| (v.as_str(), i))
            .collect();

        let mut adj: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); jvars.len()];
        let mut tp_jvars: Vec<Vec<usize>> = Vec::with_capacity(tps.len());
        // Multigraph reading: the GoJ is a *multigraph* — when two distinct
        // TPs both contain the same jvar pair, the parallel edges close a
        // cycle. This matters for Lemma 3.3: per-dimension fold/unfold
        // semi-joins project each jvar independently and cannot express the
        // pair constraint, so such queries must take the cyclic
        // (greedy-order, nullification-capable) path.
        let mut edge_owner: BTreeMap<(usize, usize), usize> = BTreeMap::new();
        let mut parallel_edge = false;
        for (tp_idx, tp) in tps.iter().enumerate() {
            let ids: Vec<usize> = tp
                .vars()
                .into_iter()
                .filter_map(|v| index.get(v).copied())
                .collect();
            for i in 0..ids.len() {
                for j in i + 1..ids.len() {
                    adj[ids[i]].insert(ids[j]);
                    adj[ids[j]].insert(ids[i]);
                    let key = (ids[i].min(ids[j]), ids[i].max(ids[j]));
                    match edge_owner.get(&key) {
                        Some(&owner) if owner != tp_idx => parallel_edge = true,
                        Some(_) => {}
                        None => {
                            edge_owner.insert(key, tp_idx);
                        }
                    }
                }
            }
            tp_jvars.push(ids);
        }

        // Cycle + component detection on the collapsed simple graph.
        let n = jvars.len();
        let mut component = vec![usize::MAX; n];
        let mut cyclic = false;
        let mut n_edges_double = 0usize;
        for s in adj.iter() {
            n_edges_double += s.len();
        }
        let n_edges = n_edges_double / 2;
        let mut n_components = 0;
        for start in 0..n {
            if component[start] != usize::MAX {
                continue;
            }
            let cid = n_components;
            n_components += 1;
            let mut q = VecDeque::new();
            component[start] = cid;
            q.push_back(start);
            while let Some(x) = q.pop_front() {
                for &y in &adj[x] {
                    if component[y] == usize::MAX {
                        component[y] = cid;
                        q.push_back(y);
                    }
                }
            }
        }
        // An undirected simple graph is a forest iff |E| = |V| - #components;
        // parallel edges (distinct TPs over the same jvar pair) also cycle.
        if n_edges + n_components != n || parallel_edge {
            cyclic = true;
        }
        Goj {
            jvars,
            adj,
            cyclic,
            component,
            tp_jvars,
        }
    }

    /// Join-variable names, in node-id order (lexicographic).
    pub fn jvars(&self) -> &[String] {
        &self.jvars
    }

    /// Number of jvar nodes.
    pub fn len(&self) -> usize {
        self.jvars.len()
    }

    /// True when the query has no join variables.
    pub fn is_empty(&self) -> bool {
        self.jvars.is_empty()
    }

    /// Node id of a variable, if it is a join variable.
    pub fn node_of(&self, var: &str) -> Option<usize> {
        self.jvars.iter().position(|v| v == var)
    }

    /// True when the GoJ contains a cycle (§3.3 queries).
    pub fn is_cyclic(&self) -> bool {
        self.cyclic
    }

    /// True when all jvar nodes are in one connected component.
    pub fn is_connected(&self) -> bool {
        self.component.iter().all(|&c| c == 0)
    }

    /// Jvar node ids present in TP `i` (caller's TP order).
    pub fn jvars_of_tp(&self, i: usize) -> &[usize] {
        &self.tp_jvars[i]
    }

    /// Neighbours of a jvar node.
    pub fn neighbours(&self, node: usize) -> impl Iterator<Item = usize> + '_ {
        self.adj[node].iter().copied()
    }

    /// Top-down (root-first, BFS) order over the sub-graph induced by
    /// `subset`, starting at `root`. If the induced sub-graph is
    /// disconnected, remaining nodes are appended component-by-component
    /// (lowest node id as auxiliary root). The paper argues the induced
    /// sub-graphs it uses are connected when the query has no Cartesian
    /// products; a Cartesian product reaches here disconnected.
    pub fn top_down_order(&self, subset: &[usize], root: usize) -> Vec<usize> {
        debug_assert!(subset.contains(&root));
        let in_subset: BTreeSet<usize> = subset.iter().copied().collect();
        let mut order = Vec::with_capacity(subset.len());
        let mut seen: BTreeSet<usize> = BTreeSet::new();
        let mut roots = vec![root];
        roots.extend(subset.iter().copied().filter(|&x| x != root));
        for r in roots {
            if seen.contains(&r) {
                continue;
            }
            let mut q = VecDeque::new();
            seen.insert(r);
            q.push_back(r);
            while let Some(x) = q.pop_front() {
                order.push(x);
                for &y in &self.adj[x] {
                    if in_subset.contains(&y) && seen.insert(y) {
                        q.push_back(y);
                    }
                }
            }
        }
        order
    }

    /// Bottom-up (leaves-first) order: the reverse of
    /// [`Goj::top_down_order`].
    pub fn bottom_up_order(&self, subset: &[usize], root: usize) -> Vec<usize> {
        let mut o = self.top_down_order(subset, root);
        o.reverse();
        o
    }
}

/// The graph of triple patterns (GoT), with redundant-cycle removal.
#[derive(Debug, Clone)]
pub struct Got {
    /// Undirected adjacency over TP indices.
    adj: Vec<BTreeSet<usize>>,
    acyclic: bool,
}

impl Got {
    /// Builds the GoT of a TP list. For each jvar shared by k ≥ 2 TPs, the
    /// TPs are connected in a star around the first of them (removing the
    /// redundant clique cycles of footnote 4).
    pub fn from_tps(tps: &[TriplePattern]) -> Got {
        let mut var_tps: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (i, tp) in tps.iter().enumerate() {
            for v in tp.vars() {
                var_tps.entry(v).or_default().push(i);
            }
        }
        let mut adj: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); tps.len()];
        for (_, members) in var_tps.iter().filter(|&(_, m)| m.len() >= 2) {
            let hub = members[0];
            for &other in &members[1..] {
                adj[hub].insert(other);
                adj[other].insert(hub);
            }
        }
        // Forest test.
        let n = tps.len();
        let n_edges: usize = adj.iter().map(|s| s.len()).sum::<usize>() / 2;
        let mut comp = vec![usize::MAX; n];
        let mut n_components = 0;
        for start in 0..n {
            if comp[start] != usize::MAX {
                continue;
            }
            comp[start] = n_components;
            let mut q = VecDeque::from([start]);
            while let Some(x) = q.pop_front() {
                for &y in &adj[x] {
                    if comp[y] == usize::MAX {
                        comp[y] = n_components;
                        q.push_back(y);
                    }
                }
            }
            n_components += 1;
        }
        Got {
            adj,
            acyclic: n_edges + n_components == n,
        }
    }

    /// True when the (redundancy-reduced) GoT is acyclic.
    pub fn is_acyclic(&self) -> bool {
        self.acyclic
    }

    /// Neighbours of a TP.
    pub fn neighbours(&self, tp: usize) -> impl Iterator<Item = usize> + '_ {
        self.adj[tp].iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra::TermPattern;
    use lbr_rdf::Term;

    fn tp(s: &str, p: &str, o: &str) -> TriplePattern {
        let f = |x: &str| {
            if let Some(v) = x.strip_prefix('?') {
                TermPattern::Var(v.to_string())
            } else {
                TermPattern::Const(Term::iri(x))
            }
        };
        TriplePattern::new(f(s), f(p), f(o))
    }

    /// Figure 3.3: the GoT and GoJ of the running example.
    #[test]
    fn figure_3_3() {
        let tps = vec![
            tp("Jerry", "hasFriend", "?friend"),
            tp("?friend", "actedIn", "?sitcom"),
            tp("?sitcom", "location", "NewYorkCity"),
        ];
        let goj = Goj::from_tps(&tps);
        assert_eq!(goj.jvars(), &["friend".to_string(), "sitcom".to_string()]);
        assert!(!goj.is_cyclic());
        assert!(goj.is_connected());
        // ?friend – ?sitcom edge comes from tp2.
        assert_eq!(goj.neighbours(0).collect::<Vec<_>>(), vec![1]);
        assert_eq!(goj.jvars_of_tp(1), &[0, 1]);
        assert_eq!(goj.jvars_of_tp(0), &[0]);

        let got = Got::from_tps(&tps);
        assert!(got.is_acyclic());
        assert_eq!(got.neighbours(1).collect::<Vec<_>>(), vec![0, 2]);
    }

    /// Lemma 3.2's example shape: a 3-cycle of jvars.
    #[test]
    fn cyclic_triangle() {
        let tps = vec![
            tp("?a", "p1", "?b"),
            tp("?b", "p2", "?c"),
            tp("?a", "p3", "?c"),
        ];
        let goj = Goj::from_tps(&tps);
        assert_eq!(goj.len(), 3);
        assert!(goj.is_cyclic());
        let got = Got::from_tps(&tps);
        assert!(
            !got.is_acyclic(),
            "GoT must be cyclic when GoJ is (Lemma 3.2 contrapositive)"
        );
    }

    /// Redundant cycles — many TPs sharing one jvar (footnote 4) must NOT
    /// count as cycles.
    #[test]
    fn star_join_is_acyclic() {
        let tps = vec![
            tp("?x", "p1", "?a"),
            tp("?x", "p2", "?b"),
            tp("?x", "p3", "?c"),
            tp("?x", "p4", "?d"),
        ];
        let goj = Goj::from_tps(&tps);
        assert_eq!(goj.len(), 1, "only ?x joins");
        assert!(!goj.is_cyclic());
        let got = Got::from_tps(&tps);
        assert!(got.is_acyclic(), "clique over ?x must be reduced to a star");
    }

    #[test]
    fn non_join_vars_are_not_jvar_nodes() {
        let tps = vec![tp("?x", "p1", "?once"), tp("?x", "p2", "?alsoOnce")];
        let goj = Goj::from_tps(&tps);
        assert_eq!(goj.jvars(), &["x".to_string()]);
        assert_eq!(goj.node_of("once"), None);
        assert_eq!(goj.node_of("x"), Some(0));
    }

    #[test]
    fn traversal_orders() {
        // Path: a - b - c - d (via two-var TPs).
        let tps = vec![
            tp("?a", "p1", "?b"),
            tp("?b", "p2", "?c"),
            tp("?c", "p3", "?d"),
            tp("?a", "q1", "?z1"),
            tp("?b", "q2", "?z2"),
            tp("?c", "q3", "?z3"),
            tp("?d", "q4", "?z4"),
        ];
        let goj = Goj::from_tps(&tps);
        assert!(!goj.is_cyclic());
        let a = goj.node_of("a").unwrap();
        let b = goj.node_of("b").unwrap();
        let c = goj.node_of("c").unwrap();
        let d = goj.node_of("d").unwrap();
        let all = vec![a, b, c, d];
        let td = goj.top_down_order(&all, a);
        assert_eq!(td, vec![a, b, c, d]);
        let bu = goj.bottom_up_order(&all, a);
        assert_eq!(bu, vec![d, c, b, a]);
        // Induced subset {a, c, d}: c–d connected, a isolated.
        let sub = vec![a, c, d];
        let td = goj.top_down_order(&sub, c);
        assert_eq!(td[0], c);
        assert_eq!(td.len(), 3);
        assert!(td.contains(&a) && td.contains(&d));
    }

    #[test]
    fn disconnected_goj() {
        let tps = vec![
            tp("?a", "p1", "?b"),
            tp("?b", "p2", "?c"),
            tp("?d", "p3", "?e"),
            tp("?e", "p4", "?f"),
        ];
        let goj = Goj::from_tps(&tps);
        assert_eq!(goj.len(), 2, "only ?b and ?e join");
        assert!(!goj.is_connected());
        assert!(!goj.is_cyclic());
    }

    /// Two distinct TPs over the same jvar pair: a multigraph cycle.
    /// Per-dimension folds cannot enforce the pair constraint, so these
    /// queries must classify as cyclic (see module docs).
    #[test]
    fn parallel_edges_are_cyclic() {
        let tps = vec![tp("?a", "p1", "?b"), tp("?a", "p2", "?b")];
        let goj = Goj::from_tps(&tps);
        assert!(goj.is_cyclic());
        // The same pair inside ONE TP twice is impossible (vars dedup), and
        // a single TP's pair is not a cycle.
        let tps = vec![tp("?a", "p1", "?b"), tp("?b", "p2", "?c")];
        assert!(!Goj::from_tps(&tps).is_cyclic());
    }

    #[test]
    fn empty_tp_list() {
        let goj = Goj::from_tps(&[]);
        assert!(goj.is_empty());
        assert!(!goj.is_cyclic());
        assert!(Got::from_tps(&[]).is_acyclic());
    }
}
