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
use crate::gosn::{Gosn, Lists, TpId, VarId};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// The graph of join variables, over a [`Gosn`]'s TP and variable ids.
/// Node ids follow variable-name order.
#[derive(Debug, Clone)]
pub struct Goj {
    /// The variable of each node.
    jvars: Vec<VarId>,
    /// The node of each variable (`usize::MAX` for a non-join variable).
    node: Vec<usize>,
    /// The jvar nodes of each TP (in S, P, O order), then the neighbours
    /// of each node (ascending; parallel edges merged).
    lists: Lists,
    n_tps: usize,
    cyclic: bool,
    connected: bool,
}

impl Goj {
    /// Builds the GoJ of a GoSN's TPs.
    pub fn new(gosn: &Gosn) -> Goj {
        let (n_tps, n_vars) = (gosn.n_tps(), gosn.vars().len());
        // A jvar occurs in ≥ 2 TPs.
        let mut node = vec![0usize; n_vars];
        for tp in 0..n_tps {
            gosn.vars_of_tp(tp).for_each(|v| node[v] += 1);
        }
        let mut jvars: Vec<VarId> = Vec::with_capacity(n_vars);
        jvars.extend((0..n_vars).filter(|&v| node[v] >= 2));
        jvars.sort_unstable_by_key(|&v| gosn.vars().name(v));
        node.fill(usize::MAX);
        for (i, &v) in jvars.iter().enumerate() {
            node[v] = i;
        }
        let n = jvars.len();
        let mut lists = Lists::with_capacity(n_tps + n, 3 * n_tps + 6 * n_tps);
        // Multigraph reading: the GoJ is a *multigraph* — when two distinct
        // TPs both contain the same jvar pair, the parallel edges close a
        // cycle. This matters for Lemma 3.3: per-dimension fold/unfold
        // semi-joins project each jvar independently and cannot express the
        // pair constraint, so such queries must take the cyclic
        // (greedy-order, nullification-capable) path.
        let mut edges: Vec<(usize, usize)> = Vec::with_capacity(3 * n_tps);
        for tp in 0..n_tps {
            let start = lists.items.len();
            let ids = gosn
                .vars_of_tp(tp)
                .map(|v| node[v])
                .filter(|&x| x != usize::MAX);
            lists.items.extend(ids);
            let ids = &lists.items[start..];
            for (i, &a) in ids.iter().enumerate() {
                edges.extend(ids[i + 1..].iter().map(|&b| (a.min(b), a.max(b))));
            }
            lists.close();
        }
        // A TP yields each of its pairs once, so a repeated pair is two TPs.
        edges.sort_unstable();
        let parallel_edge = edges.windows(2).any(|w| w[0] == w[1]);
        edges.dedup();
        for x in 0..n {
            let below = edges.iter().filter(|e| e.1 == x).map(|e| e.0);
            lists
                .items
                .extend(below.chain(edges.iter().filter(|e| e.0 == x).map(|e| e.1)));
            lists.close();
        }
        // Components on the collapsed simple graph (union-find).
        let mut root: Vec<usize> = (0..n).collect();
        fn find(root: &mut [usize], x: usize) -> usize {
            if root[x] != x {
                root[x] = find(root, root[x]);
            }
            root[x]
        }
        let mut n_components = n;
        for &(a, b) in &edges {
            let (ra, rb) = (find(&mut root, a), find(&mut root, b));
            if ra != rb {
                root[ra] = rb;
                n_components -= 1;
            }
        }
        // An undirected simple graph is a forest iff |E| = |V| - #components;
        // parallel edges (distinct TPs over the same jvar pair) also cycle.
        Goj {
            jvars,
            node,
            lists,
            n_tps,
            cyclic: edges.len() + n_components != n || parallel_edge,
            connected: n_components <= 1,
        }
    }

    /// The variable of each jvar node, in node-id order (variable-name
    /// order).
    pub fn jvars(&self) -> &[VarId] {
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
    #[inline]
    pub fn node_of(&self, var: VarId) -> Option<usize> {
        self.node.get(var).copied().filter(|&x| x != usize::MAX)
    }

    /// True when the GoJ contains a cycle (§3.3 queries).
    pub fn is_cyclic(&self) -> bool {
        self.cyclic
    }

    /// True when all jvar nodes are in one connected component.
    pub fn is_connected(&self) -> bool {
        self.connected
    }

    /// Jvar node ids present in TP `i`.
    #[inline]
    pub fn jvars_of_tp(&self, i: TpId) -> &[usize] {
        self.lists.get(i)
    }

    /// Neighbours of a jvar node, ascending.
    #[inline]
    pub fn neighbours(&self, node: usize) -> impl Iterator<Item = usize> + '_ {
        self.lists.get(self.n_tps + node).iter().copied()
    }

    /// Appends to `out` the top-down (root-first, BFS) order over the
    /// sub-graph induced by `subset`, starting at `root`; its reverse is
    /// the bottom-up (leaves-first) order. If the induced
    /// sub-graph is disconnected, remaining nodes are appended
    /// component-by-component (in `subset` order as auxiliary roots). The
    /// paper argues the induced sub-graphs it uses are connected when the
    /// query has no Cartesian products; a Cartesian product reaches here
    /// disconnected. `out` is the BFS queue; nothing else is allocated.
    pub fn top_down_into(&self, subset: &[usize], root: usize, out: &mut Vec<usize>) {
        debug_assert!(subset.contains(&root));
        let start = out.len();
        for r in std::iter::once(root).chain(subset.iter().copied()) {
            if out[start..].contains(&r) {
                continue;
            }
            let mut head = out.len();
            out.push(r);
            while let Some(&x) = out.get(head) {
                head += 1;
                for y in self.neighbours(x) {
                    if subset.contains(&y) && !out[start..].contains(&y) {
                        out.push(y);
                    }
                }
            }
        }
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

    /// The GoJ of a BGP, with the GoSN that names its variables.
    fn goj_of(tps: &[TriplePattern]) -> (Goj, Gosn) {
        let gosn = Gosn::from_pattern(&crate::GraphPattern::Bgp(tps.to_vec())).unwrap();
        (Goj::new(&gosn), gosn)
    }

    fn names(goj: &Goj, gosn: &Gosn) -> Vec<String> {
        (goj.jvars().iter())
            .map(|&v| gosn.vars().name(v).to_string())
            .collect()
    }

    /// Figure 3.3: the GoT and GoJ of the running example.
    #[test]
    fn figure_3_3() {
        let tps = vec![
            tp("Jerry", "hasFriend", "?friend"),
            tp("?friend", "actedIn", "?sitcom"),
            tp("?sitcom", "location", "NewYorkCity"),
        ];
        let (goj, gosn) = goj_of(&tps);
        assert_eq!(names(&goj, &gosn), ["friend", "sitcom"]);
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
        let goj = goj_of(&tps).0;
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
        let goj = goj_of(&tps).0;
        assert_eq!(goj.len(), 1, "only ?x joins");
        assert!(!goj.is_cyclic());
        let got = Got::from_tps(&tps);
        assert!(got.is_acyclic(), "clique over ?x must be reduced to a star");
    }

    #[test]
    fn non_join_vars_are_not_jvar_nodes() {
        let tps = vec![tp("?x", "p1", "?once"), tp("?x", "p2", "?alsoOnce")];
        let (goj, gosn) = goj_of(&tps);
        assert_eq!(names(&goj, &gosn), ["x"]);
        assert_eq!(goj.node_of(gosn.vars().id("once").unwrap()), None);
        assert_eq!(goj.node_of(gosn.vars().id("x").unwrap()), Some(0));
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
        let (goj, gosn) = goj_of(&tps);
        assert!(!goj.is_cyclic());
        let node = |v| goj.node_of(gosn.vars().id(v).unwrap()).unwrap();
        let (a, b, c, d) = (node("a"), node("b"), node("c"), node("d"));
        let all = vec![a, b, c, d];
        let mut td = Vec::new();
        goj.top_down_into(&all, a, &mut td);
        assert_eq!(td, vec![a, b, c, d]);
        // Induced subset {a, c, d}: c–d connected, a isolated. `out`
        // keeps what it held.
        goj.top_down_into(&[a, c, d], c, &mut td);
        assert_eq!(td[..5], [a, b, c, d, c]);
        assert_eq!(td.len(), 7);
        assert!(td[4..].contains(&a) && td[4..].contains(&d));
    }

    #[test]
    fn disconnected_goj() {
        let tps = vec![
            tp("?a", "p1", "?b"),
            tp("?b", "p2", "?c"),
            tp("?d", "p3", "?e"),
            tp("?e", "p4", "?f"),
        ];
        let goj = goj_of(&tps).0;
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
        let goj = goj_of(&tps).0;
        assert!(goj.is_cyclic());
        // The same pair inside ONE TP twice is impossible (vars dedup), and
        // a single TP's pair is not a cycle.
        let tps = vec![tp("?a", "p1", "?b"), tp("?b", "p2", "?c")];
        assert!(!goj_of(&tps).0.is_cyclic());
    }

    #[test]
    fn empty_tp_list() {
        let goj = goj_of(&[]).0;
        assert!(goj.is_empty());
        assert!(!goj.is_cyclic());
        assert!(Got::from_tps(&[]).is_acyclic());
    }
}
