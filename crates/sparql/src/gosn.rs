//! The **graph of supernodes** (GoSN) of §2.
//!
//! Each maximal OPT-free sub-pattern of the query becomes a *supernode*
//! encapsulating its triple patterns. For every left-outer join
//! `Pm ⟕ Pn` a **unidirectional** edge connects the leftmost supernodes of
//! `Pm` and `Pn`; for every inner join `Px ⋈ Py` a **bidirectional** edge
//! connects their leftmost supernodes. The derived relations drive the
//! whole optimizer:
//!
//! * **master / slave** — `SNa` is a master of `SNb` when `SNb` is
//!   reachable from `SNa` over a path using at least one unidirectional
//!   edge (bidirectional edges may be crossed in both directions);
//! * **peers** — supernodes connected using only bidirectional edges;
//! * **absolute masters** — supernodes with no master at all.
//!
//! Undirected, the GoSN is a tree (one edge per `⋈`/`⟕` node of the
//! pattern), which Appendix B relies on for the unique-path argument of the
//! non-well-designed transformation.

use crate::algebra::{Expr, GraphPattern, TriplePattern};
use crate::error::SparqlError;
use std::collections::VecDeque;

/// Index of a supernode within a [`Gosn`].
pub type SnId = usize;
/// Index of a triple pattern within a [`Gosn`] (left-to-right query order).
pub type TpId = usize;

/// Edge kind in the GoSN.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeKind {
    /// Left-outer join edge (master → slave).
    Uni,
    /// Inner join edge (peers).
    Bi,
}

/// A FILTER over a sub-pattern that contains OPTIONALs (§5.2's FaN
/// hook). It sees the variables of the sub-pattern's supernodes, and a
/// row that fails it fails `root`, the sub-pattern's leftmost supernode,
/// with everything below it — or is dropped when `root` is an absolute
/// master.
#[derive(Debug, Clone)]
pub struct GroupFilter {
    /// The leftmost supernode of the filtered sub-pattern.
    pub root: SnId,
    /// Every supernode of the filtered sub-pattern, ascending.
    pub sns: Vec<SnId>,
    /// The filter expression.
    pub expr: Expr,
}

/// The binary join structure over supernodes (mirrors the query tree).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnTree {
    /// A supernode leaf.
    Leaf(SnId),
    /// Inner join of two sub-trees.
    Join(Box<SnTree>, Box<SnTree>),
    /// Left-outer join of two sub-trees.
    LeftJoin(Box<SnTree>, Box<SnTree>),
}

impl SnTree {
    /// The leftmost supernode of the sub-tree (§2.1's "leftmost OPT-free
    /// BGP").
    pub fn leftmost(&self) -> SnId {
        match self {
            SnTree::Leaf(id) => *id,
            SnTree::Join(l, _) | SnTree::LeftJoin(l, _) => l.leftmost(),
        }
    }
}

/// The graph of supernodes.
#[derive(Debug, Clone)]
pub struct Gosn {
    tps: Vec<TriplePattern>,
    tp_sn: Vec<SnId>,
    sn_tps: Vec<Vec<TpId>>,
    uni: Vec<(SnId, SnId)>,
    bi: Vec<(SnId, SnId)>,
    masters: Vec<Vec<SnId>>,
    /// The inverse of `masters`: every supernode `sn` is a master of,
    /// ascending.
    slaves: Vec<Vec<SnId>>,
    /// What fails with `sn`: its peer group and every slave of a member,
    /// ascending.
    failure_closure: Vec<Vec<SnId>>,
    peer_group: Vec<usize>,
    /// Members of each peer group, ascending, indexed by the group's
    /// `peer_group` root (empty for non-roots).
    peer_members: Vec<Vec<SnId>>,
    tree: SnTree,
    /// Filters that live entirely inside one supernode.
    sn_filters: Vec<Vec<Expr>>,
    /// Filters spanning supernodes, inner ones first.
    group_filters: Vec<GroupFilter>,
}

impl Gosn {
    /// Builds the GoSN of a UNION-free pattern.
    ///
    /// Filters inside an OPT-free sub-pattern are attached to its supernode;
    /// a filter wrapping a pattern that contains OPTIONALs becomes a
    /// [`GroupFilter`] over that pattern's supernodes. `Union` nodes are
    /// rejected — rewrite to UNION normal form first
    /// ([`crate::rewrite::rewrite_to_unf`]).
    pub fn from_pattern(pattern: &GraphPattern) -> Result<Gosn, SparqlError> {
        let mut b = Builder::default();
        let tree = b.build(pattern)?;
        let mut g = Gosn {
            tps: b.tps,
            tp_sn: b.tp_sn,
            sn_tps: b.sn_tps,
            uni: Vec::new(),
            bi: Vec::new(),
            masters: Vec::new(),
            slaves: Vec::new(),
            failure_closure: Vec::new(),
            peer_group: Vec::new(),
            peer_members: Vec::new(),
            tree,
            sn_filters: b.sn_filters,
            group_filters: b.group_filters,
        };
        collect_edges(&g.tree.clone(), &mut g);
        g.recompute_relations();
        Ok(g)
    }

    /// Recomputes masters / peers / absolutes from the current edge sets.
    fn recompute_relations(&mut self) {
        let n = self.sn_tps.len();
        // Peers: connected components over bidirectional edges.
        let mut pg: Vec<usize> = (0..n).collect();
        fn find(pg: &mut Vec<usize>, x: usize) -> usize {
            if pg[x] != x {
                let root = find(pg, pg[x]);
                pg[x] = root;
            }
            pg[x]
        }
        for &(a, b) in &self.bi {
            let (ra, rb) = (find(&mut pg, a), find(&mut pg, b));
            if ra != rb {
                pg[ra] = rb;
            }
        }
        self.peer_group = (0..n).map(|x| find(&mut pg, x)).collect();
        self.peer_members = vec![Vec::new(); n];
        for (sn, &g) in self.peer_group.iter().enumerate() {
            self.peer_members[g].push(sn);
        }

        // Masters: reachability with ≥1 unidirectional edge.
        // BFS over states (node, crossed_uni_edge_yet).
        let mut fwd: Vec<Vec<(SnId, bool)>> = vec![Vec::new(); n];
        for &(a, b) in &self.uni {
            fwd[a].push((b, true));
        }
        for &(a, b) in &self.bi {
            fwd[a].push((b, false));
            fwd[b].push((a, false));
        }
        // `src` ascends and reaches `y` over a ⟕ edge at most once, so
        // every master list comes out sorted and free of duplicates.
        let mut masters: Vec<Vec<SnId>> = vec![Vec::new(); n];
        for src in 0..n {
            let mut seen = vec![[false; 2]; n];
            let mut q = VecDeque::new();
            seen[src][0] = true;
            q.push_back((src, false));
            while let Some((x, used)) = q.pop_front() {
                for &(y, is_uni) in &fwd[x] {
                    let nu = used || is_uni;
                    if !seen[y][nu as usize] {
                        seen[y][nu as usize] = true;
                        if nu && y != src {
                            masters[y].push(src);
                        }
                        q.push_back((y, nu));
                    }
                }
            }
        }
        self.slaves = vec![Vec::new(); n];
        for (slave, ms) in masters.iter().enumerate() {
            for &m in ms {
                self.slaves[m].push(slave);
            }
        }
        self.masters = masters;
        // Masters are transitive and include a master's peers, so the
        // slaves of a peer group's members are all the closure adds.
        self.failure_closure = (0..n)
            .map(|sn| {
                let mut closure: Vec<SnId> = self.peers_of(sn).to_vec();
                for &peer in self.peers_of(sn) {
                    closure.extend_from_slice(&self.slaves[peer]);
                }
                closure.sort_unstable();
                closure.dedup();
                closure
            })
            .collect();
    }

    /// Number of supernodes.
    pub fn n_supernodes(&self) -> usize {
        self.sn_tps.len()
    }

    /// Number of triple patterns.
    pub fn n_tps(&self) -> usize {
        self.tps.len()
    }

    /// All triple patterns in query order.
    pub fn tps(&self) -> &[TriplePattern] {
        &self.tps
    }

    /// A triple pattern by index.
    pub fn tp(&self, id: TpId) -> &TriplePattern {
        &self.tps[id]
    }

    /// The supernode containing a triple pattern.
    pub fn sn_of_tp(&self, tp: TpId) -> SnId {
        self.tp_sn[tp]
    }

    /// Triple patterns of a supernode.
    pub fn tps_of_sn(&self, sn: SnId) -> &[TpId] {
        &self.sn_tps[sn]
    }

    /// The masters of a supernode (transitive, ascending).
    pub fn masters_of(&self, sn: SnId) -> &[SnId] {
        &self.masters[sn]
    }

    /// The supernodes `sn` is a (transitive) master of, ascending.
    pub fn slaves_of(&self, sn: SnId) -> &[SnId] {
        &self.slaves[sn]
    }

    /// Every supernode that fails when `sn` fails, `sn` included: its
    /// peer group (an inner-join group produces rows only as a unit) and
    /// every slave of a member. Ascending.
    pub fn failure_closure(&self, sn: SnId) -> &[SnId] {
        &self.failure_closure[sn]
    }

    /// True when the supernode has no master (§2.2 "absolute master").
    pub fn is_absolute_master(&self, sn: SnId) -> bool {
        self.masters[sn].is_empty()
    }

    /// Supernodes in the same peer group (including `sn` itself).
    pub fn peers_of(&self, sn: SnId) -> &[SnId] {
        &self.peer_members[self.peer_group[sn]]
    }

    /// True when two supernodes are peers (connected via only bi edges).
    pub fn are_peers(&self, a: SnId, b: SnId) -> bool {
        self.peer_group[a] == self.peer_group[b]
    }

    /// True when `master` is a (transitive) master of `slave`.
    pub fn is_master_of(&self, master: SnId, slave: SnId) -> bool {
        self.masters[slave].binary_search(&master).is_ok()
    }

    /// TP-level master test: is `tp_i`'s supernode a master of `tp_j`'s?
    /// (The paper's `slave-of(tpj, tpi)` in Alg 3.2.)
    pub fn tp_is_master_of(&self, tp_i: TpId, tp_j: TpId) -> bool {
        self.is_master_of(self.tp_sn[tp_i], self.tp_sn[tp_j])
    }

    /// TP-level peer test (same supernode or peer supernodes).
    pub fn tp_are_peers(&self, a: TpId, b: TpId) -> bool {
        self.are_peers(self.tp_sn[a], self.tp_sn[b])
    }

    /// True when the TP sits in an absolute-master supernode.
    pub fn tp_in_absolute_master(&self, tp: TpId) -> bool {
        self.is_absolute_master(self.tp_sn[tp])
    }

    /// Unidirectional (⟕) edges.
    pub fn uni_edges(&self) -> &[(SnId, SnId)] {
        &self.uni
    }

    /// Bidirectional (⋈) edges.
    pub fn bi_edges(&self) -> &[(SnId, SnId)] {
        &self.bi
    }

    /// The join tree over supernodes.
    pub fn tree(&self) -> &SnTree {
        &self.tree
    }

    /// Per-supernode filters.
    pub fn sn_filters(&self, sn: SnId) -> &[Expr] {
        &self.sn_filters[sn]
    }

    /// Filters spanning supernodes, inner ones first: a filter comes after
    /// every filter of the sub-pattern it wraps.
    pub fn group_filters(&self) -> &[GroupFilter] {
        &self.group_filters
    }

    /// Closes a set of failed supernodes under [`Gosn::failure_closure`].
    pub fn close_failure(&self, failed: &mut [bool]) {
        for sn in 0..failed.len() {
            if failed[sn] {
                for &x in &self.failure_closure[sn] {
                    failed[x] = true;
                }
            }
        }
    }

    /// Supernodes that are slaves (have at least one master).
    pub fn slave_sns(&self) -> Vec<SnId> {
        (0..self.n_supernodes())
            .filter(|&x| !self.is_absolute_master(x))
            .collect()
    }

    /// The unique undirected path between two supernodes, as edge index
    /// pairs `(a, b, kind)` (GoSN is a tree when undirected).
    pub fn undirected_path(&self, from: SnId, to: SnId) -> Vec<(SnId, SnId, EdgeKind)> {
        let n = self.n_supernodes();
        let mut adj: Vec<Vec<(SnId, EdgeKind)>> = vec![Vec::new(); n];
        for &(a, b) in &self.uni {
            adj[a].push((b, EdgeKind::Uni));
            adj[b].push((a, EdgeKind::Uni));
        }
        for &(a, b) in &self.bi {
            adj[a].push((b, EdgeKind::Bi));
            adj[b].push((a, EdgeKind::Bi));
        }
        let mut prev: Vec<Option<(SnId, EdgeKind)>> = vec![None; n];
        let mut seen = vec![false; n];
        let mut q = VecDeque::new();
        seen[from] = true;
        q.push_back(from);
        while let Some(x) = q.pop_front() {
            if x == to {
                break;
            }
            for &(y, k) in &adj[x] {
                if !seen[y] {
                    seen[y] = true;
                    prev[y] = Some((x, k));
                    q.push_back(y);
                }
            }
        }
        let mut path = Vec::new();
        let mut cur = to;
        while let Some((p, k)) = prev[cur] {
            path.push((p, cur, k));
            cur = p;
        }
        path.reverse();
        path
    }

    /// Appendix-B transformation: converts the given unidirectional edges
    /// (given as `(a, b)` in their stored orientation) into bidirectional
    /// edges and recomputes all relations. Monotonic: only ⟕ → ⋈.
    pub fn convert_uni_to_bi(&self, edges: &[(SnId, SnId)]) -> Gosn {
        let mut g = self.clone();
        let mut moved = Vec::new();
        g.uni.retain(|e| {
            if edges.contains(e) {
                moved.push(*e);
                false
            } else {
                true
            }
        });
        g.bi.extend(moved);
        g.recompute_relations();
        g
    }

    /// Paper-style serialization with supernode labels, e.g.
    /// `((SN0 ⋈ SN1) ⟕ SN2)`.
    pub fn serialized(&self) -> String {
        fn go(t: &SnTree, out: &mut String) {
            match t {
                SnTree::Leaf(id) => out.push_str(&format!("SN{id}")),
                SnTree::Join(l, r) => {
                    out.push('(');
                    go(l, out);
                    out.push_str(" ⋈ ");
                    go(r, out);
                    out.push(')');
                }
                SnTree::LeftJoin(l, r) => {
                    out.push('(');
                    go(l, out);
                    out.push_str(" ⟕ ");
                    go(r, out);
                    out.push(')');
                }
            }
        }
        let mut s = String::new();
        go(&self.tree, &mut s);
        s
    }
}

#[derive(Default)]
struct Builder {
    tps: Vec<TriplePattern>,
    tp_sn: Vec<SnId>,
    sn_tps: Vec<Vec<TpId>>,
    sn_filters: Vec<Vec<Expr>>,
    group_filters: Vec<GroupFilter>,
}

impl Builder {
    fn build(&mut self, p: &GraphPattern) -> Result<SnTree, SparqlError> {
        if p.is_opt_free() {
            return Ok(SnTree::Leaf(self.new_supernode(p)?));
        }
        match p {
            GraphPattern::Join(l, r) => {
                let lt = self.build(l)?;
                let rt = self.build(r)?;
                Ok(SnTree::Join(Box::new(lt), Box::new(rt)))
            }
            GraphPattern::LeftJoin(l, r) => {
                let lt = self.build(l)?;
                let rt = self.build(r)?;
                Ok(SnTree::LeftJoin(Box::new(lt), Box::new(rt)))
            }
            GraphPattern::Filter(inner, e) => {
                // The sub-pattern's supernodes are the ones its build adds.
                let first = self.sn_tps.len();
                let tree = self.build(inner)?;
                self.group_filters.push(GroupFilter {
                    root: tree.leftmost(),
                    sns: (first..self.sn_tps.len()).collect(),
                    expr: e.clone(),
                });
                Ok(tree)
            }
            GraphPattern::Union(_, _) => Err(SparqlError::Unsupported(
                "UNION inside GoSN construction; rewrite to UNION normal form first".into(),
            )),
            GraphPattern::Bgp(_) => unreachable!("BGPs are OPT-free"),
        }
    }

    /// Flattens an OPT-free pattern into one supernode.
    fn new_supernode(&mut self, p: &GraphPattern) -> Result<SnId, SparqlError> {
        let sn = self.sn_tps.len();
        self.sn_tps.push(Vec::new());
        self.sn_filters.push(Vec::new());
        self.flatten_into(p, sn)?;
        Ok(sn)
    }

    fn flatten_into(&mut self, p: &GraphPattern, sn: SnId) -> Result<(), SparqlError> {
        match p {
            GraphPattern::Bgp(tps) => {
                for tp in tps {
                    let id = self.tps.len();
                    self.tps.push(tp.clone());
                    self.tp_sn.push(sn);
                    self.sn_tps[sn].push(id);
                }
                Ok(())
            }
            GraphPattern::Join(l, r) => {
                self.flatten_into(l, sn)?;
                self.flatten_into(r, sn)
            }
            GraphPattern::Filter(inner, e) => {
                self.sn_filters[sn].push(e.clone());
                self.flatten_into(inner, sn)
            }
            GraphPattern::Union(_, _) => Err(SparqlError::Unsupported(
                "UNION inside an OPT-free pattern; rewrite to UNION normal form first".into(),
            )),
            GraphPattern::LeftJoin(_, _) => {
                unreachable!("flatten_into is only called on OPT-free patterns")
            }
        }
    }
}

fn collect_edges(tree: &SnTree, g: &mut Gosn) {
    match tree {
        SnTree::Leaf(_) => {}
        SnTree::Join(l, r) => {
            g.bi.push((l.leftmost(), r.leftmost()));
            collect_edges(l, g);
            collect_edges(r, g);
        }
        SnTree::LeftJoin(l, r) => {
            g.uni.push((l.leftmost(), r.leftmost()));
            collect_edges(l, g);
            collect_edges(r, g);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra::TermPattern;
    use lbr_rdf::Term;

    fn bgp1(s: &str, p: &str, o: &str) -> GraphPattern {
        let f = |x: &str| {
            if let Some(v) = x.strip_prefix('?') {
                TermPattern::Var(v.to_string())
            } else {
                TermPattern::Const(Term::iri(x))
            }
        };
        GraphPattern::Bgp(vec![TriplePattern::new(f(s), f(p), f(o))])
    }

    /// Figure 2.1(a): Q2 of §1 — `P1 ⟕ P2` with P1 = {tp1}, P2 = {tp2, tp3}.
    fn q2_pattern() -> GraphPattern {
        let p1 = bgp1("Jerry", "hasFriend", "?friend");
        let p2 = GraphPattern::Bgp(vec![
            TriplePattern::new(
                TermPattern::Var("friend".into()),
                TermPattern::Const(Term::iri("actedIn")),
                TermPattern::Var("sitcom".into()),
            ),
            TriplePattern::new(
                TermPattern::Var("sitcom".into()),
                TermPattern::Const(Term::iri("location")),
                TermPattern::Const(Term::iri("NewYorkCity")),
            ),
        ]);
        GraphPattern::left_join(p1, p2)
    }

    #[test]
    fn figure_2_1_a() {
        let g = Gosn::from_pattern(&q2_pattern()).unwrap();
        assert_eq!(g.n_supernodes(), 2);
        assert_eq!(g.tps_of_sn(0), &[0]);
        assert_eq!(g.tps_of_sn(1), &[1, 2]);
        assert_eq!(g.uni_edges(), &[(0, 1)]);
        assert!(g.bi_edges().is_empty());
        assert!(g.is_absolute_master(0));
        assert!(!g.is_absolute_master(1));
        assert!(g.is_master_of(0, 1));
        assert!(g.tp_is_master_of(0, 1) && g.tp_is_master_of(0, 2));
        assert!(g.tp_are_peers(1, 2), "tps of the same supernode are peers");
        assert_eq!(g.serialized(), "(SN0 ⟕ SN1)");
    }

    /// Figure 2.1(b): ((Pa ⟕ Pb) ⋈ (Pc ⟕ Pd)) ⟕ (Pe ⟕ Pf).
    fn fig_2_1_b() -> Gosn {
        let leaf = |n: &str| bgp1(&format!("?x{n}"), &format!("p{n}"), &format!("?y{n}"));
        let pat = GraphPattern::left_join(
            GraphPattern::join(
                GraphPattern::left_join(leaf("a"), leaf("b")),
                GraphPattern::left_join(leaf("c"), leaf("d")),
            ),
            GraphPattern::left_join(leaf("e"), leaf("f")),
        );
        Gosn::from_pattern(&pat).unwrap()
    }

    #[test]
    fn figure_2_1_b() {
        // Supernodes in left-to-right order: a=0 b=1 c=2 d=3 e=4 f=5.
        let g = fig_2_1_b();
        assert_eq!(g.n_supernodes(), 6);
        let mut uni = g.uni_edges().to_vec();
        uni.sort_unstable();
        assert_eq!(uni, vec![(0, 1), (0, 4), (2, 3), (4, 5)]);
        assert_eq!(g.bi_edges(), &[(0, 2)]);
        // Absolute masters: SNa and SNc.
        let abs: Vec<SnId> = (0..6).filter(|&x| g.is_absolute_master(x)).collect();
        assert_eq!(abs, vec![0, 2]);
        // Peers: a ↔ c.
        assert!(g.are_peers(0, 2));
        assert!(!g.are_peers(0, 1));
        // Transitive masters: f's masters are a, c and e.
        assert_eq!(g.masters_of(5), vec![0, 2, 4]);
        // b and d are mastered by both absolute masters.
        assert_eq!(g.masters_of(1), vec![0, 2]);
        assert_eq!(g.masters_of(3), vec![0, 2]);
        // Slaves invert masters; a failure takes the peer group and every
        // slave of a member with it.
        assert_eq!(g.slaves_of(0), vec![1, 3, 4, 5]);
        assert_eq!(g.slaves_of(4), vec![5]);
        assert_eq!(g.failure_closure(2), vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(g.failure_closure(4), vec![4, 5]);
        assert_eq!(g.failure_closure(1), vec![1]);
        assert_eq!(
            g.serialized(),
            "(((SN0 ⟕ SN1) ⋈ (SN2 ⟕ SN3)) ⟕ (SN4 ⟕ SN5))"
        );
    }

    #[test]
    fn undirected_path_is_unique_tree_path() {
        let g = fig_2_1_b();
        // b – a – e – f; edges are reported in traversal orientation.
        assert_eq!(
            g.undirected_path(1, 5),
            vec![
                (1, 0, EdgeKind::Uni),
                (0, 4, EdgeKind::Uni),
                (4, 5, EdgeKind::Uni)
            ]
        );
    }

    #[test]
    fn convert_uni_to_bi_changes_relations() {
        let g = fig_2_1_b();
        let g2 = g.convert_uni_to_bi(&[(0, 1)]);
        assert!(g2.are_peers(0, 1));
        assert!(g2.is_absolute_master(1), "b joined the absolute peer group");
        assert!(g2.uni_edges().iter().all(|&e| e != (0, 1)));
        // d is still a slave.
        assert!(!g2.is_absolute_master(3));
    }

    #[test]
    fn filters_attach_to_supernodes_or_groups() {
        let inner = GraphPattern::filter(bgp1("?x", "p", "?y"), Expr::Bound("x".into()));
        let pat = GraphPattern::left_join(inner, bgp1("?y", "q", "?z"));
        let g = Gosn::from_pattern(&pat).unwrap();
        assert_eq!(g.sn_filters(0).len(), 1);
        assert!(g.group_filters().is_empty());

        let group = |e: &str| {
            GraphPattern::filter(
                GraphPattern::left_join(bgp1("?x", "p", "?y"), bgp1("?y", "q", "?z")),
                Expr::Bound(e.into()),
            )
        };
        let g2 = Gosn::from_pattern(&group("z")).unwrap();
        let [f] = g2.group_filters() else {
            panic!("one group filter")
        };
        assert_eq!((f.root, f.sns.as_slice()), (0, &[0, 1][..]));

        // Inside an OPTIONAL the group is rooted at the slave, and the
        // outer filter comes after the inner one.
        let pat3 = GraphPattern::filter(
            GraphPattern::left_join(bgp1("?w", "r", "?x"), group("z")),
            Expr::Bound("w".into()),
        );
        let g3 = Gosn::from_pattern(&pat3).unwrap();
        let roots: Vec<(SnId, Vec<SnId>)> = g3
            .group_filters()
            .iter()
            .map(|f| (f.root, f.sns.clone()))
            .collect();
        assert_eq!(roots, vec![(1, vec![1, 2]), (0, vec![0, 1, 2])]);
    }

    #[test]
    fn union_is_rejected() {
        let pat = GraphPattern::left_join(
            bgp1("?x", "p", "?y"),
            GraphPattern::union(bgp1("?y", "q", "?z"), bgp1("?y", "r", "?z")),
        );
        assert!(matches!(
            Gosn::from_pattern(&pat),
            Err(SparqlError::Unsupported(_))
        ));
    }

    #[test]
    fn deep_nesting_keeps_leftmost_rule() {
        // (((Pa ⟕ Pb) ⟕ Pc) ⋈ Pd): leftmost of the left side is Pa.
        let pat = GraphPattern::join(
            GraphPattern::left_join(
                GraphPattern::left_join(bgp1("?a", "p", "?b"), bgp1("?b", "q", "?c")),
                bgp1("?a", "r", "?d"),
            ),
            bgp1("?a", "s", "?e"),
        );
        let g = Gosn::from_pattern(&pat).unwrap();
        let mut uni = g.uni_edges().to_vec();
        uni.sort_unstable();
        assert_eq!(uni, vec![(0, 1), (0, 2)]);
        assert_eq!(g.bi_edges(), &[(0, 3)]);
        assert!(g.are_peers(0, 3));
    }
}
