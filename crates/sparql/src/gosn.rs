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

use crate::algebra::{Expr, GraphPattern};
use crate::error::SparqlError;
use std::collections::VecDeque;
use std::ops::Range;

/// Index of a supernode within a [`Gosn`].
pub type SnId = usize;
/// Index of a triple pattern within a [`Gosn`] (left-to-right query order).
pub type TpId = usize;
/// Index of a variable within a [`Gosn`]'s [`Vars`].
pub type VarId = usize;

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
    /// Every supernode of the filtered sub-pattern (consecutive ids).
    pub sns: Range<SnId>,
    /// The filter expression.
    pub expr: Expr,
}

/// The variable names of a pattern, interned once in first-occurrence
/// order (S, P, O within a TP): one string arena and the end of each name.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Vars {
    text: String,
    ends: Vec<usize>,
}

impl Vars {
    /// Number of variables.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// True when the pattern has no variables.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Name of a variable (without the `?`).
    pub fn name(&self, v: VarId) -> &str {
        let start = if v == 0 { 0 } else { self.ends[v - 1] };
        &self.text[start..self.ends[v]]
    }

    /// Id of a variable name.
    pub fn id(&self, name: &str) -> Option<VarId> {
        (0..self.len()).find(|&v| self.name(v) == name)
    }

    /// All names in id order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        (0..self.len()).map(|v| self.name(v))
    }

    fn intern(&mut self, name: &str) -> VarId {
        self.id(name).unwrap_or_else(|| {
            self.text.push_str(name);
            self.ends.push(self.text.len());
            self.ends.len() - 1
        })
    }
}

/// Id lists in one flat vector: list `i` is `items[ends[i]..ends[i + 1]]`
/// (`ends` starts at 0, so a lookup does not branch).
#[derive(Debug, Clone)]
pub(crate) struct Lists {
    pub(crate) items: Vec<usize>,
    ends: Vec<usize>,
}

impl Lists {
    pub(crate) fn with_capacity(lists: usize, items: usize) -> Lists {
        let mut ends = Vec::with_capacity(lists + 1);
        ends.push(0);
        Lists {
            items: Vec::with_capacity(items),
            ends,
        }
    }

    #[inline]
    pub(crate) fn get(&self, i: usize) -> &[usize] {
        &self.items[self.ends[i]..self.ends[i + 1]]
    }

    /// Ends the list being filled (what `items` gained since the last).
    pub(crate) fn close(&mut self) {
        self.ends.push(self.items.len());
    }

    fn truncate(&mut self, lists: usize) {
        self.ends.truncate(lists + 1);
        self.items.truncate(self.ends[lists]);
    }
}

/// One node of the join structure over supernodes, in postfix order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Node {
    Leaf(SnId),
    Join,
    LeftJoin,
}

/// The graph of supernodes, over TP and variable ids: each TP is its
/// supernode and the variable of each position, and every relation is a
/// list in one flat vector.
#[derive(Debug, Clone)]
pub struct Gosn {
    vars: Vars,
    /// Per TP: its supernode and the variable of each position.
    tps: Vec<(SnId, [Option<VarId>; 3])>,
    n_sns: usize,
    /// `n_sns` lists each, in this order: the TPs of each supernode, its
    /// masters (transitive, ascending), the supernodes it is a master of,
    /// its failure closure, and the members of each peer group (indexed
    /// by the group's root, empty for the others).
    lists: Lists,
    uni: Vec<(SnId, SnId)>,
    bi: Vec<(SnId, SnId)>,
    peer_group: Vec<usize>,
    tree: Vec<Node>,
    /// Filters that live entirely inside one supernode, by supernode.
    sn_filters: Vec<(SnId, Expr)>,
    /// Filters spanning supernodes, inner ones first.
    group_filters: Vec<GroupFilter>,
}

/// The list kinds of [`Gosn::lists`], in storage order.
const TPS: usize = 0;
const MASTERS: usize = 1;
const SLAVES: usize = 2;
const CLOSURE: usize = 3;
const PEERS: usize = 4;

impl Gosn {
    /// Builds the GoSN of a UNION-free pattern, interning its variables.
    ///
    /// Filters inside an OPT-free sub-pattern are attached to its supernode;
    /// a filter wrapping a pattern that contains OPTIONALs becomes a
    /// [`GroupFilter`] over that pattern's supernodes. `Union` nodes are
    /// rejected — rewrite to UNION normal form first
    /// ([`crate::rewrite::rewrite_to_unf`]).
    pub fn from_pattern(pattern: &GraphPattern) -> Result<Gosn, SparqlError> {
        let (mut n_tps, mut var_bytes) = (0, 0);
        pattern.visit_tps(&mut |tp| {
            n_tps += 1;
            var_bytes += tp.vars().map(str::len).sum::<usize>();
        });
        let mut g = Gosn {
            vars: Vars {
                text: String::with_capacity(var_bytes),
                ends: Vec::with_capacity(3 * n_tps),
            },
            tps: Vec::with_capacity(n_tps),
            n_sns: 0,
            lists: Lists::with_capacity(5 * n_tps, 8 * n_tps),
            uni: Vec::new(),
            bi: Vec::new(),
            peer_group: Vec::new(),
            tree: Vec::with_capacity(2 * n_tps),
            sn_filters: Vec::new(),
            group_filters: Vec::new(),
        };
        g.build(pattern)?;
        g.recompute_relations();
        Ok(g)
    }

    /// Adds the supernodes and edges of `p`; returns its leftmost
    /// supernode (§2.1's "leftmost OPT-free BGP"). An edge is recorded
    /// before the edges inside its operands.
    fn build(&mut self, p: &GraphPattern) -> Result<SnId, SparqlError> {
        if p.is_opt_free() {
            let sn = self.n_sns;
            self.n_sns += 1;
            self.flatten_into(p, sn)?;
            self.lists.close();
            self.tree.push(Node::Leaf(sn));
            return Ok(sn);
        }
        match p {
            GraphPattern::Join(l, r) | GraphPattern::LeftJoin(l, r) => {
                let uni = matches!(p, GraphPattern::LeftJoin(..));
                let edges = if uni { &mut self.uni } else { &mut self.bi };
                let at = edges.len();
                edges.push((0, 0));
                let la = self.build(l)?;
                let ra = self.build(r)?;
                let edges = if uni { &mut self.uni } else { &mut self.bi };
                edges[at] = (la, ra);
                self.tree
                    .push(if uni { Node::LeftJoin } else { Node::Join });
                Ok(la)
            }
            GraphPattern::Filter(inner, e) => {
                // The sub-pattern's supernodes are the ones its build adds.
                let first = self.n_sns;
                let root = self.build(inner)?;
                self.group_filters.push(GroupFilter {
                    root,
                    sns: first..self.n_sns,
                    expr: e.clone(),
                });
                Ok(root)
            }
            GraphPattern::Union(_, _) => Err(SparqlError::Unsupported(
                "UNION inside GoSN construction; rewrite to UNION normal form first".into(),
            )),
            GraphPattern::Bgp(_) => unreachable!("BGPs are OPT-free"),
        }
    }

    /// Flattens an OPT-free pattern into supernode `sn`.
    fn flatten_into(&mut self, p: &GraphPattern, sn: SnId) -> Result<(), SparqlError> {
        match p {
            GraphPattern::Bgp(tps) => {
                for tp in tps {
                    let vars =
                        [&tp.s, &tp.p, &tp.o].map(|t| t.as_var().map(|v| self.vars.intern(v)));
                    self.lists.items.push(self.tps.len());
                    self.tps.push((sn, vars));
                }
                Ok(())
            }
            GraphPattern::Join(l, r) => {
                self.flatten_into(l, sn)?;
                self.flatten_into(r, sn)
            }
            GraphPattern::Filter(inner, e) => {
                self.sn_filters.push((sn, e.clone()));
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

    /// Recomputes masters / slaves / failure closures / peers from the
    /// current edge sets.
    fn recompute_relations(&mut self) {
        let n = self.n_sns;
        self.lists.truncate(n);
        // Peers: connected components over bidirectional edges.
        let mut pg: Vec<usize> = (0..n).collect();
        fn find(pg: &mut [usize], x: usize) -> usize {
            if pg[x] != x {
                pg[x] = find(pg, pg[x]);
            }
            pg[x]
        }
        for &(a, b) in &self.bi {
            let (ra, rb) = (find(&mut pg, a), find(&mut pg, b));
            if ra != rb {
                pg[ra] = rb;
            }
        }
        for x in 0..n {
            find(&mut pg, x);
        }
        // Masters: `reach[m * n + s]` is true when `m` is a master of `s`,
        // i.e. `s` is reachable from `m` over a path using at least one ⟕
        // edge (⋈ edges both ways). Undirected, the GoSN is a tree: a walk
        // crosses each edge off the tree path twice, once backwards, which
        // no ⟕ edge allows, so it uses a ⟕ edge exactly when `m` and `s`
        // are not peers. Reachability is Warshall's closure.
        let mut reach = vec![false; n * n];
        for &(a, b) in &self.uni {
            reach[a * n + b] = true;
        }
        for &(a, b) in &self.bi {
            reach[a * n + b] = true;
            reach[b * n + a] = true;
        }
        for k in 0..n {
            for i in 0..n {
                if reach[i * n + k] {
                    for j in 0..n {
                        reach[i * n + j] |= reach[k * n + j];
                    }
                }
            }
        }
        for (i, r) in reach.iter_mut().enumerate() {
            *r &= pg[i / n] != pg[i % n];
        }
        for s in 0..n {
            self.lists
                .items
                .extend((0..n).filter(|&m| reach[m * n + s]));
            self.lists.close();
        }
        for m in 0..n {
            self.lists
                .items
                .extend((0..n).filter(|&s| reach[m * n + s]));
            self.lists.close();
        }
        // Masters are transitive and include a master's peers, so the
        // slaves of a peer group's members are all the failure closure
        // adds to the group: fold each member's row into its root's.
        for p in (0..n).filter(|&p| pg[p] != p) {
            for x in 0..n {
                reach[pg[p] * n + x] |= reach[p * n + x];
            }
        }
        for sn in 0..n {
            let fails = |x: usize| pg[x] == pg[sn] || reach[pg[sn] * n + x];
            self.lists.items.extend((0..n).filter(|&x| fails(x)));
            self.lists.close();
        }
        for root in 0..n {
            self.lists.items.extend((0..n).filter(|&x| pg[x] == root));
            self.lists.close();
        }
        self.peer_group = pg;
    }

    #[inline]
    fn list(&self, kind: usize, sn: SnId) -> &[usize] {
        self.lists.get(kind * self.n_sns + sn)
    }

    /// Number of supernodes.
    pub fn n_supernodes(&self) -> usize {
        self.n_sns
    }

    /// Number of triple patterns.
    pub fn n_tps(&self) -> usize {
        self.tps.len()
    }

    /// The pattern's variables.
    pub fn vars(&self) -> &Vars {
        &self.vars
    }

    /// The variable of each position (S, P, O) of a TP; `None` for a
    /// constant.
    #[inline]
    pub fn tp_vars(&self, tp: TpId) -> [Option<VarId>; 3] {
        self.tps[tp].1
    }

    /// The variables of a TP in S, P, O order, deduplicated.
    pub fn vars_of_tp(&self, tp: TpId) -> impl Iterator<Item = VarId> {
        let [s, p, o] = self.tp_vars(tp);
        let p = p.filter(|&v| Some(v) != s);
        let o = o.filter(|&v| Some(v) != s && Some(v) != p);
        [s, p, o].into_iter().flatten()
    }

    /// True if the variable occurs in the TP.
    #[inline]
    pub fn tp_has_var(&self, tp: TpId, var: VarId) -> bool {
        self.tp_vars(tp).contains(&Some(var))
    }

    /// The supernode containing a triple pattern.
    #[inline]
    pub fn sn_of_tp(&self, tp: TpId) -> SnId {
        self.tps[tp].0
    }

    /// Triple patterns of a supernode (consecutive ids).
    #[inline]
    pub fn tps_of_sn(&self, sn: SnId) -> &[TpId] {
        self.list(TPS, sn)
    }

    /// The masters of a supernode (transitive, ascending).
    #[inline]
    pub fn masters_of(&self, sn: SnId) -> &[SnId] {
        self.list(MASTERS, sn)
    }

    /// The supernodes `sn` is a (transitive) master of, ascending.
    #[inline]
    pub fn slaves_of(&self, sn: SnId) -> &[SnId] {
        self.list(SLAVES, sn)
    }

    /// Every supernode that fails when `sn` fails, `sn` included: its
    /// peer group (an inner-join group produces rows only as a unit) and
    /// every slave of a member. Ascending.
    #[inline]
    pub fn failure_closure(&self, sn: SnId) -> &[SnId] {
        self.list(CLOSURE, sn)
    }

    /// True when the supernode has no master (§2.2 "absolute master").
    #[inline]
    pub fn is_absolute_master(&self, sn: SnId) -> bool {
        self.masters_of(sn).is_empty()
    }

    /// Supernodes in the same peer group (including `sn` itself).
    #[inline]
    pub fn peers_of(&self, sn: SnId) -> &[SnId] {
        self.list(PEERS, self.peer_group[sn])
    }

    /// True when two supernodes are peers (connected via only bi edges).
    #[inline]
    pub fn are_peers(&self, a: SnId, b: SnId) -> bool {
        self.peer_group[a] == self.peer_group[b]
    }

    /// True when `master` is a (transitive) master of `slave`.
    #[inline]
    pub fn is_master_of(&self, master: SnId, slave: SnId) -> bool {
        self.masters_of(slave).binary_search(&master).is_ok()
    }

    /// TP-level master test: is `tp_i`'s supernode a master of `tp_j`'s?
    /// (The paper's `slave-of(tpj, tpi)` in Alg 3.2.)
    #[inline]
    pub fn tp_is_master_of(&self, tp_i: TpId, tp_j: TpId) -> bool {
        self.is_master_of(self.sn_of_tp(tp_i), self.sn_of_tp(tp_j))
    }

    /// TP-level peer test (same supernode or peer supernodes).
    #[inline]
    pub fn tp_are_peers(&self, a: TpId, b: TpId) -> bool {
        self.are_peers(self.sn_of_tp(a), self.sn_of_tp(b))
    }

    /// True when the TP sits in an absolute-master supernode.
    #[inline]
    pub fn tp_in_absolute_master(&self, tp: TpId) -> bool {
        self.is_absolute_master(self.sn_of_tp(tp))
    }

    /// Unidirectional (⟕) edges.
    pub fn uni_edges(&self) -> &[(SnId, SnId)] {
        &self.uni
    }

    /// Bidirectional (⋈) edges.
    pub fn bi_edges(&self) -> &[(SnId, SnId)] {
        &self.bi
    }

    /// Per-supernode filters.
    pub fn sn_filters(&self, sn: SnId) -> impl Iterator<Item = &Expr> {
        (self.sn_filters.iter()).filter_map(move |(s, e)| (*s == sn).then_some(e))
    }

    /// The variable a filter of `sn` masks at init: `Some` when `expr`
    /// names exactly one variable and a TP of `sn` binds it, so init can
    /// drop that variable's failing candidates from those TPs. Every other
    /// supernode filter goes to the FaN hook, which evaluates it on each
    /// emitted row. Planning and execution both decide through this.
    pub fn mask_var(&self, sn: SnId, expr: &Expr) -> Option<VarId> {
        let (mut one, mut many) = (None, false);
        expr.visit_vars(&mut |v| match one {
            None => one = Some(v),
            Some(w) => many |= w != v,
        });
        let var = self.vars.id(one.filter(|_| !many)?)?;
        (self.tps_of_sn(sn).iter())
            .any(|&tp| self.tp_has_var(tp, var))
            .then_some(var)
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
                for &x in self.failure_closure(sn) {
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
        for (edges, kind) in [(&self.uni, EdgeKind::Uni), (&self.bi, EdgeKind::Bi)] {
            for &(a, b) in edges {
                adj[a].push((b, kind));
                adj[b].push((a, kind));
            }
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
        let mut stack: Vec<String> = Vec::new();
        for node in &self.tree {
            let op = match node {
                Node::Leaf(id) => {
                    stack.push(format!("SN{id}"));
                    continue;
                }
                Node::Join => "⋈",
                Node::LeftJoin => "⟕",
            };
            let r = stack.pop().expect("a right operand");
            let l = stack.pop().expect("a left operand");
            stack.push(format!("({l} {op} {r})"));
        }
        stack.pop().unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra::{TermPattern, TriplePattern};
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
        assert_eq!(g.sn_filters(0).count(), 1);
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
        assert_eq!((f.root, f.sns.clone()), (0, 0..2));

        // Inside an OPTIONAL the group is rooted at the slave, and the
        // outer filter comes after the inner one.
        let pat3 = GraphPattern::filter(
            GraphPattern::left_join(bgp1("?w", "r", "?x"), group("z")),
            Expr::Bound("w".into()),
        );
        let g3 = Gosn::from_pattern(&pat3).unwrap();
        let roots: Vec<(SnId, Range<SnId>)> = g3
            .group_filters()
            .iter()
            .map(|f| (f.root, f.sns.clone()))
            .collect();
        assert_eq!(roots, vec![(1, 1..3), (0, 0..3)]);
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
