//! `get_jvar_order` (Algorithm 3.1): the order join variables are pruned in.
//!
//! For an **acyclic** GoJ:
//!
//! * the sub-tree induced by the jvars of *absolute master* supernodes is
//!   traversed bottom-up with the **least selective** jvar as the root (so
//!   the most selective master jvars prune first and the root last);
//! * the remaining (slave) supernodes are ordered masters-before-slaves
//!   (selective peers first); each contributes the bottom-up order of its
//!   induced jvar sub-tree, rooted at a jvar shared with a master;
//! * the top-down order mirrors the same construction.
//!
//! For a **cyclic** GoJ, both orders degrade to one greedy order: all jvars
//! by descending selectivity (most selective — fewest triples — first).
//!
//! Orders may repeat a jvar (a jvar shared between the master tree and a
//! slave's sub-tree is pruned again when the slave's restrictions arrive —
//! exactly the `orderbu = [(?friend), (?sitcom, ?friend)]` of Example-2).

use crate::bindings::VarId;
use crate::selectivity::sn_rank;
use lbr_sparql::goj::Goj;
use lbr_sparql::gosn::{Gosn, SnId, TpId};

/// The traversal orders produced by Algorithm 3.1.
#[derive(Debug, Clone)]
pub struct JvarOrder {
    /// Bottom-up pass order (jvar ids; may contain repeats).
    pub bottom_up: Vec<VarId>,
    /// Top-down pass order.
    pub top_down: Vec<VarId>,
    /// True when the greedy (cyclic) order was used for both passes.
    pub greedy: bool,
    n_vars: usize,
}

impl JvarOrder {
    /// First position of a variable in the bottom-up order; `usize::MAX`
    /// when the variable is not a join variable. Drives the S-O vs O-S
    /// BitMat orientation choice of §5.
    pub fn first_pos(&self, var: VarId) -> usize {
        self.bottom_up
            .iter()
            .position(|&v| v == var)
            .unwrap_or(usize::MAX)
    }

    /// True when `var` participates in the order (is a join variable).
    pub fn is_jvar(&self, var: VarId) -> bool {
        self.first_pos(var) != usize::MAX
    }

    /// Number of interned variables in the query (jvars and others).
    pub fn n_vars(&self) -> usize {
        self.n_vars
    }
}

/// Computes the jvar orders. `tp_estimates` are the per-TP selectivity
/// estimates of [`crate::selectivity::estimate_all`]. GoJ node ids follow
/// variable-name order, and every tie breaks on them.
pub fn get_jvar_order(gosn: &Gosn, goj: &Goj, tp_estimates: &[u64]) -> JvarOrder {
    // A jvar's rank: the estimate of the most selective TP holding it
    // (§3.2 — "?j1 is more selective than ?j2 if the most selective TP
    // having ?j1 has fewer triples …"). Lower = more selective.
    let n_nodes = goj.len();
    let mut rank = vec![u64::MAX; n_nodes];
    for (tp, &est) in tp_estimates.iter().enumerate() {
        for &node in goj.jvars_of_tp(tp) {
            rank[node] = rank[node].min(est);
        }
    }
    let least_selective = |n: &usize| (rank[*n], *n);
    let (mut top_down, mut bottom_up) = (Vec::new(), Vec::new());
    let greedy = goj.is_cyclic();
    if greedy {
        // ln 1–3: greedy order, most selective jvar first.
        top_down.extend(0..n_nodes);
        top_down.sort_by_key(least_selective);
        bottom_up.clone_from(&top_down);
    } else {
        // ln 8: slave supernodes, masters first; selective peers first.
        let mut snss: Vec<SnId> = gosn.slave_sns();
        snss.sort_by_key(|&sn| {
            let rank = sn_rank(gosn.tps_of_sn(sn), tp_estimates);
            (gosn.masters_of(sn).len(), rank, sn)
        });
        top_down.reserve(n_nodes * (1 + snss.len()));
        bottom_up.reserve(n_nodes * (1 + snss.len()));
        // The jvars of a TP set, ascending, in one scratch list.
        let mut set: Vec<usize> = Vec::with_capacity(n_nodes);
        let jvars_of = |set: &mut Vec<usize>, tps: &mut dyn Iterator<Item = TpId>| {
            set.clear();
            tps.for_each(|tp| set.extend_from_slice(goj.jvars_of_tp(tp)));
            set.sort_unstable();
            set.dedup();
        };
        // ln 4–7: the induced sub-tree of absolute-master jvars, rooted at
        // the least selective one (processed last bottom-up).
        let mut masters = (0..gosn.n_tps()).filter(|&tp| gosn.tp_in_absolute_master(tp));
        jvars_of(&mut set, &mut masters);
        if let Some(root) = set.iter().copied().max_by_key(least_selective) {
            extend_orders(goj, &set, root, &mut top_down, &mut bottom_up);
        }
        // ln 9–13 / 15–19: per-slave induced sub-trees.
        for &sn in &snss {
            jvars_of(&mut set, &mut gosn.tps_of_sn(sn).iter().copied());
            // Root: a jvar of the slave that also occurs in one of its
            // masters (ln 11); tie-broken toward the least selective,
            // mirroring the master-tree rule. Falls back to the least
            // selective jvar of the slave when none is shared (defensive).
            let in_master = |node: usize| {
                (gosn.masters_of(sn).iter())
                    .flat_map(|&m| gosn.tps_of_sn(m))
                    .any(|&tp| goj.jvars_of_tp(tp).contains(&node))
            };
            let shared = set.iter().copied().filter(|&n| in_master(n));
            let Some(root) = shared
                .max_by_key(least_selective)
                .or_else(|| set.iter().copied().max_by_key(least_selective))
            else {
                continue;
            };
            extend_orders(goj, &set, root, &mut top_down, &mut bottom_up);
        }
    }
    for node in top_down.iter_mut().chain(&mut bottom_up) {
        *node = goj.jvars()[*node];
    }
    JvarOrder {
        bottom_up,
        top_down,
        greedy,
        n_vars: gosn.vars().len(),
    }
}

/// Appends the top-down order of `subset` from `root` to `top_down`, and
/// its reverse, the bottom-up order, to `bottom_up`.
fn extend_orders(
    goj: &Goj,
    subset: &[usize],
    root: usize,
    top_down: &mut Vec<usize>,
    bottom_up: &mut Vec<usize>,
) {
    let start = top_down.len();
    goj.top_down_into(subset, root, top_down);
    bottom_up.extend(top_down[start..].iter().rev());
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbr_sparql::classify::analyze;
    use lbr_sparql::parse_query;

    fn orders(query: &str, est: Vec<u64>) -> (JvarOrder, lbr_sparql::Vars) {
        let q = parse_query(query).unwrap();
        let a = analyze(&q.pattern).unwrap();
        let jo = get_jvar_order(&a.gosn, &a.goj, &est);
        (jo, a.gosn.vars().clone())
    }

    /// Example-2 of §3.2: orderbu = [?friend, (?sitcom, ?friend)],
    /// ordertd = [?friend, (?friend, ?sitcom)].
    #[test]
    fn example_2_orders() {
        // tp0 = (:Jerry :hasFriend ?friend) is highly selective (est 2);
        // tp1 (est 5) and tp2 (est 1).
        let (jo, vt) = orders(
            "PREFIX : <> SELECT * WHERE { :Jerry :hasFriend ?friend .
               OPTIONAL { ?friend :actedIn ?sitcom . ?sitcom :location :NewYorkCity . } }",
            vec![2, 5, 1],
        );
        assert!(!jo.greedy);
        let friend = vt.id("friend").unwrap();
        let sitcom = vt.id("sitcom").unwrap();
        assert_eq!(jo.bottom_up, vec![friend, sitcom, friend]);
        assert_eq!(jo.top_down, vec![friend, friend, sitcom]);
        assert_eq!(jo.first_pos(friend), 0);
        assert!(jo.is_jvar(sitcom));
    }

    #[test]
    fn cyclic_uses_greedy_both_ways() {
        let (jo, vt) = orders(
            "PREFIX : <> SELECT * WHERE { ?a :p1 ?b . ?b :p2 ?c . ?a :p3 ?c . }",
            vec![10, 5, 7],
        );
        assert!(jo.greedy);
        assert_eq!(jo.bottom_up, jo.top_down);
        // Most selective first: ?b and ?c touch tp1 (est 5) → rank 5;
        // ?a touches tp0 (10) and tp2 (7) → rank 7. Ties by node id
        // (lexicographic jvar order: a, b, c).
        let a = vt.id("a").unwrap();
        let b = vt.id("b").unwrap();
        let c = vt.id("c").unwrap();
        assert_eq!(jo.bottom_up, vec![b, c, a]);
    }

    #[test]
    fn master_tree_root_is_least_selective() {
        // Chain ?x–?y in the absolute master; ?x more selective.
        let (jo, vt) = orders(
            "PREFIX : <> SELECT * WHERE { ?x :p1 ?y . ?x :p2 ?w . ?y :p3 ?z .
               ?w :p4 ?q . ?z :p5 ?q2 . }",
            // TPs:       x-y   x-w   y-z   w-q   z-q2
            vec![1, 100, 100, 100, 100],
        );
        // jvars: w, x, y, z; ranks: w: min(100,100)=100, x: 1, y: 1, z: 100.
        // Root = least selective (max rank, tie → larger node id): z.
        let z = vt.id("z").unwrap();
        assert_eq!(*jo.bottom_up.last().unwrap(), z);
        assert_eq!(jo.top_down[0], z);
    }

    #[test]
    fn no_jvars_yields_empty_orders() {
        let (jo, _) = orders("PREFIX : <> SELECT * WHERE { :a :p ?x . }", vec![3]);
        assert!(jo.bottom_up.is_empty());
        assert!(jo.top_down.is_empty());
        assert_eq!(jo.first_pos(0), usize::MAX);
        assert!(!jo.is_jvar(0));
    }

    #[test]
    fn slave_segments_follow_master_hierarchy() {
        // Master {?a}, slave1 {?a ?b} (more selective), slave2 {?b ?c}
        // (slave of slave1).
        let (jo, vt) = orders(
            "PREFIX : <> SELECT * WHERE { ?a :p0 :k .
               OPTIONAL { ?a :p1 ?b . OPTIONAL { ?b :p2 ?c . } } }",
            vec![2, 50, 70],
        );
        let a = vt.id("a").unwrap();
        let b = vt.id("b").unwrap();
        // ?c occurs in one TP only — it is not a join variable.
        assert!(!jo.is_jvar(vt.id("c").unwrap()));
        // Master tree: [a]. Slave1 (depth 1): jvars {a, b}, root shared
        // with master = a → bu [b, a]. Slave2 (depth 2): jvars {b},
        // root shared with its masters = b → bu [b].
        assert_eq!(jo.bottom_up, vec![a, b, a, b]);
        assert_eq!(jo.top_down, vec![a, a, b, b]);
    }
}
