//! The `init` phase of Algorithm 5.1: load one BitMat (or one BitMat row)
//! per triple pattern, with **active pruning**.
//!
//! Loading rules (§5), over the S-O and O-S families the catalog keeps
//! (the paper's P-O and P-S BitMats are assembled from their rows):
//!
//! * `(?v  f1 f2)` — row `f2` of the O-S BitMat of `f1` (subject
//!   candidates);
//! * `(f1  f2 ?v)` — row `f1` of the S-O BitMat of `f2` (object
//!   candidates);
//! * `(?a  f  ?b)` — the S-O or O-S BitMat of `f`; the variable that comes
//!   first in `orderbu` (or the only join variable) becomes the row
//!   dimension;
//! * `(f   ?p ?o)` — the P-O BitMat of `f`: row `f` of the S-O BitMat of
//!   each predicate `f` has ([`Catalog::predicate_matrix`]);
//! * `(?s  ?p f )` — the P-S BitMat of `f`, from O-S rows alike;
//! * `(f1  ?p f2)` — predicate candidates: the predicates of `f1` whose
//!   S-O row `f1` holds `f2`;
//! * `(f1 f2 f3)` — a membership test;
//! * `(?s ?p ?o)` — one S-O BitMat per predicate, an extension (the paper
//!   lists this shape as "currently under development").
//!
//! *Active pruning* happens inside the load. Before `BM_tpj` is read, each
//! of its variables gets one mask: the AND of the folds of that variable
//! over every already-loaded master or peer TP holding it. The catalog
//! reads only what the masks keep ([`Catalog::masked`]), on every medium:
//! the heap store copies the kept rows, an mmap'd segment decodes only
//! those, and the delta overlay merges only the delta pairs they keep.
//! [`load_order`] loads TPs so that as many of them as possible are masked,
//! and the first absolute-master TP that is empty after its load ends
//! `init`: §5's "simple optimization" aborts before the remaining TPs are
//! read.
//!
//! Every fold a mask takes goes through the query's fold memo (held by
//! [`PruneScratch`]), keyed by TP, variable and binding space and stamped
//! with the TP's generation ([`TpState::gen`]). A TP that masks several
//! later loads is folded once, and `prune_triples` starts from the same
//! folds.

use crate::bindings::{op_space_len, VarId};
use crate::error::LbrError;
use crate::jvar_order::JvarOrder;
use crate::prune::{FoldMemo, PruneScratch};
use crate::selectivity::{Pos, TpKey};
use lbr_bitmat::{BitMat, BitVec, Catalog, CubeDims, Family, RetainDim, SetScratch};
use lbr_rdf::Dimension;
use lbr_sparql::gosn::{Gosn, TpId};
use std::sync::atomic::{AtomicU64, Ordering};

/// The one source of [`TpState::gen`] in the process, so that two states
/// carrying the same generation are copies of one load, unchanged since.
static NEXT_GEN: AtomicU64 = AtomicU64::new(0);

fn next_gen() -> u64 {
    NEXT_GEN.fetch_add(1, Ordering::Relaxed)
}

/// The oriented shape of a two-dimensional TP matrix: its rows bind
/// `row_var` in `row_dim`, its columns bind `col_var` in `col_dim`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Axes {
    /// Row variable.
    pub row_var: VarId,
    /// Row dimension.
    pub row_dim: Dimension,
    /// Column variable.
    pub col_var: VarId,
    /// Column dimension.
    pub col_dim: Dimension,
}

impl Axes {
    /// The matrix dimension holding `var`, if either does.
    fn retain_dim(&self, var: VarId) -> Option<RetainDim> {
        if self.row_var == var {
            Some(RetainDim::Row)
        } else if self.col_var == var {
            Some(RetainDim::Col)
        } else {
            None
        }
    }
}

/// Loaded, pruneable state of one triple pattern.
#[derive(Debug, Clone)]
pub enum TpData {
    /// Fully fixed pattern — a membership test.
    Zero {
        /// Whether the triple exists.
        present: bool,
    },
    /// One variable position: a candidate set in that position's dimension.
    One {
        /// The variable.
        var: VarId,
        /// The position's dimension.
        dim: Dimension,
        /// Candidate IDs (dense mask over the dimension).
        cands: BitVec,
    },
    /// Two variable positions: a 2-D BitMat.
    Two {
        /// Which variable the rows and the columns bind.
        axes: Axes,
        /// The matrix.
        mat: BitMat,
    },
    /// All three positions variable: `(?s ?p ?o)` — one S-O BitMat per
    /// predicate. The paper lists this shape as "currently under
    /// development"; here it is supported as a documented extension.
    Three {
        /// Predicate variable.
        p_var: VarId,
        /// Subject/object roles shared by every slice (subject rows as
        /// loaded).
        axes: Axes,
        /// `(predicate id, matrix)` per non-empty predicate.
        mats: Vec<(u32, BitMat)>,
    },
}

/// A loaded triple pattern.
///
/// The multi-way join iterates candidates **directly off the compressed
/// rows** of the `Two`/`Three` matrices, always forward (row → columns),
/// with no transposed copy beside them: the join's schedule
/// ([`crate::multiway::schedule`]) transposes a TP in place, once, when it
/// reaches it through the column variable alone.
#[derive(Debug, Clone)]
pub struct TpState {
    /// TP index in the query.
    pub id: TpId,
    /// Loaded data; only this type's methods change it.
    pub(crate) data: TpData,
    /// Generation of `data`: drawn when the TP loads and redrawn by every
    /// method that removes a triple or transposes it.
    gen: u64,
}

impl TpState {
    /// The loaded data.
    pub fn data(&self) -> &TpData {
        &self.data
    }

    /// The generation of this state's triples: drawn from one process-wide
    /// counter when the TP loads, redrawn whenever a triple is removed
    /// ([`TpState::unfold_var_with`]) or the matrices are transposed. Two
    /// states with equal generations hold identical triples, across
    /// clones and across queries, so a fold computed at one generation
    /// stays valid until it changes.
    pub fn gen(&self) -> u64 {
        self.gen
    }

    /// Number of triples currently matching the TP.
    pub fn count(&self) -> u64 {
        match &self.data {
            TpData::Zero { present } => *present as u64,
            TpData::One { cands, .. } => cands.count_ones() as u64,
            TpData::Two { mat, .. } => mat.as_ref().triple_count(),
            TpData::Three { mats, .. } => mats.iter().map(|(_, m)| m.as_ref().triple_count()).sum(),
        }
    }

    /// True when no triples remain; unlike [`TpState::count`], this never
    /// counts a candidate set's bits.
    pub fn is_empty(&self) -> bool {
        match &self.data {
            TpData::Zero { present } => !present,
            TpData::One { cands, .. } => cands.is_zero(),
            TpData::Two { mat, .. } => mat.as_ref().is_empty(),
            TpData::Three { mats, .. } => mats.iter().all(|(_, m)| m.as_ref().is_empty()),
        }
    }

    /// Variables with their position dimensions (an owned, non-allocating
    /// iterator).
    pub fn vars(&self) -> impl Iterator<Item = (VarId, Dimension)> {
        let row = |a: &Axes| (a.row_var, a.row_dim);
        let col = |a: &Axes| (a.col_var, a.col_dim);
        let (vars, n) = match &self.data {
            TpData::Zero { .. } => ([(0, Dimension::Subject); 3], 0),
            TpData::One { var, dim, .. } => ([(*var, *dim); 3], 1),
            TpData::Two { axes, .. } => ([row(axes), col(axes), col(axes)], 2),
            TpData::Three { p_var, axes, .. } => {
                ([row(axes), (*p_var, Dimension::Predicate), col(axes)], 3)
            }
        };
        vars.into_iter().take(n)
    }

    /// The dimension `var` occupies in this TP (`None` if absent).
    pub fn dim_of(&self, var: VarId) -> Option<Dimension> {
        self.vars().find(|&(v, _)| v == var).map(|(_, d)| d)
    }

    /// The paper's `fold(BMtp, dim?j)`: projects the bindings of `var` as a
    /// mask resized into the variable's binding space.
    ///
    /// Allocating convenience wrapper over [`TpState::fold_var_into`].
    pub fn fold_var(&self, var: VarId, space_len: u32) -> Option<BitVec> {
        let mut acc = BitVec::zeros(0);
        self.fold_var_into(var, space_len, &mut acc).map(|_| acc)
    }

    /// `fold` straight into a caller-owned accumulator: `acc` is reset to
    /// `space_len` bits and filled with the projection of `var`'s bindings,
    /// clipped into that space. Returns whether a binding lay at or beyond
    /// `space_len` and was clipped, or `None` when this TP does not bind
    /// `var` — `acc` is then **untouched** (it may still hold a previous
    /// fold). Steady-state calls perform no heap allocation once `acc` has
    /// reached its high-water capacity.
    pub fn fold_var_into(&self, var: VarId, space_len: u32, acc: &mut BitVec) -> Option<bool> {
        match &self.data {
            TpData::Zero { .. } => None,
            TpData::One { var: v, cands, .. } => {
                if *v != var {
                    return None;
                }
                acc.reset(space_len);
                Some(acc.or_clipped(cands))
            }
            TpData::Two { axes, mat } => {
                let dim = axes.retain_dim(var)?;
                acc.reset(space_len);
                Some(mat.as_ref().fold_or_clipped(dim, acc))
            }
            TpData::Three { p_var, axes, mats } => {
                let mut clipped = false;
                if *p_var == var {
                    acc.reset(space_len);
                    for (pid, _) in mats.iter().filter(|(_, m)| !m.as_ref().is_empty()) {
                        if *pid < space_len {
                            acc.set(*pid);
                        } else {
                            clipped = true;
                        }
                    }
                } else {
                    let dim = axes.retain_dim(var)?;
                    acc.reset(space_len);
                    for (_, m) in mats {
                        clipped |= m.as_ref().fold_or_clipped(dim, acc);
                    }
                }
                Some(clipped)
            }
        }
    }

    /// The paper's `unfold(BMtp, β?j, dim?j)`: keeps only triples whose
    /// `var` binding is set in `mask` (mask may be in the variable's —
    /// possibly shorter, shared — space; missing high bits clear).
    ///
    /// Allocating convenience wrapper over [`TpState::unfold_var_with`].
    pub fn unfold_var(&mut self, var: VarId, mask: &BitVec) {
        let mut scratch = lbr_bitmat::SetScratch::default();
        self.unfold_var_with(var, mask, &mut scratch);
    }

    /// [`TpState::unfold_var`] through caller-owned kernel scratch: each
    /// matrix's arena is rewritten in place ([`BitMat::unfold_with`]) with
    /// clipped-mask semantics, so no mask copy and no row rebuild is
    /// allocated in the steady state. Redraws the generation when a triple
    /// was removed.
    pub fn unfold_var_with(&mut self, var: VarId, mask: &BitVec, scratch: &mut SetScratch) {
        let total = |mats: &[(u32, BitMat)]| -> u64 {
            mats.iter().map(|(_, m)| m.as_ref().triple_count()).sum()
        };
        let removed = match &mut self.data {
            TpData::Zero { .. } => false,
            TpData::One { var: v, cands, .. } => *v == var && cands.and_clipped(mask),
            TpData::Two { axes, mat } => axes.retain_dim(var).is_some_and(|dim| {
                let before = mat.as_ref().triple_count();
                mat.unfold_with(mask, dim, scratch);
                mat.as_ref().triple_count() < before
            }),
            TpData::Three { p_var, axes, mats } => {
                if *p_var == var {
                    let before = mats.len();
                    mats.retain(|(pid, _)| mask.get(*pid));
                    mats.len() < before
                } else if let Some(dim) = axes.retain_dim(var) {
                    let before = total(mats);
                    for (_, m) in mats.iter_mut() {
                        m.unfold_with(mask, dim, scratch);
                    }
                    mats.retain(|(_, m)| !m.as_ref().is_empty());
                    total(mats) < before
                } else {
                    false
                }
            }
        };
        if removed {
            self.gen = next_gen();
        }
    }

    /// Swaps the row and column roles of a `Two`/`Three` TP in place —
    /// matrices and [`Axes`] together, so every fold, unfold and read sees
    /// the same triples. A no-op for `Zero`/`One`.
    pub(crate) fn transpose(&mut self) {
        fn flip<'m>(axes: &mut Axes, mats: impl Iterator<Item = &'m mut BitMat>) {
            *axes = Axes {
                row_var: axes.col_var,
                row_dim: axes.col_dim,
                col_var: axes.row_var,
                col_dim: axes.row_dim,
            };
            for m in mats {
                *m = m.as_ref().transpose();
            }
        }
        match &mut self.data {
            TpData::Zero { .. } | TpData::One { .. } => {}
            TpData::Two { axes, mat } => flip(axes, std::iter::once(mat)),
            TpData::Three { axes, mats, .. } => flip(axes, mats.iter_mut().map(|(_, m)| m)),
        }
        self.gen = next_gen();
    }
}

/// Result of the init phase.
#[derive(Debug)]
pub struct InitOutcome {
    /// Every TP, indexed by TpId — or `None` when §5's early abort fired:
    /// a TP of an absolute-master supernode was empty after its masked
    /// load, so the pattern has no answer and the TPs after it in
    /// [`load_order`] were never read.
    pub tps: Option<Vec<TpState>>,
    /// TPs loaded: the TP count, or fewer when the load aborted.
    pub tps_loaded: u64,
    /// Triples the masked loads kept, summed over the loaded TPs.
    pub triples_loaded: u64,
}

/// The order TPs are loaded in, chosen greedily so that each load is
/// masked by as much as possible: repeatedly the not-yet-ordered TP with
/// the smallest `(master depth, neither cheap nor fed, estimate, id)`.
///
/// * *cheap* — answered by one [`Catalog::row`] or a membership test
///   (`(?v f1 f2)`, `(f1 f2 ?v)`, `(f1 f2 f3)`), or estimated empty;
/// * *fed* — sharing a variable with an already-ordered master or peer,
///   whose folds will mask it.
///
/// Master depth comes first, so a slave never loads before a master. The
/// order reads only the GoSN, the resolved TPs and the estimates, and
/// allocates only the result.
pub fn load_order(gosn: &Gosn, keys: &[TpKey], estimates: &[u64]) -> Vec<TpId> {
    let n = gosn.n_tps();
    let mut order: Vec<TpId> = Vec::with_capacity(n);
    while order.len() < n {
        let key = |tp: TpId| {
            let fed = || {
                order.iter().any(|&o| {
                    (gosn.tp_is_master_of(o, tp) || gosn.tp_are_peers(o, tp))
                        && gosn.vars_of_tp(o).any(|v| gosn.tp_has_var(tp, v))
                })
            };
            let cheap = is_cheap(&keys[tp]) || estimates[tp] == 0;
            let depth = gosn.masters_of(gosn.sn_of_tp(tp)).len();
            (depth, !(cheap || fed()), estimates[tp], tp)
        };
        let next = (0..n)
            .filter(|tp| !order.contains(tp))
            .min_by_key(|&tp| key(tp))
            .expect("an unordered TP remains");
        order.push(next);
    }
    order
}

/// True when a TP loads from one catalog row or a membership test: a
/// constant predicate with at most one variable position.
fn is_cheap(tp: &TpKey) -> bool {
    let constant = |pos: &Pos| !matches!(pos, Pos::Var(_));
    constant(&tp[1]) && (constant(&tp[0]) || constant(&tp[2]))
}

/// Loads every TP with active pruning, in [`load_order`], stopping at the
/// first absolute-master TP that is empty after its load.
///
/// `scratch` is the query's prune scratch: its fold memo is cleared here
/// and then filled with the folds the masks take, for
/// [`crate::prune::prune_triples`] to reuse.
pub fn init(
    gosn: &Gosn,
    keys: &[TpKey],
    jorder: &JvarOrder,
    estimates: &[u64],
    catalog: &impl Catalog,
    scratch: &mut PruneScratch,
) -> Result<InitOutcome, LbrError> {
    let dims = catalog.dims();
    let order = load_order(gosn, keys, estimates);
    let mut tps: Vec<Option<TpState>> = vec![None; gosn.n_tps()];
    let memo = &mut scratch.memo;
    memo.clear();
    // Mask buffers and kernel scratch reused across every TP: masking
    // allocates only up to the high-water mask size.
    let mut masks = Masks::default();
    let mut out = InitOutcome {
        tps: None,
        tps_loaded: 0,
        triples_loaded: 0,
    };
    for &tp_id in &order {
        let feed = Feed {
            tp: tp_id,
            gosn,
            loaded: &tps,
            dims: &dims,
        };
        let state = load_tp(&keys[tp_id], jorder, catalog, &feed, &mut masks, memo)?;
        let kept = state.count();
        out.tps_loaded += 1;
        out.triples_loaded += kept;
        if kept == 0 && gosn.tp_in_absolute_master(tp_id) {
            return Ok(out);
        }
        tps[tp_id] = Some(state);
    }
    // `order` is a permutation, so every slot is filled.
    out.tps = tps.into_iter().collect();
    Ok(out)
}

/// True when some TP inside an absolute-master supernode is empty — the
/// §5 "simple optimization" early-abort condition.
pub fn absolute_master_empty(gosn: &Gosn, tps: &[TpState]) -> bool {
    tps.iter()
        .any(|t| t.is_empty() && gosn.tp_in_absolute_master(t.id))
}

/// The buffers of the TP being loaded: one mask per variable position
/// (`preds` serves `(?s ?p ?o)`'s predicate) and the masked loads' kernel
/// scratch. A mask fed by one TP is that TP's memoized fold and uses no
/// buffer.
#[derive(Default)]
struct Masks {
    rows: BitVec,
    cols: BitVec,
    preds: BitVec,
    set: SetScratch,
}

/// Where a mask [`Feed::mask`] built lives.
#[derive(Clone, Copy)]
enum MaskAt {
    /// No loaded master or peer holds the variable: load it unmasked.
    Unmasked,
    /// One did: its fold, in the memo slot.
    Memo(usize),
    /// Several did: the AND of their folds, in the mask buffer.
    Buffer,
}

impl MaskAt {
    /// The mask itself, read from `buf` or `memo`.
    fn get<'m>(self, buf: &'m BitVec, memo: &'m FoldMemo) -> Option<&'m BitVec> {
        match self {
            MaskAt::Unmasked => None,
            MaskAt::Memo(slot) => Some(memo.bits(slot)),
            MaskAt::Buffer => Some(buf),
        }
    }
}

/// What active pruning knows when TP `tp` is about to load: the TPs loaded
/// so far, of which its masters and peers mask it.
struct Feed<'a> {
    tp: TpId,
    gosn: &'a Gosn,
    loaded: &'a [Option<TpState>],
    dims: &'a CubeDims,
}

impl Feed<'_> {
    /// The mask of `var` at dimension `dim` of the TP being loaded: the
    /// clipped AND of the folds of every loaded master or peer holding
    /// `var`, each fold in the pair's common space (full S, full O, or the
    /// shared prefix of a mixed join). Each fold is read from `memo`, so a
    /// TP is folded once per variable and space however many later loads
    /// it masks. One fold is the mask as it stands in the memo; the AND of
    /// several is built in `buf`. [`MaskAt::Unmasked`] when no such TP
    /// exists, and the dimension loads unmasked.
    fn mask(&self, var: VarId, dim: Dimension, buf: &mut BitVec, memo: &mut FoldMemo) -> MaskAt {
        let mut at = MaskAt::Unmasked;
        for (id, other) in self.loaded.iter().enumerate() {
            let Some(other) = other else { continue };
            if !(self.gosn.tp_is_master_of(id, self.tp) || self.gosn.tp_are_peers(id, self.tp)) {
                continue;
            }
            let Some(o_dim) = other.dim_of(var) else {
                continue;
            };
            let space_len = op_space_len(self.dims, [dim, o_dim]);
            let Some(slot) = memo.fold(other, var, space_len) else {
                continue;
            };
            at = match at {
                MaskAt::Unmasked => MaskAt::Memo(slot),
                MaskAt::Memo(first) => {
                    buf.assign_and(memo.bits(first), memo.bits(slot));
                    MaskAt::Buffer
                }
                MaskAt::Buffer => {
                    buf.and_clipped(memo.bits(slot));
                    MaskAt::Buffer
                }
            };
        }
        at
    }
}

/// Loads `feed`'s TP per the §5 rules (missing constants yield empty
/// data), through the masks `feed` gives each of its variables.
fn load_tp(
    key: &TpKey,
    jorder: &JvarOrder,
    catalog: &impl Catalog,
    feed: &Feed,
    masks: &mut Masks,
    memo: &mut FoldMemo,
) -> Result<TpState, LbrError> {
    let (tp_id, dims) = (feed.tp, feed.dims);
    let [sv, pv, ov] = key.map(|pos| match pos {
        Pos::Var(v) => Some(v),
        _ => None,
    });
    let [s_id, p_id, o_id] = key.map(|pos| match pos {
        Pos::Id(id) => Some(id),
        _ => None,
    });
    let known = !key.contains(&Pos::Unknown);
    let Masks {
        rows,
        cols,
        preds,
        set,
    } = masks;
    // A two-variable TP: the matrix of `key` in `f` (with predicate rows,
    // the P-O or P-S BitMat of `key` built from `f`'s rows), loaded through
    // the masks of its row and column variables; empty when the key's
    // constant is unknown to the dictionary or nothing survives the masks.
    let mut two = |f: Family, key: Option<u32>, axes: Axes| -> Result<_, LbrError> {
        let row_at = feed.mask(axes.row_var, axes.row_dim, rows, memo);
        let col_at = feed.mask(axes.col_var, axes.col_dim, cols, memo);
        let (row_mask, col_mask) = (row_at.get(rows, memo), col_at.get(cols, memo));
        let mat = match key {
            Some(key) if axes.row_dim == Dimension::Predicate => {
                catalog.predicate_matrix(f, key, row_mask, col_mask, set)?
            }
            Some(key) => catalog.masked(f, key, row_mask, col_mask, set)?,
            None => None,
        };
        let len = |d| op_space_len(dims, [d]);
        let mat = mat.unwrap_or_else(|| BitMat::empty(len(axes.row_dim), len(axes.col_dim)));
        Ok(TpData::Two { axes, mat })
    };
    // Candidates from one row of the BitMat of `p` in `f`: `(f1 f2 ?v)`
    // and `(?v f1 f2)`.
    let one = |f: Family, p: Option<u32>, r: Option<u32>, var: VarId| -> Result<_, LbrError> {
        let (_, _, n_cols) = f.shape(dims);
        let row = match (known, p, r) {
            (true, Some(p), Some(r)) => catalog.row(f, p, r)?,
            _ => None,
        };
        let cands = row.map_or_else(|| BitVec::zeros(n_cols), |row| row.as_ref().to_bitvec());
        let dim = match f {
            Family::So => Dimension::Object,
            Family::Os => Dimension::Subject,
        };
        Ok(TpData::One { var, dim, cands })
    };

    let mut data = match (sv, pv, ov) {
        // (f1 f2 f3): membership test.
        (None, None, None) => {
            let present = known && catalog.contains(s_id.unwrap(), p_id.unwrap(), o_id.unwrap())?;
            TpData::Zero { present }
        }
        // (?v f1 f2): subject candidates from one O-S row.
        (Some(v), None, None) => one(Family::Os, p_id, o_id, v)?,
        // (f1 f2 ?v): object candidates from one S-O row.
        (None, None, Some(v)) => one(Family::So, p_id, s_id, v)?,
        // (?a f ?b).
        (Some(a), None, Some(b)) if a != b => {
            // Row dimension: the variable that comes first in orderbu; a
            // sole join variable wins; default to the subject.
            let (a_pos, b_pos) = (jorder.first_pos(a), jorder.first_pos(b));
            if a_pos <= b_pos {
                let axes = Axes {
                    row_var: a,
                    row_dim: Dimension::Subject,
                    col_var: b,
                    col_dim: Dimension::Object,
                };
                two(Family::So, p_id, axes)?
            } else {
                let axes = Axes {
                    row_var: b,
                    row_dim: Dimension::Object,
                    col_var: a,
                    col_dim: Dimension::Subject,
                };
                two(Family::Os, p_id, axes)?
            }
        }
        // (?x f ?x): the diagonal of the S-O BitMat (shared IDs only).
        (Some(a), None, Some(_)) => {
            let mut cands = BitVec::zeros(dims.n_subjects);
            if known {
                if let Some(mat) = catalog.matrix(Family::So, p_id.unwrap())? {
                    for (r, row) in BitMat::as_ref(&mat).rows() {
                        if r < dims.n_shared && row.contains(r) {
                            cands.set(r);
                        }
                    }
                }
            }
            TpData::One {
                var: a,
                dim: Dimension::Subject,
                cands,
            }
        }
        // (f ?p ?o): the P-O BitMat of the subject.
        (None, Some(p), Some(o)) => {
            let axes = Axes {
                row_var: p,
                row_dim: Dimension::Predicate,
                col_var: o,
                col_dim: Dimension::Object,
            };
            two(Family::So, s_id, axes)?
        }
        // (?s ?p f): the P-S BitMat of the object.
        (Some(s), Some(p), None) => {
            let axes = Axes {
                row_var: p,
                row_dim: Dimension::Predicate,
                col_var: s,
                col_dim: Dimension::Subject,
            };
            two(Family::Os, o_id, axes)?
        }
        // (f1 ?p f2): predicate candidates — the predicates of f1 whose
        // S-O row f1 holds f2.
        (None, Some(p), None) => {
            let mut cands = BitVec::zeros(dims.n_predicates);
            if let (true, Some(s), Some(o)) = (known, s_id, o_id) {
                for &pid in catalog.predicates(Family::So, s)?.iter() {
                    if catalog.contains(s, pid, o)? {
                        cands.set(pid);
                    }
                }
            }
            TpData::One {
                var: p,
                dim: Dimension::Predicate,
                cands,
            }
        }
        // (?s ?p ?o): one S-O BitMat per predicate (extension; the paper
        // lists this shape as under development), each slice loaded like
        // a two-variable TP; predicates the `?p` mask excludes are skipped.
        (Some(s), Some(pv), Some(o)) => {
            debug_assert_ne!(s, o, "the variable table rejects (?x ?p ?x)");
            let p_at = feed.mask(pv, Dimension::Predicate, preds, memo);
            let s_at = feed.mask(s, Dimension::Subject, rows, memo);
            let o_at = feed.mask(o, Dimension::Object, cols, memo);
            let p_mask = p_at.get(preds, memo);
            let (s_mask, o_mask) = (s_at.get(rows, memo), o_at.get(cols, memo));
            let mut mats = Vec::new();
            for pid in 0..dims.n_predicates {
                if p_mask.is_some_and(|m| !m.get(pid)) {
                    continue;
                }
                if let Some(m) = catalog.masked(Family::So, pid, s_mask, o_mask, set)? {
                    mats.push((pid, m));
                }
            }
            let axes = Axes {
                row_var: s,
                row_dim: Dimension::Subject,
                col_var: o,
                col_dim: Dimension::Object,
            };
            TpData::Three {
                p_var: pv,
                axes,
                mats,
            }
        }
    };
    // One-variable TPs take their mask once.
    if let TpData::One { var, dim, cands } = &mut data {
        if let Some(mask) = feed.mask(*var, *dim, rows, memo).get(rows, memo) {
            cands.and_clipped(mask);
        }
    }
    Ok(TpState {
        id: tp_id,
        data,
        gen: next_gen(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::BranchPlan;
    use crate::{VarSpace, VarTable};
    use lbr_bitmat::BitMatStore;
    use lbr_rdf::{Graph, Term, Triple};
    use lbr_sparql::parse_query;

    fn graph() -> lbr_rdf::EncodedGraph {
        let t = |s: &str, p: &str, o: &str| Triple::new(Term::iri(s), Term::iri(p), Term::iri(o));
        Graph::from_triples(vec![
            t("Julia", "actedIn", "Seinfeld"),
            t("Julia", "actedIn", "Veep"),
            t("Julia", "actedIn", "NewAdvOldChristine"),
            t("Julia", "actedIn", "CurbYourEnthu"),
            t("CurbYourEnthu", "location", "LosAngeles"),
            t("Larry", "actedIn", "CurbYourEnthu"),
            t("Jerry", "hasFriend", "Julia"),
            t("Jerry", "hasFriend", "Larry"),
            t("Seinfeld", "location", "NewYorkCity"),
            t("Veep", "location", "D.C."),
            t("NewAdvOldChristine", "location", "Jersey"),
        ])
        .encode()
    }

    const Q2: &str = r#"
        PREFIX : <>
        SELECT * WHERE {
          :Jerry :hasFriend ?friend .
          OPTIONAL { ?friend :actedIn ?sitcom . ?sitcom :location :NewYorkCity . } }
    "#;

    /// Plans `query` over `catalog` (built from [`graph`]) and runs init.
    fn run(query: &str, catalog: &impl Catalog) -> (InitOutcome, BranchPlan) {
        let g = graph();
        let q = parse_query(query).unwrap();
        let b = BranchPlan::new(&q.pattern, &g.dict, catalog).unwrap();
        let (gosn, keys) = (&b.analyzed.gosn, &b.keys);
        let mut scratch = PruneScratch::new();
        let out = init(gosn, keys, &b.jorder, &b.estimates, catalog, &mut scratch).unwrap();
        (out, b)
    }

    /// The TPs init loads for `query` over the heap store; it must not
    /// abort.
    fn setup(query: &str) -> (Vec<TpState>, Gosn, VarTable) {
        let (out, b) = run(query, &BitMatStore::build(&graph()));
        (out.tps.expect("init did not abort"), b.analyzed.gosn, b.vt)
    }

    #[test]
    fn loads_q2_with_active_pruning() {
        let (tps, gosn, _) = setup(Q2);
        // tp0 = (:Jerry :hasFriend ?friend): 2 candidates.
        assert_eq!(tps[0].count(), 2);
        // tp2 = (?sitcom :location :NewYorkCity): 1 candidate.
        assert_eq!(tps[2].count(), 1);
        // tp1 = (?friend :actedIn ?sitcom): actively pruned by its master
        // (2 friend values) and by its peer tp2 (1 sitcom value): Julia's
        // Seinfeld role is all that is left.
        assert_eq!(tps[1].count(), 1);
        assert!(!absolute_master_empty(&gosn, &tps));
    }

    #[test]
    fn unknown_constant_gives_empty_and_abort_signal() {
        let (out, ..) = run(
            "PREFIX : <> SELECT * WHERE { :Nobody :hasFriend ?friend . OPTIONAL { ?friend :actedIn ?s . } }",
            &BitMatStore::build(&graph()),
        );
        // Estimated empty, so loaded first; empty, so nothing after it.
        assert!(out.tps.is_none());
        assert_eq!((out.tps_loaded, out.triples_loaded), (1, 0));
    }

    /// A catalog that counts the loads `init` issues.
    struct Counting {
        inner: BitMatStore,
        loads: std::sync::atomic::AtomicU64,
    }

    impl Counting {
        fn count(&self) {
            self.loads
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }
    }

    impl Catalog for Counting {
        fn dims(&self) -> CubeDims {
            self.inner.dims()
        }
        fn matrix(
            &self,
            f: Family,
            key: u32,
        ) -> Result<Option<std::borrow::Cow<'_, BitMat>>, lbr_bitmat::BitMatError> {
            self.count();
            self.inner.matrix(f, key)
        }
        fn masked(
            &self,
            f: Family,
            key: u32,
            rows: Option<&BitVec>,
            cols: Option<&BitVec>,
            scratch: &mut SetScratch,
        ) -> Result<Option<BitMat>, lbr_bitmat::BitMatError> {
            self.count();
            self.inner.masked(f, key, rows, cols, scratch)
        }
        fn row(
            &self,
            f: Family,
            key: u32,
            r: u32,
        ) -> Result<Option<lbr_bitmat::CowRow<'_>>, lbr_bitmat::BitMatError> {
            self.count();
            self.inner.row(f, key, r)
        }
        fn count(&self, f: Family, key: u32) -> u64 {
            self.inner.count(f, key)
        }
        fn row_count(&self, f: Family, key: u32, r: u32) -> u64 {
            self.inner.row_count(f, key, r)
        }
        fn predicates(
            &self,
            f: Family,
            r: u32,
        ) -> Result<std::borrow::Cow<'_, [u32]>, lbr_bitmat::BitMatError> {
            self.inner.predicates(f, r)
        }
    }

    /// §5's early abort inside init: Larry acted only in CurbYourEnthu,
    /// which is not in NewYorkCity. The two one-row TPs load first; the
    /// second is empty after its mask, so the `?a :actedIn ?s` matrix is
    /// never read.
    #[test]
    fn nothing_loads_after_an_empty_absolute_master() {
        let catalog = Counting {
            inner: BitMatStore::build(&graph()),
            loads: 0.into(),
        };
        let (out, b) = run(
            "PREFIX : <> SELECT * WHERE { :Larry :actedIn ?s . ?s :location :NewYorkCity . ?a :actedIn ?s . }",
            &catalog,
        );
        assert!(out.tps.is_none());
        assert_eq!((out.tps_loaded, out.triples_loaded), (2, 1));
        assert_eq!(catalog.loads.into_inner(), 2, "one row load per loaded TP");
        // Without the empty master the matrix TP is loaded too.
        let catalog = Counting {
            inner: BitMatStore::build(&graph()),
            loads: 0.into(),
        };
        let (out, ..) = run(
            "PREFIX : <> SELECT * WHERE { :Larry :actedIn ?s . ?s :location :LosAngeles . ?a :actedIn ?s . }",
            &catalog,
        );
        assert_eq!(out.tps.map(|tps| tps.len()), Some(3));
        assert_eq!(catalog.loads.into_inner(), 3);
        assert_eq!(
            load_order(&b.analyzed.gosn, &b.keys, &[1, 1, 5]),
            vec![0, 1, 2],
            "the one-row TPs load first"
        );
    }

    /// The greedy load order: cheap TPs first, a fed TP before an unfed one
    /// with a smaller estimate, and no slave before an absolute master.
    #[test]
    fn load_order_feeds_the_masks() {
        let q = parse_query(
            "PREFIX : <> SELECT * WHERE { ?a :p ?b . ?b :q ?c . ?c :r ?e . :k :s ?a .
               OPTIONAL { ?c :t ?d . } }",
        )
        .unwrap();
        let g = graph();
        let b = BranchPlan::new(&q.pattern, &g.dict, &BitMatStore::build(&g)).unwrap();
        let (gosn, keys) = (&b.analyzed.gosn, &b.keys);
        // tp3 is a one-row load, so first despite the largest master
        // estimate. It feeds tp0 (?a), which then goes before the smaller,
        // unfed tp1 and tp2; tp0 feeds tp1 (?b), tp1 feeds tp2 (?c). The
        // slave tp4 goes last although its estimate is the smallest.
        let est = [50, 40, 30, 100, 1];
        assert_eq!(load_order(gosn, keys, &est), vec![3, 0, 1, 2, 4]);
        // An estimated-empty TP is cheap: it loads first, where it aborts
        // early, and the chain it feeds (tp1 through ?c, tp0 through ?b)
        // goes before the larger one-row TP.
        let est = [50, 40, 0, 100, 1];
        assert_eq!(load_order(gosn, keys, &est), vec![2, 1, 0, 3, 4]);
    }

    #[test]
    fn fold_unfold_roundtrip_on_state() {
        let (mut tps, gosn, vt) = setup(Q2);
        let friend = gosn.vars().id("friend").unwrap();
        let space = vt.space(friend);
        assert_eq!(space, VarSpace::Shared);
        let tp1 = &mut tps[1];
        let before = tp1.count();
        let mask = tp1.fold_var(friend, 100).unwrap().resized(100);
        tp1.unfold_var(friend, &mask);
        assert_eq!(tp1.count(), before, "self-mask is a no-op");
    }

    /// `transpose` swaps matrix and roles together: the same triples, the
    /// same per-variable folds, rows now keyed by the old column variable.
    #[test]
    fn transpose_swaps_roles_not_triples() {
        // `(predicate, row, col)` of every stored bit, plus the axes.
        fn cells(tp: &TpState) -> (Axes, Vec<(u32, u32, u32)>) {
            match &tp.data {
                TpData::Two { axes, mat } => {
                    (*axes, mat.as_ref().iter().map(|(r, c)| (0, r, c)).collect())
                }
                TpData::Three { axes, mats, .. } => (
                    *axes,
                    mats.iter()
                        .flat_map(|(p, m)| m.as_ref().iter().map(move |(r, c)| (*p, r, c)))
                        .collect(),
                ),
                _ => panic!("expected a matrix TP"),
            }
        }
        let (q2, ..) = setup(Q2);
        let (all, ..) = setup("SELECT * WHERE { ?s ?p ?o . }");
        for mut tp in [q2[1].clone(), all[0].clone()] {
            let (axes, before) = cells(&tp);
            let vars: Vec<_> = tp.vars().collect();
            let folds: Vec<_> = vars.iter().map(|&(v, _)| tp.fold_var(v, 64)).collect();
            tp.transpose();
            let (t_axes, mut after) = cells(&tp);
            assert_eq!(
                (t_axes.row_var, t_axes.row_dim),
                (axes.col_var, axes.col_dim)
            );
            assert_eq!(
                (t_axes.col_var, t_axes.col_dim),
                (axes.row_var, axes.row_dim)
            );
            after.iter_mut().for_each(|(_, r, c)| std::mem::swap(r, c));
            after.sort_unstable();
            assert_eq!(after, before, "same triples, rows and columns swapped");
            for (&(v, d), fold) in vars.iter().zip(&folds) {
                assert_eq!(tp.dim_of(v), Some(d));
                assert_eq!(&tp.fold_var(v, 64), fold, "fold of var {v} changed");
            }
            tp.transpose();
            assert_eq!(cells(&tp), (axes, before), "transpose is an involution");
        }
    }

    #[test]
    fn membership_and_predicate_var_patterns() {
        // Membership: true case.
        let (tps, ..) = setup(
            "PREFIX : <> SELECT * WHERE { { :Jerry :hasFriend :Julia . } { ?x :actedIn ?y . } }",
        );
        assert!(matches!(tps[0].data, TpData::Zero { present: true }));

        // (s ?p ?o) and (?s ?p o) and (s ?p o).
        let (tps, ..) = setup(
            "PREFIX : <> SELECT * WHERE { { :Julia ?p ?o . } { ?s ?q :CurbYourEnthu . } { :Seinfeld ?r :NewYorkCity . } }",
        );
        assert_eq!(tps[0].count(), 4, "Julia has four triples");
        assert_eq!(
            tps[1].count(),
            2,
            "CurbYourEnthu as object: actedIn + location... "
        );
        assert_eq!(tps[2].count(), 1, "Seinfeld –location→ NYC");
    }

    #[test]
    fn all_var_tp_loads_every_predicate_slice() {
        let (tps, ..) = setup("SELECT * WHERE { ?s ?p ?o . }");
        // (?s ?p ?o) matches the whole dataset: 11 triples over 3 predicates.
        assert_eq!(tps[0].count(), 11);
        assert!(matches!(&tps[0].data, TpData::Three { mats, .. } if mats.len() == 3));
    }
}
