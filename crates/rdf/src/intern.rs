//! The term interner every load path shares.
//!
//! N-Triples text ([`crate::EncodedGraph::from_ntriples`]) and owned
//! [`Term`]s ([`crate::Graph::encode`], [`crate::DictionaryBuilder`]) feed
//! one [`Interner`]. A term is hashed at most once per occurrence, and
//! each distinct term is copied once, into an append-only string arena; the roles it occurs in
//! are OR-ed into its entry, and a triple becomes three `u32` term indices.
//! [`Interner::sort_triples`] then puts those integer triples into
//! [`crate::Triple`] order by ranking the distinct terms once, so triples
//! are never sorted by their strings.

use crate::dictionary::Dictionary;
use crate::term::TermRef;
use std::collections::hash_map::RandomState;
use std::hash::BuildHasher;

/// Role bit: the term occurs as a subject.
pub(crate) const S: u8 = 1;
/// Role bit: the term occurs as a predicate.
pub(crate) const P: u8 = 2;
/// Role bit: the term occurs as an object.
pub(crate) const O: u8 = 4;

const EMPTY: u32 = u32::MAX;

/// An open-addressed table of `u32` indices into a list of terms, probed
/// linearly from a term's hash and kept at most half full. Each slot holds
/// an index and the high half of its term's hash; it stores no keys, so
/// the caller says whether the term at an index is the one sought.
#[derive(Debug, Clone)]
pub(crate) struct ProbeTable {
    /// `(hash >> 32) << 32 | index`, or [`EMPTY`] in the low half.
    slots: Vec<u64>,
}

impl Default for ProbeTable {
    fn default() -> Self {
        ProbeTable::with_room(0)
    }
}

impl ProbeTable {
    /// An empty table that holds `n` indices at most half full.
    pub(crate) fn with_room(n: usize) -> Self {
        ProbeTable {
            slots: vec![u64::from(EMPTY); n.saturating_mul(2).next_power_of_two().max(8)],
        }
    }

    /// Whether the table holds `n` indices at most half full.
    fn has_room(&self, n: usize) -> bool {
        n.saturating_mul(2) <= self.slots.len()
    }

    /// The index `is` accepts among those filed under `hash`, or else the
    /// free slot where an index with that hash belongs.
    pub(crate) fn find(&self, hash: u64, mut is: impl FnMut(u32) -> bool) -> Result<u32, usize> {
        let mask = self.slots.len() - 1;
        let tag = hash >> 32;
        let mut k = hash as usize & mask;
        loop {
            let slot = self.slots[k];
            let i = slot as u32;
            if i == EMPTY {
                return Err(k);
            }
            if slot >> 32 == tag && is(i) {
                return Ok(i);
            }
            k = (k + 1) & mask;
        }
    }

    /// Files index `i`, whose term hashes to `hash`, in `slot`, a free
    /// slot [`ProbeTable::find`] returned for that hash.
    pub(crate) fn fill(&mut self, slot: usize, hash: u64, i: u32) {
        self.slots[slot] = (hash >> 32) << 32 | u64::from(i);
    }

    /// Files index `i`, whose term is not in the table yet, under `hash`.
    pub(crate) fn insert_new(&mut self, hash: u64, i: u32) {
        if let Err(slot) = self.find(hash, |_| false) {
            self.fill(slot, hash, i);
        }
    }
}

/// Which strings an arena entry holds after its lexical form.
#[derive(Debug, Clone, Copy)]
enum Kind {
    Iri,
    BlankNode,
    Literal { datatype: bool, lang: bool },
}

/// One distinct term: its strings end at `ends` (the lexical form, the
/// datatype, the language tag) in the arena and start where the previous
/// entry's end.
#[derive(Debug, Clone, Copy)]
struct Entry {
    ends: [usize; 3],
    kind: Kind,
    roles: u8,
}

/// Distinct terms in first-seen order, each once in one string arena,
/// with the roles it occurs in.
#[derive(Debug, Default)]
pub(crate) struct Interner {
    hasher: RandomState,
    arena: String,
    entries: Vec<Entry>,
    /// Each entry's hash under `hasher`, so growing the table rehashes
    /// nothing.
    hashes: Vec<u64>,
    table: ProbeTable,
    /// The previous triple's indices: a term that repeats in its position,
    /// as a subject does over its run of lines, is found without hashing.
    last: Option<[u32; 3]>,
}

impl Interner {
    /// Number of distinct terms.
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// The term at index `i`.
    pub(crate) fn term(&self, i: u32) -> TermRef<'_> {
        let i = i as usize;
        let start = i
            .checked_sub(1)
            .map_or(0, |prev| self.entries[prev].ends[2]);
        let Entry { ends, kind, .. } = self.entries[i];
        let lexical = &self.arena[start..ends[0]];
        match kind {
            Kind::Iri => TermRef::Iri(lexical),
            Kind::BlankNode => TermRef::BlankNode(lexical),
            Kind::Literal { datatype, lang } => TermRef::Literal {
                lexical,
                datatype: datatype.then(|| &self.arena[ends[0]..ends[1]]),
                lang: lang.then(|| &self.arena[ends[1]..ends[2]]),
            },
        }
    }

    /// The index of `t`, appended if it is new, with `role` OR-ed into its
    /// roles.
    pub(crate) fn intern(&mut self, t: TermRef<'_>, role: u8) -> u32 {
        let hash = self.hasher.hash_one(t);
        let found = self.table.find(hash, |i| self.term(i) == t);
        let i = match found {
            Ok(i) => i,
            Err(slot) => {
                let i = u32::try_from(self.entries.len())
                    .ok()
                    .filter(|&i| i != EMPTY)
                    .expect("a dictionary holds fewer than 2^32 - 1 terms");
                self.push(t);
                self.hashes.push(hash);
                if self.table.has_room(self.entries.len()) {
                    self.table.fill(slot, hash, i);
                } else {
                    self.table = ProbeTable::with_room(self.entries.len());
                    for (i, &h) in self.hashes.iter().enumerate() {
                        self.table.insert_new(h, i as u32);
                    }
                }
                i
            }
        };
        self.entries[i as usize].roles |= role;
        i
    }

    /// A triple's three term indices, its terms interned in their roles.
    pub(crate) fn intern_triple(&mut self, terms: [TermRef<'_>; 3]) -> [u32; 3] {
        let mut ids = [0; 3];
        for (k, role) in [S, P, O].into_iter().enumerate() {
            ids[k] = match self.last {
                Some(last) if self.term(last[k]) == terms[k] => last[k],
                _ => self.intern(terms[k], role),
            };
        }
        self.last = Some(ids);
        ids
    }

    /// Appends `t`'s strings to the arena and its entry.
    fn push(&mut self, t: TermRef<'_>) {
        let (lexical, datatype, lang, kind) = match t {
            TermRef::Iri(v) => (v, None, None, Kind::Iri),
            TermRef::BlankNode(v) => (v, None, None, Kind::BlankNode),
            TermRef::Literal {
                lexical,
                datatype,
                lang,
            } => {
                let kind = Kind::Literal {
                    datatype: datatype.is_some(),
                    lang: lang.is_some(),
                };
                (lexical, datatype, lang, kind)
            }
        };
        let mut ends = [0; 3];
        for (end, s) in ends
            .iter_mut()
            .zip([lexical, datatype.unwrap_or(""), lang.unwrap_or("")])
        {
            self.arena.push_str(s);
            *end = self.arena.len();
        }
        self.entries.push(Entry {
            ends,
            kind,
            roles: 0,
        });
    }

    /// Puts integer `triples` over this interner's indices into the order
    /// of the [`crate::Triple`]s they stand for, drops repeats, and
    /// renumbers the terms in first-seen order over the result, which is
    /// the order [`crate::DictionaryBuilder`] sees when it is fed the
    /// sorted triples. One sort ranks the distinct terms by
    /// [`crate::Term`]'s order; the triples are then sorted by those
    /// integer ranks (both sorts are skipped when the triples already
    /// ascend). Returns the interned index of each first-seen index.
    pub(crate) fn sort_triples(&self, triples: &mut Vec<[u32; 3]>) -> Vec<u32> {
        let n = self.entries.len();
        let mut by_rank: Vec<u32> = (0..n as u32).collect();
        // Triples that already ascend (a sorted dump, or a `Graph`'s sorted
        // set) would come out of the sorts as they went in; one comparison
        // per neighbouring pair finds that, and then each interned index
        // is its own rank.
        if !triples.windows(2).all(|w| self.precedes(w[0], w[1])) {
            by_rank.sort_unstable_by(|&a, &b| self.term(a).cmp(&self.term(b)));
            let mut rank = vec![0u32; n];
            for (r, &i) in by_rank.iter().enumerate() {
                rank[i as usize] = r as u32;
            }
            for t in triples.iter_mut() {
                *t = t.map(|i| rank[i as usize]);
            }
            triples.sort_unstable();
            triples.dedup();
        }
        // One sweep in triple order numbers each rank where it first occurs.
        let mut first = vec![EMPTY; n];
        let mut order = Vec::with_capacity(n);
        for r in triples.iter_mut().flatten() {
            let f = &mut first[*r as usize];
            if *f == EMPTY {
                *f = order.len() as u32;
                order.push(by_rank[*r as usize]);
            }
            *r = *f;
        }
        order
    }

    /// Whether triple `a` comes strictly before triple `b` in
    /// [`crate::Triple`] order; equal indices are equal terms.
    fn precedes(&self, a: [u32; 3], b: [u32; 3]) -> bool {
        match (0..3).find(|&k| a[k] != b[k]) {
            Some(k) => self.term(a[k]) < self.term(b[k]),
            None => false,
        }
    }

    /// Freezes the terms, taken in `order` (interned indices), into a
    /// [`Dictionary`] under the Appendix-D assignment.
    pub(crate) fn into_dictionary(self, order: &[u32]) -> Dictionary {
        let mut table = ProbeTable::with_room(order.len());
        let mut terms = Vec::with_capacity(order.len());
        let mut roles = Vec::with_capacity(order.len());
        for (j, &i) in order.iter().enumerate() {
            table.insert_new(self.hashes[i as usize], j as u32);
            terms.push(self.term(i).to_term());
            roles.push(self.entries[i as usize].roles);
        }
        Dictionary::assign(terms, &roles, table, self.hasher)
    }
}
