//! # lbr-sparql
//!
//! The query model of the Left Bit Right (LBR) paper: a SPARQL subset
//! covering **basic graph patterns (BGPs), OPTIONAL, UNION and FILTER**,
//! plus the structures LBR's optimizer is built on:
//!
//! * [`algebra`] — triple patterns, the `Bgp / Join / LeftJoin / Union /
//!   Filter` pattern algebra, and full query specs: the `SELECT
//!   [DISTINCT|REDUCED]` / `ASK` query forms plus the `ORDER BY` /
//!   `LIMIT` / `OFFSET` solution modifiers;
//! * [`parser`] — a recursive-descent parser for the SPARQL subset;
//! * [`update`] — SPARQL 1.1 Update (`INSERT DATA` / `DELETE DATA` /
//!   `DELETE WHERE`), sharing the parser's tokens and prefix handling;
//! * [`gosn`] — the **graph of supernodes** (§2): OPT-free BGPs as
//!   supernodes, unidirectional edges for left-outer joins, bidirectional
//!   edges for inner joins, and the derived *master / slave / peer /
//!   absolute-master* relations;
//! * [`goj`] — the graphs of triple patterns (GoT) and of join variables
//!   (GoJ) with acyclicity tests (§3.1, Lemma 3.2);
//! * [`well_designed`] — Pérez et al.'s well-designedness test and the
//!   Appendix-B transformation for non-well-designed queries;
//! * [`mod@classify`] — the Figure 3.1 classification that decides whether
//!   nullification / best-match can be avoided;
//! * [`rewrite`] — the §5.2 UNION-normal-form and filter push-in rewrites.
//!
//! A parsed [`Query`] is a full query spec — form, pattern, modifiers:
//!
//! ```
//! use lbr_sparql::{parse_query, Dedup, QueryForm};
//!
//! let q = parse_query(
//!     "SELECT DISTINCT ?s WHERE { ?s <p> ?o . } ORDER BY DESC(?o) LIMIT 10 OFFSET 2",
//! ).unwrap();
//! assert!(matches!(q.form, QueryForm::Select { dedup: Dedup::Distinct, .. }));
//! assert_eq!(q.projected_vars(), vec!["s"]);
//! assert_eq!(q.exec_vars(), vec!["s", "o"]); // ORDER BY key rides along
//! assert_eq!((q.modifiers.limit, q.modifiers.offset), (Some(10), 2));
//! assert!(parse_query("ASK { ?s <p> ?o . }").unwrap().is_ask());
//! ```

#![forbid(unsafe_code)]

pub mod algebra;
pub mod classify;
pub mod error;
pub mod goj;
pub mod gosn;
pub mod parser;
pub mod rewrite;
pub mod serialize;
pub mod update;
pub mod well_designed;

pub use algebra::{
    Dedup, Expr, GraphPattern, Modifiers, OrderKey, Query, QueryForm, Selection, TermPattern,
    TriplePattern,
};
pub use classify::{classify, QueryClass};
pub use error::SparqlError;
pub use goj::{Goj, Got};
pub use gosn::{Gosn, GroupFilter, SnId, TpId};
pub use parser::parse_query;
pub use rewrite::{rewrite_to_unf, UnfBranch};
pub use serialize::to_sparql;
pub use update::{parse_update, Update, UpdateOp};
pub use well_designed::{is_well_designed, transform_nwd_pattern, violations, Violation};
