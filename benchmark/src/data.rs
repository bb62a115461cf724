//! Input data: generated N-Triples files under `benchmark/data/`, their
//! digests, and the constants the parametrised templates draw from.

use crate::digest::hash_bytes;
use lbr::datagen::{dbpedia, lubm, uniprot};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

pub const DATA_DIR: &str = "benchmark/data";

/// The seed every data set is generated from, whatever `--seed` a run is
/// given. `--seed` draws the run's ops: template parameters, the order of a
/// pass, request keys and their popularity, update contents. The data is
/// one fixed set because the program's plan for a query depends on it:
/// LUBM Q2 ran in 28 ms on five of ten data seeds and in 55 ms on the other
/// five, at one size, with one text (README.md, "Findings"). Runs of two
/// seeds must be comparable; a change of plan between them is not noise a
/// longer run averages out.
pub const DATA_SEED: u64 = 42;

/// How large each generated data set is, as the `scaled` factor of its
/// `lbr-datagen` configuration. Frozen after sizing on the 2-core reference
/// host (README.md, "Sizing"): three set-ups and the measured phase of one
/// run must fit the driver's budget.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub lubm: f64,
    pub uniprot: f64,
    pub dbpedia: f64,
    /// `disk_overlay`'s own LUBM file, the largest of the run.
    pub lubm_disk: f64,
}

impl Sizes {
    /// The scale of `family`'s file in the workloads that share it.
    pub fn of(self, family: Family) -> f64 {
        match family {
            Family::Lubm => self.lubm,
            Family::Uniprot => self.uniprot,
            Family::Dbpedia => self.dbpedia,
        }
    }
}

pub const FULL: Sizes = Sizes {
    lubm: 4.0,
    uniprot: 2.0,
    dbpedia: 2.0,
    lubm_disk: 6.0,
};

pub const SMOKE: Sizes = Sizes {
    lubm: 1.0,
    uniprot: 0.5,
    dbpedia: 0.5,
    lubm_disk: 1.0,
};

/// How large a file is: a `scaled` factor, or the tiny data set of the
/// correctness gate, whose reference engine runs nested loops (LUBM Q2
/// needs minutes on 10 000 triples and under a second on 1 000).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Scale {
    Factor(f64),
    Gate,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    Lubm,
    Uniprot,
    Dbpedia,
}

impl Family {
    pub fn name(self) -> &'static str {
        match self {
            Family::Lubm => "lubm",
            Family::Uniprot => "uniprot",
            Family::Dbpedia => "dbpedia",
        }
    }

    pub fn queries(self) -> Vec<lbr::datagen::BenchQuery> {
        match self {
            Family::Lubm => lubm::queries(),
            Family::Uniprot => uniprot::queries(),
            Family::Dbpedia => dbpedia::queries(),
        }
    }

    /// The text of query `id` ("Q4") as `lbr-datagen` ships it.
    pub fn query(self, id: &str) -> String {
        self.queries()
            .into_iter()
            .find(|q| q.id == id)
            .unwrap_or_else(|| panic!("{} has no query {id}", self.name()))
            .text
    }

    /// Per-family seeds follow `lbr_datagen::all_datasets`. The gate's
    /// LUBM keeps the two departments Q4–Q6 name.
    fn generate(self, scale: Scale) -> Vec<lbr::Triple> {
        let seed = DATA_SEED;
        let factor = match scale {
            Scale::Factor(f) => f,
            Scale::Gate => 0.05,
        };
        match self {
            Family::Lubm if scale == Scale::Gate => lubm::generate(&lubm::LubmConfig {
                universities: 1,
                departments: 2,
                seed,
            }),
            Family::Lubm => lubm::generate(&lubm::LubmConfig::scaled(factor, seed)),
            Family::Uniprot => {
                uniprot::generate(&uniprot::UniProtConfig::scaled(factor, seed ^ 0x51ab))
            }
            Family::Dbpedia => {
                dbpedia::generate(&dbpedia::DbpediaConfig::scaled(factor, seed ^ 0xdb9e))
            }
        }
    }
}

/// One generated file: a family at a scale.
#[derive(Debug, Clone)]
pub struct DataSet {
    pub family: Family,
    pub scale: Scale,
    /// "lubm4", "uniprot-gate": family and scale, the key in result files.
    pub label: String,
    pub path: PathBuf,
}

impl DataSet {
    pub fn new(family: Family, scale: Scale) -> DataSet {
        let label = match scale {
            Scale::Factor(f) => format!("{}{f}", family.name()),
            Scale::Gate => format!("{}-gate", family.name()),
        };
        let path = Path::new(DATA_DIR).join(format!("{label}.nt"));
        DataSet {
            family,
            scale,
            label,
            path,
        }
    }

    /// Writes the file unless it is already there.
    pub fn generate(&self) -> io::Result<()> {
        if self.path.exists() {
            return Ok(());
        }
        fs::create_dir_all(DATA_DIR)?;
        // `Graph::from_triples` sorts and dedups, so the file is canonical.
        let graph = lbr::Graph::from_triples(self.family.generate(self.scale));
        let text = lbr::rdf::write_ntriples(graph.triples());
        // Written under another name first: a run never reads half a file.
        let tmp = self.path.with_extension("tmp");
        fs::write(&tmp, text)?;
        fs::rename(&tmp, &self.path)
    }

    pub fn read(&self) -> io::Result<String> {
        fs::read_to_string(&self.path).map_err(|e| {
            io::Error::new(
                e.kind(),
                format!("{}: {e} (run `benchmark gen` first)", self.path.display()),
            )
        })
    }
}

/// What a result file records about an input file.
#[derive(Debug, Clone)]
pub struct FileFacts {
    pub label: String,
    pub triples: u64,
    pub bytes: u64,
    pub digest: String,
}

pub fn file_facts(set: &DataSet, text: &str) -> FileFacts {
    FileFacts {
        label: set.label.clone(),
        triples: text.lines().filter(|l| !l.is_empty()).count() as u64,
        bytes: text.len() as u64,
        digest: format!("{:016x}", hash_bytes(text.as_bytes())),
    }
}

/// The three whitespace-separated terms of one N-Triples line as the
/// generator writes it (`<s> <p> <o> .`; only the object may hold spaces).
fn split_line(line: &str) -> Option<(&str, &str, &str)> {
    let line = line.strip_suffix(" .")?;
    let mut parts = line.splitn(3, ' ');
    Some((parts.next()?, parts.next()?, parts.next()?))
}

/// Distinct objects of `predicate` (an IRI in angle brackets), sorted.
pub fn objects_of(text: &str, predicate: &str) -> Vec<String> {
    let mut out: Vec<String> = text
        .lines()
        .filter_map(split_line)
        .filter(|(_, p, _)| *p == predicate)
        .map(|(_, _, o)| o.to_string())
        .collect();
    out.sort_unstable();
    out.dedup();
    out
}

/// Distinct subjects of `predicate` whose object is `object`, sorted; with
/// `object == None`, of any object.
pub fn subjects_of(text: &str, predicate: &str, object: Option<&str>) -> Vec<String> {
    let mut out: Vec<String> = text
        .lines()
        .filter_map(split_line)
        .filter(|(_, p, o)| *p == predicate && object.is_none_or(|want| *o == want))
        .map(|(s, _, _)| s.to_string())
        .collect();
    out.sort_unstable();
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const NT: &str = "<urn:a> <urn:p> <urn:x> .\n\
                      <urn:b> <urn:p> \"two words .\" .\n\
                      <urn:a> <urn:q> <urn:x> .\n\
                      <urn:c> <urn:p> <urn:x> .\n";

    #[test]
    fn scans_constants_out_of_ntriples_text() {
        assert_eq!(objects_of(NT, "<urn:p>"), ["\"two words .\"", "<urn:x>"]);
        assert_eq!(
            subjects_of(NT, "<urn:p>", Some("<urn:x>")),
            ["<urn:a>", "<urn:c>"]
        );
        assert_eq!(subjects_of(NT, "<urn:q>", None), ["<urn:a>"]);
        let facts = file_facts(&DataSet::new(Family::Lubm, Scale::Factor(1.0)), NT);
        assert_eq!((facts.triples, facts.bytes), (4, NT.len() as u64));
    }

    #[test]
    fn generator_output_is_scannable_and_repeats() {
        let a = lbr::rdf::write_ntriples(
            lbr::Graph::from_triples(Family::Lubm.generate(Scale::Factor(0.1))).triples(),
        );
        let b = lbr::rdf::write_ntriples(
            lbr::Graph::from_triples(Family::Lubm.generate(Scale::Factor(0.1))).triples(),
        );
        assert_eq!(hash_bytes(a.as_bytes()), hash_bytes(b.as_bytes()));
        let depts = objects_of(&a, "<urn:ub:worksFor>");
        assert_eq!(depts.len(), 10);
        assert!(depts.contains(&"<urn:ub:Department0.University0>".to_string()));
        assert_eq!(a.lines().filter_map(split_line).count(), a.lines().count());
    }
}
