//! `complex_lowsel` and `selective_point`: in-process `Database::execute`
//! on heap stores of all three families, one caller thread.

use super::*;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// The paper's headline class: low-selectivity OPTIONAL queries where
    /// prune, multi-way join and best-match do most of the work.
    ComplexLowsel,
    /// The paper's "at par" class: highly selective queries whose time is
    /// loading BitMats; three templates abort on an empty absolute master.
    ///
    /// DBPedia Q4 was in this list and was removed after sizing, the one
    /// adjustment the class premise allows: its init span was 0.54 of its
    /// stage spans (join 0.81 ms of 2.15 ms), against 0.66–1.00 for the
    /// other eight, and with it the class's `core.init_share` read 0.663,
    /// 0.676 and 0.746 in three full-size traced runs, on either side of
    /// the 0.70 the premise asks for. The list is frozen from here on.
    SelectivePoint,
}

impl Class {
    fn name(self) -> &'static str {
        match self {
            Class::ComplexLowsel => "complex_lowsel",
            Class::SelectivePoint => "selective_point",
        }
    }

    /// `(family, query id)` of every template, in pass order.
    fn templates(self) -> &'static [(Family, &'static str)] {
        use Family::*;
        match self {
            Class::ComplexLowsel => &[
                (Lubm, "Q2"),
                (Uniprot, "Q1"),
                (Uniprot, "Q4"),
                (Uniprot, "Q7"),
                (Dbpedia, "Q1"),
                (Dbpedia, "Q5"),
                (Dbpedia, "Q6"),
            ],
            Class::SelectivePoint => &[
                (Lubm, "Q4"),
                (Lubm, "Q6"),
                (Uniprot, "Q2"),
                (Uniprot, "Q5"),
                (Uniprot, "Q3"),
                (Uniprot, "Q6"),
                (Dbpedia, "Q2"),
                (Dbpedia, "Q3"),
            ],
        }
    }
}

const FAMILIES: [Family; 3] = [Family::Lubm, Family::Uniprot, Family::Dbpedia];

fn slots(class: Class, texts: &[String]) -> Vec<Slot> {
    let departments = lubm_departments(&texts[0]);
    // The taxa proteins actually belong to, as the prefixed names the
    // templates use them in.
    let taxa = data::objects_of(&texts[1], "<urn:uni:organism>");
    class
        .templates()
        .iter()
        .map(|&(family, id)| {
            let db = FAMILIES
                .iter()
                .position(|f| *f == family)
                .expect("known family");
            match (class, family, id) {
                (Class::SelectivePoint, Family::Lubm, "Q4") => {
                    Slot::drawn(family, db, id, LUBM_DEPT_NEEDLE, departments.clone())
                }
                (Class::SelectivePoint, Family::Lubm, "Q6") => {
                    Slot::drawn(family, db, id, LUBM_DEPT1_NEEDLE, departments.clone())
                }
                (Class::SelectivePoint, Family::Uniprot, "Q3") => {
                    Slot::drawn(family, db, id, "uni:taxonomy/9", taxa.clone())
                }
                (Class::SelectivePoint, Family::Uniprot, "Q6") => {
                    Slot::drawn(family, db, id, "uni:taxonomy/7", taxa.clone())
                }
                _ => Slot::fixed(family, db, id),
            }
        })
        .collect()
}

fn build_all(sets: &[DataSet], threads: Option<usize>) -> Result<Vec<Database>, String> {
    sets.iter().map(|s| open_heap(s, threads)).collect()
}

/// Set-up: N-Triples files on disk → three databases ready to query.
pub fn setup(ctx: &Ctx) -> Result<f64, String> {
    let sets: Vec<DataSet> = FAMILIES.iter().map(|&f| ctx.set(f)).collect();
    let t = Instant::now();
    let dbs = build_all(&sets, None)?;
    let secs = t.elapsed().as_secs_f64();
    drop(dbs);
    Ok(secs)
}

pub fn run(ctx: &Ctx, class: Class) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let sets: Vec<DataSet> = FAMILIES.iter().map(|&f| ctx.set(f)).collect();
    let texts = load_texts(ctx, &sets, &mut out)?;
    gate(class.templates(), &mut out)?;
    ctx.done("data read, gate passed");
    let slots = slots(class, &texts);

    let mut setup_s = Vec::new();
    if ctx.traced {
        drop(layered_load(&texts, &mut out)?);
    } else {
        setup_s = timed_setups(ctx)?;
    }
    drop(texts);
    let dbs = build_all(&sets, None)?;
    let db_refs: Vec<&Database> = dbs.iter().collect();
    ctx.done("set-up");
    out.fact("threads", dbs[0].threads());

    // Warm-up: pass 0 once, untimed. Its results are the run's reference:
    // term-level digests for the expected file, counts for the ledger.
    let mut digests = Vec::new();
    let mut counts = Counts::default();
    for (i, slot) in slots.iter().enumerate() {
        let text = slot.text_for(ctx.seed, 0, i);
        let digest = term_digest(db_refs[slot.db], &text)?;
        digests.push((slot.name.clone(), digest, slot.param.is_some()));
        let output = db_refs[slot.db].execute(&text).map_err(|e| e.to_string())?;
        counts.add(&output.stats);
    }
    record_digests(ctx, class.name(), &digests, &mut out);
    ctx.done("warm-up");

    let budget = Duration::from_secs_f64(ctx.seconds);
    let mut plain = Recorder::new(slots.len());
    if !ctx.traced {
        run_passes(
            &mut plain, None, &db_refs, &slots, ctx.seed, MIN_PASSES, budget,
        );
        ctx.done("measured phase");
        timings("", &slots, &plain, &mut out);
        report_end_to_end(&[plain.state()], &setup_s, &mut out);
    } else {
        let mut traced_rec = Recorder::new(slots.len());
        let mut traced = vec![Vec::new(); slots.len()];
        run_passes(
            &mut plain,
            Some((&mut traced_rec, &mut traced)),
            &db_refs,
            &slots,
            ctx.seed,
            2 * MIN_PASSES,
            budget,
        );
        ctx.done("measured phase");
        timings("", &slots, &traced_rec, &mut out);
        let share = report_traced(&slots, &[&traced], &mut out);
        report_overhead(&[plain.state()], &[traced_rec.state()], &mut out);
        counts.report(&mut out);
        report_format(&db_refs, &slots, ctx.seed, &mut out)?;
        report_allocs(&db_refs, &slots, ctx.seed, &mut out);
        plain.failed += traced_rec.failed;
        plain.attempted += traced_rec.attempted;

        let (ok, want) = match class {
            Class::ComplexLowsel => (share <= 0.40, "at most 0.40"),
            Class::SelectivePoint => (share >= 0.70, "at least 0.70"),
        };
        out.soft(
            "premise.init_share",
            ok,
            format!("{share:.3}, class wants {want}"),
        );

        ctx.done("format and allocation probes");
        mt_ratio(ctx, &sets, &db_refs, &slots, &mut out)?;
        ctx.done("threads(1) comparison");
        zero(&mut out, &SERVER_ONLY);
        zero(&mut out, &DISK_ONLY);
        zero(&mut out, &WAL_SPAN);
    }
    out.attempted = plain.attempted;
    out.failed = plain.failed;
    Ok(out)
}

/// `core.mt_ratio`: wall at `.threads(1)` ÷ wall at the builder default,
/// geometric mean over templates of the ratio of medians; below 1 means the
/// default is the slower configuration. The single-threaded databases
/// must also return the default ones' rows.
fn mt_ratio(
    ctx: &Ctx,
    sets: &[DataSet],
    default: &[&Database],
    slots: &[Slot],
    out: &mut Outcome,
) -> Result<(), String> {
    const PASSES: u64 = 7;
    let single = build_all(sets, Some(1))?;
    let single: Vec<&Database> = single.iter().collect();
    ctx.done("threads(1) databases built");
    let (mut at_default, mut at_one) = (Recorder::new(slots.len()), Recorder::new(slots.len()));
    for pass in 0..PASSES {
        at_default.untraced_pass(default, slots, ctx.seed, pass);
        at_one.untraced_pass(&single, slots, ctx.seed, pass);
    }
    ctx.done("threads(1) passes");
    let mut same = true;
    for (i, slot) in slots.iter().enumerate() {
        let text = slot.text_for(ctx.seed, 0, i);
        same &= term_digest(default[slot.db], &text)? == term_digest(single[slot.db], &text)?;
    }
    out.hard(
        "threads.agree",
        same && at_default.failed + at_one.failed == 0,
        "threads(1) and the builder default return the same rows",
    );
    let ratios: Vec<f64> = at_one
        .median_ms()
        .iter()
        .zip(at_default.median_ms())
        .map(|(one, def)| one / def)
        .collect();
    out.set("core.mt_ratio", stats::geomean(&ratios));
    Ok(())
}
