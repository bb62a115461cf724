//! Order statistics the harness reports: medians, the "ten samples
//! beyond" percentile rule, geometric means and slice-median throughput.

/// Percentiles the harness may report, lowest first.
const TAILS: [f64; 5] = [0.90, 0.95, 0.99, 0.999, 0.9999];

/// A timing as the harness reports it: the median, plus the highest
/// percentile that still has at least ten samples beyond it.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    /// `(percentile, value)`; `None` when even p90 has fewer than ten
    /// samples beyond it.
    pub tail: Option<(f64, f64)>,
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("timings are never NaN"));
    v
}

/// Nearest rank of percentile `p` among `n` samples. The epsilon keeps a
/// product such as `0.95 * 200`, which is not exact in binary, from
/// rounding up a rank.
fn rank(p: f64, n: usize) -> usize {
    (p * n as f64 - 1e-9).ceil().max(0.0) as usize
}

/// Nearest-rank percentile of an ascending slice (`p` in `0..=1`).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(p, sorted.len()).clamp(1, sorted.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    let v = sorted(samples);
    let n = v.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The highest reportable percentile for `n` samples: the largest of
/// [`TAILS`] with at least ten samples strictly beyond its rank.
pub fn supported_tail(n: usize) -> Option<f64> {
    TAILS.iter().copied().rfind(|&p| n >= rank(p, n) + 10)
}

pub fn summarize(samples: &[f64]) -> Summary {
    let v = sorted(samples);
    Summary {
        n: v.len(),
        median: median(&v),
        tail: supported_tail(v.len()).map(|p| (p, percentile(&v, p))),
    }
}

/// Samples a p95 needs for ten of them to lie beyond it.
const P95_SAMPLES: usize = 200;

/// The tail as the harness reports it. `samples`, in time order, are cut
/// into consecutive stretches of at least [`P95_SAMPLES`], at most ten of
/// them; the result is the median of the stretches' p95s: the p95 of a
/// typical tenth of the phase. A spell of host interference raises the
/// p95 of the stretches it falls in, and the p95 of the whole phase with
/// them, but not the median over stretches. `supported` is false when
/// there are too few samples for even one stretch.
pub fn typical_p95(samples: &[f64]) -> (f64, bool) {
    let n = samples.len();
    let k = (n / P95_SAMPLES).clamp(1, 10);
    let tails: Vec<f64> = (0..k)
        .map(|c| percentile(&sorted(&samples[c * n / k..(c + 1) * n / k]), 0.95))
        .collect();
    (median(&tails), n >= P95_SAMPLES)
}

pub fn geomean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "geomean of no values");
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    // `+ 0.0` turns the -0.0 an all-zero sum yields into 0.0.
    xs.iter().sum::<f64>() / xs.len() as f64 + 0.0
}

/// One equal-count stretch of a measured phase: a pass over the templates
/// for a single caller.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Slice {
    /// Successful ops.
    pub ops: u64,
    /// Wall seconds spent on them.
    pub secs: f64,
    /// Process CPU seconds spent meanwhile.
    pub cpu_secs: f64,
}

/// Throughput as the harness reports it: the median of the slices' rates.
/// A host stall lands in one slice or two and moves a mean of the whole
/// phase, not the median of its slices.
pub fn median_rate(slices: &[Slice]) -> f64 {
    let rates: Vec<f64> = slices.iter().map(|s| s.ops as f64 / s.secs).collect();
    median(&rates)
}

/// Cuts a phase of concurrent callers into equal-count slices after the
/// fact. `done` holds, for every successful op in completion order, the
/// wall seconds and the process CPU seconds since the phase began; slice
/// `k` is the `per_slice` ops that completed `k`-th, and lasts from the
/// previous slice's last completion to its own. Ops beyond the last whole
/// slice are left out.
pub fn completion_slices(done: &[(f64, f64)], per_slice: usize) -> Vec<Slice> {
    assert!(per_slice > 0, "empty slices");
    let mut from = (0.0, 0.0);
    done.chunks_exact(per_slice)
        .map(|chunk| {
            let to = chunk[per_slice - 1];
            let slice = Slice {
                ops: per_slice as u64,
                secs: to.0 - from.0,
                cpu_secs: to.1 - from.1,
            };
            from = to;
            slice
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(supported_tail(99), None);
        assert_eq!(supported_tail(100), Some(0.90));
        assert_eq!(supported_tail(199), Some(0.90));
        assert_eq!(supported_tail(200), Some(0.95));
        assert_eq!(supported_tail(1000), Some(0.99));
        assert_eq!(supported_tail(8000), Some(0.99));
        assert_eq!(supported_tail(10_000), Some(0.999));
    }

    #[test]
    fn summary_reports_median_and_supported_tail() {
        let samples: Vec<f64> = (1..=200).map(f64::from).collect();
        let s = summarize(&samples);
        assert_eq!(s.n, 200);
        assert_eq!(s.median, 100.5);
        assert_eq!(s.tail, Some((0.95, 190.0)));
        assert_eq!(summarize(&samples[..50]).tail, None);
    }

    #[test]
    fn typical_p95_shrugs_off_a_spell_of_interference() {
        // 2000 samples cycling through 1..=100: every stretch of 200 has
        // p95 95, and so has the whole.
        let mut samples: Vec<f64> = (0..2000).map(|i| f64::from(i % 100 + 1)).collect();
        assert_eq!(typical_p95(&samples), (95.0, true));
        // For a tenth of the phase every fifth op takes 500 longer: the p95
        // of the whole phase rises above 100, the typical p95 stays.
        for s in samples[600..800].iter_mut().step_by(5) {
            *s += 500.0;
        }
        assert!(percentile(&sorted(&samples), 0.95) > 95.0);
        assert_eq!(typical_p95(&samples), (95.0, true));
        // Too few samples for one stretch: the plain p95, flagged.
        assert_eq!(typical_p95(&samples[..199]), (95.0, false));
        // 450 samples make two stretches of 225, not ten of 45.
        assert!(typical_p95(&samples[..450]).1);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 0.5), 2.0);
        assert_eq!(percentile(&v, 0.75), 3.0);
        assert_eq!(percentile(&v, 1.0), 4.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
    }

    #[test]
    fn median_slice_rate_shrugs_off_an_injected_stall() {
        let even = Slice {
            ops: 100,
            secs: 0.5,
            cpu_secs: 0.8,
        };
        let mut slices = vec![even; 21];
        // One slice stalls for ten seconds: the rate of the whole phase
        // halves, the median slice rate does not move.
        slices[7].secs = 10.5;
        assert_eq!(median_rate(&slices), 200.0);
        let total: f64 = slices.iter().map(|s| s.secs).sum();
        assert!(2100.0 / total < 105.0);
    }

    #[test]
    fn completions_are_cut_into_equal_count_slices() {
        // Ten ops a second, with a three-second stall before the seventh.
        // A stall costs no CPU time.
        let done: Vec<(f64, f64)> = (1..=11)
            .map(|i| {
                let busy = i as f64 * 0.1;
                (busy + if i >= 7 { 3.0 } else { 0.0 }, busy * 1.5)
            })
            .collect();
        let slices = completion_slices(&done, 3);
        assert_eq!(slices.len(), 3, "the last two ops fill no slice");
        assert!(slices.iter().all(|s| s.ops == 3));
        let secs: Vec<f64> = slices.iter().map(|s| s.secs).collect();
        assert!((secs[0] - 0.3).abs() < 1e-9);
        assert!((secs[1] - 0.3).abs() < 1e-9);
        assert!((secs[2] - 3.3).abs() < 1e-9);
        assert!(slices.iter().all(|s| (s.cpu_secs - 0.45).abs() < 1e-9));
        assert!((median_rate(&slices) - 10.0).abs() < 1e-6);
    }

    #[test]
    fn geomean_of_powers() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
    }
}
