//! The benchmark's own checks: its reporting rule, its input generators
//! and its output verification.

use mr_apps::{AppKind, Histogram, WordCount};
use mr_core::ContainerKind;
use perfbench::check::{km_matches, os_threads, serial_reduce, Tally, Verdict};
use perfbench::gen::{self, InputDigest};
use perfbench::stats::{median, percentile, samples_for, windowed_percentile, TAIL_MIN_BEYOND};
use perfbench::tasks::{engine_config, SubmitTask};
use ramr::{Backend, Engine};

#[test]
fn tail_percentile_needs_ten_samples_beyond_it() {
    let ramp = |n: usize| (1..=n).map(|x| x as f64).collect::<Vec<_>>();
    // p99 of 999 samples has only 9 above its rank; of 1000, exactly 10.
    assert_eq!(percentile(&ramp(999), 99.0), None);
    assert_eq!(percentile(&ramp(1000), 99.0), Some(990.0));
    assert_eq!(percentile(&ramp(99), 90.0), None);
    assert_eq!(percentile(&ramp(100), 90.0), Some(90.0));
    assert_eq!(samples_for(99.0), 1000);
    assert_eq!(samples_for(90.0), 100);
    for n in [0, 5, 50, 500, 5000] {
        let values = ramp(n);
        if let Some(p) = percentile(&values, 95.0) {
            let beyond = values.iter().filter(|&&v| v > p).count();
            assert!(beyond >= TAIL_MIN_BEYOND, "{n} samples: {beyond} beyond p95");
        }
    }
    // A windowed tail needs one full window that reports it.
    assert_eq!(windowed_percentile(&ramp(999), 99.0, 1000), None);
    assert_eq!(windowed_percentile(&ramp(1999), 99.0, 1000), Some(990.0));
    assert_eq!(windowed_percentile(&ramp(2000), 99.0, 1000), Some(1490.0));
    assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
}

#[test]
fn same_seed_same_inputs_other_seed_other_inputs() {
    let hg = |seed| InputDigest::digest(&gen::hg_pixels(seed)[..]);
    let wc = |seed| InputDigest::digest(&gen::wc_lines(seed)[..]);
    let km = |seed| InputDigest::digest(&gen::km_points(seed)[..]);
    assert_eq!(hg(7), hg(7));
    assert_ne!(hg(7), hg(8));
    assert_eq!(wc(7), wc(7));
    assert_ne!(wc(7), wc(8));
    assert_eq!(km(7), km(7));
    assert_ne!(km(7), km(8));
    assert_eq!(perfbench::serve::mix(7), perfbench::serve::mix(7));
}

#[test]
fn wordcount_input_has_a_large_zipf_key_space() {
    let lines = gen::wc_lines(3);
    let reference = serial_reduce(&WordCount, &lines);
    assert!(reference.len() > 50_000, "only {} distinct words", reference.len());
    let total: u64 = reference.iter().map(|(_, c)| c).sum();
    assert_eq!(total as usize, lines.len() * gen::WC_WORDS_PER_LINE);
}

#[test]
fn corrupted_output_counts_as_failed() {
    let pixels: Vec<_> = gen::hg_pixels(5).into_iter().take(20_000).collect();
    let machine = ramr_topology::MachineModel::detect();
    let task = SubmitTask::new("hg", AppKind::Histogram, Histogram, pixels, &machine, 2);
    let config = engine_config(2, Backend::Phoenix, ContainerKind::Array).unwrap();
    let engine = Backend::Phoenix.engine(config).unwrap();
    let mut pairs = engine.submit(task.job(), task.input()).unwrap().output.pairs;
    let verdict =
        |pairs: &[(u16, u64)]| if task.matches(pairs) { Verdict::Ok } else { Verdict::Mismatch };

    let mut tally = Tally::default();
    tally.record(verdict(&pairs));
    assert_eq!(tally.failed(), 0, "the engine's real output must pass");
    pairs[100].1 += 1;
    tally.record(verdict(&pairs));
    assert_eq!((tally.mismatches, tally.failed()), (1, 1));
    assert_eq!(tally.failed_frac(), 0.5);
}

#[test]
fn kmeans_check_tolerates_rounding_but_not_a_moved_point() {
    use mr_apps::kmeans::ClusterAccum;
    let a = ClusterAccum { sum: [10.0, 20.0, 30.0], count: 10 };
    let rounded = ClusterAccum { sum: [10.0 + 1e-12, 20.0, 30.0], count: 10 };
    let moved = ClusterAccum { sum: [11.0, 20.0, 30.0], count: 11 };
    assert!(km_matches(&[(0, a)], &[(0, rounded)]));
    assert!(!km_matches(&[(0, a)], &[(0, moved)]));
}

#[test]
fn every_backend_runs_exactly_the_thread_budget() {
    let pixels: Vec<_> = gen::hg_pixels(9).into_iter().take(50_000).collect();
    for backend in Backend::ALL {
        let config = engine_config(2, backend, ContainerKind::Array).unwrap();
        let combiners = config.num_combiners;
        let engine = backend.engine(config).unwrap();
        let report = engine.submit(&Histogram, &pixels).unwrap().report;
        assert_eq!(os_threads(backend, &report.threads, combiners), 2, "{backend}");
    }
}
