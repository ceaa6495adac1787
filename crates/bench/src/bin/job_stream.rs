//! Job-stream bench: the pooling win behind `RamrSession`.
//!
//! A stream of short jobs is where per-job setup hurts most: thread
//! creation, pinning, and queue allocation are paid per job while the
//! map-combine work itself is tiny. This bench pushes the same stream of
//! small word-count jobs through (a) a fresh engine per job, whose one-shot
//! `submit` opens a session, runs one epoch and drops it (session-per-job),
//! and (b) one persistent session, prints the per-job costs and the
//! speedup, and PASSes when the pooled stream is at least as fast overall.
//!
//! ```text
//! cargo run --release -p mr-bench --bin job_stream [-- <jobs> <scale>]
//! ```

use std::time::Instant;

use mr_apps::inputs::{wc_input, InputFlavor, InputSpec, Platform};
use mr_apps::{AppKind, WordCount};
use mr_core::RuntimeConfig;
use ramr::{Backend, Engine};

fn config() -> RuntimeConfig {
    let threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    RuntimeConfig::builder()
        .num_workers(threads.max(2))
        .num_combiners((threads / 2).max(1))
        .task_size(64)
        .queue_capacity(5000)
        .batch_size(1000)
        .container(AppKind::WordCount.default_container())
        .build()
        .expect("valid bench config")
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let jobs: usize = args.first().and_then(|s| s.parse().ok()).unwrap_or(24);
    // `scale` divides the paper's Table I quantity, so *larger* scales
    // mean *shorter* jobs; the default keeps each job around a
    // millisecond, where per-job setup is visible.
    let scale: u64 = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(20_000);
    assert!(jobs >= 20, "a stream below 20 jobs does not exercise pooling; got {jobs}");

    let spec = InputSpec::table1(AppKind::WordCount, Platform::XeonPhi, InputFlavor::Small);
    let input = wc_input(&spec, scale);
    println!(
        "JOB STREAM: {jobs} word-count jobs x {} lines each, backend {}.\n",
        input.len(),
        Backend::RamrStatic
    );

    // Warm up allocator and page cache outside both measured loops.
    let warmup =
        Backend::RamrStatic.engine(config()).unwrap().submit(&WordCount, &input).unwrap().output;

    let start = Instant::now();
    let mut fresh_keys = 0usize;
    for _ in 0..jobs {
        let engine = Backend::RamrStatic.engine(config()).expect("engine");
        fresh_keys += engine.submit(&WordCount, &input).expect("fresh run").output.len();
    }
    let fresh = start.elapsed();

    let start = Instant::now();
    let mut session = Backend::RamrStatic.session::<WordCount>(config()).expect("session");
    let mut pooled_keys = 0usize;
    for _ in 0..jobs {
        pooled_keys += session.submit(&WordCount, &input).expect("pooled run").output.len();
    }
    let pooled = start.elapsed();

    assert_eq!(fresh_keys, pooled_keys, "pooled and fresh streams disagree on output");
    assert_eq!(pooled_keys, warmup.len() * jobs);

    let per_job = |d: std::time::Duration| d.as_secs_f64() * 1e3 / jobs as f64;
    let speedup = fresh.as_secs_f64() / pooled.as_secs_f64();
    mr_bench::print_header(&["mode", "total(ms)", "per-job(ms)"]);
    println!("{:>10} {:>10.1} {:>11.3}", "fresh", fresh.as_secs_f64() * 1e3, per_job(fresh));
    println!("{:>10} {:>10.1} {:>11.3}", "pooled", pooled.as_secs_f64() * 1e3, per_job(pooled));
    println!("\npooled speedup over session-per-job: {speedup:.2}x");

    // Pass/fail gate: pooling must never lose to session-per-job on a short
    // stream. The margin stays at parity (1.0) rather than a larger factor
    // so the gate is robust on loaded CI machines; typical speedups on an
    // idle host are well above it.
    if speedup >= 1.0 {
        println!("PASS: persistent session beats (or matches) session-per-job");
    } else {
        println!("FAIL: session-per-job was faster; session reuse has regressed");
        std::process::exit(1);
    }
}
