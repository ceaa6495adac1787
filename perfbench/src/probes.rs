//! Standalone layer probes: each calls one crate's public functions from
//! outside, on the workload's own items and pair type, at the runtime's
//! default knobs.

use std::hint::black_box;
use std::io::Cursor;
use std::time::{Duration, Instant};

use mr_core::{ContainerKind, Emitter, HasherKind, MapReduceJob, PushBackoff, RuntimeConfig};
use ramr_containers::{Hashed, HashedJobContainer};
use ramr_spsc::{BackoffPolicy, SpscQueue};
use ramr_telemetry::json::Value;

/// Cap on the pairs a probe materialises (bounds its memory).
const MAX_PROBE_PAIRS: usize = 1 << 20;

/// The map function alone, on one thread, into a discarding sink.
#[derive(Debug, Clone, Copy)]
pub struct MapProbe {
    /// Nanoseconds of map per input item.
    pub ns_per_item: f64,
    /// Pairs emitted per input item.
    pub pairs_per_item: f64,
}

/// Times `job.map` over `input` through [`Emitter::new`] with a sink that
/// discards every pair.
pub fn map_probe<J: MapReduceJob>(job: &J, input: &[J::Input]) -> MapProbe {
    let mut sink = |k: J::Key, v: J::Value| {
        black_box((k, v));
    };
    let mut emitter = Emitter::new(&mut sink);
    let started = Instant::now();
    job.map(black_box(input), &mut emitter);
    let elapsed = started.elapsed();
    let items = input.len().max(1) as f64;
    MapProbe {
        ns_per_item: elapsed.as_nanos() as f64 / items,
        pairs_per_item: emitter.emitted() as f64 / items,
    }
}

/// The map's pairs, hashed once as the RAMR mappers hash them, capped at
/// [`MAX_PROBE_PAIRS`].
pub fn hashed_pairs<J: MapReduceJob>(
    job: &J,
    input: &[J::Input],
    hasher: HasherKind,
) -> Vec<(Hashed<J::Key>, J::Value)> {
    let mut pairs = Vec::new();
    let mut sink = |k: J::Key, v: J::Value| {
        if pairs.len() < MAX_PROBE_PAIRS {
            pairs.push((Hashed::wrap(hasher, k), v));
        }
    };
    job.map(input, &mut Emitter::new(&mut sink));
    pairs
}

/// The SPSC hand-off alone.
#[derive(Debug, Clone, Copy)]
pub struct SpscProbe {
    /// Wall nanoseconds per pair from first push to last pop.
    pub ns_per_pair: f64,
    /// Zero-progress push attempts per thousand pairs.
    pub failed_pushes_per_kpair: f64,
}

/// The runtime's push policy for `config`.
fn backoff_of(config: &RuntimeConfig) -> BackoffPolicy {
    match config.push_backoff {
        PushBackoff::BusyWait => BackoffPolicy::BusyWait,
        PushBackoff::SpinThenSleep { spins, sleep } => {
            BackoffPolicy::SpinThenSleep { spins, sleep }
        }
    }
}

/// One producer thread pushes `pairs` in emit-buffer blocks with
/// `push_batch_with_backoff`; one consumer thread drains them with
/// `pop_batch`, at `config`'s capacity, batch size and backoff.
pub fn spsc_probe<T: Send>(pairs: Vec<T>, config: &RuntimeConfig) -> SpscProbe {
    let n = pairs.len().max(1);
    let block = config.effective_emit_buffer();
    let batch = config.batch_size;
    let policy = backoff_of(config);
    let (mut tx, mut rx) = SpscQueue::with_capacity(config.queue_capacity).split();
    let started = Instant::now();
    let failures = std::thread::scope(|s| {
        let producer = s.spawn(move || {
            let mut failures = 0;
            let mut items = pairs.into_iter();
            let mut buf = Vec::with_capacity(block);
            loop {
                buf.extend(items.by_ref().take(block));
                if buf.is_empty() {
                    break;
                }
                failures += tx.push_batch_with_backoff(&mut buf, &policy);
            }
            tx.finish();
            failures
        });
        loop {
            let closed = rx.is_closed();
            if rx.pop_batch(batch, |x| drop(black_box(x))) == 0 {
                if closed {
                    break;
                }
                std::thread::yield_now();
            }
        }
        producer.join().expect("spsc probe producer panicked")
    });
    let elapsed = started.elapsed();
    SpscProbe {
        ns_per_pair: elapsed.as_nanos() as f64 / n as f64,
        failed_pushes_per_kpair: failures as f64 * 1000.0 / n as f64,
    }
}

/// The combine container alone.
#[derive(Debug, Clone, Copy)]
pub struct ContainerProbe {
    /// Nanoseconds per combine-insert.
    pub ns_per_pair: f64,
    /// Distinct keys held afterwards.
    pub keys: usize,
}

/// One thread inserts `pairs` into the job's container of `kind`.
pub fn container_probe<J: MapReduceJob>(
    job: &J,
    pairs: Vec<(Hashed<J::Key>, J::Value)>,
    kind: ContainerKind,
) -> ContainerProbe {
    let n = pairs.len().max(1);
    let mut container =
        HashedJobContainer::for_job(job, kind, None).expect("the app's default container fits it");
    let started = Instant::now();
    for (k, v) in pairs {
        container.insert(k, v).expect("default container accepts every emitted key");
    }
    let elapsed = started.elapsed();
    ContainerProbe { ns_per_pair: elapsed.as_nanos() as f64 / n as f64, keys: container.len() }
}

/// Median wall time of `reps` calls of `f`.
fn median_time(reps: usize, mut f: impl FnMut()) -> Duration {
    let mut times: Vec<Duration> = (0..reps)
        .map(|_| {
            let started = Instant::now();
            f();
            started.elapsed()
        })
        .collect();
    times.sort();
    times[times.len() / 2]
}

/// `ramr_serve::render_pairs` then `digest64`, the server's per-result
/// work, on one job's output.
pub fn render_digest<K: std::fmt::Debug, V: std::fmt::Debug>(pairs: &[(K, V)]) -> Duration {
    median_time(9, || {
        black_box(ramr_serve::digest64(&ramr_serve::render_pairs(black_box(pairs))));
    })
}

/// `write_frame` into memory, then `read_frame` back, on `frame`.
pub fn frame_roundtrip(frame: &Value) -> Duration {
    let max = 4 << 20;
    median_time(9, || {
        let mut buf = Vec::new();
        ramr_serve::proto::write_frame(&mut buf, frame, max).expect("probe frame fits the bound");
        let back = ramr_serve::proto::read_frame(&mut Cursor::new(buf), max)
            .expect("frame written in memory reads back");
        black_box(back);
    })
}
