//! The decoupled map/combine runtime (paper §III, Fig 2) that
//! [`RamrSession`](crate::RamrSession)'s pooled workers run, plus the
//! per-job [`RunReport`].
//!
//! Three step bodies do the work: a mapper's [`Emission`] maps one task and
//! publishes its pairs a block at a time, [`batched_read`] moves one batch
//! from a queue into a combiner's container with panic containment, and
//! [`Combining`] accounts each combine round. Two scheduling policies drive
//! them. Under static scheduling, [`mapper_loop`] and [`combiner_loop`] run
//! fixed pools in which each combiner owns the queues of the mappers the
//! placement plan pairs with it. Under adaptive scheduling, [`flex_loop`]
//! and [`adaptive_combiner_loop`] check queues out of a shared
//! [`QueueRegistry`] while [`controller_loop`] moves flex threads between
//! mapping and combining. The [`watchdog_loop`] guards both.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::tuning::{decide, AdaptationEvent, AdaptiveBounds, PoolObservation};
use mr_core::{
    Emitter, HasherKind, JobOutput, MapReduceJob, PushBackoff, RuntimeConfig, RuntimeError,
    TaskRange,
};
use phoenix_mr::{phases, TaskQueues};
use ramr_containers::{Hashed, HashedJobContainer};
use ramr_spsc::{BackoffPolicy, Consumer, Producer};
use ramr_telemetry::{
    pool_throughput, FaultLog, FaultMetrics, LocalTelemetry, ProgressBoard, TelemetryCell,
    ThreadRole, ThreadTelemetry,
};
use ramr_topology::{pin_current_thread, CpuSlot, PlacementPlan};

/// A job's output paired with the run's [`RunReport`].
pub type ReportedOutput<J> =
    (JobOutput<<J as MapReduceJob>::Key, <J as MapReduceJob>::Value>, RunReport);

/// One element of a mapper's pipeline queue: the key with its hash computed
/// once at emission (the hash-once pipeline), plus the value.
pub(crate) type HashedPair<J> = (Hashed<<J as MapReduceJob>::Key>, <J as MapReduceJob>::Value);
/// The write half of one mapper's pipeline queue.
pub(crate) type PairProducer<J> = Producer<HashedPair<J>>;
/// The read half of one mapper's pipeline queue.
pub(crate) type PairConsumer<J> = Consumer<HashedPair<J>>;

/// Per-thread statistics of one decoupled invocation.
///
/// The quantities a tuning session needs: whether any mapper's queue kept
/// filling up (raise the combiner pool or the queue capacity), whether one
/// combiner consumed far more than its peers (skewed queue assignment), and
/// the placement the run actually used.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// The placement plan the run used.
    pub plan: PlacementPlan,
    /// Pairs emitted by each mapper. Counted at emission time, so buffered
    /// pairs awaiting a flush are included; conservation
    /// (`emitted == consumed`) holds once the run returns because every
    /// mapper drain-flushes its emit buffer before closing its queue.
    pub emitted_per_mapper: Vec<u64>,
    /// Queue-full events per mapper: publish attempts that made zero
    /// progress because the queue had no free slot. With an emit buffer
    /// of 1 this counts failed element pushes (the historical meaning);
    /// with larger buffers it counts stalled *block* flushes, so absolute
    /// values are not comparable across different `emit_buffer_size`
    /// settings — compare [`RunReport::back_pressure`] trends instead.
    pub full_events_per_mapper: Vec<u64>,
    /// Pairs consumed by each combiner. Exact even when a combine function
    /// panics mid-batch: the count advances with the queue's head cursor,
    /// element by element, inside each batched read.
    pub consumed_per_combiner: Vec<u64>,
    /// Per-mapper wall-clock telemetry: useful map time (`busy`), time
    /// blocked publishing blocks to a full queue (`stalled`), emit-buffer
    /// flush occupancy, and the thread's own wall-clock. Timing fields are
    /// zero when `RuntimeConfig::telemetry` is off; the counters
    /// (`items`, `stall_events`) are always exact.
    pub mapper_telemetry: Vec<ThreadTelemetry>,
    /// Per-combiner wall-clock telemetry: time consuming batches (`busy`),
    /// idle spin/sleep time waiting for data (`stalled`), and the
    /// batched-read occupancy histogram (how full the batched reads
    /// actually were — paper §III-A). `stall_events` counts idle rounds.
    ///
    /// Under the adaptive runtime this lists the dedicated combiners
    /// followed by every flex thread the controller promoted into combine
    /// help (indexed after the dedicated pool); pair conservation
    /// (`emitted == consumed`) holds across the combined list.
    pub combiner_telemetry: Vec<ThreadTelemetry>,
    /// The adaptation trace: one [`AdaptationEvent`] per controller tick
    /// (holds included) when the run executed with
    /// [`RuntimeConfig::adaptive`]; empty on static runs. Filter with
    /// [`AdaptationEvent::acted`] for the ticks that moved an actuator.
    pub adaptation: Vec<AdaptationEvent>,
    /// Fault-tolerance accounting: task retries performed and poison tasks
    /// skipped under [`RuntimeConfig::max_task_retries`] /
    /// [`RuntimeConfig::skip_poison_tasks`]. All-zero (see
    /// [`FaultMetrics::is_clean`]) when fault tolerance is off or nothing
    /// failed; runs that *fail* report their faults through the returned
    /// [`RuntimeError`] instead.
    pub faults: FaultMetrics,
}

impl RunReport {
    /// Ratio of the most- to least-loaded combiner (1.0 = perfectly even).
    ///
    /// Returns `Some(f64::INFINITY)` when at least one combiner consumed
    /// pairs while another consumed none — a fully starved combiner is the
    /// *worst* skew, not missing data, and must not be silently hidden.
    /// Returns `None` only when there is nothing to compare: no combiners,
    /// or an all-zero report (e.g. empty input).
    pub fn combiner_imbalance(&self) -> Option<f64> {
        let max = *self.consumed_per_combiner.iter().max()?;
        let min = *self.consumed_per_combiner.iter().min()?;
        if max == 0 {
            None
        } else if min == 0 {
            Some(f64::INFINITY)
        } else {
            Some(max as f64 / min as f64)
        }
    }

    /// Aggregate mapper-side throughput: pairs emitted per second of
    /// *useful map time* (pairs/sec per fully-busy mapper). `None` when no
    /// busy time was recorded (telemetry off or empty run).
    pub fn map_throughput(&self) -> Option<f64> {
        pool_throughput(&self.mapper_telemetry)
    }

    /// Aggregate combiner-side throughput: pairs folded per second of
    /// busy combine time. `None` when no busy time was recorded.
    pub fn combine_throughput(&self) -> Option<f64> {
        pool_throughput(&self.combiner_telemetry)
    }

    /// The paper's throughput criterion for the mapper:combiner ratio: how
    /// many mappers one combiner keeps up with, from *measured* relative
    /// throughput (`combine_throughput / map_throughput`, ≥ 1). Raise the
    /// ratio (fewer combiners) when combine is fast relative to map; drop
    /// toward 1:1 when combine is the bottleneck.
    pub fn suggested_ratio(&self) -> Option<usize> {
        Some(ramr_telemetry::suggested_ratio(self.map_throughput()?, self.combine_throughput()?))
    }

    /// Zero-progress publish attempts per emitted pair — the queue
    /// back-pressure indicator. Zero means no mapper ever found its queue
    /// full; rising values mean combiners cannot keep up (raise the
    /// combiner pool, the queue capacity, or the emit buffer).
    pub fn back_pressure(&self) -> f64 {
        let emitted: u64 = self.emitted_per_mapper.iter().sum();
        let failed: u64 = self.full_events_per_mapper.iter().sum();
        if emitted == 0 {
            0.0
        } else {
            failed as f64 / emitted as f64
        }
    }
}

pub(crate) fn to_backoff(backoff: PushBackoff) -> BackoffPolicy {
    match backoff {
        PushBackoff::BusyWait => BackoffPolicy::BusyWait,
        PushBackoff::SpinThenSleep { spins, sleep } => {
            BackoffPolicy::SpinThenSleep { spins, sleep }
        }
    }
}

pub(crate) fn maybe_pin(enabled: bool, slot: CpuSlot) {
    if enabled {
        if let CpuSlot::Pinned(cpu) = slot {
            // Best-effort: the plan may target a machine model larger than
            // the actual host.
            let _ = pin_current_thread(cpu);
        }
    }
}

// ---------------------------------------------------------------------------
// Fault tolerance: per-task retries, poison skipping and the pipeline
// watchdog, shared by the static and adaptive paths.
// ---------------------------------------------------------------------------

/// How often the watchdog wakes to sample the progress board. Sleeping in
/// slices (like the controller) keeps teardown prompt: the watchdog notices
/// the run's `done` signal within one slice.
const WATCHDOG_SLICE: Duration = Duration::from_millis(5);

/// Per-run fault-tolerance context shared by every worker thread: the
/// retry/skip policy, the shared fault log, the cooperative cancel flag the
/// watchdog trips, and (when a watchdog is armed) the progress board. All
/// fields are inert at the default configuration, so the hot paths run
/// unchanged — no staging, no extra atomics, the plain blocking push.
pub(crate) struct FaultCtx<'a> {
    /// Panicked-task re-executions allowed per task.
    retries: u32,
    /// Whether a task that exhausts its retries is skipped (and recorded)
    /// instead of failing the run.
    skip_poison: bool,
    /// Staged (buffer-then-publish) task execution engages only when the
    /// job opted in via [`MapReduceJob::is_retry_safe`] *and* retries or
    /// skipping are configured.
    staged: bool,
    faults: &'a FaultLog,
    cancel: &'a AtomicBool,
    /// `Some` only when [`RuntimeConfig::watchdog`] armed one.
    board: Option<&'a ProgressBoard>,
}

impl<'a> FaultCtx<'a> {
    pub(crate) fn new(
        config: &RuntimeConfig,
        retry_safe: bool,
        faults: &'a FaultLog,
        cancel: &'a AtomicBool,
        board: Option<&'a ProgressBoard>,
    ) -> Self {
        Self {
            retries: config.max_task_retries,
            skip_poison: config.skip_poison_tasks,
            staged: retry_safe && (config.max_task_retries > 0 || config.skip_poison_tasks),
            faults,
            cancel,
            board,
        }
    }

    fn cancelled(&self) -> bool {
        self.cancel.load(Ordering::Relaxed)
    }

    /// Records one unit of pipeline progress for thread `slot`: a task
    /// completed, a block flushed, a batch consumed. A no-op without a
    /// watchdog.
    fn progress(&self, slot: usize) {
        if let Some(board) = self.board {
            board.bump(slot);
        }
    }

    /// The cancel flag to thread into blocking SPSC publishes — `Some` only
    /// when a watchdog is armed (nothing else ever trips the flag), so the
    /// default path keeps the unconditional blocking push.
    fn push_cancel(&self) -> Option<&'a AtomicBool> {
        self.board.map(|_| self.cancel)
    }
}

/// Marks a thread live on the progress board for its whole scope. The drop
/// guard deregisters even on unwind, so a panicking worker never leaves the
/// watchdog counting a thread that is already gone.
pub(crate) struct LiveGuard<'a>(Option<&'a ProgressBoard>);

impl<'a> LiveGuard<'a> {
    pub(crate) fn enter(board: Option<&'a ProgressBoard>) -> Self {
        if let Some(b) = board {
            b.thread_started();
        }
        Self(board)
    }
}

impl Drop for LiveGuard<'_> {
    fn drop(&mut self) {
        if let Some(b) = self.0 {
            b.thread_done();
        }
    }
}

/// Publishes one block with the configured backoff. When a watchdog armed
/// the cancel flag the push aborts on cancellation instead of blocking
/// forever on a queue nobody will ever drain again.
fn publish_block<T: Send>(
    tx: &mut Producer<T>,
    buf: &mut Vec<T>,
    backoff: &BackoffPolicy,
    cancel: Option<&AtomicBool>,
) -> u64 {
    match cancel {
        Some(flag) => tx.push_batch_with_backoff_or_cancel(buf, backoff, flag),
        None => tx.push_batch_with_backoff(buf, backoff),
    }
}

/// Display labels for the watchdog's per-thread diagnostics, matching the
/// progress-board slot layout (mappers first, then combiners).
pub(crate) fn thread_labels(num_workers: usize, num_combiners: usize) -> Vec<String> {
    (0..num_workers)
        .map(|m| format!("mapper[{m}]"))
        .chain((0..num_combiners).map(|c| format!("combiner[{c}]")))
        .collect()
}

/// The pipeline watchdog: samples the progress board until the run signals
/// `done`; if the board's total stops advancing for `period` while worker
/// threads are still live, it trips the cooperative cancel flag and returns
/// the [`RuntimeError::Stalled`] diagnosis.
///
/// Cancellation is *cooperative* — safe Rust cannot kill a thread — so a
/// wedged run only unwinds if its blocking points poll the flag. The
/// runtime's own waits all do (SPSC publishes, task claiming, combine
/// rounds, the controller); user map code can via
/// [`Emitter::is_cancelled`], which every task's emitter is wired to.
pub(crate) fn watchdog_loop(
    period: Duration,
    board: &ProgressBoard,
    labels: &[String],
    cancel: &AtomicBool,
    done: &AtomicBool,
) -> Option<RuntimeError> {
    let mut last_total = board.total();
    let mut last_change = Instant::now();
    loop {
        if done.load(Ordering::Acquire) {
            return None;
        }
        std::thread::sleep(WATCHDOG_SLICE.min(period));
        let total = board.total();
        if total != last_total || board.live_threads() == 0 {
            // Progress — or nothing left to watch (threads between phases).
            last_total = total;
            last_change = Instant::now();
            continue;
        }
        let idle = last_change.elapsed();
        if idle < period {
            continue;
        }
        cancel.store(true, Ordering::Release);
        let per_thread: Vec<String> = board
            .snapshot()
            .iter()
            .zip(labels)
            .map(|(count, label)| format!("{label}={count}"))
            .collect();
        let diagnostics = format!(
            "{} live worker thread(s); per-thread progress counts: {}",
            board.live_threads(),
            per_thread.join(" ")
        );
        return Some(RuntimeError::Stalled {
            phase: "map-combine".into(),
            idle_ms: idle.as_millis() as u64,
            diagnostics,
        });
    }
}

// ---------------------------------------------------------------------------
// The step bodies every role loop shares: one map task, one batched read,
// one combine round. The static and adaptive loops differ only in how they
// schedule these steps; what differs inside a step is a plain parameter
// (whether to read timers, whether to publish telemetry live).
// ---------------------------------------------------------------------------

/// One epoch of a job as every role loop sees it.
pub(crate) struct Epoch<'a, J: MapReduceJob> {
    pub(crate) job: &'a J,
    pub(crate) input: &'a [J::Input],
    pub(crate) config: &'a RuntimeConfig,
    pub(crate) queues: &'a TaskQueues,
    pub(crate) ctx: FaultCtx<'a>,
    /// The epoch's first error, shared by every worker thread.
    pub(crate) errors: &'a ErrorSlot,
}

/// A mapping thread's emission side: each emitted pair is hashed once,
/// buffered, and published to the thread's SPSC queue a block at a time.
///
/// The emit buffer is the producer-side mirror of the paper's batched read:
/// instead of one release store (and one cross-core cache-line transfer) per
/// pair, the consumer observes one tail update per `emit_block` pairs.
/// `emit_block == 1` degenerates to element-wise publication.
///
/// Instrumentation cost: timers fire once per map *task* and once per
/// block *flush* — never per pair, and only when `telemetry` is on. `busy`
/// is map time net of the flush time accrued inside the map call; `stalled`
/// is the flush time itself, which is dominated by waiting whenever the
/// queue is full. The counters (`items`, `stall_events`) are always exact.
struct Emission<'a, J: MapReduceJob> {
    tx: &'a mut PairProducer<J>,
    buffer: Vec<HashedPair<J>>,
    backoff: BackoffPolicy,
    emit_block: usize,
    hasher: HasherKind,
    telemetry: bool,
    wall_start: Option<Instant>,
    local: LocalTelemetry,
    emitted: u64,
    full_events: u64,
    epoch: &'a Epoch<'a, J>,
    cell: &'a TelemetryCell,
    /// Publish into `cell` after every task and block flush — so
    /// back-pressure stalls reach the adaptive controller promptly — rather
    /// than only once, at [`close`](Self::close).
    live: bool,
    /// This thread's progress-board slot.
    slot: usize,
}

impl<'a, J: MapReduceJob> Emission<'a, J> {
    fn new(
        tx: &'a mut PairProducer<J>,
        epoch: &'a Epoch<'a, J>,
        cell: &'a TelemetryCell,
        live: bool,
        slot: usize,
    ) -> Self {
        let config = epoch.config;
        let emit_block = config.effective_emit_buffer();
        Self {
            tx,
            buffer: Vec::with_capacity(emit_block),
            backoff: to_backoff(config.push_backoff),
            emit_block,
            hasher: config.hasher,
            telemetry: config.telemetry,
            wall_start: config.telemetry.then(Instant::now),
            local: LocalTelemetry::default(),
            emitted: 0,
            full_events: 0,
            epoch,
            cell,
            live,
            slot,
        }
    }

    /// Maps one task, publishing every block its emissions fill.
    ///
    /// Under fault-tolerant (staged) execution the task's emissions are
    /// staged per attempt and enter the buffer only after the map call
    /// succeeds, so a panicked (and retried) attempt publishes nothing.
    fn map_task(&mut self, task: &TaskRange) {
        let Epoch { job, input, ref ctx, .. } = *self.epoch;
        let stalled_before = self.local.stalled;
        let map_start = self.telemetry.then(Instant::now);
        let emitted = {
            let mut sink = |key: J::Key, value: J::Value| {
                // Hash once, here at emission: the carried hash rides the
                // queue and is reused by combine, bucketing and reduce.
                self.buffer.push((Hashed::wrap(self.hasher, key), value));
                if self.buffer.len() >= self.emit_block {
                    self.flush();
                }
            };
            if ctx.staged {
                let staged = phases::map_task_staged(
                    job,
                    task,
                    input,
                    ctx.retries,
                    ctx.skip_poison,
                    Some(ctx.cancel),
                    ctx.faults,
                );
                match staged {
                    Some((pairs, count)) => {
                        for (key, value) in pairs {
                            sink(key, value);
                        }
                        count
                    }
                    None => 0,
                }
            } else {
                let mut emitter = Emitter::with_cancel(&mut sink, ctx.cancel);
                job.map(&input[task.start..task.end], &mut emitter);
                emitter.emitted()
            }
        };
        self.emitted += emitted;
        ctx.progress(self.slot);
        if let Some(t) = map_start {
            // Useful map time: the whole call minus the flush/stall time
            // its emissions accrued.
            self.local.busy += t.elapsed().saturating_sub(self.local.stalled - stalled_before);
        }
        if self.live {
            self.publish();
        }
    }

    /// Publishes the buffered pairs as one block and records the flush; an
    /// empty buffer is a no-op, so a flex thread's repeated role checks stay
    /// free. Pushes must always succeed: discarding or overwriting elements
    /// would violate correctness (paper §III-A), so the flush loops with the
    /// configured backoff until the whole block is published, counting
    /// zero-progress attempts.
    fn flush(&mut self) {
        if self.buffer.is_empty() {
            return;
        }
        let occupied = self.buffer.len();
        let flush_start = self.telemetry.then(Instant::now);
        self.full_events +=
            publish_block(self.tx, &mut self.buffer, &self.backoff, self.epoch.ctx.push_cancel());
        self.epoch.ctx.progress(self.slot);
        if let Some(t) = flush_start {
            self.local.stalled += t.elapsed();
            self.local.batches += 1;
            self.local.occupancy.record(occupied, self.emit_block);
        }
        if self.live {
            // Mid-task, `items` still lags: the emitter owns the count
            // until the task ends.
            self.publish();
        }
    }

    fn publish(&mut self) {
        self.local.items = self.emitted;
        self.local.stall_events = self.full_events;
        if let Some(t) = self.wall_start {
            self.local.wall = t.elapsed();
        }
        self.cell.publish(&self.local);
    }

    /// Ends this thread's map phase: drain-flushes the partial block,
    /// publishes the final telemetry and closes the queue. The flush comes
    /// *before* the close — the combining side treats closed+empty as
    /// end-of-stream — and `finish` (rather than drop) keeps the producer
    /// handle alive for the session's next epoch.
    fn close(mut self) {
        self.flush();
        self.publish();
        self.tx.finish();
    }
}

/// One batched read from `rx` (paper §III-A): while the producer runs
/// (`closed` is false) only a full batch of `batch` elements is taken — "the
/// buffer is divided into blocks of elements that are processed
/// contiguously" — and once it has closed any remainder is drained, partial
/// batches included. Read `closed` *before* the call: a queue observed
/// closed and then drained to empty can never produce again.
///
/// Panic containment is per *batch*: one `catch_unwind` wraps the read, not
/// each element. The consumed count advances before each insert, so on an
/// unwind mid-batch it still equals the number of elements the queue's head
/// passed (see [`Consumer::pop_batch`]) and conservation stays exact. A
/// panicking combine function or a failed insert comes back as the error:
/// a combining thread that died would leave its queues undrained and the
/// blocked mappers would never terminate.
///
/// `container: None` is discard mode, used after an error: the read
/// consumes and counts elements without inserting them.
fn batched_read<J: MapReduceJob>(
    rx: &mut PairConsumer<J>,
    closed: bool,
    batch: usize,
    container: Option<&mut HashedJobContainer<'_, J>>,
) -> (usize, Option<RuntimeError>) {
    fn pop<T: Send>(rx: &mut Consumer<T>, closed: bool, batch: usize, f: impl FnMut(T)) -> usize {
        if closed {
            rx.pop_batch(batch, f)
        } else if rx.pop_batch_exact(batch, f) {
            batch
        } else {
            0
        }
    }
    let Some(container) = container else {
        return (pop(rx, closed, batch, |_| {}), None);
    };
    let counted = std::cell::Cell::new(0usize);
    let mut insert_err: Option<RuntimeError> = None;
    let outcome = {
        let mut insert = |pair: HashedPair<J>| {
            counted.set(counted.get() + 1);
            if insert_err.is_none() {
                if let Err(e) = container.insert(pair.0, pair.1) {
                    insert_err = Some(e);
                }
            }
        };
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pop(rx, closed, batch, &mut insert)
        }))
    };
    let error = match outcome {
        Err(panic) => Some(RuntimeError::WorkerPanic(phases::panic_message(&*panic))),
        Ok(_) => insert_err,
    };
    (counted.get(), error)
}

/// Outcome of one combine round.
enum Round {
    /// Consumed at least one batch of pairs.
    Progress,
    /// Nothing ready (or no consumer available): back off.
    Idle,
    /// Every pipeline is closed and drained — combining is over.
    Done,
}

/// One idle-round wait, derived from the configured producer-side backoff
/// so both ends of each pipeline degrade symmetrically: spin briefly after
/// the last progress (data may be one block away), then park instead of
/// burning the core a co-located mapper may need. The park ends when a
/// queue this thread announced itself on ([`Combining::watch`]) receives a
/// full batch or closes, and at the latest after the backoff's `sleep`; a
/// `ready` queue, one that filled between the read and the announcement,
/// skips it. `BusyWait` spins and yields periodically so a co-scheduled
/// mapper can actually fill the queue — mirroring the producer-side
/// BUSY_WAIT_YIELD_EVERY escape hatch.
fn idle_wait(backoff: PushBackoff, idle_rounds: u32, ready: bool) {
    match backoff {
        PushBackoff::SpinThenSleep { spins, sleep } if idle_rounds > spins && !ready => {
            std::thread::park_timeout(sleep)
        }
        PushBackoff::BusyWait if idle_rounds.is_multiple_of(64) => std::thread::yield_now(),
        _ => std::hint::spin_loop(),
    }
}

/// A combining thread's state across rounds: its container, telemetry,
/// idle backoff and live-publish cadence. The static combiner and every
/// adaptive combining thread (dedicated combiners, flex threads in combine
/// help) drive it through [`read`](Self::read) and
/// [`end_round`](Self::end_round).
///
/// Instrumentation cost: two timer reads per *round*, never per pair, and
/// only when `telemetry` is on. A round that consumed anything counts as
/// `busy`; a zero-progress round (including its spin/sleep backoff) counts
/// as `stalled`, so busy + stalled tracks the thread's wall-clock.
struct Combining<'a, J: MapReduceJob> {
    epoch: &'a Epoch<'a, J>,
    container: Option<HashedJobContainer<'a, J>>,
    telemetry: bool,
    wall_start: Option<Instant>,
    local: LocalTelemetry,
    idle_rounds: u32,
    /// A queue [`watch`](Self::watch)ed this round already holds what the
    /// announcement asked for, so the round's idle wait must not park.
    ready: bool,
    cell: &'a TelemetryCell,
    /// Publish into `cell` every [`LIVE_PUBLISH_ROUNDS`] rounds, with `wall`
    /// refreshed so the controller's windows see current totals, rather
    /// than only once, at [`finish`](Self::finish).
    live: bool,
    rounds_since_publish: u32,
    /// This thread's progress-board slot.
    slot: usize,
}

impl<'a, J: MapReduceJob> Combining<'a, J> {
    fn new(epoch: &'a Epoch<'a, J>, cell: &'a TelemetryCell, live: bool, slot: usize) -> Self {
        let config = epoch.config;
        Self {
            epoch,
            container: None,
            telemetry: config.telemetry,
            wall_start: config.telemetry.then(Instant::now),
            local: LocalTelemetry::default(),
            idle_rounds: 0,
            ready: false,
            cell,
            live,
            rounds_since_publish: 0,
            slot,
        }
    }

    /// The thread's container, built on first use: a flex thread that is
    /// never promoted and finds the pipelines already drained never
    /// allocates one.
    fn ensure_container(&mut self) -> Result<(), RuntimeError> {
        if self.container.is_none() {
            let Epoch { job, config, .. } = *self.epoch;
            self.container =
                Some(HashedJobContainer::for_job(job, config.container, config.fixed_capacity)?);
        }
        Ok(())
    }

    /// One [`batched_read`] from `rx` into the container, or in discard
    /// mode. An idle read of a queue that is still open
    /// [`watch`](Self::watch)es it. Returns the elements consumed, whether
    /// `rx` is now closed and drained, and the read's error, if any.
    fn read(
        &mut self,
        rx: &mut PairConsumer<J>,
        batch: usize,
        discard: bool,
    ) -> (usize, bool, Option<RuntimeError>) {
        // Read the close flag BEFORE consuming (see `batched_read`).
        let closed = rx.is_closed();
        let container = if discard { None } else { self.container.as_mut() };
        let (consumed, error) = batched_read(rx, closed, batch, container);
        if consumed > 0 {
            self.local.items += consumed as u64;
            self.epoch.ctx.progress(self.slot);
            if self.telemetry {
                self.local.batches += 1;
                self.local.occupancy.record(consumed, batch);
            }
        }
        let drained = closed && rx.is_empty();
        if consumed == 0 && !drained {
            self.watch(rx, batch);
        }
        (consumed, drained, error)
    }

    /// Announces this thread as the waiter on `rx`, which an idle read just
    /// left short of a full batch, so the producer's next full batch or its
    /// close ends this round's park. The adaptive round reads before its
    /// check-in, so the announcement is made while the thread still holds
    /// the consumer. Only rounds that will park announce; spinning rounds
    /// stay free of the announcement's lock and fence.
    fn watch(&mut self, rx: &mut PairConsumer<J>, batch: usize) {
        let parks = match self.epoch.config.push_backoff {
            PushBackoff::SpinThenSleep { spins, .. } => self.idle_rounds >= spins,
            PushBackoff::BusyWait => false,
        };
        if parks && rx.announce_wait(batch) {
            self.ready = true;
        }
    }

    fn round_start(&self) -> Option<Instant> {
        self.telemetry.then(Instant::now)
    }

    /// Accounts one round begun at `round_start` — backing off first when
    /// it was idle — and returns whether combining goes on.
    fn end_round(&mut self, round: Round, round_start: Option<Instant>) -> bool {
        let ready = std::mem::take(&mut self.ready);
        let progressed = match round {
            Round::Done => return false,
            Round::Progress => {
                self.idle_rounds = 0;
                true
            }
            Round::Idle => {
                self.local.stall_events += 1;
                self.idle_rounds = self.idle_rounds.saturating_add(1);
                idle_wait(self.epoch.config.push_backoff, self.idle_rounds, ready);
                false
            }
        };
        if let Some(t) = round_start {
            // The backoff is inside the measured round, so idle waits land
            // in `stalled`.
            let elapsed = t.elapsed();
            if progressed {
                self.local.busy += elapsed;
            } else {
                self.local.stalled += elapsed;
            }
        }
        if self.live {
            self.rounds_since_publish += 1;
            if self.rounds_since_publish >= LIVE_PUBLISH_ROUNDS {
                self.rounds_since_publish = 0;
                self.publish();
            }
        }
        true
    }

    /// One combine round under the adaptive runtime: check a consumer out of
    /// the registry, perform one batched read, check the consumer back in
    /// (or retire it when closed and drained), and account the round.
    /// Returns whether combining goes on.
    ///
    /// Holding each consumer for a single batch is what lets the set of
    /// combining threads change between rounds. The batch size is re-read
    /// from [`AdaptiveCtl`] every round, which is how the controller's batch
    /// decisions take effect; after any thread records an epoch error, every
    /// round reads in discard mode.
    fn adaptive_round(&mut self, adaptive: &Adaptive<J>) -> bool {
        let round_start = self.round_start();
        let round = self.registry_read(adaptive);
        self.end_round(round, round_start)
    }

    fn registry_read(&mut self, adaptive: &Adaptive<J>) -> Round {
        let Adaptive { registry, ctl } = adaptive;
        let errors = self.epoch.errors;
        if registry.all_done() {
            return Round::Done;
        }
        let Some(mut rx) = registry.checkout() else {
            // Every consumer is momentarily held by other combining threads —
            // or the last one was just retired; disambiguate so callers exit.
            return if registry.all_done() { Round::Done } else { Round::Idle };
        };
        let discard = errors.tripped();
        if !discard {
            if let Err(e) = self.ensure_container() {
                errors.record(e);
                registry.checkin(rx);
                return Round::Idle;
            }
        }
        let batch = ctl.batch.load(Ordering::Relaxed).max(1);
        let (consumed, drained, error) = self.read(&mut rx, batch, discard);
        if let Some(e) = error {
            errors.record(e);
        }
        if drained {
            // Close observed before the final drain: this pipeline can never
            // produce again *this run*. Park the consumer on the retired list
            // and count it out of circulation.
            registry.retire(rx);
        } else {
            registry.checkin(rx);
        }
        if consumed > 0 {
            Round::Progress
        } else {
            Round::Idle
        }
    }

    fn publish(&mut self) {
        if let Some(t) = self.wall_start {
            self.local.wall = t.elapsed();
        }
        self.cell.publish(&self.local);
    }

    /// Ends this thread's combining: publishes the final telemetry and
    /// drains the container into the pair list handed to reduce.
    fn finish(mut self) -> phases::HashedPairs<J> {
        self.publish();
        let mut pairs = Vec::new();
        if let Some(mut container) = self.container.take() {
            container.drain_into(&mut pairs);
        }
        pairs
    }
}

// ---------------------------------------------------------------------------
// Static scheduling: each mapper feeds one queue, and each combiner owns the
// queues the placement plan pairs with it for the whole run.
// ---------------------------------------------------------------------------

/// One mapper's loop: pull tasks from the locality-grouped queues and map
/// them through this mapper's [`Emission`], then drain-flush and close the
/// queue. Publishes its counters and (when telemetry is on) wall-clock
/// telemetry into `cell` once, at exit.
pub(crate) fn mapper_loop<J: MapReduceJob>(
    epoch: &Epoch<'_, J>,
    home_group: usize,
    tx: &mut PairProducer<J>,
    cell: &TelemetryCell,
    slot: usize,
) {
    let mut emission = Emission::new(tx, epoch, cell, false, slot);
    while let Some(task) = epoch.queues.claim(home_group) {
        if epoch.ctx.cancelled() {
            break;
        }
        emission.map_task(task);
    }
    emission.close();
}

/// One combiner's loop: round-robin over its assigned queues, consuming
/// full batches while mappers run, then draining remainders after the map
/// phase ends. Publishes its counters and (when telemetry is on)
/// wall-clock telemetry into `cell` once, at exit.
///
/// The first error — a panicking combine function, a container overflow —
/// is kept and returned at the end; every later batch drains in discard
/// mode so blocked mappers still terminate.
pub(crate) fn combiner_loop<J: MapReduceJob>(
    epoch: &Epoch<'_, J>,
    consumers: &mut [PairConsumer<J>],
    cell: &TelemetryCell,
    slot: usize,
) -> Result<phases::HashedPairs<J>, RuntimeError> {
    let mut combining = Combining::new(epoch, cell, false, slot);
    combining.ensure_container()?;
    let mut first_error: Option<RuntimeError> = None;
    // Watchdog cancellation abandons the drain: the run is being torn down
    // and its partial results discarded.
    while !epoch.ctx.cancelled() {
        let round_start = combining.round_start();
        let mut progressed = false;
        let mut all_done = true;
        for rx in consumers.iter_mut() {
            let (consumed, drained, error) =
                combining.read(rx, epoch.config.batch_size, first_error.is_some());
            if let Some(e) = error {
                first_error.get_or_insert(e);
            }
            progressed |= consumed > 0;
            all_done &= drained;
        }
        let round = match (progressed, all_done) {
            (true, _) => Round::Progress,
            (false, true) => Round::Done,
            (false, false) => Round::Idle,
        };
        if !combining.end_round(round, round_start) || all_done {
            break;
        }
    }
    let pairs = combining.finish();
    first_error.map_or(Ok(pairs), Err)
}

// ---------------------------------------------------------------------------
// Adaptive execution: flex threads, a shared consumer registry and an online
// controller acting on live telemetry (the OS4M-style mid-run rebalancing).
// ---------------------------------------------------------------------------

/// Combine rounds a combining thread performs between live telemetry
/// publishes. Small enough that the controller's sampling windows are never
/// starved of fresh totals, large enough that publishing (a handful of
/// relaxed stores) stays invisible next to the batched reads themselves.
const LIVE_PUBLISH_ROUNDS: u32 = 8;

/// Longest single sleep of the controller thread. The controller sleeps its
/// interval in slices, re-checking the registry's retired count, so run
/// teardown never waits out a full `adapt_interval`.
const CONTROLLER_SLICE: Duration = Duration::from_micros(500);

/// The shared pool of pipeline read-ends under the adaptive runtime.
///
/// The static path assigns each consumer to one combiner for the whole run;
/// here the assignment must survive threads switching roles, so a combining
/// thread *checks out* a consumer, performs one batched read and checks it
/// back in. A consumer observed closed and drained is retired instead, and
/// `live` reaching zero is the global end-of-stream signal (replacing the
/// static path's per-combiner closed-queue detection).
pub(crate) struct QueueRegistry<J: MapReduceJob> {
    pool: Mutex<VecDeque<PairConsumer<J>>>,
    /// Read-ends observed closed and drained: out of circulation for this
    /// run, but *kept* — a persistent session reclaims and re-arms them for
    /// the next job instead of reallocating the queues.
    retired: Mutex<Vec<PairConsumer<J>>>,
    /// Pipelines not yet retired. Starts at `num_workers`, strictly
    /// decreasing; zero means every pair ever emitted has been consumed.
    live: AtomicUsize,
}

impl<J: MapReduceJob> QueueRegistry<J> {
    pub(crate) fn new(consumers: Vec<PairConsumer<J>>) -> Self {
        let live = AtomicUsize::new(consumers.len());
        Self {
            pool: Mutex::new(consumers.into_iter().collect()),
            retired: Mutex::new(Vec::new()),
            live,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, VecDeque<PairConsumer<J>>> {
        // The lock guards only VecDeque operations — no user code runs under
        // it — so a poisoned mutex still holds a structurally valid pool.
        self.pool.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn checkout(&self) -> Option<PairConsumer<J>> {
        self.lock().pop_front()
    }

    fn checkin(&self, rx: PairConsumer<J>) {
        self.lock().push_back(rx);
    }

    fn retire(&self, rx: PairConsumer<J>) {
        self.retired.lock().unwrap_or_else(std::sync::PoisonError::into_inner).push(rx);
        self.live.fetch_sub(1, Ordering::AcqRel);
    }

    pub(crate) fn all_done(&self) -> bool {
        self.live.load(Ordering::Acquire) == 0
    }

    /// Tears the registry down, returning every consumer it ever held —
    /// pooled and retired alike. Only meaningful once the run is over (all
    /// combining threads quiescent); the session uses this to carry the
    /// read-ends into the next job.
    pub(crate) fn into_consumers(self) -> Vec<PairConsumer<J>> {
        let mut all: Vec<PairConsumer<J>> = self
            .pool
            .into_inner()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .into_iter()
            .collect();
        all.extend(self.retired.into_inner().unwrap_or_else(std::sync::PoisonError::into_inner));
        all
    }
}

/// First-error containment for a whole epoch, shared by every worker thread.
///
/// A static combiner keeps its own first error until its loop ends; the
/// session then records it here. Adaptive combining threads record errors
/// here directly, because with role mobility the slot must be global.
/// After any thread records an error, every later adaptive round drains the
/// pipelines in discard mode, so blocked mappers still terminate — the
/// invariant [`combiner_loop`] keeps per thread.
#[derive(Default)]
pub(crate) struct ErrorSlot {
    tripped: AtomicBool,
    slot: Mutex<Option<RuntimeError>>,
    /// Worker errors recorded after the slot was occupied. Kept as a count
    /// so first-error containment no longer *silently* discards them — the
    /// surfaced error's message carries the tally.
    suppressed: AtomicU64,
}

impl ErrorSlot {
    pub(crate) fn record(&self, err: RuntimeError) {
        let mut slot = self.slot.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        if slot.is_some() {
            self.suppressed.fetch_add(1, Ordering::Relaxed);
        } else {
            *slot = Some(err);
        }
        self.tripped.store(true, Ordering::Release);
    }

    fn tripped(&self) -> bool {
        self.tripped.load(Ordering::Acquire)
    }

    pub(crate) fn take(&self) -> Option<RuntimeError> {
        self.slot.lock().unwrap_or_else(std::sync::PoisonError::into_inner).take()
    }

    /// Errors recorded behind the first one.
    pub(crate) fn suppressed(&self) -> u64 {
        self.suppressed.load(Ordering::Relaxed)
    }
}

/// The controller's write surface: one role flag per flex thread plus the
/// shared batched-read size. All accesses are relaxed — a worker acting on a
/// stale role or batch size for a few rounds is still correct, just briefly
/// suboptimal, and the controller is the only writer.
pub(crate) struct AdaptiveCtl {
    /// `combining[m]` re-rolls flex thread `m` from mapping to combine help;
    /// clearing it sends the thread back to the task queues.
    combining: Vec<AtomicBool>,
    /// Current batched-read size (elements per combine round).
    batch: AtomicUsize,
}

impl AdaptiveCtl {
    pub(crate) fn new(num_flex: usize, batch: usize) -> Self {
        Self::seeded(num_flex, batch, 0)
    }

    /// A control surface whose starting split already has `extra` flex
    /// threads combining — the pipeline's ratio carry-forward. The seeded
    /// helpers form a *suffix* of the flex pool, exactly the shape the
    /// controller's promote-highest / demote-lowest policy maintains, so a
    /// seeded epoch is indistinguishable from one the controller steered to
    /// the same split.
    pub(crate) fn seeded(num_flex: usize, batch: usize, extra: usize) -> Self {
        let extra = extra.min(num_flex.saturating_sub(1));
        Self {
            combining: (0..num_flex).map(|m| AtomicBool::new(m >= num_flex - extra)).collect(),
            batch: AtomicUsize::new(batch),
        }
    }
}

/// One adaptive epoch's shared surfaces: the registry the combining threads
/// check read-ends out of, and the controller's write surface — rebuilt
/// each epoch, so job N's role changes never leak into job N+1.
pub(crate) struct Adaptive<J: MapReduceJob> {
    pub(crate) registry: QueueRegistry<J>,
    pub(crate) ctl: AdaptiveCtl,
}

/// A dedicated combiner under the adaptive runtime: combine rounds until
/// every pipeline is retired. Role-fixed — the controller only re-rolls flex
/// threads — and error-contained through the shared [`ErrorSlot`], so this
/// loop itself is infallible. Publishes telemetry live and once at exit.
pub(crate) fn adaptive_combiner_loop<J: MapReduceJob>(
    epoch: &Epoch<'_, J>,
    adaptive: &Adaptive<J>,
    cell: &TelemetryCell,
    slot: usize,
) -> phases::HashedPairs<J> {
    let mut combining = Combining::new(epoch, cell, true, slot);
    while !epoch.ctx.cancelled() && combining.adaptive_round(adaptive) {}
    combining.finish()
}

/// One flex thread: starts as a mapper over the locality-grouped task
/// queues; whenever the controller sets its role flag it helps combine
/// instead, and whenever the flag clears it goes back to mapping. Once task
/// hand-out ends it drain-flushes its emit buffer, closes its pipeline and
/// joins the combine pool until every pipeline is retired — the decoupled
/// pools of Fig 2, with a controller-movable boundary between them.
///
/// Phase structure, which is what makes role mobility deadlock-free:
///
/// - **Phase A** (own queue open): map a task, or perform combine rounds
///   while re-rolled. The emission queue must stay open because the thread
///   may map again at any time; end-of-stream therefore cannot be reached
///   while any thread is in phase A, and a re-rolled thread leaves the
///   phase only when the task queues are exhausted (at least one flex
///   thread always keeps mapping — [`AdaptiveBounds`] guarantees it — so
///   exhaustion always arrives).
/// - **Phase B** (own queue closed): help drain every remaining pipeline.
///   Threads the controller never re-rolled help here too; this is the
///   static path's "drain remainders" tail parallelised over all threads.
///
/// Two telemetry cells keep the pools separable: map work publishes into
/// `map_cell` — after every task *and* every block flush, so back-pressure
/// stalls reach the controller promptly — and combine help into
/// `combine_cell`. A re-rolled thread therefore never pollutes the map
/// pool's throughput estimate.
pub(crate) fn flex_loop<J: MapReduceJob>(
    epoch: &Epoch<'_, J>,
    adaptive: &Adaptive<J>,
    home_group: usize,
    index: usize,
    tx: &mut PairProducer<J>,
    map_cell: &TelemetryCell,
    combine_cell: &TelemetryCell,
) -> phases::HashedPairs<J> {
    let mut emission = Emission::new(tx, epoch, map_cell, true, index);
    let mut combining = Combining::new(epoch, combine_cell, true, index);

    // Phase A: map, or help combine while re-rolled.
    while !epoch.ctx.cancelled() {
        if adaptive.ctl.combining[index].load(Ordering::Relaxed) {
            // Entering (or continuing) combine help: flush buffered
            // emissions first so no pairs sit unpublished while this thread
            // stops producing.
            emission.flush();
            if epoch.queues.is_exhausted() || !combining.adaptive_round(adaptive) {
                break;
            }
        } else {
            let Some(task) = epoch.queues.claim(home_group) else { break };
            emission.map_task(task);
        }
    }

    // Map phase over for this thread: the close is the retire signal the
    // combine rounds watch for.
    emission.close();

    // Phase B: help drain every remaining pipeline.
    while !epoch.ctx.cancelled() && combining.adaptive_round(adaptive) {}
    combining.finish()
}

/// The online controller: every `adapt_interval` it snapshots the live
/// telemetry cells, forms per-window deltas ([`ThreadTelemetry::delta_since`])
/// and applies one bounded [`decide`] step — re-rolling a flex thread
/// between the pools and/or re-sizing the batched read. Exits as soon as
/// every pipeline is retired.
///
/// One [`AdaptationEvent`] is recorded per completed interval, holds
/// included, so the trace documents why the run stayed put as well as why
/// it moved. The controller is the only role/batch writer, so its local
/// `active_combiners` count cannot drift from the flags.
pub(crate) fn controller_loop<J: MapReduceJob>(
    config: &RuntimeConfig,
    bounds: AdaptiveBounds,
    Adaptive { registry, ctl }: &Adaptive<J>,
    map_cells: &[TelemetryCell],
    flex_combine_cells: &[TelemetryCell],
    dedicated_cells: &[TelemetryCell],
    cancel: &AtomicBool,
) -> Vec<AdaptationEvent> {
    let started = Instant::now();
    let mut trace = Vec::new();
    let snapshot_all = || {
        let mappers: Vec<ThreadTelemetry> = map_cells
            .iter()
            .enumerate()
            .map(|(m, cell)| cell.snapshot(ThreadRole::Mapper, m))
            .collect();
        let combiners: Vec<ThreadTelemetry> = dedicated_cells
            .iter()
            .chain(flex_combine_cells)
            .enumerate()
            .map(|(c, cell)| cell.snapshot(ThreadRole::Combiner, c))
            .collect();
        (mappers, combiners)
    };
    let (mut prev_map, mut prev_combine) = snapshot_all();
    // Derive the starting split from the control surface rather than the
    // static config: a pipeline-seeded epoch (see `AdaptiveCtl::seeded`)
    // begins at the previous stage's converged split, and an unseeded one
    // reduces to exactly `config.num_combiners` / `config.batch_size`.
    let mut active_combiners = config.num_combiners
        + ctl.combining.iter().filter(|flag| flag.load(Ordering::Relaxed)).count();
    let mut batch = ctl.batch.load(Ordering::Relaxed).max(1);
    loop {
        let deadline = Instant::now() + config.adapt_interval;
        loop {
            // Watchdog cancellation ends the run without the registry ever
            // fully retiring — the controller must not out-wait it.
            if registry.all_done() || cancel.load(Ordering::Relaxed) {
                return trace;
            }
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            std::thread::sleep(CONTROLLER_SLICE.min(deadline - now));
        }
        let (map_now, combine_now) = snapshot_all();
        let map_window: Vec<ThreadTelemetry> =
            map_now.iter().zip(&prev_map).map(|(now, prev)| now.delta_since(prev)).collect();
        let combine_window: Vec<ThreadTelemetry> = combine_now
            .iter()
            .zip(&prev_combine)
            .map(|(now, prev)| now.delta_since(prev))
            .collect();
        let observation = PoolObservation::from_windows(&map_window, &combine_window);
        let decision = decide(&observation, active_combiners, batch, &bounds);
        if decision.batch_size != batch {
            batch = decision.batch_size;
            ctl.batch.store(batch, Ordering::Relaxed);
        }
        match decision.combiner_step {
            step if step > 0 => {
                // Promote the highest-indexed flex thread still mapping, so
                // the helpers always form a suffix of the flex pool…
                if let Some(m) = (0..ctl.combining.len())
                    .rev()
                    .find(|&m| !ctl.combining[m].load(Ordering::Relaxed))
                {
                    ctl.combining[m].store(true, Ordering::Relaxed);
                    active_combiners += 1;
                }
            }
            step if step < 0 => {
                // …and demote the lowest-indexed helper, preserving it.
                if let Some(m) =
                    (0..ctl.combining.len()).find(|&m| ctl.combining[m].load(Ordering::Relaxed))
                {
                    ctl.combining[m].store(false, Ordering::Relaxed);
                    active_combiners -= 1;
                }
            }
            _ => {}
        }
        trace.push(AdaptationEvent {
            at: started.elapsed(),
            active_mappers: bounds.total_threads() - active_combiners,
            active_combiners,
            batch_size: batch,
            observation,
            reason: decision.reason,
        });
        prev_map = map_now;
        prev_combine = combine_now;
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::AtomicU32;

    use super::*;
    use crate::engine::{Backend, Engine, EngineReport};
    use crate::session::RamrSession;
    use mr_core::{ContainerKind, PhaseKind};
    use ramr_topology::MachineModel;

    struct Mod9;

    impl MapReduceJob for Mod9 {
        type Input = u64;
        type Key = u64;
        type Value = u64;

        fn map(&self, task: &[u64], emit: &mut Emitter<'_, u64, u64>) {
            for &x in task {
                emit.emit(x % 9, x);
            }
        }

        fn combine(&self, acc: &mut u64, v: u64) {
            *acc += v;
        }

        fn key_space(&self) -> Option<usize> {
            Some(9)
        }

        fn key_index(&self, k: &u64) -> usize {
            *k as usize
        }

        fn name(&self) -> &str {
            "mod9"
        }
    }

    fn reference(input: &[u64]) -> Vec<(u64, u64)> {
        let mut sums = std::collections::BTreeMap::new();
        for &x in input {
            *sums.entry(x % 9).or_insert(0u64) += x;
        }
        sums.into_iter().collect()
    }

    /// Runs `job` through the engine front door (one epoch of a one-shot
    /// session) and hands the report back in the [`RunReport`] shape the
    /// assertions below read.
    fn run_with_report<J: MapReduceJob + 'static>(
        cfg: RuntimeConfig,
        job: &J,
        input: &[J::Input],
    ) -> Result<ReportedOutput<J>, RuntimeError> {
        let outcome = Backend::of_ramr_config(&cfg).engine(cfg)?.submit(job, input)?;
        Ok((outcome.output, run_report(outcome.report)))
    }

    fn run<J: MapReduceJob + 'static>(
        cfg: RuntimeConfig,
        job: &J,
        input: &[J::Input],
    ) -> Result<JobOutput<J::Key, J::Value>, RuntimeError> {
        run_with_report(cfg, job, input).map(|(output, _)| output)
    }

    /// Splits a RAMR [`EngineReport`] back into the per-role vectors it was
    /// assembled from (mappers' items and full events, combiners' items).
    fn run_report(report: EngineReport) -> RunReport {
        let (mapper_telemetry, combiner_telemetry): (Vec<_>, Vec<_>) =
            report.threads.into_iter().partition(|t| t.role == ThreadRole::Mapper);
        RunReport {
            plan: report.plan.expect("RAMR reports carry their placement plan"),
            emitted_per_mapper: mapper_telemetry.iter().map(|t| t.items).collect(),
            full_events_per_mapper: mapper_telemetry.iter().map(|t| t.stall_events).collect(),
            consumed_per_combiner: combiner_telemetry.iter().map(|t| t.items).collect(),
            mapper_telemetry,
            combiner_telemetry,
            adaptation: report.adaptation,
            faults: report.faults,
        }
    }

    fn config(workers: usize, combiners: usize) -> RuntimeConfig {
        RuntimeConfig::builder()
            .num_workers(workers)
            .num_combiners(combiners)
            .task_size(17)
            .queue_capacity(64)
            .batch_size(8)
            .num_reducers(3)
            .build()
            .unwrap()
    }

    #[test]
    fn matches_sequential_reference() {
        let input: Vec<u64> = (1..=20_000).collect();
        let out = run(config(4, 2), &Mod9, &input).unwrap();
        assert_eq!(out.pairs, reference(&input));
    }

    #[test]
    fn all_container_kinds_agree() {
        let input: Vec<u64> = (0..5000).map(|i| i * 31 % 4096).collect();
        let expected = reference(&input);
        for kind in ContainerKind::ALL {
            let mut cfg = config(3, 3);
            cfg.container = kind;
            let out = run(cfg, &Mod9, &input).unwrap();
            assert_eq!(out.pairs, expected, "container {kind}");
        }
    }

    #[test]
    fn ratio_sweep_preserves_results() {
        let input: Vec<u64> = (0..10_000).collect();
        let expected = reference(&input);
        for (workers, combiners) in [(1, 1), (2, 1), (3, 1), (4, 2), (6, 2), (8, 8)] {
            let out = run(config(workers, combiners), &Mod9, &input).unwrap();
            assert_eq!(out.pairs, expected, "workers={workers} combiners={combiners}");
        }
    }

    #[test]
    fn batch_size_sweep_preserves_results() {
        let input: Vec<u64> = (0..8000).collect();
        let expected = reference(&input);
        for batch in [1usize, 2, 7, 16, 33, 64] {
            let mut cfg = config(4, 2);
            cfg.batch_size = batch;
            let out = run(cfg, &Mod9, &input).unwrap();
            assert_eq!(out.pairs, expected, "batch={batch}");
        }
    }

    #[test]
    fn emit_buffer_sweep_preserves_results_and_conservation() {
        let input: Vec<u64> = (0..8000).collect();
        let expected = reference(&input);
        // 1 = element-wise, 2, batch_size (8), queue_capacity (64).
        for emit in [1usize, 2, 8, 64] {
            let mut cfg = config(4, 2);
            cfg.emit_buffer_size = Some(emit);
            let (out, report) = run_with_report(cfg, &Mod9, &input).unwrap();
            assert_eq!(out.pairs, expected, "emit_buffer={emit}");
            let emitted: u64 = report.emitted_per_mapper.iter().sum();
            let consumed: u64 = report.consumed_per_combiner.iter().sum();
            assert_eq!(emitted, 8000, "emit_buffer={emit}");
            assert_eq!(consumed, emitted, "conservation with emit_buffer={emit}");
        }
    }

    #[test]
    fn element_wise_emit_buffer_matches_default() {
        let input: Vec<u64> = (0..12_000).map(|i| i * 13 % 5000).collect();
        let mut element_wise = config(4, 2);
        element_wise.emit_buffer_size = Some(1);
        let a = run(element_wise, &Mod9, &input).unwrap();
        let b = run(config(4, 2), &Mod9, &input).unwrap();
        assert_eq!(a.pairs, b.pairs);
    }

    #[test]
    fn tiny_queue_capacity_forces_blocking_but_stays_correct() {
        let input: Vec<u64> = (0..5000).collect();
        let mut cfg = config(4, 1);
        cfg.queue_capacity = 2;
        cfg.batch_size = 2;
        let out = run(cfg, &Mod9, &input).unwrap();
        assert_eq!(out.pairs, reference(&input));
        assert!(
            out.stats.queue_full_events > 0,
            "a 2-element queue must overflow with 5000 pushes"
        );
    }

    #[test]
    fn busy_wait_backoff_is_also_correct() {
        let input: Vec<u64> = (0..3000).collect();
        let mut cfg = config(2, 1);
        cfg.queue_capacity = 4;
        cfg.batch_size = 4;
        cfg.push_backoff = PushBackoff::BusyWait;
        let out = run(cfg, &Mod9, &input).unwrap();
        assert_eq!(out.pairs, reference(&input));
    }

    #[test]
    fn empty_input_terminates_cleanly() {
        let out = run(config(4, 2), &Mod9, &[]).unwrap();
        assert!(out.is_empty());
        assert_eq!(out.stats.emitted, 0);
    }

    #[test]
    fn mapper_panic_is_surfaced_and_does_not_hang() {
        struct Panics;
        impl MapReduceJob for Panics {
            type Input = u64;
            type Key = u64;
            type Value = u64;
            fn map(&self, _: &[u64], _: &mut Emitter<'_, u64, u64>) {
                panic!("mapper exploded");
            }
            fn combine(&self, _: &mut u64, _: u64) {}
            fn key_space(&self) -> Option<usize> {
                Some(1)
            }
            fn key_index(&self, _: &u64) -> usize {
                0
            }
        }
        let err = run(config(2, 1), &Panics, &[1, 2, 3]).unwrap_err();
        assert!(matches!(err, RuntimeError::WorkerPanic(ref m) if m.contains("mapper exploded")));
    }

    #[test]
    fn container_overflow_drains_pipeline_and_reports() {
        let mut cfg = config(4, 2);
        cfg.container = ContainerKind::FixedHash;
        cfg.fixed_capacity = Some(2);
        let input: Vec<u64> = (0..10_000).collect(); // 9 distinct keys > 2
        let err = run(cfg, &Mod9, &input).unwrap_err();
        assert!(matches!(err, RuntimeError::ContainerOverflow { capacity: 2, .. }));
    }

    #[test]
    fn placement_is_inspectable() {
        let session =
            RamrSession::<Mod9>::with_machine(config(8, 4), MachineModel::fig3_demo()).unwrap();
        let plan = session.placement();
        assert_eq!(plan.num_mappers(), 8);
        assert_eq!(plan.num_combiners(), 4);
        assert_eq!(session.machine().name, "fig3-demo");
    }

    #[test]
    fn stats_report_phase_times_and_counters() {
        let input: Vec<u64> = (0..50_000).collect();
        let out = run(config(4, 2), &Mod9, &input).unwrap();
        assert_eq!(out.stats.emitted, 50_000);
        assert_eq!(out.stats.output_keys, 9);
        assert!(out.stats.map_combine > Duration::ZERO);
        // The map-combine phase dominates for this job shape (Fig 1).
        assert!(out.stats.fraction(PhaseKind::MapCombine) > 0.3);
    }

    #[test]
    fn run_report_accounts_for_every_pair() {
        let input: Vec<u64> = (0..40_000).collect();
        let (out, report) = run_with_report(config(4, 2), &Mod9, &input).unwrap();
        assert_eq!(out.pairs, reference(&input));
        assert_eq!(report.emitted_per_mapper.len(), 4);
        assert_eq!(report.consumed_per_combiner.len(), 2);
        let emitted: u64 = report.emitted_per_mapper.iter().sum();
        let consumed: u64 = report.consumed_per_combiner.iter().sum();
        assert_eq!(emitted, 40_000, "every input element emits once");
        assert_eq!(consumed, emitted, "conservation: all pairs consumed");
        assert!(report.back_pressure() >= 0.0);
        assert_eq!(report.plan.num_mappers(), 4);
    }

    /// Opaque busy-work whose loop the optimizer cannot elide; used to give
    /// synthetic jobs a controllable map/combine cost.
    fn spin_work(iters: u64) -> u64 {
        let mut acc = iters.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        for _ in 0..iters {
            acc = std::hint::black_box(acc.rotate_left(7) ^ 0xabcd_ef01);
        }
        acc
    }

    /// A job with tunable per-element map cost and per-pair combine cost.
    struct Synthetic {
        map_work: u64,
        combine_work: u64,
    }

    impl MapReduceJob for Synthetic {
        type Input = u64;
        type Key = u64;
        type Value = u64;

        fn map(&self, task: &[u64], emit: &mut Emitter<'_, u64, u64>) {
            for &x in task {
                std::hint::black_box(spin_work(self.map_work));
                emit.emit(x % 16, 1);
            }
        }

        fn combine(&self, acc: &mut u64, v: u64) {
            std::hint::black_box(spin_work(self.combine_work));
            *acc += v;
        }

        fn key_space(&self) -> Option<usize> {
            Some(16)
        }

        fn key_index(&self, k: &u64) -> usize {
            *k as usize
        }
    }

    #[test]
    fn telemetry_accounts_for_thread_wall_clock() {
        // Busy + stalled must track each thread's own wall-clock: the only
        // untimed work is task claiming and loop bookkeeping. Use a job
        // with real map and combine cost so the run is long enough for the
        // 10% bound to be meaningful.
        let input: Vec<u64> = (0..60_000).collect();
        let mut cfg = config(4, 2);
        cfg.task_size = 1000;
        cfg.queue_capacity = 1024;
        cfg.batch_size = 64;
        let job = Synthetic { map_work: 40, combine_work: 40 };
        let (_, report) = run_with_report(cfg, &job, &input).unwrap();
        let slack = Duration::from_millis(2);
        for t in report.mapper_telemetry.iter().chain(&report.combiner_telemetry) {
            assert!(t.wall > Duration::ZERO, "telemetry on: wall must be recorded for {t:?}");
            let accounted = t.busy + t.stalled;
            assert!(
                accounted <= t.wall + slack,
                "{}[{}]: busy+stalled {accounted:?} exceeds wall {:?}",
                t.role,
                t.index,
                t.wall
            );
            assert!(
                accounted + slack >= Duration::from_secs_f64(t.wall.as_secs_f64() * 0.9),
                "{}[{}]: busy+stalled {accounted:?} under 90% of wall {:?}",
                t.role,
                t.index,
                t.wall
            );
        }
        // Every combiner batch lands in the occupancy histogram.
        let batches: u64 = report.combiner_telemetry.iter().map(|t| t.batches).sum();
        let recorded: u64 = report.combiner_telemetry.iter().map(|t| t.occupancy.total()).sum();
        assert!(batches > 0, "combiners must have consumed batched reads");
        assert_eq!(recorded, batches);
    }

    #[test]
    fn suggested_ratio_tracks_relative_throughput_direction() {
        // The paper's criterion: a light combine lets one combiner serve
        // many mappers (high ratio); a heavy combine pulls the suggestion
        // back toward 1:1. Compare the two directions on the same shape.
        let input: Vec<u64> = (0..40_000).collect();
        let mut cfg = config(2, 1);
        cfg.task_size = 500;
        cfg.queue_capacity = 1024;
        cfg.batch_size = 64;
        let run = |job: &Synthetic| {
            let (_, report) = run_with_report(cfg.clone(), job, &input).unwrap();
            report.suggested_ratio().expect("telemetry on: ratio must be derivable")
        };
        let light_combine = run(&Synthetic { map_work: 150, combine_work: 0 });
        let heavy_combine = run(&Synthetic { map_work: 0, combine_work: 150 });
        assert_eq!(heavy_combine, 1, "combine slower than map clamps to the 1:1 floor");
        assert!(
            light_combine > heavy_combine,
            "cheap combine must suggest a higher ratio: light={light_combine} \
             heavy={heavy_combine}"
        );
    }

    #[test]
    fn telemetry_disabled_still_reports_exact_counters() {
        let input: Vec<u64> = (0..20_000).collect();
        let mut cfg = config(4, 2);
        cfg.telemetry = false;
        let (out, report) = run_with_report(cfg, &Mod9, &input).unwrap();
        assert_eq!(out.pairs, reference(&input));
        let emitted: u64 = report.emitted_per_mapper.iter().sum();
        let consumed: u64 = report.consumed_per_combiner.iter().sum();
        assert_eq!(emitted, 20_000);
        assert_eq!(consumed, emitted);
        for t in report.mapper_telemetry.iter().chain(&report.combiner_telemetry) {
            assert_eq!(t.busy, Duration::ZERO);
            assert_eq!(t.stalled, Duration::ZERO);
            assert_eq!(t.wall, Duration::ZERO);
        }
        assert_eq!(report.map_throughput(), None);
        assert_eq!(report.suggested_ratio(), None);
    }

    #[test]
    fn telemetry_overhead_is_bounded_on_mod9() {
        // Acceptance bound: instrumented wall-clock ≤ 5% over the
        // counter-stubbed baseline (telemetry = false) on Mod9 at 1M
        // elements. Interleave the measurements and keep the minimum of
        // each so scheduler noise cancels; the structural overhead is a
        // handful of Instant reads per task/flush/round, far below 5%.
        let input: Vec<u64> = (0..1_000_000).collect();
        let mut cfg = config(4, 2);
        cfg.task_size = 4096;
        cfg.queue_capacity = 5000;
        cfg.batch_size = 1000;
        let mut stubbed = cfg.clone();
        stubbed.telemetry = false;
        let time_one = |cfg: &RuntimeConfig| {
            let start = Instant::now();
            let out = run(cfg.clone(), &Mod9, &input).unwrap();
            let elapsed = start.elapsed();
            assert_eq!(out.stats.emitted, 1_000_000);
            elapsed
        };
        let mut best_on = Duration::MAX;
        let mut best_off = Duration::MAX;
        for _ in 0..5 {
            best_off = best_off.min(time_one(&stubbed));
            best_on = best_on.min(time_one(&cfg));
        }
        let bound =
            Duration::from_secs_f64(best_off.as_secs_f64() * 1.05) + Duration::from_millis(4);
        assert!(
            best_on <= bound,
            "telemetry overhead too high: instrumented {best_on:?} vs stubbed {best_off:?} \
             (bound {bound:?})"
        );
    }

    #[test]
    fn combiner_imbalance_flags_starved_combiner_as_infinite() {
        // Regression: a starved combiner (min == 0 while max > 0) used to
        // return None — indistinguishable from "no data", hiding exactly
        // the skew the metric exists to flag.
        let cfg = config(2, 2);
        let plan = PlacementPlan::compute(
            &MachineModel::fig3_demo(),
            cfg.num_workers,
            cfg.num_combiners,
            cfg.pinning.into(),
        )
        .unwrap();
        let mk = |consumed: Vec<u64>| RunReport {
            plan: plan.clone(),
            emitted_per_mapper: vec![consumed.iter().sum()],
            full_events_per_mapper: vec![0],
            consumed_per_combiner: consumed,
            mapper_telemetry: Vec::new(),
            combiner_telemetry: Vec::new(),
            adaptation: Vec::new(),
            faults: FaultMetrics::default(),
        };
        // 1-combiner-starved placement: all pairs drained by combiner 0.
        assert_eq!(mk(vec![5000, 0]).combiner_imbalance(), Some(f64::INFINITY));
        assert_eq!(mk(vec![0, 5000, 400]).combiner_imbalance(), Some(f64::INFINITY));
        // `None` is reserved for nothing-to-compare reports.
        assert_eq!(mk(vec![]).combiner_imbalance(), None);
        assert_eq!(mk(vec![0, 0]).combiner_imbalance(), None);
        // Healthy reports keep the finite ratio.
        assert_eq!(mk(vec![200, 100]).combiner_imbalance(), Some(2.0));
    }

    #[test]
    fn run_report_flags_back_pressure_on_tiny_queues() {
        let input: Vec<u64> = (0..20_000).collect();
        let mut cfg = config(4, 1);
        cfg.queue_capacity = 2;
        cfg.batch_size = 2;
        let (_, report) = run_with_report(cfg, &Mod9, &input).unwrap();
        assert!(report.back_pressure() > 0.0, "2-slot queues must report back-pressure");
        if let Some(imbalance) = report.combiner_imbalance() {
            assert!(imbalance >= 1.0);
        }
    }

    #[test]
    fn agrees_with_phoenix_baseline() {
        let input: Vec<u64> = (0..30_000).map(|i| i * 7 % 10_000).collect();
        let ramr_out = run(config(4, 2), &Mod9, &input).unwrap();
        let phoenix_out =
            Backend::Phoenix.engine(config(4, 4)).unwrap().submit(&Mod9, &input).unwrap().output;
        assert_eq!(ramr_out.pairs, phoenix_out.pairs);
    }

    // --- The shared batched-read step -------------------------------------

    /// Folds every value into key 0; the combine panics on value `.0`.
    struct PanicsOn(u64);

    impl MapReduceJob for PanicsOn {
        type Input = u64;
        type Key = u64;
        type Value = u64;

        fn map(&self, _: &[u64], _: &mut Emitter<'_, u64, u64>) {}

        fn combine(&self, acc: &mut u64, v: u64) {
            if v == self.0 {
                panic!("combine exploded");
            }
            *acc += v;
        }
    }

    /// A queue holding the pairs `(0, v)` for each of `values`, still open.
    fn queue_of(values: std::ops::Range<u64>) -> (PairProducer<PanicsOn>, PairConsumer<PanicsOn>) {
        let (mut tx, rx) = ramr_spsc::SpscQueue::with_capacity(16).split();
        for v in values {
            assert!(tx.try_push((Hashed::wrap(HasherKind::Fx, 0), v)).is_ok());
        }
        (tx, rx)
    }

    fn remaining(rx: &mut PairConsumer<PanicsOn>) -> Vec<u64> {
        let mut rest = Vec::new();
        rx.pop_batch(16, |(_, v)| rest.push(v));
        rest
    }

    #[test]
    fn batched_read_counts_through_a_panicking_combine_and_resumes_after_it() {
        let job = PanicsOn(5);
        let (_tx, mut rx) = queue_of(0..10);
        let mut container = HashedJobContainer::for_job(&job, ContainerKind::Hash, None).unwrap();
        let (consumed, error) = batched_read(&mut rx, false, 8, Some(&mut container));
        // The head passed values 0..=5: the insert of 5 panicked.
        assert_eq!(consumed, 6);
        assert!(
            matches!(error, Some(RuntimeError::WorkerPanic(ref m)) if m.contains("combine exploded")),
            "got {error:?}"
        );
        assert_eq!(remaining(&mut rx), vec![6, 7, 8, 9], "the next pop starts after the panic");
    }

    #[test]
    fn batched_read_in_discard_mode_consumes_a_full_batch_without_inserting() {
        let (_tx, mut rx) = queue_of(0..10);
        let (consumed, error) = batched_read::<PanicsOn>(&mut rx, false, 4, None);
        assert_eq!(consumed, 4);
        assert!(error.is_none(), "discarding runs no combine: got {error:?}");
        assert_eq!(remaining(&mut rx), vec![4, 5, 6, 7, 8, 9]);
    }

    // --- Adaptive mode -----------------------------------------------------

    fn adaptive_config(workers: usize, combiners: usize) -> RuntimeConfig {
        let mut cfg = config(workers, combiners);
        cfg.adaptive = true;
        cfg.adapt_interval = Duration::from_millis(2);
        cfg
    }

    #[test]
    fn adaptive_matches_sequential_reference_across_shapes() {
        let input: Vec<u64> = (1..=20_000).collect();
        let expected = reference(&input);
        for (workers, combiners) in [(1, 1), (2, 1), (4, 2), (8, 1)] {
            let (out, report) =
                run_with_report(adaptive_config(workers, combiners), &Mod9, &input).unwrap();
            assert_eq!(out.pairs, expected, "workers={workers} combiners={combiners}");
            let emitted: u64 = report.emitted_per_mapper.iter().sum();
            let consumed: u64 = report.consumed_per_combiner.iter().sum();
            assert_eq!(emitted, 20_000, "workers={workers} combiners={combiners}");
            assert_eq!(consumed, emitted, "conservation under adaptation");
        }
    }

    #[test]
    fn adaptive_empty_input_terminates_cleanly() {
        let out = run(adaptive_config(4, 2), &Mod9, &[]).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn static_run_records_no_adaptation() {
        let input: Vec<u64> = (0..5000).collect();
        let (_, report) = run_with_report(config(4, 2), &Mod9, &input).unwrap();
        assert!(report.adaptation.is_empty(), "off by default: no controller, no trace");
    }

    #[test]
    fn adaptive_mapper_panic_is_surfaced_and_does_not_hang() {
        struct Panics;
        impl MapReduceJob for Panics {
            type Input = u64;
            type Key = u64;
            type Value = u64;
            fn map(&self, _: &[u64], _: &mut Emitter<'_, u64, u64>) {
                panic!("adaptive mapper exploded");
            }
            fn combine(&self, _: &mut u64, _: u64) {}
            fn key_space(&self) -> Option<usize> {
                Some(1)
            }
            fn key_index(&self, _: &u64) -> usize {
                0
            }
        }
        let err = run(adaptive_config(2, 1), &Panics, &[1, 2, 3]).unwrap_err();
        assert!(matches!(err, RuntimeError::WorkerPanic(ref m) if m.contains("exploded")));
    }

    #[test]
    fn adaptive_combine_panic_is_surfaced_and_does_not_hang() {
        struct CombinePanics;
        impl MapReduceJob for CombinePanics {
            type Input = u64;
            type Key = u64;
            type Value = u64;
            fn map(&self, task: &[u64], emit: &mut Emitter<'_, u64, u64>) {
                for &x in task {
                    emit.emit(0, x);
                }
            }
            fn combine(&self, _: &mut u64, _: u64) {
                panic!("adaptive combine exploded");
            }
            fn key_space(&self) -> Option<usize> {
                Some(1)
            }
            fn key_index(&self, _: &u64) -> usize {
                0
            }
        }
        let input: Vec<u64> = (0..5000).collect();
        let err = run(adaptive_config(4, 2), &CombinePanics, &input).unwrap_err();
        assert!(matches!(err, RuntimeError::WorkerPanic(ref m) if m.contains("exploded")));
    }

    #[test]
    fn adaptive_container_overflow_drains_pipeline_and_reports() {
        let mut cfg = adaptive_config(4, 2);
        cfg.container = ContainerKind::FixedHash;
        cfg.fixed_capacity = Some(2);
        let input: Vec<u64> = (0..10_000).collect(); // 9 distinct keys > 2
        let err = run(cfg, &Mod9, &input).unwrap_err();
        assert!(matches!(err, RuntimeError::ContainerOverflow { capacity: 2, .. }));
    }

    #[test]
    fn adaptive_converges_from_bad_start_on_combine_heavy_load() {
        // The ISSUE 3 acceptance scenario: 8 mappers / 1 dedicated combiner
        // on a workload with equal per-pair map and combine cost. The
        // static throughput criterion says ratio 1 (combine no faster than
        // map), i.e. a 1:1 split of the 9 threads — round(9/2) = 5, which
        // the ±1 dead-band brackets to 4..=6. Starting from 8m/1c the
        // controller must re-roll mappers until the split lands there; the
        // assertion allows one extra thread of scheduler slack either way.
        let mut cfg = RuntimeConfig::builder()
            .num_workers(8)
            .num_combiners(1)
            .task_size(200)
            .queue_capacity(1024)
            .batch_size(64)
            .build()
            .unwrap();
        cfg.adaptive = true;
        cfg.adapt_interval = Duration::from_millis(2);
        let job = Synthetic { map_work: 150, combine_work: 150 };
        let input: Vec<u64> = (0..200_000).collect();
        let (out, report) = run_with_report(cfg, &job, &input).unwrap();
        // Correctness first: every element contributes exactly 1.
        let total: u64 = out.pairs.iter().map(|&(_, v)| v).sum();
        assert_eq!(total, 200_000);
        let emitted: u64 = report.emitted_per_mapper.iter().sum();
        let consumed: u64 = report.consumed_per_combiner.iter().sum();
        assert_eq!(consumed, emitted, "conservation while roles moved");
        // Convergence: the controller ticked, acted, and regulated the
        // pools near the throughput-criterion split. Judge the *steady
        // state* — the median split over the trace's second half — not the
        // final tick, which is dominated by end-of-run transients (the map
        // pool draining out makes the last windows look arbitrarily
        // lopsided).
        assert!(!report.adaptation.is_empty(), "controller must have ticked");
        assert!(
            report.adaptation.iter().filter(|e| e.acted()).count() >= 2,
            "a bad start must force repeated adaptation:\n{}",
            trace_lines(&report)
        );
        let mut tail: Vec<usize> = report
            .adaptation
            .iter()
            .skip(report.adaptation.len() / 2)
            .map(|e| e.active_combiners)
            .collect();
        tail.sort_unstable();
        let median = tail[tail.len() / 2];
        assert!(
            (3..=7).contains(&median),
            "expected a ~9/2 steady-state combiner split, got median {median}:\n{}",
            trace_lines(&report)
        );
    }

    fn trace_lines(report: &RunReport) -> String {
        report.adaptation.iter().map(AdaptationEvent::describe).collect::<Vec<_>>().join("\n")
    }

    // --- Fault tolerance ---------------------------------------------------

    /// Mod9 with one poison task: the task containing `poison` panics on
    /// its first `fail_attempts` executions — after emitting, so a broken
    /// retry path would double-count pairs into the pipeline.
    struct FlakyMod9 {
        poison: u64,
        fail_attempts: u32,
        attempts: AtomicU32,
    }

    impl FlakyMod9 {
        fn new(poison: u64, fail_attempts: u32) -> Self {
            Self { poison, fail_attempts, attempts: AtomicU32::new(0) }
        }
    }

    impl MapReduceJob for FlakyMod9 {
        type Input = u64;
        type Key = u64;
        type Value = u64;

        fn map(&self, task: &[u64], emit: &mut Emitter<'_, u64, u64>) {
            for &x in task {
                emit.emit(x % 9, x);
            }
            if task.contains(&self.poison) {
                let attempt = 1 + self.attempts.fetch_add(1, Ordering::SeqCst);
                if attempt <= self.fail_attempts {
                    panic!("flaky task tripped");
                }
            }
        }

        fn combine(&self, acc: &mut u64, v: u64) {
            *acc += v;
        }

        fn key_space(&self) -> Option<usize> {
            Some(9)
        }

        fn key_index(&self, k: &u64) -> usize {
            *k as usize
        }

        fn is_retry_safe(&self) -> bool {
            true
        }
    }

    #[test]
    fn retries_recover_transient_poison_task_on_both_paths() {
        let input: Vec<u64> = (0..1000).collect();
        let expected = reference(&input);
        for adaptive in [false, true] {
            let mut cfg = if adaptive { adaptive_config(4, 2) } else { config(4, 2) };
            cfg.max_task_retries = 2;
            let (out, report) = run_with_report(cfg, &FlakyMod9::new(40, 2), &input).unwrap();
            assert_eq!(out.pairs, expected, "adaptive={adaptive}: retried pairs count once");
            assert_eq!(report.faults.retries, 2, "adaptive={adaptive}");
            assert!(report.faults.skipped.is_empty(), "adaptive={adaptive}");
            assert!(report.faults.summary().unwrap().contains("retr"), "adaptive={adaptive}");
        }
    }

    #[test]
    fn exhausted_retries_without_skip_fail_fast_on_both_paths() {
        let input: Vec<u64> = (0..1000).collect();
        for adaptive in [false, true] {
            let mut cfg = if adaptive { adaptive_config(4, 2) } else { config(4, 2) };
            cfg.max_task_retries = 1;
            let err = run(cfg, &FlakyMod9::new(40, u32::MAX), &input).unwrap_err();
            assert!(
                matches!(err, RuntimeError::WorkerPanic(ref m) if m.contains("flaky task")),
                "adaptive={adaptive}: got {err}"
            );
        }
    }

    #[test]
    fn skip_poison_tasks_completes_with_the_skip_recorded_on_both_paths() {
        let input: Vec<u64> = (0..1000).collect();
        // Element 40 sits at index 40 → task [34, 51) at task_size 17.
        let surviving: Vec<u64> = input.iter().copied().filter(|x| !(34..51).contains(x)).collect();
        let expected = reference(&surviving);
        for adaptive in [false, true] {
            let mut cfg = if adaptive { adaptive_config(4, 2) } else { config(4, 2) };
            cfg.max_task_retries = 1;
            cfg.skip_poison_tasks = true;
            let (out, report) =
                run_with_report(cfg, &FlakyMod9::new(40, u32::MAX), &input).unwrap();
            assert_eq!(out.pairs, expected, "adaptive={adaptive}: only the poison task missing");
            assert_eq!(report.faults.skipped.len(), 1, "adaptive={adaptive}");
            let skip = &report.faults.skipped[0];
            assert_eq!((skip.start, skip.end), (34, 51), "adaptive={adaptive}");
            assert_eq!(skip.attempts, 2, "adaptive={adaptive}: initial attempt + one retry");
            assert!(skip.message.contains("flaky task"), "adaptive={adaptive}: {}", skip.message);
        }
    }

    #[test]
    fn retries_are_ignored_for_jobs_that_do_not_opt_in() {
        struct Unsafe(FlakyMod9);
        impl MapReduceJob for Unsafe {
            type Input = u64;
            type Key = u64;
            type Value = u64;
            fn map(&self, task: &[u64], emit: &mut Emitter<'_, u64, u64>) {
                self.0.map(task, emit);
            }
            fn combine(&self, acc: &mut u64, v: u64) {
                self.0.combine(acc, v);
            }
            fn key_space(&self) -> Option<usize> {
                Some(9)
            }
            fn key_index(&self, k: &u64) -> usize {
                *k as usize
            }
            // is_retry_safe stays at its default: false.
        }
        let input: Vec<u64> = (0..1000).collect();
        let mut cfg = config(4, 2);
        cfg.max_task_retries = 5;
        cfg.skip_poison_tasks = true;
        let err = run(cfg, &Unsafe(FlakyMod9::new(40, u32::MAX)), &input).unwrap_err();
        assert!(
            matches!(err, RuntimeError::WorkerPanic(_)),
            "a non-retry-safe job must keep fail-fast semantics, got {err}"
        );
    }

    /// Wedges on the task containing element 40 until cancelled — the
    /// cooperative never-returning task the watchdog exists for.
    struct HangsOnPoison;

    impl MapReduceJob for HangsOnPoison {
        type Input = u64;
        type Key = u64;
        type Value = u64;

        fn map(&self, task: &[u64], emit: &mut Emitter<'_, u64, u64>) {
            if task.contains(&40) {
                while !emit.is_cancelled() {
                    std::thread::sleep(Duration::from_millis(1));
                }
                return;
            }
            for &x in task {
                emit.emit(x % 9, x);
            }
        }

        fn combine(&self, acc: &mut u64, v: u64) {
            *acc += v;
        }

        fn key_space(&self) -> Option<usize> {
            Some(9)
        }

        fn key_index(&self, k: &u64) -> usize {
            *k as usize
        }
    }

    #[test]
    fn watchdog_cancels_wedged_runs_with_a_stall_diagnosis_on_both_paths() {
        let input: Vec<u64> = (0..1000).collect();
        for adaptive in [false, true] {
            let mut cfg = if adaptive { adaptive_config(2, 1) } else { config(2, 1) };
            cfg.watchdog = Some(Duration::from_millis(200));
            let started = Instant::now();
            let err = run(cfg, &HangsOnPoison, &input).unwrap_err();
            let elapsed = started.elapsed();
            match err {
                RuntimeError::Stalled { ref phase, idle_ms, ref diagnostics } => {
                    assert_eq!(phase, "map-combine", "adaptive={adaptive}");
                    assert!(idle_ms >= 200, "adaptive={adaptive}: idle_ms={idle_ms}");
                    assert!(
                        diagnostics.contains("mapper[") && diagnostics.contains("live worker"),
                        "adaptive={adaptive}: diagnostics must name threads: {diagnostics}"
                    );
                }
                other => panic!("adaptive={adaptive}: expected Stalled, got {other}"),
            }
            assert!(
                elapsed < Duration::from_secs(5),
                "adaptive={adaptive}: watchdog must cancel promptly, took {elapsed:?}"
            );
        }
    }

    #[test]
    fn default_runs_report_clean_fault_metrics() {
        let input: Vec<u64> = (0..5000).collect();
        for adaptive in [false, true] {
            let cfg = if adaptive { adaptive_config(4, 2) } else { config(4, 2) };
            let (_, report) = run_with_report(cfg, &Mod9, &input).unwrap();
            assert!(report.faults.is_clean(), "adaptive={adaptive}: {:?}", report.faults);
            assert_eq!(report.faults.summary(), None, "adaptive={adaptive}");
        }
    }
}
