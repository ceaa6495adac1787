//! One benchmark run: set up, measure one workload, derive its metrics.

use std::time::{Duration, Instant};

use mr_apps::{AppKind, Histogram, WordCount};
use mr_core::ContainerKind;
use ramr::{AnyEngine, Backend, Engine};
use ramr_telemetry::{BatchHistogram, ThreadRole};
use ramr_topology::MachineModel;

use crate::check::{Tally, Verdict};
use crate::gen::{self, InputDigest};
use crate::serve::{self, Live, MixAssets, ServeRun};
use crate::stats::{mean, median, percentile, samples_for, windowed_percentile};
use crate::tasks::{engine_config, BatchTask, JobRecord, KmTask, SubmitTask};
use crate::trace::Tracer;

/// The four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Histogram: the SPSC hand-off is nearly the whole RAMR job.
    HgHandoff,
    /// WordCount over Zipf text: tokenising, hashing and the hash container.
    WcZipf,
    /// k-means through a pooled-session iterate pipeline.
    KmIterate,
    /// Closed-loop requests through `ramr-serve`.
    ServeStream,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 4] =
        [Workload::HgHandoff, Workload::WcZipf, Workload::KmIterate, Workload::ServeStream];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::HgHandoff => "hg-handoff",
            Workload::WcZipf => "wc-zipf",
            Workload::KmIterate => "km-iterate",
            Workload::ServeStream => "serve-stream",
        }
    }

    /// Share of the measured time spent on engine jobs; the rest drives the
    /// server (first). Every workload reports every end-to-end metric, so each runs
    /// both segments; the workload's own path gets most of the time.
    fn batch_share(self) -> f64 {
        match self {
            Workload::ServeStream => 0.25,
            _ => 0.65,
        }
    }
}

/// Parsed command line.
#[derive(Debug, Clone, Copy)]
pub struct Args {
    /// Which workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: u64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
}

/// Parses `--workload NAME --seed N --seconds N --trace 0|1`.
///
/// # Errors
///
/// A message naming the missing or malformed argument.
pub fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: u64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&s) {
                    return Err("--seconds must lie in 1..=60".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// One named metric with its unit and the samples behind it.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Samples the value was derived from.
    pub samples: usize,
}

/// Everything a run produced.
#[derive(Debug)]
pub struct Outcome {
    /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
    pub metrics: Vec<Metric>,
    /// Verdicts over every timed operation.
    pub tally: Tally,
    /// Digest of the workload's generated input.
    pub input_digest: u64,
    /// Jobs whose phase sum exceeded their wall time.
    pub closure_flags: usize,
    /// `mrsim` predictions beside measured p50s: (backend, predicted ms,
    /// measured p50 ms).
    pub model: Vec<(Backend, f64, f64)>,
    /// Spans, when traced.
    pub tracer: Tracer,
    /// The thread budget.
    pub budget: usize,
}

/// Requests per window of the request tail percentiles: the fewest for
/// which a p99 has ten samples beyond it.
const REQ_WINDOW: usize = 1000;

/// Request-latency p99: the median of the per-window p99s.
fn req_p99(values: &[f64]) -> Option<f64> {
    windowed_percentile(values, 99.0, REQ_WINDOW)
}

/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// Engines for every backend and container a workload needs.
struct Engines(Vec<(Backend, ContainerKind, AnyEngine)>);

impl Engines {
    fn build(b: usize, containers: &[ContainerKind]) -> Result<Engines, String> {
        let mut engines = Vec::new();
        for backend in Backend::ALL {
            for &container in containers {
                let config = engine_config(b, backend, container)
                    .map_err(|e| format!("{backend} config at budget {b}: {e}"))?;
                let engine = backend.engine(config).map_err(|e| format!("{backend}: {e}"))?;
                engines.push((backend, container, engine));
            }
        }
        Ok(Engines(engines))
    }

    fn get(&self, backend: Backend, container: ContainerKind) -> &AnyEngine {
        self.0
            .iter()
            .find(|(b, c, _)| *b == backend && *c == container)
            .map(|(_, _, e)| e)
            .expect("engines are built for every task's container")
    }
}

/// The workload's jobs: its own batch tasks plus the serve mix.
struct Plan {
    tasks: Vec<Box<dyn BatchTask>>,
    mix: MixAssets,
    input_digest: u64,
}

impl Plan {
    fn new(args: &Args, machine: &MachineModel, b: usize) -> Plan {
        let mix = serve::assets(args.seed, machine, b);
        let (tasks, input_digest): (Vec<Box<dyn BatchTask>>, u64) = match args.workload {
            Workload::HgHandoff => {
                let input = gen::hg_pixels(args.seed);
                let digest = InputDigest::digest(&input[..]);
                let task = SubmitTask::new("hg", AppKind::Histogram, Histogram, input, machine, b);
                (vec![Box::new(task)], digest)
            }
            Workload::WcZipf => {
                let input = gen::wc_lines(args.seed);
                let digest = InputDigest::digest(&input[..]);
                let task = SubmitTask::new("wc", AppKind::WordCount, WordCount, input, machine, b);
                (vec![Box::new(task)], digest)
            }
            Workload::KmIterate => {
                let input = gen::km_points(args.seed);
                let digest = InputDigest::digest(&input[..]);
                (vec![Box::new(KmTask::new(input, gen::KM_CLUSTERS, machine, b))], digest)
            }
            Workload::ServeStream => (Vec::new(), mix_digest(&mix)),
        };
        Plan { tasks, mix, input_digest }
    }

    /// The tasks engine jobs draw from: the workload's own, or for
    /// serve-stream the in-process baseline of its request mix.
    fn batch_tasks(&self) -> &[Box<dyn BatchTask>] {
        if self.tasks.is_empty() {
            &self.mix.tasks
        } else {
            &self.tasks
        }
    }

    fn containers(&self) -> Vec<ContainerKind> {
        let mut containers: Vec<ContainerKind> = Vec::new();
        for task in self.batch_tasks().iter().chain(&self.mix.tasks) {
            if !containers.contains(&task.container()) {
                containers.push(task.container());
            }
        }
        containers
    }
}

/// Digest of the serve mix (its specs are its input).
fn mix_digest(mix: &MixAssets) -> u64 {
    mix.specs
        .iter()
        .fold(gen::FNV_OFFSET, |h, s| gen::fnv1a(h, format!("{:?}/{}", s.app, s.scale).as_bytes()))
}

/// Builds every engine, runs each task once per backend, binds the
/// server and warms every request shape: the program's set-up.
fn set_up(plan: &Plan, b: usize) -> Result<(Engines, Live), String> {
    let engines = Engines::build(b, &plan.containers())?;
    let mut quiet = Tracer::new(false, Instant::now(), 0);
    for task in plan.batch_tasks() {
        for backend in Backend::ALL {
            let engine = engines.get(backend, task.container());
            let (verdict, _) = task.run(backend, engine, b, &mut quiet, None);
            if verdict != Verdict::Ok {
                return Err(format!("warm-up job on {backend} failed: {verdict:?}"));
            }
        }
    }
    let live = Live::start(b, &plan.mix)?;
    Ok((engines, live))
}

/// Runs engine jobs round-robin over the backends (rotating which goes
/// first) until `deadline` has passed and every backend has `min` samples,
/// or until `hard_deadline`. In a traced run every other job runs without
/// its span, so the tracing overhead can be measured.
#[allow(clippy::too_many_arguments)]
fn batch_segment(
    plan: &Plan,
    engines: &Engines,
    b: usize,
    seed: u64,
    deadline: Instant,
    hard_deadline: Instant,
    min: usize,
    tracer: &mut Tracer,
) -> (Vec<JobRecord>, Tally) {
    let tasks = plan.batch_tasks();
    let mut rng = gen::SplitMix::new(seed, "batch-order");
    let mut quiet = Tracer::new(false, Instant::now(), 0);
    let mut records: Vec<JobRecord> = Vec::new();
    let mut tally = Tally::default();
    let segment = tracer.begin("batch", None);
    let parent = segment.as_ref().map(|o| o.id());
    for round in 0usize.. {
        let now = Instant::now();
        let enough = Backend::ALL
            .iter()
            .all(|&bk| records.iter().filter(|r| r.backend == bk).count() >= min);
        if (now >= deadline && enough) || now >= hard_deadline {
            break;
        }
        for i in 0..Backend::ALL.len() {
            let backend = Backend::ALL[(round + i) % Backend::ALL.len()];
            let task = if plan.tasks.is_empty() {
                // serve-stream's in-process baseline follows the request mix.
                &tasks[serve::pick(&mut rng)]
            } else {
                &tasks[rng.below(tasks.len() as u64) as usize]
            };
            let engine = engines.get(backend, task.container());
            let t = if tracer.enabled() && round % 2 == 1 { &mut quiet } else { &mut *tracer };
            let (verdict, record) = task.run(backend, engine, b, t, parent);
            tally.record(verdict);
            records.extend(record);
        }
    }
    tracer.end(segment);
    (records, tally)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str, samples: usize) -> Metric {
    Metric { name: name.into(), value, unit, samples }
}

/// Runs one workload end to end.
///
/// # Errors
///
/// Set-up failures, or a percentile that could not be reported within
/// the hard deadline.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let b = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let machine = MachineModel::detect();
    let origin = Instant::now();
    let plan = Plan::new(args, &machine, b);

    // Set-up, several times; the last instance is the one measured.
    let mut setup_times = Vec::new();
    let mut live_setup = None;
    for rep in 0..SETUP_REPS {
        let started = Instant::now();
        let (engines, live) = set_up(&plan, b)?;
        setup_times.push(started.elapsed().as_secs_f64());
        if rep + 1 < SETUP_REPS {
            drop(engines);
            live.stop();
        } else {
            live_setup = Some((engines, live));
        }
    }
    let (engines, mut live) = live_setup.expect("at least one set-up");

    let mut tracer = Tracer::new(args.trace, origin, 0);
    let seconds = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let serve_deadline = start + seconds.mul_f64(1.0 - args.workload.batch_share());
    let end = start + seconds;
    let hard_end = start + seconds * 3 + Duration::from_secs(10);

    // The served segment runs first and its server is shut down before the
    // engine jobs start, so no idle server thread shares the CPUs with them.
    let mut caller_tracers: Vec<Tracer> =
        (0..b).map(|i| Tracer::new(args.trace, origin, 1 + i as u32)).collect();
    let served = serve::stream(
        &mut live,
        &plan.mix,
        args.seed,
        serve_deadline,
        hard_end,
        REQ_WINDOW,
        &mut caller_tracers,
    );
    live.stop();
    for t in caller_tracers {
        tracer.absorb(t);
    }
    let (records, mut tally) =
        batch_segment(&plan, &engines, b, args.seed, end, hard_end, samples_for(90.0), &mut tracer);
    tally.absorb(served.tally);

    let closure_flags = records.iter().filter(|r| r.stats.total() > r.wall).count();
    let model: Vec<(Backend, f64, f64)> = Backend::ALL
        .iter()
        .map(|&bk| {
            let of: Vec<&JobRecord> = records.iter().filter(|r| r.backend == bk).collect();
            let predicted = median(&of.iter().map(|r| r.predicted_ms).collect::<Vec<_>>());
            let measured = median(&of.iter().map(|r| ms(r.wall)).collect::<Vec<_>>());
            (bk, predicted.unwrap_or(f64::NAN), measured.unwrap_or(f64::NAN))
        })
        .collect();

    let metrics = if args.trace {
        let mut metrics = tails(&records, &served)?;
        metrics.extend(layer_metrics(&records, &served));
        metrics.push(trace_overhead(&records));
        metrics.extend(probe_metrics(
            &plan,
            &engines,
            &records,
            &served,
            b,
            &mut tracer,
            &mut tally,
        ));
        metrics.push(metric("closure.flagged_jobs", closure_flags as f64, "count", records.len()));
        for (bk, predicted, measured) in &model {
            let n = records.iter().filter(|r| r.backend == *bk).count();
            metrics.push(metric(format!("mrsim.{bk}.predicted_ms"), *predicted, "ms", n));
            metrics.push(metric(
                format!("mrsim.{bk}.error_ratio"),
                measured / predicted,
                "ratio",
                n,
            ));
        }
        metrics
    } else {
        let mut metrics = vec![metric(
            "setup_s",
            median(&setup_times).expect("set-up ran"),
            "s",
            setup_times.len(),
        )];
        metrics.extend(end_to_end(&records, &served)?);
        metrics
    };
    drop(engines);
    Ok(Outcome {
        metrics,
        tally,
        input_digest: plan.input_digest,
        closure_flags,
        model,
        tracer,
        budget: b,
    })
}

/// Fails when a percentile could not be reported.
fn need(name: &str, v: Option<f64>) -> Result<f64, String> {
    v.ok_or_else(|| format!("too few samples to report {name} before the hard deadline"))
}

/// Per-backend engine-call wall times in ms.
fn walls(records: &[JobRecord], backend: Backend) -> Vec<f64> {
    records.iter().filter(|r| r.backend == backend).map(|r| ms(r.wall)).collect()
}

/// The untraced run's metrics: medians and throughput, the figures that
/// repeat from run to run on a shared host.
fn end_to_end(records: &[JobRecord], served: &ServeRun) -> Result<Vec<Metric>, String> {
    let mut metrics = Vec::new();
    for backend in Backend::ALL {
        let walls = walls(records, backend);
        let name = format!("{backend}.job_p50_ms");
        metrics.push(metric(&name, need(&name, median(&walls))?, "ms", walls.len()));
    }
    let reqs: Vec<f64> = served.records.iter().map(|r| ms(r.client)).collect();
    metrics.push(metric("req_p50_ms", need("req_p50_ms", median(&reqs))?, "ms", reqs.len()));
    metrics.push(metric(
        "req_per_s",
        reqs.len() as f64 / served.elapsed.as_secs_f64(),
        "1/s",
        reqs.len(),
    ));
    Ok(metrics)
}

/// The tail percentiles, reported by the traced run: a few milliseconds of
/// host preemption move them by more than any regression bound the
/// benchmark could hold them to.
fn tails(records: &[JobRecord], served: &ServeRun) -> Result<Vec<Metric>, String> {
    let mut metrics = Vec::new();
    for backend in Backend::ALL {
        let walls = walls(records, backend);
        let name = format!("{backend}.job_p90_ms");
        metrics.push(metric(&name, need(&name, percentile(&walls, 90.0))?, "ms", walls.len()));
    }
    let reqs: Vec<f64> = served.records.iter().map(|r| ms(r.client)).collect();
    metrics.push(metric("req_p99_ms", need("req_p99_ms", req_p99(&reqs))?, "ms", reqs.len()));
    Ok(metrics)
}

/// Busy and stalled shares of a role's summed wall time.
fn role_fracs(records: &[&JobRecord], role: ThreadRole) -> (f64, f64) {
    let (mut busy, mut stalled, mut wall) = (0.0, 0.0, 0.0);
    for t in records.iter().flat_map(|r| &r.threads).filter(|t| t.role == role) {
        busy += t.busy.as_secs_f64();
        stalled += t.stalled.as_secs_f64();
        wall += t.wall.as_secs_f64();
    }
    if wall == 0.0 {
        (0.0, 0.0)
    } else {
        (busy / wall, stalled / wall)
    }
}

/// The traced run's per-layer metrics derived from job and request
/// records.
fn layer_metrics(records: &[JobRecord], served: &ServeRun) -> Vec<Metric> {
    let mut out = Vec::new();
    let med = |f: &dyn Fn(&JobRecord) -> f64, of: &[&JobRecord]| {
        median(&of.iter().map(|r| f(r)).collect::<Vec<_>>()).unwrap_or(0.0)
    };
    let all: Vec<&JobRecord> = records.iter().collect();
    out.push(metric(
        "mr-core.partition_ms",
        med(&|r| ms(r.stats.partition), &all),
        "ms",
        all.len(),
    ));
    out.push(metric("mr-core.tasks", med(&|r| r.stats.tasks as f64, &all), "count", all.len()));

    for backend in Backend::ALL {
        let of: Vec<&JobRecord> = records.iter().filter(|r| r.backend == backend).collect();
        let n = of.len();
        let name = |m: &str| format!("{backend}.{m}");
        out.push(metric(name("map_combine_ms"), med(&|r| ms(r.stats.map_combine), &of), "ms", n));
        out.push(metric(name("reduce_ms"), med(&|r| ms(r.stats.reduce), &of), "ms", n));
        out.push(metric(name("merge_ms"), med(&|r| ms(r.stats.merge), &of), "ms", n));
        out.push(metric(
            name("unaccounted_ms"),
            med(&|r| ms(r.wall) - ms(r.stats.total()), &of),
            "ms",
            n,
        ));
        if backend == Backend::Phoenix {
            let (busy, _) = role_fracs(&of, ThreadRole::Worker);
            out.push(metric(name("worker_busy_frac"), busy, "ratio", n));
            let imbalance = |r: &JobRecord| {
                let items: Vec<f64> = r.threads.iter().map(|t| t.items as f64).collect();
                let avg = mean(&items).unwrap_or(0.0);
                if avg == 0.0 {
                    1.0
                } else {
                    items.iter().fold(0.0, |a: f64, &x| a.max(x)) / avg
                }
            };
            out.push(metric(name("item_imbalance"), med(&imbalance, &of), "ratio", n));
            continue;
        }
        let (mb, ms_) = role_fracs(&of, ThreadRole::Mapper);
        let (cb, cs) = role_fracs(&of, ThreadRole::Combiner);
        out.push(metric(name("mapper_busy_frac"), mb, "ratio", n));
        out.push(metric(name("mapper_stalled_frac"), ms_, "ratio", n));
        out.push(metric(name("combiner_busy_frac"), cb, "ratio", n));
        out.push(metric(name("combiner_stalled_frac"), cs, "ratio", n));
        out.push(metric(
            name("queue_full_events"),
            med(&|r| r.stats.queue_full_events as f64, &of),
            "count",
            n,
        ));
        out.push(metric(
            name("stall_events"),
            med(&|r| r.threads.iter().map(|t| t.stall_events).sum::<u64>() as f64, &of),
            "count",
            n,
        ));
        let mut occupancy = BatchHistogram::default();
        for t in of.iter().flat_map(|r| &r.threads).filter(|t| t.role == ThreadRole::Combiner) {
            occupancy.merge(&t.occupancy);
        }
        out.push(metric(name("full_batch_frac"), occupancy.full_fraction(), "ratio", n));
        out.push(metric(
            name("adaptation_events"),
            med(&|r| r.adaptations as f64, &of),
            "count",
            n,
        ));
    }

    let queued: Vec<f64> = served.records.iter().map(|r| r.queued_ms).collect();
    let ran: Vec<f64> = served.records.iter().map(|r| r.ran_ms).collect();
    let wire: Vec<f64> =
        served.records.iter().map(|r| ms(r.client) - r.queued_ms - r.ran_ms).collect();
    let n = served.records.len();
    out.push(metric("sched.queued_ms_p50", median(&queued).unwrap_or(0.0), "ms", n));
    out.push(metric("sched.queued_ms_p99", req_p99(&queued).unwrap_or(0.0), "ms", n));
    out.push(metric("sched.ran_ms_p50", median(&ran).unwrap_or(0.0), "ms", n));
    out.push(metric("ramr-serve.wire_ms_p50", median(&wire).unwrap_or(0.0), "ms", n));
    out.push(metric("ramr-serve.wire_ms_p99", req_p99(&wire).unwrap_or(0.0), "ms", n));
    out.push(metric("ramr-serve.sheds", served.tally.sheds as f64, "count", n));
    out
}

/// Session+pipeline metrics over the RAMR backends' pipeline rounds.
fn pipeline_metrics(records: &[JobRecord]) -> Vec<Metric> {
    let pipelines: Vec<&JobRecord> =
        records.iter().filter(|r| r.backend != Backend::Phoenix && !r.rounds.is_empty()).collect();
    let rounds: Vec<_> = pipelines.iter().flat_map(|r| &r.rounds).collect();
    let n = rounds.len();
    let round_ms: Vec<f64> = rounds.iter().map(|r| ms(r.elapsed)).collect();
    let overhead: Vec<f64> = rounds.iter().map(|r| ms(r.elapsed) - ms(r.phase_sum)).collect();
    let seeded: Vec<f64> =
        pipelines.iter().map(|p| p.rounds.iter().filter(|r| r.seeded).count() as f64).collect();
    vec![
        metric("pipeline.round_ms_p50", median(&round_ms).unwrap_or(0.0), "ms", n),
        metric("pipeline.epoch_overhead_ms", median(&overhead).unwrap_or(0.0), "ms", n),
        metric("pipeline.seeded_rounds", mean(&seeded).unwrap_or(0.0), "count", pipelines.len()),
    ]
}

/// Pipeline probes per RAMR backend on workloads that run no pipeline.
const PIPELINE_PROBES: usize = 3;

/// The traced run's standalone probes: map, SPSC and containers on the
/// workload's items, the serial reference time, the session+pipeline
/// layer (probed where the workload runs no pipeline itself), and the
/// server's render+digest and frame round trip.
fn probe_metrics(
    plan: &Plan,
    engines: &Engines,
    records: &[JobRecord],
    served: &ServeRun,
    b: usize,
    tracer: &mut Tracer,
    tally: &mut Tally,
) -> Vec<Metric> {
    let probes = tracer.begin("probes", None);
    let parent = probes.as_ref().map(|o| o.id());
    // The layer probes run on the first batch task: the workload's own job,
    // or serve-stream's WordCount requests.
    let task = &plan.batch_tasks()[0];
    let config = engines.get(Backend::RamrStatic, task.container()).config().clone();
    let mut out: Vec<Metric> = task
        .layer_probes(&config, tracer, parent)
        .into_iter()
        .map(|(name, value, unit)| metric(name, value, unit, 1))
        .collect();
    out.push(metric("mr-apps.serial_job_ms", ms(task.serial_time()), "ms", 1));

    let mut probed = Vec::new();
    if !records.iter().any(|r| !r.rounds.is_empty()) {
        for backend in [Backend::RamrStatic, Backend::RamrAdaptive] {
            let engine = engines.get(backend, task.container());
            for _ in 0..PIPELINE_PROBES {
                let (verdict, record) = task.pipeline_probe(backend, engine, b, tracer, parent);
                tally.record(verdict);
                probed.extend(record);
            }
        }
    }
    out.extend(pipeline_metrics(if probed.is_empty() { records } else { &probed }));

    let render =
        tracer.span("probe.ramr-serve.render_digest", parent, || (plan.mix.render_probe)());
    out.push(metric("ramr-serve.render_digest_us", render.as_secs_f64() * 1e6, "us", 1));
    if let Some(frame) = &served.sample_frame {
        let rt = tracer.span("probe.ramr-serve.frame_roundtrip", parent, || {
            crate::probes::frame_roundtrip(frame)
        });
        out.push(metric("ramr-serve.frame_roundtrip_us", rt.as_secs_f64() * 1e6, "us", 1));
    }
    tracer.end(probes);
    out
}

/// Traced against untraced job p50, as a share of the untraced p50,
/// averaged over the backends.
fn trace_overhead(records: &[JobRecord]) -> Metric {
    let shares: Vec<f64> = Backend::ALL
        .iter()
        .filter_map(|&bk| {
            let p50 = |traced: bool| {
                median(
                    &records
                        .iter()
                        .filter(|r| r.backend == bk && r.traced == traced)
                        .map(|r| ms(r.wall))
                        .collect::<Vec<_>>(),
                )
            };
            Some((p50(true)? - p50(false)?) / p50(false)?)
        })
        .collect();
    metric("trace.overhead_frac", mean(&shares).unwrap_or(0.0), "ratio", records.len())
}
