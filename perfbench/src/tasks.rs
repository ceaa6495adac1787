//! Timed batch jobs: one engine call each, checked against the serial
//! reference, with the counters the public API returns kept per job.

use std::time::{Duration, Instant};

use mr_apps::kmeans::ClusterAccum;
use mr_apps::{AppKind, KmeansJob, KmeansState, Point};
use mr_core::{ContainerKind, JobOutput, MapReduceJob, PhaseStats, RuntimeConfig, RuntimeError};
use mrsim::{simulate, SimConfig, SimJob};
use ramr::{AnyEngine, Backend, Engine, EngineReport, Pipeline, PipelineOutcome};
use ramr_telemetry::ThreadTelemetry;
use ramr_topology::MachineModel;

use crate::check::{
    km_centroids, km_matches, os_threads, pairs_digest, serial_reduce, DigestKey, Verdict,
};
use crate::probes;
use crate::trace::Tracer;

/// Rounds of every pipeline the benchmark runs (k-means and the pipeline
/// probe alike).
pub const PIPELINE_ROUNDS: usize = 3;

/// One round of a pipeline job.
#[derive(Debug, Clone)]
pub struct RoundRecord {
    /// The round's submit wall time (`StageReport::elapsed`).
    pub elapsed: Duration,
    /// The round's partition + map-combine + reduce + merge.
    pub phase_sum: Duration,
    /// Whether the round's tuner started from a carried-forward seed.
    pub seeded: bool,
}

/// What one timed job left behind.
#[derive(Debug, Clone)]
pub struct JobRecord {
    /// Backend that ran it.
    pub backend: Backend,
    /// Wall time of the whole engine call, thread spawn and join included.
    pub wall: Duration,
    /// Phase times and counters (summed over rounds for a pipeline).
    pub stats: PhaseStats,
    /// Per-thread telemetry (every round's, for a pipeline).
    pub threads: Vec<ThreadTelemetry>,
    /// Adaptive-controller decisions.
    pub adaptations: usize,
    /// Whether the call ran inside a span.
    pub traced: bool,
    /// Per-round records; empty for a single submit.
    pub rounds: Vec<RoundRecord>,
    /// The `mrsim` prediction for this job on this backend, in ms.
    pub predicted_ms: f64,
}

impl JobRecord {
    fn single(backend: Backend, wall: Duration, stats: PhaseStats, report: EngineReport) -> Self {
        JobRecord {
            backend,
            wall,
            stats,
            threads: report.threads,
            adaptations: report.adaptation.len(),
            traced: false,
            rounds: Vec::new(),
            predicted_ms: 0.0,
        }
    }

    fn pipeline<K, V>(
        backend: Backend,
        wall: Duration,
        outcome: &PipelineOutcome<K, V>,
        round_stats: &[PhaseStats],
    ) -> Self {
        let mut stats = PhaseStats::default();
        for s in round_stats {
            stats.partition += s.partition;
            stats.map_combine += s.map_combine;
            stats.reduce += s.reduce;
            stats.merge += s.merge;
            stats.tasks += s.tasks;
            stats.emitted += s.emitted;
            stats.queue_full_events += s.queue_full_events;
        }
        stats.output_keys = outcome.output.stats.output_keys;
        let stages = &outcome.report.stages;
        JobRecord {
            backend,
            wall,
            stats,
            threads: stages.iter().flat_map(|s| s.report.threads.iter().cloned()).collect(),
            adaptations: stages.iter().map(|s| s.report.adaptation.len()).sum(),
            traced: false,
            rounds: stages
                .iter()
                .zip(round_stats)
                .map(|(s, st)| RoundRecord {
                    elapsed: s.elapsed,
                    phase_sum: st.total(),
                    seeded: s.seeded.is_some(),
                })
                .collect(),
            predicted_ms: 0.0,
        }
    }
}

/// The configuration every backend runs at: an equal budget of `b`
/// threads (RAMR splits it `b - b/2` mappers to `b/2` combiners, Phoenix
/// runs `b` workers), `b` reducers, the app's container, and every other
/// knob at its default.
///
/// # Errors
///
/// [`RuntimeError::InvalidConfig`] when `b` cannot be split (one CPU).
pub fn engine_config(
    b: usize,
    backend: Backend,
    container: ContainerKind,
) -> Result<RuntimeConfig, RuntimeError> {
    let builder = RuntimeConfig::builder().num_reducers(b).container(container);
    match backend {
        Backend::Phoenix => builder.num_workers(b),
        _ => builder.num_workers(b - b / 2).num_combiners(b / 2),
    }
    .build()
}

/// `mrsim`'s prediction in ms for `rounds` runs of `app` over `items`
/// input elements with `keys` distinct keys, per backend in
/// [`Backend::ALL`] order. The model has no adaptive controller, so both
/// RAMR backends get the static-split prediction.
pub fn predict(
    machine: &MachineModel,
    b: usize,
    app: AppKind,
    items: u64,
    keys: u64,
    rounds: usize,
) -> [f64; 3] {
    let job = SimJob {
        profile: ramr_perfmodel::catalog::default_profile(app),
        input_elements: items,
        unique_keys: keys,
    };
    let ramr = SimConfig {
        total_threads: b,
        mappers: b - b / 2,
        combiners: b / 2,
        ..SimConfig::ramr(machine.clone())
    };
    let phoenix = SimConfig { total_threads: b, ..SimConfig::phoenix(machine.clone()) };
    let ms = |cfg: &SimConfig| simulate(&job, cfg).total_ns() * rounds as f64 / 1e6;
    let r = ms(&ramr);
    [r, r, ms(&phoenix)]
}

fn backend_index(backend: Backend) -> usize {
    Backend::ALL.iter().position(|&x| x == backend).expect("a known backend")
}

/// A kind of timed job a workload runs.
pub trait BatchTask: Sync {
    /// The container its engines are configured with.
    fn container(&self) -> ContainerKind;

    /// Runs the job once on `engine`, inside a span when tracing.
    fn run(
        &self,
        backend: Backend,
        engine: &AnyEngine,
        b: usize,
        tracer: &mut Tracer,
        parent: Option<u64>,
    ) -> (Verdict, Option<JobRecord>);

    /// Runs the job as a [`PIPELINE_ROUNDS`]-round pipeline on one pooled
    /// session (the session+pipeline layer probe).
    fn pipeline_probe(
        &self,
        backend: Backend,
        engine: &AnyEngine,
        b: usize,
        tracer: &mut Tracer,
        parent: Option<u64>,
    ) -> (Verdict, Option<JobRecord>);

    /// The standalone map, SPSC and container probes on this job's items,
    /// as `(metric, value, unit)`.
    fn layer_probes(
        &self,
        config: &RuntimeConfig,
        tracer: &mut Tracer,
        parent: Option<u64>,
    ) -> Vec<(String, f64, &'static str)>;

    /// The serial reference run's wall time.
    fn serial_time(&self) -> Duration;
}

/// A pipeline's outcome with every round's phase stats.
type Rounds<J> = Result<
    (PipelineOutcome<<J as MapReduceJob>::Key, <J as MapReduceJob>::Value>, Vec<PhaseStats>),
    RuntimeError,
>;

/// Runs [`PIPELINE_ROUNDS`] rounds of `job` through `Pipeline::iterate`,
/// keeping each round's phase stats (the step sees every round's output),
/// and the pipeline's wall time.
fn iterate<J, S>(
    engine: &AnyEngine,
    job: J,
    mut step: S,
    input: &[J::Input],
) -> (Duration, Rounds<J>)
where
    J: MapReduceJob + 'static,
    S: FnMut(&mut J, &JobOutput<J::Key, J::Value>) -> f64,
{
    let mut round_stats = Vec::with_capacity(PIPELINE_ROUNDS);
    let plan = Pipeline::iterate(job, |job: &mut J, out: &JobOutput<J::Key, J::Value>| {
        round_stats.push(out.stats.clone());
        step(job, out)
    })
    .rounds(PIPELINE_ROUNDS);
    let started = Instant::now();
    let result = engine.pipeline(plan, input);
    let wall = started.elapsed();
    (wall, result.map(|outcome| (outcome, round_stats)))
}

/// Whether every round of a pipeline ran and kept the thread budget.
fn pipeline_ok<K, V>(
    outcome: &PipelineOutcome<K, V>,
    backend: Backend,
    b: usize,
    combiners: usize,
) -> bool {
    outcome.report.stages.len() == PIPELINE_ROUNDS
        && outcome
            .report
            .stages
            .iter()
            .all(|s| os_threads(backend, &s.report.threads, combiners) == b)
}

/// A single-submit job whose output is exact `(key, count)` pairs.
#[derive(Debug)]
pub struct SubmitTask<J: MapReduceJob> {
    job: J,
    input: Vec<J::Input>,
    container: ContainerKind,
    expected: u64,
    serial: Duration,
    predicted: [f64; 3],
    label: &'static str,
}

impl<J> SubmitTask<J>
where
    J: MapReduceJob<Value = u64>,
    J::Key: DigestKey,
{
    /// Computes the serial reference for `job` over `input` (timed: this
    /// is `mr-apps.serial_job_ms`) and the model's prediction.
    pub fn new(
        label: &'static str,
        app: AppKind,
        job: J,
        input: Vec<J::Input>,
        machine: &MachineModel,
        b: usize,
    ) -> Self {
        let started = Instant::now();
        let reference = serial_reduce(&job, &input);
        let serial = started.elapsed();
        SubmitTask {
            predicted: predict(machine, b, app, input.len() as u64, reference.len() as u64, 1),
            container: app.default_container(),
            expected: pairs_digest(&reference),
            serial,
            job,
            input,
            label,
        }
    }

    /// The job's input.
    pub fn input(&self) -> &[J::Input] {
        &self.input
    }

    /// The job.
    pub fn job(&self) -> &J {
        &self.job
    }

    /// Whether `pairs` is the reference output.
    pub fn matches(&self, pairs: &[(J::Key, u64)]) -> bool {
        pairs_digest(pairs) == self.expected
    }
}

impl<J> BatchTask for SubmitTask<J>
where
    J: MapReduceJob<Value = u64> + Clone + Send + 'static,
    J::Key: DigestKey,
    J::Input: Sync,
{
    fn container(&self) -> ContainerKind {
        self.container
    }

    fn run(
        &self,
        backend: Backend,
        engine: &AnyEngine,
        b: usize,
        tracer: &mut Tracer,
        parent: Option<u64>,
    ) -> (Verdict, Option<JobRecord>) {
        let open = tracer.begin(format!("{backend}.submit.{}", self.label), parent);
        let started = Instant::now();
        let result = engine.submit(&self.job, &self.input);
        let wall = started.elapsed();
        tracer.end(open);
        match result {
            Err(_) => (Verdict::Error, None),
            Ok(out) => {
                let ok = self.matches(&out.output.pairs)
                    && os_threads(backend, &out.report.threads, engine.config().num_combiners) == b;
                let mut record = JobRecord::single(backend, wall, out.output.stats, out.report);
                record.traced = tracer.enabled();
                record.predicted_ms = self.predicted[backend_index(backend)];
                (if ok { Verdict::Ok } else { Verdict::Mismatch }, Some(record))
            }
        }
    }

    fn pipeline_probe(
        &self,
        backend: Backend,
        engine: &AnyEngine,
        b: usize,
        tracer: &mut Tracer,
        parent: Option<u64>,
    ) -> (Verdict, Option<JobRecord>) {
        let open = tracer.begin(format!("{backend}.pipeline.{}", self.label), parent);
        let (wall, result) = iterate(engine, self.job.clone(), |_, _| 1.0, &self.input);
        tracer.end(open);
        match result {
            Err(_) => (Verdict::Error, None),
            Ok((outcome, round_stats)) => {
                let ok = self.matches(&outcome.output.pairs)
                    && pipeline_ok(&outcome, backend, b, engine.config().num_combiners);
                let record = JobRecord::pipeline(backend, wall, &outcome, &round_stats);
                (if ok { Verdict::Ok } else { Verdict::Mismatch }, Some(record))
            }
        }
    }

    fn layer_probes(
        &self,
        config: &RuntimeConfig,
        tracer: &mut Tracer,
        parent: Option<u64>,
    ) -> Vec<(String, f64, &'static str)> {
        generic_probes(&self.job, &self.input, self.container, config, tracer, parent)
    }

    fn serial_time(&self) -> Duration {
        self.serial
    }
}

/// The map, SPSC and container probes for any job.
fn generic_probes<J>(
    job: &J,
    input: &[J::Input],
    container: ContainerKind,
    config: &RuntimeConfig,
    tracer: &mut Tracer,
    parent: Option<u64>,
) -> Vec<(String, f64, &'static str)>
where
    J: MapReduceJob,
{
    let map = tracer.span("probe.mr-apps.map", parent, || probes::map_probe(job, input));
    let pairs = probes::hashed_pairs(job, input, config.hasher);
    let spsc = tracer
        .span("probe.ramr-spsc.handoff", parent, || probes::spsc_probe(pairs.clone(), config));
    let cont = tracer.span("probe.ramr-containers.insert", parent, || {
        probes::container_probe(job, pairs, container)
    });
    vec![
        ("mr-apps.map_ns_per_item".into(), map.ns_per_item, "ns"),
        ("mr-apps.pairs_per_item".into(), map.pairs_per_item, "count"),
        ("ramr-spsc.handoff_ns_per_pair".into(), spsc.ns_per_pair, "ns"),
        ("ramr-spsc.failed_pushes_per_kpair".into(), spsc.failed_pushes_per_kpair, "count"),
        ("ramr-containers.insert_ns_per_pair".into(), cont.ns_per_pair, "ns"),
        ("ramr-containers.keys".into(), cont.keys as f64, "count"),
    ]
}

/// Residual the k-means step reports on top of the centroid movement, so
/// every pipeline runs exactly [`PIPELINE_ROUNDS`] rounds.
const KM_RESIDUAL_FLOOR: f64 = 1.0;

/// k-means as one `Pipeline::iterate` of [`PIPELINE_ROUNDS`] rounds.
#[derive(Debug)]
pub struct KmTask {
    points: Vec<Point>,
    initial: Vec<Point>,
    expected: Vec<(u32, ClusterAccum)>,
    serial: Duration,
    predicted: [f64; 3],
}

impl KmTask {
    /// Seeds `clusters` centroids from the first distinct points and runs
    /// the serial reference rounds (timed).
    pub fn new(points: Vec<Point>, clusters: usize, machine: &MachineModel, b: usize) -> Self {
        let initial = KmeansState::seeded(&points, clusters).centroids().to_vec();
        let started = Instant::now();
        let mut centroids = initial.clone();
        let mut reduced = Vec::new();
        for _ in 0..PIPELINE_ROUNDS {
            reduced = serial_reduce(&KmeansJob::new(centroids.clone()), &points);
            centroids = km_centroids(&reduced, &centroids);
        }
        let serial = started.elapsed();
        KmTask {
            predicted: predict(
                machine,
                b,
                AppKind::Kmeans,
                points.len() as u64,
                clusters as u64,
                PIPELINE_ROUNDS,
            ),
            points,
            initial,
            expected: reduced,
            serial,
        }
    }

    fn step(job: &mut KmeansJob, out: &JobOutput<u32, ClusterAccum>) -> f64 {
        let next = km_centroids(&out.pairs, job.centroids());
        let moved = next
            .iter()
            .zip(job.centroids())
            .flat_map(|(a, b)| a.iter().zip(b).map(|(x, y)| (x - y).abs()))
            .fold(0.0, f64::max);
        *job = KmeansJob::new(next);
        moved.max(KM_RESIDUAL_FLOOR)
    }
}

impl BatchTask for KmTask {
    fn container(&self) -> ContainerKind {
        AppKind::Kmeans.default_container()
    }

    fn run(
        &self,
        backend: Backend,
        engine: &AnyEngine,
        b: usize,
        tracer: &mut Tracer,
        parent: Option<u64>,
    ) -> (Verdict, Option<JobRecord>) {
        let open = tracer.begin(format!("{backend}.pipeline.km"), parent);
        let (wall, result) =
            iterate(engine, KmeansJob::new(self.initial.clone()), KmTask::step, &self.points);
        tracer.end(open);
        match result {
            Err(_) => (Verdict::Error, None),
            Ok((outcome, round_stats)) => {
                let ok = km_matches(&outcome.output.pairs, &self.expected)
                    && pipeline_ok(&outcome, backend, b, engine.config().num_combiners);
                let mut record = JobRecord::pipeline(backend, wall, &outcome, &round_stats);
                record.traced = tracer.enabled();
                record.predicted_ms = self.predicted[backend_index(backend)];
                (if ok { Verdict::Ok } else { Verdict::Mismatch }, Some(record))
            }
        }
    }

    fn pipeline_probe(
        &self,
        backend: Backend,
        engine: &AnyEngine,
        b: usize,
        tracer: &mut Tracer,
        parent: Option<u64>,
    ) -> (Verdict, Option<JobRecord>) {
        self.run(backend, engine, b, tracer, parent)
    }

    fn layer_probes(
        &self,
        config: &RuntimeConfig,
        tracer: &mut Tracer,
        parent: Option<u64>,
    ) -> Vec<(String, f64, &'static str)> {
        let job = KmeansJob::new(self.initial.clone());
        generic_probes(&job, &self.points, self.container(), config, tracer, parent)
    }

    fn serial_time(&self) -> Duration {
        self.serial
    }
}
