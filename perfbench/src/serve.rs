//! The served path: an in-process loopback `ramr-serve` server driven by
//! `B` closed-loop client connections, one tenant each. A caller sends its
//! next SUBMIT only after reading the previous RESULT.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use mr_apps::inputs::{hg_input, wc_input, InputFlavor, InputSpec, Platform};
use mr_apps::{AppKind, Histogram, WordCount};
use ramr_serve::{
    digest64, render_pairs, JobRequest, JobResult, ServeClient, ServeConfig, ServeError, Server,
};
use ramr_telemetry::json::Value;
use ramr_topology::MachineModel;

use crate::check::{serial_reduce, Tally, Verdict};
use crate::gen::SplitMix;
use crate::tasks::{BatchTask, SubmitTask};
use crate::trace::Tracer;

/// The two apps a request may carry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ServeApp {
    /// WordCount over Table I WC text.
    Wc,
    /// Histogram over Table I HG pixels.
    Hg,
}

/// One request shape: an app at a Table I HWL-small scale divisor. The
/// wire names its input instead of shipping it, so the server generates
/// it; the benchmark's seed picks the scales and the per-request app.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ServeSpec {
    /// App.
    pub app: ServeApp,
    /// Scale divisor over Table I HWL-small.
    pub scale: u64,
}

/// Scale divisors a spec may draw: about 1 ms of compute per job. The
/// range is narrow so that a new seed changes job sizes by no more than
/// the batch workloads' ±1% length jitter would.
const SCALES: std::ops::RangeInclusive<u64> = 2_970..=3_030;

/// Share of requests that carry Histogram. Unequal on purpose: with an
/// even split the median would sit in the gap between the two apps' job
/// times and jump with every seed. WordCount, the larger job, holds the
/// median, so a sub-millisecond Phoenix Histogram job does not.
const HG_SHARE: f64 = 0.3;

impl ServeSpec {
    /// The wire request.
    pub fn request(&self) -> JobRequest {
        let mut r = JobRequest::new(match self.app {
            ServeApp::Wc => "wc",
            ServeApp::Hg => "hg",
        });
        r.scale = self.scale;
        r
    }

    fn table1(&self) -> InputSpec {
        let app = match self.app {
            ServeApp::Wc => AppKind::WordCount,
            ServeApp::Hg => AppKind::Histogram,
        };
        InputSpec::table1(app, Platform::Haswell, InputFlavor::Small)
    }
}

/// The request mix for `seed`: one scale per app.
pub fn mix(seed: u64) -> Vec<ServeSpec> {
    let mut rng = SplitMix::new(seed, "serve-mix");
    let span = SCALES.end() - SCALES.start() + 1;
    [ServeApp::Wc, ServeApp::Hg]
        .into_iter()
        .map(|app| ServeSpec { app, scale: SCALES.start() + rng.below(span) })
        .collect()
}

/// The index into [`mix`] of the next request's spec.
pub fn pick(rng: &mut SplitMix) -> usize {
    // `mix` lists WordCount first, then Histogram.
    usize::from(rng.unit() < HG_SHARE)
}

/// The expected wire digest of every spec, and each spec as an in-process
/// job over the same generated input (the engine baseline).
pub struct MixAssets {
    /// The specs, in mix order.
    pub specs: Vec<ServeSpec>,
    /// Expected `digest64(render_pairs(..))` per spec, from the serial
    /// reference.
    pub digests: HashMap<ServeSpec, String>,
    /// In-process jobs, one per spec, in mix order.
    pub tasks: Vec<Box<dyn BatchTask>>,
    /// A `render_pairs` + `digest64` probe over the WordCount reference
    /// output.
    pub render_probe: Box<dyn Fn() -> Duration + Sync>,
}

impl std::fmt::Debug for MixAssets {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MixAssets").field("specs", &self.specs).finish_non_exhaustive()
    }
}

/// Generates every spec's input the way the server does and computes its
/// reference output.
pub fn assets(seed: u64, machine: &MachineModel, b: usize) -> MixAssets {
    let specs = mix(seed);
    let mut digests = HashMap::new();
    let mut tasks: Vec<Box<dyn BatchTask>> = Vec::new();
    let mut wc_reference = None;
    for spec in &specs {
        match spec.app {
            ServeApp::Wc => {
                let input = wc_input(&spec.table1(), spec.scale);
                let reference = serial_reduce(&WordCount, &input);
                digests.insert(*spec, digest64(&render_pairs(&reference)));
                wc_reference = Some(reference);
                tasks.push(Box::new(SubmitTask::new(
                    "wc",
                    AppKind::WordCount,
                    WordCount,
                    input,
                    machine,
                    b,
                )));
            }
            ServeApp::Hg => {
                let input = hg_input(&spec.table1(), spec.scale);
                let reference = serial_reduce(&Histogram, &input);
                digests.insert(*spec, digest64(&render_pairs(&reference)));
                tasks.push(Box::new(SubmitTask::new(
                    "hg",
                    AppKind::Histogram,
                    Histogram,
                    input,
                    machine,
                    b,
                )));
            }
        }
    }
    let pairs = wc_reference.expect("the mix always holds a WordCount spec");
    MixAssets {
        specs,
        digests,
        tasks,
        render_probe: Box::new(move || crate::probes::render_digest(&pairs)),
    }
}

/// Server configuration at the equal thread budget: each pool's session
/// gets `b - b/2` mappers and `b/2` combiners and `b` reducers; every other
/// knob stays at the server's default. Binds an ephemeral loopback port.
///
/// # Errors
///
/// The configuration error when `b` cannot be split.
pub fn serve_config(b: usize) -> Result<ServeConfig, String> {
    let mut config = ServeConfig { addr: "127.0.0.1:0".into(), ..ServeConfig::default() };
    config.base = config
        .base
        .clone()
        .into_builder()
        .num_workers(b - b / 2)
        .num_combiners(b / 2)
        .num_reducers(b)
        .build()
        .map_err(|e| format!("server config: {e}"))?;
    Ok(config)
}

/// A bound server and its connected callers.
pub struct Live {
    server: Server,
    /// One connection per caller.
    pub clients: Vec<ServeClient>,
}

impl std::fmt::Debug for Live {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Live").field("clients", &self.clients.len()).finish_non_exhaustive()
    }
}

/// One SUBMIT → RESULT exchange, checked.
fn exchange(
    client: &mut ServeClient,
    spec: &ServeSpec,
    digests: &HashMap<ServeSpec, String>,
    tracer: &mut Tracer,
    parent: Option<u64>,
) -> (Verdict, Option<(Duration, JobResult)>) {
    let request = spec.request();
    let started = Instant::now();
    let submitted = tracer.span("client.submit", parent, || client.submit(&request));
    let id = match submitted {
        Ok(id) => id,
        Err(ServeError::Shed { .. }) => return (Verdict::Shed, None),
        Err(_) => return (Verdict::Error, None),
    };
    match tracer.span("client.next_result", parent, || client.next_result()) {
        Ok(result) => {
            let elapsed = started.elapsed();
            let ok = result.id == id && digests.get(spec) == Some(&result.digest);
            (if ok { Verdict::Ok } else { Verdict::Mismatch }, Some((elapsed, result)))
        }
        Err(_) => (Verdict::Error, None),
    }
}

impl Live {
    /// Binds the server, connects `b` callers and sends every spec once
    /// (which makes the server open its pools and generate its inputs).
    ///
    /// # Errors
    ///
    /// Any bind, connect or warm-up failure.
    pub fn start(b: usize, assets: &MixAssets) -> Result<Live, String> {
        let server = Server::bind(serve_config(b)?).map_err(|e| format!("bind: {e}"))?;
        let addr = server.local_addr().to_string();
        let mut live = Live { server, clients: Vec::new() };
        for i in 0..b {
            let client = ServeClient::connect(&addr, &format!("tenant-{i}"), None)
                .map_err(|e| format!("connect: {e}"))?;
            live.clients.push(client);
        }
        let mut tracer = Tracer::new(false, Instant::now(), 0);
        for spec in &assets.specs {
            let (verdict, _) =
                exchange(&mut live.clients[0], spec, &assets.digests, &mut tracer, None);
            if verdict != Verdict::Ok {
                return Err(format!("warm-up request {spec:?} failed: {verdict:?}"));
            }
        }
        Ok(live)
    }

    /// Closes every connection and shuts the server down, waiting for all
    /// of its threads.
    pub fn stop(self) {
        drop(self.clients);
        self.server.shutdown();
        self.server.wait();
    }
}

/// One completed request.
#[derive(Debug, Clone, Copy)]
pub struct ReqRecord {
    /// When the RESULT was read.
    pub done: Instant,
    /// Client time from writing the SUBMIT to reading its RESULT.
    pub client: Duration,
    /// Server-reported queue wait.
    pub queued_ms: f64,
    /// Server-reported run time.
    pub ran_ms: f64,
}

/// What a serve segment measured.
#[derive(Debug)]
pub struct ServeRun {
    /// Completed requests, in completion order.
    pub records: Vec<ReqRecord>,
    /// Verdicts.
    pub tally: Tally,
    /// Segment wall time.
    pub elapsed: Duration,
    /// The last RESULT, re-framed (the frame-roundtrip probe's input).
    pub sample_frame: Option<Value>,
}

/// Drives the callers until `deadline` has passed and at least
/// `min_records` requests completed, or until `hard_deadline`.
pub fn stream(
    live: &mut Live,
    assets: &MixAssets,
    seed: u64,
    deadline: Instant,
    hard_deadline: Instant,
    min_records: usize,
    tracers: &mut [Tracer],
) -> ServeRun {
    let completed = AtomicUsize::new(0);
    let sample = Mutex::new(None);
    let started = Instant::now();
    let per_client: Vec<(Vec<ReqRecord>, Tally)> = std::thread::scope(|s| {
        let handles: Vec<_> = live
            .clients
            .iter_mut()
            .zip(tracers.iter_mut())
            .enumerate()
            .map(|(i, (client, tracer))| {
                let completed = &completed;
                let sample = &sample;
                s.spawn(move || {
                    let mut rng = SplitMix::new(seed, &format!("serve-caller-{i}"));
                    let mut records = Vec::new();
                    let mut tally = Tally::default();
                    let mut last = None;
                    loop {
                        let now = Instant::now();
                        let enough = completed.load(Ordering::Relaxed) >= min_records;
                        if (now >= deadline && enough) || now >= hard_deadline {
                            break;
                        }
                        let spec = assets.specs[pick(&mut rng)];
                        let open = tracer.begin("request", None);
                        let parent = open.as_ref().map(|o| o.id());
                        let (verdict, done) =
                            exchange(client, &spec, &assets.digests, tracer, parent);
                        tracer.end(open);
                        tally.record(verdict);
                        if let Some((elapsed, result)) = done {
                            completed.fetch_add(1, Ordering::Relaxed);
                            records.push(ReqRecord {
                                done: Instant::now(),
                                client: elapsed,
                                queued_ms: result.queued_ms,
                                ran_ms: result.ran_ms,
                            });
                            last = Some(result);
                        }
                        if tally.errors > 100 {
                            break;
                        }
                    }
                    if let Some(result) = last {
                        *sample.lock().expect("sample lock is never poisoned") = Some(result);
                    }
                    (records, tally)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("serve caller panicked")).collect()
    });
    let elapsed = started.elapsed();
    let mut records = Vec::new();
    let mut tally = Tally::default();
    for (r, t) in per_client {
        records.extend(r);
        tally.absorb(t);
    }
    records.sort_by_key(|r| r.done);
    let sample_frame = sample.into_inner().expect("sample lock is never poisoned").map(|r| {
        let mut frame = BTreeMap::new();
        frame.insert("type".to_string(), Value::Str("RESULT".into()));
        frame.insert("id".to_string(), Value::Num(r.id as f64));
        if let Some(rid) = r.request_id {
            frame.insert("request_id".to_string(), Value::Str(rid));
        }
        frame.insert("keys".to_string(), Value::Num(r.keys as f64));
        frame.insert("digest".to_string(), Value::Str(r.digest));
        frame.insert("queued_ms".to_string(), Value::Num(r.queued_ms));
        frame.insert("ran_ms".to_string(), Value::Num(r.ran_ms));
        frame.insert("metrics".to_string(), r.metrics);
        Value::Obj(frame)
    });
    ServeRun { records, tally, elapsed, sample_frame }
}
