//! `perfbench --workload NAME --seed N --seconds N --trace 0|1`
//!
//! Prints every metric by name with its unit and sample count, then, as
//! the last line, one JSON object: `correct`, `attempted`, `failed` and
//! `metrics`. The full run record (commit, host topology, thread budget,
//! seed, sample counts, model predictions) and, for a traced run, the
//! spans go under `out/` beside this crate.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use perfbench::bench::{self, Args, Outcome};
use ramr_telemetry::json::Value;
use ramr_topology::MachineModel;

const USAGE: &str = "usage: perfbench --workload hg-handoff|wc-zipf|km-iterate|serve-stream \
                     --seed N --seconds 1..60 --trace 0|1";

fn obj(members: Vec<(&str, Value)>) -> Value {
    Value::Obj(members.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// The commit of the enclosing git checkout, when there is one.
fn commit(repo: &Path) -> String {
    let git = repo.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown (not a git checkout)".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|l| l.strip_suffix(reference).map(|id| id.trim().to_string()))
        })
        .unwrap_or_else(|| format!("unknown ({reference})"))
}

fn record(args: &Args, outcome: &Outcome, repo: &Path) -> Value {
    let machine = MachineModel::detect();
    let metrics = outcome
        .metrics
        .iter()
        .map(|m| {
            obj(vec![
                ("name", Value::Str(m.name.clone())),
                ("value", Value::Num(m.value)),
                ("unit", Value::Str(m.unit.into())),
                ("samples", Value::Num(m.samples as f64)),
            ])
        })
        .collect();
    let model = outcome
        .model
        .iter()
        .map(|(backend, predicted, measured)| {
            obj(vec![
                ("backend", Value::Str(backend.to_string())),
                ("label", Value::Str("mrsim prediction, ungated".into())),
                ("predicted_ms", Value::Num(*predicted)),
                ("measured_job_p50_ms", Value::Num(*measured)),
            ])
        })
        .collect();
    let t = &outcome.tally;
    obj(vec![
        ("commit", Value::Str(commit(repo))),
        (
            "topology",
            obj(vec![
                ("name", Value::Str(machine.name.clone())),
                ("sockets", Value::Num(machine.sockets as f64)),
                ("cores_per_socket", Value::Num(machine.cores_per_socket as f64)),
                ("smt", Value::Num(machine.smt as f64)),
            ]),
        ),
        ("budget", Value::Num(outcome.budget as f64)),
        ("workload", Value::Str(args.workload.name().into())),
        ("seed", Value::Num(args.seed as f64)),
        ("seconds", Value::Num(args.seconds as f64)),
        ("trace", Value::Bool(args.trace)),
        ("input_digest", Value::Str(format!("{:016x}", outcome.input_digest))),
        ("attempted", Value::Num(t.attempted as f64)),
        ("mismatches", Value::Num(t.mismatches as f64)),
        ("errors", Value::Num(t.errors as f64)),
        ("sheds", Value::Num(t.sheds as f64)),
        ("failed_frac", Value::Num(t.failed_frac())),
        ("closure_flagged_jobs", Value::Num(outcome.closure_flags as f64)),
        ("metrics", Value::Arr(metrics)),
        ("model", Value::Arr(model)),
    ])
}

fn write(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

fn main() {
    let args = match bench::parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let outcome = match bench::run(&args) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };

    let crate_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let repo = crate_dir.parent().unwrap_or(&crate_dir).to_path_buf();
    let out = crate_dir.join("out");
    let stem = format!("{}-seed{}-trace{}", args.workload.name(), args.seed, u8::from(args.trace));
    let written = std::fs::create_dir_all(&out)
        .map_err(|e| format!("cannot create {}: {e}", out.display()))
        .and_then(|()| {
            write(&out.join(format!("{stem}.json")), &record(&args, &outcome, &repo).to_json())
        })
        .and_then(|()| {
            if args.trace {
                write(&out.join(format!("{stem}.trace.json")), &outcome.tracer.to_chrome_json())
            } else {
                Ok(())
            }
        });
    if let Err(e) = written {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }

    let t = &outcome.tally;
    println!(
        "# {} seed={} budget={} trace={} input={:016x}",
        args.workload.name(),
        args.seed,
        outcome.budget,
        u8::from(args.trace),
        outcome.input_digest
    );
    for m in &outcome.metrics {
        println!("{:<42} {:>14.4} {:<6} n={}", m.name, m.value, m.unit, m.samples);
    }
    println!(
        "{:<42} {:>14.4} {:<6} n={} (mismatches {}, errors {}, sheds {})",
        "failed_frac",
        t.failed_frac(),
        "ratio",
        t.attempted,
        t.mismatches,
        t.errors,
        t.sheds
    );
    for (backend, predicted, measured) in &outcome.model {
        println!("# model {backend}: predicted {predicted:.3} ms (mrsim, ungated), measured p50 {measured:.3} ms");
    }
    if outcome.closure_flags > 0 {
        println!("# closure: {} job(s) with phase sum above wall time", outcome.closure_flags);
    }

    let metrics: BTreeMap<String, Value> = outcome
        .metrics
        .iter()
        .map(|m| {
            (
                m.name.clone(),
                obj(vec![("value", Value::Num(m.value)), ("unit", Value::Str(m.unit.into()))]),
            )
        })
        .collect();
    let result = obj(vec![
        ("correct", Value::Bool(t.failed() == 0)),
        ("attempted", Value::Num(t.attempted as f64)),
        ("failed", Value::Num(t.failed() as f64)),
        ("metrics", Value::Obj(metrics)),
    ]);
    println!("{}", result.to_json());
}
