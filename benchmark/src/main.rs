//! The FedDA repo benchmark.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload fedda_dblp --seed 1 --seconds 20 --trace 0
//! ```
//!
//! With `--trace 0` the runner repeats the workload, each repetition in a
//! child process of its own (so peak memory is per repetition), for about
//! `--seconds` seconds and at least three times; it checks every
//! repetition's output and prints the end-to-end metrics. With `--trace 1`
//! it runs one untraced and one traced repetition of the same seed, checks
//! that both produce the same fingerprint, and prints the per-layer table.
//! The last line of standard output is always one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; the exit code is non-zero
//! when an output check failed.

mod clock;
mod layers;
mod stats;
mod trace;
mod workloads;

use serde_json::{json, Value};
use stats::{median, tail_percentile};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};
use trace::Recorder;
use workloads::Workload;

const USAGE: &str = "usage: fedda-benchmark --workload <fedda_dblp|async_fleet|table2_quick> \
--seed <n> --seconds <n> --trace <0|1>";

/// A seed kept out of every run made while the benchmark was written, for
/// checking later claims on inputs nobody tuned against.
const HOLDOUT_SEED: u64 = 7_300_417;

/// Untraced repetitions per run, at least.
const MIN_REPS: usize = 3;

/// Every end-to-end metric with its unit, in `end_to_end`'s order. Times
/// are process CPU time (see `clock`). `time_to_auc_s` is printed next to them but is not one of
/// them: the round at which a run first reaches the target moves by tens of
/// percent from seed to seed, more than any bound the benchmark can hold.
const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("client_updates_per_s", "1/s"),
    ("round_ms.p50", "ms"),
    ("round_ms.p90", "ms"),
    ("final_auc", "auc"),
    ("uplink_mb", "MB"),
    ("peak_rss_mb", "MB"),
    ("ok_share", "share"),
];

#[derive(Clone, Copy, PartialEq)]
enum Child {
    Plain,
    Traced,
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    child: Option<Child>,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut child) =
        (None, None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("missing value for {flag}"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            "--child" => {
                child = Some(match value.as_str() {
                    "plain" => Child::Plain,
                    "traced" => Child::Traced,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(20),
        trace: trace.unwrap_or(false),
        child,
    })
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Client updates run on `min(2, nproc)` workers.
fn workers() -> usize {
    nproc().min(2)
}

fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Peak resident memory of this process so far, in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// One repetition, run inside this (child) process; prints its outcome as
/// one JSON line.
fn child(args: &Args, mode: Child) -> ExitCode {
    let tracer = (mode == Child::Traced).then(|| Arc::new(Recorder::new()));
    let run = || workloads::run(args.workload, args.seed, workers(), tracer.as_ref());
    let mut rep = match fedda_tensor::gemm::with_kernel_threads(1, run) {
        Ok(rep) => rep,
        Err(e) => {
            eprintln!("driver error: {e}");
            return ExitCode::from(3);
        }
    };
    let round_ms: Vec<f64> = rep.round_ns.iter().map(|&ns| ns as f64 / 1e6).collect();
    let curve: Vec<Value> = rep
        .curve
        .iter()
        .map(|&(round, at_ns, auc)| json!([round, secs(at_ns), auc]))
        .collect();
    let mut out = json!({
        "setup_s": secs(rep.setup_ns()),
        "run_s": secs(rep.run_ns),
        "run_wall_s": secs(rep.run_wall_ns),
        "updates": rep.updates,
        "round_ms": round_ms,
        "time_to_auc_s": secs(rep.time_to_auc_ns),
        "target_missed": rep.target_missed,
        "final_auc": rep.final_auc,
        "uplink_bytes": rep.uplink_bytes,
        "fingerprint": format!("{:016x}", rep.fingerprint),
        "non_finite": rep.non_finite,
        "peak_rss_mb": peak_rss_mb(),
        "curve": curve,
    });
    if let Some(rec) = &tracer {
        let spans = rec.take();
        if let Err(e) = write_spans(args, &spans) {
            eprintln!("cannot write spans: {e}");
        }
        let report = fedda_tensor::gemm::with_kernel_threads(1, || {
            layers::report(args.workload, &mut rep, &spans, workers())
        });
        let metrics: Vec<(String, Value)> = report
            .metrics
            .iter()
            .map(|(k, v)| (k.to_string(), json!(v)))
            .collect();
        let ops: Vec<Value> = report
            .ops
            .iter()
            .map(|o| json!({"metric": o.metric, "shape": o.shape, "ops": o.ops}))
            .collect();
        out["layers"] = Value::Object(metrics);
        out["ops"] = json!(ops);
        out["traced_run_s"] = json!(report.run_ns / 1e9);
        out["replays"] = json!(report.replays);
        out["replay_mismatches"] = json!(report.mismatches);
    }
    println!("{}", serde_json::to_string(&out).unwrap_or_default());
    ExitCode::SUCCESS
}

fn write_spans(args: &Args, spans: &[trace::Span]) -> std::io::Result<()> {
    use std::io::Write;
    std::fs::create_dir_all(out_dir())?;
    let path = out_dir().join(format!(
        "{}-seed{}.spans.jsonl",
        args.workload.name(),
        args.seed
    ));
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let line = json!({"id": s.id, "parent": s.parent, "run": s.run, "name": s.name,
                          "start_ns": s.start_ns, "end_ns": s.end_ns, "tag": s.tag});
        writeln!(f, "{}", serde_json::to_string(&line).unwrap_or_default())?;
    }
    f.flush()
}

/// Spawn one repetition and parse its outcome; `Err` carries the reason it
/// failed.
fn spawn(args: &Args, mode: Child) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    let out = Command::new(exe)
        .args([
            "--workload",
            args.workload.name(),
            "--seed",
            &args.seed.to_string(),
            "--seconds",
            &args.seconds.to_string(),
            "--trace",
            if args.trace { "1" } else { "0" },
            "--child",
            if mode == Child::Traced {
                "traced"
            } else {
                "plain"
            },
        ])
        .stdin(Stdio::null())
        .output()
        .map_err(|e| format!("cannot start repetition: {e}"))?;
    eprint!("{}", String::from_utf8_lossy(&out.stderr));
    if !out.status.success() {
        return Err(format!("repetition exited with {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    serde_json::parse_value(last).map_err(|e| format!("unreadable repetition output: {e}"))
}

fn num(v: &Value, key: &str) -> f64 {
    v.get(key).and_then(Value::as_f64).unwrap_or(f64::NAN)
}

/// The output check of one repetition on its own; the fingerprint is
/// compared across repetitions afterwards.
fn check(w: Workload, v: &Value) -> Result<(), String> {
    if v.get("non_finite").and_then(Value::as_bool) != Some(false) {
        return Err("a global parameter is non-finite".into());
    }
    let auc = num(v, "final_auc");
    // A NaN AUC fails too.
    if auc.is_nan() || auc < w.auc_floor() {
        return Err(format!(
            "final_auc {auc:.4} is below the learning floor {}",
            w.auc_floor()
        ));
    }
    Ok(())
}

fn fingerprint(v: &Value) -> String {
    v.get("fingerprint")
        .and_then(Value::as_str)
        .unwrap_or_default()
        .to_string()
}

fn round_ms(v: &Value) -> Vec<f64> {
    v.get("round_ms")
        .and_then(Value::as_array)
        .map(|a| a.iter().filter_map(Value::as_f64).collect())
        .unwrap_or_default()
}

/// Each round's time as the median over the passing repetitions (which ran
/// the same rounds, their fingerprints being equal), so a burst of load
/// during one repetition does not move the percentiles.
fn round_profile(passed: &[&Value]) -> Vec<f64> {
    let per_rep: Vec<Vec<f64>> = passed.iter().map(|v| round_ms(v)).collect();
    let rounds = per_rep.iter().map(Vec::len).min().unwrap_or(0);
    (0..rounds)
        .map(|i| median(&per_rep.iter().map(|r| r[i]).collect::<Vec<_>>()).unwrap_or(f64::NAN))
        .collect()
}

/// The end-to-end values: medians over the passing repetitions, and the
/// round percentiles of their round profile.
fn end_to_end(passed: &[&Value], ok_share: f64) -> Result<Vec<f64>, String> {
    let med = |f: &dyn Fn(&Value) -> f64| {
        median(&passed.iter().map(|v| f(v)).collect::<Vec<_>>()).unwrap_or(f64::NAN)
    };
    let rounds = round_profile(passed);
    let p90 = tail_percentile(&rounds, 90.0).ok_or_else(|| {
        format!(
            "round_ms.p90 needs {} samples beyond it; the workload has {} rounds",
            stats::MIN_BEYOND,
            rounds.len()
        )
    })?;
    eprintln!(
        "round_ms over {} rounds (each the median of {} repetitions); \
         other values are medians over those repetitions",
        rounds.len(),
        passed.len()
    );
    Ok(vec![
        med(&|v| num(v, "setup_s")),
        med(&|v| num(v, "run_s")),
        med(&|v| num(v, "updates") / num(v, "run_s")),
        median(&rounds).unwrap_or(f64::NAN),
        p90,
        med(&|v| num(v, "final_auc")),
        med(&|v| num(v, "uplink_bytes") / 1e6),
        med(&|v| num(v, "peak_rss_mb")),
        ok_share,
    ])
}

fn env_fingerprint(args: &Args) -> Value {
    let rustc = Command::new("rustc")
        .arg("--version")
        .stdin(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    json!({
        "workload": args.workload.name(),
        "seed": args.seed,
        "holdout_seed": args.seed == HOLDOUT_SEED,
        "trace": args.trace,
        "nproc": nproc(),
        "workers": workers(),
        "kernel_threads": 1,
        "rustc": rustc,
        "git_revision": git_revision(),
    })
}

/// The checked-out commit, read from `.git` without running git; a source
/// export that is not a git checkout reports `unknown`.
fn git_revision() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    match head.strip_prefix("ref: ") {
        None => head,
        Some(r) => read(&format!(".git/{r}"))
            .or_else(|| {
                read(".git/packed-refs")?
                    .lines()
                    .find(|l| l.ends_with(r))
                    .and_then(|l| l.split_whitespace().next().map(str::to_string))
            })
            .unwrap_or_else(|| "unknown".into()),
    }
}

fn metric_map(names: &[(&str, &str)], values: &[f64]) -> Value {
    Value::Object(
        names
            .iter()
            .zip(values)
            .map(|((name, unit), v)| {
                let v = if v.is_finite() { *v } else { 0.0 };
                (name.to_string(), json!({"value": v, "unit": unit}))
            })
            .collect(),
    )
}

/// Untraced repetitions for about `--seconds`, then the end-to-end report.
fn measure(args: &Args) -> (bool, usize, usize, Value) {
    let start = Instant::now();
    let budget = Duration::from_secs(args.seconds);
    let mut outcomes = Vec::new();
    loop {
        let t = Instant::now();
        outcomes.push(spawn(args, Child::Plain));
        let last = t.elapsed();
        if outcomes.len() >= MIN_REPS && start.elapsed() + last > budget {
            break;
        }
    }
    let attempted = outcomes.len();
    let verdicts: Vec<Result<Value, String>> = outcomes
        .into_iter()
        .map(|o| o.and_then(|v| check(args.workload, &v).map(|()| v)))
        .collect();
    // The fingerprint most passing repetitions share is the reference.
    let prints: Vec<String> = verdicts.iter().flatten().map(fingerprint).collect();
    let reference = prints
        .iter()
        .max_by_key(|p| prints.iter().filter(|q| q == p).count())
        .cloned()
        .unwrap_or_default();
    let mut passed = Vec::new();
    for (i, verdict) in verdicts.iter().enumerate() {
        let v = verdict.as_ref().map_err(Clone::clone).and_then(|v| {
            if fingerprint(v) == reference {
                Ok(v)
            } else {
                Err(format!(
                    "fingerprint {} differs from {reference} on the same seed",
                    fingerprint(v)
                ))
            }
        });
        match v {
            Ok(v) => {
                eprintln!(
                    "rep {i}: setup {:.4} s, run {:.4} s (wall {:.4} s), final_auc {:.4}, \
                     time_to_auc_s {:.4} (runs missing the target: {})",
                    num(v, "setup_s"),
                    num(v, "run_s"),
                    num(v, "run_wall_s"),
                    num(v, "final_auc"),
                    num(v, "time_to_auc_s"),
                    num(v, "target_missed"),
                );
                passed.push(v);
            }
            Err(e) => eprintln!("rep {i}: FAILED: {e}"),
        }
    }
    let failed = attempted - passed.len();
    let ok_share = passed.len() as f64 / attempted as f64;
    let (correct, values) = match end_to_end(&passed, ok_share) {
        Ok(values) => (failed == 0, values),
        Err(e) => {
            eprintln!("no end-to-end values: {e}");
            (false, vec![f64::NAN; END_TO_END.len()])
        }
    };
    if let Some(v) = verdicts.iter().flatten().next() {
        let curve: Vec<String> = v
            .get("curve")
            .and_then(Value::as_array)
            .map(|c| {
                c.iter()
                    .map(|p| {
                        format!(
                            "{}:{:.3}",
                            p[0].as_f64().unwrap_or(f64::NAN),
                            p[2].as_f64().unwrap_or(f64::NAN)
                        )
                    })
                    .collect()
            })
            .unwrap_or_default();
        eprintln!("auc curve (round:auc) of rep 0: {}", curve.join(" "));
    }
    for ((name, unit), v) in END_TO_END.iter().zip(&values) {
        eprintln!("  {name:<22} {v:>14.6} {unit}");
    }
    (correct, attempted, failed, metric_map(&END_TO_END, &values))
}

/// One untraced and one traced repetition of the same seed, then the
/// per-layer report.
fn traced(args: &Args) -> (bool, usize, usize, Value) {
    let plain = spawn(args, Child::Plain).and_then(|v| check(args.workload, &v).map(|()| v));
    let traced = spawn(args, Child::Traced).and_then(|v| check(args.workload, &v).map(|()| v));
    let mut failed = 0;
    let mut correct = true;
    for (label, r) in [("untraced", &plain), ("traced", &traced)] {
        if let Err(e) = r {
            eprintln!("{label} repetition FAILED: {e}");
            failed += 1;
            correct = false;
        }
    }
    let (Ok(plain), Ok(traced)) = (plain, traced) else {
        let zeros = vec![0.0; layers::METRICS.len() + 1];
        let mut names = layers::METRICS.to_vec();
        names.push(layers::OVERHEAD);
        return (false, 2, failed, metric_map(&names, &zeros));
    };
    let (fp_plain, fp_traced) = (fingerprint(&plain), fingerprint(&traced));
    eprintln!("fingerprint untraced {fp_plain}  traced {fp_traced}");
    if fp_plain != fp_traced {
        eprintln!("tracing perturbed the run: fingerprints differ");
        correct = false;
        failed += 1;
    }
    let mismatches = num(&traced, "replay_mismatches");
    eprintln!(
        "replayed {} client updates bit for bit against the driver's returns: \
         {mismatches} mismatches",
        num(&traced, "replays")
    );
    if mismatches != 0.0 {
        correct = false;
    }
    let layer_values = traced.get("layers").cloned().unwrap_or(Value::Null);
    let mut names = layers::METRICS.to_vec();
    names.push(layers::OVERHEAD);
    let plain_run = num(&plain, "run_s");
    let overhead = (num(&traced, "traced_run_s") - plain_run) / plain_run;
    let mut values: Vec<f64> = layers::METRICS
        .iter()
        .map(|(n, _)| num(&layer_values, n))
        .collect();
    values.push(overhead);
    eprintln!(
        "untraced run_s {plain_run:.4}  traced run_s {:.4} (tracer work excluded)",
        num(&traced, "traced_run_s")
    );
    let ops = traced
        .get("ops")
        .and_then(Value::as_array)
        .cloned()
        .unwrap_or_default();
    for ((name, unit), v) in names.iter().zip(&values) {
        let op = ops
            .iter()
            .find(|o| o.get("metric").and_then(Value::as_str) == Some(name))
            .map(|o| {
                format!(
                    "   [{} ; {} ops]",
                    o.get("shape").and_then(Value::as_str).unwrap_or_default(),
                    num(o, "ops")
                )
            })
            .unwrap_or_default();
        eprintln!("  {name:<30} {v:>14.6} {unit}{op}");
    }
    (correct, 2, failed, metric_map(&names, &values))
}

fn coordinator(args: &Args) -> ExitCode {
    let env = env_fingerprint(args);
    eprintln!("env: {}", serde_json::to_string(&env).unwrap_or_default());
    let (correct, attempted, failed, metrics) = if args.trace {
        traced(args)
    } else {
        measure(args)
    };
    let result = json!({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    });
    let record = json!({"env": env, "result": result.clone()});
    let path = out_dir().join(format!(
        "{}-seed{}-trace{}.json",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    ));
    if let Err(e) = std::fs::create_dir_all(out_dir()).and_then(|()| {
        std::fs::write(
            &path,
            serde_json::to_string_pretty(&record).unwrap_or_default(),
        )
    }) {
        eprintln!("cannot write {}: {e}", path.display());
    }
    println!("{}", serde_json::to_string(&result).unwrap_or_default());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match args.child {
        Some(mode) => child(&args, mode),
        None => coordinator(&args),
    }
}
