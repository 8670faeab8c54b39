//! The per-layer report of a traced repetition: span arithmetic over the
//! recorded run, plus probes that time layers the run reaches only through
//! inherent methods, called on the run's own inputs after it finished.

use crate::stats::median;
use crate::trace::{name, round_windows, self_time_ns, ProbeLog, Span, Tree};
use crate::workloads::{Phases, Rep, Workload};
use fedda_fl::{FaultEffect, FaultObserved, FedAvg, FedDa, FlProtocol, FlSystem};
use fedda_hetgraph::LinkSampler;
use fedda_tensor::{Graph, Matrix, Segments};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// Every per-layer metric, in report order, with its unit.
pub const METRICS: [(&str, &str); 43] = [
    ("data.generate_ms", "ms"),
    ("hetgraph.split_ms", "ms"),
    ("data.partition_ms", "ms"),
    ("fl.system.new_ms", "ms"),
    ("fl.protocol.select_ms", "ms"),
    ("fl.protocol.masks_ms", "ms"),
    ("fl.protocol.regularizer_ms", "ms"),
    ("fl.protocol.on_faults_ms", "ms"),
    ("fl.protocol.post_aggregate_ms", "ms"),
    ("fl.protocol.active_per_round", "count"),
    ("fl.protocol.mask_density", "share"),
    ("fl.protocol.deactivations", "count"),
    ("fl.protocol.reactivations", "count"),
    ("fl.local.window_ms", "ms"),
    ("fl.local.updates", "count"),
    ("fl.local.update_ms.p50", "ms"),
    ("fl.local.update_ms.max", "ms"),
    ("fl.local.pool_idle_share", "share"),
    ("fl.local.useful_share", "share"),
    ("hgn.train.encode_ms", "ms"),
    ("hgn.train.score_ms", "ms"),
    ("hgn.train.calls", "count"),
    ("hetgraph.sampler_new_us", "us"),
    ("hetgraph.sampler_builds", "count"),
    ("fl.eval.window_ms", "ms"),
    ("hgn.eval.logits_ms", "ms"),
    ("fl.eval.other_ms", "ms"),
    ("fl.eval.count", "count"),
    ("fl.compress.encode_us", "us"),
    ("fl.compress.decode_us", "us"),
    ("fl.faults.dropped", "count"),
    ("fl.faults.stale_applied", "count"),
    ("fl.faults.rejected", "count"),
    ("fl.runtime.versions", "count"),
    ("fl.runtime.wave_mean", "count"),
    ("fl.aggregate.us", "us"),
    ("fl.aggregate.calls", "count"),
    ("tensor.matmul_nn_us", "us"),
    ("tensor.matmul_tn_us", "us"),
    ("tensor.matmul_nt_us", "us"),
    ("tensor.gather_rows_us", "us"),
    ("tensor.segment_softmax_us", "us"),
    ("tensor.scatter_add_rows_us", "us"),
];

/// Reported next to the table, not as a child's metric: it needs the
/// untraced run of the same seed.
pub const OVERHEAD: (&str, &str) = ("trace.overhead_share", "share");

const MS: f64 = 1e6;
const US: f64 = 1e3;

/// Median wall time of `f` in nanoseconds over at least `min_samples`
/// calls and about `budget_ms` of calls, after one warm-up call.
fn time_median(min_samples: usize, budget_ms: u64, mut f: impl FnMut()) -> f64 {
    f();
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < min_samples || start.elapsed().as_millis() < u128::from(budget_ms) {
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_nanos() as f64);
        if samples.len() >= 10_000 {
            break;
        }
    }
    median(&samples).unwrap_or(0.0)
}

/// A kernel measurement at the workload's eval-graph shape.
pub struct OpTiming {
    pub metric: &'static str,
    pub shape: String,
    /// Floating-point or element operations of one call.
    pub ops: u64,
    pub ns: f64,
}

fn filled(rows: usize, cols: usize, salt: u32) -> Matrix {
    let mut state = 0x9E37_79B9u32 ^ salt;
    let data = (0..rows * cols)
        .map(|_| {
            state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            (state >> 8) as f32 / (1u32 << 24) as f32 - 0.5
        })
        .collect();
    Matrix::from_vec(rows, cols, data)
}

/// Time the kernels behind Simple-HGN at `system`'s eval-graph shapes:
/// nodes × width matmuls, and gather / segment-softmax / scatter over the
/// eval graph's message edges, forward and backward.
pub fn tensor_ops(system: &FlSystem) -> Vec<OpTiming> {
    let model = &system.config().model;
    let width = model.out_dim();
    let graph = system.eval_graph();
    let n = graph.num_nodes();
    let msgs = graph.message_edges(system.model.uses_self_loops());
    let e = msgs.len();
    let x = filled(n, width, 1);
    let w = filled(width, width, 2);
    let g = filled(n, width, 3);
    let src = Arc::new(msgs.src.clone());
    let dst = Arc::new(msgs.dst.clone());
    let segs = Arc::new(Segments::new(dst.to_vec(), n));
    let scores = filled(e, 1, 4);
    let messages = filled(e, width, 5);
    let budget = 40;
    let mm = (2 * n * width * width) as u64;
    let tape = |input: &Matrix, op: &dyn Fn(&mut Graph, fedda_tensor::Var) -> fedda_tensor::Var| {
        let mut tape = Graph::new();
        let leaf = tape.leaf(input.clone());
        let out = op(&mut tape, leaf);
        let loss = tape.sum_all(out);
        tape.backward(loss);
    };
    vec![
        OpTiming {
            metric: "tensor.matmul_nn_us",
            shape: format!("{n}x{width} @ {width}x{width}"),
            ops: mm,
            ns: time_median(5, budget, || drop(x.matmul(&w))),
        },
        OpTiming {
            metric: "tensor.matmul_tn_us",
            shape: format!("({n}x{width})T @ {n}x{width}"),
            ops: mm,
            ns: time_median(5, budget, || drop(x.matmul_tn(&g))),
        },
        OpTiming {
            metric: "tensor.matmul_nt_us",
            shape: format!("{n}x{width} @ ({width}x{width})T"),
            ops: mm,
            ns: time_median(5, budget, || drop(g.matmul_nt(&w))),
        },
        OpTiming {
            metric: "tensor.gather_rows_us",
            shape: format!("{e} of {n}x{width}, fwd+bwd"),
            ops: (2 * e * width) as u64,
            ns: time_median(5, budget, || {
                tape(&x, &|t, v| t.gather_rows(v, Arc::clone(&src)))
            }),
        },
        OpTiming {
            metric: "tensor.segment_softmax_us",
            shape: format!("{e}x1 over {n} segments (one head), fwd+bwd"),
            ops: (2 * e) as u64,
            ns: time_median(5, budget, || {
                tape(&scores, &|t, v| t.segment_softmax(v, Arc::clone(&segs)))
            }),
        },
        OpTiming {
            metric: "tensor.scatter_add_rows_us",
            shape: format!("{e}x{width} into {n} rows, fwd+bwd"),
            ops: (2 * e * width) as u64,
            ns: time_median(5, budget, || {
                tape(&messages, &|t, v| {
                    t.scatter_add_rows(v, Arc::clone(&dst), n)
                })
            }),
        },
    ]
}

/// Median `LinkSampler::new` time on the eval graph and the mean over the
/// first (distinct) client graphs, in nanoseconds.
fn sampler_build_ns(system: &FlSystem) -> (f64, f64) {
    let eval = time_median(5, 30, || drop(LinkSampler::new(system.eval_graph())));
    let clients: Vec<f64> = system
        .clients
        .iter()
        .take(8)
        .map(|c| time_median(3, 5, || drop(LinkSampler::new(&c.data.graph))))
        .collect();
    (
        eval,
        clients.iter().sum::<f64>() / clients.len().max(1) as f64,
    )
}

/// `on_faults` on a fresh instance of the workload's protocol, with one
/// dropout record — used when the run itself raised no faults.
fn fresh_on_faults_ns(w: Workload, system: &FlSystem) -> f64 {
    let fresh = || -> Box<dyn FlProtocol> {
        match w {
            Workload::AsyncFleet => Box::new(FedAvg::vanilla()),
            _ => Box::new(FedDa::explore().protocol()),
        }
    };
    let faults = [FaultObserved {
        round: 0,
        client: 0,
        effect: FaultEffect::Dropout,
    }];
    let mut samples = Vec::new();
    for i in 0..9 {
        let mut p = fresh();
        let mut rng = StdRng::seed_from_u64(i);
        p.begin(system, &mut rng);
        let t = Instant::now();
        p.on_faults(system, &faults, 0);
        samples.push(t.elapsed().as_nanos() as f64);
    }
    median(&samples).unwrap_or(0.0)
}

fn median_phases(setups: &[Phases]) -> [f64; 4] {
    let pick = |f: fn(&Phases) -> u64| {
        median(&setups.iter().map(|p| f(p) as f64).collect::<Vec<_>>()).unwrap_or(0.0)
    };
    [
        pick(|p| p.generate_ns),
        pick(|p| p.split_ns),
        pick(|p| p.partition_ns),
        pick(|p| p.system_ns),
    ]
}

/// What the traced child hands back: the metric values plus the kernel
/// shapes and op counts behind the `tensor.*` rows.
pub struct LayerReport {
    pub metrics: Vec<(&'static str, f64)>,
    pub ops: Vec<OpTiming>,
    /// Traced run time with the tracer's own work taken out.
    pub run_ns: f64,
    pub replays: usize,
    pub mismatches: u64,
}

/// Build the per-layer report of one traced repetition.
pub fn report(w: Workload, rep: &mut Rep, spans: &[Span], workers: usize) -> LayerReport {
    let tree = Tree::new(spans);
    let windows = round_windows(spans);
    let mut probe = ProbeLog::default();
    for run in &mut rep.runs {
        if let Some(p) = run.probe.take() {
            probe.merge(p);
        }
    }
    let rounds: Vec<_> = rep.runs.iter().flat_map(|r| r.log.rounds.iter()).collect();
    let n_rounds = rounds.len().max(1) as f64;
    let sum_rounds = |f: fn(&crate::trace::RoundRecord) -> usize| -> f64 {
        rounds.iter().map(|r| f(r) as f64).sum()
    };

    let under_replay = |s: &Span| tree.ancestor(s, name::REPLAY).is_some();
    let total_ns = |n: &str| -> f64 {
        spans
            .iter()
            .filter(|s| s.name == n && !under_replay(s))
            .map(|s| s.dur_ns() as f64)
            .sum()
    };
    let self_ns = |n: &str| -> f64 {
        spans
            .iter()
            .filter(|s| s.name == n)
            .map(|s| self_time_ns(s, spans) as f64)
            .sum()
    };
    let count = |n: &str| {
        spans
            .iter()
            .filter(|s| s.name == n && !under_replay(s))
            .count() as f64
    };
    let logits_in_rounds: f64 = spans
        .iter()
        .filter(|s| s.name == name::LOGITS && !under_replay(s))
        .filter(|s| tree.ancestor(s, name::ROUND).is_some())
        .map(|s| s.dur_ns() as f64)
        .sum();
    let excluded_ns: f64 = spans
        .iter()
        .filter(|s| s.name == name::REPLAY && !under_replay(s))
        .map(|s| s.dur_ns() as f64)
        .sum();

    let local_ns: f64 = windows.iter().map(|w| w.local_ns() as f64).sum();
    let eval_ns: f64 = windows
        .iter()
        .zip(&rounds)
        .filter(|(_, r)| r.auc.is_some())
        .map(|(w, _)| w.eval_ns() as f64)
        .sum();
    let evals = rounds.iter().filter(|r| r.auc.is_some()).count() as f64;

    // The slowest active client sets the round: compare the summed replayed
    // update times of fully replayed rounds with the pool's capacity.
    let by_round: HashMap<(u64, u64), u64> = windows
        .iter()
        .map(|w| ((w.run, w.round), w.local_ns()))
        .collect();
    let mut replayed: HashMap<(u64, u64), (u64, u64)> = HashMap::new();
    for r in &probe.replays {
        let e = replayed.entry((r.run, r.round)).or_default();
        e.0 += 1;
        e.1 += r.update_ns;
    }
    let (mut busy, mut capacity) = (0.0, 0.0);
    for (key, (n, ns)) in &replayed {
        if probe.reporting.get(key) == Some(n) {
            if let Some(&window) = by_round.get(key) {
                busy += *ns as f64;
                capacity += (workers.min(*n as usize).max(1) as u64 * window) as f64;
            }
        }
    }
    let pool_idle = if capacity > 0.0 {
        (1.0 - busy / capacity).clamp(0.0, 1.0)
    } else {
        0.0
    };
    let stale_applied = sum_rounds(|r| r.stale_applied);
    // Sync stale arrivals aggregate without reaching post_aggregate.
    let aggregated = probe.aggregated as f64
        + if w == Workload::AsyncFleet {
            0.0
        } else {
            stale_applied
        };

    let updates: Vec<f64> = probe.replays.iter().map(|r| r.update_ns as f64).collect();
    let encode: Vec<f64> = probe.replays.iter().map(|r| r.encode_ns as f64).collect();
    let decode: Vec<f64> = probe.replays.iter().map(|r| r.decode_ns as f64).collect();
    let aggregate: Vec<f64> = probe.aggregate_ns.iter().map(|&n| n as f64).collect();

    // Probes on the run's own inputs, after the run.
    let system = rep
        .probe_system
        .as_ref()
        .expect("every workload keeps a system to probe");
    let (eval_build, client_build) = sampler_build_ns(system);
    let builds = probe.updates as f64 + evals;
    let sampler_ns = if builds > 0.0 {
        (client_build * probe.updates as f64 + eval_build * evals) / builds
    } else {
        eval_build
    };
    let on_faults_ns = if probe.on_faults_calls > 0 {
        self_ns(name::ON_FAULTS)
    } else {
        fresh_on_faults_ns(w, system)
    };
    let ops = tensor_ops(system);
    let [generate, split, partition, new] = median_phases(&rep.setups);

    let mut metrics = vec![
        ("data.generate_ms", generate / MS),
        ("hetgraph.split_ms", split / MS),
        ("data.partition_ms", partition / MS),
        ("fl.system.new_ms", new / MS),
        ("fl.protocol.select_ms", self_ns(name::SELECT) / MS),
        ("fl.protocol.masks_ms", self_ns(name::MASKS) / MS),
        (
            "fl.protocol.regularizer_ms",
            self_ns(name::REGULARIZER) / MS,
        ),
        ("fl.protocol.on_faults_ms", on_faults_ns / MS),
        (
            "fl.protocol.post_aggregate_ms",
            self_ns(name::POST_AGGREGATE) / MS,
        ),
        (
            "fl.protocol.active_per_round",
            probe.selected as f64 / probe.select_calls.max(1) as f64,
        ),
        (
            "fl.protocol.mask_density",
            rounds.iter().map(|r| r.mask_density).sum::<f64>() / n_rounds,
        ),
        ("fl.protocol.deactivations", sum_rounds(|r| r.deactivated)),
        ("fl.protocol.reactivations", sum_rounds(|r| r.reactivated)),
        ("fl.local.window_ms", local_ns / MS),
        ("fl.local.updates", probe.updates as f64),
        (
            "fl.local.update_ms.p50",
            median(&updates).unwrap_or(0.0) / MS,
        ),
        (
            "fl.local.update_ms.max",
            updates.iter().copied().fold(0.0, f64::max) / MS,
        ),
        ("fl.local.pool_idle_share", pool_idle),
        (
            "fl.local.useful_share",
            aggregated / (probe.updates.max(1) as f64),
        ),
        ("hgn.train.encode_ms", total_ns(name::ENCODE) / MS),
        ("hgn.train.score_ms", total_ns(name::SCORE) / MS),
        ("hgn.train.calls", count(name::ENCODE)),
        ("hetgraph.sampler_new_us", sampler_ns / US),
        ("hetgraph.sampler_builds", builds),
        ("fl.eval.window_ms", eval_ns / MS),
        ("hgn.eval.logits_ms", logits_in_rounds / MS),
        (
            "fl.eval.other_ms",
            (eval_ns - logits_in_rounds).max(0.0) / MS,
        ),
        ("fl.eval.count", evals),
        ("fl.compress.encode_us", median(&encode).unwrap_or(0.0) / US),
        ("fl.compress.decode_us", median(&decode).unwrap_or(0.0) / US),
        ("fl.faults.dropped", sum_rounds(|r| r.dropped)),
        ("fl.faults.stale_applied", stale_applied),
        ("fl.faults.rejected", sum_rounds(|r| r.rejected)),
        ("fl.runtime.versions", rounds.len() as f64),
        ("fl.runtime.wave_mean", sum_rounds(|r| r.active) / n_rounds),
        ("fl.aggregate.us", median(&aggregate).unwrap_or(0.0) / US),
        ("fl.aggregate.calls", rounds.len() as f64),
    ];
    metrics.extend(ops.iter().map(|o| (o.metric, o.ns / US)));
    debug_assert_eq!(metrics.len(), METRICS.len());
    LayerReport {
        metrics,
        ops,
        run_ns: rep.run_ns as f64 - excluded_ns,
        replays: probe.replays.len(),
        mismatches: probe.mismatches,
    }
}
