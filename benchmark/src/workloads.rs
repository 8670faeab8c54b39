//! The three workloads: how each builds its federation from the seed, runs
//! it through the public drivers, and what one repetition reports.

use crate::clock::Stamp;
use crate::trace::{ProbeConfig, ProbeLog, Recorder, RoundLog, TracedModel, TracedProtocol};
use fedda::experiment::{Dataset, Experiment, ExperimentConfig, Framework, SPLIT_STREAM_TWEAK};
use fedda_bench::{base_config, experiment_model, experiment_train, parse_framework, Options};
use fedda_data::{
    amazon_like, dblp_like, partition_non_iid, ClientData, PartitionConfig, PresetOptions,
};
use fedda_fl::{
    baselines, AsyncConfig, AsyncDriver, Compression, EventSink, FaultConfig, FedAvg, FedDa,
    FlConfig, FlProtocol, FlSystem, RoundDriver, RunResult, RuntimeMode,
};
use fedda_hetgraph::split::split_edges;
use fedda_hgn::{HgnConfig, TrainConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    FeddaDblp,
    AsyncFleet,
    Table2Quick,
}

pub const ALL: [Workload; 3] = [
    Workload::FeddaDblp,
    Workload::AsyncFleet,
    Workload::Table2Quick,
];

// The generated graph, its split and its partition play the part of a fixed
// public dataset, as DBLP does in the paper: their seed is part of the
// workload, and `--seed` draws the federation's model init and training.

// fedda_dblp: the paper's setting.
const DBLP_SCALE: f64 = 0.0025;
const DBLP_DATASET_SEED: u64 = 0xDB1F;
const DBLP_CLIENTS: usize = 8;
const DBLP_ROUNDS: usize = 100;

// async_fleet: the cross-device case.
const FLEET_SCALE: f64 = 0.0008;
const FLEET_DATASET_SEED: u64 = 0xF1EE7;

const FLEET_BASE_CLIENTS: usize = 4;
const FLEET_CLIENTS: usize = 2000;
const FLEET_PER_VERSION: f64 = 32.0;
const FLEET_VERSIONS: usize = 300;
const FLEET_EVAL_EVERY: usize = 25;

// table2_quick: the `--seed` of `table2 --quick` is fixed at its default (it
// seeds generation, split, partition and training); `--seed` re-draws every
// system's model initialisation.
const TABLE2_DATASET_SEED: u64 = 0;

impl Workload {
    pub fn parse(name: &str) -> Option<Self> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::FeddaDblp => "fedda_dblp",
            Workload::AsyncFleet => "async_fleet",
            Workload::Table2Quick => "table2_quick",
        }
    }

    /// Global ROC-AUC that `time_to_auc_s` waits for.
    pub fn target_auc(self) -> f64 {
        match self {
            Workload::FeddaDblp => 0.72,
            Workload::AsyncFleet => 0.60,
            Workload::Table2Quick => 0.55,
        }
    }

    /// A repetition whose `final_auc` falls below this did not learn.
    pub fn auc_floor(self) -> f64 {
        match self {
            Workload::FeddaDblp => 0.65,
            Workload::AsyncFleet => 0.50,
            Workload::Table2Quick => 0.50,
        }
    }

    /// Set-ups per repetition (their median is the repetition's `setup_s`).
    pub fn setups(self) -> usize {
        match self {
            Workload::FeddaDblp => 5,
            Workload::AsyncFleet => 3,
            Workload::Table2Quick => 1,
        }
    }

    /// Replay the reports of every `stride`-th round in the traced run.
    fn replay_stride(self) -> usize {
        match self {
            Workload::FeddaDblp => 5,
            Workload::AsyncFleet => 1,
            Workload::Table2Quick => 2,
        }
    }
}

/// CPU time of each set-up phase, summed over the systems one set-up
/// builds.
#[derive(Clone, Copy, Debug, Default)]
pub struct Phases {
    pub generate_ns: u64,
    pub split_ns: u64,
    pub partition_ns: u64,
    pub system_ns: u64,
}

impl Phases {
    fn total_ns(&self) -> u64 {
        self.generate_ns + self.split_ns + self.partition_ns + self.system_ns
    }
}

/// One finished federated run (or one Local baseline).
pub struct RunDone {
    /// CPU and wall time of the run.
    pub run_ns: u64,
    pub run_wall_ns: u64,
    pub log: RoundLog,
    pub result: RunResult,
    pub probe: Option<ProbeLog>,
}

/// Everything one repetition measured.
pub struct Rep {
    /// One entry per set-up of the repetition.
    pub setups: Vec<Phases>,
    /// CPU time of the runs; wall time next to it.
    pub run_ns: u64,
    pub run_wall_ns: u64,
    pub updates: u64,
    pub round_ns: Vec<u64>,
    pub time_to_auc_ns: u64,
    /// Federated runs that never reached the target AUC (their full time
    /// counts).
    pub target_missed: usize,
    pub final_auc: f64,
    pub uplink_bytes: u64,
    pub fingerprint: u64,
    pub non_finite: bool,
    /// `(round, CPU time since the run's start, global AUC)` of every
    /// evaluation of the first federated run.
    pub curve: Vec<(usize, u64, f64)>,
    /// Per-run records, kept for the traced report.
    pub runs: Vec<RunDone>,
    /// The (first) system whose graphs and model the traced report probes.
    pub probe_system: Option<FlSystem>,
}

/// FNV-1a over the run outputs that must repeat exactly.
#[derive(Clone, Copy)]
pub struct Fingerprint(u64);

impl Fingerprint {
    pub fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
    pub fn add(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    /// `(final_auc, uplink bytes, ledger length, curve)` of one run.
    pub fn add_run(&mut self, r: &RunResult) {
        self.add(r.final_eval.roc_auc.to_bits());
        self.add(r.comm.total_uplink_bytes() as u64);
        self.add(r.comm.rounds().len() as u64);
        for p in &r.curve {
            self.add(p.round as u64);
            self.add(p.roc_auc.to_bits());
            self.add(p.mrr.to_bits());
        }
    }
    pub fn value(self) -> u64 {
        self.0
    }
}

fn drive(
    mode: &RuntimeMode,
    protocol: &mut dyn FlProtocol,
    system: &mut FlSystem,
    sink: &mut dyn EventSink,
) -> Result<RunResult, String> {
    match mode {
        RuntimeMode::Sync => RoundDriver::with_sink(sink).run(protocol, system),
        RuntimeMode::Async(cfg) => AsyncDriver::with_sink(*cfg, sink).run(protocol, system),
    }
}

/// Run `protocol` on `system` to completion, wrapped when tracing.
fn run_protocol(
    system: &mut FlSystem,
    protocol: Box<dyn FlProtocol>,
    mode: &RuntimeMode,
    tracer: Option<&Arc<Recorder>>,
    probe: ProbeConfig,
) -> Result<RunDone, String> {
    match tracer {
        None => {
            let mut protocol = protocol;
            let mut log = RoundLog::new(None);
            let t = Stamp::now();
            let result = drive(mode, protocol.as_mut(), system, &mut log)?;
            Ok(RunDone {
                run_ns: t.cpu(),
                run_wall_ns: t.wall(),
                log,
                result,
                probe: None,
            })
        }
        Some(rec) => {
            TracedModel::install(system, Arc::clone(rec));
            let mut traced = TracedProtocol::new(protocol, Arc::clone(rec), probe);
            let mut log = RoundLog::new(Some(Arc::clone(rec)));
            let t = Stamp::now();
            let result = rec.run(|| drive(mode, &mut traced, system, &mut log))?;
            Ok(RunDone {
                run_ns: t.cpu(),
                run_wall_ns: t.wall(),
                log,
                result,
                probe: Some(traced.log),
            })
        }
    }
}

/// CPU time from the run's start to its first evaluated round at or above
/// `target`, or `None` if no evaluation reached it.
fn time_to_target(log: &RoundLog, target: f64) -> Option<u64> {
    log.rounds
        .iter()
        .find(|r| r.auc.is_some_and(|a| a >= target))
        .map(|r| r.at_cpu_ns)
}

fn curve_of(log: &RoundLog) -> Vec<(usize, u64, f64)> {
    log.rounds
        .iter()
        .enumerate()
        .filter_map(|(i, r)| r.auc.map(|a| (i, r.at_cpu_ns, a)))
        .collect()
}

fn round_durations(log: &RoundLog) -> Vec<u64> {
    let mut prev = 0;
    log.rounds
        .iter()
        .map(|r| {
            let d = r.at_cpu_ns - prev;
            prev = r.at_cpu_ns;
            d
        })
        .collect()
}

/// Generate the DBLP-like dataset, split and partition it (all from the
/// workload's fixed `dataset_seed`) and assemble the federation, timing
/// each phase.
fn build_dblp(
    scale: f64,
    dataset_seed: u64,
    num_clients: usize,
    replicate_to: usize,
    cfg: FlConfig,
) -> (FlSystem, Phases) {
    let mut ph = Phases::default();
    let t = Stamp::now();
    let graph = dblp_like(&PresetOptions {
        scale,
        seed: dataset_seed,
        ..Default::default()
    })
    .graph;
    ph.generate_ns = t.cpu();
    let t = Stamp::now();
    let mut rng = StdRng::seed_from_u64(dataset_seed ^ SPLIT_STREAM_TWEAK);
    let split = split_edges(&graph, Dataset::DblpLike.test_fraction(), &mut rng);
    ph.split_ns = t.cpu();
    let t = Stamp::now();
    let pcfg =
        PartitionConfig::paper_defaults(num_clients, graph.schema().num_edge_types(), dataset_seed);
    let base = partition_non_iid(&split.train, &pcfg);
    let clients: Vec<ClientData> = (0..replicate_to.max(base.len()))
        .map(|i| base[i % base.len()].clone())
        .collect();
    ph.partition_ns = t.cpu();
    let t = Stamp::now();
    let system = FlSystem::new(&split.train, &split.test, clients, cfg);
    ph.system_ns = t.cpu();
    (system, ph)
}

fn dblp_config(seed: u64, workers: usize) -> FlConfig {
    FlConfig {
        rounds: DBLP_ROUNDS,
        model: experiment_model(false),
        train: experiment_train(),
        eval_negatives: 5,
        eval_every: 1,
        seed: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xDB1F,
        parallel: true,
        workers: Some(workers),
        ..Default::default()
    }
}

fn fleet_config(seed: u64, workers: usize) -> FlConfig {
    FlConfig {
        rounds: FLEET_VERSIONS,
        model: HgnConfig {
            hidden_dim: 4,
            num_layers: 1,
            num_heads: 1,
            edge_emb_dim: 4,
            ..Default::default()
        },
        train: TrainConfig {
            lr: 0.05,
            ..experiment_train()
        },
        eval_negatives: 5,
        eval_every: FLEET_EVAL_EVERY,
        seed: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xF1EE7,
        parallel: true,
        workers: Some(workers),
        faults: Some(FaultConfig {
            dropout: 0.1,
            straggler: 0.2,
            max_staleness: 3,
            ..Default::default()
        }),
        compression: Some(Compression::QuantI8),
        ..Default::default()
    }
}

pub const FLEET_ASYNC: AsyncConfig = AsyncConfig { k: 8, gamma: 0.9 };

/// The two single-run workloads share everything but their inputs.
fn single_run(
    w: Workload,
    seed: u64,
    workers: usize,
    tracer: Option<&Arc<Recorder>>,
) -> Result<Rep, String> {
    let build = || match w {
        Workload::FeddaDblp => build_dblp(
            DBLP_SCALE,
            DBLP_DATASET_SEED,
            DBLP_CLIENTS,
            0,
            dblp_config(seed, workers),
        ),
        _ => build_dblp(
            FLEET_SCALE,
            FLEET_DATASET_SEED,
            FLEET_BASE_CLIENTS,
            FLEET_CLIENTS,
            fleet_config(seed, workers),
        ),
    };
    let mut setups = Vec::new();
    let mut system = None;
    for _ in 0..w.setups() {
        // Drop the previous federation first so peak memory is one set-up.
        drop(system.take());
        let (s, ph) = build();
        setups.push(ph);
        system = Some(s);
    }
    let mut system = system.ok_or("no set-up ran")?;
    let (protocol, mode, codec): (Box<dyn FlProtocol>, RuntimeMode, Option<Compression>) = match w {
        Workload::FeddaDblp => (
            Box::new(FedDa::explore().protocol()),
            RuntimeMode::Sync,
            None,
        ),
        _ => (
            Box::new(FedAvg::with_fractions(
                FLEET_PER_VERSION / FLEET_CLIENTS as f64,
                1.0,
            )),
            RuntimeMode::Async(FLEET_ASYNC),
            Some(Compression::QuantI8),
        ),
    };
    let probe = ProbeConfig {
        stride: w.replay_stride(),
        codec,
    };
    let done = run_protocol(&mut system, protocol, &mode, tracer, probe)?;
    let mut fp = Fingerprint::new();
    fp.add_run(&done.result);
    let target = time_to_target(&done.log, w.target_auc());
    Ok(Rep {
        setups,
        run_ns: done.run_ns,
        run_wall_ns: done.run_wall_ns,
        updates: done.log.updates(),
        round_ns: round_durations(&done.log),
        time_to_auc_ns: target.unwrap_or(done.run_ns),
        target_missed: usize::from(target.is_none()),
        final_auc: done.result.final_eval.roc_auc,
        uplink_bytes: done.result.comm.total_uplink_bytes() as u64,
        fingerprint: fp.value(),
        non_finite: system.global.has_non_finite(),
        curve: curve_of(&done.log),
        runs: vec![done],
        probe_system: Some(system),
    })
}

/// CPU time of generating and of splitting the dataset of one grid cell,
/// with the seeds `Experiment::new` uses.
fn time_generate_split(cfg: &ExperimentConfig) -> (u64, u64) {
    let opts = PresetOptions {
        scale: cfg.scale,
        seed: cfg.seed,
        ..Default::default()
    };
    let t = Stamp::now();
    let graph = match cfg.dataset {
        Dataset::AmazonLike => amazon_like(&opts),
        Dataset::DblpLike => dblp_like(&opts),
    }
    .graph;
    let generate_ns = t.cpu();
    let t = Stamp::now();
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ SPLIT_STREAM_TWEAK);
    drop(split_edges(&graph, cfg.dataset.test_fraction(), &mut rng));
    (generate_ns, t.cpu())
}

/// The model initialisation `--seed` draws for run `run` of grid cell `cell`.
fn init_seed(seed: u64, cell: u64, run: u64) -> u64 {
    let mut fp = Fingerprint::new();
    for v in [seed, cell, run] {
        fp.add(v);
    }
    fp.value()
}

/// The `table2 --quick` grid: DBLP-like M ∈ {4, 8, 16} and Amazon-like
/// M ∈ {8, 16}, all eight frameworks, 2 runs × 4 rounds.
fn table2(seed: u64, workers: usize, tracer: Option<&Arc<Recorder>>) -> Result<Rep, String> {
    let opts = Options::try_from_args([
        "--quick".to_string(),
        "--seed".into(),
        TABLE2_DATASET_SEED.to_string(),
        "--workers".into(),
        workers.to_string(),
    ])?;
    let grid: [(Dataset, &[usize]); 2] = [
        (Dataset::DblpLike, &[4, 8, 16]),
        (Dataset::AmazonLike, &[8, 16]),
    ];
    let frameworks = [
        Framework::Global,
        Framework::Local,
        Framework::FedAvg(FedAvg::vanilla()),
        parse_framework("fedprox", &opts)?,
        parse_framework("feddyn", &opts)?,
        parse_framework("fedadam", &opts)?,
        Framework::FedDa(FedDa::restart()),
        Framework::FedDa(FedDa::explore()),
    ];
    let target = Workload::Table2Quick.target_auc();
    let probe = ProbeConfig {
        stride: Workload::Table2Quick.replay_stride(),
        codec: None,
    };
    let mut ph = Phases::default();
    let mut rep = Rep {
        setups: Vec::new(),
        run_ns: 0,
        run_wall_ns: 0,
        updates: 0,
        round_ns: Vec::new(),
        time_to_auc_ns: 0,
        target_missed: 0,
        final_auc: 0.0,
        uplink_bytes: 0,
        fingerprint: 0,
        non_finite: false,
        curve: Vec::new(),
        runs: Vec::new(),
        probe_system: None,
    };
    let mut fp = Fingerprint::new();
    let mut row_aucs = Vec::new();
    let mut cell = 0u64;
    for (dataset, client_counts) in grid {
        for &m in client_counts {
            cell += 1;
            let mut cfg = base_config(dataset, &opts);
            cfg.num_clients = m;
            let t = Stamp::now();
            let exp = Experiment::new(cfg.clone());
            let new_ns = t.cpu();
            // Experiment::new generates and splits in one call; the traced
            // run times the two phases apart on the same inputs.
            match tracer {
                None => ph.generate_ns += new_ns,
                Some(_) => {
                    let (generate_ns, split_ns) = time_generate_split(&cfg);
                    ph.generate_ns += generate_ns;
                    ph.split_ns += split_ns;
                }
            }
            for fw in &frameworks {
                let mut aucs = Vec::new();
                for run in 0..exp.config().runs {
                    let t = Stamp::now();
                    let mut system = exp.system_for_run(run);
                    system.reinit(init_seed(seed, cell, run as u64));
                    ph.system_ns += t.cpu();
                    if tracer.is_some() {
                        let t = Stamp::now();
                        drop(exp.clients_for_run(run));
                        let partition_ns = t.cpu();
                        ph.partition_ns += partition_ns;
                        ph.system_ns = ph.system_ns.saturating_sub(partition_ns);
                    }
                    let Some(protocol) = fw.protocol() else {
                        let t = Stamp::now();
                        let local = match tracer {
                            Some(rec) => {
                                TracedModel::install(&mut system, Arc::clone(rec));
                                rec.run(|| baselines::run_local_only(&system))
                            }
                            None => baselines::run_local_only(&system),
                        };
                        rep.run_ns += t.cpu();
                        rep.run_wall_ns += t.wall();
                        fp.add(local.auc_summary().mean.to_bits());
                        continue;
                    };
                    let done =
                        run_protocol(&mut system, protocol, &exp.config().runtime, tracer, probe)?;
                    rep.run_ns += done.run_ns;
                    rep.run_wall_ns += done.run_wall_ns;
                    rep.updates += done.log.updates();
                    rep.round_ns.extend(round_durations(&done.log));
                    let federated = !matches!(fw, Framework::Global);
                    match time_to_target(&done.log, target) {
                        Some(ns) if federated => rep.time_to_auc_ns += ns,
                        None if federated => {
                            rep.time_to_auc_ns += done.run_ns;
                            rep.target_missed += 1;
                        }
                        _ => {}
                    }
                    rep.uplink_bytes += done.result.comm.total_uplink_bytes() as u64;
                    rep.non_finite |= system.global.has_non_finite();
                    fp.add_run(&done.result);
                    aucs.push(done.result.final_eval.roc_auc);
                    if rep.curve.is_empty() && federated {
                        rep.curve = curve_of(&done.log);
                    }
                    rep.runs.push(done);
                    if rep.probe_system.is_none() {
                        rep.probe_system = Some(system);
                    }
                }
                if !aucs.is_empty() && !matches!(fw, Framework::Global) {
                    row_aucs.push(aucs.iter().sum::<f64>() / aucs.len() as f64);
                }
            }
        }
    }
    rep.setups.push(ph);
    rep.final_auc = row_aucs.iter().sum::<f64>() / row_aucs.len().max(1) as f64;
    rep.fingerprint = fp.value();
    Ok(rep)
}

/// Run one repetition of `w` on `seed`.
pub fn run(
    w: Workload,
    seed: u64,
    workers: usize,
    tracer: Option<&Arc<Recorder>>,
) -> Result<Rep, String> {
    match w {
        Workload::FeddaDblp | Workload::AsyncFleet => single_run(w, seed, workers, tracer),
        Workload::Table2Quick => table2(seed, workers, tracer),
    }
}

impl Rep {
    /// Median set-up time of the repetition.
    pub fn setup_ns(&self) -> u64 {
        let mut v: Vec<u64> = self.setups.iter().map(Phases::total_ns).collect();
        v.sort_unstable();
        v.get(v.len() / 2).copied().unwrap_or(0)
    }
}
