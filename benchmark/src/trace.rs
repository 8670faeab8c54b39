//! In-memory span recording and the three seams it is attached to.
//!
//! Spans come only from wrappers defined here, around calls into the
//! library's public traits:
//!
//! * [`TracedProtocol`] delegates every [`FlProtocol`] hook and times it;
//!   its `post_aggregate` also replays the round's client updates through
//!   the public `run_local_round_with` (inside an excluded `replay` span) to
//!   time single updates, the uplink codec and `aggregate_weighted`, and
//!   checks each replay bit for bit against the `ClientReturn` the driver
//!   handed to the hook.
//! * [`TracedModel`] is swapped in through `FlSystem::model` and times
//!   `encode_nodes` / `score_examples` (training) and `logits` (evaluation).
//! * [`RoundLog`] is the run's [`EventSink`]; with a recorder attached it
//!   closes the round span when the driver emits the round's event.
//!
//! The local-training and evaluation windows are not recorded live: they
//! follow from these marks (see [`round_windows`]).

use crate::clock::Stamp;
use fedda_fl::compress::Delta;
use fedda_fl::{
    ClientReturn, Compression, EventSink, FaultEffect, FaultObserved, FlProtocol, FlSystem,
    LocalPenalty, RoundEvent, StepOutcome, WeightedReturn,
};
use fedda_hetgraph::LinkExample;
use fedda_hgn::{GraphView, LinkPredictor};
use fedda_tensor::{Graph, ParamSet, TapeBindings, Var};
use rand::rngs::StdRng;
use rand::RngCore;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Span names. Hooks and model calls nest under the round that runs them.
pub mod name {
    pub const RUN: &str = "run";
    pub const ROUND: &str = "round";
    pub const BEGIN: &str = "fl.protocol.begin";
    pub const SELECT: &str = "fl.protocol.select";
    pub const MASKS: &str = "fl.protocol.masks";
    pub const REGULARIZER: &str = "fl.protocol.regularizer";
    pub const ON_FAULTS: &str = "fl.protocol.on_faults";
    pub const POST_AGGREGATE: &str = "fl.protocol.post_aggregate";
    /// The tracer's own work (snapshots, replays, probes). Its time is
    /// excluded from every window and from the traced run time.
    pub const REPLAY: &str = "replay";
    pub const ENCODE: &str = "hgn.train.encode";
    pub const SCORE: &str = "hgn.train.score";
    pub const LOGITS: &str = "hgn.eval.logits";
}

const DISPATCH_HOOKS: [&str; 3] = [name::SELECT, name::MASKS, name::REGULARIZER];
const SEAL_HOOKS: [&str; 2] = [name::ON_FAULTS, name::POST_AGGREGATE];

/// One timed interval. `run` is the id of the enclosing run span, shared by
/// every span of that run; `tag` is the round number of a round span and
/// zero elsewhere.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub run: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub tag: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

struct OpenRound {
    id: u64,
    parent: u64,
    start_ns: u64,
    round: u64,
}

/// Collects spans in memory; they are written out once the run ends.
pub struct Recorder {
    epoch: Instant,
    next_id: AtomicU64,
    run: AtomicU64,
    /// Parent of spans opened now — read by worker threads, which cannot
    /// see the main thread's call stack.
    parent: AtomicU64,
    open_round: Mutex<Option<OpenRound>>,
    spans: Mutex<Vec<Span>>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            run: AtomicU64::new(0),
            parent: AtomicU64::new(0),
            open_round: Mutex::new(None),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn current_run(&self) -> u64 {
        self.run.load(Ordering::SeqCst)
    }

    fn alloc(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    fn push(&self, span: Span) {
        self.spans
            .lock()
            .expect("a thread panicked while recording spans")
            .push(span);
    }

    /// Record `f` as a span named `name` under the current parent; spans
    /// opened inside `f`, on this or any worker thread, nest under it.
    pub fn scoped<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.alloc();
        let parent = self.parent.swap(id, Ordering::SeqCst);
        let start_ns = self.now();
        let out = f();
        let end_ns = self.now();
        self.parent.store(parent, Ordering::SeqCst);
        self.push(Span {
            id,
            parent,
            run: self.current_run(),
            name,
            start_ns,
            end_ns,
            tag: 0,
        });
        out
    }

    /// Record `f` as a leaf span under the current parent without changing
    /// the parent — safe from several worker threads at once.
    pub fn leaf<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.alloc();
        let parent = self.parent.load(Ordering::SeqCst);
        let start_ns = self.now();
        let out = f();
        let end_ns = self.now();
        self.push(Span {
            id,
            parent,
            run: self.current_run(),
            name,
            start_ns,
            end_ns,
            tag: 0,
        });
        out
    }

    /// Record `f` as one run: every span opened inside carries its id.
    pub fn run<R>(&self, f: impl FnOnce() -> R) -> R {
        let id = self.alloc();
        let prev_run = self.run.swap(id, Ordering::SeqCst);
        let prev_parent = self.parent.swap(id, Ordering::SeqCst);
        let start_ns = self.now();
        let out = f();
        let end_ns = self.now();
        self.run.store(prev_run, Ordering::SeqCst);
        self.parent.store(prev_parent, Ordering::SeqCst);
        self.push(Span {
            id,
            parent: prev_parent,
            run: id,
            name: name::RUN,
            start_ns,
            end_ns,
            tag: 0,
        });
        out
    }

    /// Open the span of round `round`; it closes at the round's event.
    fn open_round(&self, round: usize) {
        let id = self.alloc();
        let parent = self.parent.swap(id, Ordering::SeqCst);
        let start_ns = self.now();
        *self
            .open_round
            .lock()
            .expect("a thread panicked while recording spans") = Some(OpenRound {
            id,
            parent,
            start_ns,
            round: round as u64,
        });
    }

    fn close_round(&self) {
        let open = self
            .open_round
            .lock()
            .expect("a thread panicked while recording spans")
            .take();
        if let Some(r) = open {
            self.parent.store(r.parent, Ordering::SeqCst);
            self.push(Span {
                id: r.id,
                parent: r.parent,
                run: self.current_run(),
                name: name::ROUND,
                start_ns: r.start_ns,
                end_ns: self.now(),
                tag: r.round,
            });
        }
    }

    /// All spans recorded so far, in recording order.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(
            &mut *self
                .spans
                .lock()
                .expect("a thread panicked while recording spans"),
        )
    }
}

/// Total length of the union of `intervals` (half-open, `start < end`).
fn union_len(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in intervals {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// Time of the parts of `[start, end)` covered by `spans`, counting
/// overlaps (parallel workers) once.
fn covered_ns<'a>(start: u64, end: u64, spans: impl Iterator<Item = &'a Span>) -> u64 {
    union_len(
        spans
            .map(|s| (s.start_ns.max(start), s.end_ns.min(end)))
            .filter(|(s, e)| s < e)
            .collect(),
    )
}

/// A span's self time: its duration minus the part of its interval that
/// its children cover.
pub fn self_time_ns(span: &Span, spans: &[Span]) -> u64 {
    span.dur_ns()
        - covered_ns(
            span.start_ns,
            span.end_ns,
            spans.iter().filter(|s| s.parent == span.id),
        )
}

/// Parent links of a span list, for ancestry queries.
pub struct Tree<'a> {
    by_id: HashMap<u64, &'a Span>,
}

impl<'a> Tree<'a> {
    pub fn new(spans: &'a [Span]) -> Self {
        Self {
            by_id: spans.iter().map(|s| (s.id, s)).collect(),
        }
    }

    /// The nearest proper ancestor of `span` named `name`.
    pub fn ancestor(&self, span: &Span, name: &str) -> Option<&'a Span> {
        let mut cur = self.by_id.get(&span.parent);
        while let Some(s) = cur {
            if s.name == name {
                return Some(s);
            }
            cur = self.by_id.get(&s.parent);
        }
        None
    }
}

/// The windows of one round, in recorder nanoseconds.
#[derive(Clone, Debug, PartialEq)]
pub struct RoundWindow {
    pub run: u64,
    pub round: u64,
    /// The round span: first dispatch hook to the round's event.
    pub span: (u64, u64),
    /// Local training: end of the last dispatch hook to the first seal hook.
    pub local: (u64, u64),
    /// Evaluation: end of `post_aggregate` to the round's event.
    pub eval: (u64, u64),
    /// Tracer time inside `local` and inside `eval`.
    pub local_excluded_ns: u64,
    pub eval_excluded_ns: u64,
}

impl RoundWindow {
    pub fn local_ns(&self) -> u64 {
        (self.local.1 - self.local.0).saturating_sub(self.local_excluded_ns)
    }
    pub fn eval_ns(&self) -> u64 {
        (self.eval.1 - self.eval.0).saturating_sub(self.eval_excluded_ns)
    }
}

/// Derive every round's windows from the hook marks under its span.
pub fn round_windows(spans: &[Span]) -> Vec<RoundWindow> {
    let tree = Tree::new(spans);
    let mut kids: HashMap<u64, Vec<&Span>> = HashMap::new();
    let mut replays: HashMap<u64, Vec<&Span>> = HashMap::new();
    for s in spans {
        kids.entry(s.parent).or_default().push(s);
        if s.name == name::REPLAY {
            if let Some(r) = tree.ancestor(s, name::ROUND) {
                replays.entry(r.id).or_default().push(s);
            }
        }
    }
    let mut out: Vec<RoundWindow> = spans
        .iter()
        .filter(|s| s.name == name::ROUND)
        .map(|r| {
            let kids = kids.get(&r.id).map(Vec::as_slice).unwrap_or(&[]);
            let of = |names: &'static [&'static str]| {
                kids.iter().filter(move |s| names.contains(&s.name))
            };
            let dispatch_end = of(&DISPATCH_HOOKS)
                .map(|s| s.end_ns)
                .max()
                .unwrap_or(r.start_ns);
            let seal_start = of(&SEAL_HOOKS)
                .map(|s| s.start_ns)
                .min()
                .unwrap_or(r.end_ns)
                .max(dispatch_end);
            let pa_end = of(&[name::POST_AGGREGATE])
                .map(|s| s.end_ns)
                .max()
                .unwrap_or(seal_start)
                .min(r.end_ns);
            let local = (dispatch_end, seal_start);
            let eval = (pa_end, r.end_ns);
            let ex = replays.get(&r.id).map(Vec::as_slice).unwrap_or(&[]);
            RoundWindow {
                run: r.run,
                round: r.tag,
                span: (r.start_ns, r.end_ns),
                local,
                eval,
                local_excluded_ns: covered_ns(local.0, local.1, ex.iter().copied()),
                eval_excluded_ns: covered_ns(eval.0, eval.1, ex.iter().copied()),
            }
        })
        .collect();
    out.sort_by_key(|w| w.span.0);
    out
}

/// A placeholder model that is never called: it only holds
/// `FlSystem::model`'s slot while the real model moves into the wrapper.
struct Unplugged;

impl LinkPredictor for Unplugged {
    fn encode_nodes(
        &self,
        _: &mut Graph,
        _: &mut TapeBindings,
        _: &ParamSet,
        _: &GraphView,
        _: Option<&mut dyn RngCore>,
    ) -> Var {
        unreachable!("placeholder model is swapped out before use")
    }
    fn score_examples(
        &self,
        _: &mut Graph,
        _: &mut TapeBindings,
        _: &ParamSet,
        _: Var,
        _: &[LinkExample],
    ) -> Var {
        unreachable!("placeholder model is swapped out before use")
    }
    fn uses_self_loops(&self) -> bool {
        unreachable!("placeholder model is swapped out before use")
    }
    fn name(&self) -> &'static str {
        "unplugged"
    }
}

/// Times the model calls of training and evaluation.
pub struct TracedModel {
    inner: Box<dyn LinkPredictor>,
    rec: Arc<Recorder>,
}

impl TracedModel {
    /// Wrap `system`'s model in place.
    pub fn install(system: &mut FlSystem, rec: Arc<Recorder>) {
        let inner = std::mem::replace(&mut system.model, Box::new(Unplugged));
        system.model = Box::new(TracedModel { inner, rec });
    }
}

impl LinkPredictor for TracedModel {
    fn encode_nodes(
        &self,
        graph: &mut Graph,
        bindings: &mut TapeBindings,
        params: &ParamSet,
        view: &GraphView,
        dropout_rng: Option<&mut dyn RngCore>,
    ) -> Var {
        self.rec.leaf(name::ENCODE, || {
            self.inner
                .encode_nodes(graph, bindings, params, view, dropout_rng)
        })
    }

    fn score_examples(
        &self,
        graph: &mut Graph,
        bindings: &mut TapeBindings,
        params: &ParamSet,
        embeddings: Var,
        examples: &[LinkExample],
    ) -> Var {
        self.rec.leaf(name::SCORE, || {
            self.inner
                .score_examples(graph, bindings, params, embeddings, examples)
        })
    }

    fn uses_self_loops(&self) -> bool {
        self.inner.uses_self_loops()
    }

    fn dropout_prob(&self) -> f32 {
        self.inner.dropout_prob()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn logits(&self, params: &ParamSet, view: &GraphView, examples: &[LinkExample]) -> Vec<f32> {
        self.rec
            .leaf(name::LOGITS, || self.inner.logits(params, view, examples))
    }
}

/// One replayed client update and its codec round trip.
#[derive(Clone, Debug)]
pub struct Replay {
    pub run: u64,
    pub round: u64,
    pub update_ns: u64,
    pub encode_ns: u64,
    pub decode_ns: u64,
}

/// What the protocol wrapper counted and probed during its runs.
#[derive(Debug, Default)]
pub struct ProbeLog {
    /// Local updates dispatched (one `local_regularizer` call each).
    pub updates: u64,
    /// Reports handed to `post_aggregate`.
    pub aggregated: u64,
    /// Local updates dispatched per `(run, round)`.
    pub reporting: HashMap<(u64, u64), u64>,
    pub replays: Vec<Replay>,
    /// Replays whose result differed from the driver's `ClientReturn`.
    pub mismatches: u64,
    pub aggregate_ns: Vec<u64>,
    pub on_faults_calls: u64,
    /// Clients selected, summed over `select_calls` selections.
    pub selected: u64,
    pub select_calls: u64,
}

impl ProbeLog {
    pub fn merge(&mut self, other: ProbeLog) {
        self.updates += other.updates;
        self.aggregated += other.aggregated;
        self.reporting.extend(other.reporting);
        self.replays.extend(other.replays);
        self.mismatches += other.mismatches;
        self.aggregate_ns.extend(other.aggregate_ns);
        self.on_faults_calls += other.on_faults_calls;
        self.selected += other.selected;
        self.select_calls += other.select_calls;
    }
}

/// How the protocol wrapper probes the layers the driver reaches only
/// through inherent methods.
#[derive(Clone, Copy, Debug)]
pub struct ProbeConfig {
    /// Replay the reports aggregated at every `stride`-th round.
    pub stride: usize,
    /// The run's uplink codec, or `None` for an uncompressed run (the codec
    /// is then timed as `QuantI8` on the same reports).
    pub codec: Option<Compression>,
}

/// Dispatch-time state the replays need, kept for the whole run: async
/// reports queue behind the `K`-report buffer and can be aggregated many
/// versions after their dispatch.
#[derive(Default)]
struct Dispatched {
    broadcasts: HashMap<usize, Arc<ParamSet>>,
    masks: HashMap<(usize, usize), Vec<bool>>,
    penalties: HashMap<(usize, usize), Option<LocalPenalty>>,
    round_of: HashMap<usize, usize>,
}

/// Delegates every hook to the wrapped protocol and records it.
pub struct TracedProtocol {
    inner: Box<dyn FlProtocol>,
    rec: Arc<Recorder>,
    cfg: ProbeConfig,
    state: Dispatched,
    pub log: ProbeLog,
}

impl TracedProtocol {
    pub fn new(inner: Box<dyn FlProtocol>, rec: Arc<Recorder>, cfg: ProbeConfig) -> Self {
        Self {
            inner,
            rec,
            cfg,
            state: Dispatched::default(),
            log: ProbeLog::default(),
        }
    }

    /// Replay every report of this round whose dispatch state is known,
    /// then time Eq. 6 aggregation on the same reports.
    fn probe(&mut self, system: &mut FlSystem, returns: &[ClientReturn]) {
        let codec = self.cfg.codec.unwrap_or(Compression::QuantI8).build();
        let run = self.rec.current_run();
        for ret in returns {
            let Some(&round) = self.state.round_of.get(&ret.client) else {
                continue;
            };
            let key = (ret.client, round);
            let (Some(reference), Some(mask)) = (
                self.state.broadcasts.get(&round).cloned(),
                self.state.masks.get(&key),
            ) else {
                continue;
            };
            let penalty = self.state.penalties.get(&key).cloned().flatten();
            let current = std::mem::replace(&mut system.global, (*reference).clone());
            let t = Instant::now();
            let replayed = system.run_local_round_with(&[ret.client], round, &[penalty]);
            let update_ns = t.elapsed().as_nanos() as u64;
            system.global = current;
            let Some(replayed) = replayed.into_iter().next() else {
                self.log.mismatches += 1;
                continue;
            };
            let t = Instant::now();
            let report = codec.compress(&Delta {
                updated: &replayed.params,
                reference: &reference,
                mask,
            });
            let encode_ns = t.elapsed().as_nanos() as u64;
            let t = Instant::now();
            let decoded = report.reconstruct(&reference);
            let decode_ns = t.elapsed().as_nanos() as u64;
            let expected = match self.cfg.codec {
                Some(_) => &decoded,
                None => &replayed.params,
            };
            if !same_bits(expected, &ret.params) {
                self.log.mismatches += 1;
            }
            self.log.replays.push(Replay {
                run,
                round: round as u64,
                update_ns,
                encode_ns,
                decode_ns,
            });
        }
        let masks: Option<Vec<&Vec<bool>>> = returns
            .iter()
            .map(|r| {
                let round = self.state.round_of.get(&r.client)?;
                self.state.masks.get(&(r.client, *round))
            })
            .collect();
        if let (Some(masks), false) = (masks, returns.is_empty()) {
            let contributions: Vec<WeightedReturn<'_>> = returns
                .iter()
                .zip(masks)
                .map(|(ret, mask)| WeightedReturn {
                    ret,
                    mask,
                    scale: 1.0,
                })
                .collect();
            let current = system.global.clone();
            let t = Instant::now();
            system.aggregate_weighted(&contributions);
            self.log.aggregate_ns.push(t.elapsed().as_nanos() as u64);
            system.global = current;
        }
    }
}

fn same_bits(a: &ParamSet, b: &ParamSet) -> bool {
    let (a, b) = (a.flatten(), b.flatten());
    a.len() == b.len() && a.iter().zip(&b).all(|(x, y)| x.to_bits() == y.to_bits())
}

impl FlProtocol for TracedProtocol {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn validate(&self) -> Result<(), String> {
        self.inner.validate()
    }

    fn seed_tweak(&self) -> u64 {
        self.inner.seed_tweak()
    }

    fn traces_activation(&self) -> bool {
        self.inner.traces_activation()
    }

    fn begin(&mut self, system: &FlSystem, rng: &mut StdRng) {
        let rec = Arc::clone(&self.rec);
        rec.scoped(name::BEGIN, || self.inner.begin(system, rng));
    }

    fn select_clients(&mut self, system: &FlSystem, round: usize, rng: &mut StdRng) -> Vec<usize> {
        let rec = Arc::clone(&self.rec);
        rec.open_round(round);
        let selected = rec.scoped(name::SELECT, || {
            self.inner.select_clients(system, round, rng)
        });
        self.log.selected += selected.len() as u64;
        self.log.select_calls += 1;
        selected
    }

    fn local_regularizer(
        &mut self,
        system: &FlSystem,
        client: usize,
        round: usize,
    ) -> Option<LocalPenalty> {
        let rec = Arc::clone(&self.rec);
        let penalty = rec.scoped(name::REGULARIZER, || {
            self.inner.local_regularizer(system, client, round)
        });
        rec.scoped(name::REPLAY, || {
            self.log.updates += 1;
            *self
                .log
                .reporting
                .entry((rec.current_run(), round as u64))
                .or_default() += 1;
            self.state.round_of.insert(client, round);
            self.state
                .penalties
                .insert((client, round), penalty.clone());
        });
        penalty
    }

    fn build_masks(
        &mut self,
        system: &FlSystem,
        active: &[usize],
        round: usize,
        rng: &mut StdRng,
    ) -> Vec<Vec<bool>> {
        let rec = Arc::clone(&self.rec);
        // `global` is the broadcast every client of this round trains from.
        rec.scoped(name::REPLAY, || {
            self.state
                .broadcasts
                .insert(round, Arc::new(system.global.clone()))
        });
        let masks = rec.scoped(name::MASKS, || {
            self.inner.build_masks(system, active, round, rng)
        });
        rec.scoped(name::REPLAY, || {
            for (&client, mask) in active.iter().zip(&masks) {
                self.state.masks.insert((client, round), mask.clone());
            }
        });
        masks
    }

    fn on_faults(&mut self, system: &FlSystem, faults: &[FaultObserved], round: usize) {
        self.log.on_faults_calls += 1;
        let rec = Arc::clone(&self.rec);
        rec.scoped(name::ON_FAULTS, || {
            self.inner.on_faults(system, faults, round)
        });
    }

    fn post_aggregate(
        &mut self,
        system: &mut FlSystem,
        active: &[usize],
        returns: &[ClientReturn],
        round: usize,
        rng: &mut StdRng,
    ) -> StepOutcome {
        let rec = Arc::clone(&self.rec);
        rec.scoped(name::POST_AGGREGATE, || {
            self.log.aggregated += returns.len() as u64;
            if round.is_multiple_of(self.cfg.stride.max(1)) {
                rec.scoped(name::REPLAY, || self.probe(system, returns));
            }
            self.inner
                .post_aggregate(system, active, returns, round, rng)
        })
    }
}

/// Per-round record of what the driver reported.
#[derive(Clone, Debug, Default)]
pub struct RoundRecord {
    /// Process CPU time from the run's start to this round's event.
    pub at_cpu_ns: u64,
    pub active: usize,
    pub dropped: usize,
    pub stale_applied: usize,
    pub rejected: usize,
    pub mask_density: f64,
    pub deactivated: usize,
    pub reactivated: usize,
    pub auc: Option<f64>,
}

/// The run's event sink: keeps one [`RoundRecord`] per round and, when
/// tracing, closes the round span at the event.
pub struct RoundLog {
    start: Stamp,
    rec: Option<Arc<Recorder>>,
    pub rounds: Vec<RoundRecord>,
}

impl RoundLog {
    /// A log whose clock starts now — create it right before the run.
    pub fn new(rec: Option<Arc<Recorder>>) -> Self {
        Self {
            start: Stamp::now(),
            rec,
            rounds: Vec::new(),
        }
    }

    /// Local updates that ran: dispatched clients minus dropouts.
    pub fn updates(&self) -> u64 {
        self.rounds
            .iter()
            .map(|r| (r.active - r.dropped.min(r.active)) as u64)
            .sum()
    }
}

impl EventSink for RoundLog {
    fn on_round(&mut self, event: &RoundEvent) {
        let at_cpu_ns = self.start.cpu();
        if let Some(rec) = &self.rec {
            rec.close_round();
        }
        let count =
            |f: fn(&FaultEffect) -> bool| event.faults.iter().filter(|o| f(&o.effect)).count();
        self.rounds.push(RoundRecord {
            at_cpu_ns,
            active: event.active_clients.len(),
            dropped: count(|e| matches!(e, FaultEffect::Dropout)),
            stale_applied: count(|e| matches!(e, FaultEffect::StaleApplied { .. })),
            rejected: count(|e| {
                matches!(
                    e,
                    FaultEffect::CorruptionRejected { .. } | FaultEffect::StaleDiscarded { .. }
                )
            }),
            mask_density: event.mask_density,
            deactivated: event.deactivated.len(),
            reactivated: event.reactivated.len(),
            auc: event.eval.map(|e| e.roc_auc),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            run: 1,
            name,
            start_ns,
            end_ns,
            tag: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, 0, "parent", 0, 100),
            // Two overlapping children (parallel workers) cover 10..50.
            span(2, 1, "a", 10, 40),
            span(3, 1, "b", 20, 50),
            // A disjoint child covers 60..70.
            span(4, 1, "c", 60, 70),
            // A grandchild is covered by its own parent, not counted again.
            span(5, 4, "d", 62, 68),
            // A child spilling past the parent only counts inside it.
            span(6, 1, "e", 95, 120),
        ];
        assert_eq!(self_time_ns(&spans[0], &spans), 100 - 40 - 10 - 5);
        assert_eq!(self_time_ns(&spans[3], &spans), 10 - 6);
        assert_eq!(self_time_ns(&spans[4], &spans), 6);
    }

    #[test]
    fn union_len_merges_touching_and_nested_intervals() {
        assert_eq!(union_len(vec![]), 0);
        assert_eq!(union_len(vec![(0, 10), (10, 20)]), 20);
        assert_eq!(union_len(vec![(5, 6), (0, 10), (2, 3)]), 10);
        assert_eq!(union_len(vec![(0, 1), (5, 7)]), 3);
    }

    #[test]
    fn windows_follow_from_hook_marks() {
        let mut round = span(10, 1, name::ROUND, 100, 1000);
        round.tag = 3;
        let spans = vec![
            span(1, 0, name::RUN, 0, 2000),
            span(11, 10, name::SELECT, 100, 110),
            span(12, 10, name::REPLAY, 110, 115),
            span(13, 10, name::MASKS, 115, 130),
            span(14, 10, name::REGULARIZER, 130, 135),
            span(15, 10, name::REGULARIZER, 135, 150),
            // Local training, with a bookkeeping span inside the window.
            span(16, 10, name::REPLAY, 150, 160),
            span(17, 10, name::ENCODE, 200, 300),
            span(18, 10, name::ON_FAULTS, 600, 610),
            span(19, 10, name::POST_AGGREGATE, 610, 800),
            span(20, 19, name::REPLAY, 620, 700),
            span(21, 10, name::LOGITS, 820, 950),
            round,
        ];
        let w = round_windows(&spans);
        assert_eq!(w.len(), 1);
        let w = &w[0];
        assert_eq!(w.round, 3);
        assert_eq!(w.local, (150, 600));
        assert_eq!(w.local_ns(), 450 - 10);
        assert_eq!(w.eval, (800, 1000));
        assert_eq!(w.eval_ns(), 200);
        let tree = Tree::new(&spans);
        assert_eq!(
            tree.ancestor(&spans[10], name::ROUND).map(|s| s.id),
            Some(10)
        );
        assert_eq!(tree.ancestor(&spans[10], name::RUN).map(|s| s.id), Some(1));
        assert!(tree.ancestor(&spans[0], name::ROUND).is_none());
    }

    #[test]
    fn a_round_without_dispatch_work_has_an_empty_local_window() {
        // The Global baseline selects nobody and trains in post_aggregate.
        let spans = vec![
            span(2, 1, name::SELECT, 0, 5),
            span(3, 1, name::MASKS, 5, 8),
            span(4, 1, name::POST_AGGREGATE, 8, 90),
            span(1, 0, name::ROUND, 0, 100),
        ];
        let w = &round_windows(&spans)[0];
        assert_eq!(w.local, (8, 8));
        assert_eq!(w.local_ns(), 0);
        assert_eq!(w.eval, (90, 100));
    }
}
