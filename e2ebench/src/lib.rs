//! End-to-end benchmark of the CABT workspace: the wall time from "here
//! is a program" to "here is the checked result", split by layer.
//!
//! Four seeded workloads ([`Workload`]) drive the public `cabt-*`
//! APIs. A run sets up (input generation, pool creation, one warm-up
//! op) several times, then times ops in a closed loop of one client for
//! the requested seconds with tracing off. A traced run follows every
//! op with a replay of the same op that has the benchmark's own spans
//! around every call into a layer ([`spans`]), and attributes each
//! op's wall time to the layers.
//! Nothing inside the program is instrumented. See `README.md` for the
//! workload and metric lists and the layer → metric → workload map.

pub mod spans;
pub mod stats;

mod fleet;
mod noc;
mod suite;

use spans::{Ctx, Recorder, Summary, ROOT};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Pool workers every workload uses (`FleetPool` and
/// `ShardSchedule::Pooled`); the reference host has two cores.
pub const POOL_WORKERS: u16 = 2;

/// Threads `paper_suite` spreads a pass's sessions over.
pub const LANES: usize = POOL_WORKERS as usize;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 9;

/// The seed held out from tuning: later performance claims must also
/// hold on it.
pub const HELD_OUT_SEED: u64 = 7919;

/// The four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The seven paper programs on the golden and translated trace tiers.
    PaperSuite,
    /// 64-request `run_fleet` batches in a closed loop of one client.
    FleetBurst,
    /// A 64-shard pooled NoC session with one scratch-RAM writer and
    /// live migration.
    NocShared,
    /// The same fabric where every shard rings CoreLink doorbells.
    NocDoorbell,
}

impl Workload {
    /// Every workload, in documentation order.
    pub const ALL: [Workload; 4] = [
        Workload::PaperSuite,
        Workload::FleetBurst,
        Workload::NocShared,
        Workload::NocDoorbell,
    ];

    /// The CLI name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperSuite => "paper_suite",
            Workload::FleetBurst => "fleet_burst",
            Workload::NocShared => "noc_shared",
            Workload::NocDoorbell => "noc_doorbell",
        }
    }

    /// Parses a CLI name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Input sizes: the measured sizes, or the tiny sizes of smoke mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes the benchmark measures.
    Full,
    /// Tiny sizes that exercise every path in well under a second.
    Smoke,
}

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Config {
    /// Which workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Traced run: replay every op with spans and report per-layer
    /// metrics instead of end-to-end ones.
    pub trace: bool,
    /// Input sizes.
    pub scale: Scale,
}

/// What one op did, for the correctness gate and the metrics. Every
/// field except `sessions`/`failed` is a deterministic counter: the
/// same op must report it bit-identically in every run, traced or not.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counters {
    /// Checked sessions attempted (a sharded session counts once).
    pub sessions: u64,
    /// Sessions that failed: a build error, fault, exhausted budget or
    /// wrong `%d2` on any shard.
    pub failed: u64,
    /// Total `EngineStats::retired` units.
    pub retired: u64,
    /// Units retired inside fused traces.
    pub trace_retired: u64,
    /// Epoch barriers crossed.
    pub epochs: u64,
    /// SoC bus transactions served.
    pub bus_transactions: u64,
    /// Max over programs of |generated − golden| / golden cycles, in %.
    pub cycle_dev_pct: f64,
    /// Every checked engine's `fingerprint_engine`, mixed in order.
    pub digest: u64,
}

impl Counters {
    /// Whether the deterministic counters of two runs of one op agree.
    pub fn same_machine(&self, other: &Counters) -> bool {
        self.retired == other.retired
            && self.trace_retired == other.trace_retired
            && self.epochs == other.epochs
            && self.bus_transactions == other.bus_transactions
            && self.cycle_dev_pct.to_bits() == other.cycle_dev_pct.to_bits()
            && self.digest == other.digest
    }

    fn add(&mut self, o: &Counters) {
        self.sessions += o.sessions;
        self.failed += o.failed;
        self.retired += o.retired;
        self.trace_retired += o.trace_retired;
        self.epochs += o.epochs;
        self.bus_transactions += o.bus_transactions;
    }

    fn json(&self) -> String {
        format!(
            "{{\"retired\":{},\"trace_retired\":{},\"epochs\":{},\"bus_transactions\":{},\"cycle_dev_pct\":{},\"digest\":\"{:016x}\"}}",
            self.retired,
            self.trace_retired,
            self.epochs,
            self.bus_transactions,
            num(self.cycle_dev_pct),
            self.digest
        )
    }

    /// Records one checked session.
    pub(crate) fn session(&mut self, ok: bool) {
        self.sessions += 1;
        if !ok {
            self.failed += 1;
        }
    }
}

/// A workload as the run loop sees it.
pub(crate) trait Bench: Sized {
    /// One op's inputs, generated outside the op's timer.
    type Input;
    /// What a traced op hands to its post-op probe.
    type Probe;
    /// Input generation and pool creation.
    fn setup(seed: u64, scale: Scale) -> Self;
    /// The inputs of op `op`, a function of the seed and `op` only.
    fn input(&self, op: u64) -> Self::Input;
    /// One untraced op.
    fn run(&mut self, input: &Self::Input) -> Counters;
    /// One traced op; `ctx` hangs every span from the op's root span.
    fn run_traced(&mut self, input: &Self::Input, ctx: &Ctx) -> (Counters, Self::Probe);
    /// Measurements made after a traced op, outside its wall (spans
    /// without a parent). Returns the checked runs it made.
    fn probe(&mut self, _probe: Self::Probe, _ctx: &Ctx) -> Counters {
        Counters::default()
    }
    /// Workload-specific per-layer metrics.
    fn layer_metrics(&self, _s: &Summary, _metrics: &mut BTreeMap<&'static str, f64>) {}
    /// Rows of the re-anchor baseline table this workload reproduces.
    fn baseline_table(
        &self,
        _s: &Summary,
        _metrics: &BTreeMap<&'static str, f64>,
        _out: &mut String,
    ) {
    }
}

/// A metric's name and unit.
pub struct MetricDef {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
}

const fn def(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// End-to-end metrics, reported with tracing off. The 90th percentile
/// of op wall is in the record and the report, not here: on the
/// reference host its run-to-run spread exceeds any allowed bound.
pub const END_TO_END: &[MetricDef] = &[
    def("setup_s", "s"),
    def("op_ms_p50", "ms"),
    def("sessions_per_s", "1/s"),
    def("sim_mips", "Munits/s"),
    def("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, reported by the traced run. Times are per op; a
/// layer a workload never calls reads 0.
pub const PER_LAYER: &[MetricDef] = &[
    def("asm.us", "us"),
    def("lint.us", "us"),
    def("translate.us", "us"),
    def("predecode.us", "us"),
    def("compile.us", "us"),
    def("build.us", "us"),
    def("build.share", "ratio"),
    def("golden.warmup_us", "us"),
    def("vliw.warmup_us", "us"),
    def("golden.steady_mips", "Munits/s"),
    def("vliw.steady_mips", "Munits/s"),
    def("trace.retired_share", "ratio"),
    def("barrier.us_per_epoch", "us"),
    def("barrier.share", "ratio"),
    def("epochs", "count"),
    def("bus.transactions", "count"),
    def("round.us_per_epoch", "us"),
    def("pool.us", "us"),
    def("fleet.build_us", "us"),
    def("fleet.run_us", "us"),
    def("fleet.overhead_share", "ratio"),
    def("fleet.epochs", "count"),
    def("migrate.park_us", "us"),
    def("migrate.adopt_us", "us"),
    def("migrate.bytes", "bytes"),
    def("teardown.us", "us"),
    def("check.us", "us"),
    def("idle.us", "us"),
    def("cycle_dev_pct", "%"),
    def("error_rate", "ratio"),
    def("unattributed.share", "ratio"),
    def("trace.overhead", "ratio"),
];

/// Span layers that make up build time.
const BUILD_LAYERS: &[&str] = &[
    "asm",
    "lint",
    "translate",
    "predecode",
    "compile",
    "sim.build",
    "fleet.build",
];

/// The largest share of traced op wall the layer spans may leave
/// uncovered (ROADMAP item 1's honesty check).
pub const MAX_UNATTRIBUTED: f64 = 0.10;

/// Traced-vs-untraced mismatches reported one by one; the rest are counted.
const MAX_REPORTED_MISMATCHES: usize = 5;

/// Everything a run produced.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Every check passed.
    pub correct: bool,
    /// Sessions attempted.
    pub attempted: u64,
    /// Sessions failed.
    pub failed: u64,
    /// Reported metrics: name, value, unit.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Why the run is not correct, if it is not.
    pub errors: Vec<String>,
    /// Human-readable report (tables, spreads).
    pub report: String,
    /// The full record as JSON (seed, host, repeats, quartiles, …).
    pub record: String,
    /// The traced run's spans as JSON lines (empty when untraced).
    pub spans_jsonl: String,
}

impl Outcome {
    /// The result line: the JSON object the benchmark prints last.
    pub fn result_line(&self) -> String {
        let mut m = String::new();
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            if i > 0 {
                m.push(',');
            }
            let _ = write!(
                m,
                "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                num(*value)
            );
        }
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{m}}}}}",
            self.correct, self.attempted, self.failed
        )
    }
}

/// A JSON number (non-finite values, which no metric should produce,
/// become 0).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// A deterministic 64-bit mix of a seed and stream coordinates
/// (splitmix64 finalizer) — how every input is derived from `--seed`.
pub(crate) fn mix(seed: u64, a: u64, b: u64) -> u64 {
    let mut z = seed
        .wrapping_add(a.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(b.wrapping_mul(0xd1b5_4a32_d192_ed69));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Runs `f` over `items` on [`LANES`] scoped threads, each taking the
/// next item in order; results come back in item order. With a span
/// context, the context's span (if any) is marked as running on
/// `LANES` lanes and each lane's work hangs from a `lane` span, opened
/// before the lane's thread starts and closed once it is joined: a lane
/// span's self time is thread start-up and exit plus the lane's wait
/// for the other lanes' last items (lanes meet at a barrier).
pub(crate) fn on_lanes<T: Sync, R: Send>(
    items: &[T],
    ctx: Option<&Ctx>,
    f: impl Fn(&T, Option<&Ctx>) -> R + Sync,
) -> Vec<R> {
    // The counter only hands out indices; `join` publishes the results.
    let next = AtomicUsize::new(0);
    let finish = Barrier::new(LANES);
    let work = |lane: Option<&Ctx>| {
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(i) else {
                finish.wait();
                return done;
            };
            done.push((i, f(item, lane)));
        }
    };
    if let Some((c, parent)) = ctx.and_then(|c| c.parent.map(|p| (c, p))) {
        c.rec.set_lanes(parent, LANES as u64);
    }
    let mut out: Vec<Option<R>> = items.iter().map(|_| None).collect();
    std::thread::scope(|scope| {
        let lanes: Vec<_> = (0..LANES)
            .map(|_| {
                let lane = ctx.map(|c| Ctx {
                    rec: Arc::clone(&c.rec),
                    op: c.op,
                    parent: Some(c.rec.open("lane", "", c.op, c.parent)),
                });
                let work = &work;
                let span = lane.as_ref().and_then(|l| l.parent);
                (span, scope.spawn(move || work(lane.as_ref())))
            })
            .collect();
        for (span, lane) in lanes {
            for (i, r) in lane.join().expect("a benchmark lane panicked") {
                out[i] = Some(r);
            }
            if let (Some(c), Some(id)) = (ctx, span) {
                c.rec.close(id, 0);
            }
        }
    });
    out.into_iter()
        .map(|r| r.expect("every item ran on a lane"))
        .collect()
}

/// Runs one workload per `cfg`.
pub fn run(cfg: &Config) -> Outcome {
    match cfg.workload {
        Workload::PaperSuite => drive::<suite::PaperSuite>(cfg),
        Workload::FleetBurst => drive::<fleet::FleetBurst>(cfg),
        Workload::NocShared => drive::<noc::Noc<true>>(cfg),
        Workload::NocDoorbell => drive::<noc::Noc<false>>(cfg),
    }
}

/// Op walls and summed counters of one timed phase.
#[derive(Default)]
struct Phase {
    walls_ms: Vec<f64>,
    total: Counters,
}

impl Phase {
    fn push(&mut self, wall_ms: f64, c: &Counters) {
        self.walls_ms.push(wall_ms);
        self.total.add(c);
    }

    /// Total op wall, seconds.
    fn wall_s(&self) -> f64 {
        self.walls_ms.iter().sum::<f64>() / 1e3
    }
}

fn drive<B: Bench>(cfg: &Config) -> Outcome {
    let mut errors = Vec::new();
    let mut attempted = Counters::default();

    // Set-up, several times: input generation, pool creation and one
    // untimed warm-up op (op 0). The warm-up ops double as a
    // determinism check.
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut bench: Option<B> = None;
    let mut op0: Option<Counters> = None;
    for _ in 0..SETUP_REPS {
        drop(bench.take());
        let t = Instant::now();
        let mut b = B::setup(cfg.seed, cfg.scale);
        let input = b.input(0);
        let c = b.run(&input);
        setup_s.push(t.elapsed().as_secs_f64());
        attempted.add(&c);
        if let Some(first) = &op0 {
            if !first.same_machine(&c) {
                errors.push(format!(
                    "warm-up op 0 is not deterministic: {first:?} vs {c:?}"
                ));
            }
        } else {
            op0 = Some(c);
        }
        bench = Some(b);
    }
    let mut bench = bench.expect("at least one set-up");
    let op0 = op0.expect("at least one set-up");

    // Closed loop of one client. A traced run interleaves each
    // untraced op with a traced replay of the same op, so both see the
    // same host conditions and every op's counters are compared.
    let budget = Duration::from_secs_f64(cfg.seconds);
    let rec = Recorder::new();
    let mut plain = Phase::default();
    let mut traced = Phase::default();
    let start = Instant::now();
    let mut op = 1u64;
    let mut mismatches = 0usize;
    while plain.walls_ms.is_empty() || start.elapsed() < budget {
        let input = bench.input(op);
        let t = Instant::now();
        let c = std::hint::black_box(bench.run(std::hint::black_box(&input)));
        plain.push(t.elapsed().as_secs_f64() * 1e3, &c);
        if cfg.trace {
            let root = Ctx {
                rec: Arc::clone(&rec),
                op,
                parent: None,
            };
            let t = Instant::now();
            let (tc, probe) = root.span(ROOT, "", |ctx| (bench.run_traced(&input, ctx), 0));
            traced.push(t.elapsed().as_secs_f64() * 1e3, &tc);
            attempted.add(&bench.probe(probe, &root));
            if !c.same_machine(&tc) {
                mismatches += 1;
                if mismatches <= MAX_REPORTED_MISMATCHES {
                    errors.push(format!(
                        "op {op}: traced run simulated a different machine: {c:?} vs {tc:?}"
                    ));
                }
            }
        }
        op += 1;
    }
    attempted.add(&plain.total);
    if mismatches > MAX_REPORTED_MISMATCHES {
        errors.push(format!(
            "{mismatches} traced ops in all simulated a different machine"
        ));
    }

    let mut metrics: Vec<(&'static str, f64, &'static str)> = Vec::new();
    let mut report = String::new();
    let mut spans_jsonl = String::new();
    let q = |v: &[f64]| stats::quantiles(v, 4);
    let op_q = q(&plain.walls_ms);
    let p90 = stats::quantiles(&plain.walls_ms, 10)[8];
    let _ = writeln!(
        report,
        "{} seed={} host_cores={} ops={} op_ms p25/p50/p75/p90 = {:.3}/{:.3}/{:.3}/{:.3} mean {:.3}",
        cfg.workload.name(),
        cfg.seed,
        stats::host_cores(),
        plain.walls_ms.len(),
        op_q[0],
        op_q[1],
        op_q[2],
        p90,
        plain.wall_s() * 1e3 / plain.walls_ms.len() as f64
    );

    let mut traced_q = None;
    if cfg.trace {
        attempted.add(&traced.total);
        let spans = rec.spans();
        spans_jsonl = spans::to_jsonl(&spans);
        let sum = spans::summarize(&spans);
        let layer = layer_metrics(&bench, &sum, &traced, &plain, &op0, &attempted);
        let unattributed = layer["unattributed.share"];
        if unattributed > MAX_UNATTRIBUTED {
            errors.push(format!(
                "layer spans cover only {:.1}% of traced op wall (need ≥ {:.0}%)",
                (1.0 - unattributed) * 100.0,
                (1.0 - MAX_UNATTRIBUTED) * 100.0
            ));
        }
        for d in PER_LAYER {
            metrics.push((d.name, layer[d.name], d.unit));
        }
        let _ = writeln!(report, "per-layer (traced, {} ops):", traced.walls_ms.len());
        for d in PER_LAYER {
            let _ = writeln!(
                report,
                "  {:<22} {:>14.3} {}",
                d.name, layer[d.name], d.unit
            );
        }
        let _ = writeln!(report, "re-anchor baselines reproduced by this workload:");
        bench.baseline_table(&sum, &layer, &mut report);
        traced_q = Some(q(&traced.walls_ms));
    } else {
        let e2e = [
            stats::median(&setup_s),
            op_q[1],
            plain.total.sessions as f64 / plain.wall_s(),
            plain.total.retired as f64 / 1e6 / plain.wall_s(),
            stats::peak_rss_mb(),
        ];
        for (d, v) in END_TO_END.iter().zip(e2e) {
            metrics.push((d.name, v, d.unit));
        }
    }
    drop(bench);

    if attempted.failed > 0 {
        errors.push(format!(
            "{} of {} sessions failed",
            attempted.failed, attempted.sessions
        ));
    }
    for e in &errors {
        let _ = writeln!(report, "ERROR: {e}");
    }
    let record = record_json(
        cfg,
        &setup_s,
        &op_q,
        p90,
        plain.walls_ms.len(),
        traced_q,
        &op0,
        &metrics,
    );
    Outcome {
        correct: errors.is_empty(),
        attempted: attempted.sessions,
        failed: attempted.failed,
        metrics,
        errors,
        report,
        record,
        spans_jsonl,
    }
}

/// Per-layer metrics from the traced run's spans and counters.
fn layer_metrics<B: Bench>(
    bench: &B,
    s: &Summary,
    traced: &Phase,
    plain: &Phase,
    op0: &Counters,
    attempted: &Counters,
) -> BTreeMap<&'static str, f64> {
    let mut m: BTreeMap<&'static str, f64> = PER_LAYER.iter().map(|d| (d.name, 0.0)).collect();
    let ops = s.ops.max(1) as f64;
    let per_op_us = |ns: u64| ns as f64 / ops / 1e3;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    for (metric, layer) in [
        ("asm.us", "asm"),
        ("lint.us", "lint"),
        ("translate.us", "translate"),
        ("predecode.us", "predecode"),
        ("compile.us", "compile"),
        ("pool.us", "pool"),
        ("fleet.build_us", "fleet.build"),
        ("migrate.park_us", "migrate.park"),
        ("migrate.adopt_us", "migrate.adopt"),
        ("teardown.us", "teardown"),
        ("check.us", "check"),
        ("idle.us", "lane"),
    ] {
        m.insert(metric, per_op_us(s.self_of(layer)));
    }
    let build_ns: u64 = BUILD_LAYERS.iter().map(|l| s.self_of(l)).sum();
    m.insert("build.us", per_op_us(build_ns));
    m.insert("build.share", ratio(build_ns as f64, s.root_ns as f64));
    for (engine, run, steady) in [
        ("golden", "golden.run", "golden.steady"),
        ("vliw", "vliw.run", "vliw.steady"),
    ] {
        let warm_ns = s.total_of(run) as f64 - s.total_of(steady) as f64;
        let warmup = if engine == "golden" {
            "golden.warmup_us"
        } else {
            "vliw.warmup_us"
        };
        let mips = if engine == "golden" {
            "golden.steady_mips"
        } else {
            "vliw.steady_mips"
        };
        m.insert(warmup, warm_ns / ops / 1e3);
        m.insert(
            mips,
            ratio(s.units_of(steady) as f64, s.total_of(steady) as f64) * 1e3,
        );
    }
    let t = &traced.total;
    m.insert(
        "trace.retired_share",
        ratio(t.trace_retired as f64, t.retired as f64),
    );
    let epochs = t.epochs as f64;
    m.insert(
        "barrier.us_per_epoch",
        ratio(s.total_of("barrier") as f64 / 1e3, epochs),
    );
    m.insert(
        "barrier.share",
        ratio(s.total_of("barrier") as f64, s.root_ns as f64),
    );
    m.insert("epochs", epochs / ops);
    m.insert("bus.transactions", t.bus_transactions as f64 / ops);
    m.insert(
        "round.us_per_epoch",
        ratio(s.self_of("round") as f64 / 1e3, epochs),
    );
    let fleet_run_ns = s.total_of("fleet.batch") as f64 - s.total_of("fleet.build") as f64;
    m.insert("fleet.run_us", fleet_run_ns.max(0.0) / ops / 1e3);
    m.insert("migrate.bytes", s.units_of("migrate.park") as f64 / ops);
    m.insert("cycle_dev_pct", op0.cycle_dev_pct);
    m.insert(
        "error_rate",
        ratio(attempted.failed as f64, attempted.sessions as f64),
    );
    m.insert(
        "unattributed.share",
        ratio(s.root_self_ns as f64, s.root_ns as f64),
    );
    m.insert(
        "trace.overhead",
        ratio(
            stats::median(&traced.walls_ms),
            stats::median(&plain.walls_ms),
        ),
    );
    bench.layer_metrics(s, &mut m);
    m
}

#[allow(clippy::too_many_arguments)]
fn record_json(
    cfg: &Config,
    setup_s: &[f64],
    op_q: &[f64],
    p90: f64,
    ops: usize,
    traced_q: Option<Vec<f64>>,
    op0: &Counters,
    metrics: &[(&'static str, f64, &'static str)],
) -> String {
    let list = |v: &[f64]| v.iter().map(|x| num(*x)).collect::<Vec<_>>().join(",");
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"workload\":\"{}\",\"seed\":{},\"held_out_seed\":{},\"trace\":{},\"seconds\":{},\"host_cores\":{},\"pool_workers\":{},\"git_revision\":\"{}\",\"setup_reps\":{},\"setup_s\":[{}],\"repeats\":{},\"op_ms\":{{\"p25\":{},\"p50\":{},\"p75\":{},\"p90\":{}}}",
        cfg.workload.name(),
        cfg.seed,
        HELD_OUT_SEED,
        cfg.trace,
        num(cfg.seconds),
        stats::host_cores(),
        POOL_WORKERS,
        stats::git_revision(&repo_dir()),
        setup_s.len(),
        list(setup_s),
        ops,
        num(op_q[0]),
        num(op_q[1]),
        num(op_q[2]),
        num(p90)
    );
    if let Some(tq) = traced_q {
        let _ = write!(
            out,
            ",\"traced_op_ms\":{{\"p25\":{},\"p50\":{},\"p75\":{}}}",
            num(tq[0]),
            num(tq[1]),
            num(tq[2])
        );
    }
    let _ = write!(out, ",\"op0\":{},\"metrics\":{{", op0.json());
    for (i, (name, v, unit)) in metrics.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
            num(*v)
        );
    }
    out.push_str("}}");
    out
}

/// The benchmark package's directory.
pub fn bench_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// The repository checkout the benchmark builds against.
fn repo_dir() -> PathBuf {
    bench_dir().join("..")
}

/// Smoke mode: every workload at tiny size with tracing on. Returns
/// each workload's outcome.
pub fn smoke(seed: u64) -> Vec<(Workload, Outcome)> {
    Workload::ALL
        .into_iter()
        .map(|workload| {
            let cfg = Config {
                workload,
                seed,
                seconds: 0.2,
                trace: true,
                scale: Scale::Smoke,
            };
            (workload, run(&cfg))
        })
        .collect()
}
