//! Experiment harnesses regenerating every table and figure of the
//! paper's evaluation (§4).
//!
//! | artifact | regenerator |
//! |---|---|
//! | Fig. 5 (speed, MIPS) | `cargo run --release -p cabt-bench --bin fig5` |
//! | Table 1 (cycles per source instruction) | `--bin table1` |
//! | Fig. 6 (cycle accuracy) | `--bin fig6` |
//! | Table 2 (runtime comparison) | `--bin table2` |
//!
//! The bench targets (`cargo bench -p cabt-bench`, plain `harness =
//! false` timing mains — no external bench framework in this offline
//! workspace) measure the same pipelines on reduced workloads, the
//! ablations (cache call vs. inline, block vs. instruction
//! granularity), and the naive-vs-pre-decoded dispatch comparison
//! emitted to `BENCH_fig5.json` by `scripts/bench.sh`.

use cabt_core::DetailLevel;
use cabt_exec::trace::{TraceConfig, TraceStats};
use cabt_exec::{EngineStats, ExecutionEngine, Limit, StopCause};
use cabt_sim::{Backend, Session, ShardSchedule, SimBuilder};
use cabt_tricore::sim::DispatchMode;
use cabt_vliw::sim::VliwDispatch;
use cabt_workloads::Workload;
use std::time::Instant;

/// Clock of the reference board (48 MHz TC10GP).
pub const BOARD_HZ: f64 = 48e6;
/// Clock of the VLIW target (200 MHz C6x).
pub const TARGET_HZ: f64 = 200e6;
/// Clock of the FPGA prototype from the paper's reference \[12\] (8 MHz XCV2000E).
pub const FPGA_HZ: f64 = 8e6;

/// Measurements of one workload on the reference model.
#[derive(Debug, Clone, Copy)]
pub struct GoldenRun {
    /// Source instructions retired.
    pub instructions: u64,
    /// Source cycles including cache misses.
    pub cycles: u64,
}

/// Runs any [`ExecutionEngine`] to halt within `limit`, returning its
/// uniform counters. Every harness in this crate funnels engine
/// execution through here, so backends compare on the same terms.
///
/// # Panics
///
/// Panics if the engine faults or exhausts the budget first.
pub fn run_engine_to_halt<E: ExecutionEngine>(engine: &mut E, limit: Limit) -> EngineStats {
    match engine.run_until(limit) {
        Ok(StopCause::Halted) => engine.engine_stats(),
        Ok(StopCause::LimitReached) => panic!("engine hit its budget before halting"),
        Err(e) => panic!("engine faulted: {e}"),
    }
}

/// Retirement budget generous enough for every bundled workload on
/// every backend (engine-native units: instructions, packets, or
/// RTL-core instructions).
const HALT_BUDGET: Limit = Limit::Retirements(5_000_000_000);

/// Builds a `cabt-sim` session for `w` on `backend`, runs it to halt
/// and validates the workload checksum — the uniform measurement every
/// harness in this crate is built from. There is no per-backend driver
/// code: the backend is *data*.
///
/// # Panics
///
/// Panics if the session fails to build, faults, exhausts the budget,
/// or computes the wrong checksum — all generator bugs.
pub fn run_backend(w: &Workload, backend: Backend) -> (Session, EngineStats) {
    let mut s = SimBuilder::workload(w)
        .backend(backend)
        .build()
        .unwrap_or_else(|e| panic!("{}: session on {backend} fails to build: {e}", w.name));
    let stats = run_engine_to_halt(&mut s, HALT_BUDGET);
    assert_eq!(
        s.read_d(2),
        w.expected_d2,
        "{} checksum on {backend}",
        w.name
    );
    (s, stats)
}

/// Runs the golden model (the evaluation-board stand-in) through a
/// `cabt-sim` session.
///
/// # Panics
///
/// Panics if the workload fails to assemble, run, or validate — all are
/// generator bugs.
pub fn run_golden(w: &Workload) -> GoldenRun {
    let (_, stats) = run_backend(w, Backend::golden());
    GoldenRun {
        instructions: stats.retired,
        cycles: stats.cycles,
    }
}

/// Measurements of one workload translated at one detail level, run on
/// the platform with an instant synchronization device (pure code
/// speed, as Table 1 measures).
#[derive(Debug, Clone, Copy)]
pub struct TranslatedRun {
    /// Target (VLIW) cycles.
    pub target_cycles: u64,
    /// SoC cycles generated from static predictions.
    pub generated: u64,
    /// SoC cycles generated from corrections.
    pub corrected: u64,
}

impl TranslatedRun {
    /// Total generated cycles (the Fig. 6 quantity).
    pub fn total_generated(&self) -> u64 {
        self.generated + self.corrected
    }
}

/// Translates and runs a workload at `level` through a `cabt-sim`
/// session (instant synchronization device, as Table 1 measures).
///
/// # Panics
///
/// Panics on translation/run/validation failure.
pub fn run_translated(w: &Workload, level: DetailLevel) -> TranslatedRun {
    let (s, _) = run_backend(w, Backend::translated(level));
    let stats = s.platform_stats().expect("translated session");
    TranslatedRun {
        target_cycles: stats.target_cycles,
        generated: stats.generated_cycles,
        corrected: stats.corrected_cycles,
    }
}

/// One row of Fig. 5: million source instructions per second in each of
/// the five configurations.
#[derive(Debug, Clone)]
pub struct Fig5Row {
    /// Workload name.
    pub name: &'static str,
    /// TC10GP evaluation board.
    pub board: f64,
    /// C6x without cycle information.
    pub functional: f64,
    /// C6x with cycle information.
    pub cycle: f64,
    /// C6x with branch prediction.
    pub branch: f64,
    /// C6x with caches.
    pub cache: f64,
}

/// Computes Fig. 5 for the given workloads.
pub fn fig5(workloads: &[Workload]) -> Vec<Fig5Row> {
    workloads
        .iter()
        .map(|w| {
            let g = run_golden(w);
            let mips = |target_cycles: u64, hz: f64| {
                g.instructions as f64 / (target_cycles as f64 / hz) / 1e6
            };
            let f = run_translated(w, DetailLevel::Functional);
            let c = run_translated(w, DetailLevel::Static);
            let b = run_translated(w, DetailLevel::BranchPredict);
            let k = run_translated(w, DetailLevel::Cache);
            Fig5Row {
                name: w.name,
                board: mips(g.cycles, BOARD_HZ),
                functional: mips(f.target_cycles, TARGET_HZ),
                cycle: mips(c.target_cycles, TARGET_HZ),
                branch: mips(b.target_cycles, TARGET_HZ),
                cache: mips(k.target_cycles, TARGET_HZ),
            }
        })
        .collect()
}

/// Table 1: average clock cycles per source instruction across the
/// workloads, in the paper's five configurations.
#[derive(Debug, Clone, Copy)]
pub struct Table1 {
    /// TC10GP evaluation board (source cycles per instruction).
    pub board: f64,
    /// C6x without cycle information.
    pub functional: f64,
    /// C6x with cycle information.
    pub cycle: f64,
    /// C6x with branch prediction.
    pub branch: f64,
    /// C6x with caches.
    pub cache: f64,
}

/// Computes Table 1 over the given workloads (paper: "the average value
/// of all examples").
pub fn table1(workloads: &[Workload]) -> Table1 {
    let mut rows = [0f64; 5];
    for w in workloads {
        let g = run_golden(w);
        let per = |c: u64| c as f64 / g.instructions as f64;
        rows[0] += per(g.cycles);
        rows[1] += per(run_translated(w, DetailLevel::Functional).target_cycles);
        rows[2] += per(run_translated(w, DetailLevel::Static).target_cycles);
        rows[3] += per(run_translated(w, DetailLevel::BranchPredict).target_cycles);
        rows[4] += per(run_translated(w, DetailLevel::Cache).target_cycles);
    }
    let n = workloads.len() as f64;
    Table1 {
        board: rows[0] / n,
        functional: rows[1] / n,
        cycle: rows[2] / n,
        branch: rows[3] / n,
        cache: rows[4] / n,
    }
}

/// One row of Fig. 6: generated-cycle counts per detail level against
/// the measured (golden) count.
#[derive(Debug, Clone)]
pub struct Fig6Row {
    /// Workload name.
    pub name: &'static str,
    /// Golden (board) cycle count.
    pub measured: u64,
    /// Generated cycles at the static level.
    pub cycle: u64,
    /// Generated cycles with branch prediction.
    pub branch: u64,
    /// Generated cycles with cache simulation.
    pub cache: u64,
}

impl Fig6Row {
    /// Percentage deviation of a simulated count from the measured one.
    pub fn deviation(&self, simulated: u64) -> f64 {
        (simulated as f64 - self.measured as f64).abs() / self.measured as f64 * 100.0
    }
}

/// Computes Fig. 6 for the given workloads.
pub fn fig6(workloads: &[Workload]) -> Vec<Fig6Row> {
    workloads
        .iter()
        .map(|w| {
            let g = run_golden(w);
            Fig6Row {
                name: w.name,
                measured: g.cycles,
                cycle: run_translated(w, DetailLevel::Static).total_generated(),
                branch: run_translated(w, DetailLevel::BranchPredict).total_generated(),
                cache: run_translated(w, DetailLevel::Cache).total_generated(),
            }
        })
        .collect()
}

/// One row of Table 2: execution/simulation time per approach.
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// Workload name.
    pub name: &'static str,
    /// Source instructions executed.
    pub instructions: u64,
    /// Wall-clock seconds of the RT-level simulation (measured).
    pub rtl_seconds: f64,
    /// Seconds of FPGA emulation at 8 MHz (golden cycles / 8 MHz).
    pub fpga_seconds: f64,
    /// Seconds of translated execution at the three detail levels
    /// (target cycles / 200 MHz).
    pub translation_seconds: [f64; 3],
}

/// Computes Table 2. Every vehicle — golden, RTL, and the translated
/// detail levels — is measured through the same session drive; the
/// rows differ only in which quantity they derive (wall clock for the
/// RTL simulation, cycles over the respective clock for the
/// board/FPGA/translation rows).
pub fn table2(workloads: &[Workload]) -> Vec<Table2Row> {
    workloads
        .iter()
        .map(|w| {
            // Assembled once outside the timed region: the wall-clock
            // column measures building + running the vehicle
            // (elaboration included, as the paper's "simulation time"
            // does), not assembling the workload source.
            let elf = w.elf().expect("workload assembles");
            // One uniform measurement per backend: engine counters plus
            // host wall-clock seconds.
            let measure = |backend: Backend| {
                let builder = SimBuilder::elf(elf.clone()).backend(backend);
                let start = Instant::now();
                let mut s = builder
                    .build()
                    .unwrap_or_else(|e| panic!("{}: session on {backend} fails: {e}", w.name));
                let stats = run_engine_to_halt(&mut s, HALT_BUDGET);
                let secs = start.elapsed().as_secs_f64();
                assert_eq!(
                    s.read_d(2),
                    w.expected_d2,
                    "{} checksum on {backend}",
                    w.name
                );
                (stats, secs)
            };
            let (g, _) = measure(Backend::golden());
            let (_, rtl_seconds) = measure(Backend::Rtl);
            let secs =
                |lvl: DetailLevel| measure(Backend::translated(lvl)).0.cycles as f64 / TARGET_HZ;
            Table2Row {
                name: w.name,
                instructions: g.retired,
                rtl_seconds,
                fpga_seconds: g.cycles as f64 / FPGA_HZ,
                translation_seconds: [
                    secs(DetailLevel::Static),
                    secs(DetailLevel::BranchPredict),
                    secs(DetailLevel::Cache),
                ],
            }
        })
        .collect()
}

/// Mean wall-clock seconds per call of `f` over `iters` calls, after
/// one warm-up call. The tiny measurement core behind the non-criterion
/// bench harnesses.
pub fn bench_seconds(iters: u32, mut f: impl FnMut()) -> f64 {
    assert!(iters > 0);
    f(); // warm-up
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_secs_f64() / iters as f64
}

/// Best (minimum) of `repeats` [`bench_seconds`] batches — the standard
/// noise filter on shared hosts: interference only ever makes a batch
/// slower, so the minimum is the least-disturbed measurement.
pub fn bench_seconds_best(repeats: u32, iters: u32, mut f: impl FnMut()) -> f64 {
    assert!(repeats > 0);
    (0..repeats)
        .map(|_| bench_seconds(iters, &mut f))
        .fold(f64::INFINITY, f64::min)
}

/// Trace-tier coverage of one measured trace-dispatch run: how many
/// superblocks formed, their mean length in blocks, and the share of
/// all retirement that happened inside fused traces.
#[derive(Debug, Clone, Copy)]
pub struct TraceCoverage {
    /// Superblocks formed over the run.
    pub traces: u64,
    /// Mean blocks per formed trace.
    pub avg_blocks: f64,
    /// Fraction of retired units (instructions/packets) dispatched
    /// inside fused traces, `0..=1`.
    pub retired_in_traces: f64,
}

impl TraceCoverage {
    fn from_stats(ts: TraceStats, retired: u64) -> TraceCoverage {
        TraceCoverage {
            traces: ts.traces,
            avg_blocks: ts.avg_blocks(),
            retired_in_traces: if retired == 0 {
                0.0
            } else {
                ts.trace_retired as f64 / retired as f64
            },
        }
    }

    /// Renders one JSON object (hand-rolled; the workspace is
    /// dependency-free).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"traces\":{},\"avg_blocks\":{:.2},\"retired_in_traces\":{:.3}}}",
            self.traces, self.avg_blocks, self.retired_in_traces
        )
    }
}

/// Static trace prediction versus the dynamic [`TraceProfile`]: the
/// analyzer's predicted-hot chains (`exec::analyze::predict_traces`
/// over natural loops) compared against the chains the golden trace
/// tier actually fused on the same run — the static/dynamic
/// cross-validation row of the analysis subsystem.
///
/// [`TraceProfile`]: cabt_exec::trace::TraceProfile
#[derive(Debug, Clone)]
pub struct TracePredictionRow {
    /// Workload name.
    pub workload: &'static str,
    /// Chains the analyzer predicted hot (one per natural loop).
    pub predicted: usize,
    /// Chains the trace tier dynamically fused.
    pub formed: usize,
    /// Predicted heads that did turn hot dynamically.
    pub heads_hit: usize,
    /// Dynamic chains that match a predicted chain block-for-block.
    pub exact_matches: usize,
    /// Static side-exit verification findings over the *dynamic*
    /// chains — must be zero: every exit of every fused trace lands on
    /// a block leader.
    pub exit_findings: usize,
}

impl TracePredictionRow {
    /// Renders one JSON object (hand-rolled; the workspace is
    /// dependency-free).
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"workload\":\"{}\",\"predicted\":{},\"formed\":{},",
                "\"heads_hit\":{},\"exact_matches\":{},\"exit_findings\":{}}}"
            ),
            self.workload,
            self.predicted,
            self.formed,
            self.heads_hit,
            self.exact_matches,
            self.exit_findings
        )
    }
}

/// Runs `w` to halt on the golden trace tier under `cfg` and compares
/// the fused chains against the static prediction.
///
/// # Panics
///
/// Panics on assembly/build/run failures (bench-harness style).
pub fn trace_prediction(w: &Workload, cfg: TraceConfig) -> TracePredictionRow {
    use cabt_exec::analyze::{natural_loops, predict_traces, verify_trace_exits};
    let elf = w.elf().expect("assembles");
    let prog = cabt_tricore::analyze::lower_elf(&elf).expect("lowers");
    let graph = prog.graph();
    let loops = natural_loops(&graph);
    let predicted = predict_traces(&graph, &loops, cfg.max_blocks as usize);

    let mut s = SimBuilder::workload(w)
        .backend(Backend::golden_trace())
        .trace_config(cfg)
        .build()
        .expect("builds");
    s.run(Limit::Cycles(u64::MAX)).expect("halts");
    let plans = s.trace_plans();

    let heads_hit = predicted
        .iter()
        .filter(|p| plans.iter().any(|pl| pl.blocks[0] == p.head))
        .count();
    let exact_matches = plans
        .iter()
        .filter(|pl| predicted.iter().any(|p| p.blocks == pl.blocks))
        .count();
    let exit_findings = plans
        .iter()
        .map(|pl| verify_trace_exits(&graph, &pl.blocks, |u| prog.units[u as usize].pc).len())
        .sum();
    TracePredictionRow {
        workload: w.name,
        predicted: predicted.len(),
        formed: plans.len(),
        heads_hit,
        exact_matches,
        exit_findings,
    }
}

/// Host-side dispatch throughput of the naive, pre-decoded,
/// block-/closure-compiled and profile-guided trace engine cores on one
/// workload — the headline measurement of the decode-once, block-
/// compilation and trace-tier refactors, emitted to `BENCH_fig5.json`
/// by the `fig5_speed` bench.
#[derive(Debug, Clone)]
pub struct DispatchComparison {
    /// Workload name.
    pub workload: &'static str,
    /// Detail level of the translated half.
    pub level: DetailLevel,
    /// Golden model, naive map-fetch core: million source instructions
    /// dispatched per host second.
    pub golden_naive_mips: f64,
    /// Golden model, pre-decoded core.
    pub golden_predecoded_mips: f64,
    /// Golden model, block-compiled closure core.
    pub golden_compiled_mips: f64,
    /// Golden model, profile-guided trace core.
    pub golden_trace_mips: f64,
    /// Translated image on the platform, naive VLIW core: million
    /// execute packets dispatched per host second.
    pub vliw_naive_mpps: f64,
    /// Translated image, pre-decoded VLIW core.
    pub vliw_predecoded_mpps: f64,
    /// Translated image, closure-compiled VLIW core.
    pub vliw_compiled_mpps: f64,
    /// Translated image, trace-tier VLIW core.
    pub vliw_trace_mpps: f64,
    /// Trace coverage of the golden trace run.
    pub golden_trace: TraceCoverage,
    /// Trace coverage of the VLIW trace run.
    pub vliw_trace: TraceCoverage,
}

impl DispatchComparison {
    /// Pre-decoded over naive speedup of the golden model.
    pub fn golden_speedup(&self) -> f64 {
        self.golden_predecoded_mips / self.golden_naive_mips
    }

    /// Block-compiled over *pre-decoded* speedup of the golden model —
    /// the block-compilation headline (compiled vs. the already-fast
    /// interpreter, not vs. the naive seed).
    pub fn golden_compiled_speedup(&self) -> f64 {
        self.golden_compiled_mips / self.golden_predecoded_mips
    }

    /// Pre-decoded over naive packet-dispatch speedup of the VLIW core.
    pub fn vliw_speedup(&self) -> f64 {
        self.vliw_predecoded_mpps / self.vliw_naive_mpps
    }

    /// Closure-compiled over pre-decoded packet-dispatch speedup.
    pub fn vliw_compiled_speedup(&self) -> f64 {
        self.vliw_compiled_mpps / self.vliw_predecoded_mpps
    }

    /// Trace tier over *pre-decoded* speedup of the golden model — the
    /// trace-tier headline.
    pub fn golden_trace_speedup(&self) -> f64 {
        self.golden_trace_mips / self.golden_predecoded_mips
    }

    /// Trace tier over block-compiled speedup of the golden model.
    pub fn golden_trace_over_compiled(&self) -> f64 {
        self.golden_trace_mips / self.golden_compiled_mips
    }

    /// Trace tier over pre-decoded packet-dispatch speedup of the VLIW
    /// core.
    pub fn vliw_trace_speedup(&self) -> f64 {
        self.vliw_trace_mpps / self.vliw_predecoded_mpps
    }

    /// Trace tier over closure-compiled packet-dispatch speedup.
    pub fn vliw_trace_over_compiled(&self) -> f64 {
        self.vliw_trace_mpps / self.vliw_compiled_mpps
    }

    /// Renders one JSON object (hand-rolled; the workspace is
    /// dependency-free).
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"workload\":\"{}\",\"level\":\"{}\",",
                "\"golden_naive_mips\":{:.3},\"golden_predecoded_mips\":{:.3},",
                "\"golden_compiled_mips\":{:.3},\"golden_trace_mips\":{:.3},",
                "\"golden_speedup\":{:.3},\"golden_compiled_speedup\":{:.3},",
                "\"golden_trace_speedup\":{:.3},\"golden_trace_over_compiled\":{:.3},",
                "\"vliw_naive_mpps\":{:.3},\"vliw_predecoded_mpps\":{:.3},",
                "\"vliw_compiled_mpps\":{:.3},\"vliw_trace_mpps\":{:.3},",
                "\"vliw_speedup\":{:.3},\"vliw_compiled_speedup\":{:.3},",
                "\"vliw_trace_speedup\":{:.3},\"vliw_trace_over_compiled\":{:.3},",
                "\"golden_trace_stats\":{},\"vliw_trace_stats\":{}}}"
            ),
            self.workload,
            self.level,
            self.golden_naive_mips,
            self.golden_predecoded_mips,
            self.golden_compiled_mips,
            self.golden_trace_mips,
            self.golden_speedup(),
            self.golden_compiled_speedup(),
            self.golden_trace_speedup(),
            self.golden_trace_over_compiled(),
            self.vliw_naive_mpps,
            self.vliw_predecoded_mpps,
            self.vliw_compiled_mpps,
            self.vliw_trace_mpps,
            self.vliw_speedup(),
            self.vliw_compiled_speedup(),
            self.vliw_trace_speedup(),
            self.vliw_trace_over_compiled(),
            self.golden_trace.to_json(),
            self.vliw_trace.to_json(),
        )
    }
}

/// Measures naive vs. pre-decoded vs. compiled vs. trace dispatch
/// throughput on `w`: the golden model interpreting source code, and
/// the translated image (at `level`) dispatching execute packets on the
/// platform. The trace rows run under `trace_cfg` (each timed run
/// starts from a cold profile — reset rebuilds the tier — so warm-up
/// and formation cost are inside the measurement).
///
/// # Panics
///
/// Panics on assembly/translation/run failures.
pub fn compare_dispatch(
    w: &Workload,
    level: DetailLevel,
    iters: u32,
    trace_cfg: TraceConfig,
) -> DispatchComparison {
    // Both halves share one shape: build the session once (ELF load,
    // translation and pre-decode tables are not timed), then reset and
    // re-run per iteration. For the translated backend a session reset
    // rebuilds the platform, so the synchronization device starts
    // fresh each run; that construction cost is identical in both
    // dispatch modes and only dilutes the measured ratio —
    // conservatively.
    let measure = |backend: Backend| {
        let mut s = SimBuilder::workload(w)
            .backend(backend)
            .trace_config(trace_cfg)
            .build()
            .expect("session builds");
        let mut retired = 0u64;
        let secs = bench_seconds_best(3, iters, || {
            s.reset();
            let stats = run_engine_to_halt(&mut s, HALT_BUDGET);
            assert_eq!(
                s.read_d(2),
                w.expected_d2,
                "{} checksum after reset on {backend}",
                w.name
            );
            retired = stats.retired;
        });
        // Coverage of the last timed run (every run is identical).
        let coverage = s
            .trace_stats()
            .map(|ts| TraceCoverage::from_stats(ts, retired));
        (retired as f64 / secs / 1e6, coverage)
    };
    let throughput = |backend: Backend| measure(backend).0;

    // Measure in tier order (the order the results are read in), so
    // every tier's predecessor has already warmed the clock and host
    // caches by the time it runs.
    let golden_naive_mips = throughput(Backend::Golden {
        dispatch: DispatchMode::Naive,
    });
    let golden_predecoded_mips = throughput(Backend::Golden {
        dispatch: DispatchMode::Predecoded,
    });
    let golden_compiled_mips = throughput(Backend::Golden {
        dispatch: DispatchMode::Compiled,
    });
    let (golden_trace_mips, golden_trace) = measure(Backend::Golden {
        dispatch: DispatchMode::Trace,
    });
    let vliw_naive_mpps = throughput(Backend::Translated {
        level,
        dispatch: VliwDispatch::Naive,
    });
    let vliw_predecoded_mpps = throughput(Backend::Translated {
        level,
        dispatch: VliwDispatch::Predecoded,
    });
    let vliw_compiled_mpps = throughput(Backend::Translated {
        level,
        dispatch: VliwDispatch::Compiled,
    });
    let (vliw_trace_mpps, vliw_trace) = measure(Backend::Translated {
        level,
        dispatch: VliwDispatch::Trace,
    });
    DispatchComparison {
        workload: w.name,
        level,
        golden_naive_mips,
        golden_predecoded_mips,
        golden_compiled_mips,
        golden_trace_mips,
        vliw_naive_mpps,
        vliw_predecoded_mpps,
        vliw_compiled_mpps,
        vliw_trace_mpps,
        golden_trace: golden_trace.expect("trace stats on the golden trace backend"),
        vliw_trace: vliw_trace.expect("trace stats on the VLIW trace backend"),
    }
}

/// Scheduling epoch (target cycles) used by the sharded throughput
/// measurement: large enough to amortize the barrier exchange and the
/// pooled scheduler's per-round job dispatch, identical for both
/// schedules so the sequential and pooled rows simulate the *same*
/// run (`tests/parallel_determinism.rs` proves bit-identity).
pub const SHARDED_BENCH_EPOCH: u64 = 65_536;

/// Host-side throughput of one sharded configuration: `cores` shards
/// of the translated engine, measured as million source instructions
/// retired per host second *summed across shards*, under one
/// [`ShardSchedule`].
#[derive(Debug, Clone)]
pub struct ShardedThroughput {
    /// Workload name.
    pub workload: &'static str,
    /// Shard count.
    pub cores: u16,
    /// Host schedule of the epoch rounds.
    pub schedule: ShardSchedule,
    /// Aggregate retirements across all shards, per run.
    pub aggregate_retired: u64,
    /// Aggregate million instructions per host second.
    pub aggregate_mips: f64,
    /// Arbiter epoch boundaries per run.
    pub epochs: u64,
}

impl ShardedThroughput {
    /// Short tag of the schedule (`sequential` / `pooled`), as emitted
    /// in the JSON rows.
    pub fn schedule_tag(&self) -> &'static str {
        match self.schedule {
            ShardSchedule::Sequential => "sequential",
            ShardSchedule::Pooled(_) => "pooled",
        }
    }

    /// Renders one JSON object (hand-rolled; the workspace is
    /// dependency-free).
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"workload\":\"{}\",\"cores\":{},\"schedule\":\"{}\",",
                "\"aggregate_retired\":{},\"aggregate_mips\":{:.3},\"epochs\":{}}}"
            ),
            self.workload,
            self.cores,
            self.schedule_tag(),
            self.aggregate_retired,
            self.aggregate_mips,
            self.epochs,
        )
    }
}

/// Measures sharded throughput: builds a `Backend::Sharded` session of
/// `cores` translated engines over `w` under `schedule`, reruns it
/// `iters` times (reset + run to halt) and reports aggregate dispatch
/// throughput. Validates every shard's checksum — the
/// producer/consumer handoff must still be correct under measurement.
///
/// # Panics
///
/// Panics on build/run/validation failures.
pub fn sharded_throughput(
    w: &Workload,
    cores: u16,
    iters: u32,
    schedule: ShardSchedule,
) -> ShardedThroughput {
    let mut s = SimBuilder::workload(w)
        .backend(Backend::sharded_with_schedule(
            cores,
            Backend::translated(DetailLevel::Static),
            schedule,
        ))
        .shard_epoch(SHARDED_BENCH_EPOCH)
        .build()
        .expect("sharded session builds");
    let mut retired = 0u64;
    let mut epochs = 0u64;
    let secs = bench_seconds_best(3, iters, || {
        s.reset();
        match s.run_until(Limit::Cycles(u64::MAX)) {
            Ok(StopCause::Halted) => {}
            other => panic!("sharded run ended with {other:?}"),
        }
        let stats = s.sharded_stats().expect("sharded session");
        for i in 0..cores as usize {
            assert_eq!(
                s.shard(i).expect("shard").read_d(2),
                w.expected_d2,
                "{} checksum on core {i} of {cores}",
                w.name
            );
        }
        retired = stats.aggregate.retired;
        epochs = stats.epochs;
    });
    ShardedThroughput {
        workload: w.name,
        cores,
        schedule,
        aggregate_retired: retired,
        aggregate_mips: retired as f64 / secs / 1e6,
        epochs,
    }
}

/// Cost of one epoch barrier at one fabric width: mean nanoseconds per
/// [`ShardArbiter`](cabt_platform::ShardArbiter) exchange under
/// producer/consumer-shaped traffic (one producer shard writes the
/// scratch-RAM buffer and a UART byte each epoch; every other shard is
/// idle).
#[derive(Debug, Clone)]
pub struct BarrierCost {
    /// Shard count of the fabric.
    pub cores: u16,
    /// Scratch-RAM words the producer writes per epoch.
    pub words_per_epoch: u32,
    /// Timed epochs per measurement.
    pub epochs: u32,
    /// Mean nanoseconds per `exchange` on the delta barrier.
    pub delta_ns_per_epoch: f64,
}

impl BarrierCost {
    /// Renders one JSON object (hand-rolled; the workspace is
    /// dependency-free).
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"cores\":{},\"words_per_epoch\":{},\"epochs\":{},",
                "\"delta_ns_per_epoch\":{:.0}}}"
            ),
            self.cores, self.words_per_epoch, self.epochs, self.delta_ns_per_epoch,
        )
    }
}

/// Measures the epoch-barrier cost of an `cores`-shard device fabric
/// directly — no engines, just the buses and the arbiter — so the
/// number isolates the barrier. Each epoch, shard 0 rewrites
/// `words_per_epoch` words of the shared scratch buffer (a fixed
/// working set, as the producer/consumer workload's handoff buffer is)
/// and transmits one UART byte; the barrier
/// ([`ShardArbiter::exchange`](cabt_platform::ShardArbiter::exchange))
/// then reconciles all `cores` buses.
///
/// # Panics
///
/// Panics if `words_per_epoch` exceeds the shared scratch buffer (192
/// words) — a harness bug.
pub fn barrier_cost(cores: u16, words_per_epoch: u32, epochs: u32) -> BarrierCost {
    use cabt_platform::{mirror_soc_bus, shard_soc_bus, ShardArbiter, SharedSocBus};
    assert!(
        (1..=192).contains(&words_per_epoch),
        "producer traffic outside the shared scratch buffer"
    );
    let n = u32::from(cores);
    let buses: Vec<SharedSocBus> = (0..n)
        .map(|id| SharedSocBus::new(shard_soc_bus(id, n)))
        .collect();
    let mut arbiter = ShardArbiter::new(mirror_soc_bus(n), buses.clone());
    let mut delta = std::time::Duration::ZERO;
    for e in 0..epochs + 3 {
        // One epoch of producer traffic: rewrite the fixed working set
        // (fresh values so every write journals), one UART byte.
        for w in 0..words_per_epoch {
            buses[0].write(u64::from(e), 0xf000_0204 + 4 * w, 4, e.wrapping_add(w));
        }
        buses[0].write(u64::from(e), 0xf000_0100, 4, e & 0xff);
        let t = Instant::now();
        arbiter.exchange();
        if e >= 3 {
            delta += t.elapsed(); // first epochs warm the fabric up
        }
    }

    BarrierCost {
        cores,
        words_per_epoch,
        epochs,
        delta_ns_per_epoch: delta.as_nanos() as f64 / f64::from(epochs),
    }
}

/// Host-side throughput of the fleet service at one concurrency level:
/// `sessions` concurrent sessions of one workload scheduled over a
/// [`cabt_fleet::FleetPool`] of `workers` threads, reported as sessions
/// completed per host second and million source instructions retired
/// per host second summed across the whole batch.
#[derive(Debug, Clone)]
pub struct FleetThroughput {
    /// Workload name (a `cabt_workloads::by_name` entry).
    pub workload: &'static str,
    /// Concurrent sessions in the batch.
    pub sessions: usize,
    /// Pool worker threads.
    pub workers: usize,
    /// Sessions completed per host second.
    pub sessions_per_sec: f64,
    /// Aggregate million source instructions per host second.
    pub aggregate_mips: f64,
    /// Total instructions retired across the batch, per run.
    pub total_retired: u64,
    /// Per-session epoch digest chains folded in request order — two
    /// scheduler configurations ran the identical batch iff equal.
    pub batch_digest: u64,
}

impl FleetThroughput {
    /// Renders one JSON object (hand-rolled; the workspace is
    /// dependency-free).
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"workload\":\"{}\",\"sessions\":{},\"workers\":{},",
                "\"sessions_per_sec\":{:.2},\"aggregate_mips\":{:.3},",
                "\"total_retired\":{},\"batch_digest\":\"{:016x}\"}}"
            ),
            self.workload,
            self.sessions,
            self.workers,
            self.sessions_per_sec,
            self.aggregate_mips,
            self.total_retired,
            self.batch_digest,
        )
    }
}

/// Measures the fleet service: `sessions` concurrent copies of the
/// named workload on the golden backend, scheduled as epoch-sized work
/// items over a pool of `workers` threads, timed end to end (session
/// build included — the service cost is what is being measured).
/// Validates every session's checksum and folds the per-session epoch
/// digest chains so callers can assert two scheduler configurations
/// simulated the identical batch.
///
/// # Panics
///
/// Panics on unknown workloads, session faults, or checksum mismatches.
pub fn fleet_throughput(
    workload: &'static str,
    sessions: usize,
    workers: usize,
    iters: u32,
) -> FleetThroughput {
    use cabt_fleet::{run_fleet, FleetPool, FleetRequest};
    let pool = FleetPool::new(workers);
    let requests: Vec<FleetRequest> = (0..sessions)
        .map(|_| {
            FleetRequest::named(workload)
                .backend(Backend::golden())
                .budget(HALT_BUDGET)
        })
        .collect();
    let mut total_retired = 0u64;
    let mut batch = 0u64;
    let secs = bench_seconds(iters, || {
        let results = run_fleet(&pool, &requests);
        total_retired = 0;
        let mut chain = cabt_exec::Fingerprint::new();
        for r in results {
            let r = r.unwrap_or_else(|e| panic!("fleet session faulted: {e}"));
            assert!(r.checksum_ok(), "{workload}: wrong checksum in the fleet");
            total_retired += r.stats.retired;
            chain.mix_u64(r.epoch_chain);
        }
        batch = chain.digest();
    });
    FleetThroughput {
        workload,
        sessions,
        workers,
        sessions_per_sec: sessions as f64 / secs,
        aggregate_mips: total_retired as f64 / secs / 1e6,
        total_retired,
        batch_digest: batch,
    }
}

/// Formats seconds the way the paper's Table 2 does (µs/ms/s).
pub fn human_time(seconds: f64) -> String {
    if seconds < 1e-3 {
        format!("{:.1} µs", seconds * 1e6)
    } else if seconds < 1.0 {
        format!("{:.2} ms", seconds * 1e3)
    } else {
        format!("{seconds:.2} s")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Vec<Workload> {
        vec![cabt_workloads::gcd(3, 7), cabt_workloads::fir(4, 24, 7)]
    }

    #[test]
    fn fig5_shape_holds_on_tiny_workloads() {
        for row in fig5(&tiny()) {
            // Adding instrumentation can only slow the target down.
            assert!(row.functional >= row.cycle, "{}", row.name);
            assert!(row.cycle >= row.branch, "{}", row.name);
            assert!(
                row.branch > row.cache,
                "{}: cache level must be much slower",
                row.name
            );
            assert!(row.board > 0.0);
        }
    }

    #[test]
    fn table1_orderings_match_paper() {
        let t = table1(&tiny());
        assert!(
            t.board >= 1.0,
            "CPI cannot beat 1 on the dual-issue core? {t:?}"
        );
        assert!(t.functional < t.cycle);
        assert!(t.cycle < t.branch);
        assert!(t.branch < t.cache);
        assert!(
            t.cache / t.branch > 2.0,
            "cache simulation is several times slower: {t:?}"
        );
    }

    #[test]
    fn fig6_accuracy_improves_with_level() {
        for row in fig6(&tiny()) {
            assert!(
                row.deviation(row.branch) <= row.deviation(row.cycle) + 1e-9,
                "{row:?}"
            );
            assert!(
                row.deviation(row.cache) <= row.deviation(row.branch) + 1e-9,
                "{row:?}"
            );
            assert!(row.deviation(row.cache) < 20.0, "{row:?}");
        }
    }

    #[test]
    fn table2_translation_beats_rtl_by_orders_of_magnitude() {
        let rows = table2(&[cabt_workloads::gcd(3, 7)]);
        let r = &rows[0];
        assert!(r.rtl_seconds > 0.0);
        for t in r.translation_seconds {
            assert!(
                t < r.rtl_seconds,
                "translation must beat RTL simulation: {r:?}"
            );
        }
        assert!(r.translation_seconds[0] < r.fpga_seconds * 10.0);
    }

    #[test]
    fn human_time_units() {
        assert!(human_time(3.21e-6).contains("µs"));
        assert!(human_time(4.5e-3).contains("ms"));
        assert!(human_time(2.0).contains('s'));
    }
}
