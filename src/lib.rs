//! # CABT — Cycle-Accurate Binary Translation for SoC Rapid Prototyping
//!
//! A from-scratch Rust reproduction of *Schnerr, Bringmann, Rosenstiel:
//! "Cycle Accurate Binary Translation for Simulation Acceleration in
//! Rapid Prototyping of SoCs", DATE 2005*.
//!
//! The system translates object code of an embedded SoC processor core
//! (a TriCore-like ISA) into VLIW (C6x-like) target code annotated with
//! **cycle-generation instructions**: each translated basic block starts
//! by telling a synchronization device how many source-processor cycles
//! it represents, the device clocks the attached SoC hardware in
//! parallel with the block's execution, and a wait access at the block
//! end re-synchronizes the two (Fig. 2 of the paper). Dynamic
//! correction code refines the static prediction for branch outcomes and
//! instruction-cache misses (Fig. 3/4).
//!
//! This crate is the umbrella: it re-exports the subsystem crates and
//! hosts the runnable examples and the cross-crate integration tests.
//!
//! | crate | role |
//! |---|---|
//! | [`isa`] | memory model, ELF32 reader/writer, deterministic PRNG |
//! | [`exec`] | `ExecutionEngine` — dispatch + snapshot/restore interface of every simulator; the shared basic-block layer (`exec::blocks`), the profile/trace-growth layer (`exec::trace`) and the static-analysis dataflow framework (`exec::analyze`) built over it; execution fingerprints; the work-stealing `exec::pool::FleetPool`; single-core epoch driver and one shard-round planner with inline and pool-scheduled executors |
//! | [`tricore`] | source ISA, assembler, cycle-accurate golden model (pre-decoded, block-compiled and trace-compiled dispatch cores) |
//! | [`vliw`] | target VLIW ISA, binary container format, simulator (pre-decoded, closure-compiled and trace dispatch cores) |
//! | [`core`] | **the translator** (the paper's contribution) — its CFG is a view over the shared block layer |
//! | [`platform`] | synchronization device, snapshottable (and `Send`) SoC bus + peripherals (including the per-shard CoreLink doorbell endpoint), epoch-barrier shard arbiter with one O(traffic) journaled delta exchange; device images on the shared byte codec (`docs/sharding.md`) |
//! | [`rtlsim`] | event-driven RT-level baseline simulator |
//! | [`sim`] | **the front door**: `SimBuilder`/`Session` over every execution vehicle, single-core or sharded (up to 256 cores, with live shard migration via `park_shard`/`adopt_shard`); versioned portable park/resume bytes; the `sim::analyze` lint surface behind the `cabt-analyze` binary |
//! | [`debug`] | generic lockstep driver, dual-translation debugger + RSP packet layer |
//! | [`workloads`] | the paper's benchmark programs (plus the multi-core `producer_consumer` and the doorbell all-to-all `mailbox`) |
//! | [`fleet`] | **the session service**: work-stealing epoch-scheduler pool multiplexing M sessions × N shards, batch driver, `fleet-server` binary |
//! | [`fuzz`] | **continuous differential fuzzing**: seed-reproducible program generator, full-matrix comparison on per-epoch digest chains, shrinker to minimal reproducers, `cabt-fuzz` binary |
//!
//! Execution comes in four dispatch tiers, all bit-identical and all
//! selected as plain `Backend` data. The retained naive interpreters
//! (`DispatchMode::Naive`/`VliwDispatch::Naive`) re-fetch through an
//! address map per step and exist as differential references. The
//! **pre-decoded engines** decode the whole image once at load into
//! dense tables whose entries carry fall-through and branch-target
//! *indices* plus cached operand sets and timing records — an
//! index-chased dispatch ≥2× faster than the naive cores
//! (`predecode_diff` proves bit-identity). The **block-compiled
//! engines** (`DispatchMode::Compiled`/`VliwDispatch::Compiled`) go
//! the paper's final step: the shared basic-block layer
//! ([`cabt_exec::blocks`]) partitions the dispatch tables — the same
//! partition the translator's CFG is built over — and every block is
//! fused at load into a run of specialized closures (operands, fetch
//! line runs and timing classes captured as constants), dispatched
//! block-at-a-time on the golden model for another ~1.5–2×
//! over the pre-decoded core (`BENCH_fig5.json`), bit-identical at
//! every block boundary (`tests/compiled_diff.rs`). The **trace
//! tier** (`DispatchMode::Trace`/`VliwDispatch::Trace`) adds
//! profile-guided superblocks on top: block-edge counters collected
//! during a warm-up window ([`cabt_exec::trace::TraceConfig`]) pick
//! hot chains, which fuse into one dispatch run per step — closure
//! chains with side-exit guards and in-place loop iteration on the
//! golden model, consecutive packet ranges on the VLIW core — for
//! ≥3× over pre-decoded on the golden model and ≥1.5× on the VLIW
//! core (`fir`/`sieve` rows of `BENCH_fig5.json`), still
//! bit-identical at every stop point.
//!
//! Every vehicle — the golden model, the translated platform, *and* the
//! RTL core — implements [`cabt_exec::ExecutionEngine`], including its
//! trait-level snapshot/restore capability, and is constructed through
//! one typed builder: [`cabt_sim::SimBuilder`] takes a workload (inline
//! assembly, an ELF image, or a named `cabt-workloads` entry) and a
//! [`cabt_sim::Backend`] value, and yields a [`cabt_sim::Session`] with
//! the uniform lifecycle `run / step / stats / snapshot / restore /
//! reset` plus per-epoch/per-stop observers. The platform harness, the
//! debugger and the benchmark tables all drive sessions through the
//! trait, which is where new backends plug in — one more `Backend`
//! variant, not another bespoke constructor.
//!
//! Snapshots are *platform-complete*: session snapshots capture the
//! engine, the synchronization device **and** every SoC peripheral
//! (UART logs, timer epochs, scratch-RAM contents), so
//! `snapshot → run → restore → run` replays device behaviour
//! bit-identically. That state capture is what powers the multi-core
//! backend: `Backend::Sharded` builds N engines (up to 256), each with
//! a *private* clone of the SoC device population; shards run one
//! epoch at a time and reconcile at every epoch barrier, where the
//! `ShardArbiter` exchanges journaled device deltas in fixed shard
//! order — O(traffic), one path for every device — and delivers CoreLink doorbell messages (per-shard MMIO: core-id
//! register plus per-core mailboxes, `docs/sharding.md`). Because
//! shards are isolated inside an epoch, the run is *schedule
//! independent*: every round is decided by one planner
//! ([`cabt_exec::plan_epoch_round`]), and its two executors — the
//! sequential round-robin scheduler ([`cabt_exec::run_epoch_rounds`])
//! and the pooled scheduler (shard rounds as work items on a fixed
//! `FleetPool`, aggregate throughput scaling with host cores — the
//! NoC-scale driver) — produce bit-identical runs: same session
//! lifecycle, merged UART logs, per-shard plus aggregate statistics,
//! live shard migration at
//! barriers ([`cabt_sim::Session::park_shard`]/`adopt_shard`), pinned
//! by `tests/parallel_determinism.rs`:
//!
//! ```
//! use cabt::prelude::*;
//!
//! let w = cabt::workloads::by_name("producer_consumer").unwrap();
//! let mut mc = SimBuilder::workload(&w)
//!     .backend(Backend::sharded(2, Backend::translated(DetailLevel::Static)))
//!     .build()?;
//! mc.run(Limit::Cycles(50_000_000))?;
//! // Core 0 produced into the shared scratch RAM; core 1 consumed and
//! // computed the same checksum.
//! assert_eq!(mc.shard(1).unwrap().read_d(2), w.expected_d2);
//! assert_eq!(mc.sharded_stats().unwrap().uart.len(), 2);
//!
//! // The pooled scheduler (two pool workers) simulates the identical run.
//! let mut par = SimBuilder::workload(&w)
//!     .backend(Backend::sharded_pooled(2, 2, Backend::translated(DetailLevel::Static)))
//!     .build()?;
//! par.run(Limit::Cycles(50_000_000))?;
//! assert_eq!(par.sharded_stats(), mc.sharded_stats());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! # Quickstart
//!
//! ```
//! use cabt::prelude::*;
//!
//! let src = r#"
//!     .text
//! _start:
//!     mov  %d0, 6
//!     mov  %d2, 1
//! fact:
//!     mul  %d2, %d2, %d0
//!     addi %d0, %d0, -1
//!     jnz  %d0, fact
//!     debug
//! "#;
//!
//! // Every production vehicle answers the same way — golden and
//! // translated on the pre-decoded, block-compiled and trace
//! // dispatch cores, plus the RTL baseline:
//! for backend in Backend::all() {
//!     let mut s = SimBuilder::asm(src).backend(backend).build()?;
//!     s.run(Limit::Cycles(1_000_000))?;
//!     assert_eq!(s.read_d(2), 720, "{backend}"); // 6!
//! }
//!
//! // The golden model (the paper's evaluation board) is one backend...
//! let mut board = SimBuilder::asm(src).backend(Backend::golden()).build()?;
//! board.run(Limit::Cycles(1_000_000))?;
//! assert_eq!(board.read_d(2), 720); // 6!
//!
//! // ...and the translated prototyping platform (full dynamic
//! // correction: branch prediction + instruction-cache simulation) is
//! // another — same builder, different `Backend` value.
//! let mut session = SimBuilder::asm(src)
//!     .backend(Backend::translated(DetailLevel::Cache))
//!     .platform(PlatformConfig::default())
//!     .build()?;
//! session.run(Limit::Cycles(1_000_000))?;
//! assert_eq!(session.read_d(2), 720);
//!
//! // The translated program generated the source processor's clock
//! // cycles for the attached SoC hardware, tracking the measured count.
//! let generated = session.platform_stats().expect("translated").total_generated();
//! let measured = board.stats().cycles;
//! let dev = (generated as f64 - measured as f64).abs() / measured as f64;
//! assert!(dev < 0.05, "generated cycles track the measured count");
//!
//! // Sessions snapshot and rewind, whatever the backend.
//! let snap = session.snapshot();
//! session.restore(&snap);
//!
//! // Before anything executes, the static analyzer can vet the
//! // program: dataflow passes over the same basic-block partition the
//! // engines dispatch (`docs/static-analysis.md`). The `cabt-analyze`
//! // binary and the opt-in `SimBuilder::strict_lint` gate sit on this.
//! let report = SimBuilder::asm(src).analyze()?;
//! assert!(report.is_clean());
//! assert_eq!(report.loops.len(), 1); // the `fact` countdown loop
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! # Fleet quickstart
//!
//! Beyond one session at a time, the [`fleet`] crate runs *batches*:
//! every request becomes epoch-sized work items on a fixed
//! work-stealing pool, so M sessions × N shards share a bounded worker
//! population — and each session's simulation stays bit-identical to a
//! dedicated run, whatever the worker count (pinned per epoch by
//! rolling [`cabt_exec::fingerprint_engine`] digest chains). Sessions
//! also **park** to versioned portable bytes mid-run
//! ([`cabt_sim::Session::park`]) and **resume** on any worker or in
//! another process ([`cabt_sim::Session::resume`]) — the
//! `fleet-server` binary serves run/park/resume over a line protocol
//! (`docs/snapshot-format.md` specifies the byte format):
//!
//! ```
//! use cabt::prelude::*;
//!
//! let pool = FleetPool::new(2);
//! let requests: Vec<FleetRequest> = ["gcd", "sieve"]
//!     .iter()
//!     .map(|w| {
//!         FleetRequest::named(*w)
//!             .backend(Backend::sharded(2, Backend::golden()))
//!             .budget(Limit::Cycles(50_000_000))
//!     })
//!     .collect();
//! for result in run_fleet(&pool, &requests) {
//!     let r = result?;
//!     assert!(r.checksum_ok(), "{}", r.workload);
//! }
//!
//! // Park a running session to portable bytes; resume and finish it
//! // anywhere — another thread, another process, another machine.
//! let mut s = SimBuilder::named("gcd").build()?;
//! s.run(Limit::Retirements(100))?;
//! let bytes = s.park()?;
//! let mut resumed = Session::resume(&bytes)?;
//! resumed.run(Limit::Cycles(50_000_000))?;
//! assert_eq!(resumed.read_d(2), cabt::workloads::by_name("gcd").unwrap().expected_d2);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub use cabt_core as core;
pub use cabt_debug as debug;
pub use cabt_exec as exec;
pub use cabt_fleet as fleet;
pub use cabt_fuzz as fuzz;
pub use cabt_isa as isa;
pub use cabt_platform as platform;
pub use cabt_rtlsim as rtlsim;
pub use cabt_sim as sim;
pub use cabt_tricore as tricore;
pub use cabt_vliw as vliw;
pub use cabt_workloads as workloads;

/// The most common imports in one place.
pub mod prelude {
    pub use cabt_core::{DetailLevel, Granularity, Translated, Translator};
    pub use cabt_debug::{DebugSession, StopReason};
    pub use cabt_exec::{ExecutionEngine, Limit, StopCause};
    pub use cabt_fleet::{run_fleet, run_one, FleetPool, FleetRequest, FleetResult};
    pub use cabt_platform::{Platform, PlatformConfig, SyncRate};
    pub use cabt_sim::{Backend, Session, SessionError, ShardSchedule, SimBuilder};
    pub use cabt_tricore::asm::assemble;
    pub use cabt_tricore::sim::Simulator;
    pub use cabt_workloads::Workload;
}
