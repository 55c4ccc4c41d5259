//! Bench behind Fig. 5: host cost of running each simulator
//! configuration on a reduced workload (the figure itself is printed by
//! `--bin fig5` from simulated clock counts), plus the dispatch
//! comparison of the naive versus pre-decoded engine cores, the
//! sharded-throughput scaling rows up to the 256-core NoC fabric, and
//! the epoch-barrier cost table (delta barrier ns/epoch), emitted as
//! `BENCH_fig5.json` so the repo's performance trajectory accumulates.
//!
//! Run via `cargo bench -p cabt-bench --bench fig5_speed`; the JSON
//! lands in `BENCH_fig5.json` (override with `BENCH_FIG5_OUT`).

use cabt_bench::{bench_seconds, compare_dispatch, human_time, sharded_throughput};
use cabt_core::DetailLevel;
use cabt_exec::trace::TraceConfig;
use cabt_sim::ShardSchedule;
use std::hint::black_box;

fn main() {
    // BENCH_SMOKE=1 (scripts/bench.sh --smoke): tiny budgets, one
    // shard, no JSON overwrite — a CI keep-alive for the bench paths.
    let smoke = std::env::var("BENCH_SMOKE").is_ok();
    let iters: u32 = if smoke { 1 } else { 10 };

    let w = cabt_workloads::gcd(4, 1);
    println!(
        "fig5_speed — host seconds per configuration run ({}):",
        w.name
    );
    let s = bench_seconds(iters, || {
        black_box(cabt_bench::run_golden(&w));
    });
    println!("  {:<26} {}", "golden_gcd", human_time(s));
    for level in [
        DetailLevel::Functional,
        DetailLevel::Static,
        DetailLevel::Cache,
    ] {
        let s = bench_seconds(iters, || {
            black_box(cabt_bench::run_translated(&w, level));
        });
        println!(
            "  {:<26} {}",
            format!("translated_gcd_{level}"),
            human_time(s)
        );
    }

    // Dispatch-core comparison: the decode-once, block-compilation and
    // trace-tier refactors' headline (naive seed vs pre-decoded table
    // vs fused closure blocks vs profile-guided superblock traces).
    // Workloads are sized so each timed run lasts milliseconds — small
    // programs drown in timer noise. Smoke runs shrink the workloads
    // but keep all three so the trace tier is exercised everywhere; an
    // eager config makes traces form inside the tiny budgets.
    println!("\ndispatch throughput (naive vs pre-decoded vs compiled vs trace):");
    let rows = if smoke {
        let eager = TraceConfig {
            warmup: 1_000_000,
            hot_threshold: 4,
            ..TraceConfig::default()
        };
        vec![
            compare_dispatch(
                &cabt_workloads::gcd(8, 0xcab7),
                DetailLevel::Static,
                1,
                eager,
            ),
            compare_dispatch(
                &cabt_workloads::fir(8, 64, 0xcab7),
                DetailLevel::Static,
                1,
                eager,
            ),
            compare_dispatch(&cabt_workloads::sieve(200), DetailLevel::Cache, 1, eager),
        ]
    } else {
        let cfg = TraceConfig::default();
        vec![
            compare_dispatch(
                &cabt_workloads::gcd(256, 0xcab7),
                DetailLevel::Static,
                10,
                cfg,
            ),
            compare_dispatch(
                &cabt_workloads::fir(16, 2000, 0xcab7),
                DetailLevel::Static,
                10,
                cfg,
            ),
            compare_dispatch(&cabt_workloads::sieve(2000), DetailLevel::Cache, 10, cfg),
        ]
    };
    for r in &rows {
        println!(
            "  {:<8} level {:<14} golden {:>7.2} -> {:>7.2} -> {:>7.2} -> {:>7.2} MIPS ({:.2}x pre, {:.2}x compiled, {:.2}x trace)   vliw {:>7.2} -> {:>7.2} -> {:>7.2} -> {:>7.2} Mpkt/s ({:.2}x pre, {:.2}x compiled, {:.2}x trace)",
            r.workload,
            r.level.to_string(),
            r.golden_naive_mips,
            r.golden_predecoded_mips,
            r.golden_compiled_mips,
            r.golden_trace_mips,
            r.golden_speedup(),
            r.golden_compiled_speedup(),
            r.golden_trace_speedup(),
            r.vliw_naive_mpps,
            r.vliw_predecoded_mpps,
            r.vliw_compiled_mpps,
            r.vliw_trace_mpps,
            r.vliw_speedup(),
            r.vliw_compiled_speedup(),
            r.vliw_trace_speedup(),
        );
        println!(
            "  {:<8}   trace stats: golden {} traces, {:.1} blocks/trace, {:.0}% retired in traces   vliw {} traces, {:.1} blocks/trace, {:.0}% retired in traces",
            "",
            r.golden_trace.traces,
            r.golden_trace.avg_blocks,
            r.golden_trace.retired_in_traces * 100.0,
            r.vliw_trace.traces,
            r.vliw_trace.avg_blocks,
            r.vliw_trace.retired_in_traces * 100.0,
        );
        // The trace tier must actually engage on every measured
        // workload — a formation regression fails the bench (and the
        // CI smoke run) rather than silently benchmarking block
        // dispatch twice.
        assert!(
            r.golden_trace.traces > 0 && r.vliw_trace.traces > 0,
            "{}: trace tier formed no traces",
            r.workload
        );
    }

    // Static trace prediction vs the dynamic profile: the analyzer's
    // predicted-hot chains against the chains the tier actually fused,
    // plus the static side-exit verification over every fused chain
    // (must report nothing).
    println!("\ntrace prediction (static analyzer vs dynamic profile):");
    let eager = TraceConfig {
        warmup: 1_000_000,
        hot_threshold: 4,
        ..TraceConfig::default()
    };
    let prediction: Vec<_> = [
        cabt_workloads::gcd(16, 0xcab7),
        cabt_workloads::fir(16, 300, 0xcab7),
        cabt_workloads::sieve(400),
    ]
    .iter()
    .map(|w| cabt_bench::trace_prediction(w, eager))
    .collect();
    for r in &prediction {
        println!(
            "  {:<8} predicted {:>2} chains, formed {:>2}, heads hit {:>2}, exact {:>2}, exit findings {}",
            r.workload, r.predicted, r.formed, r.heads_hit, r.exact_matches, r.exit_findings,
        );
        assert_eq!(
            r.exit_findings, 0,
            "{}: a fused trace failed static leader verification",
            r.workload
        );
        assert!(
            r.heads_hit > 0,
            "{}: no statically predicted head turned hot",
            r.workload
        );
    }

    // Sharded throughput: the producer/consumer workload from 1 up to
    // the NoC-scale fabric widths (8/64/256), paired rows per core
    // count — sequential round-robin versus the pooled schedule (epoch
    // rounds as work items on a fixed fleet pool at host
    // parallelism). Both simulate the same bit-identical run.
    println!("\nsharded throughput (aggregate across shards, sequential vs pooled):");
    let mc = cabt_workloads::producer_consumer(160, 0xcab7);
    let core_counts: &[u16] = if smoke {
        &[1, 2]
    } else {
        &[1, 2, 4, 8, 64, 256]
    };
    let mut sharded = Vec::new();
    for &cores in core_counts {
        // The widest fabrics simulate 256x the work per run; fewer
        // repeats keep the rows affordable.
        let row_iters = if cores >= 64 { iters.min(2) } else { iters };
        let seq = sharded_throughput(&mc, cores, row_iters, ShardSchedule::Sequential);
        let con = sharded_throughput(&mc, cores, row_iters, ShardSchedule::Pooled(0));
        let speedup = con.aggregate_mips / seq.aggregate_mips;
        println!(
            "  {:<18} cores {:>3}  {:>9} retired/run  seq {:>8.2} MIPS  {} {:>8.2} MIPS  ({:.2}x, {} epochs)",
            seq.workload,
            cores,
            seq.aggregate_retired,
            seq.aggregate_mips,
            con.schedule_tag(),
            con.aggregate_mips,
            speedup,
            seq.epochs,
        );
        assert_eq!(
            seq.aggregate_retired, con.aggregate_retired,
            "schedulers must simulate the identical run"
        );
        sharded.push(seq);
        sharded.push(con);
    }

    // Epoch-barrier cost at NoC scale: nanoseconds per exchange on the
    // O(traffic) delta barrier, measured on the bare device fabric (no
    // engines) under producer/consumer-shaped traffic. The column must
    // grow sublinearly in the fabric width.
    println!("\nepoch-barrier cost (delta barrier, ns/epoch):");
    let widths: &[u16] = if smoke { &[8] } else { &[8, 64, 256] };
    let barrier_epochs = if smoke { 20 } else { 200 };
    let barrier: Vec<_> = widths
        .iter()
        .map(|&n| cabt_bench::barrier_cost(n, 160, barrier_epochs))
        .collect();
    for b in &barrier {
        println!(
            "  cores {:>3}  delta {:>10.0} ns/epoch",
            b.cores, b.delta_ns_per_epoch,
        );
    }

    // Fleet throughput: M concurrent sessions as epoch-sized work items
    // over the pooled scheduler, paired rows per concurrency level — a
    // single pool worker versus a multi-worker pool. Both schedule the
    // *identical* batch of simulations (the folded per-session epoch
    // digest chains are asserted equal); on a single-CPU host the pool
    // rows track the serial rows, and the pairing shows scheduling
    // overhead rather than parallel speedup.
    println!("\nfleet throughput (pooled epoch scheduler, 1 worker vs 4):");
    let session_counts: &[usize] = if smoke { &[1, 10] } else { &[1, 10, 100, 1000] };
    let mut fleet = Vec::new();
    for &sessions in session_counts {
        // Large batches amortize their own timing noise; keep the
        // repeat count down so the 1000-session row stays affordable.
        let fleet_iters = if sessions <= 10 { iters } else { 1 };
        let serial = cabt_bench::fleet_throughput("gcd", sessions, 1, fleet_iters);
        let pooled = cabt_bench::fleet_throughput("gcd", sessions, 4, fleet_iters);
        assert_eq!(
            serial.total_retired, pooled.total_retired,
            "scheduler configurations must retire identical totals"
        );
        assert_eq!(
            serial.batch_digest, pooled.batch_digest,
            "scheduler configurations must simulate the identical batch"
        );
        println!(
            "  {:<6} sessions {:>5}  {:>9} retired/batch  1w {:>8.1} sess/s {:>8.2} MIPS   4w {:>8.1} sess/s {:>8.2} MIPS",
            serial.workload,
            sessions,
            serial.total_retired,
            serial.sessions_per_sec,
            serial.aggregate_mips,
            pooled.sessions_per_sec,
            pooled.aggregate_mips,
        );
        fleet.push(serial);
        fleet.push(pooled);
    }

    let json = format!(
        "{{\"bench\":\"fig5_speed\",\"rows\":[{}],\"prediction\":[{}],\"sharded\":[{}],\"barrier\":[{}],\"fleet\":[{}]}}\n",
        rows.iter()
            .map(cabt_bench::DispatchComparison::to_json)
            .collect::<Vec<_>>()
            .join(","),
        prediction
            .iter()
            .map(cabt_bench::TracePredictionRow::to_json)
            .collect::<Vec<_>>()
            .join(","),
        sharded
            .iter()
            .map(cabt_bench::ShardedThroughput::to_json)
            .collect::<Vec<_>>()
            .join(","),
        barrier
            .iter()
            .map(cabt_bench::BarrierCost::to_json)
            .collect::<Vec<_>>()
            .join(","),
        fleet
            .iter()
            .map(cabt_bench::FleetThroughput::to_json)
            .collect::<Vec<_>>()
            .join(","),
    );
    // Default to the workspace root (cargo bench runs with the package
    // directory as CWD).
    let path = std::env::var("BENCH_FIG5_OUT")
        .unwrap_or_else(|_| format!("{}/../../BENCH_fig5.json", env!("CARGO_MANIFEST_DIR")));
    std::fs::write(&path, &json).expect("write BENCH_fig5.json");
    println!("\nwrote {path}");
}
