//! Smoke mode: every workload at tiny size with tracing on must pass
//! its correctness gate, the traced-vs-untraced machine check and the
//! layer-coverage check, and report every per-layer metric.

use cabt_e2ebench::{smoke, Outcome, END_TO_END, PER_LAYER};

fn metric(o: &Outcome, name: &str) -> f64 {
    o.metrics
        .iter()
        .find(|(n, _, _)| *n == name)
        .unwrap_or_else(|| panic!("metric {name} missing"))
        .1
}

#[test]
fn every_workload_passes_at_smoke_size() {
    for (w, o) in smoke(3) {
        assert!(o.correct, "{}: {:?}\n{}", w.name(), o.errors, o.report);
        assert_eq!(o.failed, 0, "{}", w.name());
        assert!(o.attempted > 0, "{}", w.name());
        let names: Vec<&str> = o.metrics.iter().map(|m| m.0).collect();
        let expected: Vec<&str> = PER_LAYER.iter().map(|d| d.name).collect();
        assert_eq!(names, expected, "{}", w.name());
        assert!(metric(&o, "unattributed.share") <= 0.10, "{}", w.name());
        assert!(!o.spans_jsonl.is_empty(), "{}", w.name());
        let line = o.result_line();
        assert!(line.starts_with("{\"correct\":true,"), "{line}");
    }
}

#[test]
fn each_workload_exercises_its_layers() {
    let outcomes = smoke(4);
    let get = |w: &str, m: &str| {
        let (_, o) = outcomes
            .iter()
            .find(|(x, _)| x.name() == w)
            .expect("workload");
        metric(o, m)
    };
    for m in [
        "asm.us",
        "lint.us",
        "translate.us",
        "predecode.us",
        "compile.us",
    ] {
        assert!(get("paper_suite", m) > 0.0, "paper_suite {m}");
    }
    assert!(get("paper_suite", "golden.steady_mips") > 0.0);
    assert!(get("paper_suite", "cycle_dev_pct") > 0.0);
    assert!(get("fleet_burst", "fleet.build_us") > 0.0);
    assert!(get("fleet_burst", "fleet.epochs") > 0.0);
    for w in ["noc_shared", "noc_doorbell"] {
        assert!(get(w, "epochs") >= 2.0, "{w} crosses barriers");
        assert!(get(w, "barrier.us_per_epoch") > 0.0, "{w}");
        assert!(get(w, "round.us_per_epoch") > 0.0, "{w}");
    }
    assert!(get("noc_shared", "migrate.bytes") > 0.0);
    assert_eq!(get("noc_doorbell", "migrate.bytes"), 0.0);
}

#[test]
fn deterministic_counters_repeat_across_runs() {
    let a = smoke(5);
    let b = smoke(5);
    for ((w, x), (_, y)) in a.iter().zip(&b) {
        // Per-op counters that do not depend on which ops a
        // time-bounded run reached.
        for m in [
            "epochs",
            "bus.transactions",
            "cycle_dev_pct",
            "fleet.epochs",
        ] {
            assert_eq!(
                metric(x, m).to_bits(),
                metric(y, m).to_bits(),
                "{} {m}",
                w.name()
            );
        }
        let op0 = |o: &Outcome| {
            let i = o.record.find("\"op0\":").expect("op0 in record");
            o.record[i..]
                .split('}')
                .next()
                .expect("op0 object")
                .to_string()
        };
        assert_eq!(op0(x), op0(y), "{}", w.name());
    }
}

#[test]
fn benchmark_json_lists_every_metric_with_its_unit() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let workloads = cabt_e2ebench::Workload::ALL
        .iter()
        .filter(|w| json.contains(&format!("\"name\": \"{}\"", w.name())))
        .count();
    assert!(
        workloads >= 2,
        "BENCHMARK.json lists at least two workloads"
    );
    let listed = json.matches("\"name\":").count();
    assert_eq!(listed, workloads + END_TO_END.len() + PER_LAYER.len());
    for d in END_TO_END.iter().chain(PER_LAYER) {
        let entry = format!("\"name\": \"{}\", \"unit\": \"{}\"", d.name, d.unit);
        assert!(json.contains(&entry), "{entry}");
    }
}
