//! CLI of the end-to-end benchmark.
//!
//! ```text
//! cabt-e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! cabt-e2ebench --smoke [--seed <n>]
//! ```
//!
//! The last line of standard output is the result object
//! (`correct`, `attempted`, `failed`, `metrics`); the human-readable
//! report goes to standard error. The full record (seed, host cores,
//! repeats, quartiles, git revision) and, for traced runs, the spans
//! are written under `out/` in the benchmark's directory.

use cabt_e2ebench::{bench_dir, run, smoke, Config, Scale, Workload};
use std::process::ExitCode;

const USAGE: &str = "usage: cabt-e2ebench --workload <paper_suite|fleet_burst|noc_shared|noc_doorbell> \
                     --seed <n> --seconds <s> --trace <0|1>\n       cabt-e2ebench --smoke [--seed <n>]";

enum Mode {
    Run(Config),
    Smoke(u64),
}

fn parse(args: &[String]) -> Result<Mode, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut smoke = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    if smoke {
        return Ok(Mode::Smoke(seed.unwrap_or(1)));
    }
    Ok(Mode::Run(Config {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        scale: Scale::Full,
    }))
}

/// Writes a file under `out/`, reporting (not failing on) I/O errors.
fn write_out(name: &str, contents: &str) {
    let dir = bench_dir().join("out");
    let written =
        std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(dir.join(name), contents));
    if let Err(e) = written {
        eprintln!("warning: cannot write out/{name}: {e}");
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mode = match parse(&args) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match mode {
        Mode::Run(cfg) => {
            let outcome = run(&cfg);
            eprint!("{}", outcome.report);
            let stem = format!(
                "{}-seed{}-trace{}",
                cfg.workload.name(),
                cfg.seed,
                u8::from(cfg.trace)
            );
            write_out(&format!("{stem}.json"), &outcome.record);
            if cfg.trace {
                write_out(&format!("{stem}.spans.jsonl"), &outcome.spans_jsonl);
            }
            println!("{}", outcome.result_line());
            ExitCode::SUCCESS
        }
        Mode::Smoke(seed) => {
            let mut ok = true;
            for (w, outcome) in smoke(seed) {
                eprint!("{}", outcome.report);
                println!("{} {}", w.name(), outcome.result_line());
                ok &= outcome.correct;
            }
            if ok {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
    }
}
