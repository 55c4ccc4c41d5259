//! `fleet-server` — batch/server front end over the fleet scheduler.
//!
//! Reads one request per line, emits one JSON result line per request.
//! By default it serves stdin/stdout (batch mode: pipe a request file
//! in, collect JSON out); with `--listen ADDR` it serves the same
//! protocol to TCP clients, one connection at a time.
//!
//! ```text
//! fleet-server [--workers N] [--listen ADDR]
//!
//! run <workload> <backend> cycles|retirements <n>
//!     Run the named workload on the backend descriptor (see
//!     `Backend` `Display`/`FromStr`, e.g. `golden:compiled`,
//!     `sharded-4x-pool2:translated:cache`) under the budget.
//!     → {"ok":true,"workload":...,"stats":{...},"uart":"..."}
//! park <workload> <backend> cycles|retirements <n>
//!     Run under the budget, then park: the session is serialized to
//!     the versioned portable format and returned as hex.
//!     → {"ok":true,"parked":"<hex>", ...}
//! resume <hex> cycles|retirements <n>
//!     Rebuild a parked session from hex bytes — from this process or
//!     any other — and continue it under the budget.
//! analyze <workload>
//!     Run the static analyzer over a named workload (or a `bad-*`
//!     known-bad corpus entry) without executing it.
//!     → {"ok":true,"report":{"target":...,"clean":...,"findings":[...]}}
//! workloads | backends
//!     List known workload names / backend descriptors.
//! quit
//!     End the conversation.
//! ```

use cabt_exec::Limit;
use cabt_fleet::{run_one, FleetPool, FleetRequest, FleetResult};
use cabt_sim::{Backend, Session, SessionError};
use std::io::{BufRead, BufReader, Write};

const WORKLOAD_NAMES: [&str; 8] = [
    "gcd",
    "dpcm",
    "fir",
    "ellip",
    "sieve",
    "subband",
    "fibonacci",
    "producer_consumer",
];

fn main() {
    let mut workers = None;
    let mut listen = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--workers" => {
                let n = args
                    .next()
                    .and_then(|v| v.parse::<usize>().ok())
                    .unwrap_or_else(|| die("--workers needs a positive integer"));
                workers = Some(n.max(1));
            }
            "--listen" => {
                listen = Some(args.next().unwrap_or_else(|| die("--listen needs ADDR")));
            }
            "--help" | "-h" => {
                eprintln!("usage: fleet-server [--workers N] [--listen ADDR]");
                eprintln!("protocol: run|park <workload> <backend> cycles|retirements <n>");
                eprintln!("          resume <hex> cycles|retirements <n>");
                eprintln!("          workloads | backends | quit");
                return;
            }
            other => die(&format!("unknown argument `{other}`")),
        }
    }
    let pool = match workers {
        Some(n) => FleetPool::new(n),
        None => FleetPool::with_host_parallelism(),
    };
    match listen {
        None => {
            let stdin = std::io::stdin();
            let mut stdout = std::io::stdout().lock();
            serve(&pool, &mut stdin.lock(), &mut stdout);
        }
        Some(addr) => {
            let listener = std::net::TcpListener::bind(&addr)
                .unwrap_or_else(|e| die(&format!("cannot listen on {addr}: {e}")));
            eprintln!("fleet-server listening on {addr}");
            for conn in listener.incoming() {
                let Ok(conn) = conn else { continue };
                let mut writer = match conn.try_clone() {
                    Ok(w) => w,
                    Err(_) => continue,
                };
                serve(&pool, &mut BufReader::new(conn), &mut writer);
            }
        }
    }
}

fn die(msg: &str) -> ! {
    eprintln!("fleet-server: {msg}");
    std::process::exit(2);
}

/// One conversation: request lines in, JSON result lines out.
fn serve(pool: &FleetPool, input: &mut dyn BufRead, output: &mut dyn Write) {
    for line in input.lines() {
        let Ok(line) = line else { break };
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if line == "quit" {
            break;
        }
        let reply = dispatch(pool, line)
            .unwrap_or_else(|e| format!("{{\"ok\":false,\"error\":{}}}", json_str(&e.to_string())));
        if writeln!(output, "{reply}")
            .and_then(|()| output.flush())
            .is_err()
        {
            break;
        }
    }
}

fn dispatch(pool: &FleetPool, line: &str) -> Result<String, SessionError> {
    let mut words = line.split_whitespace();
    let verb = words.next().unwrap_or_default();
    match verb {
        "workloads" => Ok(format!(
            "{{\"ok\":true,\"workloads\":[{}]}}",
            WORKLOAD_NAMES
                .iter()
                .map(|w| json_str(w))
                .collect::<Vec<_>>()
                .join(",")
        )),
        "backends" => Ok(format!(
            "{{\"ok\":true,\"backends\":[{}]}}",
            Backend::all()
                .iter()
                .map(|b| json_str(&b.to_string()))
                .collect::<Vec<_>>()
                .join(",")
        )),
        "run" => {
            let (workload, backend, budget) = parse_run(&mut words)?;
            let result = run_one(
                pool,
                FleetRequest::named(workload)
                    .backend(backend)
                    .budget(budget),
            )?;
            Ok(result_json(&result, None))
        }
        "park" => {
            let (workload, backend, budget) = parse_run(&mut words)?;
            // Parking needs the session object itself, so the budgeted
            // prefix runs as a dedicated session rather than a fleet
            // unit; resume continues it anywhere.
            let mut session = cabt_sim::SimBuilder::named(&workload)
                .backend(backend)
                .build()?;
            session.run(budget)?;
            let parked = session.park()?;
            Ok(format!(
                "{{\"ok\":true,\"workload\":{},\"backend\":{},\"parked\":{}}}",
                json_str(&workload),
                json_str(&backend.to_string()),
                json_str(&hex_encode(&parked)),
            ))
        }
        "analyze" => {
            let workload = words
                .next()
                .ok_or_else(|| protocol("analyze needs <workload>"))?;
            // Known-bad corpus entries are addressable too, so a client
            // can exercise the expected-findings path over the wire.
            let report = if workload.starts_with("bad-") {
                cabt_sim::analyze::analyze_known_bad(workload)?
            } else {
                cabt_sim::analyze::analyze_named(workload)?
            };
            Ok(format!(
                "{{\"ok\":true,\"report\":{}}}",
                cabt_sim::analyze::report_json(workload, &report)
            ))
        }
        "resume" => {
            let hex = words
                .next()
                .ok_or_else(|| protocol("resume needs <hex> bytes"))?;
            let budget = parse_budget(&mut words)?;
            let bytes = hex_decode(hex).ok_or_else(|| protocol("bad hex in resume"))?;
            let mut session = Session::resume(&bytes)?;
            let stop = session.run(budget)?;
            let stats = cabt_exec::ExecutionEngine::engine_stats(&session);
            Ok(format!(
                "{{\"ok\":true,\"backend\":{},\"stop\":{},\"d2\":{},\"stats\":{}}}",
                json_str(&session.backend().to_string()),
                json_str(stop_name(stop)),
                session.read_d(2),
                stats_json(&stats),
            ))
        }
        other => Err(protocol(&format!("unknown verb `{other}`"))),
    }
}

fn parse_run(
    words: &mut std::str::SplitWhitespace<'_>,
) -> Result<(String, Backend, Limit), SessionError> {
    let workload = words
        .next()
        .ok_or_else(|| protocol("run needs <workload>"))?
        .to_string();
    let backend: Backend = words
        .next()
        .ok_or_else(|| protocol("run needs <backend>"))?
        .parse()?;
    let budget = parse_budget(words)?;
    Ok((workload, backend, budget))
}

fn parse_budget(words: &mut std::str::SplitWhitespace<'_>) -> Result<Limit, SessionError> {
    let kind = words
        .next()
        .ok_or_else(|| protocol("budget needs cycles|retirements <n>"))?;
    let n: u64 = words
        .next()
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| protocol("budget needs a numeric bound"))?;
    match kind {
        "cycles" => Ok(Limit::Cycles(n)),
        "retirements" => Ok(Limit::Retirements(n)),
        other => Err(protocol(&format!("unknown budget kind `{other}`"))),
    }
}

fn protocol(msg: &str) -> SessionError {
    SessionError::ParseBackend(format!("protocol: {msg}"))
}

fn result_json(r: &FleetResult, parked_hex: Option<&str>) -> String {
    let uart_text: String = r
        .uart
        .iter()
        .map(|&(_, b)| {
            if b.is_ascii_graphic() || b == b' ' {
                b as char
            } else {
                '.'
            }
        })
        .collect();
    let mut out = format!(
        "{{\"ok\":true,\"workload\":{},\"backend\":{},\"stop\":{},\"checksum_ok\":{},\"d2\":{},\"epochs\":{},\"digest\":\"{:016x}\",\"epoch_chain\":\"{:016x}\",\"stats\":{},\"uart\":{}",
        json_str(&r.workload),
        json_str(&r.backend.to_string()),
        json_str(stop_name(r.stop)),
        r.checksum_ok(),
        r.d2,
        r.epochs,
        r.digest,
        r.epoch_chain,
        stats_json(&r.stats),
        json_str(&uart_text),
    );
    if let Some(hex) = parked_hex {
        out.push_str(",\"parked\":");
        out.push_str(&json_str(hex));
    }
    out.push('}');
    out
}

fn stats_json(s: &cabt_exec::EngineStats) -> String {
    format!(
        "{{\"cycles\":{},\"retired\":{},\"stall_cycles\":{}}}",
        s.cycles, s.retired, s.stall_cycles
    )
}

fn stop_name(stop: cabt_exec::StopCause) -> &'static str {
    match stop {
        cabt_exec::StopCause::Halted => "halted",
        cabt_exec::StopCause::LimitReached => "limit-reached",
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn hex_encode(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        out.push_str(&format!("{b:02x}"));
    }
    out
}

fn hex_decode(hex: &str) -> Option<Vec<u8>> {
    if !hex.len().is_multiple_of(2) {
        return None;
    }
    (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).ok())
        .collect()
}
