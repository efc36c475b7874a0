//! `e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints a human-readable table followed, as the
//! last line of standard output, by one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones (an untraced run); with `--trace 1`
//! they are the per-layer ones from a traced run, and the raw spans go
//! to `e2ebench/out/<workload>-<seed>.trace.json` (Chrome trace-event
//! format, open in Perfetto). Exits 1 on any correctness violation, 2
//! on a usage or host-fit error and 3 when no result came within
//! [`WATCHDOG_S`] seconds.

use dpu_e2ebench::ledger::{Build, Ledger};
use dpu_e2ebench::{per_layer, workloads, Outcome, RunCfg, E2E};
use std::process::ExitCode;

/// Wall-clock limit of one invocation.
const WATCHDOG_S: u64 = 170;

#[global_allocator]
static ALLOC: dpu_e2ebench::alloc::Counting = dpu_e2ebench::alloc::Counting;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse() -> Result<Args, String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        let i = raw.iter().position(|a| a == flag).ok_or(format!("missing {flag}"))?;
        raw.get(i + 1).map(String::as_str).ok_or(format!("{flag} needs a value"))
    };
    let num = |flag: &str| -> Result<f64, String> {
        get(flag)?.parse::<f64>().map_err(|e| format!("{flag}: {e}"))
    };
    let seconds = num("--seconds")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(Args {
        workload: get("--workload")?.to_string(),
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got {other}")),
        },
    })
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn print_result(out: &Outcome, metrics: &[(String, &str, f64)]) -> bool {
    let finite = metrics.iter().all(|(_, _, v)| v.is_finite());
    let correct = out.violations.is_empty() && finite;
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, u, v)| format!("\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}", json_num(*v)))
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        body.join(", ")
    );
    correct
}

fn main() -> ExitCode {
    if cfg!(debug_assertions) {
        eprintln!("e2ebench: refusing a debug build; build with --release (thin LTO)");
        return ExitCode::from(2);
    }
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}\nusage: e2ebench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                workloads::NAMES.join("|"));
            return ExitCode::from(2);
        }
    };
    // A host that stops answering (a retransmission storm can starve a
    // live host's control path) must not hang the caller: give up with
    // a failure well inside the three minutes a run may take.
    std::thread::spawn(|| {
        std::thread::sleep(std::time::Duration::from_secs(WATCHDOG_S));
        eprintln!("e2ebench: no result after {WATCHDOG_S} s; giving up");
        std::process::exit(3);
    });
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let cfg = RunCfg { seed: args.seed, seconds: args.seconds, nproc };
    println!(
        "# workload={} seed={} seconds={} nproc={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        nproc,
        u8::from(args.trace)
    );

    let plain = match workloads::run(&args.workload, &cfg, &Build::Plain) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    let e2e: Vec<(String, &str, f64)> =
        E2E.iter().zip(&plain.e2e).map(|((n, u), v)| (n.to_string(), *u, *v)).collect();
    for (n, u, v) in e2e.iter().chain(&plain.info) {
        println!("{n:<24} {v:>16.4} {u}");
    }
    println!("{:<24} {:>16} {:>16}", "attempted / failed", plain.attempted, plain.failed);

    let ok = if !args.trace {
        for v in &plain.violations {
            eprintln!("VIOLATION: {v}");
        }
        print_result(&plain, &e2e)
    } else {
        dpu_e2ebench::alloc::enable();
        let ledger = Ledger::new();
        let mut traced = match workloads::run(&args.workload, &cfg, &Build::Traced(ledger.clone()))
        {
            Ok(o) => o,
            Err(e) => {
                eprintln!("e2ebench: {e}");
                return ExitCode::from(2);
            }
        };
        if plain.fingerprint != traced.fingerprint {
            traced.violations.push(format!(
                "tracing changed the simulation: {:?} untraced vs {:?} traced",
                plain.fingerprint, traced.fingerprint
            ));
        }
        traced.violations.extend(plain.violations.iter().cloned());
        for v in &traced.violations {
            eprintln!("VIOLATION: {v}");
        }
        ledger.print_table(&traced.raw.window_kinds, traced.raw.ops);
        let layers = per_layer(&plain, &traced, &ledger, args.workload.starts_with("sim_"));
        for (n, u, v) in &layers {
            println!("{n:<28} {v:>16.4} {u}");
        }
        let path = std::path::Path::new("e2ebench/out")
            .join(format!("{}-{}.trace.json", args.workload, args.seed));
        match ledger.write_chrome_trace(&path) {
            Ok(()) => println!("# trace written to {}", path.display()),
            Err(e) => eprintln!("e2ebench: could not write {}: {e}", path.display()),
        }
        print_result(&traced, &layers)
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
