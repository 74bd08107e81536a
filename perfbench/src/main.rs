//! End-to-end and per-layer benchmark of the AVOC voter service.
//!
//! ```text
//! avoc-perfbench --workload <fleet|durable_history> --seed N --seconds S --trace 0|1
//! avoc-perfbench daemon --shards N --reactors R --max-sessions M [--state-dir D]
//! ```
//!
//! The first form runs one workload against a daemon child process (the
//! second form) over loopback TCP and prints, as its last stdout line, one
//! JSON object: `correct`, `attempted`, `failed` and `metrics` — the
//! end-to-end metrics with `--trace 0`, the per-layer ledger with
//! `--trace 1`. Lines before it give the environment record, every metric
//! by name and unit, and the checks that ran.

mod alloc;
mod daemon;
mod layers;
mod oracle;
mod run;
mod stats;
mod trace;
mod wire;
mod workload;

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

fn usage(msg: &str) -> ! {
    eprintln!("{msg}");
    eprintln!(
        "usage: avoc-perfbench --workload <{}> --seed N --seconds S --trace 0|1",
        workload::WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        format!("{:?}", f64::MAX)
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("daemon") {
        daemon::daemon_main(&argv[1..]);
    }
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut i = 0;
    while i < argv.len() {
        let value = argv.get(i + 1).map(String::as_str).unwrap_or("");
        match argv[i].as_str() {
            "--workload" => {
                workload = Some(
                    workload::by_name(value)
                        .unwrap_or_else(|| usage(&format!("unknown workload `{value}`"))),
                )
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .unwrap_or_else(|_| usage("--seed takes an integer")),
                )
            }
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .unwrap_or_else(|_| usage("--seconds takes a number")),
                )
            }
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                })
            }
            other => usage(&format!("unknown argument `{other}`")),
        }
        i += 2;
    }
    let args = run::Args {
        workload: workload.unwrap_or_else(|| usage("--workload is required")),
        seed: seed.unwrap_or_else(|| usage("--seed is required")),
        seconds: seconds.unwrap_or(10.0).max(1.0),
        trace: trace.unwrap_or(false),
    };
    let result = match run::run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("benchmark run failed: {e}");
            std::process::exit(1);
        }
    };
    let env: Vec<String> = result
        .env
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    println!("env {{{}}}", env.join(", "));
    for note in &result.notes {
        println!("note {note}");
    }
    for p in &result.problems {
        println!("CHECK FAILED {p}");
    }
    for (name, unit, value) in &result.metrics {
        println!("metric {name} = {value} {unit}");
    }
    let metrics: Vec<String> = result
        .metrics
        .iter()
        .map(|(name, unit, value)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        result.correct,
        result.attempted,
        result.failed,
        metrics.join(", ")
    );
}
