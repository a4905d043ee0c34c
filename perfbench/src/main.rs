//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <hot-get|churn|scheme-sweep> --seed <n> --seconds <s>
//!           --trace <0|1> [--reference <value>] [--result <file>]
//! ```
//!
//! Untraced (`--trace 0`), a run prints the end-to-end metrics; traced,
//! the per-layer ones. A traced run measures its overhead against
//! `--reference`: an untraced run's `get_p50_us` (serving workloads) or
//! `capacity_rps` (the sweep). The last line of standard output is the result:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! With `--result`, the same line is also written to that file, so a
//! caller that has to kill the process after it still has it. See
//! README.md.

mod layers;
mod loadgen;
mod schemes;
mod serve;
mod stats;
mod sweep;
mod timed;

use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    reference: Option<f64>,
    result: Option<String>,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 10.0, false);
    let (mut reference, mut result) = (None, None);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => trace = value()? == "1",
            "--reference" => {
                reference = Some(value()?.parse().map_err(|e| format!("--reference: {e}"))?)
            }
            "--result" => result = Some(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err(format!("--seconds {seconds} is outside (0, 60]"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        reference,
        result,
    })
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let context = match args.workload.as_str() {
        "hot-get" | "churn" => {
            let spec = if args.workload == "hot-get" {
                serve::hot_get()
            } else {
                serve::churn()
            };
            let [steady, overload] = serve::phases(&spec, args.seconds);
            format!(
                "\"scheme\": \"{}\", \"keys\": {}, \"value_bytes\": {}, \"mix\": [{}, {}, {:.2}], \
                 \"zipf\": {}, \"phases\": [{{\"rate\": {}, \"secs\": {}}}, {{\"rate\": {}, \"secs\": {}}}], \
                 \"dram_budget\": {:?}, \"server_config\": \"{:?}\"",
                spec.scheme.label(),
                spec.mix.keys,
                loadgen::VALUE_LEN,
                spec.mix.get,
                spec.mix.set,
                1.0 - spec.mix.get - spec.mix.set,
                spec.mix.zipf,
                steady.rate,
                steady.secs,
                overload.rate,
                overload.secs,
                spec.profile.dram_budget,
                serve::server_config(),
            )
        }
        "scheme-sweep" => format!(
            "\"keys\": {}, \"warmup_ops\": {}, \"ops_per_scheme\": {}",
            sweep::KEYS,
            sweep::WARMUP_OPS,
            (args.seconds * sweep::OPS_PER_SECOND as f64) as u64
        ),
        other => {
            eprintln!("perfbench: unknown workload {other} (hot-get, churn, scheme-sweep)");
            return ExitCode::from(2);
        }
    };
    println!(
        "# context: {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {nproc}, {context}}}",
        args.workload, args.seed, args.seconds, args.trace
    );

    let mut outcome = match args.workload.as_str() {
        "hot-get" => serve::run(
            &serve::hot_get(),
            args.seed,
            args.seconds,
            args.trace,
            args.reference,
        ),
        "churn" => serve::run(
            &serve::churn(),
            args.seed,
            args.seconds,
            args.trace,
            args.reference,
        ),
        _ => sweep::run(args.seed, args.seconds, args.trace, args.reference),
    };
    if args.trace {
        outcome.metrics = layers::complete(std::mem::take(&mut outcome.metrics));
    }
    let line = outcome.result_line();
    if let Some(path) = &args.result {
        if let Err(e) = std::fs::write(path, format!("{line}\n")) {
            eprintln!("perfbench: cannot write {path}: {e}");
        }
    }
    for p in &outcome.problems {
        println!("# incorrect: {p}");
    }
    println!("{line}");
    // Exit without running destructors: a wedged server left running
    // must not hold the process open.
    std::process::exit(if outcome.correct { 0 } else { 1 });
}
