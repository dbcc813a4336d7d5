//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a context line (host cores, commit, seed, sample counts), then,
//! as the last line, the result object: `correct`, `attempted`, `failed`
//! and the metrics of the run's mode. Any harness failure exits non-zero
//! without a result line.

use perfbench::{Options, Scale, Workload, DEFAULT_SEED, E2E_METRICS, LAYER_METRICS};
use std::process::ExitCode;
use std::time::Duration;

#[global_allocator]
static ALLOC: perfbench::util::CountingAlloc = perfbench::util::CountingAlloc;

fn parse(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        workload: Workload::EvalFull,
        seed: DEFAULT_SEED,
        window: Duration::from_secs(10),
        trace: false,
        scale: Scale::full(),
    };
    let mut workload = None;
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let value = iter.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(value)
                        .ok_or_else(|| format!("unknown workload '{value}'"))?,
                );
            }
            "--seed" => {
                options.seed = value.parse().map_err(|e| format!("--seed {value}: {e}"))?;
            }
            "--seconds" => {
                let seconds: f64 = value
                    .parse()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(seconds > 0.0 && seconds.is_finite()) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                options.window = Duration::from_secs_f64(seconds);
            }
            "--trace" => {
                options.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                };
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    options.workload = workload.ok_or("--workload is required")?;
    Ok(options)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse(&args) {
        Ok(options) => options,
        Err(error) => {
            eprintln!("perfbench: {error}");
            eprintln!(
                "usage: perfbench --workload <eval_full|tier_hot|tier_warm|tier_cold> [--seed N] [--seconds S] [--trace 0|1]"
            );
            return ExitCode::from(2);
        }
    };
    let names = if options.trace {
        LAYER_METRICS
    } else {
        E2E_METRICS
    };
    let line = perfbench::run(&options).and_then(|outcome| {
        let result = outcome.result_line(names)?;
        Ok((outcome.context_line(&options), result))
    });
    match line {
        Ok((context, result)) => {
            println!("{context}");
            println!("{result}");
            ExitCode::SUCCESS
        }
        Err(error) => {
            eprintln!("perfbench: {} failed: {error}", options.workload.name());
            ExitCode::FAILURE
        }
    }
}
