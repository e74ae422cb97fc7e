//! Command line of the end-to-end benchmark:
//!
//! ```text
//! kr-perfbench --workload <batch_fit|stream_ingest|federated_rounds>
//!              --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints the resolved execution modes, the tail sample counts, one
//! output digest per job, any failed check, and as its last line one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`.

use kr_linalg::{KernelMode, PruneMode};
use kr_perfbench::{run, Size, Workload};
use std::process::ExitCode;

kr_bench::install_counting_allocator!();

/// Variables that change what the library runs. Both sides of a
/// comparison must measure the same program, so the benchmark refuses
/// to run while any of them is set.
const PINNED_ENV: [&str; 5] = [
    "KR_KERNEL",
    "KR_PRUNE",
    "KR_SIMD_BACKEND",
    "KR_OBS",
    "KR_BENCH_SCALE",
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(e.to_string()))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| bad(e.to_string()))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let set: Vec<&str> = PINNED_ENV
        .into_iter()
        .filter(|v| std::env::var_os(v).is_some())
        .collect();
    if !set.is_empty() {
        eprintln!(
            "refusing to run with {} set: unset it so every run measures the same program",
            set.join(", ")
        );
        return ExitCode::from(2);
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("kr-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let report = run(
        args.workload,
        args.seed,
        args.seconds,
        args.trace,
        Size::Full,
    );

    println!(
        "env: kernel={:?} prune={:?} simd={} threads=1 available_parallelism={}",
        KernelMode::from_env(),
        PruneMode::from_env(),
        kr_linalg::simd::backend().name(),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    for note in &report.notes {
        println!("{note}");
    }
    for (job, digest) in &report.digests {
        println!("digest {job}: {digest:016x}");
    }
    for failure in &report.failures {
        println!("FAILED: {failure}");
    }
    let mut failed = report.failures.len() as u64;
    let mut metrics = Vec::with_capacity(report.metrics.len());
    for m in &report.metrics {
        // JSON has no NaN or infinity; a metric that is not a finite
        // number is a failed check.
        let value = if m.value.is_finite() {
            m.value
        } else {
            println!("FAILED: {} is not finite", m.name);
            failed += 1;
            0.0
        };
        metrics.push(format!(
            "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            m.name, m.unit
        ));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        report.attempted + report.metrics.len() as u64,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}
