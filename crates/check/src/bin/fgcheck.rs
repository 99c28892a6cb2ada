//! `fgcheck` — differential kernel fuzzing CLI.
//!
//! ```text
//! fgcheck [--seed N] [--cases K] [--shrink-budget N] [--verbose]
//! fgcheck --sampler [--seed N] [--cases K]
//! fgcheck --dtype bf16|f32 [--seed N] [--cases K]
//! fgcheck --case '<descriptor>'
//! fgcheck --seed 0 --cases 200            # the deterministic CI smoke sweep
//! fgcheck --sampler --seed 0 --cases 200  # the sampler CI smoke sweep
//! fgcheck --dtype bf16 --seed 0 --cases 200  # the half-precision CI smoke sweep
//! ```
//!
//! Sweep mode generates `K` seeded cases, runs each across every applicable
//! executor against the naive reference, shrinks any failure, and prints a
//! replayable `fgcheck --case '...'` one-liner per failure. Exit status is
//! nonzero iff any case failed. `--sampler` sweeps the neighbor-sampler
//! property family instead (determinism, reindex round-trip, fanout cap,
//! full-fanout bit-identity).
//!
//! `--dtype` sweeps the half-precision storage family: the CPU kernels on
//! bf16-quantized vertex features must track their own f32 instantiation
//! on the dequantized values within a widened tolerance (`f32` runs each
//! case's f32 instantiation twice and demands the same bits).
//!
//! Replay mode (`--case`) re-runs one descriptor (as printed by a failing
//! sweep) with per-executor detail; descriptors starting with `sampler;` or
//! `dtype;` route to their families automatically.

use std::process::ExitCode;

use fg_check::{
    dtype_sweep, run_case, run_dtype_case, run_sampler_case, sampler_sweep, shrink, sweep, Case,
    DtypeCase, SamplerCase,
};
use fg_tensor::FeatureDtype;

struct Args {
    seed: u64,
    cases: usize,
    case: Option<String>,
    shrink_budget: usize,
    sampler: bool,
    dtype: Option<FeatureDtype>,
    verbose: bool,
}

fn parse_args() -> Args {
    let mut out = Args {
        seed: 0,
        cases: 200,
        case: None,
        shrink_budget: fg_check::SHRINK_BUDGET,
        sampler: false,
        dtype: None,
        verbose: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut val = || args.next().expect("flag value");
        match a.as_str() {
            "--seed" => out.seed = val().parse().expect("seed"),
            "--cases" => out.cases = val().parse().expect("cases"),
            "--case" => out.case = Some(val()),
            "--shrink-budget" => out.shrink_budget = val().parse().expect("shrink budget"),
            "--sampler" => out.sampler = true,
            "--dtype" => {
                out.dtype = Some(val().parse().unwrap_or_else(|e: String| {
                    eprintln!("{e}");
                    std::process::exit(2);
                }))
            }
            "--verbose" | "-v" => out.verbose = true,
            "--help" | "-h" => {
                println!(
                    "fgcheck — differential kernel fuzzer\n\n\
                     usage: fgcheck [--seed N] [--cases K] [--shrink-budget N] [--verbose]\n\
                     \x20      fgcheck --sampler [--seed N] [--cases K]\n\
                     \x20      fgcheck --dtype bf16|f32 [--seed N] [--cases K]\n\
                     \x20      fgcheck --case '<descriptor>'\n\n\
                     Runs every FeatGraph executor (optimized CPU/GPU templates and the\n\
                     ligra/gunrock/sparselib baselines) against the naive reference on\n\
                     seeded adversarial cases; shrinks and prints any divergence.\n\
                     --sampler sweeps the neighbor-sampler property family instead\n\
                     (determinism, reindex round-trip, fanout cap, full-fanout\n\
                     bit-identity); sampler descriptors replay via --case too.\n\
                     --dtype sweeps half-precision feature storage: the CPU kernels on\n\
                     bf16-quantized features must track their f32 instantiation on\n\
                     the dequantized values within a widened tolerance; dtype\n\
                     descriptors replay via --case too."
                );
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown flag {other} (try --help)");
                std::process::exit(2);
            }
        }
    }
    out
}

fn replay_sampler(desc: &str) -> ExitCode {
    let case: SamplerCase = match desc.parse() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    println!("replaying: {case}");
    let reports = run_sampler_case(&case);
    if reports.is_empty() {
        println!("PASS: all sampler properties hold");
        return ExitCode::SUCCESS;
    }
    for r in &reports {
        println!("FAIL {r}");
    }
    ExitCode::FAILURE
}

fn sampler_main(seed: u64, cases: usize, verbose: bool) -> ExitCode {
    println!("fgcheck: sweeping {cases} sampler cases from seed {seed}");
    let report = sampler_sweep(seed, cases, |i, rep| {
        if verbose && (i + 1) % 50 == 0 {
            println!("  ... {}/{} cases, {} failures", i + 1, cases, rep.failures.len());
        }
    });
    println!(
        "swept {} sampler cases: {} failure(s)",
        report.total,
        report.failures.len()
    );
    if report.failures.is_empty() {
        println!("PASS");
        return ExitCode::SUCCESS;
    }
    for (i, f) in report.failures.iter().enumerate() {
        println!("--- failure {} -------------------------------------", i + 1);
        println!("  case: {}", f.case);
        for r in &f.reports {
            println!("    {r}");
        }
        println!("  replay: fgcheck --case '{}'", f.case);
    }
    ExitCode::FAILURE
}

fn replay_dtype(desc: &str) -> ExitCode {
    let case: DtypeCase = match desc.parse() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    println!("replaying: {case}");
    let reports = run_dtype_case(&case);
    if reports.is_empty() {
        println!("PASS: all dtype properties hold");
        return ExitCode::SUCCESS;
    }
    for r in &reports {
        println!("FAIL {r}");
    }
    ExitCode::FAILURE
}

fn dtype_main(seed: u64, cases: usize, dtype: FeatureDtype, verbose: bool) -> ExitCode {
    println!("fgcheck: sweeping {cases} {dtype} storage cases from seed {seed}");
    let report = dtype_sweep(seed, cases, dtype, |i, rep| {
        if verbose && (i + 1) % 50 == 0 {
            println!("  ... {}/{} cases, {} failures", i + 1, cases, rep.failures.len());
        }
    });
    println!(
        "swept {} dtype cases: {} failure(s)",
        report.total,
        report.failures.len()
    );
    if report.failures.is_empty() {
        println!("PASS");
        return ExitCode::SUCCESS;
    }
    for (i, f) in report.failures.iter().enumerate() {
        println!("--- failure {} -------------------------------------", i + 1);
        println!("  case: {}", f.case);
        for r in &f.reports {
            println!("    {r}");
        }
        println!("  replay: fgcheck --case '{}'", f.case);
    }
    ExitCode::FAILURE
}

fn replay(desc: &str, shrink_budget: usize) -> ExitCode {
    if desc.starts_with("sampler") {
        return replay_sampler(desc);
    }
    if desc.starts_with("dtype") {
        return replay_dtype(desc);
    }
    let case: Case = match desc.parse() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    println!("replaying: {case}");
    let fails = run_case(&case);
    if fails.is_empty() {
        println!("PASS: all executors agree with the reference");
        return ExitCode::SUCCESS;
    }
    for f in &fails {
        println!("FAIL {f}");
    }
    let small = shrink(&case, |c| !run_case(c).is_empty(), shrink_budget);
    if small != case {
        println!("shrinks to: fgcheck --case '{small}'");
    }
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args = parse_args();

    if let Some(desc) = &args.case {
        return replay(desc, args.shrink_budget);
    }

    if args.sampler {
        return sampler_main(args.seed, args.cases, args.verbose);
    }

    if let Some(dtype) = args.dtype {
        return dtype_main(args.seed, args.cases, dtype, args.verbose);
    }

    println!(
        "fgcheck: sweeping {} cases from seed {}",
        args.cases, args.seed
    );
    let verbose = args.verbose;
    let report = sweep(args.seed, args.cases, |i, rep| {
        if verbose && (i + 1) % 50 == 0 {
            println!(
                "  ... {}/{} cases, {} executor runs, {} failures",
                i + 1,
                rep.total.max(i + 1),
                rep.executor_runs,
                rep.failures.len()
            );
        }
    });

    println!(
        "swept {} cases ({} executor runs): {} failure(s)",
        report.total,
        report.executor_runs,
        report.failures.len()
    );
    if report.failures.is_empty() {
        println!("PASS");
        return ExitCode::SUCCESS;
    }
    for (i, f) in report.failures.iter().enumerate() {
        println!("--- failure {} -------------------------------------", i + 1);
        println!("  original: {}", f.case);
        println!("  shrunken: {}", f.shrunk);
        for r in &f.reports {
            println!("    {r}");
        }
        println!("  replay:   fgcheck --case '{}'", f.shrunk);
    }
    ExitCode::FAILURE
}
