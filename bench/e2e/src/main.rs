//! `fge2e` — run one workload of the end-to-end benchmark, or compare two
//! result sets. `run.sh` builds `fgserve` and this binary and calls it.
//!
//! ```text
//! fge2e run --workload W --fgserve PATH [--seed S] [--seconds N] [--trace 0|1]
//!           [--out DIR] [--quick]
//! fge2e compare A_DIR B_DIR --bench BENCHMARK.json
//! ```
//!
//! `run` prints every metric by name with its unit, then, as the last line of
//! standard output, one JSON object with `correct`, `attempted`, `failed` and
//! `metrics` (the end-to-end metrics with `--trace 0`, the per-layer metrics
//! with `--trace 1`). With `--out` it also appends that result to
//! `DIR/runs.jsonl` and, when traced, writes `DIR/<workload>.trace.json`.

use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use fg_e2e::compare::{self, RUNS_FILE};
use fg_e2e::driver::{self, RunOutcome};
use fg_e2e::layers::{self, Dataset};
use fg_e2e::ledger::{Metrics, END_TO_END, LAYERS};
use fg_e2e::stream::{self, Block, Kind, Workload, CONNECTIONS};
use fg_e2e::trace::{self, Recorder};

const USAGE: &str = "usage:
  fge2e run --workload infer_full|seeds_override|seeds_text_wide|train_epoch --fgserve PATH
            [--seed S] [--seconds N] [--trace 0|1] [--out DIR] [--quick]
  fge2e compare A_DIR B_DIR --bench BENCHMARK.json";

struct RunArgs {
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    fgserve: Option<PathBuf>,
    out: Option<PathBuf>,
    quick: bool,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut workload = None;
    let mut run = RunArgs {
        workload: stream::WORKLOADS[0],
        seed: 1,
        seconds: fg_e2e::DEFAULT_SECONDS as f64,
        traced: false,
        fgserve: None,
        out: None,
        quick: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--quick" {
            run.quick = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: bad number {value:?}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(*stream::workload(value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => run.seed = number()?,
            "--seconds" => run.seconds = number()? as f64,
            "--trace" => run.traced = number()? != 0,
            "--fgserve" => run.fgserve = Some(value.into()),
            "--out" => run.out = Some(value.into()),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    run.workload = workload.ok_or("--workload is required")?;
    if run.seconds < 1.0 {
        return Err("--seconds must be at least 1".into());
    }
    if run.quick {
        // A tenth of the work, for CI smoke runs; never comparable.
        run.seconds /= 10.0;
        run.workload.warmup_ops = (run.workload.warmup_ops / 10).max(2);
        run.workload.replay_ops = (run.workload.replay_ops / 10).max(4);
    }
    Ok(run)
}

fn metrics_json(metrics: &[(String, f64, &str)]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"))
        .collect();
    format!("{{{}}}", fields.join(","))
}

fn cmd_run(args: &[String]) -> Result<ExitCode, String> {
    let run = parse_run(args)?;
    let w = &run.workload;
    if let Some(out) = &run.out {
        if run.quick && out.join(RUNS_FILE).exists() {
            return Err(format!(
                "{} holds results `compare` reads; a --quick run will not write there",
                out.display()
            ));
        }
        std::fs::create_dir_all(out).map_err(|e| format!("{}: {e}", out.display()))?;
    }
    let load = match w.kind {
        Kind::Train => "in process, one thread".to_string(),
        _ => format!("closed loop, {CONNECTIONS} connections"),
    };
    println!(
        "== {} seed={} seconds={} trace={} ({load}) ==",
        w.name,
        run.seed,
        run.seconds,
        u8::from(run.traced)
    );
    if run.quick {
        println!("QUICK — not comparable");
    }

    let epoch = Instant::now();
    let pools: Vec<Vec<Block>> = (0..CONNECTIONS)
        .map(|c| stream::pool(w, run.seed, c))
        .collect();
    let mut outcome: RunOutcome = match w.kind {
        Kind::Train => driver::run_training(w, run.seed, run.seconds, run.traced, epoch),
        _ => {
            let fgserve = run
                .fgserve
                .as_deref()
                .ok_or("--fgserve is required for serving workloads")?;
            driver::run_serving(w, run.seed, run.seconds, run.traced, fgserve, &pools, epoch)?
        }
    };
    if outcome.samples == 0 {
        return Err(format!(
            "no op succeeded in the timed window: {:?}",
            outcome.errors
        ));
    }

    // Outside every timed window: the oracle, then the layer replay.
    let data = Dataset::generate(w, run.seed);
    let mut checked = 0;
    if w.kind != Kind::Train {
        match layers::check_replies(w, run.seed, &data, &outcome.kept, &pools[0]) {
            Ok(n) => checked = n,
            Err(e) => outcome.incorrect.push(e),
        }
    }
    if run.traced {
        let mut rec = Recorder::new(epoch, CONNECTIONS);
        let (replayed, engine_ms) = layers::replay(&mut rec, w, run.seed, &data, &pools[0]);
        outcome.layers.0.extend(replayed.0);
        // Same ops, once over the wire and once in process: the paired
        // difference is what the front-end and the socket add.
        if !engine_ms.is_empty() && engine_ms.len() == outcome.seq_rtt_ms.len() {
            let added: Vec<f64> = outcome
                .seq_rtt_ms
                .iter()
                .zip(&engine_ms)
                .map(|(rtt, e)| rtt - e)
                .collect();
            outcome
                .layers
                .put("front.overhead_p50_ms", fg_e2e::stats::median(&added));
        }
        outcome.spans.extend(rec.into_spans());
        if let Some(out) = &run.out {
            let path = out.join(format!("{}.trace.json", w.name));
            trace::write_chrome(&path, &outcome.spans)
                .map_err(|e| format!("{}: {e}", path.display()))?;
            println!("trace: {} spans -> {}", outcome.spans.len(), path.display());
        }
    }

    let report = |metrics: &Metrics, name: &str, unit: &'static str| {
        // A layer that is not on this workload's path reads 0.
        (name.to_string(), metrics.get(name).unwrap_or(0.0), unit)
    };
    let e2e: Vec<_> = END_TO_END
        .iter()
        .map(|m| report(&outcome.e2e, m.name, m.unit))
        .collect();
    let layers: Vec<_> = LAYERS
        .iter()
        .map(|m| report(&outcome.layers, m.name, m.unit))
        .collect();
    println!(
        "graph: {} vertices, {} edges, in_dim {}",
        w.vertices,
        data.num_edges(),
        w.in_dim()
    );
    for (name, value, unit) in &e2e {
        println!("{name:<28} {value:>14.4} {unit}");
    }
    println!(
        "{:<28} {:>14} (untraced window)",
        "samples", outcome.samples
    );
    if run.traced {
        for ((name, value, unit), m) in layers.iter().zip(LAYERS) {
            println!("{name:<28} {value:>14.4} {unit:<8} [{}]", m.layer);
        }
    }
    let correct = outcome.incorrect.is_empty();
    println!(
        "attempted {}  failed {}  fail_ratio {}  oracle-checked {}  digest {:#018x}  correct {}",
        outcome.attempted,
        outcome.failed,
        outcome.failed as f64 / outcome.attempted as f64,
        checked,
        outcome.digest.0,
        correct
    );
    for e in outcome.errors.iter().chain(&outcome.incorrect) {
        println!("  ! {e}");
    }

    let result = format!(
        "\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{}",
        outcome.attempted,
        outcome.failed,
        metrics_json(if run.traced { &layers } else { &e2e })
    );
    if let (Some(out), false) = (&run.out, run.quick) {
        let line = format!(
            "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"samples\":{},\"digest\":\"{:#018x}\",{result}}}\n",
            w.name,
            run.seed,
            run.seconds,
            u8::from(run.traced),
            outcome.samples,
            outcome.digest.0
        );
        let path = out.join(RUNS_FILE);
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .and_then(|mut f| f.write_all(line.as_bytes()))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    println!("{{{result}}}");
    Ok(if correct && outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn cmd_compare(args: &[String]) -> Result<ExitCode, String> {
    let [a, b, flag, bench] = args else {
        return Err(USAGE.into());
    };
    if flag != "--bench" {
        return Err(USAGE.into());
    }
    let regressed = compare::compare(a.as_ref(), b.as_ref(), bench.as_ref())?;
    Ok(if regressed == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!("fge2e compare: {regressed} regressed");
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => cmd_run(rest),
        Some((cmd, rest)) if cmd == "compare" => cmd_compare(rest),
        _ => Err(USAGE.into()),
    };
    result.unwrap_or_else(|e| {
        eprintln!("fge2e: {e}");
        ExitCode::from(2)
    })
}
