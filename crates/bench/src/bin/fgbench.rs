//! `fgbench` — regenerate every table and figure of the FeatGraph paper.
//!
//! ```text
//! fgbench <command> [--scale N] [--lengths 32,64,...] [--runs N] [--threads N] [--kernel gcn|mlp|attention|all]
//!                   [--trace out.json] [--metrics] [--json report.json] [--bench-json]
//! fgbench compare <baseline.json> <current.json> [--fail-on-regress PCT] [--warn-only]
//!
//! commands:
//!   table1     capability matrix probed from the live systems (Table I)
//!   table2     dataset statistics (Table II)
//!   table3     single-threaded CPU kernels: Ligra / MKL / FeatGraph (Table III)
//!   fig10      multi-threaded scalability, GCN agg on reddit d=512 (Fig. 10)
//!   table4     GPU kernels: Gunrock / cuSPARSE / FeatGraph (Table IV)
//!   fig11      CPU ablation: graph partitioning x feature tiling (Fig. 11)
//!   fig12      GPU ablation: tree reduction for attention (Fig. 12)
//!   fig13      GPU ablation: hybrid partitioning (Fig. 13)
//!   fig14      sensitivity to partitioning factors (Fig. 14)
//!   fig15      sensitivity to CUDA block count (Fig. 15)
//!   table5     sensitivity to graph sparsity vs MKL (Table V)
//!   table6     end-to-end training/inference, naive vs FeatGraph backend (Table VI)
//!   accuracy   backend-parity accuracy check (SS V-E)
//!   fused      fused vs unfused SDDMM->softmax->SpMM GAT attention (fg-fuse)
//!   traversal  Hilbert vs canonical SDDMM edge order (SS III-C1 ablation)
//!   a100       V100 vs A100 device model comparison (newer-hardware future work)
//!   tune       adaptive tuner vs exhaustive grid search (SS VII future work)
//!   all        everything above
//!   compare    diff two --json reports; exit 1 on regression (see below)
//!
//! observability:
//!   --trace <path>   write a Chrome trace_event JSON of every kernel/
//!                    autotuner/trainer span (view at ui.perfetto.dev)
//!   --metrics        print aggregated span timings, counters, gauges,
//!                    work-distribution histograms, and a per-kernel GPU
//!                    roofline attribution after the command finishes
//!
//! performance reports (EXPERIMENTS.md documents the schema):
//!   --json <path>    write a machine-readable report: per-run timing
//!                    samples with min/median/mean/stddev, graph shapes,
//!                    telemetry snapshot, and roofline rows
//!   --bench-json     also write the report to ./BENCH_<command>_<scale>.json
//!   compare          diff two reports by entry median; a regression must
//!                    exceed both --fail-on-regress (default 5%) and a 2-sigma
//!                    noise band from the recorded per-run spread. Exits
//!                    nonzero on regression unless --warn-only is given.
//! ```

use std::path::Path;

use fg_bench::{
    cpu_kernel_samples, cpu_kernel_secs, featgraph_cpu_samples, featgraph_gpu_ms, fmt_ms, fmt_secs,
    gpu_kernel_ms, header, load, speedup, time_samples, BenchConfig, CpuSystem, FeatgraphCpuConfig,
    FeatgraphGpuConfig, GpuSystem, KernelKind, Report, Samples,
};
use fg_gnn::backend::GpuCostModel;
use fg_gnn::data::SbmTask;
use fg_gnn::models::build_model;
use fg_gnn::nn::Optimizer;
use fg_gnn::{inference, train, FeatgraphBackend, NaiveBackend};
use fg_gpusim::DeviceConfig;
use fg_graph::Dataset;

use featgraph::{HybridOptions, Traversal};

struct Args {
    command: String,
    cfg: BenchConfig,
    threads: usize,
    kernel: String,
    trace: Option<String>,
    metrics: bool,
    json: Option<String>,
    bench_json: bool,
    fail_on_regress: f64,
    warn_only: bool,
    positional: Vec<String>,
}

fn parse_args() -> Args {
    let mut args = std::env::args().skip(1);
    let command = args.next().unwrap_or_else(|| "help".to_string());
    let mut cfg = BenchConfig::default();
    let mut threads = 1usize;
    let mut kernel = "all".to_string();
    let mut trace = None;
    let mut metrics = false;
    let mut json = None;
    let mut bench_json = false;
    let mut fail_on_regress = 5.0;
    let mut warn_only = false;
    let mut positional = Vec::new();
    while let Some(a) = args.next() {
        let mut val = || args.next().expect("flag value");
        match a.as_str() {
            "--scale" => cfg.scale = val().parse().expect("scale"),
            "--lengths" => {
                cfg.lengths = val()
                    .split(',')
                    .map(|s| s.parse().expect("length"))
                    .collect()
            }
            "--runs" => cfg.runs = val().parse().expect("runs"),
            "--threads" => threads = val().parse().expect("threads"),
            "--kernel" => kernel = val(),
            "--trace" => trace = Some(val()),
            "--metrics" => metrics = true,
            "--json" => json = Some(val()),
            "--bench-json" => bench_json = true,
            "--fail-on-regress" => fail_on_regress = val().parse().expect("percent"),
            "--warn-only" => warn_only = true,
            other if !other.starts_with("--") => positional.push(other.to_string()),
            other => {
                eprintln!("unknown flag {other}");
                std::process::exit(2);
            }
        }
    }
    Args {
        command,
        cfg,
        threads,
        kernel,
        trace,
        metrics,
        json,
        bench_json,
        fail_on_regress,
        warn_only,
        positional,
    }
}

struct Telemetry {
    metrics: Option<std::sync::Arc<fg_telemetry::MemorySink>>,
    trace: Option<std::sync::Arc<fg_telemetry::ChromeTraceSink>>,
}

/// Enable telemetry and install the sinks requested by `--trace`/`--metrics`.
/// A `--json` report also needs live counters, so it enables them too.
fn telemetry_setup(args: &Args) -> Telemetry {
    use std::sync::Arc;
    let mut metrics = None;
    let mut trace = None;
    if args.trace.is_some() || args.metrics || args.json.is_some() || args.bench_json {
        fg_telemetry::set_enabled(true);
    }
    if let Some(path) = &args.trace {
        let sink = Arc::new(fg_telemetry::ChromeTraceSink::new(path.clone()));
        fg_telemetry::add_sink(sink.clone());
        trace = Some(sink);
    }
    if args.metrics {
        let sink = Arc::new(fg_telemetry::MemorySink::new());
        fg_telemetry::add_sink(sink.clone());
        metrics = Some(sink);
    }
    Telemetry { metrics, trace }
}

fn telemetry_finish(args: &Args, telem: Telemetry) {
    if args.trace.is_none() && !args.metrics {
        return;
    }
    fg_telemetry::flush();
    if let Some(path) = &args.trace {
        match telem.trace.as_ref().and_then(|s| s.write_error()) {
            Some(err) => eprintln!("\nerror: failed to write trace to {path}: {err}"),
            None => eprintln!(
                "\ntrace written to {path} (open at ui.perfetto.dev or chrome://tracing)"
            ),
        }
    }
    if let Some(sink) = telem.metrics {
        let stats = sink.span_stats();
        if !stats.is_empty() {
            println!("\n=== telemetry: span timings ===");
            println!(
                "{:<28}{:>10}{:>14}{:>14}{:>14}",
                "span", "count", "total ms", "mean us", "max us"
            );
            for s in stats {
                println!(
                    "{:<28}{:>10}{:>14.3}{:>14.3}{:>14.3}",
                    s.name,
                    s.count,
                    s.total_ns as f64 / 1e6,
                    s.total_ns as f64 / 1e3 / s.count.max(1) as f64,
                    s.max_ns as f64 / 1e3
                );
            }
        }
        print_metrics_tables();
    }
}

/// Print the counter/gauge/histogram/roofline snapshot (everything `--json`
/// captures, in human-readable form). Sections with no data are skipped.
fn print_metrics_tables() {
    let counters = fg_telemetry::counters_snapshot();
    if !counters.is_empty() {
        println!("\n=== telemetry: counters ===");
        for (name, value) in counters {
            println!("{name:<28}{value:>16}");
        }
    }
    let gauges = fg_telemetry::gauges_snapshot();
    if !gauges.is_empty() {
        println!("\n=== telemetry: gauges (last value) ===");
        for (name, value) in gauges {
            println!("{name:<28}{value:>16.6}");
        }
    }
    let hists = fg_telemetry::histograms_snapshot();
    if !hists.is_empty() {
        println!("\n=== telemetry: work-distribution histograms ===");
        println!(
            "{:<24}{:>10}{:>10}{:>10}{:>10}{:>10}{:>10}{:>11}",
            "histogram", "count", "min", "p50", "p90", "p99", "max", "imbalance"
        );
        for (name, h) in hists {
            println!(
                "{:<24}{:>10}{:>10}{:>10}{:>10}{:>10}{:>10}{:>10.2}x",
                name,
                h.count,
                h.min,
                h.quantile(0.50),
                h.quantile(0.90),
                h.quantile(0.99),
                h.max,
                h.imbalance()
            );
        }
    }
    let rollups = fg_gpusim::kernel_rollups();
    if !rollups.is_empty() {
        println!("\n=== gpusim: roofline attribution (per kernel) ===");
        println!(
            "{:<26}{:>9}{:>12}{:>10}{:>12}{:>12}{:>8}  bound",
            "kernel", "launches", "time ms", "AI f/B", "GFLOP/s", "ceiling", "%peak"
        );
        for r in rollups {
            let ai = r.arithmetic_intensity();
            let ai_str = if ai.is_finite() { format!("{ai:>10.2}") } else { format!("{:>10}", "inf") };
            println!(
                "{:<26}{:>9}{:>12.3}{}{:>12.1}{:>12.1}{:>7.1}%  {}",
                r.kernel,
                r.launches,
                r.time_ms,
                ai_str,
                r.attained_gflops(),
                r.roofline_gflops(),
                r.attained_fraction() * 100.0,
                if r.memory_bound() { "memory" } else { "compute" }
            );
        }
    }
}

/// `fgbench compare <baseline.json> <current.json>` — never returns.
fn run_compare(args: &Args) -> ! {
    let [base_path, cur_path] = &args.positional[..] else {
        eprintln!("usage: fgbench compare <baseline.json> <current.json> [--fail-on-regress PCT] [--warn-only]");
        std::process::exit(2);
    };
    let read = |path: &str| -> Report {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("error: cannot read {path}: {e}");
            std::process::exit(2);
        });
        Report::from_json(&text).unwrap_or_else(|e| {
            eprintln!("error: {path} is not a valid report: {e}");
            std::process::exit(2);
        })
    };
    let base = read(base_path);
    let cur = read(cur_path);
    if base.machine != cur.machine {
        eprintln!(
            "warning: comparing across machines ({}/{}/{}t vs {}/{}/{}t)",
            base.machine.os, base.machine.arch, base.machine.host_threads,
            cur.machine.os, cur.machine.arch, cur.machine.host_threads
        );
    }
    if base.scale != cur.scale {
        eprintln!("warning: scale differs (1/{} vs 1/{})", base.scale, cur.scale);
    }
    let cmp = fg_bench::compare(&base, &cur, args.fail_on_regress);
    print!("{}", cmp.format_table());
    if cmp.incomparables() > 0 {
        eprintln!(
            "warning: {} entr{} could not be compared (zero, NaN, or Inf medians); \
             inspect the reports by hand",
            cmp.incomparables(),
            if cmp.incomparables() == 1 { "y" } else { "ies" }
        );
    }
    if cmp.has_regressions() {
        if args.warn_only {
            eprintln!("warn-only: {} regression(s) ignored", cmp.regressions());
            std::process::exit(0);
        }
        std::process::exit(1);
    }
    std::process::exit(0);
}

/// Snapshot telemetry into the report and write it wherever `--json` /
/// `--bench-json` asked. `fgbench all` snapshots per subcommand instead.
fn finish_report(args: &Args, rep: &mut Report, snapshot: bool) {
    if args.json.is_none() && !args.bench_json {
        return;
    }
    if snapshot {
        rep.snapshot_telemetry();
    }
    let write_to = |path: &Path| match rep.write(path) {
        Ok(()) => eprintln!("\nreport written to {}", path.display()),
        Err(e) => eprintln!("\nerror: failed to write report to {}: {e}", path.display()),
    };
    if let Some(path) = &args.json {
        write_to(Path::new(path));
    }
    if args.bench_json {
        let name = format!("BENCH_{}_{}.json", rep.command, rep.scale);
        write_to(Path::new(&name));
    }
}

fn main() {
    let args = parse_args();
    if args.command == "compare" {
        run_compare(&args);
    }
    let telem = telemetry_setup(&args);
    let mut rep = Report::new(&args.command, args.cfg.scale);
    match args.command.as_str() {
        "table1" => table1(),
        "table2" => table2(&args),
        "table3" => table3(&args, &mut rep),
        "fig10" => fig10(&args, &mut rep),
        "table4" => table4(&args, &mut rep),
        "fig11" => fig11(&args, &mut rep),
        "fig12" => fig12(&args, &mut rep),
        "fig13" => fig13(&args, &mut rep),
        "fig14" => fig14(&args, &mut rep),
        "fig15" => fig15(&args, &mut rep),
        "table5" => table5(&args, &mut rep),
        "table6" => table6(&args, &mut rep),
        "accuracy" => accuracy(&args),
        "fused" => fused_bench(&args, &mut rep),
        "traversal" => traversal(&args, &mut rep),
        "a100" => a100(&args, &mut rep),
        "tune" => tune(&args),
        "all" => run_all(&args, &mut rep),
        _ => {
            eprintln!("usage: fgbench <table1|table2|table3|fig10|table4|fig11|fig12|fig13|fig14|fig15|table5|table6|accuracy|fused|traversal|a100|tune|all|compare> [--scale N] [--lengths l1,l2] [--runs N] [--threads N] [--kernel gcn|mlp|attention|all] [--trace out.json] [--metrics] [--json report.json] [--bench-json]");
            std::process::exit(2);
        }
    }
    finish_report(&args, &mut rep, args.command != "all");
    telemetry_finish(&args, telem);
}

/// Run every subcommand, each with a fresh metric window: after a subcommand
/// finishes, its report is snapshotted (and written as
/// `BENCH_<sub>_<scale>.json` under `--bench-json`), `--metrics` tables are
/// printed, and counters/gauges/histograms/rollups are reset so the next
/// subcommand starts clean. Span timings (and the `--trace` file) stay
/// cumulative. The merged report accumulates every entry.
fn run_all(args: &Args, master: &mut Report) {
    let mut sub = |name: &str, f: &mut dyn FnMut(&mut Report)| {
        let mut rep = Report::new(name, args.cfg.scale);
        f(&mut rep);
        rep.snapshot_telemetry();
        if args.metrics {
            println!("\n--- metrics after {name} (reset before next command) ---");
            print_metrics_tables();
        }
        if args.bench_json {
            let path = format!("BENCH_{}_{}.json", name, args.cfg.scale);
            if let Err(e) = rep.write(Path::new(&path)) {
                eprintln!("error: failed to write report to {path}: {e}");
            }
        }
        master.merge(&rep);
        fg_telemetry::reset_metrics();
        fg_gpusim::reset_kernel_rollups();
    };
    sub("table1", &mut |_| table1());
    sub("table2", &mut |_| table2(args));
    sub("table3", &mut |r| table3(args, r));
    sub("fig10", &mut |r| fig10(args, r));
    sub("table4", &mut |r| table4(args, r));
    sub("fig11", &mut |r| fig11(args, r));
    sub("fig12", &mut |r| fig12(args, r));
    sub("fig13", &mut |r| fig13(args, r));
    sub("fig14", &mut |r| fig14(args, r));
    sub("fig15", &mut |r| fig15(args, r));
    sub("table5", &mut |r| table5(args, r));
    sub("table6", &mut |r| table6(args, r));
    sub("accuracy", &mut |_| accuracy(args));
    sub("fused", &mut |r| fused_bench(args, r));
    sub("traversal", &mut |r| traversal(args, r));
    sub("tune", &mut |_| tune(args));
    sub("a100", &mut |r| a100(args, r));
}

fn kernels_for(sel: &str) -> Vec<KernelKind> {
    match sel {
        "all" => vec![
            KernelKind::GcnAggregation,
            KernelKind::MlpAggregation,
            KernelKind::DotAttention,
        ],
        s => vec![KernelKind::parse(s).expect("kernel")],
    }
}

fn table1() {
    println!("\n=== Table I: system comparison, probed from the live implementations ===");
    // Flexibility = which of the three evaluation kernels each system can run.
    let g = fg_graph::uniform(64, 4, 1);
    let kernels = [
        KernelKind::GcnAggregation,
        KernelKind::MlpAggregation,
        KernelKind::DotAttention,
    ];
    println!("{:<12} {:<10} {:<28} flexibility", "system", "platform", "kernels covered");
    let cover = |covered: usize| if covered == kernels.len() { "high" } else { "low" };
    for (name, platform, covered) in [
        (
            "MKL",
            "CPU",
            kernels
                .iter()
                .filter(|&&k| cpu_kernel_secs(CpuSystem::Mkl, k, &g, 8, 1, 1).is_some())
                .count(),
        ),
        (
            "cuSPARSE",
            "GPU",
            kernels
                .iter()
                .filter(|&&k| gpu_kernel_ms(GpuSystem::Cusparse, k, &g, 8).is_some())
                .count(),
        ),
        (
            "Ligra",
            "CPU",
            kernels
                .iter()
                .filter(|&&k| cpu_kernel_secs(CpuSystem::Ligra, k, &g, 8, 1, 1).is_some())
                .count(),
        ),
        (
            "Gunrock",
            "GPU",
            kernels
                .iter()
                .filter(|&&k| gpu_kernel_ms(GpuSystem::Gunrock, k, &g, 8).is_some())
                .count(),
        ),
        (
            "FeatGraph",
            "CPU+GPU",
            kernels
                .iter()
                .filter(|&&k| cpu_kernel_secs(CpuSystem::FeatGraph, k, &g, 8, 1, 1).is_some())
                .count(),
        ),
    ] {
        println!(
            "{name:<12} {platform:<10} {covered}/{:<26} {}",
            kernels.len(),
            cover(covered)
        );
    }
    println!("(efficiency column: Tables III/IV; open-source column: this repository)");
}

fn table2(args: &Args) {
    println!("\n=== Table II: graph datasets (scale 1/{}) ===", args.cfg.scale);
    for ds in Dataset::ALL {
        let g = load(ds, args.cfg.scale);
        println!("{}", fg_graph::table2_row(ds.name(), &g));
        let spec = ds.spec();
        println!(
            "{:<16} paper: |V|={:>9} |E|={:>11} avg_deg={:>7}",
            "", spec.vertices, spec.edges(), spec.avg_degree
        );
    }
}

fn table3(args: &Args, rep: &mut Report) {
    println!(
        "\n=== Table III: single-threaded CPU kernels (seconds, scale 1/{}) ===",
        args.cfg.scale
    );
    for kind in kernels_for(&args.kernel) {
        println!("\n--- {} ---", kind.name());
        for ds in Dataset::ALL {
            let g = load(ds, args.cfg.scale);
            rep.push_graph(ds.name(), &g);
            println!("{}:", ds.name());
            header("  system", &args.cfg.lengths);
            for sys in [CpuSystem::Ligra, CpuSystem::Mkl, CpuSystem::FeatGraph] {
                if sys == CpuSystem::Mkl && kind != KernelKind::GcnAggregation {
                    continue;
                }
                print!("  {:<10}", sys.name());
                for &d in &args.cfg.lengths {
                    let s = cpu_kernel_samples(sys, kind, &g, d, 1, args.cfg.runs);
                    print!("{}", fmt_secs(s.as_ref().map(Samples::mean)));
                    if let Some(s) = s {
                        let id = format!(
                            "table3/{}/{}/{}/d{d}",
                            kind.slug(),
                            ds.name(),
                            sys.name()
                        );
                        rep.push(id, "s", &s);
                    }
                }
                println!();
            }
        }
    }
}

fn fig10(args: &Args, rep: &mut Report) {
    println!(
        "\n=== Fig. 10: scalability, GCN aggregation on reddit d=512 (scale 1/{}) ===",
        args.cfg.scale
    );
    let host = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("(host has {host} cores; speedups saturate at the physical core count)");
    let g = load(Dataset::Reddit, args.cfg.scale);
    rep.push_graph(Dataset::Reddit.name(), &g);
    let d = 512;
    for sys in [CpuSystem::FeatGraph, CpuSystem::Ligra, CpuSystem::Mkl] {
        let base = cpu_kernel_secs(sys, KernelKind::GcnAggregation, &g, d, 1, args.cfg.runs)
            .expect("gcn supported everywhere");
        print!("{:<10}", sys.name());
        for threads in [1usize, 2, 4, 8, 16] {
            let s =
                cpu_kernel_samples(sys, KernelKind::GcnAggregation, &g, d, threads, args.cfg.runs)
                    .unwrap();
            print!("  t{threads}={:>5}", speedup(base, s.mean()));
            rep.push(format!("fig10/gcn/reddit/{}/t{threads}", sys.name()), "s", &s);
        }
        println!();
    }
}

fn table4(args: &Args, rep: &mut Report) {
    println!(
        "\n=== Table IV: GPU kernels on the V100 simulator (ms, scale 1/{}) ===",
        args.cfg.scale
    );
    for kind in kernels_for(&args.kernel) {
        println!("\n--- {} ---", kind.name());
        for ds in Dataset::ALL {
            let g = load(ds, args.cfg.scale);
            rep.push_graph(ds.name(), &g);
            println!("{}:", ds.name());
            header("  system", &args.cfg.lengths);
            for sys in [GpuSystem::Gunrock, GpuSystem::Cusparse, GpuSystem::FeatGraph] {
                if sys == GpuSystem::Cusparse && kind != KernelKind::GcnAggregation {
                    continue;
                }
                print!("  {:<10}", sys.name());
                for &d in &args.cfg.lengths {
                    let ms = gpu_kernel_ms(sys, kind, &g, d);
                    print!("{}", fmt_ms(ms));
                    if let Some(ms) = ms {
                        let id = format!(
                            "table4/{}/{}/{}/d{d}",
                            kind.slug(),
                            ds.name(),
                            sys.name()
                        );
                        rep.push_single(id, "ms", ms);
                    }
                }
                println!();
            }
        }
    }
}

fn fig11(args: &Args, rep: &mut Report) {
    println!(
        "\n=== Fig. 11: graph partitioning x feature tiling ablation (GCN agg, reddit, scale 1/{}) ===",
        args.cfg.scale
    );
    let g = load(Dataset::Reddit, args.cfg.scale);
    rep.push_graph(Dataset::Reddit.name(), &g);
    header("config", &args.cfg.lengths);
    let configs: [(&str, Option<usize>, Option<usize>); 4] = [
        ("baseline", Some(1), Some(1)),
        ("tiling", Some(1), None),
        ("partition", None, Some(1)),
        ("both", None, None),
    ];
    let mut rows: Vec<Vec<Samples>> = Vec::new();
    for &(name, parts, tiles) in &configs {
        let mut row = Vec::new();
        for &d in &args.cfg.lengths {
            let cfg = FeatgraphCpuConfig {
                graph_partitions: parts,
                feature_tiles: tiles,
                traversal: Traversal::Hilbert,
            };
            let s = featgraph_cpu_samples(
                KernelKind::GcnAggregation,
                &g,
                d,
                1,
                args.cfg.runs,
                cfg,
            );
            rep.push(format!("fig11/{name}/d{d}"), "s", &s);
            row.push(s);
        }
        rows.push(row);
    }
    for (ci, &(name, _, _)) in configs.iter().enumerate() {
        print!("{name:<12}");
        for (di, _) in args.cfg.lengths.iter().enumerate() {
            // speedup over the baseline config
            print!("{:>10}", speedup(rows[0][di].mean(), rows[ci][di].mean()));
        }
        println!();
    }
}

fn fig12(args: &Args, rep: &mut Report) {
    println!(
        "\n=== Fig. 12: tree reduction ablation (dot attention, rand-100K, GPU sim, scale 1/{}) ===",
        args.cfg.scale
    );
    let g = load(Dataset::Rand100K, args.cfg.scale);
    rep.push_graph(Dataset::Rand100K.name(), &g);
    header("config", &args.cfg.lengths);
    let mut gunrock = Vec::new();
    let mut no_tree = Vec::new();
    let mut tree = Vec::new();
    for &d in &args.cfg.lengths {
        gunrock.push(gpu_kernel_ms(GpuSystem::Gunrock, KernelKind::DotAttention, &g, d).unwrap());
        no_tree.push(featgraph_gpu_ms(
            KernelKind::DotAttention,
            &g,
            d,
            FeatgraphGpuConfig {
                tree_reduce: false,
                ..Default::default()
            },
        ));
        tree.push(featgraph_gpu_ms(
            KernelKind::DotAttention,
            &g,
            d,
            FeatgraphGpuConfig::default(),
        ));
    }
    for (name, row) in [
        ("Gunrock", &gunrock),
        ("FG w/o tree", &no_tree),
        ("FG w/ tree", &tree),
    ] {
        print!("{name:<12}");
        for (di, &d) in args.cfg.lengths.iter().enumerate() {
            print!("{:>10}", speedup(gunrock[di], row[di]));
            let slug = name.replace([' ', '/'], "_");
            rep.push_single(format!("fig12/{slug}/d{d}"), "ms", row[di]);
        }
        println!("   (speedup over Gunrock)");
    }
}

fn fig13(args: &Args, rep: &mut Report) {
    println!(
        "\n=== Fig. 13: hybrid partitioning ablation (GCN agg, rand-100K, GPU sim, scale 1/{}) ===",
        args.cfg.scale
    );
    let g = load(Dataset::Rand100K, args.cfg.scale);
    rep.push_graph(Dataset::Rand100K.name(), &g);
    header("config", &args.cfg.lengths);
    let n = g.num_vertices();
    // Enough blocks to keep every SM fed, but enough rows per block that a
    // staged high-degree source row is reused within the block.
    let rows_per_block = (n / 320).clamp(2, 64);
    // The high tier is the top ~20% of rand-100K's vertices; take the
    // threshold from the realized degree distribution (dedup flattens the
    // nominal 2000 at small scales).
    let mut degs: Vec<usize> = (0..n as u32).map(|v| g.out_degree(v)).collect();
    degs.sort_unstable_by(|a, b| b.cmp(a));
    let degree_threshold = degs[n / 5].max(1);
    let mut cus = Vec::new();
    let mut plain = Vec::new();
    let mut hybrid = Vec::new();
    for &d in &args.cfg.lengths {
        cus.push(gpu_kernel_ms(GpuSystem::Cusparse, KernelKind::GcnAggregation, &g, d).unwrap());
        plain.push(featgraph_gpu_ms(
            KernelKind::GcnAggregation,
            &g,
            d,
            FeatgraphGpuConfig {
                rows_per_block,
                ..Default::default()
            },
        ));
        hybrid.push(featgraph_gpu_ms(
            KernelKind::GcnAggregation,
            &g,
            d,
            FeatgraphGpuConfig {
                rows_per_block,
                hybrid: Some(HybridOptions {
                    degree_threshold,
                    shared_budget_bytes: 24 * 1024,
                }),
                ..Default::default()
            },
        ));
    }
    for (name, row) in [
        ("cuSPARSE", &cus),
        ("FG w/o hyb", &plain),
        ("FG w/ hyb", &hybrid),
    ] {
        print!("{name:<12}");
        for (di, &d) in args.cfg.lengths.iter().enumerate() {
            print!("{:>10}", speedup(cus[di], row[di]));
            let slug = name.replace([' ', '/'], "_");
            rep.push_single(format!("fig13/{slug}/d{d}"), "ms", row[di]);
        }
        println!("   (speedup over cuSPARSE)");
    }
}

fn fig14(args: &Args, rep: &mut Report) {
    println!(
        "\n=== Fig. 14: sensitivity to partitioning factors (GCN agg, reddit, d=128, scale 1/{}) ===",
        args.cfg.scale
    );
    let g = load(Dataset::Reddit, args.cfg.scale);
    rep.push_graph(Dataset::Reddit.name(), &g);
    let partitions = [1usize, 4, 16, 64];
    let tiles = [1usize, 2, 4, 8];
    print!("{:<22}", "graph parts \\ feat parts");
    for t in tiles {
        print!("{t:>10}");
    }
    println!();
    for p in partitions {
        print!("{p:<22}");
        for t in tiles {
            let cfg = FeatgraphCpuConfig {
                graph_partitions: Some(p),
                feature_tiles: Some(t),
                traversal: Traversal::Hilbert,
            };
            let s =
                featgraph_cpu_samples(KernelKind::GcnAggregation, &g, 128, 1, args.cfg.runs, cfg);
            print!("{:>10.3}", s.mean());
            rep.push(format!("fig14/p{p}/t{t}"), "s", &s);
        }
        println!();
    }
}

fn fig15(args: &Args, rep: &mut Report) {
    println!(
        "\n=== Fig. 15: sensitivity to #CUDA blocks (GCN agg, reddit, d=128, GPU sim, scale 1/{}) ===",
        args.cfg.scale
    );
    let g = load(Dataset::Reddit, args.cfg.scale);
    rep.push_graph(Dataset::Reddit.name(), &g);
    let n = g.num_vertices();
    for &blocks in &[8usize, 32, 80, 256, 1024, 4096, 16384, 65536, 262144] {
        let blocks = blocks.min(n);
        let rows_per_block = n.div_ceil(blocks).max(1);
        let ms = featgraph_gpu_ms(
            KernelKind::GcnAggregation,
            &g,
            128,
            FeatgraphGpuConfig {
                rows_per_block,
                ..Default::default()
            },
        );
        println!("blocks={blocks:>8}  time={ms:>9.3} ms");
        rep.push_single(format!("fig15/blocks{blocks}"), "ms", ms);
        if blocks == n {
            break;
        }
    }
}

fn table5(args: &Args, rep: &mut Report) {
    println!(
        "\n=== Table V: sensitivity to graph sparsity (GCN agg, uniform 100K/scale, d=128) ==="
    );
    let n = 100_000 / args.cfg.scale;
    for sparsity in [0.9995f64, 0.995, 0.95] {
        let g = fg_graph::uniform_with_sparsity(n.max(64), sparsity, 7);
        let mkl =
            cpu_kernel_samples(CpuSystem::Mkl, KernelKind::GcnAggregation, &g, 128, 1, args.cfg.runs)
                .unwrap();
        let fg = cpu_kernel_samples(
            CpuSystem::FeatGraph,
            KernelKind::GcnAggregation,
            &g,
            128,
            1,
            args.cfg.runs,
        )
        .unwrap();
        println!(
            "sparsity {:>7.2}%  MKL {:>8.3}s  FeatGraph {:>8.3}s  speedup {}",
            sparsity * 100.0,
            mkl.mean(),
            fg.mean(),
            speedup(mkl.mean(), fg.mean())
        );
        rep.push(format!("table5/sparsity{:.2}/MKL", sparsity * 100.0), "s", &mkl);
        rep.push(format!("table5/sparsity{:.2}/FeatGraph", sparsity * 100.0), "s", &fg);
    }
}

fn table6(args: &Args, rep: &mut Report) {
    println!(
        "\n=== Table VI: end-to-end training/inference, DGL-style naive vs FeatGraph backend ==="
    );
    // reddit stand-in task, scaled to keep the naive backend's |E| x d
    // materialization within memory
    let n = (233_000 / args.cfg.scale).max(500);
    let task = SbmTask::generate(n, 8, 40, 8, 77);
    let hidden = 64;
    let epochs = 3;
    println!(
        "task: {} vertices, {} edges, hidden={hidden}, {} epochs per measurement",
        task.graph.num_vertices(),
        task.graph.num_edges(),
        epochs
    );
    for model_name in ["gcn", "graphsage", "gat"] {
        // --- CPU (wall clock) ---
        let naive = NaiveBackend::cpu();
        let fgb = FeatgraphBackend::cpu(args.threads);
        let mut m1 = build_model(model_name, task.in_dim(), hidden, task.num_classes, 1);
        let mut m2 = build_model(model_name, task.in_dim(), hidden, task.num_classes, 1);
        let r1 = train(m1.as_mut(), &task, &naive, None, Optimizer::adam(0.01), epochs);
        let r2 = train(m2.as_mut(), &task, &fgb, None, Optimizer::adam(0.01), epochs);
        println!(
            "CPU train     {model_name:<10} naive {:>8.3}s/epoch   featgraph {:>8.3}s/epoch   speedup {}",
            r1.avg_epoch_seconds,
            r2.avg_epoch_seconds,
            speedup(r1.avg_epoch_seconds, r2.avg_epoch_seconds)
        );
        rep.push_single(format!("table6/{model_name}/cpu_train/naive"), "s", r1.avg_epoch_seconds);
        rep.push_single(
            format!("table6/{model_name}/cpu_train/featgraph"),
            "s",
            r2.avg_epoch_seconds,
        );
        let (_, i1, _) = inference(m1.as_ref(), &task, &naive, None);
        let (_, i2, _) = inference(m2.as_ref(), &task, &fgb, None);
        println!(
            "CPU inference {model_name:<10} naive {:>8.3}s         featgraph {:>8.3}s         speedup {}",
            i1,
            i2,
            speedup(i1, i2)
        );
        rep.push_single(format!("table6/{model_name}/cpu_infer/naive"), "s", i1);
        rep.push_single(format!("table6/{model_name}/cpu_infer/featgraph"), "s", i2);

        // --- GPU (simulated) ---
        let naive_gpu = NaiveBackend::gpu(DeviceConfig::v100());
        let fgb_gpu = FeatgraphBackend::gpu();
        let dense1 = GpuCostModel::new(DeviceConfig::v100());
        let dense2 = GpuCostModel::new(DeviceConfig::v100());
        let mut m3 = build_model(model_name, task.in_dim(), hidden, task.num_classes, 1);
        let mut m4 = build_model(model_name, task.in_dim(), hidden, task.num_classes, 1);
        let r3 = train(
            m3.as_mut(),
            &task,
            &naive_gpu,
            Some(&dense1),
            Optimizer::adam(0.01),
            1,
        );
        let r4 = train(
            m4.as_mut(),
            &task,
            &fgb_gpu,
            Some(&dense2),
            Optimizer::adam(0.01),
            1,
        );
        println!(
            "GPU train     {model_name:<10} naive {:>8.2}ms/epoch  featgraph {:>8.2}ms/epoch  speedup {}",
            r3.avg_epoch_gpu_ms,
            r4.avg_epoch_gpu_ms,
            speedup(r3.avg_epoch_gpu_ms, r4.avg_epoch_gpu_ms)
        );
        rep.push_single(format!("table6/{model_name}/gpu_train/naive"), "ms", r3.avg_epoch_gpu_ms);
        rep.push_single(
            format!("table6/{model_name}/gpu_train/featgraph"),
            "ms",
            r4.avg_epoch_gpu_ms,
        );
        let (_, _, g1) = inference(m3.as_ref(), &task, &naive_gpu, Some(&dense1));
        let (_, _, g2) = inference(m4.as_ref(), &task, &fgb_gpu, Some(&dense2));
        println!(
            "GPU inference {model_name:<10} naive {:>8.2}ms        featgraph {:>8.2}ms        speedup {}",
            g1,
            g2,
            speedup(g1, g2)
        );
        rep.push_single(format!("table6/{model_name}/gpu_infer/naive"), "ms", g1);
        rep.push_single(format!("table6/{model_name}/gpu_infer/featgraph"), "ms", g2);
    }
}

/// Kernel-fusion benchmark (fg-fuse): one GAT attention layer,
/// `out[v] = Σ softmax_v(LeakyReLU(sl[u]+sr[v])) · x[u]`, run as the fused
/// single-sweep kernel vs the unfused three-pass composition
/// (SDDMM score → edge softmax → weighted SpMM) on identical inputs.
/// CPU rows are wall-clock; GPU rows are simulated V100 milliseconds (the
/// unfused GPU row charges only its two kernels — its CPU-side softmax
/// passes ride free, which biases the comparison *against* fusion).
fn fused_bench(args: &Args, rep: &mut Report) {
    use fg_gnn::backend::GraphBackend;
    use fg_gnn::GnnGraph;

    println!(
        "\n=== fused: GAT attention, fused vs unfused SDDMM->softmax->SpMM (reddit, scale 1/{}) ===",
        args.cfg.scale
    );
    let graph = load(Dataset::Reddit, args.cfg.scale);
    rep.push_graph(Dataset::Reddit.name(), &graph);
    let g = GnnGraph::new(graph);
    let n = g.fwd().num_vertices();
    let sl = fg_bench::features(n, 1);
    let sr = fg_bench::features(n, 1);
    let slope = 0.2f32;
    println!(
        "{:<6}{:>14}{:>14}{:>9}{:>14}{:>14}{:>9}",
        "d", "cpu unf s", "cpu fused s", "speedup", "gpu unf ms", "gpu fused ms", "speedup"
    );
    for &d in &[32usize, 64, 128] {
        let x = fg_bench::features(n, d);
        let cpu = FeatgraphBackend::cpu(args.threads);
        let unf = time_samples(args.cfg.runs, || {
            std::hint::black_box(cpu.unfused_attention(&g, &x, &sl, &sr, slope));
        });
        let fus = time_samples(args.cfg.runs, || {
            std::hint::black_box(cpu.fused_attention(&g, &x, &sl, &sr, slope));
        });
        let gpu = FeatgraphBackend::gpu();
        gpu.unfused_attention(&g, &x, &sl, &sr, slope);
        let gpu_unf = gpu.take_gpu_ms();
        gpu.fused_attention(&g, &x, &sl, &sr, slope);
        let gpu_fus = gpu.take_gpu_ms();
        println!(
            "{d:<6}{:>14.4}{:>14.4}{:>9}{:>14.3}{:>14.3}{:>9}",
            unf.mean(),
            fus.mean(),
            speedup(unf.mean(), fus.mean()),
            gpu_unf,
            gpu_fus,
            speedup(gpu_unf, gpu_fus)
        );
        rep.push(format!("fused/cpu/d{d}/unfused"), "s", &unf);
        rep.push(format!("fused/cpu/d{d}/fused"), "s", &fus);
        rep.push_single(format!("fused/gpu/d{d}/unfused"), "ms", gpu_unf);
        rep.push_single(format!("fused/gpu/d{d}/fused"), "ms", gpu_fus);
    }
    println!("(peak intermediate: unfused materializes two |E| edge tensors; fused keeps O(|V|) accumulators)");
}

fn traversal(args: &Args, rep: &mut Report) {
    println!(
        "\n=== SS III-C1: Hilbert vs canonical edge traversal (dot attention, reddit, scale 1/{}) ===",
        args.cfg.scale
    );
    let g = load(Dataset::Reddit, args.cfg.scale);
    rep.push_graph(Dataset::Reddit.name(), &g);
    let canonical_order = fg_graph::EdgeOrder::canonical(&g);
    let hilbert_order = fg_graph::EdgeOrder::hilbert(&g);
    println!(
        "mean (src,dst) jump between consecutive edges: canonical {:.1}, hilbert {:.1}",
        fg_graph::mean_jump(&canonical_order),
        fg_graph::mean_jump(&hilbert_order)
    );
    header("order", &args.cfg.lengths);
    for (name, trav) in [
        ("canonical", Traversal::Canonical),
        ("hilbert", Traversal::Hilbert),
    ] {
        print!("{name:<12}");
        for &d in &args.cfg.lengths {
            let cfg = FeatgraphCpuConfig {
                traversal: trav,
                ..Default::default()
            };
            let s = featgraph_cpu_samples(KernelKind::DotAttention, &g, d, 1, args.cfg.runs, cfg);
            print!("{:>10.3}", s.mean());
            rep.push(format!("traversal/{name}/d{d}"), "s", &s);
        }
        println!();
    }
}

fn a100(args: &Args, rep: &mut Report) {
    println!(
        "\n=== Newer hardware: V100 vs A100 device model (FeatGraph kernels, reddit, scale 1/{}) ===",
        args.cfg.scale
    );
    let g = load(Dataset::Reddit, args.cfg.scale);
    rep.push_graph(Dataset::Reddit.name(), &g);
    println!("{:<24}{:>12}{:>12}{:>10}", "kernel (d=256)", "V100 ms", "A100 ms", "ratio");
    for kind in [
        KernelKind::GcnAggregation,
        KernelKind::MlpAggregation,
        KernelKind::DotAttention,
    ] {
        let v = featgraph_gpu_ms(kind, &g, 256, FeatgraphGpuConfig::default());
        let a = featgraph_gpu_ms(
            kind,
            &g,
            256,
            FeatgraphGpuConfig {
                device: fg_gpusim::DeviceConfig::a100(),
                ..Default::default()
            },
        );
        println!("{:<24}{:>12.3}{:>12.3}{:>9.2}x", kind.name(), v, a, v / a);
        rep.push_single(format!("a100/{}/v100", kind.slug()), "ms", v);
        rep.push_single(format!("a100/{}/a100", kind.slug()), "ms", a);
    }
    println!("(memory-bound kernels track the 1.73x HBM bandwidth ratio)");
}

fn tune(args: &Args) {
    println!(
        "\n=== SS VII: adaptive tuner vs exhaustive grid (GCN agg, reddit, d=128, scale 1/{}) ===",
        args.cfg.scale
    );
    use featgraph::{tune_spmm_cpu, tune_spmm_cpu_adaptive, GraphTensors, Reducer, Udf};
    let g = load(Dataset::Reddit, args.cfg.scale);
    let n = g.num_vertices();
    let x = fg_bench::features(n, 128);
    let inputs = GraphTensors::vertex_only(&x);
    let udf = Udf::copy_src(128);
    let grid = tune_spmm_cpu(
        &g,
        &udf,
        Reducer::Sum,
        &inputs,
        &[1, 4, 16, 64],
        &[1, 2, 4, 8],
        args.threads,
        args.cfg.runs,
    )
    .expect("grid");
    let adaptive = tune_spmm_cpu_adaptive(
        &g,
        &udf,
        Reducer::Sum,
        &inputs,
        64,
        8,
        args.threads,
        args.cfg.runs,
    )
    .expect("adaptive");
    let gb = grid.best_point();
    println!(
        "grid search    : {:>2} evaluations, best (gp={}, fp={}) at {:.4}s",
        grid.grid.len(),
        gb.graph_partitions,
        gb.feature_tiles,
        gb.seconds
    );
    println!(
        "adaptive tuner : {:>2} evaluations, best (gp={}, fp={}) at {:.4}s",
        adaptive.trace.len(),
        adaptive.best.graph_partitions,
        adaptive.best.feature_tiles,
        adaptive.best.seconds
    );
}

fn accuracy(args: &Args) {
    println!("\n=== SS V-E accuracy: backend parity on vertex classification ===");
    let n = (233_000 / args.cfg.scale.max(48)).max(500);
    let task = SbmTask::generate(n, 8, 40, 8, 77);
    let epochs = 60;
    for model_name in ["gcn", "graphsage"] {
        let naive = NaiveBackend::cpu();
        let fgb = FeatgraphBackend::cpu(args.threads);
        let mut m1 = build_model(model_name, task.in_dim(), 32, task.num_classes, 1);
        let mut m2 = build_model(model_name, task.in_dim(), 32, task.num_classes, 1);
        let r1 = train(m1.as_mut(), &task, &naive, None, Optimizer::adam(0.02), epochs);
        let r2 = train(m2.as_mut(), &task, &fgb, None, Optimizer::adam(0.02), epochs);
        println!(
            "{model_name:<10} test accuracy: naive backend {:.4}, featgraph backend {:.4} (diff {:+.4})",
            r1.test_acc,
            r2.test_acc,
            r2.test_acc - r1.test_acc
        );
    }
}
