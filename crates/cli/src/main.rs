//! `obm` — balanced multi-application NoC mapping from the command line.
//!
//! ```text
//! obm gen C1 [--seed S]                         emit an instance spec (stdout)
//! obm map <spec> [--algo sss] [--seed S] [--grid] [--objective min-max-apl]
//! obm eval <spec> <mapping> [--objective min-max-apl]
//!                                               mapping: one tile number per line
//! obm simulate <spec> [--algo sss] [--cycles N] [--seed S]
//! obm experiments trace <spec> [--algo sss] [--cycles N] [--seed S]
//!                      [--window W] [--chrome] [--out FILE]   JSON-lines telemetry
//!                                                 (--chrome: Chrome-trace JSON)
//! obm experiments heatmap <spec> [--algo sss] [--cycles N] [--seed S]
//!                        [--json] [--out FILE]    spatial link/VC/stall heatmap
//! obm experiments loadcurve|validate|tails [--fast]
//!                 [--injection bernoulli|geometric]     simulator sweeps
//! obm exact <spec> [--budget NODES]              prove the optimum (small chips)
//! obm solve <spec> [--portfolio | --algos sss,sa,...] [--seeds 0,1,2,3]
//!                  [--deadline-ms N] [--max-evals N] [--workers N]
//!                  [--aggressive] [--objective min-max-apl]
//!                  [--checkpoint FILE] [--resume FILE]
//! obm place <spec> [--controllers K] [--topology mesh|torus]
//!           [--exhaustive | --annealed N] [--seed S] [--portfolio] [--grid]
//!                                               co-optimize MC placement + mapping
//! obm latency [--mesh N] [--controllers corners|edges]
//! ```
//!
//! `map`, `eval`, `simulate`, `solve` and `experiments trace|heatmap`
//! additionally accept `--topology mesh|torus` and
//! `--mcs corners|edge-centers|custom:<k1,k2,...>` layout overrides.
//!
//! `simulate`, `solve`, `place` and every `experiments` subcommand accept
//! `--metrics FILE [--metrics-format prom|json]` to export a runtime
//! metrics snapshot (DESIGN.md §17); `obm status <snapshot>...` renders
//! one or more exported snapshots as an ASCII dashboard.

#![forbid(unsafe_code)]

mod commands;
mod spec;

use std::process::ExitCode;

fn usage() -> &'static str {
    "obm — balanced multi-application NoC mapping (IPDPS'14 OBM reproduction)

USAGE:
  obm gen <C1..C8> [--seed S]
  obm map <spec-file> [--algo sss|global|mc|sa|greedy|random] [--seed S] [--grid]
          [--objective min-max-apl|max-min-balance|energy]
  obm eval <spec-file> <mapping-file> [--objective min-max-apl|max-min-balance|energy]
  obm simulate <spec-file> [--algo NAME] [--cycles N] [--seed S]
  obm experiments trace <spec-file> [--algo NAME] [--cycles N] [--seed S] [--window W]
                  [--chrome] [--out FILE]
  obm experiments heatmap <spec-file> [--algo NAME] [--cycles N] [--seed S] [--json] [--out FILE]
  obm experiments loadcurve|validate|tails|placement [--fast]
                  [--injection bernoulli|geometric]
  obm exact <spec-file> [--budget NODES]
  obm solve <spec-file> [--portfolio | --algos sss,sa,hybrid,greedy,mc,exact] [--seeds 0,1,2,3]
            [--deadline-ms N] [--max-evals N] [--workers N] [--aggressive]
            [--objective min-max-apl|max-min-balance|energy]
            [--checkpoint FILE] [--resume FILE]
            --portfolio (the default) races the objective's line-up: SSS, SSS+SA, SA,
            Greedy; max-min-balance and energy add MC
  obm place <spec-file> [--controllers K] [--topology mesh|torus]
            [--exhaustive | --annealed N] [--seed S] [--portfolio] [--workers N] [--grid]
            --portfolio races the min-max line-up on every candidate layout
  obm latency [--mesh N] [--controllers corners|edges]
  obm status <snapshot-file>...                 render exported metrics snapshots
                                                as an ASCII dashboard (merged)

Layout overrides (map, eval, simulate, solve, experiments trace/heatmap):
  --topology mesh|torus                        link topology (default mesh)
  --mcs corners|edge-centers|custom:<k1,k2,..> memory-controller placement
                                               (default: the spec's controllers line)

Metrics export (simulate, solve, place, experiments *):
  --metrics FILE               write a runtime-metrics snapshot after the run
  --metrics-format prom|json   snapshot format (default prom: Prometheus text)
  OBM_METRICS_CLOCK=logical    zero every span duration (and every rate printed
                               from one), making the snapshot and the printed
                               report byte-deterministic for a fixed seed

The spec format is documented in the repository README and crates/cli/src/spec.rs."
}

/// Minimal flag extraction: returns (positional, flag-lookup).
struct Args {
    positional: Vec<String>,
    flags: Vec<(String, Option<String>)>,
}

impl Args {
    fn parse(raw: Vec<String>) -> Result<Args, String> {
        let mut positional = Vec::new();
        let mut flags = Vec::new();
        let mut it = raw.into_iter().peekable();
        while let Some(a) = it.next() {
            if let Some(name) = a.strip_prefix("--") {
                let value = if it.peek().is_some_and(|v| !v.starts_with("--")) {
                    it.next()
                } else {
                    None
                };
                flags.push((name.to_string(), value));
            } else {
                positional.push(a);
            }
        }
        Ok(Args { positional, flags })
    }

    fn flag(&self, name: &str) -> Option<&Option<String>> {
        self.flags.iter().find(|(n, _)| n == name).map(|(_, v)| v)
    }

    fn value_flag(&self, name: &str) -> Result<Option<&str>, String> {
        match self.flag(name) {
            None => Ok(None),
            Some(Some(v)) => Ok(Some(v)),
            Some(None) => Err(format!("--{name} requires a value")),
        }
    }

    fn parse_flag<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        match self.value_flag(name)? {
            None => Ok(default),
            Some(v) => v.parse().map_err(|e| format!("--{name}: {e}")),
        }
    }

    /// Like [`Args::parse_flag`] but with no default: absent flags stay
    /// `None`.
    fn opt_parse_flag<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String>
    where
        T::Err: std::fmt::Display,
    {
        match self.value_flag(name)? {
            None => Ok(None),
            Some(v) => v.parse().map(Some).map_err(|e| format!("--{name}: {e}")),
        }
    }
}

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
}

/// The shared `--topology`/`--mcs` layout overrides.
fn layout_flags(args: &Args) -> Result<commands::LayoutFlags<'_>, String> {
    Ok(commands::LayoutFlags {
        topology: args.value_flag("topology")?,
        mcs: args.value_flag("mcs")?,
    })
}

/// Where `--metrics` asked for the snapshot to land.
struct MetricsSink {
    path: String,
    json: bool,
}

/// `--metrics <path>` / `--metrics-format prom|json`: build the registry
/// every instrumented command reports into. Absent flag ⇒ disabled handle
/// (the never-taken-branch fast path). `OBM_METRICS_CLOCK=logical` swaps
/// the wall clock for a logical one, zeroing every span duration so
/// fixed-seed snapshots and printed rates are byte-deterministic
/// (DESIGN.md §17).
fn metrics_setup(args: &Args) -> Result<(noc_metrics::MetricsHandle, Option<MetricsSink>), String> {
    let Some(path) = args.value_flag("metrics")? else {
        return Ok((noc_metrics::MetricsHandle::disabled(), None));
    };
    let json = match args.value_flag("metrics-format")?.unwrap_or("prom") {
        "prom" => false,
        "json" => true,
        other => {
            return Err(format!(
                "--metrics-format: unknown format '{other}' (try prom or json)"
            ))
        }
    };
    let clock = match std::env::var("OBM_METRICS_CLOCK") {
        Err(_) => noc_metrics::ClockMode::Wall,
        Ok(v) if v == "wall" || v.is_empty() => noc_metrics::ClockMode::Wall,
        Ok(v) if v == "logical" => noc_metrics::ClockMode::Logical,
        Ok(v) => {
            return Err(format!(
                "OBM_METRICS_CLOCK: unknown mode '{v}' (try wall or logical)"
            ))
        }
    };
    let registry = noc_metrics::MetricsRegistry::with_clock(clock);
    Ok((
        registry.handle(),
        Some(MetricsSink {
            path: path.to_string(),
            json,
        }),
    ))
}

/// Export the end-of-run snapshot to the `--metrics` file, if asked for.
fn write_metrics(
    metrics: &noc_metrics::MetricsHandle,
    sink: &Option<MetricsSink>,
) -> Result<(), String> {
    let (Some(sink), Some(snap)) = (sink.as_ref(), metrics.snapshot()) else {
        return Ok(());
    };
    let text = if sink.json {
        snap.to_json_lines()
    } else {
        snap.to_prometheus()
    };
    std::fs::write(&sink.path, text).map_err(|e| format!("cannot write {}: {e}", sink.path))
}

fn run() -> Result<String, String> {
    let mut raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.is_empty() {
        return Err(usage().to_string());
    }
    let cmd = raw.remove(0);
    let args = Args::parse(raw)?;
    let (metrics, sink) = metrics_setup(&args)?;
    let out = run_command(&cmd, &args, &metrics)?;
    write_metrics(&metrics, &sink)?;
    Ok(out)
}

fn run_command(
    cmd: &str,
    args: &Args,
    metrics: &noc_metrics::MetricsHandle,
) -> Result<String, String> {
    match cmd {
        "gen" => {
            let cfg = args
                .positional
                .first()
                .ok_or("gen needs a configuration name (C1..C8)")?;
            commands::generate(cfg, args.opt_parse_flag::<u64>("seed")?)
        }
        "map" => {
            let spec = read(args.positional.first().ok_or("map needs a spec file")?)?;
            let algo = args.value_flag("algo")?.unwrap_or("sss");
            let seed = args.parse_flag::<u64>("seed", 0)?;
            let objective = args.value_flag("objective")?.unwrap_or("min-max-apl");
            commands::map_command(
                &spec,
                algo,
                seed,
                args.flag("grid").is_some(),
                objective,
                layout_flags(args)?,
            )
        }
        "eval" => {
            let spec = read(args.positional.first().ok_or("eval needs a spec file")?)?;
            let mapping = read(args.positional.get(1).ok_or("eval needs a mapping file")?)?;
            let objective = args.value_flag("objective")?.unwrap_or("min-max-apl");
            commands::eval_command(&spec, &mapping, objective, layout_flags(args)?)
        }
        "simulate" => {
            let spec = read(
                args.positional
                    .first()
                    .ok_or("simulate needs a spec file")?,
            )?;
            let algo = args.value_flag("algo")?.unwrap_or("sss");
            let seed = args.parse_flag::<u64>("seed", 0)?;
            let cycles = args.parse_flag::<u64>("cycles", 50_000)?;
            commands::simulate_command(&spec, algo, seed, cycles, layout_flags(args)?, metrics)
        }
        "experiments" => {
            let sub = args.positional.first().ok_or(
                "experiments needs a subcommand (trace|heatmap|loadcurve|validate|tails|placement)",
            )?;
            // The simulator sweeps from the bench harness: latency
            // statistics at offered loads, so they default to the
            // geometric fast path; `--injection bernoulli` restores the
            // per-cycle process for apples-to-apples comparisons.
            if matches!(
                sub.as_str(),
                "loadcurve" | "validate" | "tails" | "placement"
            ) {
                let fast = args.flag("fast").is_some();
                let injection = args.parse_flag::<noc_sim::InjectionProcess>(
                    "injection",
                    noc_sim::InjectionProcess::Geometric,
                )?;
                return obm_bench::experiments::run_with_metrics(sub, fast, injection, metrics)
                    .map(|out| out.trim_end().to_string())
                    .ok_or_else(|| format!("experiment '{sub}' unavailable"));
            }
            if !matches!(sub.as_str(), "trace" | "heatmap") {
                return Err(format!(
                    "unknown experiments subcommand '{sub}' \
                     (try trace, heatmap, loadcurve, validate, tails or placement)"
                ));
            }
            let spec = read(
                args.positional
                    .get(1)
                    .ok_or_else(|| format!("experiments {sub} needs a spec file"))?,
            )?;
            let algo = args.value_flag("algo")?.unwrap_or("sss");
            let seed = args.parse_flag::<u64>("seed", 0)?;
            let cycles = args.parse_flag::<u64>("cycles", 20_000)?;
            let layout = layout_flags(args)?;
            let out = if sub == "heatmap" {
                commands::heatmap_command(
                    &spec,
                    algo,
                    seed,
                    cycles,
                    args.flag("json").is_some(),
                    layout,
                )?
            } else {
                let window = args.parse_flag::<u64>("window", 1_000)?;
                if args.flag("chrome").is_some() {
                    commands::chrome_trace_command(&spec, algo, seed, cycles, window, layout)?
                } else {
                    commands::trace_command(&spec, algo, seed, cycles, window, layout)?
                }
            };
            match args.value_flag("out")? {
                Some(path) => {
                    std::fs::write(path, &out).map_err(|e| format!("cannot write {path}: {e}"))?;
                    Ok(format!(
                        "wrote {} JSON lines to {path}",
                        out.lines().count()
                    ))
                }
                // The JSON(-lines) output may end in a newline; trim it
                // so main's println! doesn't add a blank trailing line.
                None => Ok(out.trim_end().to_string()),
            }
        }
        "exact" => {
            let spec = read(args.positional.first().ok_or("exact needs a spec file")?)?;
            let budget = args.parse_flag::<u64>("budget", 20_000_000)?;
            commands::exact_command(&spec, budget)
        }
        "solve" => {
            let spec = read(args.positional.first().ok_or("solve needs a spec file")?)?;
            // `--portfolio` is an explicit spelling of the default line-up,
            // which depends on `--objective`.
            let algos = if args.flag("portfolio").is_some() {
                "portfolio"
            } else {
                args.value_flag("algos")?.unwrap_or("portfolio")
            };
            let seeds = args.value_flag("seeds")?.unwrap_or("0,1,2,3");
            let resume_text = match args.value_flag("resume")? {
                Some(path) => Some(read(path)?),
                None => None,
            };
            let solve_args = commands::SolveArgs {
                algos,
                seeds,
                deadline_ms: args.opt_parse_flag::<u64>("deadline-ms")?,
                max_evals: args.opt_parse_flag::<u64>("max-evals")?,
                workers: args.opt_parse_flag::<usize>("workers")?,
                aggressive: args.flag("aggressive").is_some(),
                objective: args.value_flag("objective")?.unwrap_or("min-max-apl"),
                resume_json: resume_text.as_deref(),
                layout: layout_flags(args)?,
                metrics: metrics.clone(),
            };
            let (report, checkpoint) = commands::solve_command(&spec, &solve_args)?;
            if let Some(path) = args.value_flag("checkpoint")? {
                std::fs::write(path, format!("{checkpoint}\n"))
                    .map_err(|e| format!("cannot write {path}: {e}"))?;
            }
            Ok(report)
        }
        "place" => {
            let spec = read(args.positional.first().ok_or("place needs a spec file")?)?;
            let place_args = commands::PlaceArgs {
                controllers: args.parse_flag::<usize>("controllers", 4)?,
                topology: args.value_flag("topology")?.unwrap_or("mesh"),
                exhaustive: args.flag("exhaustive").is_some(),
                annealed: args.opt_parse_flag::<usize>("annealed")?,
                seed: args.parse_flag::<u64>("seed", 1)?,
                portfolio: args.flag("portfolio").is_some(),
                workers: args.opt_parse_flag::<usize>("workers")?,
                grid: args.flag("grid").is_some(),
                metrics: metrics.clone(),
            };
            commands::place_command(&spec, &place_args)
        }
        "latency" => {
            let n = args.parse_flag::<usize>("mesh", 8)?;
            let ctrl = args.value_flag("controllers")?.unwrap_or("corners");
            commands::latency_command(n, ctrl)
        }
        "status" => commands::status_command(&args.positional),
        "help" | "--help" | "-h" => Ok(usage().to_string()),
        other => Err(format!("unknown command '{other}'\n\n{}", usage())),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(out) => {
            println!("{out}");
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gen(argv: &[&str]) -> Result<String, String> {
        let args = Args::parse(argv.iter().map(|a| a.to_string()).collect())?;
        run_command("gen", &args, &noc_metrics::MetricsHandle::disabled())
    }

    /// Every `u64` is a seed, `u64::MAX` included: it must not fall back
    /// to the configuration's default seed.
    #[test]
    fn gen_honors_the_largest_seed() {
        let max = gen(&["C1", "--seed", "18446744073709551615"]).unwrap();
        assert_eq!(max, commands::generate("C1", Some(u64::MAX)).unwrap());
        assert_ne!(max, gen(&["C1"]).unwrap());
    }

    /// The stdout of `obm gen C1 --seed 3`, byte for byte (`main`'s
    /// `println!` adds the final newline), recorded before trace series
    /// were stored as bitsets.
    #[test]
    fn gen_output_is_pinned() {
        let stdout = format!("{}\n", gen(&["C1", "--seed", "3"]).unwrap());
        assert_eq!(stdout, include_str!("../tests/data/gen_c1_seed3.spec"));
    }
}
