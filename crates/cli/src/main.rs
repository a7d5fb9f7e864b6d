//! `obm` — balanced multi-application NoC mapping from the command line.
//!
//! The synopsis is `usage()` below, printed by `obm help` and after every
//! command-line error. What each command accepts is its `grammar()`
//! entry: an unknown option, a flag missing its value, a flag given twice
//! or a stray positional exits 2 with the usage text before anything runs.

#![forbid(unsafe_code)]

mod commands;
mod spec;

use noc_metrics::{MetricsHandle, MetricsRegistry};
use noc_sim::InjectionProcess;
use obm_bench::experiments;
use std::process::ExitCode;

fn usage() -> &'static str {
    "obm — balanced multi-application NoC mapping (IPDPS'14 OBM reproduction)

USAGE:
  obm gen <C1..C8> [--seed S]
  obm map <spec-file> [--algo sss|global|mc|sa|greedy|random] [--seed S] [--grid]
          [--objective min-max-apl|max-min-balance|energy]
  obm eval <spec-file> <mapping-file> [--objective min-max-apl|max-min-balance|energy]
  obm simulate <spec-file> [--algo NAME] [--cycles N] [--seed S]
  obm experiments <id>...|all|list [--fast] [--out DIR] [--injection bernoulli|geometric]
                  the paper's tables/figures and the extension studies (`list`
                  names every id); --out DIR also writes DIR/<id>.md; the
                  simulator sweeps default to geometric injection
  obm experiments trace <spec-file> [--algo NAME] [--cycles N] [--seed S] [--window W]
                  [--chrome] [--out FILE]
  obm experiments heatmap <spec-file> [--algo NAME] [--cycles N] [--seed S] [--json] [--out FILE]
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

/// A command-line error: the message, then the usage text.
fn usage_error(msg: impl std::fmt::Display) -> String {
    format!("{msg}\n\n{}", usage())
}

/// What a command accepts after its command words: its flags, separated
/// by spaces (a trailing `=` marks one that takes a value; the others are
/// switches), and at most how many positionals.
struct Grammar {
    flags: &'static str,
    positionals: usize,
}

/// Every command's [`Grammar`]. `experiments trace` and `experiments
/// heatmap` are two-word commands; any other `experiments` line runs ids.
fn grammar(cmd: &str) -> Option<Grammar> {
    let (flags, positionals) = match cmd {
        "gen" => ("seed=", 1),
        "map" => ("algo= seed= grid objective= topology= mcs=", 1),
        "eval" => ("objective= topology= mcs=", 2),
        "simulate" => (
            "algo= seed= cycles= topology= mcs= metrics= metrics-format=",
            1,
        ),
        "experiments" => ("fast out= injection= metrics= metrics-format=", usize::MAX),
        "experiments trace" => (
            "algo= seed= cycles= window= chrome out= topology= mcs= metrics= metrics-format=",
            1,
        ),
        "experiments heatmap" => (
            "algo= seed= cycles= json out= topology= mcs= metrics= metrics-format=",
            1,
        ),
        "exact" => ("budget=", 1),
        "solve" => (
            "portfolio algos= seeds= deadline-ms= max-evals= workers= aggressive objective= \
             checkpoint= resume= topology= mcs= metrics= metrics-format=",
            1,
        ),
        "place" => (
            "controllers= topology= exhaustive annealed= seed= portfolio workers= grid \
             metrics= metrics-format=",
            1,
        ),
        "latency" => ("mesh= controllers=", 0),
        "status" => ("", usize::MAX),
        "help" | "--help" | "-h" => ("", 0),
        _ => return None,
    };
    Some(Grammar { flags, positionals })
}

/// One command's parsed arguments.
struct Args {
    positional: Vec<String>,
    /// Each given flag and its value (`None` for a switch).
    flags: Vec<(String, Option<String>)>,
}

impl Args {
    /// Parse the arguments after the command words against `grammar`.
    fn parse(raw: Vec<String>, grammar: &Grammar) -> Result<Args, String> {
        let mut args = Args {
            positional: Vec::new(),
            flags: Vec::new(),
        };
        let mut it = raw.into_iter();
        while let Some(a) = it.next() {
            let Some(name) = a.strip_prefix("--") else {
                if args.positional.len() == grammar.positionals {
                    return Err(format!("unexpected argument '{a}'"));
                }
                args.positional.push(a);
                continue;
            };
            let takes_value = grammar
                .flags
                .split_whitespace()
                .find_map(|f| match f.strip_suffix('=') {
                    Some(valued) => (valued == name).then_some(true),
                    None => (f == name).then_some(false),
                })
                .ok_or_else(|| format!("unknown option '{a}'"))?;
            if args.flags.iter().any(|(n, _)| n == name) {
                return Err(format!("{a} given twice"));
            }
            let value = if takes_value {
                match it.next() {
                    Some(v) if !v.starts_with("--") => Some(v),
                    _ => return Err(format!("{a} requires a value")),
                }
            } else {
                None
            };
            args.flags.push((name.to_string(), value));
        }
        Ok(args)
    }

    /// Whether the switch `--name` was given.
    fn switch(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| n == name)
    }

    /// The value of `--name`, if given.
    fn value(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| v.as_deref())
    }

    fn parse_flag<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        Ok(self.opt_parse_flag(name)?.unwrap_or(default))
    }

    /// Like [`Args::parse_flag`] but with no default: absent flags stay
    /// `None`.
    fn opt_parse_flag<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String>
    where
        T::Err: std::fmt::Display,
    {
        self.value(name)
            .map(|v| v.parse().map_err(|e| usage_error(format!("--{name}: {e}"))))
            .transpose()
    }
}

/// Split the command line into its command words and their [`Args`].
fn parse_command_line(mut raw: Vec<String>) -> Result<(String, Args), String> {
    if raw.is_empty() {
        return Err(usage().to_string());
    }
    let mut cmd = raw.remove(0);
    if cmd == "experiments" && matches!(raw.first().map(String::as_str), Some("trace" | "heatmap"))
    {
        cmd = format!("{cmd} {}", raw.remove(0));
    }
    let grammar = grammar(&cmd).ok_or_else(|| usage_error(format!("unknown command '{cmd}'")))?;
    let args = Args::parse(raw, &grammar).map_err(|e| usage_error(format!("{cmd}: {e}")))?;
    Ok((cmd, args))
}

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
}

/// The contents of the spec file, `cmd`'s first positional.
fn read_spec(cmd: &str, args: &Args) -> Result<String, String> {
    read(
        args.positional
            .first()
            .ok_or_else(|| format!("{cmd} needs a spec file"))?,
    )
}

/// The shared `--topology`/`--mcs` layout overrides.
fn layout_flags(args: &Args) -> commands::LayoutFlags<'_> {
    commands::LayoutFlags {
        topology: args.value("topology"),
        mcs: args.value("mcs"),
    }
}

/// Where `--metrics` asked for the snapshot to land.
struct MetricsSink {
    path: String,
    json: bool,
}

/// The registry every instrumented command reports into, and the
/// `--metrics <path>` / `--metrics-format prom|json` sink. `solve` and
/// `experiments` print rates read back from the registry, so they get one
/// without `--metrics` too; other commands without the flag get a
/// disabled handle (the never-taken-branch fast path).
/// `OBM_METRICS_CLOCK=logical` swaps the wall clock for a logical one,
/// zeroing every span duration so fixed-seed snapshots and printed rates
/// are byte-deterministic (DESIGN.md §17).
fn metrics_setup(cmd: &str, args: &Args) -> Result<(MetricsHandle, Option<MetricsSink>), String> {
    let json = match args.value("metrics-format").unwrap_or("prom") {
        "prom" => false,
        "json" => true,
        other => {
            return Err(usage_error(format!(
                "--metrics-format: unknown format '{other}' (try prom or json)"
            )))
        }
    };
    let sink = args.value("metrics").map(|path| MetricsSink {
        path: path.to_string(),
        json,
    });
    if sink.is_none() && !matches!(cmd, "solve" | "experiments") {
        return Ok((MetricsHandle::disabled(), None));
    }
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
    Ok((MetricsRegistry::with_clock(clock).handle(), sink))
}

/// Export the end-of-run snapshot to the `--metrics` file, if asked for.
fn write_metrics(metrics: &MetricsHandle, sink: &Option<MetricsSink>) -> Result<(), String> {
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
    let (cmd, args) = parse_command_line(std::env::args().skip(1).collect())?;
    let (metrics, sink) = metrics_setup(&cmd, &args)?;
    let out = run_command(&cmd, &args, &metrics)?;
    write_metrics(&metrics, &sink)?;
    Ok(out)
}

/// `obm experiments <id>...|all|list`: check every id, then run them in
/// order, also writing each block to `--out DIR/<id>.md`.
fn experiments_command(args: &Args, metrics: &MetricsHandle) -> Result<String, String> {
    let known = || experiments::ALL.iter().map(|(id, _)| *id);
    let mut ids: Vec<&str> = args.positional.iter().map(String::as_str).collect();
    match ids[..] {
        [] => return Err(usage_error("experiments needs an id, `all` or `list`")),
        ["list"] => return Ok(known().collect::<Vec<_>>().join("\n")),
        ["all"] => ids = known().collect(),
        _ => {}
    }
    if let Some(id) = ids.iter().find(|id| !known().any(|k| k == **id)) {
        return Err(usage_error(format!("unknown experiment '{id}'")));
    }
    let fast = args.switch("fast");
    // The simulator sweeps measure latency statistics at offered loads,
    // so they default to the geometric fast path; `--injection bernoulli`
    // restores the per-cycle process for apples-to-apples comparisons.
    let injection = args.parse_flag("injection", InjectionProcess::Geometric)?;
    let out_dir = args.value("out");
    if let Some(dir) = out_dir {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create --out directory {dir}: {e}"))?;
    }
    let mut blocks = Vec::with_capacity(ids.len());
    for id in ids {
        let block = experiments::run(id, fast, injection, metrics)
            .ok_or_else(|| format!("unknown experiment '{id}'"))?;
        if let Some(dir) = out_dir {
            let path = format!("{dir}/{id}.md");
            std::fs::write(&path, &block).map_err(|e| format!("cannot write {path}: {e}"))?;
        }
        blocks.push(block);
    }
    // Every block ends in one newline: `main`'s println! ends the last.
    Ok(blocks.join("\n"))
}

/// `obm experiments trace|heatmap <spec>`: the JSON(-lines) telemetry of
/// one simulated mapping, printed or written to `--out FILE`. The
/// simulation reports into `metrics`, as `simulate` does.
fn telemetry_command(cmd: &str, args: &Args, metrics: &MetricsHandle) -> Result<String, String> {
    let spec = read_spec(cmd, args)?;
    let algo = args.value("algo").unwrap_or("sss");
    let seed = args.parse_flag::<u64>("seed", 0)?;
    let cycles = args.parse_flag::<u64>("cycles", 20_000)?;
    let layout = layout_flags(args);
    let out = if cmd == "experiments heatmap" {
        commands::heatmap_command(
            &spec,
            algo,
            seed,
            cycles,
            args.switch("json"),
            layout,
            metrics,
        )?
    } else {
        let window = args.parse_flag::<u64>("window", 1_000)?;
        if args.switch("chrome") {
            commands::chrome_trace_command(&spec, algo, seed, cycles, window, layout, metrics)?
        } else {
            commands::trace_command(&spec, algo, seed, cycles, window, layout, metrics)?
        }
    };
    match args.value("out") {
        Some(path) => {
            std::fs::write(path, &out).map_err(|e| format!("cannot write {path}: {e}"))?;
            Ok(format!(
                "wrote {} JSON lines to {path}",
                out.lines().count()
            ))
        }
        // The JSON(-lines) output may end in a newline; trim it so main's
        // println! doesn't add a blank trailing line.
        None => Ok(out.trim_end().to_string()),
    }
}

fn run_command(cmd: &str, args: &Args, metrics: &MetricsHandle) -> Result<String, String> {
    let spec = || read_spec(cmd, args);
    match cmd {
        "gen" => {
            let cfg = args
                .positional
                .first()
                .ok_or("gen needs a configuration name (C1..C8)")?;
            commands::generate(cfg, args.opt_parse_flag::<u64>("seed")?)
        }
        "map" => commands::map_command(
            &spec()?,
            args.value("algo").unwrap_or("sss"),
            args.parse_flag::<u64>("seed", 0)?,
            args.switch("grid"),
            args.value("objective").unwrap_or("min-max-apl"),
            layout_flags(args),
        ),
        "eval" => {
            let spec = spec()?;
            let mapping = read(args.positional.get(1).ok_or("eval needs a mapping file")?)?;
            let objective = args.value("objective").unwrap_or("min-max-apl");
            commands::eval_command(&spec, &mapping, objective, layout_flags(args))
        }
        "simulate" => commands::simulate_command(
            &spec()?,
            args.value("algo").unwrap_or("sss"),
            args.parse_flag::<u64>("seed", 0)?,
            args.parse_flag::<u64>("cycles", 50_000)?,
            layout_flags(args),
            metrics,
        ),
        "experiments" => experiments_command(args, metrics),
        "experiments trace" | "experiments heatmap" => telemetry_command(cmd, args, metrics),
        "exact" => commands::exact_command(&spec()?, args.parse_flag::<u64>("budget", 20_000_000)?),
        "solve" => {
            let spec = spec()?;
            // `--portfolio` is an explicit spelling of the default line-up,
            // which depends on `--objective`.
            let algos = if args.switch("portfolio") {
                "portfolio"
            } else {
                args.value("algos").unwrap_or("portfolio")
            };
            let resume_text = args.value("resume").map(read).transpose()?;
            let solve_args = commands::SolveArgs {
                algos,
                seeds: args.value("seeds").unwrap_or("0,1,2,3"),
                deadline_ms: args.opt_parse_flag::<u64>("deadline-ms")?,
                max_evals: args.opt_parse_flag::<u64>("max-evals")?,
                workers: args.opt_parse_flag::<usize>("workers")?,
                aggressive: args.switch("aggressive"),
                objective: args.value("objective").unwrap_or("min-max-apl"),
                resume_json: resume_text.as_deref(),
                layout: layout_flags(args),
                metrics: metrics.clone(),
            };
            let (report, checkpoint) = commands::solve_command(&spec, &solve_args)?;
            if let Some(path) = args.value("checkpoint") {
                std::fs::write(path, format!("{checkpoint}\n"))
                    .map_err(|e| format!("cannot write {path}: {e}"))?;
            }
            Ok(report)
        }
        "place" => {
            let place_args = commands::PlaceArgs {
                controllers: args.parse_flag::<usize>("controllers", 4)?,
                topology: args.value("topology").unwrap_or("mesh"),
                exhaustive: args.switch("exhaustive"),
                annealed: args.opt_parse_flag::<usize>("annealed")?,
                seed: args.parse_flag::<u64>("seed", 1)?,
                portfolio: args.switch("portfolio"),
                workers: args.opt_parse_flag::<usize>("workers")?,
                grid: args.switch("grid"),
                metrics: metrics.clone(),
            };
            commands::place_command(&spec()?, &place_args)
        }
        "latency" => commands::latency_command(
            args.parse_flag::<usize>("mesh", 8)?,
            args.value("controllers").unwrap_or("corners"),
        ),
        "status" => commands::status_command(&args.positional),
        // `help`: `grammar` admits no other command.
        _ => Ok(usage().to_string()),
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
        let mut raw = vec!["gen".to_string()];
        raw.extend(argv.iter().map(|a| a.to_string()));
        let (cmd, args) = parse_command_line(raw)?;
        run_command(&cmd, &args, &MetricsHandle::disabled())
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
