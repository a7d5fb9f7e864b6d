//! Regenerate the paper's tables and figures.
//!
//! ```text
//! experiments <id>... [--fast] [--out DIR] [--injection bernoulli|geometric]
//! experiments all [--fast] [--out DIR] [--injection bernoulli|geometric]
//! experiments list
//! ```
//!
//! With `--out DIR`, each experiment's block is additionally written to
//! `DIR/<id>.md` (the directory is created if missing).
//!
//! `--injection` selects the traffic-source process for the
//! simulator-sweep experiments (loadcurve, validate, tails); sweeps
//! default to the geometric fast path. Seeded-replay experiments ignore
//! the flag. Worker threads for the sweep grid come from `OBM_WORKERS`
//! (default: all detected cores).
//!
//! Any other `--` option, or an option missing its value, is a usage
//! error (exit code 2).
//!
//! Paper ids: table1, table3, table4, fig3, fig4, fig5, fig8, fig9,
//! fig10, fig11, fig12, validate. Extension ids: ablation, loadcurve,
//! scaling, weighted, torus, firstprinciples, optgap, queueing, fig3sim,
//! oversub, nocparams, tails.

#![forbid(unsafe_code)]

use noc_sim::InjectionProcess;
use obm_bench::experiments;

const USAGE: &str =
    "usage: experiments <id>...|all [--fast] [--out DIR] [--injection bernoulli|geometric]";

/// Parsed command line.
struct Cli {
    fast: bool,
    out_dir: Option<String>,
    injection: InjectionProcess,
    ids: Vec<String>,
}

/// Parse the arguments after the program name. Unknown options and
/// options without their value are usage errors.
fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        fast: false,
        out_dir: None,
        injection: InjectionProcess::Geometric,
        ids: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--fast" => cli.fast = true,
            "--out" => {
                let dir = it.next().ok_or("--out: missing directory")?;
                cli.out_dir = Some(dir.clone());
            }
            "--injection" => {
                let v = it.next().ok_or("--injection: missing process")?;
                cli.injection = v.parse().map_err(|e| format!("--injection: {e}"))?;
            }
            opt if opt.starts_with("--") => return Err(format!("unknown option '{opt}'")),
            id => cli.ids.push(id.to_string()),
        }
    }
    Ok(cli)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Cli {
        fast,
        out_dir,
        injection,
        ids,
    } = match parse(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("experiments: {e}");
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    };
    let ids: Vec<&str> = ids.iter().map(String::as_str).collect();
    if let Some(dir) = &out_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create --out directory {dir}: {e}");
            std::process::exit(2);
        }
    }

    if ids.is_empty() || ids == ["list"] {
        eprintln!("{USAGE}");
        eprintln!("available experiments:");
        for id in experiments::ALL {
            eprintln!("  {id}");
        }
        std::process::exit(if ids.is_empty() { 2 } else { 0 });
    }

    let selected: Vec<&str> = if ids == ["all"] {
        experiments::ALL.to_vec()
    } else {
        ids
    };

    for id in selected {
        match experiments::run_with(id, fast, injection) {
            Some(output) => {
                println!("{output}");
                if let Some(dir) = &out_dir {
                    let path = format!("{dir}/{id}.md");
                    if let Err(e) = std::fs::write(&path, &output) {
                        eprintln!("cannot write {path}: {e}");
                        std::process::exit(2);
                    }
                }
            }
            None => {
                eprintln!("unknown experiment '{id}' — try `experiments list`");
                std::process::exit(2);
            }
        }
    }
}
