//! Which portfolio members earn their place: the study behind the
//! win-share and CPU-share table in DESIGN.md §10.5.
//!
//! Races the five-member line-up (SSS, SSS+SA, SA, greedy, MC; seeds
//! 0–3, one worker so task wall times do not overlap) on the C1–C8
//! workloads under workload seeds 1, 2014 and 100–119, for every
//! objective, on the paper's 8×8 chip and on a 9×9 chip with 17 spare
//! tiles, and under a `--max-evals` budget of 520 000. For each scenario it
//! prints how often each member wins the race, its share of the race's
//! task wall time (the `portfolio/task/*` spans of a metrics registry all
//! the scenario's races report into), and for the min-max objective how
//! far the best MC task ended above the winner. MC ranks last, so a
//! scenario whose MC column reads 0 wins races exactly the same without
//! it.
//!
//! ```text
//! cargo run --release --example portfolio_lineup_study
//! ```

use obm::mapping::algorithms::MonteCarlo;
use obm::model::{Mesh, TileLatencies};
use obm::prelude::{Algorithm, MetricsRegistry, ObjectiveSpec, ObmInstance, SolveRequest};
use obm::workload::{PaperConfig, WorkloadBuilder};

const MEMBERS: [&str; 5] = ["SSS", "SSS+SA", "SA", "Greedy", "MC"];

fn five_member() -> Vec<Algorithm> {
    let mut line_up = Algorithm::default_portfolio();
    line_up.push(Algorithm::MonteCarlo(MonteCarlo {
        workers: 1,
        ..MonteCarlo::default()
    }));
    line_up
}

fn instance(cfg: PaperConfig, seed: u64, mesh_side: usize) -> ObmInstance {
    let (workload, _) = WorkloadBuilder::paper(cfg).seed(seed).build();
    let (c, m) = workload.rate_vectors();
    ObmInstance::new(
        TileLatencies::paper_default(&Mesh::square(mesh_side)),
        workload.boundaries(),
        c,
        m,
    )
}

#[derive(Default)]
struct Tally {
    races: usize,
    wins: [usize; 5],
    nanos: [u64; 5],
    /// Smallest and largest gap, in percent, of the best MC task above
    /// the winner.
    mc_gap: Option<(f64, f64)>,
}

fn member(name: &str) -> usize {
    MEMBERS
        .iter()
        .position(|&m| m == name)
        .expect("five-member line-up")
}

fn study(mesh_side: usize, objective: ObjectiveSpec, max_evals: Option<u64>) -> Tally {
    let seeds: Vec<u64> = [1, 2014].into_iter().chain(100..120).collect();
    let mut tally = Tally::default();
    let registry = MetricsRegistry::new();
    for cfg in PaperConfig::ALL {
        for &seed in &seeds {
            let inst = instance(cfg, seed, mesh_side);
            let mut builder = SolveRequest::builder(&inst)
                .algorithms(five_member())
                .seeds([0, 1, 2, 3])
                .objective(objective)
                .workers(1)
                .metrics(registry.handle());
            if let Some(evals) = max_evals {
                builder = builder.max_evaluations(evals);
            }
            let out = builder.build().expect("valid request").solve();
            tally.races += 1;
            tally.wins[member(out.winner)] += 1;
            let best_mc = out
                .stats
                .iter()
                .filter(|s| s.algo == "MC")
                .filter_map(|s| s.objective)
                .fold(f64::INFINITY, f64::min);
            if objective.is_min_max_apl() && best_mc.is_finite() {
                let gap = (best_mc / out.objective - 1.0) * 100.0;
                let (lo, hi) = tally.mc_gap.unwrap_or((gap, gap));
                tally.mc_gap = Some((lo.min(gap), hi.max(gap)));
            }
        }
    }
    // Each span sums one task identity's runs over every race above.
    for (path, span) in &registry.snapshot().spans {
        if let Some((algo, _seed)) = path
            .strip_prefix("portfolio/task/")
            .and_then(|task| task.rsplit_once("-s"))
        {
            tally.nanos[member(algo)] += span.total_nanos;
        }
    }
    tally
}

fn main() {
    println!(
        "| chip | objective | budget | races | wins SSS / SSS+SA / SA / Greedy / MC \
         | CPU share SSS / SSS+SA / SA / Greedy / MC | best MC above winner |"
    );
    println!("|---|---|---|---|---|---|---|");
    let scenarios = [
        (8, ObjectiveSpec::MinMaxApl, None),
        (8, ObjectiveSpec::MaxMinBalance, None),
        (8, ObjectiveSpec::Energy, None),
        (9, ObjectiveSpec::MinMaxApl, None),
        (9, ObjectiveSpec::MaxMinBalance, None),
        (9, ObjectiveSpec::Energy, None),
        (8, ObjectiveSpec::MinMaxApl, Some(520_000)),
    ];
    for (side, objective, budget) in scenarios {
        let t = study(side, objective, budget);
        let total: u64 = t.nanos.iter().sum();
        let wins: Vec<String> = t.wins.iter().map(usize::to_string).collect();
        let share: Vec<String> = t
            .nanos
            .iter()
            .map(|&n| format!("{:.0}%", 100.0 * n as f64 / total as f64))
            .collect();
        println!(
            "| {side}×{side} | {} | {} | {} | {} | {} | {} |",
            objective.name(),
            budget.map_or("full".to_string(), |b| b.to_string()),
            t.races,
            wins.join(" / "),
            share.join(" / "),
            t.mc_gap
                .map_or("–".to_string(), |(lo, hi)| format!("{lo:.2}–{hi:.2}%")),
        );
    }
}
