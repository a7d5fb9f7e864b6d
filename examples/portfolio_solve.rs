//! Racing the solver portfolio — the `SolveRequest`/`SolveOutcome` API.
//!
//! Builds a paper C1 instance (8×8 mesh, four 16-thread applications),
//! races the default min-max line-up across four workers under a
//! wall-clock deadline, prints the per-task scoreboard, and then resumes
//! the run from its own checkpoint to show that injected results replace
//! re-running.
//!
//! ```text
//! cargo run --release --example portfolio_solve
//! ```

use std::time::{Duration, Instant};

use obm::model::{Mesh, TileLatencies};
use obm::prelude::{Algorithm, ObmInstance, SolveRequest, Termination};
use obm::workload::{PaperConfig, WorkloadBuilder};

fn main() {
    let (workload, _) = WorkloadBuilder::paper(PaperConfig::C1).build();
    let mesh = Mesh::square(8);
    let tiles = TileLatencies::paper_default(&mesh);
    let (c, m) = workload.rate_vectors();
    let inst = ObmInstance::new(tiles, workload.boundaries(), c, m);

    println!("Racing the default portfolio on C1 (8×8, 64 threads)...\n");
    let started = Instant::now();
    let outcome = SolveRequest::builder(&inst)
        .algorithms(Algorithm::default_portfolio())
        .seeds([1, 2, 3])
        .workers(4)
        .deadline(Duration::from_secs(30))
        .build()
        .expect("valid request")
        .solve();
    let elapsed = started.elapsed();

    println!(
        "termination: {} | {} of {} tasks finished | {:.2?} wall-clock",
        outcome.termination,
        outcome.completed_tasks(),
        outcome.stats.len(),
        elapsed
    );
    println!(
        "winner: {} (seed {}) with max-APL {:.4}\n",
        outcome.winner, outcome.winner_seed, outcome.objective
    );
    println!(
        "{:>5} {:<8} {:>5} {:>10}  objective",
        "task", "algo", "seed", "evals"
    );
    for s in &outcome.stats {
        match s.objective {
            Some(v) => println!(
                "{:>5} {:<8} {:>5} {:>10}  {v:.4}",
                s.task, s.algo, s.seed, s.evaluations
            ),
            None => println!(
                "{:>5} {:<8} {:>5} {:>10}  (did not finish)",
                s.task, s.algo, s.seed, s.evaluations
            ),
        }
    }

    // Resume from the checkpoint: every completed task is injected, so
    // the re-run returns the identical winner without re-searching.
    let resumed_start = Instant::now();
    let resumed = SolveRequest::builder(&inst)
        .algorithms(Algorithm::default_portfolio())
        .seeds([1, 2, 3])
        .workers(4)
        .deadline(Duration::from_secs(30))
        .resume(outcome.checkpoint.clone())
        .build()
        .expect("valid request")
        .solve();
    println!(
        "\nresume from checkpoint: {} in {:.2?} (winner {} at {:.4}, identical: {})",
        match resumed.termination {
            Termination::Completed => "completed",
            _ => "partial",
        },
        resumed_start.elapsed(),
        resumed.winner,
        resumed.objective,
        resumed.mapping.as_slice() == outcome.mapping.as_slice()
    );
}
