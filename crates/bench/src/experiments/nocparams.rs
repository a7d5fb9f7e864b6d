//! **NoC parameter ablation** (extension) — how sensitive is the paper's
//! "td_q ≈ 0–1 cycles" operating point to the router's provisioning?
//! Sweeps virtual channels per class and input-buffer depth at C1-scale
//! uniform load on the cycle-level simulator.

use crate::pool;
use crate::table::{f, MarkdownTable};
use noc_model::Mesh;
use noc_sim::{Network, Schedule, SimConfig, TrafficSpec};

fn run_point(vcs: usize, depth: usize, cycles: u64) -> noc_sim::SimReport {
    let mesh = Mesh::square(8);
    let cfg = SimConfig {
        vcs_per_class: vcs,
        buffer_depth: depth,
        warmup_cycles: cycles / 10,
        measure_cycles: cycles,
        max_drain_cycles: 10 * cycles,
        seed: 31,
        ..SimConfig::paper_defaults(mesh)
    };
    let traffic = TrafficSpec::uniform(
        &mesh,
        Schedule::per_kilocycle(7.0), // C1 scale
        Schedule::per_kilocycle(0.9),
    );
    Network::new(cfg, traffic).expect("valid scenario").run()
}

pub fn run(fast: bool) -> String {
    let cycles = if fast { 8_000 } else { 30_000 };
    let mut t = MarkdownTable::new(vec![
        "VCs/class",
        "buffer depth",
        "g-APL",
        "td_q",
        "drained",
    ]);
    let points: &[(usize, usize)] = if fast {
        &[(1, 2), (3, 5)]
    } else {
        &[
            (1, 2),
            (1, 5),
            (2, 5),
            (3, 2),
            (3, 5), // the paper's Table 2 point
            (3, 8),
            (4, 8),
        ]
    };
    // Independent seeded sims, work-stolen across the shared pool;
    // slot-ordered results keep the table rows matching the serial
    // version.
    let reports = pool::run_indexed(points.len(), |i| {
        let (vcs, depth) = points[i];
        run_point(vcs, depth, cycles)
    });
    for (&(vcs, depth), r) in points.iter().zip(&reports) {
        t.row(vec![
            format!("{vcs}"),
            format!("{depth}"),
            f(r.g_apl()),
            f(r.mean_td_q()),
            if r.fully_drained { "yes" } else { "NO" }.to_string(),
        ]);
    }
    format!(
        "## NoC parameter ablation (extension) — VCs and buffers at C1-scale load\n\n{}\n\
         At the paper's loads the network is so far from saturation that even a\n\
         1-VC, 2-flit-buffer router keeps td_q well under a cycle — Table 2's\n\
         3-VC/5-flit provisioning is comfortable, and the mapping conclusions do\n\
         not hinge on router generosity.\n",
        t.render()
    )
}

#[cfg(test)]
mod tests {
    #[test]
    #[ignore = "runs the cycle-level simulator; exercised by `experiments nocparams`"]
    fn nocparams_runs() {
        let out = super::run(true);
        assert!(out.contains("NoC parameter"));
    }
}
