//! **Ablation** (extension beyond the paper) — quantify the design choices
//! Algorithm 2 fixes without exploring: the sliding-window size, the
//! middle-of-section selection rule, the step-size schedule, and the final
//! Hungarian pass. Averaged over C1–C8.

use crate::harness::all_paper_instances;
use crate::table::{f, MarkdownTable};
use obm_core::algorithms::sss::{SelectionRule, SortSelectSwap};
use obm_core::algorithms::{BalancedGreedy, HybridSssSa, Mapper, OBJECTIVE_REFINE_PASSES};
use obm_core::{evaluate, refine_for_objective, MinMaxApl, ObmInstance};

struct Variant {
    name: &'static str,
    cfg: SortSelectSwap,
}

fn variants() -> Vec<Variant> {
    let base = SortSelectSwap::default();
    vec![
        Variant {
            name: "paper default (w=4, middle, final SAM)",
            cfg: base,
        },
        Variant {
            name: "no swap step (w=1)",
            cfg: SortSelectSwap { window: 1, ..base },
        },
        Variant {
            name: "window w=2",
            cfg: SortSelectSwap { window: 2, ..base },
        },
        Variant {
            name: "window w=3",
            cfg: SortSelectSwap { window: 3, ..base },
        },
        Variant {
            name: "window w=5",
            cfg: SortSelectSwap { window: 5, ..base },
        },
        Variant {
            name: "select first-of-section",
            cfg: SortSelectSwap {
                selection: SelectionRule::First,
                ..base
            },
        },
        Variant {
            name: "select last-of-section",
            cfg: SortSelectSwap {
                selection: SelectionRule::Last,
                ..base
            },
        },
        Variant {
            name: "no final SAM pass",
            cfg: SortSelectSwap {
                final_sam: false,
                ..base
            },
        },
        Variant {
            name: "step size capped at 1",
            cfg: SortSelectSwap {
                max_step: Some(1),
                ..base
            },
        },
        Variant {
            name: "step size capped at 4",
            cfg: SortSelectSwap {
                max_step: Some(4),
                ..base
            },
        },
    ]
}

pub fn run() -> String {
    let instances = all_paper_instances();
    let mut t = MarkdownTable::new(vec![
        "variant",
        "max-APL (avg)",
        "dev-APL (avg)",
        "g-APL (avg)",
    ]);
    let mut emit = |name: &str, mapper: &dyn Fn(&ObmInstance) -> obm_core::Mapping| {
        let mut max_apl = 0.0;
        let mut dev = 0.0;
        let mut g = 0.0;
        for pi in &instances {
            let r = evaluate(&pi.instance, &mapper(&pi.instance));
            max_apl += r.max_apl;
            dev += r.dev_apl;
            g += r.g_apl;
        }
        let n = instances.len() as f64;
        t.row(vec![name.to_string(), f(max_apl / n), f(dev / n), f(g / n)]);
    };
    for v in variants() {
        emit(v.name, &|inst| v.cfg.map(inst, 0));
    }
    // Structural comparison points outside the SSS family.
    emit("balanced greedy dealing (O(N log N))", &|inst| {
        BalancedGreedy.map(inst, 0)
    });
    // The pairwise-exchange search under the paper's objective.
    emit("SSS + swap-polish pass", &|inst| {
        let sss = SortSelectSwap::default().map(inst, 0);
        refine_for_objective(inst, sss, &MinMaxApl, OBJECTIVE_REFINE_PASSES)
    });
    emit("SSS + cold SA refinement (20k moves)", &|inst| {
        HybridSssSa::default().map(inst, 0)
    });
    format!(
        "## Ablation — SSS design choices (averaged over C1–C8)\n\n{}",
        t.render()
    )
}

#[cfg(test)]
mod tests {
    /// Every row is deterministic, so the table is pinned byte for byte
    /// (`obm experiments ablation` prints it with a trailing newline).
    #[test]
    fn ablation_runs() {
        let out = super::run() + "\n";
        assert_eq!(out, include_str!("ablation.golden.md"));
    }
}
