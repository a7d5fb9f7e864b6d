//! One module per table/figure of the paper. Each `run` returns the
//! formatted output block; `obm experiments <id>...` looks the id up in
//! [`ALL`] and prints it.

pub mod ablation;
pub mod fig12;
pub mod fig3;
pub mod fig3sim;
pub mod fig4;
pub mod fig5;
pub mod fig8;
pub mod firstprinciples;
pub mod lineup_views;
pub mod loadcurve;
pub mod nocparams;
pub mod optgap;
pub mod oversub;
pub mod placement;
pub mod queueing;
pub mod scaling;
pub mod table1;
pub mod table3;
pub mod tails;
pub mod torus;
pub mod validate;
pub mod weighted;

/// How [`ALL`] runs one experiment: `fast` trims sample counts /
/// simulated cycles so the full suite stays CI-friendly; `injection` is
/// the traffic-source process of the simulator sweeps (`loadcurve`,
/// `validate`, `tails`; ids pinned to the default Bernoulli stream ignore
/// it); `validate` reports into `metrics`.
pub type Run = fn(bool, noc_sim::InjectionProcess, &noc_metrics::MetricsHandle) -> String;

/// Every experiment, id and runner: the paper's tables/figures in order,
/// then the validation pass and this repo's extension studies.
pub const ALL: &[(&str, Run)] = &[
    ("table1", |fast, _, _| table1::run(fast)),
    ("table3", |_, _, _| table3::run()),
    ("table4", |_, _, _| lineup_views::run_table4()),
    ("fig3", |_, _, _| fig3::run()),
    ("fig4", |_, _, _| fig4::run()),
    ("fig5", |_, _, _| fig5::run()),
    ("fig8", |_, _, _| fig8::run()),
    ("fig9", |_, _, _| lineup_views::run_fig9()),
    ("fig10", |_, _, _| lineup_views::run_fig10()),
    ("fig11", |_, _, _| lineup_views::run_fig11()),
    ("fig12", |fast, _, _| fig12::run(fast)),
    ("validate", validate::run),
    ("ablation", |_, _, _| ablation::run()),
    ("loadcurve", |fast, injection, _| {
        loadcurve::run(fast, injection)
    }),
    ("scaling", |fast, _, _| scaling::run(fast)),
    ("weighted", |_, _, _| weighted::run()),
    ("torus", |_, _, _| torus::run()),
    ("firstprinciples", |fast, _, _| firstprinciples::run(fast)),
    ("optgap", |fast, _, _| optgap::run(fast)),
    ("queueing", |fast, _, _| queueing::run(fast)),
    ("fig3sim", |fast, _, _| fig3sim::run(fast)),
    ("oversub", |_, _, _| oversub::run()),
    ("nocparams", |fast, _, _| nocparams::run(fast)),
    ("tails", |fast, injection, _| tails::run(fast, injection)),
    ("placement", |fast, _, _| placement::run(fast)),
];

/// Run one experiment by id (`None` for an unknown id), counting the run
/// under `experiment_runs_total` in `metrics` (DESIGN.md §17).
pub fn run(
    id: &str,
    fast: bool,
    injection: noc_sim::InjectionProcess,
    metrics: &noc_metrics::MetricsHandle,
) -> Option<String> {
    let (_, run) = ALL.iter().find(|(name, _)| *name == id)?;
    let out = run(fast, injection, metrics);
    metrics.inc("experiment_runs_total");
    Some(out)
}
