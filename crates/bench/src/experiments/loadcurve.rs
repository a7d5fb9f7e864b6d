//! **Load curve** (extension) — the classic NoC latency-vs-offered-load
//! characterization of the simulated network, plus an XY-vs-YX routing
//! check. Establishes that the paper's Table 3 loads (≈2–11 cache requests
//! per kilocycle per tile) sit far below saturation, which is why `td_q`
//! stays in the 0–1 cycle band and the analytic model is valid.

use crate::pool;
use crate::table::{f, MarkdownTable};
use noc_model::Mesh;
use noc_sim::config::RoutingKind;
use noc_sim::telemetry::{Phase, RingSink};
use noc_sim::{InjectionProcess, Network, Schedule, SimConfig, TrafficSpec};

fn uniform_traffic(mesh: &Mesh, cache_per_kcycle: f64) -> TrafficSpec {
    TrafficSpec::uniform(
        mesh,
        Schedule::per_kilocycle(cache_per_kcycle),
        Schedule::per_kilocycle(cache_per_kcycle * 0.15),
    )
}

/// One sweep point, probed: the report plus the peak measure-window
/// buffered-flit occupancy (a transient the end-of-run peak counter
/// conflates with warmup/drain; the windowed series separates it) and the
/// exact nearest-rank p99 latency from the end-of-run flow summary.
fn run_point(
    rate: f64,
    routing: RoutingKind,
    cycles: u64,
    injection: InjectionProcess,
) -> (noc_sim::SimReport, usize, u64) {
    let mesh = Mesh::square(8);
    let mut cfg = SimConfig::paper_defaults(mesh);
    cfg.warmup_cycles = cycles / 10;
    cfg.measure_cycles = cycles;
    cfg.max_drain_cycles = 4 * cycles;
    cfg.routing = routing;
    cfg.seed = 5;
    cfg.injection = injection;
    let mut sink = RingSink::new(4096);
    let report = Network::new(cfg, uniform_traffic(&mesh, rate))
        .expect("valid scenario")
        .run_probed(&mut sink);
    let peak_window_buffered = sink
        .windows()
        .filter(|w| w.phase == Phase::Measure)
        .map(|w| w.buffered_flits)
        .max()
        .unwrap_or(0);
    let p99 = sink
        .flow_summaries()
        .next()
        .and_then(|flow| flow.merged().histogram.quantile(0.99))
        .unwrap_or(0);
    (report, peak_window_buffered, p99)
}

/// The points are latency *statistics* at an offered load, not seeded
/// replays, so the geometric fast path's different RNG stream (the CLI's
/// default `injection`) is free speedup.
pub fn run(fast: bool, injection: InjectionProcess) -> String {
    let cycles: u64 = if fast { 10_000 } else { 40_000 };
    let rates: &[f64] = if fast {
        &[4.0, 16.0, 48.0]
    } else {
        // 0.25 is the near-idle anchor where the geometric fast path's
        // event-horizon skipping dominates (cf. perfbench's `sim_paper`).
        &[0.25, 2.0, 4.0, 8.0, 16.0, 24.0, 32.0, 48.0, 64.0, 96.0]
    };
    let mut t = MarkdownTable::new(vec![
        "cache req/kcycle/tile",
        "g-APL (cycles)",
        "exact p99",
        "td_q (cycles)",
        "link util",
        "peak buffered flits",
        "peak measure-window buffered",
    ]);
    // Each sweep point is an independent seeded simulation, work-stolen
    // across the shared pool; slot-ordered results keep the row order
    // identical to the serial version. The XY/YX ablation runs ride along
    // as the last two grid items.
    let mut reports = pool::run_indexed(rates.len() + 2, |i| {
        if i < rates.len() {
            run_point(rates[i], RoutingKind::Xy, cycles, injection)
        } else if i == rates.len() {
            run_point(8.0, RoutingKind::Xy, cycles, injection)
        } else {
            run_point(8.0, RoutingKind::Yx, cycles, injection)
        }
    });
    let yx = reports.pop().expect("grid includes the YX ablation point");
    let xy = reports.pop().expect("grid includes the XY ablation point");
    for (&r, (rep, peak_window, p99)) in rates.iter().zip(&reports) {
        t.row(vec![
            format!("{r}"),
            f(rep.g_apl()),
            format!("{p99}"),
            f(rep.mean_td_q()),
            format!("{:.3}", rep.network.mean_link_utilization()),
            format!("{}", rep.network.peak_buffered_flits),
            format!("{peak_window}"),
        ]);
    }
    // Routing ablation at a paper-scale load: XY vs YX must agree on a
    // symmetric uniform workload.
    format!(
        "## Load curve (extension) — 8×8 mesh, uniform traffic, {injection:?} injection\n\n{}\n\
         Routing ablation at 8 req/kcycle: XY g-APL {} vs YX g-APL {} \
         (symmetric workload ⇒ statistically equal).\n\
         Paper-scale loads (2–11 req/kcycle) sit far below saturation — the basis for the td_q ≈ 0 analytic arrays.\n",
        t.render(),
        f(xy.0.g_apl()),
        f(yx.0.g_apl()),
    )
}

#[cfg(test)]
mod tests {
    #[test]
    #[ignore = "runs the cycle-level simulator; exercised by `experiments loadcurve`"]
    fn loadcurve_runs() {
        let out = super::run(true, noc_sim::InjectionProcess::Geometric);
        assert!(out.contains("Load curve"));
    }
}
