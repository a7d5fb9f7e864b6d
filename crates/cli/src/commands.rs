//! CLI command implementations, kept pure (string in → string out) so the
//! tests can drive them without a process boundary.

use crate::spec::{spec_from_workload, ControllerSpec, InstanceSpec};
use noc_metrics::{per_sec, MetricsHandle, MetricsSnapshot};
use noc_model::{
    ChipLayout, LatencyParams, MemoryControllers, Mesh, TileId, TileLatencies, Topology,
};
use noc_sim::telemetry::heatmap::{PORT_EAST, PORT_NORTH, PORT_SOUTH, PORT_WEST};
use noc_sim::telemetry::json::Value;
use noc_sim::telemetry::{
    FlowAccum, JsonLinesSink, PacketRecord, Record, RingSink, Sink, WindowRecord,
};
use noc_sim::{Network, SimConfig};
use obm_core::algorithms::{
    BalancedGreedy, BranchAndBound, Global, HybridSssSa, Mapper, MonteCarlo, RandomMapper,
    SimulatedAnnealing, SortSelectSwap,
};
use obm_core::{
    evaluate, Mapping, MappingError, ObjectiveSpec, ObmInstance, PlacementOptions, SearchMode,
};
use obm_portfolio::{Algorithm, Checkpoint, SolveBudget, SolveRequest, SolveStats};
use workload::{PaperConfig, WorkloadBuilder};

/// Layout flags shared by every spec-driven command: `--topology` picks
/// mesh or torus links, `--mcs` overrides the spec's controller
/// placement. Both default to the spec itself, keeping flag-free
/// invocations byte-identical to the pre-layout CLI.
#[derive(Clone, Copy, Default)]
pub struct LayoutFlags<'a> {
    /// `--topology mesh|torus` (None = spec default, mesh).
    pub topology: Option<&'a str>,
    /// `--mcs corners|edge-centers|custom:<k1,k2,...>` (None = spec).
    pub mcs: Option<&'a str>,
}

impl LayoutFlags<'_> {
    /// Apply the overrides to a parsed spec, returning the (possibly
    /// rewritten) spec and the chip layout commands should solve on.
    fn apply(&self, mut spec: InstanceSpec) -> Result<(InstanceSpec, ChipLayout), String> {
        let topology: Topology = match self.topology {
            Some(text) => text.parse().map_err(|e| format!("--topology: {e}"))?,
            None => Topology::Mesh,
        };
        if let Some(text) = self.mcs {
            let controllers: ControllerSpec = text.parse().map_err(|e| format!("--mcs: {e}"))?;
            spec.set_controllers(controllers)
                .map_err(|e| format!("--mcs: {e}"))?;
        }
        let layout = spec.chip_layout(topology);
        Ok((spec, layout))
    }
}

/// Resolve an algorithm name to a mapper.
pub fn mapper_by_name(name: &str) -> Result<Box<dyn Mapper>, String> {
    Ok(match name {
        "sss" => Box::new(SortSelectSwap::default()),
        "global" => Box::new(Global),
        "mc" => Box::new(MonteCarlo::with_samples(10_000)),
        "sa" => Box::new(SimulatedAnnealing::with_iterations(100_000)),
        "greedy" => Box::new(BalancedGreedy),
        "random" => Box::new(RandomMapper),
        other => {
            return Err(format!(
                "unknown algorithm '{other}' (try sss, global, mc, sa, greedy, random)"
            ))
        }
    })
}

/// `obm gen <C1..C8> [seed]` — emit an instance spec for a paper
/// configuration.
pub fn generate(config: &str, seed: Option<u64>) -> Result<String, String> {
    let cfg = PaperConfig::ALL
        .iter()
        .find(|c| c.name().eq_ignore_ascii_case(config))
        .copied()
        .ok_or_else(|| format!("unknown configuration '{config}' (C1..C8)"))?;
    let mut builder = WorkloadBuilder::paper(cfg);
    if let Some(s) = seed {
        builder = builder.seed(s);
    }
    let (w, _) = builder.build();
    Ok(format!(
        "# generated from paper configuration {} (4 apps x 16 threads, 8x8 mesh)\n{}",
        cfg.name(),
        spec_from_workload(&w, 8, 8).render()
    ))
}

fn report_block(spec: &InstanceSpec, inst: &ObmInstance, mapping: &Mapping) -> String {
    let r = evaluate(inst, mapping);
    let mut out = String::new();
    out.push_str("per-app APL (cycles):\n");
    for (name, apl) in spec.app_names().iter().zip(&r.per_app) {
        out.push_str(&format!("  {name:<20} {apl:.3}\n"));
    }
    out.push_str(&format!(
        "max-APL {:.3} | dev-APL {:.4} | g-APL {:.3}\n",
        r.max_apl, r.dev_apl, r.g_apl
    ));
    out
}

/// Extra report line for non-default objectives (the default min-max APL
/// is already the `max-APL` column, so repeating it would be noise).
fn objective_line(inst: &ObmInstance, mapping: &Mapping, objective: ObjectiveSpec) -> String {
    if objective.is_min_max_apl() {
        String::new()
    } else {
        format!(
            "objective {} = {:.6}\n",
            objective.name(),
            objective.score(inst, mapping)
        )
    }
}

fn mapping_grid(mesh: &Mesh, inst: &ObmInstance, mapping: &Mapping) -> String {
    let inv = mapping.tile_to_thread(inst.num_tiles());
    let mut out = String::new();
    for row in 0..mesh.rows() {
        for col in 0..mesh.cols() {
            let t = mesh.tile(noc_model::Coord::new(row, col));
            match inv[t.index()] {
                Some(j) => out.push_str(&format!("{:>3}", inst.app_of_thread(j) + 1)),
                None => out.push_str("  ."),
            }
        }
        out.push('\n');
    }
    out
}

/// `obm map` — compute a mapping for a spec, optionally optimized for a
/// non-default objective (`--objective`) through
/// [`Mapper::map_objective`], which runs the mapper unmodified under the
/// default `min-max-apl` (bit-identical to the pre-objective CLI).
pub fn map_command(
    spec_text: &str,
    algo: &str,
    seed: u64,
    grid: bool,
    objective: &str,
    layout: LayoutFlags,
) -> Result<String, String> {
    let spec = InstanceSpec::parse(spec_text).map_err(|e| e.to_string())?;
    let objective: ObjectiveSpec = objective.parse()?;
    let (spec, chip) = layout.apply(spec)?;
    let inst = spec.to_instance_for_layout(&chip);
    let mapper = mapper_by_name(algo)?;
    let mapping = mapper.map_objective(&inst, seed, objective.build().as_ref());
    let mut out = String::new();
    out.push_str(&format!("# algorithm: {}\n", mapper.name()));
    if !objective.is_min_max_apl() {
        out.push_str(&format!("# objective: {}\n", objective.name()));
    }
    out.push_str("# thread -> tile (paper 1-based numbering)\n");
    for j in 0..inst.num_threads() {
        out.push_str(&format!("{}\n", mapping.tile_of(j).to_paper()));
    }
    out.push('\n');
    if grid {
        out.push_str("application grid (1 = first declared app):\n");
        out.push_str(&mapping_grid(&spec.mesh(), &inst, &mapping));
        out.push('\n');
    }
    out.push_str(&report_block(&spec, &inst, &mapping));
    out.push_str(&objective_line(&inst, &mapping, objective));
    Ok(out)
}

/// `obm eval` — evaluate an existing mapping (one paper tile number per
/// line, thread order; '#' comments allowed). `--objective` appends that
/// objective's scalar next to the standard APL metrics.
pub fn eval_command(
    spec_text: &str,
    mapping_text: &str,
    objective: &str,
    layout: LayoutFlags,
) -> Result<String, String> {
    let spec = InstanceSpec::parse(spec_text).map_err(|e| e.to_string())?;
    let objective: ObjectiveSpec = objective.parse()?;
    let (spec, chip) = layout.apply(spec)?;
    let inst = spec.to_instance_for_layout(&chip);
    let tiles: Result<Vec<TileId>, String> = mapping_text
        .lines()
        .map(|l| l.split('#').next().unwrap_or("").trim())
        .filter(|l| !l.is_empty())
        .map(|l| {
            let k: usize = l
                .parse()
                .map_err(|e| format!("bad tile number '{l}': {e}"))?;
            if k == 0 || k > inst.num_tiles() {
                return Err(format!("tile {k} out of range 1..={}", inst.num_tiles()));
            }
            Ok(TileId::from_paper(k))
        })
        .collect();
    let tiles = tiles?;
    if tiles.len() != inst.num_threads() {
        return Err(format!(
            "mapping has {} entries for {} threads",
            tiles.len(),
            inst.num_threads()
        ));
    }
    let mapping = Mapping::try_new(tiles, inst.num_tiles()).map_err(|e| match e {
        // Report in the paper's 1-based numbering, like the input.
        MappingError::RepeatedTile { tile } => format!("tile {} assigned twice", tile.to_paper()),
        e => e.to_string(),
    })?;
    Ok(format!(
        "{}{}",
        report_block(&spec, &inst, &mapping),
        objective_line(&inst, &mapping, objective)
    ))
}

/// `obm simulate` — map and replay through the cycle-level simulator.
pub fn simulate_command(
    spec_text: &str,
    algo: &str,
    seed: u64,
    cycles: u64,
    layout: LayoutFlags,
    metrics: &MetricsHandle,
) -> Result<String, String> {
    let spec = InstanceSpec::parse(spec_text).map_err(|e| e.to_string())?;
    let (spec, chip) = layout.apply(spec)?;
    let inst = spec.to_instance_for_layout(&chip);
    let mapper = mapper_by_name(algo)?;
    let mapping = mapper.map(&inst, seed);
    let mut cfg = SimConfig::for_layout(&chip).map_err(|e| format!("invalid layout: {e}"))?;
    cfg.warmup_cycles = (cycles / 10).max(100);
    cfg.measure_cycles = cycles;
    cfg.seed = seed ^ 0xC0FFEE;
    let traffic = obm_core::traffic_spec(&inst, &mapping);
    let report = Network::new(cfg, traffic)
        .map_err(|e| format!("invalid simulation config: {e}"))?
        .with_metrics(metrics.clone())
        .run();
    let analytic = evaluate(&inst, &mapping);
    let mut out = String::new();
    out.push_str(&format!(
        "algorithm {} | {} measured cycles\n",
        mapper.name(),
        cycles
    ));
    out.push_str("per-app APL, analytic vs simulated (cycles):\n");
    for (i, name) in spec.app_names().iter().enumerate() {
        out.push_str(&format!(
            "  {name:<20} {:>8.3} {:>8.3}\n",
            analytic.per_app[i],
            report.groups[i].apl()
        ));
    }
    out.push_str(&format!(
        "g-APL analytic {:.3} vs simulated {:.3} | td_q {:.3} cycles | {}/{} packets{}\n",
        analytic.g_apl,
        report.g_apl(),
        report.mean_td_q(),
        report.delivered,
        report.injected,
        if report.fully_drained {
            ""
        } else {
            " (undrained)"
        }
    ));
    Ok(out)
}

/// `obm experiments trace` — map and simulate a spec, emitting the full
/// telemetry stream as JSON lines (machine-readable): one `meta` header,
/// `solver` events from the mapping search, `window` records from the
/// simulation, and a final `summary` line.
pub fn trace_command(
    spec_text: &str,
    algo: &str,
    seed: u64,
    cycles: u64,
    window: u64,
    layout: LayoutFlags,
    metrics: &MetricsHandle,
) -> Result<String, String> {
    let spec = InstanceSpec::parse(spec_text).map_err(|e| e.to_string())?;
    let (spec, chip) = layout.apply(spec)?;
    let inst = spec.to_instance_for_layout(&chip);
    let mapper = mapper_by_name(algo)?;
    let mesh = spec.mesh();
    let mut cfg = SimConfig::for_layout(&chip).map_err(|e| format!("invalid layout: {e}"))?;
    cfg.warmup_cycles = (cycles / 10).max(100);
    cfg.measure_cycles = cycles;
    cfg.telemetry_window = window;
    cfg.seed = seed ^ 0xC0FFEE;
    cfg.validate()
        .map_err(|e| format!("invalid simulation config: {e}"))?;

    let mut sink = JsonLinesSink::new(Vec::new());
    sink.write_value(&Value::obj([
        ("type", Value::from("meta")),
        ("algo", Value::from(mapper.name())),
        ("seed", Value::from(seed)),
        ("mesh_rows", Value::from(mesh.rows())),
        ("mesh_cols", Value::from(mesh.cols())),
        ("warmup_cycles", Value::from(cfg.warmup_cycles)),
        ("measure_cycles", Value::from(cfg.measure_cycles)),
        ("telemetry_window", Value::from(cfg.telemetry_window)),
        ("threads", Value::from(inst.num_threads())),
        ("apps", Value::from(inst.num_apps())),
    ]));
    let mapping = mapper.map_probed(&inst, seed, &mut sink);
    let traffic = obm_core::traffic_spec(&inst, &mapping);
    let report = Network::new(cfg, traffic)
        .map_err(|e| format!("invalid simulation config: {e}"))?
        .with_metrics(metrics.clone())
        .run_probed(&mut sink);
    sink.write_value(&Value::obj([
        ("type", Value::from("summary")),
        ("cycles_run", Value::from(report.network.cycles_run)),
        ("injected", Value::from(report.injected)),
        ("delivered", Value::from(report.delivered)),
        ("fully_drained", Value::Bool(report.fully_drained)),
        ("g_apl", Value::from(report.g_apl())),
        ("max_apl", Value::from(report.max_apl())),
        ("mean_td_q", Value::from(report.mean_td_q())),
    ]));
    if let Some(e) = sink.error() {
        return Err(format!("telemetry write failed: {e}"));
    }
    let bytes = sink.finish().map_err(|e| format!("flush failed: {e}"))?;
    String::from_utf8(bytes).map_err(|e| format!("non-UTF-8 telemetry: {e}"))
}

/// Port letter for the heatmap's hottest-links table.
fn port_letter(port: usize) -> char {
    match port {
        PORT_NORTH => 'N',
        PORT_SOUTH => 'S',
        PORT_WEST => 'W',
        PORT_EAST => 'E',
        _ => '?',
    }
}

/// One decomposition row of the heatmap report's latency table.
fn decomposition_row(label: &str, a: &FlowAccum) -> String {
    let q = |q: f64| {
        a.histogram
            .quantile(q)
            .map(|v| v.to_string())
            .unwrap_or_else(|| "-".to_string())
    };
    format!(
        "  {label:<8} {:>8} {:>9.3} {:>6} {:>6} {:>6} {:>6} {:>8.3} {:>8.3} {:>8.3}\n",
        a.packets,
        a.histogram.mean(),
        q(0.5),
        q(0.95),
        q(0.99),
        a.histogram
            .max()
            .map(|v| v.to_string())
            .unwrap_or_else(|| "-".to_string()),
        a.mean_source_queue(),
        a.mean_in_network(),
        a.mean_serialization(),
    )
}

/// `obm experiments heatmap` — map a spec, simulate it under a probe and
/// render the end-of-run spatial state: per-link flit traversals as an
/// ASCII mesh with a hottest-links table and per-router stall totals, or
/// (with `--json`) one deterministic JSON object carrying the full
/// [`HeatmapRecord`] and flow decomposition next to the report's
/// `link_flit_traversals`, so consumers can arithmetic-check the link
/// conservation law.
pub fn heatmap_command(
    spec_text: &str,
    algo: &str,
    seed: u64,
    cycles: u64,
    json: bool,
    layout: LayoutFlags,
    metrics: &MetricsHandle,
) -> Result<String, String> {
    let spec = InstanceSpec::parse(spec_text).map_err(|e| e.to_string())?;
    let (spec, chip) = layout.apply(spec)?;
    let inst = spec.to_instance_for_layout(&chip);
    let mapper = mapper_by_name(algo)?;
    let mapping = mapper.map(&inst, seed);
    let mut cfg = SimConfig::for_layout(&chip).map_err(|e| format!("invalid layout: {e}"))?;
    cfg.warmup_cycles = (cycles / 10).max(100);
    cfg.measure_cycles = cycles;
    cfg.seed = seed ^ 0xC0FFEE;
    let traffic = obm_core::traffic_spec(&inst, &mapping);
    let mut sink = RingSink::new(4096);
    let report = Network::new(cfg, traffic)
        .map_err(|e| format!("invalid simulation config: {e}"))?
        .with_metrics(metrics.clone())
        .run_probed(&mut sink);
    let heat = sink
        .heatmaps()
        .next()
        .cloned()
        .ok_or("probed run produced no heatmap record")?;
    let flow = sink
        .flow_summaries()
        .next()
        .cloned()
        .ok_or("probed run produced no flow summary")?;

    if json {
        return Ok(Value::obj([
            ("type", Value::from("heatmap_report")),
            ("algo", Value::from(mapper.name())),
            ("seed", Value::from(seed)),
            ("measure_cycles", Value::from(cycles)),
            ("cycles_run", Value::from(report.network.cycles_run)),
            (
                "link_flit_traversals",
                Value::from(report.network.link_flit_traversals),
            ),
            ("heatmap", heat.to_json()),
            ("flow", flow.to_json()),
        ])
        .to_string());
    }

    let mut out = String::new();
    out.push_str(&format!(
        "algorithm {} | seed {} | {}x{} mesh | {} measured cycles ({} total)\n\n",
        mapper.name(),
        seed,
        heat.rows,
        heat.cols,
        cycles,
        report.network.cycles_run
    ));
    out.push_str("link heatmap (decile digits, 9 = hottest link, . = idle):\n");
    out.push_str(&heat.ascii_mesh());
    out.push('\n');

    let mut links: Vec<_> = heat.links().collect();
    links.sort_by(|a, b| {
        b.flits
            .cmp(&a.flits)
            .then(a.tile.cmp(&b.tile))
            .then(a.port.cmp(&b.port))
    });
    out.push_str("hottest links (flits over all phases):\n");
    for l in links.iter().take(5).filter(|l| l.flits > 0) {
        out.push_str(&format!(
            "  ({},{}) -{}-> ({},{})  {:>10}\n",
            l.tile / heat.cols,
            l.tile % heat.cols,
            port_letter(l.port),
            l.to / heat.cols,
            l.to % heat.cols,
            l.flits
        ));
    }
    let credit: u64 = heat.credit_stalls.iter().sum();
    let vc: u64 = heat.vc_stalls.iter().sum();
    let switch: u64 = heat.switch_stalls.iter().sum();
    out.push_str(&format!(
        "stall cycles: credit {credit} | vc-alloc {vc} | switch-skip {switch}\n\n"
    ));
    out.push_str(
        "latency decomposition (measured packets, cycles):\n  \
         class     packets      mean    p50    p95    p99    max    src-q      net      ser\n",
    );
    out.push_str(&decomposition_row("cache", &flow.cache));
    out.push_str(&decomposition_row("memory", &flow.memory));
    let names = spec.app_names();
    for (g, a) in flow.groups.iter().enumerate() {
        out.push_str(&decomposition_row(
            names.get(g).copied().unwrap_or("app"),
            a,
        ));
    }
    Ok(out)
}

/// Captures per-packet lifecycle records and windows for Chrome-trace
/// export. Opting into packets is what makes the simulator stream one
/// [`PacketRecord`] per delivery.
#[derive(Default)]
struct ChromeCapture {
    packets: Vec<PacketRecord>,
    windows: Vec<WindowRecord>,
}

impl Sink for ChromeCapture {
    fn record(&mut self, record: &Record) {
        match record {
            Record::Packet(p) => self.packets.push(*p),
            Record::Window(w) => self.windows.push(w.clone()),
            _ => {}
        }
    }

    fn wants_packets(&self) -> bool {
        true
    }
}

/// `obm experiments trace --chrome` — simulate a spec and emit a
/// Chrome-trace/Perfetto JSON object (`{"traceEvents": [...]}`).
/// Timestamps and durations are simulated cycles (one "microsecond" per
/// cycle in the viewer). Each delivered packet becomes one complete
/// (`"X"`) event on track `pid = application group`, `tid = source tile`,
/// with the DESIGN.md §12 decomposition in `args`; per-window occupancy
/// becomes counter (`"C"`) events.
pub fn chrome_trace_command(
    spec_text: &str,
    algo: &str,
    seed: u64,
    cycles: u64,
    window: u64,
    layout: LayoutFlags,
    metrics: &MetricsHandle,
) -> Result<String, String> {
    let spec = InstanceSpec::parse(spec_text).map_err(|e| e.to_string())?;
    let (spec, chip) = layout.apply(spec)?;
    let inst = spec.to_instance_for_layout(&chip);
    let mapper = mapper_by_name(algo)?;
    let mapping = mapper.map(&inst, seed);
    let mut cfg = SimConfig::for_layout(&chip).map_err(|e| format!("invalid layout: {e}"))?;
    cfg.warmup_cycles = (cycles / 10).max(100);
    cfg.measure_cycles = cycles;
    cfg.telemetry_window = window;
    cfg.seed = seed ^ 0xC0FFEE;
    let traffic = obm_core::traffic_spec(&inst, &mapping);
    let mut cap = ChromeCapture::default();
    let report = Network::new(cfg, traffic)
        .map_err(|e| format!("invalid simulation config: {e}"))?
        .with_metrics(metrics.clone())
        .run_probed(&mut cap);

    let mut events = Vec::new();
    for (g, name) in spec.app_names().iter().enumerate() {
        events.push(Value::obj([
            ("name", Value::from("process_name")),
            ("ph", Value::from("M")),
            ("pid", Value::from(g)),
            (
                "args",
                Value::obj([("name", Value::Str(format!("app {}: {name}", g + 1)))]),
            ),
        ]));
    }
    for p in &cap.packets {
        events.push(Value::obj([
            (
                "name",
                Value::from(if p.cache { "cache" } else { "memory" }),
            ),
            ("ph", Value::from("X")),
            ("ts", Value::from(p.enqueue_cycle)),
            ("dur", Value::from(p.latency())),
            ("pid", Value::from(p.group)),
            ("tid", Value::from(p.src)),
            (
                "args",
                Value::obj([
                    ("dst", Value::from(p.dst)),
                    ("hops", Value::from(p.hops as u64)),
                    ("flits", Value::from(p.flits as u64)),
                    ("source_queue", Value::from(p.source_queue())),
                    ("in_network", Value::from(p.in_network())),
                    ("serialization", Value::from(p.serialization())),
                    ("measured", Value::Bool(p.measured)),
                ]),
            ),
        ]));
    }
    for w in &cap.windows {
        events.push(Value::obj([
            ("name", Value::from("network occupancy")),
            ("ph", Value::from("C")),
            ("ts", Value::from(w.start_cycle)),
            ("pid", Value::from(0u64)),
            (
                "args",
                Value::obj([
                    ("buffered_flits", Value::from(w.buffered_flits)),
                    ("live_packets", Value::from(w.live_packets)),
                ]),
            ),
        ]));
    }
    Ok(Value::obj([
        ("traceEvents", Value::Arr(events)),
        ("displayTimeUnit", Value::from("ms")),
        (
            "metadata",
            Value::obj([
                ("algo", Value::from(mapper.name())),
                ("seed", Value::from(seed)),
                ("measure_cycles", Value::from(cycles)),
                ("cycles_run", Value::from(report.network.cycles_run)),
                ("injected", Value::from(report.injected)),
                ("delivered", Value::from(report.delivered)),
                ("fully_drained", Value::Bool(report.fully_drained)),
            ]),
        ),
    ])
    .to_string())
}

/// `obm exact` — prove the optimal max-APL with branch-and-bound (small
/// instances; the node budget bounds the proof effort).
pub fn exact_command(spec_text: &str, node_budget: u64) -> Result<String, String> {
    let spec = InstanceSpec::parse(spec_text).map_err(|e| e.to_string())?;
    let inst = spec.to_instance();
    if inst.num_threads() > 20 {
        return Err(format!(
            "{} threads is beyond practical exact solving (≤ 20)",
            inst.num_threads()
        ));
    }
    let solver = BranchAndBound {
        node_budget: node_budget.max(1),
    };
    let r = solver.solve_budgeted(&inst, &obm_core::CancelToken::never(), None);
    let sss = obm_core::evaluate(&inst, &SortSelectSwap::default().map(&inst, 0)).max_apl;
    // A zero objective (a one-tile chip) has no relative gap to report.
    let gap = if r.objective > 0.0 {
        format!("{:+.3}%", (sss / r.objective - 1.0) * 100.0)
    } else {
        format!("{:+.6}", sss - r.objective)
    };
    let mut out = String::new();
    out.push_str(&format!(
        "{} after {} nodes: objective {:.6}
",
        if r.proven_optimal {
            "PROVEN OPTIMAL"
        } else {
            "budget exhausted (best incumbent)"
        },
        r.nodes,
        r.objective
    ));
    out.push_str(&format!(
        "SSS heuristic: {:.6} ({gap} vs {})
",
        sss,
        if r.proven_optimal {
            "optimum"
        } else {
            "incumbent"
        }
    ));
    out.push_str(
        "# thread -> tile (paper numbering)
",
    );
    for j in 0..inst.num_threads() {
        out.push_str(&format!(
            "{}
",
            r.mapping.tile_of(j).to_paper()
        ));
    }
    Ok(out)
}

/// Flags for `obm solve` (bundled so the command keeps a readable
/// signature).
pub struct SolveArgs<'a> {
    /// Comma-separated line-up (`sss,sa,hybrid,greedy,mc,exact`) or
    /// `portfolio` for the objective's default line-up
    /// ([`Algorithm::default_portfolio_for`]).
    pub algos: &'a str,
    /// Comma-separated seed list.
    pub seeds: &'a str,
    pub deadline_ms: Option<u64>,
    pub max_evals: Option<u64>,
    pub workers: Option<usize>,
    pub aggressive: bool,
    /// Objective name (`min-max-apl`, `max-min-balance`, `energy`).
    pub objective: &'a str,
    /// Contents of a `--resume` checkpoint file, if given.
    pub resume_json: Option<&'a str>,
    /// `--topology`/`--mcs` overrides.
    pub layout: LayoutFlags<'a>,
    /// The registry the race reports into and the printed parallelism and
    /// throughput figures are read back from. It must be enabled (`main`
    /// opens one on the `OBM_METRICS_CLOCK` clock even without
    /// `--metrics`); a disabled handle prints zeros.
    pub metrics: MetricsHandle,
}

fn portfolio_algorithms(names: &str, objective: ObjectiveSpec) -> Result<Vec<Algorithm>, String> {
    if names == "portfolio" {
        return Ok(Algorithm::default_portfolio_for(objective));
    }
    names
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(|name| {
            Ok(match name {
                "sss" => Algorithm::SortSelectSwap(SortSelectSwap::default()),
                "sa" => Algorithm::SimulatedAnnealing(SimulatedAnnealing::default()),
                "hybrid" => Algorithm::HybridSssSa(HybridSssSa::default()),
                "greedy" => Algorithm::BalancedGreedy,
                // Single-worker MC: the portfolio owns the parallelism.
                "mc" => Algorithm::MonteCarlo(MonteCarlo {
                    samples: 10_000,
                    workers: 1,
                }),
                "exact" => Algorithm::Exact(BranchAndBound::default()),
                other => {
                    return Err(format!(
                        "unknown portfolio algorithm '{other}' \
                         (try sss, sa, hybrid, greedy, mc, exact, or portfolio)"
                    ))
                }
            })
        })
        .collect()
}

fn parse_seed_list(text: &str) -> Result<Vec<u64>, String> {
    text.split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(|s| s.parse::<u64>().map_err(|e| format!("bad seed '{s}': {e}")))
        .collect()
}

/// `obm solve` — race a solver portfolio under a budget. Returns the
/// human-readable report and the run's checkpoint JSON (written to disk
/// by `main` when `--checkpoint` is given).
pub fn solve_command(spec_text: &str, args: &SolveArgs) -> Result<(String, String), String> {
    let spec = InstanceSpec::parse(spec_text).map_err(|e| e.to_string())?;
    let (spec, chip) = args.layout.apply(spec)?;
    let inst = spec.to_instance_for_layout(&chip);
    let objective: ObjectiveSpec = args.objective.parse()?;
    let algorithms = portfolio_algorithms(args.algos, objective)?;
    let seeds = parse_seed_list(args.seeds)?;

    let metrics = &args.metrics;
    let mut builder = SolveRequest::builder(&inst)
        .algorithms(algorithms)
        .seeds(seeds)
        .objective(objective)
        .metrics(metrics.clone())
        .aggressive_pruning(args.aggressive);
    if let Some(ms) = args.deadline_ms {
        builder = builder.deadline(std::time::Duration::from_millis(ms));
    }
    if let Some(evals) = args.max_evals {
        builder = builder.max_evaluations(evals);
    }
    if let Some(w) = args.workers {
        builder = builder.workers(w);
    }
    if let Some(text) = args.resume_json {
        let cp = Checkpoint::from_json(text).map_err(|e| e.to_string())?;
        builder = builder.resume(cp);
    }
    let request = builder.build().map_err(|e| e.to_string())?;
    let workers = request.workers();
    let outcome = request.solve();

    // Fold the ad-hoc parallelism figures into registry gauges
    // (DESIGN.md §17): publish first, then read back for the printout,
    // so the report and an exported snapshot can never disagree. The
    // engine has already set `portfolio_workers` during the race.
    metrics.gauge_set(
        "cli_detected_cores",
        obm_core::pool::detected_cores() as f64,
    );
    let gauge = |name: &str| metrics.gauge_value(name).unwrap_or(0.0);
    // Each rate is a task's evaluations ÷ its `portfolio/task/…` span,
    // for the tasks that ran a whole fresh race in this solve.
    let snap = metrics.snapshot().unwrap_or_default();
    let task_nanos = |s: &SolveStats| snap.span(&s.span_path()).total_nanos;
    let (ran_evals, ran_nanos) = outcome
        .stats
        .iter()
        .filter(|s| s.ran())
        .fold((0, 0), |(e, n), s| (e + s.evaluations, n + task_nanos(s)));

    let mut out = String::new();
    out.push_str(&format!(
        "portfolio: {} task(s) across {} worker(s) | termination: {}\n",
        outcome.stats.len(),
        workers,
        outcome.termination
    ));
    // Effective parallelism, so solve logs record what actually ran:
    // configured workers vs detected cores.
    out.push_str(&format!(
        "parallelism: {} configured worker(s) on {} detected core(s)\n",
        gauge("portfolio_workers") as usize,
        gauge("cli_detected_cores") as usize,
    ));
    out.push_str(&format!(
        "throughput: {:.0} eval(s)/s aggregate over timed tasks (portfolio/task spans)\n",
        per_sec(ran_evals, ran_nanos),
    ));
    if outcome.resume_rejected {
        out.push_str("note: --resume checkpoint did not match this request; all tasks re-ran\n");
    }
    out.push_str(&format!(
        "winner: {} (seed {}) {} {:.6}{}\n",
        outcome.winner,
        outcome.winner_seed,
        if objective.is_min_max_apl() {
            "max-APL".to_string()
        } else {
            objective.name().to_string()
        },
        outcome.objective,
        if outcome.fallback {
            " [fallback: no task finished]"
        } else {
            ""
        }
    ));
    out.push_str("  task  algo     seed        evals      evals/s   objective\n");
    for s in &outcome.stats {
        out.push_str(&format!(
            "  {:>4}  {:<7} {:>5} {:>12} {:>12}   {}\n",
            s.task,
            s.algo,
            s.seed,
            s.evaluations,
            if s.ran() {
                format!("{:.0}", per_sec(s.evaluations, task_nanos(s)))
            } else {
                "-".to_string()
            },
            match s.objective {
                Some(v) if s.resumed => format!("{v:.6} (resumed)"),
                Some(v) => format!("{v:.6}"),
                None => "-".to_string(),
            }
        ));
    }
    out.push_str("# thread -> tile (paper numbering)\n");
    for j in 0..inst.num_threads() {
        out.push_str(&format!("{}\n", outcome.mapping.tile_of(j).to_paper()));
    }
    out.push_str(&report_block(&spec, &inst, &outcome.mapping));
    out.push_str(&objective_line(&inst, &outcome.mapping, objective));
    Ok((out, outcome.checkpoint.to_json()))
}

/// Flags for `obm place` (placement co-optimization).
pub struct PlaceArgs<'a> {
    /// Number of memory controllers to place (`--controllers K`).
    pub controllers: usize,
    /// `--topology mesh|torus`.
    pub topology: &'a str,
    /// `--exhaustive` forces full canonical enumeration.
    pub exhaustive: bool,
    /// `--annealed N` forces simulated annealing over placements.
    pub annealed: Option<usize>,
    /// Outer-search seed (also seeds the inner solver).
    pub seed: u64,
    /// `--portfolio`: race the default min-max solver portfolio on every
    /// candidate layout instead of single sort-select-swap (placement
    /// scores max-APL, so it gets that objective's line-up).
    pub portfolio: bool,
    /// Worker threads for `--portfolio`.
    pub workers: Option<usize>,
    /// `--grid`: render the best mapping as an application grid.
    pub grid: bool,
    /// `--metrics` registry handle (disabled when the flag is absent).
    pub metrics: MetricsHandle,
}

fn controller_list(layout: &ChipLayout) -> String {
    let list: Vec<String> = layout
        .controllers()
        .tiles()
        .iter()
        .map(|t| t.to_paper().to_string())
        .collect();
    list.join(" ")
}

/// `obm place` — co-optimize memory-controller placement and thread
/// mapping: a deterministic outer search over symmetry-reduced controller
/// placements (exhaustive when small, simulated annealing otherwise) with
/// an OBM solver in the inner loop. Reports the corner-default baseline
/// next to the best layout found, plus the inner mapping for it.
pub fn place_command(spec_text: &str, args: &PlaceArgs) -> Result<String, String> {
    let spec = InstanceSpec::parse(spec_text).map_err(|e| e.to_string())?;
    let inst = spec.to_instance();
    let mesh = spec.mesh();

    let mut opts = PlacementOptions::new(args.controllers);
    opts.topology = args
        .topology
        .parse()
        .map_err(|e| format!("--topology: {e}"))?;
    opts.seed = args.seed;
    opts.inner_seed = args.seed;
    opts.metrics = args.metrics.clone();
    if args.exhaustive && args.annealed.is_some() {
        return Err("--exhaustive and --annealed are mutually exclusive".to_string());
    }
    if args.exhaustive {
        opts.mode = SearchMode::Exhaustive;
    } else if let Some(iterations) = args.annealed {
        if iterations == 0 {
            return Err("--annealed needs at least one iteration".to_string());
        }
        opts.mode = SearchMode::Annealed { iterations };
    }

    let outcome = if args.portfolio {
        let inner = obm_portfolio::portfolio_inner(
            Algorithm::default_portfolio(),
            args.workers.unwrap_or(4),
            SolveBudget::unlimited(),
        );
        obm_core::co_optimize(&inst, &mesh, &opts, inner)
    } else {
        obm_core::co_optimize(&inst, &mesh, &opts, obm_core::sss_inner)
    }
    .map_err(|e| e.to_string())?;

    let mut out = String::new();
    out.push_str(&format!(
        "placement search: {} controller(s) | topology {} | inner {} | {} layout(s) scored ({})\n",
        args.controllers,
        outcome.layout.topology(),
        if args.portfolio { "portfolio" } else { "sss" },
        outcome.evaluated,
        if outcome.exhaustive {
            "exhaustive over canonical placements"
        } else {
            "annealed"
        }
    ));
    out.push_str(&format!(
        "baseline (corner-default)  tiles {:<16} max-APL {:.4}\n",
        controller_list(&outcome.baseline_layout),
        outcome.baseline_objective
    ));
    out.push_str(&format!(
        "best found                 tiles {:<16} max-APL {:.4}  (gain {:.2}%)\n\n",
        controller_list(&outcome.layout),
        outcome.objective,
        outcome.gain_pct()
    ));
    out.push_str("# thread -> tile (paper 1-based numbering)\n");
    for j in 0..inst.num_threads() {
        out.push_str(&format!("{}\n", outcome.mapping.tile_of(j).to_paper()));
    }
    out.push('\n');
    let best_inst = spec.to_instance_for_layout(&outcome.layout);
    if args.grid {
        out.push_str("application grid (1 = first declared app):\n");
        out.push_str(&mapping_grid(&mesh, &best_inst, &outcome.mapping));
        out.push('\n');
    }
    out.push_str(&report_block(&spec, &best_inst, &outcome.mapping));
    Ok(out)
}

/// `obm latency` — print the TC/TM arrays for a chip.
pub fn latency_command(n: usize, controllers: &str) -> Result<String, String> {
    if n == 0 {
        return Err("--mesh: the mesh needs at least one tile per side".to_string());
    }
    let mesh = Mesh::square(n);
    let mcs = match controllers {
        "corners" => MemoryControllers::corners(&mesh),
        "edges" => MemoryControllers::edge_centers(&mesh),
        other => return Err(format!("unknown controller placement '{other}'")),
    };
    let tl = TileLatencies::compute(&mesh, &mcs, LatencyParams::paper_table2());
    let mut out = String::new();
    out.push_str(&format!("TC(k) — average cache latency, {n}x{n} mesh:\n"));
    for row in 0..n {
        for col in 0..n {
            out.push_str(&format!(
                "{:>7.2}",
                tl.tc(mesh.tile(noc_model::Coord::new(row, col)))
            ));
        }
        out.push('\n');
    }
    out.push_str("TM(k) — average memory latency:\n");
    for row in 0..n {
        for col in 0..n {
            out.push_str(&format!(
                "{:>7.2}",
                tl.tm(mesh.tile(noc_model::Coord::new(row, col)))
            ));
        }
        out.push('\n');
    }
    Ok(out)
}

/// `obm status <snapshot>...` — parse one or more exported metrics
/// snapshots (Prometheus text or JSON lines, sniffed per file), merge
/// them (counters/histograms sum, gauges last-wins in argument order)
/// and render the ASCII dashboard.
pub fn status_command(paths: &[String]) -> Result<String, String> {
    if paths.is_empty() {
        return Err("status needs at least one metrics snapshot file".to_string());
    }
    let mut merged = MetricsSnapshot::default();
    for path in paths {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let snap = MetricsSnapshot::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        merged.merge(&snap);
    }
    Ok(merged.render_dashboard(paths.len()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_metrics::MetricsRegistry;

    const SPEC: &str = "\
mesh 4 4
app light 4
thread 1.0 0.15
thread 1.2 0.18
thread 0.8 0.12
thread 1.1 0.16
app heavy 4
thread 8.0 1.2
thread 9.0 1.4
thread 7.0 1.0
thread 8.5 1.3
";

    #[test]
    fn gen_produces_parseable_spec() {
        let out = generate("C1", Some(3)).unwrap();
        let spec = InstanceSpec::parse(&out).unwrap();
        assert_eq!(spec.apps.len(), 4);
        assert_eq!(spec.apps.iter().map(|a| a.threads.len()).sum::<usize>(), 64);
    }

    #[test]
    fn gen_rejects_unknown_config() {
        assert!(generate("C9", None).is_err());
    }

    #[test]
    fn map_then_eval_roundtrip() {
        let mapped =
            map_command(SPEC, "sss", 0, false, "min-max-apl", LayoutFlags::default()).unwrap();
        // Extract the tile list (non-comment numeric lines before the blank).
        let tiles: Vec<&str> = mapped
            .lines()
            .take_while(|l| !l.is_empty())
            .filter(|l| !l.starts_with('#'))
            .collect();
        assert_eq!(tiles.len(), 8);
        let eval_out =
            eval_command(SPEC, &tiles.join("\n"), "apl", LayoutFlags::default()).unwrap();
        assert!(eval_out.contains("max-APL"));
        // Evaluated metrics must equal the mapper's own report.
        let metrics_line = |s: &str| {
            s.lines()
                .find(|l| l.starts_with("max-APL"))
                .map(str::to_string)
                .expect("metrics line")
        };
        assert_eq!(metrics_line(&mapped), metrics_line(&eval_out));
    }

    #[test]
    fn eval_rejects_bad_mappings() {
        assert_eq!(
            eval_command(
                SPEC,
                "1\n1\n2\n3\n4\n5\n6\n7\n",
                "apl",
                LayoutFlags::default()
            ),
            Err("tile 1 assigned twice".to_string())
        ); // dup
        assert!(eval_command(SPEC, "1\n2\n3\n", "apl", LayoutFlags::default()).is_err()); // too few
        assert!(eval_command(
            SPEC,
            "0\n2\n3\n4\n5\n6\n7\n8\n",
            "apl",
            LayoutFlags::default()
        )
        .is_err()); // 0 invalid
        assert!(eval_command(
            SPEC,
            "99\n2\n3\n4\n5\n6\n7\n8\n",
            "apl",
            LayoutFlags::default()
        )
        .is_err());
        // range
    }

    #[test]
    fn map_grid_output() {
        let out = map_command(SPEC, "greedy", 0, true, "apl", LayoutFlags::default()).unwrap();
        assert!(out.contains("application grid"));
        assert!(out.contains("  .") || out.contains("  1"), "{out}");
    }

    #[test]
    fn unknown_algo_rejected() {
        assert!(map_command(SPEC, "quantum", 0, false, "apl", LayoutFlags::default()).is_err());
    }

    #[test]
    fn objective_flag_changes_the_report() {
        // Unknown objectives are rejected up front.
        assert!(map_command(SPEC, "sss", 0, false, "entropy", LayoutFlags::default()).is_err());
        assert!(eval_command(
            SPEC,
            "1\n2\n3\n4\n5\n6\n7\n8\n",
            "entropy",
            LayoutFlags::default()
        )
        .is_err());

        // The default spelling produces no extra line (bit-identical to
        // the pre-objective CLI)...
        let default_out =
            map_command(SPEC, "sss", 0, false, "min-max-apl", LayoutFlags::default()).unwrap();
        assert!(!default_out.contains("objective "));

        // ...while a non-default objective annotates the mapping and
        // appends its scalar, and the mapping still evaluates cleanly.
        let out = map_command(
            SPEC,
            "sss",
            0,
            false,
            "max-min-balance",
            LayoutFlags::default(),
        )
        .unwrap();
        assert!(out.contains("# objective: max-min-balance"), "{out}");
        assert!(out.contains("objective max-min-balance = "), "{out}");
        let tiles: Vec<&str> = out
            .lines()
            .skip_while(|l| l.starts_with('#'))
            .take_while(|l| !l.is_empty())
            .filter(|l| !l.starts_with('#'))
            .collect();
        assert_eq!(tiles.len(), 8);
        let eval_out =
            eval_command(SPEC, &tiles.join("\n"), "energy", LayoutFlags::default()).unwrap();
        assert!(eval_out.contains("objective energy = "), "{eval_out}");
    }

    #[test]
    fn simulate_small() {
        let out = simulate_command(
            SPEC,
            "sss",
            1,
            5_000,
            LayoutFlags::default(),
            &MetricsHandle::disabled(),
        )
        .unwrap();
        assert!(out.contains("simulated"), "{out}");
        assert!(!out.contains("undrained"), "{out}");
    }

    #[test]
    fn trace_emits_parseable_windowed_series() {
        use noc_sim::telemetry::json;

        let cycles = 4_000u64;
        let window = 500u64;
        let out = trace_command(
            SPEC,
            "sss",
            1,
            cycles,
            window,
            LayoutFlags::default(),
            &MetricsHandle::disabled(),
        )
        .unwrap();
        let values: Vec<json::Value> = out
            .lines()
            .map(|l| json::parse(l).expect("every line is valid JSON"))
            .collect();
        assert!(values.len() >= 3);

        // Header carries the run geometry.
        let meta = &values[0];
        assert_eq!(meta.get("type").and_then(|v| v.as_str()), Some("meta"));
        let measure_cycles = meta.get("measure_cycles").and_then(|v| v.as_u64()).unwrap();
        assert_eq!(measure_cycles, cycles);

        // Summary closes the stream.
        let summary = values.last().unwrap();
        assert_eq!(
            summary.get("type").and_then(|v| v.as_str()),
            Some("summary")
        );
        let cycles_run = summary.get("cycles_run").and_then(|v| v.as_u64()).unwrap();
        let injected = summary.get("injected").and_then(|v| v.as_u64()).unwrap();
        assert!(injected > 0);

        // The SSS search must have contributed solver events.
        assert!(
            values
                .iter()
                .any(|v| v.get("type").and_then(|x| x.as_str()) == Some("solver")),
            "no solver events in trace"
        );

        // Windowed series: every window line exposes the four series
        // (injection rate, buffered flits, per-class mean latency, live
        // packets); widths tile the run and rates stay in sane bounds.
        let windows: Vec<&json::Value> = values
            .iter()
            .filter(|v| v.get("type").and_then(|x| x.as_str()) == Some("window"))
            .collect();
        assert!(!windows.is_empty(), "no window records in trace");
        let mut covered = 0u64;
        let mut measure_width = 0u64;
        for w in &windows {
            let start = w.get("start_cycle").and_then(|v| v.as_u64()).unwrap();
            let end = w.get("end_cycle").and_then(|v| v.as_u64()).unwrap();
            assert!(end > start, "empty window");
            assert_eq!(start, covered, "windows must tile the run");
            covered = end;
            let inj_rate = w.get("injection_rate").and_then(|v| v.as_f64()).unwrap();
            assert!((0.0..=100.0).contains(&inj_rate), "inj rate {inj_rate}");
            let ej_rate = w.get("ejection_rate").and_then(|v| v.as_f64()).unwrap();
            assert!((0.0..=100.0).contains(&ej_rate), "ej rate {ej_rate}");
            assert!(w.get("buffered_flits").and_then(|v| v.as_u64()).is_some());
            assert!(w.get("live_packets").and_then(|v| v.as_u64()).is_some());
            let cache_mean = w
                .get("cache")
                .and_then(|c| c.get("mean_latency"))
                .and_then(|v| v.as_f64())
                .unwrap();
            assert!(cache_mean >= 0.0);
            if w.get("phase").and_then(|v| v.as_str()) == Some("measure") {
                measure_width += end - start;
            }
        }
        assert_eq!(covered, cycles_run, "windows must cover the whole run");
        assert_eq!(
            measure_width, cycles,
            "measure-phase window widths must sum to the measured cycles"
        );

        // Windowed injection totals must reconcile with the summary (the
        // windows count warmup+drain too, so they bound it from above).
        let win_injected: u64 = windows
            .iter()
            .map(|w| w.get("injected_packets").and_then(|v| v.as_u64()).unwrap())
            .sum();
        assert!(win_injected >= injected);
    }

    #[test]
    fn heatmap_json_is_deterministic_and_conserves_flits() {
        use noc_sim::telemetry::json;

        let a = heatmap_command(
            SPEC,
            "sss",
            1,
            3_000,
            true,
            LayoutFlags::default(),
            &MetricsHandle::disabled(),
        )
        .unwrap();
        let b = heatmap_command(
            SPEC,
            "sss",
            1,
            3_000,
            true,
            LayoutFlags::default(),
            &MetricsHandle::disabled(),
        )
        .unwrap();
        assert_eq!(a, b, "same seed must give byte-identical heatmap JSON");

        let v = json::parse(&a).unwrap();
        let report_flits = v
            .get("link_flit_traversals")
            .and_then(Value::as_u64)
            .unwrap();
        let heat = v.get("heatmap").unwrap();
        let heat_total = heat
            .get("total_link_flits")
            .and_then(Value::as_u64)
            .unwrap();
        assert_eq!(heat_total, report_flits, "link conservation law");
        let link_sum: u64 = heat
            .get("links")
            .and_then(Value::as_arr)
            .unwrap()
            .iter()
            .map(|l| l.get("flits").and_then(Value::as_u64).unwrap())
            .sum();
        assert_eq!(link_sum, report_flits);
        assert!(report_flits > 0, "run must move traffic");
        // 4x4 mesh: 2*(4*3 + 4*3) = 48 directed links.
        assert_eq!(heat.get("links").and_then(Value::as_arr).unwrap().len(), 48);
    }

    #[test]
    fn heatmap_ascii_renders_mesh_and_decomposition() {
        let out = heatmap_command(
            SPEC,
            "sss",
            1,
            3_000,
            false,
            LayoutFlags::default(),
            &MetricsHandle::disabled(),
        )
        .unwrap();
        assert!(out.contains("link heatmap"), "{out}");
        assert!(out.contains("o-"), "{out}");
        assert!(out.contains("hottest links"), "{out}");
        assert!(out.contains("stall cycles:"), "{out}");
        assert!(out.contains("latency decomposition"), "{out}");
        assert!(out.contains("cache"), "{out}");
        assert!(out.contains("memory"), "{out}");
        // Both declared apps appear as decomposition rows.
        assert!(out.contains("light"), "{out}");
        assert!(out.contains("heavy"), "{out}");
    }

    #[test]
    fn chrome_trace_events_satisfy_decomposition_identity() {
        use noc_sim::telemetry::json;

        let out = chrome_trace_command(
            SPEC,
            "sss",
            1,
            3_000,
            500,
            LayoutFlags::default(),
            &MetricsHandle::disabled(),
        )
        .unwrap();
        let v = json::parse(&out).unwrap();
        let events = v.get("traceEvents").and_then(Value::as_arr).unwrap();
        assert!(!events.is_empty());

        // One process-name metadata event per application.
        let metas: Vec<&json::Value> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Value::as_str) == Some("M"))
            .collect();
        assert_eq!(metas.len(), 2);

        let packets: Vec<&json::Value> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Value::as_str) == Some("X"))
            .collect();
        assert!(!packets.is_empty(), "no packet events in chrome trace");
        for e in &packets {
            let dur = e.get("dur").and_then(Value::as_u64).unwrap();
            let args = e.get("args").unwrap();
            let src_q = args.get("source_queue").and_then(Value::as_u64).unwrap();
            let net = args.get("in_network").and_then(Value::as_u64).unwrap();
            let ser = args.get("serialization").and_then(Value::as_u64).unwrap();
            assert_eq!(
                src_q + net + ser,
                dur,
                "decomposition identity must hold per event"
            );
        }
        // Delivered count in the metadata reconciles with the summary:
        // measured packet events can't exceed it.
        let delivered = v
            .get("metadata")
            .and_then(|m| m.get("delivered"))
            .and_then(Value::as_u64)
            .unwrap();
        let measured = packets
            .iter()
            .filter(|e| {
                e.get("args")
                    .and_then(|a| a.get("measured"))
                    .map(|m| matches!(m, Value::Bool(true)))
                    .unwrap_or(false)
            })
            .count() as u64;
        assert_eq!(measured, delivered, "one X event per measured delivery");

        // Counter events track window occupancy.
        assert!(events
            .iter()
            .any(|e| e.get("ph").and_then(Value::as_str) == Some("C")));
    }

    #[test]
    fn exact_small_spec() {
        let spec = "\
mesh 2 2
app a 2
thread 1.0 0.1
thread 3.0 0.4
app b 2
thread 2.0 0.2
thread 5.0 0.7
";
        let out = exact_command(spec, 1_000_000).unwrap();
        assert!(out.contains("PROVEN OPTIMAL"), "{out}");
        assert!(out.contains("SSS heuristic"));
    }

    #[test]
    fn exact_on_a_one_tile_chip_prints_finite_numbers() {
        let out = exact_command("mesh 1 1\napp solo 1\nthread 1.0 0.1\n", 1000).unwrap();
        assert!(out.contains("PROVEN OPTIMAL"), "{out}");
        assert!(
            out.contains("SSS heuristic: 0.000000 (+0.000000 vs optimum)"),
            "{out}"
        );
        let lower = out.to_lowercase();
        assert!(!lower.contains("nan") && !lower.contains("inf"), "{out}");
    }

    #[test]
    fn exact_rejects_large_instances() {
        let out = generate("C1", Some(1)).unwrap();
        assert!(exact_command(&out, 1000).is_err());
    }

    fn quick_solve_args<'a>(algos: &'a str, resume: Option<&'a str>) -> SolveArgs<'a> {
        SolveArgs {
            algos,
            seeds: "1,2",
            deadline_ms: None,
            // Keep the default SA/MC line-ups cheap in tests.
            max_evals: Some(30_000),
            workers: Some(2),
            aggressive: false,
            objective: "min-max-apl",
            resume_json: resume,
            layout: LayoutFlags::default(),
            metrics: MetricsRegistry::new().handle(),
        }
    }

    #[test]
    fn solve_races_portfolio_and_reports_stats() {
        let (out, checkpoint) =
            solve_command(SPEC, &quick_solve_args("sss,greedy,mc", None)).expect("solve succeeds");
        assert!(out.contains("winner:"), "{out}");
        assert!(out.contains("max-APL"), "{out}");
        // sss and greedy dedup to one task each; mc gets both seeds.
        assert!(out.contains("portfolio: 4 task(s)"), "{out}");
        // The checkpoint round-trips through the portfolio parser.
        let cp = obm_portfolio::Checkpoint::from_json(&checkpoint).expect("valid checkpoint");
        assert!(!cp.completed.is_empty());
    }

    #[test]
    fn default_portfolio_follows_the_objective() {
        let task_rows = |out: &str, algo: &str| {
            out.lines()
                .filter(|l| l.split_whitespace().nth(1) == Some(algo))
                .count()
        };
        // min-max-apl: SSS and greedy once, SSS+SA and SA per seed, no MC.
        let (out, _) =
            solve_command(SPEC, &quick_solve_args("portfolio", None)).expect("solve succeeds");
        assert!(out.contains("portfolio: 6 task(s)"), "{out}");
        assert_eq!(task_rows(&out, "MC"), 0, "{out}");
        // energy adds one MC task per seed.
        let mut args = quick_solve_args("portfolio", None);
        args.objective = "energy";
        let (out, _) = solve_command(SPEC, &args).expect("solve succeeds");
        assert!(out.contains("portfolio: 8 task(s)"), "{out}");
        assert_eq!(task_rows(&out, "MC"), 2, "{out}");
    }

    #[test]
    fn printed_eval_rates_are_evaluations_over_task_spans() {
        let registry = MetricsRegistry::new();
        let mut args = quick_solve_args("sss,sa,greedy", None);
        args.max_evals = None;
        args.metrics = registry.handle();
        let (out, _) = solve_command(SPEC, &args).expect("solve succeeds");
        let snap = registry.snapshot();
        let rate = |evals: u64, nanos: u64| format!("{:.0}", evals as f64 * 1e9 / nanos as f64);
        let (mut rows, mut all_evals, mut all_nanos) = (0, 0, 0);
        for line in out.lines() {
            let cols: Vec<&str> = line.split_whitespace().collect();
            let [task, algo, seed, evals, evals_per_sec, _objective] = cols[..] else {
                continue;
            };
            let (Ok(_), Ok(evals)) = (task.parse::<u64>(), evals.parse::<u64>()) else {
                continue;
            };
            let nanos = snap.spans[&format!("portfolio/task/{algo}-s{seed}")].total_nanos;
            assert!(nanos > 0, "wall-clock span of {line}");
            assert_eq!(evals_per_sec, rate(evals, nanos), "{line}");
            assert_ne!(evals_per_sec, "0", "{line}");
            (rows, all_evals, all_nanos) = (rows + 1, all_evals + evals, all_nanos + nanos);
        }
        // SSS and greedy once, SA per seed.
        assert_eq!(rows, 4, "{out}");
        let throughput = format!("throughput: {} eval(s)/s", rate(all_evals, all_nanos));
        assert!(out.contains(&throughput), "{throughput}\n{out}");
    }

    #[test]
    fn solve_resumes_from_its_own_checkpoint() {
        let (first, checkpoint) =
            solve_command(SPEC, &quick_solve_args("sss,mc", None)).expect("first solve");
        let (second, _) = solve_command(SPEC, &quick_solve_args("sss,mc", Some(&checkpoint)))
            .expect("resumed solve");
        assert!(second.contains("(resumed)"), "{second}");
        let metric = |s: &str| {
            s.lines()
                .find(|l| l.starts_with("winner:"))
                .map(str::to_string)
        };
        assert_eq!(metric(&first), metric(&second));
    }

    #[test]
    fn solve_rejects_bad_configuration_with_readable_errors() {
        let e = solve_command(SPEC, &quick_solve_args("quantum", None)).unwrap_err();
        assert!(e.contains("quantum"), "{e}");
        let mut args = quick_solve_args("sss", None);
        args.seeds = "1,x";
        let e = solve_command(SPEC, &args).unwrap_err();
        assert!(e.contains("bad seed"), "{e}");
        let mut args = quick_solve_args("sss", None);
        args.workers = Some(0);
        let e = solve_command(SPEC, &args).unwrap_err();
        assert!(e.contains("worker count"), "{e}");
        let e = solve_command(SPEC, &quick_solve_args("sss", Some("not json"))).unwrap_err();
        assert!(e.contains("JSON"), "{e}");
    }

    #[test]
    fn layout_flags_override_and_reject() {
        let topo = |t: &'static str| LayoutFlags {
            topology: Some(t),
            mcs: None,
        };
        let mcs = |m: &'static str| LayoutFlags {
            topology: None,
            mcs: Some(m),
        };
        // Explicit defaults are byte-identical to flag-free runs.
        let default_out =
            map_command(SPEC, "sss", 0, false, "min-max-apl", LayoutFlags::default()).unwrap();
        let explicit = map_command(SPEC, "sss", 0, false, "min-max-apl", topo("mesh")).unwrap();
        assert_eq!(default_out, explicit);
        let corners = map_command(SPEC, "sss", 0, false, "min-max-apl", mcs("corners")).unwrap();
        assert_eq!(default_out, corners);
        // Overrides change the solved instance.
        let torus = map_command(SPEC, "sss", 0, false, "min-max-apl", topo("torus")).unwrap();
        assert_ne!(default_out, torus);
        let custom = map_command(
            SPEC,
            "sss",
            0,
            false,
            "min-max-apl",
            mcs("custom:6,7,10,11"),
        )
        .unwrap();
        assert_ne!(default_out, custom);
        // Bad values surface as readable errors, not panics.
        let e = map_command(SPEC, "sss", 0, false, "min-max-apl", topo("ring")).unwrap_err();
        assert!(e.contains("--topology"), "{e}");
        for bad in ["custom:0", "custom:99", "custom:", "ring"] {
            let e = map_command(
                SPEC,
                "sss",
                0,
                false,
                "min-max-apl",
                LayoutFlags {
                    topology: None,
                    mcs: Some(bad),
                },
            )
            .unwrap_err();
            assert!(e.contains("--mcs"), "{bad}: {e}");
        }
        // eval and simulate honor the same overrides.
        let eval_torus =
            eval_command(SPEC, "1\n2\n3\n4\n5\n6\n7\n8\n", "apl", topo("torus")).unwrap();
        let eval_mesh = eval_command(
            SPEC,
            "1\n2\n3\n4\n5\n6\n7\n8\n",
            "apl",
            LayoutFlags::default(),
        )
        .unwrap();
        assert_ne!(eval_torus, eval_mesh);
        let sim = simulate_command(
            SPEC,
            "sss",
            1,
            5_000,
            topo("torus"),
            &MetricsHandle::disabled(),
        )
        .unwrap();
        assert!(!sim.contains("undrained"), "{sim}");
    }

    fn quick_place_args(exhaustive: bool) -> PlaceArgs<'static> {
        PlaceArgs {
            controllers: 1,
            topology: "mesh",
            exhaustive,
            annealed: if exhaustive { None } else { Some(40) },
            seed: 1,
            portfolio: false,
            workers: None,
            grid: true,
            metrics: MetricsHandle::disabled(),
        }
    }

    #[test]
    fn place_beats_or_matches_the_corner_baseline() {
        let out = place_command(SPEC, &quick_place_args(true)).unwrap();
        assert!(out.contains("placement search: 1 controller(s)"), "{out}");
        assert!(
            out.contains("exhaustive over canonical placements"),
            "{out}"
        );
        assert!(out.contains("baseline (corner-default)"), "{out}");
        assert!(out.contains("gain"), "{out}");
        assert!(out.contains("application grid"), "{out}");
        assert!(out.contains("max-APL"), "{out}");
        // Deterministic: same flags, same report.
        assert_eq!(out, place_command(SPEC, &quick_place_args(true)).unwrap());
        // Annealed mode runs too and reports its mode.
        let annealed = place_command(SPEC, &quick_place_args(false)).unwrap();
        assert!(annealed.contains("(annealed)"), "{annealed}");
    }

    #[test]
    fn place_rejects_bad_flags() {
        let mut args = quick_place_args(true);
        args.annealed = Some(10);
        let e = place_command(SPEC, &args).unwrap_err();
        assert!(e.contains("mutually exclusive"), "{e}");
        let mut args = quick_place_args(false);
        args.annealed = Some(0);
        assert!(place_command(SPEC, &args).is_err());
        let mut args = quick_place_args(true);
        args.topology = "ring";
        let e = place_command(SPEC, &args).unwrap_err();
        assert!(e.contains("--topology"), "{e}");
        let mut args = quick_place_args(true);
        args.controllers = 0;
        assert!(place_command(SPEC, &args).is_err());
        let mut args = quick_place_args(true);
        args.controllers = 17;
        assert!(place_command(SPEC, &args).is_err());
    }

    #[test]
    fn latency_grids() {
        let out = latency_command(4, "corners").unwrap();
        assert!(out.contains("TC(k)"));
        assert!(out.contains("TM(k)"));
        assert!(latency_command(4, "ring").is_err());
        // A zero-sized mesh is a usage error, not a panic in Mesh::new.
        let e = latency_command(0, "corners").unwrap_err();
        assert!(e.contains("--mesh"), "{e}");
        assert!(latency_command(1, "corners").unwrap().contains("1x1 mesh"));
    }
}
