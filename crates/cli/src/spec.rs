//! The plain-text instance specification format read and written by the
//! `obm` CLI.
//!
//! ```text
//! # comments start with '#'
//! mesh 8 8                 # rows cols
//! controllers corners      # corners | edges | tiles k1 k2 ... (paper numbering)
//! app web 2                # name thread-count, followed by that many:
//! thread 4.0 0.6           # cache-rate memory-rate (requests/kilocycle)
//! thread 3.5 0.5
//! app batch 2
//! thread 9.0 1.2
//! thread 8.0 1.1
//! weights 2 1              # optional per-app priority weights
//! ```
//!
//! Thread counts may total less than the tile count (surplus tiles stay
//! idle), never more.

use noc_model::{
    ChipLayout, LatencyParams, MemoryControllers, Mesh, TileId, TileLatencies, Topology,
};
use obm_core::ObmInstance;
use std::fmt::Write as _;

/// A parsed instance specification.
#[derive(Debug, Clone, PartialEq)]
pub struct InstanceSpec {
    pub rows: usize,
    pub cols: usize,
    pub controllers: ControllerSpec,
    pub apps: Vec<AppEntry>,
    pub weights: Option<Vec<f64>>,
}

#[derive(Debug, Clone, PartialEq)]
pub enum ControllerSpec {
    Corners,
    Edges,
    Tiles(Vec<usize>),
}

/// The `--mcs` flag grammar: `corners`, `edge-centers` (alias `edges`),
/// or `custom:<k1,k2,...>` with 1-based paper tile numbers. Range checks
/// against the mesh happen later, in [`InstanceSpec::set_controllers`].
impl std::str::FromStr for ControllerSpec {
    type Err = SpecError;

    fn from_str(s: &str) -> Result<Self, SpecError> {
        let bad = |message: &str| SpecError::BadControllerFlag {
            value: s.to_string(),
            message: message.to_string(),
        };
        match s {
            "corners" => Ok(ControllerSpec::Corners),
            "edge-centers" | "edges" => Ok(ControllerSpec::Edges),
            other => {
                let Some(list) = other.strip_prefix("custom:") else {
                    return Err(bad("unknown placement"));
                };
                let ids: Vec<usize> = list
                    .split(',')
                    .map(|t| t.trim().parse::<usize>())
                    .collect::<Result<_, _>>()
                    .map_err(|_| bad("tile list must be comma-separated integers"))?;
                if ids.is_empty() {
                    return Err(bad("custom: needs at least one tile"));
                }
                if ids.contains(&0) {
                    return Err(bad("tile numbers are 1-based (paper Eq. 1)"));
                }
                Ok(ControllerSpec::Tiles(ids))
            }
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct AppEntry {
    pub name: String,
    /// (cache_rate, mem_rate) per thread.
    pub threads: Vec<(f64, f64)>,
}

/// A rejected instance specification (the `ConfigError` convention from
/// `noc-sim`: typed variants with readable messages, no panics — the CLI
/// surfaces these with a non-zero exit).
#[derive(Debug, Clone, PartialEq)]
pub enum SpecError {
    /// A malformed line, with its 1-based line number.
    Syntax { line: usize, message: String },
    /// No `mesh rows cols` line.
    MissingMesh,
    /// No `app` blocks.
    NoApps,
    /// The last `app` block declared more threads than it provided.
    DanglingThreads { app: String, missing: usize },
    /// Every thread of an application has zero cache and memory rate, so
    /// its APL (latency ÷ request volume) is undefined.
    ZeroVolumeApp { app: String },
    /// Thread counts total more than the chip has tiles.
    CapacityExceeded { threads: usize, tiles: usize },
    /// The `weights` line length does not match the app count.
    WeightCountMismatch { weights: usize, apps: usize },
    /// A `controllers tiles` id is outside the mesh (1-based paper
    /// numbering).
    ControllerTileOutOfRange { tile: usize, tiles: usize },
    /// A malformed `--mcs` flag value.
    BadControllerFlag { value: String, message: String },
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecError::Syntax { line, message } => write!(f, "line {line}: {message}"),
            SpecError::MissingMesh => write!(f, "missing 'mesh rows cols' line"),
            SpecError::NoApps => write!(f, "no applications declared"),
            SpecError::DanglingThreads { app, missing } => {
                write!(f, "app '{app}' still expects {missing} thread line(s)")
            }
            SpecError::ZeroVolumeApp { app } => {
                write!(
                    f,
                    "app '{app}' has zero total request volume (every thread's rates are 0)"
                )
            }
            SpecError::CapacityExceeded { threads, tiles } => {
                write!(f, "{threads} threads exceed {tiles} tiles")
            }
            SpecError::WeightCountMismatch { weights, apps } => {
                write!(f, "{weights} weights for {apps} apps")
            }
            SpecError::ControllerTileOutOfRange { tile, tiles } => {
                write!(
                    f,
                    "controller tile {tile} out of range 1..={tiles} (paper numbering)"
                )
            }
            SpecError::BadControllerFlag { value, message } => {
                write!(
                    f,
                    "bad controller placement '{value}': {message} \
                     (try corners, edge-centers, or custom:<k1,k2,...>)"
                )
            }
        }
    }
}

impl std::error::Error for SpecError {}

fn err(line: usize, message: impl Into<String>) -> SpecError {
    SpecError::Syntax {
        line,
        message: message.into(),
    }
}

impl InstanceSpec {
    /// Parse the text format.
    pub fn parse(text: &str) -> Result<InstanceSpec, SpecError> {
        let mut mesh: Option<(usize, usize)> = None;
        let mut controllers = ControllerSpec::Corners;
        let mut apps: Vec<AppEntry> = Vec::new();
        let mut weights: Option<Vec<f64>> = None;
        let mut pending_threads = 0usize;

        for (idx, raw) in text.lines().enumerate() {
            let lineno = idx + 1;
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let mut tok = line.split_whitespace();
            let Some(keyword) = tok.next() else {
                continue; // unreachable: the line is non-empty after trim
            };
            let rest: Vec<&str> = tok.collect();
            match keyword {
                "mesh" => {
                    if rest.len() != 2 {
                        return Err(err(lineno, "mesh takes: rows cols"));
                    }
                    let rows = rest[0]
                        .parse::<usize>()
                        .map_err(|e| err(lineno, format!("bad rows: {e}")))?;
                    let cols = rest[1]
                        .parse::<usize>()
                        .map_err(|e| err(lineno, format!("bad cols: {e}")))?;
                    if rows == 0 || cols == 0 {
                        return Err(err(lineno, "mesh dimensions must be positive"));
                    }
                    mesh = Some((rows, cols));
                }
                "controllers" => match rest.first() {
                    Some(&"corners") => controllers = ControllerSpec::Corners,
                    Some(&"edges") => controllers = ControllerSpec::Edges,
                    Some(&"tiles") => {
                        let ids: Result<Vec<usize>, _> =
                            rest[1..].iter().map(|s| s.parse::<usize>()).collect();
                        let ids = ids.map_err(|e| err(lineno, format!("bad tile id: {e}")))?;
                        if ids.is_empty() {
                            return Err(err(lineno, "controllers tiles needs at least one id"));
                        }
                        if ids.contains(&0) {
                            return Err(err(lineno, "tile numbers are 1-based (paper Eq. 1)"));
                        }
                        controllers = ControllerSpec::Tiles(ids);
                    }
                    _ => {
                        return Err(err(
                            lineno,
                            "controllers takes: corners | edges | tiles k1 k2 ...",
                        ))
                    }
                },
                "app" => {
                    if pending_threads > 0 {
                        return Err(err(
                            lineno,
                            format!("previous app still expects {pending_threads} thread line(s)"),
                        ));
                    }
                    if rest.len() != 2 {
                        return Err(err(lineno, "app takes: name thread-count"));
                    }
                    let count = rest[1]
                        .parse::<usize>()
                        .map_err(|e| err(lineno, format!("bad thread count: {e}")))?;
                    if count == 0 {
                        return Err(err(lineno, "apps need at least one thread"));
                    }
                    apps.push(AppEntry {
                        name: rest[0].to_string(),
                        threads: Vec::with_capacity(count),
                    });
                    pending_threads = count;
                }
                "thread" => {
                    if pending_threads == 0 {
                        return Err(err(lineno, "thread line outside an app block"));
                    }
                    if rest.len() != 2 {
                        return Err(err(lineno, "thread takes: cache-rate mem-rate"));
                    }
                    let c = rest[0]
                        .parse::<f64>()
                        .map_err(|e| err(lineno, format!("bad cache rate: {e}")))?;
                    let m = rest[1]
                        .parse::<f64>()
                        .map_err(|e| err(lineno, format!("bad mem rate: {e}")))?;
                    if c < 0.0 || m < 0.0 || !c.is_finite() || !m.is_finite() {
                        return Err(err(lineno, "rates must be finite and non-negative"));
                    }
                    match apps.last_mut() {
                        Some(app) => app.threads.push((c, m)),
                        // Unreachable: pending_threads > 0 implies an app
                        // block is open, but degrade to a typed error.
                        None => return Err(err(lineno, "thread line outside an app block")),
                    }
                    pending_threads -= 1;
                }
                "weights" => {
                    let ws: Result<Vec<f64>, _> = rest.iter().map(|s| s.parse::<f64>()).collect();
                    let ws = ws.map_err(|e| err(lineno, format!("bad weight: {e}")))?;
                    if ws.iter().any(|&w| !w.is_finite() || w <= 0.0) {
                        return Err(err(lineno, "weights must be positive"));
                    }
                    weights = Some(ws);
                }
                other => return Err(err(lineno, format!("unknown keyword '{other}'"))),
            }
        }
        if pending_threads > 0 {
            return Err(SpecError::DanglingThreads {
                app: apps.last().map(|a| a.name.clone()).unwrap_or_default(),
                missing: pending_threads,
            });
        }
        let (rows, cols) = mesh.ok_or(SpecError::MissingMesh)?;
        if apps.is_empty() {
            return Err(SpecError::NoApps);
        }
        // The instance divides each app's latency by its volume (the same
        // sum `ObmInstance::new` checks), so reject a zero volume here.
        if let Some(app) = apps
            .iter()
            .find(|a| a.threads.iter().map(|&(c, m)| c + m).sum::<f64>() <= 0.0)
        {
            return Err(SpecError::ZeroVolumeApp {
                app: app.name.clone(),
            });
        }
        let total: usize = apps.iter().map(|a| a.threads.len()).sum();
        if total > rows * cols {
            return Err(SpecError::CapacityExceeded {
                threads: total,
                tiles: rows * cols,
            });
        }
        if let Some(ws) = &weights {
            if ws.len() != apps.len() {
                return Err(SpecError::WeightCountMismatch {
                    weights: ws.len(),
                    apps: apps.len(),
                });
            }
        }
        // Controller ids can only be range-checked once the mesh is known
        // (the `controllers` line may precede `mesh`); checking here keeps
        // `memory_controllers()` panic-free.
        if let ControllerSpec::Tiles(ids) = &controllers {
            if let Some(&bad) = ids.iter().find(|&&k| k > rows * cols) {
                return Err(SpecError::ControllerTileOutOfRange {
                    tile: bad,
                    tiles: rows * cols,
                });
            }
        }
        Ok(InstanceSpec {
            rows,
            cols,
            controllers,
            apps,
            weights,
        })
    }

    /// Serialize back to the text format (parse∘render is the identity on
    /// the parsed structure).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "mesh {} {}", self.rows, self.cols);
        match &self.controllers {
            ControllerSpec::Corners => {
                let _ = writeln!(out, "controllers corners");
            }
            ControllerSpec::Edges => {
                let _ = writeln!(out, "controllers edges");
            }
            ControllerSpec::Tiles(ids) => {
                let list: Vec<String> = ids.iter().map(|k| k.to_string()).collect();
                let _ = writeln!(out, "controllers tiles {}", list.join(" "));
            }
        }
        for app in &self.apps {
            let _ = writeln!(out, "app {} {}", app.name, app.threads.len());
            for &(c, m) in &app.threads {
                let _ = writeln!(out, "thread {c} {m}");
            }
        }
        if let Some(ws) = &self.weights {
            let list: Vec<String> = ws.iter().map(|w| w.to_string()).collect();
            let _ = writeln!(out, "weights {}", list.join(" "));
        }
        out
    }

    /// The mesh described by this spec.
    pub fn mesh(&self) -> Mesh {
        Mesh::new(self.rows, self.cols)
    }

    /// The memory-controller placement.
    pub fn memory_controllers(&self) -> MemoryControllers {
        let mesh = self.mesh();
        match &self.controllers {
            ControllerSpec::Corners => MemoryControllers::corners(&mesh),
            ControllerSpec::Edges => MemoryControllers::edge_centers(&mesh),
            ControllerSpec::Tiles(ids) => MemoryControllers::try_custom(
                &mesh,
                ids.iter().map(|&k| TileId::from_paper(k)).collect(),
            )
            .expect("controller ids are range-checked at parse time"),
        }
    }

    /// Replace the controller placement, re-running the range check the
    /// parser applies (the `--mcs` override path).
    pub fn set_controllers(&mut self, controllers: ControllerSpec) -> Result<(), SpecError> {
        if let ControllerSpec::Tiles(ids) = &controllers {
            if let Some(&bad) = ids.iter().find(|&&k| k > self.rows * self.cols) {
                return Err(SpecError::ControllerTileOutOfRange {
                    tile: bad,
                    tiles: self.rows * self.cols,
                });
            }
        }
        self.controllers = controllers;
        Ok(())
    }

    /// The full chip layout this spec describes under `topology` (no
    /// failed links; the spec format has no syntax for them).
    pub fn chip_layout(&self, topology: Topology) -> ChipLayout {
        ChipLayout::try_new(self.mesh(), topology, self.memory_controllers(), Vec::new())
            .expect("spec controllers are range-checked, and no failed links are given")
    }

    /// Build the OBM instance (Table 2 latency parameters).
    pub fn to_instance(&self) -> ObmInstance {
        let mesh = self.mesh();
        let tiles = TileLatencies::compute(
            &mesh,
            &self.memory_controllers(),
            LatencyParams::paper_table2(),
        );
        self.instance_from_tiles(tiles)
    }

    /// [`InstanceSpec::to_instance`] for an explicit [`ChipLayout`]
    /// (the `--topology`/`--mcs` override path; identical to
    /// `to_instance` when the layout is the spec's own mesh default).
    pub fn to_instance_for_layout(&self, layout: &ChipLayout) -> ObmInstance {
        self.instance_from_tiles(TileLatencies::for_layout(
            layout,
            LatencyParams::paper_table2(),
        ))
    }

    fn instance_from_tiles(&self, tiles: TileLatencies) -> ObmInstance {
        let mut c = Vec::new();
        let mut m = Vec::new();
        let mut bounds = vec![0];
        for app in &self.apps {
            for &(cj, mj) in &app.threads {
                c.push(cj);
                m.push(mj);
            }
            bounds.push(c.len());
        }
        let inst = ObmInstance::new(tiles, bounds, c, m);
        match &self.weights {
            Some(ws) => inst.with_app_weights(ws.clone()),
            None => inst,
        }
    }

    /// Application names in declaration order.
    pub fn app_names(&self) -> Vec<&str> {
        self.apps.iter().map(|a| a.name.as_str()).collect()
    }
}

/// Build a spec from a generated paper workload (the `obm gen` command).
pub fn spec_from_workload(w: &workload::Workload, rows: usize, cols: usize) -> InstanceSpec {
    InstanceSpec {
        rows,
        cols,
        controllers: ControllerSpec::Corners,
        apps: w
            .apps
            .iter()
            .map(|a| AppEntry {
                name: a.name.replace(' ', "-"),
                threads: a
                    .threads
                    .iter()
                    .map(|t| (t.cache_rate, t.mem_rate))
                    .collect(),
            })
            .collect(),
        weights: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
# demo chip
mesh 4 4
controllers corners
app web 2
thread 4.0 0.6
thread 3.5 0.5
app batch 2
thread 9.0 1.2
thread 8.0 1.1
weights 2 1
";

    #[test]
    fn parse_sample() {
        let spec = InstanceSpec::parse(SAMPLE).unwrap();
        assert_eq!(spec.rows, 4);
        assert_eq!(spec.apps.len(), 2);
        assert_eq!(spec.apps[0].name, "web");
        assert_eq!(spec.apps[1].threads[0], (9.0, 1.2));
        assert_eq!(spec.weights, Some(vec![2.0, 1.0]));
    }

    #[test]
    fn roundtrip() {
        let spec = InstanceSpec::parse(SAMPLE).unwrap();
        let again = InstanceSpec::parse(&spec.render()).unwrap();
        assert_eq!(spec, again);
    }

    #[test]
    fn to_instance_dimensions_and_weights() {
        let spec = InstanceSpec::parse(SAMPLE).unwrap();
        let inst = spec.to_instance();
        assert_eq!(inst.num_tiles(), 16);
        assert_eq!(inst.num_threads(), 4);
        assert_eq!(inst.num_apps(), 2);
        assert!(inst.is_weighted());
        assert_eq!(inst.app_weight(0), 2.0);
    }

    #[test]
    fn errors_have_line_numbers() {
        match InstanceSpec::parse("mesh 4\n").unwrap_err() {
            SpecError::Syntax { line, .. } => assert_eq!(line, 1),
            other => panic!("expected Syntax error, got {other:?}"),
        }
        match InstanceSpec::parse("mesh 2 2\napp a 1\nbogus 1 2\n").unwrap_err() {
            SpecError::Syntax { line, message } => {
                assert_eq!(line, 3);
                assert!(message.contains("bogus") || message.contains("expects"));
            }
            other => panic!("expected Syntax error, got {other:?}"),
        }
    }

    #[test]
    fn thread_count_enforced() {
        let e = InstanceSpec::parse("mesh 2 2\napp a 2\nthread 1 0.1\napp b 1\nthread 1 0.1\n")
            .unwrap_err();
        assert!(e.to_string().contains("expects"), "{e}");
        let e = InstanceSpec::parse("mesh 2 2\napp a 1\nthread 1 0.1\nthread 1 0.1\n").unwrap_err();
        assert!(e.to_string().contains("outside"), "{e}");
        // A truncated trailing app block is a typed error naming the app.
        let e = InstanceSpec::parse("mesh 2 2\napp tail 3\nthread 1 0.1\n").unwrap_err();
        assert_eq!(
            e,
            SpecError::DanglingThreads {
                app: "tail".to_string(),
                missing: 2
            }
        );
    }

    #[test]
    fn zero_volume_app_rejected() {
        // Two zero-rate threads: the app's APL would divide by zero.
        let e = InstanceSpec::parse(
            "mesh 2 2\napp busy 1\nthread 1 0.1\napp idle 2\nthread 0 0\nthread 0.0 0\n",
        )
        .unwrap_err();
        assert_eq!(
            e,
            SpecError::ZeroVolumeApp {
                app: "idle".to_string()
            }
        );
        assert!(e.to_string().contains("'idle'"), "{e}");
        // One positive rate anywhere in the app is enough.
        assert!(InstanceSpec::parse("mesh 2 2\napp a 2\nthread 0 0\nthread 0 0.5\n").is_ok());
    }

    #[test]
    fn capacity_enforced() {
        let mut text = String::from("mesh 2 2\napp big 5\n");
        for _ in 0..5 {
            text.push_str("thread 1 0.1\n");
        }
        let e = InstanceSpec::parse(&text).unwrap_err();
        assert_eq!(
            e,
            SpecError::CapacityExceeded {
                threads: 5,
                tiles: 4
            }
        );
        assert!(e.to_string().contains("exceed"), "{e}");
    }

    #[test]
    fn controller_tiles_out_of_range_rejected_even_before_mesh_line() {
        // `controllers` precedes `mesh`: the range check still fires.
        let e = InstanceSpec::parse("controllers tiles 99\nmesh 2 2\napp a 1\nthread 1 0.1\n")
            .unwrap_err();
        assert_eq!(
            e,
            SpecError::ControllerTileOutOfRange { tile: 99, tiles: 4 }
        );
        // In range parses and builds without panicking.
        let spec = InstanceSpec::parse("controllers tiles 4\nmesh 2 2\napp a 1\nthread 1 0.1\n")
            .expect("valid spec");
        assert_eq!(spec.memory_controllers().tiles().len(), 1);
    }

    #[test]
    fn custom_controllers_parse_and_build() {
        let spec = InstanceSpec::parse("mesh 3 3\ncontrollers tiles 1 9\napp a 1\nthread 1 0.1\n")
            .unwrap();
        let mcs = spec.memory_controllers();
        assert_eq!(mcs.tiles().len(), 2);
    }

    #[test]
    fn weight_count_mismatch_rejected() {
        let e = InstanceSpec::parse("mesh 2 2\napp a 1\nthread 1 0.1\nweights 1 2\n").unwrap_err();
        assert_eq!(
            e,
            SpecError::WeightCountMismatch {
                weights: 2,
                apps: 1
            }
        );
    }

    #[test]
    fn structural_errors_are_typed() {
        assert_eq!(
            InstanceSpec::parse("app a 1\nthread 1 0.1\n").unwrap_err(),
            SpecError::MissingMesh
        );
        assert_eq!(
            InstanceSpec::parse("mesh 2 2\n").unwrap_err(),
            SpecError::NoApps
        );
    }

    #[test]
    fn controller_spec_flag_grammar() {
        assert_eq!(
            "corners".parse::<ControllerSpec>(),
            Ok(ControllerSpec::Corners)
        );
        assert_eq!(
            "edge-centers".parse::<ControllerSpec>(),
            Ok(ControllerSpec::Edges)
        );
        assert_eq!("edges".parse::<ControllerSpec>(), Ok(ControllerSpec::Edges));
        assert_eq!(
            "custom:1,4,13,16".parse::<ControllerSpec>(),
            Ok(ControllerSpec::Tiles(vec![1, 4, 13, 16]))
        );
        for bad in ["ring", "custom:", "custom:1,x", "custom:0,2"] {
            let e = bad.parse::<ControllerSpec>().unwrap_err();
            assert!(
                matches!(e, SpecError::BadControllerFlag { .. }),
                "{bad}: {e:?}"
            );
            assert!(e.to_string().contains(bad), "{e}");
        }
    }

    #[test]
    fn set_controllers_range_checks_against_the_mesh() {
        let mut spec = InstanceSpec::parse(SAMPLE).unwrap();
        assert_eq!(
            spec.set_controllers(ControllerSpec::Tiles(vec![17])),
            Err(SpecError::ControllerTileOutOfRange {
                tile: 17,
                tiles: 16
            })
        );
        // The failed override must not have modified the spec.
        assert_eq!(spec.controllers, ControllerSpec::Corners);
        spec.set_controllers(ControllerSpec::Tiles(vec![6, 11]))
            .unwrap();
        assert_eq!(spec.memory_controllers().tiles().len(), 2);
    }

    #[test]
    fn default_layout_reproduces_to_instance() {
        let spec = InstanceSpec::parse(SAMPLE).unwrap();
        let layout = spec.chip_layout(Topology::Mesh);
        assert_eq!(layout.topology(), Topology::Mesh);
        assert_eq!(layout.controllers(), &spec.memory_controllers());
        let a = spec.to_instance();
        let b = spec.to_instance_for_layout(&layout);
        // Bit-identical latencies either way (the PR 8 delegation pin).
        for k in 0..a.num_tiles() {
            let t = TileId(k);
            assert_eq!(a.tiles().tc(t), b.tiles().tc(t));
            assert_eq!(a.tiles().tm(t), b.tiles().tm(t));
        }
    }

    #[test]
    fn torus_layout_changes_the_instance() {
        let spec = InstanceSpec::parse(SAMPLE).unwrap();
        let torus = spec.chip_layout(Topology::Torus);
        assert_eq!(torus.topology(), Topology::Torus);
        let a = spec.to_instance();
        let b = spec.to_instance_for_layout(&torus);
        // Wraparound shortens some tile's average distances.
        assert!((0..16).any(|k| a.tiles().tc(TileId(k)) != b.tiles().tc(TileId(k))));
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let spec = InstanceSpec::parse(
            "\n# hi\nmesh 2 2 # trailing\n\napp a 1 # one thread\nthread 1 0.1\n",
        )
        .unwrap();
        assert_eq!(spec.apps.len(), 1);
    }
}
