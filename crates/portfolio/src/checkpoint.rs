//! Checkpoint/resume for portfolio runs.
//!
//! A [`Checkpoint`] records every *completed* task of a run — (rank,
//! algorithm name, seed, objective, evaluation budget, mapping) — plus a
//! fingerprint of the request it belongs to. Resuming a request with a
//! matching fingerprint injects those results instead of re-running the
//! tasks, so an interrupted deadline run can pick up where it left off
//! without losing determinism: injected results merge exactly like fresh
//! ones, by (value, task-rank).
//!
//! The schema is the deterministic JSON writer from `noc-telemetry`
//! (sorted object keys, shortest round-tripping floats); `u64` fields
//! that may exceed 2^53 (fingerprint, seeds) are hex strings so they
//! round-trip exactly through the all-`f64` JSON number model. File I/O
//! stays in the CLI — this module only converts to and from strings.

use noc_telemetry::json::{parse, Value};
use obm_core::{Mapping, ObmInstance};

/// Schema version tag written into every checkpoint.
pub const CHECKPOINT_VERSION: u64 = 1;

/// One completed task captured in a checkpoint.
#[derive(Debug, Clone, PartialEq)]
pub struct CompletedTask {
    /// Deterministic task rank within the run.
    pub task: u64,
    /// Display name of the algorithm ("SSS", "SA", …).
    pub algo: String,
    /// Seed the task ran with.
    pub seed: u64,
    /// Objective the task achieved.
    pub objective: f64,
    /// Evaluations the task was budgeted (after clamping).
    pub evaluations: u64,
    /// The mapping, thread → tile index.
    pub mapping: Vec<usize>,
}

/// A resumable snapshot of a portfolio run.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Fingerprint of the (instance, task list) the snapshot belongs to.
    pub fingerprint: u64,
    /// Completed tasks, in task-rank order.
    pub completed: Vec<CompletedTask>,
}

/// A malformed or incompatible checkpoint document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The document is not valid JSON.
    Json(String),
    /// The document parsed but a required field is missing or has the
    /// wrong type.
    Schema(&'static str),
    /// The document's schema version is not supported.
    Version(u64),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Json(e) => write!(f, "checkpoint is not valid JSON: {e}"),
            CheckpointError::Schema(field) => {
                write!(f, "checkpoint is missing or has a malformed field: {field}")
            }
            CheckpointError::Version(v) => write!(
                f,
                "unsupported checkpoint version {v} (expected {CHECKPOINT_VERSION})"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl Checkpoint {
    /// Serialize to a single-line deterministic JSON document.
    pub fn to_json(&self) -> String {
        let tasks: Vec<Value> = self
            .completed
            .iter()
            .map(|t| {
                Value::obj([
                    ("task", Value::from(t.task)),
                    ("algo", Value::from(t.algo.as_str())),
                    ("seed", Value::from(format!("{:016x}", t.seed).as_str())),
                    ("objective", Value::from(t.objective)),
                    ("evaluations", Value::from(t.evaluations)),
                    (
                        "mapping",
                        Value::Arr(t.mapping.iter().map(|&k| Value::from(k)).collect()),
                    ),
                ])
            })
            .collect();
        Value::obj([
            ("version", Value::from(CHECKPOINT_VERSION)),
            (
                "fingerprint",
                Value::from(format!("{:016x}", self.fingerprint).as_str()),
            ),
            ("completed", Value::Arr(tasks)),
        ])
        .to_string()
    }

    /// Parse a document produced by [`to_json`](Checkpoint::to_json).
    pub fn from_json(text: &str) -> Result<Checkpoint, CheckpointError> {
        let doc = parse(text).map_err(CheckpointError::Json)?;
        let version = doc
            .get("version")
            .and_then(Value::as_u64)
            .ok_or(CheckpointError::Schema("version"))?;
        if version != CHECKPOINT_VERSION {
            return Err(CheckpointError::Version(version));
        }
        let fingerprint = doc
            .get("fingerprint")
            .and_then(Value::as_str)
            .and_then(parse_hex_u64)
            .ok_or(CheckpointError::Schema("fingerprint"))?;
        let raw = doc
            .get("completed")
            .and_then(Value::as_arr)
            .ok_or(CheckpointError::Schema("completed"))?;
        let mut completed = Vec::with_capacity(raw.len());
        for entry in raw {
            let task = entry
                .get("task")
                .and_then(Value::as_u64)
                .ok_or(CheckpointError::Schema("completed[].task"))?;
            let algo = entry
                .get("algo")
                .and_then(Value::as_str)
                .ok_or(CheckpointError::Schema("completed[].algo"))?
                .to_string();
            let seed = entry
                .get("seed")
                .and_then(Value::as_str)
                .and_then(parse_hex_u64)
                .ok_or(CheckpointError::Schema("completed[].seed"))?;
            let objective = entry
                .get("objective")
                .and_then(Value::as_f64)
                .ok_or(CheckpointError::Schema("completed[].objective"))?;
            let evaluations = entry
                .get("evaluations")
                .and_then(Value::as_u64)
                .ok_or(CheckpointError::Schema("completed[].evaluations"))?;
            let mapping = entry
                .get("mapping")
                .and_then(Value::as_arr)
                .ok_or(CheckpointError::Schema("completed[].mapping"))?
                .iter()
                .map(|v| v.as_u64().map(|k| k as usize))
                .collect::<Option<Vec<usize>>>()
                .ok_or(CheckpointError::Schema("completed[].mapping[]"))?;
            completed.push(CompletedTask {
                task,
                algo,
                seed,
                objective,
                evaluations,
                mapping,
            });
        }
        Ok(Checkpoint {
            fingerprint,
            completed,
        })
    }

    /// Look up the completed entry for task rank `task`, verifying that
    /// its identity (algorithm, seed) and mapping shape match what the
    /// current request would run at that rank.
    pub(crate) fn entry(
        &self,
        task: u64,
        algo: &str,
        seed: u64,
        num_threads: usize,
    ) -> Option<&CompletedTask> {
        self.completed.iter().find(|t| {
            t.task == task && t.algo == algo && t.seed == seed && t.mapping.len() == num_threads
        })
    }
}

fn parse_hex_u64(s: &str) -> Option<u64> {
    u64::from_str_radix(s, 16).ok()
}

/// FNV-1a over the request identity: instance dimensions, application
/// boundaries, traffic-rate bit patterns, and the task descriptors
/// (algorithm name, seed, clamped evaluation budget). Two requests with
/// the same fingerprint race the same task list on the same instance, so
/// completed results are interchangeable between them.
pub(crate) struct Fingerprint(u64);

impl Fingerprint {
    pub(crate) fn new() -> Self {
        Fingerprint(0xcbf2_9ce4_8422_2325)
    }

    pub(crate) fn u64(&mut self, v: u64) {
        for byte in v.to_le_bytes() {
            self.0 ^= byte as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub(crate) fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub(crate) fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        for byte in s.bytes() {
            self.0 ^= byte as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub(crate) fn instance(&mut self, inst: &ObmInstance) {
        self.u64(inst.num_tiles() as u64);
        self.u64(inst.num_threads() as u64);
        self.u64(inst.num_apps() as u64);
        for &b in inst.boundaries() {
            self.u64(b as u64);
        }
        for j in 0..inst.num_threads() {
            self.f64(inst.cache_rate(j));
            self.f64(inst.mem_rate(j));
        }
    }

    pub(crate) fn finish(self) -> u64 {
        self.0
    }
}

/// Convert a checkpointed mapping back into a [`Mapping`], rejecting
/// out-of-range and repeated tile indices.
pub(crate) fn mapping_from_tiles(tiles: &[usize], num_tiles: usize) -> Option<Mapping> {
    Mapping::try_new(
        tiles.iter().map(|&k| noc_model::TileId(k)).collect(),
        num_tiles,
    )
    .ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Checkpoint {
        Checkpoint {
            fingerprint: 0xdead_beef_1234_5678,
            completed: vec![
                CompletedTask {
                    task: 0,
                    algo: "SSS".to_string(),
                    seed: 0,
                    objective: 12.25,
                    evaluations: 64,
                    mapping: vec![0, 1, 2, 3],
                },
                CompletedTask {
                    task: 2,
                    algo: "SA".to_string(),
                    seed: u64::MAX,
                    objective: 11.5,
                    evaluations: 10_000,
                    mapping: vec![3, 2, 1, 0],
                },
            ],
        }
    }

    #[test]
    fn round_trips_through_json() {
        let cp = sample();
        let text = cp.to_json();
        let back = Checkpoint::from_json(&text).expect("round-trip parse");
        assert_eq!(back, cp);
        // Determinism: serializing again yields the identical document.
        assert_eq!(back.to_json(), text);
    }

    #[test]
    fn large_u64s_round_trip_exactly() {
        let cp = sample();
        let back = Checkpoint::from_json(&cp.to_json()).expect("parse");
        assert_eq!(back.completed[1].seed, u64::MAX);
        assert_eq!(back.fingerprint, 0xdead_beef_1234_5678);
    }

    #[test]
    fn rejects_bad_version_and_garbage() {
        assert!(matches!(
            Checkpoint::from_json("not json"),
            Err(CheckpointError::Json(_))
        ));
        let doc = sample()
            .to_json()
            .replace("\"version\":1", "\"version\":99");
        assert!(matches!(
            Checkpoint::from_json(&doc),
            Err(CheckpointError::Version(99))
        ));
        assert!(matches!(
            Checkpoint::from_json("{}"),
            Err(CheckpointError::Schema("version"))
        ));
    }

    #[test]
    fn entry_lookup_checks_identity() {
        let cp = sample();
        assert!(cp.entry(0, "SSS", 0, 4).is_some());
        assert!(cp.entry(0, "SA", 0, 4).is_none());
        assert!(cp.entry(0, "SSS", 1, 4).is_none());
        assert!(cp.entry(0, "SSS", 0, 5).is_none());
        assert!(cp.entry(1, "SSS", 0, 4).is_none());
    }

    #[test]
    fn mapping_from_tiles_rejects_out_of_range() {
        assert!(mapping_from_tiles(&[0, 1, 2], 3).is_some());
        assert!(mapping_from_tiles(&[0, 3], 3).is_none());
    }

    #[test]
    fn mapping_from_tiles_rejects_repeated_tiles() {
        assert!(mapping_from_tiles(&[2, 0, 1], 3).is_some());
        assert!(mapping_from_tiles(&[1, 0, 1], 3).is_none());
    }
}
