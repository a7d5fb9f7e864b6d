//! Pinned goldens of the pairwise-exchange kernel `refine_for_objective`,
//! the one whole-chip local search: the polish stage of every task in a
//! `max-min-balance` or `energy` race and the online controller's
//! re-solver.
//!
//! Each golden runs the kernel on C1–C8 (8×8, corner controllers) from one
//! start mapping (SSS, balanced greedy, or the seed-0 random draw) under
//! one objective with its production pass budget: `MaxMinBalance` and
//! `Energy` at 32 passes (`OBJECTIVE_REFINE_PASSES`), and the controller's
//! `MigrationPenalized { MinMaxApl, 0.02 }` against the start at 64. It
//! pins an FNV-1a of the eight final scores' bits and an FNV-1a of the
//! eight mappings' tile hashes. A change to how the kernel scores or
//! searches must leave them all alone. Debug builds check the default
//! workload seeds; release builds add seeds 1 and 2014.

mod common;

use common::fnv1a;
use obm::mapping::algorithms::{BalancedGreedy, Mapper, RandomMapper, SortSelectSwap};
use obm::mapping::{
    evaluate, migration_distance, refine_for_objective, Energy, Mapping, MaxMinBalance,
    MigrationPenalized, MinMaxApl, Objective, ObjectiveSpec, ObmInstance,
};
use obm::model::{Mesh, TileLatencies};
use obm::workload::{PaperConfig, WorkloadBuilder};

/// A paper configuration on the 8×8 corner-controller chip; `None` keeps
/// the configuration's default workload seed.
fn paper_instance(cfg: PaperConfig, seed: Option<u64>) -> ObmInstance {
    let mut builder = WorkloadBuilder::paper(cfg);
    if let Some(s) = seed {
        builder = builder.seed(s);
    }
    let (workload, _) = builder.build();
    let (c, m) = workload.rate_vectors();
    ObmInstance::new(
        TileLatencies::paper_default(&Mesh::square(8)),
        workload.boundaries(),
        c,
        m,
    )
}

fn workload_seeds() -> Vec<Option<u64>> {
    if cfg!(debug_assertions) {
        vec![None]
    } else {
        vec![None, Some(1), Some(2014)]
    }
}

const MIGRATION_WEIGHT: f64 = 0.02;

/// Run the kernel from `start` under the named objective and return the
/// final mapping with its score, read through public scoring paths only.
fn refine(inst: &ObmInstance, start: &Mapping, objective: &str) -> (Mapping, f64) {
    let mesh = Mesh::square(8);
    match objective {
        "balance" | "energy" => {
            let (obj, spec): (&dyn Objective, _) = if objective == "balance" {
                (&MaxMinBalance, ObjectiveSpec::MaxMinBalance)
            } else {
                (&Energy::default(), ObjectiveSpec::Energy)
            };
            let m = refine_for_objective(inst, start.clone(), obj, 32);
            let s = spec.score(inst, &m);
            (m, s)
        }
        _ => {
            let obj = MigrationPenalized {
                base: MinMaxApl,
                reference: start.clone(),
                weight: MIGRATION_WEIGHT,
                mesh,
            };
            let m = refine_for_objective(inst, start.clone(), &obj, 64);
            let s = evaluate(inst, &m).max_apl
                + MIGRATION_WEIGHT * migration_distance(&mesh, start, &m) as f64;
            (m, s)
        }
    }
}

/// (workload seed, objective, start, FNV-1a of the C1–C8 score bits,
/// FNV-1a of the C1–C8 tile hashes).
#[rustfmt::skip]
const GOLDENS: [(Option<u64>, &str, &str, u64, u64); 27] = [
    (None, "balance", "sss", 0x629cb78a972d30b0, 0x9918b5994db814d8),
    (None, "balance", "greedy", 0xc570ae923204caca, 0xa9acf053246b445a),
    (None, "balance", "random", 0x8e01124712d3a27b, 0xaf197268b2155131),
    (None, "energy", "sss", 0x8074dd05f0bf2b3e, 0x68d69bbff8a1ccfc),
    (None, "energy", "greedy", 0x138c94f01af727a3, 0xd2859f2860251d17),
    (None, "energy", "random", 0x686bb5f62b5f6fc6, 0xeccfc998c33b3854),
    (None, "migration", "sss", 0x18f4ae3315a8f62e, 0x5d423a5d3d25d8dd),
    (None, "migration", "greedy", 0xe46c9be373f1665a, 0x1b7acc52ba4907c0),
    (None, "migration", "random", 0x00b6e1ffe695f832, 0x6cd139db2bbfcaff),
    (Some(1), "balance", "sss", 0x4d7c0a9b9286e007, 0xf8d624060b160df9),
    (Some(1), "balance", "greedy", 0xc70fbf3f3b6a8aec, 0x885f1e3d2c56834a),
    (Some(1), "balance", "random", 0xdff4736669ed840c, 0x32d867742e4243c6),
    (Some(1), "energy", "sss", 0x2a907dd69738ddd1, 0x14969119b78adaf3),
    (Some(1), "energy", "greedy", 0xea79a3beb47229cf, 0xc3bb8bcaf90f55ef),
    (Some(1), "energy", "random", 0xc4776eefac30eb89, 0x194857bbc5ae8cfc),
    (Some(1), "migration", "sss", 0xab344099b05ad957, 0xd555aa0242e222ab),
    (Some(1), "migration", "greedy", 0xed289709de72b185, 0x0e81b196e319dc9f),
    (Some(1), "migration", "random", 0xbe3a716f67daa998, 0xd02ab467e3fe7eef),
    (Some(2014), "balance", "sss", 0x2018d3aa6335a352, 0x551a506262c392d7),
    (Some(2014), "balance", "greedy", 0xbceddf48480269ca, 0x5dc5118a9412ffa8),
    (Some(2014), "balance", "random", 0x56b588291fd69751, 0x64e0d709703baf20),
    (Some(2014), "energy", "sss", 0xaba07772664b26d2, 0xaf399536ce3f68c5),
    (Some(2014), "energy", "greedy", 0xda0457379cc8d0b1, 0x2053ab0f166e2367),
    (Some(2014), "energy", "random", 0xcced7c02e6546650, 0x30e2369da92866a2),
    (Some(2014), "migration", "sss", 0xef2afc786e51052c, 0xe89813dca6756a54),
    (Some(2014), "migration", "greedy", 0xba0acd4516d683c6, 0x15707edf56ab0901),
    (Some(2014), "migration", "random", 0x71e64ed24f2c58b1, 0xd6276c045e0c1334),
];

#[test]
fn exchange_kernel_goldens_hold() {
    let mut failures = Vec::new();
    for seed in workload_seeds() {
        let instances: Vec<ObmInstance> = PaperConfig::ALL
            .into_iter()
            .map(|cfg| paper_instance(cfg, seed))
            .collect();
        for &(_, objective, start, want_scores, want_tiles) in
            GOLDENS.iter().filter(|g| g.0 == seed)
        {
            let (mut scores, mut tiles) = (Vec::new(), Vec::new());
            for inst in &instances {
                let from = match start {
                    "sss" => SortSelectSwap::default().map(inst, 0),
                    "greedy" => BalancedGreedy.map(inst, 0),
                    _ => RandomMapper.map(inst, 0),
                };
                let (m, s) = refine(inst, &from, objective);
                assert!(
                    m.is_valid_for(inst),
                    "{seed:?}/{objective}/{start}: invalid"
                );
                scores.push(s.to_bits());
                tiles.push(fnv1a(m.as_slice().iter().map(|t| t.index() as u64)));
            }
            let got = (fnv1a(scores.iter().copied()), fnv1a(tiles.iter().copied()));
            if got != (want_scores, want_tiles) {
                failures.push(format!(
                    "{seed:?}/{objective}/{start}: scores {:?}",
                    scores
                        .iter()
                        .map(|&b| f64::from_bits(b))
                        .collect::<Vec<_>>()
                ));
            }
        }
    }
    assert!(
        failures.is_empty(),
        "exchange kernel drifted:\n{}",
        failures.join("\n")
    );
}
