//! Pinned solver goldens for the search paths the C1 goldens in
//! `eval_batch.rs` do not reach: SSS at window sizes other than the
//! paper's 4, Monte Carlo on a chip with spare tiles and across two
//! workers, SA with parallel restarts, and SA/hybrid runs that relocate
//! threads into holes. Each golden pins the objective bits and an FNV-1a
//! hash of the full thread → tile assignment. They were captured before
//! the solver loops stopped allocating per candidate; the contract of
//! that change is bit-identity, so they must never move. A proptest pins
//! the recycled-buffer random draw to the allocating one it replaced.

use obm::mapping::algorithms::{
    DrawScratch, HybridSssSa, Mapper, MonteCarlo, RandomMapper, SimulatedAnnealing, SortSelectSwap,
};
use obm::mapping::{evaluate, Mapping, ObmInstance};
use obm::model::{Mesh, TileId, TileLatencies};
use obm::workload::{PaperConfig, WorkloadBuilder};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// The paper's C1 workload (four 16-thread applications) on an n×n mesh
/// with corner memory controllers; n = 9 leaves 17 tiles empty.
fn c1_on(n: usize) -> ObmInstance {
    let (workload, _) = WorkloadBuilder::paper(PaperConfig::C1).build();
    let tiles = TileLatencies::paper_default(&Mesh::square(n));
    let (c, m) = workload.rate_vectors();
    ObmInstance::new(tiles, workload.boundaries(), c, m)
}

/// FNV-1a over the tile indices of a mapping, in thread order.
fn tiles_hash(m: &Mapping) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for t in m.as_slice() {
        for byte in (t.index() as u64).to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn runs() -> Vec<(String, ObmInstance, Mapping)> {
    let c1 = c1_on(8);
    let spare = c1_on(9);
    let mut out = Vec::new();
    for (label, inst) in [("c1", &c1), ("spare", &spare)] {
        for window in [2, 3, 5, 6] {
            let sss = SortSelectSwap {
                window,
                ..SortSelectSwap::default()
            };
            out.push((
                format!("sss_w{window}_{label}"),
                inst.clone(),
                sss.map(inst, 0),
            ));
        }
    }
    let mc = |workers| MonteCarlo {
        samples: 2_000,
        workers,
    };
    out.push(("mc2k_1w_spare".into(), spare.clone(), mc(1).map(&spare, 0)));
    out.push(("mc2k_2w_c1".into(), c1.clone(), mc(2).map(&c1, 0)));
    out.push(("mc2k_2w_spare".into(), spare.clone(), mc(2).map(&spare, 3)));
    let sa = |restarts| SimulatedAnnealing {
        iterations: 5_000,
        restarts,
        ..SimulatedAnnealing::default()
    };
    out.push(("sa5k_r3_c1".into(), c1.clone(), sa(3).map(&c1, 1)));
    out.push(("sa5k_r1_spare".into(), spare.clone(), sa(1).map(&spare, 2)));
    let hy = HybridSssSa {
        sa_iterations: 5_000,
        ..HybridSssSa::default()
    };
    out.push(("hybrid5k_spare".into(), spare.clone(), hy.map(&spare, 1)));
    out
}

/// (run, objective bits, tile-assignment hash), captured on the code
/// before the allocation-free solver loops.
const GOLDENS: [(&str, u64, u64); 14] = [
    ("sss_w2_c1", 0x40364a3c9637f1a0, 0x47fd4f1f74618c25),
    ("sss_w3_c1", 0x40364fb841691945, 0xa5a8ec716c49a2a5),
    ("sss_w5_c1", 0x403649de65f32e64, 0xad7e0ce0f44ae8e5),
    ("sss_w6_c1", 0x40364b875437ca9d, 0xf3446f6ab7a3bbe5),
    ("sss_w2_spare", 0x403833245751c21a, 0xf1aa348e12bc0f67),
    ("sss_w3_spare", 0x40382422b3015831, 0x051097639688f986),
    ("sss_w5_spare", 0x403825b4f6604097, 0xe64cc0ceeed7bafa),
    ("sss_w6_spare", 0x4038265aa4ff0673, 0xfdb35354671a9216),
    ("mc2k_1w_spare", 0x40394f02531b66dd, 0xccfcc735b7e92d8d),
    ("mc2k_2w_c1", 0x4036ceb8b6998952, 0xc50db316d5e43805),
    ("mc2k_2w_spare", 0x40396f59246e9476, 0x8f6f9147a992f26c),
    ("sa5k_r3_c1", 0x40365491ae25385e, 0x9185e9d31034fa45),
    ("sa5k_r1_spare", 0x4038358b247085f3, 0x33a89065337bc3e8),
    ("hybrid5k_spare", 0x403827a62e68b6f6, 0x0be21424710c3c4f),
];

#[test]
fn solver_goldens_hold() {
    let runs = runs();
    assert_eq!(runs.len(), GOLDENS.len());
    for ((name, inst, m), (want_name, obj_bits, hash)) in runs.iter().zip(GOLDENS) {
        assert_eq!(name, want_name);
        assert!(m.is_valid_for(inst), "{name}: invalid mapping");
        let v = evaluate(inst, m).max_apl;
        assert_eq!(
            v.to_bits(),
            obj_bits,
            "{name}: objective drifted (got {v}, bits 0x{:016x})",
            v.to_bits()
        );
        assert_eq!(tiles_hash(m), hash, "{name}: mapping drifted");
    }
}

/// Strategy: an n×n mesh (n ∈ 2..=5) with 2–4 applications and up to 3
/// spare tiles.
fn arb_instance() -> impl Strategy<Value = ObmInstance> {
    (2usize..=5, 2usize..=4, 0usize..=3)
        .prop_flat_map(|(n, apps, spare)| {
            let threads = (n * n - spare).max(apps);
            (
                Just(n),
                Just(apps),
                proptest::collection::vec(0.01f64..10.0, threads),
            )
        })
        .prop_map(|(n, apps, c)| {
            let threads = c.len();
            let m: Vec<f64> = c.iter().map(|x| x * 0.15).collect();
            let bounds: Vec<usize> = (0..=apps).map(|a| a * threads / apps).collect();
            ObmInstance::new(TileLatencies::paper_default(&Mesh::square(n)), bounds, c, m)
        })
}

/// The allocating draw `draw_into` replaced: shuffle a fresh tile list,
/// keep the first `num_threads`.
fn reference_draw(inst: &ObmInstance, rng: &mut SmallRng) -> Mapping {
    let mut tiles: Vec<TileId> = (0..inst.num_tiles()).map(TileId).collect();
    tiles.shuffle(rng);
    tiles.truncate(inst.num_threads());
    Mapping::new(tiles)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `draw_into` and `draw` match the reference draw stream for stream:
    /// the same mappings and the same RNG state after each instance, while
    /// the recycled buffers move between instances of different sizes.
    #[test]
    fn draw_into_matches_the_reference_draw(
        a in arb_instance(),
        b in arb_instance(),
        count in 1usize..40,
        seed in any::<u64>(),
    ) {
        let mut want_rng = SmallRng::seed_from_u64(seed);
        let mut into_rng = want_rng.clone();
        let mut draw_rng = want_rng.clone();
        let mut scratch = DrawScratch::default();
        let mut out = Mapping::identity(0);
        for inst in [&a, &b, &a] {
            for _ in 0..count {
                let want = reference_draw(inst, &mut want_rng);
                RandomMapper::draw_into(inst, &mut into_rng, &mut scratch, &mut out);
                prop_assert_eq!(&out, &want);
                prop_assert_eq!(RandomMapper::draw(inst, &mut draw_rng), want);
            }
            prop_assert_eq!(&into_rng, &want_rng);
            prop_assert_eq!(&draw_rng, &want_rng);
        }
    }
}
