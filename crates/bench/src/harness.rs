//! Shared experiment plumbing: paper instances, the standard algorithm
//! line-up, and timing helpers.

use noc_model::{Mesh, TileLatencies};
use obm_core::algorithms::{Global, Mapper, MonteCarlo, SimulatedAnnealing, SortSelectSwap};
use obm_core::ObmInstance;
use std::time::{Duration, Instant};
use workload::{PaperConfig, Workload, WorkloadBuilder};

/// Everything derived from one paper configuration.
pub struct PaperInstance {
    pub config: PaperConfig,
    pub workload: Workload,
    pub instance: ObmInstance,
}

/// Build the OBM instance for a paper configuration on the 8×8 mesh with
/// Table 2 latency parameters.
pub fn paper_instance(cfg: PaperConfig) -> PaperInstance {
    let workload = WorkloadBuilder::paper(cfg).build().0;
    let instance = instance_from_workload(&workload);
    PaperInstance {
        config: cfg,
        workload,
        instance,
    }
}

/// OBM instance from any workload on the paper's 8×8 platform.
pub fn instance_from_workload(w: &Workload) -> ObmInstance {
    let mesh = Mesh::square(8);
    let tiles = TileLatencies::paper_default(&mesh);
    let (c, m) = w.rate_vectors();
    ObmInstance::new(tiles, w.boundaries(), c, m)
}

/// All eight paper instances.
pub fn all_paper_instances() -> Vec<PaperInstance> {
    PaperConfig::ALL
        .iter()
        .map(|&c| paper_instance(c))
        .collect()
}

/// The paper's four compared algorithms with their §V.A parameters
/// (MC: 10⁴ samples; SA: iteration budget set for runtime comparable to
/// SSS via [`sa_matching_sss`]).
pub fn standard_mappers(sa_iterations: usize) -> Vec<Box<dyn Mapper>> {
    vec![
        Box::new(Global),
        Box::new(MonteCarlo {
            samples: 10_000,
            workers: 4,
        }),
        Box::new(SimulatedAnnealing::with_iterations(sa_iterations)),
        Box::new(SortSelectSwap::default()),
    ]
}

/// Wall-clock one mapper run.
pub fn time_mapper(mapper: &dyn Mapper, inst: &ObmInstance, seed: u64) -> Duration {
    let t0 = Instant::now();
    let m = mapper.map(inst, seed);
    let dt = t0.elapsed();
    std::hint::black_box(m);
    dt
}

/// Median-of-`reps` wall-clock for a mapper.
pub fn median_runtime(mapper: &dyn Mapper, inst: &ObmInstance, reps: usize) -> Duration {
    assert!(reps > 0);
    let mut times: Vec<Duration> = (0..reps as u64)
        .map(|s| time_mapper(mapper, inst, s))
        .collect();
    times.sort();
    times[times.len() / 2]
}

/// SA iteration budget whose wall-clock roughly matches one SSS run on the
/// given instance ("SA is allowed to have similar runtime as SSS",
/// paper §V.B.5).
pub fn sa_matching_sss(inst: &ObmInstance) -> usize {
    let sss_time = median_runtime(&SortSelectSwap::default(), inst, 3);
    sa_iterations_for(inst, sss_time)
}

/// SA iteration budget that fills approximately `budget` of wall-clock.
pub fn sa_iterations_for(inst: &ObmInstance, budget: Duration) -> usize {
    // Probe SA throughput with a short run.
    const PROBE: usize = 20_000;
    let t = time_mapper(&SimulatedAnnealing::with_iterations(PROBE), inst, 0);
    let per_iter = t.as_secs_f64() / PROBE as f64;
    ((budget.as_secs_f64() / per_iter) as usize).max(100)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_instance_dimensions() {
        let pi = paper_instance(PaperConfig::C1);
        assert_eq!(pi.instance.num_tiles(), 64);
        assert_eq!(pi.instance.num_threads(), 64);
        assert_eq!(pi.instance.num_apps(), 4);
    }

    #[test]
    fn standard_lineup_names() {
        let mappers = standard_mappers(1000);
        let names: Vec<&str> = mappers.iter().map(|m| m.name()).collect();
        assert_eq!(names, vec!["Global", "MC", "SA", "SSS"]);
    }

    #[test]
    fn sa_budget_is_positive() {
        let pi = paper_instance(PaperConfig::C2);
        let iters = sa_iterations_for(&pi.instance, Duration::from_millis(5));
        assert!(iters >= 100);
    }
}
