//! The three workloads that run on a single [`Runtime`]: what they are, how
//! the seed shapes them, and what one op is.

use leak_pruning::{PruningConfig, Runtime, RuntimeError};
use lp_workloads::dacapo::{Dacapo, DacapoConfig};
use lp_workloads::leaks::ListLeak;
use lp_workloads::Workload;

use crate::Kind;

/// `ListLeak` iterations per op on `leak_prune`: one iteration is five
/// allocations (a quarter of a microsecond), too short to time on its own,
/// and with 64 of them about 7 % of ops contain a collection.
const LEAK_ITERATIONS_PER_OP: u64 = 64;
/// `leak_prune`'s heap: of 2, 8 and 32 MB, the one whose runs agreed most
/// closely (a collection marks about 20 k objects).
const LEAK_HEAP: u64 = 8 << 20;

/// `read_steady`'s ops all do the same work and almost none contains a
/// collection, so the p99 of a uniform op would be whatever the box's timer
/// ticks and neighbours add to it. One request in sixteen, chosen by the
/// seed, is four iterations long: the p99 then lies well inside the heavy
/// requests and measures the same load path as the median does.
const HEAVY_EVERY: u64 = 16;
const HEAVY_FACTOR: u64 = 4;

/// SplitMix64: the harness's only source of randomness, so the same seed
/// gives the same inputs.
pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `value` moved by a seed-chosen share in (−`most`, +`most`). The programs'
/// own generators are private, so the seed reaches them through their
/// sizes; the jitter stays small enough not to change which cache level a
/// working set lives in.
fn jitter(value: u64, most: f64, seed: u64, salt: u64) -> u64 {
    let mut state = seed ^ salt.wrapping_mul(0xA076_1D64_78BD_642F);
    let share = (splitmix(&mut state) % 2001) as f64 / 1000.0 - 1.0;
    (value as f64 * (1.0 + most * share)).round() as u64
}

/// A program, the heap it runs in, and how many of its iterations make
/// one op.
pub struct Program {
    workload: Box<dyn Workload>,
    heap: u64,
    /// Objects the program keeps alive (0 where that grows: the leak).
    working_set: usize,
    iterations_per_op: u64,
    /// Whether one op in [`HEAVY_EVERY`], chosen by the seed, is a heavy
    /// request of [`HEAVY_FACTOR`] times the iterations.
    heavy_requests: bool,
    seed: u64,
    next_op: u64,
    next_iteration: u64,
}

impl Program {
    /// # Panics
    ///
    /// Panics on [`Kind::ServeFleet`], which is not a single-runtime program.
    pub fn new(kind: Kind, seed: u64) -> Program {
        let dacapo = |config: DacapoConfig, heap_multiplier: f64| {
            let working_set = config.working_set;
            let program = Dacapo::with_heap_multiplier(config, heap_multiplier);
            let heap = program.default_heap();
            (Box::new(program) as Box<dyn Workload>, heap, working_set)
        };
        let (workload, heap, working_set) = match kind {
            Kind::ReadSteady => dacapo(
                DacapoConfig {
                    name: "read_steady",
                    working_set: jitter(12_000, 0.01, seed, 1) as usize,
                    object_bytes: 48,
                    allocs_per_iter: 8,
                    reads_per_iter: 2000,
                },
                2.0,
            ),
            Kind::AllocChurn => dacapo(
                DacapoConfig {
                    name: "alloc_churn",
                    working_set: jitter(5_000, 0.01, seed, 2) as usize,
                    object_bytes: 96,
                    allocs_per_iter: 300,
                    reads_per_iter: 15,
                },
                1.3,
            ),
            Kind::LeakPrune => (
                Box::new(ListLeak::new()) as Box<dyn Workload>,
                jitter(LEAK_HEAP, 0.01, seed, 3),
                0,
            ),
            Kind::ServeFleet => panic!("serve_fleet runs on a Host, not on one Runtime"),
        };
        Program {
            workload,
            heap,
            working_set,
            iterations_per_op: if kind == Kind::LeakPrune {
                LEAK_ITERATIONS_PER_OP
            } else {
                1
            },
            heavy_requests: kind == Kind::ReadSteady,
            seed,
            next_op: 0,
            next_iteration: 0,
        }
    }

    pub fn working_set(&self) -> usize {
        self.working_set
    }

    /// The configuration an application would get by default.
    pub fn config(&self) -> PruningConfig {
        PruningConfig::builder(self.heap).build()
    }

    /// The paper's "Base": no barrier, no pruning, same heap.
    pub fn base_config(&self) -> PruningConfig {
        PruningConfig::base(self.heap)
    }

    pub fn setup(&mut self, rt: &mut Runtime) -> Result<(), RuntimeError> {
        self.workload.setup(rt)
    }

    pub fn op(&mut self, rt: &mut Runtime) -> Result<(), RuntimeError> {
        let mut iterations = self.iterations_per_op;
        if self.heavy_requests {
            let mut state = self.seed ^ self.next_op.wrapping_mul(0xD6E8_FEB8_6659_FD93);
            if splitmix(&mut state).is_multiple_of(HEAVY_EVERY) {
                iterations *= HEAVY_FACTOR;
            }
        }
        self.next_op += 1;
        for _ in 0..iterations {
            self.workload.iterate(rt, self.next_iteration)?;
            self.next_iteration += 1;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jitter_is_deterministic_and_below_two_percent() {
        let mut distinct = std::collections::BTreeSet::new();
        for seed in 0..500 {
            let moved = jitter(50_000, 0.01, seed, 1);
            assert_eq!(moved, jitter(50_000, 0.01, seed, 1));
            assert!((49_500..=50_500).contains(&moved), "{moved}");
            distinct.insert(moved);
        }
        assert!(distinct.len() > 200, "seeds must give different inputs");
    }

    #[test]
    fn one_read_steady_op_in_sixteen_is_heavy_and_the_seed_says_which() {
        let schedule = |seed| -> Vec<u64> {
            let mut program = Program::new(Kind::ReadSteady, seed);
            let mut rt = Runtime::new(program.config());
            program.setup(&mut rt).unwrap();
            (0..3200)
                .map(|_| {
                    let before = program.next_iteration;
                    program.op(&mut rt).unwrap();
                    program.next_iteration - before
                })
                .collect()
        };
        let first = schedule(11);
        assert_eq!(first, schedule(11));
        assert_ne!(first, schedule(12));
        assert!(first.iter().all(|&n| n == 1 || n == HEAVY_FACTOR));
        let heavy = first.iter().filter(|&&n| n == HEAVY_FACTOR).count();
        assert!((150..=250).contains(&heavy), "{heavy} of 3200");
    }
}
