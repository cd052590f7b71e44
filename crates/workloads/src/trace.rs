//! Seeded synthetic instruction-trace generator.
//!
//! [`SyntheticTrace`] turns a [`Profile`] into an
//! infinite, deterministic instruction stream implementing
//! [`uarch::TraceSource`].
//!
//! **Memory side** — a three-level reuse model shapes the address stream:
//! *near* reuses walk a small exact LRU stack (geometric depths → L1
//! hits), *mid* reuses span the L1-capacity boundary, *far* reuses pick
//! from a large ring of previously-touched blocks (L1 misses that hit the
//! 2 MB L2), and the remainder streams cold blocks across the footprint
//! (misses all the way to memory). This is what shapes both the L1/L2
//! miss rates and the Fig. 1 reference-age CDF.
//!
//! **Branch side** — branch *sites* (loop-closing, weakly-biased
//! data-dependent, strongly-biased static) are visited in a fixed
//! segment-structured pattern, the way real code revisits the same
//! branches in loop bodies; random per-instance site selection would
//! destroy the global-history correlation a tournament predictor feeds on.

use crate::profile::Profile;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use uarch::instr::{Instruction, OpClass, TraceSource};

const LOOP_SITES: usize = 16;
const RANDOM_SITES: usize = 32;
const BIASED_SITES: usize = 64;
/// Blocks remembered for far (L2-range) reuse.
const FAR_RING: usize = 28_000;
/// Code lives in its own region of the address space.
const CODE_BASE: u64 = 1 << 40;
/// Code footprint in 64 B fetch blocks (512 KB — 8× the L1I).
const CODE_BLOCKS: u64 = 8192;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Site {
    Loop(usize),
    Random(usize),
    Biased(usize),
}

/// Deterministic synthetic instruction stream for one benchmark profile.
#[derive(Debug, Clone)]
pub struct SyntheticTrace {
    profile: Profile,
    rng: SmallRng,
    /// Exact LRU stack of block ids for near/mid reuse, most recent first.
    /// A reuse removes one entry (O(depth)); the touched block returns at
    /// the front and an overflow leaves at the back, both O(1).
    stack: VecDeque<u32>,
    stack_cap: usize,
    /// Ring of blocks that left the near stack (L2-resident working set).
    far_ring: Vec<u32>,
    far_pos: usize,
    next_cold_block: u32,
    /// Loop-branch sites: (remaining trips, trip count).
    loops: [(u32, u32); LOOP_SITES],
    /// Per-site direction of the biased static branches.
    biased_dir: [bool; BIASED_SITES],
    /// Segment-structured branch site visitation pattern.
    pattern: Vec<Site>,
    pattern_pos: usize,
    /// Current program counter (the basic-block control-flow model).
    cur_pc: u64,
    /// Probability that a taken branch jumps to a far code block (drives
    /// the organic I-cache miss rate; derived from the profile).
    far_jump_prob: f64,
    /// `ln(1 − p)` of the geometric near-reuse depth and dependency
    /// distance draws (see [`SyntheticTrace::sample_geometric`]).
    ln_near: f64,
    ln_dep: f64,
}

impl SyntheticTrace {
    /// Creates a trace for `profile` from a seed.
    pub fn new(profile: Profile, seed: u64) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x5eed_7ace);
        let mut loops = [(0u32, 0u32); LOOP_SITES];
        for (i, slot) in loops.iter_mut().enumerate() {
            let trip = (profile.loop_trip / 2 + (i as u32 * profile.loop_trip) / LOOP_SITES as u32)
                .max(2);
            *slot = (rng.gen_range(1..=trip), trip);
        }
        let mut biased_dir = [true; BIASED_SITES];
        for (i, d) in biased_dir.iter_mut().enumerate() {
            *d = i % 8 != 0;
        }

        // Build the site pattern: segments of a few sites, each repeated —
        // the shape of loop bodies revisiting the same branches.
        let mut pattern = Vec::new();
        for _ in 0..24 {
            let body: Vec<Site> = (0..rng.gen_range(2..=4))
                .map(|_| {
                    let r: f64 = rng.gen();
                    if r < profile.loop_branch_frac {
                        Site::Loop(rng.gen_range(0..LOOP_SITES))
                    } else if r < profile.loop_branch_frac + profile.random_branch_frac {
                        Site::Random(rng.gen_range(0..RANDOM_SITES))
                    } else {
                        Site::Biased(rng.gen_range(0..BIASED_SITES))
                    }
                })
                .collect();
            let reps = rng.gen_range(8..=24);
            for _ in 0..reps {
                pattern.extend_from_slice(&body);
            }
        }

        let stack_cap = (profile.mid_range as usize * 2).max(3_000);
        // Pre-warm the reuse state so the stream starts mid-execution, the
        // way the paper's SimPoint windows do: the near stack and the far
        // ring hold an established working set rather than starting cold.
        let warm = stack_cap.min(profile.footprint_blocks as usize);
        let stack: VecDeque<u32> = (0..warm as u32).collect();
        let ring_fill = FAR_RING.min(profile.footprint_blocks as usize);
        let far_ring: Vec<u32> = (0..ring_fill as u32)
            .map(|i| (warm as u32).wrapping_add(i) % profile.footprint_blocks)
            .collect();
        let next_cold_block = ((warm + ring_fill) as u32) % profile.footprint_blocks;
        // Taken branches occur roughly every 1/(frac_branch·0.7) instrs;
        // scale the far-jump probability so organic I-cache misses land
        // near the profile's declared rate.
        let taken_per_instr = (profile.frac_branch * 0.7).max(1e-6);
        let far_jump_prob = (profile.icache_miss_rate / taken_per_instr).min(0.9);
        Self {
            profile,
            rng,
            stack,
            stack_cap,
            far_ring,
            far_pos: 0,
            next_cold_block,
            loops,
            biased_dir,
            pattern,
            pattern_pos: 0,
            cur_pc: CODE_BASE,
            far_jump_prob,
            ln_near: Self::geometric_log(profile.near_mean),
            ln_dep: Self::geometric_log(profile.dep_mean - 1.0),
        }
    }

    /// The fixed code address of a branch site's basic block.
    fn site_home(site: Site) -> u64 {
        let key = match site {
            Site::Loop(i) => 0x100 + i as u64,
            Site::Random(i) => 0x200 + i as u64,
            Site::Biased(i) => 0x300 + i as u64,
        };
        // Spread homes over the first quarter of the code footprint.
        CODE_BASE + (key.wrapping_mul(0x9e37_79b9) % (CODE_BLOCKS / 4)) * 64
    }

    /// The profile this trace was built from.
    pub fn profile(&self) -> &Profile {
        &self.profile
    }

    /// `ln(1 − p)` for a geometric draw with the given mean, where
    /// `p = 1 / (mean + 1)`.
    fn geometric_log(mean: f64) -> f64 {
        let p = 1.0 / (mean + 1.0);
        (1.0 - p).ln()
    }

    /// A geometric draw whose `ln(1 − p)` is `ln_q`.
    fn sample_geometric(&mut self, ln_q: f64) -> u32 {
        let u: f64 = self.rng.gen_range(f64::EPSILON..1.0);
        (u.ln() / ln_q) as u32
    }

    fn push_far(&mut self, block: u32) {
        if self.far_ring.len() < FAR_RING {
            self.far_ring.push(block);
        } else {
            self.far_ring[self.far_pos] = block;
            self.far_pos = (self.far_pos + 1) % FAR_RING;
        }
    }

    fn next_block(&mut self) -> u32 {
        let p = self.profile;
        let r: f64 = self.rng.gen();
        let near_hi = p.near_reuse;
        let mid_hi = near_hi + p.mid_reuse;
        let far_hi = mid_hi + p.far_reuse;

        let block = if r < near_hi && !self.stack.is_empty() {
            let d = self.sample_geometric(self.ln_near) as usize;
            let d = d.min(self.stack.len() - 1);
            self.stack.remove(d).expect("depth within the stack")
        } else if r < mid_hi && !self.stack.is_empty() {
            let range = (p.mid_range as usize).min(self.stack.len());
            let d = self.rng.gen_range(0..range);
            self.stack.remove(d).expect("depth within the stack")
        } else if r < far_hi && !self.far_ring.is_empty() {
            // Far reuse: an older block still within L2 reach. No stack
            // surgery needed — it re-enters the near stack below.
            let i = self.rng.gen_range(0..self.far_ring.len());
            self.far_ring[i]
        } else {
            // Cold/streaming reference across the footprint.
            let b = self.next_cold_block;
            self.next_cold_block = (self.next_cold_block + 1) % p.footprint_blocks;
            b
        };
        self.stack.push_front(block);
        if self.stack.len() > self.stack_cap {
            if let Some(evicted) = self.stack.pop_back() {
                self.push_far(evicted);
            }
        }
        block
    }

    fn mem_addr(&mut self) -> u64 {
        let block = self.next_block();
        (block as u64) * 64 + self.rng.gen_range(0..8u64) * 8
    }

    fn dep(&mut self) -> Option<u32> {
        if self.rng.gen::<f64>() < self.profile.dep_prob {
            let d = 1 + self.sample_geometric(self.ln_dep);
            Some(d.min(64))
        } else {
            None
        }
    }

    fn branch(&mut self) -> Instruction {
        let site = self.pattern[self.pattern_pos];
        self.pattern_pos = (self.pattern_pos + 1) % self.pattern.len();
        let taken = match site {
            Site::Loop(i) => {
                let (ref mut remaining, trip) = self.loops[i];
                let taken = *remaining > 1;
                if taken {
                    *remaining -= 1;
                } else {
                    *remaining = trip;
                }
                taken
            }
            Site::Random(_) => self.rng.gen_bool(self.profile.random_branch_bias),
            Site::Biased(i) => {
                let dir = self.biased_dir[i];
                if self.rng.gen_bool(0.985) {
                    dir
                } else {
                    !dir
                }
            }
        };
        // The branch instruction sits at its site's fixed code address
        // (execution fell through to this block).
        let branch_pc = Self::site_home(site);
        // Control transfer: taken branches land on the *next* site's home
        // block (or, rarely, jump to a far code block — the organic
        // I-cache miss mechanism); not-taken falls through.
        self.cur_pc = if taken {
            if self.rng.gen::<f64>() < self.far_jump_prob {
                CODE_BASE + self.rng.gen_range(0..CODE_BLOCKS) * 64
            } else {
                Self::site_home(self.pattern[self.pattern_pos])
            }
        } else {
            branch_pc + 4
        };
        Instruction::branch(branch_pc, taken)
    }
}

impl TraceSource for SyntheticTrace {
    fn next_instr(&mut self) -> Instruction {
        let r: f64 = self.rng.gen();
        let p = self.profile;
        // Non-branch instructions execute at the falling-through PC.
        let pc = self.cur_pc;
        let mut acc = p.frac_load;
        if r < acc {
            let d = self.dep();
            let a = self.mem_addr();
            self.cur_pc += 4;
            return Instruction::load(a, d).at_pc(pc);
        }
        acc += p.frac_store;
        if r < acc {
            let d = self.dep();
            let a = self.mem_addr();
            self.cur_pc += 4;
            return Instruction::store(a, d).at_pc(pc);
        }
        acc += p.frac_branch;
        if r < acc {
            let mut b = self.branch();
            if let Some(d) = self.dep() {
                b = b.with_src1(d);
            }
            return b;
        }
        acc += p.frac_fp;
        if r < acc {
            self.cur_pc += 4;
            let mut i = Instruction {
                op: OpClass::Fp,
                pc,
                src1: None,
                src2: None,
                addr: None,
                taken: false,
            };
            if let Some(d) = self.dep() {
                i = i.with_src1(d);
            }
            if let Some(d) = self.dep() {
                i = i.with_src2(d);
            }
            return i;
        }
        acc += p.frac_intmul;
        if r < acc {
            self.cur_pc += 4;
            let mut i = Instruction {
                op: OpClass::IntMul,
                pc,
                src1: None,
                src2: None,
                addr: None,
                taken: false,
            };
            if let Some(d) = self.dep() {
                i = i.with_src1(d);
            }
            return i;
        }
        self.cur_pc += 4;
        let mut i = Instruction::int_alu().at_pc(pc);
        if let Some(d) = self.dep() {
            i = i.with_src1(d);
        }
        if let Some(d) = self.dep() {
            i = i.with_src2(d);
        }
        i
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::SpecBenchmark;

    fn sample(bench: SpecBenchmark, n: usize, seed: u64) -> Vec<Instruction> {
        let mut t = SyntheticTrace::new(bench.profile(), seed);
        (0..n).map(|_| t.next_instr()).collect()
    }

    #[test]
    fn determinism_under_same_seed() {
        let a = sample(SpecBenchmark::Gcc, 5_000, 9);
        let b = sample(SpecBenchmark::Gcc, 5_000, 9);
        assert_eq!(a, b);
        let c = sample(SpecBenchmark::Gcc, 5_000, 10);
        assert_ne!(a, c);
    }

    #[test]
    fn instruction_mix_matches_profile() {
        for bench in SpecBenchmark::ALL {
            let p = bench.profile();
            let instrs = sample(bench, 60_000, 1);
            let frac = |op: OpClass| {
                instrs.iter().filter(|i| i.op == op).count() as f64 / instrs.len() as f64
            };
            assert!((frac(OpClass::Load) - p.frac_load).abs() < 0.01, "{bench} loads");
            assert!((frac(OpClass::Store) - p.frac_store).abs() < 0.01, "{bench} stores");
            assert!(
                (frac(OpClass::Branch) - p.frac_branch).abs() < 0.01,
                "{bench} branches"
            );
            assert!((frac(OpClass::Fp) - p.frac_fp).abs() < 0.01, "{bench} fp");
        }
    }

    #[test]
    fn memory_addresses_are_block_aligned_words() {
        for i in sample(SpecBenchmark::Mcf, 10_000, 3) {
            if let Some(a) = i.addr {
                assert_eq!(a % 8, 0);
            }
        }
    }

    #[test]
    fn reuse_concentrates_references() {
        let instrs = sample(SpecBenchmark::Mesa, 40_000, 5);
        let blocks: Vec<u64> = instrs.iter().filter_map(|i| i.addr.map(|a| a / 64)).collect();
        let mut recent: Vec<u64> = Vec::new();
        let mut near = 0usize;
        for &b in &blocks {
            if let Some(pos) = recent.iter().position(|&x| x == b) {
                if pos < 64 {
                    near += 1;
                }
                recent.remove(pos);
            }
            recent.insert(0, b);
            recent.truncate(4096);
        }
        let frac = near as f64 / blocks.len() as f64;
        assert!(frac > 0.8, "mesa near-reuse fraction {frac}");
    }

    #[test]
    fn mcf_streams_much_more_than_mesa() {
        let count_cold = |bench: SpecBenchmark| {
            let instrs = sample(bench, 40_000, 5);
            let blocks: Vec<u64> =
                instrs.iter().filter_map(|i| i.addr.map(|a| a / 64)).collect();
            let mut seen = std::collections::HashSet::new();
            let mut cold = 0;
            for &b in &blocks {
                if seen.insert(b) {
                    cold += 1;
                }
            }
            cold as f64 / blocks.len() as f64
        };
        assert!(count_cold(SpecBenchmark::Mcf) > 2.0 * count_cold(SpecBenchmark::Mesa));
    }

    #[test]
    fn dependency_distances_are_bounded() {
        for i in sample(SpecBenchmark::Twolf, 20_000, 2) {
            if let Some(d) = i.src1 {
                assert!((1..=64).contains(&d));
            }
        }
    }

    #[test]
    fn branch_sites_have_stable_pcs() {
        let instrs = sample(SpecBenchmark::Crafty, 50_000, 7);
        let pcs: std::collections::HashSet<u64> = instrs
            .iter()
            .filter(|i| i.op == OpClass::Branch)
            .map(|i| i.pc)
            .collect();
        assert!(pcs.len() <= LOOP_SITES + RANDOM_SITES + BIASED_SITES);
        assert!(pcs.len() > 5);
    }

    #[test]
    fn branch_sites_repeat_in_patterns() {
        // Consecutive branch PCs should show short-period structure
        // (segments), not white noise: the same PC must frequently recur
        // within a window of 8 branches.
        let instrs = sample(SpecBenchmark::Gcc, 50_000, 11);
        let pcs: Vec<u64> = instrs
            .iter()
            .filter(|i| i.op == OpClass::Branch)
            .map(|i| i.pc)
            .collect();
        let mut recur = 0usize;
        for w in pcs.windows(9) {
            if w[..8].contains(&w[8]) {
                recur += 1;
            }
        }
        let frac = recur as f64 / (pcs.len() - 8) as f64;
        assert!(frac > 0.5, "recurrence fraction {frac}");
    }
}
