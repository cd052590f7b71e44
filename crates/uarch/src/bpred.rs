//! Alpha 21264-style tournament branch predictor (Table 2).
//!
//! Three components, as in the 21264:
//!
//! * a **local** predictor: 1024-entry table of 10-bit per-branch
//!   histories indexing 1024 3-bit saturating counters;
//! * a **global** predictor: 4096 2-bit counters indexed by 12 bits of
//!   global history;
//! * a **choice** predictor: 4096 2-bit counters (indexed by global
//!   history) selecting between the two.
//!
//! # Examples
//!
//! ```
//! use uarch::bpred::TournamentPredictor;
//!
//! let mut bp = TournamentPredictor::new();
//! // A strongly biased branch becomes predictable quickly.
//! for _ in 0..32 {
//!     let _ = bp.predict_and_update(0x400, true);
//! }
//! assert!(bp.predict_and_update(0x400, true));
//! ```

/// Saturating counter helper.
#[inline]
fn bump(counter: &mut u8, max: u8, up: bool) {
    if up {
        if *counter < max {
            *counter += 1;
        }
    } else if *counter > 0 {
        *counter -= 1;
    }
}

/// The 21264 tournament predictor.
#[derive(Debug, Clone)]
pub struct TournamentPredictor {
    local_history: Vec<u16>, // 1024 × 10-bit history
    local_counters: Vec<u8>, // 1024 × 3-bit
    global_counters: Vec<u8>, // 4096 × 2-bit
    choice_counters: Vec<u8>, // 4096 × 2-bit (toward global when high)
    global_history: u16,      // 12 bits
    predictions: u64,
    mispredictions: u64,
}

impl TournamentPredictor {
    const LOCAL_ENTRIES: usize = 1024;
    const GLOBAL_ENTRIES: usize = 4096;

    /// Creates a predictor with weakly-not-taken initial state.
    pub fn new() -> Self {
        Self {
            local_history: vec![0; Self::LOCAL_ENTRIES],
            local_counters: vec![3; Self::LOCAL_ENTRIES],
            global_counters: vec![1; Self::GLOBAL_ENTRIES],
            // Weakly prefer the PC-indexed local component until the
            // global side proves itself for a history pattern.
            choice_counters: vec![1; Self::GLOBAL_ENTRIES],
            global_history: 0,
            predictions: 0,
            mispredictions: 0,
        }
    }

    fn local_index(&self, pc: u64) -> usize {
        (pc >> 2) as usize % Self::LOCAL_ENTRIES
    }

    /// Predicts the branch at `pc`, then updates all structures with the
    /// actual outcome. Returns `true` if the prediction was correct.
    pub fn predict_and_update(&mut self, pc: u64, taken: bool) -> bool {
        let li = self.local_index(pc);
        let lhist = (self.local_history[li] & 0x3ff) as usize;
        let local_pred = self.local_counters[lhist % Self::LOCAL_ENTRIES] >= 4;

        let gi = (self.global_history & 0xfff) as usize;
        let global_pred = self.global_counters[gi] >= 2;
        let use_global = self.choice_counters[gi] >= 2;

        let prediction = if use_global { global_pred } else { local_pred };
        let correct = prediction == taken;

        // Update choice toward whichever component was right (only when
        // they disagree).
        if local_pred != global_pred {
            bump(&mut self.choice_counters[gi], 3, global_pred == taken);
        }
        bump(&mut self.global_counters[gi], 3, taken);
        bump(&mut self.local_counters[lhist % Self::LOCAL_ENTRIES], 7, taken);

        self.local_history[li] = ((self.local_history[li] << 1) | taken as u16) & 0x3ff;
        self.global_history = ((self.global_history << 1) | taken as u16) & 0xfff;

        self.predictions += 1;
        if !correct {
            self.mispredictions += 1;
        }
        correct
    }

    /// Total predictions made.
    pub fn predictions(&self) -> u64 {
        self.predictions
    }

    /// Mispredictions so far.
    pub fn mispredictions(&self) -> u64 {
        self.mispredictions
    }
}

impl Default for TournamentPredictor {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn biased_branch_is_learned() {
        let mut bp = TournamentPredictor::new();
        for _ in 0..64 {
            bp.predict_and_update(0x1000, true);
        }
        let before = bp.mispredictions();
        for _ in 0..1000 {
            bp.predict_and_update(0x1000, true);
        }
        assert_eq!(bp.mispredictions(), before, "steady branch never misses");
    }

    #[test]
    fn loop_pattern_is_learned_by_local_history() {
        // Pattern: taken 7, not-taken 1 (an 8-iteration loop).
        let mut bp = TournamentPredictor::new();
        for _ in 0..200 {
            for i in 0..8 {
                bp.predict_and_update(0x2000, i != 7);
            }
        }
        // After warmup the local predictor captures the period-8 pattern.
        let warm_misses = bp.mispredictions();
        for _ in 0..100 {
            for i in 0..8 {
                bp.predict_and_update(0x2000, i != 7);
            }
        }
        let rate = (bp.mispredictions() - warm_misses) as f64 / 800.0;
        assert!(rate < 0.05, "loop pattern rate {rate}");
    }

    #[test]
    fn random_branch_misses_about_half() {
        let mut bp = TournamentPredictor::new();
        let mut rng = SmallRng::seed_from_u64(1);
        let mut misses = 0;
        let n = 20_000;
        for _ in 0..n {
            if !bp.predict_and_update(0x3000, rng.gen_bool(0.5)) {
                misses += 1;
            }
        }
        let rate = misses as f64 / n as f64;
        assert!(rate > 0.40 && rate < 0.60, "rate={rate}");
    }

    #[test]
    fn alternating_pattern_is_easy() {
        let mut bp = TournamentPredictor::new();
        let mut t = false;
        for _ in 0..4096 {
            bp.predict_and_update(0x4000, t);
            t = !t;
        }
        let before = bp.mispredictions();
        for _ in 0..1000 {
            bp.predict_and_update(0x4000, t);
            t = !t;
        }
        let extra = bp.mispredictions() - before;
        assert!(extra < 20, "extra={extra}");
    }

    #[test]
    fn rate_accounting() {
        let mut bp = TournamentPredictor::new();
        assert_eq!((bp.predictions(), bp.mispredictions()), (0, 0));
        bp.predict_and_update(0, true);
        assert_eq!(bp.predictions(), 1);
        assert!(bp.mispredictions() <= 1);
    }
}
