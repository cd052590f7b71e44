//! Machine configuration — the Table 2 baseline.

/// Out-of-order core parameters (Table 2: Alpha 21264 / POWER4-class).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MachineConfig {
    /// Instructions fetched/dispatched/committed per cycle.
    pub width: u32,
    /// Reorder buffer entries.
    pub rob_entries: u32,
    /// Integer issue-queue entries.
    pub int_iq_entries: u32,
    /// Floating-point issue-queue entries.
    pub fp_iq_entries: u32,
    /// Load-queue entries.
    pub load_queue: u32,
    /// Store-queue entries.
    pub store_queue: u32,
    /// Integer functional units.
    pub int_units: u32,
    /// Floating-point functional units.
    pub fp_units: u32,
    /// Fetch-redirect penalty after a resolved misprediction (cycles).
    pub redirect_penalty: u32,
    /// Instruction-cache miss penalty (cycles), charged when a fetch
    /// block misses the front end's 64 KB L1I.
    pub icache_miss_penalty: u32,
    /// Pipeline recovery cost when a load hits an expired/dead cache line
    /// (the scheduler speculated a hit; dependents replay and the pipeline
    /// partially flushes — §4.3.2).
    pub replay_flush_cycles: u32,
    /// Data-TLB miss penalty in cycles (PALcode fill on the 21264).
    pub dtlb_miss_penalty: u32,
    /// Issue instructions strictly in program order (ablation switch; the
    /// paper's tolerance argument leans on out-of-order issue).
    pub in_order: bool,
}

impl MachineConfig {
    /// The paper's baseline (Table 2).
    pub const TABLE2: MachineConfig = MachineConfig {
        width: 4,
        rob_entries: 80,
        int_iq_entries: 20,
        fp_iq_entries: 15,
        load_queue: 32,
        store_queue: 32,
        int_units: 4,
        fp_units: 2,
        redirect_penalty: 2,
        icache_miss_penalty: 12,
        replay_flush_cycles: 12,
        dtlb_miss_penalty: 20,
        in_order: false,
    };

    /// The Table 2 machine with strictly in-order issue (same widths and
    /// structures) — the ablation baseline for the paper's claim that
    /// out-of-order execution hides retention effects.
    pub fn table2_in_order() -> MachineConfig {
        MachineConfig {
            in_order: true,
            ..Self::TABLE2
        }
    }
}

impl Default for MachineConfig {
    fn default() -> Self {
        Self::TABLE2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_values() {
        let c = MachineConfig::TABLE2;
        assert_eq!(c.width, 4);
        assert_eq!(c.rob_entries, 80);
        assert_eq!(c.int_iq_entries, 20);
        assert_eq!(c.fp_iq_entries, 15);
        assert_eq!(c.load_queue, 32);
        assert_eq!(c.store_queue, 32);
        assert_eq!(c.int_units, 4);
        assert_eq!(c.fp_units, 2);
        assert_eq!(MachineConfig::default(), c);
    }
}
