//! Targeted stress tests for pipeline capacity limits: each structural
//! resource (ROB, issue queues, load/store queues, FUs) must throttle
//! throughput in the expected way, never deadlock.

use cachesim::{CacheConfig, DataCache, RetentionProfile, Scheme};
use uarch::instr::{Instruction, OpClass};
use uarch::sim::{simulate, Pipeline};
use uarch::{FrontEnd, MachineConfig};

fn ideal() -> DataCache {
    DataCache::ideal()
}

#[test]
fn rob_limits_inflight_window() {
    // A very long-latency head (memory miss) with independent work behind
    // it: ROB(80) caps how much slips past.
    let mut i = 0u64;
    let mut src = move || {
        i += 1;
        if i % 200 == 1 {
            Instruction::load(i * 64 * 1024, None) // distinct blocks: all miss
        } else {
            Instruction::int_alu()
        }
    };
    let mut cache = ideal();
    let r = simulate(&mut src, &mut cache, 20_000);
    // Memory latency ~215 cycles per 200 instructions bounds IPC: with an
    // 80-entry ROB the machine cannot hide a 215-cycle miss behind 200
    // instructions of work (80 < 215×4), so IPC sits clearly below width.
    assert!(r.ipc() > 0.5 && r.ipc() < 2.0, "ipc {}", r.ipc());
}

#[test]
fn store_queue_saturation_throttles_but_progresses() {
    // Pure store stream: 1 write port drains 1/cycle.
    let mut i = 0u64;
    let mut src = move || {
        i += 1;
        Instruction::store((i % 64) * 64, None)
    };
    let mut cache = ideal();
    let r = simulate(&mut src, &mut cache, 10_000);
    assert!(r.ipc() > 0.85 && r.ipc() <= 1.05, "ipc {}", r.ipc());
}

#[test]
fn load_ports_cap_pure_load_throughput() {
    let mut i = 0u64;
    let mut src = move || {
        i += 1;
        Instruction::load((i % 64) * 64, None)
    };
    let mut cache = ideal();
    let r = simulate(&mut src, &mut cache, 10_000);
    assert!(r.ipc() > 1.7 && r.ipc() <= 2.05, "2 read ports: ipc {}", r.ipc());
}

#[test]
fn fp_queue_pressure_does_not_deadlock_int_work() {
    // Long dependent FP chain interleaved with independent INT ops: FP IQ
    // (15) fills with waiting ops, INT work must keep flowing.
    let mut i = 0u64;
    let mut src = move || {
        i += 1;
        if i.is_multiple_of(2) {
            Instruction {
                op: OpClass::Fp,
                pc: 0,
                src1: Some(2),
                src2: None,
                addr: None,
                taken: false,
            }
        } else {
            Instruction::int_alu()
        }
    };
    let mut cache = ideal();
    let r = simulate(&mut src, &mut cache, 20_000);
    // Chain of FP(4 cycles) every 2 instructions → IPC ≈ 0.5; must not
    // collapse below that.
    assert!(r.ipc() > 0.4, "ipc {}", r.ipc());
}

#[test]
fn dependency_distance_beyond_rob_is_free() {
    // Distances larger than the commit ring must be treated as ready.
    let mut src = move || Instruction::int_alu().with_src1(64);
    let mut cache = ideal();
    let r = simulate(&mut src, &mut cache, 10_000);
    // Distance-64 deps barely serialize a 4-wide, 80-entry machine.
    assert!(r.ipc() > 3.0, "ipc {}", r.ipc());
}

#[test]
fn cache_port_conflicts_backpressure_issue() {
    // Run against a 3T1D cache with continuous refresh pressure.
    let cfg = CacheConfig::paper(Scheme::new(
        cachesim::RefreshPolicy::Full,
        cachesim::ReplacementPolicy::Lru,
    ));
    let mut cache = DataCache::new(cfg, RetentionProfile::uniform_cycles(30_000, 1024));
    let mut i = 0u64;
    let mut src = move || {
        i += 1;
        if i.is_multiple_of(3) {
            Instruction::load((i % 512) * 64, Some(1))
        } else {
            Instruction::int_alu()
        }
    };
    let r = simulate(&mut src, &mut cache, 30_000);
    assert_eq!(r.instructions, 30_000, "must complete under refresh pressure");
    assert!(cache.stats().refreshes > 0);
}

#[test]
fn in_order_issue_is_strictly_slower_under_latency() {
    // Loads with immediate consumers (stall-on-use) followed by
    // independent work: the OoO machine executes the independent work
    // under the miss; the in-order machine stalls at each consumer.
    let make_src = || {
        let mut i = 0u64;
        move || {
            i += 1;
            match i % 20 {
                0 => Instruction::load(i * 64 * 1024, None), // distinct: misses
                1 => Instruction::int_alu().with_src1(1),    // consumer of the load
                _ => Instruction::int_alu(),
            }
        }
    };
    let mut src = make_src();
    let mut cache = ideal();
    let ooo = Pipeline::new(MachineConfig::TABLE2).run(
        &mut FrontEnd::new(&mut src),
        &mut cache,
        10_000,
    );

    let mut src = make_src();
    let mut cache = ideal();
    let ino = Pipeline::new(MachineConfig::table2_in_order()).run(
        &mut FrontEnd::new(&mut src),
        &mut cache,
        10_000,
    );

    assert!(
        ooo.ipc() > ino.ipc() * 1.5,
        "OoO {} vs in-order {}",
        ooo.ipc(),
        ino.ipc()
    );
}

#[test]
fn in_order_and_ooo_agree_on_serial_code() {
    // Fully serial dependency chain: ordering freedom is worthless, the
    // two machines should perform identically.
    let make_src = || move || Instruction::int_alu().with_src1(1);
    let mut src = make_src();
    let mut cache = ideal();
    let ooo = Pipeline::new(MachineConfig::TABLE2).run(
        &mut FrontEnd::new(&mut src),
        &mut cache,
        5_000,
    );
    let mut src = make_src();
    let mut cache = ideal();
    let ino = Pipeline::new(MachineConfig::table2_in_order()).run(
        &mut FrontEnd::new(&mut src),
        &mut cache,
        5_000,
    );
    assert!((ooo.ipc() - ino.ipc()).abs() < 0.02, "{} vs {}", ooo.ipc(), ino.ipc());
}

#[test]
fn zero_width_redirect_never_hangs() {
    // Worst-case branch storm: every instruction a random branch.
    let mut state = 0x9e3779b97f4a7c15u64;
    let mut src = move || {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        Instruction::branch(0x500, state.wrapping_mul(0x2545F4914F6CDD1D) >> 63 == 1)
    };
    let mut cache = ideal();
    let mut p = Pipeline::new(MachineConfig::TABLE2);
    let r = p.run(&mut FrontEnd::new(&mut src), &mut cache, 5_000);
    assert_eq!(r.instructions, 5_000);
    assert!(r.mispredict_rate() > 0.3);
    assert!(r.ipc() > 0.1, "even a branch storm makes progress");
}

#[test]
fn issue_queue_full_stalls_are_counted_exactly() {
    // Every 40th instruction is a load that misses to memory; the rest
    // alternate INT and FP ops that depend on it. Both issue queues fill
    // behind each miss while the ROB still has room, so dispatch stalls
    // on full issue queues for most of every miss, and the idle-cycle
    // skip must charge each of those cycles to `iq_full_stalls`. The
    // counters were captured from the cycle-by-cycle loop.
    let mut i = 0u64;
    let mut src = move || {
        i += 1;
        let since_load = (i % 40) as u32;
        if since_load == 0 {
            Instruction::load(i * 64 * 1024, None)
        } else if since_load.is_multiple_of(2) {
            Instruction {
                op: OpClass::Fp,
                pc: 0,
                src1: Some(since_load),
                src2: None,
                addr: None,
                taken: false,
            }
        } else {
            Instruction::int_alu().with_src1(since_load)
        }
    };
    let mut cache = ideal();
    let r = simulate(&mut src, &mut cache, 20_000);
    assert!(r.iq_full_stalls > 0, "{r:?}");
    const PINNED: &str = "SimResult { instructions: 20000, cycles: 120006, branches: 0, \
        mispredictions: 0, icache_stall_cycles: 0, loads: 500, stores: 0, port_retries: 0, \
        replay_flushes: 0, dtlb_misses: 500, dispatch_blocked_cycles: 0, rob_full_stalls: 0, \
        iq_full_stalls: 114996, lsq_full_stalls: 0, \
        value_age_hist: [0, 5994, 5988, 5988, 1497, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0] }";
    assert_eq!(format!("{r:?}"), PINNED);
}
