//! The tracer and the NDJSON logger are off by default, and their
//! disabled fast path is one relaxed atomic load, so instrumentation can
//! sit on simulator event paths. These tests pin that contract with a
//! per-call ceiling.
//!
//! Enablement is process-global and other obs test binaries turn both
//! sinks on, so these checks live in a test binary of their own where
//! nothing ever enables them.

use std::time::Instant;

/// Generous ceiling on one disabled call: even a slow CI container sits
/// orders of magnitude below it. Breaching it means the disabled path
/// grew real work.
const DISABLED_NS_CEILING: f64 = 250.0;

/// Calls timed per probe.
const CALLS: u64 = 2_000_000;

fn ns_per_call(mut call: impl FnMut(u64)) -> f64 {
    let t0 = Instant::now();
    for i in 0..CALLS {
        call(std::hint::black_box(i));
    }
    t0.elapsed().as_nanos() as f64 / CALLS as f64
}

#[test]
fn disabled_tracer_call_stays_under_the_ceiling() {
    assert!(!obs::trace::is_enabled(), "the tracer must be off");
    let ns = ns_per_call(|i| obs::trace::sim_instant("bench", "probe", i));
    println!("trace.disabled_ns_per_call {ns:.2}");
    assert!(
        ns < DISABLED_NS_CEILING,
        "disabled tracer costs {ns:.1} ns/call (ceiling {DISABLED_NS_CEILING} ns): \
         the disabled fast path regressed"
    );
}

#[test]
fn disabled_logger_call_stays_under_the_ceiling() {
    assert!(
        !obs::log::enabled(obs::log::Level::Error),
        "the log sink must be off"
    );
    let ns = ns_per_call(|i| {
        if obs::log::enabled(obs::log::Level::Debug) {
            obs::log::debug("probe", &[("i", obs::Json::Num(i as f64))]);
        }
    });
    println!("log.disabled_ns_per_call {ns:.2}");
    assert!(
        ns < DISABLED_NS_CEILING,
        "disabled logger costs {ns:.1} ns/call (ceiling {DISABLED_NS_CEILING} ns): \
         the disabled fast path regressed"
    );
}
