//! Equivalence guards for the per-channel span fast path.
//!
//! The span advance claims to be *exact*: jumping the system clock across
//! a window in which only the DRAM channels are busy, ticking each of
//! those channels independently, must land in precisely the state
//! per-cycle polling reaches. These tests pin that claim end-to-end —
//! full runs compared field-for-field between the polled loop and the
//! event/span loop, with and without telemetry armed.

use bear_core::config::{BearFeatures, DesignKind, SystemConfig};
use bear_core::system::System;
use bear_telemetry::{TelemetryConfig, TelemetryOptions};

const WARMUP: u64 = 20_000;
const MEASURE: u64 = 60_000;

fn run(cfg: &SystemConfig, event_driven: bool, bench: &str) -> String {
    let mut sys = System::build_rate(cfg, bench);
    sys.set_event_driven(event_driven);
    let stats = sys.run(WARMUP, MEASURE);
    format!("{stats:?}")
}

#[test]
fn span_advance_matches_polled_loop_for_every_design() {
    for design in [
        DesignKind::Alloy,
        DesignKind::NoCache,
        DesignKind::LohHill,
        DesignKind::TagsInSram,
        DesignKind::SectorCache,
    ] {
        let cfg = SystemConfig::paper_baseline(design);
        let polled = run(&cfg, false, "mcf");
        let spanned = run(&cfg, true, "mcf");
        assert_eq!(
            polled, spanned,
            "{design:?}: span loop diverged from polling"
        );
    }
}

#[test]
fn salp_subarrays_preserve_span_equivalence() {
    // Multi-subarray banks (SALP) give every bank per-subarray open-row
    // and timing state; the busy hints and span horizons must stay exact.
    // verify.sh reruns this file under BEAR_GATE_DIAG=1, which re-executes
    // every elided tick and asserts it was a no-op — with these knobs
    // armed that audit covers the subarray-aware gating too.
    let mut cfg = SystemConfig::paper_baseline(DesignKind::Alloy);
    cfg.cache_dram.topology.subarrays_per_bank = 4;
    cfg.mem_dram.topology.subarrays_per_bank = 2;
    let polled = run(&cfg, false, "mcf");
    let spanned = run(&cfg, true, "mcf");
    assert_eq!(polled, spanned, "SALP: span loop diverged from polling");
}

#[test]
fn spans_actually_engage_on_memory_bound_work() {
    let cfg = SystemConfig::paper_baseline(DesignKind::Alloy);
    let mut sys = System::build_rate(&cfg, "mcf");
    sys.run(WARMUP, MEASURE);
    assert!(
        sys.span_cycles() > 0,
        "span fast path never engaged on a memory-bound benchmark"
    );
}

/// Everything a fully armed telemetry run observes, in comparable form.
struct Observed {
    stats: String,
    jsonl: Vec<String>,
    events: Vec<(u64, bear_core::events::ObsEvent)>,
    transfers: Vec<bear_dram::channel::TransferRecord>,
    skipped: u64,
    spanned: u64,
}

fn run_observed(cfg: &SystemConfig, event_driven: bool, bench: &str) -> Observed {
    let mut sys = System::build_rate(cfg, bench);
    sys.set_event_driven(event_driven);
    sys.set_telemetry(TelemetryConfig::On(TelemetryOptions {
        // Not a divisor of MEASURE (nor of the 4096-cycle check stride),
        // so windows end mid-stride and the last one is partial.
        sample_window: 7_000,
        ring_capacity: 1 << 14,
        trace: true,
        profile: true,
    }));
    let stats = sys.run(WARMUP, MEASURE);
    let report = sys.take_telemetry().expect("telemetry was armed");
    Observed {
        stats: format!("{stats:?}"),
        jsonl: report.samples.iter().map(|s| s.to_json_line()).collect(),
        events: report.events,
        transfers: report.transfers,
        skipped: sys.loop_counters().0,
        spanned: sys.span_cycles(),
    }
}

#[test]
fn telemetry_armed_runs_match_polled_loop_for_every_design() {
    for design in [
        DesignKind::NoCache,
        DesignKind::Alloy,
        DesignKind::InclusiveAlloy,
        DesignKind::BwOpt,
        DesignKind::LohHill,
        DesignKind::MostlyClean,
        DesignKind::TagsInSram,
        DesignKind::SectorCache,
    ] {
        let mut cfg = SystemConfig::paper_baseline(design);
        if design == DesignKind::Alloy {
            cfg.bear = BearFeatures::full();
        }
        let polled = run_observed(&cfg, false, "mcf");
        let event = run_observed(&cfg, true, "mcf");
        assert_eq!(polled.stats, event.stats, "{design:?}: stats");
        let windows = MEASURE.div_ceil(7_000) as usize;
        assert_eq!(polled.jsonl.len(), windows, "{design:?}: polled windows");
        assert_eq!(event.jsonl.len(), windows, "{design:?}: event windows");
        for (i, (p, e)) in polled.jsonl.iter().zip(&event.jsonl).enumerate() {
            assert_eq!(p, e, "{design:?}: sample window {i}");
        }
        assert!(
            !polled.events.is_empty(),
            "{design:?}: ring captured events"
        );
        assert!(polled.events == event.events, "{design:?}: ring events");
        // NoCache has no DRAM cache, and BwOpt's free fills leave mcf
        // without a hit this early: neither moves a DRAM-cache byte.
        if !matches!(design, DesignKind::NoCache | DesignKind::BwOpt) {
            assert!(!polled.transfers.is_empty(), "{design:?}: no bursts logged");
        }
        assert!(
            polled.transfers == event.transfers,
            "{design:?}: transfer records"
        );
        assert!(event.skipped > 0, "{design:?}: armed run never skipped");
        assert!(event.spanned > 0, "{design:?}: armed run never spanned");
    }
}
