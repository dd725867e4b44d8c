#![forbid(unsafe_code)]

//! Observability primitives for the BEAR campaign.
//!
//! This crate is deliberately dependency-free and knows nothing about the
//! simulator: it defines the *shapes* observability data comes in and the
//! encoders that turn them into files, while `bear-core` / `bear-bench`
//! own the hooks that fill them in.
//!
//! Three facilities:
//!
//! - [`Sample`] — one windowed time-series snapshot (every N cycles) of
//!   hit/miss rates, per-category bus bytes, instantaneous Bloat Factor,
//!   L4 occupancy, BAB duel state, DCP/NTC/MAP-I counters, and per-bank
//!   DRAM queue depths. Serialized one-per-line as JSONL.
//! - [`ChromeTrace`] — an incremental builder for the Chrome Trace Event
//!   Format (`trace.json`, loadable in `chrome://tracing` or Perfetto),
//!   used to export the `ObsEvent` ring buffer and DRAM transfer log with
//!   one track per bank/component.
//! - [`SelfProfiler`] — scoped wall-clock timers around host-side tick
//!   phases, aggregated into a top-N "where did the campaign go" report.
//! - [`Registry`] — labelled atomic counters/gauges/histograms with a
//!   stable JSON dump and Prometheus-style text exposition, plus
//!   [`Span`]s carrying a correlation [`TraceId`] (see
//!   [`metrics`](crate::metrics) module docs).
//!
//! Everything here is inert unless armed: the simulator gates its hooks
//! at run time only, behind a [`TelemetryConfig::Off`] default, so a
//! disabled run pays one `None` check per clock advance. An armed run
//! takes the same event-driven loop as a disabled one.

pub mod metrics;
mod profile;
mod ring;
mod sample;
mod trace;

pub use metrics::{Counter, Gauge, Histogram, Registry, Span, SpanRecord, TraceId};
pub use profile::SelfProfiler;
pub use ring::RingBuffer;
pub use sample::{Sample, CACHE_BYTE_KEYS};
pub use trace::ChromeTrace;

/// Runtime switch for the whole observability layer.
///
/// `Off` is the default everywhere; experiment reports must be
/// byte-identical with telemetry off (a guard test in `bear-bench`
/// enforces this).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum TelemetryConfig {
    /// No sampling, no tracing, no profiling. The simulator holds no
    /// telemetry state at all in this mode.
    #[default]
    Off,
    /// Telemetry armed with the given options.
    On(TelemetryOptions),
}

impl TelemetryConfig {
    /// Sampling-only telemetry with the given window (cycles).
    pub fn sampling(sample_window: u64) -> Self {
        TelemetryConfig::On(TelemetryOptions {
            sample_window,
            ..TelemetryOptions::default()
        })
    }

    /// Everything armed: sampling, event/transfer tracing, profiling.
    pub fn full(sample_window: u64) -> Self {
        TelemetryConfig::On(TelemetryOptions {
            sample_window,
            trace: true,
            profile: true,
            ..TelemetryOptions::default()
        })
    }
}

/// Knobs for an armed telemetry session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TelemetryOptions {
    /// Sample window length in cycles (default 10k). Windows are aligned
    /// to the warmup→measure boundary; the final partial window is
    /// flushed so window sums always equal end-of-run aggregates.
    pub sample_window: u64,
    /// Capacity of the `ObsEvent` ring buffer kept for trace export and
    /// divergence context (default 256, per the repro format).
    pub ring_capacity: usize,
    /// Record functional events and DRAM transfer begin/end for Chrome
    /// trace export.
    pub trace: bool,
    /// Arm the host self-profiler around tick phases.
    pub profile: bool,
}

/// A handle that streams [`Sample`]s out of a running simulation the
/// moment each window closes, instead of (not in addition to — the
/// receiver side decides what to persist) waiting for the end-of-run
/// report. The campaign daemon hands one to each telemetry-armed job and
/// forwards the samples over the client's socket as JSONL while the job
/// runs.
///
/// Sends are non-blocking and infallible from the producer's view: a
/// dropped receiver (client went away mid-run) silently discards further
/// samples rather than stalling or failing the simulation.
#[derive(Debug, Clone)]
pub struct LiveSink {
    tx: std::sync::mpsc::Sender<Sample>,
}

impl LiveSink {
    /// Forwards one closed window. Errors (receiver gone) are swallowed:
    /// telemetry is passive and must never affect the run.
    pub fn send(&self, sample: Sample) {
        self.tx.send(sample).ok();
    }
}

/// Creates a live sample stream: the [`LiveSink`] goes to the simulator
/// (via `System::set_telemetry_live`), the receiver to whoever forwards
/// or records the samples.
pub fn live_channel() -> (LiveSink, std::sync::mpsc::Receiver<Sample>) {
    let (tx, rx) = std::sync::mpsc::channel();
    (LiveSink { tx }, rx)
}

/// Default `ObsEvent` ring capacity (also the number of context events a
/// shrunk fuzz repro carries).
pub const DEFAULT_RING_CAPACITY: usize = 256;

/// Default sample window in cycles.
pub const DEFAULT_SAMPLE_WINDOW: u64 = 10_000;

impl Default for TelemetryOptions {
    fn default() -> Self {
        TelemetryOptions {
            sample_window: DEFAULT_SAMPLE_WINDOW,
            ring_capacity: DEFAULT_RING_CAPACITY,
            trace: false,
            profile: false,
        }
    }
}

/// Escapes a string for embedding in a JSON string literal.
pub(crate) fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders a finite f64 as a JSON number (non-finite values become 0).
pub(crate) fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_default_is_off() {
        assert_eq!(TelemetryConfig::default(), TelemetryConfig::Off);
    }

    #[test]
    fn full_arms_everything() {
        let TelemetryConfig::On(opts) = TelemetryConfig::full(5_000) else {
            panic!("expected On");
        };
        assert_eq!(opts.sample_window, 5_000);
        assert!(opts.trace);
        assert!(opts.profile);
        assert_eq!(opts.ring_capacity, DEFAULT_RING_CAPACITY);
    }

    #[test]
    fn escape_handles_quotes_and_control() {
        assert_eq!(escape_json("a\"b\\c\n"), "a\\\"b\\\\c\\n");
        assert_eq!(escape_json("\u{1}"), "\\u0001");
    }

    #[test]
    fn live_sink_streams_and_survives_a_dropped_receiver() {
        let (sink, rx) = live_channel();
        let sample = Sample {
            window: 3,
            ..Sample::default()
        };
        sink.send(sample.clone());
        assert_eq!(rx.recv().unwrap(), sample);
        drop(rx);
        sink.send(sample); // must not panic or error out
    }

    #[test]
    fn json_num_sanitizes_non_finite() {
        assert_eq!(json_num(1.5), "1.5");
        assert_eq!(json_num(f64::NAN), "0");
        assert_eq!(json_num(f64::INFINITY), "0");
    }
}
