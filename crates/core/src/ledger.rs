//! Bandwidth-attribution ledger: every DRAM byte, tagged at submit time.
//!
//! The [`BloatBreakdown`](crate::metrics::BloatBreakdown) in `RunStats`
//! is reconstructed *after* a run from device meters. The ledger is the
//! forward-looking counterpart: [`DeviceHarness`](crate::harness) charges
//! it the instant a request is submitted, carrying the request's
//! [`TrafficClass`] — so attribution happens at transfer time, not by
//! reverse-engineering aggregates. Because every byte is charged to
//! exactly one class, the ledger obeys a conservation law the runtime
//! invariant checker and the lockstep oracle both enforce:
//!
//! ```text
//! ledger[class] == transferred[class] + queued[class] + retrying[class]
//! sum over classes == total bytes moved (both devices)
//! ```
//!
//! The ledger is always on — a fixed-size array add per request is far
//! below measurement noise and alters no deterministic output — while
//! everything *derived* from it (window samples, metrics registries)
//! stays behind telemetry's runtime gate.

use crate::traffic::{BloatCategory, MemTraffic};
use bear_dram::request::TrafficClass;

/// Per-class byte attribution across both DRAM devices.
///
/// Cache-device classes occupy indices 0..8 ([`BloatCategory`]),
/// memory-device classes 8..12 ([`MemTraffic`]); the spare tail of the
/// [`TrafficClass::COUNT`]-wide array stays zero.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AttributionLedger {
    bytes: [u64; TrafficClass::COUNT],
}

impl AttributionLedger {
    /// An empty ledger.
    pub fn new() -> AttributionLedger {
        AttributionLedger::default()
    }

    fn idx(class: TrafficClass) -> usize {
        (class.0 as usize).min(TrafficClass::COUNT - 1)
    }

    /// Attributes `bytes` to `class`.
    pub fn charge(&mut self, class: TrafficClass, bytes: u64) {
        self.bytes[Self::idx(class)] += bytes;
    }

    /// Bytes attributed to `class`.
    pub fn bytes_in_class(&self, class: TrafficClass) -> u64 {
        self.bytes[Self::idx(class)]
    }

    /// Cache-device attribution in [`BloatCategory::ALL`] order.
    pub fn cache_bytes(&self) -> [u64; 8] {
        let mut out = [0u64; 8];
        for (slot, cat) in out.iter_mut().zip(BloatCategory::ALL) {
            *slot = self.bytes_in_class(cat.class());
        }
        out
    }

    /// Bytes attributed to cache-device classes.
    pub fn cache_total(&self) -> u64 {
        self.cache_bytes().iter().sum()
    }

    /// Bytes attributed to memory-device classes.
    pub fn mem_total(&self) -> u64 {
        MemTraffic::ALL
            .iter()
            .map(|m| self.bytes_in_class(m.class()))
            .sum()
    }

    /// All attributed bytes, both devices.
    pub fn total(&self) -> u64 {
        self.bytes.iter().sum()
    }

    /// Replaces the ledger with `per_class` (stats-reset reseeding: only
    /// bytes still queued remain attributed after device meters zero).
    pub fn reseed(&mut self, per_class: [u64; TrafficClass::COUNT]) {
        self.bytes = per_class;
    }

    /// Perturbs one class (fault injection only), unbalancing the
    /// attribution-conservation invariant without touching device state.
    pub fn corrupt(&mut self) {
        self.bytes[BloatCategory::Hit.class().0 as usize] ^= 0x40;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charges_accumulate_per_class() {
        let mut l = AttributionLedger::new();
        l.charge(BloatCategory::Hit.class(), 64);
        l.charge(BloatCategory::Hit.class(), 64);
        l.charge(MemTraffic::DemandRead.class(), 64);
        assert_eq!(l.bytes_in_class(BloatCategory::Hit.class()), 128);
        assert_eq!(l.cache_total(), 128);
        assert_eq!(l.mem_total(), 64);
        assert_eq!(l.total(), 192);
    }

    #[test]
    fn cache_bytes_track_category_order() {
        let mut l = AttributionLedger::new();
        for (i, cat) in BloatCategory::ALL.iter().enumerate() {
            l.charge(cat.class(), (i as u64 + 1) * 10);
        }
        let bytes = l.cache_bytes();
        for (i, b) in bytes.iter().enumerate() {
            assert_eq!(*b, (i as u64 + 1) * 10);
        }
    }

    #[test]
    fn corrupt_unbalances_exactly_one_class() {
        let mut l = AttributionLedger::new();
        l.charge(BloatCategory::Hit.class(), 128);
        let before = l.clone();
        l.corrupt();
        assert_ne!(l, before);
        l.corrupt();
        assert_eq!(l, before, "corruption is an involution");
    }

    #[test]
    fn reseed_replaces_contents() {
        let mut l = AttributionLedger::new();
        l.charge(BloatCategory::MissFill.class(), 999);
        let mut seed = [0u64; TrafficClass::COUNT];
        seed[0] = 7;
        l.reseed(seed);
        assert_eq!(l.bytes_in_class(TrafficClass(0)), 7);
        assert_eq!(l.total(), 7);
    }
}
