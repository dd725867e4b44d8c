#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! SRAM cache models used around the DRAM cache.
//!
//! Three structures from the paper's system live here:
//!
//! - [`set_assoc::SetAssocCache`]: a generic set-associative cache with
//!   pluggable replacement and per-line metadata. Used for the 8 MB / 16-way
//!   on-chip L3 (whose per-line metadata carries the BEAR *DRAM Cache
//!   Presence* bit) and for the Tags-In-SRAM (TIS) tag store of Section 8.
//! - [`sector::SectorTagStore`]: the Sector Cache (SC) tag organization —
//!   4 KB sectors with per-block valid/dirty state — also from Section 8.
//! - [`missmap::MissMap`]: the line-presence tracker used by the Loh-Hill
//!   cache and its Mostly-Clean extension (Section 7.5).
//!
//! # Example
//!
//! ```
//! use bear_cache::set_assoc::{CacheGeometry, SetAssocCache};
//! use bear_cache::replacement::ReplacementPolicy;
//!
//! // An 8 MB, 16-way L3 with 64 B lines (the paper's Table 1).
//! let geom = CacheGeometry::new(8 << 20, 16, 64);
//! let mut l3: SetAssocCache<bool> = SetAssocCache::new(geom, ReplacementPolicy::Lru);
//! assert!(l3.probe(0x1000).is_none());
//! l3.fill(0x1000, false, false);
//! assert!(l3.probe(0x1000).is_some());
//! ```

pub mod missmap;
pub mod replacement;
pub mod sector;
pub mod set_assoc;

pub use missmap::MissMap;
pub use replacement::ReplacementPolicy;
pub use sector::{SectorProbe, SectorTagStore};
pub use set_assoc::{CacheGeometry, SetAssocCache, Victim};
