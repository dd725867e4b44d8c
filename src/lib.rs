#![forbid(unsafe_code)]

//! BEAR reproduction umbrella crate.
