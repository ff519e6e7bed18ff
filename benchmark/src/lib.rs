//! # jigbench
//!
//! The repo's benchmark (see `README.md` beside this package): four
//! corpus workloads driven through the release `repro` binary and measured
//! from outside the process (`jigbench`), plus a separate traced run that
//! links the crates and times each layer's public functions in isolation
//! (`jigtrace`). This library holds what the two binaries share and the
//! pieces that can lie — machine-line extraction, `/proc` parsing, order
//! statistics, window placement, corpus generation — each unit-tested.

pub mod cli;
pub mod clock;
pub mod corpora;
pub mod lines;
pub mod procfs;
pub mod report;
pub mod stats;
pub mod workload;
