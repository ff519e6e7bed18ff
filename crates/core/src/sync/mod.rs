//! Trace synchronization: the bootstrap phase that instantiates a universal
//! clock across all radios, and the per-radio clock state that keeps them
//! synchronized for the rest of the trace.

pub mod bootstrap;
pub mod clock;

pub use bootstrap::{bootstrap_at, BootstrapConfig, BootstrapError, BootstrapReport};
pub use clock::ClockState;
