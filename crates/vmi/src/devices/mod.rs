//! Concrete VMI device drivers.
//!
//! * [`delay`] — the paper's §5.1 delay device: holds packets for a
//!   configured per-pair latency on a background timer thread.
//! * [`crc`] — integrity checking ("modules can intercept and manipulate
//!   message data", §2.2).
//! * [`fault`] — unreliable-WAN injection: seeded per-pair
//!   drop/duplicate/reorder/corrupt faults and link-down windows.
//! * [`counter`] — transparent traffic accounting.

pub mod counter;
pub mod crc;
pub mod delay;
pub mod fault;
