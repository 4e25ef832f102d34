//! Foundation types shared by every crate in the HLS-to-RTL bridge.
//!
//! This crate is the substrate under the reproduction of Dutt & Kipps,
//! *"Bridging High-Level Synthesis to RTL Technology Libraries"* (DAC 1991).
//! It deliberately contains nothing domain-specific: just the numeric and
//! algorithmic machinery the domain crates (`genus`, `dtas`, ...) are
//! built on.
//!
//! * [`bits`] — arbitrary-width two's-complement bit vectors, the value
//!   domain of every behavioral model and simulator in the workspace.
//! * [`pareto`] — area/delay cost points and Pareto fronts, the "performance
//!   filter" machinery of DTAS (paper §5).
//! * [`graph`] — small DAG utilities: topological sort and longest path,
//!   used for netlist delay estimation and scheduling.
//! * [`table`] — plain-text table rendering for the benchmark harness that
//!   regenerates the paper's tables and figures.
//! * [`hash`] — a stable (FNV-1a) hasher for content fingerprints that key
//!   persisted artifacts, where `DefaultHasher`'s cross-release drift
//!   would orphan them, and the word-wide checksum of stored segments.
//!
//! # Examples
//!
//! ```
//! use rtl_base::bits::Bits;
//!
//! let a = Bits::from_u64(16, 40_000);
//! let b = Bits::from_u64(16, 30_000);
//! let (sum, carry) = a.overflowing_add(&b);
//! assert_eq!(sum.to_u64(), Some(4_464)); // wraps modulo 2^16
//! assert!(carry);
//! ```

pub mod bits;
pub mod graph;
pub mod hash;
pub mod pareto;
pub mod table;

pub use bits::Bits;
pub use pareto::{Cost, ParetoFront};
