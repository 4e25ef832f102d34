//! # hls-rtl-bridge
//!
//! A complete Rust reproduction of Dutt & Kipps, *"Bridging High-Level
//! Synthesis to RTL Technology Libraries"* (UC Irvine TR 91-28 / DAC
//! 1991): the GENUS generic component library, the LEGEND generator
//! description language, and the DTAS functional-synthesis system that
//! maps generic RTL components onto data book cells — plus the
//! surrounding Figure-1 substrates (a high-level synthesis front end, a
//! control compiler, structural VHDL I/O and a verifying RTL simulator).
//!
//! This crate is a facade: each subsystem lives in its own crate and is
//! re-exported here.
//!
//! | crate | paper role |
//! |---|---|
//! | [`genus`] | generic RTL component library (types → generators → components → instances) |
//! | [`legend`] | generator-specification language (Figure 2) |
//! | [`dtas`] | functional decomposition + technology mapping (the core contribution) |
//! | [`cells`] | RTL data book model + the 30-cell LSI-style subset (§6) |
//! | [`hls`] | state scheduling, allocation, binding (Figure 1's HLS box) |
//! | [`controlc`] | control compiler for the state sequencing table |
//! | [`vhdl`] | structural/behavioral VHDL emission and parsing |
//! | [`rtlsim`] | bit-accurate simulation and equivalence checking |
//! | [`rtl_base`] | bit vectors, Pareto fronts, graph utilities |
//!
//! On top of the re-exports, this crate owns the service-grade front
//! door: the [`flow`] module chains every Figure-1 stage behind
//! [`Flow`] with the single error type [`BridgeError`], and the `dtas`
//! binary exposes the same pipeline on the command line.
//!
//! # Quickstart
//!
//! One spec against the data book (the paper's §5 example):
//!
//! ```
//! use hls_rtl_bridge::{cells, dtas, genus, BridgeError};
//!
//! # fn main() -> Result<(), BridgeError> {
//! let engine = dtas::Dtas::new(cells::lsi::lsi_logic_subset());
//! let spec = genus::spec::ComponentSpec::new(genus::kind::ComponentKind::AddSub, 16)
//!     .with_ops(genus::op::OpSet::only(genus::op::Op::Add))
//!     .with_carry_in(true)
//!     .with_carry_out(true);
//! let designs = engine.run(&spec)?;
//! println!("{designs}");
//! # Ok(())
//! # }
//! ```
//!
//! The whole Figure-1 flow through the façade:
//!
//! ```
//! use cells::lsi::lsi_logic_subset;
//! use hls_rtl_bridge::{BridgeError, Flow};
//!
//! # fn main() -> Result<(), BridgeError> {
//! let mapped = Flow::from_hls("entity inc(x: in 8, y: out 8) { y = x + 1; }")?
//!     .schedule()?
//!     .compile_control()?
//!     .link()?
//!     .map(&dtas::Dtas::new(lsi_logic_subset()))?;
//! println!("{}", mapped.report());
//! # Ok(())
//! # }
//! ```
//!
//! See `examples/` for the paper's scenarios (the Figure-3 64-bit ALU,
//! the Figure-2 LEGEND counter, and the full Figure-1 GCD flow), and the
//! paper-claim tests (`tests/paper_claims.rs`, `tests/figure3_shape.rs`,
//! `tests/adder16_space.rs`) for the measured-vs-paper bands.

pub mod flow;

pub use cells;
pub use controlc;
pub use dtas;
pub use flow::{BridgeError, Flow};
pub use genus;
pub use hls;
pub use legend;
pub use rtl_base;
pub use rtlsim;
pub use vhdl;
