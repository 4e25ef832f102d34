//! RTL technology cell libraries — the "data book" side of the bridge.
//!
//! The paper's central criticism of module-generator flows is that they
//! cannot "provide technology mapping into the data book libraries of
//! functional RTL cells used commonly throughout the industrial design
//! community" (§1, abstract). This crate models those data books:
//!
//! * a [`cell::Cell`] is one macrocell with a *functional specification*
//!   (the same [`genus::spec::ComponentSpec`] language used for generic
//!   components — paper §5), an area in equivalent NAND gates, and
//!   pin-class delays in nanoseconds;
//! * a [`library::CellLibrary`] answers the functional-match query DTAS
//!   issues during decomposition ("a cell of type ADD with two 4-bit
//!   inputs plus carry-in and a 4-bit output plus carry-out");
//! * [`databook`] parses and prints a plain-text data book format;
//! * [`lsi`] ships the 30-cell subset used in the paper's §6 evaluation,
//!   reconstructed from its description (the original 1987 databook is
//!   proprietary — the [`lsi`] module docs carry the substitution notes).
//!
//! # Examples
//!
//! ```
//! use cells::lsi::lsi_logic_subset;
//! use genus::spec::ComponentSpec;
//! use genus::kind::ComponentKind;
//! use genus::op::{Op, OpSet};
//!
//! let lib = lsi_logic_subset();
//! assert_eq!(lib.len(), 30);
//! // The paper's example query (§5).
//! let want = ComponentSpec::new(ComponentKind::AddSub, 4)
//!     .with_ops(OpSet::only(Op::Add))
//!     .with_carry_in(true)
//!     .with_carry_out(true);
//! let hits = lib.implementers(&want);
//! assert!(hits.iter().any(|c| c.name == "ADD4"));
//! ```

pub mod cell;
pub mod databook;
pub mod library;
pub mod lsi;

pub use cell::Cell;
pub use library::CellLibrary;
