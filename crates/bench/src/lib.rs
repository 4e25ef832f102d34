//! Shared workloads for the benchmark harness.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the
//! paper (its module doc names which), except `perf_snapshot` and
//! `perf_gate`, which time the engine and judge the timings. The bands
//! the measured numbers must hold against the paper are pinned by
//! `tests/paper_claims.rs`, `tests/figure3_shape.rs` and
//! `tests/adder16_space.rs` at the repository root.

pub mod json;

use cells::lsi::lsi_logic_subset;
use dtas::{Dtas, DtasConfig, FilterPolicy};
use genus::kind::ComponentKind;
use genus::op::{Op, OpSet};
use genus::spec::ComponentSpec;

/// The paper's Figure-3 component: a 64-bit, 16-function ALU with carry
/// input.
pub fn alu64_spec() -> ComponentSpec {
    ComponentSpec::new(ComponentKind::Alu, 64)
        .with_ops(Op::paper_alu16())
        .with_carry_in(true)
}

/// An n-bit ALU with the paper's 16 functions.
pub fn alu_spec(width: usize) -> ComponentSpec {
    ComponentSpec::new(ComponentKind::Alu, width)
        .with_ops(Op::paper_alu16())
        .with_carry_in(true)
}

/// The §5 example: an n-bit adder with both carry pins.
pub fn adder_spec(width: usize) -> ComponentSpec {
    ComponentSpec::new(ComponentKind::AddSub, width)
        .with_ops(OpSet::only(Op::Add))
        .with_carry_in(true)
        .with_carry_out(true)
}

/// The DTAS engine configured as in the paper's evaluation: the LSI-style
/// 30-cell subset with the nine library-specific rules LOLA derives for it.
pub fn paper_engine() -> Dtas {
    Dtas::new(lsi_logic_subset())
}

/// An engine whose root filter is strict Pareto (the trade-off curve the
/// paper plots in Figure 3).
pub fn pareto_engine() -> Dtas {
    Dtas::builder(lsi_logic_subset())
        .config(DtasConfig {
            root_filter: FilterPolicy::Pareto,
            ..DtasConfig::default()
        })
        .build()
}

/// The GCD entity used for the end-to-end Figure-1 flow.
pub const GCD_SOURCE: &str = "
entity gcd(a_in: in 8, b_in: in 8, r: out 8, done: out 1) {
    var a: 8;
    var b: 8;
    a = a_in;
    b = b_in;
    while (a != b) {
        if (a > b) { a = a - b; } else { b = b - a; }
    }
    r = a;
    done = 1;
}";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_build() {
        assert_eq!(alu64_spec().width, 64);
        assert_eq!(adder_spec(16).width, 16);
        assert_eq!(alu64_spec().ops.len(), 16);
    }

    #[test]
    fn engines_have_paper_rule_counts() {
        let e = paper_engine();
        assert_eq!(e.rules().library_count(), 9);
        assert!(e.rules().generic_count() >= 80);
    }
}
