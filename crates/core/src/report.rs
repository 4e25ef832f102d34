//! Design sets and Figure-3-style reporting.

use crate::cost::Timing;
use crate::extract::Implementation;
use genus::spec::ComponentSpec;
use rtl_base::table::{Align, TextTable};
use std::fmt;
use std::fmt::Write as _;
use std::time::Duration;

/// One alternative design for a specification.
#[derive(Clone, Debug)]
pub struct Alternative {
    /// Total area in equivalent NAND gates.
    pub area: f64,
    /// Worst-case delay in ns.
    pub delay: f64,
    /// Full timing-arc table.
    pub timing: Timing,
    /// The hierarchical implementation.
    pub implementation: Implementation,
}

/// Synthesis bookkeeping, reported alongside results.
#[derive(Clone, Debug, Default)]
pub struct SynthStats {
    /// Specification nodes in the design space.
    pub spec_nodes: usize,
    /// Implementation alternatives across all nodes.
    pub impl_choices: usize,
    /// Wall-clock time spent.
    pub elapsed: Duration,
    /// Nonzero when combination enumeration hit its cap (results then
    /// sample the space instead of covering it).
    pub truncated_combinations: u64,
}

/// The output of DTAS for one component specification: a set of
/// alternative implementations with their costs, plus design-space size
/// accounting.
#[derive(Clone, Debug)]
pub struct DesignSet {
    /// The specification that was synthesized.
    pub spec: ComponentSpec,
    /// Alternatives ordered by increasing area (and decreasing delay).
    pub alternatives: Vec<Alternative>,
    /// Unconstrained design-space size (paper §5: the product over module
    /// occurrences). `f64::INFINITY` when it overflows — see
    /// [`unconstrained_log10`](Self::unconstrained_log10).
    pub unconstrained_size: f64,
    /// `log10` of the unconstrained size (always finite for non-empty
    /// spaces).
    pub unconstrained_log10: f64,
    /// Design count under the uniform-implementation constraint alone
    /// (see [`DesignSpace::uniform_size`](crate::DesignSpace::uniform_size));
    /// `None` when it exceeds
    /// [`DtasConfig::uniform_count_limit`](crate::DtasConfig::uniform_count_limit)
    /// or counting is off.
    pub uniform_size: Option<u64>,
    /// Bookkeeping.
    pub stats: SynthStats,
}

impl DesignSet {
    /// The smallest-area alternative.
    pub fn smallest(&self) -> Option<&Alternative> {
        self.alternatives.first()
    }

    /// The fastest alternative.
    pub fn fastest(&self) -> Option<&Alternative> {
        self.alternatives
            .iter()
            .min_by(|a, b| a.delay.partial_cmp(&b.delay).expect("finite delays"))
    }

    /// Renders the paper's Figure-3 presentation: every alternative with
    /// its area, delay, and percentage deltas against the smallest design.
    pub fn figure3_table(&self) -> String {
        let mut t = TextTable::new(vec![
            "#", "style", "area", "delay", "area %", "delay %", "cells",
        ]);
        for col in 2..=6 {
            t.align(col, Align::Right);
        }
        let (base_area, base_delay) = match self.smallest() {
            Some(s) => (s.area, s.delay),
            None => (1.0, 1.0),
        };
        for (i, alt) in self.alternatives.iter().enumerate() {
            let area_pct = 100.0 * (alt.area - base_area) / base_area;
            let delay_pct = 100.0 * (alt.delay - base_delay) / base_delay;
            t.row(vec![
                format!("{}", i + 1),
                alt.implementation.label().to_string(),
                format!("{:.0}", alt.area),
                format!("{:.1}", alt.delay),
                format!("{:+.0}%", area_pct),
                format!("{:+.0}%", delay_pct),
                format!("{}", alt.implementation.cell_count()),
            ]);
        }
        t.render()
    }
}

impl DesignSet {
    /// Human-readable unconstrained size, falling back to `10^x` notation
    /// when the count overflows `f64`.
    pub fn unconstrained_display(&self) -> String {
        if self.unconstrained_size.is_finite() {
            format!("{:.3e}", self.unconstrained_size)
        } else {
            format!("10^{:.0}", self.unconstrained_log10)
        }
    }

    /// An ASCII rendition of the paper's Figure-3 scatter: one row per
    /// alternative (delay on the left), position along the row encoding
    /// area, annotated with the percentage deltas against the smallest
    /// design.
    pub fn ascii_plot(&self) -> String {
        let mut out = String::from("delay (ns)\n");
        let Some(base) = self.smallest() else {
            return out;
        };
        let a_min = base.area;
        let a_max = self.alternatives.last().map(|a| a.area).unwrap_or(a_min);
        for alt in &self.alternatives {
            let col = if a_max > a_min {
                (50.0 * (alt.area - a_min) / (a_max - a_min)) as usize
            } else {
                0
            };
            let _ = writeln!(
                out,
                "{:7.1} |{}* ({:+.0}%, {:+.0}%)",
                alt.delay,
                " ".repeat(col),
                100.0 * (alt.area - base.area) / base.area,
                100.0 * (alt.delay - base.delay) / base.delay,
            );
        }
        let _ = writeln!(
            out,
            "        +{} area (gates): {:.0} .. {:.0}",
            "-".repeat(52),
            a_min,
            a_max
        );
        out
    }
}

impl fmt::Display for DesignSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Component Specification: {}", self.spec)?;
        writeln!(
            f,
            "design space: {} unconstrained, {} with uniform implementations, {} after filters",
            self.unconstrained_display(),
            match self.uniform_size {
                Some(n) => n.to_string(),
                None => "> budget".to_string(),
            },
            self.alternatives.len()
        )?;
        write!(f, "{}", self.figure3_table())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extract::ImplKind;
    use genus::kind::ComponentKind;

    fn alt(area: f64, delay: f64, label: &str) -> Alternative {
        Alternative {
            area,
            delay,
            timing: Timing::default(),
            implementation: Implementation {
                spec: ComponentSpec::new(ComponentKind::AddSub, 4),
                kind: ImplKind::Cell {
                    name: label.to_string(),
                },
            },
        }
    }

    fn set() -> DesignSet {
        DesignSet {
            spec: ComponentSpec::new(ComponentKind::AddSub, 4),
            alternatives: vec![alt(100.0, 50.0, "slow"), alt(134.0, 9.5, "fast")],
            unconstrained_size: 250_000.0,
            unconstrained_log10: 250_000.0f64.log10(),
            uniform_size: Some(42),
            stats: SynthStats::default(),
        }
    }

    #[test]
    fn accessors() {
        let s = set();
        assert_eq!(s.smallest().unwrap().area, 100.0);
        assert_eq!(s.fastest().unwrap().delay, 9.5);
    }

    #[test]
    fn figure3_table_shows_percent_deltas() {
        let table = set().figure3_table();
        assert!(table.contains("+0%"), "{table}");
        assert!(table.contains("+34%"), "{table}");
        assert!(table.contains("-81%"), "{table}");
    }

    #[test]
    fn display_mentions_space_sizes() {
        let text = set().to_string();
        assert!(text.contains("2.500e5"), "{text}");
        assert!(text.contains("42"));
    }

    #[test]
    fn ascii_plot_has_one_row_per_alternative() {
        let plot = set().ascii_plot();
        assert_eq!(plot.lines().count(), 4); // header + 2 points + axis
        assert!(plot.contains("(+34%, -81%)"), "{plot}");
        assert!(plot.contains("(+0%, +0%)"));
    }
}
