//! Ablation study for three design choices of the DTAS reproduction:
//!
//! 1. **library-specific rules** — Figure 3 with and without the nine
//!    LSI rules (paper §7: they are needed "to fully utilize" the
//!    library);
//! 2. **library richness** — Figure 3 after removing the CLA generator
//!    and P/G adders (the motivation for LOLA);
//! 3. **performance-filter policy** — strict Pareto vs favorable-tradeoff
//!    slack at the root.

use bench::{adder_spec, alu64_spec};
use cells::lsi::lsi_logic_subset;
use dtas::lola::with_derived_rules;
use dtas::{Dtas, DtasConfig, FilterPolicy, RuleSet};
use rtl_base::table::{Align, TextTable};

fn row(t: &mut TextTable, label: &str, engine: &Dtas, spec: &genus::spec::ComponentSpec) {
    match engine.run(spec) {
        Ok(set) => {
            let s = set.smallest().expect("nonempty");
            let f = set.fastest().expect("nonempty");
            t.row(vec![
                label.to_string(),
                set.alternatives.len().to_string(),
                format!("{:.0}", s.area),
                format!("{:.1}", s.delay),
                format!("{:.0}", f.area),
                format!("{:.1}", f.delay),
            ]);
        }
        Err(e) => {
            t.row(vec![
                label.to_string(),
                "0".into(),
                "-".into(),
                "-".into(),
                "-".into(),
                format!("{e}"),
            ]);
        }
    }
}

fn main() {
    let spec = alu64_spec();
    println!("Ablations on the Figure-3 workload ({spec})");
    println!();
    let mut t = TextTable::new(vec![
        "configuration",
        "designs",
        "min area",
        "its delay",
        "max area",
        "best delay",
    ]);
    for col in 1..=5 {
        t.align(col, Align::Right);
    }
    let lib = lsi_logic_subset();
    let pareto = DtasConfig {
        root_filter: FilterPolicy::Pareto,
        ..DtasConfig::default()
    };

    // Full engine.
    let full = Dtas::builder(lib.clone()).config(pareto.clone()).build();
    row(&mut t, "full (generic + 9 LSI rules)", &full, &spec);

    // Without library-specific rules.
    let no_lsi = Dtas::builder(lib.clone())
        .rules(RuleSet::standard())
        .config(pareto.clone())
        .build();
    row(&mut t, "generic rules only", &no_lsi, &spec);

    // Without the lookahead cells (poorer library).
    let poor = lib.subset(&[
        "IVA", "ND2", "ND2H", "ND3", "ND4", "ND8", "NR2", "NR4", "NR8", "AN2", "OR2", "EO", "EOH",
        "EN", "MUX21L", "MUX21H", "MUX41", "MUX41H", "MUX81", "MUX84", "FA1A", "ADD2", "ADD4",
        "AS2", "FD1", "FDE1", "RG4", "RG8",
    ]);
    // The full engine's rules: derived for the LSI subset, not re-derived
    // for the poorer library.
    let no_cla = Dtas::builder(poor)
        .rules(with_derived_rules(RuleSet::standard(), &lib))
        .config(pareto.clone())
        .build();
    row(&mut t, "library without CLA4/ADD4PG", &no_cla, &spec);

    // Relaxed root filter (the paper's favorable-tradeoff set).
    let relaxed = Dtas::new(lib.clone());
    row(&mut t, "favorable-tradeoff root filter", &relaxed, &spec);
    println!("{}", t.render());

    println!();
    println!("Same ablations on the 16-bit adder (paper §5):");
    let spec = adder_spec(16);
    let mut t2 = TextTable::new(vec![
        "configuration",
        "designs",
        "min area",
        "its delay",
        "max area",
        "best delay",
    ]);
    for col in 1..=5 {
        t2.align(col, Align::Right);
    }
    let full = Dtas::builder(lib.clone()).config(pareto.clone()).build();
    row(&mut t2, "full (strict Pareto)", &full, &spec);
    let relaxed = Dtas::new(lib.clone());
    row(&mut t2, "favorable-tradeoff filter", &relaxed, &spec);
    let no_lsi = Dtas::builder(lib.clone())
        .rules(RuleSet::standard())
        .config(pareto.clone())
        .build();
    row(&mut t2, "generic rules only", &no_lsi, &spec);
    println!("{}", t2.render());
}
