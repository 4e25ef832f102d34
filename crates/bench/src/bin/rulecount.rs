//! Regenerates the **§7 rule census**: the paper reports 86 generic rules
//! in the DTAS Design Language plus 9 library-specific rules for the LSI
//! Logic subset. Here the nine are not written by hand: LOLA
//! ([`dtas::lola`]) derives them from the LSI subset's cells.

use cells::lsi::lsi_logic_subset;
use dtas::lola::with_derived_rules;
use dtas::RuleSet;
use rtl_base::table::{Align, TextTable};

fn main() {
    let rules = with_derived_rules(RuleSet::standard(), &lsi_logic_subset());
    println!("Section 7: DTAS rule base census");
    println!();
    let mut t = TextTable::new(vec!["rule class", "paper", "this reproduction"]);
    t.align(1, Align::Right).align(2, Align::Right);
    t.row(vec![
        "generic rules".into(),
        "86".into(),
        rules.generic_count().to_string(),
    ]);
    t.row(vec![
        "library-specific rules (LSI subset)".into(),
        "9".into(),
        rules.library_count().to_string(),
    ]);
    t.row(vec!["total".into(), "95".into(), rules.len().to_string()]);
    println!("{}", t.render());
    println!("-- generic rules --");
    for r in rules.iter().take(rules.generic_count()) {
        println!("  {:<28} {}", r.name(), r.doc());
    }
    println!("-- library-specific rules --");
    for r in rules.iter().skip(rules.generic_count()) {
        println!("  {:<28} {}", r.name(), r.doc());
    }
}
