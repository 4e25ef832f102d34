//! DTAS: rule-based functional synthesis of generic RTL components onto
//! technology-specific RTL library cells.
//!
//! This crate is the primary contribution of Dutt & Kipps, *"Bridging
//! High-Level Synthesis to RTL Technology Libraries"* (DAC 1991): it takes
//! a netlist of instantiated GENUS components (or a single component
//! specification), runs a phase of **functional decomposition** (a rule
//! base expanding an acyclic AND-OR design space — [`rules`], [`space`])
//! and **technology mapping** (functional matching of specifications
//! against library-cell specifications — never DAG/subgraph isomorphism),
//! and returns a set of alternative hierarchical, library-specific
//! netlists ([`report::DesignSet`]).
//!
//! Search control follows the paper (§5): designs mixing two
//! implementations of one specification are excluded, and *performance
//! filters* keep only the alternatives making favorable area/delay
//! trade-offs.
//!
//! The [`Dtas`] engine is built for service workloads: it is `Sync`,
//! answers repeated queries from a sharded answer table without taking any
//! exclusive lock (parallel clients with cache hits never contend), solves
//! distinct cold specifications concurrently against snapshots of one
//! shared design space, and accepts whole query batches
//! ([`run_batch`](Dtas::run_batch)) that are expanded and solved in a
//! single bottom-up pass. A spec first requested is reduced to its
//! *canonical* specification ([`canon`]) so functionally equivalent spec
//! variants share one solve, and the rule base / configuration can
//! be updated in place ([`Dtas::update_rules`] / [`Dtas::update_config`])
//! with delta invalidation that keeps unaffected cached state warm.
//!
//! The engine's answers are also *portable*: with
//! [`DtasConfig::persist_path`] set (`dtas --cache-dir`), the engine owns a
//! [`store::PersistentStore`] on that directory, snapshots its memoized
//! results there, and a fresh process warm-starts from a previous run in
//! milliseconds instead of re-paying the cold solve.
//!
//! For serving that engine to heavy concurrent traffic, the [`service`]
//! layer puts an admission-controlled request queue in front of it:
//! [`DtasService`] runs a worker-thread pool over `Arc<Dtas>` with
//! bounded priority lanes ([`ServiceConfig`], [`Admission`]), ticket
//! handles for every admitted request, graceful draining shutdown, and a
//! background thread checkpointing the bound store on a configurable
//! cadence.
//!
//! # Examples
//!
//! Synthesize the paper's §5 example — a 16-bit adder against the
//! LSI-style 30-cell library:
//!
//! ```
//! use dtas::Dtas;
//! use cells::lsi::lsi_logic_subset;
//! use genus::kind::ComponentKind;
//! use genus::op::{Op, OpSet};
//! use genus::spec::ComponentSpec;
//!
//! # fn main() -> Result<(), dtas::SynthError> {
//! let dtas = Dtas::new(lsi_logic_subset());
//! let spec = ComponentSpec::new(ComponentKind::AddSub, 16)
//!     .with_ops(OpSet::only(Op::Add))
//!     .with_carry_in(true)
//!     .with_carry_out(true);
//! let designs = dtas.run(&spec)?;
//! assert!(designs.alternatives.len() >= 2);
//! // The unconstrained space is orders of magnitude larger than the
//! // filtered alternative set (paper §5).
//! assert!(designs.unconstrained_size > designs.alternatives.len() as f64);
//! # Ok(())
//! # }
//! ```

pub mod analyze;
// Test support: the benchmark's spec keys, shared by this crate's unit
// tests and the workspace's answer oracle.
#[doc(hidden)]
pub mod bench_specs;
pub mod canon;
pub mod config;
pub mod cost;
pub mod engine;
pub mod extract;
pub mod lola;
pub mod net;
pub mod report;
pub mod request;
pub mod rules;
pub mod service;
pub mod space;
pub mod store;
pub mod template;

pub use analyze::{ArtifactKind, Diagnostic, Lint, LintRegistry, LintReport, LintTarget, Severity};
pub use canon::canon_fingerprint;
pub use config::DtasConfig;
pub use engine::{
    CacheStats, CheckpointOutcome, Dtas, DtasBuilder, InvalidationCounts, InvalidationReason,
    InvalidationReport, SynthError,
};
pub use extract::{ImplKind, Implementation};
pub use net::{ReconnectingClient, RetryPolicy, ServeConfig, WireClient, WireError, WireServer};
pub use report::{Alternative, DesignSet, SynthStats};
pub use request::SynthRequest;
pub use rules::{Rule, RuleSet};
pub use service::{
    Admission, DtasService, LaneLatency, LatencyHistogram, Priority, ServiceConfig, ServiceError,
    ServiceStats, SynthOutcome, Ticket,
};
pub use space::{DesignSpace, FilterPolicy, FrontStore, Policy, SolveConfig, Solver};
pub use store::{
    AnswerDefect, CacheKeyEntry, GcItem, GcPlan, GcReason, PersistentStore, Rejection, SaveReport,
    StoreError, StoreKey, FORMAT_VERSION,
};
pub use template::{NetlistTemplate, Signal, SpecModelCache, TemplateBuilder};
