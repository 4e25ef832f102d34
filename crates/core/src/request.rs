//! Per-query synthesis requests.

use crate::space::FilterPolicy;
use genus::spec::ComponentSpec;
use std::time::Duration;

/// One synthesis query with per-query overrides: the forward-compatible
/// input of [`Dtas::run`](crate::Dtas::run) (bare [`ComponentSpec`]s
/// convert via `From`, so `engine.run(&spec)` and
/// `engine.run(SynthRequest::new(spec).with_front_cap(3))` are the same
/// entry point).
///
/// A request without overrides shares the engine's answer table.
/// Overrides reshape only the *root* of the query — node fronts
/// below it are still shared with every other query — so request-specific
/// answers stay cheap:
///
/// * [`with_root_filter`](Self::with_root_filter) — replace the root's
///   performance filter (e.g. strict Pareto instead of the default
///   slack filter);
/// * [`with_front_cap`](Self::with_front_cap) — truncate the returned
///   front to at most `n` alternatives;
/// * [`with_weights`](Self::with_weights) — rank alternatives by a
///   weighted area/delay objective instead of the default area-ascending
///   order.
///
/// ```
/// use cells::lsi::lsi_logic_subset;
/// use dtas::{Dtas, SynthRequest};
/// use genus::kind::ComponentKind;
/// use genus::op::{Op, OpSet};
/// use genus::spec::ComponentSpec;
///
/// # fn main() -> Result<(), dtas::SynthError> {
/// let engine = Dtas::new(lsi_logic_subset());
/// let spec = ComponentSpec::new(ComponentKind::AddSub, 16)
///     .with_ops(OpSet::only(Op::Add))
///     .with_carry_in(true)
///     .with_carry_out(true);
/// let request = SynthRequest::new(spec).with_front_cap(3).with_weights(1.0, 2.0);
/// let set = engine.run(request)?;
/// assert!(set.alternatives.len() <= 3);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct SynthRequest {
    pub(crate) spec: ComponentSpec,
    pub(crate) root_filter: Option<FilterPolicy>,
    pub(crate) root_cap: Option<usize>,
    pub(crate) weights: Option<(f64, f64)>,
    pub(crate) deadline: Option<Duration>,
}

impl SynthRequest {
    /// A request for `spec` with no overrides.
    pub fn new(spec: ComponentSpec) -> Self {
        SynthRequest {
            spec,
            root_filter: None,
            root_cap: None,
            weights: None,
            deadline: None,
        }
    }

    /// Replaces the root performance filter for this query only.
    pub fn with_root_filter(mut self, filter: FilterPolicy) -> Self {
        self.root_filter = Some(filter);
        self
    }

    /// Truncates the returned front to at most `cap` alternatives.
    ///
    /// `cap` is clamped to at least 1: a zero cap would turn every
    /// solvable query into a misleading `NoImplementation` error.
    pub fn with_front_cap(mut self, cap: usize) -> Self {
        self.root_cap = Some(cap.max(1));
        self
    }

    /// Ranks the returned alternatives by ascending
    /// `area_weight * area + delay_weight * delay` (ties broken by
    /// `(area, delay)`, so the order is deterministic).
    pub fn with_weights(mut self, area_weight: f64, delay_weight: f64) -> Self {
        self.weights = Some((area_weight, delay_weight));
        self
    }

    /// Gives the request `deadline` of queue-side patience, measured
    /// from admission into a
    /// [`DtasService`](crate::service::DtasService) lane. A request
    /// still *waiting* when its deadline passes is dropped with
    /// [`ServiceError::DeadlineExceeded`](crate::service::ServiceError::DeadlineExceeded);
    /// one already dispatched to a worker resolves normally but is
    /// counted in
    /// [`ServiceStats::late_deliveries`](crate::service::ServiceStats::late_deliveries).
    /// Ignored by the direct (service-less) entry points, which never
    /// queue. `None` falls back to
    /// [`ServiceConfig::default_deadline`](crate::service::ServiceConfig::default_deadline).
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// The per-request queue deadline, when set.
    pub fn deadline(&self) -> Option<Duration> {
        self.deadline
    }

    /// The requested specification.
    pub fn spec(&self) -> &ComponentSpec {
        &self.spec
    }

    /// True when the request changes how the root front is computed (such
    /// requests bypass the spec-keyed answer table).
    pub fn has_front_overrides(&self) -> bool {
        self.root_filter.is_some() || self.root_cap.is_some()
    }
}

impl From<ComponentSpec> for SynthRequest {
    fn from(spec: ComponentSpec) -> Self {
        SynthRequest::new(spec)
    }
}

impl From<&ComponentSpec> for SynthRequest {
    fn from(spec: &ComponentSpec) -> Self {
        SynthRequest::new(spec.clone())
    }
}

impl From<&SynthRequest> for SynthRequest {
    fn from(request: &SynthRequest) -> Self {
        request.clone()
    }
}
