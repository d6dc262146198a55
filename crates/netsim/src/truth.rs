//! Ground-truth instrumentation — the simulator-side equivalent of the
//! paper's piggybacked latency tracking (Section 4.1.1).
//!
//! The paper validates pathmap by instrumenting RUBiS' servlets and EJB
//! components to carry per-server latency information in requests and
//! responses. Our simulator has perfect knowledge, so the recorder simply
//! logs request lifecycle events and aggregates per-class end-to-end
//! latencies and per-node processing delays for comparison against
//! pathmap's inferences. None of this is visible to pathmap.

use crate::ids::{ClassId, NodeId, RequestId};
use e2eprof_timeseries::hashing::FxHashMap;
use e2eprof_timeseries::stats::Welford;
use e2eprof_timeseries::Nanos;
use std::collections::HashMap;

/// Full lifecycle of one request (retained for the first
/// `detail_limit` requests).
#[derive(Debug, Clone, PartialEq)]
pub struct RequestRecord {
    /// Service class.
    pub class: ClassId,
    /// Emission time at the client.
    pub start: Nanos,
    /// Response arrival back at the client, if completed.
    pub complete: Option<Nanos>,
    /// Per-node `(node, arrival, departure)` of the request direction, in
    /// visit order.
    pub hops: Vec<(NodeId, Nanos, Option<Nanos>)>,
}

impl RequestRecord {
    /// The request's node path (visit order, client excluded).
    pub fn path(&self) -> Vec<NodeId> {
        self.hops.iter().map(|&(n, _, _)| n).collect()
    }

    /// End-to-end latency, if completed.
    pub fn latency(&self) -> Option<Nanos> {
        self.complete.map(|c| c - self.start)
    }
}

/// Aggregating ground-truth recorder.
///
/// Every map is keyed by ids the simulator assigns itself, so all of them
/// hash with Fx ([`e2eprof_timeseries::hashing`]). The per-class queries
/// ([`class_paths`](Self::class_paths),
/// [`class_latency_between`](Self::class_latency_between)) visit only
/// their class's retained requests, in emission order.
#[derive(Debug, Clone)]
pub struct TruthRecorder {
    /// Retained detail records, in emission order.
    details: Vec<RequestRecord>,
    /// Where each retained request's record sits in `details`.
    detail_at: FxHashMap<RequestId, usize>,
    /// Each class's retained requests: indices into `details`, ascending.
    class_details: FxHashMap<ClassId, Vec<usize>>,
    detail_limit: usize,
    /// In-flight (request, node) arrival times awaiting departure.
    pending: FxHashMap<(RequestId, NodeId), Nanos>,
    /// Class of each in-flight request (dropped on completion).
    classes: FxHashMap<RequestId, (ClassId, Nanos)>,
    class_latency: FxHashMap<ClassId, Welford>,
    node_processing: FxHashMap<(ClassId, NodeId), Welford>,
    started: u64,
    completed: u64,
}

impl Default for TruthRecorder {
    fn default() -> Self {
        TruthRecorder::new(200_000)
    }
}

impl TruthRecorder {
    /// Creates a recorder retaining per-request detail for at most
    /// `detail_limit` requests (aggregates are always exact).
    pub fn new(detail_limit: usize) -> Self {
        TruthRecorder {
            details: Vec::new(),
            detail_at: FxHashMap::default(),
            class_details: FxHashMap::default(),
            detail_limit,
            pending: FxHashMap::default(),
            classes: FxHashMap::default(),
            class_latency: FxHashMap::default(),
            node_processing: FxHashMap::default(),
            started: 0,
            completed: 0,
        }
    }

    /// Records a request's emission. Each request is emitted once: the
    /// simulator hands out every id a single time.
    pub fn start(&mut self, req: RequestId, class: ClassId, at: Nanos) {
        self.started += 1;
        self.classes.insert(req, (class, at));
        if self.details.len() < self.detail_limit {
            let slot = self.details.len();
            let fresh = self.detail_at.insert(req, slot).is_none();
            debug_assert!(fresh, "request {req} emitted twice");
            self.class_details.entry(class).or_default().push(slot);
            self.details.push(RequestRecord {
                class,
                start: at,
                complete: None,
                hops: Vec::new(),
            });
        }
    }

    /// Records the request's arrival at a service node.
    pub fn arrive(&mut self, req: RequestId, node: NodeId, at: Nanos) {
        self.pending.insert((req, node), at);
        if let Some(rec) = self.detail_mut(req) {
            rec.hops.push((node, at, None));
        }
    }

    /// Records the request's departure (forward or response generation)
    /// from a service node. The interval since arrival is the node's
    /// processing delay (queueing + service).
    pub fn depart(&mut self, req: RequestId, node: NodeId, at: Nanos) {
        if let Some(arrived) = self.pending.remove(&(req, node)) {
            if let Some((class, _)) = self.classes.get(&req) {
                self.node_processing
                    .entry((*class, node))
                    .or_default()
                    .push((at - arrived).as_nanos() as f64);
            }
        }
        if let Some(rec) = self.detail_mut(req) {
            if let Some(hop) = rec
                .hops
                .iter_mut()
                .rev()
                .find(|(n, _, d)| *n == node && d.is_none())
            {
                hop.2 = Some(at);
            }
        }
    }

    /// Records the response's arrival back at the client.
    pub fn complete(&mut self, req: RequestId, at: Nanos) {
        if let Some((class, started)) = self.classes.remove(&req) {
            self.completed += 1;
            self.class_latency
                .entry(class)
                .or_default()
                .push((at - started).as_nanos() as f64);
        }
        if let Some(rec) = self.detail_mut(req) {
            rec.complete = Some(at);
        }
    }

    /// Number of requests emitted.
    pub fn started_count(&self) -> u64 {
        self.started
    }

    /// Number of requests completed end-to-end.
    pub fn completed_count(&self) -> u64 {
        self.completed
    }

    /// End-to-end latency statistics of a class (nanoseconds).
    pub fn class_latency(&self, class: ClassId) -> Welford {
        self.class_latency.get(&class).copied().unwrap_or_default()
    }

    /// Processing-delay statistics (queueing + service, nanoseconds) of
    /// `class` requests at `node`.
    pub fn node_processing(&self, class: ClassId, node: NodeId) -> Welford {
        self.node_processing
            .get(&(class, node))
            .copied()
            .unwrap_or_default()
    }

    /// The retained detail record of a request, if any.
    pub fn request(&self, req: RequestId) -> Option<&RequestRecord> {
        self.detail_at.get(&req).map(|&i| &self.details[i])
    }

    fn detail_mut(&mut self, req: RequestId) -> Option<&mut RequestRecord> {
        let i = *self.detail_at.get(&req)?;
        Some(&mut self.details[i])
    }

    /// The retained records of `class` requests, in emission order.
    fn class_records(&self, class: ClassId) -> impl Iterator<Item = &RequestRecord> {
        let indices = self
            .class_details
            .get(&class)
            .map_or(&[][..], Vec::as_slice);
        indices.iter().map(|&i| &self.details[i])
    }

    /// Distinct node paths taken by completed `class` requests (from
    /// retained details), with counts.
    pub fn class_paths(&self, class: ClassId) -> HashMap<Vec<NodeId>, usize> {
        let mut map = HashMap::new();
        for rec in self.class_records(class) {
            if rec.complete.is_some() {
                *map.entry(rec.path()).or_insert(0) += 1;
            }
        }
        map
    }

    /// Latency statistics of completed `class` requests within
    /// `[from, to)`, from retained details (for windowed comparisons like
    /// Table 1). Requests are folded in emission order, so the result is
    /// the same to the last bit on every run.
    pub fn class_latency_between(&self, class: ClassId, from: Nanos, to: Nanos) -> Welford {
        let mut w = Welford::new();
        for rec in self.class_records(class) {
            if let Some(done) = rec.complete {
                if rec.start >= from && rec.start < to {
                    w.push((done - rec.start).as_nanos() as f64);
                }
            }
        }
        w
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(i: u64) -> RequestId {
        RequestId::new(i)
    }
    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }
    fn ms(v: u64) -> Nanos {
        Nanos::from_millis(v)
    }

    #[test]
    fn lifecycle_aggregates() {
        let mut t = TruthRecorder::default();
        let c = ClassId::new(0);
        t.start(r(1), c, ms(0));
        t.arrive(r(1), n(1), ms(2));
        t.depart(r(1), n(1), ms(7));
        t.complete(r(1), ms(12));
        assert_eq!(t.started_count(), 1);
        assert_eq!(t.completed_count(), 1);
        assert_eq!(t.class_latency(c).mean(), 12e6);
        assert_eq!(t.node_processing(c, n(1)).mean(), 5e6);
        let rec = t.request(r(1)).unwrap();
        assert_eq!(rec.path(), vec![n(1)]);
        assert_eq!(rec.latency(), Some(ms(12)));
    }

    #[test]
    fn detail_limit_preserves_aggregates() {
        let mut t = TruthRecorder::new(1);
        let c = ClassId::new(0);
        for i in 0..5 {
            t.start(r(i), c, ms(i));
            t.complete(r(i), ms(i + 10));
        }
        assert_eq!(t.completed_count(), 5);
        assert_eq!(t.class_latency(c).count(), 5);
        assert_eq!(t.class_latency(c).mean(), 10e6);
        assert!(t.request(r(4)).is_none()); // detail dropped
        assert!(t.request(r(0)).is_some());
    }

    #[test]
    fn class_paths_counts_distinct_routes() {
        let mut t = TruthRecorder::default();
        let c = ClassId::new(0);
        for (i, mid) in [(0u64, 1u32), (1, 2), (2, 1)] {
            t.start(r(i), c, ms(0));
            t.arrive(r(i), n(mid), ms(1));
            t.depart(r(i), n(mid), ms(2));
            t.arrive(r(i), n(9), ms(3));
            t.depart(r(i), n(9), ms(4));
            t.complete(r(i), ms(8));
        }
        let paths = t.class_paths(c);
        assert_eq!(paths.len(), 2);
        assert_eq!(paths[&vec![n(1), n(9)]], 2);
        assert_eq!(paths[&vec![n(2), n(9)]], 1);
    }

    #[test]
    fn class_queries_see_only_their_class() {
        let mut t = TruthRecorder::new(3);
        let (a, b) = (ClassId::new(0), ClassId::new(1));
        // Interleaved classes; the fourth request is past the detail
        // limit and only counted in the aggregates.
        for (i, class, node, latency) in
            [(0, a, 1, 10), (1, b, 2, 20), (2, a, 3, 30), (3, b, 2, 40)]
        {
            t.start(r(i), class, ms(0));
            t.arrive(r(i), n(node), ms(1));
            t.depart(r(i), n(node), ms(2));
            t.complete(r(i), ms(latency));
        }
        assert_eq!(t.class_paths(a).len(), 2);
        assert_eq!(t.class_paths(b), HashMap::from([(vec![n(2)], 1)]));
        assert_eq!(t.class_latency_between(a, ms(0), ms(1)).mean(), 20e6);
        assert_eq!(t.class_latency_between(b, ms(0), ms(1)).count(), 1);
        assert_eq!(t.class_latency(b).count(), 2);
        assert!(t.class_paths(ClassId::new(2)).is_empty());
    }

    #[test]
    fn windowed_latency() {
        let mut t = TruthRecorder::default();
        let c = ClassId::new(0);
        t.start(r(1), c, ms(5));
        t.complete(r(1), ms(15));
        t.start(r(2), c, ms(100));
        t.complete(r(2), ms(140));
        let w = t.class_latency_between(c, ms(0), ms(50));
        assert_eq!(w.count(), 1);
        assert_eq!(w.mean(), 10e6);
    }

    #[test]
    fn incomplete_requests_not_counted() {
        let mut t = TruthRecorder::default();
        let c = ClassId::new(0);
        t.start(r(1), c, ms(0));
        assert_eq!(t.completed_count(), 0);
        assert_eq!(t.class_latency(c).count(), 0);
    }
}
