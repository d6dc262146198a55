//! Ingesting external traces: application-level transaction logs.
//!
//! The Delta Revenue Pipeline analysis (Section 4.3) ran pathmap not on
//! packet captures but on *access logs* — application-level transactional
//! events with timestamps and server identities. This module is that
//! adapter for arbitrary deployments: feed it `(timestamp, src, dst)`
//! records from any log source (one CSV line per message is built in) and
//! it produces the same [`EdgeSignals`] the packet path produces, plus
//! inferred analysis roots.
//!
//! Request IDs, payloads, or log semantics are deliberately *not* needed:
//! pathmap is a black-box technique.

use crate::config::PathmapConfig;
use crate::graph::NodeLabels;
use crate::signals::EdgeSignals;
use e2eprof_netsim::NodeId;
use e2eprof_timeseries::Nanos;
use std::collections::{BTreeSet, HashMap};
use std::error::Error;
use std::fmt;
use std::io::BufRead;

/// One logged message: `src` sent something to `dst` at `at`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogRecord {
    /// Timestamp (nanoseconds since the trace epoch, in the *observing*
    /// component's clock).
    pub at: Nanos,
    /// Sending component name.
    pub src: String,
    /// Receiving component name.
    pub dst: String,
}

/// Errors from parsing a log line.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ParseError {
    /// The line does not have exactly three comma-separated fields.
    BadFieldCount {
        /// 1-based line number.
        line: usize,
    },
    /// The timestamp field is not an unsigned integer (nanoseconds).
    BadTimestamp {
        /// 1-based line number.
        line: usize,
    },
    /// An I/O error from the reader.
    Io(String),
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::BadFieldCount { line } => {
                write!(f, "line {line}: expected `timestamp_ns,src,dst`")
            }
            ParseError::BadTimestamp { line } => {
                write!(f, "line {line}: timestamp is not an unsigned integer")
            }
            ParseError::Io(e) => write!(f, "read failed: {e}"),
        }
    }
}

impl Error for ParseError {}

/// Accumulates log records and converts them into pathmap inputs.
///
/// Component names are interned into dense [`NodeId`]s in first-seen
/// order. Records may arrive in any order; they are sorted per edge at
/// build time.
///
/// # Example
///
/// ```
/// use e2eprof_core::ingest::TraceIngest;
/// use e2eprof_core::PathmapConfig;
/// use e2eprof_timeseries::Nanos;
///
/// let log = "\
/// 1000000,client,web
/// 3000000,web,db
/// 9000000,db,web
/// ";
/// let mut ingest = TraceIngest::new();
/// ingest.read_csv(log.as_bytes())?;
/// assert_eq!(ingest.num_components(), 3);
/// assert_eq!(ingest.num_records(), 3);
/// let roots = ingest.infer_roots();
/// let labels = ingest.labels();
/// assert_eq!(labels.label(roots[0].0), "client");
/// assert_eq!(labels.label(roots[0].1), "web");
/// # Ok::<(), e2eprof_core::ingest::ParseError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct TraceIngest {
    names: Vec<String>,
    ids: HashMap<String, NodeId>,
    edges: HashMap<(NodeId, NodeId), Vec<Nanos>>,
}

impl TraceIngest {
    /// Creates an empty ingester.
    pub fn new() -> Self {
        Self::default()
    }

    fn intern(&mut self, name: &str) -> NodeId {
        if let Some(&id) = self.ids.get(name) {
            return id;
        }
        let id = NodeId::new(self.names.len() as u32);
        self.names.push(name.to_owned());
        self.ids.insert(name.to_owned(), id);
        id
    }

    /// Adds one record.
    pub fn push(&mut self, record: LogRecord) {
        let src = self.intern(&record.src);
        let dst = self.intern(&record.dst);
        self.edges.entry((src, dst)).or_default().push(record.at);
    }

    /// Reads `timestamp_ns,src,dst` lines (blank lines and `#` comments
    /// skipped).
    ///
    /// One line buffer is reused for the whole stream and the fields are
    /// parsed as slices of it, so ingesting a multi-gigabyte log allocates
    /// only for names not interned yet — not per line.
    ///
    /// # Errors
    ///
    /// Returns the first malformed line or I/O failure.
    pub fn read_csv<R: BufRead>(&mut self, mut reader: R) -> Result<usize, ParseError> {
        let mut count = 0;
        let mut buf = String::new();
        let mut lineno = 0;
        loop {
            buf.clear();
            let n = reader
                .read_line(&mut buf)
                .map_err(|e| ParseError::Io(e.to_string()))?;
            if n == 0 {
                return Ok(count);
            }
            lineno += 1;
            let line = buf.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut fields = line.splitn(3, ',');
            let (Some(ts), Some(src), Some(dst)) = (fields.next(), fields.next(), fields.next())
            else {
                return Err(ParseError::BadFieldCount { line: lineno });
            };
            let (src, dst) = (src.trim(), dst.trim());
            if src.is_empty() || dst.is_empty() {
                return Err(ParseError::BadFieldCount { line: lineno });
            }
            let at = ts
                .trim()
                .parse::<u64>()
                .map_err(|_| ParseError::BadTimestamp { line: lineno })?;
            let src = self.intern(src);
            let dst = self.intern(dst);
            self.edges
                .entry((src, dst))
                .or_default()
                .push(Nanos::from_nanos(at));
            count += 1;
        }
    }

    /// Number of distinct components seen.
    pub fn num_components(&self) -> usize {
        self.names.len()
    }

    /// Number of records ingested.
    pub fn num_records(&self) -> usize {
        self.edges.values().map(Vec::len).sum()
    }

    /// The component labels, indexed by the interned [`NodeId`]s.
    pub fn labels(&self) -> NodeLabels {
        NodeLabels::new(self.names.clone())
    }

    /// Infers analysis roots: components that only ever *send* are
    /// clients; each `(client, first-receiver)` pair is a root.
    ///
    /// This heuristic fits logs that record request traffic at service
    /// components (client-bound responses are then unattributed or
    /// absent). When the log does contain responses to clients — or
    /// whenever the operator simply knows the client set, which the paper
    /// assumes ("known to the front end") — supply roots directly to
    /// [`Pathmap::discover`](crate::Pathmap::discover) instead.
    pub fn infer_roots(&self) -> Vec<(NodeId, NodeId)> {
        let mut receives: BTreeSet<NodeId> = BTreeSet::new();
        for &(_, dst) in self.edges.keys() {
            receives.insert(dst);
        }
        let mut roots: BTreeSet<(NodeId, NodeId)> = BTreeSet::new();
        for &(src, dst) in self.edges.keys() {
            if !receives.contains(&src) {
                roots.insert((src, dst));
            }
        }
        roots.into_iter().collect()
    }

    /// The latest record timestamp (the natural `now` for analysis).
    pub fn horizon(&self) -> Nanos {
        self.edges
            .values()
            .flat_map(|v| v.iter().copied())
            .max()
            .unwrap_or(Nanos::ZERO)
    }

    /// Builds edge signals for the most recent fully-materialized window
    /// at `now` (same windowing as
    /// [`EdgeSignals::from_capture`](crate::EdgeSignals::from_capture)).
    pub fn build_signals(&self, cfg: &PathmapConfig, now: Nanos) -> EdgeSignals {
        let (_, reach) = EdgeSignals::geometry(cfg, now);
        let kept: Vec<_> = self
            .edges
            .iter()
            .map(|(&edge, all)| {
                let mut stamps: Vec<Nanos> =
                    all.iter().copied().filter(|t| reach.contains(t)).collect();
                stamps.sort_unstable();
                (edge, stamps)
            })
            .collect();
        let edges = kept.iter().map(|(edge, stamps)| (*edge, stamps.as_slice()));
        EdgeSignals::from_timestamps(cfg, now, edges)
    }
}

impl Extend<LogRecord> for TraceIngest {
    fn extend<T: IntoIterator<Item = LogRecord>>(&mut self, iter: T) {
        for r in iter {
            self.push(r);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pathmap::Pathmap;

    fn record(ms: u64, src: &str, dst: &str) -> LogRecord {
        LogRecord {
            at: Nanos::from_millis(ms),
            src: src.into(),
            dst: dst.into(),
        }
    }

    #[test]
    fn interning_is_stable_first_seen() {
        let mut ing = TraceIngest::new();
        ing.push(record(1, "a", "b"));
        ing.push(record(2, "b", "c"));
        ing.push(record(3, "a", "b"));
        assert_eq!(ing.num_components(), 3);
        assert_eq!(ing.labels().label(NodeId::new(0)), "a");
        assert_eq!(ing.labels().label(NodeId::new(2)), "c");
        assert_eq!(ing.num_records(), 3);
    }

    #[test]
    fn csv_parses_and_skips_comments() {
        let log = "# header\n100,a,b\n\n200, b , c\n";
        let mut ing = TraceIngest::new();
        assert_eq!(ing.read_csv(log.as_bytes()).unwrap(), 2);
        assert_eq!(ing.num_components(), 3);
        assert_eq!(ing.horizon(), Nanos::from_nanos(200));
    }

    #[test]
    fn csv_rejects_malformed_lines() {
        let mut ing = TraceIngest::new();
        assert_eq!(
            ing.read_csv("100,a".as_bytes()),
            Err(ParseError::BadFieldCount { line: 1 })
        );
        assert_eq!(
            ing.read_csv("x,a,b".as_bytes()),
            Err(ParseError::BadTimestamp { line: 1 })
        );
        assert_eq!(
            ing.read_csv("100,,b".as_bytes()),
            Err(ParseError::BadFieldCount { line: 1 })
        );
    }

    #[test]
    fn csv_errors_report_physical_line_numbers() {
        // Skipped comment and blank lines still advance the line counter.
        let mut ing = TraceIngest::new();
        assert_eq!(
            ing.read_csv("# header\n\n100,a,b\nbogus,a,b\n".as_bytes()),
            Err(ParseError::BadTimestamp { line: 4 })
        );
    }

    #[test]
    fn roots_are_send_only_components() {
        let mut ing = TraceIngest::new();
        ing.push(record(1, "client", "web"));
        ing.push(record(2, "web", "db"));
        ing.push(record(3, "db", "web"));
        ing.push(record(4, "web", "client")); // client receives: still a root
        let roots = ing.infer_roots();
        // "client" receives the response, so strictly it is not
        // send-only... unless responses to clients are in the log. Check
        // the documented semantics: with the response logged, no root.
        assert!(roots.is_empty());

        // Without client-bound responses in the log, the root is found.
        let mut ing = TraceIngest::new();
        ing.push(record(1, "client", "web"));
        ing.push(record(2, "web", "db"));
        ing.push(record(3, "db", "web"));
        let roots = ing.infer_roots();
        assert_eq!(roots.len(), 1);
        let labels = ing.labels();
        assert_eq!(labels.label(roots[0].0), "client");
        assert_eq!(labels.label(roots[0].1), "web");
    }

    #[test]
    fn end_to_end_discovery_from_a_synthetic_log() {
        // Write a log for a two-tier system: requests every ~20ms with a
        // 5ms hop to the db and a 5ms response.
        let mut ing = TraceIngest::new();
        let mut t = 0u64;
        let mut hash = 12345u64;
        for _ in 0..2000 {
            hash = hash.wrapping_mul(6364136223846793005).wrapping_add(1);
            t += 10 + hash % 20; // irregular arrivals
            ing.push(record(t, "client", "web"));
            ing.push(record(t + 5, "web", "db"));
            ing.push(record(t + 10, "db", "web"));
        }
        let cfg = PathmapConfig::builder()
            .window(Nanos::from_secs(20))
            .refresh(Nanos::from_secs(5))
            .max_delay(Nanos::from_secs(1))
            .build();
        let signals = ing.build_signals(&cfg, ing.horizon());
        let labels = ing.labels();
        let graphs = Pathmap::new(cfg).discover(&signals, &ing.infer_roots(), &labels);
        assert_eq!(graphs.len(), 1);
        let g = &graphs[0];
        assert!(g.has_edge_between("web", "db"), "{g}");
        assert!(g.has_edge_between("db", "web"), "{g}");
        let hop = g
            .edge(labels.id_of("web").unwrap(), labels.id_of("db").unwrap())
            .unwrap();
        let min = hop.min_delay().unwrap().as_millis_f64();
        assert!((3.0..8.0).contains(&min), "web->db at {min}ms");
    }
}
