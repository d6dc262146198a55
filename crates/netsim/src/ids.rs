//! Identifier newtypes for simulation entities.

use std::fmt;

/// Identifies a node (client or service) in the topology.
///
/// Node ids are dense indices assigned by the [`TopologyBuilder`] in
/// creation order; the topology maps them back to human-readable labels.
///
/// [`TopologyBuilder`]: crate::topology::TopologyBuilder
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(u32);

impl NodeId {
    /// Creates a node id from a raw index.
    pub const fn new(index: u32) -> Self {
        NodeId(index)
    }

    /// The raw index.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Identifies a service class (the unit of pathmap analysis).
///
/// Requests issued by one client node all belong to one class; a physical
/// client issuing several classes is modelled as several client nodes,
/// exactly as in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ClassId(u16);

impl ClassId {
    /// Creates a class id from a raw index.
    pub const fn new(index: u16) -> Self {
        ClassId(index)
    }

    /// The raw index.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ClassId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// Identifies one end-to-end request.
///
/// Only the simulator's ground-truth recorder sees request ids — pathmap,
/// by design, never does (it is a black-box technique).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RequestId(u64);

impl RequestId {
    /// Creates a request id from a raw counter value.
    pub const fn new(value: u64) -> Self {
        RequestId(value)
    }

    /// The raw counter value.
    pub const fn value(self) -> u64 {
        self.0
    }
}

impl fmt::Display for RequestId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_ordered_by_index() {
        assert!(NodeId::new(1) < NodeId::new(2));
        assert!(ClassId::new(0) < ClassId::new(1));
        assert!(RequestId::new(10) < RequestId::new(11));
    }

    #[test]
    fn display_is_compact() {
        assert_eq!(NodeId::new(3).to_string(), "n3");
        assert_eq!(ClassId::new(1).to_string(), "c1");
        assert_eq!(RequestId::new(7).to_string(), "r7");
    }

    #[test]
    fn round_trip_index() {
        assert_eq!(NodeId::new(9).index(), 9);
        assert_eq!(ClassId::new(2).index(), 2);
        assert_eq!(RequestId::new(123).value(), 123);
    }
}
