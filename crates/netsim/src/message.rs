//! Messages exchanged between nodes.

use crate::ids::{ClassId, NodeId, RequestId};

/// Whether a message travels down the request path or back up it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MsgKind {
    /// A client request (or a downstream query derived from one).
    Request,
    /// A response travelling the request's path in reverse.
    Response,
}

/// One logical message in flight.
///
/// The `path` records every node the request has been *processed* at (the
/// originating client at index 0), so responses can retrace it in reverse —
/// the paper's bidirectional-path assumption. `back_index` is meaningful
/// only for responses: the position in `path` of the node that (last)
/// forwarded this response.
#[derive(Debug, Clone, PartialEq)]
pub struct Message {
    /// End-to-end request this message belongs to.
    pub req: RequestId,
    /// Service class of the originating client.
    pub class: ClassId,
    /// Sending node.
    pub src: NodeId,
    /// Receiving node.
    pub dst: NodeId,
    /// Request or response direction.
    pub kind: MsgKind,
    /// Nodes the request has been processed at, client first.
    pub path: Vec<NodeId>,
    /// For responses: index into `path` of the forwarding node.
    pub back_index: usize,
}

impl Message {
    /// Creates the initial request message from a client to the front end.
    pub fn initial_request(req: RequestId, class: ClassId, client: NodeId, front: NodeId) -> Self {
        Message {
            req,
            class,
            src: client,
            dst: front,
            kind: MsgKind::Request,
            path: vec![client],
            back_index: 0,
        }
    }

    /// Creates the downstream request sent when `node` forwards this
    /// request to `next` (appends `node` to the path).
    ///
    /// # Panics
    ///
    /// Panics if called on a response.
    pub fn forwarded(&self, node: NodeId, next: NodeId) -> Self {
        assert_eq!(self.kind, MsgKind::Request, "cannot forward a response");
        let mut path = self.path.clone();
        path.push(node);
        Message {
            req: self.req,
            class: self.class,
            src: node,
            dst: next,
            kind: MsgKind::Request,
            path,
            back_index: 0,
        }
    }

    /// Creates the first response at the terminal node `node`.
    ///
    /// # Panics
    ///
    /// Panics if called on a response or if the path is empty.
    pub fn into_response(&self, node: NodeId) -> Self {
        assert_eq!(self.kind, MsgKind::Request, "already a response");
        let mut path = self.path.clone();
        path.push(node);
        let back_index = path.len() - 1;
        let dst = path[back_index - 1];
        Message {
            req: self.req,
            class: self.class,
            src: node,
            dst,
            kind: MsgKind::Response,
            path,
            back_index,
        }
    }

    /// Creates the response hop sent when intermediate node `node` (at
    /// `path[back_index - 1]`) passes this response further upstream.
    ///
    /// # Panics
    ///
    /// Panics if called on a request or at the end of the path.
    pub fn response_hop(&self) -> Self {
        assert_eq!(self.kind, MsgKind::Response, "not a response");
        let back_index = self.back_index - 1;
        assert!(back_index > 0, "response already at the client");
        Message {
            req: self.req,
            class: self.class,
            src: self.path[back_index],
            dst: self.path[back_index - 1],
            kind: MsgKind::Response,
            path: self.path.clone(),
            back_index,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn request_response_round_trip() {
        let m = Message::initial_request(RequestId::new(1), ClassId::new(0), n(0), n(1));
        assert_eq!(m.path, vec![n(0)]);
        let m = m.forwarded(n(1), n(2));
        assert_eq!(m.path, vec![n(0), n(1)]);
        assert_eq!((m.src, m.dst), (n(1), n(2)));
        let m = m.forwarded(n(2), n(3));
        // Terminal at node 3.
        let r = m.into_response(n(3));
        assert_eq!(r.kind, MsgKind::Response);
        assert_eq!(r.path, vec![n(0), n(1), n(2), n(3)]);
        assert_eq!((r.src, r.dst), (n(3), n(2)));
        let r = r.response_hop();
        assert_eq!((r.src, r.dst), (n(2), n(1)));
        let r = r.response_hop();
        assert_eq!((r.src, r.dst), (n(1), n(0)));
        assert_eq!(r.back_index, 1);
    }

    #[test]
    #[should_panic(expected = "already at the client")]
    fn response_cannot_pass_the_client() {
        let m = Message::initial_request(RequestId::new(1), ClassId::new(0), n(0), n(1));
        let r = m.into_response(n(1));
        let _ = r.response_hop(); // back at client already
    }

    #[test]
    #[should_panic(expected = "cannot forward a response")]
    fn forwarding_response_panics() {
        let m = Message::initial_request(RequestId::new(1), ClassId::new(0), n(0), n(1));
        let r = m.into_response(n(1));
        let _ = r.forwarded(n(1), n(2));
    }
}
