//! Network topology: nodes, unidirectional links, and static routes.
//!
//! The testbed in the paper is three sites (ANL, ISI, LBL) with two wide
//! area paths; this module is nevertheless a general directed-graph
//! topology so larger Grid configurations can be expressed (the replica
//! broker examples use more sites).

use std::collections::BTreeMap;
use std::fmt;

use crate::time::SimDuration;

/// Identifier of a node (host or site gateway) in the topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

/// Identifier of a unidirectional link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LinkId(pub u32);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for LinkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "l{}", self.0)
    }
}

/// A node in the topology.
#[derive(Debug, Clone)]
pub struct Node {
    /// Human-readable name, e.g. `"anl"` or `"dpsslx04.lbl.gov"`.
    pub name: String,
}

/// A unidirectional link with a fixed capacity and propagation delay.
///
/// Capacity is in **bytes per second**. Background (cross-traffic) load on
/// the link is modelled separately (see [`crate::load`]) as a competing
/// weight in the fair-share computation, not as a capacity reduction, so
/// that a transfer using more parallel streams claims a larger share —
/// exactly the GridFTP parallelism effect the paper's logs exhibit.
#[derive(Debug, Clone)]
pub struct Link {
    /// Human-readable name, e.g. `"anl->lbl"`.
    pub name: String,
    /// Source node.
    pub from: NodeId,
    /// Destination node.
    pub to: NodeId,
    /// Capacity in bytes/second.
    pub capacity_bps: f64,
    /// One-way propagation delay.
    pub delay: SimDuration,
}

impl Link {
    /// One-way delay in seconds.
    pub fn delay_secs(&self) -> f64 {
        self.delay.as_secs_f64()
    }
}

/// A static route: the ordered list of links a flow traverses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Route {
    /// Links from source to destination, in traversal order.
    pub links: Vec<LinkId>,
}

/// The full network graph plus a static routing table.
#[derive(Debug, Clone, Default)]
pub struct Topology {
    nodes: Vec<Node>,
    links: Vec<Link>,
    routes: BTreeMap<(NodeId, NodeId), Route>,
}

/// Errors raised while building or querying a topology.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologyError {
    /// A link referenced a node that does not exist.
    UnknownNode(NodeId),
    /// A route referenced a link that does not exist.
    UnknownLink(LinkId),
    /// A route's links are not contiguous from source to destination.
    BrokenRoute {
        /// The source node of the attempted route.
        from: NodeId,
        /// The destination node of the attempted route.
        to: NodeId,
    },
    /// No route between the queried pair.
    NoRoute(NodeId, NodeId),
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::UnknownNode(n) => write!(f, "unknown node {n}"),
            TopologyError::UnknownLink(l) => write!(f, "unknown link {l}"),
            TopologyError::BrokenRoute { from, to } => {
                write!(f, "route {from}->{to} is not contiguous")
            }
            TopologyError::NoRoute(a, b) => write!(f, "no route {a}->{b}"),
        }
    }
}

impl std::error::Error for TopologyError {}

impl Topology {
    /// Create an empty topology.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a node and return its id.
    pub fn add_node(&mut self, name: impl Into<String>) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node { name: name.into() });
        id
    }

    /// Add a unidirectional link and return its id.
    pub fn add_link(
        &mut self,
        name: impl Into<String>,
        from: NodeId,
        to: NodeId,
        capacity_bps: f64,
        delay: SimDuration,
    ) -> Result<LinkId, TopologyError> {
        self.node(from)?;
        self.node(to)?;
        assert!(
            capacity_bps.is_finite() && capacity_bps > 0.0,
            "link capacity must be positive"
        );
        let id = LinkId(self.links.len() as u32);
        self.links.push(Link {
            name: name.into(),
            from,
            to,
            capacity_bps,
            delay,
        });
        Ok(id)
    }

    /// Add a bidirectional link as two unidirectional links `(fwd, rev)`
    /// with identical capacity and delay.
    pub fn add_duplex_link(
        &mut self,
        name: &str,
        a: NodeId,
        b: NodeId,
        capacity_bps: f64,
        delay: SimDuration,
    ) -> Result<(LinkId, LinkId), TopologyError> {
        let fwd = self.add_link(format!("{name}:fwd"), a, b, capacity_bps, delay)?;
        let rev = self.add_link(format!("{name}:rev"), b, a, capacity_bps, delay)?;
        Ok((fwd, rev))
    }

    /// Register a static route between two nodes, validating contiguity.
    pub fn add_route(
        &mut self,
        from: NodeId,
        to: NodeId,
        links: Vec<LinkId>,
    ) -> Result<(), TopologyError> {
        if links.is_empty() {
            return Err(TopologyError::BrokenRoute { from, to });
        }
        let mut at = from;
        for &lid in &links {
            let link = self.link(lid)?;
            if link.from != at {
                return Err(TopologyError::BrokenRoute { from, to });
            }
            at = link.to;
        }
        if at != to {
            return Err(TopologyError::BrokenRoute { from, to });
        }
        self.routes.insert((from, to), Route { links });
        Ok(())
    }

    /// Look up a node.
    pub fn node(&self, id: NodeId) -> Result<&Node, TopologyError> {
        self.nodes
            .get(id.0 as usize)
            .ok_or(TopologyError::UnknownNode(id))
    }

    /// Look up a link.
    pub fn link(&self, id: LinkId) -> Result<&Link, TopologyError> {
        self.links
            .get(id.0 as usize)
            .ok_or(TopologyError::UnknownLink(id))
    }

    /// Look up the static route between two nodes.
    pub fn route(&self, from: NodeId, to: NodeId) -> Result<&Route, TopologyError> {
        self.routes
            .get(&(from, to))
            .ok_or(TopologyError::NoRoute(from, to))
    }

    /// Round-trip time along a route and back, assuming the reverse route
    /// exists; falls back to twice the forward one-way delay otherwise.
    /// This is the RTT the TCP model uses for window/throughput limits.
    pub fn rtt(&self, from: NodeId, to: NodeId) -> Result<SimDuration, TopologyError> {
        let fwd = self.one_way_delay(from, to)?;
        match self.one_way_delay(to, from) {
            Ok(rev) => Ok(fwd + rev),
            Err(TopologyError::NoRoute(..)) => Ok(fwd * 2),
            Err(e) => Err(e),
        }
    }

    /// Sum of propagation delays along the forward route.
    pub fn one_way_delay(&self, from: NodeId, to: NodeId) -> Result<SimDuration, TopologyError> {
        let route = self.route(from, to)?;
        let mut d = SimDuration::ZERO;
        for &lid in &route.links {
            d += self.link(lid)?.delay;
        }
        Ok(d)
    }

    /// Minimum link capacity (bytes/sec) along the forward route: the
    /// path's bottleneck bandwidth, as iperf would report it unloaded.
    pub fn bottleneck_bps(&self, from: NodeId, to: NodeId) -> Result<f64, TopologyError> {
        let route = self.route(from, to)?;
        let mut min = f64::INFINITY;
        for &lid in &route.links {
            min = min.min(self.link(lid)?.capacity_bps);
        }
        Ok(min)
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of links.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Iterate over all links with their ids.
    pub fn links(&self) -> impl Iterator<Item = (LinkId, &Link)> {
        self.links
            .iter()
            .enumerate()
            .map(|(i, l)| (LinkId(i as u32), l))
    }

    /// Iterate over all nodes with their ids.
    pub fn nodes(&self) -> impl Iterator<Item = (NodeId, &Node)> {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (NodeId(i as u32), n))
    }

    /// Find a node by name.
    pub fn node_by_name(&self, name: &str) -> Option<NodeId> {
        self.nodes
            .iter()
            .position(|n| n.name == name)
            .map(|i| NodeId(i as u32))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line3() -> (Topology, NodeId, NodeId, NodeId, LinkId, LinkId) {
        let mut t = Topology::new();
        let a = t.add_node("a");
        let b = t.add_node("b");
        let c = t.add_node("c");
        let ab = t
            .add_link("a->b", a, b, 10e6, SimDuration::from_millis(10))
            .unwrap();
        let bc = t
            .add_link("b->c", b, c, 5e6, SimDuration::from_millis(20))
            .unwrap();
        t.add_route(a, c, vec![ab, bc]).unwrap();
        (t, a, b, c, ab, bc)
    }

    #[test]
    fn route_validation_accepts_contiguous() {
        let (t, a, _, c, ..) = line3();
        assert_eq!(t.route(a, c).unwrap().links.len(), 2);
    }

    #[test]
    fn route_validation_rejects_broken() {
        let (mut t, a, _, c, ab, bc) = line3();
        // Reversed order is not contiguous.
        assert_eq!(
            t.add_route(a, c, vec![bc, ab]),
            Err(TopologyError::BrokenRoute { from: a, to: c })
        );
        // Route that stops early.
        assert_eq!(
            t.add_route(a, c, vec![ab]),
            Err(TopologyError::BrokenRoute { from: a, to: c })
        );
        // Empty route.
        assert_eq!(
            t.add_route(a, c, vec![]),
            Err(TopologyError::BrokenRoute { from: a, to: c })
        );
    }

    #[test]
    fn bottleneck_and_delay() {
        let (t, a, _, c, ..) = line3();
        assert_eq!(t.bottleneck_bps(a, c).unwrap(), 5e6);
        assert_eq!(t.one_way_delay(a, c).unwrap(), SimDuration::from_millis(30));
        // No reverse route: rtt falls back to 2x forward delay.
        assert_eq!(t.rtt(a, c).unwrap(), SimDuration::from_millis(60));
    }

    #[test]
    fn rtt_uses_reverse_route_when_present() {
        let mut t = Topology::new();
        let a = t.add_node("a");
        let b = t.add_node("b");
        let (fwd, rev) = t
            .add_duplex_link("ab", a, b, 1e6, SimDuration::from_millis(25))
            .unwrap();
        t.add_route(a, b, vec![fwd]).unwrap();
        t.add_route(b, a, vec![rev]).unwrap();
        assert_eq!(t.rtt(a, b).unwrap(), SimDuration::from_millis(50));
    }

    #[test]
    fn unknown_lookups_error() {
        let (t, a, ..) = line3();
        assert!(matches!(
            t.link(LinkId(99)),
            Err(TopologyError::UnknownLink(_))
        ));
        assert!(matches!(
            t.node(NodeId(99)),
            Err(TopologyError::UnknownNode(_))
        ));
        assert!(matches!(t.route(a, a), Err(TopologyError::NoRoute(..))));
    }

    #[test]
    fn node_by_name() {
        let (t, a, ..) = line3();
        assert_eq!(t.node_by_name("a"), Some(a));
        assert_eq!(t.node_by_name("zzz"), None);
    }

    #[test]
    fn duplex_creates_two_links() {
        let mut t = Topology::new();
        let a = t.add_node("a");
        let b = t.add_node("b");
        let (f, r) = t
            .add_duplex_link("ab", a, b, 1e6, SimDuration::from_millis(1))
            .unwrap();
        assert_eq!(t.link(f).unwrap().from, a);
        assert_eq!(t.link(r).unwrap().from, b);
        assert_eq!(t.link_count(), 2);
    }
}
