//! Topology construction and static routing.
//!
//! A [`TopologyBuilder`] collects hosts, switches, and full-duplex links,
//! then computes shortest-path routes and produces the node set for a
//! [`crate::sim::Simulator`]. Builders for every topology used in the
//! paper's evaluation are provided.

use std::collections::HashMap;
use std::sync::Arc;

use crate::node::{
    intern, intern_params, port_in, DstIndex, Host, Node, Port, PortLink, PortParams, RouteTable,
    Row, Switch, Wire, MAX_PORTS, NO_GROUP, NO_ROUTE,
};
use crate::packet::NodeId;
use crate::policy::{DropTail, SwitchPolicy};
use crate::units::{Bandwidth, Dur};

/// Default switch buffer per port: 256 KB, like the paper's NetFPGA
/// boards (§6.1.1).
pub const DEFAULT_SWITCH_BUFFER: u64 = 256 * 1024;

/// Default host NIC queue: large enough that drops concentrate at
/// switches, as in the testbed.
pub const DEFAULT_HOST_BUFFER: u64 = 16 * 1024 * 1024;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum NodeKind {
    Host,
    Switch,
}

/// Errors from fallible topology construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopologyError {
    /// Adding another node would overflow the `u32` node-id space; the
    /// id would silently wrap and alias node 0.
    NodeIdSpaceExhausted {
        /// Number of nodes already in the builder.
        nodes: usize,
    },
    /// A link would connect a node to itself.
    SelfLink {
        /// The node on both ends.
        node: NodeId,
    },
    /// A link names a node the builder never created.
    UnknownNode {
        /// The id with no node behind it.
        node: NodeId,
    },
    /// A node has more ports than a route-table entry can name.
    TooManyPorts {
        /// The offending node.
        node: NodeId,
        /// How many ports it has.
        ports: usize,
    },
    /// A host has zero or multiple links; every host needs exactly one.
    HostLinkCount {
        /// The offending host's id.
        host: NodeId,
        /// How many links it has.
        links: usize,
    },
    /// The graph is not connected: `node` cannot reach `unreachable`
    /// (the first such pair found), so no route table can be filled.
    Disconnected {
        /// A node with no path to `unreachable`.
        node: NodeId,
        /// The destination host it cannot reach (in a graph without
        /// hosts, the first switch).
        unreachable: NodeId,
    },
    /// A switch or host buffer is larger than a port queue can count:
    /// queues keep their backlog in `u32` bytes.
    BufferTooLarge {
        /// The configured buffer, in bytes.
        bytes: u64,
    },
}

impl std::fmt::Display for TopologyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TopologyError::NodeIdSpaceExhausted { nodes } => {
                write!(f, "node-id space exhausted: {nodes} nodes, NodeId is u32")
            }
            TopologyError::SelfLink { node } => {
                write!(f, "self-links are not allowed: node {}", node.0)
            }
            TopologyError::UnknownNode { node } => write!(f, "unknown node {}", node.0),
            TopologyError::TooManyPorts { node, ports } => {
                write!(
                    f,
                    "node {} has {ports} ports, at most {MAX_PORTS} are routable",
                    node.0
                )
            }
            TopologyError::HostLinkCount { host, links } => {
                write!(f, "host {} must have exactly one link, has {links}", host.0)
            }
            TopologyError::Disconnected { node, unreachable } => {
                write!(
                    f,
                    "graph is disconnected: node {} has no path to node {}",
                    node.0, unreachable.0
                )
            }
            TopologyError::BufferTooLarge { bytes } => write!(
                f,
                "buffer too large: {bytes} B, a port queue holds at most {} B",
                u32::MAX
            ),
        }
    }
}

impl std::error::Error for TopologyError {}

/// The id the next node would get, or an error if `count` nodes already
/// exhaust the `u32` id space. Factored out of the builder so the
/// boundary is testable without allocating four billion nodes.
fn checked_id(count: usize) -> Result<NodeId, TopologyError> {
    u32::try_from(count)
        .map(NodeId)
        .map_err(|_| TopologyError::NodeIdSpaceExhausted { nodes: count })
}

/// Checks that `node`'s `ports` can all be named by a route-table entry.
fn checked_ports(node: usize, ports: usize) -> Result<(), TopologyError> {
    if ports > MAX_PORTS {
        return Err(TopologyError::TooManyPorts {
            node: NodeId(node as u32),
            ports,
        });
    }
    Ok(())
}

#[derive(Debug, Clone, Copy)]
struct LinkSpec {
    a: NodeId,
    b: NodeId,
    rate: Bandwidth,
    delay: Dur,
}

/// Incrementally describes a network, then builds nodes + routes.
///
/// # Examples
///
/// ```
/// use tfc_simnet::topology::TopologyBuilder;
/// use tfc_simnet::units::{Bandwidth, Dur};
///
/// let mut t = TopologyBuilder::new();
/// let h1 = t.host();
/// let h2 = t.host();
/// let s = t.switch();
/// t.link(h1, s, Bandwidth::gbps(1), Dur::micros(1));
/// t.link(h2, s, Bandwidth::gbps(1), Dur::micros(1));
/// let net = t.build_drop_tail();
/// assert_eq!(net.hosts.len(), 2);
/// ```
#[derive(Debug, Default)]
pub struct TopologyBuilder {
    kinds: Vec<NodeKind>,
    links: Vec<LinkSpec>,
    switch_buffer: Option<u64>,
    host_buffer: Option<u64>,
}

/// The built network: nodes (indexed by `NodeId`) plus the host list.
pub struct Network {
    /// All nodes; `nodes[id.0]` has id `id`.
    pub nodes: Vec<Node>,
    /// The switch port table: every switch's ports, switch by switch in
    /// creation order. Each [`Switch::ports`] is its range here; host
    /// NICs stay in their [`Host`].
    pub ports: Vec<Port>,
    /// The interned port parameters every port names a row of
    /// ([`Wire::params`]): one row per distinct rate, delay, buffer,
    /// link state and loss window.
    pub params: Vec<PortParams>,
    /// Ids of the host nodes, in creation order.
    pub hosts: Vec<NodeId>,
    /// Ids of the switch nodes, in creation order.
    pub switches: Vec<NodeId>,
}

impl Network {
    /// Port `idx` of `node`: a host's NIC or a switch's table entry.
    ///
    /// # Panics
    ///
    /// Panics if the port does not exist.
    pub fn port(&self, node: NodeId, idx: usize) -> &Port {
        port_in(&self.nodes, &self.ports, node, idx)
    }
}

/// Every node's port links in one array, node by node (compressed
/// sparse rows): node `v`'s ports are `links[start[v]..start[v + 1]]`.
struct Links {
    start: Vec<u32>,
    links: Vec<PortLink>,
}

impl Links {
    /// Lays out the ports of `n` nodes from the link list: each link
    /// adds the next port at both ends, and each end names the other's
    /// port number as its peer port.
    fn new(n: usize, specs: &[LinkSpec]) -> Self {
        let mut start = vec![0u32; n + 1];
        for l in specs {
            start[l.a.0 as usize + 1] += 1;
            start[l.b.0 as usize + 1] += 1;
        }
        for v in 0..n {
            start[v + 1] += start[v];
        }
        let unset = PortLink {
            rate: Bandwidth(0),
            delay: Dur::ZERO,
            peer: NodeId(u32::MAX),
            peer_port: 0,
        };
        let mut links = vec![unset; start[n] as usize];
        let mut fill: Vec<u32> = start[..n].to_vec();
        for l in specs {
            let (a, b) = (l.a.0 as usize, l.b.0 as usize);
            // Port numbers past `MAX_PORTS` wrap here; `try_build`
            // rejects such nodes before any link is used.
            let pa = (fill[a] - start[a]) as u16;
            let pb = (fill[b] - start[b]) as u16;
            links[fill[a] as usize] = PortLink {
                rate: l.rate,
                delay: l.delay,
                peer: l.b,
                peer_port: pb,
            };
            links[fill[b] as usize] = PortLink {
                rate: l.rate,
                delay: l.delay,
                peer: l.a,
                peer_port: pa,
            };
            fill[a] += 1;
            fill[b] += 1;
        }
        Self { start, links }
    }

    /// The port links of node `v`, in port order.
    fn of(&self, v: usize) -> &[PortLink] {
        &self.links[self.start[v] as usize..self.start[v + 1] as usize]
    }
}

impl TopologyBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a host and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if the `u32` node-id space is exhausted; use
    /// [`try_host`](Self::try_host) to handle that as an error.
    pub fn host(&mut self) -> NodeId {
        self.try_host().expect("node-id space exhausted")
    }

    /// Adds a host and returns its id, or an error when another node
    /// would not fit in the `u32` id space (previously the id wrapped
    /// silently).
    pub fn try_host(&mut self) -> Result<NodeId, TopologyError> {
        let id = checked_id(self.kinds.len())?;
        self.kinds.push(NodeKind::Host);
        Ok(id)
    }

    /// Adds `n` hosts and returns their ids.
    pub fn hosts(&mut self, n: usize) -> Vec<NodeId> {
        (0..n).map(|_| self.host()).collect()
    }

    /// Adds a switch and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if the `u32` node-id space is exhausted; use
    /// [`try_switch`](Self::try_switch) to handle that as an error.
    pub fn switch(&mut self) -> NodeId {
        self.try_switch().expect("node-id space exhausted")
    }

    /// Adds a switch and returns its id, or an error when another node
    /// would not fit in the `u32` id space.
    pub fn try_switch(&mut self) -> Result<NodeId, TopologyError> {
        let id = checked_id(self.kinds.len())?;
        self.kinds.push(NodeKind::Switch);
        Ok(id)
    }

    /// Connects `a` and `b` with a full-duplex link.
    ///
    /// # Panics
    ///
    /// Panics if either node does not exist or `a == b`; use
    /// [`try_link`](Self::try_link) to handle those as errors.
    pub fn link(&mut self, a: NodeId, b: NodeId, rate: Bandwidth, delay: Dur) {
        self.try_link(a, b, rate, delay)
            .unwrap_or_else(|e| panic!("invalid link: {e}"));
    }

    /// Connects `a` and `b` with a full-duplex link, or returns an error
    /// (and adds nothing) when `a == b` or either node does not exist.
    pub fn try_link(
        &mut self,
        a: NodeId,
        b: NodeId,
        rate: Bandwidth,
        delay: Dur,
    ) -> Result<(), TopologyError> {
        if a == b {
            return Err(TopologyError::SelfLink { node: a });
        }
        for node in [a, b] {
            if node.0 as usize >= self.kinds.len() {
                return Err(TopologyError::UnknownNode { node });
            }
        }
        self.links.push(LinkSpec { a, b, rate, delay });
        Ok(())
    }

    /// Overrides the per-port switch buffer (bytes).
    pub fn switch_buffer(&mut self, bytes: u64) -> &mut Self {
        self.switch_buffer = Some(bytes);
        self
    }

    /// Overrides the host NIC queue size (bytes).
    pub fn host_buffer(&mut self, bytes: u64) -> &mut Self {
        self.host_buffer = Some(bytes);
        self
    }

    /// Builds the network, creating each switch's policy with
    /// `make_policy`, which receives the switch id and its port links
    /// (index order) so per-port engines can size themselves.
    ///
    /// Routing is shortest-path (hop count) keeping *every* equal-cost
    /// next hop: each switch's [`RouteTable`] entry holds the full
    /// sorted port set, and forwarding picks a member per packet with
    /// the deterministic `(flow, hop)` ECMP hash
    /// ([`crate::node::ecmp_select`]). In tree topologies shortest
    /// paths are unique, every entry degenerates to a single port, and
    /// forward/reverse paths coincide — the symmetry TFC's ACK delay
    /// arbiter relies on. Multipath fabrics (fat-trees) expose all
    /// their uplinks and trade that symmetry away deliberately; see
    /// DESIGN.md §14.
    ///
    /// # Panics
    ///
    /// Panics if a host has more than one link, a node has more ports
    /// than a route table can name, a buffer exceeds `u32::MAX` bytes,
    /// or the graph is disconnected; use
    /// [`try_build`](Self::try_build) to handle those as structured
    /// errors.
    pub fn build(
        self,
        make_policy: impl FnMut(NodeId, &[PortLink]) -> Box<dyn SwitchPolicy>,
    ) -> Network {
        self.try_build(make_policy)
            .unwrap_or_else(|e| panic!("invalid topology: {e}"))
    }

    /// Fallible [`build`](Self::build): returns a structured
    /// [`TopologyError`] for malformed inputs (host with a link count
    /// other than one, a node with more ports than a route table can
    /// name, a buffer a port queue cannot count, disconnected graph)
    /// instead of panicking, so programmatic
    /// builders such as ECMP fabric generators can validate candidate
    /// topologies.
    pub fn try_build(
        self,
        mut make_policy: impl FnMut(NodeId, &[PortLink]) -> Box<dyn SwitchPolicy>,
    ) -> Result<Network, TopologyError> {
        let n = self.kinds.len();
        let buffer =
            |bytes: u64| u32::try_from(bytes).map_err(|_| TopologyError::BufferTooLarge { bytes });
        let switch_buf = buffer(self.switch_buffer.unwrap_or(DEFAULT_SWITCH_BUFFER))?;
        let host_buf = buffer(self.host_buffer.unwrap_or(DEFAULT_HOST_BUFFER))?;

        let ports = Links::new(n, &self.links);
        for (i, kind) in self.kinds.iter().enumerate() {
            let degree = ports.of(i).len();
            if *kind == NodeKind::Host && degree != 1 {
                return Err(TopologyError::HostLinkCount {
                    host: NodeId(i as u32),
                    links: degree,
                });
            }
            if degree == 0 {
                // An isolated node can reach nothing — degenerate case
                // of disconnection (covers switch-only builders, where
                // no host BFS would ever visit it).
                return Err(TopologyError::Disconnected {
                    node: NodeId(i as u32),
                    unreachable: NodeId(i as u32),
                });
            }
            checked_ports(i, degree)?;
        }

        let mut routes = fill_routes(&self.kinds, &ports)?.into_iter();
        let mut nodes = Vec::with_capacity(n);
        let mut hosts = Vec::new();
        let mut switches = Vec::new();
        let switch_ports = (0..n)
            .filter(|&i| self.kinds[i] == NodeKind::Switch)
            .map(|i| ports.of(i).len())
            .sum();
        let mut table = Vec::with_capacity(switch_ports);
        // Consecutive ports mostly share a row, so the previous port's
        // row is tried before the scan.
        let mut params = Vec::new();
        let mut last: Option<(PortParams, u16)> = None;
        let mut wire = |l: &PortLink, capacity: u32| {
            let p = PortParams {
                rate: l.rate,
                delay: l.delay,
                capacity,
                loss_permille: 0,
                up: true,
            };
            let row = match last {
                Some((q, row)) if q == p => row,
                _ => intern_params(&mut params, p),
            };
            last = Some((p, row));
            Wire {
                peer: l.peer,
                peer_port: l.peer_port,
                params: row,
            }
        };
        for (i, kind) in self.kinds.iter().enumerate() {
            let id = NodeId(i as u32);
            let links = ports.of(i);
            match kind {
                NodeKind::Host => {
                    hosts.push(id);
                    nodes.push(Node::Host(Host {
                        id,
                        nic: Port::new(wire(&links[0], host_buf)),
                        stalled: false,
                    }));
                }
                NodeKind::Switch => {
                    switches.push(id);
                    let policy = make_policy(id, links);
                    let first = table.len() as u32;
                    table.extend(links.iter().map(|l| Port::new(wire(l, switch_buf))));
                    nodes.push(Node::Switch(Switch {
                        id,
                        ports: first..table.len() as u32,
                        routes: routes.next().expect("one route table per switch"),
                        policy,
                    }));
                }
            }
        }
        Ok(Network {
            nodes,
            ports: table,
            params,
            hosts,
            switches,
        })
    }

    /// Builds with drop-tail switches everywhere.
    pub fn build_drop_tail(self) -> Network {
        self.build(|_, _| Box::new(DropTail))
    }
}

/// Fills every switch's route table, returned in switch-id order.
///
/// One BFS per route group, not per host: a host is a leaf hanging off
/// exactly one access node `a`, so every other switch reaches it one
/// hop further than it reaches `a`, through the same equal-cost ports,
/// and `a` itself forwards straight out of the host's port. A host
/// other than the source is never on a shortest path, so the BFS walks
/// switches only. Groups are numbered in order of their lowest host id.
///
/// The BFSs run 64 groups at a time as one bit-parallel multi-source
/// BFS (MS-BFS; Then et al., "The More the Merrier", PVLDB 2014): bit
/// `i` of a batch's words stands for its `i`-th group. Each switch holds
/// `seen`, `frontier` and `next` words, and each BFS level is one sweep
/// over the switch adjacency, `next[o] = OR(frontier[peer]) & !seen[o]`.
/// Each directed adjacency entry's `via` word gains `frontier[peer] &
/// next[o]`, so it ends up holding exactly the groups for which that
/// port is an equal-cost next hop. Each switch then fills its row: it
/// takes the batch's lowest unassigned group, builds its port set from
/// the `via` words, finds every group sharing that set in one pass, and
/// interns the set once for all of them. Lowest group first, across
/// batches in order, keeps each switch's equal-cost pool in the same
/// first-use order as a group-by-group fill. A disconnected graph
/// reports the lowest failing group's first host as `unreachable`, and
/// the lowest node id that cannot reach it as `node`; a graph without
/// hosts is checked by one switch BFS instead.
///
/// The rows are filled in one scratch block, then interned: a switch
/// answers its own access group from the index, so its entry there
/// takes the lowest other group's, and switches whose rows (entries
/// and pool) are then equal share one [`Row`].
fn fill_routes(kinds: &[NodeKind], ports: &Links) -> Result<Vec<RouteTable>, TopologyError> {
    const NONE: u32 = u32::MAX;
    let n = kinds.len();
    let switches: Vec<usize> = (0..n).filter(|&v| kinds[v] == NodeKind::Switch).collect();
    let mut ord = vec![NONE; n];
    for (o, &v) in switches.iter().enumerate() {
        ord[v] = o as u32;
    }
    // Switch-only CSR adjacency: (port, peer ordinal) pairs, ports
    // ascending, so next-hop sets come out sorted.
    let mut adj_start = Vec::with_capacity(switches.len() + 1);
    let mut adj: Vec<(u16, u32)> = Vec::new();
    for &v in &switches {
        adj_start.push(adj.len());
        for (port, l) in ports.of(v).iter().enumerate() {
            let peer = ord[l.peer.0 as usize];
            if peer != NONE {
                adj.push((port as u16, peer));
            }
        }
    }
    adj_start.push(adj.len());

    let mut index = DstIndex::new(n);
    let mut group_of = vec![NONE; n];
    // (access node, lowest host id) per group.
    let mut groups: Vec<(usize, usize)> = Vec::new();
    // Hosts linked to another host: no switch ever reaches them.
    let mut host_pairs = false;
    for h in (0..n).filter(|&v| kinds[v] == NodeKind::Host) {
        let link = ports.of(h)[0];
        let a = link.peer.0 as usize;
        if group_of[a] == NONE {
            group_of[a] = index.add_group();
            groups.push((a, h));
        }
        host_pairs |= kinds[a] != NodeKind::Switch;
        index.assign(h, group_of[a], link.peer_port);
    }
    let access = |h: usize| ports.of(h)[0].peer.0 as usize;

    let ns = switches.len();
    let ng = groups.len();
    if ng == 0 {
        // No host, so no group BFS checks the switches' reachability.
        return connected_switches(&adj_start, &adj, &switches).map(|()| {
            let index = Arc::new(index);
            let row = Arc::new(Row::default());
            (0..ns)
                .map(|_| RouteTable::new(Arc::clone(&index), Arc::clone(&row), NO_GROUP))
                .collect()
        });
    }
    // Every switch's row, switch by switch, and its equal-cost pool,
    // until they are interned; and the group each switch is the access
    // node of.
    let mut rows = vec![NO_ROUTE; ns * ng];
    let mut pools: Vec<Vec<Vec<u16>>> = vec![Vec::new(); ns];
    let mut owns = vec![NO_GROUP; ns];
    // One scratch block, freed on return. Per switch: the batch group
    // it is the access node of (at most one bit), the groups that
    // reached it, and those at the current and next BFS level. Per
    // adjacency entry: the groups its port is a next hop toward.
    let mut words = vec![0u64; 4 * ns + adj.len()];
    let (own, rest) = words.split_at_mut(ns);
    let (seen, rest) = rest.split_at_mut(ns);
    let (mut frontier, rest) = rest.split_at_mut(ns);
    let (mut next, via) = rest.split_at_mut(ns);
    let mut next_hops: Vec<u16> = Vec::new();
    for (b, batch) in groups.chunks(64).enumerate() {
        let base = 64 * b;
        let all = u64::MAX >> (64 - batch.len());
        own.fill(0);
        via.fill(0);
        for (i, &(a, _)) in batch.iter().enumerate() {
            if ord[a] != NONE {
                own[ord[a] as usize] |= 1 << i;
            }
        }
        seen.copy_from_slice(own);
        frontier.copy_from_slice(own);
        loop {
            let mut grew = 0;
            for o in 0..ns {
                let (lo, hi) = (adj_start[o], adj_start[o + 1]);
                let reach = adj[lo..hi]
                    .iter()
                    .fold(0, |acc, &(_, peer)| acc | frontier[peer as usize]);
                let fresh = reach & !seen[o];
                next[o] = fresh;
                if fresh != 0 {
                    seen[o] |= fresh;
                    for (w, &(_, peer)) in via[lo..hi].iter_mut().zip(&adj[lo..hi]) {
                        *w |= frontier[peer as usize] & fresh;
                    }
                }
                grew |= fresh;
            }
            if grew == 0 {
                break;
            }
            std::mem::swap(&mut frontier, &mut next);
        }
        // A group missed some switch, or (with host pairs) maybe a host.
        let unreached = seen.iter().fold(0, |acc, &s| acc | !s) & all;
        for i in bits(if host_pairs { all } else { unreached }) {
            let (a, first_host) = batch[i];
            let seen_by = |o: u32| o != NONE && seen[o as usize] >> i & 1 != 0;
            // A host is reached iff it is the source, hangs off the
            // source, or hangs off a reached switch.
            let reaches = |v: usize| match kinds[v] {
                NodeKind::Switch => seen_by(ord[v]),
                NodeKind::Host => {
                    let up = access(v);
                    v == a || up == a || seen_by(ord[up])
                }
            };
            if let Some(v) = (0..n).find(|&v| !reaches(v)) {
                return Err(TopologyError::Disconnected {
                    node: NodeId(v as u32),
                    unreachable: NodeId(first_host as u32),
                });
            }
        }
        for o in 0..ns {
            if own[o] != 0 {
                owns[o] = (base + own[o].trailing_zeros() as usize) as u32;
            }
            let row = &mut rows[o * ng..(o + 1) * ng];
            let entries = adj_start[o]..adj_start[o + 1];
            let mut left = all & !own[o];
            while left != 0 {
                // Every equal-cost parent joins the set: fat-trees
                // expose all their uplinks instead of concentrating on
                // the lowest-id core.
                let i = left.trailing_zeros();
                let mut same = left;
                next_hops.clear();
                for (&(port, _), &w) in adj[entries.clone()].iter().zip(&via[entries.clone()]) {
                    if w >> i & 1 != 0 {
                        next_hops.push(port);
                        same &= w;
                    } else {
                        same &= !w;
                    }
                }
                debug_assert!(!next_hops.is_empty(), "reached switch has a parent");
                let entry = intern(&mut pools[o], &next_hops);
                for j in bits(same) {
                    row[base + j] = entry;
                }
                left &= !same;
            }
        }
    }
    drop(words);
    // A switch answers its own group from the index, so its entry there
    // is free: the lowest other group's entry lets every edge switch of
    // a fat-tree share one row.
    for (row, &g) in rows.chunks_exact_mut(ng).zip(&owns) {
        if g != NO_GROUP {
            let g = g as usize;
            let lowest_other = if g == 0 { 1 } else { 0 };
            row[g] = row.get(lowest_other).copied().unwrap_or(NO_ROUTE);
        }
    }
    let index = Arc::new(index);
    let mut interned: HashMap<_, Arc<Row>> = HashMap::new();
    let tables = rows
        .chunks_exact(ng)
        .zip(&pools)
        .zip(owns)
        .map(|((entries, sets), own)| {
            let row = interned
                .entry((entries, sets))
                .or_insert_with(|| Arc::new(Row::new(entries.to_vec(), sets.clone())));
            RouteTable::new(Arc::clone(&index), Arc::clone(row), own)
        })
        .collect();
    Ok(tables)
}

/// Checks that the switch graph (CSR adjacency over switch ordinals)
/// is connected: one BFS from the first switch. A graph with no host
/// has no group BFS that would check it.
fn connected_switches(
    adj_start: &[usize],
    adj: &[(u16, u32)],
    switches: &[usize],
) -> Result<(), TopologyError> {
    let mut seen = vec![false; switches.len()];
    let mut stack = Vec::new();
    if !seen.is_empty() {
        seen[0] = true;
        stack.push(0);
    }
    while let Some(o) = stack.pop() {
        for &(_, peer) in &adj[adj_start[o]..adj_start[o + 1]] {
            if !std::mem::replace(&mut seen[peer as usize], true) {
                stack.push(peer as usize);
            }
        }
    }
    match seen.iter().position(|&s| !s) {
        None => Ok(()),
        Some(o) => Err(TopologyError::Disconnected {
            node: NodeId(switches[o] as u32),
            unreachable: NodeId(switches[0] as u32),
        }),
    }
}

/// The indices of `word`'s set bits, lowest first.
fn bits(mut word: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (word != 0).then(|| {
            let i = word.trailing_zeros() as usize;
            word &= word - 1;
            i
        })
    })
}

/// The paper's testbed (Fig. 4): root switch `NF0`, three leaf switches
/// `NF1..NF3`, three hosts per leaf (`H1..H9`), all links 1 Gbps.
///
/// Returns `(builder, hosts, switches)` where `hosts[i]` is `H(i+1)` and
/// `switches[j]` is `NFj`. The caller finishes with
/// [`TopologyBuilder::build`] to choose the switch policy.
pub fn testbed(link_delay: Dur) -> (TopologyBuilder, Vec<NodeId>, Vec<NodeId>) {
    let mut t = TopologyBuilder::new();
    let hosts = t.hosts(9);
    let nf0 = t.switch();
    let leaves: Vec<NodeId> = (0..3).map(|_| t.switch()).collect();
    let rate = Bandwidth::gbps(1);
    for (li, &leaf) in leaves.iter().enumerate() {
        t.link(leaf, nf0, rate, link_delay);
        for hi in 0..3 {
            t.link(hosts[li * 3 + hi], leaf, rate, link_delay);
        }
    }
    let mut switches = vec![nf0];
    switches.extend(leaves);
    (t, hosts, switches)
}

/// Fig. 5's multi-bottleneck chain: `h1 - S1 - S2 - {h3, h4}`, `h2 - S2`.
///
/// Returns `(builder, [h1, h2, h3, h4], [s1, s2])`.
pub fn multi_bottleneck(
    rate: Bandwidth,
    link_delay: Dur,
) -> (TopologyBuilder, Vec<NodeId>, Vec<NodeId>) {
    let mut t = TopologyBuilder::new();
    let hosts = t.hosts(4);
    let s1 = t.switch();
    let s2 = t.switch();
    t.link(hosts[0], s1, rate, link_delay);
    t.link(s1, s2, rate, link_delay);
    t.link(hosts[1], s2, rate, link_delay);
    t.link(hosts[2], s2, rate, link_delay);
    t.link(hosts[3], s2, rate, link_delay);
    (t, hosts, vec![s1, s2])
}

/// A single-switch star: `n` hosts on one switch, every link identical.
/// This is the incast topology (all senders plus the receiver on one
/// switch; the receiver's downlink is the bottleneck).
pub fn star(n: usize, rate: Bandwidth, link_delay: Dur) -> (TopologyBuilder, Vec<NodeId>, NodeId) {
    let mut t = TopologyBuilder::new();
    let hosts = t.hosts(n);
    let sw = t.switch();
    for &h in &hosts {
        t.link(h, sw, rate, link_delay);
    }
    (t, hosts, sw)
}

/// The large-scale simulation topology of §6.2.2: `n_leaf` leaf switches,
/// `hosts_per_leaf` servers each on `down` links, one `up` uplink per
/// leaf to a single top switch. The paper uses 18 × 20 servers, 1 Gbps
/// down, 10 Gbps up, 20 µs per link.
pub fn leaf_spine(
    n_leaf: usize,
    hosts_per_leaf: usize,
    down: Bandwidth,
    up: Bandwidth,
    link_delay: Dur,
) -> (TopologyBuilder, Vec<NodeId>, Vec<NodeId>) {
    let mut t = TopologyBuilder::new();
    let hosts = t.hosts(n_leaf * hosts_per_leaf);
    let top = t.switch();
    let mut switches = vec![top];
    for leaf_idx in 0..n_leaf {
        let leaf = t.switch();
        switches.push(leaf);
        t.link(leaf, top, up, link_delay);
        for h in 0..hosts_per_leaf {
            t.link(hosts[leaf_idx * hosts_per_leaf + h], leaf, down, link_delay);
        }
    }
    (t, hosts, switches)
}

/// A k-ary fat-tree (the standard three-tier Clos used by the 10k-host
/// datacenter evaluations this repo benchmarks against): `k` pods, each
/// with `k/2` edge and `k/2` aggregation switches in a full bipartite
/// mesh, `(k/2)^2` core switches, and `k/2` hosts per edge switch —
/// `k^3/4` hosts total. Hosts attach at `host_rate`; all fabric links
/// run at `fabric_rate`.
///
/// Returns `(builder, hosts, switches)`; `switches` lists cores first,
/// then per-pod aggregation then edge switches. Routing keeps every
/// equal-cost next hop: an edge switch's entry for an out-of-pod host
/// holds all `k/2` uplinks, an aggregation switch's all `k/2` of its
/// core group, and forwarding sprays packets across them with the
/// deterministic `(flow, hop)` ECMP hash.
///
/// # Panics
///
/// Panics unless `k` is even and at least 2.
pub fn fat_tree(
    k: usize,
    host_rate: Bandwidth,
    fabric_rate: Bandwidth,
    link_delay: Dur,
) -> (TopologyBuilder, Vec<NodeId>, Vec<NodeId>) {
    assert!(
        k >= 2 && k.is_multiple_of(2),
        "fat-tree arity must be even, got {k}"
    );
    let half = k / 2;
    let mut t = TopologyBuilder::new();
    let hosts = t.hosts(k * half * half);
    let cores: Vec<NodeId> = (0..half * half).map(|_| t.switch()).collect();
    let mut switches = cores.clone();
    for pod in 0..k {
        let aggs: Vec<NodeId> = (0..half).map(|_| t.switch()).collect();
        let edges: Vec<NodeId> = (0..half).map(|_| t.switch()).collect();
        switches.extend(&aggs);
        switches.extend(&edges);
        for (a, &agg) in aggs.iter().enumerate() {
            // Aggregation switch `a` owns core group `a`.
            for j in 0..half {
                t.link(agg, cores[a * half + j], fabric_rate, link_delay);
            }
            for &edge in &edges {
                t.link(agg, edge, fabric_rate, link_delay);
            }
        }
        for (e, &edge) in edges.iter().enumerate() {
            for h in 0..half {
                let host = hosts[(pod * half + e) * half + h];
                t.link(host, edge, host_rate, link_delay);
            }
        }
    }
    (t, hosts, switches)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::NextHops;

    #[test]
    fn builds_symmetric_peer_ports() {
        let mut t = TopologyBuilder::new();
        let h1 = t.host();
        let h2 = t.host();
        let s = t.switch();
        t.link(h1, s, Bandwidth::gbps(1), Dur::micros(1));
        t.link(h2, s, Bandwidth::gbps(1), Dur::micros(1));
        let net = t.build_drop_tail();
        // Host 1's NIC peers with switch port 0, host 2 with port 1.
        let Node::Host(ref hh1) = net.nodes[h1.0 as usize] else {
            panic!()
        };
        assert_eq!(hh1.nic.link.peer, s);
        assert_eq!(hh1.nic.link.peer_port, 0);
        let Node::Switch(ref sw) = net.nodes[s.0 as usize] else {
            panic!()
        };
        assert_eq!(sw.ports_in(&net.ports)[0].link.peer, h1);
        assert_eq!(sw.ports_in(&net.ports)[1].link.peer, h2);
    }

    #[test]
    fn routes_point_toward_destination() {
        let (t, hosts, switches) = testbed(Dur::micros(1));
        let net = t.build_drop_tail();
        // H1 (leaf NF1) to H6 (leaf NF2) must route via the leaf uplink.
        let Node::Switch(ref nf1) = net.nodes[switches[1].0 as usize] else {
            panic!()
        };
        let up = nf1.route(hosts[5]).expect("route exists");
        assert_eq!(nf1.ports_in(&net.ports)[up].link.peer, switches[0]);
        // Intra-rack route goes straight to the host port.
        let direct = nf1.route(hosts[1]).expect("route exists");
        assert_eq!(nf1.ports_in(&net.ports)[direct].link.peer, hosts[1]);
    }

    #[test]
    fn testbed_shape() {
        let (t, hosts, switches) = testbed(Dur::micros(1));
        let net = t.build(|_, _| Box::new(DropTail));
        assert_eq!(hosts.len(), 9);
        assert_eq!(switches.len(), 4);
        assert_eq!(net.nodes.len(), 13);
        let Node::Switch(ref nf0) = net.nodes[switches[0].0 as usize] else {
            panic!()
        };
        assert_eq!(nf0.ports.len(), 3);
    }

    #[test]
    fn leaf_spine_shape() {
        let (t, hosts, switches) = leaf_spine(
            18,
            20,
            Bandwidth::gbps(1),
            Bandwidth::gbps(10),
            Dur::micros(20),
        );
        let net = t.build_drop_tail();
        assert_eq!(hosts.len(), 360);
        assert_eq!(switches.len(), 19);
        assert_eq!(net.nodes.len(), 360 + 19);
    }

    #[test]
    fn multi_bottleneck_shape() {
        let (t, hosts, switches) = multi_bottleneck(Bandwidth::gbps(1), Dur::micros(1));
        let net = t.build_drop_tail();
        assert_eq!(hosts.len(), 4);
        // h2 routes to h3 through S2 only (2 hops vs h1's 3).
        let Node::Switch(ref s2) = net.nodes[switches[1].0 as usize] else {
            panic!()
        };
        let p = s2.route(hosts[2]).unwrap();
        assert_eq!(s2.ports_in(&net.ports)[p].link.peer, hosts[2]);
    }

    #[test]
    #[should_panic(expected = "invalid topology")]
    fn host_with_two_links_rejected() {
        let mut t = TopologyBuilder::new();
        let h = t.host();
        let s1 = t.switch();
        let s2 = t.switch();
        t.link(h, s1, Bandwidth::gbps(1), Dur::micros(1));
        t.link(h, s2, Bandwidth::gbps(1), Dur::micros(1));
        t.link(s1, s2, Bandwidth::gbps(1), Dur::micros(1));
        t.build_drop_tail();
    }

    #[test]
    #[should_panic(expected = "invalid topology")]
    fn disconnected_graph_rejected() {
        let mut t = TopologyBuilder::new();
        let _h = t.host();
        let _s = t.switch();
        t.build_drop_tail();
    }

    /// Regression: a disconnected graph used to abort with
    /// `expect("connected graph")` (or slip through to a missing-route
    /// panic mid-run); `try_build` now reports a structured error that
    /// names an unreachable pair, so programmatic fabric builders can
    /// validate candidates.
    #[test]
    fn try_build_reports_disconnection_structurally() {
        // Two islands, each internally valid: {h0-s}, {h1-s'}.
        let mut t = TopologyBuilder::new();
        let h0 = t.host();
        let h1 = t.host();
        let s0 = t.switch();
        let s1 = t.switch();
        t.link(h0, s0, Bandwidth::gbps(1), Dur::micros(1));
        t.link(h1, s1, Bandwidth::gbps(1), Dur::micros(1));
        let err = t
            .try_build(|_, _| Box::new(DropTail))
            .err()
            .expect("must fail");
        let TopologyError::Disconnected { node, unreachable } = err else {
            panic!("wrong error: {err:?}");
        };
        assert_ne!(node, unreachable);
        assert!(err.to_string().contains("disconnected"));

        // Isolated switch: degenerate disconnection, also structured.
        let mut t = TopologyBuilder::new();
        let _orphan = t.switch();
        let err = t
            .try_build(|_, _| Box::new(DropTail))
            .err()
            .expect("must fail");
        assert!(matches!(err, TopologyError::Disconnected { .. }), "{err:?}");

        // Host with two links: structured, with the offending count.
        let mut t = TopologyBuilder::new();
        let h = t.host();
        let sa = t.switch();
        let sb = t.switch();
        t.link(h, sa, Bandwidth::gbps(1), Dur::micros(1));
        t.link(h, sb, Bandwidth::gbps(1), Dur::micros(1));
        t.link(sa, sb, Bandwidth::gbps(1), Dur::micros(1));
        let err = t
            .try_build(|_, _| Box::new(DropTail))
            .err()
            .expect("must fail");
        assert_eq!(err, TopologyError::HostLinkCount { host: h, links: 2 });

        // A valid graph passes try_build identically to build.
        let (t, hosts, _) = testbed(Dur::micros(1));
        let net = t.try_build(|_, _| Box::new(DropTail)).expect("valid");
        assert_eq!(net.hosts.len(), hosts.len());
    }

    #[test]
    fn fat_tree_shape_and_routes() {
        let k = 4;
        let (t, hosts, switches) =
            fat_tree(k, Bandwidth::gbps(1), Bandwidth::gbps(10), Dur::micros(2));
        let net = t.build_drop_tail();
        assert_eq!(hosts.len(), k * k * k / 4);
        // (k/2)^2 cores + k pods of k aggregation+edge switches.
        assert_eq!(switches.len(), k * k / 4 + k * k);
        // Every switch has exactly k ports.
        for &sw in &switches {
            let Node::Switch(ref s) = net.nodes[sw.0 as usize] else {
                panic!()
            };
            assert_eq!(s.ports.len(), k, "switch {sw:?}");
        }
        // Intra-pod traffic stays below the cores: host0 -> host2 (same
        // pod, different edge) routes edge -> agg -> edge.
        let Node::Host(ref h0) = net.nodes[hosts[0].0 as usize] else {
            panic!()
        };
        let edge0 = h0.nic.link.peer;
        let Node::Switch(ref e0) = net.nodes[edge0.0 as usize] else {
            panic!()
        };
        let up = e0.route(hosts[2]).expect("route exists");
        let agg = e0.ports_in(&net.ports)[up].link.peer;
        let Node::Switch(ref a) = net.nodes[agg.0 as usize] else {
            panic!()
        };
        let down = a.route(hosts[2]).expect("route exists");
        assert_eq!(a.ports_in(&net.ports)[down].link.peer, {
            let Node::Host(ref h2) = net.nodes[hosts[2].0 as usize] else {
                panic!()
            };
            h2.nic.link.peer
        });
    }

    /// Fat-tree ECMP invariants: every equal-cost uplink is present in
    /// the route tables (an edge switch's entry for an out-of-pod host
    /// holds all `k/2` uplinks; an aggregation switch's all `k/2` cores
    /// of its group), and following *any* member of any entry makes
    /// strict progress toward the destination — no forwarding loop is
    /// reachable on any src/dst pair no matter which members the hash
    /// picks.
    #[test]
    fn fat_tree_ecmp_route_invariants() {
        let k = 4;
        let (t, hosts, switches) =
            fat_tree(k, Bandwidth::gbps(1), Bandwidth::gbps(10), Dur::micros(2));
        let net = t.build_drop_tail();
        let n = net.nodes.len();
        // Independent distance oracle: BFS from each host over the
        // undirected port graph.
        let peers = |v: usize| -> Vec<usize> {
            match &net.nodes[v] {
                Node::Host(h) => vec![h.nic.link.peer.0 as usize],
                Node::Switch(s) => s
                    .ports_in(&net.ports)
                    .iter()
                    .map(|p| p.link.peer.0 as usize)
                    .collect(),
            }
        };
        for &dst in &hosts {
            let mut dist = vec![u32::MAX; n];
            dist[dst.0 as usize] = 0;
            let mut q = std::collections::VecDeque::from([dst.0 as usize]);
            while let Some(v) = q.pop_front() {
                for p in peers(v) {
                    if dist[p] == u32::MAX {
                        dist[p] = dist[v] + 1;
                        q.push_back(p);
                    }
                }
            }
            for &swid in &switches {
                if dist[swid.0 as usize] == 0 {
                    continue;
                }
                let Node::Switch(ref sw) = net.nodes[swid.0 as usize] else {
                    panic!()
                };
                let members: Vec<usize> = match sw.routes.next_hops(dst) {
                    crate::node::NextHops::None => panic!("unreachable {dst:?} from {swid:?}"),
                    crate::node::NextHops::Single(p) => vec![p as usize],
                    crate::node::NextHops::Ecmp(set) => set.iter().map(|&p| p as usize).collect(),
                };
                // Every member steps strictly closer (no loops on any
                // member choice), and every port that steps closer is a
                // member (no equal-cost uplink missing).
                let closer: Vec<usize> = (0..sw.ports.len())
                    .filter(|&p| {
                        dist[sw.ports_in(&net.ports)[p].link.peer.0 as usize] + 1
                            == dist[swid.0 as usize]
                    })
                    .collect();
                assert_eq!(members, closer, "switch {swid:?} toward {dst:?}");
            }
        }
        // Spot-check the multipath widths the tentpole is about: an
        // edge switch spreads out-of-pod traffic over all k/2 uplinks,
        // an aggregation switch over its k/2 cores.
        let Node::Host(ref h0) = net.nodes[hosts[0].0 as usize] else {
            panic!()
        };
        let edge0 = h0.nic.link.peer;
        let far = *hosts.last().unwrap(); // different pod
        let Node::Switch(ref e0) = net.nodes[edge0.0 as usize] else {
            panic!()
        };
        let up = match e0.routes.next_hops(far) {
            crate::node::NextHops::Ecmp(set) => set.to_vec(),
            other => panic!("expected ECMP uplinks, got {other:?}"),
        };
        assert_eq!(up.len(), k / 2, "edge uplink fan-out");
        let agg = e0.ports_in(&net.ports)[up[0] as usize].link.peer;
        let Node::Switch(ref a0) = net.nodes[agg.0 as usize] else {
            panic!()
        };
        let cores = match a0.routes.next_hops(far) {
            crate::node::NextHops::Ecmp(set) => set.to_vec(),
            other => panic!("expected ECMP core ports, got {other:?}"),
        };
        assert_eq!(cores.len(), k / 2, "aggregation core fan-out");
    }

    #[test]
    fn node_id_allocation_guards_u32_boundary() {
        // In range: the id equals the running count.
        assert_eq!(checked_id(0), Ok(NodeId(0)));
        assert_eq!(checked_id(7), Ok(NodeId(7)));
        assert_eq!(checked_id(u32::MAX as usize), Ok(NodeId(u32::MAX)));
        // One past the last representable id: refused, not wrapped.
        assert_eq!(
            checked_id(u32::MAX as usize + 1),
            Err(TopologyError::NodeIdSpaceExhausted {
                nodes: u32::MAX as usize + 1
            })
        );
        let err = checked_id(u32::MAX as usize + 1).unwrap_err();
        assert!(err.to_string().contains("node-id space exhausted"));
    }

    /// Port indices must stay untagged route-table entry values: a node
    /// may have exactly `MAX_PORTS` (2^15) ports, not one more.
    #[test]
    fn port_count_guards_route_entry_range() {
        assert_eq!(MAX_PORTS, 1 << 15);
        assert_eq!(checked_ports(3, 0), Ok(()));
        assert_eq!(checked_ports(3, MAX_PORTS), Ok(()));
        assert_eq!(
            checked_ports(3, MAX_PORTS + 1),
            Err(TopologyError::TooManyPorts {
                node: NodeId(3),
                ports: MAX_PORTS + 1
            })
        );
        let (g, d) = (Bandwidth::gbps(1), Dur::micros(1));
        // At the bound the top port is still a plain entry, distinct
        // from the DIRECT and NO_ROUTE sentinels.
        let (t, hosts, sw) = star(MAX_PORTS, g, d);
        let net = t
            .try_build(|_, _| Box::new(DropTail))
            .expect("at the bound");
        let Node::Switch(ref s) = net.nodes[sw.0 as usize] else {
            panic!()
        };
        let last = *hosts.last().unwrap();
        assert_eq!(s.routes.next_hops(last), NextHops::Single(0x7FFF));
        assert_eq!(s.routes.next_hops(hosts[0]), NextHops::Single(0));
        assert_eq!(s.routes.reachable_dests(), MAX_PORTS);
        // One past it: a typed error, not a panic.
        let (t, _, sw) = star(MAX_PORTS + 1, g, d);
        let err = t
            .try_build(|_, _| Box::new(DropTail))
            .err()
            .expect("past the bound");
        assert_eq!(
            err,
            TopologyError::TooManyPorts {
                node: sw,
                ports: MAX_PORTS + 1
            }
        );
        assert!(err.to_string().contains("32769 ports"));
    }

    #[test]
    fn try_link_rejects_bad_links_without_adding_them() {
        let (g, d) = (Bandwidth::gbps(1), Dur::micros(1));
        let mut t = TopologyBuilder::new();
        let h = t.host();
        let s = t.switch();
        assert_eq!(
            t.try_link(h, h, g, d),
            Err(TopologyError::SelfLink { node: h })
        );
        let ghost = NodeId(7);
        assert_eq!(
            t.try_link(ghost, s, g, d),
            Err(TopologyError::UnknownNode { node: ghost })
        );
        let err = t.try_link(h, ghost, g, d).unwrap_err();
        assert_eq!(err, TopologyError::UnknownNode { node: ghost });
        assert!(err.to_string().contains("unknown node 7"));
        assert!(t.links.is_empty());
        assert_eq!(t.try_link(h, s, g, d), Ok(()));
        assert_eq!(t.build_drop_tail().hosts, vec![h]);
    }

    #[test]
    #[should_panic(expected = "invalid link: self-links are not allowed")]
    fn link_panics_on_self_link() {
        let mut t = TopologyBuilder::new();
        let s = t.switch();
        t.link(s, s, Bandwidth::gbps(1), Dur::micros(1));
    }

    /// Tables hold one entry per access group, shared index and all: a
    /// k = 8 fat-tree switch has k^2/2 = 32 entries, not one per node,
    /// so the table cannot quietly grow back to per-host rows.
    #[test]
    fn fat_tree_tables_hold_one_entry_per_group() {
        let k = 8;
        let (t, hosts, switches) =
            fat_tree(k, Bandwidth::gbps(1), Bandwidth::gbps(10), Dur::micros(2));
        let net = t.build_drop_tail();
        let table = |id: NodeId| match &net.nodes[id.0 as usize] {
            Node::Switch(s) => &s.routes,
            Node::Host(_) => panic!("{id:?} is a host"),
        };
        let first = table(switches[0]);
        for &sw in &switches {
            assert_eq!(table(sw).groups(), k * k / 2, "switch {sw:?}");
            assert!(table(sw).shares_index_with(first), "switch {sw:?}");
            assert_eq!(table(sw).reachable_dests(), hosts.len(), "switch {sw:?}");
        }
    }

    /// Switches that forward identically share one interned row: on a
    /// k = 36 fat-tree, one for all 648 edge switches (their own group
    /// is answered from the index, not the row), one per pod for the
    /// aggregation switches and one for all 324 cores.
    #[test]
    fn k36_fat_tree_interns_38_route_rows() {
        let k = 36;
        let (t, _, switches) =
            fat_tree(k, Bandwidth::gbps(10), Bandwidth::gbps(40), Dur::micros(5));
        let net = t.build_drop_tail();
        let mut distinct: Vec<&RouteTable> = Vec::new();
        for &sw in &switches {
            let Node::Switch(s) = &net.nodes[sw.0 as usize] else {
                panic!()
            };
            if !distinct.iter().any(|r| r.shares_row_with(&s.routes)) {
                distinct.push(&s.routes);
            }
        }
        assert_eq!(switches.len(), 1_620);
        assert_eq!(distinct.len(), 2 + k, "edge row, core row, one per pod");
    }

    /// Surgery on a switch whose row other switches share copies the
    /// row first: the row-mates keep every next hop, and still share.
    /// Surgery on a host at its own access switch overrides the host's
    /// own port, which the table answers from the index, and leaves its
    /// group-mates on theirs; the access group still counts as
    /// reachable but never as reroutable, whatever its placeholder
    /// entry in the shared row holds.
    #[test]
    fn surgery_copies_a_shared_row_and_overrides_the_own_port() {
        let k = 4;
        let (t, hosts, switches) =
            fat_tree(k, Bandwidth::gbps(1), Bandwidth::gbps(10), Dur::micros(2));
        let mut net = t.build_drop_tail();
        let n = net.nodes.len() as u32;
        let routes = |net: &Network, sw: NodeId| -> Vec<Vec<u16>> {
            let Node::Switch(s) = &net.nodes[sw.0 as usize] else {
                panic!()
            };
            (0..n)
                .map(|d| hops(s.routes.next_hops(NodeId(d))))
                .collect()
        };
        let table = |net: &Network, sw: NodeId| -> RouteTable {
            let Node::Switch(s) = &net.nodes[sw.0 as usize] else {
                panic!()
            };
            s.routes.clone()
        };
        let Node::Host(h) = &net.nodes[hosts[0].0 as usize] else {
            panic!()
        };
        let (edge, own_port) = (h.nic.link.peer, h.nic.link.peer_port);
        let mates: Vec<NodeId> = switches
            .iter()
            .copied()
            .filter(|&s| s != edge && table(&net, s).shares_row_with(&table(&net, edge)))
            .collect();
        assert_eq!(
            mates.len(),
            k * k / 2 - 1,
            "every edge switch shares one row"
        );
        let before: Vec<Vec<Vec<u16>>> = mates.iter().map(|&m| routes(&net, m)).collect();
        let edge_before = routes(&net, edge);
        assert_eq!(edge_before[hosts[0].0 as usize], [own_port]);
        let uplinks = edge_before[hosts.last().unwrap().0 as usize].clone();
        assert_eq!(uplinks.len(), k / 2);
        // The access group is reachable, and never reroutable.
        let rt = table(&net, edge);
        assert_eq!(rt.reachable_dests(), hosts.len());
        let outside = (hosts.len() - k / 2) as u64;
        assert_eq!(rt.reroutable_dests(uplinks[0], |_| true), outside);

        let Node::Switch(s) = &mut net.nodes[edge.0 as usize] else {
            panic!()
        };
        s.routes.set(hosts[0].0 as usize, &uplinks);
        let rt = table(&net, edge);
        assert!(!mates.iter().any(|&m| rt.shares_row_with(&table(&net, m))));
        let after = routes(&net, edge);
        for (d, got) in after.iter().enumerate() {
            let want = if d == hosts[0].0 as usize {
                &uplinks
            } else {
                &edge_before[d]
            };
            assert_eq!(got, want, "edge toward {d}");
        }
        assert_eq!(rt.reachable_dests(), hosts.len());
        assert_eq!(rt.reroutable_dests(uplinks[0], |_| true), outside + 1);
        for (&m, want) in mates.iter().zip(&before) {
            assert_eq!(&routes(&net, m), want, "row-mate {m:?}");
            assert!(table(&net, m).shares_row_with(&table(&net, mates[0])));
        }
    }

    /// A graph without hosts is checked for connectivity too: two
    /// unlinked switch pairs fail with the lowest switch the first one
    /// cannot reach, and one linked pair builds.
    #[test]
    fn hostless_disconnected_graph_is_rejected() {
        let (g, d) = (Bandwidth::gbps(1), Dur::micros(1));
        let mut t = TopologyBuilder::new();
        let s: Vec<NodeId> = (0..4).map(|_| t.switch()).collect();
        t.link(s[0], s[1], g, d);
        t.link(s[2], s[3], g, d);
        assert_eq!(
            t.try_build(|_, _| Box::new(DropTail)).err(),
            Some(TopologyError::Disconnected {
                node: s[2],
                unreachable: s[0],
            })
        );
        let mut t = TopologyBuilder::new();
        let (a, b) = (t.switch(), t.switch());
        t.link(a, b, g, d);
        let net = t.build_drop_tail();
        let Node::Switch(sw) = &net.nodes[a.0 as usize] else {
            panic!()
        };
        assert_eq!(sw.routes.reachable_dests(), 0);
    }

    #[test]
    #[should_panic(expected = "invalid topology: graph is disconnected")]
    fn hostless_disconnected_build_panics() {
        let (g, d) = (Bandwidth::gbps(1), Dur::micros(1));
        let mut t = TopologyBuilder::new();
        let s: Vec<NodeId> = (0..4).map(|_| t.switch()).collect();
        t.link(s[0], s[1], g, d);
        t.link(s[2], s[3], g, d);
        t.build_drop_tail();
    }

    /// Port queues count bytes in `u32`: a buffer of `u32::MAX` bytes
    /// builds, one byte more is a typed error, never a truncation.
    #[test]
    fn buffers_past_u32_are_rejected() {
        let max = u64::from(u32::MAX);
        let (g, d) = (Bandwidth::gbps(1), Dur::micros(1));
        for (switch, host) in [(max, 1), (1, max)] {
            let (mut t, hosts, sw) = star(2, g, d);
            t.switch_buffer(switch).host_buffer(host);
            let net = t.build_drop_tail();
            let capacity = |node| net.params[usize::from(net.port(node, 0).link.params)].capacity;
            assert_eq!(u64::from(capacity(sw)), switch);
            assert_eq!(u64::from(capacity(hosts[0])), host);
        }
        for (switch, host) in [(max + 1, 1), (1, max + 1), (1 << 40, 1 << 40)] {
            let (mut t, _, _) = star(2, g, d);
            t.switch_buffer(switch).host_buffer(host);
            let err = t.try_build(|_, _| Box::new(DropTail)).err();
            let bytes = switch.max(host);
            assert_eq!(err, Some(TopologyError::BufferTooLarge { bytes }));
        }
    }

    #[test]
    #[should_panic(expected = "invalid topology: buffer too large: 4294967296 B")]
    fn build_panics_on_a_buffer_past_u32() {
        let (mut t, _, _) = star(2, Bandwidth::gbps(1), Dur::micros(1));
        t.switch_buffer(u64::from(u32::MAX) + 1);
        t.build_drop_tail();
    }

    /// `h` as a port list (empty for no route).
    pub(super) fn hops(h: NextHops<'_>) -> Vec<u16> {
        match h {
            NextHops::None => Vec::new(),
            NextHops::Single(p) => vec![p],
            NextHops::Ecmp(set) => set.to_vec(),
        }
    }

    #[test]
    fn try_variants_match_infallible_ids() {
        let mut t = TopologyBuilder::new();
        assert_eq!(t.try_host().unwrap(), NodeId(0));
        assert_eq!(t.switch(), NodeId(1));
        assert_eq!(t.try_switch().unwrap(), NodeId(2));
        assert_eq!(t.host(), NodeId(3));
    }
}

#[cfg(test)]
mod proptests {
    use std::collections::VecDeque;

    use super::tests::hops;
    use super::*;
    use crate::node::Node;
    use rng::props::cases;
    use rng::Rng;

    fn random_shape(rng: &mut impl rng::RngCore) -> Vec<u8> {
        let len = rng.gen_range(0..12usize);
        (0..len).map(|_| rng.gen_range(0..16u8)).collect()
    }

    /// Builds a random tree: `shape[i]` attaches switch i+1 to switch
    /// `shape[i] % (i+1)`; every switch gets `hosts_per` hosts.
    fn random_tree(shape: &[u8], hosts_per: usize) -> Network {
        let mut t = TopologyBuilder::new();
        let mut switches = vec![t.switch()];
        let mut hosts = Vec::new();
        for &parent in shape {
            let s = t.switch();
            let p = switches[parent as usize % switches.len()];
            t.link(s, p, Bandwidth::gbps(1), Dur::micros(1));
            switches.push(s);
        }
        for &s in &switches {
            for _ in 0..hosts_per {
                let h = t.host();
                t.link(h, s, Bandwidth::gbps(1), Dur::micros(1));
                hosts.push(h);
            }
        }
        t.build_drop_tail()
    }

    #[test]
    fn routes_reach_every_destination() {
        cases(64, |_case, rng| {
            let shape = random_shape(rng);
            let hosts_per = rng.gen_range(1..3usize);
            let net = random_tree(&shape, hosts_per);
            // From every node, following next hops toward every host must
            // terminate at that host without loops.
            for &dst in &net.hosts {
                for start in &net.nodes {
                    let mut at = start.id();
                    let mut hops = 0;
                    while at != dst {
                        hops += 1;
                        assert!(
                            hops <= net.nodes.len(),
                            "routing loop toward {dst:?} in tree {shape:?}"
                        );
                        at = match &net.nodes[at.0 as usize] {
                            Node::Switch(sw) => {
                                let port = sw.route(dst).expect("route exists");
                                sw.ports_in(&net.ports)[port].link.peer
                            }
                            Node::Host(h) => {
                                assert!(at != dst);
                                h.nic.link.peer
                            }
                        };
                    }
                }
            }
        });
    }

    /// The per-host route fill that the group fill replaced, kept as its
    /// oracle: one BFS per destination host over the builder's links.
    /// Returns, per node id, the sorted next-hop ports toward every
    /// destination id (empty rows for hosts, empty sets for no route).
    fn per_host_routes(t: &TopologyBuilder) -> Result<Vec<Vec<Vec<u16>>>, TopologyError> {
        let n = t.kinds.len();
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
        for l in &t.links {
            adj[l.a.0 as usize].push(l.b.0 as usize);
            adj[l.b.0 as usize].push(l.a.0 as usize);
        }
        if let Some(v) = adj.iter().position(Vec::is_empty) {
            let v = NodeId(v as u32);
            return Err(TopologyError::Disconnected {
                node: v,
                unreachable: v,
            });
        }
        let mut routes: Vec<Vec<Vec<u16>>> = t
            .kinds
            .iter()
            .map(|k| match k {
                NodeKind::Switch => vec![Vec::new(); n],
                NodeKind::Host => Vec::new(),
            })
            .collect();
        for dst in (0..n).filter(|&i| t.kinds[i] == NodeKind::Host) {
            let mut dist = vec![u32::MAX; n];
            dist[dst] = 0;
            let mut q = VecDeque::from([dst]);
            while let Some(v) = q.pop_front() {
                for &p in &adj[v] {
                    if dist[p] == u32::MAX {
                        dist[p] = dist[v] + 1;
                        q.push_back(p);
                    }
                }
            }
            for v in (0..n).filter(|&v| v != dst) {
                if dist[v] == u32::MAX {
                    return Err(TopologyError::Disconnected {
                        node: NodeId(v as u32),
                        unreachable: NodeId(dst as u32),
                    });
                }
                if t.kinds[v] == NodeKind::Switch {
                    routes[v][dst] = (0..adj[v].len())
                        .filter(|&p| dist[adj[v][p]] + 1 == dist[v])
                        .map(|p| p as u16)
                        .collect();
                }
            }
        }
        Ok(routes)
    }

    /// A random multigraph of `switches` switches and `hosts` hosts
    /// (each drawn from its range): switches joined by a random spanning
    /// tree (each tree link dropped with probability 1/`switches.end`,
    /// to cover the disconnected case) plus fewer than `switches.end - 2`
    /// extra, possibly parallel, switch links; hosts on random switches,
    /// and now and then a host–host pair (an island no switch reaches).
    /// Node kinds interleave in id order and links are added in shuffled
    /// order, so neither a host group's ids nor a switch's port order
    /// follows the topology.
    fn random_fabric(
        rng: &mut rng::rngs::StdRng,
        switches: std::ops::Range<usize>,
        hosts: std::ops::Range<usize>,
    ) -> TopologyBuilder {
        use rng::seq::SliceRandom;
        #[derive(Clone, Copy)]
        enum Kind {
            Switch,
            Host,
            Paired,
        }
        let (cut, extra) = (1.0 / switches.end as f64, switches.end - 2);
        let n_sw = rng.gen_range(switches);
        let n_hosts = rng.gen_range(hosts);
        let n_paired = if rng.gen_bool(0.125) { 2 } else { 0 };
        let mut kinds: Vec<Kind> = (0..n_sw)
            .map(|_| Kind::Switch)
            .chain((0..n_hosts).map(|_| Kind::Host))
            .chain((0..n_paired).map(|_| Kind::Paired))
            .collect();
        kinds.shuffle(rng);
        let mut t = TopologyBuilder::new();
        let (mut switches, mut hosts, mut paired) = (Vec::new(), Vec::new(), Vec::new());
        for kind in kinds {
            match kind {
                Kind::Switch => switches.push(t.switch()),
                Kind::Host => hosts.push(t.host()),
                Kind::Paired => paired.push(t.host()),
            }
        }
        let mut links = Vec::new();
        for i in 1..n_sw {
            if !rng.gen_bool(cut) {
                links.push((switches[i], switches[rng.gen_range(0..i)]));
            }
        }
        for _ in 0..rng.gen_range(0..extra) {
            let (a, b) = (rng.gen_range(0..n_sw), rng.gen_range(0..n_sw));
            if a != b {
                links.push((switches[a], switches[b]));
            }
        }
        for &h in &hosts {
            links.push((h, switches[rng.gen_range(0..n_sw)]));
        }
        if let [a, b] = paired[..] {
            links.push((a, b));
        }
        links.shuffle(rng);
        for (a, b) in links {
            t.link(a, b, Bandwidth::gbps(1), Dur::micros(1));
        }
        t
    }

    /// The group route fill is observably identical to the per-host fill
    /// it replaced: every switch answers `next_hops`, `reachable_dests`
    /// and `reroutable_dests` as the per-host tables would, and holds its
    /// equal-cost sets in the order a per-host fill meets them, or the
    /// build fails with the same structured error. Fabrics with more than
    /// 64 access groups cross the fill's batch (word) boundary.
    #[test]
    fn access_node_fill_matches_per_host_fill() {
        let check = |t: TopologyBuilder| {
            let expected = per_host_routes(&t);
            match (expected, t.try_build(|_, _| Box::new(DropTail))) {
                (Ok(exp), Ok(net)) => {
                    let n = net.nodes.len();
                    for (i, node) in net.nodes.iter().enumerate() {
                        let Node::Switch(sw) = node else { continue };
                        let rows = &exp[i];
                        for d in 0..n + 3 {
                            let want = rows.get(d).cloned().unwrap_or_default();
                            let got = hops(sw.routes.next_hops(NodeId(d as u32)));
                            assert_eq!(got, want, "switch {i} toward {d}");
                        }
                        let mut pool: Vec<&Vec<u16>> = Vec::new();
                        for r in rows.iter().filter(|r| r.len() > 1) {
                            if !pool.contains(&r) {
                                pool.push(r);
                            }
                        }
                        assert!(sw.routes.pool().iter().eq(pool), "switch {i} pool order");
                        let reachable = rows.iter().filter(|r| !r.is_empty()).count();
                        assert_eq!(sw.routes.reachable_dests(), reachable, "switch {i}");
                        for port in 0..sw.ports.len() as u16 {
                            let masks: [&dyn Fn(u16) -> bool; 3] =
                                [&|_| true, &|p| p % 2 == 1, &|p| p != port + 1];
                            for alive in masks {
                                let want = rows
                                    .iter()
                                    .filter(|r| {
                                        r.contains(&port)
                                            && r.iter().any(|&p| p != port && alive(p))
                                    })
                                    .count() as u64;
                                let got = sw.routes.reroutable_dests(port, alive);
                                assert_eq!(got, want, "switch {i} port {port}");
                            }
                        }
                    }
                }
                (Err(a), Err(b)) => assert_eq!(a, b),
                (exp, got) => panic!(
                    "per-host fill {:?}, group fill {:?}",
                    exp.map(|_| ()),
                    got.map(|_| ())
                ),
            }
        };
        let (g, d) = (Bandwidth::gbps(1), Dur::micros(1));
        check(testbed(d).0);
        check(multi_bottleneck(g, d).0);
        check(star(5, g, d).0);
        check(star(200, g, d).0);
        check(leaf_spine(3, 4, g, Bandwidth::gbps(10), d).0);
        // One group per leaf: one word, one past it, and into a third.
        for leaves in [64, 65, 130] {
            check(leaf_spine(leaves, 2, g, Bandwidth::gbps(10), d).0);
        }
        // k^2/2 groups: 2 to 32 in one word, then 72 and 98 in two.
        for k in [2, 4, 6, 8, 12, 14] {
            check(fat_tree(k, g, Bandwidth::gbps(10), d).0);
        }
        // A lone host–host pair: no switch, nothing to route, valid.
        let mut pair = TopologyBuilder::new();
        let (a, b) = (pair.host(), pair.host());
        pair.link(a, b, g, d);
        check(pair);
        cases(256, |_case, rng| check(random_fabric(rng, 1..8, 1..16)));
        // Up to ~170 access groups: two or three words.
        cases(16, |_case, rng| {
            check(random_fabric(rng, 64..200, 100..400))
        });
    }

    /// A disconnected fabric with groups in two words, its island in the
    /// second: the error names the same pair as the per-host fill. Every
    /// group fails once the graph is disconnected (reachability is
    /// symmetric), so the lowest failing group is group 0 and `node` is
    /// the lowest id that cannot reach its first host: here the island's
    /// switch, past all 70 connected groups.
    #[test]
    fn disconnected_fill_names_the_lowest_failing_pair() {
        let (g, d) = (Bandwidth::gbps(1), Dur::micros(1));
        let (mut t, hosts, _) = leaf_spine(70, 1, g, g, d);
        let island = t.switch();
        let stray = t.host();
        t.link(stray, island, g, d);
        let want = TopologyError::Disconnected {
            node: island,
            unreachable: hosts[0],
        };
        assert_eq!(per_host_routes(&t), Err(want));
        assert_eq!(t.try_build(|_, _| Box::new(DropTail)).err(), Some(want));
    }

    #[test]
    fn peer_ports_are_mutual() {
        cases(64, |_case, rng| {
            let shape = random_shape(rng);
            let net = random_tree(&shape, 1);
            for node in &net.nodes {
                let ports: Vec<_> = match node {
                    Node::Host(h) => vec![&h.nic],
                    Node::Switch(s) => s.ports_in(&net.ports).iter().collect(),
                };
                for (idx, port) in ports.into_iter().enumerate() {
                    let back = net.port(port.link.peer, port.link.peer_port as usize);
                    assert_eq!(back.link.peer, node.id(), "tree {shape:?}");
                    assert_eq!(back.link.peer_port as usize, idx, "tree {shape:?}");
                }
            }
        });
    }
}
