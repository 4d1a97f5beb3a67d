//! Hosts, switches, and their ports.

use std::ops::Range;

use crate::packet::NodeId;
use crate::policy::SwitchPolicy;
use crate::queue::PortQueue;
use crate::sched::Timers;
use crate::units::{Bandwidth, Dur};
use std::sync::Arc;

/// The attached link of a port as the builder lays it out and a
/// policy factory sees it: rate, one-way propagation delay, and the
/// peer `(node, port)` at the far end. A built [`Port`] keeps only the
/// peer and a parameter row ([`Wire`]); the rate and delay live in its
/// interned [`PortParams`].
#[derive(Debug, Clone, Copy)]
pub struct PortLink {
    /// Link rate.
    pub rate: Bandwidth,
    /// One-way propagation delay.
    pub delay: Dur,
    /// Node at the far end.
    pub peer: NodeId,
    /// Ingress port index at the far end (below 2^15, the most ports a
    /// route-table entry can name).
    pub peer_port: u16,
}

/// What a port transmits with, and what faults change: the link's rate
/// and delay, the FIFO's capacity, whether the link is up, the active
/// loss window and, on a host's NIC, whether the host is stalled.
///
/// A network interns these in one table
/// ([`crate::topology::Network::params`]) that every port indexes with
/// a `u16` ([`Wire::params`]); ports with equal parameters share a row,
/// so a fat-tree needs a handful of rows for all its ports. A row is
/// never changed in place: a fault interns the changed copy and points
/// the port at it, so the row's other ports keep theirs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PortParams {
    /// Link rate.
    pub rate: Bandwidth,
    /// One-way propagation delay.
    pub delay: Dur,
    /// FIFO capacity in wire bytes.
    pub capacity: u32,
    /// Drop probability of the active loss window, in permille
    /// (0 = no loss window).
    pub loss_permille: u16,
    /// Whether the attached link is up. A downed port accepts nothing
    /// new; packets it finishes serialising (and packets propagating
    /// toward it) are lost.
    pub up: bool,
    /// Whether the NIC's host is stalled by a fault: silent without
    /// FIN. The NIC accepts nothing new and arrivals at the host are
    /// lost, but packets already queued still leave and the host's
    /// timers still run. Always false on a switch port.
    pub stalled: bool,
}

// A network interns a handful of these (three on a fat-tree).
const _: () = assert!(std::mem::size_of::<PortParams>() == 24);

/// The row of `params` in `table`: an equal row's index, or a new row
/// appended at the end. A linear scan: tables hold a few rows.
///
/// # Panics
///
/// Panics if the table would outgrow the `u16` row index.
pub(crate) fn intern_params(table: &mut Vec<PortParams>, params: PortParams) -> u16 {
    let row = table.iter().position(|&r| r == params).unwrap_or_else(|| {
        table.push(params);
        table.len() - 1
    });
    u16::try_from(row).expect("more distinct port parameter rows than a u16 can index")
}

/// A built port's link: the peer `(node, port)` at the far end and the
/// port's row in the network's [`PortParams`] table.
#[derive(Debug, Clone, Copy)]
pub struct Wire {
    /// Node at the far end.
    pub peer: NodeId,
    /// Ingress port index at the far end.
    pub peer_port: u16,
    /// The port's row in the parameter table.
    pub params: u16,
}

/// One output port: where its link leads, its FIFO and its transmitted
/// bytes.
///
/// Every port of a network, host NICs included, is a row of one
/// fabric-wide table laid out node by node (see [`Host::port`] and
/// [`Switch::ports`]). Everything else is kept elsewhere: rate, delay,
/// capacity, link state, loss window and stall in the interned
/// [`PortParams`] row, the drop counters in the simulator's sparse
/// per-port ledger (see [`crate::sim::SimCore::port_stats`]). The
/// transmitter is busy exactly while the FIFO holds a packet: the head
/// packet is the one being serialised.
#[derive(Debug)]
pub struct Port {
    /// Where the link leads, and the parameter row.
    pub link: Wire,
    /// Output FIFO.
    pub queue: PortQueue,
    /// Total wire bytes transmitted out of this port.
    pub tx_bytes: u64,
}

impl Port {
    /// Creates an idle port on `link`.
    pub fn new(link: Wire) -> Self {
        Self {
            link,
            queue: PortQueue::new(),
            tx_bytes: 0,
        }
    }
}

// Fabric scale multiplies this struct (58,320 switch ports and 11,664
// NICs on a k = 36 fat-tree): half a cache line. An 8-byte wire, a
// 16-byte queue and the transmitted-byte counter.
const _: () = assert!(std::mem::size_of::<Port>() == 32);

/// A snapshot of one port's counters (see
/// [`crate::sim::SimCore::port_stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PortStats {
    /// Current FIFO backlog in bytes.
    pub queue_bytes: u64,
    /// Highest FIFO backlog ever observed, in bytes.
    pub max_queue_bytes: u64,
    /// Packets tail-dropped at the full FIFO.
    pub drops: u64,
    /// Total wire bytes transmitted.
    pub tx_bytes: u64,
    /// Packets lost to injected faults (dead link, loss window, stalled
    /// host).
    pub fault_drops: u64,
    /// Packets dropped because the switch had no route toward their
    /// destination, attributed to the ingress port.
    pub no_route_drops: u64,
}

/// Sentinel in a [`RouteTable`] entry: no egress port toward the
/// destinations it covers (an entry cleared by route surgery).
pub const NO_ROUTE: u16 = u16::MAX;

/// Tag bit marking a [`RouteTable`] entry as an index into its row's
/// equal-cost port-set pool rather than a single port number. Port
/// indices must stay below this; the tagged range loses its top value
/// to [`NO_ROUTE`].
const ECMP_TAG: u16 = 1 << 15;

/// Most ports one node may have: every port index must be an untagged
/// [`RouteTable`] entry value.
pub(crate) const MAX_PORTS: usize = ECMP_TAG as usize;

/// [`DstIndex`] group of a node no switch routes toward (a switch, or
/// an id past the built topology), and the access group of a switch
/// that is no host's access node.
pub(crate) const NO_GROUP: u32 = u32::MAX;

/// One node id's place in a [`DstIndex`].
#[derive(Debug, Clone, Copy)]
struct Slot {
    /// Route group, or [`NO_GROUP`].
    group: u32,
    /// The host's port at its access node (meaningful for hosts only).
    port: u16,
}

/// The destination side of the route tables, shared by every switch of
/// a built topology: node id → route group, plus each host's port at
/// its access node.
///
/// A route group is the set of hosts behind one access node. A host is
/// a leaf with one link, so every switch other than its access node
/// forwards toward it exactly as toward its group-mates; tables hold
/// one entry per group, not per host.
#[derive(Debug, Clone, Default)]
pub(crate) struct DstIndex {
    /// One slot per node id.
    slots: Vec<Slot>,
    /// Destinations per group: the builder's groups, then groups made
    /// private to one switch by route surgery.
    sizes: Vec<u32>,
    /// Number of the builder's groups; higher groups are private.
    shared: u32,
}

impl DstIndex {
    /// An index over `n` node ids, none of them in a group yet.
    pub(crate) fn new(n: usize) -> Self {
        Self {
            slots: vec![
                Slot {
                    group: NO_GROUP,
                    port: 0,
                };
                n
            ],
            sizes: Vec::new(),
            shared: 0,
        }
    }

    /// Opens the next shared route group and returns its id.
    pub(crate) fn add_group(&mut self) -> u32 {
        self.sizes.push(0);
        self.shared += 1;
        self.shared - 1
    }

    /// Puts host `dst`, attached to its access node's port `port`, into
    /// `group`.
    pub(crate) fn assign(&mut self, dst: usize, group: u32, port: u16) {
        self.slots[dst] = Slot { group, port };
        self.sizes[group as usize] += 1;
    }
}

/// A switch's forwarding row: one `u16` entry per route group of its
/// [`DstIndex`], and the deduplicated equal-cost port sets (each
/// sorted ascending) that tagged entries index. Switches that forward
/// identically share one row (see [`RouteTable`]).
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub(crate) struct Row {
    entries: Vec<u16>,
    sets: Vec<Vec<u16>>,
}

impl Row {
    /// A row of `entries` whose tagged values index `sets`.
    pub(crate) fn new(entries: Vec<u16>, sets: Vec<Vec<u16>>) -> Self {
        Self { entries, sets }
    }
}

/// The entry value encoding `ports` in a row whose equal-cost pool is
/// `sets`, adding a multi-port set to the pool on first use. `ports`
/// must be sorted ascending and duplicate-free; empty is [`NO_ROUTE`].
pub(crate) fn intern(sets: &mut Vec<Vec<u16>>, ports: &[u16]) -> u16 {
    match ports {
        [] => NO_ROUTE,
        &[p] => {
            assert!(p < ECMP_TAG, "port index {p} collides with the ECMP tag");
            p
        }
        many => {
            debug_assert!(
                many.windows(2).all(|w| w[0] < w[1]),
                "ports must be sorted+unique"
            );
            assert!(
                *many.last().unwrap() < ECMP_TAG,
                "port index collides with the ECMP tag"
            );
            // Linear pool scan: distinct sets per switch are few (a
            // fat-tree switch has a handful), and scan order is
            // deterministic.
            let idx = sets.iter().position(|s| s == many).unwrap_or_else(|| {
                sets.push(many.to_vec());
                sets.len() - 1
            });
            assert!(
                idx < (NO_ROUTE ^ ECMP_TAG) as usize,
                "equal-cost set pool exceeds the tagged index range"
            );
            ECMP_TAG | idx as u16
        }
    }
}

/// A multi-next-hop routing table: per route group, meaning the hosts
/// behind one access node, either a single egress port, the group's own
/// host ports, or an equal-cost set of ports.
///
/// Every switch of a built topology shares one destination index (node
/// id → group, plus each host's port at its access node) and reads one
/// `u16` entry per group from its row: values below the ECMP tag bit
/// are a single port, [`NO_ROUTE`] means unreachable, and other tagged
/// values index the row's pool of sorted port sets. The table stores
/// its own access group: toward a host of that group the answer is the
/// host's own port, so the row's entry there only takes a canonical
/// value (the lowest other group's). Rows are built immutable and
/// interned fabric-wide: fabrics repeat the same few rows (every edge
/// switch of a k-ary fat-tree forwards everything up its one uplink
/// set, every core by pod), so a k = 36 fat-tree's 1,620 switches
/// share 38 rows of 648 entries (1.3 KB each) instead of holding one
/// row each.
///
/// Route surgery ([`set`](Self::set)) stays per destination: it gives
/// the destination a group private to this switch, copying the index
/// and the row the first time, so other switches, the row's other
/// holders and the destination's group-mates keep their routes. A host
/// moved out of its access switch's own group is routed by its private
/// entry there, not by its own port.
#[derive(Debug, Clone)]
pub struct RouteTable {
    /// The destination index, shared until this switch's first surgery.
    index: Arc<DstIndex>,
    /// One entry per group of `index`, shared with every switch that
    /// forwards identically until this switch's first surgery.
    row: Arc<Row>,
    /// The shared group this switch is the access node of, or
    /// [`NO_GROUP`].
    own: u32,
}

impl Default for RouteTable {
    fn default() -> Self {
        Self::new(Arc::default(), Arc::default(), NO_GROUP)
    }
}

/// Next-hop candidates for one destination (see [`RouteTable::next_hops`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NextHops<'a> {
    /// No route: the destination is this switch itself, not a host, or
    /// the entry was cleared by route surgery.
    None,
    /// A unique shortest path.
    Single(u16),
    /// Several equal-cost egress ports, sorted ascending. Always at
    /// least two entries.
    Ecmp(&'a [u16]),
}

impl NextHops<'_> {
    /// The candidate ports as a slice (empty for [`NextHops::None`]).
    /// `Single` borrows the table's pool-free fast path via the caller:
    /// use [`RouteTable::next_hops`] + pattern matching on hot paths.
    pub fn len(&self) -> usize {
        match self {
            NextHops::None => 0,
            NextHops::Single(_) => 1,
            NextHops::Ecmp(s) => s.len(),
        }
    }

    /// Whether there is no candidate at all.
    pub fn is_empty(&self) -> bool {
        matches!(self, NextHops::None)
    }
}

impl RouteTable {
    /// A table reading `row` over the groups of `index`, the access
    /// node of group `own` ([`NO_GROUP`] for none).
    pub(crate) fn new(index: Arc<DstIndex>, row: Arc<Row>, own: u32) -> Self {
        debug_assert_eq!(row.entries.len(), index.sizes.len());
        Self { index, row, own }
    }

    /// Sets the equal-cost next hops toward `dst` alone. `ports` must be
    /// sorted ascending and duplicate-free; empty clears the entry back
    /// to [`NO_ROUTE`]. Multi-port sets are deduplicated into the pool.
    ///
    /// The first call for `dst` moves it into a group private to this
    /// table, so its group-mates and other switches sharing the index
    /// or the row keep their routes.
    pub fn set(&mut self, dst: usize, ports: &[u16]) {
        let group = self.private_group(dst);
        let row = Arc::make_mut(&mut self.row);
        row.entries[group] = intern(&mut row.sets, ports);
    }

    /// The group of `dst` that only this table uses, creating it (and
    /// making this table's copies of the index and the row unique) on
    /// first use.
    fn private_group(&mut self, dst: usize) -> usize {
        let old = self.index.slots.get(dst).map_or(NO_GROUP, |s| s.group);
        if old != NO_GROUP && old >= self.index.shared {
            return old as usize;
        }
        let index = Arc::make_mut(&mut self.index);
        if index.slots.len() <= dst {
            index.slots.resize(
                dst + 1,
                Slot {
                    group: NO_GROUP,
                    port: 0,
                },
            );
        }
        if old != NO_GROUP {
            index.sizes[old as usize] -= 1;
        }
        let group = index.sizes.len();
        index.slots[dst].group = u32::try_from(group).expect("route groups fit in u32");
        index.sizes.push(1);
        Arc::make_mut(&mut self.row).entries.push(NO_ROUTE);
        group
    }

    /// The next-hop candidates toward `dst`: its group from the index,
    /// then that group's entry, or the host's own port in this switch's
    /// own group.
    pub fn next_hops(&self, dst: NodeId) -> NextHops<'_> {
        let Some(slot) = self.index.slots.get(dst.0 as usize) else {
            return NextHops::None;
        };
        // NO_GROUP is past every row's end.
        let Some(&e) = self.row.entries.get(slot.group as usize) else {
            return NextHops::None;
        };
        if slot.group == self.own {
            return NextHops::Single(slot.port);
        }
        match e {
            NO_ROUTE => NextHops::None,
            e if e & ECMP_TAG == 0 => NextHops::Single(e),
            e => NextHops::Ecmp(&self.row.sets[(e ^ ECMP_TAG) as usize]),
        }
    }

    /// The deterministic primary next hop (lowest equal-cost port) — the
    /// pre-multipath `route()` semantics, used by control-plane lookups
    /// that need *a* port rather than the per-packet hash choice.
    pub fn primary(&self, dst: NodeId) -> Option<usize> {
        match self.next_hops(dst) {
            NextHops::None => None,
            NextHops::Single(p) => Some(p as usize),
            NextHops::Ecmp(set) => Some(set[0] as usize),
        }
    }

    /// Each group with its entry and its destination count, this
    /// switch's own group (whose entry is only a placeholder) left out.
    fn routed_groups(&self) -> impl Iterator<Item = (u16, u32)> + '_ {
        let own = self.own as usize;
        self.row
            .entries
            .iter()
            .zip(&self.index.sizes)
            .enumerate()
            .filter(move |&(g, _)| g != own)
            .map(|(_, (&e, &size))| (e, size))
    }

    /// Number of destinations whose equal-cost set contains `port`
    /// alongside at least one surviving member for which `alive` holds —
    /// i.e. how many destinations a failure of `port` can deterministically
    /// re-absorb onto siblings (the `Rerouted` telemetry payload).
    pub fn reroutable_dests(&self, port: u16, mut alive: impl FnMut(u16) -> bool) -> u64 {
        let absorbs: Vec<bool> = self
            .row
            .sets
            .iter()
            .map(|s| s.contains(&port) && s.iter().any(|&p| p != port && alive(p)))
            .collect();
        self.routed_groups()
            .filter(|&(e, _)| {
                e & ECMP_TAG != 0 && e != NO_ROUTE && absorbs[(e ^ ECMP_TAG) as usize]
            })
            .map(|(_, size)| size as u64)
            .sum()
    }

    /// Number of destinations with a route: every host of this switch's
    /// own group, and those of every group with an entry.
    pub fn reachable_dests(&self) -> usize {
        let own = self
            .index
            .sizes
            .get(self.own as usize)
            .copied()
            .unwrap_or(0);
        self.routed_groups()
            .filter(|&(e, _)| e != NO_ROUTE)
            .map(|(_, size)| size as usize)
            .sum::<usize>()
            + own as usize
    }

    /// Number of route groups this table holds entries for.
    #[cfg(test)]
    pub(crate) fn groups(&self) -> usize {
        self.row.entries.len()
    }

    /// The equal-cost port-set pool, in interning order.
    #[cfg(test)]
    pub(crate) fn pool(&self) -> &[Vec<u16>] {
        &self.row.sets
    }

    /// Whether this table and `other` share one destination index.
    #[cfg(test)]
    pub(crate) fn shares_index_with(&self, other: &RouteTable) -> bool {
        Arc::ptr_eq(&self.index, &other.index)
    }

    /// Whether this table and `other` share one row.
    #[cfg(test)]
    pub(crate) fn shares_row_with(&self, other: &RouteTable) -> bool {
        Arc::ptr_eq(&self.row, &other.row)
    }
}

/// Deterministic, seed-stable ECMP hash over `(flow, hop)`: one
/// splitmix64 avalanche round. The choice of equal-cost member is a
/// pure function of the flow id and the packet's switch-hop index — it
/// never consumes a simulator RNG stream (which would perturb unrelated
/// draws) and never depends on the run seed or scheduler backend, so
/// routing is a property of the topology and workload alone.
pub fn ecmp_hash(flow: u64, hop: u8) -> u64 {
    rng::mix64(flow ^ ((hop as u64) << 56) ^ 0x9E37_79B9_7F4A_7C15)
}

/// Picks the equal-cost member for `(flow, hop)` among `set`, skipping
/// ports for which `up` is false (deterministic route repair: surviving
/// members absorb the flow). When every member is down the hash choice
/// over the full set is returned, so the packet dies at the dead port
/// with ordinary fault accounting rather than vanishing routeless.
pub fn ecmp_select(set: &[u16], flow: u64, hop: u8, mut up: impl FnMut(u16) -> bool) -> u16 {
    debug_assert!(!set.is_empty());
    let h = ecmp_hash(flow, hop);
    let live = set.iter().filter(|&&p| up(p)).count();
    if live == 0 {
        return set[(h % set.len() as u64) as usize];
    }
    let mut pick = (h % live as u64) as usize;
    for &p in set {
        if up(p) {
            if pick == 0 {
                return p;
            }
            pick -= 1;
        }
    }
    unreachable!("live member count changed mid-scan")
}

/// A switch: ports, a routing table, and a packet-processing policy
/// with its pending timers.
pub struct Switch {
    /// This switch's node id.
    pub id: NodeId,
    /// Its ports, in index order, as a range of the network's port
    /// table (`Network::ports`): port `p` is row `ports.start + p`.
    pub ports: Range<u32>,
    /// Multi-next-hop routing table toward every host.
    pub routes: RouteTable,
    /// Packet-processing policy (drop-tail, ECN, TFC, ...).
    pub policy: Box<dyn SwitchPolicy>,
    /// The policy's pending cancellable timers.
    pub(crate) timers: Timers,
}

impl Switch {
    /// Looks up the deterministic primary egress port for a destination
    /// host (lowest equal-cost member). Per-packet forwarding uses the
    /// ECMP hash instead; this is the control-plane view.
    pub fn route(&self, dst: NodeId) -> Option<usize> {
        self.routes.primary(dst)
    }

    /// The port-table row of port `port`.
    ///
    /// # Panics
    ///
    /// Panics if the switch has no port `port`.
    pub(crate) fn port_slot(&self, port: usize) -> usize {
        assert!(
            port < self.ports.len(),
            "{:?} has no port {port} ({} ports)",
            self.id,
            self.ports.len()
        );
        self.ports.start as usize + port
    }

    /// This switch's ports in the network's port table, in index order.
    pub(crate) fn ports_in<'a>(&self, table: &'a [Port]) -> &'a [Port] {
        &table[self.ports.start as usize..self.ports.end as usize]
    }
}

impl std::fmt::Debug for Switch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Switch")
            .field("id", &self.id)
            .field("ports", &self.ports.len())
            .finish()
    }
}

/// A host: one NIC port. Its flows' transport endpoints live in the
/// simulator's flow-indexed endpoint tables, tagged with the host.
#[derive(Debug)]
pub struct Host {
    /// This host's node id.
    pub id: NodeId,
    /// Its NIC, port 0, as a row of the network's port table
    /// (`Network::ports`).
    pub port: u32,
}

/// A node in the simulated network.
#[derive(Debug)]
pub enum Node {
    /// An end host.
    Host(Host),
    /// A switch, boxed: hosts outnumber switches, so a node is sized
    /// by its host.
    Switch(Box<Switch>),
}

// One per node id (13,284 on a k = 36 fat-tree): a host's id and NIC
// row, or a boxed switch (id, port range, route table, policy and its
// timers).
const _: () = assert!(std::mem::size_of::<Node>() == 16);
const _: () = assert!(std::mem::size_of::<Switch>() == 80);
const _: () = assert!(std::mem::size_of::<RouteTable>() == 24);

impl Node {
    /// The node's id.
    pub fn id(&self) -> NodeId {
        match self {
            Node::Host(h) => h.id,
            Node::Switch(s) => s.id,
        }
    }

    /// The port-table row of the node's port `idx`: a host's NIC is its
    /// port 0, a switch's ports are its range of rows.
    ///
    /// # Panics
    ///
    /// Panics if the port does not exist: the rows around it belong to
    /// other nodes, so it must not alias them.
    pub(crate) fn port_slot(&self, idx: usize) -> usize {
        match self {
            Node::Host(h) => {
                assert_eq!(idx, 0, "hosts have a single NIC port");
                h.port as usize
            }
            Node::Switch(s) => s.port_slot(idx),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::DropTail;
    use crate::units::{Bandwidth, Dur};

    fn link(peer: u32) -> Wire {
        Wire {
            peer: NodeId(peer),
            peer_port: 0,
            params: 0,
        }
    }

    /// A two-port switch whose ports are rows 1 and 2 of the table
    /// [`port_table`] returns.
    fn switch() -> Switch {
        let mut routes = RouteTable::default();
        routes.set(1, &[0]);
        routes.set(2, &[1]);
        Switch {
            id: NodeId(0),
            ports: 1..3,
            routes,
            policy: Box::new(DropTail),
            timers: Timers::default(),
        }
    }

    /// Rows 1 and 2 are [`switch`]'s ports, row 3 is host 1's NIC and
    /// row 0 belongs to another node.
    fn port_table() -> Vec<Port> {
        [9, 1, 2, 0]
            .into_iter()
            .map(|peer| Port::new(link(peer)))
            .collect()
    }

    #[test]
    fn route_lookup() {
        let sw = switch();
        assert_eq!(sw.route(NodeId(1)), Some(0));
        assert_eq!(sw.route(NodeId(2)), Some(1));
        assert_eq!(sw.route(NodeId(0)), None);
        assert_eq!(sw.route(NodeId(99)), None, "out-of-range dst");
    }

    #[test]
    fn route_table_single_and_ecmp_entries() {
        let mut rt = RouteTable::default();
        rt.set(0, &[3]);
        rt.set(1, &[1, 2]);
        rt.set(2, &[1, 2]);
        rt.set(3, &[]);
        assert_eq!(rt.next_hops(NodeId(0)), NextHops::Single(3));
        assert_eq!(rt.next_hops(NodeId(1)), NextHops::Ecmp(&[1, 2]));
        assert_eq!(rt.next_hops(NodeId(3)), NextHops::None);
        assert_eq!(rt.next_hops(NodeId(9)), NextHops::None, "out of range");
        assert_eq!(rt.primary(NodeId(1)), Some(1), "lowest equal-cost member");
        assert_eq!(rt.reachable_dests(), 3);
        // Identical sets share one pool slot.
        assert_eq!(rt.pool().len(), 1);
        // Re-pointing a destination reuses its private group; a new
        // set takes a new pool slot.
        rt.set(2, &[0, 3]);
        assert_eq!(rt.next_hops(NodeId(2)), NextHops::Ecmp(&[0, 3]));
        assert_eq!(rt.next_hops(NodeId(1)), NextHops::Ecmp(&[1, 2]));
        assert_eq!(rt.pool().len(), 2);
        assert_eq!(rt.groups(), 4);
        // Clearing an entry restores NO_ROUTE.
        rt.set(0, &[]);
        assert_eq!(rt.next_hops(NodeId(0)), NextHops::None);
        assert_eq!(NextHops::Ecmp(&[1, 2]).len(), 2);
        assert!(NextHops::None.is_empty());
    }

    #[test]
    fn ecmp_select_skips_dead_members_deterministically() {
        let set = [1u16, 2, 4];
        // All up: the hash picks a member, and the same (flow, hop)
        // always picks the same one.
        let all = ecmp_select(&set, 77, 1, |_| true);
        assert_eq!(all, ecmp_select(&set, 77, 1, |_| true));
        assert!(set.contains(&all));
        // The chosen member dies: the survivors absorb the flow.
        let repaired = ecmp_select(&set, 77, 1, |p| p != all);
        assert_ne!(repaired, all);
        assert!(set.contains(&repaired));
        // Everything dead: fall back to the full-set hash choice so the
        // packet dies at a port (fault accounting), not routeless.
        assert_eq!(ecmp_select(&set, 77, 1, |_| false), all);
        // Different hops may choose differently, but always in-set.
        for hop in 0..32 {
            assert!(set.contains(&ecmp_select(&set, 77, hop, |_| true)));
        }
    }

    /// The ECMP hash must be a pure function of `(flow, hop)` — pinned
    /// snapshot values guard against anyone threading run state (seed,
    /// scheduler backend, RNG stream) into it, which would break the
    /// byte-identical-across-backends invariant.
    #[test]
    fn ecmp_hash_is_seed_and_backend_invariant() {
        assert_eq!(ecmp_hash(0, 0), 0xE220_A839_7B1D_CDAF);
        assert_eq!(ecmp_hash(1, 0), 0xE4D9_7177_1B65_2C20);
        assert_eq!(ecmp_hash(42, 3), 0xF233_BCCD_7833_EFFF);
        assert_eq!(ecmp_hash(u64::MAX, 255), 0x5397_F91F_55DC_5A88);
        // mix64 of flow 0 at hop 0 is exactly splitmix64's first output
        // for seed 0 — the hash is one avalanche round, nothing more.
        assert_eq!(ecmp_hash(0, 0), rng::mix64(0x9E37_79B9_7F4A_7C15));
    }

    /// Chi-square goodness of fit: member choice across many flows (and
    /// across a flow's hops) is close to uniform for every set size we
    /// care about. The hash is deterministic, so these statistics are
    /// fixed numbers — the thresholds are the 99.9% critical values,
    /// with slack.
    #[test]
    fn ecmp_hash_spreads_uniformly() {
        let chi2 = |counts: &[u64]| {
            let n: u64 = counts.iter().sum();
            let exp = n as f64 / counts.len() as f64;
            counts
                .iter()
                .map(|&c| {
                    let d = c as f64 - exp;
                    d * d / exp
                })
                .sum::<f64>()
        };
        // Across flows, for every realistic set size (df = m-1 <= 7,
        // 99.9% critical value <= 24.3).
        for m in [2usize, 3, 4, 8] {
            let set: Vec<u16> = (0..m as u16).collect();
            let mut counts = vec![0u64; m];
            for flow in 0..8192u64 {
                counts[ecmp_select(&set, flow, 2, |_| true) as usize] += 1;
            }
            let c = chi2(&counts);
            assert!(c < 25.0, "m={m} chi2={c} counts={counts:?}");
        }
        // Across hops for a single flow: later tiers re-randomise
        // instead of tracing one diagonal through the fabric.
        let set = [0u16, 1, 2, 3];
        let mut counts = [0u64; 4];
        for hop in 0..=255u8 {
            counts[ecmp_select(&set, 12345, hop, |_| true) as usize] += 1;
        }
        let c = chi2(&counts);
        assert!(c < 17.0, "per-hop chi2={c} counts={counts:?}");
    }

    #[test]
    fn reroutable_dests_counts_sets_with_survivors() {
        let mut rt = RouteTable::default();
        rt.set(0, &[0]); // single: never reroutable
        rt.set(1, &[1, 2]);
        rt.set(2, &[1, 2]);
        rt.set(3, &[2, 3]);
        // Port 2 dies: dsts 1,2 fall back to port 1; dst 3 to port 3.
        assert_eq!(rt.reroutable_dests(2, |_| true), 3);
        // Port 2 dies while port 1 is already down: only dst 3 survives.
        assert_eq!(rt.reroutable_dests(2, |p| p != 1), 1);
        // A port no set contains reroutes nothing.
        assert_eq!(rt.reroutable_dests(0, |_| true), 0);
    }

    /// Route surgery stays per (switch, destination) although tables
    /// share one entry per access group: re-pointing, clearing and
    /// restoring one host at one switch changes that pair's next hops and
    /// nothing else — not the host's group-mates there, not the host at
    /// any other switch — including an access switch re-pointing its own
    /// host.
    #[test]
    fn surgery_changes_only_that_switch_and_destination() {
        use crate::topology::{fat_tree, Network};
        let (t, hosts, switches) =
            fat_tree(4, Bandwidth::gbps(1), Bandwidth::gbps(10), Dur::micros(2));
        let mut net = t.build_drop_tail();
        let n = net.nodes.len() as u32;
        let snapshot = |net: &Network| -> Vec<Vec<Vec<u16>>> {
            switches
                .iter()
                .map(|&sw| {
                    let Node::Switch(s) = &net.nodes[sw.0 as usize] else {
                        panic!()
                    };
                    (0..n + 2)
                        .map(|d| match s.routes.next_hops(NodeId(d)) {
                            NextHops::None => Vec::new(),
                            NextHops::Single(p) => vec![p],
                            NextHops::Ecmp(set) => set.to_vec(),
                        })
                        .collect()
                })
                .collect()
        };
        let original = snapshot(&net);
        let (h, mate, far) = (hosts[0], hosts[1], *hosts.last().unwrap());
        let Node::Host(host) = &net.nodes[h.0 as usize] else {
            panic!()
        };
        let edge = net.port(host.id, 0).link.peer;
        let edge_ix = switches.iter().position(|&s| s == edge).unwrap();
        let uplinks = original[edge_ix][far.0 as usize].clone();
        assert_eq!(uplinks.len(), 2, "k=4 edge has two uplinks");
        let agg = net.port(edge, uplinks[0] as usize).link.peer;
        let agg_ix = switches.iter().position(|&s| s == agg).unwrap();
        assert_eq!(
            original[agg_ix][h.0 as usize], original[agg_ix][mate.0 as usize],
            "group-mates share the aggregation switch's entry"
        );
        let surgery = |net: &mut Network, sw: NodeId, ports: &[u16]| {
            let Node::Switch(s) = &mut net.nodes[sw.0 as usize] else {
                panic!()
            };
            s.routes.set(h.0 as usize, ports);
            s.routes.reachable_dests()
        };
        let expect_only = |net: &Network, sw_ix: usize, want: &[u16]| {
            for (i, rows) in snapshot(net).iter().enumerate() {
                for (d, got) in rows.iter().enumerate() {
                    let exp = if (i, d) == (sw_ix, h.0 as usize) {
                        want
                    } else {
                        &original[i][d][..]
                    };
                    assert_eq!(got, exp, "switch {:?} toward {d}", switches[i]);
                }
            }
        };
        let all = hosts.len();
        for (sw, sw_ix, moved) in [(agg, agg_ix, vec![3]), (edge, edge_ix, uplinks)] {
            assert_ne!(original[sw_ix][h.0 as usize], moved);
            assert_eq!(surgery(&mut net, sw, &moved), all);
            expect_only(&net, sw_ix, &moved);
            assert_eq!(surgery(&mut net, sw, &[]), all - 1, "cleared");
            expect_only(&net, sw_ix, &[]);
            let restored = original[sw_ix][h.0 as usize].clone();
            assert_eq!(surgery(&mut net, sw, &restored), all);
            assert_eq!(snapshot(&net), original, "restored at {sw:?}");
        }
    }

    #[test]
    fn port_accessors_resolve_through_the_table() {
        let ports = port_table();
        let nodes = [
            Node::Switch(Box::new(switch())),
            Node::Host(Host {
                id: NodeId(1),
                port: 3,
            }),
        ];
        assert_eq!(nodes[0].id(), NodeId(0));
        assert_eq!(ports[nodes[0].port_slot(1)].link.peer, NodeId(2));
        assert_eq!(nodes[0].port_slot(0), 1, "port 0 is table row 1");
        assert_eq!(nodes[1].port_slot(0), 3, "host NIC");
        assert_eq!(ports[nodes[1].port_slot(0)].link.peer, NodeId(0));
        let Node::Switch(sw) = &nodes[0] else {
            panic!()
        };
        let peers: Vec<NodeId> = sw.ports_in(&ports).iter().map(|p| p.link.peer).collect();
        assert_eq!(peers, [NodeId(1), NodeId(2)]);
    }

    #[test]
    #[should_panic(expected = "has no port 2")]
    fn switch_rejects_port_past_its_range() {
        // Row 3 exists in the table but belongs to no port of this
        // switch: it must not alias.
        let _ = Node::Switch(Box::new(switch())).port_slot(2);
    }

    #[test]
    #[should_panic]
    fn host_rejects_nonzero_port() {
        // Row 1 exists in the table but belongs to another node.
        let host = Node::Host(Host {
            id: NodeId(0),
            port: 0,
        });
        let _ = host.port_slot(1);
    }
}
