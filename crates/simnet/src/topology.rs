//! Topology builders: star ("testbed"), dumbbell, and the paper's 3-tier
//! Clos fabric.
//!
//! All builders produce a [`Topology`]: pre-wired nodes with shortest-path
//! ECMP routing tables installed. Port creation order is deterministic
//! (neighbors in ascending id order) which, combined with the symmetric flow
//! hash, guarantees that a flow's forward data path and reverse credit/ACK
//! path traverse the same links — the property ExpressPass credit shaping
//! depends on.

use std::collections::{BTreeMap, VecDeque};

use flexpass_simcore::time::{Rate, TimeDelta};

use crate::host::Host;
use crate::sim::{Node, NodeId};
use crate::switch::{Routes, Switch, SwitchProfile};

/// A wired network ready to simulate.
pub struct Topology {
    /// All nodes; switches and hosts interleaved.
    pub nodes: Vec<Node>,
    /// Node id of each host, indexed by host id.
    pub hosts: Vec<NodeId>,
    /// Rack (ToR index) of each host; used for per-rack gradual deployment.
    pub rack_of: Vec<usize>,
    /// Host access link rate.
    pub host_rate: Rate,
    /// Worst-case propagation-only round-trip time between two hosts.
    pub base_rtt: TimeDelta,
}

/// Parameters of the paper's 3-tier Clos (§6.2 defaults).
#[derive(Clone, Copy, Debug)]
pub struct ClosParams {
    /// Core switches (paper: 8).
    pub n_core: usize,
    /// Aggregation switches (paper: 16).
    pub n_agg: usize,
    /// ToR switches (paper: 32).
    pub n_tor: usize,
    /// Hosts per ToR (paper: 6; 3:1 oversubscription with 2 uplinks).
    pub hosts_per_tor: usize,
    /// Aggregation switches per pod (paper: 2).
    pub aggs_per_pod: usize,
    /// Uniform link rate (paper: 40 Gbps).
    pub link_rate: Rate,
    /// Host–ToR propagation delay (includes host processing delay).
    pub host_prop: TimeDelta,
    /// Fabric link propagation delay.
    pub fabric_prop: TimeDelta,
}

impl Default for ClosParams {
    fn default() -> Self {
        // 6 hops host-to-host across the core; 2*(3+2+2+2+2+3) = 28 us RTT,
        // matching the paper's quoted base RTT.
        ClosParams {
            n_core: 8,
            n_agg: 16,
            n_tor: 32,
            hosts_per_tor: 6,
            aggs_per_pod: 2,
            link_rate: Rate::from_gbps(40),
            host_prop: TimeDelta::micros(3),
            fabric_prop: TimeDelta::micros(2),
        }
    }
}

impl ClosParams {
    /// Total host count.
    pub fn n_hosts(&self) -> usize {
        self.n_tor * self.hosts_per_tor
    }

    /// A proportionally shrunk fabric for quick tests and benches
    /// (2 core / 4 agg / 8 ToR / `hosts_per_tor * 8` hosts).
    pub fn small() -> Self {
        ClosParams {
            n_core: 2,
            n_agg: 4,
            n_tor: 8,
            hosts_per_tor: 6,
            aggs_per_pod: 2,
            ..ClosParams::default()
        }
    }

    /// A scaled-out fabric with at least `hosts` hosts (rounded up to a
    /// whole pod): dense 40-host racks, 8 ToRs and 2 aggs per pod, 8
    /// cores — the shape the `scale` scenario drives to O(10k) hosts.
    /// Keeps the paper's link rates and propagation delays.
    pub fn with_hosts(hosts: usize) -> Self {
        const HOSTS_PER_TOR: usize = 40;
        const TORS_PER_POD: usize = 8;
        const AGGS_PER_POD: usize = 2;
        let per_pod = HOSTS_PER_TOR * TORS_PER_POD;
        let pods = hosts.div_ceil(per_pod).max(1);
        ClosParams {
            n_core: 8,
            n_agg: pods * AGGS_PER_POD,
            n_tor: pods * TORS_PER_POD,
            hosts_per_tor: HOSTS_PER_TOR,
            aggs_per_pod: AGGS_PER_POD,
            ..ClosParams::default()
        }
    }
}

/// Intermediate graph description used by all builders.
struct Graph {
    /// For each node: `(neighbor, propagation delay)` in port order.
    adj: Vec<Vec<(usize, TimeDelta)>>,
    /// `Some(host_id)` for host nodes, `None` for switches.
    host_of: Vec<Option<usize>>,
    /// Switch tier for hash slicing (ToR = 0, Agg = 1, Core = 2).
    tier: Vec<u8>,
}

impl Graph {
    fn new(n: usize) -> Self {
        Graph {
            adj: vec![Vec::new(); n],
            host_of: vec![None; n],
            tier: vec![0; n],
        }
    }

    fn link(&mut self, a: usize, b: usize, prop: TimeDelta) {
        self.adj[a].push((b, prop));
        self.adj[b].push((a, prop));
    }

    /// Materializes nodes, wires ports, and installs routing tables.
    fn build(
        self,
        n_hosts: usize,
        rack_of: Vec<usize>,
        host_rate: Rate,
        sw_profile: &SwitchProfile,
        host_profile: &SwitchProfile,
    ) -> Topology {
        let n = self.adj.len();
        let mut nodes: Vec<Node> = Vec::with_capacity(n);
        let mut hosts = vec![usize::MAX; n_hosts];
        for (id, maybe_host) in self.host_of.iter().enumerate() {
            match maybe_host {
                Some(h) => {
                    assert_eq!(self.adj[id].len(), 1, "hosts have exactly one port");
                    // The per-attachment routing below relies on this.
                    assert!(
                        self.host_of[self.adj[id][0].0].is_none(),
                        "host {h} must attach to a switch"
                    );
                    nodes.push(Node::Host(Host::new(*h, host_profile)));
                    hosts[*h] = id;
                }
                None => {
                    nodes.push(Node::Switch(Switch::new(
                        sw_profile,
                        self.adj[id].len(),
                        self.tier[id],
                    )));
                }
            }
        }
        assert!(hosts.iter().all(|&x| x != usize::MAX));

        // Wire ports to peers.
        for (id, nbrs) in self.adj.iter().enumerate() {
            for (pi, &(peer, prop)) in nbrs.iter().enumerate() {
                let port = match &mut nodes[id] {
                    Node::Switch(s) => &mut s.ports[pi],
                    Node::Host(h) => &mut h.nic,
                };
                port.peer = peer;
                port.prop = prop;
            }
        }

        let (switches, tables, base_rtt) = self.routes(&hosts);
        for (&s, routes) in switches.iter().zip(tables) {
            if let Node::Switch(sw) = &mut nodes[s] {
                sw.routes = routes;
            }
        }

        Topology {
            nodes,
            hosts,
            rack_of,
            host_rate,
            base_rtt,
        }
    }

    /// The switch node ids, their shortest-path ECMP tables, and the
    /// worst-case propagation-only RTT between two hosts.
    ///
    /// A host is a leaf with one port, so a BFS from host `h` discovers
    /// the same tree as a BFS from its attachment switch `a`, one hop and
    /// one access-link delay further out. Every switch other than `a`
    /// therefore has the same candidates towards `h` as towards `a`, and
    /// `a` itself has `h`'s access port: one BFS per attachment switch
    /// covers all its hosts. Lists are interned per (switch, attachment),
    /// and access ports need no interning, since each leads to one host.
    fn routes(&self, hosts: &[NodeId]) -> (Vec<NodeId>, Vec<Routes>, TimeDelta) {
        let n = self.adj.len();
        // Distinct attachment switches, with each host's index into them
        // and the two longest access links under each.
        let mut att_of_node = vec![usize::MAX; n];
        let mut attachments: Vec<NodeId> = Vec::new();
        let mut far: Vec<(TimeDelta, Option<TimeDelta>)> = Vec::new();
        for &id in hosts {
            let (a, prop) = self.adj[id][0];
            if att_of_node[a] == usize::MAX {
                att_of_node[a] = attachments.len();
                attachments.push(a);
                far.push((prop, None));
            } else {
                let (top, second) = &mut far[att_of_node[a]];
                if prop > *top {
                    *second = Some(*top);
                    *top = prop;
                } else if second.is_none_or(|s| prop > s) {
                    *second = Some(prop);
                }
            }
        }
        let n_att = attachments.len();

        let switches: Vec<NodeId> = (0..n).filter(|&id| self.host_of[id].is_none()).collect();
        let mut tables: Vec<Routes> = switches
            .iter()
            .map(|_| Routes::with_hosts(hosts.len()))
            .collect();
        let mut seen: Vec<BTreeMap<Vec<u16>, u32>> = vec![BTreeMap::new(); switches.len()];
        // toward[si * n_att + ai]: span at switch `si` towards attachment
        // `ai` (0, the empty list, if unreachable).
        let mut toward = vec![0u32; switches.len() * n_att];
        let mut dist = vec![u32::MAX; n];
        let mut prop_to = vec![TimeDelta::ZERO; n];
        let mut queue = VecDeque::with_capacity(n);
        let mut cands: Vec<u16> = Vec::new();
        let mut max_prop = TimeDelta::ZERO;
        for (ai, &a) in attachments.iter().enumerate() {
            dist.fill(u32::MAX);
            prop_to.fill(TimeDelta::ZERO);
            dist[a] = 0;
            queue.push_back(a);
            while let Some(u) = queue.pop_front() {
                for &(v, prop) in &self.adj[u] {
                    if dist[v] == u32::MAX {
                        dist[v] = dist[u] + 1;
                        prop_to[v] = prop_to[u] + prop;
                        queue.push_back(v);
                    }
                }
            }
            for (si, &s) in switches.iter().enumerate() {
                if s == a || dist[s] == u32::MAX {
                    continue;
                }
                cands.clear();
                cands.extend(
                    self.adj[s]
                        .iter()
                        .enumerate()
                        .filter(|(_, &(v, _))| dist[v].checked_add(1) == Some(dist[s]))
                        .map(|(pi, _)| pi as u16),
                );
                toward[si * n_att + ai] = match seen[si].get(cands.as_slice()) {
                    Some(&span) => span,
                    None => {
                        let span = tables[si].intern(&cands);
                        seen[si].insert(cands.clone(), span);
                        span
                    }
                };
            }
            // Farthest host pair with one end under `a`: two hosts under
            // `a` meet there; a host under `b` is `prop_to[b]` further.
            let (top, second) = far[ai];
            if let Some(second) = second {
                max_prop = max_prop.max(top + second);
            }
            for (bi, &b) in attachments.iter().enumerate() {
                if bi != ai && dist[b] != u32::MAX {
                    max_prop = max_prop.max(top + prop_to[b] + far[bi].0);
                }
            }
        }

        // Each switch's per-host index: the span towards the host's
        // attachment, or the host's own access port at the attachment.
        let host_att: Vec<usize> = hosts
            .iter()
            .map(|&id| att_of_node[self.adj[id][0].0])
            .collect();
        for ((si, &s), routes) in switches.iter().enumerate().zip(&mut tables) {
            let row = &toward[si * n_att..(si + 1) * n_att];
            for (h, &ai) in host_att.iter().enumerate() {
                routes.set(h, row[ai]);
            }
            for (pi, &(v, _)) in self.adj[s].iter().enumerate() {
                if let Some(h) = self.host_of[v] {
                    let span = routes.intern(&[pi as u16]);
                    routes.set(h, span);
                }
            }
        }
        (switches, tables, max_prop * 2)
    }
}

impl Topology {
    /// `n_hosts` hosts hanging off one switch at `rate` ("testbed" star;
    /// also used for the dumbbell-style 2-to-1 microbenchmarks).
    pub fn star(
        n_hosts: usize,
        rate: Rate,
        host_prop: TimeDelta,
        sw_profile: &SwitchProfile,
        host_profile: &SwitchProfile,
    ) -> Topology {
        assert!(n_hosts >= 2);
        let mut g = Graph::new(n_hosts + 1);
        // Node 0 is the switch; hosts follow.
        for h in 0..n_hosts {
            g.host_of[1 + h] = Some(h);
            g.link(0, 1 + h, host_prop);
        }
        g.build(n_hosts, vec![0; n_hosts], rate, sw_profile, host_profile)
    }

    /// Classic dumbbell: `n_left` hosts on switch L, `n_right` on switch R,
    /// joined by a single bottleneck link at the same rate.
    pub fn dumbbell(
        n_left: usize,
        n_right: usize,
        rate: Rate,
        host_prop: TimeDelta,
        bottleneck_prop: TimeDelta,
        sw_profile: &SwitchProfile,
        host_profile: &SwitchProfile,
    ) -> Topology {
        let n_hosts = n_left + n_right;
        let mut g = Graph::new(n_hosts + 2);
        // Nodes 0 and 1 are the switches.
        g.link(0, 1, bottleneck_prop);
        let mut rack_of = Vec::with_capacity(n_hosts);
        for h in 0..n_hosts {
            let sw = if h < n_left { 0 } else { 1 };
            g.host_of[2 + h] = Some(h);
            g.link(sw, 2 + h, host_prop);
            rack_of.push(sw);
        }
        g.build(n_hosts, rack_of, rate, sw_profile, host_profile)
    }

    /// The paper's 3-tier Clos fabric.
    ///
    /// # Panics
    ///
    /// Panics if the parameters are not divisible into pods/core groups.
    pub fn clos(
        p: ClosParams,
        sw_profile: &SwitchProfile,
        host_profile: &SwitchProfile,
    ) -> Topology {
        assert!(
            p.n_agg.is_multiple_of(p.aggs_per_pod),
            "aggs must divide into pods"
        );
        let pods = p.n_agg / p.aggs_per_pod;
        assert!(p.n_tor.is_multiple_of(pods), "tors must divide into pods");
        let tors_per_pod = p.n_tor / pods;
        assert!(
            p.n_core.is_multiple_of(p.aggs_per_pod),
            "cores must divide into agg groups"
        );
        let cores_per_agg = p.n_core / p.aggs_per_pod;
        let n_hosts = p.n_hosts();

        // Node layout: [cores][aggs][tors][hosts].
        let core_base = 0;
        let agg_base = core_base + p.n_core;
        let tor_base = agg_base + p.n_agg;
        let host_base = tor_base + p.n_tor;
        let mut g = Graph::new(host_base + n_hosts);
        for c in 0..p.n_core {
            g.tier[core_base + c] = 2;
        }
        for a in 0..p.n_agg {
            g.tier[agg_base + a] = 1;
        }
        for t in 0..p.n_tor {
            g.tier[tor_base + t] = 0;
        }

        // Hosts to ToRs (port order: hosts first, then uplinks — ascending).
        let mut rack_of = Vec::with_capacity(n_hosts);
        for t in 0..p.n_tor {
            for s in 0..p.hosts_per_tor {
                let h = t * p.hosts_per_tor + s;
                g.host_of[host_base + h] = Some(h);
                g.link(tor_base + t, host_base + h, p.host_prop);
                rack_of.push(t);
            }
        }
        // ToRs to both aggs in their pod, ascending agg order.
        for t in 0..p.n_tor {
            let pod = t / tors_per_pod;
            for j in 0..p.aggs_per_pod {
                let a = pod * p.aggs_per_pod + j;
                g.link(tor_base + t, agg_base + a, p.fabric_prop);
            }
        }
        // Aggs to their core group, ascending core order.
        for a in 0..p.n_agg {
            let j = a % p.aggs_per_pod;
            for k in 0..cores_per_agg {
                let c = j * cores_per_agg + k;
                g.link(agg_base + a, core_base + c, p.fabric_prop);
            }
        }

        g.build(n_hosts, rack_of, p.link_rate, sw_profile, host_profile)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{Packet, Payload, TrafficClass};
    use crate::port::{PortConfig, QueueSched};
    use crate::queue::QueueConfig;
    use crate::switch::ClassMap;

    fn profile() -> SwitchProfile {
        SwitchProfile {
            port: PortConfig {
                rate: Rate::from_gbps(40),
                queues: vec![(QueueConfig::plain(), QueueSched::strict(0))],
            },
            class_map: ClassMap::Single,
            shared_buffer: None,
        }
    }

    fn pkt(flow: u64, src: usize, dst: usize) -> Packet {
        Packet::new(
            flow,
            src,
            dst,
            crate::consts::DATA_WIRE,
            TrafficClass::Legacy,
            Payload::CreditStop,
        )
    }

    #[test]
    fn star_wiring() {
        let t = Topology::star(
            9,
            Rate::from_gbps(10),
            TimeDelta::micros(5),
            &profile(),
            &profile(),
        );
        assert_eq!(t.nodes.len(), 10);
        assert_eq!(t.hosts.len(), 9);
        assert_eq!(t.base_rtt, TimeDelta::micros(20));
        match &t.nodes[0] {
            Node::Switch(s) => {
                assert_eq!(s.ports.len(), 9);
                assert_eq!(s.routes.len(), 9);
                for h in 0..9 {
                    assert_eq!(s.routes.candidates(h), [h as u16]);
                }
            }
            _ => panic!("node 0 should be the switch"),
        }
    }

    #[test]
    fn clos_shape() {
        let t = Topology::clos(ClosParams::default(), &profile(), &profile());
        assert_eq!(t.hosts.len(), 192);
        assert_eq!(t.nodes.len(), 8 + 16 + 32 + 192);
        // 28 us base RTT across the core.
        assert_eq!(t.base_rtt, TimeDelta::micros(28));
        // Every switch has 8 ports in the paper fabric.
        for node in &t.nodes {
            if let Node::Switch(s) = node {
                assert_eq!(s.ports.len(), 8);
            }
        }
        // Racks are assigned 6 hosts each.
        assert_eq!(t.rack_of.len(), 192);
        assert_eq!(t.rack_of.iter().filter(|&&r| r == 0).count(), 6);
    }

    /// `with_hosts` must round up to whole pods and always satisfy the
    /// divisibility invariants `Topology::clos` asserts.
    #[test]
    fn with_hosts_rounds_to_whole_pods() {
        let p = ClosParams::with_hosts(10_240);
        assert_eq!(p.n_hosts(), 10_240);
        assert_eq!(p.n_tor, 256);
        assert_eq!(p.n_agg, 64);
        assert_eq!(p.n_core, 8);
        // Partial pod rounds up.
        let p = ClosParams::with_hosts(321);
        assert_eq!(p.n_hosts(), 640);
        // Degenerate request still builds one pod.
        let p = ClosParams::with_hosts(0);
        assert_eq!(p.n_hosts(), 320);
        // The invariants clos() asserts hold for a sweep of sizes (build
        // the smallest one for real to exercise the wiring).
        for hosts in [1, 320, 2_560, 10_240] {
            let p = ClosParams::with_hosts(hosts);
            assert!(p.n_agg.is_multiple_of(p.aggs_per_pod));
            let pods = p.n_agg / p.aggs_per_pod;
            assert!(p.n_tor.is_multiple_of(pods));
            assert!(p.n_core.is_multiple_of(p.aggs_per_pod));
        }
        let t = Topology::clos(ClosParams::with_hosts(1), &profile(), &profile());
        assert_eq!(t.hosts.len(), 320);
        assert_eq!(t.rack_of.iter().filter(|&&r| r == 0).count(), 40);
    }

    #[test]
    fn clos_ecmp_candidates() {
        let t = Topology::clos(ClosParams::default(), &profile(), &profile());
        // ToR 0 (node 8 + 16 = 24) routing to a host in another pod: both
        // uplinks are candidates.
        let far_host = 191;
        match &t.nodes[24] {
            Node::Switch(tor0) => {
                assert_eq!(tor0.tier, 0);
                assert_eq!(tor0.routes.candidates(far_host).len(), 2);
                // To a local host: exactly one (the access port).
                assert_eq!(tor0.routes.candidates(0).len(), 1);
            }
            _ => panic!("node 24 should be ToR 0"),
        }
        // Agg routing to a far pod: all 4 core uplinks are candidates.
        match &t.nodes[8] {
            Node::Switch(agg0) => {
                assert_eq!(agg0.tier, 1);
                assert_eq!(agg0.routes.candidates(far_host).len(), 4);
            }
            _ => panic!("node 8 should be Agg 0"),
        }
    }

    #[test]
    fn clos_path_symmetry() {
        // Forward and reverse packets of the same flow must traverse the
        // same switches. Walk both directions hop by hop.
        let t = Topology::clos(ClosParams::default(), &profile(), &profile());
        for flow in 0..200u64 {
            let (src, dst) = (0usize, 190usize);
            let fwd = walk(&t, pkt(flow, src, dst), t.hosts[src]);
            let rev = walk(&t, pkt(flow, dst, src), t.hosts[dst]);
            let mut rev_rev = rev.clone();
            rev_rev.reverse();
            assert_eq!(fwd, rev_rev, "flow {flow} asymmetric");
        }
    }

    /// Follows routing decisions from `from` to the packet's destination,
    /// returning the sequence of node ids visited (inclusive).
    fn walk(t: &Topology, p: Packet, from: NodeId) -> Vec<NodeId> {
        let mut path = vec![from];
        let mut cur = from;
        for _ in 0..16 {
            let next = match &t.nodes[cur] {
                Node::Host(h) => {
                    if h.host_id == p.dst && path.len() > 1 {
                        break;
                    }
                    h.nic.peer
                }
                Node::Switch(s) => {
                    let port = s.route(&p);
                    s.ports[port].peer
                }
            };
            path.push(next);
            cur = next;
            if let Node::Host(h) = &t.nodes[cur] {
                if h.host_id == p.dst {
                    break;
                }
            }
        }
        path
    }

    #[test]
    fn clos_ecmp_spreads_flows() {
        // Different flows between the same pair should use different cores.
        let t = Topology::clos(ClosParams::default(), &profile(), &profile());
        let mut cores_seen = std::collections::HashSet::new();
        for flow in 0..64u64 {
            let path = walk(&t, pkt(flow, 0, 190), t.hosts[0]);
            // Path: host, tor, agg, core, agg, tor, host.
            assert_eq!(path.len(), 7, "path {path:?}");
            cores_seen.insert(path[3]);
        }
        assert!(cores_seen.len() >= 4, "only cores {cores_seen:?} used");
    }

    #[test]
    fn dumbbell_routes_through_bottleneck() {
        let t = Topology::dumbbell(
            2,
            2,
            Rate::from_gbps(10),
            TimeDelta::micros(1),
            TimeDelta::micros(2),
            &profile(),
            &profile(),
        );
        let path = walk(&t, pkt(1, 0, 2), t.hosts[0]);
        // host0 -> swL -> swR -> host2.
        assert_eq!(path.len(), 4);
        assert_eq!(path[1], 0);
        assert_eq!(path[2], 1);
        assert_eq!(t.base_rtt, TimeDelta::micros(8));
    }

    /// The original construction, kept as an oracle: one BFS from every
    /// host over the wired topology. Returns each node's candidate lists
    /// (empty for hosts) and the base RTT.
    fn per_host_bfs(t: &Topology) -> (Vec<Vec<Vec<u16>>>, TimeDelta) {
        let adj: Vec<Vec<(usize, TimeDelta)>> = t
            .nodes
            .iter()
            .map(|node| match node {
                Node::Switch(s) => s.ports.iter().map(|p| (p.peer, p.prop)).collect(),
                Node::Host(h) => vec![(h.nic.peer, h.nic.prop)],
            })
            .collect();
        let n = adj.len();
        let n_hosts = t.hosts.len();
        let mut routes = vec![Vec::new(); n];
        let mut max_prop = TimeDelta::ZERO;
        for h in 0..n_hosts {
            let dst = t.hosts[h];
            let mut dist = vec![u32::MAX; n];
            let mut prop_to = vec![TimeDelta::ZERO; n];
            let mut queue = VecDeque::new();
            dist[dst] = 0;
            queue.push_back(dst);
            while let Some(u) = queue.pop_front() {
                for &(v, prop) in &adj[u] {
                    if dist[v] == u32::MAX {
                        dist[v] = dist[u] + 1;
                        prop_to[v] = prop_to[u] + prop;
                        queue.push_back(v);
                    }
                }
            }
            for (id, node) in t.nodes.iter().enumerate() {
                if let Node::Switch(_) = node {
                    let table: &mut Vec<Vec<u16>> = &mut routes[id];
                    table.resize(n_hosts, Vec::new());
                    if dist[id] == u32::MAX {
                        continue;
                    }
                    table[h] = adj[id]
                        .iter()
                        .enumerate()
                        .filter(|(_, &(v, _))| dist[v] != u32::MAX && dist[v] + 1 == dist[id])
                        .map(|(pi, _)| pi as u16)
                        .collect();
                }
            }
            for other in 0..n_hosts {
                if other != h {
                    max_prop = max_prop.max(prop_to[t.hosts[other]]);
                }
            }
        }
        (routes, max_prop * 2)
    }

    /// Asserts the interned tables equal the per-host BFS oracle for
    /// every (switch, host) pair, and the base RTT matches.
    fn assert_matches_oracle(t: &Topology) {
        let (expected, base_rtt) = per_host_bfs(t);
        assert_eq!(t.base_rtt, base_rtt, "base_rtt");
        for (id, node) in t.nodes.iter().enumerate() {
            if let Node::Switch(s) = node {
                assert_eq!(s.routes.len(), t.hosts.len());
                for (h, want) in expected[id].iter().enumerate() {
                    assert_eq!(
                        s.routes.candidates(h),
                        want.as_slice(),
                        "switch node {id} -> host {h}"
                    );
                }
            }
        }
    }

    #[test]
    fn routes_match_per_host_bfs() {
        let (p, r) = (profile(), Rate::from_gbps(10));
        assert_matches_oracle(&Topology::star(9, r, TimeDelta::micros(5), &p, &p));
        assert_matches_oracle(&Topology::dumbbell(
            2,
            2,
            r,
            TimeDelta::micros(1),
            TimeDelta::micros(2),
            &p,
            &p,
        ));
        for params in [
            ClosParams::small(),
            ClosParams::default(),
            ClosParams::with_hosts(640),
        ] {
            assert_matches_oracle(&Topology::clos(params, &p, &p));
        }
    }

    /// Uneven access links: the two farthest hosts under one switch set
    /// the base RTT, never the farthest host paired with itself.
    #[test]
    fn routes_match_oracle_with_uneven_access_links() {
        let mut g = Graph::new(4);
        for (h, us) in [5, 1, 3].into_iter().enumerate() {
            g.host_of[1 + h] = Some(h);
            g.link(0, 1 + h, TimeDelta::micros(us));
        }
        let t = g.build(3, vec![0; 3], Rate::from_gbps(10), &profile(), &profile());
        assert_eq!(t.base_rtt, TimeDelta::micros(16));
        assert_matches_oracle(&t);
    }

    /// Two disconnected islands: a switch that cannot reach a host keeps
    /// an empty candidate list, and unreachable pairs add nothing to the
    /// base RTT.
    #[test]
    fn routes_match_oracle_when_disconnected() {
        let mut g = Graph::new(8);
        // Island A: switch 0 with hosts 0, 1. Island B: switches 1-2 with
        // hosts 2, 3, 4 under switch 2.
        g.link(1, 2, TimeDelta::micros(4));
        for h in 0..5 {
            let sw = if h < 2 { 0 } else { 2 };
            g.host_of[3 + h] = Some(h);
            g.link(sw, 3 + h, TimeDelta::micros(1));
        }
        let t = g.build(
            5,
            vec![0, 0, 1, 1, 1],
            Rate::from_gbps(10),
            &profile(),
            &profile(),
        );
        assert_matches_oracle(&t);
        match &t.nodes[0] {
            Node::Switch(s) => assert!(s.routes.candidates(3).is_empty()),
            _ => panic!("node 0 should be a switch"),
        }
        assert_eq!(t.base_rtt, TimeDelta::micros(4));
    }

    #[test]
    #[should_panic(expected = "must attach to a switch")]
    fn host_attached_to_host_is_rejected() {
        let mut g = Graph::new(2);
        g.host_of = vec![Some(0), Some(1)];
        g.link(0, 1, TimeDelta::micros(1));
        g.build(2, vec![0, 0], Rate::from_gbps(10), &profile(), &profile());
    }

    /// Identical candidate lists are stored once: no switch holds more
    /// distinct lists than it has ports, and the per-host index costs one
    /// `u32` per host.
    #[test]
    fn route_lists_are_interned() {
        let t = Topology::clos(ClosParams::with_hosts(640), &profile(), &profile());
        let mut lists_by_ports = std::collections::BTreeMap::new();
        for node in &t.nodes {
            if let Node::Switch(s) = node {
                let ports = s.ports.len();
                assert!(s.routes.distinct_lists() <= ports);
                assert_eq!(s.routes.len(), 640);
                assert!(
                    s.routes.heap_bytes() <= 4 * 640 + 2 * ports * ports,
                    "{} bytes",
                    s.routes.heap_bytes()
                );
                lists_by_ports.insert(ports, s.routes.distinct_lists());
            }
        }
        // ToR: 40 access ports + one uplink pair. Agg: 8 ToRs + the cores.
        assert_eq!(lists_by_ports.get(&42), Some(&41));
        assert_eq!(lists_by_ports.get(&12), Some(&9));
    }
}
