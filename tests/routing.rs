//! Route tables at scale: the interned per-attachment ECMP tables of a
//! 2,560-host Clos must equal a fresh shortest-path BFS from each sampled
//! destination host.

use std::collections::VecDeque;

use flexpass::profiles::{flexpass_profile, host_variant, ProfileParams};
use flexpass_simcore::time::TimeDelta;
use flexpass_simnet::sim::Node;
use flexpass_simnet::topology::{ClosParams, Topology};

/// `(peer, prop)` of every port of every node, in port order.
fn adjacency(t: &Topology) -> Vec<Vec<(usize, TimeDelta)>> {
    t.nodes
        .iter()
        .map(|node| match node {
            Node::Switch(s) => s.ports.iter().map(|p| (p.peer, p.prop)).collect(),
            Node::Host(h) => vec![(h.nic.peer, h.nic.prop)],
        })
        .collect()
}

#[test]
fn sampled_destinations_match_per_host_bfs_at_2560_hosts() {
    let clos = ClosParams::with_hosts(2_560);
    let params = ProfileParams::simulation(clos.link_rate);
    let profile = flexpass_profile(&params);
    let t = Topology::clos(clos, &profile, &host_variant(&profile));
    let adj = adjacency(&t);
    let n_hosts = t.hosts.len();
    assert_eq!(n_hosts, 2_560);

    // One destination per rack (64 racks over 8 pods), at a different
    // slot in each rack.
    let per_rack = clos.hosts_per_tor;
    let mut farthest = TimeDelta::ZERO;
    for rack in 0..clos.n_tor {
        let h = rack * per_rack + (rack * 7) % per_rack;
        let dst = t.hosts[h];
        let mut dist = vec![u32::MAX; adj.len()];
        let mut prop_to = vec![TimeDelta::ZERO; adj.len()];
        let mut queue = VecDeque::from([dst]);
        dist[dst] = 0;
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
            let Node::Switch(s) = node else { continue };
            let want: Vec<u16> = adj[id]
                .iter()
                .enumerate()
                .filter(|(_, &(v, _))| dist[v] + 1 == dist[id])
                .map(|(pi, _)| pi as u16)
                .collect();
            assert!(!want.is_empty());
            assert_eq!(s.routes.candidates(h), want, "switch node {id} -> host {h}");
        }
        for &other in &t.hosts {
            if other != dst {
                farthest = farthest.max(prop_to[other]);
            }
        }
    }
    // The fabric is symmetric, so every sampled host sees the worst pair.
    assert_eq!(t.base_rtt, farthest * 2);
    assert_eq!(t.base_rtt, TimeDelta::micros(28));
}
