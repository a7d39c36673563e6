//! Memory serialization: program-order dependence edges plus per-bank port
//! conflicts.
//!
//! Loads and stores of one memory carry no data edges between each other;
//! correctness requires the scheduler to respect *program order* (each
//! access after the last write, each write after the reads since the
//! previous write — [`hsyn_dfg::mem_order_pairs`]). On top of that, a
//! memory bank is a limited per-cycle resource: a bank accepts at most
//! `ports` accesses per cycle, so within each `(memory, bank)` group the
//! accesses are chained `access[i] → access[i + ports]` — the same
//! serialization mechanism functional units use (paper, Section 4), and by
//! pigeonhole no valid schedule can then issue more than `ports` same-bank
//! accesses in one cycle.
//!
//! Bank assignment is deterministic: an access whose address port is driven
//! by a constant maps to bank `address mod banks` ([`hsyn_dfg::bank_of`]);
//! accesses with data-dependent addresses — and hierarchical calls bound to
//! the memory, whose internal access pattern is opaque here — conservatively
//! conflict with *every* bank.

use hsyn_dfg::{bank_of, const_address, mem_order_pairs, Dfg, NodeId, NodeKind};

/// Deterministic bank assignment for every node of `g`: `Some(bank)` for a
/// load or store whose address is a compile-time constant, `None` for
/// accesses with unknown addresses and for all non-access nodes.
pub fn bank_assignment(g: &Dfg) -> Vec<Option<u32>> {
    g.node_ids()
        .map(|nid| {
            let mem = g.node(nid).kind().mem_access()?;
            let addr = const_address(g, nid)?;
            Some(bank_of(g.mem(mem), addr))
        })
        .collect()
}

/// ASAP start levels over zero-delay data edges *plus* the memory
/// dependence pairs, with every schedulable node lasting one level. These
/// are the priorities the port-conflict chains sort by: because every
/// access has nonzero duration, the levels strictly increase along any
/// dependence path, so chains built in level order can never conflict with
/// data or program-order dependencies.
fn mem_asap_levels(g: &Dfg) -> Vec<u64> {
    let order = hsyn_dfg::mem_topo_order(g)
        .expect("memory serialization requires a validated (acyclic) DFG");
    let pairs = mem_order_pairs(g);
    let n = g.node_count();
    let mut extra_out: Vec<Vec<NodeId>> = vec![Vec::new(); n];
    for &(a, b) in &pairs {
        extra_out[a.index()].push(b);
    }
    let adj = g.adj();
    let mut finish = vec![0u64; n];
    let mut level = vec![0u64; n];
    for nid in order {
        // Start from the eagerly-propagated program-order level (below):
        // overwriting it with the data-edge level alone would let a
        // shallow-address load sort *before* the store it must follow,
        // and the port chain would then close a cycle with the
        // program-order pair.
        let mut s = level[nid.index()];
        for &ei in adj.in_edge_indices(nid) {
            let e = g.edge(hsyn_dfg::EdgeId::from_index(ei as usize));
            if e.delay == 0 {
                s = s.max(finish[e.from.node.index()]);
            }
        }
        level[nid.index()] = s;
        let dur = u64::from(g.node(nid).kind().is_schedulable());
        finish[nid.index()] = finish[nid.index()].max(s + dur);
        for &b in &extra_out[nid.index()] {
            // Program-order successor: starts after this access finishes.
            // Propagated eagerly (predecessors precede in the topo order).
            level[b.index()] = level[b.index()].max(finish[nid.index()]);
            finish[b.index()] = finish[b.index()].max(finish[nid.index()]);
        }
    }
    level
}

/// All memory serialization edges of `g`, ready to pass to
/// [`schedule`](crate::schedule): the program-order dependence pairs
/// (correctness) followed by the per-`(memory, bank)` port-conflict chains
/// (resource limits). Deterministic — memories in declaration order, banks
/// ascending, chain members ordered by (memory-aware ASAP level, node id) —
/// and duplicate pairs are emitted once.
///
/// # Panics
///
/// Panics if the combined dependence relation is cyclic; validate the
/// hierarchy first ([`hsyn_dfg::Hierarchy::validate`] rejects such graphs).
pub fn mem_serial_edges(g: &Dfg) -> Vec<(NodeId, NodeId)> {
    if g.mem_count() == 0 {
        return Vec::new();
    }
    let mut edges = mem_order_pairs(g);
    let levels = mem_asap_levels(g);
    let banks_of = bank_assignment(g);
    for (mid, mem) in g.mems() {
        // Accesses of this memory, in node-id order.
        let accesses: Vec<NodeId> = g
            .node_ids()
            .filter(|&nid| {
                let node = g.node(nid);
                node.kind().mem_access() == Some(mid)
                    || (matches!(node.kind(), NodeKind::Hier { .. })
                        && node.mem_binds().contains(&mid))
            })
            .collect();
        let ports = mem.ports.max(1) as usize;
        for bank in 0..mem.banks.max(1) {
            // Known same-bank accesses plus every unknown-address access.
            let mut members: Vec<NodeId> = accesses
                .iter()
                .copied()
                .filter(|&nid| banks_of[nid.index()].is_none_or(|b| b == bank))
                .collect();
            members.sort_by_key(|n| (levels[n.index()], n.index()));
            for i in 0..members.len().saturating_sub(ports) {
                edges.push((members[i], members[i + ports]));
            }
        }
    }
    // Bank chains can duplicate program-order pairs (and each other, for
    // unknown-address accesses present in several bank groups).
    let mut seen = std::collections::HashSet::new();
    edges.retain(|&e| seen.insert(e));
    edges
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{schedule, NodeDelay, SchedContext};
    use hsyn_dfg::{MemObject, Operation};

    fn ctx(period: Option<u32>) -> SchedContext {
        SchedContext::new(10.0, 1.0, period)
    }

    fn access_delay(g: &Dfg) -> impl FnMut(hsyn_dfg::NodeId) -> NodeDelay + '_ {
        move |n| match g.node(n).kind() {
            NodeKind::Load { .. } | NodeKind::Store { .. } => NodeDelay::Pipelined { stages: 1 },
            k if k.is_schedulable() => NodeDelay::Combinational { ns: 3.0 },
            _ => NodeDelay::Free,
        }
    }

    /// Four independent constant-address loads of one memory.
    fn four_loads(ports: u32, banks: u32) -> (Dfg, Vec<NodeId>) {
        let mut g = Dfg::new("ld4");
        let m = g.add_mem(
            MemObject::owned("a", 8, 16)
                .with_ports(ports)
                .with_banks(banks),
        );
        let mut loads = Vec::new();
        let mut prev: Option<hsyn_dfg::VarRef> = None;
        for i in 0..4 {
            let k = g.add_const(format!("k{i}"), i);
            let l = g.add_load(m, format!("l{i}"), k);
            loads.push(l.node);
            prev = Some(match prev {
                None => l,
                Some(p) => g.add_op(Operation::Add, format!("s{i}"), &[p, l]),
            });
        }
        g.add_output("y", prev.unwrap());
        (g, loads)
    }

    #[test]
    fn single_port_serializes_same_bank_accesses() {
        let (g, loads) = four_loads(1, 1);
        let serial = mem_serial_edges(&g);
        let sched = schedule(&g, access_delay(&g), &serial, &ctx(None)).unwrap();
        let mut starts: Vec<u32> = loads.iter().map(|&n| sched.time(n).start.cycle).collect();
        starts.sort_unstable();
        assert_eq!(starts, vec![0, 1, 2, 3], "one access per cycle");
    }

    #[test]
    fn banking_recovers_parallelism() {
        // Addresses 0..4 over 2 banks: words {0,2} in bank 0, {1,3} in bank
        // 1 — two accesses per cycle even with single-ported banks.
        let (g, loads) = four_loads(1, 2);
        let serial = mem_serial_edges(&g);
        let sched = schedule(&g, access_delay(&g), &serial, &ctx(None)).unwrap();
        let mut starts: Vec<u32> = loads.iter().map(|&n| sched.time(n).start.cycle).collect();
        starts.sort_unstable();
        assert_eq!(starts, vec![0, 0, 1, 1]);
    }

    #[test]
    fn dual_port_doubles_throughput() {
        let (g, loads) = four_loads(2, 1);
        let serial = mem_serial_edges(&g);
        let sched = schedule(&g, access_delay(&g), &serial, &ctx(None)).unwrap();
        let mut starts: Vec<u32> = loads.iter().map(|&n| sched.time(n).start.cycle).collect();
        starts.sort_unstable();
        assert_eq!(starts, vec![0, 0, 1, 1]);
    }

    #[test]
    fn unknown_address_conflicts_with_every_bank() {
        let mut g = Dfg::new("unk");
        let m = g.add_mem(MemObject::owned("a", 8, 16).with_banks(2));
        let x = g.add_input("x");
        let k0 = g.add_const("k0", 0);
        let k1 = g.add_const("k1", 1);
        let l0 = g.add_load(m, "l0", k0);
        let l1 = g.add_load(m, "l1", k1);
        let lx = g.add_load(m, "lx", x);
        let s = g.add_op(Operation::Add, "s", &[l0, l1]);
        let s2 = g.add_op(Operation::Add, "s2", &[s, lx]);
        g.add_output("y", s2);
        assert_eq!(bank_assignment(&g)[lx.node.index()], None);
        let serial = mem_serial_edges(&g);
        let sched = schedule(&g, access_delay(&g), &serial, &ctx(None)).unwrap();
        // l0 and l1 land in distinct banks (cycle 0); lx must wait for both.
        assert_eq!(sched.time(l0.node).start.cycle, 0);
        assert_eq!(sched.time(l1.node).start.cycle, 0);
        assert_eq!(sched.time(lx.node).start.cycle, 1);
    }

    #[test]
    fn program_order_pairs_serialize_store_then_load() {
        let mut g = Dfg::new("wr");
        let m = g.add_mem(MemObject::owned("a", 4, 16).with_ports(2));
        let x = g.add_input("x");
        let k = g.add_const("k", 0);
        let st = g.add_store(m, "st", k, x);
        let l = g.add_load(m, "l", k);
        g.add_output("y", l);
        let serial = mem_serial_edges(&g);
        assert!(serial.contains(&(st, l.node)), "write-before-read edge");
        let sched = schedule(&g, access_delay(&g), &serial, &ctx(None)).unwrap();
        // Dual-ported, but program order still forces the load after the
        // store releases its issue slot.
        assert!(sched.time(l.node).start.cycle > sched.time(st).start.cycle);
    }

    #[test]
    fn serial_edges_are_deterministic_and_deduped() {
        let (g, _) = four_loads(1, 2);
        let e1 = mem_serial_edges(&g);
        let e2 = mem_serial_edges(&g);
        assert_eq!(e1, e2);
        let mut d = e1.clone();
        d.sort_unstable();
        d.dedup();
        assert_eq!(d.len(), e1.len(), "no duplicate edges");
    }
}

#[cfg(test)]
mod review_probe {
    use super::*;
    use crate::{schedule, NodeDelay, SchedContext};
    use hsyn_dfg::{MemObject, Operation};

    #[test]
    fn deep_store_then_shallow_load() {
        let mut g = Dfg::new("probe");
        let m = g.add_mem(MemObject::owned("a", 4, 16));
        let x = g.add_input("x");
        let c1 = g.add_op(Operation::Add, "c1", &[x, x]);
        let c2 = g.add_op(Operation::Add, "c2", &[c1, c1]);
        let k = g.add_const("k", 0);
        let st = g.add_store(m, "st", k, c2);
        let l = g.add_load(m, "l", k);
        g.add_output("y", l);
        let serial = mem_serial_edges(&g);
        assert!(
            serial.contains(&(st, l.node)),
            "program order st->l: {serial:?}"
        );
        assert!(
            !serial.contains(&(l.node, st)),
            "cyclic reverse edge present: {serial:?}"
        );
        let delay = |n: hsyn_dfg::NodeId| match g.node(n).kind() {
            NodeKind::Load { .. } | NodeKind::Store { .. } => NodeDelay::Pipelined { stages: 1 },
            k2 if k2.is_schedulable() => NodeDelay::Combinational { ns: 3.0 },
            _ => NodeDelay::Free,
        };
        let sched = schedule(&g, delay, &serial, &SchedContext::new(10.0, 1.0, None)).unwrap();
        assert!(sched.time(l.node).start.cycle > sched.time(st).start.cycle);
    }
}
