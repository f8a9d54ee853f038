//! The global event vocabulary shared by switches, hosts and the simulation
//! driver.
//!
//! Every component schedules follow-up work by handing a [`NetEvent`] to a
//! [`NetSink`] — a plain [`bfc_sim::EventQueue`] or the shard engine's
//! boundary-routing wrapper. The driver (in `bfc-experiments`) owns
//! the dispatch loop: it pops events in time order and routes them to the
//! switch, host or metrics collector they belong to.
//!
//! Every scheduled event carries its [`NetEvent::canon_rank`]: a total order
//! on *simultaneous* events derived from the event's content rather than
//! from scheduling order. See that method for the determinism argument.

use bfc_sim::snapshot::{SnapError, SnapReader, SnapWriter};
use bfc_sim::{EventQueue, SimTime};

use crate::packet::Packet;
use crate::types::{FlowId, NodeId};

/// Host-side timers used by the transport layer (`bfc-transport`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportTimer {
    /// Go-Back-N retransmission timeout check for one flow.
    Retransmit(FlowId),
    /// DCQCN rate-increase timer for one flow.
    RateIncrease(FlowId),
    /// DCQCN alpha-update timer for one flow.
    AlphaUpdate(FlowId),
    /// The NIC asked to be woken up when a pacing gap elapses.
    NicWakeup,
}

/// A simulation event.
#[derive(Debug, Clone)]
pub enum NetEvent {
    /// The last bit of `packet` arrives at `node` on its local ingress `port`.
    PacketArrive {
        /// Receiving node.
        node: NodeId,
        /// Local ingress port index at the receiving node.
        port: u32,
        /// The packet.
        packet: Packet,
    },
    /// The egress at (`node`, `port`) finished serializing its current packet
    /// and may start the next one.
    TxComplete {
        /// Transmitting node.
        node: NodeId,
        /// Local egress port index.
        port: u32,
    },
    /// Periodic BFC pause-frame emission opportunity for ingress `port` of
    /// switch `node`.
    PauseFrameTimer {
        /// Switch owning the timer.
        node: NodeId,
        /// Local ingress port index the pause frame protects.
        port: u32,
    },
    /// A host-side transport timer fired.
    HostTimer {
        /// Host owning the timer.
        node: NodeId,
        /// Which timer fired.
        timer: TransportTimer,
    },
    /// The `index`-th flow of the experiment trace starts at its sender.
    FlowArrival {
        /// Index into the trace.
        index: usize,
    },
    /// A flow finished: its last data byte arrived at the receiver. Emitted by
    /// the receiving host; consumed by the metrics collector.
    FlowCompleted {
        /// The finished flow.
        flow: FlowId,
    },
    /// Periodic metrics sampling tick (buffer occupancy, utilization).
    Sample,
    /// The `index`-th event of the experiment's fault schedule fires: a link
    /// goes down/up or changes rate, and routing re-converges. Consumed by
    /// the driver, which owns the live link state.
    NetworkDynamics {
        /// Index into the experiment's `FaultSchedule`.
        index: usize,
    },
}

impl NetEvent {
    /// The node this event should be dispatched to, if it targets a node.
    pub fn target_node(&self) -> Option<NodeId> {
        match self {
            NetEvent::PacketArrive { node, .. }
            | NetEvent::TxComplete { node, .. }
            | NetEvent::PauseFrameTimer { node, .. }
            | NetEvent::HostTimer { node, .. } => Some(*node),
            NetEvent::FlowArrival { .. }
            | NetEvent::FlowCompleted { .. }
            | NetEvent::Sample
            | NetEvent::NetworkDynamics { .. } => None,
        }
    }

    /// Canonical rank: a deterministic total order on **simultaneous**
    /// events, derived from the event's content only.
    ///
    /// The engines order events by `(time, rank, push order)`. For sharded
    /// execution to reproduce serial results bit for bit, the order of two
    /// simultaneous events must not depend on which engine interleaved their
    /// pushes — so the rank must discriminate every pair of simultaneous
    /// events *except* pairs produced by one sequential stream, whose push
    /// order is the same in every engine. Concretely:
    ///
    /// * `PacketArrive`/`TxComplete`/`PauseFrameTimer` rank by `(node, port)`
    ///   — an `(ingress node, port)` pair identifies one cable, and all
    ///   deliveries on one cable are emitted by the single node on its far
    ///   end, in that node's (deterministic) processing order;
    /// * `HostTimer` ranks by the owning host — hosts only self-schedule
    ///   timers, again one stream per rank;
    /// * `FlowArrival`/`NetworkDynamics` rank by their schedule index and
    ///   `FlowCompleted` by its (unique) flow, so no two distinct events
    ///   share a rank at all;
    /// * event kinds are ranked against each other by the tag in the top
    ///   three bits, so e.g. a metrics `Sample` always observes the fabric
    ///   before any packet arriving at the same instant is processed.
    ///
    /// The rank packs into 32 bits (3-bit tag, 29-bit subkey) so the
    /// calendar queue's scheduling key stays at its tuned 24 bytes. That
    /// caps the addressable space at 2^19 nodes × 2^10 ports per node and
    /// 2^29 flows / trace entries — far beyond the paper's topologies.
    /// Truncation past those limits would be *consistent* between the
    /// serial and sharded engines (both hash the same event the same way),
    /// but could alias two distinct cables and void the same-stream-tie
    /// argument, so [`NetEvent::rank_layout_fits`] lets the sharded driver
    /// reject oversized topologies up front; the per-push debug asserts
    /// catch stray violations in tests without taxing the release hot path.
    pub fn canon_rank(&self) -> u32 {
        #[inline]
        fn key(tag: u32, sub: u64) -> u32 {
            debug_assert!(sub < 1 << 29, "rank subkey overflows the 29-bit layout");
            (tag << 29) | (sub as u32 & ((1 << 29) - 1))
        }
        #[inline]
        fn cable(node: NodeId, port: u32) -> u64 {
            debug_assert!(
                node.0 < 1 << 19 && port < 1 << 10,
                "node/port overflows the rank layout"
            );
            ((node.0 as u64) << 10) | port as u64
        }
        match self {
            NetEvent::FlowArrival { index } => key(0, *index as u64),
            NetEvent::Sample => key(1, 0),
            NetEvent::NetworkDynamics { index } => key(2, *index as u64),
            NetEvent::PacketArrive { node, port, .. } => key(3, cable(*node, *port)),
            NetEvent::TxComplete { node, port } => key(4, cable(*node, *port)),
            NetEvent::PauseFrameTimer { node, port } => key(5, cable(*node, *port)),
            NetEvent::HostTimer { node, .. } => key(6, cable(*node, 0)),
            NetEvent::FlowCompleted { flow } => key(7, flow.0 as u64),
        }
    }

    /// Whether `(nodes, max_ports_per_node, flows)` fit the packed rank
    /// layout without aliasing (see [`NetEvent::canon_rank`]). The sharded
    /// driver checks this once per run instead of asserting on every push.
    pub fn rank_layout_fits(nodes: usize, max_ports: usize, flows: usize) -> bool {
        nodes <= 1 << 19 && max_ports <= 1 << 10 && flows <= 1 << 29
    }

    /// Serializes the event for snapshot/restore.
    pub fn save_state(&self, w: &mut SnapWriter) {
        match self {
            NetEvent::PacketArrive { node, port, packet } => {
                w.put_u8(0);
                w.put_u32(node.0);
                w.put_u32(*port);
                packet.save_state(w);
            }
            NetEvent::TxComplete { node, port } => {
                w.put_u8(1);
                w.put_u32(node.0);
                w.put_u32(*port);
            }
            NetEvent::PauseFrameTimer { node, port } => {
                w.put_u8(2);
                w.put_u32(node.0);
                w.put_u32(*port);
            }
            NetEvent::HostTimer { node, timer } => {
                w.put_u8(3);
                w.put_u32(node.0);
                match timer {
                    TransportTimer::Retransmit(f) => {
                        w.put_u8(0);
                        w.put_u32(f.0);
                    }
                    TransportTimer::RateIncrease(f) => {
                        w.put_u8(1);
                        w.put_u32(f.0);
                    }
                    TransportTimer::AlphaUpdate(f) => {
                        w.put_u8(2);
                        w.put_u32(f.0);
                    }
                    TransportTimer::NicWakeup => w.put_u8(3),
                }
            }
            NetEvent::FlowArrival { index } => {
                w.put_u8(4);
                w.put_usize(*index);
            }
            NetEvent::FlowCompleted { flow } => {
                w.put_u8(5);
                w.put_u32(flow.0);
            }
            NetEvent::Sample => w.put_u8(6),
            NetEvent::NetworkDynamics { index } => {
                w.put_u8(7);
                w.put_usize(*index);
            }
        }
    }

    /// Rebuilds an event from [`NetEvent::save_state`] output.
    pub fn restore_state(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(match r.get_u8()? {
            0 => NetEvent::PacketArrive {
                node: NodeId(r.get_u32()?),
                port: r.get_u32()?,
                packet: Packet::restore_state(r)?,
            },
            1 => NetEvent::TxComplete {
                node: NodeId(r.get_u32()?),
                port: r.get_u32()?,
            },
            2 => NetEvent::PauseFrameTimer {
                node: NodeId(r.get_u32()?),
                port: r.get_u32()?,
            },
            3 => {
                let node = NodeId(r.get_u32()?);
                let timer = match r.get_u8()? {
                    0 => TransportTimer::Retransmit(FlowId(r.get_u32()?)),
                    1 => TransportTimer::RateIncrease(FlowId(r.get_u32()?)),
                    2 => TransportTimer::AlphaUpdate(FlowId(r.get_u32()?)),
                    3 => TransportTimer::NicWakeup,
                    _ => return Err(SnapError::Corrupt("unknown transport timer tag")),
                };
                NetEvent::HostTimer { node, timer }
            }
            4 => NetEvent::FlowArrival {
                index: r.get_usize()?,
            },
            5 => NetEvent::FlowCompleted {
                flow: FlowId(r.get_u32()?),
            },
            6 => NetEvent::Sample,
            7 => NetEvent::NetworkDynamics {
                index: r.get_usize()?,
            },
            _ => return Err(SnapError::Corrupt("unknown event tag")),
        })
    }
}

/// Where network components schedule their follow-up events.
///
/// A plain [`EventQueue`] is a sink (component unit tests use one); the
/// shard engine passes a wrapper that routes events targeting another shard's
/// nodes into an epoch outbox instead. Every implementation must order
/// events by `(time, [`NetEvent::canon_rank`], emission order)` — going
/// through this trait (rather than `EventQueue::push`) is what guarantees
/// the rank is attached on every scheduling path.
pub trait NetSink {
    /// Schedules `event` at absolute time `time`.
    fn send(&mut self, time: SimTime, event: NetEvent);

    /// Observability hook riding the same seam: emission sites report
    /// structured [`TraceEvent`]s through the sink they already hold. The
    /// default ignores them — only the flight recorder's
    /// [`crate::trace::Recording`] wrapper overrides it, so tracing is
    /// zero-cost when off (the no-op inlines away, taking the event
    /// construction with it).
    #[inline]
    fn trace(&mut self, _at: SimTime, _event: crate::trace::TraceEvent) {}
}

impl NetSink for EventQueue<NetEvent> {
    #[inline]
    fn send(&mut self, time: SimTime, event: NetEvent) {
        let rank = event.canon_rank();
        self.push_ranked(time, rank, event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canon_ranks_are_distinct_across_kinds_and_cables() {
        let arrive = |node: u32, port: u32| NetEvent::PacketArrive {
            node: NodeId(node),
            port,
            packet: Packet::pfc(NodeId(0), NodeId(node), true),
        };
        // Different cables, different ranks; same cable, same rank.
        assert_ne!(arrive(1, 0).canon_rank(), arrive(1, 1).canon_rank());
        assert_ne!(arrive(1, 0).canon_rank(), arrive(2, 0).canon_rank());
        assert_eq!(arrive(1, 2).canon_rank(), arrive(1, 2).canon_rank());
        // Kind tags separate simultaneous events on the same cable, and the
        // cross-kind order puts samples before packet processing.
        let tx = NetEvent::TxComplete { node: NodeId(1), port: 0 };
        assert_ne!(arrive(1, 0).canon_rank(), tx.canon_rank());
        assert!(NetEvent::Sample.canon_rank() < arrive(0, 0).canon_rank());
        assert!(
            NetEvent::FlowArrival { index: (1 << 29) - 1 }.canon_rank()
                < NetEvent::Sample.canon_rank()
        );
        assert_ne!(
            NetEvent::FlowCompleted { flow: FlowId(7) }.canon_rank(),
            NetEvent::FlowCompleted { flow: FlowId(8) }.canon_rank()
        );
    }

    #[test]
    fn sink_attaches_the_canonical_rank() {
        let mut q: EventQueue<NetEvent> = EventQueue::new();
        let t = SimTime::from_nanos(10);
        // Pushed in "wrong" order; the rank restores the canonical one.
        q.send(t, NetEvent::TxComplete { node: NodeId(1), port: 0 });
        q.send(t, NetEvent::Sample);
        q.send(t, NetEvent::FlowArrival { index: 0 });
        let kinds: Vec<u8> = std::iter::from_fn(|| q.pop()).map(|(_, e)| match e {
            NetEvent::FlowArrival { .. } => 0,
            NetEvent::Sample => 1,
            NetEvent::TxComplete { .. } => 2,
            _ => 9,
        })
        .collect();
        assert_eq!(kinds, vec![0, 1, 2]);
    }

    #[test]
    fn target_node_extraction() {
        let e = NetEvent::TxComplete {
            node: NodeId(4),
            port: 1,
        };
        assert_eq!(e.target_node(), Some(NodeId(4)));
        assert_eq!(NetEvent::Sample.target_node(), None);
        assert_eq!(NetEvent::FlowArrival { index: 3 }.target_node(), None);
    }
}
