//! The transport data plane: frames and the packet walk.
//!
//! This is the active half of the network substrate. Every message walks the same path a packet
//! takes in P2PLab:
//!
//! 1. the sending physical node's firewall classifies it (paying the linear rule-evaluation
//!    cost) and pushes it through the matching dummynet pipes — the virtual node's upload pipe
//!    and, if the destination is in another group, the inter-group latency pipe;
//! 2. it crosses the cluster's real network (NIC transmit pipe, switch, NIC receive pipe) unless
//!    source and destination are folded onto the same physical node;
//! 3. the receiving physical node's firewall classifies it again and pushes it through the
//!    destination virtual node's download pipe;
//! 4. it is delivered to the destination application via [`NetHost::on_transport_event`].
//!
//! Connections are TCP-like: establishment costs one round trip (plus the interception shim's
//! system calls), data messages preserve boundaries, and each message travels on a typed
//! [`LaneKind`] **lane** that fixes its framing overhead and retransmit policy. Connectionless
//! datagrams are fire-and-forget.
//!
//! **The node-facing API is the [`Endpoint`] handle** (declared in [`crate::endpoint`]), with the
//! typed request/response layer in [`crate::rpc`]. This module implements the handle's
//! operations, which start the packet walk, and the [`TransportEvent`]s the walk delivers.
//!
//! Every hop of the walk is a value of [`NetEvent`]: the in-flight record is stored inline in
//! the engine's slab-backed queue, so the data plane — the dominant event class of every large
//! scenario — schedules no per-event heap allocation. A [`NetHost`] world runs on a [`NetSim`]
//! (`Simulation<W, NetEvent<Payload, Timer>>`), and its own timers (rounds, arrivals, RPC
//! timeouts) ride in the same queue as the [`NetEvent::Timer`] variant.

use crate::addr::{SocketAddr, VirtAddr};
use crate::endpoint::Endpoint;
use crate::firewall::Direction;
use crate::lane::LaneKind;
use crate::network::{ConnId, ConnState, NetError, Network, VNodeId};
use crate::pipe::{EnqueueOutcome, PipeId};
use crate::proto::{
    flow_dir, fragment_count, fragment_size, AckBitfield, CongestionController, FragOutcome,
    ProtoHalf, FRAG_HEADER_BYTES,
};
use p2plab_sim::{SimDuration, SimRng, SimTime, Simulation, TypedEvent};

/// World types that embed an emulated [`Network`] and receive transport events.
///
/// [`on_transport_event`](NetHost::on_transport_event) is a required method, so a world that
/// forgot the hook — and would silently drop every delivery — does not compile:
///
/// ```compile_fail,E0046
/// use p2plab_net::{NetHost, NetSim, Network};
/// use p2plab_sim::NoEvent;
///
/// struct Deaf {
///     net: Network,
/// }
///
/// impl NetHost for Deaf {
///     type Payload = u32;
///     type Timer = NoEvent;
///     fn network(&mut self) -> &mut Network {
///         &mut self.net
///     }
///     fn on_timer(_sim: &mut NetSim<Self>, timer: NoEvent) {
///         match timer {}
///     }
/// }
/// ```
///
/// A world that genuinely wants to ignore all traffic implements the hook with an empty body.
pub trait NetHost: Sized + 'static {
    /// Application payload carried by data messages and datagrams.
    type Payload: Clone + 'static;

    /// The world's own timers: a value scheduled as [`NetEvent::Timer`] is handed to
    /// [`on_timer`](NetHost::on_timer) when it comes due. A world without timers uses the
    /// uninhabited [`NoEvent`](p2plab_sim::NoEvent).
    type Timer: 'static;

    /// Access to the embedded network.
    fn network(&mut self) -> &mut Network;

    /// Called when a transport event (connection established/accepted/refused/closed, a
    /// lane-tagged message or a datagram delivery) reaches a virtual node.
    fn on_transport_event(
        sim: &mut NetSim<Self>,
        node: VNodeId,
        event: TransportEvent<Self::Payload>,
    );

    /// Called when one of the world's timers comes due. A periodic round re-arms itself here,
    /// after its body has run.
    fn on_timer(sim: &mut NetSim<Self>, timer: Self::Timer);
}

/// A packet hop's event constructor (`NetEvent::NicTx` and friends).
type Hop<W> = fn(
    InFlight<<W as NetHost>::Payload>,
) -> NetEvent<<W as NetHost>::Payload, <W as NetHost>::Timer>;

/// The simulation type a [`NetHost`] world runs on: the event class is the network substrate's
/// [`NetEvent`] over the world's payload and timers.
pub type NetSim<W> = Simulation<W, NetEvent<<W as NetHost>::Payload, <W as NetHost>::Timer>>;

/// The event class of a [`NetHost`] world: one variant per packet hop, plus the world's own
/// timers. Stored inline in the event queue's slab — scheduling one performs no allocation.
pub enum NetEvent<P, T> {
    /// Sender-side pipes done; enqueue on the source machine's NIC transmit pipe and cross the
    /// cluster network toward the destination's machine (both machines are re-derived from the
    /// flight's endpoints — events carry no redundant routing state, keeping queue slots
    /// small).
    NicTx {
        /// The in-flight message.
        flight: InFlight<P>,
    },
    /// Receiver-side processing: NIC receive pipe (when the packet crossed the cluster
    /// network, i.e. the endpoints are hosted on different machines), destination firewall and
    /// download pipe.
    Receive {
        /// The in-flight message.
        flight: InFlight<P>,
    },
    /// Final delivery to the destination application.
    Deliver {
        /// The in-flight message.
        flight: InFlight<P>,
    },
    /// Retransmission timer of a reliable frame that was dropped.
    Retransmit {
        /// The in-flight message (attempt counter already bumped).
        flight: InFlight<P>,
    },
    /// A paced fragment's release time arrived (protocol layer): record it in the sender
    /// window — ack matching and RTT anchors must reflect wire time, not plan time — and
    /// start its packet walk.
    PaceRelease {
        /// The planned fragment.
        flight: InFlight<P>,
    },
    /// Reassembly idle timeout of a fragmented message (protocol layer): if no further
    /// fragment arrived since the timer was armed, the incomplete message is discarded;
    /// otherwise the timer re-arms with a fresh progress snapshot.
    ReassemblyTimeout {
        /// The connection the message travels on.
        conn: ConnId,
        /// The lane the message travels on.
        lane: LaneKind,
        /// The message (reassembly) id.
        msg: u16,
        /// Flow direction index (see [`flow_dir`]).
        dir: u8,
        /// Fragments received when the timer was armed — unchanged on fire means stalled.
        progress: u16,
    },
    /// One of the world's own timers ([`NetHost::Timer`]).
    Timer(T),
}

impl<W: NetHost> TypedEvent<W> for NetEvent<W::Payload, W::Timer> {
    fn fire(self, sim: &mut NetSim<W>) {
        match self {
            NetEvent::Timer(timer) => W::on_timer(sim, timer),
            NetEvent::NicTx { flight } => nic_tx(sim, flight),
            NetEvent::Receive { flight } => receiver_side(sim, flight),
            NetEvent::Deliver { flight } => deliver(sim, flight),
            NetEvent::Retransmit { flight } => transmit(sim, flight, SimDuration::ZERO),
            NetEvent::PaceRelease { flight } => release_fragment(sim, flight),
            NetEvent::ReassemblyTimeout {
                conn,
                lane,
                msg,
                dir,
                progress,
            } => {
                let net = sim.world_mut().network();
                let timeout = net.config().transport.reassembly_timeout;
                let current = net.proto_existing(conn).and_then(|p| {
                    p.halves[usize::from(dir)].lanes[lane.index()]
                        .recv
                        .assembly
                        .progress(msg)
                });
                match current {
                    // Completed or already expired: nothing to reap.
                    None => {}
                    // Still receiving (retransmissions trickling in): re-arm with the new
                    // snapshot instead of reaping a repair in progress. The re-armed timer
                    // takes over this one's pin on the connection.
                    Some(current) if current != progress => {
                        sim.schedule_event_in(
                            timeout,
                            NetEvent::ReassemblyTimeout {
                                conn,
                                lane,
                                msg,
                                dir,
                                progress: current,
                            },
                        );
                        return;
                    }
                    // A full timeout without a single new fragment: discard.
                    Some(_) => {
                        let net = sim.world_mut().network();
                        if let Some(p) = net.proto_existing(conn) {
                            p.halves[usize::from(dir)].lanes[lane.index()]
                                .recv
                                .assembly
                                .expire(msg);
                        }
                        net.stats.reassembly_timeouts += 1;
                    }
                }
                sim.world_mut().network().unpin(conn);
            }
        }
    }
}

/// Events delivered to applications by the session/lane API.
///
/// Messages carry the [`LaneKind`] they travelled on and datagrams carry `to_port` — the local
/// port the datagram was addressed to, without which a virtual node bound on several ports
/// cannot demultiplex its traffic.
#[derive(Debug, Clone)]
pub enum TransportEvent<P> {
    /// An outgoing connect completed.
    Connected {
        /// The connection.
        conn: ConnId,
        /// The remote endpoint.
        peer: SocketAddr,
    },
    /// An outgoing connect was refused (no listener at the destination).
    Refused {
        /// The attempted connection.
        conn: ConnId,
        /// The remote endpoint.
        peer: SocketAddr,
    },
    /// A bound port accepted an incoming connection.
    Accepted {
        /// The connection.
        conn: ConnId,
        /// The connecting endpoint.
        peer: SocketAddr,
    },
    /// A message arrived on a connection lane.
    Message {
        /// The connection.
        conn: ConnId,
        /// The lane the message travelled on.
        lane: LaneKind,
        /// The sending endpoint.
        from: SocketAddr,
        /// Application payload.
        payload: P,
        /// Application bytes.
        size: u64,
    },
    /// A connectionless datagram arrived.
    Datagram {
        /// The sending endpoint.
        from: SocketAddr,
        /// The local port the datagram was addressed to (the receiving socket).
        to_port: u16,
        /// Application payload.
        payload: P,
        /// Application bytes.
        size: u64,
    },
    /// The peer closed the connection.
    Closed {
        /// The connection.
        conn: ConnId,
    },
}

/// Protocol frames carried through the data plane.
#[derive(Debug, Clone)]
enum Frame<P> {
    Syn {
        conn: ConnId,
    },
    SynAck {
        conn: ConnId,
    },
    Rst {
        conn: ConnId,
    },
    Data {
        conn: ConnId,
        lane: LaneKind,
        payload: P,
        size: u64,
    },
    /// One fragment of a message on the protocol-depth wire path (active transport config).
    /// The payload rides on every fragment; the completing fragment supplies it to the
    /// application, so the wire cost is modelled by `frag_size` while the simulation avoids
    /// materializing per-fragment byte buffers.
    Frag {
        conn: ConnId,
        lane: LaneKind,
        /// Wire sequence number (the unit of acknowledgement).
        seq: u16,
        /// Message (reassembly) id.
        msg: u16,
        /// Fragment index within the message.
        index: u16,
        /// Total fragments of the message.
        count: u16,
        /// Payload bytes of this fragment.
        frag_size: u64,
        /// Application bytes of the whole message.
        total_size: u64,
        payload: P,
    },
    /// An acknowledgement bitfield for fragments received on a reliable lane.
    Ack {
        conn: ConnId,
        lane: LaneKind,
        ack: AckBitfield,
    },
    Fin {
        conn: ConnId,
    },
    Dgram {
        from_port: u16,
        to_port: u16,
        payload: P,
        size: u64,
    },
}

impl<P> Frame<P> {
    /// The connection the frame names; `None` for a connectionless datagram.
    fn conn(&self) -> Option<ConnId> {
        match self {
            Frame::Syn { conn }
            | Frame::SynAck { conn }
            | Frame::Rst { conn }
            | Frame::Data { conn, .. }
            | Frame::Frag { conn, .. }
            | Frame::Ack { conn, .. }
            | Frame::Fin { conn } => Some(*conn),
            Frame::Dgram { .. } => None,
        }
    }

    /// Bytes the frame occupies on the wire (payload + per-lane framing).
    fn wire_size(&self) -> u64 {
        match self {
            Frame::Syn { .. }
            | Frame::SynAck { .. }
            | Frame::Rst { .. }
            | Frame::Fin { .. }
            | Frame::Ack { .. } => 64,
            Frame::Data { size, lane, .. } => size + lane.header_bytes(),
            Frame::Frag {
                frag_size, lane, ..
            } => frag_size + lane.header_bytes() + FRAG_HEADER_BYTES,
            Frame::Dgram { size, .. } => size + LaneKind::UnreliableUnordered.header_bytes(),
        }
    }

    /// The retransmission backoff before the next attempt, or `None` when the frame is not
    /// retransmitted. Control frames (handshake, close) follow the ordered lane's exponential
    /// schedule; data frames follow their lane's policy; datagrams are never retransmitted.
    fn retransmit_backoff(&self, attempts: u32, rto: SimDuration) -> Option<SimDuration> {
        match self {
            Frame::Syn { .. } | Frame::SynAck { .. } | Frame::Rst { .. } | Frame::Fin { .. } => {
                LaneKind::ReliableOrdered.retransmit_backoff(attempts, rto)
            }
            Frame::Data { lane, .. } | Frame::Frag { lane, .. } => {
                lane.retransmit_backoff(attempts, rto)
            }
            // A lost ack is re-covered by the next one — never retransmitted.
            Frame::Dgram { .. } | Frame::Ack { .. } => None,
        }
    }

    /// Whether the transport retransmits the frame if a pipe drops it.
    fn reliable(&self) -> bool {
        match self {
            Frame::Data { lane, .. } | Frame::Frag { lane, .. } => lane.reliable(),
            Frame::Dgram { .. } => false,
            _ => true,
        }
    }

    /// Whether a conditioner-duplicated copy of the frame is honored. Only frames with
    /// receive-side dedup machinery may duplicate: fragments (the reassembler ignores
    /// duplicates) and datagrams (duplication is an application-visible hazard of unreliable
    /// traffic). Control and legacy data frames ignore the copy — the pipe draws its random
    /// numbers regardless, so determinism is independent of the frame type.
    fn duplicable(&self) -> bool {
        matches!(self, Frame::Frag { .. } | Frame::Dgram { .. })
    }
}

/// A message in flight, carrying everything needed to retry it after a drop. Opaque outside
/// the transport; it only travels inside [`NetEvent`]s. A flight on a connection pins the
/// connection's record from `make_flight` until it is delivered or dropped, so every copy
/// goes through `InFlight::duplicate`.
pub struct InFlight<P> {
    src: VNodeId,
    dst: VNodeId,
    /// Source address as the firewall sees it (differs from `src`'s address when the BINDIP
    /// interception shim is disabled). The destination address is always `dst`'s address and
    /// is re-derived where needed instead of being carried per event.
    src_addr: VirtAddr,
    frame: Frame<P>,
    attempts: u32,
}

impl<P: Clone> InFlight<P> {
    /// A copy of the flight (a tamper or conditioner duplicate, which re-walks the remaining
    /// stages independently), pinning the connection like any other flight.
    fn duplicate(&self, net: &mut Network) -> InFlight<P> {
        if let Some(conn) = self.frame.conn() {
            net.pin(conn);
        }
        InFlight {
            frame: self.frame.clone(),
            ..*self
        }
    }
}

impl<P> InFlight<P> {
    /// The flight is dropped for good: unpins its connection.
    fn retire(self, net: &mut Network) {
        if let Some(conn) = self.frame.conn() {
            net.unpin(conn);
        }
    }
}

// ---------------------------------------------------------------------------
// The node-facing operations: what an `Endpoint` puts on the wire.
// ---------------------------------------------------------------------------

impl Endpoint {
    /// Binds `port` for incoming connections and datagrams. Fails with
    /// [`NetError::PortInUse`] when the port is already bound on this node.
    pub fn bind<W: NetHost>(&self, sim: &mut NetSim<W>, port: u16) -> Result<(), NetError> {
        let node = self.node();
        let net = sim.world_mut().network();
        if node.0 >= net.vnode_count() {
            return Err(NetError::UnknownVNode(node));
        }
        if !net.listeners.insert((node, port)) {
            return Err(NetError::PortInUse(node, port));
        }
        Ok(())
    }

    /// Initiates a connection to `remote`. The outcome arrives asynchronously as
    /// [`TransportEvent::Connected`] or [`TransportEvent::Refused`].
    pub fn connect<W: NetHost>(
        &self,
        sim: &mut NetSim<W>,
        remote: SocketAddr,
    ) -> Result<ConnId, NetError> {
        let node = self.node();
        let net = sim.world_mut().network();
        if node.0 >= net.vnode_count() {
            return Err(NetError::UnknownVNode(node));
        }
        let dst = net
            .resolve(remote.addr)
            .ok_or(NetError::NoRouteToHost(remote.addr))?;
        let port = net.allocate_ephemeral_port();
        let conn = net.allocate_conn((node, port), (dst, remote.port));
        let config = *net.config();
        let syscall_cost = config.intercept.connect_cost(&config.syscalls);
        let flight = make_flight(net, node, dst, Frame::Syn { conn });
        transmit(sim, flight, syscall_cost);
        Ok(conn)
    }

    /// Sends `payload` (`size` application bytes) on `lane` of the established connection
    /// `conn`. The lane fixes the framing overhead charged on the wire and the retransmit
    /// policy applied if a pipe drops the frame (see [`LaneKind`]).
    pub fn send<W: NetHost>(
        &self,
        sim: &mut NetSim<W>,
        conn: ConnId,
        lane: LaneKind,
        size: u64,
        payload: W::Payload,
    ) -> Result<(), NetError> {
        let node = self.node();
        let net = sim.world_mut().network();
        if size > net.config().max_message_bytes {
            return Err(NetError::MessageTooLarge(size));
        }
        let c = *net
            .connection(conn)
            .ok_or(NetError::UnknownConnection(conn))?;
        if c.client.0 != node && c.server.0 != node {
            return Err(NetError::UnknownConnection(conn));
        }
        if c.state != ConnState::Established {
            return Err(NetError::NotEstablished(conn));
        }
        let dst = c.peer_of(node);
        if net.transport_active() {
            let sender_is_client = c.client.0 == node;
            return proto_send(sim, node, dst, sender_is_client, conn, lane, size, payload);
        }
        let flight = make_flight(
            net,
            node,
            dst,
            Frame::Data {
                conn,
                lane,
                payload,
                size,
            },
        );
        transmit(sim, flight, SimDuration::ZERO);
        Ok(())
    }

    /// Sends an unreliable connectionless datagram from `from_port` to `remote`. The receiver
    /// sees the destination port as [`TransportEvent::Datagram::to_port`], so a node bound on
    /// several ports can demultiplex.
    pub fn send_datagram<W: NetHost>(
        &self,
        sim: &mut NetSim<W>,
        from_port: u16,
        remote: SocketAddr,
        size: u64,
        payload: W::Payload,
    ) -> Result<(), NetError> {
        let node = self.node();
        let net = sim.world_mut().network();
        if size > net.config().max_message_bytes {
            return Err(NetError::MessageTooLarge(size));
        }
        if node.0 >= net.vnode_count() {
            return Err(NetError::UnknownVNode(node));
        }
        let dst = net
            .resolve(remote.addr)
            .ok_or(NetError::NoRouteToHost(remote.addr))?;
        let flight = make_flight(
            net,
            node,
            dst,
            Frame::Dgram {
                from_port,
                to_port: remote.port,
                payload,
                size,
            },
        );
        transmit(sim, flight, SimDuration::ZERO);
        Ok(())
    }

    /// Closes connection `conn` from this side and notifies the peer. Messages already in
    /// flight on the connection are discarded on arrival. A refused connection has no peer to
    /// notify, and closing it, like closing again, sends nothing; once the last frame on the
    /// connection is gone it is released, and `conn` is an unknown id
    /// ([`NetError::UnknownConnection`]) to every call.
    pub fn close<W: NetHost>(&self, sim: &mut NetSim<W>, conn: ConnId) -> Result<(), NetError> {
        let node = self.node();
        let net = sim.world_mut().network();
        let c = *net
            .connection(conn)
            .ok_or(NetError::UnknownConnection(conn))?;
        if c.client.0 != node && c.server.0 != node {
            return Err(NetError::UnknownConnection(conn));
        }
        if matches!(c.state, ConnState::Closed | ConnState::Refused) {
            return Ok(());
        }
        net.connection_mut(conn).expect("checked above").state = ConnState::Closed;
        let dst = c.peer_of(node);
        let flight = make_flight(net, node, dst, Frame::Fin { conn });
        transmit(sim, flight, SimDuration::ZERO);
        Ok(())
    }
}

/// The protocol-depth send path: fragments the message to the configured MTU, assigns wire
/// sequence numbers, paces releases through the congestion controller and records reliable
/// fragments in the sender window. One [`Frame::Frag`] per fragment enters the packet walk.
#[expect(
    clippy::too_many_arguments,
    reason = "internal send path mirrors `Endpoint::send`'s checked arguments"
)]
fn proto_send<W: NetHost>(
    sim: &mut NetSim<W>,
    node: VNodeId,
    dst: VNodeId,
    sender_is_client: bool,
    conn: ConnId,
    lane: LaneKind,
    size: u64,
    payload: W::Payload,
) -> Result<(), NetError> {
    let now = sim.now();
    let net = sim.world_mut().network();
    let tc = net.config().transport;
    let mtu = tc.mtu.unwrap_or(u64::MAX);
    let count = fragment_count(size, mtu);
    let dir = flow_dir(sender_is_client);
    // Plan every fragment under one borrow of the proto table: (seq, index, release offset).
    let msg;
    let mut plans = Vec::with_capacity(usize::from(count));
    {
        let half = &mut net.proto_mut(conn).halves[dir];
        msg = half.lanes[lane.index()].send.next_msg;
        half.lanes[lane.index()].send.next_msg = msg.wrapping_add(1);
        for index in 0..count {
            let frag_size = fragment_size(size, mtu, index, count);
            let wire = frag_size + lane.header_bytes() + FRAG_HEADER_BYTES;
            let lane_send = &mut half.lanes[lane.index()].send;
            let seq = lane_send.next_seq;
            lane_send.next_seq = seq.wrapping_add(1);
            let release = half.pace_until.max(now);
            let spacing = half.cc.send_spacing(wire);
            half.pace_until = release + spacing;
            plans.push((seq, index, frag_size, release - now));
        }
    }
    net.stats.fragments_sent += u64::from(count);
    for (seq, index, frag_size, delay) in plans {
        let net = sim.world_mut().network();
        let flight = make_flight(
            net,
            node,
            dst,
            Frame::Frag {
                conn,
                lane,
                seq,
                msg,
                index,
                count,
                frag_size,
                total_size: size,
                payload: payload.clone(),
            },
        );
        // The sender window is fed at **release** time (`release_fragment`), not here at plan
        // time: a paced backlog of planned-but-unreleased fragments would otherwise flood the
        // window, evict the fragments actually on the wire and starve the congestion
        // controller of ack feedback.
        if delay.is_zero() {
            release_fragment(sim, flight);
        } else {
            sim.schedule_event_in(delay, NetEvent::PaceRelease { flight });
        }
    }
    Ok(())
}

/// A fragment reaches its paced release time: feed the congestion controller, record reliable
/// fragments in the sender window with their wire-entry time (the RTT anchor and the ack
/// matching set), and start the packet walk.
fn release_fragment<W: NetHost>(sim: &mut NetSim<W>, flight: InFlight<W::Payload>) {
    let now = sim.now();
    if let Frame::Frag {
        conn, lane, seq, ..
    } = flight.frame
    {
        let wire = flight.frame.wire_size();
        let net = sim.world_mut().network();
        let sender_is_client = net
            .connection(conn)
            .is_some_and(|c| c.client.0 == flight.src);
        let half = &mut net.proto_mut(conn).halves[flow_dir(sender_is_client)];
        half.cc.on_send(wire);
        if lane.reliable() {
            half.lanes[lane.index()].send.window.on_sent(seq, wire, now);
        }
    }
    transmit(sim, flight, SimDuration::ZERO);
}

// ---------------------------------------------------------------------------
// The packet walk.
// ---------------------------------------------------------------------------

/// A fresh flight of `frame` from `src` to `dst`, pinning the connection it names.
fn make_flight<P>(net: &mut Network, src: VNodeId, dst: VNodeId, frame: Frame<P>) -> InFlight<P> {
    if let Some(conn) = frame.conn() {
        net.pin(conn);
    }
    let src_node = net.vnode(src);
    let admin = net.machine(src_node.machine()).admin_addr;
    InFlight {
        src,
        dst,
        src_addr: net.config().intercept.source_addr(src_node.addr, admin),
        frame,
        attempts: 0,
    }
}

/// Sender-side processing: firewall classification, sender pipes, then hand-off to the cluster
/// network (or directly to the receiver side when both nodes share a physical machine).
fn transmit<W: NetHost>(
    sim: &mut NetSim<W>,
    flight: InFlight<W::Payload>,
    extra_delay: SimDuration,
) {
    let now = sim.now();
    let wire = flight.frame.wire_size();
    let mut extra_delay = extra_delay;
    if flight.attempts == 0 {
        let net = sim.world_mut().network();
        net.stats.messages_sent += 1;
        // Sender-side tamper point (see `crate::tamper`): only fresh frames from nodes with an
        // installed tamper state are touched, drawing from the node's own split RNG stream. An
        // honest run never sets the flag, so the frozen packet walk is byte-identical.
        if net.adversary {
            net.stats.byzantine_msgs_sent += u64::from(net.vnode(flight.src).byzantine);
            let duplicable = flight.frame.duplicable();
            let tamper = net.tamper_mut(flight.src);
            let action = tamper.map(|state| {
                if state.rng.chance(state.spec.drop_rate) {
                    None
                } else {
                    let dup = duplicable && state.rng.chance(state.spec.duplicate_rate);
                    Some((state.spec.delay, dup))
                }
            });
            match action {
                Some(None) => {
                    // Swallowed before the wire: genuinely silent — no pipe drop occurred, so
                    // no retransmission machinery ever sees the frame.
                    net.stats.tampered_drops += 1;
                    flight.retire(net);
                    return;
                }
                Some(Some((delay, dup))) => {
                    if !delay.is_zero() {
                        net.stats.tampered_delays += 1;
                        extra_delay += delay;
                    }
                    if dup {
                        net.stats.tampered_duplicates += 1;
                        let mut copy = flight.duplicate(net);
                        // Mark the copy non-fresh so it is neither re-counted nor re-tampered
                        // when it re-enters the walk behind the original.
                        copy.attempts = 1;
                        sim.schedule_event_at(
                            now + extra_delay,
                            NetEvent::Retransmit { flight: copy },
                        );
                    }
                }
                None => {}
            }
        }
    }
    let (world, rng) = sim.world_and_rng();
    let net = world.network();
    let classification = net.classify(Direction::Out, flight.src, flight.src_addr, flight.dst);
    let folded = net.vnode(flight.src).machine() == net.vnode(flight.dst).machine();
    let mut walk = PipeWalk::starting_at(now + extra_delay + classification.evaluation_cost);
    if !walk.through(net, rng, classification.pipes(), wire) {
        handle_drop(sim, flight);
    } else if folded {
        // Folded nodes: traffic stays inside the machine (loopback), no NIC involved.
        walk.forward(sim, flight, |flight| NetEvent::Receive { flight });
    } else {
        walk.forward(sim, flight, |flight| NetEvent::NicTx { flight });
    }
}

/// A frame's progress through consecutive pipes: when it leaves the last one, and how far
/// behind it a conditioner-duplicated copy trails (by the dup's extra serialization). Only the
/// first duplication along the way counts; the copy re-walks the remaining stages as an
/// independent packet.
struct PipeWalk {
    t: SimTime,
    dup_off: Option<SimDuration>,
}

impl PipeWalk {
    fn starting_at(t: SimTime) -> PipeWalk {
        PipeWalk { t, dup_off: None }
    }

    /// Enqueues `wire` bytes on each of `pipes` in turn, latency pipes and access pipes alike;
    /// false when a pipe dropped the frame.
    fn through(
        &mut self,
        net: &mut Network,
        rng: &mut SimRng,
        pipes: &[PipeId],
        wire: u64,
    ) -> bool {
        for &pipe in pipes {
            match net.enqueue(pipe, self.t, wire, rng) {
                EnqueueOutcome::Forwarded { exit, dup } => {
                    if self.dup_off.is_none() {
                        self.dup_off = dup.map(|d| d - exit);
                    }
                    self.t = exit;
                }
                EnqueueOutcome::Dropped(_) => return false,
            }
        }
        true
    }

    /// Schedules the frame's next `hop` for when it leaves the last pipe — and before it the
    /// duplicated copy's, if there is one and the frame type honors duplication.
    fn forward<W: NetHost>(self, sim: &mut NetSim<W>, flight: InFlight<W::Payload>, hop: Hop<W>) {
        if let Some(off) = self.dup_off.filter(|_| flight.frame.duplicable()) {
            let copy = flight.duplicate(sim.world_mut().network());
            sim.schedule_event_at(self.t + off, hop(copy));
        }
        sim.schedule_event_at(self.t, hop(flight));
    }
}

/// The cluster-network hop: the source machine's NIC transmit pipe, then the receiver side on
/// the destination machine.
fn nic_tx<W: NetHost>(sim: &mut NetSim<W>, flight: InFlight<W::Payload>) {
    let (now, wire) = (sim.now(), flight.frame.wire_size());
    let (world, rng) = sim.world_and_rng();
    let net = world.network();
    let src_machine = net.vnode(flight.src).machine();
    let exit = net.cross_nic(src_machine, Direction::Out, now, wire, rng);
    sim.schedule_event_at(exit, NetEvent::Receive { flight });
}

/// Receiver-side processing: NIC receive pipe (if the message crossed the cluster network,
/// i.e. the endpoints are hosted on different machines), the receiving machine's firewall and
/// the destination node's download pipe, then delivery.
fn receiver_side<W: NetHost>(sim: &mut NetSim<W>, flight: InFlight<W::Payload>) {
    let wire = flight.frame.wire_size();
    let mut walk = PipeWalk::starting_at(sim.now());
    let (world, rng) = sim.world_and_rng();
    let net = world.network();
    let dst_machine = net.vnode(flight.dst).machine();
    if net.vnode(flight.src).machine() != dst_machine {
        walk.t = net.cross_nic(dst_machine, Direction::In, walk.t, wire, rng);
    }
    let classification = net.classify(Direction::In, flight.src, flight.src_addr, flight.dst);
    walk.t += classification.evaluation_cost;
    if walk.through(net, rng, classification.pipes(), wire) {
        walk.forward(sim, flight, |flight| NetEvent::Deliver { flight });
    } else {
        handle_drop(sim, flight);
    }
}

/// Retransmission policy after a pipe dropped the frame: reliable frames are retried on their
/// lane's backoff schedule (bounded by `max_attempts`), unreliable frames are counted dropped.
fn handle_drop<W: NetHost>(sim: &mut NetSim<W>, mut flight: InFlight<W::Payload>) {
    let config = *sim.world_mut().network().config();
    let backoff = (flight.attempts + 1 < config.max_attempts)
        .then(|| {
            flight
                .frame
                .retransmit_backoff(flight.attempts + 1, config.rto)
        })
        .flatten();
    match backoff {
        Some(backoff) => {
            flight.attempts += 1;
            let net = sim.world_mut().network();
            if let Frame::Frag {
                conn, lane, seq, ..
            } = flight.frame
            {
                // Selective retransmit: only the lost fragment is resent, and the loss feeds
                // the sender's congestion controller (drop-triggered — the sim is omniscient,
                // so no timeout machinery is needed to detect it).
                net.stats.selective_retransmits += 1;
                let sender_is_client = net
                    .connection(conn)
                    .is_some_and(|c| c.client.0 == flight.src);
                let half = &mut net.proto_mut(conn).halves[flow_dir(sender_is_client)];
                half.cc.on_loss();
                // Karn's algorithm: the retried fragment's eventual ack must not produce an
                // RTT sample, or retransmit backoffs would inflate srtt and stall the pacer.
                half.lanes[lane.index()].send.window.mark_retransmitted(seq);
            } else {
                net.stats.retransmissions += 1;
            }
            sim.schedule_event_in(backoff, NetEvent::Retransmit { flight });
        }
        None => {
            let net = sim.world_mut().network();
            // A lost ack is silent by design (the next ack re-covers its window) — it is
            // neither an abandoned message nor an application datagram.
            if matches!(flight.frame, Frame::Ack { .. }) {
                flight.retire(net);
                return;
            }
            let mut newly_dead = true;
            if let Frame::Frag {
                conn, lane, msg, ..
            } = flight.frame
            {
                // A reliable fragment lands here only with its attempts exhausted — the
                // message can never complete. Kill the receiver's partial assembly (the sim
                // is omniscient) so still-retrying sibling fragments are ignored instead of
                // reopening a dead entry, and so each abandoned message is counted once.
                // Unreliable fragments keep the receiver-side behaviour a real stack has:
                // the assembly stays open until the idle reassembly timeout strands it.
                if lane.reliable() {
                    let sender_is_client = net
                        .connection(conn)
                        .is_some_and(|c| c.client.0 == flight.src);
                    let half = &mut net.proto_mut(conn).halves[flow_dir(sender_is_client)];
                    newly_dead = half.lanes[lane.index()].recv.assembly.abandon(msg);
                }
            }
            if newly_dead {
                let stats = &mut net.stats;
                stats.messages_dropped += 1;
                if !flight.frame.reliable() {
                    stats.datagrams_dropped += 1;
                }
            }
            flight.retire(net);
        }
    }
}

/// Final delivery: updates connection/node counters and raises the application event, then
/// unpins the flight's connection.
fn deliver<W: NetHost>(sim: &mut NetSim<W>, flight: InFlight<W::Payload>) {
    let conn = flight.frame.conn();
    deliver_frame(sim, flight);
    if let Some(conn) = conn {
        sim.world_mut().network().unpin(conn);
    }
}

/// Why a frame's connection is always found: the flight pins the record until it is delivered.
const PINNED: &str = "a frame in flight pins its connection";

fn deliver_frame<W: NetHost>(sim: &mut NetSim<W>, flight: InFlight<W::Payload>) {
    let now = sim.now();
    let dst = flight.dst;
    let src_addr = flight.src_addr;
    let net = sim.world_mut().network();
    net.stats.messages_delivered += 1;

    match flight.frame {
        Frame::Syn { conn } => {
            let c = *net.connection(conn).expect(PINNED);
            let listening = net.is_listening(dst, c.server.1);
            if listening {
                net.connection_mut(conn).expect(PINNED).state = ConnState::Established;
                let peer = SocketAddr::new(src_addr, c.client.1);
                let reply = make_flight(net, dst, flight.src, Frame::SynAck { conn });
                transmit(sim, reply, SimDuration::ZERO);
                W::on_transport_event(sim, dst, TransportEvent::Accepted { conn, peer });
            } else {
                let reply = make_flight(net, dst, flight.src, Frame::Rst { conn });
                transmit(sim, reply, SimDuration::ZERO);
            }
        }
        Frame::SynAck { conn } => {
            let c = *net.connection(conn).expect(PINNED);
            let entry = net.connection_mut(conn).expect(PINNED);
            if entry.state == ConnState::Connecting {
                entry.state = ConnState::Established;
            }
            let peer = SocketAddr::new(net.addr_of(c.server.0), c.server.1);
            W::on_transport_event(sim, dst, TransportEvent::Connected { conn, peer });
        }
        Frame::Rst { conn } => {
            let c = *net.connection(conn).expect(PINNED);
            net.connection_mut(conn).expect(PINNED).state = ConnState::Refused;
            let peer = SocketAddr::new(net.addr_of(c.server.0), c.server.1);
            W::on_transport_event(sim, dst, TransportEvent::Refused { conn, peer });
        }
        Frame::Data {
            conn,
            lane,
            payload,
            size,
        } => {
            let c = *net.connection(conn).expect(PINNED);
            if c.state == ConnState::Closed {
                return;
            }
            let from_port = c.port_of(c.peer_of(dst));
            net.stats.bytes_delivered += size;
            let from = SocketAddr::new(src_addr, from_port);
            W::on_transport_event(
                sim,
                dst,
                TransportEvent::Message {
                    conn,
                    lane,
                    from,
                    payload,
                    size,
                },
            );
        }
        Frame::Frag {
            conn,
            lane,
            seq,
            msg,
            index,
            count,
            frag_size: _,
            total_size,
            payload,
        } => {
            // All `net`-borrow work happens before any `sim` work (scheduling, app events).
            let c = *net.connection(conn).expect(PINNED);
            if c.state == ConnState::Closed {
                return;
            }
            let dir = flow_dir(flight.src == c.client.0);
            let reassembly_timeout = net.config().transport.reassembly_timeout;
            let (outcome, ack_field) = {
                let proto = net.proto_mut(conn);
                let lane_recv = &mut proto.halves[dir].lanes[lane.index()].recv;
                lane_recv.ack.record(seq);
                let field = lane.reliable().then(|| lane_recv.ack.bitfield());
                (lane_recv.assembly.accept(msg, index, count), field)
            };
            let ack_flight = ack_field.map(|ack| {
                net.stats.acks_sent += 1;
                make_flight(net, dst, flight.src, Frame::Ack { conn, lane, ack })
            });
            match outcome {
                FragOutcome::Complete => {
                    net.stats.bytes_delivered += total_size;
                    let from = SocketAddr::new(src_addr, c.port_of(c.peer_of(dst)));
                    if let Some(f) = ack_flight {
                        transmit(sim, f, SimDuration::ZERO);
                    }
                    W::on_transport_event(
                        sim,
                        dst,
                        TransportEvent::Message {
                            conn,
                            lane,
                            from,
                            payload,
                            size: total_size,
                        },
                    );
                }
                FragOutcome::Pending { first } => {
                    if let Some(f) = ack_flight {
                        transmit(sim, f, SimDuration::ZERO);
                    }
                    // Only unreliable assemblies get the idle reaper: reliable fragments are
                    // retransmitted until they arrive or the sender abandons them, and the
                    // abandonment itself kills the assembly (see `handle_drop`) — an idle
                    // timer would discard acked fragments that are never resent, leaving the
                    // message permanently undeliverable.
                    if first && !lane.reliable() {
                        sim.world_mut().network().pin(conn);
                        sim.schedule_event_in(
                            reassembly_timeout,
                            NetEvent::ReassemblyTimeout {
                                conn,
                                lane,
                                msg,
                                dir: dir as u8,
                                // A fresh entry holds exactly the fragment that opened it.
                                progress: 1,
                            },
                        );
                    }
                }
                // Duplicate or stale fragment: the ack still goes out (it re-covers the
                // window), but nothing is delivered.
                FragOutcome::Ignored => {
                    if let Some(f) = ack_flight {
                        transmit(sim, f, SimDuration::ZERO);
                    }
                }
            }
        }
        Frame::Ack { conn, lane, ack } => {
            let c = *net.connection(conn).expect(PINNED);
            // The ack's receiver is the sender of the acked data, so the flow direction is
            // the one where `dst` transmits.
            let dir = flow_dir(dst == c.client.0);
            let Some(proto) = net.proto_existing(conn) else {
                return;
            };
            let ProtoHalf { cc, lanes, .. } = &mut proto.halves[dir];
            lanes[lane.index()]
                .send
                .window
                .on_ack(&ack, |wire_bytes, sent_at| {
                    // `sent_at` is None for retransmitted fragments: bytes credited, no RTT
                    // sample (Karn's algorithm).
                    cc.on_ack(wire_bytes, sent_at.map(|s| now - s));
                });
        }
        Frame::Fin { conn } => {
            // The initiator already marked the connection closed before sending the FIN; the
            // receiving endpoint still gets its Closed notification.
            net.connection_mut(conn).expect(PINNED).state = ConnState::Closed;
            W::on_transport_event(sim, dst, TransportEvent::Closed { conn });
        }
        Frame::Dgram {
            from_port,
            to_port,
            payload,
            size,
        } => {
            net.stats.bytes_delivered += size;
            let from = SocketAddr::new(src_addr, from_port);
            W::on_transport_event(
                sim,
                dst,
                TransportEvent::Datagram {
                    from,
                    to_port,
                    payload,
                    size,
                },
            );
        }
    }
}

#[cfg(test)]
mod tests {
    // These tests pin the packet walk (latency, shaping, loss, interception). Lane and RPC
    // semantics have their own suites in `tests/transport_edge.rs` and the `endpoint`/`rpc`
    // module tests.
    use super::*;
    use crate::network::NetworkConfig;
    use crate::topology::{AccessLinkClass, GroupId, TopologySpec};
    use p2plab_sim::{NoEvent, SimTime};

    /// Minimal world for transport tests: records every transport event with its timestamp.
    struct TestWorld {
        net: Network,
        events: Vec<(SimTime, VNodeId, String)>,
        received_payloads: Vec<(VNodeId, u32)>,
        /// Close a refused connection from inside the `Refused` handler.
        close_refused: bool,
    }

    impl NetHost for TestWorld {
        type Payload = u32;
        type Timer = NoEvent;

        fn on_timer(_sim: &mut NetSim<Self>, timer: NoEvent) {
            match timer {}
        }

        fn network(&mut self) -> &mut Network {
            &mut self.net
        }

        fn on_transport_event(sim: &mut NetSim<Self>, node: VNodeId, event: TransportEvent<u32>) {
            let now = sim.now();
            let label = match &event {
                TransportEvent::Connected { .. } => "connected".to_string(),
                TransportEvent::Refused { .. } => "refused".to_string(),
                TransportEvent::Accepted { .. } => "accepted".to_string(),
                TransportEvent::Message { payload, .. } => format!("data:{payload}"),
                TransportEvent::Datagram { payload, .. } => format!("dgram:{payload}"),
                TransportEvent::Closed { .. } => "closed".to_string(),
            };
            sim.world_mut().events.push((now, node, label));
            match event {
                TransportEvent::Message { payload, .. }
                | TransportEvent::Datagram { payload, .. } => {
                    sim.world_mut().received_payloads.push((node, payload));
                }
                TransportEvent::Refused { conn, .. } if sim.world().close_refused => {
                    Endpoint::new(node).close(sim, conn).unwrap();
                }
                _ => {}
            }
        }
    }

    /// Builds a world with `machines` physical nodes and `per_machine` DSL virtual nodes each.
    fn build_world(machines: usize, per_machine: usize, config: NetworkConfig) -> TestWorld {
        let topo = TopologySpec::uniform(
            "dsl",
            machines * per_machine,
            AccessLinkClass::bittorrent_dsl(),
        );
        let mut net = Network::new(config, topo);
        for m in 0..machines {
            let mid = net.add_machine(format!("pm{m}"), VirtAddr::new(192, 168, 38, m as u8 + 1));
            for _ in 0..per_machine {
                net.add_vnode(mid, GroupId(0)).unwrap();
            }
        }
        TestWorld {
            net,
            events: Vec::new(),
            received_payloads: Vec::new(),
            close_refused: false,
        }
    }

    fn remote(world: &TestWorld, node: VNodeId, port: u16) -> SocketAddr {
        SocketAddr::new(world.net.addr_of(node), port)
    }

    #[test]
    fn connect_and_exchange_data() {
        let world = build_world(2, 1, NetworkConfig::default());
        let peer = remote(&world, VNodeId(1), 6881);
        let mut sim: NetSim<TestWorld> = Simulation::new(world, 1);
        Endpoint::new(VNodeId(1)).bind(&mut sim, 6881).unwrap();
        let conn = Endpoint::new(VNodeId(0)).connect(&mut sim, peer).unwrap();
        sim.run();
        let labels: Vec<&str> = sim
            .world()
            .events
            .iter()
            .map(|(_, _, l)| l.as_str())
            .collect();
        assert!(labels.contains(&"accepted"));
        assert!(labels.contains(&"connected"));
        // Handshake takes roughly one round trip of the 30 ms + 30 ms access links.
        let connected_at = sim
            .world()
            .events
            .iter()
            .find(|(_, _, l)| l == "connected")
            .map(|(t, _, _)| *t)
            .unwrap();
        assert!(
            connected_at >= SimTime::from_millis(120),
            "connected at {connected_at}"
        );
        assert!(
            connected_at < SimTime::from_millis(300),
            "connected at {connected_at}"
        );

        // Now send data in both directions.
        let mut sim2 = sim;
        Endpoint::new(VNodeId(0))
            .send(&mut sim2, conn, LaneKind::ReliableOrdered, 1024, 7)
            .unwrap();
        sim2.run();
        assert!(sim2.world().received_payloads.contains(&(VNodeId(1), 7)));
        let c = sim2.world_mut().net.connection(conn).unwrap();
        assert_eq!(c.state, ConnState::Established);
        // Node 1 is the only receiver.
        assert_eq!(sim2.world().net.stats().bytes_delivered, 1024);
    }

    #[test]
    fn connection_refused_without_listener() {
        let world = build_world(2, 1, NetworkConfig::default());
        let peer = remote(&world, VNodeId(1), 6881);
        let mut sim: NetSim<TestWorld> = Simulation::new(world, 1);
        let conn = Endpoint::new(VNodeId(0)).connect(&mut sim, peer).unwrap();
        sim.run();
        let labels: Vec<&str> = sim
            .world()
            .events
            .iter()
            .map(|(_, _, l)| l.as_str())
            .collect();
        assert!(labels.contains(&"refused"));
        assert!(!labels.contains(&"connected"));
        // Refused and with nothing left in flight, the connection is released.
        assert!(sim.world().net.connection(conn).is_none());
    }

    #[test]
    fn closing_a_refused_connection_notifies_nobody() {
        let mut world = build_world(2, 1, NetworkConfig::default());
        world.close_refused = true;
        let peer = remote(&world, VNodeId(1), 6881);
        let mut sim: NetSim<TestWorld> = Simulation::new(world, 1);
        let conn = Endpoint::new(VNodeId(0)).connect(&mut sim, peer).unwrap();
        sim.run();
        // The far node never accepted the connection, so it hears nothing of the close.
        let seen: Vec<(VNodeId, &str)> = (sim.world().events.iter())
            .map(|(_, node, label)| (*node, label.as_str()))
            .collect();
        assert_eq!(seen, [(VNodeId(0), "refused")]);
        assert!(sim.world().net.connection(conn).is_none());
    }

    #[test]
    fn send_requires_established_connection() {
        let world = build_world(2, 1, NetworkConfig::default());
        let peer = remote(&world, VNodeId(1), 6881);
        let mut sim: NetSim<TestWorld> = Simulation::new(world, 1);
        Endpoint::new(VNodeId(1)).bind(&mut sim, 6881).unwrap();
        let conn = Endpoint::new(VNodeId(0)).connect(&mut sim, peer).unwrap();
        // Not yet established: the SYN has not even left.
        assert_eq!(
            Endpoint::new(VNodeId(0)).send(&mut sim, conn, LaneKind::ReliableOrdered, 10, 1),
            Err(NetError::NotEstablished(conn))
        );
        assert_eq!(
            Endpoint::new(VNodeId(0)).send(&mut sim, ConnId(999), LaneKind::ReliableOrdered, 10, 1),
            Err(NetError::UnknownConnection(ConnId(999)))
        );
    }

    #[test]
    fn oversized_message_rejected() {
        let world = build_world(2, 1, NetworkConfig::default());
        let peer = remote(&world, VNodeId(1), 6881);
        let mut sim: NetSim<TestWorld> = Simulation::new(world, 1);
        Endpoint::new(VNodeId(1)).bind(&mut sim, 6881).unwrap();
        let conn = Endpoint::new(VNodeId(0)).connect(&mut sim, peer).unwrap();
        sim.run();
        let max = sim.world_mut().net.config().max_message_bytes;
        assert_eq!(
            Endpoint::new(VNodeId(0)).send(&mut sim, conn, LaneKind::ReliableOrdered, max + 1, 1),
            Err(NetError::MessageTooLarge(max + 1))
        );
    }

    #[test]
    fn duplicate_listener_rejected() {
        let world = build_world(1, 2, NetworkConfig::default());
        let mut sim: NetSim<TestWorld> = Simulation::new(world, 1);
        Endpoint::new(VNodeId(0)).bind(&mut sim, 6881).unwrap();
        assert_eq!(
            Endpoint::new(VNodeId(0)).bind(&mut sim, 6881),
            Err(NetError::PortInUse(VNodeId(0), 6881))
        );
        // Same port on another node is fine.
        Endpoint::new(VNodeId(1)).bind(&mut sim, 6881).unwrap();
    }

    #[test]
    fn close_notifies_peer() {
        let world = build_world(2, 1, NetworkConfig::default());
        let peer = remote(&world, VNodeId(1), 6881);
        let mut sim: NetSim<TestWorld> = Simulation::new(world, 1);
        Endpoint::new(VNodeId(1)).bind(&mut sim, 6881).unwrap();
        let conn = Endpoint::new(VNodeId(0)).connect(&mut sim, peer).unwrap();
        sim.run();
        Endpoint::new(VNodeId(0)).close(&mut sim, conn).unwrap();
        // Closing again while the FIN is in flight is a no-op.
        Endpoint::new(VNodeId(0)).close(&mut sim, conn).unwrap();
        sim.run();
        let labels: Vec<&str> = sim
            .world()
            .events
            .iter()
            .map(|(_, _, l)| l.as_str())
            .collect();
        assert!(labels.contains(&"closed"));
        // Once the FIN is delivered nothing names the connection: it is released, and
        // closing it is an unknown-connection error.
        assert!(sim.world().net.connection(conn).is_none());
        assert_eq!(
            Endpoint::new(VNodeId(0)).close(&mut sim, conn),
            Err(NetError::UnknownConnection(conn))
        );
    }

    #[test]
    fn datagram_roundtrip_and_counters() {
        let world = build_world(2, 1, NetworkConfig::default());
        let peer = remote(&world, VNodeId(1), 9);
        let mut sim: NetSim<TestWorld> = Simulation::new(world, 1);
        Endpoint::new(VNodeId(0))
            .send_datagram(&mut sim, 9, peer, 100, 42)
            .unwrap();
        sim.run();
        assert!(sim.world().received_payloads.contains(&(VNodeId(1), 42)));
        let stats = sim.world_mut().net.stats();
        assert_eq!(stats.messages_delivered, 1);
        assert_eq!(stats.bytes_delivered, 100);
    }

    #[test]
    fn folded_nodes_still_see_emulated_latency() {
        // Two virtual nodes on the SAME physical machine: traffic must still traverse both
        // access links (the whole point of the decentralized emulation model).
        let world = build_world(1, 2, NetworkConfig::default());
        let peer = remote(&world, VNodeId(1), 9);
        let mut sim: NetSim<TestWorld> = Simulation::new(world, 1);
        Endpoint::new(VNodeId(0))
            .send_datagram(&mut sim, 9, peer, 100, 1)
            .unwrap();
        sim.run();
        let (t, _, _) = sim.world().events[0];
        // 30 ms up + 30 ms down plus serialization: at least 60 ms even though it never left
        // the machine.
        assert!(t >= SimTime::from_millis(60), "delivered at {t}");
    }

    #[test]
    fn same_machine_and_cross_machine_latency_are_close() {
        // The folding-invariance property at the single-message level: an emulated DSL link
        // dominates, so crossing the real cluster network adds only a negligible amount.
        let run = |machines: usize, per_machine: usize| {
            let world = build_world(machines, per_machine, NetworkConfig::default());
            let peer = remote(&world, VNodeId(1), 9);
            let mut sim: NetSim<TestWorld> = Simulation::new(world, 1);
            Endpoint::new(VNodeId(0))
                .send_datagram(&mut sim, 9, peer, 1000, 1)
                .unwrap();
            sim.run();
            sim.world().events[0].0.as_secs_f64()
        };
        let folded = run(1, 2);
        let spread = run(2, 1);
        assert!(
            (folded - spread).abs() < 0.002,
            "folded={folded} spread={spread}"
        );
    }

    #[test]
    fn lossy_link_retransmits_reliable_data() {
        let topo =
            TopologySpec::uniform("lossy", 2, AccessLinkClass::bittorrent_dsl().with_loss(0.4));
        let mut net = Network::new(NetworkConfig::default(), topo);
        let m0 = net.add_machine("pm0", VirtAddr::new(192, 168, 38, 1));
        let m1 = net.add_machine("pm1", VirtAddr::new(192, 168, 38, 2));
        net.add_vnode(m0, GroupId(0)).unwrap();
        net.add_vnode(m1, GroupId(0)).unwrap();
        let world = TestWorld {
            net,
            events: Vec::new(),
            received_payloads: Vec::new(),
            close_refused: false,
        };
        let peer = SocketAddr::new(VirtAddr::new(10, 0, 0, 2), 6881);
        let mut sim: NetSim<TestWorld> = Simulation::new(world, 3);
        Endpoint::new(VNodeId(1)).bind(&mut sim, 6881).unwrap();
        let conn = Endpoint::new(VNodeId(0)).connect(&mut sim, peer).unwrap();
        sim.run();
        assert_eq!(
            sim.world_mut().net.connection(conn).unwrap().state,
            ConnState::Established,
            "handshake must survive 40% loss via retransmission"
        );
        for i in 0..20 {
            Endpoint::new(VNodeId(0))
                .send(&mut sim, conn, LaneKind::ReliableOrdered, 1000, i)
                .unwrap();
        }
        sim.run();
        let received: Vec<u32> = sim
            .world()
            .received_payloads
            .iter()
            .filter(|(n, _)| *n == VNodeId(1))
            .map(|(_, p)| *p)
            .collect();
        assert_eq!(
            received.len(),
            20,
            "all reliable messages eventually delivered"
        );
        assert!(sim.world_mut().net.stats().retransmissions > 0);
    }

    #[test]
    fn datagrams_are_lost_on_lossy_links() {
        let topo =
            TopologySpec::uniform("lossy", 2, AccessLinkClass::bittorrent_dsl().with_loss(1.0));
        let mut net = Network::new(NetworkConfig::default(), topo);
        let m0 = net.add_machine("pm0", VirtAddr::new(192, 168, 38, 1));
        net.add_vnode(m0, GroupId(0)).unwrap();
        net.add_vnode(m0, GroupId(0)).unwrap();
        let world = TestWorld {
            net,
            events: Vec::new(),
            received_payloads: Vec::new(),
            close_refused: false,
        };
        let peer = SocketAddr::new(VirtAddr::new(10, 0, 0, 2), 9);
        let mut sim: NetSim<TestWorld> = Simulation::new(world, 3);
        Endpoint::new(VNodeId(0))
            .send_datagram(&mut sim, 9, peer, 100, 1)
            .unwrap();
        sim.run();
        assert!(sim.world().received_payloads.is_empty());
        assert_eq!(sim.world_mut().net.stats().messages_dropped, 1);
        // The unreliable drop is also visible on the dedicated datagram counter.
        assert_eq!(sim.world_mut().net.stats().datagrams_dropped, 1);
    }

    #[test]
    fn upload_bandwidth_limits_throughput() {
        // 10 x 16 KiB from a DSL node (128 kbps up): about 10.5 s of serialization.
        let world = build_world(2, 1, NetworkConfig::default());
        let peer = remote(&world, VNodeId(1), 6881);
        let mut sim: NetSim<TestWorld> = Simulation::new(world, 1);
        Endpoint::new(VNodeId(1)).bind(&mut sim, 6881).unwrap();
        let conn = Endpoint::new(VNodeId(0)).connect(&mut sim, peer).unwrap();
        sim.run();
        let start = sim.now();
        for i in 0..10 {
            Endpoint::new(VNodeId(0))
                .send(&mut sim, conn, LaneKind::ReliableOrdered, 16 * 1024, i)
                .unwrap();
        }
        sim.run();
        let last = sim
            .world()
            .events
            .iter()
            .filter(|(_, n, l)| *n == VNodeId(1) && l.starts_with("data"))
            .map(|(t, _, _)| *t)
            .max()
            .unwrap();
        let elapsed = (last - start).as_secs_f64();
        let ideal = 10.0 * (16.0 * 1024.0 + 40.0) * 8.0 / 128_000.0;
        assert!(elapsed > ideal * 0.95, "elapsed={elapsed} ideal={ideal}");
        assert!(elapsed < ideal * 1.15, "elapsed={elapsed} ideal={ideal}");
    }

    #[test]
    fn download_link_is_shared_between_senders() {
        // Two uploaders at 128 kbps each cannot exceed the receiver's 2 Mbps download link, but
        // together they roughly double the throughput seen from one uploader.
        let world = build_world(3, 1, NetworkConfig::default());
        let receiver_addr = remote(&world, VNodeId(2), 6881);
        let mut sim: NetSim<TestWorld> = Simulation::new(world, 1);
        Endpoint::new(VNodeId(2)).bind(&mut sim, 6881).unwrap();
        let c0 = Endpoint::new(VNodeId(0))
            .connect(&mut sim, receiver_addr)
            .unwrap();
        let c1 = Endpoint::new(VNodeId(1))
            .connect(&mut sim, receiver_addr)
            .unwrap();
        sim.run();
        for i in 0..5 {
            Endpoint::new(VNodeId(0))
                .send(&mut sim, c0, LaneKind::ReliableOrdered, 16 * 1024, i)
                .unwrap();
            Endpoint::new(VNodeId(1))
                .send(&mut sim, c1, LaneKind::ReliableOrdered, 16 * 1024, 100 + i)
                .unwrap();
        }
        sim.run();
        assert_eq!(
            sim.world()
                .received_payloads
                .iter()
                .filter(|(n, _)| *n == VNodeId(2))
                .count(),
            10
        );
        // Node 2 is the only receiver.
        assert_eq!(sim.world().net.stats().bytes_delivered, 10 * 16 * 1024);
    }

    #[test]
    fn disabling_interception_bypasses_upload_shaping() {
        // Without the BINDIP shim the connection is attributed to the physical node's admin
        // address, so the virtual node's outgoing dummynet rule never matches and upload shaping
        // is lost — the mechanism the paper's libc modification exists to provide.
        let config = NetworkConfig {
            intercept: crate::intercept::InterceptConfig::disabled(),
            ..NetworkConfig::default()
        };
        let run = |config: NetworkConfig| {
            let world = build_world(2, 1, config);
            let peer = remote(&world, VNodeId(1), 6881);
            let mut sim: NetSim<TestWorld> = Simulation::new(world, 1);
            Endpoint::new(VNodeId(1)).bind(&mut sim, 6881).unwrap();
            let conn = Endpoint::new(VNodeId(0)).connect(&mut sim, peer).unwrap();
            sim.run();
            let start = sim.now();
            for i in 0..10 {
                Endpoint::new(VNodeId(0))
                    .send(&mut sim, conn, LaneKind::ReliableOrdered, 16 * 1024, i)
                    .unwrap();
            }
            sim.run();
            let last = sim
                .world()
                .events
                .iter()
                .filter(|(_, n, l)| *n == VNodeId(1) && l.starts_with("data"))
                .map(|(t, _, _)| *t)
                .max()
                .unwrap();
            (last - start).as_secs_f64()
        };
        let with_shim = run(NetworkConfig::default());
        let without_shim = run(config);
        assert!(
            with_shim > 5.0 * without_shim,
            "with={with_shim} without={without_shim}"
        );
    }
}
