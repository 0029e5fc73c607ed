//! The protocol-depth layer: fragmentation, ack-bitfield reliability and congestion control.
//!
//! Real transports do three things the paper's whole-message stream does not: they **fragment**
//! application messages to a maximum transmission unit, they **acknowledge** received fragments
//! with sequence-number bitfields so the sender can retransmit selectively, and they **adapt
//! their send rate** to observed loss and delay. This module adds all three underneath an
//! [`Endpoint`](crate::endpoint::Endpoint)'s connections:
//!
//! * [`frag`] — MTU fragmentation planning and the receive-side [`Reassembler`] with
//!   at-most-once completion;
//! * [`ack`] — wrapping 16-bit sequence numbers, the receive-side [`AckTracker`] producing
//!   [`AckBitfield`]s, and the send-side [`SentWindow`] that turns returning acks into RTT
//!   samples;
//! * [`cc`] — the [`Aimd`] congestion controller (slow start + additive increase /
//!   multiplicative decrease, applied as pacing); under [`CcKind::Legacy`] a direction holds no
//!   controller and never paces — **wire-identical** to the pre-protocol data plane;
//! * [`condition`] — composable link conditioners (jitter, reordering, duplication and
//!   Gilbert–Elliott burst loss) stacked on [`Pipe`](crate::pipe::Pipe)s by
//!   [`LinkCondition`].
//!
//! The layer is **off by default**: with [`TransportConfig::default`] (no MTU, `Legacy`
//! congestion control) every send takes the historical single-frame path, drawing the same
//! random numbers and scheduling the same events — the fig10 byte-identity pin stays green.
//! Setting an MTU or choosing a non-legacy controller activates the fragment/ack wire path for
//! connections (connectionless datagrams never fragment).

pub mod ack;
pub mod cc;
pub mod condition;
pub mod frag;

pub use ack::{seq_newer, AckBitfield, AckTracker, SentWindow};
pub use cc::{Aimd, CcKind};
pub use condition::{BurstLoss, LinkCondition};
pub use frag::{fragment_count, fragment_size, FragOutcome, Reassembler, FRAG_HEADER_BYTES};

use p2plab_sim::SimTime;

/// Protocol-depth configuration of the transport, carried inside
/// [`NetworkConfig`](crate::network::NetworkConfig).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransportConfig {
    /// Maximum fragment payload in bytes. `None` disables fragmentation (whole messages travel
    /// as one frame, the historical behaviour). Must be at least
    /// [`MAX_MESSAGE_BYTES`](crate::transport::MAX_MESSAGE_BYTES)` / u16::MAX` so fragment
    /// counts fit the 16-bit wire header; the scenario DSL enforces a floor of 64 bytes.
    pub mtu: Option<u64>,
    /// The congestion controller applied per connection direction.
    pub congestion: CcKind,
}

impl Default for TransportConfig {
    fn default() -> Self {
        TransportConfig {
            mtu: None,
            congestion: CcKind::Legacy,
        }
    }
}

impl TransportConfig {
    /// Whether the protocol-depth wire path is active. With the default configuration (no MTU,
    /// legacy congestion control) sends take the historical single-frame path unchanged.
    pub fn active(&self) -> bool {
        self.mtu.is_some() || self.congestion != CcKind::Legacy
    }
}

/// A connection's sender-side protocol state for one flow direction.
#[derive(Debug, Clone, Default)]
pub struct StreamSend {
    /// Next wire sequence number to assign.
    pub next_seq: u16,
    /// Next message (reassembly) id to assign.
    pub next_msg: u16,
    /// Outstanding fragments awaiting acknowledgement.
    pub window: SentWindow,
}

/// A connection's receiver-side protocol state for one flow direction.
#[derive(Debug, Clone, Default)]
pub struct StreamRecv {
    /// Received-sequence tracker producing ack bitfields.
    pub ack: AckTracker,
    /// Fragment reassembly state.
    pub assembly: Reassembler,
}

/// Send + receive protocol state of a connection's stream in one flow direction.
#[derive(Debug, Clone, Default)]
pub struct StreamProto {
    /// Sender-side state (owned by the node transmitting in this direction).
    pub send: StreamSend,
    /// Receiver-side state (owned by the node receiving in this direction).
    pub recv: StreamRecv,
}

/// Protocol state of one **flow direction** of a connection: the sender's pacing clock and
/// congestion controller plus the stream's sequence/window/reassembly state.
#[derive(Debug, Clone)]
pub struct ProtoHalf {
    /// The sender may not release the next fragment before this time (pacing under the
    /// congestion controller; stays at [`SimTime::ZERO`] without one).
    pub pace_until: SimTime,
    /// The congestion controller of this direction: `None` under [`CcKind::Legacy`], which
    /// inserts no spacing and reacts to no ack or loss.
    pub cc: Option<Aimd>,
    /// The stream's protocol state, allocated by the first fragment or ack in this direction.
    stream: Option<Box<StreamProto>>,
}

impl ProtoHalf {
    fn new(kind: CcKind) -> ProtoHalf {
        ProtoHalf {
            pace_until: SimTime::ZERO,
            cc: (kind == CcKind::Aimd).then(Aimd::default),
            stream: None,
        }
    }

    /// The stream's protocol state, allocated on first use.
    pub(crate) fn stream_mut(&mut self) -> &mut StreamProto {
        self.stream.get_or_insert_with(Default::default)
    }

    /// The congestion controller together with the stream's state: an ack credits the one
    /// from the other's sender window.
    pub(crate) fn cc_and_stream(&mut self) -> (&mut Option<Aimd>, &mut StreamProto) {
        let stream = self.stream.get_or_insert_with(Default::default);
        (&mut self.cc, stream)
    }

    /// This direction's congestion window in bytes, for metrics: `u64::MAX` (effectively
    /// unbounded, as the historical transport pushed every frame at once) without a controller.
    pub(crate) fn cwnd_bytes(&self) -> u64 {
        self.cc.as_ref().map_or(u64::MAX, Aimd::cwnd_bytes)
    }
}

/// Protocol state of one connection: one [`ProtoHalf`] per flow direction.
///
/// Direction `0` is client → server, direction `1` is server → client (see
/// [`flow_dir`]). The state lives in a side table on the
/// [`Network`](crate::network::Network) — the simulation is omniscient, so sender and receiver
/// state of one direction can share a record without modelling any extra wire traffic.
#[derive(Debug, Clone)]
pub struct ProtoConn {
    /// The two flow directions.
    pub halves: [ProtoHalf; 2],
}

// One per connection that carried a fragment; the stream's state is a separate allocation.
const _: () = assert!(std::mem::size_of::<ProtoConn>() <= 112);

impl ProtoConn {
    /// Fresh protocol state with both directions using the given congestion controller.
    pub fn new(kind: CcKind) -> ProtoConn {
        ProtoConn {
            halves: [ProtoHalf::new(kind), ProtoHalf::new(kind)],
        }
    }
}

/// The flow-direction index of data sent by `sender_is_client` (0 = client → server).
pub fn flow_dir(sender_is_client: bool) -> usize {
    usize::from(!sender_is_client)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_inactive() {
        let cfg = TransportConfig::default();
        assert!(!cfg.active());
        assert!(TransportConfig {
            mtu: Some(1500),
            ..cfg
        }
        .active());
        assert!(TransportConfig {
            congestion: CcKind::Aimd,
            ..cfg
        }
        .active());
    }

    #[test]
    fn flow_dir_convention() {
        assert_eq!(flow_dir(true), 0);
        assert_eq!(flow_dir(false), 1);
    }

    #[test]
    fn proto_conn_initial_state() {
        let mut p = ProtoConn::new(CcKind::Aimd);
        assert_eq!(p.halves[0].pace_until, SimTime::ZERO);
        let allocated = |p: &ProtoConn| p.halves.each_ref().map(|h| h.stream.is_some());
        assert_eq!(allocated(&p), [false; 2], "no stream is allocated up front");
        let stream = p.halves[0].stream_mut();
        assert_eq!(stream.send.next_seq, 0);
        assert_eq!(stream.send.next_msg, 0);
        stream.send.next_seq = 7;
        // First use allocates that direction's stream alone, and later lookups find the same
        // state.
        assert_eq!(p.halves[0].cc_and_stream().1.send.next_seq, 7);
        assert_eq!(allocated(&p), [true, false]);
    }
}
