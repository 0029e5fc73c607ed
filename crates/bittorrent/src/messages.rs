//! The BitTorrent peer wire protocol and tracker protocol messages.
//!
//! Only the size of each message matters to the emulation (the data plane charges bandwidth for
//! the bytes on the wire); payload contents are the minimum needed to drive the protocol state
//! machines. Message types and sizes follow the BitTorrent 4.x mainline client the paper uses.

use crate::bitfield::Bitfield;
use p2plab_net::SocketAddr;

/// Identifier of a participant (client or seeder) in a swarm.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PeerId(pub u32);

/// Peer wire protocol messages.
#[derive(Debug, Clone, PartialEq)]
pub enum PeerMessage {
    /// The 68-byte handshake (protocol string, info hash, peer id).
    Handshake {
        /// The sender's peer id.
        peer_id: PeerId,
    },
    /// The sender's complete piece bitfield, sent right after the handshake.
    Bitfield(Box<Bitfield>),
    /// The sender acquired a complete, verified piece.
    Have(u32),
    /// The sender will not answer requests.
    Choke,
    /// The sender will answer requests.
    Unchoke,
    /// The sender wants pieces the receiver has.
    Interested,
    /// The sender no longer wants anything from the receiver.
    NotInterested,
    /// Request one block.
    Request {
        /// Piece index.
        piece: u32,
        /// Block index within the piece.
        block: u32,
    },
    /// One block of data.
    Piece {
        /// Piece index.
        piece: u32,
        /// Block index within the piece.
        block: u32,
        /// Number of payload bytes.
        data_len: u32,
        /// Whether the payload fails the receiver's piece-hash check (a byzantine sender's
        /// corruption marker — the emulation carries no real data, so the hash outcome rides
        /// the message; wire size is unchanged, honest senders always send `false`).
        corrupt: bool,
    },
    /// Cancel an outstanding request (endgame mode).
    Cancel {
        /// Piece index.
        piece: u32,
        /// Block index within the piece.
        block: u32,
    },
    /// Keep-alive (no-op).
    KeepAlive,
}

impl PeerMessage {
    /// Bytes of the message on the wire (length prefix + id + payload).
    pub fn wire_size(&self) -> u64 {
        match self {
            PeerMessage::Handshake { .. } => 68,
            PeerMessage::Bitfield(b) => 5 + b.wire_bytes(),
            PeerMessage::Have(_) => 9,
            PeerMessage::Choke
            | PeerMessage::Unchoke
            | PeerMessage::Interested
            | PeerMessage::NotInterested => 5,
            PeerMessage::Request { .. } | PeerMessage::Cancel { .. } => 17,
            PeerMessage::Piece { data_len, .. } => 13 + *data_len as u64,
            PeerMessage::KeepAlive => 4,
        }
    }
}

/// Announce events, as in the HTTP tracker protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnnounceEvent {
    /// First announce of a session.
    Started,
    /// The download finished.
    Completed,
    /// The client is leaving the swarm.
    Stopped,
    /// Periodic re-announce.
    Periodic,
}

/// Tracker protocol messages.
#[derive(Debug, Clone, PartialEq)]
pub enum TrackerMessage {
    /// Client-to-tracker announce.
    Announce {
        /// The announcing peer.
        peer_id: PeerId,
        /// Port the peer listens on.
        port: u16,
        /// Announce event.
        event: AnnounceEvent,
        /// Number of peers requested.
        numwant: usize,
    },
    /// Tracker-to-client response: a random subset of the swarm.
    Response {
        /// Peer addresses to try.
        peers: Vec<SocketAddr>,
        /// Re-announce interval hint, in seconds.
        interval_secs: u32,
    },
}

impl TrackerMessage {
    /// Approximate bytes of the message on the wire (HTTP GET / bencoded response).
    pub fn wire_size(&self) -> u64 {
        match self {
            TrackerMessage::Announce { .. } => 250,
            TrackerMessage::Response { peers, .. } => 80 + 6 * peers.len() as u64,
        }
    }
}

/// Everything the BitTorrent world sends over the emulated network.
#[derive(Debug, Clone, PartialEq)]
pub enum BtPayload {
    /// Peer wire protocol traffic.
    Peer(PeerMessage),
    /// Tracker traffic: well under 1 % of messages, boxed so that its peer list does not widen
    /// every in-flight peer message.
    Tracker(Box<TrackerMessage>),
}

// The payload rides inline in every queued packet event of a swarm; a variant wider than a
// peer message grows each of them.
const _: () = assert!(std::mem::size_of::<BtPayload>() == 16);

impl BtPayload {
    /// Bytes on the wire.
    pub fn wire_size(&self) -> u64 {
        match self {
            BtPayload::Peer(m) => m.wire_size(),
            BtPayload::Tracker(m) => m.wire_size(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2plab_net::VirtAddr;

    #[test]
    fn wire_sizes_match_protocol() {
        assert_eq!(
            PeerMessage::Handshake { peer_id: PeerId(1) }.wire_size(),
            68
        );
        assert_eq!(PeerMessage::Have(3).wire_size(), 9);
        assert_eq!(PeerMessage::Choke.wire_size(), 5);
        assert_eq!(PeerMessage::Request { piece: 0, block: 0 }.wire_size(), 17);
        assert_eq!(
            PeerMessage::Piece {
                piece: 0,
                block: 0,
                data_len: 16384,
                corrupt: false
            }
            .wire_size(),
            16384 + 13
        );
        assert_eq!(
            PeerMessage::Bitfield(Box::new(Bitfield::new(64))).wire_size(),
            13
        );
        assert_eq!(PeerMessage::KeepAlive.wire_size(), 4);
    }

    #[test]
    fn piece_messages_dominate_traffic() {
        // Sanity: a block message is two orders of magnitude larger than control traffic,
        // which is why the paper can treat the access link as the bottleneck.
        let piece = PeerMessage::Piece {
            piece: 0,
            block: 0,
            data_len: 16384,
            corrupt: false,
        }
        .wire_size();
        let control = PeerMessage::Request { piece: 0, block: 0 }.wire_size();
        assert!(piece > 100 * control);
    }

    #[test]
    fn tracker_response_grows_with_peer_count() {
        let peers: Vec<SocketAddr> = (0..50)
            .map(|i| SocketAddr::new(VirtAddr::new(10, 0, 0, i as u8 + 1), 6881))
            .collect();
        let small = TrackerMessage::Response {
            peers: peers[..5].to_vec(),
            interval_secs: 120,
        };
        let large = TrackerMessage::Response {
            peers,
            interval_secs: 120,
        };
        assert!(large.wire_size() > small.wire_size());
        assert_eq!(
            BtPayload::Tracker(Box::new(small.clone())).wire_size(),
            small.wire_size()
        );
    }
}
