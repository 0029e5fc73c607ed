//! # p2plab-bittorrent — the studied application
//!
//! The paper evaluates P2PLab by running the real BitTorrent client on hundreds to thousands of
//! emulated nodes. This crate is a protocol-complete BitTorrent implementation (tracker, peer
//! wire protocol, rarest-first piece selection, tit-for-tat choking with optimistic unchoke,
//! endgame mode, post-completion seeding) that runs over the emulated network of `p2plab-net`,
//! playing the role of the BitTorrent 4.0.4 client used in the paper.
//!
//! The entry point for experiments is [`SwarmWorld`]; the deployment and figure-level harnesses
//! live in `p2plab-core` and `p2plab-bench`.

#![warn(missing_docs)]

pub mod bitfield;
pub mod choke;
pub mod client;
pub mod messages;
pub mod piece;
pub mod swarm;
pub mod torrent;
pub mod tracker;

pub use bitfield::Bitfield;
pub use choke::{no_choking, ChokeConfig, Choker, PeerSnapshot};
pub use client::{Client, ClientStats, PeerConn, PeerTable};
pub use messages::{AnnounceEvent, BtPayload, PeerId, PeerMessage, TrackerMessage};
pub use piece::{BlockOutcome, PieceManager};
pub use swarm::{
    schedule_client_start, schedule_client_starts, start_client, stop_client, SwarmSim, SwarmTimer,
    SwarmWorld,
};
pub use torrent::{Torrent, DEFAULT_BLOCK_SIZE, DEFAULT_PIECE_SIZE};
pub use tracker::{Tracker, TrackerStats, TRACKER_PORT};
