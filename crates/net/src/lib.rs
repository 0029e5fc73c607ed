//! # p2plab-net — the network-emulation substrate
//!
//! This crate models the part of P2PLab that makes many folded virtual nodes "look like real
//! separate nodes from the outside": one IP address per virtual node (an interface alias beside
//! its machine's administration address), a libc interception shim that binds each process to
//! its own address, and a decentralized Dummynet/IPFW network model where every physical machine
//! shapes the traffic of the virtual nodes it hosts (access-link bandwidth/latency/loss plus
//! inter-group latency).
//!
//! Layers, from bottom to top:
//!
//! * [`addr`] — virtual IPv4 addressing;
//! * [`pipe`] — dummynet pipes;
//! * [`firewall`] — the linear IPFW rule walk, the reference for the network's closed-form
//!   classification;
//! * [`topology`] — the edge-centric topology description (groups + access links);
//! * [`network`] — per-machine/per-node data-plane state;
//! * [`transport`] — the frame-level data plane walking the emulated path, and the
//!   [`Endpoint`] operations that start it;
//! * [`lane`], [`endpoint`] — the node-facing session API: per-vnode [`Endpoint`] handles,
//!   connections carrying typed [`LaneKind`] lanes;
//! * [`proto`] — protocol depth under the lanes: MTU fragmentation, ack-bitfield
//!   reliability, pluggable congestion control and composable link conditioners;
//! * [`rpc`] — typed request/response calls with timeout and bounded retries over the
//!   unreliable lane;
//! * [`intercept`] — the BINDIP libc shim and its cost model;
//! * [`ping`](mod@ping) — the echo application used by the accuracy experiments.
//!
//! Protocol code talks to [`endpoint::Endpoint`] (and [`rpc`] for request/response patterns):
//! these are the only node-facing API.

#![warn(missing_docs)]

pub mod addr;
pub mod endpoint;
pub mod firewall;
pub mod intercept;
pub mod lane;
pub mod network;
pub mod ping;
pub mod pipe;
pub mod proto;
pub mod rpc;
pub mod tamper;
pub mod topology;
pub mod transport;

pub use addr::{AddrParseError, SocketAddr, Subnet, VirtAddr};
pub use endpoint::Endpoint;
pub use firewall::{Classification, Direction, Firewall, Rule, RuleAction};
pub use intercept::InterceptConfig;
pub use lane::LaneKind;
pub use network::{
    ConnId, ConnState, Connection, MachineId, MachineNet, NetError, NetStats, Network,
    NetworkConfig, VNodeId, VNodeNet,
};
pub use ping::{ping, ping_series, PingPayload, PingTimer, PingWorld, ECHO_PORT};
pub use pipe::{DropReason, EnqueueOutcome, Pipe, PipeConfig, PipeId, Shaping};
pub use proto::{
    Aimd, BurstLoss, CcKind, CongestionController, FragHeader, Legacy, LinkCondition,
    TransportConfig,
};
pub use rpc::{RpcConfig, RpcHost, RpcId, RpcOutcome, RpcPayload, RpcStats, RpcTable, RpcTimeout};
pub use tamper::{Misbehavior, TamperSpec};
pub use topology::{AccessLinkClass, GroupId, GroupSpec, TopologySpec};
pub use transport::{InFlight, NetEvent, NetHost, NetSim, TransportEvent};
