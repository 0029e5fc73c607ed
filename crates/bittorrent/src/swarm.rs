//! The swarm world: BitTorrent clients and a tracker wired onto the emulated network.
//!
//! [`SwarmWorld`] is the [`NetHost`] used by every BitTorrent experiment in the paper's
//! evaluation: it owns the emulated [`Network`], one [`Client`] per participating virtual node
//! and the [`Tracker`], and it dispatches socket events to the protocol logic. Experiments are
//! driven by scheduling client starts ([`schedule_client_start`], or [`schedule_client_starts`]
//! for a whole arrival schedule) and running the simulation; per-client progress logs and
//! global counters are read back afterwards. A client's start and its periodic choker and
//! tracker rounds are [`SwarmTimer`]s; the rounds of all clients are two periodic series, one
//! pending event each.

use crate::bitfield::Bitfield;
use crate::choke::{ChokeConfig, PeerSnapshot};
use crate::client::{
    Client, PeerConn, CHOKE_INTERVAL, LISTEN_PORT, MAX_CONNECTIONS, MAX_INITIATE, MIN_PEERS,
    NUMWANT, RATE_WINDOW, TRACKER_INTERVAL,
};
use crate::messages::{AnnounceEvent, BtPayload, PeerId, PeerMessage, TrackerMessage};
use crate::piece::BlockOutcome;
use crate::torrent::Torrent;
use crate::tracker::Tracker;
use p2plab_net::{
    ConnId, Endpoint, LaneKind, NetEvent, NetHost, NetSim, Network, SocketAddr, TransportEvent,
    VNodeId,
};
use p2plab_sim::{PeriodicSeries, SimTime, TimeSeries};

/// The world of a BitTorrent experiment.
pub struct SwarmWorld {
    /// The emulated network.
    pub net: Network,
    /// All clients (downloaders and seeders).
    pub clients: Vec<Client>,
    /// The tracker.
    pub tracker: Tracker,
    /// Dense vnode → client index lookup (vnode ids are dense arena indices).
    vnode_to_client: Vec<Option<u32>>,
    /// Number of clients added as downloaders (`!initial_seeder`).
    downloaders: usize,
    /// Downloaders that have completed. Kept incrementally: `swarm_finished` is consulted by
    /// every client's periodic timers, so a scan over all clients here would make each timer
    /// tick O(swarm size) — quadratic per round at 10^4 clients. Debug builds recount it where
    /// it changes and once per sample ([`SwarmWorld::check_completed_count`]), never on a read.
    completed_downloaders: usize,
    /// Every armed choker round as `(idx, generation)`: the client and its timer generation
    /// when the round was armed.
    choke_rounds: PeriodicSeries<(usize, u64)>,
    /// Every armed tracker re-announce, as `choke_rounds`.
    tracker_rounds: PeriodicSeries<(usize, u64)>,
    /// The arrival series' start instants, non-decreasing: arrival `k` starts client
    /// `first_arrival + k` at `arrivals[k]`, under rank `arrival_rank + k`.
    arrivals: Vec<SimTime>,
    /// The client arrival 0 starts.
    first_arrival: usize,
    /// The rank reserved for arrival 0.
    arrival_rank: u64,
    // Reused buffers, one set for the whole swarm: each is taken by one handler and put back
    // before it returns (a nested take would find an empty buffer, which costs an allocation
    // and nothing else).
    /// The choker-round snapshot.
    snapshot_scratch: Vec<PeerSnapshot>,
    /// The blocks one request transition picks.
    request_scratch: Vec<(u32, u32)>,
    /// The peers a choker round unchokes.
    unchoke_scratch: Vec<ConnId>,
    /// The addresses one round of outgoing connection attempts picks from.
    connect_scratch: Vec<SocketAddr>,
}

impl SwarmWorld {
    /// Creates a swarm world with a tracker hosted on `tracker_vnode`.
    pub fn new(net: Network, tracker_vnode: VNodeId) -> SwarmWorld {
        let vnode_to_client = vec![None; net.vnode_count()];
        SwarmWorld {
            net,
            clients: Vec::new(),
            tracker: Tracker::new(tracker_vnode),
            vnode_to_client,
            downloaders: 0,
            completed_downloaders: 0,
            choke_rounds: PeriodicSeries::new(CHOKE_INTERVAL),
            tracker_rounds: PeriodicSeries::new(TRACKER_INTERVAL),
            arrivals: Vec::new(),
            first_arrival: 0,
            arrival_rank: 0,
            snapshot_scratch: Vec::new(),
            request_scratch: Vec::new(),
            unchoke_scratch: Vec::new(),
            connect_scratch: Vec::new(),
        }
    }

    /// The tracker's socket address on the emulated network.
    pub fn tracker_addr(&self) -> SocketAddr {
        SocketAddr::new(self.net.addr_of(self.tracker.vnode), self.tracker.port)
    }

    /// Adds a client on `vnode` that chokes by `choke`. `complete` makes it an initial seeder.
    /// Returns its index.
    pub fn add_client(
        &mut self,
        vnode: VNodeId,
        torrent: Torrent,
        complete: bool,
        choke: ChokeConfig,
    ) -> usize {
        let idx = self.clients.len();
        let tracker_addr = self.tracker_addr();
        self.clients.push(Client::new(
            PeerId(idx as u32),
            vnode,
            torrent,
            complete,
            tracker_addr,
            choke,
        ));
        if self.vnode_to_client.len() <= vnode.0 {
            self.vnode_to_client.resize(vnode.0 + 1, None);
        }
        self.vnode_to_client[vnode.0] = Some(idx as u32);
        if !complete {
            self.downloaders += 1;
        }
        idx
    }

    /// The client running on a virtual node, if any.
    pub fn client_on(&self, vnode: VNodeId) -> Option<usize> {
        self.vnode_to_client
            .get(vnode.0)
            .copied()
            .flatten()
            .map(|i| i as usize)
    }

    /// Number of downloaders that have completed.
    pub fn completed_count(&self) -> usize {
        self.completed_downloaders
    }

    /// Asserts, in debug builds, that the incremental completion count equals a recount of the
    /// downloaders whose `completed_at` is set. The completion path runs it where the count
    /// changes, and a runner's sampler once per sample; release builds compile it out.
    pub fn check_completed_count(&self) {
        debug_assert_eq!(
            self.completed_downloaders,
            self.downloaders()
                .filter(|c| c.completed_at.is_some())
                .count(),
            "incremental completion count drifted"
        );
    }

    /// True once every downloader has finished (vacuously true with no downloaders).
    /// O(1): maintained by the completion path, not recomputed.
    pub fn swarm_finished(&self) -> bool {
        self.completed_count() >= self.downloaders
    }

    /// Sum of application bytes downloaded by all clients (the quantity of Figure 9).
    pub fn total_bytes_downloaded(&self) -> u64 {
        self.clients.iter().map(|c| c.stats.bytes_downloaded).sum()
    }

    /// Sum of application bytes uploaded by all clients.
    pub fn total_bytes_uploaded(&self) -> u64 {
        self.clients.iter().map(|c| c.stats.bytes_uploaded).sum()
    }

    /// The downloaders — every client but the initial seeders — in the order they were added.
    pub fn downloaders(&self) -> impl Iterator<Item = &Client> {
        self.clients.iter().filter(|c| !c.initial_seeder)
    }

    /// Completion times of all finished downloaders, sorted.
    pub fn completion_times(&self) -> Vec<SimTime> {
        let mut times: Vec<SimTime> = self.downloaders().filter_map(|c| c.completed_at).collect();
        times.sort();
        times
    }

    /// The "clients having completed their download" step curve of Figure 11.
    pub fn completion_curve(&self) -> TimeSeries {
        let mut series = TimeSeries::new();
        series.push(SimTime::ZERO, 0.0);
        for (i, t) in self.completion_times().into_iter().enumerate() {
            series.push(t, (i + 1) as f64);
        }
        series
    }
}

/// The simulation type every BitTorrent experiment runs on: [`SwarmWorld`] with the network
/// substrate's [`NetEvent`] class.
pub type SwarmSim = NetSim<SwarmWorld>;

/// The timers of a [`SwarmWorld`]. A periodic round's member carries the client's timer
/// generation at the start that armed it: a round of an earlier session (the client churned
/// away and came back) finds a newer generation and stops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SwarmTimer {
    /// Client `idx` starts ([`start_client`]).
    Start(usize),
    /// Arrival `k` of the series [`schedule_client_starts`] armed: its client starts, and the
    /// next arrival is armed.
    Arrive(usize),
    /// The choker round of the client at the front of the world's choker series.
    Choke,
    /// The tracker re-announce of the client at the front of the world's tracker series.
    Tracker,
}

// A swarm's queue slot holds this event inline; growing it slows every packet hop.
const _: () = assert!(std::mem::size_of::<NetEvent<BtPayload, SwarmTimer>>() <= 88);

impl NetHost for SwarmWorld {
    type Payload = BtPayload;
    type Timer = SwarmTimer;

    fn network(&mut self) -> &mut Network {
        &mut self.net
    }

    fn on_transport_event(sim: &mut SwarmSim, node: VNodeId, event: TransportEvent<BtPayload>) {
        if node == sim.world().tracker.vnode {
            handle_tracker_event(sim, event);
        } else if let Some(idx) = sim.world().client_on(node) {
            handle_client_event(sim, idx, event);
        }
    }

    fn on_timer(sim: &mut SwarmSim, timer: SwarmTimer) {
        match timer {
            SwarmTimer::Start(idx) => start_client(sim, idx),
            SwarmTimer::Arrive(k) => {
                arm_arrival(sim, k + 1);
                let idx = sim.world().first_arrival + k;
                start_client(sim, idx);
            }
            SwarmTimer::Choke => {
                let (idx, generation) = sim.pop_periodic(|w| &mut w.choke_rounds, CHOKE);
                choke_round(sim, idx, generation);
            }
            SwarmTimer::Tracker => {
                let (idx, generation) = sim.pop_periodic(|w| &mut w.tracker_rounds, TRACKER);
                periodic_announce(sim, idx, generation);
            }
        }
    }
}

/// The head event of a [`SwarmWorld`]'s choker series.
const CHOKE: NetEvent<BtPayload, SwarmTimer> = NetEvent::Timer(SwarmTimer::Choke);
/// The head event of a [`SwarmWorld`]'s tracker series.
const TRACKER: NetEvent<BtPayload, SwarmTimer> = NetEvent::Timer(SwarmTimer::Tracker);

/// Schedules a client to start at `at` (the paper starts clients at fixed intervals).
pub fn schedule_client_start(sim: &mut SwarmSim, idx: usize, at: SimTime) {
    sim.schedule_event_at(at, NetEvent::Timer(SwarmTimer::Start(idx)));
}

/// Schedules clients `first`, `first + 1`, … to start at the non-decreasing instants `at`, as
/// a ranked series: one pending event at a time, in the order scheduling every start here
/// would give.
pub fn schedule_client_starts(sim: &mut SwarmSim, first: usize, at: &[SimTime]) {
    let arrival_rank = sim.reserve_ranks(at.len() as u64);
    let world = sim.world_mut();
    world.arrivals = at.to_vec();
    world.first_arrival = first;
    world.arrival_rank = arrival_rank;
    arm_arrival(sim, 0);
}

/// Schedules arrival `k`, if the series has one, at its instant and its reserved rank.
fn arm_arrival(sim: &mut SwarmSim, k: usize) {
    let world = sim.world();
    let Some(&at) = world.arrivals.get(k) else {
        return;
    };
    let rank = world.arrival_rank + k as u64;
    sim.schedule_event_ranked(at, rank, NetEvent::Timer(SwarmTimer::Arrive(k)));
}

/// Starts (or restarts, after churn) a client: bind + listen, announce to the tracker, start
/// the choker and re-announce timers. Restarting keeps the pieces already downloaded, as a real
/// client restarted on the same download directory would.
pub fn start_client(sim: &mut SwarmSim, idx: usize) {
    let now = sim.now();
    let (vnode, already_online) = {
        let client = &mut sim.world_mut().clients[idx];
        let already_online = client.online;
        client.online = true;
        if client.started_at.is_none() {
            client.started_at = Some(now);
        }
        let percent = client.percent_done();
        client.progress.push(now, percent);
        (client.vnode, already_online)
    };
    if already_online {
        return;
    }
    let generation = {
        let client = &mut sim.world_mut().clients[idx];
        client.timer_generation += 1;
        client.timer_generation
    };
    let _ = Endpoint::new(vnode).bind(sim, LISTEN_PORT);
    announce(sim, idx, AnnounceEvent::Started);

    sim.push_periodic(|w| &mut w.choke_rounds, (idx, generation), CHOKE);
    sim.push_periodic(|w| &mut w.tracker_rounds, (idx, generation), TRACKER);
}

/// Stops a client (session end under churn, or the end of an experiment): announces `Stopped`,
/// closes every peer connection, and lets its timers stop at the next tick.
pub fn stop_client(sim: &mut SwarmSim, idx: usize) {
    if !sim.world().clients[idx].online {
        return;
    }
    announce(sim, idx, AnnounceEvent::Stopped);
    let vnode = {
        let client = &mut sim.world_mut().clients[idx];
        client.online = false;
        client.connecting.clear();
        client.vnode
    };
    // Lowest `ConnId` first: each drop empties slot 0 for the next.
    while let Some(&conn) = sim.world().clients[idx].peers.conns().first() {
        let _ = Endpoint::new(vnode).close(sim, conn);
        drop_peer(sim, idx, 0);
    }
}

fn handle_tracker_event(sim: &mut SwarmSim, event: TransportEvent<BtPayload>) {
    let TransportEvent::Datagram {
        from,
        payload: BtPayload::Tracker(msg),
        ..
    } = event
    else {
        return;
    };
    let TrackerMessage::Announce {
        peer_id,
        port,
        event,
        numwant,
    } = *msg
    else {
        return;
    };
    let now = sim.now();
    let (world, rng) = sim.world_and_rng();
    let peer_addr = SocketAddr::new(from.addr, port);
    let peers = world
        .tracker
        .handle_announce(now, peer_id, peer_addr, event, numwant, rng);
    let tracker_vnode = world.tracker.vnode;
    let tracker_port = world.tracker.port;
    let response = TrackerMessage::Response {
        peers,
        interval_secs: 120,
    };
    let size = response.wire_size();
    let _ = Endpoint::new(tracker_vnode).send_datagram(
        sim,
        tracker_port,
        from,
        size,
        BtPayload::Tracker(Box::new(response)),
    );
}

/// The one place a client resolves a `ConnId` to its [`PeerTable`](crate::PeerTable) slot:
/// everything below takes the slot. The table changes only here (`Connected`, `Accepted`,
/// `Closed`) and in [`stop_client`], so a slot is never held across events.
fn handle_client_event(sim: &mut SwarmSim, idx: usize, event: TransportEvent<BtPayload>) {
    match event {
        TransportEvent::Connected { conn, peer } => {
            let (vnode, over_limit, num_pieces) = {
                let client = &mut sim.world_mut().clients[idx];
                client.connecting.remove(&peer);
                (
                    client.vnode,
                    client.peers.len() >= MAX_CONNECTIONS || !client.online,
                    client.pieces.torrent().num_pieces(),
                )
            };
            if over_limit {
                let _ = Endpoint::new(vnode).close(sim, conn);
                return;
            }
            let (slot, our_id, our_bitfield) = {
                let client = &mut sim.world_mut().clients[idx];
                let mut pc = PeerConn::new(conn, peer, true, num_pieces);
                pc.sent_handshake = true;
                let slot = client.peers.insert(pc);
                (slot, client.id, advertised_bitfield(client))
            };
            send_peer(sim, idx, slot, PeerMessage::Handshake { peer_id: our_id });
            send_peer(
                sim,
                idx,
                slot,
                PeerMessage::Bitfield(Box::new(our_bitfield)),
            );
        }
        TransportEvent::Accepted { conn, peer } => {
            let (vnode, over_limit, num_pieces, online) = {
                let client = &sim.world().clients[idx];
                (
                    client.vnode,
                    client.peers.len() >= MAX_CONNECTIONS,
                    client.pieces.torrent().num_pieces(),
                    client.online,
                )
            };
            if over_limit || !online {
                let _ = Endpoint::new(vnode).close(sim, conn);
                return;
            }
            let client = &mut sim.world_mut().clients[idx];
            client
                .peers
                .insert(PeerConn::new(conn, peer, false, num_pieces));
        }
        TransportEvent::Refused { peer, .. } => {
            sim.world_mut().clients[idx].connecting.remove(&peer);
        }
        TransportEvent::Closed { conn } => {
            if let Some(slot) = sim.world().clients[idx].peers.slot(conn) {
                drop_peer(sim, idx, slot);
            }
        }
        TransportEvent::Message {
            conn,
            payload: BtPayload::Peer(msg),
            ..
        } => {
            let client = &mut sim.world_mut().clients[idx];
            match client.peers.slot(conn) {
                Some(slot) => handle_peer_message(sim, idx, slot, msg),
                // A message on a connection this client already dropped changes nothing, but a
                // withholding client counts every request it leaves unanswered.
                None => {
                    if matches!(msg, PeerMessage::Request { .. })
                        && client.misbehavior.withhold_serves
                    {
                        client.stats.requests_ignored += 1;
                    }
                }
            }
        }
        TransportEvent::Datagram {
            payload: BtPayload::Tracker(msg),
            ..
        } => {
            if let TrackerMessage::Response { peers, .. } = *msg {
                handle_tracker_response(sim, idx, peers);
            }
        }
        _ => {}
    }
}

fn drop_peer(sim: &mut SwarmSim, idx: usize, slot: usize) {
    let client = &mut sim.world_mut().clients[idx];
    let freed = client.forget_requests(slot, None);
    let p = client.peers.remove(slot);
    client.pieces.remove_peer_bitfield(&p.bitfield);
    // Blocks it was asked for are free again: offer them to the peers still serving us now,
    // not at the next choker round (a client that is shutting down asks nobody).
    if freed > 0 && client.online {
        fill_pipelines(sim, idx);
    }
}

fn handle_peer_message(sim: &mut SwarmSim, idx: usize, slot: usize, msg: PeerMessage) {
    match msg {
        PeerMessage::Handshake { .. } => {
            let reply = {
                let p = &mut sim.world_mut().clients[idx].peers[slot];
                p.handshaken = true;
                !std::mem::replace(&mut p.sent_handshake, true)
            };
            if reply {
                let (our_id, our_bitfield) = {
                    let client = &sim.world().clients[idx];
                    (client.id, advertised_bitfield(client))
                };
                send_peer(sim, idx, slot, PeerMessage::Handshake { peer_id: our_id });
                send_peer(
                    sim,
                    idx,
                    slot,
                    PeerMessage::Bitfield(Box::new(our_bitfield)),
                );
            }
        }
        PeerMessage::Bitfield(bf) => {
            {
                let client = &mut sim.world_mut().clients[idx];
                let p = &mut client.peers[slot];
                client.pieces.remove_peer_bitfield(&p.bitfield);
                p.bitfield = *bf;
                client.pieces.add_peer_bitfield(&p.bitfield);
            }
            update_interest(sim, idx, slot);
        }
        PeerMessage::Have(piece) => {
            {
                let client = &mut sim.world_mut().clients[idx];
                let p = &mut client.peers[slot];
                if piece < p.bitfield.len() && p.bitfield.set(piece) {
                    client.pieces.add_peer_have(piece);
                }
            }
            update_interest(sim, idx, slot);
            request_blocks(sim, idx, slot);
        }
        PeerMessage::Choke => {
            // A choking uploader drops what it has not answered yet, so the requests still
            // outstanding are almost surely dead. They stay reserved all the same:
            // re-requesting the blocks elsewhere at once costs a tenth more events and drains
            // the swarm no sooner. The choker round's `Client::expire_requests` reclaims the
            // block's reservation and this peer's pipeline slot together.
            sim.world_mut().clients[idx].peers[slot].peer_choking = true;
        }
        PeerMessage::Unchoke => {
            sim.world_mut().clients[idx].peers[slot].peer_choking = false;
            request_blocks(sim, idx, slot);
        }
        PeerMessage::Interested => {
            sim.world_mut().clients[idx].peers[slot].peer_interested = true;
        }
        PeerMessage::NotInterested => {
            sim.world_mut().clients[idx].peers[slot].peer_interested = false;
        }
        PeerMessage::Request { piece, block } => {
            let respond = {
                let client = &mut sim.world_mut().clients[idx];
                if client.misbehavior.withhold_serves {
                    // A withholding byzantine serve path: the request is accepted by the
                    // transport but never answered, so the requester's timeout machinery has
                    // to re-issue the block elsewhere.
                    client.stats.requests_ignored += 1;
                    None
                } else if !client.peers[slot].am_choking
                    && piece < client.pieces.have().len()
                    && client.pieces.have().get(piece)
                {
                    Some((
                        client.pieces.torrent().block_len(piece, block),
                        client.misbehavior.corrupt_data,
                    ))
                } else {
                    None
                }
            };
            if let Some((data_len, corrupt)) = respond {
                send_peer(
                    sim,
                    idx,
                    slot,
                    PeerMessage::Piece {
                        piece,
                        block,
                        data_len,
                        corrupt,
                    },
                );
            }
        }
        PeerMessage::Piece {
            piece,
            block,
            data_len,
            corrupt,
        } => {
            handle_piece(sim, idx, slot, piece, block, data_len, corrupt);
        }
        PeerMessage::Cancel { .. } | PeerMessage::KeepAlive => {}
    }
}

/// The bitfield a client advertises: its real holdings, or — for a garbage-advertising
/// byzantine client — an all-set lie (requests for pieces it does not actually have are
/// filtered out by the serve path's `have` check and go unanswered).
fn advertised_bitfield(client: &Client) -> Bitfield {
    if client.misbehavior.garbage_advertise {
        Bitfield::full(client.pieces.torrent().num_pieces())
    } else {
        client.pieces.have().clone()
    }
}

fn handle_piece(
    sim: &mut SwarmSim,
    idx: usize,
    slot: usize,
    piece: u32,
    block: u32,
    data_len: u32,
    corrupt: bool,
) {
    let now = sim.now();
    if corrupt {
        // The block fails the piece-hash check: reject it before it reaches the piece manager
        // (no corruption is ever accepted), retract the lying peer's claim to the piece so the
        // picker re-requests the block from someone else — at once, from whoever is serving
        // us — and forget this peer's request.
        let client = &mut sim.world_mut().clients[idx];
        let p = &mut client.peers[slot];
        p.download.record(now, data_len as u64, RATE_WINDOW);
        client.stats.corrupted_blocks_rejected += 1;
        if p.bitfield.clear(piece) {
            client.pieces.remove_peer_have(piece);
        }
        if client.forget_requests(slot, Some((piece, block))) > 0 {
            fill_pipelines(sim, idx);
        }
        return;
    }
    let (completed_piece, file_complete) = {
        let client = &mut sim.world_mut().clients[idx];
        let p = &mut client.peers[slot];
        p.download.record(now, data_len as u64, RATE_WINDOW);
        client.stats.bytes_downloaded += data_len as u64;
        client.stats.blocks_downloaded += 1;
        let outcome = client.block_answered(slot, piece, block);
        let (completed_piece, file_complete) = match outcome {
            BlockOutcome::Duplicate => {
                client.stats.duplicate_blocks += 1;
                (None, false)
            }
            BlockOutcome::Progress => (None, false),
            BlockOutcome::PieceComplete(p) => (Some(p), false),
            BlockOutcome::FileComplete(p) => (Some(p), true),
        };
        if completed_piece.is_some() {
            client.progress.push(now, client.percent_done());
        }
        if file_complete {
            client.completed_at = Some(now);
        }
        (completed_piece, file_complete)
    };

    if let Some(done_piece) = completed_piece {
        let peers = sim.world().clients[idx].peers.len();
        for s in 0..peers {
            if sim.world().clients[idx].peers[s].handshaken {
                send_peer(sim, idx, s, PeerMessage::Have(done_piece));
            }
        }
        // Our interest in some peers may have ended with this piece.
        for s in 0..peers {
            update_interest(sim, idx, s);
        }
    }
    if file_complete {
        // The client's `completed_at` was just set above; `initial_seeder`s never complete
        // (their blocks are all duplicates), so this counts downloaders exactly.
        sim.world_mut().completed_downloaders += 1;
        sim.world().check_completed_count();
        announce(sim, idx, AnnounceEvent::Completed);
    }
    request_blocks(sim, idx, slot);
}

fn update_interest(sim: &mut SwarmSim, idx: usize, slot: usize) {
    let msg = {
        let client = &mut sim.world_mut().clients[idx];
        let p = &mut client.peers[slot];
        if !p.handshaken {
            return;
        }
        let interested = client.pieces.have().is_interested_in(&p.bitfield);
        if interested == p.am_interested {
            return;
        }
        p.am_interested = interested;
        if interested {
            PeerMessage::Interested
        } else {
            PeerMessage::NotInterested
        }
    };
    send_peer(sim, idx, slot, msg);
}

fn request_blocks(sim: &mut SwarmSim, idx: usize, slot: usize) {
    let now = sim.now();
    let (world, rng) = sim.world_and_rng();
    let mut requests = std::mem::take(&mut world.request_scratch);
    world.clients[idx].request_blocks(slot, now, rng, &mut requests);
    for &(piece, block) in &requests {
        send_peer(sim, idx, slot, PeerMessage::Request { piece, block });
    }
    sim.world_mut().request_scratch = requests;
}

/// Keeps the request pipeline full towards every peer that is currently serving us.
fn fill_pipelines(sim: &mut SwarmSim, idx: usize) {
    for slot in 0..sim.world().clients[idx].peers.len() {
        if sim.world().clients[idx].peers[slot].is_serving() {
            request_blocks(sim, idx, slot);
        }
    }
}

/// One 10-second choker round; it re-arms one interval later. The rounds stop once the client
/// is offline or the whole swarm has finished (and therefore let the simulation drain).
fn choke_round(sim: &mut SwarmSim, idx: usize, generation: u64) {
    let now = sim.now();
    let keep_running = {
        let world = sim.world();
        let client = &world.clients[idx];
        client.online && client.timer_generation == generation && !world.swarm_finished()
    };
    if !keep_running {
        return;
    }
    let unchoked = {
        let (world, rng) = sim.world_and_rng();
        let mut snapshot = std::mem::take(&mut world.snapshot_scratch);
        let mut unchoked = std::mem::take(&mut world.unchoke_scratch);
        let client = &mut world.clients[idx];
        client.expire_requests(now);
        client.choker_snapshot_into(now, &mut snapshot);
        let seeding = client.is_seeding();
        client
            .choker
            .run_round(&mut snapshot, seeding, rng, &mut unchoked);
        world.snapshot_scratch = snapshot;
        unchoked
    };
    for slot in 0..sim.world().clients[idx].peers.len() {
        let msg = {
            let p = &mut sim.world_mut().clients[idx].peers[slot];
            if !p.handshaken {
                continue;
            }
            let unchoke = unchoked.contains(&p.conn);
            if unchoke != p.am_choking {
                continue; // already as the round wants it
            }
            p.am_choking = !unchoke;
            if unchoke {
                PeerMessage::Unchoke
            } else {
                PeerMessage::Choke
            }
        };
        send_peer(sim, idx, slot, msg);
    }
    sim.world_mut().unchoke_scratch = unchoked;
    fill_pipelines(sim, idx);
    connect_to_peers(sim, idx);
    sim.push_periodic(|w| &mut w.choke_rounds, (idx, generation), CHOKE);
}

/// Periodic tracker re-announce; it re-arms one interval later until the client is offline or
/// the swarm finished.
fn periodic_announce(sim: &mut SwarmSim, idx: usize, generation: u64) {
    let (keep_running, need_peers) = {
        let world = sim.world();
        let client = &world.clients[idx];
        (
            client.online && client.timer_generation == generation && !world.swarm_finished(),
            client.peers.len() < MIN_PEERS,
        )
    };
    if !keep_running {
        return;
    }
    if need_peers {
        announce(sim, idx, AnnounceEvent::Periodic);
    }
    sim.push_periodic(|w| &mut w.tracker_rounds, (idx, generation), TRACKER);
}

fn announce(sim: &mut SwarmSim, idx: usize, event: AnnounceEvent) {
    let (vnode, tracker_addr, msg) = {
        let client = &mut sim.world_mut().clients[idx];
        client.stats.announces += 1;
        let msg = TrackerMessage::Announce {
            peer_id: client.id,
            port: LISTEN_PORT,
            event,
            numwant: NUMWANT,
        };
        (client.vnode, client.tracker_addr, msg)
    };
    let size = msg.wire_size();
    let _ = Endpoint::new(vnode).send_datagram(
        sim,
        LISTEN_PORT,
        tracker_addr,
        size,
        BtPayload::Tracker(Box::new(msg)),
    );
}

fn handle_tracker_response(sim: &mut SwarmSim, idx: usize, peers: Vec<SocketAddr>) {
    {
        let world = sim.world_mut();
        let own_addr = SocketAddr::new(world.net.addr_of(world.clients[idx].vnode), LISTEN_PORT);
        let client = &mut world.clients[idx];
        for p in peers {
            if p != own_addr && !client.known_peers.contains(&p) {
                client.known_peers.push(p);
            }
        }
    }
    connect_to_peers(sim, idx);
}

fn connect_to_peers(sim: &mut SwarmSim, idx: usize) {
    let targets = {
        let (world, rng) = sim.world_and_rng();
        let mut candidates = std::mem::take(&mut world.connect_scratch);
        let client = &world.clients[idx];
        candidates.clear();
        if client.wants_more_peers() {
            client.unconnected_known_peers_into(&mut candidates);
            rng.shuffle(&mut candidates);
            let budget = MAX_INITIATE.saturating_sub(client.peers.len() + client.connecting.len());
            candidates.truncate(budget);
        }
        candidates
    };
    for &target in &targets {
        let vnode = {
            let client = &mut sim.world_mut().clients[idx];
            client.connecting.insert(target);
            client.stats.connect_attempts += 1;
            client.vnode
        };
        if Endpoint::new(vnode).connect(sim, target).is_err() {
            sim.world_mut().clients[idx].connecting.remove(&target);
        }
    }
    sim.world_mut().connect_scratch = targets;
}

fn send_peer(sim: &mut SwarmSim, idx: usize, slot: usize, msg: PeerMessage) {
    let now = sim.now();
    let size = msg.wire_size();
    let (vnode, conn) = {
        let client = &mut sim.world_mut().clients[idx];
        let p = &mut client.peers[slot];
        if let PeerMessage::Piece { data_len, .. } = &msg {
            p.upload.record(now, *data_len as u64, RATE_WINDOW);
            client.stats.bytes_uploaded += *data_len as u64;
            client.stats.blocks_uploaded += 1;
        }
        (client.vnode, p.conn)
    };
    // Peer-wire messages travel on the ordered reliable lane — the legacy data path, so the
    // ported client's wire costs and event stream are byte-identical.
    let _ = Endpoint::new(vnode).send(
        sim,
        conn,
        LaneKind::ReliableOrdered,
        size,
        BtPayload::Peer(msg),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2plab_net::{AccessLinkClass, ConnId, GroupId, NetworkConfig, TopologySpec, VirtAddr};
    use p2plab_sim::{SimDuration, Simulation};

    /// Builds a swarm of `seeders + leechers` clients plus a tracker, folded onto `machines`
    /// physical machines, all on the given access link, sharing a `total_bytes` torrent.
    fn build_swarm(
        machines: usize,
        seeders: usize,
        leechers: usize,
        link: AccessLinkClass,
        total_bytes: u64,
    ) -> SwarmWorld {
        let n = seeders + leechers + 1; // + tracker
        let topo = TopologySpec::uniform("swarm", n, link);
        let mut net = Network::new(NetworkConfig::default(), topo);
        let machine_ids: Vec<_> = (0..machines)
            .map(|m| net.add_machine(format!("pm{m}"), VirtAddr::new(192, 168, 38, m as u8 + 1)))
            .collect();
        let vnodes: Vec<_> = (0..n)
            .map(|i| {
                net.add_vnode(machine_ids[i % machines], GroupId(0))
                    .unwrap()
            })
            .collect();
        let torrent = Torrent::new("test", total_bytes);
        let mut world = SwarmWorld::new(net, vnodes[0]);
        for i in 0..seeders {
            world.add_client(vnodes[1 + i], torrent.clone(), true, ChokeConfig::default());
        }
        for i in 0..leechers {
            world.add_client(
                vnodes[1 + seeders + i],
                torrent.clone(),
                false,
                ChokeConfig::default(),
            );
        }
        world
    }

    /// A fast symmetric link so unit-level swarm tests finish in little virtual time.
    fn fast_link() -> AccessLinkClass {
        AccessLinkClass::symmetric(20_000_000, SimDuration::from_millis(5))
    }

    fn start_all(sim: &mut SwarmSim, stagger: SimDuration) {
        let n = sim.world().clients.len();
        for i in 0..n {
            schedule_client_start(sim, i, SimTime::ZERO + stagger * i as u64);
        }
    }

    #[test]
    fn single_leecher_downloads_from_seeder() {
        let world = build_swarm(2, 1, 1, fast_link(), 1024 * 1024);
        let mut sim: SwarmSim = Simulation::new(world, 11);
        start_all(&mut sim, SimDuration::from_secs(1));
        let outcome = sim.run_until(SimTime::from_secs(600));
        assert!(sim.world().swarm_finished(), "outcome={outcome:?}");
        let leecher = &sim.world().clients[1];
        assert!(leecher.is_seeding());
        assert_eq!(leecher.stats.bytes_downloaded, 1024 * 1024);
        assert!(leecher.completed_at.unwrap() > leecher.started_at.unwrap());
        // The seeder uploaded everything the leecher downloaded.
        let seeder = &sim.world().clients[0];
        assert_eq!(seeder.stats.bytes_uploaded, 1024 * 1024);
        assert_eq!(seeder.stats.bytes_downloaded, 0);
    }

    #[test]
    fn progress_log_is_monotonic_and_complete() {
        let world = build_swarm(2, 1, 2, fast_link(), 512 * 1024);
        let mut sim: SwarmSim = Simulation::new(world, 12);
        start_all(&mut sim, SimDuration::from_secs(1));
        sim.run_until(SimTime::from_secs(600));
        assert!(sim.world().swarm_finished());
        for c in sim.world().clients.iter().filter(|c| !c.initial_seeder) {
            let samples = c.progress.samples();
            assert!(samples.len() >= 2, "at least start and completion samples");
            assert!(
                samples.windows(2).all(|w| w[0].1 <= w[1].1),
                "monotonic progress"
            );
            assert_eq!(samples.last().unwrap().1, 100.0);
            assert_eq!(samples[0].1, 0.0);
        }
    }

    #[test]
    fn swarm_of_four_leechers_completes_and_shares() {
        // An upload-constrained link (1 Mbps up, 10 Mbps down) and a 2 MB file: the seeder alone
        // cannot serve four copies quickly, so cooperation between leechers must appear.
        let link = AccessLinkClass::new(10_000_000, 1_000_000, SimDuration::from_millis(5));
        let file = 2 * 1024 * 1024u64;
        let world = build_swarm(3, 1, 4, link, file);
        let mut sim: SwarmSim = Simulation::new(world, 13);
        start_all(&mut sim, SimDuration::from_secs(2));
        let outcome = sim.run_until(SimTime::from_secs(2000));
        assert!(sim.world().swarm_finished(), "outcome={outcome:?}");
        assert_eq!(sim.world().completed_count(), 4);
        // Conservation: every downloaded byte was uploaded by someone.
        let world = sim.world();
        assert_eq!(world.total_bytes_downloaded(), world.total_bytes_uploaded());
        assert!(world.total_bytes_downloaded() >= 4 * file);
        // Peer-to-peer sharing happened: the seeder did not serve all four copies alone.
        let seeder_up = world.clients[0].stats.bytes_uploaded;
        assert!(
            seeder_up < 4 * file,
            "leechers must reciprocate, seeder uploaded {seeder_up}"
        );
        let leecher_up: u64 = world
            .clients
            .iter()
            .filter(|c| !c.initial_seeder)
            .map(|c| c.stats.bytes_uploaded)
            .sum();
        assert!(leecher_up > 0, "leechers must upload to each other");
    }

    #[test]
    fn completion_curve_counts_finishers() {
        let world = build_swarm(2, 1, 3, fast_link(), 512 * 1024);
        let mut sim: SwarmSim = Simulation::new(world, 14);
        start_all(&mut sim, SimDuration::from_secs(1));
        sim.run_until(SimTime::from_secs(2000));
        let curve = sim.world().completion_curve();
        assert_eq!(curve.last().unwrap().1, 3.0);
        assert_eq!(curve.value_at(SimTime::ZERO, 0.0), 0.0);
        let times = sim.world().completion_times();
        assert_eq!(times.len(), 3);
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn no_seeder_means_no_completion() {
        let world = build_swarm(2, 0, 3, fast_link(), 512 * 1024);
        let mut sim: SwarmSim = Simulation::new(world, 15);
        start_all(&mut sim, SimDuration::from_secs(1));
        sim.run_until(SimTime::from_secs(300));
        assert_eq!(sim.world().completed_count(), 0);
        assert_eq!(sim.world().total_bytes_downloaded(), 0);
    }

    #[test]
    fn tracker_learns_about_all_clients() {
        let world = build_swarm(2, 1, 3, fast_link(), 512 * 1024);
        let mut sim: SwarmSim = Simulation::new(world, 16);
        start_all(&mut sim, SimDuration::from_secs(1));
        sim.run_until(SimTime::from_secs(60));
        let world = sim.world();
        let members = (0..world.clients.len() as u32)
            .filter(|&i| world.tracker.last_announce(PeerId(i)).is_some())
            .count();
        assert_eq!(members, 4);
        assert!(world.tracker.stats().announces >= 4);
    }

    #[test]
    fn completed_clients_keep_seeding_others() {
        // With a slow seeder and two leechers, the first finisher must help the second (the
        // paper: "when the clients have finished the download of the file, they stay online and
        // become seeders").
        let world = build_swarm(2, 1, 2, fast_link(), 2 * 1024 * 1024);
        let mut sim: SwarmSim = Simulation::new(world, 17);
        start_all(&mut sim, SimDuration::from_secs(1));
        sim.run_until(SimTime::from_secs(2000));
        assert!(sim.world().swarm_finished());
        let c1 = &sim.world().clients[1];
        let c2 = &sim.world().clients[2];
        let uploads_after_completion = c1.stats.bytes_uploaded > 0 || c2.stats.bytes_uploaded > 0;
        assert!(uploads_after_completion);
    }

    #[test]
    fn blocks_a_lost_peer_held_are_offered_to_serving_peers_at_once() {
        // A leecher holds its whole pipeline toward peer 2 while peer 1, also serving, had
        // nothing left to be asked for. Peer 2 disconnects; corrupt data from peer 1 next.
        // Either way the freed blocks go straight to whoever still serves us — no leecher sits
        // unchoked by a useful peer with nothing requested until its next choker round.
        let world = build_swarm(1, 0, 1, fast_link(), 64 * 1024);
        let mut sim: SwarmSim = Simulation::new(world, 19);
        let client = &mut sim.world_mut().clients[0];
        client.online = true;
        for conn in [ConnId(1), ConnId(2)] {
            let addr = SocketAddr::new(VirtAddr::new(10, 0, 0, 99), 6881);
            let mut p = PeerConn::new(conn, addr, true, 1);
            p.bitfield = Bitfield::full(1);
            client.pieces.add_peer_bitfield(&p.bitfield);
            (p.handshaken, p.am_interested, p.peer_choking) = (true, true, false);
            client.peers.insert(p);
        }
        // Peer 1 is in slot 0 and peer 2 in slot 1, then peer 1 alone in slot 0.
        let held = |sim: &SwarmSim, slot| sim.world().clients[0].peers[slot].inflight.len();
        request_blocks(&mut sim, 0, 1);
        assert_eq!((held(&sim, 0), held(&sim, 1)), (0, 4));
        drop_peer(&mut sim, 0, 1);
        assert_eq!(sim.world().clients[0].peers.conns(), [ConnId(1)]);
        assert_eq!(held(&sim, 0), 4);
        handle_piece(&mut sim, 0, 0, 0, 2, 16 * 1024, true);
        let client = &mut sim.world_mut().clients[0];
        assert_eq!(client.stats.corrupted_blocks_rejected, 1);
        assert_eq!(client.pieces.requests_outstanding(), 3);
        assert!(client.ledger_is_coherent());
    }

    #[test]
    fn connections_opened_out_of_id_order_are_walked_in_id_order() {
        // An inbound connection with a higher id is accepted before the answer to an older
        // outgoing connect arrives: the table still lists both by id, and a close in the middle
        // keeps the order of the rest.
        let world = build_swarm(1, 0, 1, fast_link(), 64 * 1024);
        let mut sim: SwarmSim = Simulation::new(world, 20);
        sim.world_mut().clients[0].online = true;
        let peer = |host| SocketAddr::new(VirtAddr::new(10, 0, 0, host), 6881);
        for event in [
            TransportEvent::Accepted {
                conn: ConnId(7),
                peer: peer(7),
            },
            TransportEvent::Connected {
                conn: ConnId(3),
                peer: peer(3),
            },
            TransportEvent::Accepted {
                conn: ConnId(5),
                peer: peer(5),
            },
        ] {
            handle_client_event(&mut sim, 0, event);
        }
        let peers = &sim.world().clients[0].peers;
        assert_eq!(peers.conns(), [ConnId(3), ConnId(5), ConnId(7)]);
        assert!(peers
            .iter()
            .map(|p| p.conn)
            .eq(peers.conns().iter().copied()));
        assert_eq!(
            peers.iter().map(|p| p.outbound).collect::<Vec<_>>(),
            [true, false, false]
        );
        handle_client_event(&mut sim, 0, TransportEvent::Closed { conn: ConnId(5) });
        // A late message on the closed connection finds no slot and changes nothing.
        let late = TransportEvent::Message {
            conn: ConnId(5),
            lane: LaneKind::ReliableOrdered,
            from: peer(5),
            payload: BtPayload::Peer(PeerMessage::Interested),
            size: 5,
        };
        handle_client_event(&mut sim, 0, late);
        let peers = &sim.world().clients[0].peers;
        assert_eq!(peers.conns(), [ConnId(3), ConnId(7)]);
        assert!(peers.iter().all(|p| !p.peer_interested));
    }

    #[test]
    fn dsl_swarm_roughly_upload_bound() {
        // One seeder + 3 leechers on the paper's DSL profile with a small 1 MB file: the
        // completion time should be within a factor of ~3 of the upload-capacity bound
        // (128 kbps aggregate per uploader), and far above the download-capacity bound.
        let world = build_swarm(2, 1, 3, AccessLinkClass::bittorrent_dsl(), 1024 * 1024);
        let mut sim: SwarmSim = Simulation::new(world, 18);
        start_all(&mut sim, SimDuration::from_secs(5));
        let outcome = sim.run_until(SimTime::from_secs(4000));
        assert!(sim.world().swarm_finished(), "outcome={outcome:?}");
        let last = *sim.world().completion_times().last().unwrap();
        let download_bound = 1024.0 * 1024.0 * 8.0 / 2_000_000.0; // ~4 s
        let upload_bound = 1024.0 * 1024.0 * 8.0 / 128_000.0; // ~65 s if one uploader at a time
        assert!(
            last.as_secs_f64() > 3.0 * download_bound,
            "too fast: {last}"
        );
        assert!(last.as_secs_f64() < 5.0 * upload_bound, "too slow: {last}");
    }
}
