//! Per-client state of the BitTorrent application.
//!
//! A [`Client`] mirrors the state the BitTorrent 4.x mainline client keeps: the piece manager,
//! the choker, one [`PeerConn`] per open peer connection, the peers learned from the tracker,
//! and the time-stamped download progress log (the paper instruments the client by adding a
//! time-stamp to its default output — [`Client::progress`] is that log).
//!
//! A client's open connections are a [`PeerTable`]: a dense table kept sorted by [`ConnId`].
//! A connection's position in it is its *slot*. The swarm resolves a `ConnId` to its slot once,
//! where a transport event enters the client, and every transition below takes the slot.
//! Walking the slots visits the connections in `ConnId` order, which keeps the choker, the
//! pipeline fill and every random draw independent of the order connections opened in.
//!
//! The client also owns the **request ledger**. Who asked for which block, and when, is recorded
//! once, in the asked peer's [`PeerConn::inflight`]; the piece manager keeps only a per-block
//! count of those entries, and the two move together through [`Client::request_blocks`],
//! [`Client::block_answered`], [`Client::forget_requests`] and [`Client::expire_requests`].

use crate::bitfield::Bitfield;
use crate::choke::{ChokeConfig, Choker, PeerSnapshot};
use crate::messages::PeerId;
use crate::piece::{BlockOutcome, PieceManager};
use crate::torrent::Torrent;
use p2plab_net::{ConnId, Misbehavior, SocketAddr, VNodeId};
use p2plab_sim::FxHashSet;
use p2plab_sim::{RateEstimator, SimDuration, SimRng, SimTime, TimeSeries};
use std::ops::{Index, IndexMut};

// Client policy: mainline 4.x's defaults. Only the choking policy varies between
// experiments, and it lives in the client's `Choker`.

/// Port the client listens on.
pub const LISTEN_PORT: u16 = 6881;
/// Maximum number of open peer connections.
pub const MAX_CONNECTIONS: usize = 55;
/// Maximum number of outgoing connections the client initiates on its own.
pub const MAX_INITIATE: usize = 40;
/// Number of outstanding block requests kept per unchoked peer.
pub const REQUEST_PIPELINE: usize = 5;
/// Choker period.
pub const CHOKE_INTERVAL: SimDuration = SimDuration::from_secs(10);
/// Periodic tracker re-announce interval.
pub const TRACKER_INTERVAL: SimDuration = SimDuration::from_secs(120);
/// Number of peers requested from the tracker.
pub const NUMWANT: usize = 50;
/// A request unanswered for longer than this is forgotten at the next choker round, so the
/// block can be re-issued (to any peer).
pub const REQUEST_TIMEOUT: SimDuration = SimDuration::from_secs(60);
/// If the client has fewer open connections than this it re-announces early.
pub const MIN_PEERS: usize = 20;
/// Window of the transfer-rate estimators used by the choker.
pub const RATE_WINDOW: SimDuration = SimDuration::from_secs(20);

/// State of one peer connection, from this client's point of view. It lives in its slot of
/// the client's [`PeerTable`] from the connection's `Connected`/`Accepted` event to its
/// `Closed` event (or the client's stop).
#[derive(Debug, Clone)]
pub struct PeerConn {
    /// The underlying transport connection.
    pub conn: ConnId,
    /// The remote endpoint.
    pub peer_addr: SocketAddr,
    /// Whether this client initiated the connection.
    pub outbound: bool,
    /// Whether the remote peer's handshake has been received.
    pub handshaken: bool,
    /// Whether this client already sent its handshake.
    pub sent_handshake: bool,
    /// We are choking the peer.
    pub am_choking: bool,
    /// We are interested in the peer's pieces.
    pub am_interested: bool,
    /// The peer is choking us.
    pub peer_choking: bool,
    /// The peer is interested in our pieces.
    pub peer_interested: bool,
    /// The peer's piece bitfield (as far as we know).
    pub bitfield: Bitfield,
    /// Block requests sent to the peer and not yet answered, as `((piece, block), sent_at)`,
    /// oldest first. Change it only through the [`Client`] transitions, which keep the piece
    /// manager's count in step.
    pub inflight: Vec<((u32, u32), SimTime)>,
    /// Rate at which the peer uploads to us.
    pub download: RateEstimator,
    /// Rate at which we upload to the peer.
    pub upload: RateEstimator,
}

// A client holds up to `MAX_CONNECTIONS` of these, so every byte counts 55 times per client.
const _: () = assert!(std::mem::size_of::<PeerConn>() <= 144);

impl PeerConn {
    /// Creates the state for a new connection.
    pub fn new(conn: ConnId, peer_addr: SocketAddr, outbound: bool, num_pieces: u32) -> PeerConn {
        PeerConn {
            conn,
            peer_addr,
            outbound,
            handshaken: false,
            sent_handshake: false,
            am_choking: true,
            am_interested: false,
            peer_choking: true,
            peer_interested: false,
            bitfield: Bitfield::new(num_pieces),
            inflight: Vec::new(),
            download: RateEstimator::default(),
            upload: RateEstimator::default(),
        }
    }

    /// Whether block requests may be sent to the peer now: it has something we need and is
    /// not choking us.
    pub fn is_serving(&self) -> bool {
        self.handshaken && self.am_interested && !self.peer_choking
    }
}

/// A client's open connections: [`PeerConn`]s in ascending [`ConnId`] order, with the ids in
/// a parallel dense array that [`slot`](PeerTable::slot) binary-searches. Indexing takes a
/// slot. A slot is only valid until the next [`insert`](PeerTable::insert) or
/// [`remove`](PeerTable::remove).
///
/// The first insert reserves room for [`MAX_CONNECTIONS`] in both arrays, exactly: the swarm
/// refuses a connection over that limit before it inserts, so a client's table never moves.
#[derive(Debug, Clone, Default)]
pub struct PeerTable {
    /// `conns[i] == peers[i].conn`, strictly ascending.
    conns: Vec<ConnId>,
    peers: Vec<PeerConn>,
}

impl PeerTable {
    /// Number of open connections.
    pub fn len(&self) -> usize {
        self.peers.len()
    }

    /// Whether there is no open connection.
    pub fn is_empty(&self) -> bool {
        self.peers.is_empty()
    }

    /// The slot of `conn`, if it is open.
    pub fn slot(&self, conn: ConnId) -> Option<usize> {
        self.conns.binary_search(&conn).ok()
    }

    /// Adds `peer` at its place in `ConnId` order (replacing an entry with the same id) and
    /// returns its slot.
    pub fn insert(&mut self, peer: PeerConn) -> usize {
        if self.peers.capacity() == 0 {
            self.conns.reserve_exact(MAX_CONNECTIONS);
            self.peers.reserve_exact(MAX_CONNECTIONS);
        }
        match self.conns.binary_search(&peer.conn) {
            Ok(slot) => {
                self.peers[slot] = peer;
                slot
            }
            Err(slot) => {
                self.conns.insert(slot, peer.conn);
                self.peers.insert(slot, peer);
                slot
            }
        }
    }

    /// Removes the connection in `slot`; the slots above it move down by one.
    pub fn remove(&mut self, slot: usize) -> PeerConn {
        self.conns.remove(slot);
        self.peers.remove(slot)
    }

    /// The open connections' ids, ascending (`conns()[slot]` is the slot's id).
    pub fn conns(&self) -> &[ConnId] {
        &self.conns
    }

    /// The connections in `ConnId` order.
    pub fn iter(&self) -> std::slice::Iter<'_, PeerConn> {
        self.peers.iter()
    }

    /// The connections in `ConnId` order, mutably.
    pub fn iter_mut(&mut self) -> std::slice::IterMut<'_, PeerConn> {
        self.peers.iter_mut()
    }
}

impl Index<usize> for PeerTable {
    type Output = PeerConn;

    fn index(&self, slot: usize) -> &PeerConn {
        &self.peers[slot]
    }
}

impl IndexMut<usize> for PeerTable {
    fn index_mut(&mut self, slot: usize) -> &mut PeerConn {
        &mut self.peers[slot]
    }
}

/// Aggregate per-client counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClientStats {
    /// Application bytes downloaded (payload of Piece messages).
    pub bytes_downloaded: u64,
    /// Application bytes uploaded.
    pub bytes_uploaded: u64,
    /// Blocks received.
    pub blocks_downloaded: u64,
    /// Blocks served.
    pub blocks_uploaded: u64,
    /// Outgoing connection attempts.
    pub connect_attempts: u64,
    /// Announces sent to the tracker.
    pub announces: u64,
    /// Duplicate blocks received (endgame overlap).
    pub duplicate_blocks: u64,
    /// Blocks received whose payload failed the piece-hash check and were rejected (served by
    /// a corrupting byzantine peer; the honest client never accepts them).
    pub corrupted_blocks_rejected: u64,
    /// Requests this client deliberately ignored (a withholding byzantine serve path).
    pub requests_ignored: u64,
}

/// One BitTorrent client (downloader or seeder) bound to a virtual node.
#[derive(Debug, Clone)]
pub struct Client {
    /// The client's peer id.
    pub id: PeerId,
    /// The virtual node the client runs on.
    pub vnode: VNodeId,
    /// Piece state and selection.
    pub pieces: PieceManager,
    /// Choker state.
    pub choker: Choker,
    /// Open peer connections, by slot, in `ConnId` order.
    pub peers: PeerTable,
    /// Addresses learned from the tracker, not necessarily connected.
    pub known_peers: Vec<SocketAddr>,
    /// Outgoing connection attempts in progress.
    pub connecting: FxHashSet<SocketAddr>,
    /// The tracker's address.
    pub tracker_addr: SocketAddr,
    /// Whether the client process is running.
    pub online: bool,
    /// Whether this client had the complete file when it started (an initial seeder).
    pub initial_seeder: bool,
    /// When the client started.
    pub started_at: Option<SimTime>,
    /// When the download completed (never for initial seeders).
    pub completed_at: Option<SimTime>,
    /// Time-stamped download progress in percent (the paper's instrumented client output): the
    /// start sample plus one per completed piece, reserved exactly at construction.
    pub progress: TimeSeries,
    /// Aggregate counters.
    pub stats: ClientStats,
    /// Application-level misbehavior flags (all off for honest clients). Installed by the
    /// adversary layer after construction; the protocol code consults them at its serve,
    /// advertise and verify decision points.
    pub misbehavior: Misbehavior,
    /// Bumped on every (re)start; periodic timers from older sessions stop when they notice a
    /// newer generation, so a churn restart never leaves two choker timers running.
    pub timer_generation: u64,
}

impl Client {
    /// Creates a client that chokes by `choke`. `complete` makes it an initial seeder.
    pub fn new(
        id: PeerId,
        vnode: VNodeId,
        torrent: Torrent,
        complete: bool,
        tracker_addr: SocketAddr,
        choke: ChokeConfig,
    ) -> Client {
        let pieces = PieceManager::new(torrent, complete);
        let missing = pieces.have().len() - pieces.have().count();
        Client {
            id,
            vnode,
            pieces,
            choker: Choker::new(choke),
            peers: PeerTable::default(),
            known_peers: Vec::new(),
            connecting: FxHashSet::default(),
            tracker_addr,
            online: false,
            initial_seeder: complete,
            started_at: None,
            completed_at: None,
            progress: TimeSeries::with_capacity(1 + missing as usize),
            stats: ClientStats::default(),
            misbehavior: Misbehavior::default(),
            timer_generation: 0,
        }
    }

    /// Whether the client currently has the whole file (initial seeder or finished downloader).
    pub fn is_seeding(&self) -> bool {
        self.pieces.is_complete()
    }

    /// Download progress in percent.
    pub fn percent_done(&self) -> f64 {
        self.pieces.percent_done()
    }

    /// Request transition: tops the pipeline toward the peer in `slot`, if it is
    /// [serving](PeerConn::is_serving), up to `request_pipeline`, stamps the new requests `now`,
    /// and leaves their blocks in `picked` for the caller to put on the wire.
    pub fn request_blocks(
        &mut self,
        slot: usize,
        now: SimTime,
        rng: &mut SimRng,
        picked: &mut Vec<(u32, u32)>,
    ) {
        picked.clear();
        let p = &mut self.peers[slot];
        if !p.is_serving() {
            return;
        }
        let budget = REQUEST_PIPELINE.saturating_sub(p.inflight.len());
        let inflight = &p.inflight;
        let holds = |block| inflight.iter().any(|r| r.0 == block);
        self.pieces
            .pick_into(&p.bitfield, budget, rng, holds, picked);
        if !picked.is_empty() {
            // Room for the whole pipeline, taken once: the budget never lets the list outgrow it.
            p.inflight.reserve_exact(budget);
        }
        p.inflight.extend(picked.iter().map(|&block| (block, now)));
        debug_assert!(p.inflight.len() <= REQUEST_PIPELINE);
    }

    /// Answered transition: the peer in `slot` delivered a verified block. That settles every
    /// request for it — the sender's and any other holder's (an endgame twin, or the re-issue of
    /// a request this answer outlived), as mainline's `cancel` does: no pipeline slot stays
    /// pinned by a block that is already here.
    pub fn block_answered(&mut self, slot: usize, piece: u32, block: u32) -> BlockOutcome {
        let is_it = |r: &((u32, u32), SimTime)| r.0 == (piece, block);
        let mut holders = self.pieces.request_count(piece, block);
        let p = &mut self.peers[slot];
        if let Some(i) = p.inflight.iter().position(is_it) {
            p.inflight.remove(i);
            holders -= 1;
        }
        if holders > 0 {
            for p in self.peers.iter_mut() {
                p.inflight.retain(|r| !is_it(r));
            }
        }
        self.pieces.block_received(piece, block)
    }

    /// Forget transition: the peer in `slot` disconnected (`only` is `None`) or answered the
    /// block `only` with corrupt data. Its requests come off their blocks' counts too (an
    /// endgame twin elsewhere keeps the block reserved). Returns how many were forgotten.
    pub fn forget_requests(&mut self, slot: usize, only: Option<(u32, u32)>) -> usize {
        let p = &mut self.peers[slot];
        let before = p.inflight.len();
        p.inflight.retain(|r| {
            let gone = only.is_none_or(|block| block == r.0);
            if gone {
                self.pieces.release_requests(&[r.0]);
            }
            !gone
        });
        before - p.inflight.len()
    }

    /// Forget transition, by age: every request older than `request_timeout` — each from its
    /// own send time — is given up on: the head of each oldest-first list. Most were dropped by
    /// an uploader that choked us since.
    pub fn expire_requests(&mut self, now: SimTime) {
        for p in self.peers.iter_mut() {
            let stale = |r: &((u32, u32), SimTime)| now.saturating_since(r.1) > REQUEST_TIMEOUT;
            let n = p.inflight.partition_point(stale);
            for (block, _) in p.inflight.drain(..n) {
                self.pieces.release_requests(&[block]);
            }
        }
        debug_assert!(self.ledger_is_coherent());
    }

    /// Recounts the piece manager's request counts from the peers' lists: every block's count
    /// equals the number of peers holding a request for it, and no count is left over. Sorting
    /// the held blocks puts each block's holders in one run, so the recount is O(n log n) in
    /// the requests outstanding.
    pub fn ledger_is_coherent(&self) -> bool {
        let mut held: Vec<(u32, u32)> = (self.peers.iter())
            .flat_map(|p| p.inflight.iter().map(|r| r.0))
            .collect();
        held.sort_unstable();
        held.len() as u64 == self.pieces.requests_outstanding()
            && held.chunk_by(|a, b| a == b).all(|run| {
                let (piece, block) = run[0];
                run.len() == usize::from(self.pieces.request_count(piece, block))
            })
    }

    /// Fills `out` with the choker-round snapshot of every handshaken peer, reusing its
    /// capacity.
    pub fn choker_snapshot_into(&mut self, now: SimTime, out: &mut Vec<PeerSnapshot>) {
        out.clear();
        out.extend(
            self.peers
                .iter_mut()
                .filter(|p| p.handshaken)
                .map(|p| PeerSnapshot {
                    conn: p.conn,
                    interested: p.peer_interested,
                    download_rate: p.download.rate(now, RATE_WINDOW),
                    upload_rate: p.upload.rate(now, RATE_WINDOW),
                }),
        );
    }

    /// True if the client should try to open more outgoing connections.
    pub fn wants_more_peers(&self) -> bool {
        self.online && self.peers.len() + self.connecting.len() < MAX_INITIATE
    }

    /// Fills `out` with the addresses the client could still try to connect to, in the order
    /// they were learned.
    pub fn unconnected_known_peers_into(&self, out: &mut Vec<SocketAddr>) {
        out.clear();
        out.extend(self.known_peers.iter().copied().filter(|a| {
            !self.connecting.contains(a) && self.peers.iter().all(|p| p.peer_addr != *a)
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::piece::MAX_ENDGAME_DUPLICATION;
    use p2plab_net::VirtAddr;

    fn tracker_addr() -> SocketAddr {
        SocketAddr::new(VirtAddr::new(10, 0, 0, 250), 6969)
    }

    fn client(complete: bool) -> Client {
        Client::new(
            PeerId(1),
            VNodeId(0),
            Torrent::paper_16mb(),
            complete,
            tracker_addr(),
            ChokeConfig::default(),
        )
    }

    /// A leecher of a `blocks`-block single-piece torrent with serving peers `1..=peers` that
    /// own the whole file.
    fn leecher_with_peers(blocks: u32, peers: u64) -> Client {
        let torrent = Torrent {
            name: "tiny".into(),
            total_bytes: blocks as u64 * 16 * 1024,
            piece_size: blocks * 16 * 1024,
            block_size: 16 * 1024,
        };
        let choke = ChokeConfig::default();
        let mut c = Client::new(PeerId(1), VNodeId(0), torrent, false, tracker_addr(), choke);
        for conn in (1..=peers).map(ConnId) {
            let addr = SocketAddr::new(VirtAddr::new(10, 0, 0, conn.0 as u8), 6881);
            let mut p = PeerConn::new(conn, addr, true, 1);
            p.bitfield = Bitfield::full(1);
            c.pieces.add_peer_bitfield(&p.bitfield);
            (p.handshaken, p.am_interested, p.peer_choking) = (true, true, false);
            c.peers.insert(p);
        }
        c
    }

    fn slot(c: &Client, conn: u64) -> usize {
        c.peers.slot(ConnId(conn)).unwrap()
    }

    fn request(c: &mut Client, conn: u64, at: u64) -> Vec<(u32, u32)> {
        let mut picked = Vec::new();
        c.request_blocks(
            slot(c, conn),
            SimTime::from_secs(at),
            &mut SimRng::new(7),
            &mut picked,
        );
        assert!(c.ledger_is_coherent());
        picked
    }

    fn holds(c: &Client, conn: u64) -> Vec<(u32, u32)> {
        c.peers[slot(c, conn)]
            .inflight
            .iter()
            .map(|r| r.0)
            .collect()
    }

    #[test]
    fn expired_requests_are_forgotten_each_from_its_own_send_time() {
        let mut c = leecher_with_peers(16, 3);
        let early = request(&mut c, 1, 0);
        let late = request(&mut c, 2, 50);
        assert_eq!((early.len(), late.len()), (5, 5));
        // Nothing is forgotten before the timeout...
        c.expire_requests(SimTime::from_secs(60));
        assert_eq!(c.pieces.requests_outstanding(), 10);
        // ...then only the requests that are themselves too old: the block's reservation and
        // the peer's pipeline slot come back together.
        c.expire_requests(SimTime::from_secs(70));
        assert_eq!(holds(&c, 1), []);
        assert_eq!(holds(&c, 2), late);
        assert_eq!(c.pieces.requests_outstanding(), 5);
        // The forgotten blocks can be picked again.
        assert_eq!(request(&mut c, 3, 70), early);
    }

    #[test]
    fn a_choking_peers_pipeline_budget_comes_back() {
        // The peer accepted five requests, then choked and dropped them silently. Within
        // `request_timeout + choke_interval` the sweep gives the slots (and the blocks) back,
        // and holds nothing against the peer: its next unchoke can use all five.
        let mut c = leecher_with_peers(16, 1);
        assert_eq!(request(&mut c, 1, 0).len(), REQUEST_PIPELINE);
        c.peers[0].peer_choking = true;
        assert_eq!(request(&mut c, 1, 5), [], "a choking peer gets no requests");
        c.expire_requests(SimTime::ZERO + REQUEST_TIMEOUT + CHOKE_INTERVAL);
        assert_eq!(holds(&c, 1), []);
        assert_eq!(c.pieces.requests_outstanding(), 0);
        c.peers[0].peer_choking = false;
        assert_eq!(request(&mut c, 1, 80).len(), REQUEST_PIPELINE);
    }

    #[test]
    fn an_answer_settles_every_holders_request() {
        // Endgame: both peers hold both blocks. Peer 1's answer frees peer 2's slot as well.
        let mut c = leecher_with_peers(2, 2);
        assert_eq!(request(&mut c, 1, 0).len(), 2);
        assert_eq!(request(&mut c, 2, 1).len(), 2);
        assert_eq!(c.block_answered(slot(&c, 1), 0, 0), BlockOutcome::Progress);
        assert!(c.ledger_is_coherent());
        assert_eq!(holds(&c, 1), [(0, 1)]);
        assert_eq!(holds(&c, 2), [(0, 1)]);
        // A late answer to a request that expired and was re-issued elsewhere does the same.
        c.expire_requests(SimTime::from_secs(61));
        assert_eq!(holds(&c, 1), []);
        assert_eq!(
            c.block_answered(slot(&c, 1), 0, 1),
            BlockOutcome::FileComplete(0)
        );
        assert_eq!(holds(&c, 2), []);
        assert!(c.ledger_is_coherent());
    }

    #[test]
    fn endgame_repick_toward_a_holder_leaves_room_for_a_second_holder() {
        let mut c = leecher_with_peers(2, 3);
        assert_eq!(request(&mut c, 1, 0).len(), 2);
        assert!(c.pieces.in_endgame());
        // Asking the same peer again hands nothing back and counts no phantom holder...
        assert_eq!(request(&mut c, 1, 1), []);
        assert_eq!(c.pieces.request_count(0, 0), 1);
        // ...so a real second holder still fits, and a third is capped.
        assert_eq!(request(&mut c, 2, 2).len(), 2);
        assert_eq!(request(&mut c, 3, 3), []);
        assert_eq!(c.pieces.request_count(0, 0), MAX_ENDGAME_DUPLICATION);
    }

    #[test]
    fn forgetting_one_endgame_holder_keeps_the_twins_reservation() {
        let mut c = leecher_with_peers(2, 2);
        request(&mut c, 1, 0);
        request(&mut c, 2, 1);
        // Peer 1 answers block 0 with corrupt data, then disconnects: only its own requests go.
        c.forget_requests(slot(&c, 1), Some((0, 0)));
        assert_eq!(c.pieces.request_count(0, 0), 1);
        c.forget_requests(slot(&c, 1), None);
        assert_eq!(holds(&c, 1), []);
        assert_eq!(holds(&c, 2), [(0, 0), (0, 1)]);
        assert!(c.pieces.in_endgame(), "every block is still reserved");
        // A second corrupt answer for a request that is already gone releases nothing.
        c.forget_requests(slot(&c, 1), Some((0, 0)));
        assert_eq!(c.pieces.request_count(0, 0), 1);
        // Once the twin goes too, the blocks are uncovered again.
        c.forget_requests(slot(&c, 2), None);
        assert!(!c.pieces.in_endgame());
        assert_eq!(c.pieces.requests_outstanding(), 0);
    }

    #[test]
    fn a_full_table_churned_never_moves() {
        let mut c = client(false);
        let addr = |conn: u64| SocketAddr::new(VirtAddr::new(10, 0, 1, conn as u8), 6881);
        let mut next = 0u64;
        let mut open = |c: &mut Client| {
            next += 1;
            c.peers
                .insert(PeerConn::new(ConnId(next), addr(next), true, 64));
        };
        open(&mut c);
        let (conns, peers) = (c.peers.conns.as_ptr(), c.peers.peers.as_ptr());
        while c.peers.len() < MAX_CONNECTIONS {
            open(&mut c);
        }
        let mut rng = SimRng::new(40);
        for _ in 0..1_000 {
            let slot = rng.gen_range(0..c.peers.len());
            c.peers.remove(slot);
            open(&mut c);
            assert_eq!(c.peers.len(), MAX_CONNECTIONS);
        }
        let table = &c.peers;
        assert_eq!(
            (table.conns.capacity(), table.peers.capacity()),
            (MAX_CONNECTIONS, MAX_CONNECTIONS)
        );
        assert_eq!((table.conns.as_ptr(), table.peers.as_ptr()), (conns, peers));
    }

    #[test]
    fn seeder_and_leecher_initial_state() {
        let seeder = client(true);
        assert!(seeder.is_seeding());
        assert!(seeder.initial_seeder);
        assert_eq!(seeder.percent_done(), 100.0);
        let leecher = client(false);
        assert!(!leecher.is_seeding());
        assert_eq!(leecher.percent_done(), 0.0);
        assert!(leecher.completed_at.is_none());
    }

    #[test]
    fn peer_conn_defaults_follow_protocol() {
        // The protocol starts every connection choked and not interested on both sides.
        let p = PeerConn::new(
            ConnId(1),
            SocketAddr::new(VirtAddr::new(10, 0, 0, 2), 6881),
            true,
            64,
        );
        assert!(p.am_choking && p.peer_choking);
        assert!(!p.am_interested && !p.peer_interested);
        assert!(!p.handshaken);
        assert_eq!(p.bitfield.count(), 0);
    }

    #[test]
    fn unconnected_known_peers_excludes_connected_and_connecting() {
        let mut c = client(false);
        let a1 = SocketAddr::new(VirtAddr::new(10, 0, 0, 11), 6881);
        let a2 = SocketAddr::new(VirtAddr::new(10, 0, 0, 12), 6881);
        let a3 = SocketAddr::new(VirtAddr::new(10, 0, 0, 13), 6881);
        c.known_peers = vec![a1, a2, a3];
        c.connecting.insert(a2);
        c.peers.insert(PeerConn::new(ConnId(5), a3, true, 64));
        let mut out = vec![a3];
        c.unconnected_known_peers_into(&mut out);
        assert_eq!(out, [a1]);
    }

    #[test]
    fn wants_more_peers_respects_limits() {
        let mut c = client(false);
        assert!(!c.wants_more_peers(), "offline client never connects");
        c.online = true;
        assert!(c.wants_more_peers());
        for i in 0..MAX_INITIATE {
            c.connecting
                .insert(SocketAddr::new(VirtAddr::new(10, 0, 1, i as u8), 6881));
        }
        assert!(!c.wants_more_peers());
    }

    #[test]
    fn choker_snapshot_only_includes_handshaken_peers() {
        let mut c = client(false);
        let a = SocketAddr::new(VirtAddr::new(10, 0, 0, 11), 6881);
        let mut p1 = PeerConn::new(ConnId(1), a, true, 64);
        p1.handshaken = true;
        p1.peer_interested = true;
        let p2 = PeerConn::new(ConnId(2), a, true, 64);
        c.peers.insert(p2);
        c.peers.insert(p1);
        let mut snap = Vec::new();
        c.choker_snapshot_into(SimTime::from_secs(5), &mut snap);
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].conn, ConnId(1));
        assert!(snap[0].interested);
    }
}
