//! Property-based tests of the BitTorrent data structures: torrent geometry, bitfields, the
//! piece manager's bookkeeping invariants and the client's request ledger.

#![allow(
    clippy::disallowed_types,
    reason = "std collections model the implementation under test"
)]

use p2plab_bittorrent::client::{REQUEST_PIPELINE, REQUEST_TIMEOUT};
use p2plab_bittorrent::{
    Bitfield, BlockOutcome, ChokeConfig, Client, PeerConn, PeerId, PieceManager, Torrent,
};
use p2plab_net::{ConnId, SocketAddr, VNodeId, VirtAddr};
use p2plab_sim::{SimDuration, SimRng, SimTime};
use proptest::prelude::*;
use std::collections::BTreeSet;

const LEDGER_PEERS: u64 = 4;

/// A leecher of a 3-piece, 12-block torrent with `LEDGER_PEERS` serving peers owning all of it.
fn ledger_client() -> Client {
    let torrent = Torrent {
        name: "prop".into(),
        total_bytes: 3 * 64 * 1024,
        piece_size: 64 * 1024,
        block_size: 16 * 1024,
    };
    let addr = |host| SocketAddr::new(VirtAddr::new(10, 0, 0, host), 6881);
    let choke = ChokeConfig::default();
    let mut c = Client::new(PeerId(0), VNodeId(0), torrent, false, addr(250), choke);
    for conn in (1..=LEDGER_PEERS).map(ConnId) {
        let mut p = PeerConn::new(conn, addr(conn.0 as u8), true, 3);
        p.bitfield = Bitfield::full(3);
        c.pieces.add_peer_bitfield(&p.bitfield);
        (p.handshaken, p.am_interested, p.peer_choking) = (true, true, false);
        c.peers.insert(p);
    }
    c
}

/// The ledger recount as first written, O(n²) in the requests outstanding: the reference that
/// [`Client::ledger_is_coherent`] must agree with.
fn ledger_is_coherent_quadratic(c: &Client) -> bool {
    let held = || c.peers.iter().flat_map(|p| &p.inflight);
    held().count() as u64 == c.pieces.requests_outstanding()
        && held().all(|r| {
            let holders = held().filter(|q| q.0 == r.0).count();
            holders == c.pieces.request_count(r.0 .0, r.0 .1) as usize
        })
}

proptest! {
    /// Block lengths of any torrent tile the file exactly.
    #[test]
    fn torrent_blocks_tile_the_file(total in 1u64..64 * 1024 * 1024, piece_kb in 1u32..512) {
        let torrent = Torrent {
            name: "prop".into(),
            total_bytes: total,
            piece_size: piece_kb * 1024,
            block_size: 16 * 1024,
        };
        let mut sum = 0u64;
        for p in 0..torrent.num_pieces() {
            let mut piece_sum = 0u64;
            for b in 0..torrent.blocks_in_piece(p) {
                let len = torrent.block_len(p, b) as u64;
                prop_assert!(len > 0);
                prop_assert!(len <= torrent.block_size as u64);
                piece_sum += len;
            }
            prop_assert_eq!(piece_sum, torrent.piece_len(p) as u64);
            sum += piece_sum;
        }
        prop_assert_eq!(sum, total);
    }

    /// Setting and clearing arbitrary piece indices keeps the bitfield count consistent.
    #[test]
    fn bitfield_count_matches_contents(len in 1u32..500, ops in prop::collection::vec((any::<bool>(), 0u32..500), 0..300)) {
        let mut bf = Bitfield::new(len);
        let mut reference = std::collections::HashSet::new();
        for (set, idx) in ops {
            let idx = idx % len;
            if set {
                bf.set(idx);
                reference.insert(idx);
            } else {
                bf.clear(idx);
                reference.remove(&idx);
            }
        }
        prop_assert_eq!(bf.count() as usize, reference.len());
        for i in 0..len {
            prop_assert_eq!(bf.get(i), reference.contains(&i));
        }
        prop_assert_eq!(bf.iter_set().count(), reference.len());
        prop_assert_eq!(bf.iter_missing().count(), (len as usize) - reference.len());
    }

    /// Feeding a piece manager blocks in any order completes the download with exactly the
    /// file's byte count, regardless of duplicates along the way.
    #[test]
    fn piece_manager_completes_under_any_arrival_order(
        total_kb in 64u64..2048,
        seed in 0u64..1000,
        duplicate_every in 2usize..10,
    ) {
        let torrent = Torrent::new("prop", total_kb * 1024);
        let mut pm = PieceManager::new(torrent.clone(), false);
        let mut rng = SimRng::new(seed);
        // Enumerate all blocks and shuffle the arrival order.
        let mut blocks: Vec<(u32, u32)> = (0..torrent.num_pieces())
            .flat_map(|p| (0..torrent.blocks_in_piece(p)).map(move |b| (p, b)))
            .collect();
        rng.shuffle(&mut blocks);
        let mut completions = 0;
        for (i, &(p, b)) in blocks.iter().enumerate() {
            let outcome = pm.block_received(p, b);
            match outcome {
                BlockOutcome::Duplicate => prop_assert!(false, "unexpected duplicate"),
                BlockOutcome::PieceComplete(_) | BlockOutcome::FileComplete(_) => completions += 1,
                BlockOutcome::Progress => {}
            }
            // Inject duplicates: they must be reported as such and change nothing.
            if i % duplicate_every == 0 {
                let before = pm.bytes_done();
                prop_assert_eq!(pm.block_received(p, b), BlockOutcome::Duplicate);
                prop_assert_eq!(pm.bytes_done(), before);
            }
        }
        prop_assert!(pm.is_complete());
        prop_assert_eq!(pm.bytes_done(), torrent.total_bytes);
        prop_assert_eq!(completions as u32, torrent.num_pieces());
        prop_assert_eq!(pm.percent_done(), 100.0);
    }

    /// The picker never returns blocks the client already has, never returns blocks the peer
    /// does not have, and respects the requested budget.
    #[test]
    fn picker_respects_peer_bitfield_and_budget(
        peer_pieces in prop::collection::vec(any::<bool>(), 1..64),
        owned in prop::collection::vec(any::<bool>(), 1..64),
        budget in 1usize..20,
        seed in 0u64..1000,
    ) {
        let n = peer_pieces.len().max(owned.len()) as u32;
        let torrent = Torrent {
            name: "prop".into(),
            total_bytes: n as u64 * 64 * 1024,
            piece_size: 64 * 1024,
            block_size: 16 * 1024,
        };
        let mut pm = PieceManager::new(torrent.clone(), false);
        // Mark owned pieces by feeding their blocks.
        for (p, &own) in owned.iter().enumerate() {
            if own {
                for b in 0..torrent.blocks_in_piece(p as u32) {
                    pm.block_received(p as u32, b);
                }
            }
        }
        let mut peer = Bitfield::new(torrent.num_pieces());
        for (p, &has) in peer_pieces.iter().enumerate() {
            if has {
                peer.set(p as u32);
            }
        }
        let mut rng = SimRng::new(seed);
        let picked = pm.pick_blocks(&peer, budget, SimTime::ZERO, &mut rng);
        prop_assert!(picked.len() <= budget);
        for &(p, _) in &picked {
            prop_assert!(peer.get(p), "picked piece {p} the peer does not have");
            prop_assert!(!pm.have().get(p), "picked a piece we already own");
        }
        // No duplicates within one pick.
        let mut dedup = picked.clone();
        dedup.sort_unstable();
        dedup.dedup();
        prop_assert_eq!(dedup.len(), picked.len());
    }

    /// The request ledger against a model that records who asked for what, and when, once:
    /// under any interleaving of request / answer / corrupt answer / disconnect / choke /
    /// unchoke / expiry over several peers, the peers' lists equal the model's, every block's count
    /// equals its holders in the model, and the endgame test (whose debug recount checks
    /// `uncovered_blocks`) agrees with the model's coverage.
    #[test]
    fn request_ledger_matches_a_single_owner_model(
        ops in prop::collection::vec((0u8..8, 1u64..LEDGER_PEERS + 1, 0u32..12, 0u64..40), 1..200),
        seed in 0u64..1000,
    ) {
        let mut c = ledger_client();
        let mut rng = SimRng::new(seed);
        let mut held: Vec<Vec<((u32, u32), SimTime)>> = vec![Vec::new(); LEDGER_PEERS as usize + 1];
        let mut received = BTreeSet::new();
        let mut now = SimTime::ZERO;
        let mut picked = Vec::new();
        for (op, peer, arg, dt) in ops {
            now += SimDuration::from_secs(dt);
            let slot = c.peers.slot(ConnId(peer)).unwrap();
            let mine = &mut held[peer as usize];
            // The block an answer names: one this peer was asked for, else an unsolicited one.
            let block = mine
                .get(arg as usize % mine.len().max(1))
                .map_or((arg / 4, arg % 4), |r| r.0);
            match op {
                0..=2 => {
                    let holders = |b| held.iter().flatten().filter(|r| r.0 == b).count();
                    let uncovered = (0..12)
                        .map(|i| (i / 4, i % 4))
                        .any(|b| !received.contains(&b) && holders(b) == 0);
                    let before: Vec<usize> = (0..12).map(|i| holders((i / 4, i % 4))).collect();
                    let budget = REQUEST_PIPELINE - held[peer as usize].len();
                    c.request_blocks(slot, now, &mut rng, &mut picked);
                    prop_assert!(picked.len() <= budget);
                    if !c.peers[slot].is_serving() {
                        prop_assert!(picked.is_empty());
                    }
                    for &b in &picked {
                        prop_assert!(!received.contains(&b), "picked a received block");
                        prop_assert!(held[peer as usize].iter().all(|r| r.0 != b), "asked twice");
                        let cap = if uncovered { 0 } else { 1 };
                        prop_assert!(before[(b.0 * 4 + b.1) as usize] <= cap);
                        held[peer as usize].push((b, now));
                    }
                }
                3 => {
                    let outcome = c.block_answered(slot, block.0, block.1);
                    prop_assert_eq!(outcome == BlockOutcome::Duplicate, !received.insert(block));
                    held.iter_mut().for_each(|h| h.retain(|r| r.0 != block));
                }
                4 => {
                    c.forget_requests(slot, Some(block));
                    mine.retain(|r| r.0 != block);
                }
                5 => {
                    c.forget_requests(slot, None);
                    mine.clear();
                }
                6 => {
                    let p = &mut c.peers[slot];
                    p.peer_choking = !p.peer_choking;
                }
                _ => {
                    c.expire_requests(now);
                    held.iter_mut()
                        .for_each(|h| h.retain(|r| now.saturating_since(r.1) <= REQUEST_TIMEOUT));
                }
            }
            let holders = |b| held.iter().flatten().filter(|r| r.0 == b).count();
            for p in c.peers.iter() {
                prop_assert_eq!(&p.inflight, &held[p.conn.0 as usize]);
            }
            // The lists equal the model's, and every block's count equals its holders there.
            prop_assert!(c.ledger_is_coherent());
            let covered = (0..12)
                .map(|i| (i / 4, i % 4))
                .all(|b| received.contains(&b) || holders(b) > 0);
            prop_assert_eq!(c.pieces.in_endgame(), covered && received.len() < 12);
            prop_assert_eq!(c.pieces.is_complete(), received.len() == 12);
        }
    }

    /// The sorted-run ledger recount against the quadratic definition, on ledgers built by
    /// random request / answer / disconnect sequences (endgame twins included) and then
    /// corrupted at most once: a count one below its holders, a holder dropped, a holder
    /// added, or a request moved to another block. Both accept every intact ledger and reject
    /// every corrupted one.
    #[test]
    fn ledger_recount_matches_the_quadratic_definition(
        ops in prop::collection::vec((0u8..4, 1u64..LEDGER_PEERS + 1, 0u32..12), 0..80),
        corruption in 0u8..5,
        pick in 0usize..64,
        seed in 0u64..1000,
    ) {
        let mut c = ledger_client();
        let mut rng = SimRng::new(seed);
        let mut picked = Vec::new();
        for (op, peer, arg) in ops {
            let slot = c.peers.slot(ConnId(peer)).unwrap();
            match op {
                0 | 1 => c.request_blocks(slot, SimTime::ZERO, &mut rng, &mut picked),
                2 => {
                    c.block_answered(slot, arg / 4, arg % 4);
                }
                _ => {
                    c.forget_requests(slot, None);
                }
            }
        }
        prop_assert!(ledger_is_coherent_quadratic(&c));
        prop_assert!(c.ledger_is_coherent());
        // Every held request as (slot, index in that peer's list).
        let held: Vec<(usize, usize)> = (0..c.peers.len())
            .flat_map(|slot| (0..c.peers[slot].inflight.len()).map(move |i| (slot, i)))
            .collect();
        let corrupted = match held.get(pick % held.len().max(1)) {
            Some(&(slot, i)) => {
                let request = c.peers[slot].inflight[i];
                match corruption {
                    1 => c.pieces.release_requests(&[request.0]),
                    2 => {
                        c.peers[slot].inflight.remove(i);
                    }
                    3 => {
                        let other = (slot + 1) % c.peers.len();
                        c.peers[other].inflight.push(request);
                    }
                    4 => {
                        let moved = ((pick as u32 / 4) % 3, pick as u32 % 4);
                        c.peers[slot].inflight[i].0 = if moved == request.0 {
                            ((moved.0 + 1) % 3, moved.1)
                        } else {
                            moved
                        };
                    }
                    _ => {}
                }
                corruption != 0
            }
            None => false,
        };
        prop_assert_eq!(ledger_is_coherent_quadratic(&c), !corrupted);
        prop_assert_eq!(c.ledger_is_coherent(), !corrupted);
    }
}
