//! A client's dense connection table against a `BTreeMap<ConnId, _>` model: under inserts in
//! any id order (re-inserting an open id replaces its entry), removals and lookups, both list
//! the same connections in the same order, agree on every lookup, and every slot maps back to
//! its connection.

#![allow(
    clippy::disallowed_types,
    reason = "std collections model the implementation under test"
)]

use p2plab_bittorrent::{PeerConn, PeerTable};
use p2plab_net::{ConnId, SocketAddr, VirtAddr};
use p2plab_sim::SimRng;
use proptest::prelude::*;
use std::collections::BTreeMap;

/// A connection whose remote port carries `tag`, so a replacement is observable.
fn peer(conn: u64, tag: u16) -> PeerConn {
    let addr = SocketAddr::new(VirtAddr::new(10, 0, (conn >> 8) as u8, conn as u8), tag);
    PeerConn::new(ConnId(conn), addr, true, 8)
}

/// Applies `ops` — `(kind, conn)`: 0–1 insert, 2 remove (if open), 3 look up — over conns
/// `0..conns` to a table and to the model, checking them against each other after every op.
fn check_against_model(ops: &[(u8, u64)], conns: u64) {
    let mut table = PeerTable::default();
    let mut model: BTreeMap<ConnId, u16> = BTreeMap::new();
    for (tag, &(kind, conn)) in ops.iter().enumerate() {
        let (conn, tag) = (
            ConnId(conn),
            u16::try_from(tag).expect("a tag per operation"),
        );
        match kind {
            0 | 1 => {
                let slot = table.insert(peer(conn.0, tag));
                model.insert(conn, tag);
                assert_eq!(
                    table.conns()[slot],
                    conn,
                    "insert returned another conn's slot"
                );
            }
            2 => {
                let removed = table.slot(conn).map(|slot| table.remove(slot));
                let expected = model.remove(&conn);
                assert_eq!(
                    removed.map(|p| (p.conn, p.peer_addr.port)),
                    expected.map(|t| (conn, t))
                );
            }
            _ => {
                let found = table.slot(conn).map(|slot| table[slot].peer_addr.port);
                assert_eq!(found, model.get(&conn).copied());
            }
        }
        assert_eq!(table.len(), model.len());
        assert_eq!(table.is_empty(), model.is_empty());
        let listed: Vec<(ConnId, u16)> = table.iter().map(|p| (p.conn, p.peer_addr.port)).collect();
        let expected: Vec<(ConnId, u16)> = model.iter().map(|(&c, &t)| (c, t)).collect();
        assert_eq!(listed, expected, "iteration order or contents differ");
        for (slot, &c) in table.conns().iter().enumerate() {
            assert_eq!(
                table[slot].conn, c,
                "slot {slot} holds another conn's state"
            );
            assert_eq!(table.slot(c), Some(slot));
        }
        for c in (0..conns).map(ConnId) {
            assert_eq!(
                table.slot(c).is_some(),
                model.contains_key(&c),
                "lookup of {c:?}"
            );
        }
    }
}

proptest! {
    #[test]
    fn peer_table_matches_a_btreemap_model(
        ops in prop::collection::vec((0u8..4, 0u64..16), 1..200),
    ) {
        check_against_model(&ops, 16);
    }
}

/// The same property at about the size of a busy client's churn over a long run: 20,000
/// operations over 200 conns, run in release by CI.
#[test]
#[ignore = "20,000 operations: run in release"]
fn peer_table_matches_a_btreemap_model_at_scale() {
    let mut rng = SimRng::new(30);
    let ops: Vec<(u8, u64)> = (0..20_000)
        .map(|_| (rng.gen_range(0..4u8), rng.gen_range(0..200u64)))
        .collect();
    check_against_model(&ops, 200);
}
