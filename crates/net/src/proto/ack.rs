//! Ack-bitfield reliability: wrapping sequence numbers, the receive-side tracker and the
//! send-side window.
//!
//! The wire format follows the classic game-networking shape (aeronet, Gaffer-style acks): an
//! acknowledgement names the **latest** sequence number received plus a 32-bit bitfield where
//! bit `k` acknowledges sequence `latest - 1 - k`. One ack therefore covers a sliding window of
//! 33 fragments, and losing an ack frame is harmless — the next one re-covers the window.
//!
//! Sequence numbers are 16-bit and wrap; comparisons use serial-number arithmetic
//! ([`seq_newer`]), so the scheme is sound as long as fewer than 2^15 fragments are in flight
//! per (connection, direction, lane) — far beyond any window the congestion controllers allow.

use p2plab_sim::SimTime;
use std::collections::VecDeque;

/// Serial-number comparison on wrapping u16 sequence numbers: is `a` newer than `b`?
pub fn seq_newer(a: u16, b: u16) -> bool {
    a != b && a.wrapping_sub(b) < 0x8000
}

/// An acknowledgement: the latest received sequence plus a window bitfield (bit `k` set ⇔
/// `latest - 1 - k` was received).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AckBitfield {
    /// Latest sequence number received.
    pub latest: u16,
    /// Window bitfield over the 32 sequences preceding `latest`.
    pub bits: u32,
}

impl AckBitfield {
    /// Whether the bitfield acknowledges `seq`.
    pub fn contains(&self, seq: u16) -> bool {
        if seq == self.latest {
            return true;
        }
        let diff = self.latest.wrapping_sub(seq);
        (1..=32).contains(&diff) && self.bits & (1u32 << (diff - 1)) != 0
    }

    /// Serializes to the 6-byte wire shape (little-endian `latest`, then `bits`).
    pub fn encode(&self) -> [u8; 6] {
        let mut out = [0u8; 6];
        out[..2].copy_from_slice(&self.latest.to_le_bytes());
        out[2..].copy_from_slice(&self.bits.to_le_bytes());
        out
    }

    /// Deserializes the 6-byte wire shape. Total: every 6-byte string is a valid bitfield.
    pub fn decode(bytes: [u8; 6]) -> AckBitfield {
        AckBitfield {
            latest: u16::from_le_bytes([bytes[0], bytes[1]]),
            bits: u32::from_le_bytes([bytes[2], bytes[3], bytes[4], bytes[5]]),
        }
    }
}

/// Receive-side sequence tracker: records every received fragment sequence and produces the
/// [`AckBitfield`] to send back.
#[derive(Debug, Clone, Default)]
pub struct AckTracker {
    latest: u16,
    bits: u32,
    any: bool,
}

impl AckTracker {
    /// Records receipt of `seq`. Returns `true` when the sequence was newly recorded inside
    /// the 33-wide window, `false` for duplicates or sequences older than the window (delivery
    /// dedup does **not** rely on this — the reassembler is authoritative).
    pub fn record(&mut self, seq: u16) -> bool {
        if !self.any {
            self.any = true;
            self.latest = seq;
            self.bits = 0;
            return true;
        }
        if seq == self.latest {
            return false;
        }
        if seq_newer(seq, self.latest) {
            let shift = u32::from(seq.wrapping_sub(self.latest));
            let shifted = if shift >= 32 { 0 } else { self.bits << shift };
            let prev_bit = if shift <= 32 { 1u32 << (shift - 1) } else { 0 };
            self.bits = shifted | prev_bit;
            self.latest = seq;
            true
        } else {
            let diff = u32::from(self.latest.wrapping_sub(seq));
            if !(1..=32).contains(&diff) {
                return false;
            }
            let bit = 1u32 << (diff - 1);
            if self.bits & bit != 0 {
                return false;
            }
            self.bits |= bit;
            true
        }
    }

    /// The current acknowledgement window.
    pub fn bitfield(&self) -> AckBitfield {
        AckBitfield {
            latest: self.latest,
            bits: self.bits,
        }
    }

    /// Whether anything was ever received.
    pub fn any(&self) -> bool {
        self.any
    }
}

/// One unacknowledged fragment on the sender side.
#[derive(Debug, Clone, Copy)]
struct SentEntry {
    seq: u16,
    wire_bytes: u64,
    sent_at: SimTime,
    acked: bool,
    /// Set when the fragment was retransmitted. Its eventual ack still credits the bytes, but
    /// yields no RTT sample (Karn's algorithm): the ack cannot be matched to a particular
    /// transmission, and sampling from the first one would fold retransmit backoffs into the
    /// smoothed RTT — inflating the pacer's spacing into a positive-feedback stall.
    retransmitted: bool,
}

/// Send-side window of outstanding fragments: turns returning ack bitfields into
/// `(bytes, rtt)` samples for the congestion controller.
///
/// Entries are kept in send order; acknowledged prefixes are popped eagerly and the window is
/// bounded (oldest entries fall off), so memory stays O(window) per (connection, direction,
/// lane) regardless of traffic volume.
#[derive(Debug, Clone, Default)]
pub struct SentWindow {
    entries: VecDeque<SentEntry>,
}

/// Bound on tracked in-flight fragments per lane direction; far beyond any cwnd the
/// controllers reach, it only guards against pathological scenarios.
const SENT_WINDOW_CAP: usize = 4096;

impl SentWindow {
    /// Records a fragment handed to the wire at `sent_at`.
    pub fn on_sent(&mut self, seq: u16, wire_bytes: u64, sent_at: SimTime) {
        if self.entries.len() >= SENT_WINDOW_CAP {
            self.entries.pop_front();
        }
        self.entries.push_back(SentEntry {
            seq,
            wire_bytes,
            sent_at,
            acked: false,
            retransmitted: false,
        });
    }

    /// Marks `seq` as retransmitted, excluding its eventual ack from RTT sampling (Karn's
    /// algorithm).
    pub fn mark_retransmitted(&mut self, seq: u16) {
        if let Some(entry) = self.entries.iter_mut().find(|e| e.seq == seq) {
            entry.retransmitted = true;
        }
    }

    /// Applies a received ack bitfield, invoking `on_acked(wire_bytes, sent_at)` once per
    /// newly acknowledged fragment, then drops the acknowledged prefix. `sent_at` is `None`
    /// for fragments that were retransmitted: the bytes count, the RTT sample does not.
    pub fn on_ack(&mut self, field: &AckBitfield, mut on_acked: impl FnMut(u64, Option<SimTime>)) {
        for entry in self.entries.iter_mut() {
            if !entry.acked && field.contains(entry.seq) {
                entry.acked = true;
                on_acked(
                    entry.wire_bytes,
                    (!entry.retransmitted).then_some(entry.sent_at),
                );
            }
        }
        while self.entries.front().is_some_and(|e| e.acked) {
            self.entries.pop_front();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_comparison_wraps() {
        assert!(seq_newer(1, 0));
        assert!(seq_newer(0, u16::MAX));
        assert!(seq_newer(100, 65500));
        assert!(!seq_newer(0, 1));
        assert!(!seq_newer(0, 0));
        assert!(!seq_newer(65500, 100));
    }

    #[test]
    fn tracker_builds_window() {
        let mut t = AckTracker::default();
        assert!(t.record(0));
        assert!(t.record(1));
        assert!(t.record(3));
        let f = t.bitfield();
        assert_eq!(f.latest, 3);
        assert!(f.contains(3));
        assert!(!f.contains(2));
        assert!(f.contains(1));
        assert!(f.contains(0));
        // Late arrival of 2 fills the hole.
        assert!(t.record(2));
        assert!(t.bitfield().contains(2));
        // Duplicates are reported as such.
        assert!(!t.record(2));
        assert!(!t.record(3));
    }

    #[test]
    fn tracker_handles_wraparound() {
        let mut t = AckTracker::default();
        assert!(t.record(u16::MAX - 1));
        assert!(t.record(u16::MAX));
        assert!(t.record(0));
        assert!(t.record(1));
        let f = t.bitfield();
        assert_eq!(f.latest, 1);
        for seq in [u16::MAX - 1, u16::MAX, 0, 1] {
            assert!(f.contains(seq), "missing {seq}");
        }
    }

    #[test]
    fn tracker_survives_large_jumps() {
        let mut t = AckTracker::default();
        assert!(t.record(0));
        assert!(t.record(1000)); // jump far beyond the 32-bit window
        let f = t.bitfield();
        assert_eq!(f.latest, 1000);
        assert!(!f.contains(0), "0 fell out of the window");
        // Too-old arrivals are rejected without panicking.
        assert!(!t.record(1));
    }

    #[test]
    fn bitfield_roundtrip() {
        let f = AckBitfield {
            latest: 0xBEEF,
            bits: 0xDEAD_1234,
        };
        assert_eq!(AckBitfield::decode(f.encode()), f);
    }

    #[test]
    fn sent_window_acks_and_drains() {
        let mut w = SentWindow::default();
        for seq in 0..4u16 {
            w.on_sent(seq, 100, SimTime::from_millis(u64::from(seq)));
        }
        assert_eq!(w.entries.len(), 4);
        // Ack 0, 1 and 3 (2 missing).
        let mut acked = Vec::new();
        let mut t = AckTracker::default();
        t.record(0);
        t.record(1);
        t.record(3);
        w.on_ack(&t.bitfield(), |bytes, sent| {
            acked.push((bytes, sent));
        });
        assert_eq!(acked.len(), 3);
        // None of these were retransmitted, so every ack carries an RTT anchor.
        assert!(acked.iter().all(|&(_, sent)| sent.is_some()));
        // 2 is still unacked, so the prefix drain stops there.
        assert_eq!(w.entries.len(), 2);
        // Re-applying the same ack produces no new samples.
        w.on_ack(&t.bitfield(), |_, _| panic!("duplicate ack sample"));
        // Acking 2 drains everything.
        t.record(2);
        w.on_ack(&t.bitfield(), |_, _| {});
        assert_eq!(w.entries.len(), 0);
    }

    #[test]
    fn retransmitted_fragments_yield_no_rtt_sample() {
        let mut w = SentWindow::default();
        w.on_sent(0, 100, SimTime::ZERO);
        w.on_sent(1, 100, SimTime::ZERO);
        w.mark_retransmitted(0);
        let mut t = AckTracker::default();
        t.record(0);
        t.record(1);
        let mut samples = Vec::new();
        w.on_ack(&t.bitfield(), |bytes, sent| samples.push((bytes, sent)));
        // Both acks credit their bytes, but only the clean one anchors an RTT.
        assert_eq!(samples.len(), 2);
        assert_eq!(samples.iter().filter(|(_, s)| s.is_some()).count(), 1);
    }

    #[test]
    fn sent_window_is_bounded() {
        let mut w = SentWindow::default();
        for i in 0..(SENT_WINDOW_CAP + 10) {
            w.on_sent(i as u16, 1, SimTime::ZERO);
        }
        assert_eq!(w.entries.len(), SENT_WINDOW_CAP);
    }
}
