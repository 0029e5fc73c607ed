//! Congestion control, applied as **pacing**.
//!
//! The emulated transport has no send queue to block — `Endpoint::send` always accepts — so a
//! congestion controller shapes traffic by spacing fragment releases instead: each fragment's
//! release is delayed until `pace_until`, which advances by [`Aimd::send_spacing`] per
//! fragment. [`Aimd`] is the one controller: TCP-style slow start and additive increase /
//! multiplicative decrease over a smoothed RTT, pacing at `cwnd / srtt`. A connection direction
//! under [`CcKind::Legacy`] holds no controller (`ProtoHalf::cc` is `None`): it never paces and
//! never reacts, which reproduces the historical behaviour exactly and keeps the byte-identity
//! pins wire-identical.

use p2plab_sim::SimDuration;

/// Which congestion control a connection direction uses (the configuration-level name; only
/// [`CcKind::Aimd`] instantiates a controller).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CcKind {
    /// Fixed window, zero pacing: wire-identical to the pre-protocol transport.
    Legacy,
    /// Slow start + additive increase / multiplicative decrease, applied as pacing.
    Aimd,
}

impl CcKind {
    /// Parses the DSL name (`"legacy"` / `"aimd"`).
    pub fn parse(name: &str) -> Option<CcKind> {
        match name {
            "legacy" => Some(CcKind::Legacy),
            "aimd" => Some(CcKind::Aimd),
            _ => None,
        }
    }

    /// The DSL name.
    pub fn name(self) -> &'static str {
        match self {
            CcKind::Legacy => "legacy",
            CcKind::Aimd => "aimd",
        }
    }
}

/// TCP-style AIMD over a smoothed RTT, applied as pacing at rate `cwnd / srtt`.
///
/// * slow start: `cwnd += acked_bytes` per ack while below `ssthresh`;
/// * congestion avoidance: `cwnd += mss * acked_bytes / cwnd` (≈ one MSS per RTT);
/// * loss: `ssthresh = cwnd / 2`, `cwnd = ssthresh` (both floored at `2 * mss`); further
///   losses are ignored until a full window of acknowledgements arrives, so a burst of
///   consecutive drops counts as **one** congestion event (NewReno-style);
/// * `srtt` is the classic `7/8 srtt + 1/8 sample` EWMA.
#[derive(Debug, Clone, Copy)]
pub struct Aimd {
    cwnd: u64,
    ssthresh: u64,
    srtt: SimDuration,
    /// Bytes of acknowledgements still to arrive before another loss may shrink the window
    /// (NewReno-style loss-event coalescing). A Gilbert–Elliott burst drops many consecutive
    /// fragments; halving per fragment would collapse the window to its floor on every burst,
    /// so losses within one window of acks after a halving count as the same congestion event.
    recovery_left: u64,
}

/// Segment size (`mss`) the AIMD controller grows by in congestion avoidance.
const AIMD_MSS: u64 = 1200;
/// Initial window: 10 segments (RFC 6928's modern initial window).
const AIMD_INITIAL_WINDOW: u64 = 10 * AIMD_MSS;
/// Window cap, so slow start over a fat emulated link cannot overflow the arithmetic.
const AIMD_MAX_WINDOW: u64 = 64 * 1024 * 1024;
/// Initial smoothed RTT before the first sample.
const AIMD_INITIAL_SRTT: SimDuration = SimDuration::from_millis(200);

impl Default for Aimd {
    fn default() -> Self {
        Aimd {
            cwnd: AIMD_INITIAL_WINDOW,
            ssthresh: AIMD_MAX_WINDOW,
            srtt: AIMD_INITIAL_SRTT,
            recovery_left: 0,
        }
    }
}

impl Aimd {
    /// An acknowledgement covered `wire_bytes`. `rtt` is `None` when the fragment was
    /// retransmitted (Karn's algorithm: the bytes grow the window, but an ack that cannot be
    /// matched to a single transmission yields no RTT sample).
    pub fn on_ack(&mut self, wire_bytes: u64, rtt: Option<SimDuration>) {
        self.recovery_left = self.recovery_left.saturating_sub(wire_bytes);
        if let Some(rtt) = rtt {
            self.srtt = SimDuration::from_nanos(
                (self.srtt.as_nanos() / 8).saturating_mul(7) + rtt.as_nanos() / 8,
            );
        }
        if self.cwnd < self.ssthresh {
            self.cwnd = (self.cwnd + wire_bytes).min(AIMD_MAX_WINDOW);
        } else {
            let growth = (AIMD_MSS.saturating_mul(wire_bytes) / self.cwnd).max(1);
            self.cwnd = (self.cwnd + growth).min(AIMD_MAX_WINDOW);
        }
    }

    /// A fragment was lost (drop-triggered, the sim's omniscient loss signal).
    pub fn on_loss(&mut self) {
        if self.recovery_left > 0 {
            // Still recovering from the previous halving: this loss belongs to the same burst.
            return;
        }
        self.ssthresh = (self.cwnd / 2).max(2 * AIMD_MSS);
        self.cwnd = self.ssthresh;
        self.recovery_left = self.cwnd;
    }

    /// Spacing to insert after releasing a fragment of `wire_bytes`.
    pub fn send_spacing(&self, wire_bytes: u64) -> SimDuration {
        // Pace at cwnd / srtt: the spacing of a fragment is the srtt share its bytes occupy in
        // the window.
        SimDuration::from_nanos(
            (u128::from(wire_bytes) * u128::from(self.srtt.as_nanos())
                / u128::from(self.cwnd.max(1)))
            .try_into()
            .unwrap_or(u64::MAX),
        )
    }

    /// The current congestion window in bytes (for metrics).
    pub fn cwnd_bytes(&self) -> u64 {
        self.cwnd
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aimd_slow_start_doubles_per_rtt() {
        let mut c = Aimd::default();
        let w0 = c.cwnd_bytes();
        // Acking a full window in slow start doubles it.
        c.on_ack(w0, Some(SimDuration::from_millis(100)));
        assert_eq!(c.cwnd_bytes(), 2 * w0);
    }

    #[test]
    fn aimd_halves_on_loss_and_grows_linearly_after() {
        let mut c = Aimd::default();
        for _ in 0..6 {
            c.on_ack(c.cwnd_bytes(), Some(SimDuration::from_millis(100)));
        }
        let before = c.cwnd_bytes();
        c.on_loss();
        assert_eq!(c.cwnd_bytes(), before / 2);
        // Now in congestion avoidance: acking a full window adds about one MSS.
        let w = c.cwnd_bytes();
        c.on_ack(w, Some(SimDuration::from_millis(100)));
        let growth = c.cwnd_bytes() - w;
        assert!(
            (AIMD_MSS / 2..=2 * AIMD_MSS).contains(&growth),
            "growth={growth}"
        );
    }

    #[test]
    fn aimd_loss_floor() {
        let mut c = Aimd::default();
        for _ in 0..20 {
            // A window of acks ends each recovery episode, so every loss is its own event.
            c.on_ack(c.cwnd_bytes(), None);
            c.on_loss();
        }
        assert_eq!(c.cwnd_bytes(), 2 * AIMD_MSS);
    }

    #[test]
    fn consecutive_losses_are_one_congestion_event() {
        let mut c = Aimd::default();
        let w = c.cwnd_bytes();
        // A Gilbert–Elliott burst: a dozen drop signals before any ack arrives.
        for _ in 0..12 {
            c.on_loss();
        }
        assert_eq!(c.cwnd_bytes(), w / 2, "burst must halve exactly once");
        // After a full window of acks drains the recovery, the next loss halves again.
        c.on_ack(c.cwnd_bytes(), None);
        let grown = c.cwnd_bytes();
        c.on_loss();
        assert!(c.cwnd_bytes() < grown);
    }

    #[test]
    fn aimd_pacing_tracks_rate() {
        let mut c = Aimd::default();
        // cwnd = 12000 bytes, srtt = 200 ms -> 1200 bytes should take ~20 ms.
        let spacing = c.send_spacing(1200);
        assert_eq!(spacing, SimDuration::from_millis(20));
        // A bigger window paces faster.
        c.on_ack(c.cwnd_bytes(), Some(SimDuration::from_millis(200)));
        assert!(c.send_spacing(1200) < spacing);
    }

    #[test]
    fn srtt_converges_toward_samples() {
        let mut c = Aimd::default();
        for _ in 0..100 {
            c.on_ack(1, Some(SimDuration::from_millis(50)));
        }
        let spacing = c.send_spacing(c.cwnd_bytes());
        // Spacing for a full window equals srtt; after many 50 ms samples it must be near 50 ms.
        assert!(
            spacing <= SimDuration::from_millis(55),
            "srtt failed to converge: {spacing:?}"
        );
    }

    #[test]
    fn sampleless_acks_grow_the_window_without_moving_srtt() {
        let mut c = Aimd::default();
        let spacing_before = c.send_spacing(1200);
        let w = c.cwnd_bytes();
        // A Karn-excluded ack (retransmitted fragment): bytes credited, srtt untouched.
        c.on_ack(1200, None);
        assert_eq!(c.cwnd_bytes(), w + 1200);
        // cwnd grew, so spacing shrinks — but srtt itself did not absorb any sample, which a
        // huge Some() sample would have shown immediately.
        assert!(c.send_spacing(1200) <= spacing_before);
        let mut poisoned = Aimd::default();
        poisoned.on_ack(1200, Some(SimDuration::from_secs(60)));
        assert!(poisoned.send_spacing(1200) > c.send_spacing(1200));
    }

    #[test]
    fn kind_names_round_trip() {
        for kind in [CcKind::Legacy, CcKind::Aimd] {
            assert_eq!(CcKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(CcKind::parse("bbr"), None);
        assert_eq!(CcKind::Aimd.name(), "aimd");
    }
}
