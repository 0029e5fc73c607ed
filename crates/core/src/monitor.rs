//! Resource monitoring of the emulation platform during an experiment.
//!
//! The paper states that during the folding experiments "we monitored the system load, the
//! memory usage, and the disk I/O on every physical node" and that "the first limiting factor
//! was the network speed: ... the platform's Gigabit network was saturated by the downloads".
//! This module provides the same observability for the emulated platform: it samples per-machine
//! NIC counters over time and reports utilization, so experiments can verify that the emulation
//! infrastructure itself did not distort results (and detect when it does, as in the
//! `ablation_folding_limit` bench).
//!
//! The monitor records through the run's shared [`Recorder`]: every machine gets a
//! `nic_utilization.machine<m>` time series and the running peak is kept as the
//! `peak_nic_utilization` gauge, so the utilization curves land in the run's
//! [`MetricSet`](p2plab_sim::MetricSet) next to the workload's own metrics.

use p2plab_net::network::NIC_BPS;
use p2plab_net::{MachineId, Network};
use p2plab_sim::{Gauge, Recorder, SimTime, TimeSeriesId};

/// Rolling monitor of the emulated cluster's physical resources.
#[derive(Debug, Clone)]
pub struct ResourceMonitor {
    last_sample_at: SimTime,
    last_tx: Vec<u64>,
    last_rx: Vec<u64>,
    /// Per-machine utilization series handles in the run's recorder.
    series: Vec<TimeSeriesId>,
    peak_gauge: Gauge,
    /// Highest NIC utilization observed on any machine (the value of `peak_gauge`).
    peak_utilization: f64,
}

impl ResourceMonitor {
    /// Creates a monitor for the machines currently present in `net`, registering their
    /// utilization series in `rec`. Machines added to the network later are picked up (and
    /// registered) lazily by [`record`](ResourceMonitor::record).
    pub fn new(net: &Network, rec: &mut Recorder) -> ResourceMonitor {
        let mut monitor = ResourceMonitor {
            last_sample_at: SimTime::ZERO,
            last_tx: Vec::new(),
            last_rx: Vec::new(),
            series: Vec::new(),
            peak_gauge: rec.gauge("peak_nic_utilization"),
            peak_utilization: 0.0,
        };
        monitor.grow_to(net, net.machine_count(), rec, true);
        monitor
    }

    /// Extends the per-machine baselines and series up to `machines` (and, crucially, never
    /// indexes past the end of the vectors — the old fixed-size monitor panicked when the
    /// network grew after monitor creation). At monitor creation (`from_current`) baselines
    /// start from the machines' current counters, so a monitor attached to a warm network is
    /// not charged for traffic it never observed. A machine that appears *mid-run* instead
    /// baselines from zero: it was created with zeroed NIC counters, so everything it
    /// forwarded since joining belongs to its first sampling interval.
    fn grow_to(&mut self, net: &Network, machines: usize, rec: &mut Recorder, from_current: bool) {
        for m in self.last_tx.len()..machines {
            let (tx, rx) = if from_current {
                net.machine(MachineId(m)).nic_bytes()
            } else {
                (0, 0)
            };
            self.last_tx.push(tx);
            self.last_rx.push(rx);
            self.series
                .push(rec.time_series(format!("nic_utilization.machine{m}")));
        }
    }

    /// Takes one sample of every machine at `now`: each machine's NIC utilization (the busier
    /// direction over the interval since the previous sample, in `[0, 1]`) is pushed onto its
    /// series, and the peak gauge follows the highest value seen. Allocation-free, which is what
    /// the scenario runner's periodic sampler needs at 10^4–10^5 vnodes.
    pub fn record(&mut self, now: SimTime, net: &Network, rec: &mut Recorder) {
        let machines = net.machine_count();
        self.grow_to(net, machines, rec, false);
        let interval = now.saturating_since(self.last_sample_at).as_secs_f64();
        for m in 0..machines {
            let (tx, rx) = net.machine(MachineId(m)).nic_bytes();
            let d_tx = tx.saturating_sub(self.last_tx[m]);
            let d_rx = rx.saturating_sub(self.last_rx[m]);
            self.last_tx[m] = tx;
            self.last_rx[m] = rx;
            let utilization = if interval > 0.0 {
                let bps = d_tx.max(d_rx) as f64 * 8.0 / interval;
                (bps / NIC_BPS as f64).min(1.0)
            } else {
                0.0
            };
            rec.push(self.series[m], now, utilization);
            if utilization > self.peak_utilization {
                self.peak_utilization = utilization;
                rec.set(self.peak_gauge, utilization);
            }
        }
        self.last_sample_at = now;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deploy::{deploy, DeploymentSpec};
    use p2plab_net::ping::{PingTimer, PingWorld, ECHO_BYTES};
    use p2plab_net::{AccessLinkClass, NetEvent, NetworkConfig, TopologySpec, VirtAddr};
    use p2plab_sim::{MetricSet, SimDuration, Simulation};

    fn two_machine_net() -> (Network, Vec<p2plab_net::VNodeId>) {
        let topo = TopologySpec::uniform(
            "mon",
            2,
            AccessLinkClass::symmetric(10_000_000, SimDuration::from_millis(1)),
        );
        let d = deploy(&topo, DeploymentSpec::new(2), NetworkConfig::default()).unwrap();
        (d.net, d.vnodes)
    }

    /// The two-machine network after 20 pings from the first vnode to the second, which sit
    /// on different machines.
    fn pinged_net() -> Network {
        let (net, vnodes) = two_machine_net();
        let (a, b) = (vnodes[0], vnodes[1]);
        let mut sim: p2plab_net::NetSim<PingWorld> = Simulation::new(PingWorld::new(net), 1);
        for i in 0..20 {
            // A single probe: a series with nothing left to re-arm.
            let probe = PingTimer::Probe {
                from: a,
                to: b,
                left: 0,
                interval: SimDuration::ZERO,
            };
            sim.schedule_event_at(SimTime::from_millis(i * 10), NetEvent::Timer(probe));
        }
        sim.run();
        sim.into_world().net
    }

    /// The utilization points each machine's series holds, in machine order.
    fn utilization(set: &MetricSet, machines: usize) -> Vec<Vec<f64>> {
        (0..machines)
            .map(|m| {
                let series = set.series(&format!("nic_utilization.machine{m}")).unwrap();
                series.samples().iter().map(|&(_, u)| u).collect()
            })
            .collect()
    }

    #[test]
    fn idle_network_has_zero_utilization() {
        let (net, _) = two_machine_net();
        let mut rec = Recorder::new();
        let mut monitor = ResourceMonitor::new(&net, &mut rec);
        monitor.record(SimTime::from_secs(10), &net, &mut rec);
        let set = rec.finish();
        assert_eq!(utilization(&set, 2), vec![vec![0.0], vec![0.0]]);
        assert!(set.series("nic_utilization.machine2").is_none());
        assert_eq!(set.gauge("peak_nic_utilization"), Some(0.0));
    }

    #[test]
    fn cross_machine_traffic_is_accounted() {
        let net = pinged_net();
        let mut rec = Recorder::new();
        let mut monitor = ResourceMonitor::new(&net, &mut rec);
        // The monitor was created after the traffic, so baselines already include it; zero
        // them to observe the counters instead.
        monitor.last_tx = vec![0, 0];
        monitor.last_rx = vec![0, 0];
        monitor.record(SimTime::from_secs(1), &net, &mut rec);
        let set = rec.finish();
        let per_machine = utilization(&set, 2);
        // Over a one-second interval, utilization × NIC rate / 8 is the busier direction's
        // byte count, which bounds the machine's transmitted bytes from above.
        let nic_bytes_per_sec = NIC_BPS as f64 / 8.0;
        let accounted: f64 = per_machine.iter().map(|u| u[0] * nic_bytes_per_sec).sum();
        assert!(
            accounted > (20 * ECHO_BYTES) as f64,
            "all pings crossed the cluster network: {accounted} bytes"
        );
        // The peak gauge is the highest point of any machine's series.
        let peak = per_machine.iter().flatten().copied().fold(0.0, f64::max);
        assert!(peak > 0.0);
        assert_eq!(set.gauge("peak_nic_utilization"), Some(peak));
    }

    #[test]
    fn utilization_is_bounded_by_one() {
        let net = pinged_net();
        let mut rec = Recorder::new();
        let mut monitor = ResourceMonitor::new(&net, &mut rec);
        // Charge all of the run's traffic to a one-nanosecond interval.
        monitor.last_tx = vec![0, 0];
        monitor.last_rx = vec![0, 0];
        monitor.record(SimTime::from_nanos(1), &net, &mut rec);
        let set = rec.finish();
        assert_eq!(utilization(&set, 2), vec![vec![1.0], vec![1.0]]);
        assert_eq!(set.gauge("peak_nic_utilization"), Some(1.0));
    }

    #[test]
    fn machine_added_after_creation_is_sampled_not_panicked() {
        // Regression: sampling used to loop over `net.machine_count()` while the baseline
        // vectors kept their creation-time size, so a machine added after monitor creation
        // indexed past the end. The monitor must grow its baselines lazily instead.
        let (mut net, _) = two_machine_net();
        let mut rec = Recorder::new();
        let mut monitor = ResourceMonitor::new(&net, &mut rec);
        net.add_machine("late-joiner", VirtAddr::new(192, 168, 77, 9));
        monitor.record(SimTime::from_secs(1), &net, &mut rec);
        // The late machine's series was registered on the fly. It baselines from zero (its
        // pipes were created with zeroed counters), so with no traffic since joining its first
        // sample reports exactly nothing — but any bytes it had forwarded between joining and
        // this tick would have been counted.
        assert_eq!(
            utilization(&rec.finish(), 3),
            vec![vec![0.0], vec![0.0], vec![0.0]]
        );
    }
}
