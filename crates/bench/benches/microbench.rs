//! Micro-benchmarks of the emulation substrate: the discrete-event engine, the dummynet pipe
//! and IPFW firewall models (the mechanism behind Figure 6), the libc-interception cost model
//! (the paper's overhead table) and the BitTorrent piece picker.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use p2plab_bittorrent::{Bitfield, PieceManager, Torrent};
use p2plab_net::{
    Direction, Firewall, InterceptConfig, Pipe, PipeConfig, PipeId, Rule, Subnet, VirtAddr,
};
use p2plab_os::SyscallCostModel;
use p2plab_sim::{EventQueue, SimDuration, SimRng, SimTime, Simulation};
use std::hint::black_box;

fn bench_event_engine(c: &mut Criterion) {
    let mut group = c.benchmark_group("sim_engine");
    for &n in &[1_000u64, 10_000, 100_000] {
        group.bench_with_input(BenchmarkId::new("schedule_and_run", n), &n, |b, &n| {
            b.iter(|| {
                let mut sim = Simulation::new(0u64, 42);
                for i in 0..n {
                    sim.schedule_in(SimDuration::from_micros(i % 1000), |sim| {
                        *sim.world_mut() += 1;
                    });
                }
                sim.run();
                black_box(*sim.world())
            })
        });
    }
    group.finish();
}

/// The two due-set shapes the end-to-end workloads produce and `schedule_and_run` does not:
/// a synchronised gossip round crowding one 65,536 ns wheel tick, and a shard barrier
/// delivering a window of envelopes, ascending, behind a cursor that the window's last
/// `pop_due` parked on the next local event.
fn bench_due_set(c: &mut Criterion) {
    fn drain_sum(q: &mut EventQueue<usize>) -> usize {
        std::iter::from_fn(|| q.pop()).fold(0, |sum, (_, _, i)| sum.wrapping_add(i))
    }

    const EVENTS: u64 = 10_000;
    let mut group = c.benchmark_group("sim_queue_due_set");
    group.bench_with_input(
        BenchmarkId::new("bunched_tick", EVENTS),
        &EVENTS,
        |b, &n| {
            let mut rng = SimRng::new(7);
            let offsets: Vec<u64> = (0..n).map(|_| rng.gen_range(0u64..1 << 16)).collect();
            b.iter(|| {
                let mut q = EventQueue::new();
                for (i, &offset) in offsets.iter().enumerate() {
                    q.push(SimTime::from_nanos((1_000 << 16) + offset), i);
                }
                black_box(drain_sum(&mut q))
            })
        },
    );
    group.bench_with_input(
        BenchmarkId::new("behind_parked_cursor", EVENTS),
        &EVENTS,
        |b, &n| {
            b.iter(|| {
                let mut q = EventQueue::new();
                q.push(SimTime::from_millis(990), usize::MAX);
                black_box(q.peek_time());
                for i in 0..n {
                    // Four envelopes per instant, as fan-out produces.
                    q.push(SimTime::from_micros(10 + i / 4), i as usize);
                }
                black_box(drain_sum(&mut q))
            })
        },
    );
    group.finish();
}

fn bench_pipe(c: &mut Criterion) {
    c.bench_function("dummynet_pipe_enqueue", |b| {
        let mut pipe = Pipe::new(
            PipeConfig::shaped(128_000, SimDuration::from_millis(30)).with_queue_limit(None),
        );
        let mut rng = SimRng::new(1);
        let mut t = 0u64;
        b.iter(|| {
            t += 1;
            black_box(pipe.enqueue(SimTime::from_micros(t), 16 * 1024, &mut rng))
        })
    });
}

fn bench_firewall(c: &mut Criterion) {
    // The Figure 6 mechanism: classification cost grows linearly with the rule count.
    let mut group = c.benchmark_group("ipfw_classify");
    for &rules in &[10usize, 1_000, 10_000, 50_000] {
        group.bench_with_input(BenchmarkId::from_parameter(rules), &rules, |b, &rules| {
            let mut fw = Firewall::new(SimDuration::from_nanos(50));
            fw.add_dummy_rules(rules);
            fw.add_rule(Rule::pipe(
                Subnet::host(VirtAddr::new(10, 0, 0, 1)),
                Subnet::any(),
                Direction::Out,
                PipeId(0),
            ));
            let src = VirtAddr::new(10, 0, 0, 1);
            let dst = VirtAddr::new(10, 0, 0, 2);
            b.iter(|| black_box(fw.classify(src, dst, Direction::Out)))
        });
    }
    group.finish();
}

fn bench_interception(c: &mut Criterion) {
    // The paper's overhead table: connect/disconnect cycle with and without the libc shim.
    let model = SyscallCostModel::freebsd_opteron();
    let mut group = c.benchmark_group("intercept_overhead");
    group.bench_function("plain_connect_cycle", |b| {
        b.iter(|| black_box(InterceptConfig::disabled().connect_cycle_cost(&model)))
    });
    group.bench_function("intercepted_connect_cycle", |b| {
        b.iter(|| black_box(InterceptConfig::enabled().connect_cycle_cost(&model)))
    });
    group.finish();
}

fn bench_piece_picker(c: &mut Criterion) {
    let torrent = Torrent::paper_16mb();
    c.bench_function("rarest_first_pick_blocks", |b| {
        let mut rng = SimRng::new(3);
        let mut pm = PieceManager::new(torrent.clone(), false);
        let peer = Bitfield::full(torrent.num_pieces());
        for _ in 0..20 {
            pm.add_peer_bitfield(&peer);
        }
        b.iter(|| {
            let picked = pm.pick_blocks(&peer, 5, SimTime::ZERO, &mut rng);
            pm.release_requests(&picked);
            black_box(picked)
        })
    });
}

criterion_group!(
    benches,
    bench_event_engine,
    bench_due_set,
    bench_pipe,
    bench_firewall,
    bench_interception,
    bench_piece_picker
);
criterion_main!(benches);
