//! Fixed-count kernels: one layer each, called through its public
//! functions on seed-derived inputs, timed from outside. Operation counts
//! are constants, so two commits do the same work; each kernel runs
//! [`ROUNDS`] times and every round is kept: the reported figure is the
//! median round in raw host time, and the rounds' spread travels with it.

use crate::actors::{pingpong_sharded, pingpong_sim, storm_sim};
use crate::stats::median;
use bitswap::{Bitswap, BitswapMessage, Block, MemoryBlockstore, WantEntry};
use ipfs_types::{Cid, Key256, PeerId};
use kademlia::{
    Dht, DhtConfig, DhtRequest, Lookup, LookupConfig, LookupKind, PeerInfo, ProviderRecord,
    ProviderStore, ProviderStoreConfig, RoutingTable, TableConfig,
};
use netgen::{PlacementItem, ScenarioConfig, WorkloadSpec, ZipfSampler};
use simnet::{ConnPool, Dur, NodeId, SimTime, TimerWheel};
use std::hint::black_box;
use std::net::{Ipv4Addr, SocketAddrV4};
use std::time::Instant;
use tcsb_core::{Campaign, CampaignOptions, Graph, RemovalStrategy};

/// Timed rounds per kernel. The rounds are milliseconds long, so eleven
/// of them cost little and the median shrugs off the host's short stalls.
pub const ROUNDS: usize = 11;

/// One kernel result: metric name and its samples, one per round for a
/// timing, a single one for a count (the unit is the catalog's).
pub type Row = (&'static str, Vec<f64>);

/// `ROUNDS` calls to `round`, each returning what it measured itself (so a
/// round can set up outside its timing).
fn rounds(mut round: impl FnMut() -> f64) -> Vec<f64> {
    (0..ROUNDS).map(|_| round()).collect()
}

/// Nanoseconds per operation of each round, a round performing `ops`.
fn ns_per_op(ops: u64, mut body: impl FnMut()) -> Vec<f64> {
    rounds(|| {
        let t = Instant::now();
        body();
        t.elapsed().as_secs_f64() * 1e9 / ops as f64
    })
}

/// Every sample of `xs` times `factor` (unit changes, operation counts).
fn scaled(xs: Vec<f64>, factor: f64) -> Vec<f64> {
    xs.into_iter().map(|x| x * factor).collect()
}

/// Small multiplicative generator for input indices (deterministic per
/// seed; the kernels need spread, not statistical quality).
fn lcg(seed: u64) -> impl FnMut() -> u64 {
    let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    move || {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        x >> 33
    }
}

fn info(seed: u64) -> PeerInfo {
    PeerInfo {
        id: PeerId::from_seed(seed),
        addrs: kademlia::no_addrs(),
        endpoint: NodeId(seed as u32),
    }
}

/// The host record every output carries, so that rows from different
/// hosts can be told apart: pure-CPU hashing speed and the engine's
/// null-actor dispatch rate (`pingpong_512pairs`). The second is also the
/// one normaliser: `events_per_s_norm` is a workload's event rate as a
/// share of it.
pub struct Calibration {
    /// In-tree SHA-256 over a 1 MiB buffer, MiB per host second.
    pub sha256_mib_per_s: f64,
    /// Ping-pong events per host second (512 pairs, 60 virtual seconds).
    pub pingpong_events_per_s: f64,
}

/// Measure the host record (under a second).
pub fn calibrate(seed: u64) -> Calibration {
    let buf: Vec<u8> = (0..1u32 << 20).map(|i| (i as u64 ^ seed) as u8).collect();
    const HASHES: u32 = 4;
    let hash_secs = rounds(|| {
        let t = Instant::now();
        for _ in 0..HASHES {
            black_box(ipfs_types::sha256(black_box(&buf)));
        }
        t.elapsed().as_secs_f64()
    });
    let mut events = 0;
    let pingpong_secs = rounds(|| {
        let (e, secs) = pingpong_round();
        events = e;
        secs
    });
    Calibration {
        sha256_mib_per_s: HASHES as f64 / median(&hash_secs),
        pingpong_events_per_s: events as f64 / median(&pingpong_secs),
    }
}

/// One run of the `pingpong_512pairs` load: `(events, host seconds)`.
fn pingpong_round() -> (u64, f64) {
    let mut s = pingpong_sim(512);
    let t = Instant::now();
    s.run_for(Dur::from_secs(60));
    (s.stats().events, t.elapsed().as_secs_f64())
}

/// Every per-layer kernel, in raw host time; `host` supplies the two
/// host-record rows.
pub fn run_all(seed: u64, host: &Calibration) -> Vec<Row> {
    let mut rows = engine(seed);
    rows.extend(wheel(seed));
    rows.extend(conn(seed));
    rows.extend(kad(seed));
    rows.extend(bitswap_rows(seed));
    rows.extend(netgen_rows(seed));
    rows.extend(analysis(seed));
    rows.extend([
        ("ipfs-types.sha256_mib_per_s", vec![host.sha256_mib_per_s]),
        (
            "simnet.engine.pingpong_events_per_s",
            vec![host.pingpong_events_per_s],
        ),
    ]);
    rows
}

/// Null-actor and timer-storm dispatch cost, epoch synchronisation cost,
/// and the size of one in-flight ecosystem event.
fn engine(seed: u64) -> Vec<Row> {
    let null_ns = rounds(|| {
        let (events, secs) = pingpong_round();
        secs * 1e9 / events as f64
    });
    let storm_ns = rounds(|| {
        let mut s = storm_sim(1024);
        let t = Instant::now();
        s.run_for(Dur::from_mins(10));
        t.elapsed().as_secs_f64() * 1e9 / s.stats().events as f64
    });

    // Few pairs, many hops: hardly any work per epoch, so what the second
    // shard adds is the three barrier rendezvous of every epoch. The 1- and
    // 2-shard runs of a round sit next to each other, so a round's
    // difference is taken under one state of the host.
    let sync_run = |shards: usize| {
        let mut s = pingpong_sharded(8, 5_000, shards);
        let t = Instant::now();
        s.run_for(Dur::from_secs(100));
        let secs = t.elapsed().as_secs_f64();
        let epochs = s.shard_loads().iter().map(|l| l.sync.epochs).max();
        (secs, epochs.unwrap_or(0))
    };
    let sync_ns = rounds(|| {
        let (one, _) = sync_run(1);
        let (two, epochs) = sync_run(2);
        (two - one).max(0.0) * 1e9 / epochs.max(1) as f64
    });

    // A real campaign on two shards: mailbox bytes per mailbox event is
    // `size_of` of the ecosystem's in-flight event.
    let scenario = netgen::build(ScenarioConfig::tiny(seed).with_shards(2));
    let mut c = Campaign::new(scenario, CampaignOptions::default());
    c.run_for(Dur::from_hours(1));
    let mut sync = simnet::SyncCounters::default();
    for l in c.sim.shard_loads() {
        sync.add(&l.sync);
    }
    let event_bytes = sync.mailbox_bytes_out as f64 / sync.mailbox_events_out.max(1) as f64;
    vec![
        ("simnet.engine.null_ns_per_event", null_ns),
        ("simnet.engine.timer_ns_per_event", storm_ns),
        ("simnet.shard.sync_ns_per_epoch", sync_ns),
        ("simnet.engine.event_bytes", vec![event_bytes]),
    ]
}

/// `TimerWheel::push` + `pop` with a steady population of 1024 entries,
/// every delay inside one band.
fn wheel(seed: u64) -> Vec<Row> {
    const POPULATION: u64 = 1024;
    const OPS: u64 = 200_000;
    let band = |base: u64, jitter: u64| {
        ns_per_op(OPS, || {
            let mut next = lcg(seed);
            let mut w: TimerWheel<u64> = TimerWheel::new();
            let mut now = 0u64;
            for i in 0..POPULATION + OPS {
                w.push(SimTime(now + base + next() % jitter), i, i);
                if i >= POPULATION {
                    let (t, _, v) = w.pop().expect("population never drains");
                    now = t.0;
                    black_box(v);
                }
            }
        })
    };
    const MS: u64 = 1_000_000;
    const HOUR: u64 = 3_600_000 * MS;
    vec![
        // Message latencies: inside the near wheel's 8.6 s span.
        ("simnet.wheel.push_pop_near_ns", band(MS, 1_000 * MS)),
        // Protocol timers: beyond the near wheel, inside the 9.8 h coarse span.
        (
            "simnet.wheel.push_pop_coarse_ns",
            band(10_000 * MS, 8 * HOUR),
        ),
        // Churn sessions: the far heap.
        ("simnet.wheel.push_pop_far_ns", band(11 * HOUR, 240 * HOUR)),
    ]
}

/// `ConnPool` with 256 nodes holding 32 connections each.
fn conn(seed: u64) -> Vec<Row> {
    const NODES: usize = 256;
    const PER_NODE: u32 = 32;
    const OPS: u64 = 400_000;
    let addr = SocketAddrV4::new(Ipv4Addr::new(10, 0, 0, 1), 4001);
    let mut pool = ConnPool::new();
    for node in 0..NODES {
        pool.push_node();
        for p in 0..PER_NODE {
            pool.insert(node, NodeId(p * 64 + node as u32), false, addr);
        }
    }
    let insert_remove = ns_per_op(OPS, || {
        let mut next = lcg(seed);
        for _ in 0..OPS {
            let x = next();
            let (node, peer) = (x as usize % NODES, NodeId((1 << 20) | (x as u32 & 0xFFFF)));
            pool.insert(node, peer, false, addr);
            black_box(pool.remove(node, peer));
        }
    });
    let lookup = ns_per_op(OPS, || {
        let mut next = lcg(seed);
        let mut hits = 0u64;
        for _ in 0..OPS {
            let x = next();
            let node = x as usize % NODES;
            // Even draws name a held connection, odd draws a missing one.
            let peer = NodeId((x >> 8) as u32 % PER_NODE * 64 + node as u32 + (x as u32 & 1));
            hits += u64::from(pool.contains(node, peer));
        }
        black_box(hits);
    });
    vec![
        ("simnet.conn.insert_remove_ns", insert_remove),
        ("simnet.conn.lookup_ns", lookup),
    ]
}

/// Routing table, iterative lookup, provider store and request handler.
fn kad(seed: u64) -> Vec<Row> {
    let base = seed.wrapping_mul(100_000);
    let infos: Vec<PeerInfo> = (1..=1000).map(|i| info(base + i)).collect();
    let targets: Vec<Key256> = (0..256).map(|i| Key256::from_seed(base + i)).collect();
    let local = PeerId::from_seed(base);

    let try_insert = ns_per_op(infos.len() as u64, || {
        let mut t = RoutingTable::new(local.key(), TableConfig::default());
        for i in &infos {
            t.try_insert(i.clone(), SimTime::ZERO);
        }
        black_box(t.len());
    });
    let mut table = RoutingTable::new(local.key(), TableConfig::default());
    for i in &infos[..800] {
        table.try_insert(i.clone(), SimTime::ZERO);
    }
    const CLOSEST_OPS: u64 = 20_000;
    let closest = ns_per_op(CLOSEST_OPS, || {
        for i in 0..CLOSEST_OPS as usize {
            black_box(table.closest(&targets[i % targets.len()], 20));
        }
    });
    const OBSERVE_OPS: u64 = 200_000;
    let observe = ns_per_op(OBSERVE_OPS, || {
        for i in 0..OBSERVE_OPS {
            black_box(table.observe(&infos[i as usize % 800], SimTime(i)));
        }
    });

    // Iterative lookup over an omniscient 300-peer population.
    const LOOKUPS: u64 = 200;
    let population = &infos[..300];
    let mut steps = 0u64;
    let lookups_ns = ns_per_op(LOOKUPS, || {
        steps = 0;
        for i in 0..LOOKUPS as usize {
            let target = targets[i % targets.len()];
            let mut closest = population.to_vec();
            closest.sort_by_key(|p| p.id.key().distance(&target));
            closest.truncate(20);
            let mut l = Lookup::new(
                target,
                None,
                LookupKind::GetClosestPeers,
                LookupConfig::default(),
                population[..10].to_vec(),
            );
            while !l.is_done() {
                for q in l.next_queries() {
                    l.on_response(&q.id, closest.clone(), vec![]);
                    steps += 1;
                }
            }
            black_box(l.into_result().closest.len());
        }
    });

    let cids: Vec<Cid> = (0..2_000).map(|i| Cid::from_seed(base + i)).collect();
    let record = |cid: Cid, provider: &PeerInfo| ProviderRecord {
        cid,
        provider: provider.id,
        addrs: kademlia::no_addrs(),
        endpoint: provider.endpoint,
        relay_endpoint: None,
        stored_at: SimTime::ZERO,
    };
    const STORE_OPS: u64 = 100_000;
    let add_get = ns_per_op(STORE_OPS, || {
        let mut store = ProviderStore::new(ProviderStoreConfig::default());
        for i in 0..STORE_OPS as usize {
            let cid = cids[i % cids.len()];
            store.add(record(cid, &infos[i % 7]), SimTime(i as u64));
            black_box(store.get(&cid, SimTime(i as u64)));
        }
    });

    let mut dht = Dht::new(local, DhtConfig::server());
    for i in &infos[..800] {
        dht.observe_peer(i, true, SimTime::ZERO);
    }
    for (i, cid) in cids.iter().enumerate() {
        let p = &infos[i % 7];
        let add = DhtRequest::AddProvider {
            record: record(*cid, p),
        };
        dht.handle_request(SimTime::ZERO, p, true, &add);
    }
    const REQUESTS: u64 = 40_000;
    let handle = ns_per_op(REQUESTS, || {
        for i in 0..REQUESTS as usize {
            let req = if i % 2 == 0 {
                DhtRequest::FindNode {
                    target: targets[i % targets.len()],
                }
            } else {
                DhtRequest::GetProviders {
                    cid: cids[i % cids.len()],
                }
            };
            black_box(dht.handle_request(SimTime(1), &infos[i % 800], true, &req));
        }
    });
    vec![
        ("kademlia.table.closest_ns", closest),
        ("kademlia.table.observe_ns", observe),
        ("kademlia.table.try_insert_ns", try_insert),
        (
            "kademlia.lookup.step_ns",
            scaled(lookups_ns.clone(), LOOKUPS as f64 / steps.max(1) as f64),
        ),
        ("kademlia.lookup.converge_us", scaled(lookups_ns, 1e-3)),
        ("kademlia.providers.add_get_ns", add_get),
        ("kademlia.dht.handle_request_ns", handle),
    ]
}

/// `Bitswap::start_fetch` and `handle_message` (wants, blocks).
fn bitswap_rows(seed: u64) -> Vec<Row> {
    const FETCHES: u64 = 20_000;
    let base = seed.wrapping_mul(100_000);
    let cids: Vec<Cid> = (0..FETCHES).map(|i| Cid::from_seed(base + i)).collect();
    let peers: Vec<PeerId> = (0..30).map(|i| PeerId::from_seed(base + i)).collect();

    let start_fetch = ns_per_op(FETCHES, || {
        let mut bs = Bitswap::new();
        for cid in &cids {
            black_box(bs.start_fetch(*cid, &peers, SimTime::ZERO));
        }
    });
    // A server holding every other block answers `WantHave` probes.
    let mut store = MemoryBlockstore::new();
    for cid in cids.iter().step_by(2) {
        store.put(Block {
            cid: *cid,
            size: 1024,
        });
    }
    let want = ns_per_op(FETCHES, || {
        let mut bs = Bitswap::new();
        for (i, cid) in cids.iter().enumerate() {
            let msg = BitswapMessage::Wantlist {
                entries: vec![WantEntry::have(*cid)],
                full: false,
            };
            black_box(bs.handle_message(SimTime::ZERO, peers[i % peers.len()], msg, &mut store));
        }
    });
    // A client with a session per CID receives the blocks it asked for.
    let block_ns = rounds(|| {
        let mut bs = Bitswap::new();
        let mut store = MemoryBlockstore::new();
        for cid in &cids {
            bs.start_fetch(*cid, &peers[..8], SimTime::ZERO);
        }
        let t = Instant::now();
        for (i, cid) in cids.iter().enumerate() {
            let msg = BitswapMessage::Blocks {
                blocks: vec![Block {
                    cid: *cid,
                    size: 1024,
                }],
            };
            black_box(bs.handle_message(SimTime(1), peers[i % 8], msg, &mut store));
        }
        t.elapsed().as_secs_f64() * 1e9 / FETCHES as f64
    });
    vec![
        ("bitswap.start_fetch_ns", start_fetch),
        ("bitswap.want_ns", want),
        ("bitswap.block_ns", block_ns),
    ]
}

/// Placement and the request generators.
fn netgen_rows(seed: u64) -> Vec<Row> {
    let mut next = lcg(seed);
    let items: Vec<PlacementItem> = (0..8_000)
        .map(|_| {
            let x = next();
            PlacementItem {
                region: (x % 4) as u16,
                weight: 1 + (x >> 4) % 1_000,
            }
        })
        .collect();
    const PLACEMENTS: u64 = 20;
    let balanced = ns_per_op(PLACEMENTS, || {
        for _ in 0..PLACEMENTS {
            black_box(netgen::placement::balanced(&items, 4));
        }
    });

    let catalog: Vec<(u32, f64)> = (0..4_000u32)
        .map(|i| (i, 1.0 / (1.0 + i as f64).powf(0.9)))
        .collect();
    let zipf = ZipfSampler::new(&catalog);
    const SAMPLES: u64 = 1_000_000;
    let sample = ns_per_op(SAMPLES, || {
        let mut next = lcg(seed);
        let range = zipf.range(None);
        let mut acc = 0u64;
        for _ in 0..SAMPLES {
            acc += zipf.sample(next() % range, None) as u64;
        }
        black_box(acc);
    });

    let spec = WorkloadSpec::preset(
        1_000_000,
        (SimTime(0), SimTime(200 * 3_600_000_000_000)),
        seed,
    );
    let ticks = spec.n_ticks();
    let emit = ns_per_op(ticks, || {
        let mut stream = netgen::RateStream::new(&spec);
        while let Some(tick) = stream.emit(&spec) {
            black_box(tick);
        }
    });
    vec![
        ("netgen.placement.balanced_ms", scaled(balanced, 1e-6)),
        ("netgen.workload.zipf_sample_ns", sample),
        ("netgen.workload.emit_tick_us", scaled(emit, 1e-3)),
    ]
}

/// Measurement-side analyses over one tiny crawl: graph resilience, cloud
/// attribution, the DNSLink scan and the ENS extraction.
fn analysis(seed: u64) -> Vec<Row> {
    let scenario = netgen::build(ScenarioConfig::tiny(seed).with_shards(1));
    let dns_scan = ns_per_op(1, || {
        let scanner = dnslink::ZdnsScanner::new(&scenario.dns);
        black_box(scanner.scan(scenario.dns_candidates.iter()).0.len());
    });
    let ens_extract = ns_per_op(1, || {
        black_box(ens::extract_ipfs_records(&scenario.ens_resolvers, 1000).1);
    });
    let mut c = Campaign::new(
        scenario,
        CampaignOptions {
            with_workload: false,
            ..Default::default()
        },
    );
    c.run_for(Dur::from_hours(4));
    let idx = c.crawl(Dur::from_mins(30));
    let snap = &c.snapshots()[idx];
    let graph = Graph::from_snapshot(snap);
    let resilience = ns_per_op(2, || {
        black_box(graph.resilience(RemovalStrategy::Random { seed }, 20));
        black_box(graph.resilience(RemovalStrategy::TargetedByDegree, 20));
    });
    let ips: Vec<Ipv4Addr> = snap.peers.iter().flat_map(|p| p.ips.clone()).collect();
    const ROUNDS_OVER_IPS: usize = 200;
    let lookups = (ips.len() * ROUNDS_OVER_IPS).max(1) as u64;
    let dbs = &c.scenario.dbs;
    let cloud_lookup = ns_per_op(lookups, || {
        let mut cloud = 0u64;
        for _ in 0..ROUNDS_OVER_IPS {
            for ip in &ips {
                cloud += u64::from(dbs.cloud.lookup(*ip).is_some());
            }
        }
        black_box(cloud);
    });
    vec![
        ("core.analysis.resilience_ms", scaled(resilience, 1e-6)),
        ("clouddb.lookup_ns", cloud_lookup),
        ("dnslink.scan_ms", scaled(dns_scan, 1e-6)),
        ("ens.extract_ms", scaled(ens_extract, 1e-6)),
    ]
}
