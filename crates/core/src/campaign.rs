//! Campaign driver: instantiate a `netgen::Scenario` as a live simulation
//! with the paper's measurement tools deployed inside it.
//!
//! Layout: scenario nodes come first (index-aligned with
//! `scenario.nodes`), then one frontend actor per gateway, then the tools —
//! Bitswap monitor, crawler, web-user population and the provider-record
//! searcher. Hydra hosts from the scenario are instantiated as [`Hydra`]
//! actors in place of regular nodes.

use crate::actors::{EcoActor, EcoCmd, Frontend, ReplayDriver, WebUser};
use crate::crawler::{CrawlSnapshot, Crawler, CrawlerCmd};
use crate::hydra::{Hydra, HydraLogEntry};
use ipfs_node::{BitswapLogEntry, IpfsNode, NodeCmd, NodeConfig, NodeEvent};
use ipfs_types::{Cid, Keypair, PeerId};
use kademlia::ProviderRecord;
use netgen::{Platform, Request, Scenario};
use simnet::{Dur, LatencyModel, NodeId, NodeSetup, RegionId, Sim, SimConfig, SimTime};
use std::net::{Ipv4Addr, SocketAddrV4};

/// Campaign construction options: which traffic the campaign schedules.
/// Everything else about a run — engine seed, loss, dial timeout, node
/// placement — follows from the scenario and the constants below.
#[derive(Clone, Debug)]
pub struct CampaignOptions {
    /// Whether to schedule the content/request workload (crawl-only
    /// campaigns skip it to save events).
    pub with_workload: bool,
    /// Whether to schedule the fetch/HTTP request side of the workload.
    /// `false` keeps publishes (so provider records exist) but drops the
    /// retrieval traffic — the cheap configuration for resilience probes.
    pub with_requests: bool,
    /// Live request replay: drive retrieval traffic generatively from a
    /// [`netgen::WorkloadSpec`] instead of the scenario's materialised
    /// request trace. Publishes still come from the scenario; the static
    /// request loop is skipped. Requires `with_workload`.
    pub live_workload: Option<netgen::WorkloadSpec>,
}

impl Default for CampaignOptions {
    fn default() -> Self {
        CampaignOptions {
            with_workload: true,
            with_requests: true,
            live_workload: None,
        }
    }
}

/// Engine dial timeout. A connected peer that does not answer a query is
/// given up on after `kademlia::RPC_TIMEOUT` (10 s); the crawl as a whole
/// waits as long as [`Campaign::crawl`]'s `max_wait`.
const DIAL_TIMEOUT: Dur = Dur::from_secs(8);
/// Random message loss.
const LOSS: f64 = 0.002;
/// Mixed into the scenario seed to derive the engine seed.
const ENGINE_SEED_SALT: u64 = 0x51;

/// Predicted event weights for the campaign's singleton actors, as
/// fractions of the total scenario-node weight (per mille). The monitor
/// holds connections to every online node on a 2-minute connection-manager
/// tick and the crawler periodically contacts the full population, so both
/// scale with the population itself; the web-user and frontend weights
/// only materialize when the request workload is scheduled. Calibrated
/// against measured per-node dispatched counts on the stress preset
/// (crawler ≈ 15‰ of all events, monitor ≈ 2‰, searcher ≈ 0.4‰).
const MONITOR_WEIGHT_PERMILLE: u64 = 2;
const CRAWLER_WEIGHT_PERMILLE: u64 = 15;
const WEBUSER_WEIGHT_PERMILLE: u64 = 5;
const SEARCHER_WEIGHT_PERMILLE: u64 = 1;
const FRONTENDS_WEIGHT_PERMILLE: u64 = 2;

/// Outcome of one provider-record resolution (searcher-side view).
#[derive(Clone, Debug)]
pub struct ResolvedProviders {
    /// The resolved content.
    pub cid: Cid,
    /// Collected provider records.
    pub records: Vec<ProviderRecord>,
    /// Peers contacted during the walk.
    pub contacted: usize,
    /// Virtual time the lookup took.
    pub elapsed: Dur,
}

/// A live campaign: scenario + simulation + tools.
pub struct Campaign {
    /// The generating scenario (ground truth lives here; analyses must not
    /// read it except for database access).
    pub scenario: Scenario,
    /// The simulator.
    pub sim: Sim<EcoActor>,
    /// Engine ids of scenario nodes (index-aligned).
    pub node_ids: Vec<NodeId>,
    /// Frontend ids (aligned with `scenario.gateways`).
    pub frontends: Vec<NodeId>,
    /// The Bitswap monitoring node.
    pub monitor: NodeId,
    /// The DHT crawler.
    pub crawler: NodeId,
    /// Hydra hosts.
    pub hydras: Vec<NodeId>,
    /// Web-user population.
    pub webuser: NodeId,
    /// Provider-record searcher client.
    pub searcher: NodeId,
    /// The node→shard assignment this campaign was built with (predicted
    /// weights are the balance objective; `repro budget` surfaces them
    /// next to the measured per-shard counters).
    pub placement: netgen::Placement,
    crawl_seq: u64,
    bootstrap: Vec<(PeerId, NodeId)>,
}

impl Campaign {
    /// Instantiate the scenario.
    pub fn new(scenario: Scenario, opts: CampaignOptions) -> Campaign {
        let cfg = SimConfig {
            loss: LOSS,
            dial_timeout: DIAL_TIMEOUT,
            max_events: u64::MAX,
        };
        let latency = LatencyModel::continents(4, Dur::from_millis(12), Dur::from_millis(90), 0.3);
        let seed = scenario.cfg.seed ^ ENGINE_SEED_SALT;
        // Shard count: explicit `ScenarioConfig::shards`, else TCSB_SHARDS,
        // else 1. Output is byte-identical across shard counts; only
        // wall-clock and per-shard load change.
        let shards = scenario.cfg.effective_shards();
        let mut sim: Sim<EcoActor> = Sim::new_sharded(cfg, latency, seed, shards);
        // Exact-fit reservation: replica columns end up with capacity == len,
        // so the measured per-extra-shard replica footprint is the tight
        // 8 bytes × nodes bound that `state_bytes` reports.
        sim.reserve_nodes(scenario.nodes.len() + scenario.gateways.len() + 4);

        // Predicted event weights, in campaign add order: scenario nodes,
        // frontends, then the four singleton tools (all region 0). Item
        // indices mirror the add order below.
        let frontends_base = scenario.nodes.len();
        let tools_base = frontends_base + scenario.gateways.len();
        let mut items: Vec<netgen::PlacementItem> = scenario
            .nodes
            .iter()
            .map(|spec| netgen::PlacementItem {
                region: spec.region,
                weight: netgen::node_weight(spec),
            })
            .collect();
        let scenario_total: u64 = items.iter().map(|it| it.weight).sum();
        let permille = |p: u64| (scenario_total * p / 1000).max(1);
        // Retrieval traffic materializes through the frontends and the
        // web-user actor whether it comes from the static trace or the
        // live replay stream — the weight model must match the actors
        // actually spawned, or the balanced partitioner packs a busy
        // replay web-user as if it were idle.
        let requests_flow =
            opts.with_workload && (opts.with_requests || opts.live_workload.is_some());
        let frontend_weight = if requests_flow {
            permille(FRONTENDS_WEIGHT_PERMILLE) / scenario.gateways.len().max(1) as u64
        } else {
            1
        };
        items.extend(scenario.gateways.iter().map(|_| netgen::PlacementItem {
            region: 0,
            weight: frontend_weight,
        }));
        let webuser_weight = if requests_flow {
            permille(WEBUSER_WEIGHT_PERMILLE)
        } else {
            1
        };
        for weight in [
            permille(MONITOR_WEIGHT_PERMILLE),
            permille(CRAWLER_WEIGHT_PERMILLE),
            webuser_weight,
            permille(SEARCHER_WEIGHT_PERMILLE),
        ] {
            items.push(netgen::PlacementItem { region: 0, weight });
        }
        let placement = netgen::placement::balanced(&items, shards);

        // Bootstrap identities are known up front (first N nodes).
        let bootstrap: Vec<(PeerId, NodeId)> = (0..scenario.bootstrap_count)
            .map(|i| {
                (
                    Keypair::from_seed(scenario.nodes[i].identity_seed).peer_id(),
                    NodeId(i as u32),
                )
            })
            .collect();

        // --- scenario nodes -------------------------------------------------
        let mut node_ids = Vec::with_capacity(scenario.nodes.len());
        let mut hydras = Vec::new();
        for (i, spec) in scenario.nodes.iter().enumerate() {
            let first_ip = spec
                .sessions
                .first()
                .map(|s| spec.ips[s.ip_idx])
                .unwrap_or(spec.ips[0]);
            let setup = NodeSetup {
                addr: SocketAddrV4::new(first_ip, 4001),
                region: RegionId(spec.region),
                dialable: !spec.nat,
                online: false,
            };
            let actor = if spec.platform == Some(Platform::Hydra) {
                let h = Hydra::new(0x1D7A_0000 + ((i as u64) << 8), bootstrap.clone());
                EcoActor::Hydra(Box::new(h))
            } else {
                let mut nc = NodeConfig::regular(spec.identity_seed);
                nc.bootstrap = bootstrap
                    .iter()
                    .filter(|(_, ep)| ep.0 as usize != i)
                    .cloned()
                    .collect();
                nc.agent = spec.agent.as_str().into();
                nc.is_gateway = spec.gateway;
                nc.conn_floor = match spec.segment {
                    netgen::Segment::NatClient | netgen::Segment::Ephemeral => {
                        scenario.cfg.conn_floor / 3
                    }
                    netgen::Segment::PublicFringe => scenario.cfg.conn_floor / 2,
                    _ => scenario.cfg.conn_floor,
                };
                nc.connmgr_interval = Dur::from_mins(30);
                nc.refresh_interval = Dur::from_hours(12);
                nc.table_entry_ttl = Dur::from_mins(70);
                nc.reprovide_interval = Dur::from_hours(12);
                if let Some(extra) = spec.extra_addr {
                    nc.extra_addrs = vec![SocketAddrV4::new(extra, 4001)];
                }
                match spec.platform {
                    Some(Platform::Filebase) => {
                        nc.unbounded_conns = true;
                        nc.conn_floor = 4 * scenario.cfg.conn_floor.max(50);
                        nc.max_dials_per_tick = 64;
                        nc.connmgr_interval = Dur::from_mins(5);
                    }
                    Some(Platform::Web3Storage | Platform::NftStorage | Platform::Pinata) => {
                        nc.conn_floor = 2 * scenario.cfg.conn_floor.max(30);
                        nc.reprovide_batch = 32;
                    }
                    Some(Platform::IpfsBank | Platform::Gateway) => {
                        nc.conn_floor = 2 * scenario.cfg.conn_floor.max(30);
                    }
                    _ => {}
                }
                EcoActor::Node(Box::new(IpfsNode::new(nc)))
            };
            let id = sim.add_node_in(actor, setup, placement.shard_of[i]);
            if spec.platform == Some(Platform::Hydra) {
                hydras.push(id);
            }
            node_ids.push(id);
            // Churn schedule.
            for sess in &spec.sessions {
                let addr = SocketAddrV4::new(spec.ips[sess.ip_idx], 4001);
                sim.schedule_up(sess.up, id, Some(addr));
                sim.schedule_down(sess.down, id);
                if let Some(new_seed) = sess.new_identity {
                    sim.schedule_command(
                        sess.up + Dur::from_millis(50),
                        id,
                        EcoCmd::Node(NodeCmd::AdoptIdentity { seed: new_seed }),
                    );
                }
            }
        }

        // --- gateway frontends ----------------------------------------------
        let mut frontends = Vec::with_capacity(scenario.gateways.len());
        for (g_idx, g) in scenario.gateways.iter().enumerate() {
            let backends: Vec<NodeId> = g.overlay_nodes.iter().map(|&i| node_ids[i]).collect();
            let setup = NodeSetup::public(g.frontend_ips[0]);
            let id = sim.add_node_in(
                EcoActor::Frontend(Frontend::new(backends)),
                setup,
                placement.shard_of[frontends_base + g_idx],
            );
            frontends.push(id);
        }

        // --- tools ------------------------------------------------------------
        // Monitor: unbounded connectivity, logs Bitswap, reserved block
        // 198.18.0.0/15 (excluded from all attribution databases).
        let mut mon_cfg = NodeConfig::regular(0x4D4F4E17);
        mon_cfg.bootstrap = bootstrap.clone();
        mon_cfg.log_bitswap = true;
        mon_cfg.unbounded_conns = true;
        mon_cfg.conn_floor = usize::MAX / 2;
        mon_cfg.max_dials_per_tick = 128;
        mon_cfg.connmgr_interval = Dur::from_mins(2);
        mon_cfg.refresh_interval = Dur::from_hours(1);
        mon_cfg.agent = "monitor/1.0".into();
        let monitor = sim.add_node_in(
            EcoActor::Node(Box::new(IpfsNode::new(mon_cfg))),
            NodeSetup::public(Ipv4Addr::new(198, 18, 0, 1)),
            placement.shard_of[tools_base],
        );

        let crawler = sim.add_node_in(
            EcoActor::Crawler(Box::<Crawler>::default()),
            NodeSetup::public(Ipv4Addr::new(198, 18, 0, 2)),
            placement.shard_of[tools_base + 1],
        );

        // Live replay: resolve the workload spec against this campaign's
        // wiring — content catalog, functional gateways (traffic-weighted)
        // and per-region fetcher pools — and hand the driver to the
        // web-user actor. The pools mirror the static generator's fetcher
        // mix: ephemeral users dominate, fringe nodes and NAT clients
        // follow (build.rs samples the same 3:2:1 copies).
        let replay = opts.live_workload.as_ref().map(|spec| {
            let items: Vec<(u32, f64)> = scenario
                .content
                .iter()
                .enumerate()
                .filter(|(_, it)| it.publish_at <= spec.window.0)
                .map(|(c, it)| (c as u32, it.weight))
                .collect();
            let cids: Vec<Cid> = scenario.content.iter().map(|it| it.cid).collect();
            let mut gw_frontends = Vec::new();
            let mut gw_cum = Vec::new();
            let mut acc = 0u64;
            for (g_idx, g) in scenario.gateways.iter().enumerate() {
                if g.functional {
                    acc += ((g.traffic_weight * 1000.0) as u64).max(1);
                    gw_frontends.push(frontends[g_idx]);
                    gw_cum.push(acc);
                }
            }
            let mut pools: [Vec<NodeId>; netgen::N_REGIONS] = Default::default();
            for (i, spec_n) in scenario.nodes.iter().enumerate() {
                let copies = match spec_n.segment {
                    netgen::Segment::Ephemeral => 3,
                    netgen::Segment::PublicFringe => 2,
                    netgen::Segment::NatClient => 1,
                    _ => 0,
                };
                let r = spec_n.region as usize % netgen::N_REGIONS;
                for _ in 0..copies {
                    pools[r].push(node_ids[i]);
                }
            }
            ReplayDriver::new(spec.clone(), &items, cids, gw_frontends, gw_cum, pools)
        });
        let webuser = sim.add_node_in(
            EcoActor::WebUser(match replay {
                Some(driver) => WebUser::with_replay(driver),
                None => WebUser::new(),
            }),
            NodeSetup::public(Ipv4Addr::new(198, 18, 0, 3)),
            placement.shard_of[tools_base + 2],
        );

        let mut searcher_cfg = NodeConfig::regular(0x5EA4C4);
        searcher_cfg.bootstrap = bootstrap.clone();
        searcher_cfg.dht_server = Some(false);
        searcher_cfg.record_events = true;
        searcher_cfg.provide_on_fetch = false;
        searcher_cfg.reprovide_interval = Dur::ZERO;
        searcher_cfg.agent = "record-searcher/1.0".into();
        let searcher = sim.add_node_in(
            EcoActor::Node(Box::new(IpfsNode::new(searcher_cfg))),
            NodeSetup::public(Ipv4Addr::new(198, 18, 0, 4)),
            placement.shard_of[tools_base + 3],
        );

        // --- workload -----------------------------------------------------------
        if opts.with_workload {
            for item in &scenario.content {
                for &p in &item.publishers {
                    sim.schedule_command(
                        item.publish_at,
                        node_ids[p],
                        EcoCmd::Node(NodeCmd::Publish {
                            cid: item.cid,
                            size: item.size,
                        }),
                    );
                }
            }
            // Live replay supersedes the materialised trace: the stream
            // starts at its window and the static request loop is skipped.
            if let Some(spec) = &opts.live_workload {
                sim.schedule_command(spec.window.0, webuser, EcoCmd::ReplayTick);
            }
            let requests: &[Request] = if opts.with_requests && opts.live_workload.is_none() {
                &scenario.requests
            } else {
                &[]
            };
            for req in requests {
                match *req {
                    Request::Http {
                        at, gateway, item, ..
                    } => {
                        if scenario.gateways[gateway].functional {
                            sim.schedule_command(
                                at,
                                webuser,
                                EcoCmd::WebGet {
                                    frontend: frontends[gateway],
                                    cid: scenario.content[item].cid,
                                },
                            );
                        }
                    }
                    Request::Fetch { at, node, item } => {
                        sim.schedule_command(
                            at,
                            node_ids[node],
                            EcoCmd::Node(NodeCmd::Fetch {
                                cid: scenario.content[item].cid,
                            }),
                        );
                    }
                }
            }
        }

        Campaign {
            scenario,
            sim,
            node_ids,
            frontends,
            monitor,
            crawler,
            hydras,
            webuser,
            searcher,
            crawl_seq: 0,
            bootstrap,
            placement,
        }
    }

    /// Bootstrap pairs handed to tools.
    pub fn bootstrap_pairs(&self) -> Vec<(PeerId, NodeId)> {
        self.bootstrap.clone()
    }

    /// Run `f` against a *fork* of the campaign: the engine (queues,
    /// per-node RNGs, connections, actors, digest) is cloned, `f` drives
    /// the clone — crawls, probes, extra virtual time — and afterwards the
    /// original engine is restored exactly as it was. Whatever `f` does,
    /// the main campaign's subsequent event history and trace digest are
    /// untouched: the observatory primitive for crawler-eye snapshots that
    /// must not perturb the run they observe. The fork shares no mutable
    /// state with the original, and the scenario (pure data) is visible to
    /// `f` through the campaign as usual.
    pub fn with_fork<R>(&mut self, f: impl FnOnce(&mut Campaign) -> R) -> R {
        let fork = self.sim.clone();
        let main = std::mem::replace(&mut self.sim, fork);
        let crawl_seq = self.crawl_seq;
        let r = f(self);
        self.sim = main;
        self.crawl_seq = crawl_seq;
        r
    }

    /// Scenario indices of the nodes that count as *online DHT servers*
    /// right now: non-NAT (crawlable) and not Hydra hosts (which keep
    /// their own shared table and actor type). The single definition of
    /// the predicate — routing-fill and the recovery observatory's
    /// ground-truth population both build on it.
    pub fn online_server_indices(&self) -> Vec<usize> {
        let core = self.sim.core();
        self.scenario
            .nodes
            .iter()
            .enumerate()
            .filter(|(i, spec)| {
                !spec.nat
                    && spec.platform != Some(Platform::Hydra)
                    && core.is_online(self.node_ids[*i])
            })
            .map(|(i, _)| i)
            .collect()
    }

    /// Number of online DHT servers ([`Campaign::online_server_indices`]).
    pub fn online_server_count(&self) -> usize {
        self.online_server_indices().len()
    }

    /// Mean routing-table occupancy over the scenario's *online* DHT
    /// server nodes (Hydra hosts keep their own shared table and are
    /// excluded). This is the "routing-table fill" a recovery timeline
    /// tracks: exits empty tables immediately, refresh cycles heal them.
    pub fn routing_table_fill(&self) -> f64 {
        let servers = self.online_server_indices();
        let entries: usize = servers
            .iter()
            .map(|&i| self.sim.actor(self.node_ids[i]).node().dht().table().len())
            .sum();
        entries as f64 / servers.len().max(1) as f64
    }

    /// Engine shards this campaign runs on.
    pub fn shards(&self) -> usize {
        self.sim.n_shards()
    }

    /// Advance virtual time.
    pub fn run_for(&mut self, d: Dur) {
        self.sim.run_for(d);
    }

    /// Run a full crawl right now, returning its snapshot index. The engine
    /// advances until the crawl finishes (bounded by `max_wait`); a crawl
    /// still walking at the deadline is closed there, so the index is
    /// always this crawl's own — possibly partial — snapshot.
    pub fn crawl(&mut self, max_wait: Dur) -> usize {
        self.crawl_seq += 1;
        let seeds = self.bootstrap_pairs();
        let started = self.sim.now();
        self.sim.schedule_command(
            started,
            self.crawler,
            EcoCmd::Crawler(CrawlerCmd::Start {
                id: self.crawl_seq,
                seeds,
            }),
        );
        let deadline = started + max_wait;
        loop {
            self.sim.run_for(Dur::from_secs(10));
            let now = self.sim.now();
            let crawler = self.sim.actor_mut(self.crawler).crawler_mut();
            if !crawler.is_active() {
                break;
            }
            if now >= deadline {
                crawler.finish(now);
                break;
            }
        }
        let snap = self.sim.actor(self.crawler).crawler().snapshots.len() - 1;
        telemetry::flight::span(
            started.0,
            self.sim.now().0.saturating_sub(started.0),
            "crawl",
            format!("crawl-{}", self.crawl_seq),
            self.snapshots()[snap].peers.len() as u64,
        );
        snap
    }

    /// All crawl snapshots so far.
    pub fn snapshots(&self) -> &[CrawlSnapshot] {
        &self.sim.actor(self.crawler).crawler().snapshots
    }

    /// The monitor's Bitswap log.
    pub fn monitor_log(&self) -> &[BitswapLogEntry] {
        &self.sim.actor(self.monitor).node().bitswap_log
    }

    /// Merged Hydra logs (already time-sorted per host; merged stably).
    pub fn hydra_log(&self) -> Vec<HydraLogEntry> {
        let mut all: Vec<HydraLogEntry> = Vec::new();
        for &h in &self.hydras {
            all.extend(self.sim.actor(h).hydra().log.iter().cloned());
        }
        all.sort_by_key(|e| e.ts_ns);
        all
    }

    /// Peer IDs of all hydra heads (the paper obtained this set to attribute
    /// hydra traffic).
    pub fn hydra_heads(&self) -> Vec<PeerId> {
        let mut v: Vec<PeerId> = self
            .hydras
            .iter()
            .flat_map(|&h| self.sim.actor(h).hydra().heads.iter().copied())
            .collect();
        v.sort();
        v
    }

    /// Resolve provider records for a batch of CIDs with the modified
    /// (exhaustive) `FindProviders`, spacing lookups `spacing` apart.
    /// Returns `(cid, records, contacted)` per resolved CID.
    pub fn resolve_providers(
        &mut self,
        cids: &[Cid],
        exhaustive: bool,
        spacing: Dur,
    ) -> Vec<(Cid, Vec<ProviderRecord>, usize)> {
        self.resolve_providers_timed(cids, exhaustive, spacing)
            .into_iter()
            .map(|r| (r.cid, r.records, r.contacted))
            .collect()
    }

    /// [`Campaign::resolve_providers`] plus per-lookup latency — the
    /// resilience experiments compare lookup latency before and after an
    /// intervention.
    pub fn resolve_providers_timed(
        &mut self,
        cids: &[Cid],
        exhaustive: bool,
        spacing: Dur,
    ) -> Vec<ResolvedProviders> {
        let t0 = self.sim.now();
        telemetry::flight::span(
            t0.0,
            0,
            "probe",
            if exhaustive {
                "resolve-exhaustive"
            } else {
                "resolve"
            },
            cids.len() as u64,
        );
        for (i, cid) in cids.iter().enumerate() {
            self.sim.schedule_command(
                t0 + spacing * (i as u64),
                self.searcher,
                EcoCmd::Node(NodeCmd::ResolveProviders {
                    cid: *cid,
                    exhaustive,
                }),
            );
        }
        self.sim
            .run_for(spacing * (cids.len() as u64) + Dur::from_mins(3));
        let node = self.sim.actor_mut(self.searcher).node_mut();
        let mut out = Vec::new();
        for ev in node.events.drain(..) {
            if let NodeEvent::ProvidersResolved {
                cid,
                records,
                contacted,
                elapsed,
            } = ev
            {
                out.push(ResolvedProviders {
                    cid,
                    records,
                    contacted,
                    elapsed,
                });
            }
        }
        out
    }

    /// Provider records held by the scenario nodes right now, as
    /// `(live, raw)`: `live` counts only unexpired records — what a lookup
    /// could return — and `raw` also counts expired-but-unpruned ones, so
    /// `raw - live` is the store garbage a length count would over-report.
    pub fn provider_record_counts(&self) -> (usize, usize) {
        let now = self.now();
        let (mut live, mut raw) = (0, 0);
        for &id in &self.node_ids {
            if let EcoActor::Node(n) = self.sim.actor(id) {
                live += n.dht().providers().record_count(now);
                raw += n.dht().providers().raw_record_count();
            }
        }
        (live, raw)
    }

    /// Reachability check for a provider record, equivalent to the paper's
    /// "verify the provider answers at retrieval time". The engine's dial
    /// rules are deterministic, so this oracle gives exactly the answer a
    /// real dial probe would.
    pub fn record_reachable(&self, rec: &ProviderRecord) -> bool {
        let core = self.sim.core();
        if rec.endpoint.idx() >= core.node_count() {
            return false;
        }
        if !core.is_online(rec.endpoint) {
            return false;
        }
        if core.is_dialable(rec.endpoint) {
            return true;
        }
        rec.relay_endpoint
            .map(|r| r.idx() < core.node_count() && core.is_online(r))
            .unwrap_or(false)
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }
}
