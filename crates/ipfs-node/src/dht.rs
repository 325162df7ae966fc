//! DHT glue: request plumbing around the sans-io [`kademlia::Dht`] (the
//! serving half: table, provider store, request handling), the node's walks
//! and their driver (`begin_lookup` → `drive_lookup` → `finish_lookup`,
//! which records the walk's telemetry and hands its result to the [`Op`]
//! that asked for it), bootstrap, and provide / reprovide / bucket refresh.
//! Every walk is a [`Walk`] in the session's one map, so a restart drops
//! walks with the rest of the session. `handle_dht` is `#[inline]` for the
//! message router in `node`, which sits in another codegen unit.

use crate::conn::PostDial;
use crate::node::{tok, IpfsNode};
use crate::wire::{NodeEvent, WireMsg};
use ipfs_types::{Cid, Key256, PeerId};
use kademlia::{
    no_addrs, DhtMessage, DhtRequest, Lookup, LookupKind, PeerInfo, ProviderRecord, RPC_TIMEOUT,
};
use rand::RngExt;
use simnet::{Ctx, Dur, NodeId, SimTime};
use std::fmt::Debug;

#[derive(Clone, Debug)]
pub(crate) struct PendingRpc {
    pub(crate) peer: PeerInfo,
    pub(crate) lookup: u64,
}

/// One DHT walk in flight: the iterative lookup, who gets its result, and
/// when it began.
#[derive(Clone, Debug)]
pub(crate) struct Walk {
    pub(crate) lookup: Lookup,
    /// The [`Op`] the result goes to; `None` for a maintenance walk
    /// (bootstrap, refresh), run for its effect on the routing table.
    pub(crate) op: Option<u64>,
    /// Virtual start time: the latency histogram's and flight span's start.
    pub(crate) started: SimTime,
}

/// What a lookup (or, for `Fetch`, a whole retrieval) was started for.
#[derive(Clone, Debug)]
pub(crate) enum Op {
    Provide {
        cid: Cid,
    },
    Fetch {
        cid: Cid,
        /// Every HTTP requester waiting on this fetch. Concurrent requests
        /// for an in-flight CID coalesce onto the existing op instead of
        /// spawning a second pipeline (or, worse, being dropped).
        replies: Vec<(NodeId, u64)>,
        via_dht: bool,
        started: SimTime,
    },
    Resolve {
        cid: Cid,
        started: SimTime,
    },
}

impl IpfsNode {
    pub(crate) fn dht_request_msg<C: Debug>(
        &mut self,
        ctx: &Ctx<'_, WireMsg, C>,
        req: DhtRequest,
    ) -> (u64, DhtMessage) {
        let req_id = self.next_req;
        self.next_req += 1;
        let msg = DhtMessage::request(req_id, self.my_info(ctx), self.dht.is_server(), req);
        (req_id, msg)
    }

    pub(crate) fn send_query<C: Debug>(
        &mut self,
        ctx: &mut Ctx<'_, WireMsg, C>,
        lookup: u64,
        info: &PeerInfo,
    ) {
        let Some(Walk { lookup: l, .. }) = self.session.walks.get(&lookup) else {
            return;
        };
        let (req_id, msg) = self.dht_request_msg(ctx, l.request());
        if ctx.send(info.endpoint, WireMsg::Dht(msg)) {
            let peer = info.clone();
            self.session
                .pending
                .insert(req_id, PendingRpc { peer, lookup });
            self.set_timer(ctx, RPC_TIMEOUT, tok::RPC, req_id);
        } else {
            self.lookup_peer_failed(ctx, lookup, &info.id);
        }
    }

    /// `peer` could not be reached or did not answer: it leaves the routing
    /// table, and the walk moves on.
    pub(crate) fn lookup_peer_failed<C: Debug>(
        &mut self,
        ctx: &mut Ctx<'_, WireMsg, C>,
        lookup: u64,
        peer: &PeerId,
    ) {
        self.dht.table_mut().remove(peer);
        if let Some(walk) = self.session.walks.get_mut(&lookup) {
            walk.lookup.on_failure(peer);
        }
        self.drive_lookup(ctx, lookup);
    }

    /// Start a walk toward `target` and drive its first round. With `op`,
    /// [`Self::finish_lookup`] hands the result to that operation; without,
    /// it is a maintenance walk (bootstrap, refresh) run for its effect on
    /// the routing table.
    pub(crate) fn begin_lookup<C: Debug>(
        &mut self,
        ctx: &mut Ctx<'_, WireMsg, C>,
        target: Key256,
        cid: Option<Cid>,
        kind: LookupKind,
        op: Option<u64>,
    ) {
        let walk = Walk {
            lookup: self.dht.start_lookup(target, cid, kind),
            op,
            started: ctx.now(),
        };
        let lookup = self.session.next_walk;
        self.session.next_walk += 1;
        self.session.walks.insert(lookup, walk);
        self.drive_lookup(ctx, lookup);
    }

    /// Send the walk's next queries; a walk that is done leaves the map and
    /// finishes. A dial may fail at once and drive the same walk to its end
    /// from inside this loop: the queries left over then find no walk and
    /// are not sent.
    fn drive_lookup<C: Debug>(&mut self, ctx: &mut Ctx<'_, WireMsg, C>, lookup: u64) {
        let Some(walk) = self.session.walks.get_mut(&lookup) else {
            return;
        };
        for info in walk.lookup.next_queries() {
            let ep = info.endpoint;
            self.ensure_dial(ctx, ep, None, Some(PostDial::LookupQuery { lookup, info }));
        }
        let walks = &mut self.session.walks;
        if walks.get(&lookup).is_some_and(|w| w.lookup.is_done()) {
            let walk = walks.remove(&lookup).expect("a done walk is registered");
            self.finish_lookup(ctx, walk);
        }
    }

    fn finish_lookup<C: Debug>(&mut self, ctx: &mut Ctx<'_, WireMsg, C>, walk: Walk) {
        let result = walk.lookup.into_result();
        if telemetry::enabled() {
            use telemetry::{Counter, Metric};
            telemetry::count(Counter::LookupsCompleted, 1);
            telemetry::count(Counter::LookupPeerFailures, result.failures as u64);
            telemetry::observe(Metric::LookupContacted, result.contacted as u64);
            let started = walk.started.0;
            let elapsed = ctx.now().0.saturating_sub(started);
            telemetry::observe(Metric::LookupLatencyNs, elapsed);
            telemetry::flight::span(started, elapsed, "lookup", "dht", result.contacted as u64);
        }
        let Some(op_id) = walk.op else {
            // Maintenance lookup (bootstrap/refresh) — table already updated.
            if !self.session.bootstrapped {
                self.session.bootstrapped = true;
                self.record(NodeEvent::Bootstrapped);
                // NAT-ed nodes acquire a relay once they know some servers.
                if !ctx.i_am_dialable() && self.session.relay.is_none() {
                    self.acquire_relay(ctx);
                }
            }
            return;
        };
        let Some(op) = self.session.ops.get(&op_id) else {
            return;
        };
        match *op {
            Op::Provide { cid } => {
                self.session.ops.remove(&op_id);
                let record = self.provider_record(ctx, cid);
                let resolvers = result.closest.len();
                for peer in result.closest {
                    let record = record.clone();
                    self.ensure_dial(
                        ctx,
                        peer.endpoint,
                        None,
                        Some(PostDial::AddProvider { record }),
                    );
                }
                self.record(NodeEvent::Provided { cid, resolvers });
            }
            // The op stays registered until the fetch ends.
            Op::Fetch { cid, .. } => self.providers_resolved(ctx, op_id, cid, &result.providers),
            Op::Resolve { cid, started } => {
                self.session.ops.remove(&op_id);
                self.record(NodeEvent::ProvidersResolved {
                    cid,
                    records: result.providers,
                    contacted: result.contacted,
                    elapsed: ctx.now().since(started),
                });
            }
        }
    }

    fn provider_record<C: Debug>(&mut self, ctx: &Ctx<'_, WireMsg, C>, cid: Cid) -> ProviderRecord {
        ProviderRecord {
            cid,
            provider: self.id,
            addrs: self.adv_addrs(ctx),
            endpoint: ctx.me(),
            relay_endpoint: if ctx.i_am_dialable() {
                None
            } else {
                self.session.relay.as_ref().map(|(_, ep, _)| *ep)
            },
            stored_at: ctx.now(),
        }
    }

    pub(crate) fn do_bootstrap<C: Debug>(
        &mut self,
        ctx: &mut Ctx<'_, WireMsg, C>,
        seeds: &[(PeerId, NodeId)],
    ) {
        for (peer, ep) in seeds {
            if *ep == ctx.me() {
                continue;
            }
            let info = PeerInfo {
                id: *peer,
                addrs: no_addrs(),
                endpoint: *ep,
            };
            let created = self.dht.observe_peer(&info, true, ctx.now());
            self.flag_created_entry(created, peer);
            self.ensure_dial(ctx, *ep, None, None);
        }
        // Self-lookup fills nearby buckets and announces us to the network.
        self.begin_lookup(ctx, self.id.key(), None, LookupKind::GetClosestPeers, None);
    }

    pub(crate) fn start_provide<C: Debug>(&mut self, ctx: &mut Ctx<'_, WireMsg, C>, cid: Cid) {
        let op_id = self.next_req;
        self.next_req += 1;
        self.session.ops.insert(op_id, Op::Provide { cid });
        let kind = LookupKind::GetClosestPeers;
        self.begin_lookup(ctx, cid.dht_key(), None, kind, Some(op_id));
    }

    pub(crate) fn reprovide_tick<C: Debug>(
        &mut self,
        ctx: &mut Ctx<'_, WireMsg, C>,
        cursor: usize,
    ) {
        let mut cids: Vec<Cid> = self.store.cids().copied().collect();
        cids.sort();
        let end = (cursor + self.cfg.reprovide_batch).min(cids.len());
        for cid in &cids[cursor.min(cids.len())..end] {
            self.start_provide(ctx, *cid);
        }
        if end < cids.len() {
            self.set_timer(ctx, Dur::from_secs(30), tok::REPROVIDE, end as u64);
        } else {
            self.set_timer(ctx, self.cfg.reprovide_interval, tok::REPROVIDE, 0);
        }
    }

    /// Refresh one random bucket per tick (cheap approximation of the
    /// go-ipfs refresh cycle; tables stay warm through traffic anyway).
    pub(crate) fn refresh_tick<C: Debug>(&mut self, ctx: &mut Ctx<'_, WireMsg, C>) {
        let targets = self.dht.refresh_targets();
        if targets.is_empty() {
            return;
        }
        let t = targets[ctx.rng().random_range(0..targets.len())];
        self.begin_lookup(ctx, t, None, LookupKind::GetClosestPeers, None);
    }

    #[inline]
    pub(crate) fn handle_dht<C: Debug>(
        &mut self,
        ctx: &mut Ctx<'_, WireMsg, C>,
        from: NodeId,
        msg: DhtMessage,
    ) {
        match msg {
            DhtMessage::Request {
                req_id,
                sender,
                sender_is_server,
                req,
            } => {
                let req = DhtRequest::from(req);
                let (resp, created) =
                    self.dht
                        .handle_request(ctx.now(), &sender, sender_is_server, &req);
                self.flag_created_entry(created, &sender.id);
                if let Some(resp) = resp {
                    ctx.send(from, WireMsg::Dht(DhtMessage::Response { req_id, resp }));
                }
            }
            DhtMessage::Response { req_id, resp } => {
                let Some(rpc) = self.session.pending.remove(&req_id) else {
                    return; // late or unsolicited
                };
                let (closer, providers) = resp.into_parts();
                // Responders are servers by construction.
                let created = self.dht.observe_peer(&rpc.peer, true, ctx.now());
                if let Some(walk) = self.session.walks.get_mut(&rpc.lookup) {
                    walk.lookup.on_response(&rpc.peer.id, closer, providers);
                }
                self.flag_created_entry(created, &rpc.peer.id);
                self.drive_lookup(ctx, rpc.lookup);
            }
        }
    }
}
