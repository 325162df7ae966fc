//! Retrieval: the two-phase pipeline (`start_fetch` → 1-hop Bitswap
//! broadcast → `FETCH_BS` timer → DHT provider walk → `complete_fetch` /
//! `fail_fetch`), the Bitswap message path with the monitor's wantlist log,
//! and the gateway's HTTP replies. `handle_bitswap` and `flush_bitswap` are
//! `#[inline]`: the message router in `node` reaches them from another
//! codegen unit for three events in five of a replay.

use crate::conn::PostDial;
use crate::dht::Op;
use crate::node::{tok, IpfsNode};
use crate::wire::{BitswapLogEntry, NodeEvent, WireMsg};
use bitswap::{BitswapMessage, BsOutput, WantType};
use ipfs_types::{Cid, PeerId};
use kademlia::{LookupKind, ProviderRecord};
use simnet::{Ctx, Dur, NodeId};
use std::fmt::Debug;
use std::net::SocketAddrV4;

/// How long to wait on the Bitswap 1-hop broadcast before falling back to
/// the DHT. No negative answer ends the phase early: the broadcast asks
/// for none. Trautwein et al. report go-bitswap's provider-search delay as
/// 1 s, and the extra second here buys nothing for the fetches the
/// broadcast resolves. In the tiny replay (seed 42) the
/// `want_resolution_ns` histogram holds 7 904 sessions resolved inside
/// this phase: 7 170 within one round trip (< 67 ms), 733 more below
/// 0.54 s, the slowest below 1 s. None of them (0 %) took longer than 1 s,
/// so a 1 s timeout would send no Bitswap-resolved fetch to the DHT; it
/// would start the walk of the 375 other fetches one second sooner.
const BITSWAP_PHASE_TIMEOUT: Dur = Dur::from_secs(2);
/// Overall fetch deadline.
const FETCH_TIMEOUT: Dur = Dur::from_mins(2);
/// Providers dialled per DHT-resolved fetch.
const MAX_FETCH_PROVIDERS: usize = 3;

impl IpfsNode {
    /// Begin the two-phase retrieval pipeline. `reply` routes gateway
    /// responses back to the HTTP side.
    pub fn start_fetch<C: Debug>(
        &mut self,
        ctx: &mut Ctx<'_, WireMsg, C>,
        cid: Cid,
        reply: Option<(NodeId, u64)>,
    ) {
        if self.store.has(&cid) {
            telemetry::count(telemetry::Counter::RequestsServedCache, 1);
            telemetry::observe(telemetry::Metric::RequestLatencyNs, 0);
            self.record(NodeEvent::FetchCompleted {
                cid,
                from: self.id,
                via_dht: false,
            });
            self.reply_http(ctx, reply, true, true);
            return;
        }
        if let Some(&op_id) = self.session.fetch_by_cid.get(&cid) {
            // Already fetching: coalesce onto the in-flight op, so a
            // gateway request racing a fetch of the same CID shares its
            // answer.
            telemetry::count(telemetry::Counter::WantCoalesceHits, 1);
            if let (Some(r), Some(Op::Fetch { replies, .. })) =
                (reply, self.session.ops.get_mut(&op_id))
            {
                replies.push(r);
            }
            return;
        }
        let op_id = self.next_req;
        self.next_req += 1;
        telemetry::count(telemetry::Counter::FetchesStarted, 1);
        let op = Op::Fetch {
            cid,
            replies: reply.into_iter().collect(),
            via_dht: false,
            started: ctx.now(),
        };
        self.session.ops.insert(op_id, op);
        self.session.fetch_by_cid.insert(cid, op_id);
        // Phase 1: 1-hop Bitswap broadcast to identified neighbours.
        if self.session.neighbors.is_none() {
            self.session.neighbors = Some(self.sorted_neighbors());
        }
        let s = &mut self.session;
        let neighbors = s.neighbors.as_deref().expect("built above");
        let out = s.bitswap.start_fetch(cid, neighbors, ctx.now());
        self.flush_bitswap(ctx, out);
        self.set_timer(ctx, BITSWAP_PHASE_TIMEOUT, tok::FETCH_BS, op_id);
        self.set_timer(ctx, FETCH_TIMEOUT, tok::FETCH_ALL, op_id);
    }

    /// Bitswap phase expired without the block: fall back to the DHT.
    pub(crate) fn bitswap_phase_expired<C: Debug>(
        &mut self,
        ctx: &mut Ctx<'_, WireMsg, C>,
        op_id: u64,
    ) {
        let Some(Op::Fetch { cid, via_dht, .. }) = self.session.ops.get_mut(&op_id) else {
            return;
        };
        let cid = *cid;
        if self.store.has(&cid) {
            return;
        }
        *via_dht = true;
        let kind = LookupKind::FindProviders { exhaustive: false };
        self.begin_lookup(ctx, cid.dht_key(), Some(cid), kind, Some(op_id));
    }

    /// DHT resolution finished: dial providers, request the block.
    pub(crate) fn providers_resolved<C: Debug>(
        &mut self,
        ctx: &mut Ctx<'_, WireMsg, C>,
        op_id: u64,
        cid: Cid,
        providers: &[ProviderRecord],
    ) {
        let mut dialled = 0;
        for rec in providers {
            if rec.provider == self.id || dialled >= MAX_FETCH_PROVIDERS {
                continue;
            }
            dialled += 1;
            let peer = rec.provider;
            let action = PostDial::RequestBlock { cid, peer };
            // A NAT-ed provider is reached through its relay's circuit.
            self.ensure_dial(ctx, rec.endpoint, rec.relay_endpoint, Some(action));
        }
        if dialled == 0 {
            self.fail_fetch(ctx, op_id);
        }
    }

    /// Give up on fetch `op_id` (nothing happens if it already ended).
    pub(crate) fn fail_fetch<C: Debug>(&mut self, ctx: &mut Ctx<'_, WireMsg, C>, op_id: u64) {
        let Some(Op::Fetch {
            cid,
            replies,
            started,
            ..
        }) = self.session.ops.remove(&op_id)
        else {
            return;
        };
        self.session.fetch_by_cid.remove(&cid);
        let elapsed = ctx.now().0.saturating_sub(started.0);
        telemetry::observe(telemetry::Metric::RequestLatencyNs, elapsed);
        let out = self.session.bitswap.cancel_fetch(&cid);
        self.flush_bitswap(ctx, out);
        self.record(NodeEvent::FetchFailed { cid });
        self.reply_http(ctx, replies, false, false);
    }

    fn complete_fetch<C: Debug>(&mut self, ctx: &mut Ctx<'_, WireMsg, C>, cid: Cid, from: PeerId) {
        let Some(op_id) = self.session.fetch_by_cid.remove(&cid) else {
            return;
        };
        let Some(Op::Fetch {
            replies,
            via_dht,
            started,
            ..
        }) = self.session.ops.remove(&op_id)
        else {
            return;
        };
        // One op may satisfy several coalesced requests; each counts.
        let served = replies.len().max(1) as u64;
        telemetry::count(
            if via_dht {
                telemetry::Counter::RequestsServedDht
            } else {
                telemetry::Counter::RequestsServedBitswap
            },
            served,
        );
        let elapsed = ctx.now().0.saturating_sub(started.0);
        telemetry::observe(telemetry::Metric::RequestLatencyNs, elapsed);
        self.record(NodeEvent::FetchCompleted { cid, from, via_dht });
        self.reply_http(ctx, replies, true, false);
        if self.cfg.provide_on_fetch {
            self.start_provide(ctx, cid);
        }
    }

    /// Answer the HTTP requesters of a finished fetch.
    fn reply_http<C: Debug>(
        &mut self,
        ctx: &mut Ctx<'_, WireMsg, C>,
        replies: impl IntoIterator<Item = (NodeId, u64)>,
        found: bool,
        cache_hit: bool,
    ) {
        for (to, req_id) in replies {
            ctx.send(to, WireMsg::HttpResponse { req_id, found });
            self.record(NodeEvent::HttpServed {
                req_id,
                found,
                cache_hit,
            });
        }
    }

    /// An HTTP GET arrived: gateways fetch, everybody else says 404.
    pub(crate) fn handle_http_request<C: Debug>(
        &mut self,
        ctx: &mut Ctx<'_, WireMsg, C>,
        from: NodeId,
        req_id: u64,
        cid: Cid,
    ) {
        if self.cfg.is_gateway {
            self.start_fetch(ctx, cid, Some((from, req_id)));
        } else {
            ctx.send(
                from,
                WireMsg::HttpResponse {
                    req_id,
                    found: false,
                },
            );
        }
    }

    /// A Bitswap message from `peer` arrived on connection `from`.
    #[inline]
    pub(crate) fn handle_bitswap<C: Debug>(
        &mut self,
        ctx: &mut Ctx<'_, WireMsg, C>,
        from: NodeId,
        peer: PeerId,
        msg: BitswapMessage,
    ) {
        if self.cfg.log_bitswap {
            self.log_wantlist(ctx, from, peer, &msg);
        }
        let out = self
            .session
            .bitswap
            .handle_message(ctx.now(), peer, msg, &mut self.store);
        self.flush_bitswap(ctx, out);
    }

    /// The monitor's Bitswap log (§3): one entry per non-empty wantlist.
    fn log_wantlist<C: Debug>(
        &mut self,
        ctx: &Ctx<'_, WireMsg, C>,
        from: NodeId,
        peer: PeerId,
        msg: &BitswapMessage,
    ) {
        let entries = msg.want_entries();
        let want_block = entries.iter().any(|e| !e.cancel && e.ty == WantType::Block);
        let cids: Vec<Cid> = entries
            .iter()
            .filter(|e| !e.cancel)
            .map(|e| e.cid)
            .collect();
        if !cids.is_empty() {
            let addr = ctx
                .addr_of(from)
                .unwrap_or_else(|| SocketAddrV4::new([0, 0, 0, 0].into(), 0));
            self.bitswap_log.push(BitswapLogEntry {
                ts: ctx.now(),
                peer,
                addr,
                cids,
                want_block,
            });
        }
    }

    #[inline]
    pub(crate) fn flush_bitswap<C: Debug>(&mut self, ctx: &mut Ctx<'_, WireMsg, C>, out: BsOutput) {
        for (peer, msg) in out.sends {
            if let Some(c) = self.session.conn_by_peer.get(&peer) {
                ctx.send(c.ep, WireMsg::Bitswap { from: self.id, msg });
            }
        }
        for (cid, from) in out.received {
            self.complete_fetch(ctx, cid, from);
        }
    }
}
