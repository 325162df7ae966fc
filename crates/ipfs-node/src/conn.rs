//! Connections: the identify exchange, the [`PostDial`] queue (what to do
//! once a dial lands or fails), the neighbour bookkeeping behind the routing
//! table's `connected` column, circuit-relay reservations and the
//! connection manager.

use crate::node::{tok, IpfsNode};
use crate::wire::{NodeEvent, WireMsg};
use ipfs_types::FxHashSet as HashSet;
use ipfs_types::{Cid, PeerId};
use kademlia::{AddrList, DhtRequest, PeerInfo, ProviderRecord};
use rand::seq::SliceRandom;
use rand::RngExt;
use simnet::{Ctx, Dur, NodeId, SimTime};
use std::fmt::Debug;

#[derive(Clone, Debug)]
pub(crate) enum PostDial {
    LookupQuery {
        lookup: u64,
        info: PeerInfo,
    },
    AddProvider {
        record: ProviderRecord,
    },
    RequestBlock {
        cid: Cid,
        peer: PeerId,
    },
    RelayReserve,
    HttpRequest {
        req_id: u64,
        cid: Cid,
    },
    /// Once connected to the relay, launch the circuit dial to `target`.
    CircuitDial {
        target: NodeId,
    },
}

/// The connections behind one peer id (`Session::conn_by_peer`).
#[derive(Clone, Copy, Debug)]
pub(crate) struct PeerConns {
    /// Where sends to the id go: while `identified > 0`, an endpoint
    /// identified as it.
    pub(crate) ep: NodeId,
    /// How many connections are identified as the id.
    pub(crate) identified: u32,
}

impl IpfsNode {
    /// Whether some connection is identified as `id` — the definition of
    /// the routing table's `connected` column.
    fn is_identified(&self, id: &PeerId) -> bool {
        self.session
            .conn_by_peer
            .get(id)
            .is_some_and(|c| c.identified > 0)
    }

    /// An endpoint now identifies as `id` (`peers` and `conn_by_peer`
    /// already say so, the caller flags the table entry).
    fn neighbor_gained(&mut self, id: PeerId) {
        if let Some(list) = &mut self.session.neighbors {
            let at = list.partition_point(|n| *n < id);
            list.insert(at, id);
        }
    }

    /// Endpoint `ep`, identified as `id`, closed, restarted its handshake
    /// or identified as someone else (`peers` already says so). If sends
    /// to `id` went to `ep` and another endpoint is still identified as
    /// `id`, they now go to the lowest such one. Returns whether one is
    /// left.
    fn neighbor_lost(&mut self, ep: NodeId, id: PeerId) -> bool {
        let s = &mut self.session;
        if let Some(list) = &mut s.neighbors {
            let at = list.partition_point(|n| *n < id);
            debug_assert_eq!(list.get(at), Some(&id));
            list.remove(at);
        }
        let conns = s
            .conn_by_peer
            .get_mut(&id)
            .expect("identified ids have an entry");
        conns.identified -= 1;
        let identified = conns.identified > 0;
        if identified && conns.ep == ep {
            let twins = s.peers.iter().filter(|(_, p)| **p == Some(id));
            conns.ep = twins.map(|(twin, _)| *twin).min().expect("identified");
        }
        if !identified {
            self.dht.table_mut().set_connected(&id, false);
        }
        identified
    }

    /// The table just created an entry for `id` (`created`, as reported by
    /// the DHT): flag it if `id` is an identified neighbour already.
    pub(crate) fn flag_created_entry(&mut self, created: bool, id: &PeerId) {
        if created && self.is_identified(id) {
            self.dht.table_mut().set_connected(id, true);
        }
    }

    /// Assert the routing table's `connected` column against its
    /// definition — "some connection is identified as this peer" — for
    /// every entry.
    #[cfg(any(test, debug_assertions))]
    pub fn assert_connected_flags(&self) {
        let s = &self.session;
        let mut identified = ipfs_types::FxHashMap::<PeerId, u32>::default();
        for id in s.peers.values().flatten() {
            *identified.entry(*id).or_default() += 1;
        }
        for id in identified.keys() {
            assert!(s.conn_by_peer.contains_key(id), "no sends to {id:?}");
        }
        for (id, c) in &s.conn_by_peer {
            let n = identified.get(id).copied().unwrap_or(0);
            assert_eq!(c.identified, n, "identified count of {id:?} out of sync");
            assert!(
                n == 0 || s.peers.get(&c.ep) == Some(&Some(*id)),
                "sends to {id:?} go to an endpoint not identified as it"
            );
        }
        for e in self.dht.table().entries() {
            let truth = identified.contains_key(&e.info.id);
            assert_eq!(
                e.connected, truth,
                "connected flag of {:?} out of sync at {:?}",
                e.info.id, self.id
            );
        }
        if let Some(list) = &self.session.neighbors {
            assert_eq!(*list, self.sorted_neighbors(), "neighbour list out of sync");
        }
    }

    pub(crate) fn sorted_neighbors(&self) -> Vec<PeerId> {
        let mut ids: Vec<PeerId> = self.session.peers.values().flatten().copied().collect();
        ids.sort();
        ids
    }

    /// Do `action` on a connection to `target`: now if there is one, else
    /// once the dial this starts (or one already in flight) lands — through
    /// `relay`'s circuit for a NAT-ed target.
    pub(crate) fn ensure_dial<C: Debug>(
        &mut self,
        ctx: &mut Ctx<'_, WireMsg, C>,
        target: NodeId,
        relay: Option<NodeId>,
        action: Option<PostDial>,
    ) {
        if target == ctx.me() {
            // Nobody connects to themselves. An answer naming our own
            // endpoint (a responder echoing the requester, our previous
            // identity in somebody's table) counts as a failed dial, or the
            // lookup that queued `action` would wait on it forever.
            if let Some(a) = action {
                self.fail_post_dial(ctx, a);
            }
            return;
        }
        if ctx.is_connected(target) {
            if let Some(a) = action {
                self.run_post_dial(ctx, target, a);
            }
            return;
        }
        let in_flight = self.session.dialing.contains_key(&target);
        let entry = self.session.dialing.entry(target).or_default();
        if let Some(a) = action {
            entry.push(a);
        }
        if in_flight {
            return;
        }
        match relay {
            None => ctx.dial(target),
            Some(relay) if ctx.is_connected(relay) => ctx.dial_via(relay, target),
            // Dial the relay first; the circuit dial fires once it lands.
            Some(relay) => {
                self.ensure_dial(ctx, relay, None, Some(PostDial::CircuitDial { target }))
            }
        }
    }

    /// `Actor::on_inbound_connection`.
    pub fn handle_inbound<C: Debug>(
        &mut self,
        ctx: &mut Ctx<'_, WireMsg, C>,
        from: NodeId,
        _relayed: bool,
    ) {
        if let Some(id) = self.session.peers.insert(from, None).flatten() {
            self.neighbor_lost(from, id);
        }
        self.send_identify(ctx, from);
    }

    /// `Actor::on_dial_result`.
    pub fn handle_dial_result<C: Debug>(
        &mut self,
        ctx: &mut Ctx<'_, WireMsg, C>,
        target: NodeId,
        ok: bool,
        _relayed: bool,
    ) {
        let actions = self.session.dialing.remove(&target).unwrap_or_default();
        if ok {
            self.session.peers.entry(target).or_insert(None);
            self.send_identify(ctx, target);
            for a in actions {
                self.run_post_dial(ctx, target, a);
            }
        } else {
            for a in actions {
                self.fail_post_dial(ctx, a);
            }
        }
    }

    fn run_post_dial<C: Debug>(
        &mut self,
        ctx: &mut Ctx<'_, WireMsg, C>,
        target: NodeId,
        action: PostDial,
    ) {
        match action {
            PostDial::LookupQuery { lookup, info } => self.send_query(ctx, lookup, &info),
            PostDial::AddProvider { record } => {
                let (_, msg) = self.dht_request_msg(ctx, DhtRequest::AddProvider { record });
                ctx.send(target, WireMsg::Dht(msg));
            }
            PostDial::RequestBlock { cid, peer } => {
                // Identify may still be in flight; bind the peer to the
                // endpoint we just dialed so the request can go out now.
                let conns = PeerConns {
                    ep: target,
                    identified: 0,
                };
                self.session.conn_by_peer.entry(peer).or_insert(conns);
                let out = self
                    .session
                    .bitswap
                    .request_block_from(cid, peer, ctx.now());
                self.flush_bitswap(ctx, out);
            }
            PostDial::RelayReserve => {
                ctx.send(target, WireMsg::RelayReserve { from: self.id });
            }
            PostDial::HttpRequest { req_id, cid } => {
                ctx.send(target, WireMsg::HttpRequest { req_id, cid });
            }
            PostDial::CircuitDial {
                target: circuit_target,
            } => {
                // `target` here is the relay that just connected.
                if !ctx.is_connected(circuit_target) {
                    ctx.dial_via(target, circuit_target);
                }
            }
        }
    }

    fn fail_post_dial<C: Debug>(&mut self, ctx: &mut Ctx<'_, WireMsg, C>, action: PostDial) {
        match action {
            PostDial::LookupQuery { lookup, info } => {
                self.lookup_peer_failed(ctx, lookup, &info.id)
            }
            // A fetch waiting on `RequestBlock` is cleaned up by its
            // overall timeout.
            PostDial::AddProvider { .. }
            | PostDial::RequestBlock { .. }
            | PostDial::HttpRequest { .. } => {}
            PostDial::RelayReserve => self.set_timer(ctx, Dur::from_secs(30), tok::RELAY, 0),
            PostDial::CircuitDial { target } => {
                // Relay unreachable: fail everything queued on the target.
                for a in self.session.dialing.remove(&target).unwrap_or_default() {
                    self.fail_post_dial(ctx, a);
                }
            }
        }
    }

    fn send_identify<C: Debug>(&mut self, ctx: &mut Ctx<'_, WireMsg, C>, to: NodeId) {
        let msg = WireMsg::Identify {
            id: self.id,
            addrs: self.adv_addrs(ctx),
            dht_server: self.dht.is_server(),
            agent: self.cfg.agent.clone(),
        };
        ctx.send(to, msg);
    }

    /// The peer's half of the identify exchange arrived on `from`.
    pub(crate) fn handle_identify(
        &mut self,
        now: SimTime,
        from: NodeId,
        id: PeerId,
        addrs: AddrList,
        dht_server: bool,
    ) {
        let old_id = self.session.peers.insert(from, Some(id)).flatten();
        let gained = old_id != Some(id);
        let conns = self.session.conn_by_peer.entry(id).or_insert(PeerConns {
            ep: from,
            identified: 0,
        });
        conns.ep = from;
        conns.identified += gained as u32;
        let info = PeerInfo {
            id,
            addrs,
            endpoint: from,
        };
        self.dht.observe_peer(&info, dht_server, now);
        if gained {
            if let Some(old_id) = old_id {
                self.neighbor_lost(from, old_id);
            }
            self.neighbor_gained(id);
        }
        // After the table saw the peer: a fresh entry starts unflagged.
        self.dht.table_mut().set_connected(&id, true);
    }

    /// `Actor::on_connection_closed`.
    pub fn handle_connection_closed<C: Debug>(
        &mut self,
        ctx: &mut Ctx<'_, WireMsg, C>,
        peer: NodeId,
    ) {
        if let Some(id) = self.session.peers.remove(&peer).flatten() {
            if !self.neighbor_lost(peer, id) {
                self.session.conn_by_peer.remove(&id);
                self.session.bitswap.peer_disconnected(&id);
            }
        }
        self.session.relay_clients.remove(&peer);
        if self.session.relay.is_some_and(|(_, ep, _)| ep == peer) {
            self.session.relay = None;
            self.session.me = None;
            self.set_timer(ctx, Dur::from_secs(10), tok::RELAY, 0);
        }
    }

    /// A NAT-ed peer asks for a circuit-relay reservation: every DHT
    /// server serves them.
    pub(crate) fn handle_relay_reserve<C: Debug>(
        &mut self,
        ctx: &mut Ctx<'_, WireMsg, C>,
        from: NodeId,
    ) {
        let accepted = self.dht.is_server();
        if accepted {
            self.session.relay_clients.insert(from);
        }
        ctx.send(from, WireMsg::RelayReserveOk { accepted });
    }

    pub(crate) fn handle_relay_reply<C: Debug>(
        &mut self,
        ctx: &mut Ctx<'_, WireMsg, C>,
        from: NodeId,
        accepted: bool,
    ) {
        if accepted && !ctx.i_am_dialable() {
            let id = self.session.peers.get(&from).copied().flatten();
            if let (Some(id), Some(addr)) = (id, ctx.addr_of(from)) {
                self.session.relay = Some((id, from, addr));
                self.session.me = None;
                self.record(NodeEvent::RelayAcquired { relay: id });
            }
        } else if !accepted {
            self.set_timer(ctx, Dur::from_secs(10), tok::RELAY, 0);
        }
    }

    /// Pick a random DHT server from the routing table (§2: "a random DHT
    /// server supporting the relay protocol") and ask it for a reservation.
    pub(crate) fn acquire_relay<C: Debug>(&mut self, ctx: &mut Ctx<'_, WireMsg, C>) {
        let candidates: Vec<NodeId> = self
            .dht
            .table()
            .entries()
            .map(|e| e.info.endpoint)
            .collect();
        if candidates.is_empty() {
            self.set_timer(ctx, Dur::from_secs(30), tok::RELAY, 0);
            return;
        }
        let pick = candidates[ctx.rng().random_range(0..candidates.len())];
        self.ensure_dial(ctx, pick, None, Some(PostDial::RelayReserve));
    }

    pub(crate) fn connmgr_tick<C: Debug>(&mut self, ctx: &mut Ctx<'_, WireMsg, C>) {
        self.dht.providers_mut().cleanup(ctx.now());
        #[cfg(debug_assertions)]
        self.assert_connected_flags();
        if self.cfg.table_entry_ttl > Dur::ZERO {
            // Entries of identified neighbours carry the `connected` flag
            // and are refreshed, not pruned.
            let ttl = self.cfg.table_entry_ttl;
            self.dht.table_mut().prune_stale(ctx.now(), ttl);
        }
        // Common case: the connection count sits between floor and high
        // watermark and the tick touches nothing — keep that path
        // allocation-free (`connections()` is a non-allocating iterator).
        let n_conns = ctx.connection_count();
        if !self.cfg.unbounded_conns && n_conns > self.cfg.conn_high {
            let mut protected: HashSet<NodeId> = self.session.relay_clients.clone();
            if let Some((_, ep, _)) = &self.session.relay {
                protected.insert(*ep);
            }
            for rpc in self.session.pending.values() {
                protected.insert(rpc.peer.endpoint);
            }
            let mut victims: Vec<NodeId> = ctx
                .connections()
                .filter(|c| !protected.contains(c))
                .collect();
            victims.shuffle(ctx.rng());
            let excess = n_conns - self.cfg.conn_low;
            for v in victims.into_iter().take(excess) {
                ctx.disconnect(v);
                self.handle_connection_closed(ctx, v);
            }
        } else if n_conns < self.cfg.conn_floor {
            let mut candidates: Vec<NodeId> = self
                .dht
                .table()
                .entries()
                .map(|e| e.info.endpoint)
                .filter(|ep| !ctx.is_connected(*ep) && *ep != ctx.me())
                .collect();
            candidates.sort();
            candidates.dedup();
            candidates.shuffle(ctx.rng());
            let need = (self.cfg.conn_floor - n_conns).min(self.cfg.max_dials_per_tick);
            for ep in candidates.into_iter().take(need) {
                self.ensure_dial(ctx, ep, None, None);
            }
        }
    }
}
