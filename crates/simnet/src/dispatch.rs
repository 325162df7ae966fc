//! One shard's event loop: pop the next event, fold it into the digest,
//! apply the fabric, dial-protocol, lifecycle and fault rules to this shard's
//! columns, run the actor callback. Cross-node effects leave as events.

use crate::ctx::{Actor, Ctx};
use crate::state::{Ev, Fault, NodeId, SimCore, F_DIALABLE, F_ONLINE, F_RETIRED};
use crate::time::SimTime;
use rand::RngExt;
use std::net::{Ipv4Addr, SocketAddrV4};

/// One shard: its engine core plus the actors it owns.
#[derive(Clone)]
pub(crate) struct Shard<A: Actor> {
    pub(crate) core: SimCore<A::Msg, A::Cmd>,
    /// Dense, indexed by *local* index (owned nodes only).
    pub(crate) actors: Vec<A>,
}

impl<A: Actor> Shard<A> {
    fn with_actor<R>(
        &mut self,
        node: NodeId,
        f: impl FnOnce(&mut A, &mut Ctx<'_, A::Msg, A::Cmd>) -> R,
    ) -> R {
        let l = self.core.local(node);
        let mut ctx = Ctx {
            core: &mut self.core,
            me: node,
        };
        f(&mut self.actors[l], &mut ctx)
    }

    /// Report a failed dial to `dialer`, keyed by `reporter` (the node that
    /// found the path closed). Unreachable targets look like silence: the
    /// dialer's timeout fires relative to when the dial started.
    fn fail_dial(
        &mut self,
        reporter: NodeId,
        dialer: NodeId,
        target: NodeId,
        relayed: bool,
        started: SimTime,
    ) {
        let at = started + self.core.cfg.dial_timeout;
        self.core.push_from(
            reporter,
            dialer,
            at,
            Ev::DialOutcome {
                dialer,
                target,
                target_addr: SocketAddrV4::new(Ipv4Addr::UNSPECIFIED, 0),
                ok: false,
                relayed,
                started,
            },
        );
    }

    /// Telemetry for a connection half that just opened in window `l`.
    fn observe_occupancy(&self, l: usize) {
        let occ = self.core.owned.conns.len(l) as u64;
        telemetry::observe(telemetry::Metric::ConnOccupancy, occ);
        telemetry::gauge_max(telemetry::Gauge::ConnOccupancyPeak, occ);
    }

    /// Process the next event if it falls before `horizon_excl` (exclusive,
    /// when given) and at or before `until_incl`. Returns whether an event
    /// was processed.
    pub(crate) fn step_bounded(&mut self, horizon_excl: Option<u64>, until_incl: SimTime) -> bool {
        let Some((at, _key, ev)) = self.core.queue.pop_before(until_incl, horizon_excl) else {
            return false;
        };
        debug_assert!(at >= self.core.now, "time went backwards");
        self.core.now = at;
        self.core.stats.dispatched += 1;
        if self.core.note_event(at, &ev) {
            self.core.stats.events += 1;
        }
        self.dispatch(ev);
        true
    }

    fn dispatch(&mut self, ev: Ev<A::Msg, A::Cmd>) {
        match ev {
            Ev::Deliver { from, to, msg } => {
                // Receiver-side checks only: the receiver must be up and
                // must still hold its half of the connection.
                let tl = self.core.local(to);
                let o = &self.core.owned;
                if o.hot[tl].flags & F_ONLINE == 0 || !o.conns.contains(tl, from) {
                    self.core.stats.msgs_dropped += 1;
                    return;
                }
                if self.core.cfg.loss > 0.0 {
                    let loss = self.core.cfg.loss;
                    if self.core.owned.hot[tl].rng.random_bool(loss) {
                        self.core.stats.msgs_lost += 1;
                        return;
                    }
                }
                self.core.stats.msgs_delivered += 1;
                self.with_actor(to, |a, ctx| a.on_message(ctx, from, msg));
            }
            Ev::DialArrive {
                dialer,
                dialer_addr,
                target,
                relayed,
                started,
            } => {
                let tl = self.core.local(target);
                let ok = {
                    let f = self.core.owned.hot[tl].flags;
                    f & F_ONLINE != 0
                        && (relayed || f & F_DIALABLE != 0)
                        && dialer != target
                        && self.core.link_allowed(dialer, target)
                };
                if ok {
                    let target_addr = self.core.owned.addr[tl];
                    let at = self.core.push_link(
                        target,
                        dialer,
                        Ev::DialOutcome {
                            dialer,
                            target,
                            target_addr,
                            ok: true,
                            relayed,
                            started,
                        },
                    );
                    // Our own half opens when the handshake completes — the
                    // same virtual instant the dialer's outcome lands.
                    self.core.push_from(
                        target,
                        target,
                        at,
                        Ev::HandshakeDone {
                            dialer,
                            dialer_addr,
                            target,
                            relayed,
                        },
                    );
                    self.core.owned.pending_accepts[tl].push((dialer, at));
                } else {
                    self.fail_dial(target, dialer, target, relayed, started);
                }
            }
            Ev::RelayHop {
                dialer,
                dialer_addr,
                relay,
                target,
                started,
            } => {
                // The relay forwards the circuit request based on its own
                // state: it must be up, still hold the target connection,
                // and be reachable from the dialer across any partition.
                let rl = self.core.local(relay);
                let o = &self.core.owned;
                let ok = o.hot[rl].flags & F_ONLINE != 0
                    && o.conns.contains(rl, target)
                    && self.core.link_allowed(dialer, relay);
                if ok {
                    self.core.push_link(
                        relay,
                        target,
                        Ev::DialArrive {
                            dialer,
                            dialer_addr,
                            target,
                            relayed: true,
                            started,
                        },
                    );
                } else {
                    self.fail_dial(relay, dialer, target, true, started);
                }
            }
            Ev::DialOutcome {
                dialer,
                target,
                target_addr,
                ok,
                relayed,
                started,
            } => {
                let dl = self.core.local(dialer);
                if self.core.owned.hot[dl].flags & F_ONLINE == 0 {
                    return;
                }
                // A partition activated mid-handshake blocks the final ACK:
                // the dial fails and no half opens. `link_allowed` reads
                // replicated state updated at the same virtual instant on
                // every shard, and the paired HandshakeDone runs the same
                // check at the same time, so both ends agree — for every
                // shard count.
                let ok = ok && self.core.link_allowed(dialer, target);
                if ok {
                    // The dialer's half opens when the handshake completes
                    // (the target's half opens at the same instant).
                    self.core
                        .owned
                        .conns
                        .insert(dl, target, relayed, target_addr);
                    self.core.stats.dials_ok += 1;
                } else {
                    self.core.stats.dials_failed += 1;
                }
                if telemetry::enabled() {
                    use telemetry::{Counter, Metric};
                    let c = if ok {
                        Counter::DialsOk
                    } else {
                        Counter::DialsFailed
                    };
                    telemetry::count(c, 1);
                    telemetry::observe(
                        Metric::DialLatencyNs,
                        self.core.now.0.saturating_sub(started.0),
                    );
                    if ok {
                        self.observe_occupancy(dl);
                    }
                }
                self.with_actor(dialer, |a, ctx| a.on_dial_result(ctx, target, ok, relayed));
            }
            Ev::HandshakeDone {
                dialer,
                dialer_addr,
                target,
                relayed,
            } => {
                // Consume the matching pending accept. A shutdown or kill
                // in the handshake window cleared it (and, for a graceful
                // shutdown, FIN-ed the dialer), so its absence means this
                // accept belongs to a session that no longer exists — e.g.
                // the target bounced and rejoined within the window.
                let tl = self.core.local(target);
                let pending = &mut self.core.owned.pending_accepts[tl];
                let Some(pos) = pending.iter().position(|&(d, _)| d == dialer) else {
                    return;
                };
                pending.remove(pos);
                if self.core.owned.hot[tl].flags & F_ONLINE == 0 {
                    return;
                }
                // Mirror of the DialOutcome partition check: a split that
                // activated mid-handshake blocks the accept too, so neither
                // half opens across the boundary.
                if !self.core.link_allowed(dialer, target) {
                    return;
                }
                if !self.core.owned.conns.contains(tl, dialer) {
                    self.core
                        .owned
                        .conns
                        .insert(tl, dialer, relayed, dialer_addr);
                    self.observe_occupancy(tl);
                    self.with_actor(target, |a, ctx| {
                        a.on_inbound_connection(ctx, dialer, relayed)
                    });
                }
            }
            Ev::Timer { node, token } => {
                if self.core.flags(node) & F_ONLINE == 0 {
                    return;
                }
                self.core.stats.timers_fired += 1;
                self.with_actor(node, |a, ctx| a.on_timer(ctx, token));
            }
            Ev::Command { node, cmd } => {
                if self.core.flags(node) & F_ONLINE == 0 {
                    self.core.stats.commands_dropped += 1;
                    return;
                }
                self.core.stats.commands += 1;
                self.with_actor(node, |a, ctx| a.on_command(ctx, cmd));
            }
            Ev::CommandBatch { node, cmds } => {
                // One online check per batch: a node that went down between
                // scheduling and delivery drops the whole batch, exactly as
                // the per-command path would have dropped each one.
                if self.core.flags(node) & F_ONLINE == 0 {
                    self.core.stats.commands_dropped += cmds.len() as u64;
                    return;
                }
                self.core.stats.commands += cmds.len() as u64;
                for cmd in cmds {
                    self.with_actor(node, |a, ctx| a.on_command(ctx, cmd));
                }
            }
            Ev::NodeUp { node, addr } => {
                let l = self.core.local(node);
                if self.core.owned.hot[l].flags & (F_ONLINE | F_RETIRED) != 0 {
                    return;
                }
                let o = &mut self.core.owned;
                if let Some(addr) = addr {
                    o.addr[l] = addr;
                }
                o.hot[l].flags |= F_ONLINE;
                self.with_actor(node, |a, ctx| a.on_start(ctx));
            }
            Ev::NodeDown { node } => {
                let l = self.core.local(node);
                if self.core.owned.hot[l].flags & F_ONLINE == 0 {
                    return;
                }
                self.with_actor(node, |a, ctx| a.on_stop(ctx));
                self.core.owned.hot[l].flags &= !F_ONLINE;
                // Our halves close now; each peer gets a FIN one link
                // latency later (ascending peer order — the pool window is
                // sorted, so the latency draw sequence is deterministic).
                // Half-open inbound handshakes get a FIN too — scheduled no
                // earlier than the dialer's DialOutcome, so a dial that
                // reported success against a dying target is closed right
                // after it opens instead of leaking a stale half.
                let open = self.core.owned.conns.take_all(l);
                let pending = std::mem::take(&mut self.core.owned.pending_accepts[l]);
                let fins = open.iter().map(|e| (e.peer, SimTime::ZERO));
                for (peer, not_before) in fins.chain(pending) {
                    let at = self.core.link_arrival(node, peer).max(not_before);
                    let fin = Ev::ConnClosed {
                        node: peer,
                        peer: node,
                    };
                    self.core.push_from(node, peer, at, fin);
                }
            }
            Ev::ConnClosed { node, peer } => {
                let l = self.core.local(node);
                if self.core.owned.hot[l].flags & F_ONLINE == 0 {
                    return;
                }
                // FIN arrival: close our half if it is still open. A half
                // already gone (we disconnected concurrently, or a kill
                // swept it) is swallowed — both ends already knew.
                if self.core.owned.conns.remove(l, peer) {
                    self.with_actor(node, |a, ctx| a.on_connection_closed(ctx, peer));
                }
            }
            Ev::Fault { fault, primary } => self.dispatch_fault(fault, primary),
        }
    }

    fn dispatch_fault(&mut self, f: Fault, primary: bool) {
        match f {
            Fault::Kill { node } => {
                // No `on_stop`, no FIN: the process is simply gone. The
                // fault is broadcast, so every shard sweeps its own nodes'
                // halves toward the victim at the same virtual instant —
                // the fabric stays symmetric but peers receive no
                // ConnClosed; their node-level session state goes stale
                // until their own operations fail, exactly like writes on
                // a dead TCP socket. The sweep is unconditional on the
                // victim's liveness (non-owner shards cannot read it), so
                // a kill landing while a graceful shutdown's FINs are
                // still in flight sweeps the peer half early and the FIN
                // is swallowed without an `on_connection_closed` — peers
                // then clean up through RPC timeouts, the same path any
                // kill relies on. Bounded, deterministic, and identical
                // for every shard count.
                if primary {
                    let l = self.core.local(node);
                    let o = &mut self.core.owned;
                    o.hot[l].flags &= !F_ONLINE;
                    o.conns.clear(l);
                    o.pending_accepts[l].clear();
                }
                let o = &mut self.core.owned;
                for l in 0..o.ids.len() {
                    if o.ids[l] != node {
                        o.conns.remove(l, node);
                    }
                }
            }
            Fault::Retire { node } => {
                let l = self.core.local(node);
                self.core.owned.hot[l].flags |= F_RETIRED;
            }
            Fault::SetNetClass { node, class } => {
                // Replicated on every shard: partition checks must never
                // read across a shard boundary.
                self.core.net_class[node.idx()] = class;
            }
            Fault::Partition { active } => {
                if !active {
                    self.core.partition_depth = self.core.partition_depth.saturating_sub(1);
                    return;
                }
                self.core.partition_depth += 1;
                // Sever every crossing connection held by an owned node, in
                // ascending (node, peer) order — local indices are appended
                // in ascending global-id order, so walking them is the same
                // sweep the array-of-structs layout did. The closure itself
                // happens through zero-delay local ConnClosed events, so
                // the actor callback ordering is deterministic and
                // shard-invariant; the peer's side runs the same sweep on
                // its own shard at the same virtual instant.
                for l in 0..self.core.owned.len() {
                    let a = self.core.owned.ids[l];
                    let crossing: Vec<NodeId> = self
                        .core
                        .owned
                        .conns
                        .peers(l)
                        .filter(|&b| !self.core.link_allowed(a, b))
                        .collect();
                    for b in crossing {
                        let now = self.core.now;
                        self.core
                            .push_from(a, a, now, Ev::ConnClosed { node: a, peer: b });
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::ctx::tests::{ip, sim, with_ctx, Echo};
    use crate::{Dur, Fault, NodeId, NodeSetup, SimTime};

    #[test]
    fn dial_send_echo_roundtrip() {
        let mut s = sim();
        let a = s.add_node(
            Echo {
                echo: false,
                ..Default::default()
            },
            NodeSetup::public(ip(1)),
        );
        let b = s.add_node(
            Echo {
                echo: true,
                ..Default::default()
            },
            NodeSetup::public(ip(2)),
        );
        s.schedule_command(SimTime::ZERO + Dur::from_secs(1), b, "dial0");
        // b dials a? No: command "dial0" dials NodeId(0) == a.
        s.run_for(Dur::from_secs(5));
        assert_eq!(s.actor(b).dial_ok, vec![(a, true, false)]);
        assert_eq!(s.actor(a).inbound, vec![b]);
        // b sent 1 on dial success; a does not echo, b echoes — a.got = [(b,1)]
        assert_eq!(s.actor(a).got, vec![(b, 1)]);
        assert!(s.core().connected(a, b) && s.core().connected(b, a));
        assert_eq!(s.stats().dials_ok, 1);
    }

    #[test]
    fn dial_to_nat_fails_with_timeout() {
        let mut s = sim();
        let _a = s.add_node(Echo::default(), NodeSetup::nat(ip(1)));
        let b = s.add_node(Echo::default(), NodeSetup::public(ip(2)));
        s.schedule_command(SimTime::ZERO + Dur::from_secs(1), b, "dial0");
        s.run_for(Dur::from_secs(30));
        assert_eq!(s.actor(b).dial_ok, vec![(NodeId(0), false, false)]);
        // Failure is reported only after the dial timeout.
        assert_eq!(s.stats().dials_failed, 1);
    }

    #[test]
    fn dial_to_offline_fails() {
        let mut s = sim();
        let _a = s.add_node(Echo::default(), NodeSetup::public(ip(1)).offline());
        let b = s.add_node(Echo::default(), NodeSetup::public(ip(2)));
        s.schedule_command(SimTime::ZERO + Dur::from_secs(1), b, "dial0");
        s.run_for(Dur::from_secs(30));
        assert_eq!(s.actor(b).dial_ok, vec![(NodeId(0), false, false)]);
    }

    #[test]
    fn relayed_dial_reaches_nat_node() {
        let mut s = sim();
        let target = s.add_node(Echo::default(), NodeSetup::nat(ip(1)));
        let relay = s.add_node(Echo::default(), NodeSetup::public(ip(2)));
        let dialer = s.add_node(Echo::default(), NodeSetup::public(ip(3)));
        s.run_for(Dur::from_millis(1)); // process the initial NodeUps
                                        // Pre-establish target↔relay (the NAT-ed node keeps a relay slot)
                                        // and dialer↔relay (the dialer reaches the relay's circuit).
        s.connect_pair(target, relay, false);
        s.connect_pair(dialer, relay, false);
        with_ctx(&mut s, dialer, |ctx| ctx.dial_via(relay, target));
        s.run_for(Dur::from_secs(5));
        assert_eq!(s.actor(dialer).dial_ok, vec![(target, true, true)]);
        assert!(s.core().connected(dialer, target));
        // DCUtR: the punched connection is direct — dropping the relay must
        // not kill it.
        s.schedule_down(s.now(), relay);
        s.run_for(Dur::from_secs(1));
        assert!(s.core().connected(dialer, target));
    }

    #[test]
    fn relayed_dial_fails_when_relay_lacks_target() {
        let mut s = sim();
        let target = s.add_node(Echo::default(), NodeSetup::nat(ip(1)));
        let relay = s.add_node(Echo::default(), NodeSetup::public(ip(2)));
        let dialer = s.add_node(Echo::default(), NodeSetup::public(ip(3)));
        s.run_for(Dur::from_millis(1));
        // Dialer can reach the relay, but the relay holds no circuit to the
        // target: the hop fails at the relay, silence until the timeout.
        s.connect_pair(dialer, relay, false);
        with_ctx(&mut s, dialer, |ctx| ctx.dial_via(relay, target));
        s.run_for(Dur::from_secs(30));
        assert_eq!(s.actor(dialer).dial_ok, vec![(target, false, true)]);
    }

    #[test]
    fn churn_drops_connections_and_notifies() {
        let mut s = sim();
        let a = s.add_node(Echo::default(), NodeSetup::public(ip(1)));
        let b = s.add_node(
            Echo {
                echo: false,
                ..Default::default()
            },
            NodeSetup::public(ip(2)),
        );
        s.schedule_command(SimTime::ZERO + Dur::from_secs(1), b, "dial0");
        s.run_for(Dur::from_secs(2));
        assert!(s.core().connected(a, b));
        s.schedule_down(SimTime::ZERO + Dur::from_secs(3), a);
        s.run_for(Dur::from_secs(3));
        assert!(!s.core().connected(a, b));
        // The FIN takes one link latency; by now it has landed.
        assert!(!s.core().connected(b, a));
        assert_eq!(s.actor(b).closed, vec![a]);
        assert_eq!(s.actor(a).stopped, 1);
        // Messages to the downed node are dropped.
        let dropped_before = s.stats().msgs_dropped;
        s.schedule_command(s.now(), b, "dial0"); // re-dial fails (offline)
        s.run_for(Dur::from_secs(30));
        assert!(!s.actor(b).dial_ok.last().unwrap().1);
        let _ = dropped_before;
    }

    #[test]
    fn command_to_offline_node_dropped() {
        let mut s = sim();
        let a = s.add_node(Echo::default(), NodeSetup::public(ip(1)).offline());
        s.schedule_command(SimTime::ZERO + Dur::from_secs(1), a, "dial0");
        s.run_for(Dur::from_secs(2));
        assert_eq!(s.stats().commands_dropped, 1);
        assert_eq!(s.stats().commands, 0);
    }

    #[test]
    fn kill_is_silent_and_symmetric() {
        let mut s = sim();
        let a = s.add_node(Echo::default(), NodeSetup::public(ip(1)));
        let b = s.add_node(Echo::default(), NodeSetup::public(ip(2)));
        s.schedule_command(SimTime::ZERO + Dur::from_secs(1), b, "dial0");
        s.run_for(Dur::from_secs(2));
        assert!(s.core().connected(a, b));
        s.schedule_fault(s.now(), Fault::Kill { node: a });
        s.run_for(Dur::from_secs(5));
        // No FIN: b never hears the connection close, and a's actor never
        // ran on_stop.
        assert!(s.actor(b).closed.is_empty(), "kill must not notify peers");
        assert_eq!(s.actor(a).stopped, 0, "kill must skip on_stop");
        assert!(!s.core().is_online(a));
        assert!(!s.core().connected(a, b) && !s.core().connected(b, a));
        // A non-retired killed node can still be revived.
        s.schedule_up(s.now(), a, None);
        s.run_for(Dur::from_secs(1));
        assert!(s.core().is_online(a));
        assert_eq!(s.actor(a).started, 2);
    }

    #[test]
    fn retire_blocks_future_node_up() {
        let mut s = sim();
        let a = s.add_node(Echo::default(), NodeSetup::public(ip(1)));
        s.schedule_down(SimTime::ZERO + Dur::from_secs(1), a);
        s.schedule_fault(SimTime::ZERO + Dur::from_secs(1), Fault::Retire { node: a });
        // A churn re-join queued for later must be swallowed.
        s.schedule_up(SimTime::ZERO + Dur::from_secs(10), a, None);
        s.run_for(Dur::from_secs(20));
        assert!(!s.core().is_online(a));
        assert!(s.core().is_retired(a));
        assert_eq!(s.actor(a).started, 1, "retired node must not restart");
    }

    #[test]
    fn partition_severs_and_blocks_cross_class_dials() {
        let mut s = sim();
        let a = s.add_node(Echo::default(), NodeSetup::public(ip(1)));
        let b = s.add_node(Echo::default(), NodeSetup::public(ip(2)));
        let c = s.add_node(Echo::default(), NodeSetup::public(ip(3)));
        s.run_for(Dur::from_millis(1));
        s.connect_pair(a, b, false);
        s.connect_pair(a, c, false);
        let t = SimTime::ZERO + Dur::from_secs(1);
        s.schedule_fault(t, Fault::SetNetClass { node: b, class: 1 });
        s.schedule_fault(t, Fault::Partition { active: true });
        s.run_for(Dur::from_secs(2));
        // a–b crossed the boundary and was severed with notifications …
        assert!(!s.core().connected(a, b));
        assert_eq!(s.actor(a).closed, vec![b]);
        assert_eq!(s.actor(b).closed, vec![a]);
        // … while same-class a–c survived.
        assert!(s.core().connected(a, c));
        // Cross-class dials fail (after the dial timeout), same-class work.
        s.schedule_command(s.now(), b, "dial0");
        s.run_for(Dur::from_secs(30));
        assert_eq!(s.actor(b).dial_ok.last(), Some(&(a, false, false)));
        // Heal: dialing works again.
        s.schedule_fault(s.now(), Fault::Partition { active: false });
        s.schedule_command(s.now() + Dur::from_secs(1), b, "dial0");
        s.run_for(Dur::from_secs(30));
        assert_eq!(s.actor(b).dial_ok.last(), Some(&(a, true, false)));
    }

    #[test]
    fn overlapping_partitions_nest() {
        let mut s = sim();
        let a = s.add_node(Echo::default(), NodeSetup::public(ip(1)));
        let b = s.add_node(Echo::default(), NodeSetup::public(ip(2)));
        let c = s.add_node(Echo::default(), NodeSetup::public(ip(3)));
        let t = |secs| SimTime::ZERO + Dur::from_secs(secs);
        // Partition 1 isolates b (class 1), partition 2 isolates c (class 2).
        s.schedule_fault(t(1), Fault::SetNetClass { node: b, class: 1 });
        s.schedule_fault(t(1), Fault::Partition { active: true });
        s.schedule_fault(t(2), Fault::SetNetClass { node: c, class: 2 });
        s.schedule_fault(t(2), Fault::Partition { active: true });
        // Heal partition 1 only: b rejoins the main island, c stays cut.
        s.schedule_fault(t(3), Fault::Partition { active: false });
        s.schedule_fault(t(3), Fault::SetNetClass { node: b, class: 0 });
        s.schedule_command(t(4), b, "dial0");
        s.run_for(Dur::from_secs(10));
        assert!(s.core().partition_active(), "second split still enforced");
        assert_eq!(
            s.actor(b).dial_ok.last(),
            Some(&(a, true, false)),
            "healed island dials again"
        );
        s.schedule_command(s.now(), c, "dial0");
        s.run_for(Dur::from_secs(30));
        assert_eq!(
            s.actor(c).dial_ok.last(),
            Some(&(a, false, false)),
            "unhealed island stays cut"
        );
    }

    #[test]
    fn target_death_mid_handshake_fins_the_dialer() {
        let mut s = sim();
        let a = s.add_node(Echo::default(), NodeSetup::public(ip(1)));
        let b = s.add_node(Echo::default(), NodeSetup::public(ip(2)));
        // b dials a at t=1s; with 10ms links the handshake completes at
        // t=1.02s. a shuts down at t=1.015s — inside the window.
        s.schedule_command(SimTime::ZERO + Dur::from_secs(1), b, "dial0");
        s.schedule_down(SimTime::ZERO + Dur::from_millis(1015), a);
        s.run_for(Dur::from_secs(5));
        // The handshake ACK was already in flight: b sees a successful
        // dial, immediately followed by the FIN — no stale half remains.
        assert_eq!(s.actor(b).dial_ok, vec![(a, true, false)]);
        assert_eq!(s.actor(b).closed, vec![a]);
        assert!(!s.core().connected(b, a));
        // a never opened its half (it was down at handshake completion).
        assert!(!s.core().connected(a, b));
        assert!(s.actor(a).inbound.is_empty());
    }
}
