//! What protocol code sees of the engine: the [`Actor`] callbacks, the
//! [`Ctx`] effect handle they receive, the [`NodeSetup`] a node registers
//! with. Every effect is an event; nothing reads another node's state.

use crate::latency::RegionId;
use crate::state::{Ev, NodeId, SimCore, F_DIALABLE};
use crate::time::{Dur, SimTime};
use rand::rngs::StdRng;
use std::net::{Ipv4Addr, SocketAddrV4};

/// Behaviour of a simulated network participant.
///
/// All methods have no-op defaults so small test actors stay small. Actors
/// (and their message/command types) must be `Send`: the sharded executor
/// moves each shard's actors to a worker thread for the duration of a run.
pub trait Actor: Sized + Send {
    /// Wire message type exchanged between actors.
    type Msg: Clone + std::fmt::Debug + Send;
    /// Harness command type (workload injection).
    type Cmd: std::fmt::Debug + Send;

    /// Node came online (initial start or churn re-join).
    fn on_start(&mut self, _ctx: &mut Ctx<'_, Self::Msg, Self::Cmd>) {}
    /// Node is going offline; connections are still registered during this
    /// call but nothing sent will be delivered.
    fn on_stop(&mut self, _ctx: &mut Ctx<'_, Self::Msg, Self::Cmd>) {}
    /// A message arrived on an open connection.
    fn on_message(
        &mut self,
        _ctx: &mut Ctx<'_, Self::Msg, Self::Cmd>,
        _from: NodeId,
        _msg: Self::Msg,
    ) {
    }
    /// A harness command fired.
    fn on_command(&mut self, _ctx: &mut Ctx<'_, Self::Msg, Self::Cmd>, _cmd: Self::Cmd) {}
    /// A timer set via [`Ctx::set_timer`] fired.
    fn on_timer(&mut self, _ctx: &mut Ctx<'_, Self::Msg, Self::Cmd>, _token: u64) {}
    /// A remote peer successfully dialed us.
    fn on_inbound_connection(
        &mut self,
        _ctx: &mut Ctx<'_, Self::Msg, Self::Cmd>,
        _from: NodeId,
        _relayed: bool,
    ) {
    }
    /// Outcome of our own dial.
    fn on_dial_result(
        &mut self,
        _ctx: &mut Ctx<'_, Self::Msg, Self::Cmd>,
        _target: NodeId,
        _ok: bool,
        _relayed: bool,
    ) {
    }
    /// An open connection was closed (remote disconnect or churn).
    fn on_connection_closed(&mut self, _ctx: &mut Ctx<'_, Self::Msg, Self::Cmd>, _peer: NodeId) {}
}

/// Effect handle passed to actor callbacks.
pub struct Ctx<'a, M, C> {
    pub(crate) core: &'a mut SimCore<M, C>,
    pub(crate) me: NodeId,
}

impl<'a, M: Clone + std::fmt::Debug, C: std::fmt::Debug> Ctx<'a, M, C> {
    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.core.now
    }

    /// The node this callback runs on.
    pub fn me(&self) -> NodeId {
        self.me
    }

    /// This node's socket address.
    pub fn my_addr(&self) -> SocketAddrV4 {
        self.core.addr(self.me)
    }

    /// Whether this node accepts direct inbound dials (i.e. is publicly
    /// reachable rather than NAT-ed). Real nodes learn this via AutoNAT; we
    /// expose the engine's ground truth, which AutoNAT converges to anyway.
    pub fn i_am_dialable(&self) -> bool {
        self.core.flags(self.me) & F_DIALABLE != 0
    }

    /// This node's deterministic RNG.
    pub fn rng(&mut self) -> &mut StdRng {
        let l = self.core.local(self.me);
        &mut self.core.owned.hot[l].rng
    }

    /// Remote address of a *connected* peer, as captured from the
    /// handshake (what a TCP accept would show).
    pub fn addr_of(&self, peer: NodeId) -> Option<SocketAddrV4> {
        self.core
            .owned
            .conns
            .get_addr(self.core.local(self.me), peer)
    }

    /// Whether we currently hold a connection to `peer`.
    pub fn is_connected(&self, peer: NodeId) -> bool {
        self.core.connected(self.me, peer)
    }

    /// Connected peers in ascending id order (deterministic), without
    /// allocating. Collect into a `Vec` first if you need to mutate
    /// connections while walking them.
    pub fn connections(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.core.connections(self.me)
    }

    /// Number of open connections.
    pub fn connection_count(&self) -> usize {
        self.core.connection_count(self.me)
    }

    /// Send a message over an open connection. Returns `false` (and sends
    /// nothing) if no connection to `to` exists.
    pub fn send(&mut self, to: NodeId, msg: M) -> bool {
        if !self.core.connected(self.me, to) {
            return false;
        }
        self.core.stats.msgs_sent += 1;
        let from = self.me;
        self.core.push_link(from, to, Ev::Deliver { from, to, msg });
        true
    }

    /// Dial a peer directly. The outcome arrives via
    /// [`Actor::on_dial_result`]; failures take `dial_timeout`.
    pub fn dial(&mut self, target: NodeId) {
        let dialer_addr = self.core.addr(self.me);
        self.core.push_link(
            self.me,
            target,
            Ev::DialArrive {
                dialer: self.me,
                dialer_addr,
                target,
                relayed: false,
                started: self.core.now,
            },
        );
    }

    /// Dial a NAT-ed peer through a relay we are connected to (circuit
    /// relay). The request is routed *through* the relay: the relay
    /// forwards it to the target if it is still up and still holds the
    /// target connection. On success the connection is immediately
    /// hole-punched to a direct one (DCUtR), so it does not depend on the
    /// relay staying up.
    pub fn dial_via(&mut self, relay: NodeId, target: NodeId) {
        let dialer_addr = self.core.addr(self.me);
        self.core.push_link(
            self.me,
            relay,
            Ev::RelayHop {
                dialer: self.me,
                dialer_addr,
                relay,
                target,
                started: self.core.now,
            },
        );
    }

    /// Close the connection to `peer` (no-op when not connected). Our half
    /// closes immediately; the remote side learns of it when the FIN
    /// arrives, one link latency later.
    pub fn disconnect(&mut self, peer: NodeId) {
        let l = self.core.local(self.me);
        if self.core.owned.conns.remove(l, peer) {
            self.core.push_link(
                self.me,
                peer,
                Ev::ConnClosed {
                    node: peer,
                    peer: self.me,
                },
            );
        }
    }

    /// Arm a one-shot timer firing after `delay` with an opaque token.
    pub fn set_timer(&mut self, delay: Dur, token: u64) {
        let at = self.core.now + delay;
        self.core.push_from(
            self.me,
            self.me,
            at,
            Ev::Timer {
                node: self.me,
                token,
            },
        );
    }

    /// Loopback command scheduling: deliver `cmd` to *this* node later.
    /// Lets actors drive their own periodic workloads through the same
    /// command path the harness uses.
    pub fn schedule_self(&mut self, delay: Dur, cmd: C) {
        let at = self.core.now + delay;
        self.core
            .push_from(self.me, self.me, at, Ev::Command { node: self.me, cmd });
    }

    /// Deliver a whole batch of commands to `target` after `delay` as ONE
    /// engine event (the batched request-event source: per-request
    /// scheduling must not dominate the timer wheel). The batch executes
    /// in order at a single virtual instant. For a cross-shard target,
    /// `delay` must be at least the conservative lookahead to that shard —
    /// same contract as every other cross-shard push; bulk drivers use
    /// tick-scale delays (seconds), far above the lookahead floor
    /// (milliseconds), and `route` debug-asserts the invariant.
    pub fn schedule_batch(&mut self, target: NodeId, delay: Dur, cmds: Vec<C>) {
        if cmds.is_empty() {
            return;
        }
        let at = self.core.now + delay;
        self.core
            .push_from(self.me, target, at, Ev::CommandBatch { node: target, cmds });
    }
}

/// Initial placement of a node.
#[derive(Clone, Debug)]
pub struct NodeSetup {
    /// Socket address (IP matters for the measurement pipeline; port is
    /// cosmetic).
    pub addr: SocketAddrV4,
    /// Latency region.
    pub region: RegionId,
    /// Publicly dialable (false = NAT-ed).
    pub dialable: bool,
    /// Start online immediately.
    pub online: bool,
}

impl NodeSetup {
    /// A publicly dialable node at `ip`, online, region 0.
    pub fn public(ip: Ipv4Addr) -> NodeSetup {
        NodeSetup {
            addr: SocketAddrV4::new(ip, 4001),
            region: RegionId(0),
            dialable: true,
            online: true,
        }
    }

    /// A NAT-ed node at `ip`, online, region 0.
    pub fn nat(ip: Ipv4Addr) -> NodeSetup {
        NodeSetup {
            dialable: false,
            ..NodeSetup::public(ip)
        }
    }

    /// Override the region.
    pub fn in_region(mut self, region: RegionId) -> NodeSetup {
        self.region = region;
        self
    }

    /// Start offline (brought up later via [`crate::Sim::schedule_up`]).
    pub fn offline(mut self) -> NodeSetup {
        self.online = false;
        self
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::{LatencyModel, Sim, SimConfig};

    /// Minimal test actor: counts callbacks, optionally echoes messages.
    #[derive(Default)]
    pub(crate) struct Echo {
        pub(crate) started: u32,
        pub(crate) stopped: u32,
        pub(crate) got: Vec<(NodeId, u32)>,
        pub(crate) inbound: Vec<NodeId>,
        pub(crate) dial_ok: Vec<(NodeId, bool, bool)>,
        pub(crate) closed: Vec<NodeId>,
        pub(crate) timers: Vec<u64>,
        pub(crate) echo: bool,
    }

    impl Actor for Echo {
        type Msg = u32;
        type Cmd = &'static str;

        fn on_start(&mut self, _ctx: &mut Ctx<'_, u32, &'static str>) {
            self.started += 1;
        }
        fn on_stop(&mut self, _ctx: &mut Ctx<'_, u32, &'static str>) {
            self.stopped += 1;
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_, u32, &'static str>, from: NodeId, msg: u32) {
            self.got.push((from, msg));
            if self.echo && msg < 100 {
                ctx.send(from, msg + 1);
            }
        }
        fn on_inbound_connection(
            &mut self,
            _ctx: &mut Ctx<'_, u32, &'static str>,
            from: NodeId,
            _relayed: bool,
        ) {
            self.inbound.push(from);
        }
        fn on_dial_result(
            &mut self,
            ctx: &mut Ctx<'_, u32, &'static str>,
            target: NodeId,
            ok: bool,
            relayed: bool,
        ) {
            self.dial_ok.push((target, ok, relayed));
            if ok {
                ctx.send(target, 1);
            }
        }
        fn on_connection_closed(&mut self, _ctx: &mut Ctx<'_, u32, &'static str>, peer: NodeId) {
            self.closed.push(peer);
        }
        fn on_timer(&mut self, _ctx: &mut Ctx<'_, u32, &'static str>, token: u64) {
            self.timers.push(token);
        }
        fn on_command(&mut self, ctx: &mut Ctx<'_, u32, &'static str>, cmd: &'static str) {
            if cmd == "dial0" {
                ctx.dial(NodeId(0));
            }
        }
    }

    pub(crate) fn sim() -> Sim<Echo> {
        Sim::new(
            SimConfig::default(),
            LatencyModel::uniform(Dur::from_millis(10), 0.0),
            7,
        )
    }

    pub(crate) fn ip(last: u8) -> Ipv4Addr {
        Ipv4Addr::new(10, 0, 0, last)
    }

    /// Run `f` inside a [`Ctx`] for `node` (test-only direct effect
    /// injection, bypassing the event queue).
    pub(crate) fn with_ctx<R>(
        s: &mut Sim<Echo>,
        node: NodeId,
        f: impl FnOnce(&mut Ctx<'_, u32, &'static str>) -> R,
    ) -> R {
        let shard = s.shards[0].core.shard_of(node) as usize;
        let mut ctx = Ctx {
            core: &mut s.shards[shard].core,
            me: node,
        };
        f(&mut ctx)
    }

    #[test]
    fn command_batch_executes_in_order_as_one_event() {
        let mut s = sim();
        let a = s.add_node(Echo::default(), NodeSetup::public(ip(1)));
        let b = s.add_node(
            Echo {
                echo: true,
                ..Default::default()
            },
            NodeSetup::public(ip(2)),
        );
        with_ctx(&mut s, a, |ctx| {
            ctx.schedule_batch(b, Dur::from_secs(1), vec!["dial0", "dial0", "dial0"]);
        });
        s.run_for(Dur::from_secs(10));
        // All three commands ran (three dial attempts from b to a, the
        // later two while already connected), but the wheel saw one event.
        assert_eq!(s.stats().commands, 3);
        assert_eq!(s.stats().kinds.command_batch, 1);
        assert_eq!(s.actor(b).dial_ok.len(), 3);
    }

    #[test]
    fn command_batch_to_offline_node_drops_whole_batch() {
        let mut s = sim();
        let a = s.add_node(Echo::default(), NodeSetup::public(ip(1)).offline());
        let b = s.add_node(Echo::default(), NodeSetup::public(ip(2)));
        with_ctx(&mut s, b, |ctx| {
            ctx.schedule_batch(a, Dur::from_secs(1), vec!["dial0", "dial0"]);
        });
        s.run_for(Dur::from_secs(2));
        assert_eq!(s.stats().commands, 0);
        assert_eq!(s.stats().commands_dropped, 2);
    }

    #[test]
    fn timers_fire_in_order_and_not_offline() {
        let mut s = sim();
        let a = s.add_node(Echo::default(), NodeSetup::public(ip(1)));
        with_ctx(&mut s, a, |ctx| {
            ctx.set_timer(Dur::from_secs(2), 2);
            ctx.set_timer(Dur::from_secs(1), 1);
            ctx.set_timer(Dur::from_secs(10), 3);
        });
        s.schedule_down(SimTime::ZERO + Dur::from_secs(5), a);
        s.run_for(Dur::from_secs(20));
        assert_eq!(s.actor(a).timers, vec![1, 2]);
    }

    #[test]
    fn message_loss_is_applied() {
        let mut s: Sim<Echo> = Sim::new(
            SimConfig {
                loss: 1.0,
                ..Default::default()
            },
            LatencyModel::uniform(Dur::from_millis(10), 0.0),
            7,
        );
        let a = s.add_node(Echo::default(), NodeSetup::public(ip(1)));
        let b = s.add_node(Echo::default(), NodeSetup::public(ip(2)));
        s.run_for(Dur::from_millis(1));
        s.connect_pair(a, b, false);
        assert!(with_ctx(&mut s, a, |ctx| ctx.send(b, 42)));
        s.run_for(Dur::from_secs(1));
        assert!(s.actor(b).got.is_empty());
        assert_eq!(s.stats().msgs_lost, 1);
    }

    #[test]
    fn send_without_connection_refused() {
        let mut s = sim();
        let a = s.add_node(Echo::default(), NodeSetup::public(ip(1)));
        let b = s.add_node(Echo::default(), NodeSetup::public(ip(2)));
        assert!(!with_ctx(&mut s, a, |ctx| ctx.send(b, 1)));
    }

    #[test]
    fn disconnect_notifies_peer() {
        let mut s = sim();
        let a = s.add_node(Echo::default(), NodeSetup::public(ip(1)));
        let b = s.add_node(Echo::default(), NodeSetup::public(ip(2)));
        s.run_for(Dur::from_millis(1));
        s.connect_pair(a, b, false);
        with_ctx(&mut s, a, |ctx| ctx.disconnect(b));
        s.run_for(Dur::from_secs(1));
        assert_eq!(s.actor(b).closed, vec![a]);
        assert!(!s.core().connected(a, b));
        assert!(!s.core().connected(b, a));
    }

    #[test]
    fn captured_peer_addr_is_visible() {
        let mut s = sim();
        let a = s.add_node(Echo::default(), NodeSetup::public(ip(1)));
        let b = s.add_node(Echo::default(), NodeSetup::public(ip(2)));
        s.schedule_command(SimTime::ZERO + Dur::from_secs(1), b, "dial0");
        s.run_for(Dur::from_secs(5));
        let a_addr = s.core().addr(a);
        let b_addr = s.core().addr(b);
        assert_eq!(with_ctx(&mut s, b, |ctx| ctx.addr_of(a)), Some(a_addr));
        assert_eq!(with_ctx(&mut s, a, |ctx| ctx.addr_of(b)), Some(b_addr));
    }
}
