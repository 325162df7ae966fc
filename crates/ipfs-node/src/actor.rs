//! `simnet::Actor` adapter for a plain [`IpfsNode`].
//!
//! Higher layers (tcsb-core) embed [`IpfsNode`] into a richer actor enum to
//! mix regular nodes with measurement tools; this newtype is the direct
//! adapter used by tests, examples and single-population simulations.

use crate::node::IpfsNode;
use crate::wire::{NodeCmd, WireMsg};
use simnet::{Actor, Ctx, NodeId};

/// A simulation actor that is exactly one IPFS node.
pub struct NodeActor(pub IpfsNode);

impl Actor for NodeActor {
    type Msg = WireMsg;
    type Cmd = NodeCmd;

    fn on_start(&mut self, ctx: &mut Ctx<'_, WireMsg, NodeCmd>) {
        self.0.handle_start(ctx);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, WireMsg, NodeCmd>, from: NodeId, msg: WireMsg) {
        self.0.handle_message(ctx, from, msg);
    }

    fn on_command(&mut self, ctx: &mut Ctx<'_, WireMsg, NodeCmd>, cmd: NodeCmd) {
        self.0.handle_command(ctx, cmd);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, WireMsg, NodeCmd>, token: u64) {
        self.0.handle_timer(ctx, token);
    }

    fn on_inbound_connection(
        &mut self,
        ctx: &mut Ctx<'_, WireMsg, NodeCmd>,
        from: NodeId,
        relayed: bool,
    ) {
        self.0.handle_inbound(ctx, from, relayed);
    }

    fn on_dial_result(
        &mut self,
        ctx: &mut Ctx<'_, WireMsg, NodeCmd>,
        target: NodeId,
        ok: bool,
        relayed: bool,
    ) {
        self.0.handle_dial_result(ctx, target, ok, relayed);
    }

    fn on_connection_closed(&mut self, ctx: &mut Ctx<'_, WireMsg, NodeCmd>, peer: NodeId) {
        self.0.handle_connection_closed(ctx, peer);
    }
}
