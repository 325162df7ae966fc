//! The HTTP tier dials once per endpoint: a burst of requests that arrives
//! before the connection is up waits in one queue behind one dial, at the
//! web user and at the frontend alike.

use ipfs_types::Cid;
use simnet::{Dur, LatencyModel, NodeId, NodeSetup, Sim, SimConfig};
use std::net::Ipv4Addr;
use tcsb_core::{EcoActor, EcoCmd, Frontend, WebUser};

const BURST: u64 = 5;

/// A web user at endpoint 0 and one frontend per entry of `frontends`
/// (their backend lists) at 1, 2, …, started and settled.
fn stage(frontends: Vec<Vec<NodeId>>) -> Sim<EcoActor> {
    let mut sim: Sim<EcoActor> = Sim::new(
        SimConfig::default(),
        LatencyModel::uniform(Dur::from_millis(20), 0.0),
        5,
    );
    let ip = |i: u32| Ipv4Addr::from(0x0a00_0001 + i);
    sim.add_node(EcoActor::WebUser(WebUser::new()), NodeSetup::public(ip(0)));
    for (i, backends) in (1..).zip(frontends) {
        let fe = EcoActor::Frontend(Frontend::new(backends));
        sim.add_node(fe, NodeSetup::public(ip(i)));
    }
    sim.run_for(Dur::from_secs(1));
    sim
}

/// The web user sends `BURST` GETs to `frontend` at one instant; returns
/// the dials that arrived while they were served.
fn burst(sim: &mut Sim<EcoActor>, frontend: NodeId) -> u64 {
    let before = sim.stats().kinds.dial_arrive;
    for seed in 0..BURST {
        let cid = Cid::from_seed(seed);
        sim.schedule_command(sim.now(), NodeId(0), EcoCmd::WebGet { frontend, cid });
    }
    sim.run_for(Dur::from_secs(1));
    let outcomes = &sim.actor(NodeId(0)).webuser().outcomes;
    assert_eq!(outcomes.len() as u64, BURST, "every GET is answered");
    sim.stats().kinds.dial_arrive - before
}

#[test]
fn web_user_dials_an_unconnected_frontend_once_per_burst() {
    let mut sim = stage(vec![Vec::new()]);
    assert_eq!(burst(&mut sim, NodeId(1)), 1);
}

#[test]
fn frontend_dials_an_unconnected_backend_once_per_burst() {
    // The frontend at 1 learns its backend (the frontend at 2) only after
    // start, so nothing pre-dialed it; the web user is already connected.
    let mut sim = stage(vec![Vec::new(), Vec::new()]);
    let (frontend, backend) = (NodeId(1), NodeId(2));
    let EcoActor::Frontend(f) = sim.actor_mut(frontend) else {
        unreachable!("endpoint 1 is a frontend");
    };
    f.backends = vec![backend];
    sim.connect_pair(NodeId(0), frontend, false);
    assert_eq!(burst(&mut sim, frontend), 1);
}
