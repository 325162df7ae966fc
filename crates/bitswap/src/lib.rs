//! # bitswap — sans-io Bitswap block exchange
//!
//! From-scratch implementation of the Bitswap mechanics the paper measures:
//! the local 1-hop `WantHave` broadcast used for content discovery (what the
//! monitoring nodes log), presence responses, block transfer, and want
//! registration so blocks are forwarded the moment they arrive. Transport,
//! timeouts and connection management live in `ipfs-node`.
//!
//! The engine keeps two things and nothing mirrored between them: its own
//! fetch sessions (each with the sorted list of peers it owes a `Cancel`),
//! and one want table `Cid → wanters` for what *other* peers asked of it
//! and it could not serve yet (the first wanter inline, further ones in a
//! `Vec`). It keeps no per-peer ledger: go-bitswap's ranks peers in a
//! decision engine this crate does not model. It sends every want, block
//! request and cancel as a one-entry [`BitswapMessage::Want`] frame; it
//! accepts multi-entry [`BitswapMessage::Wantlist`]s too. A `WantHave` for
//! a missing block and the `Cancel` that follows it, which is most of what
//! a fetch's broadcast costs every neighbour, touch the want table only
//! and allocate nothing on either side.

#![forbid(unsafe_code)]

pub mod engine;
pub mod messages;
pub mod store;

pub use engine::{Bitswap, BsOutput, FetchSession};
pub use messages::{BitswapMessage, Block, WantEntry, WantType};
pub use store::MemoryBlockstore;
