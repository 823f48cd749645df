//! # wanpred-simnet
//!
//! A fluid-flow discrete-event simulator for wide-area bulk data
//! transfers. This is the testbed substrate for the `wanpred` workspace,
//! standing in for the ANL–ISI–LBL wide-area network of *Vazhkudai,
//! Schopf & Foster, "Predicting the Performance of Wide Area Data
//! Transfers" (IPPS 2002)*.
//!
//! ## Model
//!
//! * **Topology** ([`topology`]): nodes and unidirectional links with
//!   capacity and propagation delay; static routes.
//! * **Flows** ([`flow`]): a transfer is a fluid flow of `n` parallel TCP
//!   streams. Its rate is capped by the TCP window (`n * window / RTT`,
//!   with slow-start doubling each RTT up to the socket-buffer size), by
//!   external limits (storage systems), and by its fair share of each
//!   traversed link.
//! * **Fair sharing** ([`fair`]): weighted max-min allocation; a flow's
//!   weight is its stream count, so GridFTP-style parallelism claims a
//!   proportionally larger share against competing traffic.
//! * **Cross traffic** ([`load`]): per-link stochastic competing weight —
//!   diurnal profile + mean-reverting random walk + heavy-tailed bursts.
//! * **Engine** ([`engine`]): agents (workload drivers, servers, probes)
//!   react to timers and flow completions in deterministic event order.
//!
//! ## Example
//!
//! ```
//! use wanpred_simnet::prelude::*;
//!
//! // Two sites joined by a 12 MB/s, 25 ms link.
//! let mut topo = Topology::new();
//! let anl = topo.add_node("anl");
//! let lbl = topo.add_node("lbl");
//! let (fwd, rev) = topo
//!     .add_duplex_link("anl-lbl", anl, lbl, 12e6, SimDuration::from_millis(25))
//!     .unwrap();
//! topo.add_route(anl, lbl, vec![fwd]).unwrap();
//! topo.add_route(lbl, anl, vec![rev]).unwrap();
//!
//! let net = Network::with_uniform_load(topo, LoadModelConfig::default(), MasterSeed(42));
//! let mut engine = Engine::new(net);
//! engine.run_until(SimTime::from_secs(3600));
//! assert_eq!(engine.now(), SimTime::from_secs(3600));
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod engine;
pub mod fair;
pub mod fault;
pub mod flow;
pub mod index;
pub mod load;
pub mod network;
pub mod rng;
pub mod time;
pub mod topology;

/// Convenient glob-import of the crate's main types.
pub mod prelude {
    pub use crate::engine::{Agent, AgentId, Ctx, Engine, TimerTag};
    pub use crate::fault::{FaultAction, FaultConfig, FaultSchedule, TimedFault};
    pub use crate::flow::{FlowDone, FlowFailed, FlowId, FlowSpec, TcpParams};
    pub use crate::index::VecMap;
    pub use crate::load::{DiurnalProfile, LinkLoadModel, LoadModelConfig};
    pub use crate::network::Network;
    pub use crate::rng::MasterSeed;
    pub use crate::time::{SimDuration, SimTime};
    pub use crate::topology::{LinkId, NodeId, Topology, TopologyError};
}
