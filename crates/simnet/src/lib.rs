//! # palladium-simnet — deterministic discrete-event simulation kernel
//!
//! The Palladium paper evaluates on hardware this repository cannot assume
//! (Bluefield-2 DPUs, ConnectX-6 RNICs, a 200 Gbps switched fabric). Every
//! experiment is therefore reproduced on a *deterministic discrete-event
//! simulation*: substrate crates implement the real protocol and data-path
//! logic as passive state machines, and this crate provides the clock, the
//! event queue, the queueing primitives and the measurement machinery that
//! drive them.
//!
//! Design notes (following the smoltcp/tokio guides this workspace builds
//! against):
//!
//! * **Passive state machines, explicit polling.** Nothing in this kernel
//!   spawns threads or hides control flow; drivers pop events and poke
//!   components, which return [`Timed`] effects.
//! * **Determinism.** Ties in the event queue break by insertion order and
//!   all randomness flows from a seeded [`SimRng`]; identical configurations
//!   produce identical traces, which the test suite asserts.
//! * **Queueing first.** Every latency/throughput curve in the paper is a
//!   queueing phenomenon; [`FifoServer`]/[`ServerBank`] model each core, DMA
//!   engine and NIC port so saturation emerges instead of being scripted.

pub mod chaos;
pub mod fault;
pub mod harness;
pub mod openloop;
pub mod queue;
pub mod rng;
pub mod server;
pub mod shard;
pub mod sim;
pub mod stats;
pub mod table;
pub mod time;

pub use chaos::{
    CompiledScenario, HealthMonitor, ScenarioOp, ScenarioScript, StragglerWindow, Suspicion,
    WorkerState,
};
pub use fault::{FaultPlan, FaultTimeline, Verdict};
pub use harness::{Effects, Engine, Harness, LoadReport, RunStats};
pub use openloop::{tenant_stream, Arrival, ArrivalProcess, OpenLoop, OpenLoopConfig, ZipfSampler};
pub use queue::{EventId, EventQueue};
pub use shard::{
    run_sharded, ChannelStats, Envelope, Execution, Outbox, Partition, ShardConfig, ShardEngine,
    ShardRun,
};
pub use table::{IdTable, PageTable, Slab};
pub use rng::SimRng;
pub use server::{FifoServer, ServerBank};
pub use sim::{Sim, Timed};
pub use stats::{Histogram, Samples, UtilizationBins, WindowedRate};
pub use time::{wire_time, ByteCost, Nanos};
