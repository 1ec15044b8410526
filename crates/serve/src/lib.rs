//! # kspr-serve — sharded batch serving for the kSPR engine
//!
//! The `kspr` crate answers kSPR queries through a single
//! [`kspr::QueryEngine`] over a single dataset copy.  This crate turns that
//! library call into a **service**:
//!
//! * [`ShardedEngine`] partitions the dataset round-robin into a pool of
//!   `QueryEngine` shards.  Updates route to the
//!   owning shard and patch its R-tree and shared-prep cache incrementally;
//!   queries fan out over the per-shard k-skybands and run on a merged,
//!   cached candidate engine.  The merge is result-preserving — see the
//!   correctness argument in the [`sharded`] module docs.
//! * [`Server`] / [`ServeHandle`] put a request queue in front of the
//!   sharded engine: clients `submit` queries (receiving [`Ticket`]s they
//!   can wait on), the dispatcher batches consecutive requests into
//!   [`ShardedEngine::run_batch`] calls, and updates are serialized with the
//!   queries around them.  Malformed requests (`k == 0`, arity mismatches,
//!   non-finite values) come back as [`ServeError`]s instead of panicking
//!   the serving thread, counted per variant in [`ServeStats`].
//! * [`ServeHandle::subscribe`] turns a query into a **standing query**: the
//!   dispatcher keeps its result correct across updates through the
//!   `kspr-monitor` classifier (unaffected / patched in place / re-run) and
//!   pushes a [`ResultDelta`] to the [`Subscription`] after every update
//!   that changed it.  Dropping the subscription unregisters the query.
//! * The **approximate tier** (`kspr-approx`) answers one-shot queries:
//!   [`ServeHandle::submit_approx`] answers with a budgeted
//!   market-impact estimate (consecutive approximate submissions batch into
//!   one shared sampling sweep, separately from exact queries),
//!   [`ServeHandle::submit_tiered`] accepts a per-request [`kspr::QueryTier`]
//!   (`Auto` is routed by the dispatcher's arrangement-cost estimate and
//!   counted in [`ServeStats`]).  Standing queries are exact only.
//!
//! The service itself is layered (each layer its own module):
//!
//! * **wire** ([`net::NetServer`] + the `kspr-wire` codec) — a blocking TCP
//!   front-end; each connection is its own admission client.
//! * **admission** ([`AdmissionOptions`]) — queries are stamped with the
//!   pending-queue depth and their client's queued-query count at enqueue and
//!   judged at dispatch: past the degradation watermark, tier-dispatched
//!   queries are downgraded to the approximate tier; past the hard limit
//!   (or a per-client quota) they are rejected with
//!   [`ServeError::Overloaded`] / [`ServeError::QuotaExceeded`].
//! * **dispatch** — the single-threaded core: update serialization, query
//!   batching, standing-query maintenance.
//! * **durability** (`kspr-durable`) — [`Server::start_durable`] commits
//!   every applied update to a CRC-framed WAL before acknowledging it and
//!   installs epoch snapshots; [`Server::recover`] rebuilds engine and
//!   registry bit-identically after a crash.
//!
//! ```
//! use kspr::{Algorithm, KsprConfig};
//! use kspr_serve::{ServeOptions, Server, ShardedEngine};
//!
//! let engine = ShardedEngine::new(
//!     vec![
//!         vec![0.3, 0.8, 0.8],
//!         vec![0.9, 0.4, 0.4],
//!         vec![0.8, 0.3, 0.4],
//!         vec![0.4, 0.3, 0.6],
//!     ],
//!     KsprConfig::default().with_shards(2),
//! );
//! let server = Server::start(engine, ServeOptions::default());
//! let handle = server.handle();
//!
//! // Queries resolve through tickets; updates are first-class requests.
//! let pending = handle.submit(vec![0.5, 0.5, 0.7], 3);
//! let id = handle.insert(vec![0.7, 0.7, 0.7]).wait().unwrap();
//! let result = pending.wait().unwrap();
//! assert!(result.num_regions() >= 1);
//! assert!(handle.delete(id).wait().unwrap());
//!
//! let (engine, stats) = server.shutdown();
//! assert_eq!(stats.queries, 1);
//! assert_eq!(stats.updates, 2);
//! assert_eq!(engine.len(), 4);
//! ```

pub mod admission;
mod batch;
mod dispatch;
mod error;
pub mod net;
mod persist;
pub mod server;
pub mod sharded;
mod stats;
mod subscription;
mod telemetry;

pub use admission::AdmissionOptions;
pub use batch::MAX_APPROX_SAMPLES;
pub use dispatch::MAINTENANCE_WINDOW;
pub use error::{ServeError, Ticket};
pub use kspr_approx::TieredResult;
pub use kspr_monitor::{QueryId, ResultDelta, UpdateClass};
pub use kspr_telemetry::{
    HistogramSnapshot, MetricsSnapshot, Stage, StageTimings, TraceId, TraceRecord,
};
pub use net::NetServer;
pub use persist::RecoverError;
pub use server::{ServeHandle, ServeOptions, Server};
pub use sharded::ShardedEngine;
pub use stats::{RejectionStats, ServeStats, REJECTION_VARIANTS};
pub use subscription::{SubscribeTicket, Subscription, MAX_PENDING_DELTAS};
pub use telemetry::FLIGHT_RECORDER_CAPACITY;
