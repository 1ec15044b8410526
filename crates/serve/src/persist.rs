//! The durability layer: WAL appends while serving, snapshots at epoch
//! boundaries, and crash recovery.
//!
//! While a durable server runs, the dispatcher routes every applied update
//! through [`Persist`]: records are staged per update, committed (one
//! write + fsync) per drained batch *before* the batch's tickets are
//! acknowledged, so an acknowledged update is always replayable.  After a
//! compaction — which renumbers nothing but drops slots the WAL's ids
//! refer to — and at clean shutdown the dispatcher installs a fresh epoch
//! snapshot, truncating the WAL.
//!
//! [`recover_state`] inverts the pipeline: snapshot → engine via
//! [`ShardedEngine::from_slots`], then WAL replay.  Replayed inserts assert
//! the rebuilt engine assigns the logged id (any divergence means the
//! snapshot/WAL pair is inconsistent and is reported, never papered over),
//! and standing queries are re-registered *after* the dataset replay so
//! their maintained results equal fresh re-runs — the bit-identical
//! recovery guarantee.

use crate::telemetry::ServeMetrics;
use crate::ShardedEngine;
use kspr::KsprConfig;
use kspr_durable::{DurableError, DurableStore, Registration, SnapshotState, WalRecord, WalWriter};
use kspr_monitor::Monitor;
use std::collections::BTreeMap;

/// The dispatcher's handle on the durable directory: a store plus its open
/// WAL writer.
pub(crate) struct Persist {
    store: DurableStore,
    writer: WalWriter,
}

impl Persist {
    /// Opens the (fsyncing) WAL writer over `store`.
    pub(crate) fn open(store: DurableStore) -> std::io::Result<Self> {
        let writer = store.wal_writer(true)?;
        Ok(Self { store, writer })
    }

    /// Stages one record for the next commit.
    pub(crate) fn append(&mut self, record: &WalRecord) {
        self.writer.append(record);
    }

    /// Commits (write + fsync) everything staged and publishes the commit:
    /// the `wal_commits` counter, the `kspr_wal_fsyncs` counter, the
    /// commit-latency histogram and the WAL size gauge.
    /// Nothing staged means nothing is written, so nothing is published.
    pub(crate) fn commit(&mut self, metrics: &ServeMetrics) -> std::io::Result<()> {
        let before = self.writer.commits();
        self.writer.commit()?;
        if self.writer.commits() > before {
            metrics.live.wal_commits.inc();
            metrics.wal_committed(self.writer.bytes(), self.writer.last_commit_nanos());
        }
        Ok(())
    }

    /// Installs `state` as the new epoch snapshot, truncates the WAL and
    /// publishes the new epoch.
    ///
    /// Truncation reuses the WAL path with a fresh file, which invalidates
    /// this writer's append offset — so the writer is reopened afterwards.
    /// Only called from a quiesced point (no staged records), which the
    /// reopen would otherwise silently discard.
    pub(crate) fn install(
        &mut self,
        state: &SnapshotState,
        metrics: &ServeMetrics,
    ) -> std::io::Result<()> {
        self.store.install_snapshot(state)?;
        self.writer = self.store.wal_writer(true)?;
        metrics.live.snapshots.inc();
        metrics.snapshot_installed(self.writer.bytes(), self.store.snapshot_epoch());
        Ok(())
    }
}

/// Captures the engine's and the registry's logical state as a snapshot.
pub(crate) fn snapshot_of(engine: &ShardedEngine, monitor: &Monitor) -> SnapshotState {
    SnapshotState {
        dim: engine.dim(),
        num_shards: engine.num_shards(),
        next_shard: engine.routing_cursor(),
        shard_epochs: engine.export_epochs(),
        slots: engine.export_slots(),
        monitor_next_id: monitor.next_id(),
        registrations: monitor
            .queries()
            .map(|(id, query)| Registration {
                id,
                algorithm: query.algorithm(),
                focal: query.focal().to_vec(),
                k: query.k(),
            })
            .collect(),
    }
}

/// Why [`crate::Server::recover`] failed.
#[derive(Debug)]
pub enum RecoverError {
    /// The durable directory is unreadable, missing its snapshot, or holds a
    /// corrupt snapshot.
    Durable(DurableError),
    /// Snapshot + WAL replay diverged from the logged history (e.g. a
    /// replayed insert was assigned a different id, or a logged standing
    /// query no longer registers).  The directory does not describe a state
    /// this engine can reach, so recovery refuses to serve from it.
    Diverged(&'static str),
}

impl std::fmt::Display for RecoverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoverError::Durable(err) => write!(f, "durable state unreadable: {err}"),
            RecoverError::Diverged(what) => {
                write!(f, "snapshot + WAL replay diverged: {what}")
            }
        }
    }
}

impl std::error::Error for RecoverError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RecoverError::Durable(err) => Some(err),
            RecoverError::Diverged(_) => None,
        }
    }
}

impl From<DurableError> for RecoverError {
    fn from(err: DurableError) -> Self {
        RecoverError::Durable(err)
    }
}

impl From<std::io::Error> for RecoverError {
    fn from(err: std::io::Error) -> Self {
        RecoverError::Durable(DurableError::Io(err))
    }
}

/// Rebuilds the engine and the standing-query registry from `store`'s
/// snapshot plus its committed WAL tail.
pub(crate) fn recover_state(
    store: &DurableStore,
    config: KsprConfig,
) -> Result<(ShardedEngine, Monitor), RecoverError> {
    let recovered = store.load()?;
    let Some(snapshot) = recovered.snapshot else {
        return Err(DurableError::MissingSnapshot(store.snapshot_path()).into());
    };
    let mut engine = ShardedEngine::from_slots(
        snapshot.dim,
        config,
        snapshot.num_shards,
        snapshot.next_shard,
        &snapshot.shard_epochs,
        &snapshot.slots,
    );

    // Dataset replay first; registrations are collected and registered once
    // the record set is final, so every standing query's maintained result
    // is computed against exactly the recovered dataset (bit-identical to a
    // fresh re-run — the engines are deterministic functions of the live
    // record set).
    let mut registrations: BTreeMap<u64, Registration> = snapshot
        .registrations
        .into_iter()
        .map(|reg| (reg.id, reg))
        .collect();
    let mut next_id = snapshot.monitor_next_id;
    for record in recovered.wal {
        match record {
            WalRecord::Insert { id, values } => {
                if engine.insert(values) != id {
                    return Err(RecoverError::Diverged(
                        "a replayed insert was assigned a different id",
                    ));
                }
            }
            WalRecord::Delete { id } => {
                if engine.delete_returning(id).is_none() {
                    return Err(RecoverError::Diverged(
                        "a replayed delete named a record that does not exist",
                    ));
                }
            }
            WalRecord::Subscribe {
                id,
                algorithm,
                focal,
                k,
            } => {
                next_id = next_id.max(id + 1);
                registrations.insert(
                    id,
                    Registration {
                        id,
                        algorithm,
                        focal,
                        k,
                    },
                );
            }
            WalRecord::Unsubscribe { id } => {
                if registrations.remove(&id).is_none() {
                    return Err(RecoverError::Diverged(
                        "a replayed unsubscribe named an unknown standing query",
                    ));
                }
            }
        }
    }

    let mut monitor = Monitor::new();
    for (id, reg) in registrations {
        monitor
            .register_at(&engine, id, reg.algorithm, reg.focal, reg.k)
            .map_err(|_| RecoverError::Diverged("a logged standing query no longer registers"))?;
    }
    monitor.restore_next_id(next_id);
    Ok((engine, monitor))
}
