//! Request-level errors and the [`Ticket`] future the serving layers
//! resolve.

use kspr_monitor::RegisterError;
use std::sync::mpsc;

/// Why a request was rejected (or lost).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// `k` must be at least 1.
    InvalidK,
    /// The focal record / inserted record does not match the dataset arity.
    ArityMismatch {
        /// The dataset arity.
        expected: usize,
        /// The request's arity.
        got: usize,
    },
    /// The request contains a NaN or infinite value.
    NonFinite,
    /// The request's [`kspr::ErrorBudget`] is malformed (`epsilon` /
    /// `confidence` outside `(0, 1)`) or finer than the server is willing to
    /// sample for (its Hoeffding sample count exceeds
    /// [`crate::MAX_APPROX_SAMPLES`]).
    InvalidBudget,
    /// The requested algorithm cannot run on this dataset (RTOPK is
    /// 2-dimensional only).
    UnsupportedAlgorithm,
    /// The query panicked inside the engine; the server recovered and keeps
    /// serving (the engine caches rebuild themselves after a poisoning).
    QueryFailed,
    /// An update panicked inside the engine (or its WAL commit failed).
    /// Unlike queries, a half-applied update is not rebuildable in place, so
    /// the server stops serving (subsequent tickets resolve
    /// [`ServeError::ServerClosed`] and [`crate::Server::shutdown`] returns
    /// normally) rather than risk corrupt answers.
    UpdateFailed,
    /// Admission control rejected the query: the pending queue was past its
    /// hard depth limit when the request arrived (see
    /// [`crate::AdmissionOptions::hard_limit`]).
    Overloaded,
    /// Admission control rejected the query: this client already had its
    /// full quota of queries queued and not yet dispatched (see
    /// [`crate::AdmissionOptions::client_quota`]).
    QuotaExceeded,
    /// The request was still pending when [`crate::Server::shutdown`] ran;
    /// the dispatcher drained and explicitly resolved it instead of letting
    /// the ticket observe a dead channel.
    Shutdown,
    /// The server shut down before (or while) answering.
    ServerClosed,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::InvalidK => write!(f, "k must be at least 1"),
            ServeError::ArityMismatch { expected, got } => {
                write!(
                    f,
                    "arity mismatch: got {got} attributes, dataset has {expected}"
                )
            }
            ServeError::NonFinite => write!(f, "values must be finite"),
            ServeError::InvalidBudget => {
                write!(
                    f,
                    "the error budget is malformed or finer than the server samples for"
                )
            }
            ServeError::UnsupportedAlgorithm => {
                write!(f, "the algorithm does not support this dataset's arity")
            }
            ServeError::QueryFailed => write!(f, "the query panicked inside the engine"),
            ServeError::UpdateFailed => {
                write!(
                    f,
                    "an update failed to apply or persist; the server stopped"
                )
            }
            ServeError::Overloaded => {
                write!(f, "the server's pending queue is past its hard limit")
            }
            ServeError::QuotaExceeded => {
                write!(
                    f,
                    "this client's quota of queued, undispatched queries is exhausted"
                )
            }
            ServeError::Shutdown => {
                write!(f, "the server shut down with this request still pending")
            }
            ServeError::ServerClosed => write!(f, "the server has shut down"),
        }
    }
}

impl std::error::Error for ServeError {}

/// A pending response: resolves once the dispatcher has processed the
/// request.  Dropping a ticket discards the response.
pub struct Ticket<T> {
    rx: mpsc::Receiver<Result<T, ServeError>>,
}

impl<T> Ticket<T> {
    pub(crate) fn new() -> (mpsc::Sender<Result<T, ServeError>>, Self) {
        let (tx, rx) = mpsc::channel();
        (tx, Ticket { rx })
    }

    /// Blocks until the response arrives.
    pub fn wait(self) -> Result<T, ServeError> {
        self.rx.recv().unwrap_or(Err(ServeError::ServerClosed))
    }
}

/// Maps a core ingest violation to the request-level error.
pub(crate) fn ingest_error(err: kspr::IngestError) -> ServeError {
    match err {
        // Unreachable here (the engine arity is always >= 1, so an empty row
        // surfaces as an arity mismatch first), kept for exhaustiveness.
        kspr::IngestError::Empty => ServeError::ArityMismatch {
            expected: 0,
            got: 0,
        },
        kspr::IngestError::ArityMismatch { expected, got } => {
            ServeError::ArityMismatch { expected, got }
        }
        kspr::IngestError::NonFinite { .. } => ServeError::NonFinite,
    }
}

/// Maps a standing-query registration failure to the request-level error.
pub(crate) fn register_error(err: RegisterError) -> ServeError {
    match err {
        RegisterError::InvalidK => ServeError::InvalidK,
        RegisterError::Focal(err) => ingest_error(err),
        RegisterError::UnsupportedAlgorithm => ServeError::UnsupportedAlgorithm,
        // Client registrations always allocate fresh ids; a duplicate can
        // only come from the recovery path, which reports it before a
        // server ever starts.
        RegisterError::DuplicateId => ServeError::QueryFailed,
    }
}
