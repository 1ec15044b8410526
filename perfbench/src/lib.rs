//! Library half of the `perfbench` client-side TCP benchmark: the seeded
//! inputs (dataset, focal records, per-connection request streams) and the
//! small statistics helpers the binary reports with.  Kept in a library so
//! the determinism test in `tests/` can reach the input generator.

pub mod inputs;
pub mod stats;
