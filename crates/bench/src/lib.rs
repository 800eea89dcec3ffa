//! # liberate-bench
//!
//! The experiment harness regenerating every table and figure of the
//! lib·erate paper (see `EXPERIMENTS.md` at the workspace root for the
//! index). Binaries in `src/bin/` print paper-expected values next to
//! measured ones; the shared logic lives here so the workspace
//! integration tests can assert the same results.

pub mod envs;
pub mod expected;
pub mod harness;
pub mod osmatrix;
pub mod table3;
