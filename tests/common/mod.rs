//! Helpers shared by the workspace-level integration tests.
//!
//! Each integration test is its own crate and uses a subset of these items, so
//! dead-code analysis is silenced for the module as a whole.
#![allow(dead_code)]

pub mod tap;
pub mod tolerances;
