//! Runs the unit tests of the `experiments` bench target. A `harness =
//! false` target has no test run of its own, so its module tree is compiled
//! here, where `#[test]` functions are collected; nothing is executed but
//! the tests.

#[allow(dead_code)]
#[path = "../benches/experiments/main.rs"]
mod experiments;
