//! Criterion microbenchmarks of GraphCache's layers (`benches/`): index
//! build and filtering, sub-iso matchers, the hit path, maintenance
//! rounds, policies, fragments, snapshot restore and `run_batch` scaling.
//! Run them with `cargo bench -p gc-bench [--bench NAME]`.
//!
//! The paper's figures are not here: they are `gc bench --suite figN`
//! scenario suites (`docs/paper-figures.md`).
