//! The repository benchmark: four workloads measured end to end with tracing
//! off, and a separate traced run that measures each layer from outside by
//! timing calls into its public functions and reading the counters it
//! exposes. See `README.md` for why each workload exists and which layer
//! each metric belongs to.

pub mod layers;
pub mod machine;
pub mod report;
pub mod workloads;

pub use report::{Metric, Outcome};
pub use workloads::{run, Options, Scale, Workload, DEFAULT_SEED};
