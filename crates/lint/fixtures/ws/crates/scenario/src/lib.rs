//! lint ws fixture: a crate whose manifest skips the lint opt-in.

/// Documented, but the crate escapes the workspace lints (W002).
pub fn scenario_probe() {}
