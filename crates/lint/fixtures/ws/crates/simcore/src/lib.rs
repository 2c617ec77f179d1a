//! lint ws fixture: the callee crate — its ambient write is flagged
//! because a `ShardLogic` handler in the crate above reaches it.

/// Reached from `fiveg-core`'s handler: tainted across the crate edge.
pub fn simcore_flush(at: u64) {
    fiveg_obs::counter_add("ws.flush", at); //~ S001
}

/// Never called by a handler: no finding.
pub fn simcore_setup() {
    fiveg_obs::counter_add("ws.setup", 1);
}
