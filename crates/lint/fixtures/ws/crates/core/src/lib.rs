//! lint ws fixture: a shard handler whose metric write lives one
//! crate below — the cross-crate taint case single-file fixtures
//! cannot express. Never compiled; only parsed by the self-test.

impl ShardLogic for WsNode {
    /// The handler: taints `simcore_flush` through the dependency edge.
    fn handle(&mut self, at: u64) {
        simcore_flush(at);
    }
}
