//! The in-process shard transport: zero marshalling.

use super::{Knob, ShardTransport, TransportError};
use crate::index::AnnIndex;
use crate::metric::Metric;
use crate::snapshot;
use crate::topk::Hit;
use std::sync::RwLock;

/// A shard hosted in this process: the child index behind a read-write
/// lock (searches share the read side, so concurrent per-query probes
/// of one shard stay concurrent; mutations take the write side). Every
/// operation is infallible in practice — the `Result` signatures exist
/// for the trait; only [`LocalShard::install`] can actually fail, on a
/// rejected blob.
pub struct LocalShard {
    index: RwLock<Box<dyn AnnIndex>>,
}

impl LocalShard {
    pub fn new(index: Box<dyn AnnIndex>) -> Self {
        LocalShard { index: RwLock::new(index) }
    }

    fn read(&self) -> std::sync::RwLockReadGuard<'_, Box<dyn AnnIndex>> {
        self.index.read().expect("local shard lock poisoned")
    }

    fn write(&self) -> std::sync::RwLockWriteGuard<'_, Box<dyn AnnIndex>> {
        self.index.write().expect("local shard lock poisoned")
    }
}

impl ShardTransport for LocalShard {
    fn dim(&self) -> usize {
        self.read().dim()
    }

    fn len(&self) -> usize {
        self.read().len()
    }

    fn metric(&self) -> Metric {
        self.read().metric()
    }

    fn can_refresh(&self) -> bool {
        self.read().can_refresh()
    }

    fn endpoint(&self) -> String {
        "local".into()
    }

    fn install(&self, family: u8, payload: &[u8]) -> Result<(), TransportError> {
        let loaded = snapshot::load_child(family, payload)?;
        *self.write() = loaded;
        Ok(())
    }

    fn add_batch(&self, flat: &[f32]) -> Result<(), TransportError> {
        self.write().add_batch(flat);
        Ok(())
    }

    fn refresh(&self, data: &[f32], changed: &[u32]) -> Result<bool, TransportError> {
        Ok(self.write().refresh(data, changed))
    }

    fn search_batch(&self, queries: &[f32], k: usize) -> Result<Vec<Vec<Hit>>, TransportError> {
        Ok(self.read().search_batch(queries, k))
    }

    fn knob(&self, knob: Knob) -> Result<Option<(usize, usize)>, TransportError> {
        let ix = self.read();
        Ok(match knob {
            Knob::Nprobe => ix.nprobe_knob(),
            Knob::EfSearch => ix.ef_search_knob(),
        })
    }

    fn set_knob(&self, knob: Knob, width: usize) -> Result<bool, TransportError> {
        let mut ix = self.write();
        Ok(match knob {
            Knob::Nprobe => ix.set_nprobe(width),
            Knob::EfSearch => ix.set_ef_search(width),
        })
    }

    fn snapshot_blob(&self) -> Result<(u8, Vec<u8>), TransportError> {
        Ok(self.read().snapshot_blob())
    }
}
