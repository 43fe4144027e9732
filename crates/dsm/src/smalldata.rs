//! Small-data objects kept consistent by the message-passing update
//! protocol (§5.2.1).
//!
//! Data structures below the threshold (256 bytes on the paper's cluster)
//! guarded by synchronization or work-sharing directives bypass HLRC
//! entirely: they live in plain per-node memory and their values are
//! propagated *eagerly* by collective operations (entry-consistency style).
//! No twins, no diffs, no page faults — that is the point.

use parade_net::sync::{Mutex, RwLock};

/// Handle to a small-data object; plain data, capturable by closures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SmallHandle {
    pub id: u32,
    pub len: usize,
}

struct SmallObj {
    data: Mutex<Vec<u8>>,
}

/// The per-node registry of small objects. All nodes perform identical
/// allocations, so ids line up across the cluster.
#[derive(Default)]
pub struct SmallRegistry {
    objs: RwLock<Vec<SmallObj>>,
}

impl SmallRegistry {
    pub fn new() -> Self {
        SmallRegistry::default()
    }

    /// Allocate a zero-initialized object of `len` bytes.
    pub fn alloc(&self, len: usize) -> SmallHandle {
        let mut objs = self.objs.write();
        let id = objs.len() as u32;
        objs.push(SmallObj {
            data: Mutex::new(vec![0; len]),
        });
        SmallHandle { id, len }
    }

    pub fn count(&self) -> usize {
        self.objs.read().len()
    }

    /// Overwrite the whole object (e.g. with a broadcast/allreduce result).
    pub fn write_bytes(&self, h: SmallHandle, bytes: &[u8]) {
        assert_eq!(bytes.len(), h.len, "small object size mismatch");
        let objs = self.objs.read();
        let mut d = objs[h.id as usize].data.lock();
        d.copy_from_slice(bytes);
    }

    /// Atomically (node-locally) mutate the object and return a result —
    /// the intra-node half of the paper's hierarchical mutual exclusion
    /// (pthread lock within the node, collective between nodes).
    pub fn mutate<R>(&self, h: SmallHandle, f: impl FnOnce(&mut [u8]) -> R) -> R {
        let objs = self.objs.read();
        let mut d = objs[h.id as usize].data.lock();
        f(&mut d)
    }

    // Typed helpers for the common scalar cases.

    pub fn read_f64(&self, h: SmallHandle, idx: usize) -> f64 {
        let objs = self.objs.read();
        let d = objs[h.id as usize].data.lock();
        f64::from_le_bytes(d[idx * 8..idx * 8 + 8].try_into().expect("f64"))
    }

    pub fn write_f64(&self, h: SmallHandle, idx: usize, v: f64) {
        let objs = self.objs.read();
        let mut d = objs[h.id as usize].data.lock();
        d[idx * 8..idx * 8 + 8].copy_from_slice(&v.to_le_bytes());
    }

    pub fn read_i64(&self, h: SmallHandle, idx: usize) -> i64 {
        let objs = self.objs.read();
        let d = objs[h.id as usize].data.lock();
        i64::from_le_bytes(d[idx * 8..idx * 8 + 8].try_into().expect("i64"))
    }

    pub fn write_i64(&self, h: SmallHandle, idx: usize, v: i64) {
        let objs = self.objs.read();
        let mut d = objs[h.id as usize].data.lock();
        d[idx * 8..idx * 8 + 8].copy_from_slice(&v.to_le_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_ids_are_sequential() {
        let r = SmallRegistry::new();
        let a = r.alloc(8);
        let b = r.alloc(16);
        assert_eq!(a.id, 0);
        assert_eq!(b.id, 1);
        assert_eq!(r.count(), 2);
    }

    #[test]
    fn typed_scalar_roundtrip() {
        let r = SmallRegistry::new();
        let h = r.alloc(24);
        r.write_f64(h, 0, 1.5);
        r.write_f64(h, 2, -2.5);
        r.write_i64(h, 1, 77);
        assert_eq!(r.read_f64(h, 0), 1.5);
        assert_eq!(r.read_i64(h, 1), 77);
        assert_eq!(r.read_f64(h, 2), -2.5);
    }

    #[test]
    fn mutate_is_atomic_across_threads() {
        use std::sync::Arc;
        let r = Arc::new(SmallRegistry::new());
        let h = r.alloc(8);
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let r = Arc::clone(&r);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        r.mutate(h, |d| {
                            let v = i64::from_le_bytes(d.try_into().unwrap());
                            d.copy_from_slice(&(v + 1).to_le_bytes());
                        });
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(r.read_i64(h, 0), 4000);
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn write_wrong_size_panics() {
        let r = SmallRegistry::new();
        let h = r.alloc(8);
        r.write_bytes(h, &[0; 4]);
    }
}
