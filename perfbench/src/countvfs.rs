//! A `Vfs` that counts what the store asks of the disk — fsyncs and
//! bytes written — and passes every call through to `RealVfs`. Used by
//! traced runs only.

use std::io::Result as IoResult;
use std::sync::atomic::{AtomicU64, Ordering};

use bmf_persist::vfs::{RealVfs, Vfs};

/// Counts of the calls seen so far.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct IoCounts {
    /// `sync_file` plus `sync_dir` calls.
    pub fsyncs: u64,
    /// Bytes passed to `write` and `append`.
    pub bytes_written: u64,
}

/// The counting wrapper.
#[derive(Debug, Default)]
pub struct CountingVfs {
    fsyncs: AtomicU64,
    bytes_written: AtomicU64,
}

impl CountingVfs {
    /// Counts so far. The counters publish nothing else, so relaxed
    /// loads suffice.
    pub fn counts(&self) -> IoCounts {
        IoCounts {
            fsyncs: self.fsyncs.load(Ordering::Relaxed),
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
        }
    }

    fn wrote(&self, n: usize) {
        self.bytes_written.fetch_add(n as u64, Ordering::Relaxed);
    }

    fn synced(&self) {
        self.fsyncs.fetch_add(1, Ordering::Relaxed);
    }
}

impl Vfs for CountingVfs {
    fn read(&self, path: &str) -> IoResult<Vec<u8>> {
        RealVfs.read(path)
    }

    fn write(&self, path: &str, bytes: &[u8]) -> IoResult<()> {
        self.wrote(bytes.len());
        RealVfs.write(path, bytes)
    }

    fn append(&self, path: &str, bytes: &[u8]) -> IoResult<()> {
        self.wrote(bytes.len());
        RealVfs.append(path, bytes)
    }

    fn rename(&self, from: &str, to: &str) -> IoResult<()> {
        RealVfs.rename(from, to)
    }

    fn remove(&self, path: &str) -> IoResult<()> {
        RealVfs.remove(path)
    }

    fn exists(&self, path: &str) -> IoResult<bool> {
        RealVfs.exists(path)
    }

    fn len(&self, path: &str) -> IoResult<u64> {
        RealVfs.len(path)
    }

    fn list(&self, dir: &str) -> IoResult<Vec<String>> {
        RealVfs.list(dir)
    }

    fn create_dir_all(&self, path: &str) -> IoResult<()> {
        RealVfs.create_dir_all(path)
    }

    fn sync_file(&self, path: &str) -> IoResult<()> {
        self.synced();
        RealVfs.sync_file(path)
    }

    fn sync_dir(&self, dir: &str) -> IoResult<()> {
        self.synced();
        RealVfs.sync_dir(dir)
    }
}
