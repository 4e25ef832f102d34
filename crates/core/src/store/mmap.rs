//! Read-only memory mapping for the lazy snapshot read path.
//!
//! The build environment is offline-vendored (no `libc` crate), so the
//! two syscalls the store needs are declared directly. The wrapper is
//! deliberately minimal and read-only: on 64-bit unix a base segment is
//! `mmap`ed shared so N server processes on one host keep a single
//! page-cache copy of the snapshot; everywhere else [`SegmentBytes`]
//! falls back to the PR 4 read-all path (`std::fs::read`) with identical
//! semantics.
//!
//! # Safety argument
//!
//! A mapping stays valid only while the underlying pages do. DTAS never
//! modifies a published segment in place — every write goes to a fresh
//! temporary file that is `rename`d over (or next to) the old one, and
//! compaction unlinks obsolete segments rather than truncating them — so
//! on unix an open mapping survives any concurrent writer (unlinked
//! files persist until the last mapping goes away). An *external* actor
//! truncating a mapped file could still fault a reader; that is the same
//! trust boundary as the rest of the cache directory (which is already
//! assumed not to be hostile at the filesystem level — hostile *bytes*
//! are fully handled by the codec).

use std::fs::File;
use std::io;
use std::ops::Deref;

#[cfg(all(unix, target_pointer_width = "64"))]
mod sys {
    use std::os::raw::{c_int, c_void};

    pub const PROT_READ: c_int = 1;
    pub const MAP_SHARED: c_int = 1;

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> c_int;
    }
}

/// A read-only shared mapping of a whole file.
#[cfg(all(unix, target_pointer_width = "64"))]
pub(crate) struct Mmap {
    ptr: *mut std::os::raw::c_void,
    len: usize,
}

#[cfg(all(unix, target_pointer_width = "64"))]
impl Mmap {
    /// Maps `file` read-only. Fails (for the caller to fall back on) when
    /// the kernel refuses; empty files are not mappable and must be
    /// handled by the caller.
    fn map(file: &File, len: usize) -> io::Result<Mmap> {
        use std::os::unix::io::AsRawFd;
        debug_assert!(len > 0, "caller handles empty files");
        // SAFETY: requesting a fresh read-only shared mapping of `len`
        // bytes backed by an open fd; the kernel validates everything and
        // returns MAP_FAILED on error. The mapping is only ever read
        // through the `Deref` slice below, whose length equals `len`.
        let ptr = unsafe {
            sys::mmap(
                std::ptr::null_mut(),
                len,
                sys::PROT_READ,
                sys::MAP_SHARED,
                file.as_raw_fd(),
                0,
            )
        };
        if ptr as isize == -1 {
            return Err(io::Error::last_os_error());
        }
        Ok(Mmap { ptr, len })
    }
}

#[cfg(all(unix, target_pointer_width = "64"))]
impl Deref for Mmap {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        // SAFETY: the mapping covers exactly `len` readable bytes for the
        // lifetime of `self` (see module safety argument).
        unsafe { std::slice::from_raw_parts(self.ptr as *const u8, self.len) }
    }
}

#[cfg(all(unix, target_pointer_width = "64"))]
impl Drop for Mmap {
    fn drop(&mut self) {
        // SAFETY: unmapping the exact range returned by `mmap`.
        unsafe {
            sys::munmap(self.ptr, self.len);
        }
    }
}

// SAFETY: the mapping is immutable (PROT_READ) and owned; sharing &[u8]
// views across threads is sound.
#[cfg(all(unix, target_pointer_width = "64"))]
unsafe impl Send for Mmap {}
#[cfg(all(unix, target_pointer_width = "64"))]
unsafe impl Sync for Mmap {}

/// The bytes of one on-disk segment: memory-mapped where supported,
/// otherwise read into an owned buffer. Both variants expose the same
/// immutable `&[u8]`, so every decoder above this line is
/// platform-independent.
pub(crate) enum SegmentBytes {
    /// Owned copy (the portable fallback).
    Owned(Vec<u8>),
    /// Shared read-only mapping (64-bit unix).
    #[cfg(all(unix, target_pointer_width = "64"))]
    Mapped(Mmap),
}

impl SegmentBytes {
    /// Opens `path` for reading, preferring a shared mapping.
    pub(crate) fn open(path: &std::path::Path) -> io::Result<SegmentBytes> {
        #[cfg(all(unix, target_pointer_width = "64"))]
        {
            let file = File::open(path)?;
            let len = file.metadata()?.len();
            if len > 0 && usize::try_from(len).is_ok() {
                if let Ok(map) = Mmap::map(&file, len as usize) {
                    return Ok(SegmentBytes::Mapped(map));
                }
            }
            // Unmappable (empty, oversized, or kernel refusal): fall back.
        }
        Ok(SegmentBytes::Owned(std::fs::read(path)?))
    }

    /// True when backed by a shared mapping rather than an owned copy.
    pub(crate) fn is_mapped(&self) -> bool {
        match self {
            SegmentBytes::Owned(_) => false,
            #[cfg(all(unix, target_pointer_width = "64"))]
            SegmentBytes::Mapped(_) => true,
        }
    }
}

impl Deref for SegmentBytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        match self {
            SegmentBytes::Owned(bytes) => bytes,
            #[cfg(all(unix, target_pointer_width = "64"))]
            SegmentBytes::Mapped(map) => map,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_round_trips_file_contents() {
        let path = std::env::temp_dir().join(format!("dtas_mmap_{}", std::process::id()));
        let payload: Vec<u8> = (0..10_000u32).flat_map(|v| v.to_le_bytes()).collect();
        std::fs::write(&path, &payload).unwrap();
        let bytes = SegmentBytes::open(&path).unwrap();
        assert_eq!(&*bytes, &payload[..]);
        #[cfg(all(unix, target_pointer_width = "64"))]
        assert!(bytes.is_mapped());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn empty_files_fall_back_to_owned_bytes() {
        let path = std::env::temp_dir().join(format!("dtas_mmap_empty_{}", std::process::id()));
        std::fs::write(&path, b"").unwrap();
        let bytes = SegmentBytes::open(&path).unwrap();
        assert!(bytes.is_empty());
        assert!(!bytes.is_mapped());
        let _ = std::fs::remove_file(&path);
    }

    #[cfg(all(unix, target_pointer_width = "64"))]
    #[test]
    fn mapping_survives_unlink_and_replacement() {
        // The compaction contract: a reader holding a mapped base keeps a
        // consistent view while a writer renames a new generation over it.
        let path = std::env::temp_dir().join(format!("dtas_mmap_unlink_{}", std::process::id()));
        std::fs::write(&path, vec![0xABu8; 4096]).unwrap();
        let bytes = SegmentBytes::open(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        std::fs::write(&path, vec![0xCDu8; 4096]).unwrap();
        assert!(bytes.iter().all(|&b| b == 0xAB));
        let _ = std::fs::remove_file(&path);
    }
}
