//! Read-only file mappings for zero-copy snapshot serving.
//!
//! Mirrors the direct `extern "C"` binding style of the service reactor's
//! epoll layer: no external crate, just the two syscall wrappers the tier
//! needs (`mmap`, `munmap`), bound with fixed Linux ABI constants.
//!
//! A [`MmapRegion`] maps a whole file `PROT_READ` + `MAP_PRIVATE` and
//! exposes it as `&[u8]`. Lifetime hazards are contained by construction:
//!
//! * the mapping is never writable, so aliasing with other readers is fine;
//! * snapshot files are only ever replaced via atomic `rename`, never
//!   truncated in place, so a live mapping keeps the *old inode* readable
//!   for its whole lifetime and cannot fault on a shrunk file;
//! * the region owns the mapping and `munmap`s exactly once on drop, and is
//!   shared between graph storage arrays via `Arc`.
//!
//! [`Array`] is the storage every CSR array of a [`crate::Graph`] lives
//! in: an owned vector (build, delta and decode paths) or a typed window
//! into a shared region (the zero-copy snapshot boot). [`Words`] holds the
//! `n + 1` offsets, [`U32s`] the neighbor and edge-id slot arrays.

use std::fs::File;
use std::ops::Deref;
use std::os::unix::io::AsRawFd;
use std::sync::Arc;

#[allow(non_camel_case_types)]
type c_int = i32;
#[allow(non_camel_case_types)]
type size_t = usize;
#[allow(non_camel_case_types)]
type off_t = i64;

/// `PROT_READ`: pages may be read, never written or executed.
const PROT_READ: c_int = 0x1;
/// `MAP_PRIVATE`: copy-on-write visibility; irrelevant for a read-only
/// mapping but keeps any future stray write from reaching the file.
const MAP_PRIVATE: c_int = 0x02;

extern "C" {
    fn mmap(
        addr: *mut u8,
        length: size_t,
        prot: c_int,
        flags: c_int,
        fd: c_int,
        offset: off_t,
    ) -> *mut u8;
    fn munmap(addr: *mut u8, length: size_t) -> c_int;
}

/// An owned, read-only, whole-file memory mapping.
pub struct MmapRegion {
    ptr: *const u8,
    len: usize,
}

impl MmapRegion {
    /// Maps `file` read-only in its entirety.
    ///
    /// Fails (with the OS error text) rather than panicking on empty files,
    /// files larger than the address space, or `mmap` refusal; callers fall
    /// back to the byte-decode load path.
    pub fn map(file: &File) -> Result<MmapRegion, String> {
        let len = file
            .metadata()
            .map_err(|e| format!("mmap: stat failed: {e}"))?
            .len();
        let len =
            usize::try_from(len).map_err(|_| "mmap: file exceeds address space".to_string())?;
        if len == 0 {
            return Err("mmap: refusing to map an empty file".to_string());
        }
        // SAFETY: all arguments are well-formed for the Linux ABI declared
        // above — a null hint address, a non-zero length no larger than the
        // file, read-only protection flags, and a file descriptor that is
        // live for the duration of the call (`file` is borrowed). The
        // kernel either returns a fresh page-aligned mapping of `len` bytes
        // (owned by the returned region and unmapped exactly once in
        // `Drop`) or `MAP_FAILED`, which is checked below.
        let ptr = unsafe {
            mmap(
                std::ptr::null_mut(),
                len,
                PROT_READ,
                MAP_PRIVATE,
                file.as_raw_fd(),
                0,
            )
        };
        if ptr.is_null() || ptr as isize == -1 {
            return Err(format!("mmap failed: {}", std::io::Error::last_os_error()));
        }
        Ok(MmapRegion { ptr, len })
    }

    /// Length of the mapping in bytes (the file length at map time).
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Always false: zero-length files are refused at map time.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl Deref for MmapRegion {
    type Target = [u8];

    #[inline]
    fn deref(&self) -> &[u8] {
        // SAFETY: `ptr` is a live `PROT_READ` mapping of exactly `len`
        // bytes (established in `map`, released only in `Drop`, which
        // cannot run while `self` is borrowed). The file behind it is
        // replaced only by atomic rename — never truncated — so every byte
        // stays readable; and the mapping is never writable from anywhere,
        // so the shared slice cannot alias a mutation.
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }
}

impl Drop for MmapRegion {
    fn drop(&mut self) {
        // SAFETY: `ptr`/`len` describe the exact mapping returned by the
        // successful `mmap` in `map`; it is unmapped here exactly once
        // (the region is neither `Clone` nor `Copy`). A failure return
        // only leaks the mapping, which is safe.
        unsafe {
            munmap(self.ptr as *mut u8, self.len);
        }
    }
}

// SAFETY: the region is an immutable byte buffer: the pages are mapped
// read-only, the raw pointer is never handed out mutably, and `munmap`
// happens once on drop regardless of which thread drops. Sharing or moving
// it across threads is therefore as safe as sharing an `Arc<[u8]>`.
unsafe impl Send for MmapRegion {}
// SAFETY: see `Send` above — all access is read-only through `Deref`.
unsafe impl Sync for MmapRegion {}

impl std::fmt::Debug for MmapRegion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MmapRegion")
            .field("len", &self.len)
            .finish()
    }
}

impl MmapRegion {
    /// Base pointer of the mapping, for alignment checks and window casts.
    #[inline]
    pub fn as_ptr(&self) -> *const u8 {
        self[..].as_ptr()
    }
}

mod sealed {
    pub trait Sealed {}
    impl Sealed for u32 {}
    impl Sealed for u64 {}
}

/// The element types an [`Array`] may hold: fixed-width integers, valid
/// for every bit pattern, stored little-endian on disk. Sealed, because
/// the mapped view reinterprets raw file bytes as `Self`.
pub trait Scalar: sealed::Sealed + Copy {
    /// Decodes one value from exactly `size_of::<Self>()` bytes.
    fn from_le(bytes: &[u8]) -> Self;
}

impl Scalar for u32 {
    fn from_le(bytes: &[u8]) -> Self {
        u32::from_le_bytes(bytes.try_into().expect("4-byte chunk"))
    }
}

impl Scalar for u64 {
    fn from_le(bytes: &[u8]) -> Self {
        u64::from_le_bytes(bytes.try_into().expect("8-byte chunk"))
    }
}

/// An integer array that is either owned or a window into a mapped region.
/// The storage is private: only [`Array::mapped`], after checking the
/// window, can build the mapped form that [`Array::as_slice`] trusts.
#[derive(Clone, Debug)]
pub struct Array<T>(Storage<T>);

#[derive(Clone, Debug)]
enum Storage<T> {
    /// Heap-allocated (build, delta and decode paths).
    Owned(Vec<T>),
    /// `len` values starting `byte_off` bytes into a shared mapping.
    Mapped {
        region: Arc<MmapRegion>,
        byte_off: usize,
        len: usize,
    },
}

impl<T> From<Vec<T>> for Array<T> {
    fn from(values: Vec<T>) -> Self {
        Array(Storage::Owned(values))
    }
}

/// `u64` storage: the CSR offsets.
pub type Words = Array<u64>;
/// `u32` storage: the CSR neighbor and edge-id slot arrays.
pub type U32s = Array<u32>;

/// Byte length of `len` values of `T` at `byte_off`, if the window fits
/// in `total` bytes.
fn window_end<T>(byte_off: usize, len: usize, total: usize) -> Result<usize, String> {
    len.checked_mul(std::mem::size_of::<T>())
        .and_then(|b| b.checked_add(byte_off))
        .filter(|&end| end <= total)
        .ok_or_else(|| {
            format!(
                "array window {byte_off}+{len}x{} exceeds {total} bytes",
                std::mem::size_of::<T>()
            )
        })
}

impl<T: Scalar> Array<T> {
    /// Decodes `len` little-endian values starting `byte_off` bytes into
    /// `bytes` as an owned array: the load path of hosts that cannot map.
    pub fn copied(bytes: &[u8], byte_off: usize, len: usize) -> Result<Self, String> {
        let end = window_end::<T>(byte_off, len, bytes.len())?;
        let values: Vec<T> = bytes[byte_off..end]
            .chunks_exact(std::mem::size_of::<T>())
            .map(T::from_le)
            .collect();
        Ok(values.into())
    }

    /// Wraps a window of a mapped region as a typed array.
    ///
    /// Fails on big-endian hosts, misaligned offsets, or windows that
    /// overrun the mapping — never panics.
    pub fn mapped(region: Arc<MmapRegion>, byte_off: usize, len: usize) -> Result<Self, String> {
        if cfg!(target_endian = "big") {
            return Err("mapped arrays require a little-endian host".to_string());
        }
        window_end::<T>(byte_off, len, region.len())?;
        if !(region.as_ptr() as usize + byte_off).is_multiple_of(std::mem::align_of::<T>()) {
            return Err(format!(
                "mapped array at byte {byte_off} is not {}-byte aligned",
                std::mem::align_of::<T>()
            ));
        }
        Ok(Array(Storage::Mapped {
            region,
            byte_off,
            len,
        }))
    }

    /// The values as a slice; zero-copy for both variants.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        match &self.0 {
            Storage::Owned(v) => v,
            Storage::Mapped {
                region,
                byte_off,
                len,
            } => {
                // SAFETY: only `mapped` builds this variant (the storage is
                // private), and it proved the window lies inside the region
                // (`byte_off + len * size_of::<T>() <= region.len()`), is
                // aligned for `T`, and the host is little-endian; `T` is a
                // sealed plain integer type, valid for every bit pattern, so
                // the reinterpretation is value-preserving. The region is
                // read-only and kept alive by the `Arc` for `&self`'s
                // lifetime, so the slice cannot dangle or alias a write.
                unsafe {
                    std::slice::from_raw_parts(region.as_ptr().add(*byte_off) as *const T, *len)
                }
            }
        }
    }

    /// Bytes occupied by the array (same for owned and mapped).
    #[inline]
    pub fn byte_len(&self) -> usize {
        std::mem::size_of_val(self.as_slice())
    }

    /// Whether the storage is a mapped window.
    #[inline]
    pub fn is_mapped(&self) -> bool {
        matches!(self.0, Storage::Mapped { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    fn temp_path(tag: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("saphyra-mmap-{tag}-{}", std::process::id()));
        p
    }

    #[test]
    fn maps_file_contents_read_only() {
        let path = temp_path("basic");
        let payload: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        std::fs::File::create(&path)
            .unwrap()
            .write_all(&payload)
            .unwrap();
        let region = MmapRegion::map(&File::open(&path).unwrap()).unwrap();
        assert_eq!(region.len(), payload.len());
        assert_eq!(&region[..], &payload[..]);
        drop(region);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn empty_file_is_refused_not_panicked() {
        let path = temp_path("empty");
        std::fs::File::create(&path).unwrap();
        let err = MmapRegion::map(&File::open(&path).unwrap()).unwrap_err();
        assert!(err.contains("empty"), "unexpected error: {err}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn arrays_copy_or_map_the_same_values() {
        let path = temp_path("array");
        let mut bytes = Vec::new();
        for v in [7u64, 0, u64::MAX] {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        for v in [1u32, 2, 3] {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        std::fs::write(&path, &bytes).unwrap();
        let region = Arc::new(MmapRegion::map(&File::open(&path).unwrap()).unwrap());
        let words = Words::mapped(Arc::clone(&region), 0, 3).unwrap();
        assert!(words.is_mapped());
        assert_eq!(words.as_slice(), &[7, 0, u64::MAX]);
        assert_eq!(
            words.as_slice(),
            Words::copied(&bytes, 0, 3).unwrap().as_slice()
        );
        let u32s = U32s::mapped(Arc::clone(&region), 24, 3).unwrap();
        assert_eq!(u32s.as_slice(), &[1, 2, 3]);
        assert_eq!(u32s.byte_len(), 12);
        assert!(!U32s::copied(&bytes, 24, 3).unwrap().is_mapped());
        // Misaligned and overrunning windows are refused, never read.
        assert!(Words::mapped(Arc::clone(&region), 4, 1).is_err());
        assert!(U32s::mapped(Arc::clone(&region), 28, 3).is_err());
        assert!(Words::copied(&bytes, 8, 4).is_err());
        drop((words, u32s, region));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn region_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<MmapRegion>();
    }
}
