//! Named parameter store and its checkpoint format.
//!
//! Models register their weights here and receive [`ParamId`]s; the autograd
//! [`Tape`](crate::tape::Tape) accumulates gradients into a [`GradStore`]
//! keyed by the same ids, and [`Adam`](crate::optim::Adam) applies updates.
//! A store is checkpointed as `DSQP` (version 2): little-endian `f32`
//! payloads behind a length-prefixed name/shape header per parameter and a
//! CRC-32 trailer, written by [`Params::save_binary`] and read back
//! bit-exactly by [`Params::load_binary`]. A load names every registered
//! parameter exactly once. The byte-level layout is specified for
//! third-party loaders in `docs/CHECKPOINTS.md` at the repository root;
//! `deepseq-core` embeds the blob in its `DSQM` model checkpoint.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;

use rand::Rng;

use crate::matrix::Matrix;

/// Identifier of a registered parameter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ParamId(pub usize);

/// A named collection of trainable matrices.
///
/// # Example
/// ```
/// use deepseq_nn::{Matrix, Params};
///
/// let mut params = Params::new();
/// let w = params.register("w", Matrix::zeros(2, 2));
/// params.get_mut(w).set(0, 0, 1.0);
/// assert_eq!(params.get(w).get(0, 0), 1.0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Params {
    names: Vec<String>,
    values: Vec<Matrix>,
    index: HashMap<String, ParamId>,
}

impl Params {
    /// An empty store.
    pub fn new() -> Self {
        Params::default()
    }

    /// Registers a parameter under a unique name.
    ///
    /// # Panics
    /// Panics if the name was already registered (model construction bug).
    pub fn register(&mut self, name: impl Into<String>, value: Matrix) -> ParamId {
        let name = name.into();
        assert!(
            !self.index.contains_key(&name),
            "parameter `{name}` registered twice"
        );
        let id = ParamId(self.values.len());
        self.index.insert(name.clone(), id);
        self.names.push(name);
        self.values.push(value);
        id
    }

    /// Registers a parameter initialized with Xavier/Glorot uniform values.
    pub fn register_xavier<R: Rng + ?Sized>(
        &mut self,
        name: impl Into<String>,
        rows: usize,
        cols: usize,
        rng: &mut R,
    ) -> ParamId {
        let bound = (6.0 / (rows + cols) as f32).sqrt();
        let m = Matrix::from_fn(rows, cols, |_, _| rng.gen_range(-bound..bound));
        self.register(name, m)
    }

    /// Registers an all-zero parameter (biases).
    pub fn register_zeros(&mut self, name: impl Into<String>, rows: usize, cols: usize) -> ParamId {
        self.register(name, Matrix::zeros(rows, cols))
    }

    /// Number of registered parameters.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True if nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Total number of scalar weights.
    pub fn num_weights(&self) -> usize {
        self.values.iter().map(|m| m.data().len()).sum()
    }

    /// The value of a parameter.
    pub fn get(&self, id: ParamId) -> &Matrix {
        &self.values[id.0]
    }

    /// Mutable value of a parameter.
    pub fn get_mut(&mut self, id: ParamId) -> &mut Matrix {
        &mut self.values[id.0]
    }

    /// The name of a parameter.
    pub fn name(&self, id: ParamId) -> &str {
        &self.names[id.0]
    }

    /// Looks a parameter up by name.
    pub fn find(&self, name: &str) -> Option<ParamId> {
        self.index.get(name).copied()
    }

    /// Iterates `(id, name, value)`.
    pub fn iter(&self) -> impl Iterator<Item = (ParamId, &str, &Matrix)> {
        self.values
            .iter()
            .enumerate()
            .map(|(i, v)| (ParamId(i), self.names[i].as_str(), v))
    }
}

/// Magic bytes opening every binary parameter checkpoint.
pub const BINARY_MAGIC: [u8; 4] = *b"DSQP";

/// Version written by [`Params::save_binary`]: v2 appends a CRC32
/// integrity trailer over everything before it. It is the only version
/// read; the trailer-less v1 is rejected as unsupported.
pub const BINARY_VERSION: u16 = 2;

/// IEEE CRC-32 (reflected, polynomial `0xEDB88320`) over `bytes` — the
/// checksum carried in v2 `DSQP`/`DSQM` checkpoint trailers. Detects
/// every single-bit flip and all burst errors up to 32 bits.
pub fn crc32(bytes: &[u8]) -> u32 {
    use std::sync::OnceLock;
    static TABLE: OnceLock<[u32; 256]> = OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut table = [0u32; 256];
        for (i, entry) in table.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *entry = c;
        }
        table
    });
    let mut crc = !0u32;
    for &b in bytes {
        crc = table[((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

/// Appends the 4-byte little-endian CRC-32 trailer over `out`'s current
/// contents — the final step of writing any v2 checkpoint blob.
pub fn append_crc_trailer(out: &mut Vec<u8>) {
    let crc = crc32(out);
    out.extend_from_slice(&crc.to_le_bytes());
}

/// Verifies the CRC-32 trailer of a v2 checkpoint blob whose header is
/// `header_len` bytes, returning the body with the trailer stripped.
///
/// # Errors
/// [`ParamsError::Truncated`] when there is no room for header + trailer,
/// [`ParamsError::ChecksumMismatch`] (with the trailer's byte offset)
/// when the stored and computed checksums disagree.
pub fn verify_crc_trailer(bytes: &[u8], header_len: usize) -> Result<&[u8], ParamsError> {
    let min = header_len + 4;
    if bytes.len() < min {
        return Err(ParamsError::Truncated {
            offset: bytes.len(),
            needed: min - bytes.len(),
        });
    }
    let at = bytes.len() - 4;
    let mut trailer = [0u8; 4];
    trailer.copy_from_slice(&bytes[at..]);
    let stored = u32::from_le_bytes(trailer);
    let computed = crc32(&bytes[..at]);
    if stored != computed {
        return Err(ParamsError::ChecksumMismatch {
            offset: at,
            stored,
            computed,
        });
    }
    Ok(&bytes[..at])
}

/// Writes `bytes` to `path` crash-safely: write to a sibling temp file,
/// fsync it, then atomically rename over the target (and fsync the
/// containing directory so the rename itself is durable). A crash at any
/// point leaves either the old file or the complete new one on disk,
/// never a torn mix.
pub fn write_atomic(path: &std::path::Path, bytes: &[u8]) -> std::io::Result<()> {
    use std::io::Write;
    let dir = match path.parent() {
        Some(parent) if !parent.as_os_str().is_empty() => parent.to_path_buf(),
        _ => std::path::PathBuf::from("."),
    };
    let name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "checkpoint".to_string());
    let tmp = dir.join(format!(".{name}.tmp.{}", std::process::id()));
    let written = (|| {
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(bytes)?;
        file.sync_all()?;
        drop(file);
        std::fs::rename(&tmp, path)
    })();
    if written.is_err() {
        let _ = std::fs::remove_file(&tmp);
        return written;
    }
    // Durability of the rename itself — best effort: not every platform
    // allows opening a directory for sync.
    if let Ok(dirfd) = std::fs::File::open(&dir) {
        let _ = dirfd.sync_all();
    }
    Ok(())
}

/// A checkpoint file read into memory.
///
/// Loaders call [`std::fs::read`] and decode the bytes; this type stays
/// only because the benchmark's `checkpoint.load_ms` (perfbench) times
/// `open` plus the decode, the same work a load does. It goes when that
/// metric times a plain read.
pub struct CheckpointMap {
    bytes: Vec<u8>,
}

impl CheckpointMap {
    /// Reads the whole file at `path`.
    ///
    /// # Errors
    /// Any I/O error opening or reading the file.
    pub fn open(path: &std::path::Path) -> std::io::Result<CheckpointMap> {
        Ok(CheckpointMap {
            bytes: std::fs::read(path)?,
        })
    }

    /// The checkpoint bytes.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }
}

impl Params {
    /// Serializes all parameters to the binary checkpoint format.
    ///
    /// Layout (all integers little-endian):
    ///
    /// ```text
    /// magic   b"DSQP"
    /// u16     format version (2)
    /// u16     reserved (0)
    /// u32     parameter count
    /// per parameter, in registration order:
    ///   u32       name length in bytes, then the UTF-8 name
    ///   u32 × 2   rows, cols
    ///   f32 × n   row-major values, IEEE-754 little-endian
    /// u32     CRC-32 (IEEE) of every preceding byte
    /// ```
    pub fn save_binary(&self) -> Vec<u8> {
        let payload: usize = self
            .iter()
            .map(|(_, name, m)| 12 + name.len() + 4 * m.data().len())
            .sum();
        let mut out = Vec::with_capacity(16 + payload);
        out.extend_from_slice(&BINARY_MAGIC);
        out.extend_from_slice(&BINARY_VERSION.to_le_bytes());
        out.extend_from_slice(&0u16.to_le_bytes());
        out.extend_from_slice(&(self.len() as u32).to_le_bytes());
        for (_, name, value) in self.iter() {
            out.extend_from_slice(&(name.len() as u32).to_le_bytes());
            out.extend_from_slice(name.as_bytes());
            out.extend_from_slice(&(value.rows() as u32).to_le_bytes());
            out.extend_from_slice(&(value.cols() as u32).to_le_bytes());
            for &v in value.data() {
                out.extend_from_slice(&v.to_le_bytes());
            }
        }
        append_crc_trailer(&mut out);
        out
    }

    /// Loads a binary checkpoint written by [`Params::save_binary`] *into*
    /// already-registered parameters by name. The checkpoint must name
    /// every registered parameter exactly once, with its registered shape.
    /// On error the store may hold some of the checkpoint's values.
    ///
    /// # Errors
    /// Returns [`ParamsError::BadMagic`] / [`ParamsError::UnsupportedVersion`]
    /// on a foreign or future header, [`ParamsError::ChecksumMismatch`] when
    /// the v2 CRC-32 trailer disagrees with the body,
    /// [`ParamsError::Truncated`] when the payload ends early, and
    /// [`ParamsError::UnknownParam`] / [`ParamsError::ShapeMismatch`] /
    /// [`ParamsError::MissingParam`] (or [`ParamsError::Corrupt`] for a
    /// name given twice) when the checkpoint does not describe this store.
    /// Trailer-less v1 checkpoints are [`ParamsError::UnsupportedVersion`];
    /// re-save them with a v2 writer.
    pub fn load_binary(&mut self, bytes: &[u8]) -> Result<(), ParamsError> {
        if crate::fault::should_inject(crate::fault::FaultPoint::CheckpointRead) {
            return Err(ParamsError::Corrupt {
                msg: "injected checkpoint_read fault".into(),
            });
        }
        // Peek the header to learn the version, then verify and strip the
        // v2 CRC trailer *before* trusting any of the body.
        let mut header = BinReader::new(bytes);
        if header.take::<4>()? != BINARY_MAGIC {
            return Err(ParamsError::BadMagic);
        }
        let body = match header.u16()? {
            BINARY_VERSION => verify_crc_trailer(bytes, 12)?,
            found => return Err(ParamsError::UnsupportedVersion { found }),
        };
        let mut r = BinReader::new(body);
        let _magic = r.take::<4>()?; // validated above
        let _version = r.u16()?;
        let _reserved = r.u16()?;
        let count = r.u32()? as usize;
        let mut loaded = vec![false; self.len()];
        for _ in 0..count {
            let name_len = r.u32()? as usize;
            let name_bytes = r.bytes(name_len)?;
            let name = std::str::from_utf8(name_bytes).map_err(|_| ParamsError::Corrupt {
                msg: "parameter name is not UTF-8".into(),
            })?;
            let rows = r.u32()? as usize;
            let cols = r.u32()? as usize;
            let n = rows.checked_mul(cols).ok_or(ParamsError::Corrupt {
                msg: format!("overflowing shape {rows}x{cols}"),
            })?;
            // Bound the claimed payload against the actual remaining bytes
            // first — an untrusted shape field must produce a typed error
            // before anything is looked up or written.
            let byte_len = n.checked_mul(4).ok_or(ParamsError::Corrupt {
                msg: format!("overflowing shape {rows}x{cols}"),
            })?;
            if byte_len > r.remaining() {
                return Err(ParamsError::Truncated {
                    offset: r.position(),
                    needed: byte_len,
                });
            }
            let id = self
                .find(name)
                .ok_or_else(|| ParamsError::UnknownParam(name.to_string()))?;
            if std::mem::replace(&mut loaded[id.0], true) {
                return Err(ParamsError::Corrupt {
                    msg: format!("parameter `{name}` given twice"),
                });
            }
            if self.get(id).shape() != (rows, cols) {
                return Err(ParamsError::ShapeMismatch {
                    name: name.to_string(),
                    expected: self.get(id).shape(),
                    actual: (rows, cols),
                });
            }
            let payload = r.bytes(byte_len)?;
            for (v, le) in self
                .get_mut(id)
                .data_mut()
                .iter_mut()
                .zip(payload.chunks_exact(4))
            {
                *v = f32::from_le_bytes([le[0], le[1], le[2], le[3]]);
            }
        }
        if !r.is_done() {
            return Err(ParamsError::Corrupt {
                msg: format!("{} trailing bytes after last parameter", r.remaining()),
            });
        }
        match loaded.iter().position(|&done| !done) {
            Some(i) => Err(ParamsError::MissingParam(self.names[i].clone())),
            None => Ok(()),
        }
    }
}

/// Bounds-checked little-endian cursor shared by the binary checkpoint
/// readers here and in `deepseq-core`.
#[derive(Debug)]
pub struct BinReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> BinReader<'a> {
    /// A cursor at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        BinReader { bytes, pos: 0 }
    }

    /// Reads a fixed-size array, or fails with [`ParamsError::Truncated`].
    pub fn take<const N: usize>(&mut self) -> Result<[u8; N], ParamsError> {
        let slice = self.bytes(N)?;
        let mut out = [0u8; N];
        out.copy_from_slice(slice);
        Ok(out)
    }

    /// Reads `n` raw bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], ParamsError> {
        let end = self.pos.checked_add(n).ok_or(ParamsError::Truncated {
            offset: self.pos,
            needed: n,
        })?;
        if end > self.bytes.len() {
            return Err(ParamsError::Truncated {
                offset: self.pos,
                needed: n,
            });
        }
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, ParamsError> {
        Ok(u16::from_le_bytes(self.take::<2>()?))
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, ParamsError> {
        Ok(u32::from_le_bytes(self.take::<4>()?))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, ParamsError> {
        Ok(u64::from_le_bytes(self.take::<8>()?))
    }

    /// Number of unread bytes.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Current byte offset.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// True once every byte has been consumed.
    pub fn is_done(&self) -> bool {
        self.pos == self.bytes.len()
    }

    /// The rest of the input, consuming it.
    pub fn rest(&mut self) -> &'a [u8] {
        let slice = &self.bytes[self.pos..];
        self.pos = self.bytes.len();
        slice
    }
}

/// Errors from checkpoint loading.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ParamsError {
    /// Text checkpoint: missing or malformed `deepseq-model v1` /
    /// `deepseq-params v1` header line.
    BadHeader,
    /// Text checkpoint: malformed line.
    Parse {
        /// 1-based line number.
        line: usize,
        /// Description.
        msg: String,
    },
    /// Checkpoint names a parameter this model does not have.
    UnknownParam(String),
    /// Shape in checkpoint differs from the registered shape.
    ShapeMismatch {
        /// Parameter name.
        name: String,
        /// Registered shape.
        expected: (usize, usize),
        /// Checkpoint shape.
        actual: (usize, usize),
    },
    /// Checkpoint leaves out a parameter of the model it describes.
    MissingParam(String),
    /// Text checkpoint ended mid-parameter or without its final newline.
    UnexpectedEof,
    /// Binary checkpoint does not start with its `DSQM` (model) or `DSQP`
    /// (parameter store) magic.
    BadMagic,
    /// Binary checkpoint was written by an unknown format version.
    UnsupportedVersion {
        /// Version found in the header.
        found: u16,
    },
    /// Binary checkpoint ended before a read completed.
    Truncated {
        /// Byte offset at which the read started.
        offset: usize,
        /// Bytes the read needed.
        needed: usize,
    },
    /// Checkpoint is structurally invalid (bad UTF-8 name, overflowing
    /// shape, a parameter given twice, trailing bytes, a header whose model
    /// cannot fit in the bytes that follow it).
    Corrupt {
        /// Description.
        msg: String,
    },
    /// The v2 CRC-32 trailer disagrees with the checkpoint body — the
    /// blob was corrupted (bit flip, torn write) after serialization.
    ChecksumMismatch {
        /// Byte offset of the 4-byte trailer within the blob.
        offset: usize,
        /// Checksum stored in the trailer.
        stored: u32,
        /// Checksum computed over the body.
        computed: u32,
    },
}

impl fmt::Display for ParamsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParamsError::BadHeader => write!(
                f,
                "missing or malformed `deepseq-model v1` / `deepseq-params v1` header"
            ),
            ParamsError::Parse { line, msg } => write!(f, "parse error at line {line}: {msg}"),
            ParamsError::UnknownParam(name) => write!(f, "unknown parameter `{name}`"),
            ParamsError::ShapeMismatch {
                name,
                expected,
                actual,
            } => write!(
                f,
                "parameter `{name}` has shape {expected:?}, checkpoint has {actual:?}"
            ),
            ParamsError::MissingParam(name) => write!(f, "checkpoint lacks parameter `{name}`"),
            ParamsError::UnexpectedEof => write!(f, "unexpected end of checkpoint"),
            ParamsError::BadMagic => write!(
                f,
                "missing binary checkpoint magic (`DSQM` for a model, `DSQP` for a parameter store)"
            ),
            ParamsError::UnsupportedVersion { found } => {
                write!(f, "unsupported binary checkpoint version {found}")
            }
            ParamsError::Truncated { offset, needed } => write!(
                f,
                "binary checkpoint truncated: needed {needed} bytes at offset {offset}"
            ),
            ParamsError::Corrupt { msg } => write!(f, "corrupt checkpoint: {msg}"),
            ParamsError::ChecksumMismatch {
                offset,
                stored,
                computed,
            } => write!(
                f,
                "checkpoint CRC32 mismatch at trailer offset {offset}: \
                 stored {stored:#010x}, computed {computed:#010x}"
            ),
        }
    }
}

impl Error for ParamsError {}

/// Gradients accumulated by a backward pass, keyed by [`ParamId`].
///
/// Stored densely (indexed by the id, which is a registration index), so
/// every traversal — [`GradStore::iter`], [`GradStore::global_norm`],
/// [`GradStore::merge`] — visits parameters in ascending-id order. That
/// ordering is part of the training determinism contract: floating-point
/// reductions over the store produce the same bits on every run and at any
/// thread count, which a hash-map keyed store cannot guarantee (its
/// iteration order varies per process).
#[derive(Debug, Clone, Default)]
pub struct GradStore {
    grads: Vec<Option<Matrix>>,
}

impl GradStore {
    /// An empty store.
    pub fn new() -> Self {
        GradStore::default()
    }

    /// The gradient of a parameter, if it participated in the loss.
    pub fn get(&self, id: ParamId) -> Option<&Matrix> {
        self.grads.get(id.0).and_then(|slot| slot.as_ref())
    }

    /// Adds `grad` into the stored gradient of `id`.
    pub fn accumulate(&mut self, id: ParamId, grad: &Matrix) {
        match self.entry(id) {
            Some(existing) => existing.add_assign(grad),
            slot @ None => *slot = Some(grad.clone()),
        }
    }

    /// [`GradStore::accumulate`] of an owned gradient, which an empty entry
    /// takes as it is.
    pub(crate) fn accumulate_owned(&mut self, id: ParamId, grad: Matrix) {
        match self.entry(id) {
            Some(existing) => existing.add_assign(&grad),
            slot @ None => *slot = Some(grad),
        }
    }

    fn entry(&mut self, id: ParamId) -> &mut Option<Matrix> {
        if self.grads.len() <= id.0 {
            self.grads.resize_with(id.0 + 1, || None);
        }
        &mut self.grads[id.0]
    }

    /// Adds every gradient of `other` into this store (element-wise, in
    /// ascending [`ParamId`] order). This is the data-parallel reduction
    /// primitive: merging per-sample stores **in a fixed sample order**
    /// makes the summed gradients bitwise independent of how samples were
    /// scheduled across worker threads.
    pub fn merge(&mut self, other: &GradStore) {
        for (id, grad) in other.iter() {
            self.accumulate(id, grad);
        }
    }

    /// Iterates `(id, gradient)` pairs in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = (ParamId, &Matrix)> {
        self.grads
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| slot.as_ref().map(|g| (ParamId(i), g)))
    }

    /// Number of parameters with gradients.
    pub fn len(&self) -> usize {
        self.grads.iter().filter(|slot| slot.is_some()).count()
    }

    /// True if no gradients are stored.
    pub fn is_empty(&self) -> bool {
        self.grads.iter().all(|slot| slot.is_none())
    }

    /// Global gradient L2 norm (for clipping / diagnostics), summed in
    /// ascending id order — deterministic across runs and thread counts.
    pub fn global_norm(&self) -> f32 {
        self.iter()
            .map(|(_, g)| {
                let n = g.norm();
                n * n
            })
            .sum::<f32>()
            .sqrt()
    }

    /// Scales all gradients in place (gradient clipping, mini-batch means).
    pub fn scale(&mut self, s: f32) {
        for g in self.grads.iter_mut().flatten() {
            g.scale_assign(s);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn register_and_lookup() {
        let mut p = Params::new();
        let a = p.register("a", Matrix::zeros(2, 3));
        assert_eq!(p.find("a"), Some(a));
        assert_eq!(p.name(a), "a");
        assert_eq!(p.len(), 1);
        assert_eq!(p.num_weights(), 6);
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn duplicate_name_panics() {
        let mut p = Params::new();
        p.register("a", Matrix::zeros(1, 1));
        p.register("a", Matrix::zeros(1, 1));
    }

    #[test]
    fn xavier_bounds() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut p = Params::new();
        let w = p.register_xavier("w", 10, 10, &mut rng);
        let bound = (6.0f32 / 20.0).sqrt();
        for &v in p.get(w).data() {
            assert!(v.abs() <= bound);
        }
        // Not all zero.
        assert!(p.get(w).norm() > 0.0);
    }

    fn sample_params(seed: u64) -> Params {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut p = Params::new();
        p.register_xavier("layer1.w", 3, 4, &mut rng);
        p.register_xavier("layer1.b", 1, 4, &mut rng);
        p.register_xavier("head.w", 4, 2, &mut rng);
        p
    }

    #[test]
    fn binary_roundtrip_is_bit_exact() {
        let p = sample_params(1);
        let bytes = p.save_binary();
        let mut q = sample_params(2);
        q.load_binary(&bytes).unwrap();
        for (_, name, value) in p.iter() {
            let qid = q.find(name).unwrap();
            assert_eq!(value, q.get(qid), "{name}");
        }
        // Re-serializing restored values reproduces the exact byte stream.
        assert_eq!(q.save_binary(), bytes);
    }

    #[test]
    fn binary_rejects_bad_magic_and_version() {
        let mut p = sample_params(1);
        assert_eq!(p.load_binary(b"NOPE"), Err(ParamsError::BadMagic));
        let mut bytes = p.save_binary();
        bytes[4] = 0xFF; // version low byte
        assert!(matches!(
            p.load_binary(&bytes),
            Err(ParamsError::UnsupportedVersion { .. })
        ));
    }

    #[test]
    fn binary_rejects_truncation_at_every_prefix_length() {
        let mut p = sample_params(1);
        let bytes = p.save_binary();
        for cut in 0..bytes.len() {
            let err = p.load_binary(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(
                    err,
                    ParamsError::Truncated { .. }
                        | ParamsError::BadMagic
                        | ParamsError::Corrupt { .. }
                        | ParamsError::ChecksumMismatch { .. }
                ),
                "cut at {cut}: unexpected {err:?}"
            );
        }
        // Trailing garbage breaks the checksum.
        let mut longer = bytes.clone();
        longer.push(0);
        assert!(matches!(
            p.load_binary(&longer),
            Err(ParamsError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn binary_rejects_every_single_bit_flip() {
        // Any one-bit corruption anywhere in the blob must yield a typed
        // error — never Ok (a silently-wrong load) and never a panic. CRC32
        // detects all single-bit errors, and a flipped version field is an
        // unsupported version.
        let mut p = sample_params(1);
        let bytes = p.save_binary();
        for i in 0..bytes.len() {
            for bit in 0..8 {
                let mut corrupt = bytes.clone();
                corrupt[i] ^= 1 << bit;
                let err = p.load_binary(&corrupt);
                assert!(err.is_err(), "flip byte {i} bit {bit} accepted");
            }
        }
    }

    #[test]
    fn v1_checkpoint_is_rejected_as_unsupported() {
        let p = sample_params(1);
        // A v1-era blob: same layout minus the trailer, version field 1.
        let mut v1 = p.save_binary();
        v1.truncate(v1.len() - 4);
        v1[4] = 1;
        let mut q = sample_params(2);
        let untouched = q.save_binary();
        assert_eq!(
            q.load_binary(&v1),
            Err(ParamsError::UnsupportedVersion { found: 1 })
        );
        assert_eq!(q.save_binary(), untouched, "a rejected load wrote values");
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC-32 check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn write_atomic_replaces_and_cleans_up() {
        let dir = std::env::temp_dir().join(format!("deepseq-atomic-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ckpt.bin");
        write_atomic(&path, b"first").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"first");
        write_atomic(&path, b"second").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second");
        // No temp files left behind.
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name() != "ckpt.bin")
            .collect();
        assert!(leftovers.is_empty(), "leftover temp files: {leftovers:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_map_survives_in_place_truncation() {
        // `cp new.dsqm model.dsqm` truncates the destination before it
        // writes. A load that truncation lands in, between the open and the
        // decode, must still return. The load runs in a child process (this
        // test binary, re-run on this one test), so a load that faults fails
        // the test instead of killing the harness.
        const CHILD: &str = "DEEPSEQ_TRUNCATION_CHILD";
        if let Some(path) = std::env::var_os(CHILD) {
            let path = std::path::PathBuf::from(path);
            let map = CheckpointMap::open(&path).unwrap();
            let file = std::fs::OpenOptions::new().write(true).open(&path);
            file.unwrap().set_len(0).unwrap();
            let mut q = sample_params(2);
            q.load_binary(map.bytes()).unwrap();
            assert_eq!(q.save_binary(), sample_params(1).save_binary());
            return;
        }
        let dir = std::env::temp_dir().join(format!("deepseq-truncate-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ckpt.bin");
        write_atomic(&path, &sample_params(1).save_binary()).unwrap();
        let name = "params::tests::checkpoint_map_survives_in_place_truncation";
        let child = std::process::Command::new(std::env::current_exe().unwrap())
            .args([name, "--exact", "--test-threads=1"])
            .env(CHILD, &path)
            .output()
            .unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        let stdout = String::from_utf8_lossy(&child.stdout);
        assert!(
            child.status.success(),
            "the load died instead of returning: {}\n{stdout}{}",
            child.status,
            String::from_utf8_lossy(&child.stderr)
        );
        assert!(
            stdout.contains("1 passed"),
            "the child ran no test:\n{stdout}"
        );
    }

    #[test]
    fn binary_rejects_huge_claimed_shapes_without_allocating() {
        // Valid header, one parameter claiming a ~1.8e19-element matrix:
        // must fail with a typed error before any allocation is attempted.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&BINARY_MAGIC);
        bytes.extend_from_slice(&BINARY_VERSION.to_le_bytes());
        bytes.extend_from_slice(&0u16.to_le_bytes());
        bytes.extend_from_slice(&1u32.to_le_bytes()); // one parameter
        bytes.extend_from_slice(&1u32.to_le_bytes()); // name length
        bytes.push(b'w');
        bytes.extend_from_slice(&u32::MAX.to_le_bytes()); // rows
        bytes.extend_from_slice(&u32::MAX.to_le_bytes()); // cols
        append_crc_trailer(&mut bytes); // valid trailer: reach the shape check
        let mut p = Params::new();
        p.register("w", Matrix::zeros(1, 1));
        assert!(matches!(
            p.load_binary(&bytes),
            Err(ParamsError::Truncated { .. } | ParamsError::Corrupt { .. })
        ));
    }

    #[test]
    fn binary_rejects_unknown_param_and_shape_mismatch() {
        let p = sample_params(1);
        let bytes = p.save_binary();
        let mut empty = Params::new();
        assert!(matches!(
            empty.load_binary(&bytes),
            Err(ParamsError::UnknownParam(_))
        ));
        let mut wrong = Params::new();
        wrong.register("layer1.w", Matrix::zeros(2, 2));
        assert!(matches!(
            wrong.load_binary(&bytes),
            Err(ParamsError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn binary_rejects_missing_and_duplicate_params() {
        let p = sample_params(1);
        // A store with one more parameter than the checkpoint names.
        let mut larger = sample_params(2);
        larger.register("extra", Matrix::zeros(1, 1));
        assert_eq!(
            larger.load_binary(&p.save_binary()),
            Err(ParamsError::MissingParam("extra".into()))
        );
        // A CRC-valid blob that names `layer1.b` twice and `head.w` never.
        let mut twice = Params::new();
        let b = p.get(p.find("layer1.b").unwrap());
        twice.register("layer1.w", p.get(p.find("layer1.w").unwrap()).clone());
        twice.register("layer1.b", b.clone());
        let mut bytes = twice.save_binary();
        bytes.truncate(bytes.len() - 4);
        let record = &bytes[12 + 12 + "layer1.w".len() + 4 * 12..].to_vec();
        bytes.extend_from_slice(record);
        bytes[8] = 3; // record count
        append_crc_trailer(&mut bytes);
        let mut q = sample_params(2);
        assert!(matches!(
            q.load_binary(&bytes),
            Err(ParamsError::Corrupt { msg }) if msg.contains("`layer1.b` given twice")
        ));
    }

    #[test]
    fn grad_store_accumulates() {
        let mut g = GradStore::new();
        let id = ParamId(0);
        g.accumulate(id, &Matrix::full(1, 2, 1.0));
        g.accumulate(id, &Matrix::full(1, 2, 2.0));
        assert_eq!(g.get(id).unwrap(), &Matrix::full(1, 2, 3.0));
        assert_eq!(g.len(), 1);
    }

    #[test]
    fn grad_store_merge_adds_in_id_order() {
        let mut a = GradStore::new();
        a.accumulate(ParamId(0), &Matrix::full(1, 2, 1.0));
        a.accumulate(ParamId(3), &Matrix::full(2, 1, -2.0));
        let mut b = GradStore::new();
        b.accumulate(ParamId(3), &Matrix::full(2, 1, 5.0));
        b.accumulate(ParamId(1), &Matrix::full(1, 1, 4.0));
        a.merge(&b);
        assert_eq!(a.get(ParamId(0)).unwrap(), &Matrix::full(1, 2, 1.0));
        assert_eq!(a.get(ParamId(1)).unwrap(), &Matrix::full(1, 1, 4.0));
        assert!(a.get(ParamId(2)).is_none());
        assert_eq!(a.get(ParamId(3)).unwrap(), &Matrix::full(2, 1, 3.0));
        let ids: Vec<usize> = a.iter().map(|(id, _)| id.0).collect();
        assert_eq!(ids, vec![0, 1, 3], "iteration is ascending-id");
        assert_eq!(a.len(), 3);
        assert!(!a.is_empty());
        assert!(GradStore::new().is_empty());
    }

    #[test]
    fn grad_store_norm_and_scale() {
        let mut g = GradStore::new();
        g.accumulate(ParamId(0), &Matrix::full(1, 1, 3.0));
        g.accumulate(ParamId(1), &Matrix::full(1, 1, 4.0));
        assert!((g.global_norm() - 5.0).abs() < 1e-6);
        g.scale(0.5);
        assert!((g.global_norm() - 2.5).abs() < 1e-6);
    }
}
