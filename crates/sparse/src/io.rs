//! Matrix Market (`.mtx`) reader/writer.
//!
//! The paper's dataset (Table I) comes from the SuiteSparse/SNAP collection,
//! which distributes Matrix Market files. The offline reproduction generates
//! synthetic clones instead, but this module lets the real files be dropped
//! in (`SPMM_DATA_DIR`) for a faithful rerun.
//!
//! Supported: `matrix coordinate real|integer|pattern general|symmetric`.
//! Pattern entries get value 1.0; symmetric files are expanded to general.

use std::io::{BufRead, BufReader, Read, Write};
use std::path::Path;

use crate::{ColIndex, CooMatrix, CsrMatrix, Scalar, SparseError};

/// Kind of value field in the file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ValueKind {
    Real,
    Integer,
    Pattern,
}

/// Symmetry declared in the header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Symmetry {
    General,
    Symmetric,
}

/// Read a Matrix Market file from disk into CSR.
pub fn read_matrix_market<T: Scalar, P: AsRef<Path>>(path: P) -> Result<CsrMatrix<T>, SparseError> {
    let file = std::fs::File::open(path)?;
    read_matrix_market_from(BufReader::new(file))
}

/// Read Matrix Market data from any reader into CSR.
pub fn read_matrix_market_from<T: Scalar, R: Read>(reader: R) -> Result<CsrMatrix<T>, SparseError> {
    let mut lines = BufReader::new(reader).lines().enumerate();

    // --- header ---
    let (lineno, header) = loop {
        match lines.next() {
            Some((n, line)) => {
                let line = line?;
                if !line.trim().is_empty() {
                    break (n + 1, line);
                }
            }
            None => {
                return Err(SparseError::Parse {
                    line: 0,
                    msg: "empty file".into(),
                });
            }
        }
    };
    let tokens: Vec<&str> = header.split_whitespace().collect();
    if tokens.len() < 5 || tokens[0] != "%%MatrixMarket" || tokens[1] != "matrix" {
        return Err(SparseError::Parse {
            line: lineno,
            msg: format!("bad header: {header:?}"),
        });
    }
    if tokens[2] != "coordinate" {
        return Err(SparseError::Parse {
            line: lineno,
            msg: format!("unsupported format {:?} (only coordinate)", tokens[2]),
        });
    }
    let kind = match tokens[3] {
        "real" => ValueKind::Real,
        "integer" => ValueKind::Integer,
        "pattern" => ValueKind::Pattern,
        other => {
            return Err(SparseError::Parse {
                line: lineno,
                msg: format!("unsupported value kind {other:?}"),
            })
        }
    };
    let symmetry = match tokens[4] {
        "general" => Symmetry::General,
        "symmetric" => Symmetry::Symmetric,
        other => {
            return Err(SparseError::Parse {
                line: lineno,
                msg: format!("unsupported symmetry {other:?}"),
            })
        }
    };

    // --- size line (first non-comment, non-empty line after header) ---
    let (lineno, size_line) = loop {
        match lines.next() {
            Some((n, line)) => {
                let line = line?;
                let t = line.trim();
                if !t.is_empty() && !t.starts_with('%') {
                    break (n + 1, line);
                }
            }
            None => {
                return Err(SparseError::Parse {
                    line: 0,
                    msg: "missing size line".into(),
                });
            }
        }
    };
    let dims: Vec<usize> = size_line
        .split_whitespace()
        .map(|s| s.parse::<usize>())
        .collect::<Result<_, _>>()
        .map_err(|e| SparseError::Parse {
            line: lineno,
            msg: e.to_string(),
        })?;
    if dims.len() != 3 {
        return Err(SparseError::Parse {
            line: lineno,
            msg: format!("size line needs 3 fields, got {}", dims.len()),
        });
    }
    let (nrows, ncols, declared_nnz) = (dims[0], dims[1], dims[2]);
    // row and column indices are stored as `ColIndex`; a wider shape would
    // silently truncate every coordinate past the limit
    if nrows > ColIndex::MAX as usize || ncols > ColIndex::MAX as usize {
        return Err(SparseError::Parse {
            line: lineno,
            msg: format!(
                "shape {nrows}x{ncols} exceeds the {} index limit",
                ColIndex::MAX
            ),
        });
    }

    // --- entries ---
    // the header is untrusted: reserve a bounded amount and let the vector
    // grow with the entries actually read
    let mut coo = CooMatrix::with_capacity(nrows, ncols, declared_nnz.min(1 << 20));
    let mut seen = 0usize;
    for (n, line) in lines {
        let line = line?;
        let t = line.trim();
        if t.is_empty() || t.starts_with('%') {
            continue;
        }
        let mut it = t.split_whitespace();
        let parse_idx = |s: Option<&str>, what: &str| -> Result<usize, SparseError> {
            s.ok_or_else(|| SparseError::Parse {
                line: n + 1,
                msg: format!("missing {what}"),
            })?
            .parse::<usize>()
            .map_err(|e| SparseError::Parse {
                line: n + 1,
                msg: e.to_string(),
            })
        };
        let r = parse_idx(it.next(), "row")?;
        let c = parse_idx(it.next(), "col")?;
        if r == 0 || c == 0 || r > nrows || c > ncols {
            return Err(SparseError::Parse {
                line: n + 1,
                msg: format!("1-based coordinate ({r}, {c}) out of range {nrows}x{ncols}"),
            });
        }
        let v = match kind {
            ValueKind::Pattern => T::ONE,
            _ => {
                let s = it.next().ok_or_else(|| SparseError::Parse {
                    line: n + 1,
                    msg: "missing value".into(),
                })?;
                let f: f64 =
                    s.parse()
                        .map_err(|e: std::num::ParseFloatError| SparseError::Parse {
                            line: n + 1,
                            msg: e.to_string(),
                        })?;
                T::from_f64(f)
            }
        };
        coo.push(r - 1, c - 1, v);
        if symmetry == Symmetry::Symmetric && r != c {
            coo.push(c - 1, r - 1, v);
        }
        seen += 1;
    }
    if seen != declared_nnz {
        return Err(SparseError::Parse {
            line: 0,
            msg: format!("declared {declared_nnz} entries, found {seen}"),
        });
    }
    coo.to_csr()
}

/// Magic prefix of the binary CSR spill chunk format (see
/// [`write_csr_chunk`]). Version-suffixed so a layout change can bump it.
pub const CSR_CHUNK_MAGIC: &[u8; 8] = b"SPMMCSR1";

/// Append the raw bytes of a numeric slice to `buf`. On little-endian
/// targets those bytes are exactly the chunk wire layout, so the encoders
/// below use this as a memcpy fast path instead of per-element
/// `to_le_bytes` loops.
#[inline]
fn extend_bytes_of<E: Copy>(buf: &mut Vec<u8>, slice: &[E]) {
    // SAFETY: `E` is one of the plain numeric types this module encodes
    // (u32/usize/f32/f64) — no padding bytes, so viewing the initialized
    // elements as raw bytes is always valid.
    let bytes = unsafe {
        std::slice::from_raw_parts(slice.as_ptr().cast::<u8>(), std::mem::size_of_val(slice))
    };
    buf.extend_from_slice(bytes);
}

/// Append elements decoded from a little-endian byte stream to `dst` by
/// bulk copy. Callers gate on `cfg!(target_endian = "little")` (and, for
/// `usize`, a 64-bit target) so the reinterpretation matches the wire
/// layout; big-endian targets take the per-element fallback instead.
#[inline]
fn extend_pod_from_le_bytes<E: Copy>(dst: &mut Vec<E>, bytes: &[u8]) {
    let size = std::mem::size_of::<E>();
    debug_assert_eq!(bytes.len() % size, 0);
    let n = bytes.len() / size;
    dst.reserve(n);
    let old = dst.len();
    // SAFETY: `E` is a plain numeric type for which every bit pattern is
    // a valid value; `reserve` guaranteed capacity for `n` more elements,
    // and the copy fills exactly those `n * size` bytes (never a trailing
    // partial element) before `set_len` exposes them.
    unsafe {
        std::ptr::copy_nonoverlapping(
            bytes.as_ptr(),
            dst.as_mut_ptr().add(old).cast::<u8>(),
            n * size,
        );
        dst.set_len(old + n);
    }
}

/// Whether `usize` can be bulk-copied as the wire's `u64` row offsets.
#[inline]
fn usize_is_le_u64() -> bool {
    cfg!(target_endian = "little") && std::mem::size_of::<usize>() == 8
}

fn extend_indptr_from_le(dst: &mut Vec<usize>, bytes: &[u8]) {
    if usize_is_le_u64() {
        extend_pod_from_le_bytes(dst, bytes);
    } else {
        dst.extend(
            bytes
                .chunks_exact(8)
                .map(|w| u64::from_le_bytes(w.try_into().expect("8-byte chunk")) as usize),
        );
    }
}

fn extend_indices_from_le(dst: &mut Vec<u32>, bytes: &[u8]) {
    if cfg!(target_endian = "little") {
        extend_pod_from_le_bytes(dst, bytes);
    } else {
        dst.extend(
            bytes
                .chunks_exact(4)
                .map(|w| u32::from_le_bytes(w.try_into().expect("4-byte chunk"))),
        );
    }
}

fn extend_values_from_le<T: Scalar>(dst: &mut Vec<T>, bytes: &[u8], dtype: usize) {
    debug_assert_eq!(dtype, std::mem::size_of::<T>());
    if cfg!(target_endian = "little") {
        extend_pod_from_le_bytes(dst, bytes);
    } else {
        dst.extend(bytes.chunks_exact(dtype).map(|w| {
            let mut bits = [0u8; 8];
            bits[..dtype].copy_from_slice(w);
            T::from_value_bits(u64::from_le_bytes(bits))
        }));
    }
}

/// Write a CSR matrix as a binary spill chunk.
///
/// This is the out-of-core shard format: a fixed little-endian layout that
/// round-trips *bit patterns*, not decimal renderings, so a spilled shard
/// output reloads bit-identical (NaN payloads and `-0.0` included) — the
/// text Matrix Market path cannot promise that. Layout, all little-endian:
///
/// ```text
/// magic    8 bytes  "SPMMCSR1"
/// dtype    u64      size_of::<T>() (4 = f32, 8 = f64)
/// nrows    u64
/// ncols    u64
/// nnz      u64
/// indptr   (nrows+1) × u64
/// indices  nnz × u32
/// values   nnz × dtype bytes (IEEE bit patterns)
/// ```
///
/// Arrays are laid out contiguously and aligned only to their element size,
/// which keeps the format mmap-friendly for a future reader that maps the
/// chunk instead of copying it.
///
/// The encoder assembles the whole chunk in one exactly-sized memory
/// buffer and issues a single `write_all` — callers hand in the raw sink
/// (a `File` on the spill path) and get one coalesced write with
/// bit-identical bytes, no per-element I/O on the spill critical path.
pub fn write_csr_chunk<T: Scalar, W: Write>(
    matrix: &CsrMatrix<T>,
    writer: &mut W,
) -> Result<(), SparseError> {
    let dtype = std::mem::size_of::<T>();
    let total = CSR_CHUNK_MAGIC.len()
        + 4 * 8
        + (matrix.nrows() + 1) * 8
        + matrix.nnz() * 4
        + matrix.nnz() * dtype;
    let mut buf = Vec::with_capacity(total);
    buf.extend_from_slice(CSR_CHUNK_MAGIC);
    for header in [
        dtype as u64,
        matrix.nrows() as u64,
        matrix.ncols() as u64,
        matrix.nnz() as u64,
    ] {
        buf.extend_from_slice(&header.to_le_bytes());
    }
    if usize_is_le_u64() {
        extend_bytes_of(&mut buf, matrix.indptr());
    } else {
        for &p in matrix.indptr() {
            buf.extend_from_slice(&(p as u64).to_le_bytes());
        }
    }
    if cfg!(target_endian = "little") {
        extend_bytes_of(&mut buf, matrix.indices());
        extend_bytes_of(&mut buf, matrix.values());
    } else {
        for &c in matrix.indices() {
            buf.extend_from_slice(&c.to_le_bytes());
        }
        for &v in matrix.values() {
            let bits = v.value_bits();
            buf.extend_from_slice(&bits.to_le_bytes()[..dtype]);
        }
    }
    debug_assert_eq!(buf.len(), total);
    writer.write_all(&buf)?;
    writer.flush()?;
    Ok(())
}

/// Fixed-size header of a CSR spill chunk: everything a reader needs to
/// size the arrays before decoding them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CsrChunkHeader {
    /// `size_of::<T>()` of the stored value type (4 = f32, 8 = f64).
    pub dtype_bytes: usize,
    /// Number of rows.
    pub nrows: usize,
    /// Number of columns.
    pub ncols: usize,
    /// Number of stored entries.
    pub nnz: usize,
}

/// Bytes of the magic plus the four `u64` header words.
const CSR_CHUNK_HEADER_LEN: usize = 8 + 4 * 8;

impl CsrChunkHeader {
    /// Byte lengths of the `indptr`, `indices` and `values` regions the
    /// header promises. The header is untrusted input, so every product is
    /// checked: a size that overflows `usize` is a parse error, never a
    /// wrapped length.
    fn region_lens(&self) -> Result<[usize; 3], SparseError> {
        let indptr = self.nrows.checked_add(1).and_then(|n| n.checked_mul(8));
        let indices = self.nnz.checked_mul(4);
        let values = self.nnz.checked_mul(self.dtype_bytes);
        match (indptr, indices, values) {
            (Some(p), Some(i), Some(v))
                if p.checked_add(i).and_then(|n| n.checked_add(v)).is_some() =>
            {
                Ok([p, i, v])
            }
            _ => Err(SparseError::Parse {
                line: 0,
                msg: format!(
                    "CSR chunk header sizes overflow (nrows {}, nnz {}, dtype {})",
                    self.nrows, self.nnz, self.dtype_bytes
                ),
            }),
        }
    }
}

/// Borrowed view of one chunk's array regions inside a fully-read chunk
/// byte buffer. Only [`split_csr_chunk`] builds one, so every region holds
/// exactly the bytes its header promises.
#[derive(Debug, Clone, Copy)]
pub struct CsrChunkRegions<'a> {
    header: CsrChunkHeader,
    /// `(nrows + 1) × u64` little-endian row offsets.
    indptr: &'a [u8],
    /// `nnz × u32` little-endian column indices.
    indices: &'a [u8],
    /// `nnz × dtype` little-endian IEEE bit patterns.
    values: &'a [u8],
}

impl CsrChunkRegions<'_> {
    /// The decoded fixed-size header.
    pub fn header(&self) -> CsrChunkHeader {
        self.header
    }

    /// Decode the regions into a matrix, validating the dtype against `T`
    /// and the structural invariants via [`CsrMatrix::try_new`], so a
    /// corrupt chunk fails loudly instead of producing a malformed matrix.
    pub fn to_matrix<T: Scalar>(&self) -> Result<CsrMatrix<T>, SparseError> {
        check_dtype::<T>(self.header.dtype_bytes)?;
        let mut indptr = Vec::new();
        extend_indptr_from_le(&mut indptr, self.indptr);
        let mut indices = Vec::new();
        extend_indices_from_le(&mut indices, self.indices);
        let mut values = Vec::new();
        extend_values_from_le(&mut values, self.values, self.header.dtype_bytes);
        let h = &self.header;
        CsrMatrix::try_new(h.nrows, h.ncols, indptr, indices, values)
    }
}

fn check_dtype<T: Scalar>(dtype: usize) -> Result<(), SparseError> {
    if dtype == std::mem::size_of::<T>() {
        return Ok(());
    }
    Err(SparseError::Parse {
        line: 0,
        msg: format!(
            "CSR chunk dtype is {dtype} bytes, expected {} for {}",
            std::mem::size_of::<T>(),
            std::any::type_name::<T>()
        ),
    })
}

/// Split a fully-read chunk byte buffer (as produced by
/// [`write_csr_chunk`]) into its header and borrowed array regions — the
/// one chunk decoder. Validates the magic, the dtype against `T`, and that
/// the buffer holds exactly the bytes the header promises; a short or
/// overlong buffer is a parse error. [`CsrChunkRegions::to_matrix`] then
/// checks the CSR structural invariants.
pub fn split_csr_chunk<T: Scalar>(bytes: &[u8]) -> Result<CsrChunkRegions<'_>, SparseError> {
    if bytes.len() < CSR_CHUNK_HEADER_LEN {
        return Err(SparseError::Parse {
            line: 0,
            msg: format!(
                "CSR chunk is {} bytes, shorter than its {CSR_CHUNK_HEADER_LEN}-byte header",
                bytes.len()
            ),
        });
    }
    let (head, body) = bytes.split_at(CSR_CHUNK_HEADER_LEN);
    let (magic, words) = head.split_at(CSR_CHUNK_MAGIC.len());
    if magic != CSR_CHUNK_MAGIC {
        return Err(SparseError::Parse {
            line: 0,
            msg: format!("bad CSR chunk magic {magic:?}"),
        });
    }
    let word = |i: usize| {
        u64::from_le_bytes(words[8 * i..8 * i + 8].try_into().expect("8-byte word")) as usize
    };
    let header = CsrChunkHeader {
        dtype_bytes: word(0),
        nrows: word(1),
        ncols: word(2),
        nnz: word(3),
    };
    check_dtype::<T>(header.dtype_bytes)?;
    let [indptr_len, indices_len, values_len] = header.region_lens()?;
    if body.len() != indptr_len + indices_len + values_len {
        return Err(SparseError::Parse {
            line: 0,
            msg: format!(
                "CSR chunk body is {} bytes, header promises {}",
                body.len(),
                indptr_len + indices_len + values_len
            ),
        });
    }
    let (indptr, rest) = body.split_at(indptr_len);
    let (indices, values) = rest.split_at(indices_len);
    Ok(CsrChunkRegions {
        header,
        indptr,
        indices,
        values,
    })
}

/// Read a binary CSR spill chunk written by [`write_csr_chunk`]: the
/// reader is read to its end (one chunk per file) and decoded by
/// [`split_csr_chunk`] and [`CsrChunkRegions::to_matrix`], so a truncated,
/// overlong or cross-typed chunk fails loudly instead of producing a
/// corrupt matrix. Memory is bounded by the input, never by a header.
pub fn read_csr_chunk<T: Scalar, R: Read>(reader: &mut R) -> Result<CsrMatrix<T>, SparseError> {
    let mut bytes = Vec::new();
    reader.read_to_end(&mut bytes)?;
    split_csr_chunk::<T>(&bytes)?.to_matrix()
}

/// Write a CSR matrix as `matrix coordinate real general`.
pub fn write_matrix_market<T: Scalar, W: Write>(
    matrix: &CsrMatrix<T>,
    writer: &mut W,
) -> Result<(), SparseError> {
    writeln!(writer, "%%MatrixMarket matrix coordinate real general")?;
    writeln!(writer, "% generated by hetero-spmm")?;
    writeln!(
        writer,
        "{} {} {}",
        matrix.nrows(),
        matrix.ncols(),
        matrix.nnz()
    )?;
    for (r, c, v) in matrix.iter() {
        writeln!(writer, "{} {} {}", r + 1, c + 1, v)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const SIMPLE: &str = "%%MatrixMarket matrix coordinate real general\n\
        % a comment\n\
        3 3 4\n\
        1 1 2.5\n\
        1 3 1.0\n\
        2 2 -3.0\n\
        3 1 4.0\n";

    #[test]
    fn reads_general_real() {
        let m: CsrMatrix<f64> = read_matrix_market_from(SIMPLE.as_bytes()).unwrap();
        assert_eq!(m.shape(), (3, 3));
        assert_eq!(m.nnz(), 4);
        assert_eq!(m.get(0, 0), 2.5);
        assert_eq!(m.get(1, 1), -3.0);
        assert_eq!(m.get(2, 0), 4.0);
    }

    #[test]
    fn reads_pattern() {
        let src = "%%MatrixMarket matrix coordinate pattern general\n2 2 2\n1 2\n2 1\n";
        let m: CsrMatrix<f64> = read_matrix_market_from(src.as_bytes()).unwrap();
        assert_eq!(m.get(0, 1), 1.0);
        assert_eq!(m.get(1, 0), 1.0);
    }

    #[test]
    fn expands_symmetric() {
        let src = "%%MatrixMarket matrix coordinate real symmetric\n3 3 2\n2 1 5.0\n3 3 1.0\n";
        let m: CsrMatrix<f64> = read_matrix_market_from(src.as_bytes()).unwrap();
        assert_eq!(m.nnz(), 3);
        assert_eq!(m.get(1, 0), 5.0);
        assert_eq!(m.get(0, 1), 5.0);
        assert_eq!(m.get(2, 2), 1.0);
    }

    #[test]
    fn rejects_bad_header() {
        let src = "%%NotMatrixMarket\n1 1 0\n";
        assert!(read_matrix_market_from::<f64, _>(src.as_bytes()).is_err());
    }

    #[test]
    fn rejects_out_of_range_coordinate() {
        let src = "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n";
        let err = read_matrix_market_from::<f64, _>(src.as_bytes()).unwrap_err();
        assert!(matches!(err, SparseError::Parse { .. }));
    }

    #[test]
    fn rejects_entry_count_mismatch() {
        let src = "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n";
        assert!(read_matrix_market_from::<f64, _>(src.as_bytes()).is_err());
    }

    #[test]
    fn huge_declared_nnz_is_a_count_mismatch_not_an_abort() {
        let src = "%%MatrixMarket matrix coordinate real general\n3 3 1000000000000\n1 1 1.0\n";
        let err = read_matrix_market_from::<f64, _>(src.as_bytes()).unwrap_err();
        assert!(matches!(err, SparseError::Parse { .. }), "{err:?}");
    }

    #[test]
    fn shape_past_the_index_limit_is_rejected() {
        let too_wide = ColIndex::MAX as usize + 2;
        let src = format!(
            "%%MatrixMarket matrix coordinate real general\n2 {too_wide} 1\n1 {too_wide} 7.0\n"
        );
        let err = read_matrix_market_from::<f64, _>(src.as_bytes()).unwrap_err();
        assert!(matches!(err, SparseError::Parse { line: 2, .. }), "{err:?}");
        let src =
            format!("%%MatrixMarket matrix coordinate real general\n{too_wide} 2 1\n1 1 7.0\n");
        let err = read_matrix_market_from::<f64, _>(src.as_bytes()).unwrap_err();
        assert!(matches!(err, SparseError::Parse { line: 2, .. }), "{err:?}");
    }

    #[test]
    fn write_read_roundtrip() {
        let m: CsrMatrix<f64> = read_matrix_market_from(SIMPLE.as_bytes()).unwrap();
        let mut buf = Vec::new();
        write_matrix_market(&m, &mut buf).unwrap();
        let back: CsrMatrix<f64> = read_matrix_market_from(&buf[..]).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn duplicate_entries_sum() {
        let src = "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n1 1 2.0\n";
        let m: CsrMatrix<f64> = read_matrix_market_from(src.as_bytes()).unwrap();
        assert_eq!(m.get(0, 0), 3.0);
        assert_eq!(m.nnz(), 1);
    }

    fn chunk_roundtrip<T: Scalar>(m: &CsrMatrix<T>) -> CsrMatrix<T> {
        let mut buf = Vec::new();
        write_csr_chunk(m, &mut buf).unwrap();
        read_csr_chunk(&mut &buf[..]).unwrap()
    }

    #[test]
    fn chunk_roundtrip_with_empty_rows() {
        // leading, interior, and trailing empty rows all survive
        let m = CsrMatrix::try_new(
            5,
            3,
            vec![0, 0, 2, 2, 3, 3],
            vec![0, 2, 1],
            vec![1.5f64, -2.5, 0.25],
        )
        .unwrap();
        assert_eq!(chunk_roundtrip(&m), m);
    }

    #[test]
    fn chunk_roundtrip_rectangular() {
        let wide =
            CsrMatrix::try_new(2, 7, vec![0, 1, 3], vec![6, 0, 4], vec![1.0f64, 2.0, 3.0]).unwrap();
        let tall = CsrMatrix::try_new(
            7,
            2,
            vec![0, 1, 1, 1, 2, 2, 2, 2],
            vec![1, 0],
            vec![4.0f64, 5.0],
        )
        .unwrap();
        assert_eq!(chunk_roundtrip(&wide), wide);
        assert_eq!(chunk_roundtrip(&tall), tall);
    }

    #[test]
    fn chunk_roundtrip_zero_nnz_band() {
        // the shape an all-empty shard band produces: rows but no entries
        let empty = CsrMatrix::<f64>::zeros(4, 9);
        assert_eq!(chunk_roundtrip(&empty), empty);
        // degenerate zero-row chunk (indptr = [0])
        let none = CsrMatrix::try_new(0, 5, vec![0], Vec::new(), Vec::<f64>::new()).unwrap();
        assert_eq!(chunk_roundtrip(&none), none);
    }

    #[test]
    fn chunk_roundtrip_is_bit_exact_f32_and_f64() {
        // values chosen so any decimal round-trip would corrupt them:
        // signed zero, subnormal, and a non-default NaN payload
        let f64_vals = vec![
            -0.0f64,
            f64::from_bits(0x0000_0000_0000_0001),
            f64::from_bits(0x7ff8_dead_beef_cafe),
        ];
        let m64 = CsrMatrix::try_new(1, 3, vec![0, 3], vec![0, 1, 2], f64_vals.clone()).unwrap();
        let back64 = chunk_roundtrip(&m64);
        for (a, b) in back64.values().iter().zip(&f64_vals) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        let f32_vals = vec![
            -0.0f32,
            f32::from_bits(0x0000_0001),
            f32::from_bits(0x7fc0_1234),
        ];
        let m32 =
            CsrMatrix::try_new(3, 1, vec![0, 1, 2, 3], vec![0, 0, 0], f32_vals.clone()).unwrap();
        let back32 = chunk_roundtrip(&m32);
        for (a, b) in back32.values().iter().zip(&f32_vals) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(back64.content_hash(), m64.content_hash());
        assert_eq!(back32.content_hash(), m32.content_hash());
    }

    #[test]
    fn chunk_byte_layout_is_pinned() {
        // the exact SPMMCSR1 byte stream is a format contract: buffering
        // the writer must not change a single byte
        let m = CsrMatrix::try_new(1, 2, vec![0, 1], vec![1], vec![1.0f64]).unwrap();
        let mut buf = Vec::new();
        write_csr_chunk(&m, &mut buf).unwrap();
        let mut expect = Vec::new();
        expect.extend_from_slice(b"SPMMCSR1");
        for word in [8u64, 1, 2, 1] {
            expect.extend_from_slice(&word.to_le_bytes());
        }
        for p in [0u64, 1] {
            expect.extend_from_slice(&p.to_le_bytes());
        }
        expect.extend_from_slice(&1u32.to_le_bytes());
        expect.extend_from_slice(&1.0f64.to_bits().to_le_bytes());
        assert_eq!(buf, expect);
    }

    #[test]
    fn chunk_split_regions_reassemble_the_matrix() {
        let m = CsrMatrix::try_new(
            5,
            3,
            vec![0, 0, 2, 2, 3, 3],
            vec![0, 2, 1],
            vec![1.5f64, -2.5, 0.25],
        )
        .unwrap();
        let mut buf = Vec::new();
        write_csr_chunk(&m, &mut buf).unwrap();
        let regions = split_csr_chunk::<f64>(&buf).unwrap();
        assert_eq!(
            regions.header(),
            CsrChunkHeader {
                dtype_bytes: 8,
                nrows: 5,
                ncols: 3,
                nnz: 3
            }
        );
        let back: CsrMatrix<f64> = regions.to_matrix().unwrap();
        assert_eq!(back.indptr(), &[0, 0, 2, 2, 3, 3]);
        assert_eq!(back.indices(), &[0, 2, 1]);
        assert_eq!(back.values(), &[1.5, -2.5, 0.25]);
        assert_eq!(back, m);
        // an overlong buffer fails the same exact-size check
        let mut long = buf.clone();
        long.push(0);
        assert!(split_csr_chunk::<f64>(&long).is_err());
        // a truncated body fails the exact-size check
        let short = &buf[..buf.len() - 1];
        assert!(matches!(
            split_csr_chunk::<f64>(short).unwrap_err(),
            SparseError::Parse { .. }
        ));
        // and the wrong dtype is rejected before any region math
        assert!(split_csr_chunk::<f32>(&buf).is_err());
    }

    #[test]
    fn chunk_rejects_dtype_mismatch() {
        let m32 = CsrMatrix::try_new(1, 1, vec![0, 1], vec![0], vec![1.0f32]).unwrap();
        let mut buf = Vec::new();
        write_csr_chunk(&m32, &mut buf).unwrap();
        let err = read_csr_chunk::<f64, _>(&mut &buf[..]).unwrap_err();
        assert!(matches!(err, SparseError::Parse { .. }));
    }

    /// A chunk whose header claims `nrows`/`nnz` far beyond the bytes that
    /// follow: the sizes would overflow (or, unchecked, wrap) and a
    /// header-sized allocation would abort the process.
    fn hostile_chunk(nrows: u64, nnz: u64) -> Vec<u8> {
        let mut buf = CSR_CHUNK_MAGIC.to_vec();
        for word in [8u64, nrows, 4, nnz] {
            buf.extend_from_slice(&word.to_le_bytes());
        }
        buf.extend_from_slice(&[0u8; 64]);
        buf
    }

    #[test]
    fn hostile_chunk_headers_are_errors_not_aborts() {
        for (nrows, nnz) in [
            (u64::MAX, 1),
            (1, 1 << 60),
            (u64::MAX, 1 << 60),
            (1 << 40, 1),
        ] {
            let buf = hostile_chunk(nrows, nnz);
            assert!(
                split_csr_chunk::<f64>(&buf).is_err(),
                "split accepted nrows {nrows} nnz {nnz}"
            );
            assert!(
                read_csr_chunk::<f64, _>(&mut &buf[..]).is_err(),
                "reader accepted nrows {nrows} nnz {nnz}"
            );
        }
        // the overflowing sizes are rejected as malformed input
        let buf = hostile_chunk(u64::MAX, 1 << 60);
        assert!(matches!(
            split_csr_chunk::<f64>(&buf).unwrap_err(),
            SparseError::Parse { .. }
        ));
        assert!(matches!(
            read_csr_chunk::<f64, _>(&mut &buf[..]).unwrap_err(),
            SparseError::Parse { .. }
        ));
    }

    #[test]
    fn chunk_rejects_bad_magic_and_truncation() {
        let m = CsrMatrix::try_new(1, 1, vec![0, 1], vec![0], vec![1.0f64]).unwrap();
        let mut buf = Vec::new();
        write_csr_chunk(&m, &mut buf).unwrap();
        let mut bad = buf.clone();
        bad[0] ^= 0xff;
        assert!(read_csr_chunk::<f64, _>(&mut &bad[..]).is_err());
        // a short body and a short header are both malformed chunks
        for len in [buf.len() - 3, 20] {
            let truncated = &buf[..len];
            assert!(matches!(
                read_csr_chunk::<f64, _>(&mut &truncated[..]).unwrap_err(),
                SparseError::Parse { .. }
            ));
            assert!(matches!(
                split_csr_chunk::<f64>(truncated).unwrap_err(),
                SparseError::Parse { .. }
            ));
        }
    }
}
