//! `LBW1` — the workload-trace wire format.
//!
//! A workload trace is a serialized [`ReplayKernel`]: a kernel-stub header
//! (grid shape, resources, static body, per-load PCs) followed by one
//! per-warp stream section. Everything behind the 5-byte preamble is
//! LEB128 uvarints — the same wire primitive `lb-trace` uses for event
//! traces — so the format is compact, endian-free and append-friendly.
//!
//! Layout:
//!
//! ```text
//! magic   b"LBW1"
//! version u8 (= 1)
//! name    uvarint len + UTF-8 bytes
//! header  grid_ctas, warps_per_cta, regs_per_thread,
//!         shared_mem_per_cta, iterations          (uvarints)
//! loads   n, then per load: pc                    (uvarints)
//! body    n, then per inst: pc, tag u8 (0 ALU / 1 LOAD / 2 STORE),
//!         arg (ALU latency or load index), wait (0 = none, else id+1)
//! streams n (must equal grid_ctas * warps_per_cta), then per stream:
//!         n_lines + zigzag-delta line addresses,
//!         n_ops + per op: pos, line_len, and (if line_len > 0) line_off
//! ```
//!
//! The encoder *interns* each stream's line pool: a memory op whose line
//! slice already appeared earlier in the stream references the first
//! occurrence instead of appending a copy. Interning runs at encode time,
//! so a raw capture (which appends every access) and a decoded trace
//! (already interned) serialize to byte-identical files — the property the
//! capture→replay→re-encode self-check in CI relies on.
//!
//! Decoded kernel stubs carry a placeholder [`AccessPattern`] per load:
//! replay never executes patterns, and every policy transform reads only
//! the header fields (registers, warps, shared memory), which round-trip
//! exactly.

use std::collections::HashMap;

use gpu_sim::kernel::{InstKind, KernelSpec, LoadSpec, StaticInst};
use gpu_sim::pattern::AccessPattern;
use gpu_sim::replay::{ReplayKernel, TraceOp, WarpStream};
use gpu_sim::types::{LineAddr, LoadId, Pc};
use lb_trace::put_uvarint;

/// File preamble identifying a workload trace.
pub const MAGIC: [u8; 4] = *b"LBW1";
/// Current format version.
pub const VERSION: u8 = 1;
/// Upper bound on coalesced lines per record: a 32-lane warp touching
/// wide vectors stays far below this, so anything larger is a corrupt or
/// adversarial record, rejected before it can size an allocation.
pub const MAX_LINES_PER_RECORD: u64 = 1024;

/// Typed decode/import failure. Every malformed input maps to a variant —
/// the decoder never panics and never over-allocates on hostile lengths.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplayError {
    /// The file does not start with `b"LBW1"`.
    BadMagic,
    /// Unsupported format version.
    BadVersion(u8),
    /// The input ended mid-record.
    UnexpectedEof {
        /// Byte offset at which more input was required.
        at: usize,
    },
    /// A uvarint ran past 64 bits.
    VarintOverflow {
        /// Byte offset of the offending varint.
        at: usize,
    },
    /// A memory record claims more coalesced lines than any warp can issue.
    OverlongRecord {
        /// Byte offset of the record.
        at: usize,
        /// The claimed line count.
        lines: u64,
    },
    /// The stream section disagrees with the header's grid size.
    StreamCountMismatch {
        /// `grid_ctas * warps_per_cta` from the header.
        expected: u64,
        /// Stream count found in the file.
        found: u64,
    },
    /// Structurally well-formed but semantically invalid content (bad
    /// instruction tag, undefined load, failed [`ReplayKernel::validate`],
    /// out-of-range ids in imported traces, ...).
    Malformed(String),
    /// Underlying I/O failure (message of the `std::io::Error`).
    Io(String),
}

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplayError::BadMagic => write!(f, "not an LBW1 workload trace (bad magic)"),
            ReplayError::BadVersion(v) => write!(f, "unsupported LBW1 version {v}"),
            ReplayError::UnexpectedEof { at } => write!(f, "truncated input at byte {at}"),
            ReplayError::VarintOverflow { at } => write!(f, "varint overflow at byte {at}"),
            ReplayError::OverlongRecord { at, lines } => {
                write!(f, "record at byte {at} claims {lines} lines (max {MAX_LINES_PER_RECORD})")
            }
            ReplayError::StreamCountMismatch { expected, found } => {
                write!(f, "stream count {found} does not match grid ({expected} warps)")
            }
            ReplayError::Malformed(msg) => write!(f, "malformed workload trace: {msg}"),
            ReplayError::Io(msg) => write!(f, "i/o error: {msg}"),
        }
    }
}

impl std::error::Error for ReplayError {}

impl From<std::io::Error> for ReplayError {
    fn from(e: std::io::Error) -> Self {
        ReplayError::Io(e.to_string())
    }
}

/// LEB128 reader twin of `lb_trace::get_uvarint`, reporting positions in
/// [`ReplayError`] terms so decode failures carry a byte offset.
fn get_uvarint(buf: &[u8], pos: &mut usize) -> Result<u64, ReplayError> {
    let start = *pos;
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let b = *buf.get(*pos).ok_or(ReplayError::UnexpectedEof { at: *pos })?;
        *pos += 1;
        if shift == 63 && b > 1 || shift > 63 {
            return Err(ReplayError::VarintOverflow { at: start });
        }
        v |= u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

fn get_u8(buf: &[u8], pos: &mut usize) -> Result<u8, ReplayError> {
    let b = *buf.get(*pos).ok_or(ReplayError::UnexpectedEof { at: *pos })?;
    *pos += 1;
    Ok(b)
}

/// Checked u32 narrowing for decoded counts.
fn as_u32(v: u64, what: &str) -> Result<u32, ReplayError> {
    u32::try_from(v).map_err(|_| ReplayError::Malformed(format!("{what} {v} exceeds u32")))
}

fn put_zigzag(buf: &mut Vec<u8>, v: i64) {
    put_uvarint(buf, ((v << 1) ^ (v >> 63)) as u64);
}

fn get_zigzag(buf: &[u8], pos: &mut usize) -> Result<i64, ReplayError> {
    let raw = get_uvarint(buf, pos)?;
    Ok(((raw >> 1) as i64) ^ -((raw & 1) as i64))
}

/// Serializes `rep` to `LBW1` bytes. Interns each stream's line pool (see
/// the module docs), so the output is canonical: encoding a decoded trace
/// reproduces the file byte for byte.
pub fn encode(rep: &ReplayKernel) -> Vec<u8> {
    let stub = &rep.stub;
    let mut out = Vec::with_capacity(64 + rep.streams.len() * 32);
    out.extend_from_slice(&MAGIC);
    out.push(VERSION);
    put_uvarint(&mut out, stub.name.len() as u64);
    out.extend_from_slice(stub.name.as_bytes());
    put_uvarint(&mut out, u64::from(stub.grid_ctas));
    put_uvarint(&mut out, u64::from(stub.warps_per_cta));
    put_uvarint(&mut out, u64::from(stub.regs_per_thread));
    put_uvarint(&mut out, stub.shared_mem_per_cta);
    put_uvarint(&mut out, u64::from(stub.iterations));
    put_uvarint(&mut out, stub.loads.len() as u64);
    for l in &stub.loads {
        put_uvarint(&mut out, u64::from(l.pc.0));
    }
    put_uvarint(&mut out, stub.body.len() as u64);
    for inst in &stub.body {
        put_uvarint(&mut out, u64::from(inst.pc.0));
        let (tag, arg) = match inst.kind {
            InstKind::Alu { latency } => (0u8, u64::from(latency)),
            InstKind::Load { load } => (1, u64::from(load.0)),
            InstKind::Store { load } => (2, u64::from(load.0)),
        };
        out.push(tag);
        put_uvarint(&mut out, arg);
        put_uvarint(&mut out, inst.wait_for.map_or(0, |l| u64::from(l.0) + 1));
    }
    put_uvarint(&mut out, rep.streams.len() as u64);
    let mut interned: HashMap<Vec<LineAddr>, u32> = HashMap::new();
    for s in &rep.streams {
        // Canonical pool: first occurrence of each distinct line slice, in
        // op order.
        interned.clear();
        let mut pool: Vec<LineAddr> = Vec::new();
        let mut slots: Vec<(u32, u32)> = Vec::with_capacity(s.ops.len());
        for op in &s.ops {
            if op.line_len == 0 {
                slots.push((0, 0));
                continue;
            }
            let slice = &s.lines[op.line_off as usize..(op.line_off + op.line_len) as usize];
            let off = *interned.entry(slice.to_vec()).or_insert_with(|| {
                let off = pool.len() as u32;
                pool.extend_from_slice(slice);
                off
            });
            slots.push((off, op.line_len));
        }
        put_uvarint(&mut out, pool.len() as u64);
        let mut prev = 0i64;
        for line in &pool {
            let cur = line.0 as i64;
            put_zigzag(&mut out, cur.wrapping_sub(prev));
            prev = cur;
        }
        put_uvarint(&mut out, s.ops.len() as u64);
        for (op, &(off, len)) in s.ops.iter().zip(&slots) {
            put_uvarint(&mut out, u64::from(op.pos));
            put_uvarint(&mut out, u64::from(len));
            if len > 0 {
                put_uvarint(&mut out, u64::from(off));
            }
        }
    }
    out
}

/// Parses `LBW1` bytes into a validated [`ReplayKernel`].
pub fn decode(buf: &[u8]) -> Result<ReplayKernel, ReplayError> {
    if buf.len() < 4 {
        return Err(if buf.is_empty() {
            ReplayError::UnexpectedEof { at: 0 }
        } else {
            ReplayError::BadMagic
        });
    }
    if buf[..4] != MAGIC {
        return Err(ReplayError::BadMagic);
    }
    let mut pos = 4usize;
    let version = get_u8(buf, &mut pos)?;
    if version != VERSION {
        return Err(ReplayError::BadVersion(version));
    }
    let name_len = get_uvarint(buf, &mut pos)? as usize;
    if name_len > buf.len().saturating_sub(pos) {
        return Err(ReplayError::UnexpectedEof { at: pos });
    }
    let name = std::str::from_utf8(&buf[pos..pos + name_len])
        .map_err(|_| ReplayError::Malformed("kernel name is not UTF-8".into()))?
        .to_string();
    pos += name_len;
    let grid_ctas = as_u32(get_uvarint(buf, &mut pos)?, "grid_ctas")?;
    let warps_per_cta = as_u32(get_uvarint(buf, &mut pos)?, "warps_per_cta")?;
    let regs_per_thread = as_u32(get_uvarint(buf, &mut pos)?, "regs_per_thread")?;
    let shared_mem_per_cta = get_uvarint(buf, &mut pos)?;
    let iterations = as_u32(get_uvarint(buf, &mut pos)?, "iterations")?;

    let n_loads = get_uvarint(buf, &mut pos)?;
    if n_loads > buf.len() as u64 {
        return Err(ReplayError::UnexpectedEof { at: pos });
    }
    let mut loads = Vec::with_capacity(n_loads as usize);
    for i in 0..n_loads as u32 {
        let pc = as_u32(get_uvarint(buf, &mut pos)?, "load pc")?;
        // Replay never executes patterns; decoded stubs carry placeholders.
        loads.push(LoadSpec { id: LoadId(i), pc: Pc(pc), pattern: AccessPattern::streaming(128) });
    }

    let n_body = get_uvarint(buf, &mut pos)?;
    if n_body > buf.len() as u64 {
        return Err(ReplayError::UnexpectedEof { at: pos });
    }
    let mut body = Vec::with_capacity(n_body as usize);
    for _ in 0..n_body {
        let pc = as_u32(get_uvarint(buf, &mut pos)?, "pc")?;
        let tag_at = pos;
        let tag = get_u8(buf, &mut pos)?;
        let arg = get_uvarint(buf, &mut pos)?;
        let kind = match tag {
            0 => InstKind::Alu { latency: as_u32(arg, "latency")? },
            1 => InstKind::Load { load: LoadId(as_u32(arg, "load index")?) },
            2 => InstKind::Store { load: LoadId(as_u32(arg, "load index")?) },
            t => {
                return Err(ReplayError::Malformed(format!(
                    "unknown instruction tag {t} at byte {tag_at}"
                )))
            }
        };
        let wait = get_uvarint(buf, &mut pos)?;
        let wait_for = match wait {
            0 => None,
            w => Some(LoadId(as_u32(w - 1, "wait id")?)),
        };
        body.push(StaticInst { pc: Pc(pc), kind, wait_for });
    }

    let stub = KernelSpec::from_raw(
        name,
        grid_ctas,
        warps_per_cta,
        regs_per_thread,
        shared_mem_per_cta,
        body,
        iterations,
        loads,
    )
    .map_err(ReplayError::Malformed)?;

    let n_streams = get_uvarint(buf, &mut pos)?;
    let expected = u64::from(grid_ctas) * u64::from(warps_per_cta);
    if n_streams != expected {
        return Err(ReplayError::StreamCountMismatch { expected, found: n_streams });
    }
    // Both factors of the count come from the input: a stream spends at
    // least two bytes (its line and op counts), so a count the remaining
    // bytes cannot hold is truncation, rejected before it sizes a `Vec`.
    if n_streams > (buf.len() - pos) as u64 / 2 {
        return Err(ReplayError::UnexpectedEof { at: pos });
    }
    let mut streams = Vec::with_capacity(n_streams as usize);
    for _ in 0..n_streams {
        let n_lines = get_uvarint(buf, &mut pos)?;
        if n_lines > buf.len() as u64 {
            return Err(ReplayError::UnexpectedEof { at: pos });
        }
        let mut lines = Vec::with_capacity(n_lines as usize);
        let mut prev = 0i64;
        for _ in 0..n_lines {
            let delta = get_zigzag(buf, &mut pos)?;
            prev = prev.wrapping_add(delta);
            lines.push(LineAddr(prev as u64));
        }
        let n_ops = get_uvarint(buf, &mut pos)?;
        if n_ops > buf.len() as u64 {
            return Err(ReplayError::UnexpectedEof { at: pos });
        }
        let mut ops = Vec::with_capacity(n_ops as usize);
        for _ in 0..n_ops {
            let op_at = pos;
            let p = as_u32(get_uvarint(buf, &mut pos)?, "body position")?;
            let len = get_uvarint(buf, &mut pos)?;
            if len > MAX_LINES_PER_RECORD {
                return Err(ReplayError::OverlongRecord { at: op_at, lines: len });
            }
            let off = if len > 0 { as_u32(get_uvarint(buf, &mut pos)?, "line offset")? } else { 0 };
            ops.push(TraceOp { pos: p, line_off: off, line_len: len as u32 });
        }
        streams.push(WarpStream { ops, lines });
    }

    let rep = ReplayKernel { stub, streams };
    rep.validate().map_err(ReplayError::Malformed)?;
    Ok(rep)
}

/// Reads and decodes a workload trace from `path`.
pub fn read_file(path: &std::path::Path) -> Result<ReplayKernel, ReplayError> {
    decode(&std::fs::read(path)?)
}

/// Encodes `rep` and writes it to `path`.
pub fn write_file(path: &std::path::Path, rep: &ReplayKernel) -> Result<(), ReplayError> {
    Ok(std::fs::write(path, encode(rep))?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::kernel::KernelBuilder;

    fn sample() -> ReplayKernel {
        let stub = KernelBuilder::new("fmt")
            .grid(1, 2)
            .regs_per_thread(16)
            .load_then_use(AccessPattern::streaming(128), 1)
            .alu(3)
            .iterations(2)
            .build()
            .unwrap();
        let mem = |off, len| TraceOp { pos: 0, line_off: off, line_len: len };
        let alu = |pos| TraceOp { pos, line_off: 0, line_len: 0 };
        // Stream 1 repeats stream 0's access — the encoder must intern it.
        let s0 = WarpStream {
            ops: vec![mem(0, 2), alu(1), alu(2), mem(2, 2), alu(1), alu(2)],
            lines: vec![LineAddr(10), LineAddr(11), LineAddr(10), LineAddr(11)],
        };
        let s1 = WarpStream {
            ops: vec![mem(0, 1), alu(1), alu(2), mem(1, 1), alu(1), alu(2)],
            lines: vec![LineAddr(500), LineAddr(500)],
        };
        ReplayKernel { stub, streams: vec![s0, s1] }
    }

    #[test]
    fn round_trip_preserves_semantics() {
        let rep = sample();
        rep.validate().unwrap();
        let bytes = encode(&rep);
        let back = decode(&bytes).unwrap();
        back.validate().unwrap();
        assert_eq!(back.stub, rep.stub);
        assert_eq!(back.streams.len(), rep.streams.len());
        // Interning dedups the repeated slices but the per-op line content
        // is preserved exactly.
        for (a, b) in rep.streams.iter().zip(&back.streams) {
            for (oa, ob) in a.ops.iter().zip(&b.ops) {
                assert_eq!(oa.pos, ob.pos);
                assert_eq!(oa.line_len, ob.line_len);
                let la = &a.lines[oa.line_off as usize..(oa.line_off + oa.line_len) as usize];
                let lb = &b.lines[ob.line_off as usize..(ob.line_off + ob.line_len) as usize];
                assert_eq!(la, lb);
            }
        }
        assert!(back.streams[0].lines.len() < rep.streams[0].lines.len());
    }

    #[test]
    fn encode_is_canonical() {
        let rep = sample();
        let bytes = encode(&rep);
        let back = decode(&bytes).unwrap();
        assert_eq!(encode(&back), bytes, "re-encoding a decoded trace must be byte-identical");
    }

    #[test]
    fn truncated_file_reports_eof() {
        let bytes = encode(&sample());
        for cut in [0, 3, 5, bytes.len() / 2, bytes.len() - 1] {
            match decode(&bytes[..cut]) {
                Err(ReplayError::UnexpectedEof { .. }) | Err(ReplayError::BadMagic) => {}
                other => panic!("cut at {cut}: expected EOF/BadMagic, got {other:?}"),
            }
        }
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = encode(&sample());
        bytes[0] = b'X';
        assert_eq!(decode(&bytes), Err(ReplayError::BadMagic));
    }

    #[test]
    fn bad_version_rejected() {
        let mut bytes = encode(&sample());
        bytes[4] = 9;
        assert_eq!(decode(&bytes), Err(ReplayError::BadVersion(9)));
    }

    #[test]
    fn overlong_record_rejected() {
        // A record claiming more lines than any warp can coalesce must be
        // rejected by length, before validation ever sees it.
        let mut bad = sample();
        let n = (MAX_LINES_PER_RECORD + 1) as u32;
        bad.streams[0].lines = vec![LineAddr(1); n as usize];
        bad.streams[0].ops = vec![
            TraceOp { pos: 0, line_off: 0, line_len: n },
            TraceOp { pos: 1, line_off: 0, line_len: 0 },
        ];
        match decode(&encode(&bad)) {
            Err(ReplayError::OverlongRecord { lines, .. }) => {
                assert_eq!(lines, MAX_LINES_PER_RECORD + 1);
            }
            other => panic!("expected OverlongRecord, got {other:?}"),
        }
    }

    #[test]
    fn stream_count_mismatch_rejected() {
        let mut rep = sample();
        rep.streams.pop();
        let bytes = encode(&rep);
        match decode(&bytes) {
            Err(ReplayError::StreamCountMismatch { expected: 2, found: 1 }) => {}
            other => panic!("expected StreamCountMismatch, got {other:?}"),
        }
    }

    /// A 26-byte file declaring a 2^20 x 2^12 grid (and as many streams)
    /// used to size a 206 GB stream vector and abort the process.
    #[test]
    fn stream_count_beyond_input_rejected() {
        let mut bytes = MAGIC.to_vec();
        bytes.push(VERSION);
        bytes.extend_from_slice(&[1, b'k']); // name
        bytes.extend_from_slice(&[0x80, 0x80, 0x40, 0x80, 0x20]); // grid 2^20 x 2^12
        bytes.extend_from_slice(&[1, 0, 1]); // regs, shared memory, iterations
        bytes.extend_from_slice(&[0, 1, 0, 0, 1, 0]); // no loads; body: one ALU
        bytes.extend_from_slice(&[0x80, 0x80, 0x80, 0x80, 0x10]); // 2^32 streams
        assert_eq!(bytes.len(), 26);
        match decode(&bytes) {
            Err(ReplayError::UnexpectedEof { .. }) => {}
            other => panic!("expected UnexpectedEof, got {other:?}"),
        }
    }

    #[test]
    fn varint_overflow_rejected() {
        let mut bytes = MAGIC.to_vec();
        bytes.push(VERSION);
        bytes.extend_from_slice(&[0xff; 12]); // name length runs past 64 bits
        match decode(&bytes) {
            Err(ReplayError::VarintOverflow { .. }) => {}
            other => panic!("expected VarintOverflow, got {other:?}"),
        }
    }

    #[test]
    fn semantic_garbage_rejected_not_panicking() {
        // An op indexing past the stub body decodes structurally but fails
        // validation with a typed error.
        let mut rep = sample();
        rep.streams[0].ops[1].pos = 99;
        let bytes = encode(&rep);
        match decode(&bytes) {
            Err(ReplayError::Malformed(msg)) => assert!(msg.contains("out of range")),
            other => panic!("expected Malformed, got {other:?}"),
        }
    }
}
