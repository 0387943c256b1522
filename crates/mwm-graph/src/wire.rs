//! Fixed-width binary codec for edge records, and the length-prefixed frame
//! codec.
//!
//! The out-of-core spill format (`mwm-external`) serializes `(EdgeId, Edge)`
//! pairs. One record is exactly
//! [`EDGE_RECORD_BYTES`] bytes, little-endian: `id: u64`, `u: u32`, `v: u32`,
//! `w: f64` (IEEE-754 bits). Storing the id explicitly keeps non-contiguous
//! shard layouts (round-robin partitions, filtered streams) loss-free, and
//! round-tripping the weight through its bit pattern keeps spilled passes
//! bit-identical to in-memory ones.

use std::io::{self, Read, Write};

use crate::graph::{Edge, EdgeId};

/// Size of one encoded `(EdgeId, Edge)` record in bytes.
pub const EDGE_RECORD_BYTES: usize = 24;

/// Upper bound on a single length-prefixed frame payload (256 MiB). A frame
/// larger than this is a protocol violation, not a legitimate message, so
/// readers reject it before allocating.
pub const MAX_FRAME_BYTES: usize = 1 << 28;

/// Writes one length-prefixed frame: `len: u32` (LE) followed by the payload.
///
/// Shared by the session image / write-ahead journal format (`mwm-persist`)
/// and the socket front door (`mwm-serve`), so on-disk and on-wire framing
/// stay identical.
///
/// Payloads over [`MAX_FRAME_BYTES`] are rejected with `InvalidInput`
/// *before* anything is written: the length prefix is a `u32`, so an
/// unchecked `len as u32` would silently truncate and the peer would then
/// misframe every subsequent byte of the stream. Since the cap is well
/// below `u32::MAX`, the check also makes the narrowing cast lossless.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    if payload.len() > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("frame payload {} exceeds cap {MAX_FRAME_BYTES}", payload.len()),
        ));
    }
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)
}

/// Reads one frame written by [`write_frame`].
///
/// Returns `Ok(None)` on a clean EOF at a frame boundary; an EOF in the middle
/// of a frame is an error (`UnexpectedEof`), and a length prefix above
/// [`MAX_FRAME_BYTES`] is rejected as `InvalidData` before allocation.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut len_buf = [0u8; 4];
    let mut filled = 0;
    while filled < 4 {
        let n = r.read(&mut len_buf[filled..])?;
        if n == 0 {
            if filled == 0 {
                return Ok(None);
            }
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "eof inside frame length prefix",
            ));
        }
        filled += n;
    }
    let len = u32::from_le_bytes(len_buf) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds cap {MAX_FRAME_BYTES}"),
        ));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

/// Encodes one `(id, edge)` record into `buf`.
pub fn encode_edge_record(id: EdgeId, e: Edge, buf: &mut [u8; EDGE_RECORD_BYTES]) {
    buf[0..8].copy_from_slice(&(id as u64).to_le_bytes());
    buf[8..12].copy_from_slice(&e.u.to_le_bytes());
    buf[12..16].copy_from_slice(&e.v.to_le_bytes());
    buf[16..24].copy_from_slice(&e.w.to_bits().to_le_bytes());
}

/// Decodes one record written by [`encode_edge_record`].
pub fn decode_edge_record(buf: &[u8; EDGE_RECORD_BYTES]) -> (EdgeId, Edge) {
    let id = u64::from_le_bytes(buf[0..8].try_into().expect("8-byte slice")) as EdgeId;
    let u = u32::from_le_bytes(buf[8..12].try_into().expect("4-byte slice"));
    let v = u32::from_le_bytes(buf[12..16].try_into().expect("4-byte slice"));
    let w = f64::from_bits(u64::from_le_bytes(buf[16..24].try_into().expect("8-byte slice")));
    // Constructed literally: the codec must round-trip any bit pattern it is
    // handed, including weights `Edge::new`'s validity debug-assert rejects.
    (id, Edge { u, v, w })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_round_trip_bit_exactly() {
        for (id, u, v, w) in
            [(0usize, 0u32, 1u32, 1.0f64), (usize::MAX >> 1, 7, 3, 0.1 + 0.2), (42, 5, 5, -0.0)]
        {
            let mut buf = [0u8; EDGE_RECORD_BYTES];
            encode_edge_record(id, Edge { u, v, w }, &mut buf);
            let (id2, e2) = decode_edge_record(&buf);
            assert_eq!(id, id2);
            assert_eq!((e2.u, e2.v), (u, v));
            assert_eq!(e2.w.to_bits(), w.to_bits(), "weight bits must survive the codec");
        }
    }

    #[test]
    fn frames_round_trip_and_reject_oversize() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"alpha").unwrap();
        write_frame(&mut buf, b"").unwrap();
        write_frame(&mut buf, b"beta").unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some(&b"alpha"[..]));
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some(&b""[..]));
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some(&b"beta"[..]));
        assert!(read_frame(&mut r).unwrap().is_none(), "clean EOF ends the stream");

        let oversize = (MAX_FRAME_BYTES as u32 + 1).to_le_bytes();
        let err = read_frame(&mut &oversize[..]).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);

        let torn = [5u8, 0, 0, 0, b'x'];
        let err = read_frame(&mut &torn[..]).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof, "mid-frame EOF is an error");
    }

    #[test]
    fn write_frame_rejects_oversize_payload_before_writing() {
        // An unchecked `len as u32` would write a truncated header here and
        // desynchronize the peer; the writer must refuse instead.
        let oversize = vec![0u8; MAX_FRAME_BYTES + 1];
        let mut out = Vec::new();
        let err = write_frame(&mut out, &oversize).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
        assert!(out.is_empty(), "nothing may reach the stream on rejection");

        // The cap itself is still a legal frame.
        let mut header_only = Vec::new();
        write_frame(&mut header_only, &[]).unwrap();
        assert_eq!(header_only, 0u32.to_le_bytes());
    }

    #[test]
    fn encoding_is_little_endian_and_stable() {
        let mut buf = [0u8; EDGE_RECORD_BYTES];
        encode_edge_record(1, Edge::new(2, 3, 1.0), &mut buf);
        assert_eq!(&buf[0..8], &[1, 0, 0, 0, 0, 0, 0, 0]);
        assert_eq!(&buf[8..12], &[2, 0, 0, 0]);
        assert_eq!(&buf[12..16], &[3, 0, 0, 0]);
        assert_eq!(&buf[16..24], &1.0f64.to_bits().to_le_bytes());
    }
}
