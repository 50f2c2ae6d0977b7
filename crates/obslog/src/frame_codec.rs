//! Binary codec for telemetry frames embedded in the event log.
//!
//! A frame event is framed as `FRAME tag | payload_len varint | payload`,
//! and the payload itself starts with a schema version varint, so the
//! frame layout can evolve without bumping the whole log format. Decoding
//! is *strict*: the payload must parse completely and exactly — a declared
//! length that disagrees with the content by even one byte is rejected.
//! That strictness is load-bearing: the `turnstat frames --inject-bad`
//! self-test tampers with a frame's declared length behind a re-sealed
//! checksum, and only this check can catch it.
//!
//! The latency sketch rides along as its exact internal representation
//! (`sum`, `min`, `max`, non-empty raw buckets), so a decoded frame
//! compares equal to the sealed one — quantiles included — which is what
//! lets `turnstat frames --check` demand decoded == re-derived.

use crate::log::write_varint;
use turnroute_sim::obs::{ChannelWindow, StreamingHistogram};
use turnroute_sim::TelemetryFrame;

/// Current frame payload schema version.
pub const FRAME_VERSION: u64 = 1;

/// Serialize `frame` as a frame payload (version varint first, no outer
/// length prefix — the log writer adds that).
pub fn encode_frame_payload(frame: &TelemetryFrame) -> Vec<u8> {
    let mut p = Vec::with_capacity(64 + 8 * frame.channels.len());
    write_varint(&mut p, FRAME_VERSION);
    for v in [
        frame.seq,
        frame.window_start,
        frame.window_end,
        frame.injected_packets,
        frame.delivered_packets,
        frame.dropped_packets,
        frame.in_flight_packets,
        frame.open_heal_epochs,
    ] {
        write_varint(&mut p, v);
    }
    write_varint(&mut p, frame.latency.sum());
    write_varint(&mut p, frame.latency.min());
    write_varint(&mut p, frame.latency.max());
    let pairs: Vec<(u64, u64)> = frame.latency.raw_buckets().collect();
    write_varint(&mut p, pairs.len() as u64);
    for (bucket, count) in pairs {
        write_varint(&mut p, bucket);
        write_varint(&mut p, count);
    }
    write_varint(&mut p, frame.channels.len() as u64);
    for c in &frame.channels {
        write_varint(&mut p, c.slot as u64);
        write_varint(&mut p, c.util);
        write_varint(&mut p, c.blocked);
    }
    p
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Reader<'_> {
    fn varint(&mut self) -> Result<u64, String> {
        let mut out = 0u64;
        let mut shift = 0u32;
        loop {
            let b = *self
                .bytes
                .get(self.pos)
                .ok_or_else(|| "frame payload ends mid-varint".to_string())?;
            self.pos += 1;
            // The tenth byte holds bit 63 alone; anything above it
            // would be silently dropped by the shift.
            if shift >= 64 || (shift == 63 && b & 0x7e != 0) {
                return Err("frame payload varint overflows u64".to_string());
            }
            out |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                return Ok(out);
            }
            shift += 7;
        }
    }
}

/// Decode a frame payload produced by [`encode_frame_payload`].
///
/// Strict: every byte of `bytes` must be consumed, and the schema version
/// must be the current one. Any disagreement between the log's declared
/// payload length and the actual content is an error, never a guess.
pub fn decode_frame_payload(bytes: &[u8]) -> Result<TelemetryFrame, String> {
    let mut r = Reader { bytes, pos: 0 };
    let version = r.varint()?;
    if version != FRAME_VERSION {
        return Err(format!("unsupported frame version {version}"));
    }
    let seq = r.varint()?;
    let window_start = r.varint()?;
    let window_end = r.varint()?;
    let injected_packets = r.varint()?;
    let delivered_packets = r.varint()?;
    let dropped_packets = r.varint()?;
    let in_flight_packets = r.varint()?;
    let open_heal_epochs = r.varint()?;
    let (sum, min, max) = (r.varint()?, r.varint()?, r.varint()?);
    let n_pairs = r.varint()? as usize;
    let mut pairs = Vec::with_capacity(n_pairs.min(4096));
    for _ in 0..n_pairs {
        pairs.push((r.varint()?, r.varint()?));
    }
    if window_start > window_end || window_end == u64::MAX {
        return Err(format!(
            "frame window {window_start}..={window_end} is not a cycle range"
        ));
    }
    let latency = StreamingHistogram::from_raw(sum, min, max, &pairs)
        .ok_or_else(|| "latency sketch buckets are not a histogram's".to_string())?;
    let n_channels = r.varint()? as usize;
    let mut channels = Vec::with_capacity(n_channels.min(4096));
    for _ in 0..n_channels {
        channels.push(ChannelWindow {
            slot: r.varint()? as usize,
            util: r.varint()?,
            blocked: r.varint()?,
        });
    }
    if r.pos != bytes.len() {
        return Err(format!(
            "frame payload length mismatch: {} bytes declared, {} consumed",
            bytes.len(),
            r.pos
        ));
    }
    Ok(TelemetryFrame {
        seq,
        window_start,
        window_end,
        injected_packets,
        delivered_packets,
        dropped_packets,
        in_flight_packets,
        open_heal_epochs,
        latency,
        channels,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TelemetryFrame {
        let mut latency = StreamingHistogram::new();
        for v in [3u64, 40, 40, 1_000] {
            latency.record(v);
        }
        TelemetryFrame {
            seq: 4,
            window_start: 400,
            window_end: 499,
            injected_packets: 12,
            delivered_packets: 9,
            dropped_packets: 1,
            in_flight_packets: 30,
            open_heal_epochs: 2,
            latency,
            channels: vec![
                ChannelWindow {
                    slot: 3,
                    util: 17,
                    blocked: 0,
                },
                ChannelWindow {
                    slot: 90,
                    util: 2,
                    blocked: 88,
                },
            ],
        }
    }

    #[test]
    fn frame_payload_round_trips_exactly() {
        let f = sample();
        let p = encode_frame_payload(&f);
        let back = decode_frame_payload(&p).expect("decodes");
        assert_eq!(back, f);
        assert_eq!(back.latency.p90(), f.latency.p90());
        // An empty frame round-trips too.
        let empty = TelemetryFrame {
            latency: StreamingHistogram::new(),
            channels: Vec::new(),
            ..f
        };
        let back = decode_frame_payload(&encode_frame_payload(&empty)).expect("decodes");
        assert_eq!(back, empty);
    }

    #[test]
    fn length_disagreement_is_rejected() {
        let p = encode_frame_payload(&sample());
        // One byte short and one byte long must both fail the strict
        // consume-everything check (or the varint reader).
        assert!(decode_frame_payload(&p[..p.len() - 1]).is_err());
        let mut long = p.clone();
        long.push(0);
        assert!(decode_frame_payload(&long)
            .unwrap_err()
            .contains("length mismatch"));
    }

    #[test]
    fn a_varint_past_u64_is_rejected() {
        // `seq` = 5 in ten bytes, with bits the tenth byte would carry
        // past 2^64: `0x7e << 63` shifts them out of a u64.
        let f = TelemetryFrame { seq: 5, ..sample() };
        let p = encode_frame_payload(&f);
        assert_eq!(p[1], 5, "a one-byte seq follows the version");
        let wide = [0x85, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x7e];
        let mut bad = p[..1].to_vec();
        bad.extend_from_slice(&wide);
        bad.extend_from_slice(&p[2..]);
        assert!(decode_frame_payload(&bad)
            .unwrap_err()
            .contains("overflows u64"));
        // Bit 63 itself still fits: u64::MAX round-trips.
        let max = TelemetryFrame {
            seq: u64::MAX,
            ..sample()
        };
        let back = decode_frame_payload(&encode_frame_payload(&max)).expect("decodes");
        assert_eq!(back.seq, u64::MAX);
    }

    #[test]
    fn unknown_version_is_rejected() {
        let mut p = encode_frame_payload(&sample());
        p[0] = 9;
        assert!(decode_frame_payload(&p)
            .unwrap_err()
            .contains("unsupported frame version"));
    }
}
