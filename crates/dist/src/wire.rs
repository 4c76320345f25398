//! Length-prefixed, CRC32-framed wire protocol.
//!
//! Every message travels as one frame:
//!
//! ```text
//! offset   size  field
//! 0        4     magic b"TYXD"
//! 4        8     payload length n, u64 LE (bounded by MAX_PAYLOAD_LEN)
//! 12       n     payload bytes (one encoded Msg)
//! 12+n     4     CRC32 (IEEE) over the payload, u32 LE
//! ```
//!
//! The CRC is the same in-tree IEEE implementation that checkpoints use
//! ([`tyxe_nn::serialize::crc32`]). A frame whose checksum, magic or
//! framing is wrong is *rejected*, never partially delivered; the
//! receiving side treats rejection as peer death. [`FrameReader`] is an
//! incremental reassembler, so short reads from a non-blocking socket
//! simply park bytes until the frame completes.
//!
//! Message payloads are encoded with the checkpoint byte substrate
//! (`ByteWriter`/`ByteReader`), all integers LE, all floats exact IEEE
//! bit patterns — losses and gradients cross the process boundary
//! bit-identically.

use std::io;

use tyxe_nn::serialize::{crc32, ByteReader, ByteWriter};

/// Frame magic.
pub const MAGIC: [u8; 4] = *b"TYXD";
/// Frame header length (magic + payload length).
pub const HEADER_LEN: usize = 4 + 8;
/// Upper bound on a frame payload; anything larger is corruption.
pub const MAX_PAYLOAD_LEN: u64 = 1 << 30;

/// Why an incoming byte stream was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Frame does not start with [`MAGIC`] (stream out of sync).
    BadMagic,
    /// Declared payload length exceeds [`MAX_PAYLOAD_LEN`].
    Oversized(u64),
    /// CRC32 trailer does not match the payload.
    Corrupt {
        /// Checksum carried by the frame.
        stored: u32,
        /// Checksum computed over the received payload.
        computed: u32,
    },
    /// Payload did not decode to a known message.
    Malformed(&'static str),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::BadMagic => write!(f, "bad frame magic"),
            WireError::Oversized(n) => write!(f, "oversized frame payload ({n} bytes)"),
            WireError::Corrupt { stored, computed } => {
                write!(f, "frame checksum mismatch: stored {stored:#010x}, computed {computed:#010x}")
            }
            WireError::Malformed(what) => write!(f, "malformed message payload: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Coordinator↔worker messages.
#[derive(Debug, Clone, PartialEq)]
pub enum Msg {
    /// Worker → coordinator, first frame after connecting.
    Hello {
        /// The connecting worker's rank.
        rank: u32,
        /// Its spawn incarnation.
        incarnation: u64,
        /// UNIX ns of the worker's trace epoch (0 = not reported). The
        /// coordinator derives this worker's clock offset from it for
        /// merged-trace normalization.
        epoch_unix_ns: u64,
    },
    /// Coordinator → worker, accepted-membership reply to `Hello`.
    Init {
        /// Logical shard count of the session.
        num_shards: u32,
        /// The `tyxe_tensor::autocast::code` every shard runs under.
        autocast: u32,
        /// Flat element count of each parameter, canonical order.
        param_lens: Vec<u64>,
    },
    /// Coordinator → worker: compute these shards for this step.
    Step {
        /// Global step number.
        step: u64,
        /// Coordinator RNG state at step start (shared guide draw).
        rng_state: [u64; 4],
        /// Shard indices assigned to this worker (possibly empty).
        shards: Vec<u32>,
        /// Current parameter values, canonical order, exact f64.
        params: Vec<Vec<f64>>,
        /// Distributed trace id of the fit this step belongs to (0 =
        /// tracing off).
        trace_id: u64,
        /// Span id of the coordinator's `dist.step` span (0 = tracing
        /// off) — workers parent their step spans under it.
        span_id: u64,
    },
    /// Worker → coordinator: one shard's contribution.
    Grad {
        /// Step this contribution belongs to (stale ones are dropped).
        step: u64,
        /// Logical shard index.
        shard: u32,
        /// Shard loss term.
        loss: f64,
        /// Per-parameter gradients (`None` = parameter untouched).
        grads: Vec<Option<Vec<f64>>>,
    },
    /// Worker → coordinator: liveness signal between collections.
    Heartbeat {
        /// Last step the worker has seen.
        step: u64,
    },
    /// Coordinator → worker: exit cleanly.
    Shutdown,
    /// Worker → coordinator: spans and metrics, shipped on an interval
    /// after a step's `Grad` frames, and once more as the worker's
    /// final frame — its last words, whose `spans_jsonl` opens with
    /// `tyxe_obs::flight::LastWords` event lines.
    Telemetry {
        /// Sending worker's rank.
        rank: u32,
        /// Its spawn incarnation.
        incarnation: u64,
        /// Step the shipment covers.
        step: u64,
        /// Per-thread `(tid, count)` dropped-span totals so far.
        dropped: Vec<(u64, u64)>,
        /// Spans drained since the last shipment, in
        /// `tyxe_obs::trace::spans_to_jsonl` format (the coordinator
        /// defers parsing to merge time); span parsers skip the
        /// last-words event lines.
        spans_jsonl: String,
        /// Current metrics snapshot, in
        /// `tyxe_obs::metrics::snapshot_jsonl` format.
        metrics_jsonl: String,
    },
}

const TAG_HELLO: u32 = 1;
const TAG_INIT: u32 = 2;
const TAG_STEP: u32 = 3;
const TAG_GRAD: u32 = 4;
const TAG_HEARTBEAT: u32 = 5;
const TAG_SHUTDOWN: u32 = 6;
const TAG_TELEMETRY: u32 = 7;

fn put_opt_grads(w: &mut ByteWriter, grads: &[Option<Vec<f64>>]) {
    w.put_u64(grads.len() as u64);
    for g in grads {
        match g {
            Some(v) => {
                w.put_u32(1);
                w.put_f64_slice(v);
            }
            None => w.put_u32(0),
        }
    }
}

fn get_opt_grads(r: &mut ByteReader<'_>) -> Result<Vec<Option<Vec<f64>>>, WireError> {
    let n = r.get_u64().map_err(|_| WireError::Malformed("grads count"))? as usize;
    let mut out = Vec::with_capacity(n.min(4096));
    for _ in 0..n {
        let present = r.get_u32().map_err(|_| WireError::Malformed("grad presence"))?;
        match present {
            0 => out.push(None),
            1 => out.push(Some(
                r.get_f64_slice().map_err(|_| WireError::Malformed("grad values"))?,
            )),
            _ => return Err(WireError::Malformed("grad presence flag")),
        }
    }
    Ok(out)
}

impl Msg {
    /// Encodes the message body (no framing).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        match self {
            Msg::Hello { rank, incarnation, epoch_unix_ns } => {
                w.put_u32(TAG_HELLO);
                w.put_u32(*rank);
                w.put_u64(*incarnation);
                w.put_u64(*epoch_unix_ns);
            }
            Msg::Init { num_shards, autocast, param_lens } => {
                w.put_u32(TAG_INIT);
                w.put_u32(*num_shards);
                w.put_u32(*autocast);
                w.put_u64(param_lens.len() as u64);
                for &l in param_lens {
                    w.put_u64(l);
                }
            }
            Msg::Step { step, rng_state, shards, params, trace_id, span_id } => {
                w.put_u32(TAG_STEP);
                w.put_u64(*step);
                for &s in rng_state {
                    w.put_u64(s);
                }
                w.put_u64(shards.len() as u64);
                for &s in shards {
                    w.put_u32(s);
                }
                w.put_u64(params.len() as u64);
                for p in params {
                    w.put_f64_slice(p);
                }
                w.put_u64(*trace_id);
                w.put_u64(*span_id);
            }
            Msg::Grad { step, shard, loss, grads } => {
                w.put_u32(TAG_GRAD);
                w.put_u64(*step);
                w.put_u32(*shard);
                w.put_f64(*loss);
                put_opt_grads(&mut w, grads);
            }
            Msg::Heartbeat { step } => {
                w.put_u32(TAG_HEARTBEAT);
                w.put_u64(*step);
            }
            Msg::Shutdown => w.put_u32(TAG_SHUTDOWN),
            Msg::Telemetry { rank, incarnation, step, dropped, spans_jsonl, metrics_jsonl } => {
                w.put_u32(TAG_TELEMETRY);
                w.put_u32(*rank);
                w.put_u64(*incarnation);
                w.put_u64(*step);
                w.put_u64(dropped.len() as u64);
                for &(tid, count) in dropped {
                    w.put_u64(tid);
                    w.put_u64(count);
                }
                w.put_str(spans_jsonl);
                w.put_str(metrics_jsonl);
            }
        }
        w.into_bytes()
    }

    /// Decodes a message body produced by [`Msg::encode`].
    pub fn decode(payload: &[u8]) -> Result<Msg, WireError> {
        let mut r = ByteReader::new(payload);
        let err = |what| move |_| WireError::Malformed(what);
        let tag = r.get_u32().map_err(err("tag"))?;
        let msg = match tag {
            TAG_HELLO => Msg::Hello {
                rank: r.get_u32().map_err(err("rank"))?,
                incarnation: r.get_u64().map_err(err("incarnation"))?,
                epoch_unix_ns: r.get_u64().map_err(err("epoch_unix_ns"))?,
            },
            TAG_INIT => {
                let num_shards = r.get_u32().map_err(err("num_shards"))?;
                let autocast = r.get_u32().map_err(err("autocast"))?;
                let n = r.get_u64().map_err(err("param count"))? as usize;
                let mut param_lens = Vec::with_capacity(n.min(65_536));
                for _ in 0..n {
                    param_lens.push(r.get_u64().map_err(err("param len"))?);
                }
                Msg::Init { num_shards, autocast, param_lens }
            }
            TAG_STEP => {
                let step = r.get_u64().map_err(err("step"))?;
                let mut rng_state = [0u64; 4];
                for s in &mut rng_state {
                    *s = r.get_u64().map_err(err("rng state"))?;
                }
                let ns = r.get_u64().map_err(err("shard count"))? as usize;
                let mut shards = Vec::with_capacity(ns.min(65_536));
                for _ in 0..ns {
                    shards.push(r.get_u32().map_err(err("shard index"))?);
                }
                let np = r.get_u64().map_err(err("param count"))? as usize;
                let mut params = Vec::with_capacity(np.min(65_536));
                for _ in 0..np {
                    params.push(r.get_f64_slice().map_err(err("param values"))?);
                }
                let trace_id = r.get_u64().map_err(err("trace_id"))?;
                let span_id = r.get_u64().map_err(err("span_id"))?;
                Msg::Step { step, rng_state, shards, params, trace_id, span_id }
            }
            TAG_GRAD => Msg::Grad {
                step: r.get_u64().map_err(err("step"))?,
                shard: r.get_u32().map_err(err("shard"))?,
                loss: r.get_f64().map_err(err("loss"))?,
                grads: get_opt_grads(&mut r)?,
            },
            TAG_HEARTBEAT => Msg::Heartbeat { step: r.get_u64().map_err(err("step"))? },
            TAG_SHUTDOWN => Msg::Shutdown,
            TAG_TELEMETRY => {
                let rank = r.get_u32().map_err(err("rank"))?;
                let incarnation = r.get_u64().map_err(err("incarnation"))?;
                let step = r.get_u64().map_err(err("step"))?;
                let nd = r.get_u64().map_err(err("dropped count"))? as usize;
                let mut dropped = Vec::with_capacity(nd.min(65_536));
                for _ in 0..nd {
                    dropped.push((
                        r.get_u64().map_err(err("dropped tid"))?,
                        r.get_u64().map_err(err("dropped total"))?,
                    ));
                }
                let spans_jsonl = r.get_str().map_err(err("spans jsonl"))?;
                let metrics_jsonl = r.get_str().map_err(err("metrics jsonl"))?;
                Msg::Telemetry { rank, incarnation, step, dropped, spans_jsonl, metrics_jsonl }
            }
            _ => return Err(WireError::Malformed("unknown message tag")),
        };
        if !r.is_exhausted() {
            return Err(WireError::Malformed("trailing bytes after message"));
        }
        Ok(msg)
    }
}

/// Frames an encoded message for the wire.
pub fn encode_frame(msg: &Msg) -> Vec<u8> {
    encode_frame_parts(msg).to_bytes()
}

/// An encoded frame kept as its three wire sections — header (magic +
/// length), payload, CRC trailer — so senders can hand all three to one
/// vectored `writev` syscall instead of concatenating them into a fresh
/// allocation first. For a multi-megabyte `Step` payload that copy is
/// the dominant cost of sending.
#[derive(Debug, Clone)]
pub struct FrameParts {
    /// Magic + LE payload length.
    pub header: [u8; HEADER_LEN],
    /// Encoded message body.
    pub payload: Vec<u8>,
    /// LE CRC32 over the payload.
    pub crc: [u8; 4],
}

impl FrameParts {
    /// Total frame size on the wire.
    pub fn wire_len(&self) -> usize {
        HEADER_LEN + self.payload.len() + 4
    }

    /// Concatenated frame bytes, identical to [`encode_frame`].
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.wire_len());
        out.extend_from_slice(&self.header);
        out.extend_from_slice(&self.payload);
        out.extend_from_slice(&self.crc);
        out
    }

    /// The sections still to send, as `IoSlice`s starting `skip` bytes
    /// into the frame — how a partial vectored write resumes.
    fn io_slices_from(&self, skip: usize) -> Vec<io::IoSlice<'_>> {
        let sections: [&[u8]; 3] = [&self.header, &self.payload, &self.crc];
        let mut slices = Vec::with_capacity(3);
        let mut skip = skip;
        for sec in sections {
            if skip >= sec.len() {
                skip -= sec.len();
            } else {
                slices.push(io::IoSlice::new(&sec[skip..]));
                skip = 0;
            }
        }
        slices
    }
}

/// Encodes a message into its framed wire sections (see [`FrameParts`]).
pub fn encode_frame_parts(msg: &Msg) -> FrameParts {
    let payload = msg.encode();
    let mut header = [0u8; HEADER_LEN];
    header[..4].copy_from_slice(&MAGIC);
    header[4..].copy_from_slice(&(payload.len() as u64).to_le_bytes());
    let crc = crc32(&payload).to_le_bytes();
    FrameParts { header, payload, crc }
}

/// Sends a frame with vectored I/O: header, payload and CRC reach the
/// kernel in a single `writev` per attempt — one syscall for the whole
/// frame in the common case — with no concatenating copy. Partial
/// writes resume by rebuilding the slice array from the byte offset.
/// `WouldBlock` is reported to `on_block` so callers pick their own
/// back-off (sleep for nonblocking streams, nothing for blocking ones);
/// `Interrupted` retries silently; any other error is fatal.
pub fn write_frame_vectored(
    w: &mut impl io::Write,
    parts: &FrameParts,
    mut on_block: impl FnMut(),
) -> io::Result<()> {
    let total = parts.wire_len();
    let mut off = 0;
    while off < total {
        let slices = parts.io_slices_from(off);
        match w.write_vectored(&slices) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => off += n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => on_block(),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Incremental frame reassembler over an arbitrary byte stream.
///
/// Push whatever the socket produced with [`FrameReader::push`], then
/// drain complete messages with [`FrameReader::next_msg`]. Incomplete
/// frames wait for more bytes; invalid ones surface a [`WireError`]
/// (after which the stream must be considered dead — framing cannot be
/// resynchronised).
#[derive(Debug, Default)]
pub struct FrameReader {
    buf: Vec<u8>,
    pos: usize,
}

impl FrameReader {
    /// Creates an empty reassembler.
    pub fn new() -> FrameReader {
        FrameReader::default()
    }

    /// Appends bytes read from the stream.
    pub fn push(&mut self, bytes: &[u8]) {
        // Compact lazily so long sessions don't grow without bound.
        if self.pos > 0 && self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
        } else if self.pos > 1 << 20 {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Pops the next complete message, if one is buffered.
    pub fn next_msg(&mut self) -> Result<Option<Msg>, WireError> {
        let avail = &self.buf[self.pos..];
        if avail.len() < HEADER_LEN {
            return Ok(None);
        }
        if avail[..4] != MAGIC {
            return Err(WireError::BadMagic);
        }
        let len = u64::from_le_bytes(avail[4..12].try_into().unwrap());
        if len > MAX_PAYLOAD_LEN {
            return Err(WireError::Oversized(len));
        }
        let len = len as usize;
        let total = HEADER_LEN + len + 4;
        if avail.len() < total {
            return Ok(None);
        }
        let payload = &avail[HEADER_LEN..HEADER_LEN + len];
        let stored = u32::from_le_bytes(avail[HEADER_LEN + len..total].try_into().unwrap());
        let computed = crc32(payload);
        if stored != computed {
            return Err(WireError::Corrupt { stored, computed });
        }
        let msg = Msg::decode(payload)?;
        self.pos += total;
        Ok(Some(msg))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_msgs() -> Vec<Msg> {
        vec![
            Msg::Hello { rank: 3, incarnation: 2, epoch_unix_ns: 1_700_000_000_000_000_000 },
            Msg::Init { num_shards: 4, autocast: 2, param_lens: vec![16, 1, 0] },
            Msg::Step {
                step: 7,
                rng_state: [1, u64::MAX, 0, 42],
                shards: vec![0, 2],
                params: vec![vec![1.5, -0.0, f64::MIN_POSITIVE], vec![]],
                trace_id: 0xDEAD_BEEF,
                span_id: 12,
            },
            Msg::Grad {
                step: 7,
                shard: 2,
                loss: -123.456,
                grads: vec![Some(vec![0.1 + 0.2, f64::NEG_INFINITY]), None],
            },
            Msg::Heartbeat { step: 9 },
            Msg::Shutdown,
            Msg::Telemetry {
                rank: 1,
                incarnation: 3,
                step: 7,
                dropped: vec![(0, 5), (2, 1)],
                spans_jsonl: "{\"name\":\"dist.worker.step\",\"tid\":0,\"depth\":0,\
                              \"start_ns\":1,\"dur_ns\":2,\"span_id\":4}\n"
                    .to_string(),
                metrics_jsonl: String::new(),
            },
        ]
    }

    #[test]
    fn every_message_roundtrips_bitwise() {
        for msg in sample_msgs() {
            let decoded = Msg::decode(&msg.encode()).unwrap();
            assert_eq!(decoded, msg);
            if let (Msg::Grad { loss: a, .. }, Msg::Grad { loss: b, .. }) = (&msg, &decoded) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn frames_reassemble_from_any_fragmentation() {
        let msgs = sample_msgs();
        let stream: Vec<u8> = msgs.iter().flat_map(encode_frame).collect();
        for chunk in [1usize, 2, 3, 7, 13, stream.len()] {
            let mut reader = FrameReader::new();
            let mut got = Vec::new();
            for piece in stream.chunks(chunk) {
                reader.push(piece);
                while let Some(msg) = reader.next_msg().unwrap() {
                    got.push(msg);
                }
            }
            assert_eq!(got, msgs, "chunk size {chunk}");
        }
    }

    #[test]
    fn torn_frame_is_held_not_delivered() {
        let frame = encode_frame(&Msg::Heartbeat { step: 1 });
        let mut reader = FrameReader::new();
        for len in 0..frame.len() {
            let mut r = FrameReader::new();
            r.push(&frame[..len]);
            assert_eq!(r.next_msg().unwrap(), None, "prefix {len} delivered early");
        }
        reader.push(&frame);
        assert_eq!(reader.next_msg().unwrap(), Some(Msg::Heartbeat { step: 1 }));
        assert_eq!(reader.next_msg().unwrap(), None);
    }

    #[test]
    fn every_single_byte_flip_is_rejected() {
        let frame = encode_frame(&Msg::Grad {
            step: 3,
            shard: 1,
            loss: 2.5,
            grads: vec![Some(vec![1.0, 2.0])],
        });
        for i in 0..frame.len() {
            let mut corrupt = frame.clone();
            corrupt[i] ^= 0x10;
            let mut reader = FrameReader::new();
            reader.push(&corrupt);
            match reader.next_msg() {
                // A flipped length byte can make the frame look longer
                // than what arrived: held incomplete forever, which a
                // real receiver converts to a heartbeat timeout.
                Ok(None) | Err(_) => {}
                Ok(Some(msg)) => panic!("flip at byte {i} delivered {msg:?}"),
            }
        }
    }

    /// `Write` impl that accepts at most `cap` bytes per call — worst-case
    /// short writes — and counts syscall-equivalent attempts.
    struct ChokedWriter {
        out: Vec<u8>,
        cap: usize,
        calls: usize,
    }

    impl io::Write for ChokedWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.calls += 1;
            let n = buf.len().min(self.cap);
            self.out.extend_from_slice(&buf[..n]);
            Ok(n)
        }

        // Default write_vectored forwards to write (first non-empty
        // slice only) — exactly the partial-progress case the resume
        // logic must survive. Also exercise true multi-slice gathering.
        fn write_vectored(&mut self, bufs: &[io::IoSlice<'_>]) -> io::Result<usize> {
            self.calls += 1;
            let mut budget = self.cap;
            let mut written = 0;
            for b in bufs {
                if budget == 0 {
                    break;
                }
                let n = b.len().min(budget);
                self.out.extend_from_slice(&b[..n]);
                budget -= n;
                written += n;
            }
            Ok(written)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn vectored_frames_match_encode_frame_bytes() {
        for msg in sample_msgs() {
            let parts = encode_frame_parts(&msg);
            assert_eq!(parts.to_bytes(), encode_frame(&msg));
            assert_eq!(parts.wire_len(), encode_frame(&msg).len());
        }
    }

    #[test]
    fn vectored_write_survives_every_chunk_cap_across_frame_sizes() {
        // Frame-size sweep: payloads from empty (Shutdown) through
        // multi-kilobyte Step params, each pushed through writers that
        // accept 1, 2, 3, 7, 13, ... bytes per syscall, then reassembled.
        let mut msgs = sample_msgs();
        msgs.push(Msg::Step {
            step: 1,
            rng_state: [4, 3, 2, 1],
            shards: (0..32).collect(),
            params: vec![vec![0.25; 1024], vec![-1.5; 513], vec![]],
            trace_id: 9,
            span_id: 10,
        });
        for msg in &msgs {
            let parts = encode_frame_parts(msg);
            for cap in [1usize, 2, 3, 7, 13, 64, 4096, usize::MAX] {
                let mut w = ChokedWriter { out: Vec::new(), cap, calls: 0 };
                write_frame_vectored(&mut w, &parts, || {}).unwrap();
                assert_eq!(w.out, encode_frame(msg), "cap {cap}");
                let mut reader = FrameReader::new();
                reader.push(&w.out);
                assert_eq!(reader.next_msg().unwrap(), Some(msg.clone()), "cap {cap}");
                assert_eq!(reader.next_msg().unwrap(), None);
                // An unchoked writer needs exactly one gather call.
                if cap == usize::MAX {
                    assert_eq!(w.calls, 1, "whole frame should be one writev");
                }
            }
        }
    }

    #[test]
    fn vectored_write_reports_would_block_and_resumes() {
        struct BlockOnce {
            inner: ChokedWriter,
            blocked: bool,
        }
        impl io::Write for BlockOnce {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.inner.write(buf)
            }
            fn write_vectored(&mut self, bufs: &[io::IoSlice<'_>]) -> io::Result<usize> {
                if !self.blocked {
                    self.blocked = true;
                    return Err(io::ErrorKind::WouldBlock.into());
                }
                self.inner.write_vectored(bufs)
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let msg = Msg::Heartbeat { step: 77 };
        let mut w = BlockOnce {
            inner: ChokedWriter { out: Vec::new(), cap: 5, calls: 0 },
            blocked: false,
        };
        let mut blocks = 0;
        write_frame_vectored(&mut w, &encode_frame_parts(&msg), || blocks += 1).unwrap();
        assert_eq!(blocks, 1);
        assert_eq!(w.inner.out, encode_frame(&msg));
    }

    #[test]
    fn corrupt_frame_poisons_the_stream() {
        let mut bad = encode_frame(&Msg::Heartbeat { step: 1 });
        let n = bad.len();
        bad[n - 1] ^= 0xFF; // CRC trailer
        let mut reader = FrameReader::new();
        reader.push(&bad);
        assert!(matches!(reader.next_msg(), Err(WireError::Corrupt { .. })));
    }

    #[test]
    fn oversized_and_desynced_frames_are_rejected() {
        let mut reader = FrameReader::new();
        let mut bytes = MAGIC.to_vec();
        bytes.extend_from_slice(&(MAX_PAYLOAD_LEN + 1).to_le_bytes());
        reader.push(&bytes);
        assert!(matches!(reader.next_msg(), Err(WireError::Oversized(_))));

        let mut reader = FrameReader::new();
        reader.push(b"GARBAGE-GARBAGE!");
        assert!(matches!(reader.next_msg(), Err(WireError::BadMagic)));
    }
}
