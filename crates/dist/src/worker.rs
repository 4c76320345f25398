//! Worker-side runtime: connect, handshake, compute shards, die on
//! request.
//!
//! A worker process is the *same executable* as the coordinator,
//! re-entered with `TYXE_DIST_ROLE=worker` (see [`crate::worker_env`]).
//! It connects to the coordinator's Unix socket, identifies itself with
//! `Hello`, applies the broadcast `Init`, then serves `Step` requests
//! until `Shutdown` — at which point it exits the process (it never
//! returns into the surrounding program, whose remaining code already
//! ran in the coordinator).
//!
//! The socket is the worker's only way out: it writes no file, and
//! every exit it controls — `Shutdown`, an injected kill, a panic in
//! `run_step`, a protocol error — ends with its [`LastWords`] in one
//! last `Telemetry` frame (DESIGN.md §14).
//!
//! Injected process faults live here: on receiving a `Step`, the worker
//! consults its fault plan's `worker_killed(rank, step, incarnation)`
//! (`tyxe_par::fault::Faults`) and exits with [`crate::KILL_EXIT_CODE`] when the deterministic kill
//! schedule says so.

use std::io::Read;
use std::os::unix::net::UnixStream;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use tyxe_obs::flight::LastWords;
use tyxe_obs::trace::SpanRecord;

use crate::wire::{encode_frame_parts, write_frame_vectored, FrameReader, Msg};
use crate::{ShardCompute, WorkerEnv, KILL_EXIT_CODE};

/// How often a worker ships its accumulated telemetry (drained spans
/// plus a cumulative metrics snapshot). Spans are drained locally every
/// step (a lock and a swap); JSONL formatting, the ~100µs metrics
/// snapshot and the send happen only on this cadence. The first step
/// always ships, and the last words carry whatever is left pending.
const TELEMETRY_SHIP_INTERVAL: Duration = Duration::from_millis(200);

/// Interval at which a worker emits heartbeat frames between steps.
const HEARTBEAT_INTERVAL: Duration = Duration::from_millis(25);

/// Exit code of a worker whose `run_step` panicked — Rust's own.
const PANIC_EXIT_CODE: i32 = 101;

/// Sends one frame under the shared write lock (heartbeats and grads
/// come from different threads; whole-frame writes under the lock keep
/// them from interleaving into torn frames). Vectored: header, payload
/// and CRC go down in one `writev` instead of a concatenating copy —
/// `Grad` frames carry full parameter-shard gradients, so the copy is
/// not small. The worker stream is blocking, so no back-off is needed.
fn send(stream: &Mutex<UnixStream>, msg: &Msg) -> std::io::Result<()> {
    let parts = encode_frame_parts(msg);
    let mut s = stream.lock().unwrap();
    write_frame_vectored(&mut *s, &parts, || {})
}

/// The worker's write half and the telemetry it has not shipped yet.
struct Outbox {
    rank: u32,
    incarnation: u64,
    writer: Arc<Mutex<UnixStream>>,
    /// Last step seen, shared with the heartbeat thread.
    last_step: Arc<AtomicU64>,
    pending: Vec<SpanRecord>,
    last_ship: Option<Instant>,
}

impl Outbox {
    /// Ships every pending span and a metrics snapshot, opened by
    /// `last_words` when this is the final frame.
    fn ship(&mut self, last_words: Option<&LastWords>) -> std::io::Result<()> {
        self.pending.extend(tyxe_obs::trace::drain());
        let mut spans_jsonl = last_words.map(LastWords::to_jsonl).unwrap_or_default();
        spans_jsonl.push_str(&tyxe_obs::trace::spans_to_jsonl(&self.pending));
        self.pending.clear();
        self.last_ship = Some(Instant::now());
        send(
            &self.writer,
            &Msg::Telemetry {
                rank: self.rank,
                incarnation: self.incarnation,
                step: self.last_step.load(Ordering::Relaxed),
                dropped: tyxe_obs::trace::dropped_by_thread(),
                spans_jsonl,
                metrics_jsonl: tyxe_obs::metrics::snapshot_jsonl(),
            },
        )
    }
}

/// How the serving loop ends: the process exit code and the last words
/// that precede it, `detail` noted under the reason.
fn ending(code: i32, reason: &str, detail: Option<String>) -> (i32, LastWords) {
    let notes = detail.map(|d| (reason.to_string(), d)).into_iter().collect();
    (code, LastWords { reason: reason.to_string(), notes })
}

/// Runs the worker loop to process exit; never returns.
///
/// Protocol errors and a vanished coordinator also exit (non-zero): an
/// orphaned worker must die rather than linger as a zombie process.
/// Last words are best-effort — a coordinator that has gone hears
/// nothing, and nothing else is left behind.
pub fn run_worker(compute: &mut dyn ShardCompute, env: &WorkerEnv) -> ! {
    let Ok((conn, writer)) =
        UnixStream::connect(&env.addr).and_then(|c| Ok((c.try_clone()?, c)))
    else {
        std::process::exit(1);
    };
    let mut out = Outbox {
        rank: env.rank,
        incarnation: env.incarnation,
        writer: Arc::new(Mutex::new(writer)),
        last_step: Arc::new(AtomicU64::new(0)),
        pending: Vec::new(),
        last_ship: None,
    };
    let (code, words) = serve(compute, env, conn, &mut out)
        .unwrap_or_else(|e| ending(1, "fatal", Some(e.to_string())));
    let _ = out.ship(Some(&words));
    std::process::exit(code);
}

fn serve(
    compute: &mut dyn ShardCompute,
    env: &WorkerEnv,
    mut conn: UnixStream,
    out: &mut Outbox,
) -> std::io::Result<(i32, LastWords)> {
    send(
        &out.writer,
        &Msg::Hello {
            rank: env.rank,
            incarnation: env.incarnation,
            epoch_unix_ns: tyxe_obs::trace::epoch_unix_ns(),
        },
    )?;

    let mut reader = FrameReader::new();
    let (num_shards, autocast, param_lens) = loop {
        match next_msg(&mut conn, &mut reader)? {
            Msg::Init { num_shards, autocast, param_lens } => {
                break (num_shards, autocast, param_lens)
            }
            Msg::Shutdown => return Ok(ending(0, "shutdown", None)),
            _ => {}
        }
    };
    assert_eq!(
        param_lens,
        compute.param_lens(),
        "dist worker rank {}: parameter layout disagrees with coordinator",
        env.rank
    );
    compute.set_autocast_code(autocast);

    // Heartbeat thread: liveness between collections. Tracks the last
    // step seen so the coordinator's logs can localise a stall.
    {
        let writer = Arc::clone(&out.writer);
        let last_step = Arc::clone(&out.last_step);
        std::thread::spawn(move || loop {
            std::thread::sleep(HEARTBEAT_INTERVAL);
            let msg = Msg::Heartbeat { step: last_step.load(Ordering::Relaxed) };
            if send(&writer, &msg).is_err() {
                return; // coordinator gone; main loop will exit too
            }
        });
    }

    loop {
        match next_msg(&mut conn, &mut reader)? {
            Msg::Step { step, rng_state, shards, params, trace_id, span_id } => {
                if tyxe_par::fault::faults().worker_killed(env.rank as u64, step, env.incarnation) {
                    // Injected process fault: die mid-protocol, without
                    // a Grad, like a crash would — but naming the kill.
                    return Ok(ending(KILL_EXIT_CODE, "fault.kill", Some(format!("step={step}"))));
                }
                out.last_step.store(step, Ordering::Relaxed);
                let results = {
                    // Parent this span under the coordinator's step span
                    // so the merged trace stitches across processes.
                    let _span = tyxe_obs::trace::SpanGuard::enter_remote_child(
                        "dist.worker.step",
                        trace_id,
                        span_id,
                        format!("step={step}"),
                    );
                    catch_unwind(AssertUnwindSafe(|| {
                        compute.run_step(step, rng_state, &params, &shards, num_shards)
                    }))
                };
                let results = match results {
                    Ok(results) => results,
                    Err(payload) => {
                        let msg = payload.downcast_ref::<&str>().map(|s| s.to_string());
                        let msg = msg.or_else(|| payload.downcast_ref::<String>().cloned());
                        return Ok(ending(PANIC_EXIT_CODE, "panic", msg));
                    }
                };
                for r in results {
                    send(
                        &out.writer,
                        &Msg::Grad { step, shard: r.shard, loss: r.loss, grads: r.grads },
                    )?;
                }
                // Drain this step's spans locally (cheap) and ship on the
                // interval — always *after* the step's Grad frames: they
                // sit on the coordinator's collection barrier, so nothing
                // may delay them.
                if tyxe_obs::enabled() {
                    out.pending.extend(tyxe_obs::trace::drain());
                    if out.last_ship.is_none_or(|t| t.elapsed() >= TELEMETRY_SHIP_INTERVAL) {
                        out.ship(None)?;
                    }
                }
            }
            Msg::Shutdown => return Ok(ending(0, "shutdown", None)),
            _ => {}
        }
    }
}

/// Blocking read of the next message from the coordinator.
fn next_msg(conn: &mut UnixStream, reader: &mut FrameReader) -> std::io::Result<Msg> {
    let mut buf = [0u8; 64 * 1024];
    loop {
        match reader.next_msg() {
            Ok(Some(msg)) => return Ok(msg),
            Ok(None) => {}
            Err(e) => {
                return Err(std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))
            }
        }
        let n = conn.read(&mut buf)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "coordinator closed the connection",
            ));
        }
        reader.push(&buf[..n]);
    }
}
