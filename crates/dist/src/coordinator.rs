//! Coordinator-side runtime: spawn, handshake, dispatch, repair.
//!
//! The coordinator owns the optimizer state and the canonical RNG; the
//! workers own nothing. Each step it broadcasts `(step, rng state,
//! params, shard assignment)` to every live worker, collects one `Grad`
//! frame per logical shard, and hands the complete, shard-indexed set
//! back to the caller for the fixed-order reduction.
//!
//! # Membership state machine
//!
//! ```text
//!            spawn            Hello/Init             Step/Grad/Heartbeat
//! (absent) ────────▶ PENDING ───────────▶ LIVE ◀─────────────────────┐
//!                       │                   │                        │
//!                       │ handshake         │ EOF / corrupt frame /  │
//!                       │ timeout           │ exit / heartbeat silence
//!                       ▼                   ▼                        │
//!                     error          DEAD: discard partial step      │
//!                                      │ restarts < max_restarts     │
//!                                      ├──────────▶ respawn rank ────┘
//!                                      │            (incarnation+1)
//!                                      └ otherwise ▶ drop rank, re-shard
//!                                                    over survivors
//! ```
//!
//! Either repair path replays the interrupted step from the retained
//! step inputs; parameters advance only on a complete collection, so
//! the run's bits never depend on which deaths occurred.
//!
//! Burying a worker — after a death, or at shutdown — reaps it, drains
//! its socket (its last words outlive the process) and writes the
//! incarnation's post-mortem; the coordinator is its only writer.

use std::collections::BTreeMap;
use std::io::{self, Read};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use tyxe_obs::flight::LastWords;
use tyxe_obs::metrics::{counter, counter_tagged, gauge, gauge_tagged, histogram_tagged, Counter};

use crate::telemetry::{DistTelemetry, RankTelemetry};
use crate::wire::{encode_frame_parts, write_frame_vectored, FrameParts, FrameReader, Msg};
use crate::{assign_shards, DistConfig, ShardResult, SpawnMode};
use crate::{ENV_ADDR, ENV_INCARNATION, ENV_RANK, ENV_ROLE, ENV_SESSION};

/// Read timeout during the `Hello` handshake (the one phase where the
/// stream is still in blocking mode).
const POLL_TIMEOUT: Duration = Duration::from_millis(5);
/// How long a spawned worker gets to connect and say `Hello`.
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(30);
/// Collect-sweep back-off when no worker had bytes ready. Live worker
/// streams are nonblocking so one sweep over N ranks costs microseconds,
/// not N read timeouts; this bounds the spin while everyone computes.
const IDLE_SLEEP: Duration = Duration::from_micros(500);
/// Silence (no frame of any kind) after which a live worker is declared
/// dead; workers heartbeat every 25 ms.
const HEARTBEAT_TIMEOUT: Duration = Duration::from_secs(10);

/// Full-frame send against a nonblocking stream, one `writev` per
/// attempt (header + payload + CRC gathered in a single syscall, no
/// concatenating copy of megabyte-scale `Step` params). A full send
/// buffer is latency (short sleep, retry), not death; any other error
/// is the caller's signal that the peer is gone.
fn write_frame(stream: &mut UnixStream, parts: &FrameParts) -> io::Result<()> {
    write_frame_vectored(stream, parts, || std::thread::sleep(IDLE_SLEEP))
}

/// What the distributed run did, for reports and assertions.
#[derive(Debug, Clone, Default)]
pub struct DistReport {
    /// Steps completed (complete collections + reductions).
    pub steps: u64,
    /// Worker respawns performed after a death.
    pub worker_restarts: u64,
    /// Ranks dropped after exhausting their respawn budget.
    pub ranks_lost: u64,
    /// Frames rejected for bad magic/CRC/decoding.
    pub frames_rejected: u64,
    /// Human-readable membership events, in order.
    pub events: Vec<String>,
    /// Cross-process telemetry collected over the run (present after
    /// shutdown when observability was enabled; see
    /// [`DistTelemetry::merged_chrome_trace`]).
    pub telemetry: Option<DistTelemetry>,
}

impl DistReport {
    /// Multi-line summary; scripts assert on the `worker restarts:`
    /// line, keep its shape stable.
    pub fn summary(&self) -> String {
        let mut s = format!(
            "dist steps completed:    {}\nworker restarts:  {}\nranks lost:       {}\nframes rejected:  {}",
            self.steps, self.worker_restarts, self.ranks_lost, self.frames_rejected
        );
        for e in &self.events {
            s.push_str("\n  event: ");
            s.push_str(e);
        }
        s
    }
}

struct WorkerSlot {
    incarnation: u64,
    child: Child,
    conn: UnixStream,
    reader: FrameReader,
    last_seen: Instant,
    frames: Counter,
}

impl WorkerSlot {
    /// Moves everything the worker has written so far into the frame
    /// reader; the stream is nonblocking, so an empty socket costs one
    /// syscall. `Ok(None)`: the worker closed its end.
    fn pull(&mut self, buf: &mut [u8]) -> io::Result<Option<usize>> {
        let mut total = 0;
        loop {
            match self.conn.read(buf) {
                Ok(0) => return Ok(None),
                Ok(n) => {
                    total += n;
                    self.last_seen = Instant::now();
                    self.reader.push(&buf[..n]);
                }
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    return Ok(Some(total))
                }
                Err(e) => return Err(e),
            }
        }
    }
}

/// Drives N worker processes through lockstep SVI steps.
pub struct Coordinator {
    cfg: DistConfig,
    session: u64,
    param_lens: Vec<u64>,
    autocast: u32,
    sock_path: PathBuf,
    listener: UnixListener,
    workers: BTreeMap<u32, WorkerSlot>,
    /// Ranks spawned but not yet through the `Hello`/`Init` handshake.
    pending: Vec<(u32, u64, Child)>,
    restarts: BTreeMap<u32, u64>,
    report: DistReport,
    /// Distributed trace id stamped into every `Step` (nonzero iff
    /// observability was on at launch).
    trace_id: u64,
    /// UNIX ns of this process's trace epoch (the reference clock all
    /// worker timestamps are normalized to).
    coord_epoch_unix_ns: u64,
    /// Telemetry accumulated per `(rank, incarnation)` — obs on or off:
    /// last words arrive either way and feed the post-mortems.
    telemetry: BTreeMap<(u32, u64), RankTelemetry>,
}

fn proto_err(msg: String) -> io::Error {
    io::Error::other(msg)
}

impl Coordinator {
    /// Binds this launch's socket, spawns `cfg.workers` workers and
    /// completes their handshakes.
    pub fn launch(
        cfg: &DistConfig,
        session: u64,
        param_lens: Vec<u64>,
        autocast: u32,
    ) -> io::Result<Coordinator> {
        assert!(cfg.workers >= 1, "Coordinator::launch: at least one worker");
        assert!(cfg.num_shards >= 1, "Coordinator::launch: at least one shard");
        // Unique per launch, not per session: two coordinators of one
        // process (two `#[test]`s on two libtest threads) may carry the
        // same session key and must not unlink each other's socket.
        static LAUNCHES: AtomicU64 = AtomicU64::new(0);
        let sock_path = std::env::temp_dir().join(format!(
            "tyxe-dist-{}-{}.sock",
            std::process::id(),
            LAUNCHES.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_file(&sock_path);
        let listener = UnixListener::bind(&sock_path)?;
        listener.set_nonblocking(true)?;
        if let Some(dir) = &cfg.telemetry_dir {
            std::fs::create_dir_all(dir)?;
        }
        // One trace id per session, derived from the wall clock and
        // session number: nonzero whenever tracing is on, never fed
        // back into numerics.
        let coord_epoch_unix_ns = tyxe_obs::trace::epoch_unix_ns();
        let trace_id = if tyxe_obs::enabled() {
            (coord_epoch_unix_ns ^ (session.wrapping_add(1) << 1)) | 1
        } else {
            0
        };
        let mut co = Coordinator {
            cfg: cfg.clone(),
            session,
            param_lens,
            autocast,
            sock_path,
            listener,
            workers: BTreeMap::new(),
            pending: Vec::new(),
            restarts: BTreeMap::new(),
            report: DistReport::default(),
            trace_id,
            coord_epoch_unix_ns,
            telemetry: BTreeMap::new(),
        };
        for rank in 0..cfg.workers as u32 {
            co.restarts.insert(rank, 0);
            co.spawn_worker(rank, 0)?;
        }
        co.accept_pending()?;
        gauge("dist.workers_live").set(co.workers.len() as f64);
        Ok(co)
    }

    fn spawn_worker(&mut self, rank: u32, incarnation: u64) -> io::Result<()> {
        let exe = std::env::current_exe()?;
        let mut cmd = Command::new(exe);
        match &self.cfg.spawn {
            SpawnMode::SameArgs => {
                cmd.args(std::env::args().skip(1));
            }
            SpawnMode::TestFunction(name) => {
                cmd.args([name.as_str(), "--exact", "--nocapture", "--test-threads=1"]);
            }
        }
        cmd.env(ENV_ROLE, "worker")
            .env(ENV_RANK, rank.to_string())
            .env(ENV_ADDR, &self.sock_path)
            .env(ENV_SESSION, self.session.to_string())
            .env(ENV_INCARNATION, incarnation.to_string());
        // Forward the *resolved* fault plan, every field: tests arm it
        // in-process with `set_faults`, which children do not inherit.
        for (name, value) in tyxe_par::fault::faults().to_env() {
            match value {
                Some(v) => cmd.env(name, v),
                None => cmd.env_remove(name),
            };
        }
        // Forward the *resolved* observability state the same way:
        // tests and `--trace` flags arm it via `set_enabled`, which
        // children would otherwise not inherit.
        cmd.env("TYXE_OBS", if tyxe_obs::enabled() { "1" } else { "0" });
        cmd.stdin(Stdio::null());
        // Worker stdout/stderr would interleave with the coordinator's
        // (breaking script output parsing); silence unless debugging.
        if std::env::var("TYXE_DIST_CHILD_OUTPUT").map_or(true, |v| v != "1") {
            cmd.stdout(Stdio::null()).stderr(Stdio::null());
        }
        let child = cmd.spawn()?;
        self.pending.push((rank, incarnation, child));
        Ok(())
    }

    /// Accepts connections until every pending worker has completed the
    /// `Hello` → `Init` handshake. Gives up at the deadline, or as soon
    /// as every pending child has exited with nothing left to accept.
    fn accept_pending(&mut self) -> io::Result<()> {
        let mut rejected: Vec<String> = Vec::new();
        let deadline = Instant::now() + HANDSHAKE_TIMEOUT;
        while !self.pending.is_empty() {
            if Instant::now() > deadline {
                return Err(self.handshake_failure("timed out", rejected));
            }
            let stream = match self.listener.accept() {
                Ok((s, _)) => s,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    if self.pending.iter_mut().all(|p| !matches!(p.2.try_wait(), Ok(None))) {
                        return Err(self.handshake_failure("failed", rejected));
                    }
                    std::thread::sleep(Duration::from_millis(2));
                    continue;
                }
                Err(e) => return Err(e),
            };
            if let Err(e) = self.handshake(stream, deadline) {
                // A garbled or stray connection is dropped, not fatal:
                // its worker (if any) will be declared dead later.
                let event = format!("handshake rejected: {e}");
                self.report.events.push(event.clone());
                rejected.push(event);
            }
        }
        Ok(())
    }

    /// Kills and reaps the still-pending children and says, per rank,
    /// what became of each, followed by the connections `rejected`
    /// during this wait — the caller gets an error, never the report
    /// those events also sit in.
    fn handshake_failure(&mut self, verdict: &str, rejected: Vec<String>) -> io::Error {
        let mut why: Vec<String> = Vec::new();
        for (rank, _, mut child) in std::mem::take(&mut self.pending) {
            why.push(match child.try_wait() {
                Ok(Some(status)) => format!("rank {rank} exited ({status}) before Hello"),
                Ok(None) => format!("rank {rank} still running, never said Hello"),
                Err(e) => format!("rank {rank} could not be waited on ({e})"),
            });
            let _ = child.kill();
            let _ = child.wait();
        }
        why.extend(rejected);
        proto_err(format!("dist handshake {verdict}: {}", why.join("; ")))
    }

    fn handshake(&mut self, mut stream: UnixStream, deadline: Instant) -> io::Result<()> {
        stream.set_read_timeout(Some(POLL_TIMEOUT))?;
        let mut reader = FrameReader::new();
        let mut buf = [0u8; 4096];
        let hello = loop {
            match reader.next_msg() {
                Ok(Some(msg)) => break msg,
                Ok(None) => {}
                Err(e) => return Err(proto_err(format!("bad hello frame: {e}"))),
            }
            if Instant::now() > deadline {
                return Err(proto_err("hello timed out".into()));
            }
            match stream.read(&mut buf) {
                Ok(0) => return Err(proto_err("peer closed before hello".into())),
                Ok(n) => reader.push(&buf[..n]),
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut => {}
                Err(e) => return Err(e),
            }
        };
        let (rank, incarnation, worker_epoch) = match hello {
            Msg::Hello { rank, incarnation, epoch_unix_ns } => (rank, incarnation, epoch_unix_ns),
            other => return Err(proto_err(format!("expected hello, got {other:?}"))),
        };
        let idx = self
            .pending
            .iter()
            .position(|(r, i, _)| *r == rank && *i == incarnation)
            .ok_or_else(|| proto_err(format!("unexpected hello from rank {rank}")))?;
        let (_, _, child) = self.pending.swap_remove(idx);
        let init = Msg::Init {
            num_shards: self.cfg.num_shards as u32,
            autocast: self.autocast,
            param_lens: self.param_lens.clone(),
        };
        // Still in blocking mode during the handshake: vectored write
        // with no back-off (a blocking stream never reports WouldBlock).
        write_frame_vectored(&mut stream, &encode_frame_parts(&init), || {})?;
        // Past the handshake the stream goes nonblocking: the collect
        // sweep must poll N workers without paying a read timeout each.
        stream.set_nonblocking(true)?;
        let rank_tag = rank.to_string();
        self.workers.insert(
            rank,
            WorkerSlot {
                incarnation,
                child,
                conn: stream,
                reader,
                last_seen: Instant::now(),
                frames: counter_tagged("dist.frames", &[("rank", rank_tag.as_str())], "count"),
            },
        );
        // 0 = the worker didn't report an epoch (legacy frame): leave
        // its clock unshifted rather than warping to 1970.
        let clock_offset_ns = match worker_epoch {
            0 => 0,
            epoch => epoch as i64 - self.coord_epoch_unix_ns as i64,
        };
        let rt = RankTelemetry { rank, incarnation, clock_offset_ns, ..RankTelemetry::default() };
        self.telemetry.insert((rank, incarnation), rt);
        self.report.events.push(format!("rank {rank} joined (incarnation {incarnation})"));
        Ok(())
    }

    /// Runs one lockstep step: broadcast, collect one `Grad` per shard,
    /// repairing membership and replaying on any worker death. Returns
    /// the complete shard set, sorted ascending.
    pub fn step(
        &mut self,
        step: u64,
        rng_state: [u64; 4],
        params: &[Vec<f64>],
    ) -> io::Result<Vec<ShardResult>> {
        let t_step = Instant::now();
        // The step span's id goes out in every broadcast frame so
        // worker-side step spans parent under it in the merged trace.
        let span =
            tyxe_obs::trace::SpanGuard::enter_with_arg("dist.step", format!("step={step}"));
        let span_id = span.span_id();
        loop {
            let live: Vec<u32> = self.workers.keys().copied().collect();
            if live.is_empty() {
                return Err(proto_err("all distributed workers lost".into()));
            }
            let assignment = assign_shards(self.cfg.num_shards as u32, &live);
            let t_broadcast = Instant::now();
            let mut dead: Vec<(u32, String)> = Vec::new();
            for (rank, shards) in &assignment {
                let msg = Msg::Step {
                    step,
                    rng_state,
                    shards: shards.clone(),
                    params: params.to_vec(),
                    trace_id: self.trace_id,
                    span_id,
                };
                let slot = self.workers.get_mut(rank).expect("assigned rank is live");
                if let Err(e) = write_frame(&mut slot.conn, &encode_frame_parts(&msg)) {
                    dead.push((*rank, format!("broadcast failed: {e}")));
                }
            }
            if dead.is_empty() {
                histogram_tagged("dist.phase_us", &[("phase", "broadcast")], "us")
                    .record(t_broadcast.elapsed().as_micros() as u64);
                let t_collect = Instant::now();
                match self.collect(step)? {
                    Ok(results) => {
                        histogram_tagged("dist.phase_us", &[("phase", "collect")], "us")
                            .record(t_collect.elapsed().as_micros() as u64);
                        histogram_tagged("dist.step_latency_ms", &[], "ms")
                            .record(t_step.elapsed().as_millis() as u64);
                        self.report.steps += 1;
                        self.publish_liveness();
                        return Ok(results);
                    }
                    Err(d) => dead = d,
                }
            }
            self.repair(dead)?;
        }
    }

    /// Collects one `Grad` per shard, or the ranks that died trying
    /// (each with how it died).
    #[allow(clippy::type_complexity)]
    fn collect(&mut self, step: u64) -> io::Result<Result<Vec<ShardResult>, Vec<(u32, String)>>> {
        let mut got: BTreeMap<u32, ShardResult> = BTreeMap::new();
        let mut buf = vec![0u8; 256 * 1024];
        loop {
            let mut dead: Vec<(u32, String)> = Vec::new();
            let mut progress = false;
            for (&rank, slot) in self.workers.iter_mut() {
                let mut death = match slot.pull(&mut buf) {
                    Ok(Some(n)) => {
                        progress |= n > 0;
                        None
                    }
                    Ok(None) => Some("connection closed".to_string()),
                    Err(e) => Some(format!("read failed: {e}")),
                };
                // Decode complete frames; a corrupt one is death.
                loop {
                    match slot.reader.next_msg() {
                        Ok(Some(msg)) => {
                            slot.frames.inc();
                            match msg {
                                Msg::Grad { step: s, shard, loss, grads } if s == step => {
                                    got.insert(shard, ShardResult { shard, loss, grads });
                                }
                                // Telemetry is recorded; stale grads
                                // (pre-repair broadcast) and heartbeats
                                // only refresh liveness.
                                msg => {
                                    let key = (rank, slot.incarnation);
                                    self.telemetry.entry(key).or_default().absorb(msg);
                                }
                            }
                        }
                        Ok(None) => break,
                        Err(e) => {
                            counter("dist.frames_rejected").inc();
                            self.report.frames_rejected += 1;
                            self.report.events.push(format!("rank {rank}: {e}"));
                            death = Some(e.to_string());
                            break;
                        }
                    }
                }
                if death.is_none() && slot.last_seen.elapsed() > HEARTBEAT_TIMEOUT {
                    self.report.events.push(format!("rank {rank}: heartbeat silence"));
                    death = Some("heartbeat silence".to_string());
                }
                if death.is_none() {
                    if let Ok(Some(status)) = slot.child.try_wait() {
                        // Already-drained socket + exited process: dead
                        // (scheduled kills land here with code 113).
                        self.report.events.push(format!("rank {rank}: exited ({status})"));
                        death = Some("exited".to_string());
                    }
                }
                if let Some(cause) = death {
                    dead.push((rank, cause));
                }
            }
            if !dead.is_empty() {
                return Ok(Err(dead));
            }
            if got.len() == self.cfg.num_shards {
                return Ok(Ok(got.into_values().collect()));
            }
            if !progress {
                std::thread::sleep(IDLE_SLEEP);
            }
        }
    }

    /// Buries dead workers, then respawns (incarnation + 1) while the
    /// rank's budget lasts, or drops the rank for re-sharding.
    fn repair(&mut self, dead: Vec<(u32, String)>) -> io::Result<()> {
        for (rank, cause) in dead {
            let Some(slot) = self.workers.remove(&rank) else { continue };
            self.bury(rank, slot, &cause);
            let used = self.restarts.get(&rank).copied().unwrap_or(0);
            if used < self.cfg.max_restarts {
                self.restarts.insert(rank, used + 1);
                self.report.worker_restarts += 1;
                counter("dist.worker_restarts").inc();
                self.report
                    .events
                    .push(format!("rank {rank} died; respawning (incarnation {})", used + 1));
                self.spawn_worker(rank, used + 1)?;
            } else {
                self.report.ranks_lost += 1;
                self.report.events.push(format!(
                    "rank {rank} died; restart budget exhausted, re-sharding over survivors"
                ));
            }
        }
        self.accept_pending()?;
        self.publish_liveness();
        Ok(())
    }

    fn publish_liveness(&self) {
        gauge("dist.workers_live").set(self.workers.len() as f64);
        for (rank, slot) in &self.workers {
            let tag = rank.to_string();
            gauge_tagged("dist.heartbeat_age_ms", &[("rank", tag.as_str())], "ms")
                .set(slot.last_seen.elapsed().as_secs_f64() * 1e3);
        }
    }

    /// Stops every worker and returns the final report.
    pub fn shutdown(mut self) -> DistReport {
        let shutdown = encode_frame_parts(&Msg::Shutdown);
        for slot in self.workers.values_mut() {
            let _ = write_frame(&mut slot.conn, &shutdown);
        }
        // Each worker answers with its last words and exits; read while
        // waiting, so a full socket buffer cannot stall them.
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut buf = vec![0u8; 256 * 1024];
        for (rank, mut slot) in std::mem::take(&mut self.workers) {
            while matches!(slot.child.try_wait(), Ok(None)) && Instant::now() < deadline {
                let _ = slot.pull(&mut buf);
                std::thread::sleep(Duration::from_millis(2));
            }
            self.bury(rank, slot, "shutdown");
        }
        let _ = std::fs::remove_file(&self.sock_path);
        if tyxe_obs::enabled() {
            let ranks = std::mem::take(&mut self.telemetry).into_values().collect();
            self.report.telemetry = Some(DistTelemetry { ranks });
        }
        std::mem::take(&mut self.report)
    }

    /// Buries one worker incarnation: reaps the process, reads what is
    /// left on its socket (best-effort) and, when a telemetry directory
    /// is set, writes `flight-<rank>-<incarnation>.jsonl`. Without last
    /// words, `cause` and the exit status explain the ending.
    fn bury(&mut self, rank: u32, mut slot: WorkerSlot, cause: &str) {
        let _ = slot.child.kill();
        let status = match slot.child.wait() {
            Ok(status) => status.to_string(),
            Err(e) => format!("unknown ({e})"),
        };
        let _ = slot.pull(&mut vec![0u8; 256 * 1024]);
        let rt = self.telemetry.entry((rank, slot.incarnation)).or_default();
        while let Ok(Some(msg)) = slot.reader.next_msg() {
            rt.absorb(msg);
        }
        let Some(dir) = &self.cfg.telemetry_dir else { return };
        let path = dir.join(format!("flight-{rank}-{}.jsonl", slot.incarnation));
        let silence = LastWords {
            reason: "no last words".to_string(),
            notes: vec![(cause.to_string(), status)],
        };
        let written = rt
            .flight_dump(self.coord_epoch_unix_ns, silence)
            .and_then(|dump| std::fs::write(&path, dump.to_jsonl()).map_err(|e| e.to_string()));
        if let Err(e) = written {
            self.report.events.push(format!("post-mortem `{}` not written: {e}", path.display()));
        }
    }
}

impl Drop for Coordinator {
    fn drop(&mut self) {
        // Best-effort cleanup when dropped without a shutdown (panic
        // paths): no orphaned children, no stray socket.
        for (_, mut slot) in std::mem::take(&mut self.workers) {
            let _ = slot.child.kill();
            let _ = slot.child.wait();
        }
        for (_, _, mut child) in std::mem::take(&mut self.pending) {
            let _ = child.kill();
            let _ = child.wait();
        }
        let _ = std::fs::remove_file(&self.sock_path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handshake_failure_names_each_rank_exit_status_without_waiting_out_the_timeout() {
        // The children re-run this test binary filtered to a test that
        // does not exist: libtest runs nothing and exits 0, no Hello.
        let cfg = DistConfig {
            workers: 2,
            spawn: SpawnMode::TestFunction("no_such_test".into()),
            ..DistConfig::default()
        };
        let t0 = Instant::now();
        let err = Coordinator::launch(&cfg, 0, vec![1], 0).err().expect("nobody says Hello");
        assert!(t0.elapsed() < HANDSHAKE_TIMEOUT / 2, "waited out the timeout: {err}");
        let msg = err.to_string();
        assert!(msg.starts_with("dist handshake failed: "), "{msg}");
        for rank in 0..2 {
            let needle = format!("rank {rank} exited (exit status: 0) before Hello");
            assert!(msg.contains(&needle), "{msg}");
        }
    }
}
