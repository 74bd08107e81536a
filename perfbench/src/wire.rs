//! The load generator's side of the wire: one data connection split into a
//! sending half (the main thread) and a receiving half (one scoped
//! thread), with the sessions multiplexed over it.

use crate::alloc::thread_allocs;
use crate::stats::now_ns;
use crate::trace::{Tracer, ROOT};
use crate::workload::{session_id, session_token, Inputs};
use avoc_core::ModuleId;
use avoc_net::message::DecodeError;
use avoc_net::{BatchReading, Message, SpecSource};
use bytes::BytesMut;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// A receiver that sees no progress for this long gives up; the verdicts
/// it never got count as failed.
const STALL_NS: u64 = 3_000_000_000;
/// Corked bytes that force a write during the saturation phase.
const CORK_BYTES: usize = 64 * 1024;

pub const GOT: u8 = 1;
pub const SOME: u8 = 2;
pub const VOTED: u8 = 4;

/// Every verdict received, by session index and round.
pub struct Ledger {
    pub values: Vec<Vec<u64>>,
    pub flags: Vec<Vec<u8>>,
    pub received: u64,
    pub duplicates: u64,
    pub out_of_range: u64,
    pub errors: u64,
    pub unexpected: u64,
    pub frames_in: u64,
    pub bytes_in: u64,
}

impl Ledger {
    pub fn new(sessions: usize, rounds: usize) -> Ledger {
        Ledger {
            values: vec![vec![0; rounds]; sessions],
            flags: vec![vec![0; rounds]; sessions],
            received: 0,
            duplicates: 0,
            out_of_range: 0,
            errors: 0,
            unexpected: 0,
            frames_in: 0,
            bytes_in: 0,
        }
    }

    /// Records one verdict; returns whether it was new.
    fn record(&mut self, session: u64, round: u64, value: Option<f64>, voted: bool) -> bool {
        let s = session.wrapping_sub(1) as usize;
        let r = round as usize;
        if s >= self.flags.len() || r >= self.flags[s].len() {
            self.out_of_range += 1;
            return false;
        }
        if self.flags[s][r] & GOT != 0 {
            self.duplicates += 1;
            return false;
        }
        let mut f = GOT;
        if let Some(v) = value {
            f |= SOME;
            self.values[s][r] = v.to_bits();
        }
        if voted {
            f |= VOTED;
        }
        self.flags[s][r] = f;
        self.received += 1;
        true
    }
}

/// The open-loop arrival schedule: frame `k` is due at
/// `t0 + k / rate`; it carries session `order[k % S]`'s rounds
/// `r0 + (k / S) * F ..+ F`.
pub struct Schedule {
    pub t0_ns: u64,
    pub frames_per_s: f64,
    pub r0: u64,
    pub r1: u64,
    pub rounds_per_frame: u64,
    pub sessions: u64,
    /// Position of session index `s` within a tick.
    pub pos: Vec<u32>,
}

impl Schedule {
    pub fn due_ns(&self, frame: u64) -> u64 {
        self.t0_ns + (frame as f64 * 1e9 / self.frames_per_s) as u64
    }

    fn round_due_ns(&self, s: usize, round: u64) -> u64 {
        let tick = (round - self.r0) / self.rounds_per_frame;
        self.due_ns(tick * self.sessions + u64::from(self.pos[s]))
    }
}

/// Shared between the sender and the receiver for one phase.
pub struct Phase {
    /// Verdicts the phase expects (`u64::MAX` until the sender knows).
    pub target: AtomicU64,
    /// Verdicts received so far in this phase.
    pub got: AtomicU64,
    /// When the last verdict of the phase arrived.
    pub last_ns: AtomicU64,
    /// The sending thread, unparked by the receiver on every verdict frame
    /// so a sender waiting for window room blocks instead of polling.
    sender: std::thread::Thread,
}

impl Phase {
    /// Created on the sending thread.
    pub fn new(target: u64) -> Phase {
        Phase {
            target: AtomicU64::new(target),
            got: AtomicU64::new(0),
            last_ns: AtomicU64::new(0),
            sender: std::thread::current(),
        }
    }

    /// Blocks the sender until a verdict arrives (or 5 ms pass).
    fn wait_for_room(&self) {
        std::thread::park_timeout(Duration::from_millis(5));
    }
}

pub struct Tx {
    stream: TcpStream,
    scratch: BytesMut,
    batch: Vec<BatchReading>,
    pub writes: u64,
    pub frames_out: u64,
    pub bytes_out: u64,
    pub readings_out: u64,
}

pub struct Rx {
    stream: TcpStream,
    buf: BytesMut,
    chunk: Vec<u8>,
}

pub fn connect(addr: SocketAddr, modules: usize, rounds_per_frame: usize) -> io::Result<(Tx, Rx)> {
    let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5))?;
    stream.set_nodelay(true)?;
    let rx = stream.try_clone()?;
    rx.set_read_timeout(Some(Duration::from_millis(100)))?;
    Ok((
        Tx {
            stream,
            scratch: BytesMut::with_capacity(4 << 20),
            batch: vec![
                BatchReading {
                    module: ModuleId::new(0),
                    round: 0,
                    value: 0.0
                };
                modules * rounds_per_frame
            ],
            writes: 0,
            frames_out: 0,
            bytes_out: 0,
            readings_out: 0,
        },
        Rx {
            stream: rx,
            buf: BytesMut::with_capacity(1 << 20),
            chunk: vec![0; 256 * 1024],
        },
    ))
}

impl Tx {
    /// Encodes session index `s`'s rounds `first..first + F` as one
    /// `FeedBatch` frame into the cork buffer (no allocation once warm).
    pub fn encode_frame(&mut self, inputs: &Inputs, s: usize, first: u64, tracer: &mut Tracer) {
        let m = inputs.modules;
        for (i, slot) in self.batch.iter_mut().enumerate() {
            let round = first + (i / m) as u64;
            let module = i % m;
            slot.module = ModuleId::new(module as u32);
            slot.round = round;
            slot.value = inputs.value(s, round, module);
        }
        let span = tracer.begin("net.message.encode", ROOT, session_id(s), first);
        Message::encode_feed_batch_into(session_id(s), &self.batch, &mut self.scratch);
        tracer.end(span);
        self.frames_out += 1;
        self.readings_out += self.batch.len() as u64;
    }

    pub fn corked(&self) -> usize {
        self.scratch.len()
    }

    pub fn flush(&mut self, tracer: &mut Tracer) -> io::Result<()> {
        if self.scratch.is_empty() {
            return Ok(());
        }
        let span = tracer.begin("net.socket.write", ROOT, 0, self.scratch.len() as u64);
        let r = self.stream.write_all(&self.scratch);
        tracer.end(span);
        r?;
        self.writes += 1;
        self.bytes_out += self.scratch.len() as u64;
        self.scratch.clear();
        Ok(())
    }

    fn send_msg(&mut self, msg: &Message) {
        msg.encode_into(&mut self.scratch);
    }
}

impl Rx {
    /// Reads and decodes until `want` frames matching `pick` arrived.
    fn frames(
        &mut self,
        want: usize,
        mut pick: impl FnMut(Message) -> io::Result<bool>,
    ) -> io::Result<()> {
        let mut seen = 0;
        let mut last = now_ns();
        while seen < want {
            match Message::decode(&mut self.buf) {
                Ok(msg) => {
                    if pick(msg)? {
                        seen += 1;
                    }
                    continue;
                }
                Err(DecodeError::Incomplete) => {}
                Err(e) => return Err(io::Error::other(format!("undecodable frame: {e}"))),
            }
            match self.stream.read(&mut self.chunk) {
                Ok(0) => return Err(io::Error::other("daemon closed the connection")),
                Ok(n) => {
                    self.buf.extend_from_slice(&self.chunk[..n]);
                    last = now_ns();
                }
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    if now_ns() - last > STALL_NS {
                        return Err(io::Error::other("daemon stalled during the handshake"));
                    }
                }
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }
}

/// Opens (or resumes) every session over the connection, in chunks so
/// neither side's socket buffer fills. Returns each session's `warm` flag.
pub fn resume_all(
    tx: &mut Tx,
    rx: &mut Rx,
    sessions: usize,
    modules: u32,
    seed: u64,
    last_acked: Option<u64>,
) -> io::Result<Vec<bool>> {
    let mut warm = vec![false; sessions];
    let mut none = Tracer::new(false, 0);
    for start in (0..sessions).step_by(256) {
        let end = (start + 256).min(sessions);
        for s in start..end {
            tx.send_msg(&Message::ResumeSession {
                session: session_id(s),
                modules,
                spec: SpecSource::Named("avoc".into()),
                token: session_token(seed, s),
                last_acked,
            });
        }
        tx.flush(&mut none)?;
        rx.frames(end - start, |msg| match msg {
            Message::Resumed {
                session, warm: w, ..
            } => {
                let s = session.wrapping_sub(1) as usize;
                if s < sessions {
                    warm[s] = w;
                }
                Ok(true)
            }
            Message::Error { session, message } => Err(io::Error::other(format!(
                "session {session} refused: {message}"
            ))),
            _ => Ok(false),
        })?;
    }
    Ok(warm)
}

/// What the receiving half saw in one phase.
#[derive(Default)]
pub struct RxOutcome {
    /// Open-loop reading→verdict latencies, ns from when each round was
    /// due.
    pub latencies: Vec<u64>,
    pub error: Option<String>,
    pub tracer: Option<Tracer>,
    /// When the phase's last verdict arrived.
    pub last_ns: u64,
}

/// The receiving half: decodes verdicts into the ledger until the phase's
/// target is met (or the daemon stalls), timing open-loop rounds against
/// their schedule.
pub fn receive(
    rx: &mut Rx,
    ledger: &mut Ledger,
    phase: &Phase,
    schedule: Option<&Schedule>,
    latency_capacity: usize,
    mut tracer: Tracer,
) -> RxOutcome {
    let mut out = RxOutcome {
        latencies: Vec::with_capacity(latency_capacity),
        ..RxOutcome::default()
    };
    let mut last = now_ns();
    loop {
        loop {
            let span = tracer.begin("net.message.decode", ROOT, 0, 0);
            let before = rx.buf.len();
            match Message::decode(&mut rx.buf) {
                Ok(msg) => {
                    tracer.end(span);
                    ledger.frames_in += 1;
                    ledger.bytes_in += (before - rx.buf.len()) as u64;
                    let now = now_ns();
                    let mut fresh = 0u64;
                    let mut note = |ledger: &mut Ledger, session: u64, round: u64, value, voted| {
                        if ledger.record(session, round, value, voted) {
                            fresh += 1;
                            if let Some(sc) = schedule {
                                if round >= sc.r0 && round < sc.r1 {
                                    let s = (session - 1) as usize;
                                    out.latencies
                                        .push(now.saturating_sub(sc.round_due_ns(s, round)));
                                }
                            }
                        }
                    };
                    match msg {
                        Message::SessionResult {
                            session,
                            round,
                            value,
                            voted,
                        } => note(ledger, session, round, value, voted),
                        Message::ResultBatch { session, results } => {
                            for r in results {
                                note(ledger, session, r.round, r.value, r.voted);
                            }
                        }
                        Message::Error { session, message } => {
                            if ledger.errors < 4 {
                                eprintln!("daemon error for session {session}: {message}");
                            }
                            ledger.errors += 1;
                        }
                        _ => ledger.unexpected += 1,
                    }
                    if fresh > 0 {
                        phase.got.fetch_add(fresh, Ordering::Release);
                        phase.last_ns.store(now, Ordering::Release);
                        phase.sender.unpark();
                        last = now;
                    }
                }
                Err(DecodeError::Incomplete) => {
                    tracer.cancel(span);
                    break;
                }
                Err(e) => {
                    out.error = Some(format!("undecodable frame: {e}"));
                    out.tracer = Some(tracer);
                    return out;
                }
            }
        }
        if phase.got.load(Ordering::Acquire) >= phase.target.load(Ordering::Acquire) {
            break;
        }
        let span = tracer.begin("net.socket.read", ROOT, 0, 0);
        let read = rx.stream.read(&mut rx.chunk);
        tracer.end(span);
        match read {
            Ok(0) => {
                out.error = Some("daemon closed the connection".into());
                break;
            }
            Ok(n) => rx.buf.extend_from_slice(&rx.chunk[..n]),
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                if now_ns() - last > STALL_NS {
                    out.error = Some(format!(
                        "no verdict for {} s: {} of {} arrived",
                        STALL_NS / 1_000_000_000,
                        phase.got.load(Ordering::Acquire),
                        phase.target.load(Ordering::Acquire)
                    ));
                    break;
                }
            }
            Err(e) => {
                out.error = Some(format!("read failed: {e}"));
                break;
            }
        }
    }
    out.tracer = Some(tracer);
    out.last_ns = phase.last_ns.load(Ordering::Acquire);
    out
}

/// What the sending half measured in one phase.
#[derive(Default)]
pub struct TxOutcome {
    pub rounds: u64,
    pub readings: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Allocations made by the feed path (encode + write) in the phase.
    pub allocs: u64,
    /// Open loop only: how late each frame left, in ns.
    pub late_ns: Vec<u64>,
    /// Open loop only: rounds in flight, sampled at ten even points.
    pub backlog: Vec<u64>,
    pub error: Option<String>,
}

/// Closed-window phase: sends `frames_per_session` frames per session,
/// tick-major, starting at round `first_round`, keeping at most `window`
/// rounds in flight on the connection.
#[allow(clippy::too_many_arguments)]
pub fn send_windowed(
    tx: &mut Tx,
    inputs: &Inputs,
    order: &[u32],
    first_round: u64,
    frames_per_session: u64,
    rounds_per_frame: u64,
    window: u64,
    phase: &Phase,
    tracer: &mut Tracer,
) -> TxOutcome {
    let sessions = order.len() as u64;
    let total = frames_per_session * sessions;
    let mut out = TxOutcome {
        start_ns: now_ns(),
        ..TxOutcome::default()
    };
    let allocs0 = thread_allocs();
    let mut sent = 0u64;
    for k in 0..total {
        while sent + rounds_per_frame > window + phase.got.load(Ordering::Acquire) {
            if tx.corked() > 0 {
                if let Err(e) = tx.flush(tracer) {
                    out.error = Some(format!("write failed: {e}"));
                    return out;
                }
            } else {
                phase.wait_for_room();
            }
        }
        let s = order[(k % sessions) as usize] as usize;
        tx.encode_frame(
            inputs,
            s,
            first_round + (k / sessions) * rounds_per_frame,
            tracer,
        );
        sent += rounds_per_frame;
        if tx.corked() >= CORK_BYTES {
            if let Err(e) = tx.flush(tracer) {
                out.error = Some(format!("write failed: {e}"));
                return out;
            }
        }
    }
    if let Err(e) = tx.flush(tracer) {
        out.error = Some(format!("write failed: {e}"));
    }
    out.allocs = thread_allocs() - allocs0;
    out.end_ns = now_ns();
    out.rounds = sent;
    out.readings = sent * inputs.modules as u64;
    phase.target.store(sent, Ordering::Release);
    out
}

/// Open-loop phase: frame `k` leaves as soon as it is due, unless `cap`
/// rounds are already in flight on the connection (the daemon drops result
/// frames past 256 queued per connection); a frame held back by the cap
/// still has its latency timed from when it was due, and its lateness is
/// recorded. `probe(k)` runs (outside the allocation ledger) at every frame
/// index in `probe_points`, before that frame is sent.
#[allow(clippy::too_many_arguments)]
pub fn send_open_loop(
    tx: &mut Tx,
    inputs: &Inputs,
    order: &[u32],
    schedule: &Schedule,
    cap: u64,
    phase: &Phase,
    tracer: &mut Tracer,
    probe_points: &[u64],
    probe: &mut dyn FnMut(u64),
) -> TxOutcome {
    let sessions = schedule.sessions;
    let f = schedule.rounds_per_frame;
    let total = (schedule.r1 - schedule.r0) / f * sessions;
    let mut out = TxOutcome {
        start_ns: now_ns(),
        late_ns: Vec::with_capacity(total as usize),
        backlog: Vec::with_capacity(10),
        ..TxOutcome::default()
    };
    let mut allocs = 0u64;
    let mut mark = thread_allocs();
    let mut k = 0u64;
    let mut next_probe = 0usize;
    let mut next_sample = 0u64;
    while k < total {
        let now = now_ns();
        let elapsed = now.saturating_sub(schedule.t0_ns) as f64;
        let due_through = ((elapsed * schedule.frames_per_s / 1e9).floor() as u64 + 1).min(total);
        if due_through <= k {
            // Sleep, never spin: the generator must not take a core from
            // the daemon. Whatever fell due meanwhile leaves in one write,
            // and its lateness is recorded.
            let wait = schedule.due_ns(k).saturating_sub(now);
            std::thread::sleep(Duration::from_nanos(wait.max(1_000)));
            continue;
        }
        while k < due_through {
            if next_probe < probe_points.len() && k >= probe_points[next_probe] {
                if let Err(e) = tx.flush(tracer) {
                    out.error = Some(format!("write failed: {e}"));
                    return out;
                }
                allocs += thread_allocs() - mark;
                probe(k);
                mark = thread_allocs();
                next_probe += 1;
            }
            while (k * f).saturating_sub(phase.got.load(Ordering::Acquire)) + f > cap {
                if tx.corked() > 0 {
                    if let Err(e) = tx.flush(tracer) {
                        out.error = Some(format!("write failed: {e}"));
                        return out;
                    }
                } else {
                    phase.wait_for_room();
                }
            }
            let now = now_ns();
            let s = order[(k % sessions) as usize] as usize;
            tx.encode_frame(inputs, s, schedule.r0 + (k / sessions) * f, tracer);
            out.late_ns.push(now.saturating_sub(schedule.due_ns(k)));
            k += 1;
            if tx.corked() >= CORK_BYTES {
                break;
            }
        }
        if let Err(e) = tx.flush(tracer) {
            out.error = Some(format!("write failed: {e}"));
            return out;
        }
        if k >= next_sample && out.backlog.len() < 10 {
            out.backlog
                .push((k * f).saturating_sub(phase.got.load(Ordering::Acquire)));
            next_sample += (total / 10).max(1);
        }
    }
    while next_probe < probe_points.len() {
        allocs += thread_allocs() - mark;
        probe(total);
        mark = thread_allocs();
        next_probe += 1;
    }
    allocs += thread_allocs() - mark;
    out.allocs = allocs;
    out.end_ns = now_ns();
    out.rounds = total * f;
    out.readings = out.rounds * inputs.modules as u64;
    phase.target.store(out.rounds, Ordering::Release);
    out
}
