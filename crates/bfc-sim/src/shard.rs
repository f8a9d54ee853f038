//! Epoch-based conservative synchronization for sharded simulations.
//!
//! A sharded simulation splits its state across N **shards**, each with its
//! own [`crate::EventQueue`]. Shards advance in lockstep **epochs**: given
//! the earliest pending event time `t0` across all shards and a **lookahead**
//! `L` (the minimum latency of any cross-shard interaction), every shard may
//! safely process all of its events in the window `[t0, t0 + L)` — any event
//! another shard could still send it lands at `t0 + L` or later. Events that
//! target another shard are collected into per-destination **outboxes**
//! during the window and exchanged at the epoch barrier.
//!
//! # Adaptive epoch batching
//!
//! Electing `t0` costs two barrier crossings (publish per-shard next-event
//! times, then distribute the leader's decision). Rather than pay that per
//! window, the driver elects once per **batch** and then runs windows on the
//! fixed grid `[t0 + i·L, t0 + (i+1)·L)` for `i < k`, exchanging boundary
//! events after each. The fixed grid is exactly as safe as re-electing: a
//! cross-shard event with time `T < t0 + (i+1)·L` was emitted while
//! processing some `t < t0 + i·L` — i.e. during an earlier window — and was
//! therefore exchanged before window `i` starts.
//!
//! Two mechanisms make the batch cheaper than `k` elections:
//!
//! * **One barrier per executed window.** Mailboxes and per-window stats are
//!   double-buffered by executed-window parity, so the slot a reader drains
//!   after barrier `i` is not rewritten until after barrier `i + 1`, which
//!   the reader necessarily crossed first.
//! * **Quiescent fast-forward.** After a window that exchanged nothing, no
//!   delivery can have changed any queue, so the shared pre-delivery
//!   `min_next` is exact — and every shard deterministically jumps to the
//!   grid window containing it, skipping the empty windows in between
//!   without a barrier each. If `min_next` lies at or beyond the batch (or
//!   past the deadline), the batch ends early and the driver re-elects.
//!
//! [`BatchPolicy::Adaptive`] doubles the batch width after a fully
//! quiescent batch (up to the cap) and halves it as soon as a batch carries
//! any cross-shard traffic, so dense regions degrade gracefully toward
//! per-window elections while quiescent stretches (think 10 µs sample gaps
//! over a sub-µs lookahead) collapse many elections into one: a width-`k`
//! batch covering `E` sparse events costs `2 + E` barriers instead of `3·E`.
//! [`BatchPolicy::Off`] pins the width to one window per election, which
//! reproduces the classic three-barriers-per-window schedule.
//!
//! # Determinism
//!
//! The driver is deterministic by construction, whether the epochs run on
//! one thread or on one thread per shard, batched or not:
//!
//! * the window grid is derived only from queue state (`min` of per-shard
//!   `next_time`) and the deterministic width schedule, never from thread
//!   timing;
//! * at each barrier, destination shards ingest boundary batches in **shard
//!   id order**, and each batch preserves its source's emission order;
//! * boundary events carry their scheduling `(time, rank)` key with them, so
//!   the destination queue orders them exactly as a global queue would have.
//!
//! With a content-derived rank (see [`crate::EventQueue::push_ranked`]) that
//! is unique among simultaneous events from different sources, the per-shard
//! pop order equals one global queue's pop order restricted to that shard —
//! which is what makes results bit-identical at any shard count and under
//! any batching policy.
//!
//! # Cuts
//!
//! The deadline is also a consistent cut. Each shard processes every event
//! at or before it, and the driver delivers every boundary batch before
//! returning; anything still to come is emitted after the deadline and lands
//! a lookahead later. So the shards' queues and state at return are the
//! complete run state, and calling the driver again with a later deadline
//! continues the run exactly — at one shard too, where the single window
//! spans the whole run but the deadline still clips it.

use std::any::Any;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

use crate::time::{SimDuration, SimTime};

/// Locks a mutex, recovering the guard when a panicking sibling poisoned it.
/// Everything behind these mutexes is discarded wholesale once any worker
/// panics (the run is abandoned and the original payload re-raised by the
/// driver), so the poison flag carries no information — and honoring it
/// would replace the worker's own panic message with an unrelated "lock"
/// error at whichever thread touches the mutex next.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// What one barrier crossing observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BarrierWait {
    /// This thread is the single designated leader of the crossing.
    Leader,
    /// Crossed normally, as a non-leader.
    Follower,
    /// The barrier was aborted — a sibling worker panicked. The caller must
    /// stop immediately; no further crossing will ever complete.
    Aborted,
}

/// A reusable rendezvous barrier like [`std::sync::Barrier`], plus
/// [`EpochBarrier::abort`]. The std barrier has no poisoning: a worker that
/// unwinds mid-epoch never makes its remaining arrivals, so its siblings
/// would block forever and the scope join would hang silently. `abort`
/// releases every current and future waiter with [`BarrierWait::Aborted`],
/// letting them unwind cleanly so the driver can re-raise the original
/// panic payload.
struct EpochBarrier {
    state: Mutex<BarrierState>,
    cv: Condvar,
    n: usize,
}

struct BarrierState {
    arrived: usize,
    generation: u64,
    aborted: bool,
}

impl EpochBarrier {
    fn new(n: usize) -> Self {
        EpochBarrier {
            state: Mutex::new(BarrierState {
                arrived: 0,
                generation: 0,
                aborted: false,
            }),
            cv: Condvar::new(),
            n,
        }
    }

    fn wait(&self) -> BarrierWait {
        let mut s = lock(&self.state);
        if s.aborted {
            return BarrierWait::Aborted;
        }
        s.arrived += 1;
        if s.arrived == self.n {
            s.arrived = 0;
            s.generation += 1;
            self.cv.notify_all();
            return BarrierWait::Leader;
        }
        let generation = s.generation;
        while s.generation == generation && !s.aborted {
            s = self
                .cv
                .wait(s)
                .unwrap_or_else(PoisonError::into_inner);
        }
        if s.aborted {
            BarrierWait::Aborted
        } else {
            BarrierWait::Follower
        }
    }

    fn abort(&self) {
        lock(&self.state).aborted = true;
        self.cv.notify_all();
    }
}

/// A boundary event in flight between shards: `(time, rank, payload)`. The
/// scheduling key travels with the payload so the destination queue can slot
/// the event exactly where a global queue would have.
pub type Boundary<E> = (SimTime, u32, E);

/// One shard of a sharded simulation, as seen by the epoch driver.
///
/// Implementations own their local event queue and simulation state. The
/// driver only ever calls these methods in the fixed epoch sequence
/// (`next_time` → `run_window` → `take_outboxes` → `deliver`), with barriers
/// between phases when running threaded.
pub trait ShardHandler: Send {
    /// The event payload exchanged across shard boundaries.
    type Event: Send;

    /// Timestamp of this shard's earliest pending event, if any.
    fn next_time(&self) -> Option<SimTime>;

    /// Processes every local event with `time < window_end && time <=
    /// deadline`, buffering events for other shards in the outboxes.
    fn run_window(&mut self, window_end: SimTime, deadline: SimTime);

    /// Takes the boundary events buffered during the last window, indexed by
    /// destination shard (the returned vector has one entry per shard).
    fn take_outboxes(&mut self) -> Vec<Vec<Boundary<Self::Event>>>;

    /// Ingests one source shard's boundary batch, preserving its order.
    fn deliver(&mut self, batch: Vec<Boundary<Self::Event>>);

    /// Timestamp of the last event this shard processed (`SimTime::ZERO` if
    /// none yet).
    fn last_processed(&self) -> SimTime;
}

/// How the epoch driver amortizes window elections. See the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchPolicy {
    /// One election per window: the classic conservative-lockstep schedule
    /// (three barrier crossings per executed window).
    Off,
    /// Elect once, then run up to `max_windows` grid windows at one barrier
    /// each with quiescent fast-forward; the width doubles after fully
    /// quiescent batches and halves after batches that carried cross-shard
    /// traffic.
    Adaptive {
        /// Upper bound on grid windows per election (≥ 1). Amortization
        /// needs the cap to span several inter-event gaps: a batch covering
        /// `E` sparse events costs `2 + E` barriers versus `3·E` unbatched.
        max_windows: u32,
    },
}

impl Default for BatchPolicy {
    /// `Adaptive { max_windows: 128 }`: wide enough that typical quiescent
    /// stretches (e.g. 10 µs sample gaps over a sub-µs lookahead, ten to
    /// twenty windows per gap) fit several events per election.
    fn default() -> Self {
        BatchPolicy::Adaptive { max_windows: 128 }
    }
}

impl BatchPolicy {
    fn cap(self) -> u32 {
        match self {
            BatchPolicy::Off => 1,
            BatchPolicy::Adaptive { max_windows } => max_windows.max(1),
        }
    }
}

/// Per-run counters from the epoch driver. The sequential driver counts the
/// synchronization points the threaded driver would have crossed, so the
/// numbers are identical for the same inputs whether or not threads ran.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EpochStats {
    /// Window elections that found work (one per batch of windows).
    pub batches: u64,
    /// Grid windows actually executed (quiescent-skipped windows are not
    /// counted — they cost nothing).
    pub windows: u64,
    /// Barrier crossings: two per election round — including the final
    /// round that detects termination — plus one per executed window.
    pub barriers: u64,
    /// Batches that ran widened (elected width > 1 window).
    pub widened: u64,
    /// Cross-shard boundary events exchanged.
    pub boundary_events: u64,
    /// Batches by elected width: bucket `i` counts elections at width in
    /// `[2^i, 2^(i+1))`, with bucket 7 open-ended. Feeds the registry's
    /// `bfc_engine_epoch_width` histogram.
    pub width_hist: [u64; 8],
}

impl EpochStats {
    /// Tallies one election at `width` into [`EpochStats::width_hist`].
    fn note_width(&mut self, width: u32) {
        let bucket = (width.max(1).ilog2() as usize).min(7);
        self.width_hist[bucket] += 1;
    }
}

/// Runs a sharded simulation to completion (all queues empty) or until the
/// next event would fall strictly after `deadline`. Returns the timestamp of
/// the last event any shard processed, plus the epoch counters.
///
/// `lookahead` must lower-bound the scheduling delay of every cross-shard
/// event: an event emitted while processing time `t` must be scheduled at
/// `t + lookahead` or later. `parallel` selects one thread per shard
/// (barrier-synchronized) versus a single-threaded epoch loop; one shard
/// always runs the single-threaded loop. All combinations of `parallel` and
/// `batch` produce identical results and identical stats, and the return
/// state is a resumable cut at `deadline` (see the module docs).
pub fn run_conservative<S: ShardHandler>(
    shards: &mut [S],
    lookahead: SimDuration,
    deadline: SimTime,
    parallel: bool,
    batch: BatchPolicy,
) -> (SimTime, EpochStats) {
    assert!(
        !lookahead.is_zero(),
        "conservative synchronization needs a positive lookahead"
    );
    let stats = if shards.len() > 1 && parallel {
        run_threaded(shards, lookahead, deadline, batch)
    } else {
        run_sequential(shards, lookahead, deadline, batch)
    };
    let end = shards
        .iter()
        .map(|s| s.last_processed())
        .max()
        .unwrap_or(SimTime::ZERO);
    (end, stats)
}

/// The deterministic width schedule plus the post-window decision, factored
/// out so the sequential and threaded drivers cannot drift apart. Every
/// thread runs its own copy from identical shared observations, so the
/// schedules stay in lockstep without extra communication.
struct BatchSchedule {
    width: u32,
    cap: u32,
}

/// What to do after one executed grid window.
#[derive(PartialEq, Eq, Debug)]
enum WindowOutcome {
    /// The window exchanged traffic: the very next grid window may receive
    /// deliveries, so run it.
    Next,
    /// No traffic, and the next event lies in a later window of this batch:
    /// jump straight to that window index.
    SkipTo(u32),
    /// No traffic and no event before the batch end (or the deadline): end
    /// the batch and re-elect.
    EndBatch,
}

impl BatchSchedule {
    fn new(policy: BatchPolicy) -> Self {
        BatchSchedule {
            width: 1,
            cap: policy.cap(),
        }
    }

    /// Decides the next step after grid window `w`. `min_next` must be the
    /// pre-delivery minimum next-event time across shards: when
    /// `total_sent == 0` no delivery happened, so it is exact — which is the
    /// only case where it steers anything.
    fn after_window(
        &self,
        w: u32,
        total_sent: u64,
        min_next: Option<SimTime>,
        t0: SimTime,
        lookahead: SimDuration,
        deadline: SimTime,
    ) -> WindowOutcome {
        if total_sent > 0 {
            return WindowOutcome::Next;
        }
        let Some(next) = min_next else {
            return WindowOutcome::EndBatch;
        };
        if next > deadline {
            return WindowOutcome::EndBatch;
        }
        // The grid window containing `next`. All events < window w's end
        // were processed, so `next >= t0 + (w+1)·L` and the index advances.
        let idx = (next.as_picos() - t0.as_picos()) / lookahead.as_picos();
        let idx = u32::try_from(idx).unwrap_or(u32::MAX);
        debug_assert!(idx > w, "fast-forward must advance the grid");
        if idx >= self.width {
            WindowOutcome::EndBatch
        } else {
            WindowOutcome::SkipTo(idx)
        }
    }

    /// Width for the next batch, from whether this batch saw any
    /// cross-shard traffic.
    fn adapt(&mut self, had_traffic: bool) {
        self.width = if had_traffic {
            (self.width / 2).max(1)
        } else {
            self.width.saturating_mul(2).min(self.cap)
        };
    }
}

/// The single-threaded epoch loop: what every 1-shard run executes, and the
/// reference the threaded executor is tested against.
fn run_sequential<S: ShardHandler>(
    shards: &mut [S],
    lookahead: SimDuration,
    deadline: SimTime,
    batch: BatchPolicy,
) -> EpochStats {
    let n = shards.len();
    let mut sched = BatchSchedule::new(batch);
    let mut stats = EpochStats::default();
    loop {
        // Election: two synchronization points in the threaded driver.
        stats.barriers += 2;
        let Some(t0) = shards.iter().filter_map(|s| s.next_time()).min() else {
            return stats;
        };
        if t0 > deadline {
            return stats;
        }
        stats.batches += 1;
        if sched.width > 1 {
            stats.widened += 1;
        }
        stats.note_width(sched.width);
        let mut had_traffic = false;
        let mut w = 0u32;
        while w < sched.width {
            let window_end = t0 + lookahead * u64::from(w + 1);
            for shard in shards.iter_mut() {
                shard.run_window(window_end, deadline);
            }
            let outboxes: Vec<Vec<Vec<Boundary<S::Event>>>> =
                shards.iter_mut().map(|s| s.take_outboxes()).collect();
            let total_sent: u64 = outboxes
                .iter()
                .flat_map(|rows| rows.iter())
                .map(|b| b.len() as u64)
                .sum();
            // Pre-delivery minimum, exactly what the threaded driver's
            // published per-window stats hold.
            let min_next = shards.iter().filter_map(|s| s.next_time()).min();
            stats.windows += 1;
            stats.barriers += 1;
            stats.boundary_events += total_sent;
            // Exchange boundary events: destinations ingest batches in
            // source shard id order, exactly like the threaded path.
            for (src, rows) in outboxes.into_iter().enumerate() {
                debug_assert_eq!(rows.len(), n, "outbox row per destination shard");
                for (dest, batch) in rows.into_iter().enumerate() {
                    debug_assert!(dest != src || batch.is_empty(), "no self-addressed batches");
                    if !batch.is_empty() {
                        shards[dest].deliver(batch);
                    }
                }
            }
            had_traffic |= total_sent > 0;
            match sched.after_window(w, total_sent, min_next, t0, lookahead, deadline) {
                WindowOutcome::Next => w += 1,
                WindowOutcome::SkipTo(idx) => w = idx,
                WindowOutcome::EndBatch => break,
            }
        }
        sched.adapt(had_traffic);
    }
}

/// Leader-computed per-batch decision shared between worker threads.
struct BatchCtl {
    t0: SimTime,
    done: bool,
}

/// Per-shard, per-parity counters published just before the window barrier:
/// how many boundary events this shard sent, and its next local event time
/// *before* any of this window's deliveries.
#[derive(Default, Clone, Copy)]
struct WindowStat {
    sent: u64,
    next: Option<SimTime>,
}

fn run_threaded<S: ShardHandler>(
    shards: &mut [S],
    lookahead: SimDuration,
    deadline: SimTime,
    batch: BatchPolicy,
) -> EpochStats {
    let n = shards.len();
    let barrier = EpochBarrier::new(n);
    let times: Vec<Mutex<Option<SimTime>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let ctl = Mutex::new(BatchCtl {
        t0: SimTime::ZERO,
        done: false,
    });
    // mailboxes[src][dest][parity]: written only by worker `src`, drained
    // only by worker `dest`. The executed-window parity double-buffer is
    // what lets one barrier per window suffice: the slot drained after
    // barrier `i` is next written while preparing window `i + 2`, i.e.
    // after barrier `i + 1`, which the drainer crossed first — the mutexes
    // are never contended.
    let mailboxes: Vec<Vec<[Mutex<Vec<Boundary<S::Event>>>; 2]>> = (0..n)
        .map(|_| {
            (0..n)
                .map(|_| [Mutex::new(Vec::new()), Mutex::new(Vec::new())])
                .collect()
        })
        .collect();
    // window_stats[shard][parity], double-buffered for the same reason.
    let window_stats: Vec<[Mutex<WindowStat>; 2]> = (0..n)
        .map(|_| {
            [
                Mutex::new(WindowStat::default()),
                Mutex::new(WindowStat::default()),
            ]
        })
        .collect();
    let out_stats: Mutex<EpochStats> = Mutex::new(EpochStats::default());
    // First panic payload from any worker; re-raised by the driver after the
    // scope joins, so a panicking `ShardHandler` surfaces its own message.
    let panic_slot: Mutex<Option<Box<dyn Any + Send>>> = Mutex::new(None);

    std::thread::scope(|scope| {
        for (i, shard) in shards.iter_mut().enumerate() {
            let barrier = &barrier;
            let times = &times;
            let ctl = &ctl;
            let mailboxes = &mailboxes;
            let window_stats = &window_stats;
            let out_stats = &out_stats;
            let panic_slot = &panic_slot;
            scope.spawn(move || {
                // A worker that unwinds mid-epoch can never make its
                // remaining barrier arrivals: catch the panic, park its
                // payload, and abort the barrier so the other n-1 workers
                // drain out instead of waiting forever.
                let body = std::panic::AssertUnwindSafe(|| {
                    let mut sched = BatchSchedule::new(batch);
                    let mut stats = EpochStats::default();
                    // Executed-window counter across the whole run; its
                    // parity selects the mailbox/stat buffers.
                    let mut executed = 0u64;
                    loop {
                        // Election phase 1: publish this shard's next event
                        // time.
                        *lock(&times[i]) = shard.next_time();
                        match barrier.wait() {
                            BarrierWait::Aborted => return,
                            BarrierWait::Leader => {
                                // Exactly one thread computes the batch
                                // anchor from the published times; which
                                // thread it is does not matter.
                                let t0 = times.iter().filter_map(|m| *lock(m)).min();
                                let mut c = lock(ctl);
                                match t0 {
                                    Some(t0) if t0 <= deadline => {
                                        c.t0 = t0;
                                        c.done = false;
                                    }
                                    _ => c.done = true,
                                }
                            }
                            BarrierWait::Follower => {}
                        }
                        if barrier.wait() == BarrierWait::Aborted {
                            return;
                        }
                        stats.barriers += 2;
                        // Election phase 2: read the leader's decision.
                        let t0 = {
                            let c = lock(ctl);
                            if c.done {
                                break;
                            }
                            c.t0
                        };
                        stats.batches += 1;
                        if sched.width > 1 {
                            stats.widened += 1;
                        }
                        stats.note_width(sched.width);
                        let mut had_traffic = false;
                        let mut w = 0u32;
                        while w < sched.width {
                            let p = (executed & 1) as usize;
                            executed += 1;
                            let window_end = t0 + lookahead * u64::from(w + 1);
                            shard.run_window(window_end, deadline);
                            let mut sent = 0u64;
                            for (dest, batch) in shard.take_outboxes().into_iter().enumerate() {
                                if !batch.is_empty() {
                                    sent += batch.len() as u64;
                                    lock(&mailboxes[i][dest][p]).extend(batch);
                                }
                            }
                            *lock(&window_stats[i][p]) = WindowStat {
                                sent,
                                next: shard.next_time(),
                            };
                            if barrier.wait() == BarrierWait::Aborted {
                                return;
                            }
                            stats.barriers += 1;
                            stats.windows += 1;
                            // Ingest batches in source shard id order.
                            for row in mailboxes.iter() {
                                let batch = std::mem::take(&mut *lock(&row[i][p]));
                                if !batch.is_empty() {
                                    shard.deliver(batch);
                                }
                            }
                            // Identical shared observations on every thread
                            // ⇒ identical fast-forward / end-batch / width
                            // decisions, keeping the barrier counts aligned.
                            let mut total_sent = 0u64;
                            let mut min_next: Option<SimTime> = None;
                            for s in window_stats.iter() {
                                let ws = *lock(&s[p]);
                                total_sent += ws.sent;
                                min_next = match (min_next, ws.next) {
                                    (Some(a), Some(b)) => Some(a.min(b)),
                                    (a, b) => a.or(b),
                                };
                            }
                            stats.boundary_events += total_sent;
                            had_traffic |= total_sent > 0;
                            match sched.after_window(
                                w, total_sent, min_next, t0, lookahead, deadline,
                            ) {
                                WindowOutcome::Next => w += 1,
                                WindowOutcome::SkipTo(idx) => w = idx,
                                WindowOutcome::EndBatch => break,
                            }
                        }
                        sched.adapt(had_traffic);
                    }
                    if i == 0 {
                        *lock(out_stats) = stats;
                    }
                });
                if let Err(payload) = std::panic::catch_unwind(body) {
                    {
                        let mut slot = lock(panic_slot);
                        if slot.is_none() {
                            *slot = Some(payload);
                        }
                    }
                    barrier.abort();
                }
            });
        }
    });
    if let Some(payload) = lock(&panic_slot).take() {
        std::panic::resume_unwind(payload);
    }
    out_stats
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventQueue;

    /// A toy sharded simulation: `count` tokens hop every `hop` ns. With
    /// `cross` set, a token processed at time `t` in shard `s` re-schedules
    /// itself in shard `(s + 1) % n` at `t + hop` (all cross-shard traffic);
    /// without it, tokens stay shard-local (a fully quiescent fabric). Every
    /// shard logs `(time, token)` in processing order, until `deadline`.
    struct Ring {
        me: usize,
        n: usize,
        hop: SimDuration,
        cross: bool,
        queue: EventQueue<u32>,
        outbox: Vec<Vec<Boundary<u32>>>,
        log: Vec<(SimTime, u32)>,
        last: SimTime,
    }

    const HOP: SimDuration = SimDuration::from_nanos(50);

    impl ShardHandler for Ring {
        type Event = u32;
        fn next_time(&self) -> Option<SimTime> {
            self.queue.peek_time()
        }
        fn run_window(&mut self, window_end: SimTime, deadline: SimTime) {
            while let Some(t) = self.queue.peek_time() {
                if t >= window_end || t > deadline {
                    break;
                }
                let (now, token) = self.queue.pop().expect("peeked");
                self.last = now;
                self.log.push((now, token));
                let dest = if self.cross { (self.me + 1) % self.n } else { self.me };
                let at = now + self.hop;
                if dest == self.me {
                    self.queue.push_ranked(at, token, token);
                } else {
                    self.outbox[dest].push((at, token, token));
                }
            }
        }
        fn take_outboxes(&mut self) -> Vec<Vec<Boundary<u32>>> {
            std::mem::replace(&mut self.outbox, vec![Vec::new(); self.n])
        }
        fn deliver(&mut self, batch: Vec<Boundary<u32>>) {
            for (t, rank, e) in batch {
                self.queue.push_ranked(t, rank, e);
            }
        }
        fn last_processed(&self) -> SimTime {
            self.last
        }
    }

    fn ring_full(n: usize, tokens: u32, hop: SimDuration, cross: bool) -> Vec<Ring> {
        let mut shards: Vec<Ring> = (0..n)
            .map(|me| Ring {
                me,
                n,
                hop,
                cross,
                queue: EventQueue::new(),
                outbox: vec![Vec::new(); n],
                log: Vec::new(),
                last: SimTime::ZERO,
            })
            .collect();
        for token in 0..tokens {
            // All tokens start in shard 0 at t=0, distinguished by rank.
            shards[0].queue.push_ranked(SimTime::ZERO, token, token);
        }
        shards
    }

    fn ring(n: usize, tokens: u32) -> Vec<Ring> {
        ring_full(n, tokens, HOP, true)
    }

    fn merged_log(shards: &[Ring]) -> Vec<(SimTime, u32)> {
        let mut all: Vec<(SimTime, u32)> =
            shards.iter().flat_map(|s| s.log.iter().copied()).collect();
        all.sort();
        all
    }

    #[test]
    fn ring_produces_identical_logs_at_any_shard_count_mode_and_policy() {
        let deadline = SimTime::from_nanos(1_000);
        let mut reference: Option<Vec<(SimTime, u32)>> = None;
        for n in [1usize, 2, 3, 5] {
            for parallel in [false, true] {
                for policy in [BatchPolicy::Off, BatchPolicy::default()] {
                    let mut shards = ring(n, 4);
                    let (end, _) = run_conservative(&mut shards, HOP, deadline, parallel, policy);
                    assert_eq!(end, SimTime::from_nanos(1_000));
                    let log = merged_log(&shards);
                    match &reference {
                        None => reference = Some(log),
                        Some(r) => assert_eq!(r, &log, "n={n} parallel={parallel} {policy:?}"),
                    }
                }
            }
        }
        let log = reference.expect("at least one run");
        // 4 tokens, hops at 0,50,...,1000 inclusive: 21 events per token.
        assert_eq!(log.len(), 4 * 21);
    }

    /// The sequential driver reports exactly the synchronization schedule
    /// the threaded driver executes — under both policies, for a
    /// traffic-heavy ring (width pinned at 1) and for a sparse shard-local
    /// workload (widening plus fast-forward, exercising the parity buffers
    /// across skips).
    #[test]
    fn epoch_stats_are_identical_sequential_vs_threaded() {
        for policy in [BatchPolicy::Off, BatchPolicy::default()] {
            for (hop, cross) in [(HOP, true), (SimDuration::from_nanos(650), false)] {
                let deadline = SimTime::from_nanos(10_000);
                let mut seq = ring_full(3, 2, hop, cross);
                let mut thr = ring_full(3, 2, hop, cross);
                let (end_a, stats_a) = run_conservative(&mut seq, HOP, deadline, false, policy);
                let (end_b, stats_b) = run_conservative(&mut thr, HOP, deadline, true, policy);
                assert_eq!(end_a, end_b, "{policy:?} hop={hop:?} cross={cross}");
                assert_eq!(stats_a, stats_b, "{policy:?} hop={hop:?} cross={cross}");
                assert_eq!(
                    merged_log(&seq),
                    merged_log(&thr),
                    "{policy:?} hop={hop:?} cross={cross}"
                );
                assert!(stats_a.windows >= stats_a.batches);
                assert_eq!(
                    stats_a.barriers,
                    2 * (stats_a.batches + 1) + stats_a.windows,
                    "two barriers per election round (plus the terminating \
                     round) and one per executed window"
                );
            }
        }
    }

    /// On a quiescent workload — events spaced at many lookaheads, no
    /// cross-shard traffic — adaptive batching collapses elections and cuts
    /// the barrier count at least 2× versus `BatchPolicy::Off`, while the
    /// processed logs stay identical.
    #[test]
    fn adaptive_batching_cuts_barriers_at_least_2x_when_quiescent() {
        // Shard-local hops every 650 ns over a 50 ns lookahead: thirteen
        // grid windows per event, so wide batches cover many events.
        let hop = SimDuration::from_nanos(650);
        let deadline = SimTime::from_nanos(100_000);
        let run = |policy: BatchPolicy| {
            let mut shards = ring_full(2, 1, hop, false);
            let (_, stats) = run_conservative(&mut shards, HOP, deadline, true, policy);
            (merged_log(&shards), stats)
        };
        let (log_off, off) = run(BatchPolicy::Off);
        let (log_on, on) = run(BatchPolicy::default());
        assert_eq!(log_off, log_on);
        assert_eq!(off.widened, 0);
        assert!(on.widened > 0, "adaptive policy never widened: {on:?}");
        assert!(
            off.barriers >= 2 * on.barriers,
            "expected ≥2× barrier reduction, got off={} on={}",
            off.barriers,
            on.barriers
        );
    }

    #[test]
    fn deadline_cuts_exactly_like_run_until() {
        // Events exactly at the deadline are processed; later ones are not.
        let mut shards = ring(2, 1);
        let (end, _) = run_conservative(
            &mut shards,
            HOP,
            SimTime::from_nanos(100),
            true,
            BatchPolicy::default(),
        );
        assert_eq!(end, SimTime::from_nanos(100));
        assert_eq!(merged_log(&shards).len(), 3); // t = 0, 50, 100
    }

    /// Stopping at a deadline and continuing reproduces the uninterrupted
    /// run, under both executors and at one shard, whose single window is
    /// far wider than the cut.
    #[test]
    fn deadline_is_a_resumable_cut() {
        let end = SimTime::from_nanos(1_000);
        let at = SimTime::from_nanos(420);
        for (n, lookahead) in [(3usize, HOP), (1, SimDuration::from_micros(1_000))] {
            let mut whole = ring(n, 4);
            run_conservative(&mut whole, lookahead, end, false, BatchPolicy::default());
            for parallel in [false, true] {
                let mut cut = ring(n, 4);
                run_conservative(&mut cut, lookahead, at, parallel, BatchPolicy::default());
                assert!(cut.iter().all(|s| s.last <= at), "n={n}: ran past the cut");
                assert!(
                    cut.iter().any(|s| s.next_time().is_some()),
                    "n={n}: the cut left no pending events"
                );
                run_conservative(&mut cut, lookahead, end, parallel, BatchPolicy::default());
                assert_eq!(merged_log(&cut), merged_log(&whole), "n={n} parallel={parallel}");
            }
        }
    }

    #[test]
    fn empty_queues_terminate_immediately() {
        let mut shards = ring(3, 0);
        let (end, stats) =
            run_conservative(&mut shards, HOP, SimTime::MAX, true, BatchPolicy::default());
        assert_eq!(end, SimTime::ZERO);
        assert_eq!(stats.batches, 0);
        assert_eq!(stats.barriers, 2);
    }

    /// A ring shard that detonates once its window reaches the fuse time.
    struct Bomb {
        inner: Ring,
        fuse: Option<SimTime>,
    }

    impl ShardHandler for Bomb {
        type Event = u32;
        fn next_time(&self) -> Option<SimTime> {
            self.inner.next_time()
        }
        fn run_window(&mut self, window_end: SimTime, deadline: SimTime) {
            if let Some(fuse) = self.fuse {
                if window_end > fuse {
                    panic!("ring handler exploded in shard {}", self.inner.me);
                }
            }
            self.inner.run_window(window_end, deadline);
        }
        fn take_outboxes(&mut self) -> Vec<Vec<Boundary<u32>>> {
            self.inner.take_outboxes()
        }
        fn deliver(&mut self, batch: Vec<Boundary<u32>>) {
            self.inner.deliver(batch);
        }
        fn last_processed(&self) -> SimTime {
            self.inner.last_processed()
        }
    }

    /// A panicking handler must surface its *own* message through the
    /// threaded driver — not a poisoned-mutex error on another thread, and
    /// not a barrier hang.
    #[test]
    fn panicking_handler_surfaces_its_own_message() {
        let mut shards: Vec<Bomb> = ring(3, 2)
            .into_iter()
            .enumerate()
            .map(|(i, inner)| Bomb {
                inner,
                fuse: (i == 1).then(|| SimTime::from_nanos(200)),
            })
            .collect();
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_conservative(
                &mut shards,
                HOP,
                SimTime::from_nanos(1_000),
                true,
                BatchPolicy::default(),
            );
        }))
        .expect_err("the worker panic must propagate");
        let msg = err
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| err.downcast_ref::<&str>().copied())
            .unwrap_or("<non-string payload>");
        assert!(
            msg.contains("ring handler exploded in shard 1"),
            "expected the handler's own panic message, got: {msg}"
        );
    }

    /// An aborted barrier releases both current and future waiters.
    #[test]
    fn aborted_barrier_releases_waiters() {
        let barrier = EpochBarrier::new(2);
        std::thread::scope(|scope| {
            let waiter = scope.spawn(|| barrier.wait());
            // Give the waiter a moment to park, then abort instead of
            // arriving.
            while lock(&barrier.state).arrived == 0 {
                std::thread::yield_now();
            }
            barrier.abort();
            assert_eq!(waiter.join().expect("no panic"), BarrierWait::Aborted);
        });
        // Post-abort waits return immediately.
        assert_eq!(barrier.wait(), BarrierWait::Aborted);
    }

    #[test]
    #[should_panic(expected = "positive lookahead")]
    fn zero_lookahead_is_rejected() {
        let mut shards = ring(2, 1);
        run_conservative(
            &mut shards,
            SimDuration::ZERO,
            SimTime::MAX,
            false,
            BatchPolicy::Off,
        );
    }
}
