//! # mapqn-par
//!
//! A hand-rolled thread pool over [`std::thread::scope`], sized for the two
//! workload shapes of this workspace:
//!
//! * **coarse, independent jobs** — each job is a whole `bound_all()` or a
//!   whole population sweep, tens of microseconds to seconds of work —
//!   fanned out across every core, with results assembled **by job index**
//!   so the output is deterministic and independent of the worker count and
//!   of scheduling order;
//! * **fine, repeated rounds** — the sparse CTMC engine issues thousands of
//!   row-block-parallel sweeps per solve, each a few hundred microseconds.
//!   Spawning threads per round (the original design) costs tens of
//!   microseconds per spawn and parked mid-size chains behind a
//!   100k-state threshold; the persistent [`ScopedPool`] spawns its workers
//!   **once**, parks them on a cheap epoch handshake between rounds, and
//!   serves an arbitrary number of rounds before joining at scope exit, so
//!   the per-round cost is a wake/quiesce handshake (sub-microsecond when
//!   rounds are back-to-back, a park/unpark otherwise) instead of a spawn.
//!
//! ## Why not rayon
//!
//! The build environment has no network access to a crate registry, so the
//! workspace vendors tiny API-compatible stand-ins for its external
//! dependencies under `crates/compat/` (`rand`, `proptest`, `criterion`).
//! rayon is different: its value is a work-*stealing* scheduler with
//! per-thread deques, splittable parallel iterators and a lazily-initialized
//! global pool — machinery that matters when tasks fork recursively into
//! irregular subtasks, and that cannot be faithfully stubbed in an
//! afternoon. Neither workload here needs any of it:
//!
//! * coarse ensemble jobs are few and regular, so a shared atomic cursor
//!   over a slice *is* the optimal schedule (each idle participant grabs
//!   the next undone job; imbalance is bounded by one job);
//! * the sweep rounds are flat loops over pre-cut row blocks — there is
//!   nothing to steal, because the block list is fixed up front and the
//!   same cursor balances it. What the rounds *do* need is exactly what a
//!   global work-stealing pool makes awkward: worker lifetimes scoped to a
//!   borrow (the generator matrix lives on the caller's stack), a
//!   **barrier-synced round** whose completion the caller observes before
//!   touching the output vector, and a park/unpark idle discipline with no
//!   background threads left running between solves.
//!
//! The persistent design point is deliberately narrower than a general
//! executor: one coordinator (the thread that called [`WorkPool::scoped`])
//! publishes one round at a time, every worker participates in every
//! round, and the coordinator blocks until the round quiesces. That is the
//! whole protocol — an epoch counter, an active-worker counter and a
//! shutdown flag — and it is why the handshake costs nanoseconds-to-a-few-
//! microseconds instead of a spawn/join. If the workspace ever grows
//! recursive or irregular parallelism (per-pivot, per-column), revisit
//! rayon's design rather than stretching this pool past its point.
//!
//! ## Determinism contract
//!
//! [`ScopedPool::map`] and [`WorkPool::map`] return exactly what the
//! equivalent serial `map` returns — `results[i] = f(i, &items[i])` — as
//! long as `f` itself is a pure function of `(i, items[i])`. Participants
//! race only for *which* job they pull, never for where a result lands, so
//! the assembly is order-independent by construction. Anything seeded per
//! job must be seeded from the **job index** (not the worker id, which is
//! schedule-dependent); the ensemble layer in `mapqn-core` derives its
//! per-job RHS-perturbation salts this way.
//!
//! [`ScopedPool::for_each_chunk`] cuts `data` at multiples of `chunk_len` —
//! never at worker-count-derived positions — and every output element is
//! written exactly once, by a computation that depends only on the chunk
//! boundaries. Results are therefore **bitwise identical at any worker
//! count**, which the sparse-engine and ensemble gates verify.
//!
//! The chunk contract deliberately says nothing about *which inputs* a
//! chunk may read: a chunk job may gather from arbitrary, non-contiguous
//! positions of shared read-only inputs (the access pattern of the factored
//! network generator in `mapqn-core`, where output element `j` reads the
//! scattered positions of `x` that hold the states flowing into state `j`),
//! and invariance still holds because the inputs are immutable for the
//! whole round and each output element is produced by exactly one chunk in
//! a fixed serial order within that chunk. What the contract does require of the closure is that
//! it derive everything from `(start, chunk)` and round-immutable data —
//! never from the worker id or claim order.
//!
//! Panics in a job are propagated to the caller after the round has
//! quiesced (every participant has stopped touching the borrowed data), so
//! a poisoned round fails loudly instead of hanging — and the pool remains
//! usable for further rounds if the caller catches the panic.
//!
//! ## Worker-count override
//!
//! [`default_threads`] honours the `MAPQN_POOL_THREADS` environment
//! variable (CI runs the test suite at 1 and 4 workers so the parallel
//! code paths execute even on single-core runners); otherwise it reports
//! the machine's available parallelism.


use std::cell::{Cell, UnsafeCell};
use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread::Thread;

/// Number of worker threads to use by default: the machine's available
/// parallelism, or 1 when the runtime cannot report it (exotic platforms,
/// restricted containers).
#[must_use]
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// The default pool width: the `MAPQN_POOL_THREADS` environment variable
/// when set to a positive integer (the CI worker-count matrix uses this to
/// force the parallel code paths onto single-core runners and the serial
/// degeneration onto multi-core ones), otherwise [`available_parallelism`].
#[must_use]
pub fn default_threads() -> usize {
    parse_thread_override(std::env::var("MAPQN_POOL_THREADS").ok().as_deref())
        .unwrap_or_else(available_parallelism)
}

/// Parses a `MAPQN_POOL_THREADS`-style override; `None` when absent or not
/// a positive integer (factored out so the parsing is unit-testable without
/// mutating the process environment).
fn parse_thread_override(value: Option<&str>) -> Option<usize> {
    value.and_then(|s| s.trim().parse::<usize>().ok()).filter(|&n| n > 0)
}

/// Spin iterations before a waiter parks. Back-to-back rounds (the sparse
/// engine's sweep loop) land well inside this window, so the steady-state
/// handshake never syscalls; an idle pool (between solves) parks after a
/// few microseconds and burns no CPU.
#[cfg(not(miri))]
const SPIN_ROUNDS: usize = 4_096;
/// Under Miri every spin iteration is interpreted and scheduling is
/// cooperative, so a long spin window only slows the run without adding
/// coverage — park almost immediately and exercise the park/unpark path.
#[cfg(miri)]
const SPIN_ROUNDS: usize = 8;

/// A type-erased borrowed closure: the round publishes a data pointer plus
/// a monomorphized trampoline instead of a fat `dyn` pointer, so no
/// lifetime-transmuting is needed. Validity: the coordinator does not
/// return from the round until every worker has quiesced, so the pointee
/// outlives every call through `call`.
#[derive(Clone, Copy)]
struct RawJob {
    data: *const (),
    // SAFETY: calling `call` is sound only with this job's `data` while
    // the pointee closure is alive — i.e. between a worker's Acquire
    // epoch read and its Release decrement of `active`.
    call: unsafe fn(*const ()),
}

/// Monomorphized trampoline: recovers the concrete closure type behind a
/// [`RawJob`]'s erased pointer and calls it.
///
/// # Safety
/// `data` must be the erased pointer of a live `F`. The round protocol
/// guarantees this: workers call only between the Acquire epoch read and
/// their Release decrement, and the coordinator keeps the closure alive
/// until `active` has drained back to zero.
unsafe fn call_job<F: Fn() + Sync>(data: *const ()) {
    // SAFETY: caller contract above — `data` points at a live `F`.
    unsafe { (*data.cast::<F>())() }
}

/// State shared between the coordinator and its persistent workers.
///
/// Synchronization protocol (the whole of it):
/// * the coordinator writes `job`, resets `active`, then bumps `epoch`
///   with `Release`; workers observe the bump with `Acquire`, which
///   publishes the job and the counter;
/// * each worker runs the job once per epoch and decrements `active` with
///   `Release`; the coordinator spins/parks until an `Acquire` load reads
///   zero, which (through the RMW release sequence) synchronizes with
///   every worker's round — only then does it touch the output or start
///   the next round, so `job` is never written while a worker can read it;
/// * `shutdown` + an unpark storm ends the worker loops at scope exit.
struct Shared {
    epoch: AtomicUsize,
    active: AtomicUsize,
    shutdown: AtomicBool,
    /// Valid exactly while `active > 0` for the current epoch.
    job: UnsafeCell<Option<RawJob>>,
    /// The coordinator thread, parked-on while a round drains. Written
    /// once at construction (rounds are issued only from the creating
    /// thread — `ScopedPool` is `!Sync` to enforce this statically).
    coordinator: Thread,
    /// Panic payloads caught by workers this round, re-raised by the
    /// coordinator after quiesce.
    panics: Mutex<Vec<Box<dyn std::any::Any + Send>>>,
}

// SAFETY: the `UnsafeCell` fields are governed by the epoch/active
// handshake documented on the struct: `job` is written only while no
// worker is inside a round and read only between an `Acquire` epoch
// observation and a `Release` decrement of `active`.
unsafe impl Sync for Shared {}

impl Shared {
    fn new() -> Self {
        Self {
            epoch: AtomicUsize::new(0),
            active: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            job: UnsafeCell::new(None),
            coordinator: std::thread::current(),
            panics: Mutex::new(Vec::new()),
        }
    }
}

/// The persistent worker body: wait for a new epoch (bounded spin, then
/// park), run the published job, signal completion, repeat until shutdown.
fn worker_loop(shared: &Shared) {
    let mut seen = 0usize;
    loop {
        // Wait for the next round or shutdown.
        let mut spins = 0usize;
        loop {
            let epoch = shared.epoch.load(Ordering::Acquire);
            if epoch != seen {
                seen = epoch;
                break;
            }
            if shared.shutdown.load(Ordering::Acquire) {
                return;
            }
            if spins < SPIN_ROUNDS {
                spins += 1;
                std::hint::spin_loop();
            } else {
                // An unpark may predate this park (the token is banked), so
                // this returns immediately in that case and the outer loop
                // re-checks the condition — no lost wakeups.
                std::thread::park();
            }
        }
        // SAFETY: the epoch was observed with Acquire, so the job written
        // before the bump is visible, and the coordinator keeps it alive
        // until `active` drains.
        // INFALLIBLE: the coordinator publishes `Some(job)` before every
        // epoch bump and clears the slot only after the round has drained.
        let job = unsafe { *shared.job.get() }.expect("epoch bumped without a published job");
        let outcome = catch_unwind(AssertUnwindSafe(|| unsafe { (job.call)(job.data) }));
        if let Err(payload) = outcome {
            // INFALLIBLE: `Vec::push` is the only code ever run under the
            // panic-slot mutex and it cannot panic, so no poisoning.
            shared.panics.lock().expect("panic-slot mutex poisoned").push(payload);
        }
        if shared.active.fetch_sub(1, Ordering::Release) == 1 {
            shared.coordinator.unpark();
        }
    }
}

/// A fixed-width work pool configuration: `threads` participants (the
/// calling thread plus `threads - 1` workers).
///
/// Construction is free — `WorkPool` holds no OS resources, so it can live
/// in an options struct. Threads exist only while work is running: the
/// one-shot [`WorkPool::map`] / [`WorkPool::for_each_chunk`] spawn-and-join
/// per call (fine for coarse jobs, expensive at thousands of calls), and
/// [`WorkPool::scoped`] spawns the workers once and parks them between
/// rounds, which is what the per-sweep hot loops use.
#[derive(Debug, Clone, Copy)]
pub struct WorkPool {
    threads: usize,
}

impl Default for WorkPool {
    fn default() -> Self {
        Self::new(default_threads())
    }
}

impl WorkPool {
    /// Creates a pool that runs jobs on `threads` participants (clamped to
    /// at least 1). `WorkPool::new(1)` degenerates to a serial loop on the
    /// calling thread — no threads are spawned at all — which is the
    /// reference behaviour the determinism tests compare against.
    #[must_use]
    pub fn new(threads: usize) -> Self {
        Self {
            threads: threads.max(1),
        }
    }

    /// The number of participating threads (callers + workers).
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `f` with a **persistent** pool: `threads - 1` workers are
    /// spawned once, serve every round `f` issues through the provided
    /// [`ScopedPool`] (parking between rounds — no busy-spin while the
    /// caller computes), and join when `f` returns. This amortizes the
    /// thread-spawn cost across an arbitrary number of
    /// [`ScopedPool::for_each_chunk`] / [`ScopedPool::map`] rounds, which
    /// is what lets the sparse CTMC engine parallelize sweeps that take
    /// hundreds of microseconds, thousands of times per solve.
    ///
    /// With `threads == 1` nothing is spawned and every round runs as the
    /// plain serial loop.
    ///
    /// # Panics
    /// Re-raises panics from `f` (after shutting the workers down) and
    /// from round jobs (after the round has quiesced; the pool stays
    /// usable if `f` catches those).
    pub fn scoped<R>(&self, f: impl FnOnce(&ScopedPool<'_>) -> R) -> R {
        if self.threads == 1 {
            return f(&ScopedPool {
                shared: None,
                workers: Vec::new(),
                _not_sync: PhantomData,
            });
        }
        let shared = Shared::new();
        std::thread::scope(|scope| {
            let mut workers = Vec::with_capacity(self.threads - 1);
            for _ in 0..self.threads - 1 {
                workers.push(scope.spawn(|| worker_loop(&shared)).thread().clone());
            }
            let pool = ScopedPool {
                shared: Some(&shared),
                workers,
                _not_sync: PhantomData,
            };
            let result = catch_unwind(AssertUnwindSafe(|| f(&pool)));
            shared.shutdown.store(true, Ordering::Release);
            for worker in &pool.workers {
                worker.unpark();
            }
            match result {
                Ok(value) => value,
                Err(payload) => resume_unwind(payload),
            }
        })
    }

    /// One-shot convenience: [`WorkPool::scoped`] around a single
    /// [`ScopedPool::for_each_chunk`] round. Spawns and joins threads per
    /// call — the right tool for isolated coarse operations. Hot loops
    /// should hoist a [`WorkPool::scoped`] around themselves instead.
    ///
    /// # Panics
    /// Re-raises the panic of any chunk job after the pool has quiesced.
    pub fn for_each_chunk<T, F>(&self, data: &mut [T], chunk_len: usize, f: F)
    where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync,
    {
        // A one-shot round can never use more participants than it has
        // chunks; clamp before spawning (a persistent scope can't know its
        // future rounds, but this single round is fully known here).
        let chunks = data.len().div_ceil(chunk_len.max(1));
        WorkPool::new(self.threads.min(chunks.max(1)))
            .scoped(|pool| pool.for_each_chunk(data, chunk_len, &f));
    }

    /// One-shot convenience: [`WorkPool::scoped`] around a single
    /// [`ScopedPool::map`] round (spawns and joins threads per call).
    ///
    /// # Panics
    /// Re-raises the panic of any job after the pool has quiesced.
    pub fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        // Same single-round clamp as `for_each_chunk`: never spawn more
        // workers than there are jobs to claim.
        WorkPool::new(self.threads.min(items.len().max(1)))
            .scoped(|pool| pool.map(items, &f))
    }

    /// One-shot convenience: [`WorkPool::scoped`] around a single
    /// [`ScopedPool::map_isolated`] round. Unlike [`WorkPool::map`], a
    /// panicking job is contained to its own slot instead of taking the
    /// whole round down.
    pub fn map_isolated<T, R, F>(&self, items: &[T], f: F) -> Vec<Result<R, JobPanic>>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        WorkPool::new(self.threads.min(items.len().max(1)))
            .scoped(|pool| pool.map_isolated(items, &f))
    }
}

/// A job of [`ScopedPool::map_isolated`] panicked; carries the panic
/// message (when the payload was a string) and the job index, so a batch
/// layer can attribute the failure without re-running.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobPanic {
    /// Index of the panicking job in the submitted item slice.
    pub job: usize,
    /// The panic payload rendered to text (`&str`/`String` payloads
    /// verbatim, anything else a placeholder).
    pub message: String,
}

impl std::fmt::Display for JobPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job {} panicked: {}", self.job, self.message)
    }
}

impl std::error::Error for JobPanic {}

/// Renders a caught panic payload to text for [`JobPanic::message`].
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// A live persistent pool: workers are already spawned and parked, and
/// every [`ScopedPool::for_each_chunk`] / [`ScopedPool::map`] call is one
/// barrier-synced *round* over them — publish the job, wake everyone, all
/// participants (the caller included) pull chunks/items off a shared
/// cursor, quiesce, return. Obtained through [`WorkPool::scoped`].
///
/// Rounds must be issued from the thread that created the pool (it is the
/// thread the workers' completion handshake unparks); the type is `!Sync`,
/// so the compiler enforces this. Do **not** issue a round from inside a
/// round's job closure — the coordinator is busy participating, and the
/// nested round would deadlock. Nested *pools* are fine: a worker of an
/// outer pool may create and drive its own inner `WorkPool::scoped`
/// (the ensemble layer over the sparse engine does exactly this).
pub struct ScopedPool<'env> {
    /// `None` for the serial (1-thread) degeneration.
    shared: Option<&'env Shared>,
    workers: Vec<Thread>,
    /// Rounds park-wait on the creating thread, so handing a `&ScopedPool`
    /// to another thread must be a compile error: `Cell` strips `Sync`.
    _not_sync: PhantomData<Cell<()>>,
}

impl std::fmt::Debug for ScopedPool<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScopedPool")
            .field("threads", &self.threads())
            .finish()
    }
}

impl ScopedPool<'_> {
    /// The number of participating threads (the coordinator plus the
    /// parked workers).
    #[must_use]
    pub fn threads(&self) -> usize {
        self.workers.len() + 1
    }

    /// One barrier-synced round: publish `f`, wake the workers, run `f` on
    /// the calling thread too, and return once every participant is done.
    /// Panics from any participant (the caller included) are re-raised
    /// after the quiesce.
    fn round<F: Fn() + Sync>(&self, f: F) {
        let Some(shared) = self.shared else {
            // Serial degeneration: the closure is the whole round.
            return f();
        };
        // SAFETY (job publication): the raw pointer is to `f` on this
        // stack frame; this function does not return until `active` has
        // drained back to zero, so no worker dereferences it afterwards.
        unsafe {
            *shared.job.get() = Some(RawJob {
                data: std::ptr::from_ref(&f).cast::<()>(),
                call: call_job::<F>,
            });
        }
        shared.active.store(self.workers.len(), Ordering::Relaxed);
        shared.epoch.fetch_add(1, Ordering::Release);
        for worker in &self.workers {
            worker.unpark();
        }
        // The coordinator is a full participant — on a `threads`-wide pool
        // `threads` threads run the round, not `threads - 1`.
        let own = catch_unwind(AssertUnwindSafe(&f));
        let mut spins = 0usize;
        while shared.active.load(Ordering::Acquire) != 0 {
            if spins < SPIN_ROUNDS {
                spins += 1;
                std::hint::spin_loop();
            } else {
                std::thread::park();
            }
        }
        // SAFETY: quiesced — `active` drained to zero under Acquire, which
        // synchronizes with every worker's Release decrement, so no worker
        // can still observe `job`; the slot is exclusively ours again.
        unsafe {
            *shared.job.get() = None;
        }
        // Drain ALL payloads of this round (several workers can panic in
        // the same round); re-raise the first and drop the rest. Leaving
        // leftovers behind would poison the *next* round with a stale
        // panic, breaking the reuse-after-caught-panic contract.
        // INFALLIBLE: `Vec::push` is the only code ever run under the
        // panic-slot mutex and it cannot panic, so no poisoning.
        let mut worker_panics = std::mem::take(
            &mut *shared.panics.lock().expect("panic-slot mutex poisoned"),
        );
        if !worker_panics.is_empty() {
            resume_unwind(worker_panics.swap_remove(0));
        }
        if let Err(payload) = own {
            resume_unwind(payload);
        }
    }

    /// Runs `f` over disjoint consecutive chunks of `data`, in parallel
    /// across the pool's participants: `f(start, chunk)` receives the chunk
    /// beginning at `data[start]` with `chunk.len() <= chunk_len` (only the
    /// last chunk may be shorter).
    ///
    /// This is the primitive behind the row-block-parallel sparse kernels
    /// in `mapqn-markov`: each participant owns the output rows of the
    /// chunks it claims, so there is no reduction step at all — every
    /// output element is written exactly once, by a computation that
    /// depends only on the chunk boundaries. Because the boundaries derive
    /// from `chunk_len` (never from the worker count), the result is
    /// **bitwise identical at any worker count**, which is the same
    /// determinism contract [`ScopedPool::map`] gives for coarse jobs.
    ///
    /// `chunk_len` is clamped to at least 1. Rounds that cannot use the
    /// workers (`data.len() <= chunk_len`, or a serial pool) run inline
    /// with no handshake at all.
    ///
    /// # Panics
    /// Re-raises the panic of any chunk job after the round has quiesced
    /// (the pool remains usable for further rounds if the caller catches
    /// it).
    pub fn for_each_chunk<T, F>(&self, data: &mut [T], chunk_len: usize, f: F)
    where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync,
    {
        let chunk_len = chunk_len.max(1);
        if self.shared.is_none() || data.len() <= chunk_len {
            for (ci, chunk) in data.chunks_mut(chunk_len).enumerate() {
                f(ci * chunk_len, chunk);
            }
            return;
        }
        // Hand each participant exclusive ownership of the chunks it
        // claims: the chunk list is built once (disjoint &mut borrows),
        // participants race only on the cursor. The per-chunk Mutex is
        // uncontended by construction — a chunk index is claimed exactly
        // once.
        type ChunkSlot<'a, T> = Mutex<Option<(usize, &'a mut [T])>>;
        let jobs: Vec<ChunkSlot<'_, T>> = data
            .chunks_mut(chunk_len)
            .enumerate()
            .map(|(ci, chunk)| Mutex::new(Some((ci * chunk_len, chunk))))
            .collect();
        let cursor = AtomicUsize::new(0);
        self.round(|| loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            let Some(slot) = jobs.get(i) else { break };
            // INFALLIBLE: `take` cannot panic under the lock (no poison),
            // and the fetch_add cursor claims each index exactly once.
            let claimed = slot.lock().expect("chunk slot poisoned").take();
            let (start, chunk) = claimed.expect("chunk below len claimed exactly once");
            f(start, chunk);
        });
    }

    /// Applies `f` to every item, in parallel across the pool's
    /// participants, and returns the results in item order:
    /// `result[i] = f(i, &items[i])`.
    ///
    /// Jobs are claimed dynamically (shared atomic cursor), so long jobs
    /// don't serialize behind a bad static partition; results land at their
    /// job index, so the output is identical for every worker count.
    ///
    /// # Panics
    /// Re-raises the panic of any job after the round has quiesced (the
    /// pool remains usable for further rounds if the caller catches it).
    pub fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        if self.shared.is_none() || items.len() <= 1 {
            return items.iter().enumerate().map(|(i, item)| f(i, item)).collect();
        }
        let cursor = AtomicUsize::new(0);
        let results: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
        self.round(|| loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(i) else { break };
            let r = f(i, item);
            // INFALLIBLE: storing `Some(r)` cannot panic under the lock,
            // so the result-slot mutex is never poisoned.
            *results[i].lock().expect("result slot poisoned") = Some(r);
        });
        results
            .into_iter()
            .map(|slot| {
                // INFALLIBLE: no panic under the lock (see above), and the
                // cursor claims every index below `len` exactly once.
                let r = slot.into_inner().expect("result slot poisoned");
                r.expect("every job index below len was claimed exactly once")
            })
            .collect()
    }

    /// [`ScopedPool::map`] with **per-job panic isolation**: each job runs
    /// under `catch_unwind`, so one panicking job yields an
    /// `Err(`[`JobPanic`]`)` in its own slot while every other job's result
    /// is returned intact and the round (and pool) completes normally.
    ///
    /// This is the containment boundary the planning session runs its
    /// request batches on: a poisoned model or an injected fault in one
    /// what-if request must not take down the neighbouring requests or the
    /// persistent pool underneath them.
    ///
    /// The closure must be idempotent-safe to abandon mid-job (jobs hold no
    /// locks shared with other jobs); this is the standard `catch_unwind`
    /// contract and the reason the signature requires `F: Sync` but not
    /// unwind safety — each job touches only its own item and result slot.
    pub fn map_isolated<T, R, F>(&self, items: &[T], f: F) -> Vec<Result<R, JobPanic>>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        self.map(items, |i, item| {
            catch_unwind(AssertUnwindSafe(|| f(i, item))).map_err(|payload| JobPanic {
                job: i,
                message: panic_message(payload.as_ref()),
            })
        })
    }
}

/// One-shot convenience over [`WorkPool::map`] with the default pool width
/// (one participant per available core, or the `MAPQN_POOL_THREADS`
/// override).
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    WorkPool::default().map(items, f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    // Miri interprets every instruction, so the round-heavy tests run at a
    // fraction of their native size: same code paths (publish, spin, park,
    // drain, panic recovery), an order of magnitude fewer iterations.
    #[cfg(miri)]
    const MANY_ROUNDS: usize = 6;
    #[cfg(not(miri))]
    const MANY_ROUNDS: usize = 100;
    #[cfg(miri)]
    const SWEEPS: usize = 3;
    #[cfg(not(miri))]
    const SWEEPS: usize = 20;
    #[cfg(miri)]
    const SWEEP_LEN: usize = 101;
    #[cfg(not(miri))]
    const SWEEP_LEN: usize = 1003;
    #[cfg(miri)]
    const SWEEP_THREADS: &[usize] = &[2, 3];
    #[cfg(not(miri))]
    const SWEEP_THREADS: &[usize] = &[2, 3, 5, 8];

    #[test]
    fn map_preserves_item_order() {
        let items: Vec<usize> = (0..97).collect();
        for threads in [1, 2, 3, 8] {
            let out = WorkPool::new(threads).map(&items, |i, &x| {
                assert_eq!(i, x);
                x * x
            });
            let expected: Vec<usize> = items.iter().map(|&x| x * x).collect();
            assert_eq!(out, expected, "threads = {threads}");
        }
    }

    #[test]
    fn every_job_runs_exactly_once() {
        let items: Vec<usize> = (0..64).collect();
        let counter = AtomicUsize::new(0);
        let out = WorkPool::new(4).map(&items, |_, &x| {
            counter.fetch_add(1, Ordering::Relaxed);
            x
        });
        assert_eq!(counter.load(Ordering::Relaxed), items.len());
        assert_eq!(out, items);
    }

    #[test]
    fn zero_threads_clamps_to_serial() {
        let pool = WorkPool::new(0);
        assert_eq!(pool.threads(), 1);
        assert_eq!(pool.map(&[1, 2, 3], |_, &x| x + 1), vec![2, 3, 4]);
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let pool = WorkPool::new(8);
        let empty: Vec<i32> = Vec::new();
        assert!(pool.map(&empty, |_, &x| x).is_empty());
        assert_eq!(pool.map(&[41], |_, &x| x + 1), vec![42]);
    }

    #[test]
    fn results_are_worker_count_independent_under_skew() {
        // Heavily skewed job costs: the dynamic cursor must still assemble
        // by index, not completion order.
        let items: Vec<u64> = (0..24).map(|i| (i % 7) * 100).collect();
        let serial = WorkPool::new(1).map(&items, |i, &cost| {
            std::hint::black_box((0..cost).sum::<u64>()) + i as u64
        });
        let parallel = WorkPool::new(6).map(&items, |i, &cost| {
            std::hint::black_box((0..cost).sum::<u64>()) + i as u64
        });
        assert_eq!(serial, parallel);
    }

    #[test]
    fn chunked_runs_cover_every_element_at_any_worker_count() {
        for threads in [1, 2, 3, 8] {
            for chunk_len in [1, 3, 64, 1000] {
                let mut data: Vec<usize> = vec![0; 100];
                WorkPool::new(threads).for_each_chunk(&mut data, chunk_len, |start, chunk| {
                    for (i, x) in chunk.iter_mut().enumerate() {
                        *x = start + i + 1;
                    }
                });
                let expected: Vec<usize> = (1..=100).collect();
                assert_eq!(data, expected, "threads={threads} chunk_len={chunk_len}");
            }
        }
    }

    #[test]
    fn chunked_permuted_gather_is_bitwise_worker_invariant() {
        // The access pattern of a row-synthesizing generator apply: each
        // output element gathers from mixed-radix-*permuted* positions of a
        // shared read-only input (reads cross chunk boundaries freely).
        // The chunk contract guarantees bitwise invariance anyway: inputs
        // are immutable for the round, and each output element is written
        // once, in a fixed serial order within its chunk.
        let n = 3 * 4 * 5;
        let x: Vec<f64> = (0..n).map(|i| 1.0 / (i as f64 + 1.0)).collect();
        let gather = |j: usize| -> f64 {
            // Digit-reverse j in mixed radix (3, 4, 5) and combine a few
            // permuted reads with non-associative float accumulation.
            let (d0, r) = (j / 20, j % 20);
            let (d1, d2) = (r / 5, r % 5);
            let p = d2 * 12 + d1 * 3 + d0;
            x[p] * 0.7 + x[(p + 17) % n] * 0.2 + x[j] * 0.1
        };
        let mut serial = vec![0.0f64; n];
        WorkPool::new(1).for_each_chunk(&mut serial, 7, |start, chunk| {
            for (i, o) in chunk.iter_mut().enumerate() {
                *o = gather(start + i);
            }
        });
        for threads in SWEEP_THREADS {
            let mut out = vec![0.0f64; n];
            WorkPool::new(*threads).for_each_chunk(&mut out, 7, |start, chunk| {
                for (i, o) in chunk.iter_mut().enumerate() {
                    *o = gather(start + i);
                }
            });
            assert_eq!(serial, out, "threads = {threads}");
            // Persistent-scope rounds obey the same contract.
            let mut scoped_out = vec![0.0f64; n];
            WorkPool::new(*threads).scoped(|pool| {
                pool.for_each_chunk(&mut scoped_out, 7, |start, chunk| {
                    for (i, o) in chunk.iter_mut().enumerate() {
                        *o = gather(start + i);
                    }
                });
            });
            assert_eq!(serial, scoped_out, "scoped threads = {threads}");
        }
    }

    #[test]
    fn chunked_zero_chunk_len_clamps_and_empty_input_is_fine() {
        let mut data = vec![1, 2, 3];
        WorkPool::new(2).for_each_chunk(&mut data, 0, |_, chunk| {
            for x in chunk.iter_mut() {
                *x *= 10;
            }
        });
        assert_eq!(data, vec![10, 20, 30]);
        let mut empty: Vec<i32> = Vec::new();
        WorkPool::new(4).for_each_chunk(&mut empty, 8, |_, _| panic!("no chunks expected"));
    }

    #[test]
    fn chunked_panics_propagate() {
        let result = std::panic::catch_unwind(|| {
            let mut data = vec![0usize; 16];
            WorkPool::new(2).for_each_chunk(&mut data, 4, |start, _| {
                assert!(start != 8, "chunk at 8 fails");
            });
        });
        assert!(result.is_err());
    }

    #[test]
    fn panics_propagate() {
        let result = std::panic::catch_unwind(|| {
            WorkPool::new(2).map(&[0usize, 1, 2, 3], |_, &x| {
                assert!(x != 2, "job 2 fails");
                x
            })
        });
        assert!(result.is_err());
    }

    #[test]
    fn available_parallelism_is_positive() {
        assert!(available_parallelism() >= 1);
    }

    #[test]
    fn thread_override_parsing() {
        assert_eq!(parse_thread_override(None), None);
        assert_eq!(parse_thread_override(Some("")), None);
        assert_eq!(parse_thread_override(Some("0")), None);
        assert_eq!(parse_thread_override(Some("-3")), None);
        assert_eq!(parse_thread_override(Some("not a number")), None);
        assert_eq!(parse_thread_override(Some("4")), Some(4));
        assert_eq!(parse_thread_override(Some(" 16 ")), Some(16));
        assert!(default_threads() >= 1);
    }

    // ---- persistent (scoped) mode ----

    #[test]
    fn scoped_serves_many_rounds_and_returns_the_closure_value() {
        let total = WorkPool::new(4).scoped(|pool| {
            assert_eq!(pool.threads(), 4);
            let mut acc = 0usize;
            for round in 0..MANY_ROUNDS {
                let mut data = vec![0usize; 257];
                pool.for_each_chunk(&mut data, 16, |start, chunk| {
                    for (i, x) in chunk.iter_mut().enumerate() {
                        *x = round + start + i;
                    }
                });
                acc += data.iter().sum::<usize>();
            }
            acc
        });
        let expected: usize = (0..MANY_ROUNDS)
            .map(|round| (0..257usize).map(|i| round + i).sum::<usize>())
            .sum();
        assert_eq!(total, expected);
    }

    #[test]
    fn scoped_rounds_are_bitwise_worker_count_invariant() {
        let run = |threads: usize| {
            WorkPool::new(threads).scoped(|pool| {
                let mut data = vec![0.0f64; SWEEP_LEN];
                for _ in 0..SWEEPS {
                    pool.for_each_chunk(&mut data, 37, |start, chunk| {
                        for (i, x) in chunk.iter_mut().enumerate() {
                            *x = (*x + (start + i) as f64).sin();
                        }
                    });
                }
                data
            })
        };
        let serial = run(1);
        for &threads in SWEEP_THREADS {
            let parallel = run(threads);
            let same = serial
                .iter()
                .zip(&parallel)
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same, "threads = {threads} must reproduce the serial bits");
        }
    }

    #[test]
    fn scoped_map_matches_serial_map() {
        let items: Vec<usize> = (0..53).collect();
        let expected: Vec<usize> = items.iter().map(|&x| x * 3 + 1).collect();
        WorkPool::new(3).scoped(|pool| {
            for _ in 0..10 {
                let out = pool.map(&items, |_, &x| x * 3 + 1);
                assert_eq!(out, expected);
            }
        });
    }

    #[test]
    fn scoped_panic_propagates_and_pool_is_reusable_after_catch() {
        WorkPool::new(4).scoped(|pool| {
            // Round 1 works.
            let mut data = vec![0usize; 64];
            pool.for_each_chunk(&mut data, 4, |start, chunk| {
                for (i, x) in chunk.iter_mut().enumerate() {
                    *x = start + i;
                }
            });
            assert_eq!(data[63], 63);

            // Round 2 panics in some chunk; the panic must reach us here
            // (after quiesce), not poison the pool.
            let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
                let mut data = vec![0usize; 64];
                pool.for_each_chunk(&mut data, 4, |start, _| {
                    assert!(start != 32, "chunk at 32 fails");
                });
            }));
            assert!(caught.is_err(), "worker panic must propagate to the caller");

            // Round 3: the same pool (same parked workers) still serves
            // rounds correctly after the caught panic.
            let mut data = vec![0usize; 64];
            pool.for_each_chunk(&mut data, 4, |start, chunk| {
                for (i, x) in chunk.iter_mut().enumerate() {
                    *x = 2 * (start + i);
                }
            });
            let expected: Vec<usize> = (0..64).map(|i| 2 * i).collect();
            assert_eq!(data, expected);

            // And a panic on the *coordinator's* own slice propagates too.
            let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
                let mut data = vec![0usize; 8];
                pool.for_each_chunk(&mut data, 1, |start, _| {
                    assert!(start != 5, "chunk at 5 fails");
                });
            }));
            assert!(caught.is_err());

            let out = pool.map(&[1usize, 2, 3], |_, &x| x + 1);
            assert_eq!(out, vec![2, 3, 4]);
        });
    }

    #[test]
    fn multiple_panics_in_one_round_do_not_poison_the_next_round() {
        // Several workers can panic in the same round; every payload must
        // be drained when the round re-raises, or a later all-successful
        // round would spuriously re-raise a stale one.
        WorkPool::new(4).scoped(|pool| {
            let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
                let mut data = vec![0usize; 64];
                // Every chunk panics — all participants push a payload.
                pool.for_each_chunk(&mut data, 4, |_, _| panic!("boom"));
            }));
            assert!(caught.is_err());

            // An all-successful round right after must succeed.
            let mut data = vec![1usize; 32];
            pool.for_each_chunk(&mut data, 2, |_, chunk| {
                for x in chunk.iter_mut() {
                    *x += 1;
                }
            });
            assert!(data.iter().all(|&x| x == 2));
        });
    }

    #[test]
    fn one_shot_calls_clamp_workers_to_the_job_count() {
        // A 32-wide pool given 2 items must not wake 31 workers for one
        // round; behaviourally we can only observe correctness, so this
        // pins the results while exercising the clamped path.
        let pool = WorkPool::new(32);
        assert_eq!(pool.map(&[10, 20], |i, &x| x + i), vec![10, 21]);
        let mut data = vec![0u8; 3];
        pool.for_each_chunk(&mut data, 2, |start, chunk| {
            for (i, x) in chunk.iter_mut().enumerate() {
                *x = (start + i) as u8;
            }
        });
        assert_eq!(data, vec![0, 1, 2]);
    }

    #[test]
    fn scoped_body_panic_still_joins_workers() {
        let caught = std::panic::catch_unwind(|| {
            WorkPool::new(4).scoped(|pool| {
                let mut data = vec![0usize; 16];
                pool.for_each_chunk(&mut data, 2, |_, chunk| {
                    for x in chunk.iter_mut() {
                        *x += 1;
                    }
                });
                panic!("body fails after a successful round");
            })
        });
        // If shutdown were not signalled on the panic path, thread::scope
        // would deadlock joining the parked workers and this test would
        // hang rather than fail.
        assert!(caught.is_err());
    }

    #[test]
    fn oversubscribed_pool_works() {
        // Many more workers than cores (and than chunks): extra workers
        // wake, find the cursor drained, and quiesce without incident.
        let cores = available_parallelism();
        let threads = (4 * cores).max(16);
        WorkPool::new(threads).scoped(|pool| {
            assert_eq!(pool.threads(), threads);
            for _ in 0..50 {
                let mut data = vec![1usize; 97];
                pool.for_each_chunk(&mut data, 8, |_, chunk| {
                    for x in chunk.iter_mut() {
                        *x += 1;
                    }
                });
                assert!(data.iter().all(|&x| x == 2));
            }
        });
    }

    #[test]
    fn nested_scoped_pools_do_not_deadlock() {
        // Outer coarse map (the ensemble shape) whose jobs each drive an
        // inner persistent pool (the sparse-kernel shape). Every inner
        // pool has its own workers and its own handshake, so the nesting
        // must compose without deadlock or cross-talk.
        let jobs: Vec<usize> = (0..6).collect();
        let outer = WorkPool::new(3);
        let results = outer.scoped(|pool| {
            pool.map(&jobs, |_, &job| {
                WorkPool::new(2).scoped(|inner| {
                    let mut data = vec![0usize; 129];
                    for _ in 0..10 {
                        inner.for_each_chunk(&mut data, 16, |start, chunk| {
                            for (i, x) in chunk.iter_mut().enumerate() {
                                *x += job + start + i;
                            }
                        });
                    }
                    data.iter().sum::<usize>()
                })
            })
        });
        let expected: Vec<usize> = jobs
            .iter()
            .map(|&job| 10 * (0..129usize).map(|i| job + i).sum::<usize>())
            .collect();
        assert_eq!(results, expected);
    }

    #[test]
    fn one_shot_calls_still_work_through_the_scoped_substrate() {
        // WorkPool::map / for_each_chunk are now thin wrappers over a
        // single-round scope; their observable contract is unchanged.
        let pool = WorkPool::new(4);
        let out = pool.map(&(0..31).collect::<Vec<usize>>(), |i, &x| i + x);
        assert_eq!(out, (0..31).map(|x| 2 * x).collect::<Vec<usize>>());
    }

    #[test]
    fn map_isolated_contains_panics_to_their_slot() {
        let items: Vec<usize> = (0..17).collect();
        for threads in [1, 4] {
            let pool = WorkPool::new(threads);
            let results = pool.map_isolated(&items, |_, &x| {
                assert!(x != 5 && x != 11, "injected failure at {x}");
                x * 2
            });
            assert_eq!(results.len(), items.len());
            for (i, r) in results.iter().enumerate() {
                if i == 5 || i == 11 {
                    let e = r.as_ref().unwrap_err();
                    assert_eq!(e.job, i);
                    assert!(e.message.contains("injected failure"), "{e}");
                } else {
                    assert_eq!(*r.as_ref().unwrap(), i * 2);
                }
            }
        }
    }

    #[test]
    fn map_isolated_keeps_the_persistent_pool_usable() {
        // A panicking round must not wedge the scope: subsequent rounds on
        // the same ScopedPool run normally.
        WorkPool::new(4).scoped(|pool| {
            let items: Vec<usize> = (0..8).collect();
            let first = pool.map_isolated(&items, |_, &x| {
                assert!(x != 0, "poisoned job");
                x
            });
            assert!(first[0].is_err());
            assert_eq!(first.iter().filter(|r| r.is_ok()).count(), 7);
            let second = pool.map(&items, |_, &x| x + 1);
            assert_eq!(second, (1..9).collect::<Vec<usize>>());
        });
    }
}
