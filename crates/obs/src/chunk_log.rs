//! The per-thread event log: one single-writer chunk chain per recording
//! thread, shared by the span flight recorder ([`crate::span`]) and the
//! simulator's virtual-time profiler.
//!
//! # Write path
//!
//! Each thread appends to the tail ("head") chunk of its own chain: one
//! relaxed load of the chunk's length, a plain element write, and a
//! release store of `len + 1` that publishes the record. No lock, no
//! atomic read-modify-write, no allocation. The thread's head is cached
//! in a caller-declared thread-local [`LogHead`] together with the log's
//! generation; a head whose generation does not match the log's current
//! one is never followed, so a stale head (another log, a dropped log, or
//! a log drained since) only sends the writer down the `#[cold]` slow
//! path. The slow path runs once per [`CHUNK`] records (and once per
//! drain): it takes the thread's own mutex, seals the full head and
//! installs a fresh one from a bounded [`ChunkPool`].
//!
//! # Read path
//!
//! Readers take each thread's mutex and copy out the published prefix of
//! every chunk (acquire-load of `len`). Published records are never
//! rewritten while a reader can see them: a chunk is only reused after it
//! left the chain under the same mutex, so no read is ever torn, even
//! concurrently with writers. [`ChunkLog::drain`] hands sealed chunks
//! back to the pool; the head stays with the writer, which rewinds it on
//! its first record after the drain. Records published while a drain is
//! running are kept for the next drain, never lost.
//!
//! # Ring mode
//!
//! With a ring capacity set ([`ChunkLog::set_ring_cap`]), each thread
//! keeps at least its newest `cap` records: once the chunks after the
//! oldest already hold `cap`, the writer recycles the oldest chunk as its
//! next head instead of growing, and readers trim to exactly the newest
//! `cap`. Every overwritten or trimmed record is counted, exactly. Each
//! thread latches the capacity at its first record after a drain.

use std::cell::{Cell, UnsafeCell};
use std::collections::VecDeque;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread::LocalKey;

/// Records per chunk (36 KB of simulator events, 24 KB of spans): big
/// enough to amortize the slow path, small enough to recycle well.
pub const CHUNK: usize = 512;

/// A fixed-capacity chunk with a published length. Only its owning
/// thread writes `recs[len]` and then release-stores `len + 1`; readers
/// acquire-load `len` and read the first `len` records.
struct Chunk<T> {
    len: AtomicUsize,
    recs: UnsafeCell<[MaybeUninit<T>; CHUNK]>,
}

impl<T: Copy> Chunk<T> {
    fn boxed() -> Box<Chunk<T>> {
        // Only `len` needs initializing: records stay `MaybeUninit` until
        // published. Avoids materializing the chunk on the stack.
        let mut chunk = Box::<Chunk<T>>::new_uninit();
        unsafe {
            std::ptr::addr_of_mut!((*chunk.as_mut_ptr()).len).write(AtomicUsize::new(0));
            chunk.assume_init()
        }
    }

    /// Read published record `i` (`i` below an acquire-loaded `len`).
    /// Goes through an element pointer, never a reference to the whole
    /// array, so it cannot overlap the writer's in-flight slot.
    unsafe fn read(&self, i: usize) -> T {
        let base: *const MaybeUninit<T> = self.recs.get().cast();
        (*base.add(i)).assume_init()
    }
}

/// Chunks parked by drains and dropped logs, reused by later heads. A
/// process that records more than once (rep loops, sweeps, benches) then
/// pays the page faults of a large event stream only on its first run.
pub struct ChunkPool<T> {
    parked: Mutex<Vec<Box<Chunk<T>>>>,
    cap: usize,
}

impl<T: Copy> ChunkPool<T> {
    /// A pool keeping at most `cap` parked chunks; the rest are freed.
    pub const fn new(cap: usize) -> ChunkPool<T> {
        ChunkPool {
            parked: Mutex::new(Vec::new()),
            cap,
        }
    }

    /// A parked chunk if there is one, else a fresh allocation. The
    /// relaxed `len` reset suffices: readers only discover the chunk
    /// through its thread's mutex, which orders the reset before them.
    fn get(&self) -> Box<Chunk<T>> {
        match self.parked.lock().unwrap().pop() {
            Some(chunk) => {
                chunk.len.store(0, Ordering::Relaxed);
                chunk
            }
            None => Chunk::boxed(),
        }
    }

    fn put(&self, chunks: impl Iterator<Item = Box<Chunk<T>>>) {
        let mut parked = self.parked.lock().unwrap();
        let room = self.cap.saturating_sub(parked.len());
        parked.extend(chunks.take(room));
    }
}

#[derive(Clone, Copy)]
struct HeadSlot {
    /// Id of the log the pointers belong to.
    owner: u64,
    /// The log's generation when the slot was set.
    gen: u64,
    /// This thread's `Mutex<ThreadChain<T>>` in the owning log.
    chain: *const (),
    /// The chain's current head `Chunk<T>`.
    head: *const (),
}

/// Writer-side cache of where the calling thread appends: declare one per
/// record type with `thread_local! { static HEAD: LogHead = const {
/// LogHead::new() }; }` and pass it to [`ChunkLog::push`]. Two logs that
/// share a `LogHead` on one thread still work, but re-register whenever
/// the thread switches between them.
pub struct LogHead(Cell<HeadSlot>);

impl LogHead {
    pub const fn new() -> LogHead {
        LogHead(Cell::new(HeadSlot {
            owner: 0,
            gen: 0,
            chain: std::ptr::null(),
            head: std::ptr::null(),
        }))
    }
}

impl Default for LogHead {
    fn default() -> LogHead {
        LogHead::new()
    }
}

/// One thread's chunks, oldest first; the last one is the writer's head.
/// Every chunk before the head is full.
struct ThreadChain<T> {
    chunks: VecDeque<Box<Chunk<T>>>,
    /// Records at the front of `chunks[0]` already drained.
    skip: usize,
    /// Records the ring recycled since the last drain.
    dropped: u64,
    /// Ring capacity latched for the current drain period (0 = unbounded).
    cap: usize,
}

impl<T> ThreadChain<T> {
    /// Ring mode, when the head is full: once the chunks after the oldest
    /// hold the newest `cap` records, take the oldest chunk to overwrite,
    /// counting its unread records as dropped.
    fn recycle_oldest(&mut self) -> Option<Box<Chunk<T>>> {
        let others = self.chunks.len().checked_sub(1)? * CHUNK;
        if self.cap == 0 || others < self.cap {
            return None;
        }
        let oldest = self.chunks.pop_front()?;
        self.dropped += (CHUNK - self.skip) as u64;
        self.skip = 0;
        oldest.len.store(0, Ordering::Relaxed);
        Some(oldest)
    }
}

/// Log ids and generations, drawn from one counter so neither repeats.
static NEXT_GEN: AtomicU64 = AtomicU64::new(1);

fn next_gen() -> u64 {
    NEXT_GEN.fetch_add(1, Ordering::Relaxed)
}

/// The per-thread event log. See the module docs.
pub struct ChunkLog<T: Copy + Send + 'static> {
    id: u64,
    /// Changes on every drain; a [`LogHead`] of an older generation is
    /// never followed on the fast path.
    gen: AtomicU64,
    ring_cap: AtomicUsize,
    pool: &'static ChunkPool<T>,
    // Boxed so the chain pointers cached in `LogHead`s stay valid while
    // the vector grows.
    #[allow(clippy::vec_box)]
    chains: Mutex<Vec<Box<Mutex<ThreadChain<T>>>>>,
}

impl<T: Copy + Send + 'static> ChunkLog<T> {
    /// An empty, unbounded log drawing chunks from `pool`.
    pub fn new(pool: &'static ChunkPool<T>) -> ChunkLog<T> {
        ChunkLog {
            id: next_gen(),
            gen: AtomicU64::new(next_gen()),
            ring_cap: AtomicUsize::new(0),
            pool,
            chains: Mutex::new(Vec::new()),
        }
    }

    /// Keep only the newest `cap` records per thread (0 = unbounded).
    /// Each thread picks it up at its first record after the next drain
    /// (or its first record ever).
    pub fn set_ring_cap(&self, cap: usize) {
        self.ring_cap.store(cap, Ordering::Relaxed);
    }

    pub fn ring_cap(&self) -> usize {
        self.ring_cap.load(Ordering::Relaxed)
    }

    /// Append `rec` from the calling thread. Lock-free and
    /// allocation-free except once per [`CHUNK`] records.
    #[inline]
    pub fn push(&self, key: &'static LocalKey<LogHead>, rec: T) {
        let slot = key.with(|h| h.0.get());
        let mut head = slot.head as *const Chunk<T>;
        // SAFETY: a matching generation means this log's slow path set the
        // slot, so `head` is this thread's live head chunk (only this
        // thread replaces it), and this thread is its only writer.
        let mut len = if slot.gen == self.gen.load(Ordering::Relaxed) {
            unsafe { (*head).len.load(Ordering::Relaxed) }
        } else {
            CHUNK
        };
        if len == CHUNK {
            head = self.new_head(key);
            len = unsafe { (*head).len.load(Ordering::Relaxed) };
        }
        unsafe {
            let base: *mut MaybeUninit<T> = (*head).recs.get().cast();
            (*base.add(len)).write(rec);
            (*head).len.store(len + 1, Ordering::Release);
        }
    }

    /// Register the calling thread and give it a head chunk now, so its
    /// first [`ChunkLog::push`] takes no lock and allocates nothing.
    pub fn register(&self, key: &'static LocalKey<LogHead>) {
        if key.with(|h| h.0.get()).gen != self.gen.load(Ordering::Relaxed) {
            self.new_head(key);
        }
    }

    /// Slow path: bring the calling thread's slot up to date and return a
    /// head chunk with room for one more record.
    #[cold]
    fn new_head(&self, key: &'static LocalKey<LogHead>) -> *const Chunk<T> {
        let slot = key.with(|h| h.0.get());
        let gen = self.gen.load(Ordering::Relaxed);
        let chain: &Mutex<ThreadChain<T>> = if slot.owner == self.id {
            // SAFETY: chains live, boxed, until the log drops.
            unsafe { &*(slot.chain as *const Mutex<ThreadChain<T>>) }
        } else {
            let mut chains = self.chains.lock().unwrap();
            chains.push(Box::new(Mutex::new(ThreadChain {
                chunks: VecDeque::new(),
                skip: 0,
                dropped: 0,
                cap: 0,
            })));
            let chain: *const Mutex<ThreadChain<T>> = &**chains.last().expect("just pushed");
            unsafe { &*chain }
        };
        let mut st = chain.lock().unwrap();
        if slot.owner != self.id || slot.gen != gen {
            // First record since registration or the last drain.
            st.cap = self.ring_cap();
            let drained =
                st.chunks.len() == 1 && st.skip == st.chunks[0].len.load(Ordering::Relaxed);
            if drained {
                st.chunks[0].len.store(0, Ordering::Relaxed);
                st.skip = 0;
            }
        }
        let full = st
            .chunks
            .back()
            .is_none_or(|c| c.len.load(Ordering::Relaxed) == CHUNK);
        if full {
            let next = st.recycle_oldest().unwrap_or_else(|| self.pool.get());
            st.chunks.push_back(next);
        }
        let head: *const Chunk<T> = &**st.chunks.back().expect("head installed");
        key.with(|h| {
            h.0.set(HeadSlot {
                owner: self.id,
                gen,
                chain: chain as *const _ as *const (),
                head: head.cast(),
            })
        });
        head
    }

    /// Visit every retained record — threads in registration order, each
    /// thread's records oldest first — and return how many the ring
    /// dropped. With `consume`, visited records are removed.
    fn visit(&self, consume: bool, mut f: impl FnMut(T)) -> u64 {
        let mut dropped = 0u64;
        for chain in self.chains.lock().unwrap().iter() {
            let mut st = chain.lock().unwrap();
            let Some(last) = st.chunks.len().checked_sub(1) else {
                continue;
            };
            let head_len = st.chunks[last].len.load(Ordering::Acquire);
            let live = last * CHUNK + head_len - st.skip;
            let trim = if st.cap != 0 {
                live.saturating_sub(st.cap)
            } else {
                0
            };
            dropped += trim as u64 + st.dropped;
            let mut start = st.skip + trim;
            for (i, chunk) in st.chunks.iter().enumerate() {
                let n = if i == last { head_len } else { CHUNK };
                // SAFETY: below the acquire-loaded (or sealed) length.
                (start.min(n)..n).for_each(|j| f(unsafe { chunk.read(j) }));
                start = start.saturating_sub(n);
            }
            if consume {
                st.dropped = 0;
                st.skip = head_len;
                self.pool.put(st.chunks.drain(..last));
            }
        }
        dropped
    }

    /// Copy out every retained record without removing it (see `drain`
    /// for the order); returns the exact ring-drop count.
    pub fn for_each(&self, f: impl FnMut(T)) -> u64 {
        self.visit(false, f)
    }

    /// Take every retained record — threads in registration order, each
    /// oldest first — leaving the log empty; returns the exact count of
    /// records the ring dropped since the last drain.
    pub fn drain(&self, f: impl FnMut(T)) -> u64 {
        let dropped = self.visit(true, f);
        self.gen.store(next_gen(), Ordering::Relaxed);
        dropped
    }
}

impl<T: Copy + Send + 'static> Drop for ChunkLog<T> {
    /// Park every chunk for reuse. `LogHead`s still pointing at them are
    /// harmless: no later log has this log's id or generation.
    fn drop(&mut self) {
        for chain in self.chains.get_mut().unwrap().iter_mut() {
            self.pool.put(chain.get_mut().unwrap().chunks.drain(..));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    static POOL: ChunkPool<u64> = ChunkPool::new(16);
    thread_local! {
        static HEAD: LogHead = const { LogHead::new() };
    }

    fn drained(log: &ChunkLog<u64>) -> (Vec<u64>, u64) {
        let mut out = Vec::new();
        let dropped = log.drain(|r| out.push(r));
        (out, dropped)
    }

    /// Pushes `0..n` into a ring of `cap` and checks that exactly the
    /// newest `min(cap, n)` survive, with the rest counted as dropped.
    fn check_ring(cap: usize, n: u64) {
        let log = ChunkLog::new(&POOL);
        log.set_ring_cap(cap);
        (0..n).for_each(|i| log.push(&HEAD, i));
        let keep = (cap as u64).min(n);
        assert_eq!(
            drained(&log),
            ((n - keep..n).collect(), n - keep),
            "cap {cap}, n {n}"
        );
    }

    #[test]
    fn ring_mode_keeps_newest_with_exact_drop_count() {
        check_ring(4, 11);
        check_ring(100, CHUNK as u64 * 5 + 3);
    }

    #[test]
    fn exactly_full_ring_has_no_drops() {
        check_ring(3, 3);
    }

    #[test]
    fn interleaved_logs_on_one_thread_lose_nothing() {
        let (a, b) = (ChunkLog::new(&POOL), ChunkLog::new(&POOL));
        for i in 0..10u64 {
            a.push(&HEAD, i);
            b.push(&HEAD, 100 + i);
        }
        assert_eq!(drained(&a).0, (0..10).collect::<Vec<_>>());
        assert_eq!(drained(&b).0, (100..110).collect::<Vec<_>>());
    }
}
