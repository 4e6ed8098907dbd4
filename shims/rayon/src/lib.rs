//! Offline drop-in replacement for the subset of [`rayon`] this
//! workspace uses, implemented on `std::thread::scope`.
//!
//! The build container cannot reach crates.io, so the real rayon cannot
//! be fetched; this shim keeps the same call-site API (`par_iter`,
//! `into_par_iter`, `map`, `map_init`, `for_each`, `collect`) while
//! making one *stronger* guarantee the selector hot path relies on:
//!
//! **Deterministic chunking.** An input of length `n` is always split
//! into `min(n, 64)` contiguous chunks whose boundaries depend only on
//! `n` — never on the worker count. Chunk results are combined in chunk
//! order. Consequently `map_init` creates its per-chunk state at the
//! same boundaries no matter how many threads run (or whether
//! `RAYON_NUM_THREADS=1`), and a caller that collects per-chunk partial
//! sums and adds them in order gets the same floating-point reduction
//! run-to-run and machine-to-machine.
//!
//! Scheduling is work-sharing rather than work-stealing: workers pull
//! the next unclaimed chunk off an atomic counter, which load-balances
//! uneven chunks to within one chunk's granularity. Threads are scoped
//! per top-level call; callers on hot inner loops should gate small
//! inputs (see `chef-model`'s `PAR_GRAIN`).
//!
//! **Scoped pools.** [`ThreadPoolBuilder`] and [`ThreadPool::install`]
//! keep rayon 1's signatures, so one process can run the same code at
//! several pool sizes: inside `install`, [`current_num_threads`] reports
//! the pool's size on the calling thread and on every worker a parallel
//! call spawns there. Outside it the size is `RAYON_NUM_THREADS`, or else
//! the core count, read once per process.
//!
//! [`rayon`]: https://docs.rs/rayon

use std::cell::Cell;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// Upper bound on the number of chunks an input is split into. 64 keeps
/// per-call bookkeeping trivial while load-balancing up to 64 workers;
/// chunk boundaries depend only on input length so reductions are
/// deterministic across thread counts.
const MAX_CHUNKS: usize = 64;

thread_local! {
    /// The size of the pool installed on this thread, if any. Thread-local
    /// so concurrent callers (say, tests in one harness) cannot see each
    /// other's pools.
    static INSTALLED: Cell<Option<usize>> = const { Cell::new(None) };
}

/// The process-wide pool size: `RAYON_NUM_THREADS` if set and positive,
/// otherwise the machine's available parallelism. Read once.
fn default_num_threads() -> usize {
    static N: OnceLock<usize> = OnceLock::new();
    *N.get_or_init(|| {
        std::env::var("RAYON_NUM_THREADS")
            .ok()
            .and_then(|s| s.parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            })
    })
}

/// Number of worker threads: the size of the pool installed around the
/// caller (see [`ThreadPool::install`]), otherwise the process-wide
/// default.
pub fn current_num_threads() -> usize {
    INSTALLED
        .with(Cell::get)
        .unwrap_or_else(default_num_threads)
}

/// Builder for a [`ThreadPool`] (rayon's `ThreadPoolBuilder`, reduced to
/// the pool size).
#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

impl ThreadPoolBuilder {
    /// A builder for a pool of the default size.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the pool size; `0` means the process-wide default.
    pub fn num_threads(mut self, num_threads: usize) -> Self {
        self.num_threads = num_threads;
        self
    }

    /// Create the pool. Never fails; the `Result` keeps rayon's signature.
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        let num_threads = match self.num_threads {
            0 => default_num_threads(),
            n => n,
        };
        Ok(ThreadPool { num_threads })
    }
}

/// A pool size that [`ThreadPool::install`] puts in effect around a
/// closure. Workers are still scoped per parallel call; the pool holds
/// no threads of its own.
#[derive(Debug)]
pub struct ThreadPool {
    num_threads: usize,
}

impl ThreadPool {
    /// Run `op` on the calling thread with this pool's size in effect for
    /// every parallel call it makes. The previous size comes back when
    /// `op` returns or unwinds, so installs nest.
    pub fn install<OP, R>(&self, op: OP) -> R
    where
        OP: FnOnce() -> R + Send,
        R: Send,
    {
        struct Restore(Option<usize>);
        impl Drop for Restore {
            fn drop(&mut self) {
                INSTALLED.with(|c| c.set(self.0));
            }
        }
        let _restore = Restore(INSTALLED.with(|c| c.replace(Some(self.num_threads))));
        op()
    }
}

/// Error type of [`ThreadPoolBuilder::build`] (never produced here).
#[derive(Debug)]
pub struct ThreadPoolBuildError {
    _private: (),
}

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("thread pool build error")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

/// Deterministic chunk boundaries for an input of length `len`:
/// `min(len, MAX_CHUNKS)` contiguous ranges differing in size by at most
/// one element.
fn chunk_bounds(len: usize) -> Vec<Range<usize>> {
    if len == 0 {
        return Vec::new();
    }
    let chunks = len.min(MAX_CHUNKS);
    let base = len / chunks;
    let extra = len % chunks;
    let mut bounds = Vec::with_capacity(chunks);
    let mut start = 0;
    for c in 0..chunks {
        let size = base + usize::from(c < extra);
        bounds.push(start..start + size);
        start += size;
    }
    bounds
}

/// Run `work` over every chunk of `0..len` and return the per-chunk
/// results **in chunk order**. Runs inline when only one worker is
/// available or there is only one chunk.
fn run_chunks<R, F>(len: usize, work: F) -> Vec<R>
where
    R: Send,
    F: Fn(Range<usize>) -> R + Sync,
{
    let bounds = chunk_bounds(len);
    let workers = current_num_threads().min(bounds.len());
    if workers <= 1 {
        return bounds.into_iter().map(work).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = bounds.iter().map(|_| Mutex::new(None)).collect();
    // Workers inherit the caller's installed pool, so parallel calls they
    // make see the same size.
    let installed = INSTALLED.with(Cell::get);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                INSTALLED.with(|c| c.set(installed));
                loop {
                    let c = next.fetch_add(1, Ordering::Relaxed);
                    let Some(range) = bounds.get(c) else { break };
                    let out = work(range.clone());
                    *slots[c].lock().unwrap() = Some(out);
                }
            });
        }
    });
    slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .unwrap()
                .expect("worker completed every claimed chunk")
        })
        .collect()
}

/// A parallel pipeline over an indexable source: `len` items produced by
/// `f(i)`. `map` composes producers; terminal operations fan the index
/// space out over the thread pool.
pub struct Par<T, F> {
    len: usize,
    f: F,
    _marker: std::marker::PhantomData<fn() -> T>,
}

impl<T, F> Par<T, F>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    fn new(len: usize, f: F) -> Self {
        Self {
            len,
            f,
            _marker: std::marker::PhantomData,
        }
    }

    /// Transform each item (lazy; composes with the producer).
    pub fn map<U, G>(self, g: G) -> Par<U, impl Fn(usize) -> U + Sync>
    where
        U: Send,
        G: Fn(T) -> U + Sync,
    {
        let f = self.f;
        Par::new(self.len, move |i| g(f(i)))
    }

    /// Transform each item with per-worker-chunk state created by `init`
    /// (rayon's `map_init`): `init` runs once per chunk, `g` reuses the
    /// state across that chunk's items. Terminal — returns the mapped
    /// items in input order.
    pub fn map_init<S, U, INIT, G>(self, init: INIT, g: G) -> ParCollected<U>
    where
        U: Send,
        INIT: Fn() -> S + Sync,
        G: Fn(&mut S, T) -> U + Sync,
    {
        let f = &self.f;
        let parts = run_chunks(self.len, move |range| {
            let mut state = init();
            range.map(|i| g(&mut state, f(i))).collect::<Vec<U>>()
        });
        ParCollected {
            items: parts.into_iter().flatten().collect(),
        }
    }

    /// Evaluate the pipeline into a collection (order-preserving).
    pub fn collect<C: From<Vec<T>>>(self) -> C {
        let f = &self.f;
        let parts = run_chunks(self.len, move |range| range.map(f).collect::<Vec<T>>());
        C::from(parts.into_iter().flatten().collect())
    }

    /// Run `g` on every item (no ordering guarantee between chunks).
    pub fn for_each<G>(self, g: G)
    where
        G: Fn(T) + Sync,
    {
        let f = &self.f;
        run_chunks(self.len, move |range| range.for_each(|i| g(f(i))));
    }
}

/// Items already evaluated by a terminal `map_init`; only `collect`
/// remains.
pub struct ParCollected<T> {
    items: Vec<T>,
}

impl<T> ParCollected<T> {
    /// The evaluated items, in input order.
    pub fn collect<C: From<Vec<T>>>(self) -> C {
        C::from(self.items)
    }
}

/// `.par_iter()` on slices (and through deref, `Vec`).
pub trait IntoParallelRefIterator<'a> {
    /// Borrowed item type.
    type Item: Send + 'a;
    /// Pipeline type.
    type Iter;

    /// Parallel iterator over borrowed items.
    fn par_iter(&'a self) -> Self::Iter;
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
    type Item = &'a T;
    type Iter = Par<&'a T, Box<dyn Fn(usize) -> &'a T + Sync + 'a>>;

    fn par_iter(&'a self) -> Self::Iter {
        Par::new(self.len(), Box::new(move |i| &self[i]))
    }
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for Vec<T> {
    type Item = &'a T;
    type Iter = Par<&'a T, Box<dyn Fn(usize) -> &'a T + Sync + 'a>>;

    fn par_iter(&'a self) -> Self::Iter {
        self.as_slice().par_iter()
    }
}

/// `.into_par_iter()` on owned/range sources.
pub trait IntoParallelIterator {
    /// Item type.
    type Item: Send;
    /// Pipeline type.
    type Iter;

    /// Convert into a parallel iterator.
    fn into_par_iter(self) -> Self::Iter;
}

impl IntoParallelIterator for Range<usize> {
    type Item = usize;
    type Iter = Par<usize, Box<dyn Fn(usize) -> usize + Sync>>;

    fn into_par_iter(self) -> Self::Iter {
        let start = self.start;
        Par::new(self.len(), Box::new(move |i| start + i))
    }
}

/// Everything call sites need in scope (mirrors `rayon::prelude`).
pub mod prelude {
    pub use super::{IntoParallelIterator, IntoParallelRefIterator};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;

    #[test]
    fn chunks_partition_exactly() {
        for len in [0usize, 1, 5, 63, 64, 65, 1000, 12345] {
            let bounds = chunk_bounds(len);
            let mut covered = 0;
            for (k, r) in bounds.iter().enumerate() {
                assert_eq!(r.start, covered, "len {len} chunk {k}");
                covered = r.end;
            }
            assert_eq!(covered, len);
            assert!(bounds.len() <= MAX_CHUNKS);
        }
    }

    #[test]
    fn map_collect_preserves_order() {
        let v: Vec<usize> = (0..10_000).collect();
        let doubled: Vec<usize> = v.par_iter().map(|&x| x * 2).collect();
        assert_eq!(doubled, (0..10_000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn range_into_par_iter() {
        let squares: Vec<usize> = (3..103).into_par_iter().map(|i| i * i).collect();
        assert_eq!(squares.len(), 100);
        assert_eq!(squares[0], 9);
        assert_eq!(squares[99], 102 * 102);
    }

    #[test]
    fn map_init_runs_once_per_chunk() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let inits = AtomicUsize::new(0);
        let v: Vec<usize> = (0..1000).collect();
        let out: Vec<usize> = v
            .par_iter()
            .map_init(
                || {
                    inits.fetch_add(1, Ordering::Relaxed);
                    0usize
                },
                |state, &x| {
                    *state += 1;
                    x
                },
            )
            .collect();
        assert_eq!(out, v);
        assert!(inits.load(Ordering::Relaxed) <= MAX_CHUNKS);
    }

    fn pool(n: usize) -> ThreadPool {
        ThreadPoolBuilder::new().num_threads(n).build().unwrap()
    }

    #[test]
    fn install_sets_and_restores_the_pool_size() {
        let outside = current_num_threads();
        assert_eq!(pool(3).install(current_num_threads), 3);
        assert_eq!(current_num_threads(), outside);
        // Zero threads means the default, as in rayon.
        assert_eq!(pool(0).install(current_num_threads), outside);
        // An unwinding closure restores the size too.
        let caught = std::panic::catch_unwind(|| pool(5).install(|| panic!("boom")));
        assert!(caught.is_err());
        assert_eq!(current_num_threads(), outside);
    }

    #[test]
    fn installs_nest() {
        pool(2).install(|| {
            assert_eq!(current_num_threads(), 2);
            assert_eq!(pool(7).install(current_num_threads), 7);
            assert_eq!(current_num_threads(), 2);
        });
    }

    #[test]
    fn spawned_workers_inherit_the_installed_size() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let mismatches = AtomicUsize::new(0);
        let threads = Mutex::new(std::collections::HashSet::new());
        pool(3).install(|| {
            (0..MAX_CHUNKS).into_par_iter().for_each(|_| {
                if current_num_threads() != 3 {
                    mismatches.fetch_add(1, Ordering::Relaxed);
                }
                threads.lock().unwrap().insert(std::thread::current().id());
            });
        });
        assert_eq!(mismatches.load(Ordering::Relaxed), 0);
        assert!(!threads
            .lock()
            .unwrap()
            .contains(&std::thread::current().id()));
        // One worker runs every chunk inline on the calling thread.
        let ids = Mutex::new(std::collections::HashSet::new());
        pool(1).install(|| {
            (0..MAX_CHUNKS).into_par_iter().for_each(|_| {
                ids.lock().unwrap().insert(std::thread::current().id());
            });
        });
        let ids = ids.into_inner().unwrap();
        assert_eq!(ids.len(), 1);
        assert!(ids.contains(&std::thread::current().id()));
    }

    #[test]
    fn for_each_visits_everything() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let count = AtomicUsize::new(0);
        (0..4096).into_par_iter().for_each(|_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 4096);
    }
}
