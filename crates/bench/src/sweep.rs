//! In-process thread-scaling sweep shared by the kernel bench binaries.
//!
//! * [`run`] parses `--threads a,b,c` (default [`DEFAULT_THREADS`],
//!   capped to the machine's core count with the dropped counts recorded
//!   as skipped; an explicit `--threads` list is honored verbatim and
//!   merely flagged `oversubscribed` past the core count),
//! * runs the binary's measurement closure once per count under a scoped
//!   rayon pool of that size ([`pool`]), in the same process,
//! * and keeps each run's kind-specific JSON payload, which the binary
//!   embeds verbatim in its BENCH document with
//!   [`chef_obs::JsonWriter::raw`].
//!
//! The BENCH document keeps its pre-sweep shape for the one-thread run
//! (the [`baseline`] fragment fills the legacy top-level payload) and
//! adds a `thread_sweep` array with one entry per requested count — see
//! DESIGN.md §10.

use chef_obs::JsonWriter;

/// Thread counts swept when `--threads` is not given (capped to the
/// machine's core count; the skipped tail is recorded, not silently
/// dropped).
pub const DEFAULT_THREADS: [usize; 4] = [1, 2, 4, 8];

/// One requested thread count: either a completed run (with its JSON
/// fragment) or a skipped entry explaining why it did not run.
pub struct SweepEntry {
    pub threads: usize,
    pub skipped: bool,
    /// Why the count was skipped; empty for ran entries.
    pub reason: String,
    /// Ran with more threads than cores (explicit `--threads` only).
    pub oversubscribed: bool,
    /// The measurement's JSON payload; empty for skipped entries.
    pub fragment: String,
}

/// A scoped rayon pool of `threads` workers: everything run under its
/// `install` sees that pool size.
pub fn pool(threads: usize) -> rayon::ThreadPool {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("sweep: build thread pool")
}

/// The machine's core count (1 when it cannot be determined).
pub fn available_cores() -> usize {
    std::thread::available_parallelism()
        .map(|c| c.get())
        .unwrap_or(1)
}

/// Parse `--threads a,b,c` into a deduplicated list, or fall back to
/// [`DEFAULT_THREADS`]. Returns `(counts, explicit)`.
pub fn requested_threads(args: &[String]) -> (Vec<usize>, bool) {
    let list = args
        .iter()
        .position(|a| a == "--threads")
        .and_then(|i| args.get(i + 1));
    match list {
        Some(list) => {
            let mut out = Vec::new();
            for part in list.split(',') {
                let t: usize = part
                    .trim()
                    .parse()
                    .unwrap_or_else(|_| panic!("--threads: bad thread count {part:?}"));
                assert!(t >= 1, "--threads: thread count must be >= 1");
                if !out.contains(&t) {
                    out.push(t);
                }
            }
            assert!(!out.is_empty(), "--threads: empty list");
            (out, true)
        }
        None => (DEFAULT_THREADS.to_vec(), false),
    }
}

/// Run the sweep: `measure` once per requested thread count, in order,
/// under a [`pool`] of that size. `measure` returns the count's JSON
/// payload, which must be a complete JSON value.
pub fn run<F>(args: &[String], measure: F) -> Vec<SweepEntry>
where
    F: Fn() -> String + Sync,
{
    let cores = available_cores();
    let (threads, explicit) = requested_threads(args);
    let mut entries = Vec::new();
    for t in threads {
        if !explicit && t > cores {
            println!(
                "sweep: skipping t={t} (only {cores} core(s) available; pass --threads to force)"
            );
            entries.push(SweepEntry {
                threads: t,
                skipped: true,
                reason: format!("exceeds available_cores={cores}"),
                oversubscribed: false,
                fragment: String::new(),
            });
            continue;
        }
        let oversubscribed = t > cores;
        if oversubscribed {
            println!("sweep: t={t} exceeds {cores} core(s) — timings are oversubscribed");
        }
        let fragment = pool(t).install(|| {
            println!(
                "sweep: t={t} rayon_threads={}",
                rayon::current_num_threads()
            );
            measure()
        });
        entries.push(SweepEntry {
            threads: t,
            skipped: false,
            reason: String::new(),
            oversubscribed,
            fragment,
        });
    }
    assert!(
        entries.iter().any(|e| !e.skipped),
        "sweep: no thread count ran"
    );
    entries
}

/// The entry whose fragment fills the legacy top-level payload: the
/// one-thread run when present, else the first completed run.
pub fn baseline(entries: &[SweepEntry]) -> &SweepEntry {
    entries
        .iter()
        .find(|e| e.threads == 1 && !e.skipped)
        .or_else(|| entries.iter().find(|e| !e.skipped))
        .expect("sweep: no completed entry")
}

/// Append the sweep's `context` fields: `threads_swept` (counts that
/// ran) and `threads_skipped` (`{threads, reason}` for the rest). The
/// writer must be inside the open `context` object.
pub fn write_context_fields(w: &mut JsonWriter, entries: &[SweepEntry]) {
    w.key("threads_swept");
    w.begin_array();
    for e in entries.iter().filter(|e| !e.skipped) {
        w.u64(e.threads as u64);
    }
    w.end_array();
    w.key("threads_skipped");
    w.begin_array();
    for e in entries.iter().filter(|e| e.skipped) {
        w.begin_object();
        w.field_u64("threads", e.threads as u64);
        w.field_str("reason", &e.reason);
        w.end_object();
    }
    w.end_array();
}

/// Append the `thread_sweep` array: per ran entry
/// `{threads[, oversubscribed], <results_key>: <fragment>}`, per skipped
/// entry `{threads, skipped, reason}`. `project` maps a run's fragment
/// to the JSON embedded for that entry (identity for most binaries;
/// `train_kernels` projects out the thread-sensitive `grad` section).
pub fn write_thread_sweep<F: Fn(&str) -> String>(
    w: &mut JsonWriter,
    entries: &[SweepEntry],
    results_key: &str,
    project: F,
) {
    w.key("thread_sweep");
    w.begin_array();
    for e in entries {
        w.begin_object();
        w.field_u64("threads", e.threads as u64);
        if e.skipped {
            w.field_bool("skipped", true);
            w.field_str("reason", &e.reason);
        } else {
            if e.oversubscribed {
                w.field_bool("oversubscribed", true);
            }
            w.key(results_key);
            w.raw(&project(&e.fragment));
        }
        w.end_object();
    }
    w.end_array();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(tail: &[&str]) -> Vec<String> {
        std::iter::once("bench".to_string())
            .chain(tail.iter().map(|s| s.to_string()))
            .collect()
    }

    #[test]
    fn default_threads_when_flag_absent() {
        let (threads, explicit) = requested_threads(&argv(&["--reps", "3"]));
        assert_eq!(threads, DEFAULT_THREADS.to_vec());
        assert!(!explicit);
    }

    #[test]
    fn explicit_threads_parse_and_dedupe_in_order() {
        let (threads, explicit) = requested_threads(&argv(&["--threads", "4, 1,4,2"]));
        assert_eq!(threads, vec![4, 1, 2]);
        assert!(explicit);
    }

    #[test]
    #[should_panic(expected = "bad thread count")]
    fn non_numeric_thread_count_panics() {
        requested_threads(&argv(&["--threads", "1,two"]));
    }

    #[test]
    fn each_count_is_measured_under_its_own_pool() {
        let entries = run(&argv(&["--threads", "1,3"]), || {
            rayon::current_num_threads().to_string()
        });
        let ran: Vec<(usize, &str)> = entries
            .iter()
            .map(|e| (e.threads, e.fragment.as_str()))
            .collect();
        assert_eq!(ran, vec![(1, "1"), (3, "3")]);
        assert_eq!(entries[1].oversubscribed, 3 > available_cores());
    }

    fn entry(threads: usize, fragment: &str) -> SweepEntry {
        SweepEntry {
            threads,
            skipped: false,
            reason: String::new(),
            oversubscribed: false,
            fragment: fragment.to_string(),
        }
    }

    fn skipped(threads: usize, reason: &str) -> SweepEntry {
        SweepEntry {
            threads,
            skipped: true,
            reason: reason.to_string(),
            oversubscribed: false,
            fragment: String::new(),
        }
    }

    #[test]
    fn baseline_prefers_one_thread_then_first_ran() {
        let entries = vec![skipped(1, "x"), entry(2, "[2]"), entry(4, "[4]")];
        assert_eq!(baseline(&entries).fragment, "[2]");
        let entries = vec![entry(2, "[2]"), entry(1, "[1]")];
        assert_eq!(baseline(&entries).fragment, "[1]");
    }

    #[test]
    fn context_and_sweep_sections_serialize_as_documented() {
        let mut entries = vec![
            entry(1, r#"[{"n":10}]"#),
            skipped(8, "exceeds available_cores=1"),
        ];
        entries[0].oversubscribed = false;
        let mut w = JsonWriter::new();
        w.begin_object();
        write_context_fields(&mut w, &entries);
        write_thread_sweep(&mut w, &entries, "results", |f| f.to_string());
        w.end_object();
        assert_eq!(
            w.finish(),
            concat!(
                r#"{"threads_swept":[1],"#,
                r#""threads_skipped":[{"threads":8,"reason":"exceeds available_cores=1"}],"#,
                r#""thread_sweep":[{"threads":1,"results":[{"n":10}]},"#,
                r#"{"threads":8,"skipped":true,"reason":"exceeds available_cores=1"}]}"#
            )
        );
    }

    #[test]
    fn oversubscribed_entries_are_flagged_and_projected() {
        let mut e = entry(4, r#"{"grad":[1,2],"cg":{}}"#);
        e.oversubscribed = true;
        let mut w = JsonWriter::new();
        w.begin_object();
        write_thread_sweep(&mut w, &[e], "grad", |f| {
            chef_obs::parse_json(f)
                .unwrap()
                .get("grad")
                .unwrap()
                .to_json()
        });
        w.end_object();
        assert_eq!(
            w.finish(),
            r#"{"thread_sweep":[{"threads":4,"oversubscribed":true,"grad":[1,2]}]}"#
        );
    }
}
