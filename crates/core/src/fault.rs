//! Deterministic fault injection for the cleaning loop
//! ([`crate::PipelineConfig::faults`]).
//!
//! A [`FaultPlan`] describes *when* the pipeline misbehaves — crash after
//! a given round, mangle the checkpoint file it just wrote, time out the
//! annotators for whole rounds — and the pipeline driver consults it at
//! fixed points, so a faulty run is exactly reproducible. The
//! replay-equivalence harness (`tests/checkpoint_resume.rs`) relies on
//! this: it kills a run at round `k`, resumes from the surviving
//! checkpoint generation, and asserts the result is bit-identical to an
//! uninterrupted run under the *same* plan.
//!
//! Every build carries the plan; the default one is empty, so a run
//! that sets none pays a few `Option` comparisons per round and one per
//! serve slice, and injects nothing.

use std::path::Path;

/// Where and how the run misbehaves. Round indices are 0-based and refer
/// to the round that has *just completed* when the fault fires.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Simulated `kill -9` after this round completes (and after its
    /// checkpoint, if due, is written): the driver returns early with
    /// [`crate::PipelineReport::interrupted`] set.
    pub crash_after_round: Option<usize>,
    /// Truncate the checkpoint written after this round mid-file — a torn
    /// write that the checksum header must catch at resume.
    pub torn_write_after_round: Option<usize>,
    /// Flip one byte deep in the checkpoint written after this round — a
    /// silent corruption that the checksum must catch at resume.
    pub bitflip_after_round: Option<usize>,
    /// Rounds in which every annotator times out: the whole batch
    /// abstains (labels stay probabilistic) but still consumes budget.
    pub annotator_timeout_rounds: Vec<usize>,
    /// Simulated `kill -9` *mid-round*: a `chef-serve` job thread dies at
    /// the awaiting-annotation point of this round — after the batch went
    /// out, before any outcome was applied. Unlike
    /// [`Self::crash_after_round`], nothing of this round reaches the
    /// checkpoint, so a resume re-runs the selection (and, selection
    /// being deterministic at the restored parameters, re-emits the very
    /// same batch). The synchronous driver ignores this field.
    pub kill_mid_round: Option<usize>,
}

impl FaultPlan {
    /// A plan that only crashes after `round`.
    pub fn crash_after(round: usize) -> Self {
        Self {
            crash_after_round: Some(round),
            ..Self::default()
        }
    }

    /// Whether every annotator times out in `round`.
    pub fn annotators_time_out(&self, round: usize) -> bool {
        self.annotator_timeout_rounds.contains(&round)
    }

    /// Whether a serve job thread should die mid-`round` (see
    /// [`Self::kill_mid_round`]).
    pub fn kill_requested(&self, round: usize) -> bool {
        self.kill_mid_round == Some(round)
    }

    /// Corrupt the checkpoint generation written after `round` according
    /// to the plan. Mutates the renamed file in place — modeling media
    /// corruption *after* the atomic rename, which is exactly the case
    /// the checksum-plus-generation-fallback design must survive.
    pub fn mangle_after_write(&self, round: usize, path: &Path) {
        if self.torn_write_after_round == Some(round) {
            if let Ok(bytes) = std::fs::read(path) {
                let keep = bytes.len() / 2;
                let _ = std::fs::write(path, &bytes[..keep]);
            }
        }
        if self.bitflip_after_round == Some(round) {
            if let Ok(mut bytes) = std::fs::read(path) {
                if !bytes.is_empty() {
                    let pos = bytes.len() * 3 / 4;
                    bytes[pos] ^= 0x10;
                    let _ = std::fs::write(path, bytes);
                }
            }
        }
    }
}
