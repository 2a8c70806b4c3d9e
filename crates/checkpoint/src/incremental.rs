//! Incremental checkpointing (libckpt-style \[33\], paper §6).
//!
//! Full checkpoints rewrite the whole image every time; incremental
//! checkpoints write only the *pages* (chunks) dirtied since the previous
//! image. Real implementations use MMU write protection; we detect dirty
//! chunks by content hashing, which has identical write-volume behaviour —
//! the quantity the bench report's `ablation_incremental` section records.
//!
//! Restore replays the chain: the last full image plus every later
//! increment, newest-wins per chunk.

use std::collections::BTreeMap;

/// Chunk size used for dirty tracking (a memory page on the paper's i686
/// testbed).
pub const CHUNK: usize = 4096;

fn hash_chunk(data: &[u8]) -> u64 {
    // FNV-1a: cheap, stable, good enough for dirty detection in a simulator.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in data {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// One incremental delta: the chunks that changed, plus the new total length.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Increment {
    pub len: usize,
    /// chunk index → new contents.
    pub dirty: BTreeMap<usize, Vec<u8>>,
}

impl Increment {
    /// Bytes that must hit stable storage for this increment.
    pub fn bytes_written(&self) -> u64 {
        self.dirty
            .values()
            .map(|c| c.len() as u64 + 16)
            .sum::<u64>()
            + 16
    }
}

/// Dirty-chunk tracker for one process image.
#[derive(Debug, Clone, Default)]
pub struct IncrementalTracker {
    hashes: Vec<u64>,
    len: usize,
}

impl IncrementalTracker {
    pub fn new() -> Self {
        IncrementalTracker::default()
    }

    /// Diff `image` against the last captured state, returning the increment
    /// and updating the baseline. The first call returns everything (a full
    /// checkpoint).
    pub fn capture(&mut self, image: &[u8]) -> Increment {
        let n_chunks = image.len().div_ceil(CHUNK);
        let mut dirty = BTreeMap::new();
        #[expect(clippy::indexing_slicing, reason = "`lo < hi <= image.len()`")]
        for i in 0..n_chunks {
            let lo = i * CHUNK;
            let hi = (lo + CHUNK).min(image.len());
            let h = hash_chunk(&image[lo..hi]);
            if self.hashes.get(i).copied() != Some(h) {
                dirty.insert(i, image[lo..hi].to_vec());
            }
        }
        // Shrinkage also dirties the tail implicitly via `len`.
        self.hashes.resize(n_chunks, 0);
        #[expect(clippy::indexing_slicing, reason = "`hashes` was just resized to fit")]
        for (i, c) in &dirty {
            self.hashes[*i] = hash_chunk(c);
        }
        self.hashes.truncate(n_chunks);
        self.len = image.len();
        Increment {
            len: image.len(),
            dirty,
        }
    }

    /// Forget the baseline (forces the next capture to be full).
    pub fn reset(&mut self) {
        self.hashes.clear();
        self.len = 0;
    }
}

/// Reassemble an image from a full base plus later increments (oldest
/// first).
pub fn reassemble(base: &Increment, increments: &[Increment]) -> Vec<u8> {
    let final_len = increments.last().map(|i| i.len).unwrap_or(base.len);
    let mut chunks: BTreeMap<usize, &[u8]> = BTreeMap::new();
    for (i, c) in &base.dirty {
        chunks.insert(*i, c);
    }
    for inc in increments {
        for (i, c) in &inc.dirty {
            chunks.insert(*i, c);
        }
    }
    let mut out = vec![0u8; final_len];
    for (i, c) in chunks {
        let lo = i * CHUNK;
        if lo >= final_len {
            continue;
        }
        let hi = (lo + c.len()).min(final_len);
        #[expect(clippy::indexing_slicing, reason = "both ranges are clamped above")]
        out[lo..hi].copy_from_slice(&c[..hi - lo]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_capture_is_full() {
        let mut t = IncrementalTracker::new();
        let img = vec![7u8; 3 * CHUNK + 100];
        let inc = t.capture(&img);
        assert_eq!(inc.dirty.len(), 4);
        assert_eq!(reassemble(&inc, &[]), img);
    }

    #[test]
    fn untouched_image_writes_nothing() {
        let mut t = IncrementalTracker::new();
        let img = vec![1u8; 10 * CHUNK];
        let full = t.capture(&img);
        let inc = t.capture(&img);
        assert!(inc.dirty.is_empty());
        assert!(inc.bytes_written() < full.bytes_written() / 10);
    }

    #[test]
    fn single_dirty_chunk_detected() {
        let mut t = IncrementalTracker::new();
        let mut img = vec![0u8; 16 * CHUNK];
        let base = t.capture(&img);
        img[5 * CHUNK + 17] = 0xFF;
        let inc = t.capture(&img);
        assert_eq!(inc.dirty.len(), 1);
        assert!(inc.dirty.contains_key(&5));
        assert_eq!(reassemble(&base, &[inc]), img);
    }

    #[test]
    fn chain_of_increments_reassembles() {
        let mut t = IncrementalTracker::new();
        let mut img = vec![0u8; 8 * CHUNK];
        let base = t.capture(&img);
        let mut incs = Vec::new();
        for step in 0..5 {
            img[step * CHUNK] = step as u8 + 1;
            incs.push(t.capture(&img));
        }
        assert_eq!(reassemble(&base, &incs), img);
    }

    #[test]
    fn growth_and_shrink_handled() {
        let mut t = IncrementalTracker::new();
        let img1 = vec![1u8; 2 * CHUNK];
        let base = t.capture(&img1);
        let img2 = vec![1u8; 4 * CHUNK]; // grow
        let inc2 = t.capture(&img2);
        assert_eq!(reassemble(&base, std::slice::from_ref(&inc2)), img2);
        let img3 = vec![1u8; CHUNK + 10]; // shrink (content of chunk 0 same, chunk 1 truncated+changed hash)
        let inc3 = t.capture(&img3);
        assert_eq!(reassemble(&base, &[inc2, inc3]), img3);
    }

    #[test]
    fn reset_forces_full() {
        let mut t = IncrementalTracker::new();
        let img = vec![9u8; 4 * CHUNK];
        t.capture(&img);
        t.reset();
        let inc = t.capture(&img);
        assert_eq!(inc.dirty.len(), 4);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Random edit scripts: base + increments always reassemble to the
        /// final image, and a clean capture writes (almost) nothing.
        #[test]
        fn reassembly_matches_final_image(
            len in 1usize..6 * CHUNK,
            edits in proptest::collection::vec(
                (0usize..6 * CHUNK, any::<u8>()), 0..24
            ),
            growth in 0usize..2 * CHUNK,
        ) {
            let mut t = IncrementalTracker::new();
            let mut img = vec![0xABu8; len];
            let base = t.capture(&img);
            let mut incs = Vec::new();
            // A few edit rounds.
            for chunk in edits.chunks(6) {
                for (pos, val) in chunk {
                    let p = pos % img.len();
                    img[p] = *val;
                }
                incs.push(t.capture(&img));
            }
            // Grow once, edit once more.
            img.extend(std::iter::repeat_n(0xCD, growth));
            incs.push(t.capture(&img));
            prop_assert_eq!(reassemble(&base, &incs), img.clone());
            // A clean capture after all that is (nearly) free.
            let clean = t.capture(&img);
            prop_assert!(clean.dirty.is_empty());
        }
    }
}
