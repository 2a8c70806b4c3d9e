//! Wire-encodable registry dumps.
//!
//! A [`Snapshot`] is the unit the daemons ship over the totally ordered
//! ensemble path: sparse (only touched metrics), cumulative (later
//! snapshots from the same scope *replace* earlier ones; snapshots from
//! *different* scopes merge additively), and self-describing via the
//! static [`crate::metric::DEFS`] table.

// The panic surface, held as in the audited crates although the rest of
// `telemetry` is not: this module decodes foreign bytes, so each surviving
// site carries an `#[expect]` with its reason (VERIFICATION.md §2).
#![deny(clippy::indexing_slicing, clippy::unwrap_used, clippy::expect_used)]
#![deny(clippy::panic, clippy::unreachable, clippy::todo)]
#![deny(clippy::unimplemented, clippy::allow_attributes)]
#![deny(clippy::allow_attributes_without_reason)]

use crate::histogram::HistSnap;
use crate::metric::MetricId;
use starfish_util::codec::{Decode, Decoder, Encode, Encoder};
use starfish_util::{Error, Result};

#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// `(metric index, total)` for counters with nonzero totals.
    pub counters: Vec<(u16, u64)>,
    /// `(metric index, value)` for gauges that were ever set.
    pub gauges: Vec<(u16, i64)>,
    /// `(metric index, state)` for histograms with at least one sample.
    pub hists: Vec<(u16, HistSnap)>,
}

impl Snapshot {
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.hists.is_empty()
    }

    pub fn counter(&self, id: MetricId) -> u64 {
        self.counters
            .iter()
            .find(|&&(i, _)| i == id.0)
            .map_or(0, |&(_, v)| v)
    }

    pub fn gauge(&self, id: MetricId) -> i64 {
        self.gauges
            .iter()
            .find(|&&(i, _)| i == id.0)
            .map_or(0, |&(_, v)| v)
    }

    pub fn hist(&self, id: MetricId) -> Option<&HistSnap> {
        self.hists.iter().find(|&&(i, _)| i == id.0).map(|(_, h)| h)
    }

    /// Additive merge of a snapshot from a *different* scope: counters and
    /// gauges sum, histograms accumulate.
    #[expect(
        clippy::indexing_slicing,
        reason = "each index is a `binary_search` hit"
    )]
    pub fn merge(&mut self, other: &Snapshot) {
        for &(i, v) in &other.counters {
            match self.counters.binary_search_by_key(&i, |&(k, _)| k) {
                Ok(pos) => self.counters[pos].1 += v,
                Err(pos) => self.counters.insert(pos, (i, v)),
            }
        }
        for &(i, v) in &other.gauges {
            match self.gauges.binary_search_by_key(&i, |&(k, _)| k) {
                Ok(pos) => self.gauges[pos].1 += v,
                Err(pos) => self.gauges.insert(pos, (i, v)),
            }
        }
        for (i, h) in &other.hists {
            match self.hists.binary_search_by_key(i, |(k, _)| *k) {
                Ok(pos) => self.hists[pos].1.merge(h),
                Err(pos) => self.hists.insert(pos, (*i, h.clone())),
            }
        }
    }
}

/// On the wire: the counters, the gauges and the histograms, each a
/// varint count and then the entries that are not zero, in order. An entry
/// is its metric id's distance from the previous entry's (a varint) and its
/// value: a varint, a zigzag varint, or a [`HistSnap`].
impl Encode for Snapshot {
    fn encode(&self, enc: &mut Encoder) {
        put_sparse(enc, &self.counters, |&v| v != 0, |enc, &v| enc.put_var(v));
        put_sparse(enc, &self.gauges, |&v| v != 0, |enc, &v| enc.put_ivar(v));
        put_sparse(enc, &self.hists, |h| !h.is_empty(), |enc, h| h.encode(enc));
    }
}

impl Decode for Snapshot {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        Ok(Snapshot {
            counters: get_sparse(dec, 1, |dec| dec.get_var())?,
            gauges: get_sparse(dec, 1, |dec| dec.get_ivar())?,
            // A histogram is at least three varints.
            hists: get_sparse(dec, 3, HistSnap::decode)?,
        })
    }
}

/// Write the entries of `entries` that `keep`, each as its id's distance
/// from the previous id and its value (`put`).
fn put_sparse<T>(
    enc: &mut Encoder,
    entries: &[(u16, T)],
    keep: impl Fn(&T) -> bool,
    put: impl Fn(&mut Encoder, &T),
) {
    let kept = || entries.iter().filter(|(_, v)| keep(v));
    enc.put_var(kept().count() as u64);
    let mut prev = 0u16;
    for (id, v) in kept() {
        enc.put_var(u64::from(id.wrapping_sub(prev)));
        put(enc, v);
        prev = *id;
    }
}

/// Read what [`put_sparse`] wrote; a value takes at least `min_value`
/// bytes.
fn get_sparse<T>(
    dec: &mut Decoder<'_>,
    min_value: usize,
    get: impl Fn(&mut Decoder<'_>) -> Result<T>,
) -> Result<Vec<(u16, T)>> {
    let n = dec.get_len(1 + min_value)?;
    let mut entries = Vec::with_capacity(n);
    let mut id = 0u16;
    for _ in 0..n {
        let delta =
            u16::try_from(dec.get_var()?).map_err(|_| Error::codec("a metric id past 65535"))?;
        id = id.wrapping_add(delta);
        entries.push((id, get(dec)?));
    }
    Ok(entries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metric;

    #[test]
    fn merge_sums_counters_and_hists() {
        let mut a = Snapshot {
            counters: vec![(0, 5), (3, 1)],
            gauges: vec![(1, 2)],
            hists: vec![(
                2,
                HistSnap {
                    count: 1,
                    sum: 8,
                    max: 8,
                    buckets: vec![(4, 1)],
                },
            )],
        };
        let b = Snapshot {
            counters: vec![(0, 7), (9, 2)],
            gauges: vec![(1, 3), (5, -1)],
            hists: vec![(
                2,
                HistSnap {
                    count: 2,
                    sum: 6,
                    max: 4,
                    buckets: vec![(2, 1), (3, 1)],
                },
            )],
        };
        a.merge(&b);
        assert_eq!(a.counter(metric::MSG_COUNT_CONTROL), 12); // id 0
        assert_eq!(a.counters, vec![(0, 12), (3, 1), (9, 2)]);
        assert_eq!(a.gauges, vec![(1, 5), (5, -1)]);
        let h = a.hist(crate::MetricId(2)).unwrap();
        assert_eq!(h.count, 3);
        assert_eq!(h.max, 8);
    }

    #[test]
    fn codec_roundtrip() {
        let snap = Snapshot {
            counters: vec![(0, u64::MAX), (12, 3)],
            gauges: vec![(7, -42)],
            hists: vec![(
                13,
                HistSnap {
                    count: 9,
                    sum: 900,
                    max: 500,
                    buckets: vec![(1, 4), (9, 5)],
                },
            )],
        };
        assert_eq!(starfish_util::codec::roundtrip(&snap).unwrap(), snap);
    }
}
