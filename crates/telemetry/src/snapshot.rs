//! Wire-encodable registry dumps.
//!
//! A [`Snapshot`] is the unit the daemons ship over the totally ordered
//! ensemble path: sparse (only touched metrics), cumulative (later
//! snapshots from the same scope *replace* earlier ones; snapshots from
//! *different* scopes merge additively), and self-describing via the
//! static [`crate::metric::DEFS`] table.

use crate::histogram::HistSnap;
use crate::metric::MetricId;
use starfish_util::codec::{Decode, Decoder, Encode, Encoder};
use starfish_util::Result;

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

impl Encode for Snapshot {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u16(self.counters.len() as u16);
        for &(i, v) in &self.counters {
            enc.put_u16(i);
            enc.put_u64(v);
        }
        enc.put_u16(self.gauges.len() as u16);
        for &(i, v) in &self.gauges {
            enc.put_u16(i);
            enc.put_i64(v);
        }
        enc.put_u16(self.hists.len() as u16);
        for (i, h) in &self.hists {
            enc.put_u16(*i);
            h.encode(enc);
        }
    }
}

impl Decode for Snapshot {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        let nc = dec.get_u16()? as usize;
        let mut counters = Vec::with_capacity(nc.min(256));
        for _ in 0..nc {
            let i = dec.get_u16()?;
            let v = dec.get_u64()?;
            counters.push((i, v));
        }
        let ng = dec.get_u16()? as usize;
        let mut gauges = Vec::with_capacity(ng.min(256));
        for _ in 0..ng {
            let i = dec.get_u16()?;
            let v = dec.get_i64()?;
            gauges.push((i, v));
        }
        let nh = dec.get_u16()? as usize;
        let mut hists = Vec::with_capacity(nh.min(256));
        for _ in 0..nh {
            let i = dec.get_u16()?;
            let h = HistSnap::decode(dec)?;
            hists.push((i, h));
        }
        Ok(Snapshot {
            counters,
            gauges,
            hists,
        })
    }
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
