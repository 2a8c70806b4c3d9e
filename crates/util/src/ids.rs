//! Strongly typed identifiers used throughout starfish-rs.
//!
//! All identifiers are small `Copy` newtypes over integers so they can be used
//! as map keys, travel over the wire cheaply, and cannot be confused with one
//! another (a [`NodeId`] is not a [`Rank`]).

use std::fmt;

use crate::codec::{Decode, Decoder, Encode, Encoder};
use crate::error::Result;

macro_rules! id_newtype {
    ($(#[$meta:meta])* $name:ident, $inner:ty, $prefix:expr) => {
        $(#[$meta])*
        #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
        pub struct $name(pub $inner);

        impl $name {
            /// Raw integer value of this identifier.
            #[inline]
            pub fn raw(self) -> $inner {
                self.0
            }

            /// Raw value widened to `usize` (handy for indexing).
            #[inline]
            pub fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl From<$inner> for $name {
            fn from(v: $inner) -> Self {
                $name(v)
            }
        }

        impl Encode for $name {
            fn encode(&self, enc: &mut Encoder) {
                self.0.encode(enc);
            }
        }

        impl Decode for $name {
            fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
                Ok($name(<$inner>::decode(dec)?))
            }
        }
    };
}

id_newtype!(
    /// A cluster node (one workstation). Each node runs exactly one Starfish
    /// daemon plus zero or more application processes.
    NodeId, u32, "n"
);

id_newtype!(
    /// A submitted application (an MPI job). One application spans one
    /// lightweight group of daemons and a set of application processes.
    AppId, u32, "app"
);

id_newtype!(
    /// The rank of a process within its MPI communicator, `0..size`.
    Rank, u32, "r"
);

id_newtype!(
    /// Identifier of a membership view installed by the group-communication
    /// system. Strictly increasing within one group.
    ViewId, u64, "v"
);

id_newtype!(
    /// Incarnation counter: bumped each time an application (or a single
    /// process, for uncoordinated restart) is restarted from a checkpoint.
    /// Messages from stale epochs are discarded on delivery.
    Epoch, u32, "e"
);

id_newtype!(
    /// A lightweight group identifier. Lightweight groups are multiplexed on
    /// top of the single full-blown Starfish group (paper §2.1, \[19\]).
    GroupId, u32, "g"
);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::roundtrip;

    #[test]
    fn ids_are_distinct_types_with_ordering() {
        let a = NodeId(1);
        let b = NodeId(2);
        assert!(a < b);
        assert_eq!(a.index(), 1);
        assert_eq!(format!("{a}"), "n1");
    }

    #[test]
    fn ids_roundtrip_through_codec() {
        assert_eq!(roundtrip(&NodeId(77)).unwrap(), NodeId(77));
        assert_eq!(roundtrip(&ViewId(1 << 40)).unwrap(), ViewId(1 << 40));
        assert_eq!(roundtrip(&Epoch(2)).unwrap(), Epoch(2));
    }
}
