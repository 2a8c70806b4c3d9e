//! The checkpointable value model — our stand-in for the OCaml VM heap.
//!
//! In the paper, VM-level checkpointing walks the OCaml heap. Our programming
//! model (DESIGN.md substitution table) has applications keep their
//! checkpointable state in a [`CkptValue`] tree; the portable codec saves it
//! in the machine's native representation and converts on restore.

use std::fmt;

/// A typed value tree.
#[derive(Debug, Clone, PartialEq)]
pub enum CkptValue {
    Unit,
    Bool(bool),
    /// Signed integer (OCaml `int`): subject to *word-length* conversion —
    /// restoring onto a narrower machine fails if the value does not fit.
    Int(i64),
    Float(f64),
    Str(String),
    Bytes(Vec<u8>),
    /// Dense integer array (bulk data; each element is word-checked).
    IntArray(Vec<i64>),
    /// Dense float array (bulk numeric data, e.g. a Jacobi grid).
    FloatArray(Vec<f64>),
    List(Vec<CkptValue>),
    /// Named fields, order-preserving.
    Record(Vec<(String, CkptValue)>),
    /// A run of `n` zero bytes — models large untouched heap regions without
    /// materializing them, so Figure 3/4-scale images (up to 135 MB) can be
    /// swept cheaply. Encodes as a length, not as literal bytes, but its
    /// *accounted* size (and therefore its disk-write cost) is `n` bytes.
    Zeros(u64),
}

impl CkptValue {
    /// Convenience record constructor.
    pub fn record(fields: Vec<(&str, CkptValue)>) -> CkptValue {
        CkptValue::Record(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Look up a field of a record.
    pub fn field(&self, name: &str) -> Option<&CkptValue> {
        match self {
            CkptValue::Record(fields) => fields.iter().find(|(k, _)| k == name).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_int(&self) -> Option<i64> {
        match self {
            CkptValue::Int(v) => Some(*v),
            _ => None,
        }
    }

    pub fn as_float(&self) -> Option<f64> {
        match self {
            CkptValue::Float(v) => Some(*v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            CkptValue::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_float_array(&self) -> Option<&[f64]> {
        match self {
            CkptValue::FloatArray(v) => Some(v),
            _ => None,
        }
    }

    pub fn as_int_array(&self) -> Option<&[i64]> {
        match self {
            CkptValue::IntArray(v) => Some(v),
            _ => None,
        }
    }

    /// Approximate in-memory footprint in bytes (drives image-size
    /// accounting and the Figure 3/4 size sweeps).
    pub fn heap_bytes(&self) -> usize {
        match self {
            CkptValue::Unit => 0,
            CkptValue::Bool(_) => 1,
            CkptValue::Int(_) => 8,
            CkptValue::Float(_) => 8,
            CkptValue::Str(s) => s.len() + 8,
            CkptValue::Bytes(b) => b.len() + 8,
            CkptValue::IntArray(v) => v.len() * 8 + 8,
            CkptValue::FloatArray(v) => v.len() * 8 + 8,
            CkptValue::List(vs) => vs.iter().map(|v| v.heap_bytes()).sum::<usize>() + 8,
            CkptValue::Record(fs) => fs
                .iter()
                .map(|(k, v)| k.len() + v.heap_bytes() + 8)
                .sum::<usize>(),
            CkptValue::Zeros(n) => *n as usize,
        }
    }
}

impl fmt::Display for CkptValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CkptValue::Unit => write!(f, "()"),
            CkptValue::Bool(b) => write!(f, "{b}"),
            CkptValue::Int(v) => write!(f, "{v}"),
            CkptValue::Float(v) => write!(f, "{v}"),
            CkptValue::Str(s) => write!(f, "{s:?}"),
            CkptValue::Bytes(b) => write!(f, "<{} bytes>", b.len()),
            CkptValue::IntArray(v) => write!(f, "int[{}]", v.len()),
            CkptValue::FloatArray(v) => write!(f, "float[{}]", v.len()),
            CkptValue::List(vs) => write!(f, "list[{}]", vs.len()),
            CkptValue::Zeros(n) => write!(f, "<{n} zero bytes>"),
            CkptValue::Record(fs) => {
                write!(f, "{{")?;
                for (i, (k, v)) in fs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{k}: {v}")?;
                }
                write!(f, "}}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_field_lookup() {
        let v = CkptValue::record(vec![
            ("step", CkptValue::Int(17)),
            ("grid", CkptValue::FloatArray(vec![1.0, 2.0])),
        ]);
        assert_eq!(v.field("step").and_then(|f| f.as_int()), Some(17));
        assert_eq!(
            v.field("grid").and_then(|f| f.as_float_array()).unwrap(),
            &[1.0, 2.0]
        );
        assert!(v.field("missing").is_none());
    }

    #[test]
    fn heap_bytes_scales_with_payload() {
        let small = CkptValue::Bytes(vec![0; 100]);
        let big = CkptValue::Bytes(vec![0; 100_000]);
        assert!(big.heap_bytes() > small.heap_bytes());
        assert_eq!(big.heap_bytes(), 100_008);
    }

    #[test]
    fn display_summarizes() {
        let v = CkptValue::record(vec![("n", CkptValue::Int(1))]);
        assert_eq!(format!("{v}"), "{n: 1}");
    }
}
