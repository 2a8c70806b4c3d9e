//! Property tests for the lexical layer: every finding's line number is
//! only as good as `blank()`'s promise to preserve line structure, so we
//! hammer it (and the item parser above it) with adversarial compositions
//! of the constructs that historically break line-oriented scanners —
//! nested block comments, multi-line strings, raw strings with hashes,
//! char literals vs lifetimes, `#[cfg(test)]` blocks.

use proptest::collection;
use proptest::prelude::*;
use std::path::Path;
use verify::model::CrateModel;
use verify::source::{blank, test_regions, SourceFile};

/// Fragments chosen to collide: comment openers inside strings, quotes
/// inside comments, raw-string fences, escaped quotes, lifetimes.
fn fragment() -> BoxedStrategy<&'static str> {
    prop_oneof![
        Just("fn f() {"),
        Just("}"),
        Just("let s = \"str with // and /* inside\";"),
        Just("let s = \"multi"),
        Just("end\";"),
        Just("let r = r#\"raw \" with /* fence\"#;"),
        Just("let r = r##\"deeper \"# fence\"##;"),
        Just("/* open"),
        Just("/* nested /* deeper */"),
        Just("*/"),
        Just("// line comment with \" quote and /* opener"),
        Just("let c = '\"';"),
        Just("let c = '\\'';"),
        Just("let lt: &'static str = \"x\";"),
        Just("#[cfg(test)]"),
        Just("mod tests {"),
        Just("struct S { field: Mutex<u32>, other: u8 }"),
        Just("enum E { A, B(u8), C { x: u8 } }"),
        Just("impl S { fn m(&self) { self.field.lock(); } }"),
        Just("let v = x[0].unwrap();"),
        Just(""),
    ]
    .boxed()
}

proptest! {
    /// `blank()` must keep exactly the same number of lines as its input,
    /// whatever state the lexer ends in.
    #[test]
    fn blank_preserves_line_structure(frags in collection::vec(fragment(), 0..40)) {
        let text = frags.join("\n");
        let b = blank(&text);
        prop_assert_eq!(b.matches('\n').count(), text.matches('\n').count(), "line count drifted");
    }

    /// `test_regions` must be exactly line-aligned, and the full model
    /// parse must neither panic nor invent out-of-range line numbers.
    #[test]
    fn model_lines_stay_in_range(frags in collection::vec(fragment(), 0..40)) {
        let text = frags.join("\n");
        let nlines = text.lines().count();
        let code: Vec<String> = blank(&text).lines().map(str::to_string).collect();
        prop_assert_eq!(test_regions(&code).len(), code.len());

        let model = CrateModel::from_files(
            "prop",
            vec![SourceFile::from_text(Path::new("prop/src/lib.rs"), &text)],
        );
        for s in &model.structs {
            prop_assert!(s.line < nlines.max(1), "struct line out of range");
        }
        for e in &model.enums {
            prop_assert!(e.line < nlines.max(1), "enum line out of range");
        }
        for f in &model.functions {
            prop_assert!(f.sig_line < nlines.max(1), "fn line out of range");
            if let Some((b, e)) = f.body {
                prop_assert!(b <= e && e <= nlines.max(1), "body extent inverted");
            }
        }
    }

    /// Blanking is idempotent on its own output: a second pass over
    /// already-blanked code must change nothing (no half-consumed state).
    #[test]
    fn blank_is_idempotent(frags in collection::vec(fragment(), 0..40)) {
        let text = frags.join("\n");
        let once = blank(&text);
        let twice = blank(&once);
        prop_assert_eq!(&once, &twice);
    }
}
