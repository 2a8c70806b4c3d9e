//! EXPERIMENTS.md's tables are the committed report's numbers. Each table
//! follows a `<!-- report SECTION.PATH: FIELD ... -->` marker that names the
//! rows of `BENCH_calibrate.json` it shows and the field of each column:
//! `key` is the row's key and `-` a column the report does not hold. Row i
//! of the table is row i of the report. A number reads as the report's
//! value rounded to the digits shown; a banded cell reads as a value inside
//! the band, or as the band itself, `lo–hi`. `FIELD/D` shows the value
//! divided by `D` (nanoseconds as µs: `/1000`). Two paths joined by ` / `
//! share their keys, and each cell of a field column shows one value from
//! each, joined the same way. A path that names one record rather than an
//! object of rows is a table of one row.

use starfish_util::json::{self, Json};

fn read(path: &str) -> String {
    let path = format!("{}/../../{path}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// A table cell: its text without the row's pipes and padding.
fn cells(line: &str) -> Vec<String> {
    let inner = line.trim().trim_start_matches('|').trim_end_matches('|');
    inner.split('|').map(|c| c.trim().to_string()).collect()
}

/// A number as a table shows it — `1 048 576`, `9.2×`, `0.314 %` — and
/// the digits it shows after the point.
fn shown(text: &str) -> Option<(f64, i32)> {
    let digits: String = text
        .chars()
        .filter(|c| !c.is_whitespace() && !matches!(c, '×' | '%'))
        .collect();
    let decimals = digits.split_once('.').map_or(0, |(_, f)| f.len() as i32);
    Some((digits.parse().ok()?, decimals))
}

/// `v` as printed with `decimals` digits after the point.
fn rounded(v: f64, decimals: i32) -> f64 {
    format!("{v:.*}", decimals as usize).parse().unwrap()
}

fn same(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
}

/// `cell` shows `value` divided by `div`.
fn check(value: &Json, cell: &str, at: &str, div: f64) {
    if let Some(s) = value.as_str() {
        return assert_eq!(cell, s, "{at}");
    }
    if let (Some(min), Some(max)) = (value.get("min"), value.get("max")) {
        let (min, max) = (min.as_num().unwrap() / div, max.as_num().unwrap() / div);
        if let Some((a, b)) = cell.split_once('–') {
            let ((a, d), (b, _)) = (shown(a).expect(at), shown(b).expect(at));
            let band = (rounded(min, d), rounded(max, d));
            return assert!(
                same(a, band.0) && same(b, band.1),
                "{at}: {cell} vs band {band:?}"
            );
        }
        let (v, d) = shown(cell).unwrap_or_else(|| panic!("{at}: {cell:?} is no number"));
        let band = (rounded(min, d), rounded(max, d));
        let inside = (band.0 <= v || same(band.0, v)) && (v <= band.1 || same(v, band.1));
        return assert!(inside, "{at}: {cell} is outside the band {band:?}");
    }
    let v = value
        .as_num()
        .unwrap_or_else(|| panic!("{at}: {value:?} is no number"))
        / div;
    let (d, decimals) = shown(cell).unwrap_or_else(|| panic!("{at}: {cell:?} is no number"));
    assert!(
        same(d, rounded(v, decimals)),
        "{at}: shows {cell}, the report holds {v}"
    );
}

/// The rows at `path`: an object of rows, or one record as a row of its own.
fn rows_at<'a>(report: &'a Json, path: &'a str) -> Vec<(&'a str, &'a Json)> {
    let node = (path.split('.')).try_fold(report, |node, key| node.get(key));
    let fields = (node.and_then(Json::as_obj))
        .unwrap_or_else(|| panic!("the report holds no rows at {path}"));
    if fields.iter().all(|(_, v)| v.as_obj().is_some()) {
        fields.iter().map(|(k, v)| (k.as_str(), v)).collect()
    } else {
        vec![(path, node.unwrap())]
    }
}

#[test]
fn experiments_tables_show_the_committed_report() {
    let report = json::parse(&read("BENCH_calibrate.json")).expect("the report is JSON");
    let doc = read("EXPERIMENTS.md");
    let mut lines = doc.lines();
    let mut tables = 0;
    while let Some(line) = lines.next() {
        let Some(spec) = line.strip_prefix("<!-- report ") else {
            continue;
        };
        let spec = spec.strip_suffix(" -->").expect("a marker ends its line");
        let (path, fields) = spec.split_once(": ").expect("SECTION.PATH: FIELD ...");
        let fields: Vec<&str> = fields.split_whitespace().collect();
        let sides: Vec<_> = path.split(" / ").map(|p| rows_at(&report, p)).collect();
        let rows = &sides[0];
        for side in &sides {
            let same_keys = side.iter().map(|r| r.0).eq(rows.iter().map(|r| r.0));
            assert!(same_keys, "{path}: the paths' keys differ");
        }
        let table: Vec<Vec<String>> = (lines.by_ref())
            .skip_while(|l| !l.starts_with('|'))
            .take_while(|l| l.starts_with('|'))
            .skip(2) // the header and its rule
            .map(cells)
            .collect();
        assert_eq!(table.len(), rows.len(), "{path}: table rows vs report rows");
        for (i, (key, cells)) in rows.iter().map(|r| r.0).zip(&table).enumerate() {
            assert_eq!(cells.len(), fields.len(), "{path}[{key}]: columns");
            for (field, cell) in fields.iter().zip(cells) {
                let at = format!("EXPERIMENTS.md {path}[{key}].{field}");
                let (name, div) = field.split_once('/').map_or((*field, 1.0), |(name, div)| {
                    (name, div.parse().expect("a divisor"))
                });
                match name {
                    "-" => {}
                    "key" => match key.parse::<f64>() {
                        Ok(k) => check(&Json::Num(k), cell, &at, div),
                        Err(_) => check(&Json::Str(key.to_string()), cell, &at, div),
                    },
                    name => {
                        let shown: Vec<&str> = cell.split(" / ").collect();
                        assert_eq!(shown.len(), sides.len(), "{at}: one value per path");
                        for (side, part) in sides.iter().zip(shown) {
                            check(side[i].1.get(name).expect(&at), part, &at, div);
                        }
                    }
                }
            }
        }
        tables += 1;
    }
    // Figures 3, 4 and 5, Table 1, the § 5 claim, seven ablations, the
    // 64-rank allreduce sweep and its headline ratio.
    assert_eq!(tables, 14, "report tables in EXPERIMENTS.md");
}
