//! EXPERIMENTS.md's tables are the committed report's numbers. Each table
//! follows a `<!-- report SECTION.PATH: FIELD ... -->` marker that names the
//! rows of `BENCH_calibrate.json` it shows and the field of each column:
//! `key` is the row's key and `-` a column the report does not hold. Row i
//! of the table is row i of the report. A number reads as the report's
//! value rounded to the digits shown; a banded cell reads as a value inside
//! the band, or as the band itself, `lo–hi`.

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

/// `cell` shows `value`.
fn check(value: &Json, cell: &str, at: &str) {
    if let Some(s) = value.as_str() {
        return assert_eq!(cell, s, "{at}");
    }
    if let (Some(min), Some(max)) = (value.get("min"), value.get("max")) {
        let (min, max) = (min.as_num().unwrap(), max.as_num().unwrap());
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
        .unwrap_or_else(|| panic!("{at}: {value:?} is no number"));
    let (d, decimals) = shown(cell).unwrap_or_else(|| panic!("{at}: {cell:?} is no number"));
    assert!(
        same(d, rounded(v, decimals)),
        "{at}: shows {cell}, the report holds {v}"
    );
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
        let rows = (path.split('.'))
            .try_fold(&report, |node, key| node.get(key))
            .and_then(Json::as_obj)
            .unwrap_or_else(|| panic!("the report holds no rows at {path}"));
        let table: Vec<Vec<String>> = (lines.by_ref())
            .skip_while(|l| !l.starts_with('|'))
            .take_while(|l| l.starts_with('|'))
            .skip(2) // the header and its rule
            .map(cells)
            .collect();
        assert_eq!(table.len(), rows.len(), "{path}: table rows vs report rows");
        for ((key, row), cells) in rows.iter().zip(&table) {
            assert_eq!(cells.len(), fields.len(), "{path}[{key}]: columns");
            for (field, cell) in fields.iter().zip(cells) {
                let at = format!("EXPERIMENTS.md {path}[{key}].{field}");
                match *field {
                    "-" => {}
                    "key" => match key.parse::<f64>() {
                        Ok(k) => check(&Json::Num(k), cell, &at),
                        Err(_) => check(&Json::Str(key.clone()), cell, &at),
                    },
                    field => check(row.get(field).expect(&at), cell, &at),
                }
            }
        }
        tables += 1;
    }
    // Figures 3, 4 and 5, Table 1, the § 5 claim and seven ablations.
    assert_eq!(tables, 12, "report tables in EXPERIMENTS.md");
}
