//! DESIGN.md §6 states the constants a stop-and-sync round's coordination
//! and a daemon's relay are charged; they are `vni::models`' values, and the
//! deltas it derives from them are theirs too.

use starfish_util::VirtualTime;
use starfish_vni::{CoordCosts, RELAY_COST};

/// DESIGN.md's § 6, up to § 6a.
fn section_6() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../DESIGN.md");
    let text = std::fs::read_to_string(path).expect("DESIGN.md is committed");
    let from = text.find("\n## 6. ").expect("a § 6");
    let to = text[from..].find("\n## 6a.").expect("a § 6a") + from;
    text[from..to].to_string()
}

fn ms(t: VirtualTime) -> String {
    format!("{} ms", t.as_millis_f64())
}

/// The (native, VM) cells of the table row naming `constant`.
fn row(section: &str, constant: &str) -> (String, String) {
    let line = (section.lines())
        .find(|l| l.trim_start().starts_with('|') && l.contains(&format!("(`{constant}`")))
        .unwrap_or_else(|| panic!("§ 6 has no row for `{constant}`"));
    let cells: Vec<&str> = line
        .split('|')
        .map(str::trim)
        .filter(|c| !c.is_empty())
        .collect();
    match cells[..] {
        [_, native, vm] => (native.to_string(), vm.to_string()),
        _ => panic!("§ 6's `{constant}` row is not (event, native, VM): {line}"),
    }
}

#[test]
fn design_section_6_states_the_models_coordination_constants() {
    let section = section_6();
    let (native, vm) = (CoordCosts::NATIVE, CoordCosts::VM);
    assert_eq!(
        row(&section, "saved_hop"),
        (ms(native.saved_hop), ms(vm.saved_hop))
    );
    assert_eq!(row(&section, "saved"), (ms(native.saved), ms(vm.saved)));
    let deltas = [
        native.saved_hop + native.saved,
        native.saved_hop + native.saved * 3,
        vm.saved_hop + vm.saved,
        vm.saved_hop + vm.saved * 3,
    ];
    for delta in deltas {
        let stated = format!("+{}", ms(delta));
        assert!(section.contains(&stated), "§ 6 does not state {stated}");
    }
    let relay = format!("`RELAY_COST` = {} µs", RELAY_COST.as_micros_f64());
    assert!(section.contains(&relay), "§ 6 does not state {relay}");
}
