//! Violation 9 (sans-io): a module that declares itself a pure protocol
//! machine and then does I/O. The wall-clock rule accepts the marked clock
//! read below; the sans-io rule rejects the read, the marker that excuses
//! it, and the fabric handle — it has no escape hatch.
// lint: sans-io

pub struct Pacer {
    fabric: Fabric,
    last: std::time::Instant,
}

impl Pacer {
    pub fn due(&mut self) -> bool {
        let now = std::time::Instant::now(); // lint: allow(wall-clock)
        let due = now.duration_since(self.last).as_millis() >= 25;
        self.last = now;
        due
    }
}
