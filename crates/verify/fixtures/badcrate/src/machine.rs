//! Violation 3 (sans-io): a module that declares itself a pure protocol
//! machine and then does I/O: it reads a clock and holds the fabric.
// lint: sans-io

pub struct Pacer {
    fabric: Fabric,
    last: std::time::Instant,
}

impl Pacer {
    pub fn due(&mut self) -> bool {
        let now = std::time::Instant::now();
        let due = now.duration_since(self.last).as_millis() >= 25;
        self.last = now;
        due
    }
}
