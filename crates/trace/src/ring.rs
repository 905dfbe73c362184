//! The flight recorder: a fixed-capacity ring of [`Stamped`] events.
//!
//! Capacity 0 (the default) is the disabled path — [`FlightRecorder::record`]
//! is then a single predictable branch, which is what keeps always-compiled
//! instrumentation inside the gated bench run's 2% overhead budget. When
//! enabled, the ring keeps the most recent `capacity` events and counts
//! (but does not store) everything older, so a crash dump can say how much
//! history was lost.
//!
//! "Lock-free-to-read": the simulator is single-threaded, so there are no
//! locks to be free of — the point is that every read path (`iter`,
//! `tail`, `dump_tail`) takes `&self` and never mutates, so a panic hook
//! or divergence report can format the buffer from any vantage point
//! without disturbing the recorder's state.

use crate::event::{Event, Stamped};

/// Fixed-capacity event ring (see module docs).
#[derive(Clone, Debug)]
pub struct FlightRecorder {
    /// Ring storage; length grows to `cap` then stays there.
    buf: Vec<Stamped>,
    /// Capacity; 0 disables recording entirely.
    cap: usize,
    /// Total events ever recorded (monotonic; `recorded - len` = dropped).
    total: u64,
}

impl FlightRecorder {
    /// A disabled recorder (capacity 0). Recording is a no-op until
    /// [`FlightRecorder::set_capacity`] arms it.
    pub fn disabled() -> FlightRecorder {
        FlightRecorder {
            buf: Vec::new(),
            cap: 0,
            total: 0,
        }
    }

    /// A recorder keeping the most recent `capacity` events.
    pub fn with_capacity(capacity: usize) -> FlightRecorder {
        FlightRecorder {
            buf: Vec::with_capacity(capacity.min(1 << 20)),
            cap: capacity,
            total: 0,
        }
    }

    /// Re-arms the recorder with a new capacity, clearing any capture.
    /// Capacity 0 disables recording.
    pub fn set_capacity(&mut self, capacity: usize) {
        *self = FlightRecorder::with_capacity(capacity);
    }

    /// Whether recording is armed (capacity > 0). Instrumentation sites
    /// that need extra work to *assemble* an event (e.g. reading the old
    /// page type for a transition) gate on this first.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.cap != 0
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Events currently held (≤ capacity).
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the capture is empty.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Total events ever recorded, including those the ring has since
    /// overwritten.
    pub fn total_recorded(&self) -> u64 {
        self.total
    }

    /// Events lost to wraparound.
    pub fn dropped(&self) -> u64 {
        self.total - self.buf.len() as u64
    }

    /// Records `event` at `cycle`. Disabled (capacity 0) recorders return
    /// immediately. Never touches simulated state.
    #[inline]
    pub fn record(&mut self, cycle: u64, event: Event) {
        if self.cap == 0 {
            return;
        }
        let s = Stamped { cycle, event };
        if self.buf.len() < self.cap {
            self.buf.push(s);
        } else {
            let at = (self.total as usize) % self.cap;
            self.buf[at] = s;
        }
        self.total += 1;
    }

    /// Clears the capture without changing the capacity.
    pub fn clear(&mut self) {
        self.buf.clear();
        self.total = 0;
    }

    /// Iterates the capture oldest → newest. Read-only.
    pub fn iter(&self) -> impl Iterator<Item = &Stamped> {
        let split = if self.buf.len() < self.cap || self.cap == 0 {
            0 // Not yet wrapped (or disabled): storage order is oldest-first.
        } else {
            (self.total as usize) % self.cap
        };
        self.buf[split..].iter().chain(self.buf[..split].iter())
    }

    /// The `n` most recent events, oldest → newest. Read-only.
    pub fn tail(&self, n: usize) -> Vec<Stamped> {
        let skip = self.buf.len().saturating_sub(n);
        self.iter().skip(skip).copied().collect()
    }

    /// Formats the `n` most recent events, one per line, oldest → newest,
    /// with a header noting capture totals. This is what the panic/fault
    /// dump hook and the NI divergence reports print.
    pub fn dump_tail(&self, n: usize) -> String {
        use core::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "flight recorder: {} events captured ({} total, {} dropped)",
            self.buf.len(),
            self.total,
            self.dropped()
        );
        if !self.enabled() {
            out.push_str("  (recording disabled: capacity 0)\n");
            return out;
        }
        for s in self.tail(n) {
            let _ = writeln!(out, "  {s}");
        }
        out
    }
}

impl Default for FlightRecorder {
    fn default() -> Self {
        Self::disabled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(n: u32) -> Event {
        Event::SmcEntry { call: n }
    }

    fn cycles_of(r: &FlightRecorder) -> Vec<u64> {
        r.iter().map(|s| s.cycle).collect()
    }

    #[test]
    fn capacity_zero_is_disabled_and_records_nothing() {
        let mut r = FlightRecorder::disabled();
        assert!(!r.enabled());
        for i in 0..100 {
            r.record(i, ev(i as u32));
        }
        assert!(r.is_empty());
        assert_eq!(r.total_recorded(), 0);
        assert_eq!(r.iter().count(), 0); // Must not divide by capacity 0.
        assert!(r.tail(8).is_empty());
        assert!(r.dump_tail(8).contains("disabled"));
    }

    #[test]
    fn fills_then_wraps_keeping_most_recent() {
        let mut r = FlightRecorder::with_capacity(4);
        for i in 0..3 {
            r.record(i, ev(i as u32));
        }
        assert_eq!(cycles_of(&r), vec![0, 1, 2]);
        for i in 3..10 {
            r.record(i, ev(i as u32));
        }
        // Capacity 4, 10 recorded: the ring holds the last four, in order.
        assert_eq!(cycles_of(&r), vec![6, 7, 8, 9]);
        assert_eq!(r.total_recorded(), 10);
        assert_eq!(r.dropped(), 6);
    }

    #[test]
    fn wraps_exactly_at_capacity_boundary() {
        let mut r = FlightRecorder::with_capacity(3);
        for i in 0..3 {
            r.record(i, ev(i as u32));
        }
        assert_eq!(cycles_of(&r), vec![0, 1, 2]);
        assert_eq!(r.dropped(), 0);
        r.record(3, ev(3));
        assert_eq!(cycles_of(&r), vec![1, 2, 3]);
        assert_eq!(r.dropped(), 1);
    }

    #[test]
    fn tail_returns_most_recent_in_order() {
        let mut r = FlightRecorder::with_capacity(8);
        for i in 0..20 {
            r.record(i, ev(i as u32));
        }
        let t = r.tail(3);
        assert_eq!(
            t.iter().map(|s| s.cycle).collect::<Vec<_>>(),
            vec![17, 18, 19]
        );
        // Asking for more than captured returns everything held.
        assert_eq!(r.tail(100).len(), 8);
    }

    #[test]
    fn set_capacity_rearms_and_clears() {
        let mut r = FlightRecorder::with_capacity(2);
        r.record(1, ev(1));
        r.set_capacity(4);
        assert!(r.is_empty());
        assert_eq!(r.capacity(), 4);
        assert_eq!(r.total_recorded(), 0);
        r.set_capacity(0);
        r.record(5, ev(5));
        assert!(r.is_empty());
    }

    #[test]
    fn dump_tail_lists_events_oldest_first() {
        let mut r = FlightRecorder::with_capacity(4);
        r.record(10, ev(1));
        r.record(20, Event::TlbFlush);
        let d = r.dump_tail(4);
        let first = d.find("smc-entry").unwrap();
        let second = d.find("tlb-flush").unwrap();
        assert!(first < second, "{d}");
        assert!(d.contains("2 events captured"), "{d}");
    }
}
