//! Component calendar: per-component next-due cycles, so `Gpu::step`
//! touches only components with work and `Gpu::try_skip_idle` jumps
//! straight to the next component event.
//!
//! Each component (every SM, plus the DRAM controller) owns one slot. The
//! calendar is a dense array of due cycles, and `next_event` is a linear
//! argmin over it. A `BinaryHeap` keyed by cycle was tried first and lost:
//! with tens of components, a busy SM reschedules every cycle, so the heap
//! pays a push plus a lazy stale-pop per component per cycle (hundreds of
//! ns each step), while the dense scan costs a handful of loads once per
//! skip attempt and makes every reschedule a plain store. A heap only wins
//! when components vastly outnumber the cycles between events, which a GPU
//! with at most a few dozen SMs never approaches.
//!
//! `Cycle::MAX` means "never self-due": the component only acts on external
//! events, which arrive through `wake_at`.

use crate::types::Cycle;

/// Calendar of component due times. Components are dense indices assigned
/// by the owner (the GPU uses `0..n_sms` for SMs and `n_sms` for DRAM).
#[derive(Debug)]
pub struct Calendar {
    /// Authoritative next-due cycle per component (`Cycle::MAX` = never).
    next_due: Vec<Cycle>,
}

impl Calendar {
    /// Creates a calendar with `n` components, all due at cycle 0 (every
    /// component must run its first cycle to discover its own horizon).
    pub fn new(n: usize) -> Self {
        Calendar { next_due: vec![0; n] }
    }

    /// Number of components.
    pub fn len(&self) -> usize {
        self.next_due.len()
    }

    /// True when the calendar tracks no components.
    pub fn is_empty(&self) -> bool {
        self.next_due.is_empty()
    }

    /// The current due cycle of `comp` (`Cycle::MAX` = never self-due).
    pub fn due(&self, comp: usize) -> Cycle {
        self.next_due[comp]
    }

    /// True when `comp` must be stepped at `cycle`.
    pub fn is_due(&self, comp: usize, cycle: Cycle) -> bool {
        self.next_due[comp] <= cycle
    }

    /// Sets `comp`'s next due cycle, replacing any earlier value (the
    /// component was just stepped and reported a fresh horizon).
    pub fn schedule(&mut self, comp: usize, due: Cycle) {
        self.next_due[comp] = due;
    }

    /// Moves `comp`'s due cycle earlier to `due` if it is not already due
    /// sooner (external wake event: a response delivery, a window boundary).
    pub fn wake_at(&mut self, comp: usize, due: Cycle) {
        if due < self.next_due[comp] {
            self.next_due[comp] = due;
        }
    }

    /// Parks `comp`: never self-due until the next `schedule`/`wake_at`.
    /// One-shot components (the GPU's per-SM outbox flush slots) park
    /// themselves after firing, and start parked — `new` arms every slot at
    /// cycle 0, which is right for pipeline components that must discover
    /// their own horizon but would pin `any_due` forever for event slots.
    pub fn park(&mut self, comp: usize) {
        self.next_due[comp] = Cycle::MAX;
    }

    /// True when any component is due at `cycle`. Exits on the first due
    /// slot, so on a busy machine this is a couple of loads — the cheap
    /// pre-check `Gpu::try_skip_idle` runs every cycle before paying for
    /// the full [`Calendar::next_event`] argmin.
    pub fn any_due(&self, cycle: Cycle) -> bool {
        self.next_due.iter().any(|&t| t <= cycle)
    }

    /// Earliest (due cycle, component) over all components; ties go to the
    /// lowest component index. `None` when no component is ever self-due.
    pub fn next_event(&self) -> Option<(Cycle, u32)> {
        let mut best: Option<(Cycle, u32)> = None;
        for (i, &t) in self.next_due.iter().enumerate() {
            if t != Cycle::MAX && best.is_none_or(|(b, _)| t < b) {
                best = Some((t, i as u32));
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_all_due_at_zero() {
        let c = Calendar::new(3);
        assert_eq!(c.len(), 3);
        assert!(c.is_due(0, 0) && c.is_due(2, 0));
        assert_eq!(c.next_event(), Some((0, 0)));
    }

    #[test]
    fn schedule_replaces() {
        let mut c = Calendar::new(2);
        c.schedule(0, 50);
        c.schedule(1, 10);
        assert_eq!(c.next_event(), Some((10, 1)));
        c.schedule(1, 80);
        assert_eq!(c.next_event(), Some((50, 0)));
        assert!(!c.is_due(0, 49));
        assert!(c.is_due(0, 50));
    }

    #[test]
    fn wake_at_only_moves_earlier() {
        let mut c = Calendar::new(1);
        c.schedule(0, 100);
        c.wake_at(0, 200); // later: ignored
        assert_eq!(c.due(0), 100);
        c.wake_at(0, 30);
        assert_eq!(c.due(0), 30);
        assert_eq!(c.next_event(), Some((30, 0)));
    }

    #[test]
    fn never_due_components_have_no_event() {
        let mut c = Calendar::new(2);
        c.schedule(0, Cycle::MAX);
        c.schedule(1, Cycle::MAX);
        assert_eq!(c.next_event(), None);
        // An external wake revives the component.
        c.wake_at(1, 7);
        assert_eq!(c.next_event(), Some((7, 1)));
    }

    #[test]
    fn park_makes_component_never_due() {
        let mut c = Calendar::new(2);
        c.park(0);
        c.schedule(1, 4);
        assert!(!c.is_due(0, 1_000_000));
        assert_eq!(c.next_event(), Some((4, 1)));
        c.wake_at(0, 2);
        assert_eq!(c.next_event(), Some((2, 0)));
    }

    #[test]
    fn ties_resolve_to_lowest_index() {
        let mut c = Calendar::new(3);
        c.schedule(0, 9);
        c.schedule(1, 5);
        c.schedule(2, 5);
        assert_eq!(c.next_event(), Some((5, 1)));
    }
}
