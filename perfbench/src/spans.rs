//! Layer self-time accounting for the traced driver.
//!
//! The traced driver calls [`enter`] and [`exit`] around every call it makes
//! into a layer. Each boundary reads the clock once and charges the interval
//! since the previous boundary to the layer on top of the stack, so a
//! layer's total is its self time: its spans minus the child spans nested in
//! them. The intervals tile the whole accounted run, which makes the sum of
//! all layers equal the wall time between [`start`] and [`finish`] up to the
//! cost of the last clock read.
//!
//! State is thread-local: the traced driver is serial, and the policy
//! wrapper it installs inside each switch reaches the same accounting
//! without a shared handle.

use std::cell::RefCell;
use std::time::{Duration, Instant};

/// The layers the traced driver attributes host time to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `bfc-sim` event queue: pushes through the sink and the pops
    /// `run_until` makes between two `Simulation::handle` calls.
    Queue = 0,
    /// `bfc-experiments`-style dispatch: the driver's own work outside all
    /// child spans.
    Driver,
    /// `bfc-net` switch handlers.
    Switch,
    /// `bfc-core` queue policy, reached through the switch.
    Policy,
    /// `bfc-transport` host handlers.
    Host,
    /// `bfc-net` flight recorder.
    Trace,
    /// `bfc-metrics` sampling, safety tracking and FCT summaries.
    Metrics,
}

pub const LAYERS: usize = 7;

/// Self time and span count per layer for one accounted run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Profile {
    pub self_time: [Duration; LAYERS],
    pub calls: [u64; LAYERS],
}

impl Profile {
    pub fn self_s(&self, layer: Layer) -> f64 {
        self.self_time[layer as usize].as_secs_f64()
    }

    pub fn calls(&self, layer: Layer) -> u64 {
        self.calls[layer as usize]
    }

    /// Sum of every layer's self time.
    pub fn total_s(&self) -> f64 {
        self.self_time.iter().map(Duration::as_secs_f64).sum()
    }
}

struct State {
    last: Instant,
    stack: Vec<Layer>,
    profile: Profile,
}

thread_local! {
    static STATE: RefCell<Option<State>> = const { RefCell::new(None) };
}

/// Starts accounting on this thread with `base` as the outermost layer.
pub fn start(base: Layer) {
    STATE.with_borrow_mut(|s| {
        *s = Some(State {
            last: Instant::now(),
            stack: vec![base],
            profile: Profile::default(),
        });
    });
}

/// Ends accounting and returns the profile.
///
/// # Panics
/// If [`start`] was not called on this thread or the spans are unbalanced.
pub fn finish() -> Profile {
    STATE.with_borrow_mut(|s| {
        let mut state = s.take().expect("spans::finish without spans::start");
        assert_eq!(state.stack.len(), 1, "unbalanced spans: {:?}", state.stack);
        let now = Instant::now();
        state.profile.self_time[state.stack[0] as usize] += now - state.last;
        state.profile
    })
}

/// Opens a span of `layer`, closing the running interval of its parent.
#[inline]
pub fn enter(layer: Layer) {
    STATE.with_borrow_mut(|s| {
        if let Some(state) = s.as_mut() {
            let now = Instant::now();
            let top = *state.stack.last().expect("base layer");
            state.profile.self_time[top as usize] += now - state.last;
            state.last = now;
            state.stack.push(layer);
            state.profile.calls[layer as usize] += 1;
        }
    });
}

/// Closes the innermost span.
#[inline]
pub fn exit() {
    STATE.with_borrow_mut(|s| {
        if let Some(state) = s.as_mut() {
            let now = Instant::now();
            let top = state.stack.pop().expect("exit without enter");
            state.profile.self_time[top as usize] += now - state.last;
            state.last = now;
        }
    });
}

/// Runs `f` inside a span of `layer`.
#[inline]
pub fn span<T>(layer: Layer, f: impl FnOnce() -> T) -> T {
    enter(layer);
    let out = f();
    exit();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(d: Duration) {
        let t = Instant::now();
        while t.elapsed() < d {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_times_exclude_children_and_tile_the_run() {
        let wall = Instant::now();
        start(Layer::Driver);
        span(Layer::Switch, || {
            spin(Duration::from_millis(4));
            span(Layer::Policy, || spin(Duration::from_millis(6)));
        });
        let p = finish();
        let wall = wall.elapsed().as_secs_f64();
        assert!(p.self_s(Layer::Policy) >= 0.006);
        assert!(p.self_s(Layer::Switch) >= 0.004);
        assert!(
            p.self_s(Layer::Switch) < 0.006,
            "child time leaked into the parent"
        );
        assert_eq!((p.calls(Layer::Switch), p.calls(Layer::Policy)), (1, 1));
        assert!(p.total_s() <= wall && p.total_s() > 0.9 * wall);
    }

    #[test]
    fn spans_outside_an_accounted_run_are_ignored() {
        span(Layer::Host, || ());
        start(Layer::Queue);
        assert_eq!(finish().calls(Layer::Host), 0);
    }
}
