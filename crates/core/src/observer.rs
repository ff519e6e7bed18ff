//! The pipeline→analysis boundary: one observer trait for every stream
//! the pipeline emits.
//!
//! The paper's evaluation is a set of analyses that all consume the same
//! unified jframe stream (plus the attempt, exchange, and flow streams
//! derived from it). [`PipelineObserver`] is the single subscription
//! point: every hook is default-no-op, so an analysis implements exactly
//! the hooks it needs and the driver
//! ([`Pipeline::run`](crate::pipeline::Pipeline::run)) takes *one*
//! observer instead of a closure per stream.
//!
//! Composition is structural:
//!
//! * `&mut O` and `Box<O>` are observers whenever `O` is — pass a
//!   borrowed analysis and keep it afterwards;
//! * tuples `(A, B, …)` up to arity 8 fan every event out to each
//!   element, in order — wire several analyses into one pass without any
//!   registry;
//! * the [`OnJFrame`] / [`OnAttempt`] / [`OnExchange`] / [`OnFlows`]
//!   adapters lift a plain closure into a single-hook observer, keeping
//!   the old sink-closure ergonomics;
//! * [`Collect`] materializes the jframes and exchanges of a small run;
//! * `()` is the null observer.
//!
//! ```
//! use jigsaw_core::observer::{OnExchange, OnJFrame, PipelineObserver};
//!
//! let mut jframes = 0u64;
//! let mut exchanges = 0u64;
//! let mut obs = (
//!     OnJFrame(|_jf: &jigsaw_core::JFrame| jframes += 1),
//!     OnExchange(|_x: &jigsaw_core::link::exchange::Exchange| exchanges += 1),
//! );
//! // `obs` implements PipelineObserver and can be handed to Pipeline::run.
//! # let _ = &mut obs;
//! ```

use crate::jframe::JFrame;
use crate::link::attempt::Attempt;
use crate::link::exchange::Exchange;
use crate::transport::flow::FlowRecord;

/// A subscriber to the pipeline's output streams.
///
/// Hook order for one run: `on_jframe` fires for every unified frame in
/// universal-time order; `on_attempt` fires for every assembled
/// transmission attempt; `on_exchange` fires for every closed frame
/// exchange in transmission-time order; `on_flows` fires exactly once, at
/// the end of the run, with every reconstructed flow record (order
/// unspecified — treat it as a set). A merge-only run
/// ([`Pipeline::merge_only`](crate::pipeline::Pipeline::merge_only)) fires
/// `on_jframe` only.
pub trait PipelineObserver {
    /// Observes one unified frame.
    fn on_jframe(&mut self, _jf: &JFrame) {}

    /// Observes one transmission attempt (the paper's §7.2 interference
    /// analysis operates on attempts, which are distinct from exchanges).
    fn on_attempt(&mut self, _a: &Attempt) {}

    /// Observes one reconstructed frame exchange.
    fn on_exchange(&mut self, _x: &Exchange) {}

    /// Observes the finished per-flow transport records, once, at the end
    /// of the run.
    fn on_flows(&mut self, _flows: &[FlowRecord]) {}
}

/// The null observer.
impl PipelineObserver for () {}

impl<O: PipelineObserver + ?Sized> PipelineObserver for &mut O {
    fn on_jframe(&mut self, jf: &JFrame) {
        (**self).on_jframe(jf);
    }
    fn on_attempt(&mut self, a: &Attempt) {
        (**self).on_attempt(a);
    }
    fn on_exchange(&mut self, x: &Exchange) {
        (**self).on_exchange(x);
    }
    fn on_flows(&mut self, flows: &[FlowRecord]) {
        (**self).on_flows(flows);
    }
}

impl<O: PipelineObserver + ?Sized> PipelineObserver for Box<O> {
    fn on_jframe(&mut self, jf: &JFrame) {
        (**self).on_jframe(jf);
    }
    fn on_attempt(&mut self, a: &Attempt) {
        (**self).on_attempt(a);
    }
    fn on_exchange(&mut self, x: &Exchange) {
        (**self).on_exchange(x);
    }
    fn on_flows(&mut self, flows: &[FlowRecord]) {
        (**self).on_flows(flows);
    }
}

/// Lifts a `FnMut(&JFrame)` closure into a jframe-only observer.
pub struct OnJFrame<F>(pub F);

impl<F: FnMut(&JFrame)> PipelineObserver for OnJFrame<F> {
    fn on_jframe(&mut self, jf: &JFrame) {
        (self.0)(jf);
    }
}

/// Lifts a `FnMut(&Attempt)` closure into an attempt-only observer.
pub struct OnAttempt<F>(pub F);

impl<F: FnMut(&Attempt)> PipelineObserver for OnAttempt<F> {
    fn on_attempt(&mut self, a: &Attempt) {
        (self.0)(a);
    }
}

/// Lifts a `FnMut(&Exchange)` closure into an exchange-only observer.
pub struct OnExchange<F>(pub F);

impl<F: FnMut(&Exchange)> PipelineObserver for OnExchange<F> {
    fn on_exchange(&mut self, x: &Exchange) {
        (self.0)(x);
    }
}

/// Lifts a `FnMut(&[FlowRecord])` closure into a flows-only observer.
pub struct OnFlows<F>(pub F);

impl<F: FnMut(&[FlowRecord])> PipelineObserver for OnFlows<F> {
    fn on_flows(&mut self, flows: &[FlowRecord]) {
        (self.0)(flows);
    }
}

/// Materializes every jframe and exchange a run emits — small runs and
/// tests only: `Pipeline::run(sources, &cfg, &mut collect)`.
#[derive(Debug, Default)]
pub struct Collect {
    /// Every unified frame, in emission order.
    pub jframes: Vec<JFrame>,
    /// Every closed exchange, in emission order.
    pub exchanges: Vec<Exchange>,
}

impl PipelineObserver for Collect {
    fn on_jframe(&mut self, jf: &JFrame) {
        self.jframes.push(jf.clone());
    }
    fn on_exchange(&mut self, x: &Exchange) {
        self.exchanges.push(x.clone());
    }
}

macro_rules! impl_observer_tuple {
    ($($name:ident),+) => {
        impl<$($name: PipelineObserver),+> PipelineObserver for ($($name,)+) {
            fn on_jframe(&mut self, jf: &JFrame) {
                #[allow(non_snake_case)]
                let ($($name,)+) = self;
                $($name.on_jframe(jf);)+
            }
            fn on_attempt(&mut self, a: &Attempt) {
                #[allow(non_snake_case)]
                let ($($name,)+) = self;
                $($name.on_attempt(a);)+
            }
            fn on_exchange(&mut self, x: &Exchange) {
                #[allow(non_snake_case)]
                let ($($name,)+) = self;
                $($name.on_exchange(x);)+
            }
            fn on_flows(&mut self, flows: &[FlowRecord]) {
                #[allow(non_snake_case)]
                let ($($name,)+) = self;
                $($name.on_flows(flows);)+
            }
        }
    };
}

impl_observer_tuple!(A, B);
impl_observer_tuple!(A, B, C);
impl_observer_tuple!(A, B, C, D);
impl_observer_tuple!(A, B, C, D, E);
impl_observer_tuple!(A, B, C, D, E, F);
impl_observer_tuple!(A, B, C, D, E, F, G);
impl_observer_tuple!(A, B, C, D, E, F, G, H);

#[cfg(test)]
mod tests {
    use super::*;
    use jigsaw_ieee80211::{Channel, PhyRate};

    fn jf() -> JFrame {
        JFrame {
            ts: 1,
            bytes: Default::default(),
            wire_len: 0,
            rate: PhyRate::R1,
            channel: Channel::of(1),
            instances: Default::default(),
            dispersion: 0,
            valid: false,
            unique: false,
        }
    }

    #[derive(Default)]
    struct Counter {
        jframes: u64,
        flows: u64,
    }

    impl PipelineObserver for Counter {
        fn on_jframe(&mut self, _jf: &JFrame) {
            self.jframes += 1;
        }
        fn on_flows(&mut self, flows: &[FlowRecord]) {
            self.flows += flows.len() as u64;
        }
    }

    #[test]
    fn tuple_fans_out_in_order() {
        let trace = std::cell::RefCell::new(Vec::new());
        {
            let mut obs = (
                OnJFrame(|_: &JFrame| trace.borrow_mut().push("a")),
                OnJFrame(|_: &JFrame| trace.borrow_mut().push("b")),
            );
            obs.on_jframe(&jf());
            obs.on_jframe(&jf());
            // Default hooks are no-ops on the other streams.
            obs.on_flows(&[]);
        }
        assert_eq!(trace.into_inner(), vec!["a", "b", "a", "b"]);
    }

    #[test]
    fn mut_ref_and_box_delegate() {
        let mut c = Counter::default();
        {
            let obs: &mut dyn PipelineObserver = &mut c;
            obs.on_jframe(&jf());
            obs.on_flows(&[]);
        }
        assert_eq!(c.jframes, 1);
        let mut boxed: Box<dyn PipelineObserver> = Box::new(Counter::default());
        boxed.on_jframe(&jf());
        // Null observer compiles and does nothing.
        let mut null = ();
        null.on_jframe(&jf());
    }

    #[test]
    fn borrowed_analyses_survive_the_pass() {
        let mut a = Counter::default();
        let mut b = Counter::default();
        {
            let mut obs = (&mut a, &mut b);
            obs.on_jframe(&jf());
        }
        // Both still usable after the observer is dropped.
        assert_eq!(a.jframes + b.jframes, 2);
    }
}
