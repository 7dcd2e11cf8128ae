//! The "null" application of §5: a compute-only job multiprogrammed
//! against each benchmark. "We use a null application rather than two
//! copies of a real application because the experiment is more easily
//! controlled."

use std::rc::Rc;

use udm::{JobSpec, Program, UserCtx};

/// Computes forever; never sends or receives.
#[derive(Debug, Default)]
pub struct NullApp;

impl Program for NullApp {
    fn main(&self, ctx: &mut UserCtx<'_>) {
        loop {
            ctx.compute(10_000);
        }
    }
}

impl NullApp {
    /// A background job spec named "null".
    pub fn spec() -> JobSpec {
        JobSpec::new("null", Rc::new(NullApp)).background()
    }
}
