//! Fixture: `pub` items of a library crate, and who names them.
pub struct Island;

impl Island {
    pub fn reached(&self) -> u32 {
        1
    }

    pub fn only_tested(&self) -> u32 {
        2
    }

    // simlint: allow(unreached-pub) — reference implementation the fast path is compared against
    pub fn reference(&self) -> u32 {
        3
    }

    #[cfg(test)]
    pub fn probe(&self) -> u32 {
        4
    }

    pub(crate) fn internal(&self) -> u32 {
        5
    }
}

pub const DEAD: u32 = 0;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn everything_is_named_here() {
        let i = Island;
        assert_eq!(i.only_tested() + i.reference() + i.probe() + i.internal(), 14);
    }
}
