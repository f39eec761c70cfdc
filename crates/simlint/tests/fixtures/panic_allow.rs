//! Fixture: an invariant-backed expect or `unreachable!` with a reasoned
//! marker is accepted, and `#[cfg(test)]` modules may unwrap freely.
pub fn head(v: &[u64]) -> u64 {
    // simlint: allow(no-panic-hot-path) — fixture invariant: callers push before popping
    *v.first().expect("callers push before popping")
}

pub fn head2(v: &[u64]) -> u64 {
    let Some(x) = v.first() else {
        // simlint: allow(no-panic-hot-path) — fixture invariant: callers push before popping
        unreachable!("callers push before popping");
    };
    *x
}

#[cfg(test)]
mod tests {
    #[test]
    fn unwrap_is_fine_in_tests() {
        let v = vec![1u64];
        assert_eq!(*v.first().unwrap(), 1);
    }
}
