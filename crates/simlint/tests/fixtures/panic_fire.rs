//! Fixture: unwrap/expect/unreachable! in a kernel steady-state module must fire.
pub fn head(v: &[u64]) -> u64 {
    *v.first().unwrap()
}

pub fn head2(v: &[u64]) -> u64 {
    *v.first().expect("non-empty")
}

pub fn head3(v: &[u64]) -> u64 {
    match v.first() {
        Some(x) => *x,
        None => unreachable!("non-empty"),
    }
}
