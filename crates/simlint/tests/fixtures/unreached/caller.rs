//! Fixture: the one other file — it names `Island::reached`, nothing else.
pub fn drive(island: &Island) -> u32 {
    island.reached()
}
