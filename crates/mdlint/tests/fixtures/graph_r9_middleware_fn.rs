//! R9 fixture: a concern function on `Middleware` in a layer file that
//! synchronously re-enters the migration lifecycle. Parsed under a
//! `crates/core/src/layers/` path in the test, beside a lifecycle file.

pub struct Middleware;

impl Middleware {
    pub fn feed_slo(world: &mut World) {
        Middleware::migrate_now(world);
    }
}
