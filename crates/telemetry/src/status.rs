//! Named live-status documents: small JSON blobs a subsystem exposes
//! for observers to read (e.g. the engine's convergence monitor feeding
//! the observatory's `/diagnosis` endpoint).
//!
//! Unlike counters/gauges (cumulative, summed across call sites) or the
//! event log (append-only history), a status document is
//! *last-writer-wins current state*. Each name holds a **renderer**: a
//! closure that builds the document when someone reads it. A subsystem
//! whose state changes far more often than it is read (the fleet daemon)
//! [`register`]s a renderer over its live state and pays for the JSON
//! only on read; [`publish`] is the fixed-value case of the same entry.
//! [`get`] calls the renderer *after* releasing the store lock, so a
//! renderer may itself read or publish status documents.

use crate::json::Json;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

/// Builds a status document on read; `None` hides the entry.
type Renderer = Arc<dyn Fn() -> Option<Json> + Send + Sync>;

fn store() -> MutexGuard<'static, BTreeMap<String, Renderer>> {
    static STORE: OnceLock<Mutex<BTreeMap<String, Renderer>>> = OnceLock::new();
    STORE
        .get_or_init(|| Mutex::new(BTreeMap::new()))
        .lock()
        .unwrap_or_else(|p| p.into_inner())
}

/// Registers (replacing any previous entry) the renderer serving `name`.
/// The renderer runs on the reader's thread, once per [`get`]; returning
/// `None` reads as "not published".
pub fn register(name: &str, render: impl Fn() -> Option<Json> + Send + Sync + 'static) {
    let old = store().insert(name.to_string(), Arc::new(render));
    // Dropped outside the store lock: a renderer's captures may run
    // arbitrary code on drop.
    drop(old);
}

/// Publishes (replacing any previous entry) the fixed document `doc`
/// under `name`.
pub fn publish(name: &str, doc: Json) {
    register(name, move || Some(doc.clone()));
}

/// The current document under `name`, if one is published.
pub fn get(name: &str) -> Option<Json> {
    let render = store().get(name).cloned()?;
    render()
}

/// Removes every entry, renderers included (part of [`crate::reset`]).
pub fn clear() {
    let old = std::mem::take(&mut *store());
    drop(old);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn publish_replaces_and_get_clones() {
        let _g = crate::tests::lock();
        assert_eq!(get("doc"), None);
        publish("doc", Json::from(1u64));
        assert_eq!(get("doc"), Some(Json::from(1u64)));
        publish("doc", Json::from("two"));
        assert_eq!(get("doc"), Some(Json::from("two")), "last writer wins");
        clear();
        assert_eq!(get("doc"), None, "clear removes everything");
    }

    #[test]
    fn renderers_run_on_read_and_may_reenter_the_store() {
        let _g = crate::tests::lock();
        let reads = Arc::new(AtomicU64::new(0));
        let r = Arc::clone(&reads);
        register("live", move || {
            let n = r.fetch_add(1, Ordering::Relaxed) + 1;
            // Re-entering the store from a renderer must not deadlock.
            publish("seen", Json::from(n));
            let inner = get("inner").unwrap_or(Json::Null);
            Some(Json::obj([("reads", Json::from(n)), ("inner", inner)]))
        });
        assert_eq!(
            reads.load(Ordering::Relaxed),
            0,
            "nothing renders until read"
        );
        publish("inner", Json::from("x"));
        let doc = get("live").expect("rendered");
        assert_eq!(doc.get("reads"), Some(&Json::from(1u64)));
        assert_eq!(doc.get("inner"), Some(&Json::from("x")));
        assert_eq!(get("seen"), Some(Json::from(1u64)));
        assert_eq!(
            get("live").and_then(|d| d.get("reads").cloned()),
            Some(Json::from(2u64)),
            "every read renders afresh"
        );

        register("hidden", || None);
        assert_eq!(get("hidden"), None, "a None render reads as unpublished");

        clear();
        assert_eq!(get("live"), None, "clear drops renderers");
        assert_eq!(
            Arc::strong_count(&reads),
            1,
            "the dropped renderer released its captures"
        );
    }
}
