//! One stripe of the plan cache's text slots: the map from (configuration
//! fingerprint, SQL text as sent) to the [`Slot`] that a repeat of that
//! text is served from. Each thread looks texts up in the stripe
//! [`els_exec::thread_stripe`] picks for it, so in practice one thread
//! locks a stripe and nobody else writes its lines.
//!
//! The stripe owns no policy. Which slots exist is decided by
//! [`crate::PlanCache`] under its state lock, so the cache takes this lock
//! while holding that state: `(plan_cache.state, stripe.slots)` is
//! `els_core::sync::NESTED_PAIR`, the one nesting of engine locks there is.

use std::collections::hash_map::{Entry, HashMap};
use std::sync::{Arc, Mutex};

use els_core::sync::lock_recovering;

use crate::plan_cache::Slot;

/// A slot and what names it. The map key is the hash of `(config, text)`,
/// and a lookup compares both, so a collision is a slow path, never a
/// wrong plan.
#[derive(Debug)]
struct Named {
    config: u64,
    text: Box<str>,
    /// The epoch of the entry the slot names.
    epoch: u64,
    slot: Arc<Slot>,
}

/// Cache-line aligned, so that two stripes never share a line.
#[derive(Debug, Default)]
#[repr(align(128))]
pub(crate) struct Stripe {
    slots: Mutex<HashMap<u64, Named>>,
}

impl Stripe {
    /// The slot `text` names under `config`, if it was made at `epoch`.
    pub(crate) fn find_slot(
        &self,
        key: u64,
        config: u64,
        text: &str,
        epoch: u64,
    ) -> Option<Arc<Slot>> {
        let slots = lock_recovering(&self.slots);
        let named = slots.get(&key)?;
        let current = named.config == config && named.epoch == epoch && *named.text == *text;
        current.then(|| Arc::clone(&named.slot))
    }

    /// Keep `slot` under `key`. False when the key is taken, by this text
    /// already or by a colliding one, which keeps it.
    pub(crate) fn keep_slot(
        &self,
        key: u64,
        config: u64,
        text: &str,
        epoch: u64,
        slot: Arc<Slot>,
    ) -> bool {
        match lock_recovering(&self.slots).entry(key) {
            Entry::Occupied(_) => false,
            Entry::Vacant(vacant) => {
                vacant.insert(Named { config, text: text.into(), epoch, slot });
                true
            }
        }
    }

    /// Forget the slot under `key`.
    pub(crate) fn drop_slot(&self, key: u64) {
        lock_recovering(&self.slots).remove(&key);
    }

    /// Number of slots kept.
    #[cfg(test)]
    pub(crate) fn slot_count(&self) -> usize {
        lock_recovering(&self.slots).len()
    }
}
