//! Stateful extension point for MapReduce (the paper's Sec. IV-A).
//!
//! `MAP` and `REDUCE` are stateless in the MR model, but the paper's FF2
//! variant attaches an *external stateful process* (`aug_proc`, contacted
//! over Java RMI) that reducers call as they find augmenting paths. Here a
//! [`Service`] is an `Arc`-shared object attached to a job. Tasks hand it
//! calls through [`TaskContext::submit`](crate::TaskContext::submit); the
//! runtime applies each task's calls at the barrier, in task-index order,
//! as soon as every lower-indexed task has completed — one path for
//! in-process and remote tasks, and the same call sequence at any thread
//! count. The runtime also invokes the round lifecycle hooks so a service
//! can finalize after the last reducer — matching the paper's observation
//! that `aug_proc` "finishes immediately after the last reducer".

use std::any::Any;
use std::collections::HashMap;
use std::sync::Arc;

use crate::error::MrError;

/// A stateful object reachable from `MAP`/`REDUCE` functions.
///
/// Implementations must be thread-safe: typed access through
/// [`ServiceHandle::get`] reaches them from concurrent tasks.
pub trait Service: Send + Sync + 'static {
    /// Called once before the map phase of each job the service is
    /// attached to.
    fn begin_round(&self) {}

    /// Called once after the last reducer of each job finishes. Finalize
    /// round state here.
    fn end_round(&self) {}

    /// Applies the calls one task attempt
    /// [`submit`](crate::TaskContext::submit)ted to this service, in the
    /// order it made them. The runtime calls this once per task that made
    /// any, in task-index order, and only for the attempt whose output
    /// counts.
    ///
    /// # Errors
    /// A human-readable reason when a payload does not decode (or the
    /// service takes no calls, the default); the runtime fails the job
    /// with [`MrError::Wire`].
    fn apply_calls(&self, _calls: &[Vec<u8>]) -> Result<(), String> {
        Err("this service takes no submitted calls".into())
    }

    /// Upcast for typed access via [`ServiceHandle::get`].
    fn as_any(&self) -> &dyn Any;
}

/// A named registry of services attached to one job.
#[derive(Clone, Default)]
pub struct ServiceHandle {
    services: HashMap<String, Arc<dyn Service>>,
}

impl std::fmt::Debug for ServiceHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut names: Vec<&str> = self.services.keys().map(String::as_str).collect();
        names.sort_unstable();
        f.debug_struct("ServiceHandle")
            .field("services", &names)
            .finish()
    }
}

impl ServiceHandle {
    /// Creates an empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Attaches `service` under `name`, replacing any previous binding.
    pub fn attach(&mut self, name: &str, service: Arc<dyn Service>) {
        self.services.insert(name.to_owned(), service);
    }

    /// Typed access to a service.
    ///
    /// # Errors
    /// [`MrError::ServiceMissing`] if no service is bound under `name` or
    /// the bound service is not a `T`.
    pub fn get<T: Service>(&self, name: &str) -> Result<&T, MrError> {
        self.services
            .get(name)
            .and_then(|s| s.as_any().downcast_ref::<T>())
            .ok_or_else(|| MrError::ServiceMissing(name.to_owned()))
    }

    /// Whether any services are attached.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.services.is_empty()
    }

    /// Runs `begin_round` on every attached service.
    pub(crate) fn begin_round(&self) {
        for s in self.services.values() {
            s.begin_round();
        }
    }

    /// Runs `end_round` on every attached service.
    pub(crate) fn end_round(&self) {
        for s in self.services.values() {
            s.end_round();
        }
    }

    /// Applies one task's calls to the service bound under `name`.
    ///
    /// # Errors
    /// [`MrError::ServiceMissing`] if nothing is bound under `name`;
    /// [`MrError::Wire`] if the service rejects a payload.
    pub fn apply_calls(&self, name: &str, calls: &[Vec<u8>]) -> Result<(), MrError> {
        let service = self
            .services
            .get(name)
            .ok_or_else(|| MrError::ServiceMissing(name.to_owned()))?;
        service
            .apply_calls(calls)
            .map_err(|m| MrError::Wire(format!("service {name} rejected a call: {m}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[derive(Default)]
    struct Tally {
        calls: AtomicU64,
        rounds: AtomicU64,
    }

    impl Service for Tally {
        fn begin_round(&self) {
            self.rounds.fetch_add(1, Ordering::Relaxed);
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
    }

    #[test]
    fn typed_access_and_lifecycle() {
        let mut handle = ServiceHandle::new();
        handle.attach("tally", Arc::new(Tally::default()));
        handle.begin_round();
        let t: &Tally = handle.get("tally").unwrap();
        t.calls.fetch_add(1, Ordering::Relaxed);
        assert_eq!(t.rounds.load(Ordering::Relaxed), 1);
        assert_eq!(t.calls.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn missing_service_is_error() {
        let handle = ServiceHandle::new();
        assert!(matches!(
            handle.get::<Tally>("nope"),
            Err(MrError::ServiceMissing(_))
        ));
    }

    #[test]
    fn wrong_type_is_error() {
        struct Other;
        impl Service for Other {
            fn as_any(&self) -> &dyn Any {
                self
            }
        }
        let mut handle = ServiceHandle::new();
        handle.attach("svc", Arc::new(Other));
        assert!(handle.get::<Tally>("svc").is_err());
    }

    #[test]
    fn debug_lists_names() {
        let mut handle = ServiceHandle::new();
        handle.attach("b", Arc::new(Tally::default()));
        handle.attach("a", Arc::new(Tally::default()));
        let dbg = format!("{handle:?}");
        assert!(dbg.contains("\"a\""));
        assert!(dbg.contains("\"b\""));
    }
}
