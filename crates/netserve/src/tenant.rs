//! Per-tenant namespaces: each tenant owns a data directory, a
//! [`DurableCatalog`] (WAL + snapshots), a maintenance [`Daemon`], and
//! an [`Engine`], so tenants share nothing but the process.
//!
//! # Admission control
//!
//! Every request must win one of `queue_depth` admission slots before
//! it touches the tenant (a compare-and-swap on an atomic counter — no
//! lock, no unbounded queue). A tenant at capacity answers with a
//! typed [`Response::Overloaded`] instead of dropping the connection:
//! the client keeps its socket and retries. Within the slots, reads
//! (ESTIMATE, SNAPSHOT-EPOCH) run directly on the calling connection
//! thread — the engine read path is epoch-snapshot based and scales
//! with connections — while writes (LOAD, ANALYZE) are serialized
//! through a bounded request queue drained by the tenant's single
//! writer thread, so catalog mutations apply in arrival order.

use crate::proto::{ErrorKind, Request, Response};
use engine::Engine;
use parking_lot::{Mutex, RwLock};
use relstore::{Daemon, DaemonConfig, DaemonCore, DurableCatalog, Relation, Schema};
use std::borrow::Cow;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;
use vopt_hist::BuilderSpec;

/// Tunables for one tenant namespace.
#[derive(Debug, Clone)]
pub struct TenantConfig {
    /// Admission slots: concurrent in-flight requests (queued writes
    /// plus executing reads) before OVERLOADED.
    pub queue_depth: usize,
    /// Maintenance daemon sweep interval.
    pub daemon_tick: Duration,
}

impl Default for TenantConfig {
    fn default() -> Self {
        Self {
            queue_depth: 64,
            daemon_tick: Duration::from_millis(200),
        }
    }
}

struct WriteJob {
    request: Request,
    reply: crossbeam::channel::Sender<Response>,
}

/// One isolated tenant.
pub struct Tenant {
    name: String,
    store: Arc<DurableCatalog>,
    engine: Arc<RwLock<Engine>>,
    daemon: Mutex<Option<Daemon>>,
    daemon_tick: Duration,
    inflight: AtomicUsize,
    queue_depth: usize,
    writes: Mutex<Option<crossbeam::channel::Sender<WriteJob>>>,
    writer: Mutex<Option<std::thread::JoinHandle<()>>>,
}

/// `[A-Za-z0-9_-]{1,64}`: a tenant name is a single path component,
/// never a traversal.
pub fn validate_tenant_name(name: &str) -> Result<(), String> {
    if name.is_empty() || name.len() > 64 {
        return Err(format!(
            "tenant name must be 1..=64 characters, got {}",
            name.len()
        ));
    }
    if let Some(bad) = name
        .chars()
        .find(|c| !(c.is_ascii_alphanumeric() || *c == '_' || *c == '-'))
    {
        return Err(format!(
            "tenant name may only contain [A-Za-z0-9_-], got {bad:?}"
        ));
    }
    Ok(())
}

impl Tenant {
    /// Opens (or creates) the tenant rooted at `root/<name>`,
    /// recovering any existing catalog through the WAL's snapshot +
    /// journal replay, and starts its maintenance daemon and writer
    /// thread.
    pub fn open(root: &Path, name: &str, config: &TenantConfig) -> Result<Arc<Tenant>, String> {
        validate_tenant_name(name)?;
        let dir = root.join(name);
        let store =
            Arc::new(DurableCatalog::open(&dir).map_err(|e| format!("open tenant store: {e}"))?);
        let mut engine = Engine::new();
        engine.attach_catalog(store.catalog_arc());
        let tenant = Arc::new(Tenant {
            name: name.to_string(),
            store: store.clone(),
            engine: Arc::new(RwLock::new(engine)),
            daemon: Mutex::new(Some(Daemon::spawn(
                DaemonCore::new(DaemonConfig::default()),
                store,
                config.daemon_tick,
            ))),
            daemon_tick: config.daemon_tick,
            inflight: AtomicUsize::new(0),
            queue_depth: config.queue_depth,
            writes: Mutex::new(None),
            writer: Mutex::new(None),
        });
        let (tx, rx) = crossbeam::channel::unbounded::<WriteJob>();
        *tenant.writes.lock() = Some(tx);
        let worker = Arc::clone(&tenant);
        let handle = std::thread::Builder::new()
            .name(format!("tenant-{name}-writer"))
            .spawn(move || {
                while let Ok(job) = rx.recv() {
                    let response = worker.handle_write(job.request);
                    worker.inflight.fetch_sub(1, Ordering::SeqCst);
                    let _ = job.reply.send(response);
                }
            })
            .map_err(|e| format!("spawn tenant writer: {e}"))?;
        *tenant.writer.lock() = Some(handle);
        Ok(tenant)
    }

    /// The tenant's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Tries to win an admission slot.
    fn admit(&self) -> bool {
        self.inflight
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
                (n < self.queue_depth).then_some(n + 1)
            })
            .is_ok()
    }

    /// Handles one tenant-scoped request end to end, including
    /// admission control. Never blocks forever: writes wait for the
    /// writer thread, reads run inline. An owned write moves into the
    /// writer's queue; a borrowed one is copied there.
    pub fn submit<'r>(&self, request: impl Into<Cow<'r, Request>>) -> Response {
        let request = request.into();
        if !self.admit() {
            obs::counter(&obs::labeled("net_overloaded_total", "tenant", &self.name)).inc();
            return Response::Overloaded {
                tenant: self.name.clone(),
            };
        }
        match &*request {
            Request::Estimate { .. } | Request::SnapshotEpoch { .. } => {
                let response = self.handle_read(&request);
                self.inflight.fetch_sub(1, Ordering::SeqCst);
                response
            }
            Request::LoadRelation { .. } | Request::Analyze { .. } => {
                let sender = match self.writes.lock().clone() {
                    Some(s) => s,
                    None => {
                        self.inflight.fetch_sub(1, Ordering::SeqCst);
                        return Response::Error {
                            kind: ErrorKind::ShuttingDown,
                            message: "tenant is shut down".to_string(),
                        };
                    }
                };
                let (tx, rx) = crossbeam::channel::unbounded();
                let job = WriteJob {
                    request: request.into_owned(),
                    reply: tx,
                };
                if sender.send(job).is_err() {
                    self.inflight.fetch_sub(1, Ordering::SeqCst);
                    return Response::Error {
                        kind: ErrorKind::ShuttingDown,
                        message: "tenant writer has exited".to_string(),
                    };
                }
                // The writer releases the slot before replying.
                rx.recv().unwrap_or(Response::Error {
                    kind: ErrorKind::ShuttingDown,
                    message: "tenant writer exited mid-request".to_string(),
                })
            }
            _ => {
                self.inflight.fetch_sub(1, Ordering::SeqCst);
                Response::Error {
                    kind: ErrorKind::Protocol,
                    message: format!("{} is not a tenant-scoped operation", request.op_name()),
                }
            }
        }
    }

    fn handle_read(&self, request: &Request) -> Response {
        match request {
            Request::Estimate { sql, .. } => {
                let engine = self.engine.read();
                let query = match engine.parse(sql) {
                    Ok(q) => q,
                    Err(e) => {
                        return Response::Error {
                            kind: ErrorKind::Engine,
                            message: e.to_string(),
                        }
                    }
                };
                match engine.estimate_with_sources(&query) {
                    Ok((estimate, sources)) => Response::Estimated { estimate, sources },
                    Err(e) => Response::Error {
                        kind: ErrorKind::Engine,
                        message: e.to_string(),
                    },
                }
            }
            Request::SnapshotEpoch { .. } => Response::Epoch {
                epoch: self.store.catalog().epoch(),
            },
            _ => unreachable!("submit routes only reads here"),
        }
    }

    fn handle_write(&self, request: Request) -> Response {
        match request {
            Request::LoadRelation {
                name,
                columns,
                values,
                ..
            } => {
                let schema = match Schema::new(columns.iter().map(String::as_str)) {
                    Ok(s) => s,
                    Err(e) => {
                        return Response::Error {
                            kind: ErrorKind::Engine,
                            message: e.to_string(),
                        }
                    }
                };
                let relation = match Relation::from_columns(name, schema, values) {
                    Ok(r) => r,
                    Err(e) => {
                        return Response::Error {
                            kind: ErrorKind::Engine,
                            message: e.to_string(),
                        }
                    }
                };
                let rows = relation.num_rows() as u64;
                self.engine.write().register(relation);
                Response::Loaded { rows }
            }
            Request::Analyze { class, buckets, .. } => {
                let spec = match BuilderSpec::parse(&class, buckets as usize) {
                    Ok(s) => s,
                    Err(e) => {
                        return Response::Error {
                            kind: ErrorKind::Engine,
                            message: e.to_string(),
                        }
                    }
                };
                let written = {
                    let mut engine = self.engine.write();
                    match engine.analyze_all_durable(&self.store, spec) {
                        Ok(n) => n,
                        Err(e) => {
                            return Response::Error {
                                kind: ErrorKind::Engine,
                                message: e.to_string(),
                            }
                        }
                    }
                };
                // Re-seed the maintenance daemon with the analyzed
                // relations so future staleness is refreshed under the
                // same spec.
                self.rebuild_daemon(spec);
                Response::Analyzed {
                    histograms: written as u64,
                    epoch: self.store.catalog().epoch(),
                }
            }
            _ => unreachable!("submit routes only writes here"),
        }
    }

    fn rebuild_daemon(&self, spec: BuilderSpec) {
        let mut core = DaemonCore::new(DaemonConfig::default());
        {
            let engine = self.engine.read();
            for name in engine.relation_names() {
                let relation = Arc::new(
                    engine
                        .relation(&name)
                        .expect("relation_names() returned it")
                        .clone(),
                );
                for column in relation.schema().columns() {
                    core.register_with_spec(Arc::clone(&relation), column.name.clone(), spec);
                }
            }
        }
        let fresh = Daemon::spawn(core, Arc::clone(&self.store), self.daemon_tick);
        if let Some(old) = self.daemon.lock().replace(fresh) {
            old.stop();
        }
    }

    /// Requests after this call answer SHUTTING_DOWN; the writer thread
    /// drains its queue and exits.
    pub fn close(&self) {
        let sender = self.writes.lock().take();
        drop(sender);
        if let Some(writer) = self.writer.lock().take() {
            let _ = writer.join();
        }
        if let Some(daemon) = self.daemon.lock().take() {
            daemon.stop();
        }
    }

    /// Compacts the tenant's journal into a fresh snapshot generation
    /// (the graceful-shutdown path).
    pub fn checkpoint(&self) -> Result<(), String> {
        self.store
            .checkpoint()
            .map_err(|e| format!("checkpoint tenant {}: {e}", self.name))
    }

    /// The tenant's durable store (tests inspect journals directly).
    pub fn store(&self) -> &Arc<DurableCatalog> {
        &self.store
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tenant_names_reject_traversal_and_separators() {
        for bad in ["", "..", "a/b", "a\\b", "a b", ".", "x\u{0}", "é"] {
            assert!(validate_tenant_name(bad).is_err(), "{bad:?} must fail");
        }
        for good in ["acme", "tenant-1", "A_b-C", "x"] {
            assert!(validate_tenant_name(good).is_ok(), "{good:?} must pass");
        }
    }

    #[test]
    fn zero_depth_tenant_answers_overloaded_not_hang() {
        let dir = std::env::temp_dir().join(format!("netserve-tenant-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = TenantConfig {
            queue_depth: 0,
            ..TenantConfig::default()
        };
        let tenant = Tenant::open(&dir, "acme", &config).expect("open");
        let response = tenant.submit(&Request::SnapshotEpoch {
            tenant: "acme".into(),
        });
        assert!(matches!(response, Response::Overloaded { .. }));
        tenant.close();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
