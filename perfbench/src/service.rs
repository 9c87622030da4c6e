//! The two ways the benchmark reaches the statistics service: an
//! in-process engine over a journaled catalog, and a VOHW client talking
//! to a `netserve::Server` on loopback inside the benchmark process.
//! Both are set up from the same relations with the same ANALYZE spec.

use crate::data::COLUMN;
use crate::trace::Tracer;
use engine::{Engine, StatsUse};
use netserve::{Client, Request, Response, Server, ServerConfig};
use relstore::catalog::StatKey;
use relstore::stats::frequency_table;
use relstore::{Catalog, DurableCatalog, Relation};
use std::path::{Path, PathBuf};
use std::time::Duration;
use vopt_hist::BuilderSpec;

/// The tenant every wire op names.
pub const TENANT: &str = "bench";

/// Buckets per histogram (β).
pub const BUCKETS: usize = 20;

/// How every workload ANALYZEs: the paper's practical recommendation.
pub const SPEC: BuilderSpec = BuilderSpec::VOptEndBiased(BUCKETS);

/// A maintenance tick far longer than any run: the tenant's daemon
/// never sweeps, so no timer drives work while ops are timed.
pub const NO_TICK: Duration = Duration::from_secs(24 * 3600);

/// An engine attached to a durable, write-ahead-journaled catalog.
pub struct Local {
    /// The catalog's data directory.
    pub dir: PathBuf,
    /// The journaled catalog.
    pub store: DurableCatalog,
    /// The engine reading it.
    pub engine: Engine,
}

impl Local {
    /// Registers `relations`, opens a fresh catalog in `dir` and runs
    /// one durable ANALYZE of every column.
    pub fn setup(dir: &Path, relations: Vec<Relation>) -> Result<Local, String> {
        let store = DurableCatalog::open(dir).map_err(|e| format!("open catalog: {e}"))?;
        let mut engine = Engine::new();
        for r in relations {
            engine.register(r);
        }
        engine.attach_catalog(store.catalog_arc());
        engine
            .analyze_all_durable(&store, SPEC)
            .map_err(|e| format!("durable ANALYZE: {e}"))?;
        Ok(Local {
            dir: dir.to_path_buf(),
            store,
            engine,
        })
    }

    /// SQL text in, estimate and statistics trail out.
    pub fn estimate(&self, sql: &str) -> Result<(f64, Vec<StatsUse>), String> {
        let query = self.engine.parse(sql).map_err(|e| e.to_string())?;
        self.engine
            .estimate_with_sources(&query)
            .map_err(|e| e.to_string())
    }

    /// The traced form of [`Local::estimate`]: spans around `parse` and
    /// `estimate_with_sources`, the latter named by its cache outcome.
    pub fn estimate_traced(
        &self,
        sql: &str,
        tr: &mut Tracer,
        op: u64,
        parent: Option<u32>,
    ) -> Result<(f64, Vec<StatsUse>), String> {
        let s = tr.open("parse", op, parent);
        let query = self.engine.parse(sql).map_err(|e| e.to_string());
        tr.close(s);
        let query = query?;
        let hits = cache_hits();
        let s = tr.open("estimate", op, parent);
        let out = self.engine.estimate_with_sources(&query);
        tr.close(s);
        let hit = cache_hits() > hits;
        tr.rename(s, if hit { "estimate.hit" } else { "estimate.miss" });
        out.map_err(|e| e.to_string())
    }

    /// One durable single-column ANALYZE of relation `t`.
    pub fn analyze(&self, t: usize) -> Result<(), String> {
        let relation = self
            .engine
            .relation(&format!("t{t}"))
            .map_err(|e| e.to_string())?;
        self.store
            .analyze(relation, COLUMN, SPEC)
            .map(|_| ())
            .map_err(|e| e.to_string())
    }

    /// The traced form of [`Local::analyze`]: the three public calls
    /// `DurableCatalog::analyze` makes, each in its own span.
    pub fn analyze_traced(
        &self,
        t: usize,
        tr: &mut Tracer,
        op: u64,
        parent: Option<u32>,
    ) -> Result<(), String> {
        let relation = self
            .engine
            .relation(&format!("t{t}"))
            .map_err(|e| e.to_string())?;
        let s = tr.open("scan", op, parent);
        let table = frequency_table(relation, COLUMN);
        tr.close(s);
        let table = table.map_err(|e| e.to_string())?;
        let s = tr.open("build", op, parent);
        let stored = Catalog::build_stored(&table, SPEC);
        tr.close(s);
        let stored = stored.map_err(|e| e.to_string())?;
        let key = StatKey::new(relation.name(), &[COLUMN]);
        let s = tr.open("put", op, parent);
        let put = self.store.put_with_spec(key, stored, Some(SPEC));
        tr.close(s);
        put.map_err(|e| e.to_string())
    }
}

/// The estimation cache's hit counter (a process-wide obs counter).
pub fn cache_hits() -> u64 {
    obs::counter("est_cache_hit_total").get()
}

/// A loopback server plus one connected client.
pub struct Wire {
    /// The server's tenants directory.
    pub dir: PathBuf,
    server: Option<Server>,
    client: Option<Client>,
}

impl Wire {
    /// Starts a server over a fresh tenants directory, connects, loads
    /// `relations` with LOAD_RELATION and runs one ANALYZE request.
    pub fn setup(dir: &Path, relations: &[Relation]) -> Result<Wire, String> {
        let server = Server::start(ServerConfig {
            listen: "127.0.0.1:0".to_string(),
            tenants_dir: dir.to_path_buf(),
            daemon_tick: NO_TICK,
            ..ServerConfig::default()
        })
        .map_err(|e| format!("start server: {e}"))?;
        let addr = server.local_addr();
        let mut wire = Wire {
            dir: dir.to_path_buf(),
            server: Some(server),
            client: None,
        };
        let client = wire
            .client
            .insert(Client::connect(addr).map_err(|e| format!("connect: {e}"))?);
        for r in relations {
            client
                .load_relation(TENANT, r)
                .map_err(|e| format!("LOAD_RELATION {}: {e}", r.name()))?;
        }
        wire.analyze()?;
        Ok(wire)
    }

    fn client(&mut self) -> &mut Client {
        self.client
            .as_mut()
            .expect("client is connected until close")
    }

    /// `Client::estimate`, from send to receive.
    pub fn estimate(&mut self, sql: &str) -> Result<(f64, Vec<StatsUse>), String> {
        self.client()
            .estimate(TENANT, sql)
            .map_err(|e| e.to_string())
    }

    /// The traced form of [`Wire::estimate`]: spans around
    /// `encode_frame`, `send_raw` and `read_response`.
    pub fn estimate_traced(
        &mut self,
        sql: &str,
        tr: &mut Tracer,
        op: u64,
        parent: Option<u32>,
    ) -> Result<(f64, Vec<StatsUse>), String> {
        let s = tr.open("encode", op, parent);
        let frame = Request::Estimate {
            tenant: TENANT.to_string(),
            sql: sql.to_string(),
        }
        .encode_frame();
        tr.close(s);
        let frame = frame?;
        let s = tr.open("send", op, parent);
        let sent = self.client().send_raw(&frame);
        tr.close(s);
        sent.map_err(|e| e.to_string())?;
        let s = tr.open("read", op, parent);
        let response = self.client().read_response();
        tr.close(s);
        match response.map_err(|e| e.to_string())? {
            Response::Estimated { estimate, sources } => Ok((estimate, sources)),
            other => Err(format!("unexpected response {other:?}")),
        }
    }

    /// One ANALYZE request: a durable ANALYZE of every column of the
    /// tenant, from send to receive.
    pub fn analyze(&mut self) -> Result<(), String> {
        self.client()
            .analyze(TENANT, SPEC.name(), BUCKETS as u32)
            .map(|_| ())
            .map_err(|e| format!("ANALYZE: {e}"))
    }

    /// The tenant catalog's epoch.
    pub fn epoch(&mut self) -> Result<u64, String> {
        self.client().epoch(TENANT).map_err(|e| e.to_string())
    }

    /// Disconnects, stops the server and waits for all of its threads
    /// (the graceful path checkpoints the tenant).
    pub fn close(mut self) -> Result<(), String> {
        self.stop()
    }

    fn stop(&mut self) -> Result<(), String> {
        self.client = None;
        match self.server.take() {
            Some(server) => {
                server.shutdown();
                server
                    .join()
                    .map(|_| ())
                    .map_err(|e| format!("server join: {e}"))
            }
            None => Ok(()),
        }
    }
}

impl Drop for Wire {
    fn drop(&mut self) {
        let _ = self.stop();
    }
}
