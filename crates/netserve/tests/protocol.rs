//! Protocol robustness: property-based round-trips for every frame
//! type, plus adversarial-byte tests against a live server asserting
//! typed protocol errors with the connection (and tenant) staying
//! serviceable — the wire sibling of the codec corruption tests in
//! `crates/relstore/tests/catalog_snapshot.rs`.

use bytes::{BufMut, BytesMut};
use engine::{EstimateRung, StatsUse};
use netserve::proto::{encode_frame, read_frame, MAGIC, MAX_PAYLOAD, VERSION};
use netserve::{Client, ClientError, ErrorKind, Request, Response, Server, ServerConfig};
use proptest::prelude::*;
use relstore::codec::{catalog_checksum, put_str};
use relstore::{Relation, Schema};
use std::path::PathBuf;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("netserve-protocol-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn start_server(tag: &str) -> (Server, PathBuf) {
    let dir = scratch(tag);
    let server = Server::start(ServerConfig {
        listen: "127.0.0.1:0".to_string(),
        tenants_dir: dir.clone(),
        ..ServerConfig::default()
    })
    .expect("server starts");
    (server, dir)
}

fn tiny_relation() -> Relation {
    let schema = Schema::new(["a", "b"]).unwrap();
    Relation::from_columns(
        "t",
        schema,
        vec![vec![1, 2, 2, 3, 3, 3], vec![9, 9, 8, 8, 7, 7]],
    )
    .unwrap()
}

// --- Property-based round-trips --------------------------------------

fn ident() -> impl Strategy<Value = String> {
    "[a-z][a-z0-9_]{0,12}"
}

fn request_strategy() -> impl Strategy<Value = Request> {
    prop_oneof![
        Just(Request::Ping),
        Just(Request::Metrics),
        Just(Request::Shutdown),
        ident().prop_map(|tenant| Request::SnapshotEpoch { tenant }),
        (ident(), ".{0,60}").prop_map(|(tenant, sql)| Request::Estimate { tenant, sql }),
        (ident(), ident(), 1u32..64).prop_map(|(tenant, class, buckets)| Request::Analyze {
            tenant,
            class,
            buckets
        }),
        (
            ident(),
            ident(),
            proptest::collection::vec(ident(), 1..4),
            0usize..20
        )
            .prop_map(|(tenant, name, columns, rows)| {
                let values = (0..columns.len())
                    .map(|c| (0..rows).map(|r| (c * 31 + r) as u64).collect())
                    .collect();
                Request::LoadRelation {
                    tenant,
                    name,
                    columns,
                    values,
                }
            }),
    ]
}

fn stats_use_strategy() -> impl Strategy<Value = StatsUse> {
    (".{0,30}", 0u8..4, any::<bool>()).prop_map(|(target, rung, tuned)| StatsUse {
        target: target.into(),
        rung: match rung {
            0 => EstimateRung::Spec,
            1 => EstimateRung::EndBiased,
            2 => EstimateRung::Trivial,
            _ => EstimateRung::Uniform,
        },
        tuned,
    })
}

fn response_strategy() -> impl Strategy<Value = Response> {
    prop_oneof![
        Just(Response::Pong),
        Just(Response::ShutdownStarted),
        any::<u64>().prop_map(|rows| Response::Loaded { rows }),
        (any::<u64>(), any::<u64>())
            .prop_map(|(histograms, epoch)| Response::Analyzed { histograms, epoch }),
        any::<u64>().prop_map(|epoch| Response::Epoch { epoch }),
        ".{0,120}".prop_map(|text| Response::Metrics { text }),
        ident().prop_map(|tenant| Response::Overloaded { tenant }),
        (0u8..6, ".{0,60}").prop_map(|(kind, message)| Response::Error {
            kind: match kind {
                0 => ErrorKind::Protocol,
                1 => ErrorKind::BadTenant,
                2 => ErrorKind::Engine,
                3 => ErrorKind::ConnectionLimit,
                4 => ErrorKind::ShuttingDown,
                _ => ErrorKind::ShutdownDenied,
            },
            message
        }),
        (
            // Arbitrary bit patterns, including NaNs and infinities:
            // the estimate travels as raw bits, so every pattern must
            // survive unchanged.
            any::<u64>().prop_map(f64::from_bits),
            proptest::collection::vec(stats_use_strategy(), 0..5)
        )
            .prop_map(|(estimate, sources)| Response::Estimated { estimate, sources }),
    ]
}

proptest! {
    /// Every request frame round-trips bit-exactly through the codec.
    #[test]
    fn any_request_round_trips(req in request_strategy()) {
        let frame = req.encode_frame().unwrap();
        let (opcode, payload) = read_frame(&mut frame.as_ref()).unwrap();
        prop_assert_eq!(Request::decode(opcode, payload).unwrap(), req);
    }

    /// Every response frame round-trips, and re-encoding the decoded
    /// response gives the same bytes; `Estimated` compares the f64 by
    /// bit pattern (NaN-safe).
    #[test]
    fn any_response_round_trips(resp in response_strategy()) {
        let frame = resp.encode_frame().unwrap();
        let (opcode, payload) = read_frame(&mut frame.as_ref()).unwrap();
        let back = Response::decode(opcode, payload).unwrap();
        prop_assert_eq!(back.encode_frame().unwrap(), frame);
        match (&resp, &back) {
            (
                Response::Estimated { estimate: a, sources: sa },
                Response::Estimated { estimate: b, sources: sb },
            ) => {
                prop_assert_eq!(a.to_bits(), b.to_bits());
                prop_assert_eq!(sa, sb);
            }
            _ => prop_assert_eq!(&back, &resp),
        }
    }

    /// Flipping any bit of any request frame is detected: the reader
    /// returns a typed frame error or (for flips inside the payload of
    /// a frame whose checksum also got patched — impossible here) a
    /// decode error. Never a panic, never a silently different request.
    #[test]
    fn any_single_bit_flip_is_detected(
        req in request_strategy(),
        pos_frac in 0.0f64..1.0,
        bit in 0u32..8,
    ) {
        let mut bytes = req.encode_frame().unwrap().to_vec();
        let pos = ((bytes.len() as f64) * pos_frac) as usize % bytes.len();
        bytes[pos] ^= 1u8 << bit;
        match read_frame(&mut bytes.as_slice()) {
            Err(_) => {}
            Ok((opcode, payload)) => {
                // A flip that still frames can only be in the opcode
                // byte... but the opcode is checksummed too, so a
                // successful read means the flip undid itself — which
                // a single flip cannot. Anything decodable must equal
                // the original.
                prop_assert_eq!(Request::decode(opcode, payload).unwrap(), req);
            }
        }
    }
}

/// The `StatsUse` trail's wire layout, pinned byte for byte: per entry
/// a length-prefixed target, then the rung code with the tuned bit.
#[test]
fn stats_use_trail_encoding_is_pinned() {
    let resp = Response::Estimated {
        estimate: 12.75,
        sources: vec![
            StatsUse {
                target: "t.a".into(),
                rung: EstimateRung::Spec,
                tuned: true,
            },
            StatsUse {
                target: "l.a = r.b".into(),
                rung: EstimateRung::Uniform,
                tuned: false,
            },
        ],
    };
    let mut expected = BytesMut::new();
    expected.put_u64_le(12.75f64.to_bits());
    expected.put_u32_le(2);
    put_str(&mut expected, "t.a");
    expected.put_u8(0x80);
    put_str(&mut expected, "l.a = r.b");
    expected.put_u8(3);
    let (opcode, payload) = resp.encode();
    assert_eq!(payload.as_ref(), expected.as_ref());
    let back = Response::decode(opcode, payload.clone()).unwrap();
    assert_eq!(back, resp);
    assert_eq!(back.encode(), (opcode, payload));
}

// --- Adversarial bytes against a live server -------------------------

#[test]
fn corrupted_checksum_gets_typed_error_and_connection_survives() {
    let (server, dir) = start_server("checksum");
    let mut client = Client::connect(server.local_addr()).unwrap();

    let mut frame = Request::Ping.encode_frame().unwrap().to_vec();
    let last = frame.len() - 1;
    frame[last] ^= 0xFF;
    client.send_raw(&frame).unwrap();
    match client.read_response().unwrap() {
        Response::Error {
            kind: ErrorKind::Protocol,
            message,
        } => assert!(message.contains("checksum"), "{message}"),
        other => panic!("want protocol error, got {other:?}"),
    }

    // Same connection, next frame: fully serviceable.
    client
        .ping()
        .expect("connection still works after corrupt frame");
    client.shutdown().unwrap();
    server.join().unwrap();
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn unknown_opcode_gets_typed_error_and_connection_survives() {
    let (server, dir) = start_server("opcode");
    let mut client = Client::connect(server.local_addr()).unwrap();

    client.send_raw(&encode_frame(0x6E, &[]).unwrap()).unwrap();
    match client.read_response().unwrap() {
        Response::Error {
            kind: ErrorKind::Protocol,
            message,
        } => assert!(message.contains("unknown request opcode"), "{message}"),
        other => panic!("want protocol error, got {other:?}"),
    }
    client
        .ping()
        .expect("connection still works after unknown opcode");
    client.shutdown().unwrap();
    server.join().unwrap();
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn cross_version_frame_gets_typed_error_and_connection_survives() {
    let (server, dir) = start_server("version");
    let mut client = Client::connect(server.local_addr()).unwrap();

    let (opcode, payload) = Request::Ping.encode();
    let mut buf = BytesMut::new();
    buf.put_slice(&MAGIC);
    buf.put_u16_le(VERSION + 7);
    buf.put_u8(opcode);
    buf.put_u32_le(payload.len() as u32);
    buf.put_slice(&payload);
    let sum = catalog_checksum(&buf);
    buf.put_u64_le(sum);
    client.send_raw(&buf).unwrap();
    match client.read_response().unwrap() {
        Response::Error {
            kind: ErrorKind::Protocol,
            message,
        } => assert!(message.contains("version"), "{message}"),
        other => panic!("want protocol error, got {other:?}"),
    }
    client
        .ping()
        .expect("connection still works after version skew");
    client.shutdown().unwrap();
    server.join().unwrap();
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn oversized_length_prefix_gets_typed_error_then_close() {
    let (server, dir) = start_server("oversize");
    let mut client = Client::connect(server.local_addr()).unwrap();

    let mut frame = Request::Ping.encode_frame().unwrap().to_vec();
    frame[7..11].copy_from_slice(&(MAX_PAYLOAD + 1).to_le_bytes());
    client.send_raw(&frame).unwrap();
    match client.read_response().unwrap() {
        Response::Error {
            kind: ErrorKind::Protocol,
            message,
        } => assert!(message.contains("oversized"), "{message}"),
        other => panic!("want protocol error, got {other:?}"),
    }
    // The stream is no longer trustworthy: the server closes it.
    assert!(
        client.ping().is_err(),
        "fatal framing must close the connection"
    );

    // The *server* stays serviceable: a fresh connection works.
    let mut fresh = Client::connect(server.local_addr()).unwrap();
    fresh.ping().expect("new connection after fatal frame");
    fresh.shutdown().unwrap();
    server.join().unwrap();
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn bad_magic_gets_typed_error_then_close() {
    let (server, dir) = start_server("magic");
    let mut client = Client::connect(server.local_addr()).unwrap();

    let mut frame = Request::Ping.encode_frame().unwrap().to_vec();
    frame[0..4].copy_from_slice(b"NOPE");
    client.send_raw(&frame).unwrap();
    match client.read_response().unwrap() {
        Response::Error {
            kind: ErrorKind::Protocol,
            message,
        } => assert!(message.contains("magic"), "{message}"),
        other => panic!("want protocol error, got {other:?}"),
    }
    assert!(
        client.ping().is_err(),
        "bad magic must close the connection"
    );

    let mut fresh = Client::connect(server.local_addr()).unwrap();
    fresh.ping().expect("new connection after bad magic");
    fresh.shutdown().unwrap();
    server.join().unwrap();
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn truncated_frame_drops_connection_but_tenant_stays_serviceable() {
    let (server, dir) = start_server("truncated");

    // Seed a tenant over a first connection.
    let mut seed = Client::connect(server.local_addr()).unwrap();
    seed.load_relation("acme", &tiny_relation()).unwrap();
    seed.analyze("acme", "v_opt_end_biased", 4).unwrap();
    let (estimate, _) = seed
        .estimate("acme", "select count(*) from t where t.a = 3")
        .unwrap();

    // A second connection sends half a frame and hangs up.
    let mut evil = Client::connect(server.local_addr()).unwrap();
    let frame = Request::Ping.encode_frame().unwrap();
    evil.send_raw(&frame[..frame.len() / 2]).unwrap();
    drop(evil);

    // The tenant (and the first connection) are unaffected.
    let (again, _) = seed
        .estimate("acme", "select count(*) from t where t.a = 3")
        .unwrap();
    assert_eq!(estimate.to_bits(), again.to_bits());
    seed.shutdown().unwrap();
    server.join().unwrap();
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn payload_decode_error_is_typed_and_recoverable() {
    let (server, dir) = start_server("payload");
    let mut client = Client::connect(server.local_addr()).unwrap();

    // A syntactically valid frame whose ESTIMATE payload is garbage
    // (truncated string length prefix).
    client
        .send_raw(&encode_frame(0x04, &[0xFF, 0xFF]).unwrap())
        .unwrap();
    match client.read_response().unwrap() {
        Response::Error {
            kind: ErrorKind::Protocol,
            ..
        } => {}
        other => panic!("want protocol error, got {other:?}"),
    }
    client
        .ping()
        .expect("connection survives payload decode error");
    client.shutdown().unwrap();
    server.join().unwrap();
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn overflowing_row_count_gets_typed_error_and_connection_survives() {
    let (server, dir) = start_server("rowcount");
    let mut client = Client::connect(server.local_addr()).unwrap();

    // A checksum-valid LOAD_RELATION frame claiming 2^61 rows in one
    // column: a naive `rows * ncols * 8` wraps to 0 in release, which
    // would pass the size check on this tiny payload and then attempt
    // a 2^61-capacity allocation. It must instead surface as a typed
    // protocol error on a connection that keeps working.
    let mut payload = BytesMut::new();
    put_str(&mut payload, "acme");
    put_str(&mut payload, "t");
    payload.put_u16_le(1);
    put_str(&mut payload, "a");
    payload.put_u64_le(1u64 << 61);
    client
        .send_raw(&encode_frame(0x02, &payload).unwrap())
        .unwrap();
    match client.read_response().unwrap() {
        Response::Error {
            kind: ErrorKind::Protocol,
            message,
        } => assert!(message.contains("overflow"), "{message}"),
        other => panic!("want protocol error, got {other:?}"),
    }
    client
        .ping()
        .expect("connection still works after overflowing row count");
    client.shutdown().unwrap();
    server.join().unwrap();
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn plausible_but_underfunded_row_count_is_a_typed_error() {
    // No multiply overflow this time: 1M claimed rows, 8 payload
    // bytes. The size check must reject it before any row-sized
    // allocation or read.
    let mut payload = BytesMut::new();
    put_str(&mut payload, "acme");
    put_str(&mut payload, "t");
    payload.put_u16_le(1);
    put_str(&mut payload, "a");
    payload.put_u64_le(1_000_000);
    payload.put_u64_le(42); // one row's worth of values
    let frame = encode_frame(0x02, &payload).unwrap();
    let (opcode, body) = read_frame(&mut frame.as_ref()).unwrap();
    let err = Request::decode(opcode, body).unwrap_err();
    assert!(err.contains("column values"), "{err}");
}

#[test]
fn oversized_request_is_rejected_before_hitting_the_wire() {
    // > 16 MiB of column values (3M rows x 8 bytes): the encode side
    // refuses to build a frame the server is guaranteed to reject.
    let req = Request::LoadRelation {
        tenant: "acme".to_string(),
        name: "big".to_string(),
        columns: vec!["a".to_string()],
        values: vec![vec![0u64; 3_000_000]],
    };
    let err = req.encode_frame().unwrap_err();
    assert!(err.contains("exceeds"), "{err}");
    assert!(
        (3_000_000usize * 8) > MAX_PAYLOAD as usize,
        "test premise: the payload is over the cap"
    );
}

#[test]
fn invalid_tenant_names_get_typed_bad_tenant_error() {
    let (server, dir) = start_server("badtenant");
    let mut client = Client::connect(server.local_addr()).unwrap();
    for bad in ["", "..", "a/b", "a b"] {
        match client.epoch(bad) {
            Err(ClientError::Remote {
                kind: ErrorKind::BadTenant,
                ..
            }) => {}
            other => panic!("tenant {bad:?}: want BadTenant, got {other:?}"),
        }
    }
    // No tenant directory was created for any of them.
    let entries: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
    assert!(entries.is_empty(), "bad tenant names must not create dirs");
    client.shutdown().unwrap();
    server.join().unwrap();
    let _ = std::fs::remove_dir_all(dir);
}
