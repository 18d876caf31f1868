//! Durable serving end to end: a server on `ServerConfig::data_dir` commits
//! socket writes to the directory's op log (DESIGN.md §10), so a clean
//! shutdown and a fresh server on the same directory serves every committed
//! write back — across processes in production, across `Server` instances
//! here.

use std::sync::atomic::{AtomicU64, Ordering};

use topk_core::Point;
use topk_server::{Server, ServerConfig, TopkClient};

fn scratch_dir(tag: &str) -> std::path::PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "topk-server-{tag}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn durable_config(dir: &std::path::Path) -> ServerConfig {
    ServerConfig {
        expected_n: 4096,
        data_dir: Some(dir.to_path_buf()),
        ..ServerConfig::default()
    }
}

#[test]
fn committed_writes_survive_a_server_restart() {
    let dir = scratch_dir("restart");

    {
        let server = Server::start(durable_config(&dir)).expect("durable server starts");
        let mut client = TopkClient::connect(server.local_addr()).expect("connect");
        for i in 1..=64u64 {
            client.insert(Point::new(i, i * 11)).expect("insert");
        }
        for i in (4..=64u64).step_by(4) {
            assert!(client.delete(Point::new(i, i * 11)).expect("delete"));
        }
        // A read flushes this connection's pending write completions, so
        // everything above is committed — and therefore journalled — by now.
        assert_eq!(
            client.query(0, u64::MAX, 1).expect("query"),
            vec![Point::new(63, 693)]
        );
        server.shutdown();
    }

    let server = Server::start(durable_config(&dir)).expect("server reopens the directory");
    let mut client = TopkClient::connect(server.local_addr()).expect("connect");
    let all = client
        .query(0, u64::MAX, 64)
        .expect("query recovered index");
    assert_eq!(all.len(), 48, "64 inserts minus 16 deletes survived");
    for i in 1..=64u64 {
        let expected = i % 4 != 0;
        assert_eq!(
            all.contains(&Point::new(i, i * 11)),
            expected,
            "point {i} after restart"
        );
    }
    // The recovered index keeps serving writes.
    client.insert(Point::new(1000, 1)).expect("insert survives");
    assert_eq!(
        client.query(1000, 1000, 1).expect("query"),
        vec![Point::new(1000, 1)]
    );
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn an_empty_data_dir_serves_like_a_fresh_index() {
    let dir = scratch_dir("fresh");
    let server = Server::start(durable_config(&dir)).expect("durable server starts");
    let mut client = TopkClient::connect(server.local_addr()).expect("connect");
    assert_eq!(client.query(0, u64::MAX, 8).expect("query"), vec![]);
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}
