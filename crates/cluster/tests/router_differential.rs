//! The cluster's byte-identity differential: the full standard sweep
//! routed through `hmtx-router` over 3 backends must produce responses
//! **byte-identical** to the same sweep against one direct `hmtx-serve`
//! node — including when a backend is killed mid-sweep (failover) and
//! restarted on the same address (rediscovery).
//!
//! This is the cluster analogue of the repo's other differential gates
//! (chaos diff, hytm-vs-hmtx, serve tiers): routing is allowed to change
//! *where* a job runs, never *what bytes* the client reads.

use std::time::Duration;

use hmtx_bench::standard_sweep;
use hmtx_cluster::{RouterConfig, RouterHandle};
use hmtx_server::{response_type, Client, ServerConfig, ServerHandle};
use hmtx_types::{JobSpec, WireScale};

fn backend_config() -> ServerConfig {
    ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    }
}

fn router_over(backends: &[&ServerHandle]) -> RouterHandle {
    let addrs = backends.iter().map(|h| h.addr().to_string()).collect();
    let mut cfg = RouterConfig::new(addrs);
    // Tight health interval so rediscovery happens within test timescales.
    cfg.health_interval = Duration::from_millis(50);
    RouterHandle::start("127.0.0.1:0", cfg).expect("bind router")
}

fn run_sweep(addr: &str, specs: &[JobSpec]) -> Vec<Vec<u8>> {
    let mut client = Client::connect(addr).expect("connect");
    specs
        .iter()
        .map(|s| {
            let response = client.job_with_retry(s, None, 60).expect("job");
            assert_eq!(
                response_type(&response).as_deref(),
                Some("result"),
                "sweep job must answer result"
            );
            response
        })
        .collect()
}

#[test]
fn routed_sweep_is_byte_identical_to_direct_single_node() {
    let sweep = standard_sweep(WireScale::Quick);

    // Ground truth: one direct node.
    let direct = ServerHandle::start("127.0.0.1:0", backend_config()).expect("bind direct");
    let expected = run_sweep(&direct.addr().to_string(), &sweep);
    direct.drain();
    direct.wait();

    // The same sweep through a 3-backend router.
    let backends: Vec<ServerHandle> = (0..3)
        .map(|_| ServerHandle::start("127.0.0.1:0", backend_config()).expect("bind backend"))
        .collect();
    let router = router_over(&backends.iter().collect::<Vec<_>>());
    let routed = run_sweep(&router.addr().to_string(), &sweep);

    assert_eq!(expected.len(), routed.len());
    for (i, (want, got)) in expected.iter().zip(&routed).enumerate() {
        assert_eq!(want, got, "sweep job {i}: routed bytes differ from direct");
    }

    // The work actually spread: every backend homed some partition of the
    // sweep's keyspace.
    for (i, b) in backends.iter().enumerate() {
        let mut c = Client::connect(&b.addr().to_string()).expect("connect backend");
        let stats = c.stats().expect("stats");
        assert!(
            stats.executed > 0,
            "backend {i} executed nothing — ring did not partition the sweep"
        );
    }

    // Aggregate stats through the router sum the fleet.
    let mut rc = Client::connect(&router.addr().to_string()).expect("connect router");
    let agg = rc.stats().expect("aggregate stats");
    let total_executed: u64 = backends
        .iter()
        .map(|b| {
            let mut c = Client::connect(&b.addr().to_string()).expect("connect");
            c.stats().expect("stats").executed
        })
        .sum();
    assert_eq!(agg.executed, total_executed);
    assert_eq!(
        agg.executed,
        sweep.len() as u64,
        "each key simulated exactly once fleet-wide"
    );

    router.drain();
    router.wait();
    for b in backends {
        b.drain();
        b.wait();
    }
}

#[test]
fn byte_identity_survives_backend_kill_and_restart_mid_sweep() {
    let sweep = standard_sweep(WireScale::Quick);

    let direct = ServerHandle::start("127.0.0.1:0", backend_config()).expect("bind direct");
    let expected = run_sweep(&direct.addr().to_string(), &sweep);
    direct.drain();
    direct.wait();

    let mut backends: Vec<ServerHandle> = (0..3)
        .map(|_| ServerHandle::start("127.0.0.1:0", backend_config()).expect("bind backend"))
        .collect();
    let victim_addr = backends[1].addr().to_string();
    let router = router_over(&backends.iter().collect::<Vec<_>>());
    let router_addr = router.addr().to_string();

    let third = sweep.len() / 3;
    let mut routed = run_sweep(&router_addr, &sweep[..third]);

    // Kill backend 1 (graceful drain = the process going away): the router
    // must fail its keys over to the next ring node.
    let victim = backends.remove(1);
    victim.drain();
    victim.wait();
    routed.extend(run_sweep(&router_addr, &sweep[third..2 * third]));
    assert!(
        router.counters().failovers > 0,
        "a dead backend's partition must fail over along the ring"
    );

    // Restart on the same address: the health checker rediscovers it and
    // its partition routes home again.
    let revived = ServerHandle::start(&victim_addr, backend_config()).expect("rebind victim");
    std::thread::sleep(Duration::from_millis(300));
    assert!(
        router.backend_up(1),
        "restarted backend must be rediscovered"
    );
    routed.extend(run_sweep(&router_addr, &sweep[2 * third..]));

    assert_eq!(expected.len(), routed.len());
    for (i, (want, got)) in expected.iter().zip(&routed).enumerate() {
        assert_eq!(
            want, got,
            "sweep job {i}: bytes differ across kill/restart routing"
        );
    }
    // The revived backend serves its partition again (rediscovery is
    // functional, not just a flag).
    let mut c = Client::connect(&victim_addr).expect("connect revived");
    let stats = c.stats().expect("stats");
    assert!(
        stats.job_requests > 0,
        "revived backend never saw its partition come home"
    );

    router.drain();
    router.wait();
    for b in backends {
        b.drain();
        b.wait();
    }
    revived.drain();
    revived.wait();
}
