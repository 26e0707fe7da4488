//! End-to-end tests: a real `NetServer` on a loopback socket, a real
//! `PlfService` with scalar workers behind it, and real clients in
//! front — the protocol, the reactor, fair admission, retry, drain,
//! and the network load generator all exercised through the socket.

use std::net::SocketAddr;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use plf_net::loadgen::{self, NetLoadConfig};
use plf_net::{
    NetClient, NetServer, NetServerConfig, NetServerReport, Response, ShutdownFlag,
    SubmitParams, TenantPolicy,
};
use plf_phylo::kernels::{PlfBackend, ScalarBackend};
use plf_phylo::metrics::NetCounters;
use plf_phylo::model::SiteModel;
use plf_phylo::likelihood::TreeLikelihood;
use plfd::{PlfService, RetryPolicy, ServiceConfig};
use plf_seqgen::DatasetSpec;

struct TestServer {
    addr: SocketAddr,
    shutdown: ShutdownFlag,
    counters: Arc<NetCounters>,
    handle: JoinHandle<std::io::Result<(PlfService, NetServerReport)>>,
}

impl TestServer {
    fn stop(self) -> (PlfService, NetServerReport) {
        self.shutdown.request();
        let (service, report) = self
            .handle
            .join()
            .expect("server thread")
            .expect("server run");
        (service, report)
    }
}

fn start_server(net_cfg: NetServerConfig) -> (TestServer, Vec<String>, SiteModel) {
    let ds = plf_seqgen::generate(DatasetSpec::new(6, 48), 17);
    let model = plf_seqgen::default_model();
    let service = PlfService::new(
        ServiceConfig::default(),
        vec![
            Box::new(ScalarBackend) as Box<dyn PlfBackend>,
            Box::new(ScalarBackend) as Box<dyn PlfBackend>,
        ],
    );
    let taxa = ds.data.taxa().to_vec();
    let dataset = service.register_dataset(ds.data);
    let shutdown = ShutdownFlag::local();
    let counters = NetCounters::new();
    let server = NetServer::bind(
        "127.0.0.1:0",
        service,
        dataset,
        model.clone(),
        net_cfg,
        shutdown.clone(),
        Arc::clone(&counters),
    )
    .expect("bind");
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || server.run());
    (
        TestServer {
            addr,
            shutdown,
            counters,
            handle,
        },
        taxa,
        model,
    )
}

fn submit_params(tenant: &str, taxa: &[String], seed: u64) -> SubmitParams {
    SubmitParams {
        tenant: tenant.to_string(),
        high_priority: false,
        deadline: None,
        idempotency_key: None,
        newick: loadgen::ladder_newick(taxa, seed),
    }
}

#[test]
fn greeting_carries_service_shape_and_taxa() {
    let (server, taxa, _model) = start_server(NetServerConfig::default());
    let client = NetClient::connect(server.addr).expect("connect");
    let greeting = client.greeting();
    assert_eq!(greeting.taxa, taxa);
    assert_eq!(greeting.workers, 2);
    assert!(greeting.queue_capacity > 0);
    assert!(greeting.unit_patterns > 0);
    drop(client);
    let (service, report) = server.stop();
    assert_eq!(report.accepted, 1);
    service.shutdown();
}

#[test]
fn submit_completes_with_bit_identical_likelihood() {
    let (server, taxa, model) = start_server(NetServerConfig::default());
    let mut client = NetClient::connect(server.addr).expect("connect");

    let params = submit_params("tenant-a", &taxa, 42);
    let response = client
        .submit_and_wait(&params, &RetryPolicy::default())
        .expect("submit");
    let Response::Completed {
        ln_likelihood,
        backend,
        ..
    } = &response
    else {
        panic!("expected Completed, got {response:?}");
    };
    assert!(ln_likelihood.is_finite());
    assert!(!backend.is_empty());

    // The wire result must be bit-identical to a direct in-process
    // evaluation of the same tree on the same dataset.
    let ds = plf_seqgen::generate(DatasetSpec::new(6, 48), 17);
    let tree =
        plf_phylo::tree::Tree::from_newick(&params.newick).expect("newick");
    let mut eval = TreeLikelihood::new(&tree, &ds.data, model).expect("workspace");
    let mut backend_direct = ScalarBackend;
    let direct = eval
        .log_likelihood(&tree, &mut backend_direct)
        .expect("direct eval");
    assert_eq!(direct.to_bits(), ln_likelihood.to_bits());

    let (service, report) = server.stop();
    assert_eq!(report.completed, 1);
    assert_eq!(report.unresolved, 0);
    service.shutdown();
}

#[test]
fn multiple_jobs_on_one_connection_interleave() {
    let (server, taxa, _model) = start_server(NetServerConfig::default());
    let mut client = NetClient::connect(server.addr).expect("connect");
    let mut ids = Vec::new();
    for i in 0..8u64 {
        let params = submit_params("tenant-a", &taxa, 100 + i);
        ids.push(client.submit(&params).expect("submit"));
    }
    for id in ids {
        let response = client.wait_for(id).expect("response");
        assert!(
            matches!(response, Response::Completed { .. }),
            "job {id}: {response:?}"
        );
    }
    let (service, report) = server.stop();
    assert_eq!(report.completed, 8);
    service.shutdown();
}

#[test]
fn completions_wake_the_reactor_long_before_its_tick() {
    // With a 30 s tick, a reactor that noticed resolved tickets only on
    // its tick would hold every round of pipelined jobs until the next
    // tick: the first round alone would outlast the budget. Completions
    // must wake it, and no wake may be lost for good: 800 jobs whose
    // completions race the reactor's re-arming of the wake.
    const CONNECTIONS: u64 = 2;
    const PIPELINE: u64 = 8;
    const ROUNDS: u64 = 50;
    let budget = Duration::from_secs(10);
    let (server, taxa, _model) = start_server(NetServerConfig {
        tick: Duration::from_secs(30),
        ..NetServerConfig::default()
    });
    let started = Instant::now();
    let clients: Vec<JoinHandle<Result<NetClient, String>>> = (0..CONNECTIONS)
        .map(|c| {
            let (addr, taxa) = (server.addr, taxa.clone());
            std::thread::spawn(move || {
                let fail = |e: std::io::Error| format!("connection {c}: {e}");
                let mut client = NetClient::connect(addr).map_err(fail)?;
                client.set_read_timeout(Some(budget)).map_err(fail)?;
                let tenant = format!("tenant-{c}");
                for round in 0..ROUNDS {
                    let mut ids = Vec::new();
                    for i in 0..PIPELINE {
                        let seed = (c * ROUNDS + round) * PIPELINE + i;
                        ids.push(
                            client
                                .submit(&submit_params(&tenant, &taxa, seed))
                                .map_err(fail)?,
                        );
                    }
                    for id in ids {
                        match client.wait_for(id).map_err(fail)? {
                            Response::Completed { .. } => {}
                            other => return Err(format!("connection {c} job {id}: {other:?}")),
                        }
                    }
                }
                Ok(client)
            })
        })
        .collect();
    let clients: Vec<NetClient> = clients
        .into_iter()
        .map(|h| {
            h.join()
                .expect("client thread")
                .unwrap_or_else(|e| panic!("{e}"))
        })
        .collect();
    let elapsed = started.elapsed();
    assert!(
        elapsed < budget,
        "{} jobs took {elapsed:?}",
        CONNECTIONS * PIPELINE * ROUNDS
    );
    // The hangups wake the reactor to see the shutdown request.
    server.shutdown.request();
    drop(clients);
    let (service, report) = server.stop();
    assert_eq!(report.completed, CONNECTIONS * PIPELINE * ROUNDS);
    service.shutdown();
}

#[test]
fn auto_idempotency_keys_do_not_collide_across_connections() {
    // Two connections, each letting submit_and_wait auto-generate its
    // idempotency key, submit *different* trees. The server dedups
    // keys globally, so connection-local keys (the old `net-1`) would
    // silently hand the second client the first client's result.
    let (server, taxa, model) = start_server(NetServerConfig::default());
    let mut a = NetClient::connect(server.addr).expect("connect a");
    let mut b = NetClient::connect(server.addr).expect("connect b");
    let params_a = submit_params("tenant-a", &taxa, 1001);
    let params_b = submit_params("tenant-b", &taxa, 2002);
    let ra = a
        .submit_and_wait(&params_a, &RetryPolicy::default())
        .expect("submit a");
    let rb = b
        .submit_and_wait(&params_b, &RetryPolicy::default())
        .expect("submit b");
    let (Response::Completed { ln_likelihood: la, .. }, Response::Completed { ln_likelihood: lb, .. }) =
        (&ra, &rb)
    else {
        panic!("expected two Completed, got {ra:?} / {rb:?}");
    };
    // Each client must get the likelihood of *its own* tree.
    let ds = plf_seqgen::generate(DatasetSpec::new(6, 48), 17);
    for (params, wire) in [(&params_a, *la), (&params_b, *lb)] {
        let tree = plf_phylo::tree::Tree::from_newick(&params.newick).expect("newick");
        let mut eval = TreeLikelihood::new(&tree, &ds.data, model.clone()).expect("workspace");
        let direct = eval
            .log_likelihood(&tree, &mut ScalarBackend)
            .expect("direct eval");
        assert_eq!(direct.to_bits(), wire.to_bits());
    }
    let (service, report) = server.stop();
    assert_eq!(report.completed, 2, "both jobs must actually execute");
    service.shutdown();
}

#[test]
fn cancel_of_unknown_job_is_idempotent() {
    let (server, _taxa, _model) = start_server(NetServerConfig::default());
    let mut client = NetClient::connect(server.addr).expect("connect");
    client.cancel(999).expect("cancel write");
    let response = client.wait_for(999).expect("response");
    assert!(matches!(response, Response::Cancelled { client_job: 999 }));
    let (service, _report) = server.stop();
    service.shutdown();
}

#[test]
fn cancel_of_unknown_id_does_not_swallow_a_later_submit() {
    let (server, taxa, _model) = start_server(NetServerConfig::default());
    let mut client = NetClient::connect(server.addr).expect("connect");
    client.set_read_timeout(Some(Duration::from_secs(10))).ok();
    // Cancel an id that was never submitted; the first submit on this
    // connection will then reuse client_job = 1. A stale cancellation
    // mark must not make the server drop that job on the floor.
    client.cancel(1).expect("cancel write");
    let response = client.wait_for(1).expect("cancel response");
    assert!(matches!(response, Response::Cancelled { client_job: 1 }));
    let id = client
        .submit(&submit_params("tenant-a", &taxa, 77))
        .expect("submit");
    assert_eq!(id, 1, "first submit reuses the cancelled id");
    let response = client.wait_for(id).expect("job must get a response");
    assert!(
        matches!(response, Response::Completed { .. }),
        "expected Completed, got {response:?}"
    );
    let (service, report) = server.stop();
    assert_eq!(report.completed, 1);
    service.shutdown();
}

#[test]
fn bad_newick_gets_an_error_frame_not_a_hang() {
    let (server, _taxa, _model) = start_server(NetServerConfig::default());
    let mut client = NetClient::connect(server.addr).expect("connect");
    let params = SubmitParams {
        tenant: "t".into(),
        high_priority: false,
        deadline: None,
        idempotency_key: None,
        newick: "((((".into(),
    };
    let id = client.submit(&params).expect("submit");
    let response = client.wait_for(id).expect("response");
    assert!(
        matches!(response, Response::Error { .. }),
        "expected Error, got {response:?}"
    );
    let (service, _report) = server.stop();
    service.shutdown();
}

#[test]
fn rate_limited_tenant_sees_reject_and_retry_succeeds() {
    let mut cfg = NetServerConfig::default();
    cfg.tenant_policies.push((
        "throttled".to_string(),
        TenantPolicy {
            weight: 1.0,
            rate_per_sec: 50.0,
            burst: 1.0,
            max_pending: 1,
        },
    ));
    let (server, taxa, _model) = start_server(cfg);
    let mut client = NetClient::connect(server.addr).expect("connect");

    // Flood faster than the staging cap of 1 can drain: at least one
    // submit must come back RateLimited with a usable hint.
    let mut ids = Vec::new();
    for i in 0..16u64 {
        let params = SubmitParams {
            tenant: "throttled".into(),
            ..submit_params("throttled", &taxa, 200 + i)
        };
        ids.push(client.submit(&params).expect("submit"));
    }
    let mut rejects = 0;
    let mut completed = 0;
    for id in ids {
        match client.wait_for(id).expect("response") {
            Response::Reject {
                reason,
                retry_after_ns,
                ..
            } => {
                assert_eq!(reason, plf_net::RejectReason::RateLimited);
                assert!(reason.is_retryable());
                assert!(retry_after_ns > 0, "hint must be actionable");
                rejects += 1;
            }
            Response::Completed { .. } => completed += 1,
            other => panic!("unexpected {other:?}"),
        }
    }
    assert!(rejects > 0, "expected at least one RateLimited reject");
    assert!(completed > 0, "paced submits must still complete");

    // submit_and_wait's retry loop must absorb the same pressure.
    let response = client
        .submit_and_wait(
            &SubmitParams {
                tenant: "throttled".into(),
                ..submit_params("throttled", &taxa, 999)
            },
            &RetryPolicy::default(),
        )
        .expect("retry loop");
    assert!(
        matches!(response, Response::Completed { .. }),
        "retries must converge: {response:?}"
    );
    let (service, _report) = server.stop();
    service.shutdown();
}

#[test]
fn drain_rejects_new_submits_but_finishes_inflight() {
    let (server, taxa, _model) = start_server(NetServerConfig::default());
    let mut client = NetClient::connect(server.addr).expect("connect");
    let mut ids = Vec::new();
    for i in 0..4u64 {
        ids.push(
            client
                .submit(&submit_params("tenant-a", &taxa, 300 + i))
                .expect("submit"),
        );
    }
    server.shutdown.request();
    // Every submission gets a terminal answer: Completed (staged or in
    // flight before the drain began), Error (drain budget exhausted;
    // journal owns it), or a Draining reject (the submit frame lost
    // the race and reached the server after the drain began). A
    // silently closed socket is the one forbidden outcome.
    let mut terminal = 0;
    for id in ids {
        match client.wait_for(id) {
            Ok(Response::Completed { .. }) | Ok(Response::Error { .. }) => terminal += 1,
            Ok(Response::Reject { reason, .. }) => {
                assert_eq!(reason, plf_net::RejectReason::Draining);
                terminal += 1;
            }
            Ok(other) => panic!("unexpected {other:?}"),
            Err(e) => panic!("pre-drain job lost: {e}"),
        }
    }
    assert_eq!(terminal, 4);
    let (service, report) = server.stop();
    assert_eq!(
        report.unresolved, 0,
        "drain budget must cover the in-flight tail"
    );
    service.shutdown();
}

#[test]
fn net_loadgen_runs_churn_without_losing_acknowledged_jobs() {
    let (server, _taxa, _model) = start_server(NetServerConfig::default());
    let cfg = NetLoadConfig {
        connections: 8,
        jobs: 48,
        tenants: 3,
        pipeline: 2,
        churn_every: 3,
        high_every: 4,
        seed: 7,
        deadline: Duration::from_secs(60),
        ..NetLoadConfig::default()
    };
    let report = loadgen::run(server.addr, &cfg).expect("loadgen");
    assert_eq!(report.lost_acks, 0, "zero lost acknowledged jobs");
    assert_eq!(report.completed, 48, "{report:?}");
    assert!(report.reconnects > 0, "churn must actually reconnect");
    assert!(report.latency_ms.p50 > 0.0);
    assert!(report.latency_ms.p999 >= report.latency_ms.p99);
    assert!(report.latency_ms.p99 >= report.latency_ms.p50);

    // The server observes client-side closes asynchronously; give the
    // reactor a moment to process the final hangups.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    let snap = loop {
        let snap = server.counters.snapshot();
        if snap.connections_active == 0 || std::time::Instant::now() >= deadline {
            break snap;
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    assert!(snap.connections_opened >= 8 + report.reconnects);
    assert_eq!(snap.connections_active, 0, "everything closed by exit");
    assert!(snap.frames_in > 0 && snap.frames_out > 0);
    // Tenant breakdown covers every tenant the loadgen used.
    assert!(snap.tenants.len() >= 3, "{:?}", snap.tenants);

    let (service, report) = server.stop();
    assert_eq!(report.unresolved, 0);
    service.shutdown();
}
