//! The acceptor blocks in `accept` instead of polling: a new connection is
//! served as soon as the kernel has it, and `shutdown` returns as soon as
//! its own wake-up connection lands — neither waits out a poll interval.

use foresight_data::{TableBuilder, TableSource};
use foresight_engine::CoreBuilder;
use foresight_serve::{Client, ServeConfig, ServeCore, Server};
use std::time::{Duration, Instant};

#[test]
fn start_hello_shutdown_cycles_do_not_wait_on_a_poll() {
    let table = TableBuilder::new("cycled")
        .numeric("x", (0..32).map(|r| r as f64).collect())
        .numeric("y", (0..32).map(|r| (r * r % 11) as f64).collect())
        .build()
        .unwrap();
    let core = CoreBuilder::new(TableSource::materialized(table)).freeze();
    const CYCLES: usize = 50;
    let mut first_hello = Vec::with_capacity(CYCLES);
    let started = Instant::now();
    for _ in 0..CYCLES {
        let server = Server::start(
            ServeCore::Static(core.clone()),
            "127.0.0.1:0",
            ServeConfig::default(),
        )
        .unwrap();
        let t0 = Instant::now();
        let mut client = Client::connect(server.addr()).unwrap();
        client.hello().unwrap();
        first_hello.push(t0.elapsed());
        drop(client); // EOF ends the connection thread before shutdown joins it
        server.shutdown();
    }
    let total = started.elapsed();
    // a 50 ms accept poll put 25 ms on the median first reply and on the
    // median shutdown; without it a cycle is thread spawns and one round trip
    first_hello.sort();
    let median = first_hello[CYCLES / 2];
    assert!(
        median < Duration::from_millis(10),
        "median first hello on a fresh connection took {median:?} (slowest {:?})",
        first_hello[CYCLES - 1]
    );
    assert!(
        total < Duration::from_secs(2),
        "{CYCLES} start → hello → shutdown cycles took {total:?}"
    );
}
