//! The control flood never sends a frame back over the link it arrived on.
//!
//! A broker that echoed a neighbour's `Subscribe` back to it could have the
//! echo land at the subscriber's home broker after the client's
//! `Unsubscribe`, re-installing the departed subscriber. Here a test
//! harness plays broker 1 of a two-broker chain by hand: it sends control
//! frames to broker 0 over a peer link and listens at broker 1's address
//! for whatever broker 0 floods back.

use std::time::{Duration, Instant};

use tps_net::codec::{read_frame, write_frame};
use tps_net::server::addr_map;
use tps_net::transport::{Listener, Stream};
use tps_net::{
    spawn_broker, BrokerClient, BrokerCore, FrameLimits, Message, OverlayConfig, Transport,
};
use tps_routing::BrokerTopology;

const TIMEOUT: Duration = Duration::from_secs(20);

/// Poll broker 0's view until `present(view)` holds.
fn await_view(client: &mut BrokerClient, present: impl Fn(&[u64]) -> bool) {
    let deadline = Instant::now() + TIMEOUT;
    loop {
        let view: Vec<u64> = client
            .sync_state()
            .expect("sync state")
            .iter()
            .map(|c| c.subscriber)
            .collect();
        if present(&view) {
            return;
        }
        assert!(Instant::now() < deadline, "view never converged: {view:?}");
        std::thread::yield_now();
    }
}

fn next_frame(link: &mut Stream) -> Message {
    read_frame(link, &FrameLimits::default())
        .expect("frame")
        .expect("open link")
}

fn control_frames_are_not_echoed(transport: Transport) {
    let config = OverlayConfig {
        topology: BrokerTopology::chain(2),
        ..OverlayConfig::default()
    };
    let addrs = addr_map(2);
    let listener = Listener::bind(transport).expect("bind broker 0");
    let addr = listener.addr().expect("addr");
    let neighbour = Listener::bind(transport).expect("bind broker 1");
    {
        let mut map = addrs.write().expect("address map");
        map[0] = Some(addr.clone());
        map[1] = Some(neighbour.addr().expect("addr"));
    }
    let broker = spawn_broker(
        BrokerCore::new(0, &config),
        listener,
        addrs,
        FrameLimits::default(),
        64,
    )
    .expect("spawn broker 0");

    // Broker 1 floods a subscription it accepted to broker 0.
    let mut peer = Stream::connect(&addr).expect("peer link");
    write_frame(&mut peer, &Message::Hello { broker: 1 }).expect("hello");
    let flooded = Message::Subscribe {
        subscriber: 1,
        broker: 1,
        pattern: "//CD".to_string(),
    };
    write_frame(&mut peer, &flooded).expect("flood subscribe");
    let mut client = BrokerClient::connect(&addr, FrameLimits::default()).expect("client");
    await_view(&mut client, |view| view.contains(&1));

    // A local client subscription must be flooded to broker 1. Broker 0
    // applied subscriber 1 first, so an echo of it would come first.
    client.subscribe(2, 0, "//book").expect("subscribe");
    let mut back = neighbour.accept().expect("broker 0 links to broker 1");
    back.set_read_timeout(Some(TIMEOUT)).expect("timeout");
    assert_eq!(next_frame(&mut back), Message::Hello { broker: 0 });
    match next_frame(&mut back) {
        Message::Subscribe { subscriber, .. } => assert_eq!(subscriber, 2, "echoed subscribe"),
        other => panic!("expected a subscribe, got {other:?}"),
    }

    // The same holds for departures.
    write_frame(&mut peer, &Message::Unsubscribe { subscriber: 1 }).expect("flood unsubscribe");
    await_view(&mut client, |view| !view.contains(&1));
    client.unsubscribe(2).expect("unsubscribe");
    assert_eq!(
        next_frame(&mut back),
        Message::Unsubscribe { subscriber: 2 },
        "echoed unsubscribe"
    );

    broker.shutdown().expect("shutdown");
}

#[test]
fn tcp_control_frames_are_not_echoed() {
    control_frames_are_not_echoed(Transport::Tcp);
}

#[test]
fn unix_control_frames_are_not_echoed() {
    control_frames_are_not_echoed(Transport::Unix);
}
