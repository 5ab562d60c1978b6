//! Quickstart: simulate a 5-server ESCAPE cluster, kill the leader, watch
//! the precautioned election resolve in a single campaign.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use escape::cluster::{measure_election, ClusterConfig, Protocol, SimCluster};
use escape::core::time::{Duration, Time};
use escape::core::types::{ServerId, Term};
use escape::obs::{merge_events, Event};

fn main() {
    // The paper's evaluation network: uniform 100–200 ms latency, ESCAPE
    // with baseTime = 1500 ms and k = 500 ms (§VI-B).
    let config = ClusterConfig::paper_network(5, Protocol::escape_paper_default(), 7);
    let mut cluster = SimCluster::new(config);

    // Boot: SCA gives server S_i priority i, so S5 (priority 5, shortest
    // timeout) detects the missing leader first and wins the boot election.
    let first = cluster.bootstrap(Duration::from_millis(1500));
    println!("boot leader: {first} (term {})", cluster.node(first).current_term());

    // Let the probing patrol function run a few heartbeat rounds: every
    // follower now holds a freshly-clocked prioritized configuration.
    cluster.run_for(Duration::from_millis(1000));
    for id in cluster.ids() {
        if let Some(c) = cluster.node(id).current_config() {
            let marker = if id == first { " (leader, timer suspended)" } else { "" };
            println!(
                "  {id}: priority {} timeout {} clock {}{marker}",
                c.priority, c.timer_period, c.conf_clock
            );
        }
    }

    // Kill the leader.
    let crash_at = cluster.now();
    let crashed = cluster.crash_leader();
    println!("\n*** {crashed} crashes at {crash_at} ***\n");

    // The best-configured follower times out first, campaigns in a term
    // nobody else can reach (Eq. 2), and wins without competition.
    let term = cluster.node(crashed).current_term();
    let winner = cluster
        .run_until_new_leader(term, crash_at + Duration::from_secs(30))
        .expect("ESCAPE elects in one campaign");

    // Every node's event ring, merged from the crash on.
    let streams = cluster.event_streams();
    for (at, node, event) in merge_events(crash_at.as_micros(), &streams) {
        let (at, node) = (Time::from_micros(at), ServerId::new(node));
        match event {
            Event::CampaignStarted { term } => {
                println!("{at}  {node} starts a campaign in {}", Term::new(term));
            }
            Event::LeaderElected { term } => {
                println!("{at}  {node} wins the election in {}", Term::new(term));
            }
            _ => {}
        }
    }

    let m = measure_election(&streams, crash_at, Duration::from_millis(200)).expect("measured");
    println!(
        "\nnew leader {winner}: detection {} + election {} = {} total ({} campaign)",
        m.detection(),
        m.election(),
        m.total(),
        m.campaigns
    );
    assert!(cluster.safety().is_safe());
}
