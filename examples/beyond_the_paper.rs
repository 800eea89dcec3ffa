//! The paper's §7 roadmap, implemented: masquerading (ride a favored
//! class's policy) and bilateral payload modification (defeat even the
//! middleboxes that unilateral techniques cannot).
//!
//! Run with: `cargo run --release --example beyond_the_paper`

use liberate::prelude::*;
use liberate::report::fmt_bps;
use liberate_traces::apps;
use liberate_traces::generator::{generate, WorkloadSpec};

fn main() {
    // ---------------------------------------------------------------
    // 1. Masquerading: get an arbitrary workload zero-rated (§7:
    //    "users may want to masquerade as a type of differentiated
    //    traffic, e.g., if it is zero rated").
    // ---------------------------------------------------------------
    println!("1. masquerading as zero-rated video on the T-Mobile model\n");
    let mut s = Session::new(EnvKind::TMobile, OsKind::Linux, LiberateConfig::default());
    let workload = generate(&WorkloadSpec {
        server_bytes: 800_000,
        ..Default::default()
    });

    let bait = liberate_traces::http::get_request("x.cloudfront.net", "/liberate-decoy", "m/1");
    let masquerade = Masquerade::ttl_limited(bait, 3);
    let report =
        run_masqueraded(&mut s, &workload, &masquerade, &Signal::ZeroRating).expect("applies");
    println!(
        "   random 800 kB workload: complete = {}, intact = {}, rides zero-rated = {}",
        report.outcome.complete, report.outcome.integrity_ok, report.disguised
    );
    assert!(report.disguised && report.outcome.integrity_ok);
    println!("   -> the classifier billed almost nothing for a flow that is not video\n");

    // ---------------------------------------------------------------
    // 2. Bilateral evasion: beat the AT&T proxy, where every one of the
    //    26 unilateral techniques fails (Table 3's AT&T column).
    // ---------------------------------------------------------------
    println!("2. bilateral field-encoding vs the AT&T transparent proxy\n");
    let mut s = Session::new(EnvKind::Att, OsKind::Linux, LiberateConfig::default());
    let video = apps::nbcsports_http(800_000);

    let control = s.replay_trace(&inverted_trace(&video), &ReplayOpts::default());
    let signal = Signal::Throttling {
        control_bps: control.avg_bps,
        ratio: 0.6,
    };

    let throttled = s.replay_trace(&video, &ReplayOpts::default());
    println!("   unilateral (plain flow): {}", fmt_bps(throttled.avg_bps));

    // Characterize (finds fields in BOTH directions), agree on a key,
    // re-encode.
    let c = characterize(&mut s, &video, &signal, &CharacterizeOpts::default());
    let codec = BilateralCodec::new(0xa7, c.fields.clone());
    let bilateral = run_bilateral(&mut s, &video, &codec, &signal, &ReplayOpts::default());
    println!(
        "   bilateral (fields XOR 0xA7): {} (classified = {})",
        fmt_bps(bilateral.outcome.avg_bps),
        bilateral.classified
    );
    assert!(!bilateral.classified && bilateral.outcome.complete);
    assert!(bilateral.outcome.avg_bps > 2.0 * throttled.avg_bps);
    println!(
        "   -> the proxy reassembled and forwarded a stream whose matching\n\
        fields simply are not there; only endpoint cooperation makes\n\
        this possible (§7)\n"
    );

    // ---------------------------------------------------------------
    // 3. The shared rule cache (§4.2): a community of users pays the
    //    characterization cost once.
    // ---------------------------------------------------------------
    println!("3. community rule-sharing against Iran's censor\n");
    let flow = apps::facebook_http();
    let cache = SharedRuleCache::from_cache(RuleCache::new());
    let user = |cache: &SharedRuleCache| {
        DeploymentPool::new(
            EnvKind::Iran,
            OsKind::Linux,
            LiberateConfig::default(),
            1,
            CharacterizeOpts::default(),
        )
        .with_shared_cache(cache.clone(), "iran")
    };
    let mut user_a = user(&cache);
    user_a.run_flows(&flow, 1).expect("user A evades");
    let rounds_a = user_a.pool_mut().sessions()[0].replays;

    let mut user_b = user(&cache);
    user_b.run_flows(&flow, 1).expect("user B evades");
    let rounds_b = user_b.pool_mut().sessions()[0].replays;
    println!(
        "   user A (characterizes): {rounds_a} replay rounds\n   \
         user B (shared cache):  {rounds_b} replay rounds ({}x cheaper)",
        rounds_a / rounds_b.max(1)
    );
    assert!(user_b.cache_hits == 1 && rounds_b * 2 < rounds_a);
}
