//! Property tests for the deterministic parallel executor (DESIGN.md
//! §8): the shard merge is a pure function of the `(unit index, result)`
//! pairs — shard arrival order is irrelevant — and a sharded campaign's
//! report *and* telemetry are byte-identical at any thread count.

use proptest::prelude::*;

use rangeamp::chaos::{run_sbr_campaign, ChaosConfig};
use rangeamp::executor::{merge_shard_results, splitmix64, unit_seed, Executor};
use rangeamp::Telemetry;

/// Deterministic Fisher–Yates driven by splitmix64 (the tests can't use
/// ambient randomness any more than the executor can).
fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut state = seed;
    for i in (1..items.len()).rev() {
        state = splitmix64(state.wrapping_add(rangeamp::executor::SEED_GAMMA));
        items.swap(i, (state % (i as u64 + 1)) as usize);
    }
}

/// Deals `values` into `shards` lists the way the executor does: unit
/// `i` goes to shard `i % shards`, keeping ascending index order within
/// each shard.
fn round_robin(values: &[u64], shards: usize) -> Vec<Vec<(usize, u64)>> {
    let mut out = vec![Vec::new(); shards];
    for (index, value) in values.iter().enumerate() {
        out[index % shards].push((index, *value));
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Shuffling the order shard outputs arrive in (the real-world
    /// nondeterminism the merge exists to erase) never changes the
    /// merged result.
    #[test]
    fn merge_is_independent_of_shard_arrival_order(
        values in proptest::collection::vec(any::<u64>(), 0..64),
        shards in 1usize..9,
        shuffle_seed in any::<u64>(),
    ) {
        let reference = merge_shard_results(round_robin(&values, shards));
        prop_assert_eq!(&reference, &values, "merge restores input order");

        let mut shuffled = round_robin(&values, shards);
        shuffle(&mut shuffled, shuffle_seed);
        prop_assert_eq!(merge_shard_results(shuffled), reference);
    }

    /// The merge also tolerates units arriving out of order *within* a
    /// shard (a shard is free to process its units in any order as long
    /// as it tags each result with the unit index).
    #[test]
    fn merge_is_independent_of_intra_shard_order(
        values in proptest::collection::vec(any::<u64>(), 0..64),
        shards in 1usize..9,
        shuffle_seed in any::<u64>(),
    ) {
        let mut scrambled = round_robin(&values, shards);
        for (lane, shard) in scrambled.iter_mut().enumerate() {
            shuffle(shard, shuffle_seed ^ lane as u64);
        }
        prop_assert_eq!(merge_shard_results(scrambled), values);
    }

    /// Per-unit seeds depend only on the campaign seed and the unit
    /// index — never on how units land on shards — so re-sharding can't
    /// change any unit's randomness.
    #[test]
    fn unit_seeds_ignore_shard_layout(
        seed in any::<u64>(),
        a in 0usize..4096,
        b in 0usize..4096,
    ) {
        prop_assume!(a != b);
        prop_assert_eq!(unit_seed(seed, a), unit_seed(seed, a));
        prop_assert!(unit_seed(seed, a) != unit_seed(seed, b),
            "distinct units draw distinct seed streams");
    }

    /// `Executor::map` at any thread count equals the sequential map.
    #[test]
    fn map_matches_sequential_at_any_thread_count(
        values in proptest::collection::vec(any::<u64>(), 0..48),
        threads in 2usize..9,
        seed in any::<u64>(),
    ) {
        let work = |ctx: &rangeamp::executor::UnitCtx, value: u64| {
            (ctx.index, value.wrapping_mul(ctx.seed | 1))
        };
        let sequential = Executor::sequential().map(seed, values.clone(), work);
        let parallel = Executor::new(threads).map(seed, values, work);
        prop_assert_eq!(parallel, sequential);
    }
}

proptest! {
    // Full campaigns are heavier; fewer cases keep the suite fast.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// End to end: an SBR chaos campaign's reports, metrics snapshot and
    /// Chrome trace are all byte-identical whether it runs on one shard
    /// or many — for arbitrary campaign seeds, not just the goldens.
    #[test]
    fn campaign_report_and_telemetry_are_thread_count_invariant(
        seed in any::<u64>(),
        threads in 2usize..9,
    ) {
        let config = ChaosConfig {
            seed,
            rounds: 2,
            ..ChaosConfig::default()
        };

        let digest = |executor: &Executor| {
            let telemetry = Telemetry::seeded(config.seed);
            let reports = run_sbr_campaign(&config, Some(&telemetry), executor);
            (
                format!("{reports:?}"),
                telemetry.metrics().snapshot().render(),
                telemetry.tracer().chrome_trace_json(),
            )
        };

        let (reports_1, metrics_1, trace_1) = digest(&Executor::sequential());
        let (reports_n, metrics_n, trace_n) = digest(&Executor::new(threads));
        prop_assert_eq!(reports_1, reports_n);
        prop_assert_eq!(metrics_1, metrics_n);
        prop_assert_eq!(trace_1, trace_n);
    }
}
