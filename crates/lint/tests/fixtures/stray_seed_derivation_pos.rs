// Positive fixture: sampling code that seeds RNGs inline instead of through
// the blessed sample_seed/stratum_seed derivation chain — a stratified
// combiner deriving a pilot stream by hand, and an estimator reseeding per
// draw.
fn child_seed(root: u64, stratum: u64, count: u64) -> u64 {
    stratum_seed(root, stratum, count)
}

fn pilot_rng(root: u64, stratum: u64) -> StdRng {
    StdRng::seed_from_u64(root ^ stratum.wrapping_mul(7))
}

impl SampleEstimator for Fixture {
    fn draw(&self, seed: u64) -> f64 {
        StdRng::seed_from_u64(seed).gen()
    }
}
