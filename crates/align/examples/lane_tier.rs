//! Prints the name of the lane tier the DP fallback runs on this CPU
//! (`LaneTier::host`): `avx512bw+vl` or `portable`.
//!
//! ```sh
//! cargo run --release -q -p gx-align --example lane_tier
//! ```

fn main() {
    println!("{}", gx_align::LaneTier::host().name());
}
