//! Prints the name of the tier the DRAM scheduler's kernels run on this CPU
//! (`ScanTier::host`): `avx512f+vl` or `portable`.
//!
//! ```sh
//! cargo run --release -q -p gx-memsim --example scan_tier
//! ```

fn main() {
    println!("{}", gx_memsim::ScanTier::host().name());
}
