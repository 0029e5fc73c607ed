//! The in-text overhead table: duration of a local TCP connect/disconnect cycle with and
//! without the P2PLab libc interception (paper: 10.22 µs vs 10.79 µs).
//!
//! ```text
//! cargo run --release -p p2plab-bench --bin tbl_intercept_overhead
//! ```

use p2plab_core::{interception_overhead, render_table};
use p2plab_net::InterceptConfig;

fn main() {
    let o = interception_overhead();
    let rows = vec![
        vec![
            "unmodified libc".to_string(),
            format!("{:.2}", o.plain.as_nanos() as f64 / 1000.0),
            "10.22".to_string(),
        ],
        vec![
            "modified libc (BINDIP interception)".to_string(),
            format!("{:.2}", o.intercepted.as_nanos() as f64 / 1000.0),
            "10.79".to_string(),
        ],
    ];
    println!(
        "{}",
        render_table(
            "libc interception overhead: connect/disconnect cycle duration",
            &["configuration", "modelled (us)", "paper (us)"],
            &rows
        )
    );
    println!(
        "relative overhead: {:.1}% (one extra bind() system call per connect())",
        100.0 * o.relative()
    );

    // Show the exact syscall sequences the shim produces.
    for (label, cfg) in [
        ("without interception", InterceptConfig::disabled()),
        ("with interception", InterceptConfig::enabled()),
    ] {
        println!(
            "\nconnect() sequence {label}: {:?} (total {})",
            cfg.connect_syscalls(),
            cfg.connect_cost()
        );
    }
}
