//! Clean-path determinism probe: webserve/quick under full protection must
//! reproduce the seed's exact cycle counts with telemetry compiled in.

use bastion::apps::App;
use bastion::compiler::BastionCompiler;
use bastion::harness::{run_app_benchmark, WorkloadSize};
use bastion::vm::CostModel;
use bastion::Protection;

fn main() {
    let traced = std::env::args().any(|a| a == "--traced");
    let _telemetry = traced.then(|| bastion::obs::TelemetryGuard::enable(1 << 16));
    let b = run_app_benchmark(
        App::Webserve,
        &Protection::full(),
        &WorkloadSize::quick(),
        &BastionCompiler::new(),
        CostModel::default(),
    );
    println!(
        "cycles={} traps={} trace_cycles={} steps={} metric={} events={}",
        b.cycles,
        b.traps,
        b.trace_cycles,
        b.steps,
        b.metric,
        bastion::obs::event_count()
    );
}
