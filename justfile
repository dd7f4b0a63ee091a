# Developer shortcuts. `just verify` is the tier-1 gate CI enforces.

# Build + test exactly as CI does.
verify:
    cargo build --release --offline
    cargo test -q --offline
    cargo test -q --release --offline -p nde-tests --test parallel_substrate

# Budget-capped bench smoke (what CI runs to keep figure runs bounded).
bench-smoke:
    cargo build --release --offline -p nde-bench --bin exp_shapley_scaling
    ./target/release/exp_shapley_scaling --smoke --threads=1,4 --max-utility-calls=300

# Batched-vs-unbatched utility smoke: runs the scaling bench with 8-wide
# waves and asserts the machine-readable report carries the comparison.
bench-batch:
    cargo build --release --offline -p nde-bench --bin exp_shapley_scaling
    ./target/release/exp_shapley_scaling --smoke --batch-size=8
    grep -q '"batch_comparison"' BENCH_shapley.json
    grep -q '"ms_per_call"' BENCH_shapley.json

# Pipeline-engine smoke: arena + parallel operators vs the sequential tree
# path, appended to the BENCH_pipeline.json trajectory (prints the
# last-vs-previous delta when history exists).
bench-pipeline:
    cargo build --release --offline -p nde-bench --bin exp_pipeline_scaling
    ./target/release/exp_pipeline_scaling --smoke --threads=1,4 --check=40
    grep -q '"end_to_end_speedup"' BENCH_pipeline.json
    grep -q '"git_commit"' BENCH_pipeline.json

# Storage-backend smoke: typed columnar planes vs the Value-per-cell
# reference backend on the E13 pipeline workload. The bench verifies
# bit-identical output/lineage, gates on columnar winning exec
# ms/output-row, and appends both timings to BENCH_pipeline.json; the
# differential property suite re-proves operation-level equivalence.
bench-columnar:
    cargo build --release --offline -p nde-bench --bin exp_pipeline_scaling
    ./target/release/exp_pipeline_scaling --smoke --threads=1,4 | tee /tmp/nde_backend_e13.txt
    grep -q 'backend gate OK' /tmp/nde_backend_e13.txt
    grep -q '"backend_speedup"' BENCH_pipeline.json
    cargo test -q --release --offline -p nde-tests --test columnar_backend

# Learn-pillar engine smoke: SoA interval kernels vs the AoS reference
# (Zorro fit, certain-KNN, possible worlds), appended to the
# BENCH_uncertain.json trajectory with the regression gate armed.
bench-uncertain:
    cargo build --release --offline -p nde-bench --bin exp_uncertain_scaling
    ./target/release/exp_uncertain_scaling --smoke --threads=1,4 --check=40
    grep -q '"end_to_end_speedup"' BENCH_uncertain.json
    grep -q '"runner"' BENCH_uncertain.json

# Thread-scaling gate (E13 pipeline exec + E14 Zorro fit): at the largest
# smoke size, max-threads must strictly beat one thread on multi-core
# hardware; on a single-core runner the gate degrades to a bounded
# pool-overhead check. Both binaries exit non-zero when the gate fails;
# the greps double-check the gate actually ran.
bench-scaling:
    cargo build --release --offline -p nde-bench --bin exp_pipeline_scaling --bin exp_uncertain_scaling
    ./target/release/exp_pipeline_scaling --smoke --threads=1,4 --check=40 | tee /tmp/nde_scaling_e13.txt
    grep -q 'scaling gate OK' /tmp/nde_scaling_e13.txt
    ./target/release/exp_uncertain_scaling --smoke --threads=1,4 --check=40 | tee /tmp/nde_scaling_e14.txt
    grep -q 'scaling gate OK' /tmp/nde_scaling_e14.txt
    cargo test -q --release --offline -p nde-tests --test pool_lifecycle

# Durability smoke: checkpoint overhead + crash recovery (clean and
# torn-record) with bit-identity asserted, appended to the
# BENCH_durability.json trajectory with the regression gate armed. Also
# runs the kill/resume chaos tests.
bench-durable:
    cargo build --release --offline -p nde-bench --bin exp_durability
    ./target/release/exp_durability --smoke --check=40
    grep -q '"recover_ms"' BENCH_durability.json
    grep -q '"runner"' BENCH_durability.json
    cargo test -q --release --offline -p nde-tests --test durability

# Incremental-maintenance smoke: delta propagation vs full re-execution
# per fix path plus the cleaning loop under both maintenance modes, with
# bit-identity asserted and the incremental-wins criterion enforced,
# appended to the BENCH_incremental.json trajectory with the regression
# gate armed. Also runs the differential property suite.
bench-incremental:
    cargo build --release --offline -p nde-bench --bin exp_incremental
    ./target/release/exp_incremental --smoke --check=40
    grep -q '"incremental_us"' BENCH_incremental.json
    grep -q '"runner"' BENCH_incremental.json
    cargo test -q --release --offline -p nde-tests --test incremental_delta

# Resume demo: the fault-tolerance example cuts a TMC-Shapley run
# mid-permutation, writes its snapshot as a store record, resumes from the
# record read back, and must match the uninterrupted run bit for bit.
example-resume:
    cargo run --release --offline --example fault_tolerance | tee /tmp/nde_example_resume.txt
    grep -q 'resume bit-identical to uninterrupted: true' /tmp/nde_example_resume.txt

# Benchmark build smoke: the benchmark is a workspace of its own, so a
# library API change can break it without the workspace build noticing.
# Runs its unit tests and one short run of each workload, whose last
# stdout line must report correct outputs and no failed operations, then
# a short traced fix-stream run that must report no full re-encode and a
# short traced hiring-session run that must re-encode only the 106 rows
# whose label a review fix really changes (unchanged writes stop at the
# pipeline's source).
perfbench-smoke:
    cargo test --release --offline --manifest-path perfbench/Cargo.toml
    for w in fix-stream hiring-session; do \
        cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- --workload $w --seconds 1 2>/dev/null | tail -n 1 > /tmp/nde_perfbench_$w.txt; \
        grep -q '"correct": true' /tmp/nde_perfbench_$w.txt || exit 1; \
        grep -q '"failed": 0' /tmp/nde_perfbench_$w.txt || exit 1; \
    done
    cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- --workload fix-stream --seconds 1 --trace 1 2>/dev/null | tail -n 1 > /tmp/nde_perfbench_fix_traced.txt
    grep -q '"correct": true' /tmp/nde_perfbench_fix_traced.txt
    grep -q '"failed": 0' /tmp/nde_perfbench_fix_traced.txt
    grep -q '"cleaning.full_reencodes": {"value": 0.0' /tmp/nde_perfbench_fix_traced.txt
    cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- --workload hiring-session --seconds 1 --trace 1 2>/dev/null | tail -n 1 > /tmp/nde_perfbench_hiring_traced.txt
    grep -q '"correct": true' /tmp/nde_perfbench_hiring_traced.txt
    grep -q '"failed": 0' /tmp/nde_perfbench_hiring_traced.txt
    grep -q '"cleaning.rows_reencoded": {"value": 106.0' /tmp/nde_perfbench_hiring_traced.txt

# Format and lint.
lint:
    cargo fmt --all
    cargo clippy --workspace --all-targets --offline -- -D warnings

# Docs must build warning-free (broken intra-doc links fail CI).
doc:
    RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline

# Run every figure/table experiment binary.
experiments:
    cargo build --release -p nde-bench --bins
    ./target/release/run_all_experiments

# Timing benches (in-tree harness, no criterion).
bench:
    cargo bench --workspace --offline
