.PHONY: all build test check robust lint bench bench-smoke perf-check soak-smoke clean

all: build

build:
	dune build

test:
	dune runtest

# Just the robustness suite: typed errors, budgets, fault injection.
robust:
	dune build @robust

lint:
	sh scripts/lint_failwith.sh
	sh scripts/lint_print.sh
	sh scripts/lint_domainsafe.sh
	sh scripts/lint_hotpath.sh
	sh scripts/lint_noexit.sh

# Machine-readable perf baselines: BENCH_chase.json, BENCH_ground.json,
# BENCH_topk.json, BENCH_clean.json (batch cleaning at 1/2/4 worker
# domains) and BENCH_serve.json (service SLO under mixed traffic) at
# the repo root (kernel wall times, allocated bytes and Obs work
# counters).
bench:
	dune exec bench/main.exe -- --bench-json .

# The bench suite into a throwaway directory: proves every kernel
# still runs end to end (CI) without touching the committed baselines.
# The update suite shrinks to a smoke-sized corpus; the committed
# baseline (make bench) uses the 10k-entity defaults.
bench-smoke:
	mkdir -p _build/bench-smoke && \
	RELACC_UPDATE_ENTITIES=200 RELACC_UPDATE_COUNT=50 RELACC_GROUND_IM=500 \
	dune exec bench/main.exe -- --bench-json _build/bench-smoke

# Short runs of the perfbench workloads: each exits non-zero when any
# output check fails (report digests, session == batch, the serve
# protocol), so a change that breaks what the benchmark measures
# fails here before it reaches a timed run.
perf-check:
	python3 perfbench/run.py --workload batch-clean --seed 1 --seconds 5
	python3 perfbench/run.py --workload session-feed --seed 1 --seconds 5
	python3 perfbench/run.py --workload serve --seed 1 --seconds 5

# Chaos soak of the long-lived service: ~10 s of mixed traffic at
# ~10% injected faults, then SIGKILL + warm restart with a probe
# byte-identity check. SOAK_DURATION_S overrides the soak length.
soak-smoke:
	sh scripts/soak_smoke.sh

# The gate CI runs: full build, full test suite, style lints.
check:
	dune build && dune runtest && sh scripts/lint_failwith.sh && sh scripts/lint_print.sh && sh scripts/lint_domainsafe.sh && sh scripts/lint_hotpath.sh && sh scripts/lint_noexit.sh

clean:
	dune clean
