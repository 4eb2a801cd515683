.PHONY: all build test check lint model-check bench stats spans clean ablation-tlb ablation-policy

all: build

build:
	dune build @all

test:
	dune runtest

# The one gate CI runs: everything compiles (including examples and
# bench) and the full test suite passes.
check:
	dune build @all && dune runtest

# Static fbuf-discipline analyzer: rules L1-L7 over the sources plus the
# Layer-C interprocedural typestate analysis (C1-C4). The shipped tree
# is clean, so the committed baseline is empty; a non-empty baseline
# only papers over known findings while a fix is in flight.
lint:
	dune exec bin/fbufs_cli.exe -- lint --format text --baseline lint_baseline.json

# Differential check against the reference model: seeds 1-3, normal and
# adversary mode. Failures shrink to a minimal replayable sequence,
# also written to counterexample.txt (CI uploads it as an artifact).
model-check:
	dune exec bin/fbufs_cli.exe -- check --quick --out counterexample.txt

# The repository's benchmark (bench/e2e/README.md): every workload of
# BENCHMARK.json at the dev seed, one child process each (about 70 s),
# every end-to-end metric by name with its unit; exits non-zero on any
# wrong output.
bench:
	dune build bench/e2e/fbufs_bench.exe bin/fbufs_cli.exe
	./_build/default/bench/e2e/fbufs_bench.exe run

# Per-component cost attribution of a Table 1 run (simulated
# microseconds charged to alloc/map/unmap/tlb_flush/zero/secure/copy/...),
# plus the full exposition written to metrics.json. Add --watch US for
# periodic snapshot frames on the simulated timeline (throughput counters
# with per-interval deltas, drops, cost shares, transfer-wall quantiles).
stats:
	dune exec bin/fbufs_cli.exe -- stats table1 --metrics metrics.json

# Causal span recording over one fig5-style windowed run: per-transfer
# critical paths print to stdout (component costs sum exactly to the
# ledger charge), the span trees land in spans.jsonl, and a Chrome
# trace_event rendering with follows-from flow arrows in spans-chrome.json.
spans:
	dune exec bin/fbufs_cli.exe -- spans --out spans.jsonl --chrome spans-chrome.json

# TLB shootdown deferral/elision ablation: the on/off comparison table,
# plus a folded-stack rendering of a Table 1 run in both modes and their
# diff (feed either .folded file to flamegraph.pl or speedscope; the diff
# shows exactly which stacks the elision removed cost from). CI uploads
# all three files as an artifact.
ablation-tlb:
	dune exec bin/fbufs_cli.exe -- ablation --only tlb-elision
	dune exec bin/fbufs_cli.exe -- stats table1 --folded table1-elide.folded
	dune exec bin/fbufs_cli.exe -- stats table1 --no-tlb-elision --folded table1-noelide.folded
	diff -u table1-noelide.folded table1-elide.folded > ablation-tlb-folded.diff; test $$? -le 1
	@echo "wrote table1-elide.folded table1-noelide.folded ablation-tlb-folded.diff"

# Buffer-sharing ablation: every congestion scenario (incast, bursty,
# mixed RPC) under the static and fb-dynamic policies at equal pool
# size, with the per-class drop decomposition. Deterministic simulated
# time — the same table is golden-pinned by the test suite; CI uploads
# it as an artifact.
ablation-policy:
	dune exec bin/fbufs_cli.exe -- ablation --only buffer-sharing

clean:
	dune clean
