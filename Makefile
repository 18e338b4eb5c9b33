# Developer entry points. CI runs the same commands (see
# .github/workflows/ci.yml); the Makefile just names them.

GO ?= go

.PHONY: all build test lint vet fmt bench bench-check golden loc

all: build test lint

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# lint runs the project-specific analyzers (internal/analysis via
# cmd/khoplint) through go vet's unit-checker protocol, exactly as the
# CI khoplint job does. See docs/static-analysis.md for the rules and
# the //lint:ignore suppression syntax.
lint:
	$(GO) build -o $(CURDIR)/bin/khoplint ./cmd/khoplint
	$(GO) vet -vettool=$(CURDIR)/bin/khoplint ./...

vet:
	$(GO) vet ./...

fmt:
	gofmt -l -w .

bench:
	$(GO) test -bench . -benchtime=3x -count=3 -run '^$$' ./...

# bench-check vets and race-tests the nested khopbench module, the
# committed benchmark (see BENCHMARK.json). The root ./... does not reach
# it, yet it compiles against the internal stage signatures, like the CI
# step of the same name.
bench-check:
	cd khopbench && $(GO) vet ./... && $(GO) test -race ./...

# golden regenerates nothing: it verifies the committed golden figures
# and snapshot byte-for-byte, like the CI golden job.
golden:
	$(GO) build -o $(CURDIR)/bin/khopsim ./cmd/khopsim
	$(CURDIR)/bin/khopsim -fig 5 -json -seed 1 -runs 5 -parallel 8 | cmp testdata/golden/fig5.json -
	$(CURDIR)/bin/khopsim -fig churn -json -seed 1 -parallel 8 | cmp testdata/golden/churn.json -
	$(CURDIR)/bin/khopsim -fig broadcast -json -seed 1 -parallel 8 | cmp testdata/golden/broadcast.json -
	$(CURDIR)/bin/khopsim -fig routing -json -seed 1 -parallel 8 | cmp testdata/golden/routing.json -
	$(CURDIR)/bin/khopsim -fig maintenance -json -seed 1 -parallel 8 | cmp testdata/golden/maintenance.json -
	for fig in 6 7; do $(CURDIR)/bin/khopsim -fig $$fig -json -seed 1 -runs 5 -parallel 8 | cmp testdata/golden/fig$$fig.json - || exit 1; done
	for fig in ablation comparison energy stability; do $(CURDIR)/bin/khopsim -fig $$fig -json -seed 1 -runs 5 -parallel 8 | cmp testdata/golden/$$fig.json - || exit 1; done
	$(GO) test -run TestGoldenSnapshot -count=1 ./internal/codec

# loc prints the Go line counts ROADMAP.md tracks for simplicity work:
# non-test and test lines of the tracked .go files (git add new files
# first), khopbench/ and every testdata/ directory excluded.
loc:
	@files=$$(git ls-files '*.go' | grep -v -e '^khopbench/' -e '^testdata/' -e '/testdata/'); \
	echo "non-test $$(echo "$$files" | grep -v '_test\.go$$' | xargs cat | wc -l)"; \
	echo "test     $$(echo "$$files" | grep '_test\.go$$' | xargs cat | wc -l)"
