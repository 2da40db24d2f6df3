# Tier-1 verification gate (see ROADMAP.md). `make check` must pass
# before every commit.

GOFILES := $(shell find . -name '*.go' -not -path './.git/*')

.PHONY: check fmt vet build test race

check: fmt vet build race

fmt:
	@out="$$(gofmt -l $(GOFILES))"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	go vet ./...

build:
	go build ./...

test:
	go test ./...

race:
	go test -race ./...
