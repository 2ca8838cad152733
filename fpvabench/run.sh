#!/usr/bin/env bash
# Builds fpvad, fpvaworker and the fpvabench load generator from the
# checkout it is run in, then runs the load generator with the given
# arguments. Run it from the repository root:
#
#   bash fpvabench/run.sh --workload generate-cold --seed 1 --seconds 10 --trace 0
#
# The binaries, the Go build cache and each run's scratch files live in
# .bench_build/ at the root, so a run writes nothing outside the checkout.
set -eu
root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/fpvad" ] || [ ! -f "$root/fpvabench/go.mod" ]; then
	echo "fpvabench: run from the repository root; cmd/fpvad or fpvabench/ is missing here" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off
go build -o "$out/bin/" ./cmd/fpvad ./cmd/fpvaworker
(cd fpvabench && go build -o "$out/bin/fpvabench" .)
commit=$(GIT_CEILING_DIRECTORIES="$(dirname "$root")" git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)
exec "$out/bin/fpvabench" -bin "$out/bin" -root "$root" -commit "$commit" "$@"
