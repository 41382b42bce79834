#!/bin/sh
# Full pre-merge gate: formatting, vet, build, and the whole test suite under
# the race detector (the parallel core.Run races and the pooled LP workspaces
# are the code this exists to police). Run from the repo root:
#
#	./scripts/check.sh
set -eu

cd "$(dirname "$0")/.."

unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt needed on:" >&2
	echo "$unformatted" >&2
	exit 1
fi

go vet ./...
go build ./...
# The whole suite runs ONCE, under the race detector, emitting test2json
# events. -shuffle=on randomizes test (and subtest-parent) execution order so
# accidental inter-test coupling — a package-level cache warmed by an earlier
# test, say — fails loudly instead of riding on source order. The R2T_FAULTS
# spec arms an inert hit counter, proving the env-var chaos grammar parses and
# arms in real test binaries without perturbing any assertion.
events=$(mktemp)
trap 'rm -f "$events" "$events.pass"' EXIT
if ! R2T_FAULTS='ci.smoke=err,errno=EIO,on=-1' go test -race -shuffle=on -json ./... >"$events"; then
	# Replay what the failing tests printed, decoded back to plain text.
	grep -F '"Action":"fail"' "$events" | sed -n 's/.*"Package":"\([^"]*\)","Test":"\([^"]*\)".*/FAIL \1 \2/p' >&2
	grep -F '"Action":"output"' "$events" | grep -v -E '"Output":"(=== |--- PASS|PASS|ok  )' |
		sed -e 's/.*"Output":"\(.*\)"}$/\1/' -e 's/\\n$//' -e 's/\\t/	/g' -e 's/\\"/"/g' \
			-e 's/\\u003c/</g' -e 's/\\u003e/>/g' -e 's/\\u0026/\&/g' -e 's/\\\\/\\/g' >&2
	exit 1
fi

# Named gates: scripts/gates.txt lists, per gate, the tests whose passing IS
# the gate (the chaos suites, the bit-equality sweeps, the never-charge
# properties). They ran in the suite above; here each must be found with a
# pass verdict, so a failure is attributable at a glance and a gate cannot
# rot by rename, skip or deletion.
grep -F '"Action":"pass"' "$events" >"$events.pass"
missing=0
while read -r pkg name; do
	case "$pkg" in '' | '#'*) continue ;; esac
	if ! grep -q -F "\"Package\":\"$pkg\",\"Test\":\"$name\"," "$events.pass"; then
		echo "gate test did not pass (renamed, skipped or deleted?): $pkg $name" >&2
		missing=1
	fi
done <scripts/gates.txt
[ "$missing" -eq 0 ]

# Benchmark-compile smoke: every benchmark builds and runs one iteration, so
# the paper-table and micro benchmarks can't silently rot.
go test -run=NONE -bench=. -benchtime=1x ./...

# Size: ROADMAP's standing rule is that non-test Go outside bench/ does not
# grow without a CHANGES.md line saying why; this is the number it means.
lines=$(find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.git/*' -exec cat {} + | wc -l)
echo "check.sh: non-test Go lines outside bench/: $lines"

echo "check.sh: all green"
