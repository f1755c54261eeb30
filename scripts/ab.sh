#!/usr/bin/env bash
# Paired A/B runs of two builds: REV from the local git history (the
# base) against the working tree (the change). Run from the repository
# root:
#
#   bash scripts/ab.sh REV [suite...]
#
# A suite is `micro`, the hot-path micro-suite (aldabench -bench-json),
# or a figbench workload: msan, eraser, combined or replay. The default
# is micro. Each suite runs 10 rounds, and in each round the two
# builds run back to back, the one going first alternating:
#
# - micro: each bench runs in a process of its own, twice on each
#   build, as base, change, change, base (or the other way round), so a
#   round of a bench takes about two seconds, and each build keeps its
#   faster run of the round. Load from outside comes in spells of
#   seconds that slow some benches by half or more; a round mostly
#   falls inside one spell, while two whole-suite runs do not, and the
#   faster of two runs sheds most of a spell that catches only one. A
#   base build that cannot run a single bench measures the whole suite
#   in each of those four places instead.
# - figbench: one run per build and round (figbench's default
#   --seconds), both on the round's seed, which rotates from round to
#   round.
#
# Every run is pinned to the last CPU when taskset is there, so both
# builds run on the same core. `aldabench -compare` then prints, per
# metric, each side's median and quartiles, the rounds in which the
# change read lower, and the median paired ratio change ÷ base. It fails
# the micro suite when one bench, or the geomean of all, is slower in at
# least 9 of 10 rounds with a median ratio above 1.15
# (perf.GateThreshold). For a figbench suite it also prints, per side,
# the legs under alda_over_ref: the median over rounds of the geomean
# over cells of reference ÷ plain and of ALDA ÷ plain, each a ratio of
# the cell's median leg times in the per-cell table figbench writes to
# its stderr. They show whether the ALDA leg or the reference leg moved.
#
# REV is exported with `git archive` into the work directory and built
# there, so the script needs no network and leaves the checkout alone.
#
# Environment:
#   BENCHTIME  micro: time budget per bench and run (default 100ms)
#   AB_DIR     work directory, kept afterwards (default: a temporary
#              directory, removed on exit)
set -euo pipefail

if [ $# -lt 1 ]; then
	echo "usage: bash scripts/ab.sh REV [micro|msan|eraser|combined|replay ...]" >&2
	exit 2
fi
rev=$1
shift
suites=("${@:-micro}")
rounds=10
benchtime=${BENCHTIME:-100ms}

root=$(pwd)
if [ -n "${AB_DIR:-}" ]; then
	work=$AB_DIR
	mkdir -p "$work"
else
	work=$(mktemp -d)
	trap 'rm -rf "$work"' EXIT
fi
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-mod=readonly
pin=()
if command -v taskset >/dev/null; then
	pin=(taskset -c "$(($(nproc) - 1))")
fi

git rev-parse --verify --quiet "$rev^{commit}" >/dev/null || {
	echo "ab: $rev is not a commit" >&2
	exit 2
}
figbench=false
for suite in "${suites[@]}"; do
	case $suite in
	micro) ;;
	msan | eraser | combined | replay) figbench=true ;;
	*)
		echo "ab: unknown suite $suite" >&2
		exit 2
		;;
	esac
done
rm -rf "$work/base" "$work/change"
mkdir -p "$work/base/tree" "$work/base/run" "$work/change/run"
git archive "$rev" | tar -x -C "$work/base/tree"
# Without file paths and VCS stamps in them, builds of the same source
# are the same bytes, so code layout cannot differ between the sides by
# where the trees lie.
for side in base change; do
	tree=$root
	[ $side = base ] && tree=$work/base/tree
	(cd "$tree" && go build -trimpath -buildvcs=false -o "$work/$side/aldabench" ./cmd/aldabench)
	if $figbench; then
		(cd "$tree/figbench" && go build -trimpath -buildvcs=false -o "$work/$side/figbench" .)
	fi
done

# bench SIDE OUT [NAME...] runs SIDE's micro-suite, or the benches
# named, and moves the bench file it writes to OUT.
bench() {
	local dir=$work/$1 out=$2
	shift 2
	(cd "$dir/run" && "${pin[@]}" "$dir/aldabench" -bench-json -benchtime "$benchtime" "$@") 2>>"$dir/micro.log"
	mv "$dir"/run/BENCH_*.json "$out"
}

# names SIDE prints the benches of SIDE's suite, from a smoke run.
names() {
	benchtime=0 bench "$1" "$work/$1/names.json"
	sed -n 's/^    "\(.*\)": {$/\1/p' "$work/$1/names.json"
}

# figrun SIDE SUITE ROUND OUT runs one figbench round; its stderr goes
# to SIDE/logs/SUITE.ROUND.log.
figrun() {
	local dir=$work/$1
	local log=$dir/logs/$2.$(printf 'r%02d' "$3").log
	mkdir -p "$dir/logs"
	"${pin[@]}" "$dir/figbench" --workload "$2" --seed $(($3 + 1)) --out-dir "$dir/run" 2>"$log" | tail -n 1 >"$4"
	grep -q '"correct":true' "$4" || {
		echo "ab: the $1 build failed a verdict in $2 round $(($3 + 1)); see $log" >&2
		return 1
	}
}

# median prints the median of the numbers on stdin, one a line.
median() {
	sort -g | awk '{ v[NR] = $1 } END { if (NR % 2) print v[(NR + 1) / 2]; else print (v[NR / 2] + v[NR / 2 + 1]) / 2 }'
}

# legs SIDE SUITE prints SIDE's median over rounds of the geomean over
# cells of reference ÷ plain and ALDA ÷ plain. A table row reads: cell,
# plain_ms, ref_ms, alda_ms, alda/pl, (q1-q3), alda/ref.
legs() {
	local f rows
	rows=$(for f in "$work/$1/logs/$2".r*.log; do
		awk '$1 == "cell" && $2 == "plain_ms" { t = 1; next }
			t && NF == 7 && $2 > 0 { n++; r += log($3 / $2); a += log($4 / $2) }
			END { if (n) printf "%.6f %.6f\n", exp(r / n), exp(a / n) }' "$f"
	done)
	printf '%-6s ref/plain %.4f  alda/plain %.4f  (%d rounds)\n' "$1" \
		"$(cut -d' ' -f1 <<<"$rows" | median)" "$(cut -d' ' -f2 <<<"$rows" | median)" "$(wc -l <<<"$rows")"
}

status=0
for suite in "${suites[@]}"; do
	# A round runs each unit on both builds: a single bench, or the
	# empty unit, a whole suite or a figbench run.
	units=("")
	if [ "$suite" = micro ]; then
		mapfile -t units < <(grep -Fx -f <(names base) <(names change))
		benchtime=0 bench base "$work/base/probe.json" "${units[0]}"
		if [ "$(grep -c '"ns_per_op"' "$work/base/probe.json")" -ne 1 ]; then
			echo "ab: the $rev build cannot run a single bench; pairing whole suites" >&2
			units=("")
		fi
	fi
	for ((r = 0; r < rounds; r++)); do
		dir=$(printf 'r%02d' "$r")
		mkdir -p "$work"/{base,change}/"$suite/$dir"
		for i in "${!units[@]}"; do
			order=(base change)
			(((r + i) % 2 == 0)) || order=(change base)
			if [ "$suite" = micro ]; then
				order+=("${order[1]}" "${order[0]}")
			fi
			for k in "${!order[@]}"; do
				side=${order[$k]}
				out=$work/$side/$suite/$dir/$i.$k.json
				if [ "$suite" = micro ]; then
					bench "$side" "$out" ${units[$i]:+"${units[$i]}"}
				else
					figrun "$side" "$suite" "$r" "$out"
				fi
			done
		done
		echo "ab: $suite round $((r + 1))/$rounds done" >&2
	done
	echo "== $suite: $rev (base) against the working tree (change), $rounds rounds"
	"$work/change/aldabench" -compare "$work/base/$suite,$work/change/$suite" || status=1
	if [ "$suite" != micro ]; then
		echo "legs, geomean over cells, median over rounds:"
		legs base "$suite"
		legs change "$suite"
	fi
done
exit $status
