#!/usr/bin/env bash
# shell-smoke (make check): one script driven through rqlshell twice —
# local mode (embedded server over an in-process pipe) and -connect
# against a spawned rqld. A run fails on any "error:" line or when a
# command's marker line is missing or out of order; the two transcripts,
# with times and counts masked, must then be identical apart from the
# banner.
set -euo pipefail
cd "$(dirname "$0")/../.."

tmp=$(mktemp -d)
rqld_pid=
cleanup() {
	[ -n "$rqld_pid" ] && kill "$rqld_pid" 2>/dev/null && wait "$rqld_pid" || true
	rm -rf "$tmp"
}
trap cleanup EXIT

go build -o "$tmp/rqlshell" ./cmd/rqlshell
go build -o "$tmp/rqld" ./cmd/rqld

# command <TAB> extended regex one of its output lines must match
script=$(cat <<'EOF'
.slow 1ms	^rql> logging statements slower than 1ms$
CREATE TABLE t (k INTEGER PRIMARY KEY, v TEXT);	^rql>
INSERT INTO t VALUES (1, 'one'), (2, 'two');	^rql>
.snapshot first	declared snapshot 1$
UPDATE t SET v = 'uno' WHERE k = 1;	^rql>
.snapshot second	declared snapshot 2$
DELETE FROM t WHERE k = 2;	^rql>
.snapshot third	declared snapshot 3$
SELECT AS OF 1 v FROM t WHERE k = 1;	^one$
SELECT v FROM t;	^uno$
SELECT CollateData(snap_id, 'SELECT k, v, current_snapshot() AS sid FROM t', 'R') FROM SnapIds;	^\(3 rows,
SELECT COUNT(*) FROM R;	^5$
CREATE RETRO VIEW rv AS CollateData('SELECT k FROM t');	^rql>
REFRESH RETRO VIEW rv;	^rql>
.tables	table t .*\[main\]
.snapshots	\| third$
.mech	^rql> MECHANISM CollateData iterations=3 .* result_rows=5 
.stats	^rql> last statement: rows=[0-9]+ wall=.* db_reads=[0-9]+ map_scanned=[0-9]+ spt_build=
.stats	^storage_commits [1-9]
.stats reset	^rql> counters reset$
.stats	^storage_commits 0$
.views	^rv +\| CollateData +\| 3
.top	telemetry
.replicas	role: primary \(snapshot horizon 3,
.trace on	^rql> tracing on$
SELECT AS OF 2 v FROM t WHERE k = 1;	^uno$
.trace last	^server\.exec
.trace off	^rql> tracing off$
.slow	^rql> threshold 1ms, [0-9]+ entries$
.quit	^rql> $
EOF
)

# check <transcript>: no error line, every marker present in order.
check() {
	if grep -n 'error:' "$1"; then
		echo "shell-smoke: $1 has an error line" >&2
		return 1
	fi
	local at=1 cmd marker hit
	while IFS=$'\t' read -r cmd marker; do
		hit=$(tail -n +"$at" "$1" | grep -n -m1 -E -- "$marker" | cut -d: -f1) || true
		if [ -z "$hit" ]; then
			echo "shell-smoke: $1: no line matching /$marker/ for: $cmd" >&2
			return 1
		fi
		# The same line may serve the next command (a bare prompt does).
		at=$((at + hit - 1))
	done <<<"$script"
}

# mask <transcript>: drop the banner, .top's output up to the next
# prompt and the slow-log entries (how many points and entries there are
# is wall-clock), blank times and counts.
mask() {
	tail -n +2 "$1" |
		grep -v -E -e ' rows=[0-9]+ +trace=[0-9]+ ' |
		awk '/telemetry/ { skip = 1; next } /^rql> / { skip = 0 } !skip' |
		sed -E -e 's/[0-9.]+(ns|µs|ms|s)\b/T/g' -e 's/[0-9]+/N/g' -e 's/ +/ /g'
}

cut -f1 <<<"$script" | "$tmp/rqlshell" >"$tmp/local.txt"
check "$tmp/local.txt"

"$tmp/rqld" -addr 127.0.0.1:0 >"$tmp/rqld.log" 2>&1 &
rqld_pid=$!
for _ in $(seq 100); do
	addr=$(sed -n 's/^rqld: serving on //p' "$tmp/rqld.log")
	[ -n "$addr" ] && break
	sleep 0.1
done
[ -n "$addr" ] || { echo "shell-smoke: rqld did not start" >&2; cat "$tmp/rqld.log" >&2; exit 1; }
cut -f1 <<<"$script" | "$tmp/rqlshell" -connect "$addr" >"$tmp/remote.txt"
check "$tmp/remote.txt"

if ! diff <(mask "$tmp/local.txt") <(mask "$tmp/remote.txt"); then
	echo "shell-smoke: local (<) and -connect (>) transcripts differ" >&2
	exit 1
fi
echo "shell-smoke: ok ($(wc -l <"$tmp/local.txt") transcript lines, both modes)"
