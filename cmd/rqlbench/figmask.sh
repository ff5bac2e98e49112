#!/usr/bin/env bash
# figmask.sh filters the output of `rqlbench -all -quick -seed 1`
# (stdin) down to what the figures count (stdout), so two runs of the
# same tree print the same bytes. It masks every wall-clock value:
# every duration token (the io column too — it is pagelog_reads times
# the modeled latency, and pagelog_reads stays), fig 6's ratio columns,
# fig 7's UW30_C / UW15_C (C_io stays), and the closing [... total]
# line. Whitespace is collapsed and separator dashes shortened, because
# column widths follow the masked values. `make fig-check` diffs the
# result against testdata/figcheck.golden; after a change that moves a
# counter on purpose, regenerate it with
#
#   go run ./cmd/rqlbench -all -quick -seed 1 | bash cmd/rqlbench/figmask.sh > cmd/rqlbench/testdata/figcheck.golden
#
# and say why in CHANGES.md.
exec awk '
/^== / { fig = $0 }
/^\[.* total\]$/ { print "[total]"; next }
{
	for (i = 1; i <= NF; i++) {
		if ($i ~ /^-+$/) $i = "-"
		else if ($i ~ /^[0-9][0-9.hm]*(ns|µs|us|ms|s)$/) $i = "<t>"
		else if (i > 1 && $i != "-" && (fig ~ /^== Figure 6:/ && $1 ~ /^[0-9]+$/ || fig ~ /^== Figure 7:/ && $1 ~ /^Slast/ && i <= 3)) $i = "<C>"
	}
	$1 = $1
	print
}'
