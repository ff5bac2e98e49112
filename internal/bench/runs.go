package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
	"time"
)

// BENCH_rql.json is an append-only log of batch-experiment runs, so a
// working tree accumulates comparable baselines across revisions
// instead of overwriting the previous numbers. Each entry records the
// git revision and the mechanism toggles its sides ran under. Files
// written by older versions hold a single flat BatchReport; appending
// to one wraps it as the first run.

// BenchRun is one appended batch-experiment execution.
type BenchRun struct {
	GeneratedAt string          `json:"generated_at"`
	Revision    string          `json:"revision,omitempty"`
	Flags       map[string]bool `json:"flags,omitempty"`
	Report      *BatchReport    `json:"report"`
}

// BenchFile is the on-disk shape of BENCH_rql.json.
type BenchFile struct {
	Runs []BenchRun `json:"runs"`
}

// LoadBenchFile reads path, accepting both the runs format and the
// legacy single-report format (wrapped as one run). A missing file
// yields an empty BenchFile.
func LoadBenchFile(path string) (*BenchFile, error) {
	raw, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return &BenchFile{}, nil
	}
	if err != nil {
		return nil, err
	}
	var bf BenchFile
	if err := json.Unmarshal(raw, &bf); err == nil && bf.Runs != nil {
		return &bf, nil
	}
	var rep BatchReport
	if err := json.Unmarshal(raw, &rep); err != nil || rep.Results == nil {
		return nil, fmt.Errorf("bench: %s is neither a runs file nor a batch report", path)
	}
	return &BenchFile{Runs: []BenchRun{{
		GeneratedAt: rep.GeneratedAt,
		Report:      &rep,
	}}}, nil
}

// AppendRun appends rep to the runs file at path, stamping the current
// git revision and the given toggle flags.
func AppendRun(path string, rep *BatchReport, flags map[string]bool) error {
	bf, err := LoadBenchFile(path)
	if err != nil {
		return err
	}
	bf.Runs = append(bf.Runs, BenchRun{
		GeneratedAt: rep.GeneratedAt,
		Revision:    gitRevision(),
		Flags:       flags,
		Report:      rep,
	})
	b, err := json.MarshalIndent(bf, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// gitRevision returns the working tree's short HEAD revision, or ""
// when git is unavailable (the field is then omitted).
func gitRevision() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

// regressionLimit is the relative wall-time increase on any matched
// side beyond which Compare reports an error (so `make bench-compare`
// exits non-zero).
const regressionLimit = 0.10

// Compare prints a per-mechanism diff of the two newest runs in the
// file at path: wall-time and Pagelog-read deltas for every side, plus
// the pruning outcome. It returns an error when any matched side's
// wall time regressed by more than regressionLimit.
func Compare(path string, out io.Writer) error {
	bf, err := LoadBenchFile(path)
	if err != nil {
		return err
	}
	if len(bf.Runs) < 2 {
		return fmt.Errorf("bench: %s has %d run(s); need two to compare (run `make bench` again)", path, len(bf.Runs))
	}
	old, cur := bf.Runs[len(bf.Runs)-2], bf.Runs[len(bf.Runs)-1]
	fmt.Fprintf(out, "comparing %s -> %s\n", runLabel(old), runLabel(cur))

	prev := map[string]BatchResult{}
	for _, res := range old.Report.Results {
		prev[res.Mechanism+"/"+res.Mode] = res
	}
	tab := &Table{
		Title: "Batch experiment: newest run vs previous",
		Note:  "delta % = (new - old) / old wall time; negative is faster",
		Headers: []string{"mechanism", "mode", "legacy Δ", "batch Δ", "pruned Δ",
			"pruned wall", "skipped", "pagelog Δ"},
	}
	matched := 0
	var regressions []string
	check := func(mech, side string, old, cur BatchSide) {
		if d, ok := relDelta(old.WallNS, cur.WallNS); ok && d > regressionLimit {
			regressions = append(regressions,
				fmt.Sprintf("%s %s %+.1f%%", mech, side, 100*d))
		}
	}
	for _, res := range cur.Report.Results {
		p, ok := prev[res.Mechanism+"/"+res.Mode]
		if !ok {
			continue
		}
		matched++
		check(res.Mechanism+"/"+res.Mode, "legacy", p.Legacy, res.Legacy)
		check(res.Mechanism+"/"+res.Mode, "batch", p.Batch, res.Batch)
		check(res.Mechanism+"/"+res.Mode, "pruned", p.Pruned, res.Pruned)
		tab.Add(res.Mechanism, res.Mode,
			wallDelta(p.Legacy, res.Legacy),
			wallDelta(p.Batch, res.Batch),
			wallDelta(p.Pruned, res.Pruned),
			time.Duration(res.Pruned.WallNS),
			fmt.Sprintf("%d/%d", res.Pruned.PrunedIterations, res.Snapshots),
			fmt.Sprintf("%+d", res.Pruned.PagelogReads-p.Pruned.PagelogReads))
	}
	tab.Fprint(out)
	if matched < len(cur.Report.Results) {
		fmt.Fprintf(out, "%d result(s) in the newest run had no counterpart in the previous run\n",
			len(cur.Report.Results)-matched)
	}
	compareFanout(old.Report, cur.Report, out, check)
	compareGroupCommit(old.Report, cur.Report, out, check)
	compareColdSweep(old.Report, cur.Report, out, check)
	compareViewRefresh(old.Report, cur.Report, out, check)
	if len(regressions) > 0 {
		return fmt.Errorf("bench: wall time regressed >%.0f%% on %d side(s): %s",
			100*regressionLimit, len(regressions), strings.Join(regressions, ", "))
	}
	return nil
}

// compareFanout diffs the replica fan-out phase of two reports through
// the same regression check as the batch sides. Runs predating the
// phase (or with mismatched topology) have nothing to match.
func compareFanout(old, cur *BatchReport, out io.Writer, check func(mech, side string, old, cur BatchSide)) {
	o, c := old.Fanout, cur.Fanout
	if o == nil || c == nil {
		return
	}
	if o.Sessions != c.Sessions || o.Replicas != c.Replicas {
		fmt.Fprintf(out, "fan-out topology changed (%dx%d -> %dx%d); not compared\n",
			o.Sessions, o.Replicas, c.Sessions, c.Replicas)
		return
	}
	check("fan-out", "single", BatchSide{WallNS: o.Single.WallNS}, BatchSide{WallNS: c.Single.WallNS})
	check("fan-out", "replicas", BatchSide{WallNS: o.Fanout.WallNS}, BatchSide{WallNS: c.Fanout.WallNS})
	fmt.Fprintf(out, "replica fan-out (%d sessions, %d replicas): single %s vs %s, fanned out %s vs %s (%.2fx)\n",
		c.Sessions, c.Replicas,
		wallDelta(BatchSide{WallNS: o.Single.WallNS}, BatchSide{WallNS: c.Single.WallNS}), time.Duration(c.Single.WallNS),
		wallDelta(BatchSide{WallNS: o.Fanout.WallNS}, BatchSide{WallNS: c.Fanout.WallNS}), time.Duration(c.Fanout.WallNS),
		c.Speedup)
}

// relDelta returns (cur-old)/old, reporting ok=false when either side
// is absent.
func relDelta(old, cur int64) (float64, bool) {
	if old == 0 || cur == 0 {
		return 0, false
	}
	return float64(cur-old) / float64(old), true
}

func runLabel(r BenchRun) string {
	rev := r.Revision
	if rev == "" {
		rev = "unknown"
	}
	return fmt.Sprintf("%s@%s", r.GeneratedAt, rev)
}

// wallDelta formats the relative wall-time change between two sides.
// An absent side (e.g. a legacy-format run predating the pruned side)
// shows as "n/a".
func wallDelta(old, cur BatchSide) string {
	if old.WallNS == 0 || cur.WallNS == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%+.1f%%", 100*float64(cur.WallNS-old.WallNS)/float64(old.WallNS))
}
