// figures_test.go holds one testing.B benchmark per table/figure of the
// paper's §5 evaluation. Each benchmark runs the figure's RQL query on
// a scaled-down TPC-H snapshot history (shared across benchmarks) and
// reports the figure's headline quantities as custom metrics (ratio C,
// per-iteration cost splits in nanoseconds, result footprints in
// bytes). The full sweeps behind the figures live in cmd/rqlbench; run
// `go run ./cmd/rqlbench -all` for the paper-style tables.
package bench

import (
	"fmt"
	"testing"

	"rql/internal/core"
)

// benchSF keeps `go test -bench=.` under a couple of minutes.
const benchSF = 0.004

var benchEnvs = map[string]*Env{}

// benchEnv builds (once per process) a shared workload environment.
func benchEnv(b *testing.B, uw UW, history int) *Env {
	b.Helper()
	key := fmt.Sprintf("%s/%d", uw.Name, history)
	if e, ok := benchEnvs[key]; ok {
		return e
	}
	e, err := NewEnv(uw, history, Config{SF: benchSF, Quick: true})
	if err != nil {
		b.Fatal(err)
	}
	benchEnvs[key] = e
	return e
}

const benchInterval = 12 // snapshots per RQL run in the benchmarks

// oldHistory makes snapshots 1..benchInterval fully archived ("old").
func oldHistory(uw UW) int { return uw.Cycle + benchInterval + 4 }

func reportIterSplit(b *testing.B, rs *core.RunStats) {
	cold, hot := rs.Cold(), rs.Hot()
	b.ReportMetric(float64(cold.Total().Nanoseconds()), "cold-ns/iter")
	b.ReportMetric(float64(hot.Total().Nanoseconds()), "hot-ns/iter")
	b.ReportMetric(float64(cold.PagelogReads), "cold-pagelog-reads")
	b.ReportMetric(float64(hot.PagelogReads), "hot-pagelog-reads")
}

// BenchmarkTable1RefreshStep measures one update-workload refresh step
// (delete + insert + COMMIT WITH SNAPSHOT) — the knob Table 1's UW
// parameters control.
func BenchmarkTable1RefreshStep(b *testing.B) {
	e := benchEnv(b, UW30, oldHistory(UW30))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.W.Step(); err != nil {
			b.Fatal(err)
		}
		e.Last++
	}
}

// BenchmarkFig6RatioC measures the sharing benefit on old snapshots:
// ratio C of one consecutive-interval run vs the all-cold baseline.
func BenchmarkFig6RatioC(b *testing.B) {
	for _, uw := range []UW{UW30, UW15} {
		b.Run(uw.Name, func(b *testing.B) {
			e := benchEnv(b, uw, oldHistory(uw))
			var c float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var err error
				c, err = e.RatioC(mechAggVarAvg, 1, benchInterval, 1, QqIO)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(c, "ratioC")
		})
	}
}

// BenchmarkFig7RecentInterval runs the same query over the most recent
// snapshots, where pages are shared with the current database.
func BenchmarkFig7RecentInterval(b *testing.B) {
	e := benchEnv(b, UW30, oldHistory(UW30))
	var rs *core.RunStats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		rs, err = e.ColdRun(mechAggVarAvg,
			QsRange(e.Last-benchInterval+1, e.Last, 1), QqIO)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(rs.Total().DBReads), "shared-db-reads")
	reportIterSplit(b, rs)
}

// BenchmarkFig8QqIO is the I/O-intensive iteration cost breakdown on
// old snapshots.
func BenchmarkFig8QqIO(b *testing.B) {
	e := benchEnv(b, UW30, oldHistory(UW30))
	var rs *core.RunStats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		rs, err = e.ColdRun(mechAggVarAvg, QsRange(1, benchInterval, 1), QqIO)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportIterSplit(b, rs)
}

// BenchmarkFig9QqCPU is the CPU-intensive join without a native index:
// the transient covering index dominates.
func BenchmarkFig9QqCPU(b *testing.B) {
	e := benchEnv(b, UW30, oldHistory(UW30))
	var rs *core.RunStats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		rs, err = e.ColdRun(mechAggVarAvg, QsRange(1, benchInterval, 1), QqCPU)
		if err != nil {
			b.Fatal(err)
		}
	}
	tot := rs.Total()
	b.ReportMetric(float64(tot.IndexCreation.Nanoseconds()), "index-creation-ns")
	b.ReportMetric(float64(tot.QueryEval.Nanoseconds()), "query-eval-ns")
}

// BenchmarkFig10CollateOutput varies Qq_collate's output size.
func BenchmarkFig10CollateOutput(b *testing.B) {
	e := benchEnv(b, UW30, oldHistory(UW30))
	for _, frac := range []float64{0.002, 0.4} {
		b.Run(fmt.Sprintf("frac=%g", frac), func(b *testing.B) {
			date, err := e.CollateDateForFraction(frac)
			if err != nil {
				b.Fatal(err)
			}
			qq := fmt.Sprintf(QqCollate, date)
			var rs *core.RunStats
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rs, err = e.ColdRun(mechCollate, QsRange(1, benchInterval, 1), qq)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(rs.Total().UDF.Nanoseconds()), "udf-ns")
			b.ReportMetric(float64(rs.Total().QqRows), "qq-rows")
		})
	}
}

// BenchmarkFig11Approaches compares CollateData (+ follow-up SQL)
// against AggregateDataInTable end to end.
func BenchmarkFig11Approaches(b *testing.B) {
	e := benchEnv(b, UW30, oldHistory(UW30))
	qs := QsRange(1, benchInterval, 1)
	b.Run("CollateData", func(b *testing.B) {
		var rs *core.RunStats
		for i := 0; i < b.N; i++ {
			var err error
			rs, err = e.ColdRun(mechCollate, qs, QqAgg)
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(rs.ResultDataBytes), "result-bytes")
	})
	b.Run("AggregateDataInTable", func(b *testing.B) {
		var rs *core.RunStats
		for i := 0; i < b.N; i++ {
			var err error
			rs, err = e.ColdRun(aggTable("(cn,MAX):(av,MAX)"), qs, QqAgg)
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(rs.ResultDataBytes), "result-bytes")
	})
}

// BenchmarkFig12IterationSplit reports the cold/hot split of the two
// approaches (result-index build vs plain inserts).
func BenchmarkFig12IterationSplit(b *testing.B) {
	e := benchEnv(b, UW30, oldHistory(UW30))
	qs := QsRange(1, benchInterval, 1)
	for _, m := range []struct {
		name string
		mech mech
	}{{"CollateData", mechCollate}, {"AggT", aggTable("(cn,MAX)")}} {
		b.Run(m.name, func(b *testing.B) {
			var rs *core.RunStats
			for i := 0; i < b.N; i++ {
				var err error
				rs, err = e.ColdRun(m.mech, qs, QqAgg)
				if err != nil {
					b.Fatal(err)
				}
			}
			reportIterSplit(b, rs)
			b.ReportMetric(float64(rs.Hot().ResultSearch), "hot-searches/iter")
		})
	}
}

// BenchmarkFig13MaxVsSum compares the aggregate functions' update
// volumes in AggregateDataInTable.
func BenchmarkFig13MaxVsSum(b *testing.B) {
	e := benchEnv(b, UW30, oldHistory(UW30))
	qs := QsRange(1, benchInterval, 1)
	for _, agg := range []string{"MAX", "SUM"} {
		b.Run(agg, func(b *testing.B) {
			var rs *core.RunStats
			for i := 0; i < b.N; i++ {
				var err error
				rs, err = e.ColdRun(aggTable("(cn,"+agg+")"), qs, QqAgg)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(rs.Hot().ResultUpdates), "hot-updates/iter")
			b.ReportMetric(float64(rs.Hot().UDF.Nanoseconds()), "hot-udf-ns/iter")
		})
	}
}

// BenchmarkMemFootprint is the §5.3 memory experiment: CollateData vs
// CollateDataIntoIntervals result footprints.
func BenchmarkMemFootprint(b *testing.B) {
	e := benchEnv(b, UW30, oldHistory(UW30))
	qs := QsRange(e.Last-benchInterval+1, e.Last, 1)
	for _, m := range []struct {
		name string
		mech mech
	}{{"CollateData", mechCollate}, {"Intervals", mechIntervals}} {
		b.Run(m.name, func(b *testing.B) {
			var rs *core.RunStats
			for i := 0; i < b.N; i++ {
				var err error
				rs, err = e.ColdRun(m.mech, qs, QqInt)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(rs.ResultDataBytes), "result-bytes")
			b.ReportMetric(float64(rs.ResultIndexBytes), "index-bytes")
			b.ReportMetric(float64(rs.ResultRows), "result-rows")
		})
	}
}
