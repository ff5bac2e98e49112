package obs

import (
	"reflect"
	"strings"
	"testing"
	"time"
)

type readCost struct {
	Reads int           `cost:"reads"`
	Wait  time.Duration `cost:"wait"`
}

type stmtCost struct {
	Rows int `cost:"rows"`
	readCost
	note string // untagged: not part of the record
}

type iterCost struct {
	Snap   uint64 `cost:"snap,id"`
	Reads  int64  `cost:"reads"`
	Wait   int64  `cost:"wait,id"` // identity here: AddCost must not sum into it
	Why    string `cost:"why,id"`
	Pruned bool   `cost:"pruned,id"`
}

func TestCostWalk(t *testing.T) {
	a := stmtCost{Rows: 1, readCost: readCost{Reads: 2, Wait: 3 * time.Millisecond}, note: "x"}
	b := a
	AddCost(&a, &b)
	AddCost(&a, &b.readCost) // a part adds into the whole that embeds it
	if want := (stmtCost{Rows: 2, readCost: readCost{Reads: 6, Wait: 9 * time.Millisecond}, note: "x"}); a != want {
		t.Fatalf("sum = %+v, want %+v", a, want)
	}
	DivCost(&a, 2)
	if a.Rows != 1 || a.Reads != 3 || a.Wait != 4500*time.Microsecond {
		t.Fatalf("average = %+v", a)
	}
	if got := FormatCost(&a); got != "rows=1 reads=3 wait=4.5ms" {
		t.Fatalf("FormatCost = %q", got)
	}

	// Into another type, AddCost is the projection onto shared additive
	// names; identity fields are never touched.
	it := iterCost{Snap: 7, Reads: 10, Wait: 1}
	AddCost(&it, &a)
	if want := (iterCost{Snap: 7, Reads: 13, Wait: 1}); it != want {
		t.Fatalf("projection = %+v, want %+v", it, want)
	}
	if got := FormatCost(&it); got != "snap=7 reads=13 wait=1" {
		t.Fatalf("FormatCost = %q", got)
	}
	it.Why, it.Pruned = `no "x" here`, true
	if got := FormatCost(&it); !strings.HasSuffix(got, ` why="no 'x' here" pruned=true`) {
		t.Fatalf("FormatCost = %q", got)
	}

	var names []string
	WalkCost(&a, func(f CostField, v reflect.Value) {
		names = append(names, f.Name)
		v.SetInt(0)
	})
	if strings.Join(names, ",") != "rows,reads,wait" || a != (stmtCost{note: "x"}) {
		t.Fatalf("walk visited %v and left %+v", names, a)
	}
}

func TestCostMalformedDeclarationPanics(t *testing.T) {
	for name, rec := range map[string]any{
		"not a pointer": stmtCost{},
		"unsupported type": &struct {
			F float64 `cost:"f"`
		}{},
		"unexported": &struct {
			f int `cost:"f"`
		}{},
		"empty name": &struct {
			F int `cost:",id"`
		}{},
		"unknown option": &struct {
			F int `cost:"f,sum"`
		}{},
		"additive string": &struct {
			S string `cost:"s"`
		}{},
		"duplicate name": &struct {
			A int `cost:"n"`
			B int `cost:"n"`
		}{},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			FormatCost(rec)
		}()
	}
}
