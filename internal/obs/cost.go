package obs

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"time"
)

// This file is the cost-record walk, the per-request sibling of the
// metric registry next door: a cost — of a snapshot reader, a statement,
// a mechanism iteration, a run, a slow-log entry — is declared once, as a
// tagged field of the record its layer fills,
//
//	PagelogReads int `cost:"pagelog_reads"`
//
// and the sums (AddCost), the hot-iteration average (DivCost), the wire
// bodies (WalkCost) and the key=value lines of EXPLAIN ANALYZE, /slow and
// the shell (FormatCost) walk the declaration instead of naming fields.
// A record's field list is reflected once per type; records compose by
// embedding. `cost:"name"` is an additive field (int, int64 or
// time.Duration); `cost:"name,id"` an identity field (also uint64, bool
// or string) — a snapshot id, a pruned flag, a reason: shipped, rendered
// when set, never summed or averaged. Untagged fields are not part of
// the record; a malformed declaration panics the first time its type is
// walked.

// CostField is one declared field of a cost record.
type CostField struct {
	Name     string // the tag's name: the key of every key=value rendering
	Identity bool   // carried and rendered, never summed or averaged

	index []int // reflect.Value.FieldByIndex path (embedded records nest)
}

var costPlans sync.Map // struct reflect.Type -> []CostField

// costPlan returns the struct rec points to and its declared fields.
func costPlan(rec any) (reflect.Value, []CostField) {
	v := reflect.ValueOf(rec)
	if v.Kind() != reflect.Pointer || v.Elem().Kind() != reflect.Struct {
		panic(fmt.Sprintf("obs: a cost record is a pointer to a struct, got %T", rec))
	}
	v = v.Elem()
	if plan, ok := costPlans.Load(v.Type()); ok {
		return v, plan.([]CostField)
	}
	var plan []CostField
	collectCostFields(v.Type(), nil, &plan)
	costPlans.Store(v.Type(), plan)
	return v, plan
}

func collectCostFields(t reflect.Type, prefix []int, plan *[]CostField) {
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		index := append(append([]int(nil), prefix...), i)
		tag, tagged := f.Tag.Lookup("cost")
		if !tagged {
			if f.Anonymous && f.Type.Kind() == reflect.Struct {
				collectCostFields(f.Type, index, plan)
			}
			continue
		}
		name, opt, _ := strings.Cut(tag, ",")
		cf := CostField{Name: name, Identity: opt == "id", index: index}
		var bad string
		switch k := f.Type.Kind(); {
		case !f.IsExported():
			bad = "must be exported"
		case name == "" || strings.ContainsAny(name, " =\"") || (opt != "" && opt != "id"):
			bad = "has a malformed tag"
		case findCostField(*plan, name) >= 0:
			bad = "repeats a name of its record"
		case k == reflect.Int || k == reflect.Int64:
		case k != reflect.Uint64 && k != reflect.Bool && k != reflect.String:
			bad = "has an unsupported type"
		case !cf.Identity:
			bad = "cannot be summed: tag it name,id"
		}
		if bad != "" {
			panic(fmt.Sprintf("obs: cost field %s.%s (%s `cost:%q`) %s", t, f.Name, f.Type, tag, bad))
		}
		*plan = append(*plan, cf)
	}
}

func findCostField(plan []CostField, name string) int {
	for i := range plan {
		if plan[i].Name == name {
			return i
		}
	}
	return -1
}

// AddCost adds every additive field of the record src points to into
// the additive field of the same name in the record dst points to.
// Between records of one type that is the sum; into a record of another
// type it is the projection onto the names that one declares, so a
// record chooses what it takes from another by declaring the field.
func AddCost(dst, src any) {
	dv, dplan := costPlan(dst)
	sv, splan := costPlan(src)
	same := dv.Type() == sv.Type()
	for i := range splan {
		sf := &splan[i]
		if sf.Identity {
			continue
		}
		df := sf
		if !same {
			j := findCostField(dplan, sf.Name)
			if j < 0 || dplan[j].Identity {
				continue
			}
			df = &dplan[j]
		}
		d := dv.FieldByIndex(df.index)
		d.SetInt(d.Int() + sv.FieldByIndex(sf.index).Int())
	}
}

// DivCost divides every additive field of the record by n.
func DivCost(rec any, n int) {
	v, plan := costPlan(rec)
	for i := range plan {
		if !plan[i].Identity {
			f := v.FieldByIndex(plan[i].index)
			f.SetInt(f.Int() / int64(n))
		}
	}
}

// WalkCost visits the record's declared fields in declaration order;
// the values are settable.
func WalkCost(rec any, visit func(CostField, reflect.Value)) {
	v, plan := costPlan(rec)
	for i := range plan {
		visit(plan[i], v.FieldByIndex(plan[i].index))
	}
}

// FormatCost renders the record as space-separated name=value tokens in
// declaration order: every additive field (durations at microsecond
// precision), and the identity fields that are set.
func FormatCost(rec any) string {
	var b strings.Builder
	v, plan := costPlan(rec)
	for i := range plan {
		f := v.FieldByIndex(plan[i].index)
		if plan[i].Identity && f.IsZero() {
			continue
		}
		val := f.Interface()
		switch x := val.(type) {
		case time.Duration:
			val = x.Round(time.Microsecond)
		case string:
			if strings.ContainsAny(x, " \"") { // one token: quote a value with spaces
				val = `"` + strings.ReplaceAll(x, `"`, `'`) + `"`
			}
		}
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%v", plan[i].Name, val)
	}
	return b.String()
}
