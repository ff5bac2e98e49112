// Package tpch is a self-contained, deterministic implementation of the
// TPC-H data generator (dbgen) and refresh functions, at configurable
// scale factors. The paper's evaluation (§5) builds its snapshot
// histories from a TPC-H database: the initial population comes from
// dbgen and the update workloads UW7.5/UW15/UW30/UW60 delete and insert
// a fixed number of Orders rows (plus their Lineitem rows) between
// consecutive snapshot declarations, using the TPC-H refresh-function
// scheme (new orders get fresh keys; deletions retire the oldest keys),
// which sweeps the table cyclically and yields the controlled
// "overwrite cycle" lengths the paper's analysis depends on.
package tpch

import (
	"fmt"
	"math/rand"

	"rql/internal/record"
)

// Base cardinalities at scale factor 1.0 (per the TPC-H specification).
const (
	baseCustomers = 150000
	baseOrders    = 1500000
	baseParts     = 200000
	baseSuppliers = 10000
)

// Generator produces TPC-H rows deterministically for a given seed and
// scale factor.
type Generator struct {
	SF   float64
	rng  *rand.Rand
	next int64 // next order key to hand out
}

// NewGenerator creates a generator. Scale factor 0.01 yields 15,000
// orders (the default TPC-H SF 1 yields 1.5M).
func NewGenerator(sf float64, seed int64) *Generator {
	return &Generator{SF: sf, rng: rand.New(rand.NewSource(seed)), next: 1}
}

// Cardinalities for this scale factor.
func (g *Generator) Customers() int { return scaled(baseCustomers, g.SF) }
func (g *Generator) Orders() int    { return scaled(baseOrders, g.SF) }
func (g *Generator) Parts() int     { return scaled(baseParts, g.SF) }
func (g *Generator) Suppliers() int { return scaled(baseSuppliers, g.SF) }

func scaled(base int, sf float64) int {
	n := int(float64(base) * sf)
	if n < 1 {
		n = 1
	}
	return n
}

// Word pools (abbreviated versions of dbgen's grammar-based text).
var (
	segments    = []string{"AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD"}
	priorities  = []string{"1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"}
	instructs   = []string{"DELIVER IN PERSON", "COLLECT COD", "NONE", "TAKE BACK RETURN"}
	shipmodes   = []string{"REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"}
	types1      = []string{"STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO"}
	types2      = []string{"ANODIZED", "BURNISHED", "PLATED", "POLISHED", "BRUSHED"}
	types3      = []string{"TIN", "NICKEL", "BRASS", "STEEL", "COPPER"}
	containers1 = []string{"SM", "LG", "MED", "JUMBO", "WRAP"}
	containers2 = []string{"CASE", "BOX", "BAG", "JAR", "PKG", "PACK", "CAN", "DRUM"}
	nounPool    = []string{"packages", "requests", "accounts", "deposits", "foxes", "ideas",
		"theodolites", "pinto beans", "instructions", "dependencies", "excuses", "platelets"}
	verbPool = []string{"sleep", "haggle", "nag", "wake", "cajole", "dazzle", "detect",
		"integrate", "doze", "snooze", "engage", "boost"}
	adjPool = []string{"furious", "sly", "careful", "blithe", "quick", "fluffy", "slow",
		"quiet", "ruthless", "thin", "close", "dogged"}
	nationNames = []string{"ALGERIA", "ARGENTINA", "BRAZIL", "CANADA", "EGYPT", "ETHIOPIA",
		"FRANCE", "GERMANY", "INDIA", "INDONESIA", "IRAN", "IRAQ", "JAPAN", "JORDAN",
		"KENYA", "MOROCCO", "MOZAMBIQUE", "PERU", "CHINA", "ROMANIA", "SAUDI ARABIA",
		"VIETNAM", "RUSSIA", "UNITED KINGDOM", "UNITED STATES"}
	regionNames = []string{"AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"}
	// nationRegion maps each of the 25 nations to its region, per the
	// TPC-H specification's nation table.
	nationRegion = []int64{0, 1, 1, 1, 4, 0, 3, 3, 2, 2, 4, 4, 2, 4, 0, 0, 0, 1, 2, 3, 4, 2, 3, 3, 1}
)

func (g *Generator) pick(pool []string) string { return pool[g.rng.Intn(len(pool))] }

func (g *Generator) comment(maxWords int) string {
	n := 2 + g.rng.Intn(maxWords)
	out := ""
	for i := 0; i < n; i++ {
		if i > 0 {
			out += " "
		}
		switch i % 3 {
		case 0:
			out += g.pick(adjPool)
		case 1:
			out += g.pick(nounPool)
		default:
			out += g.pick(verbPool)
		}
	}
	return out
}

// date renders a pseudo-random date in the TPC-H range [1992-01-01,
// 1998-08-02] as the TEXT form the schema stores.
func (g *Generator) date() string {
	day := g.rng.Intn(2405) // days in the range
	return dateFromOffset(day)
}

func dateFromOffset(day int) string {
	y, rem := 1992+day/365, day%365
	m := rem/31 + 1
	d := rem%31 + 1
	return fmt.Sprintf("%04d-%02d-%02d", y, m, d)
}

func (g *Generator) money(lo, hi float64) float64 {
	return float64(int64((lo+(hi-lo)*g.rng.Float64())*100)) / 100
}

// Region returns the region table rows.
func (g *Generator) Region() [][]record.Value {
	rows := make([][]record.Value, len(regionNames))
	for i, n := range regionNames {
		rows[i] = []record.Value{record.Int(int64(i)), record.Text(n), record.Text(g.comment(6))}
	}
	return rows
}

// Nation returns the nation table rows.
func (g *Generator) Nation() [][]record.Value {
	rows := make([][]record.Value, len(nationNames))
	for i, n := range nationNames {
		rows[i] = []record.Value{
			record.Int(int64(i)), record.Text(n), record.Int(nationRegion[i]), record.Text(g.comment(6)),
		}
	}
	return rows
}

// Supplier returns the supplier table rows.
func (g *Generator) Supplier() [][]record.Value {
	n := g.Suppliers()
	rows := make([][]record.Value, n)
	for i := 0; i < n; i++ {
		k := int64(i + 1)
		rows[i] = []record.Value{
			record.Int(k),
			record.Text(fmt.Sprintf("Supplier#%09d", k)),
			record.Text(g.comment(3)),
			record.Int(int64(g.rng.Intn(25))),
			record.Text(fmt.Sprintf("%02d-%03d-%03d-%04d", 10+g.rng.Intn(25), g.rng.Intn(1000), g.rng.Intn(1000), g.rng.Intn(10000))),
			record.Float(g.money(-999.99, 9999.99)),
			record.Text(g.comment(8)),
		}
	}
	return rows
}

// Customer returns the customer table rows.
func (g *Generator) Customer() [][]record.Value {
	n := g.Customers()
	rows := make([][]record.Value, n)
	for i := 0; i < n; i++ {
		k := int64(i + 1)
		rows[i] = []record.Value{
			record.Int(k),
			record.Text(fmt.Sprintf("Customer#%09d", k)),
			record.Text(g.comment(3)),
			record.Int(int64(g.rng.Intn(25))),
			record.Text(fmt.Sprintf("%02d-%03d-%03d-%04d", 10+g.rng.Intn(25), g.rng.Intn(1000), g.rng.Intn(1000), g.rng.Intn(10000))),
			record.Float(g.money(-999.99, 9999.99)),
			record.Text(g.pick(segments)),
			record.Text(g.comment(10)),
		}
	}
	return rows
}

// Part returns the part table rows. p_type draws from the full 150
// TPC-H type strings, so predicates like p_type = 'STANDARD POLISHED
// TIN' (the paper's Qq_cpu) select ~1/150 of parts.
func (g *Generator) Part() [][]record.Value {
	n := g.Parts()
	rows := make([][]record.Value, n)
	for i := 0; i < n; i++ {
		k := int64(i + 1)
		ptype := g.pick(types1) + " " + g.pick(types2) + " " + g.pick(types3)
		rows[i] = []record.Value{
			record.Int(k),
			record.Text(g.pick(adjPool) + " " + g.pick(nounPool)),
			record.Text(fmt.Sprintf("Manufacturer#%d", 1+g.rng.Intn(5))),
			record.Text(fmt.Sprintf("Brand#%d%d", 1+g.rng.Intn(5), 1+g.rng.Intn(5))),
			record.Text(ptype),
			record.Int(int64(1 + g.rng.Intn(50))),
			record.Text(g.pick(containers1) + " " + g.pick(containers2)),
			record.Float(g.money(900, 2000)),
			record.Text(g.comment(5)),
		}
	}
	return rows
}

// PartSupp returns the partsupp table rows (4 suppliers per part).
func (g *Generator) PartSupp() [][]record.Value {
	parts, sups := g.Parts(), g.Suppliers()
	rows := make([][]record.Value, 0, parts*4)
	for p := 1; p <= parts; p++ {
		for s := 0; s < 4; s++ {
			rows = append(rows, []record.Value{
				record.Int(int64(p)),
				record.Int(int64((p+s*(sups/4+1))%sups + 1)),
				record.Int(int64(1 + g.rng.Intn(9999))),
				record.Float(g.money(1, 1000)),
				record.Text(g.comment(8)),
			})
		}
	}
	return rows
}

// Order couples an orders row with its lineitem rows.
type Order struct {
	Row       []record.Value
	Lineitems [][]record.Value
}

// NextOrders generates n new orders with fresh, increasing order keys
// (the refresh-function RF1 stream; the initial population uses the
// same stream starting at key 1).
func (g *Generator) NextOrders(n int) []Order {
	out := make([]Order, n)
	customers := g.Customers()
	parts, sups := g.Parts(), g.Suppliers()
	for i := range out {
		key := g.next
		g.next++
		nl := 1 + g.rng.Intn(7)
		status := "O"
		if g.rng.Intn(2) == 0 {
			status = "F"
		}
		total := 0.0
		items := make([][]record.Value, nl)
		date := g.date()
		for l := 0; l < nl; l++ {
			qty := float64(1 + g.rng.Intn(50))
			price := g.money(900, 10000)
			ext := float64(int64(qty*price*100)) / 100
			total += ext
			items[l] = []record.Value{
				record.Int(key),
				record.Int(int64(1 + g.rng.Intn(parts))),
				record.Int(int64(1 + g.rng.Intn(sups))),
				record.Int(int64(l + 1)),
				record.Float(qty),
				record.Float(ext),
				record.Float(float64(g.rng.Intn(11)) / 100),
				record.Float(float64(g.rng.Intn(9)) / 100),
				record.Text(g.pick([]string{"A", "N", "R"})),
				record.Text(status),
				record.Text(g.date()),
				record.Text(g.date()),
				record.Text(g.date()),
				record.Text(g.pick(instructs)),
				record.Text(g.pick(shipmodes)),
				record.Text(g.comment(6)),
			}
		}
		out[i] = Order{
			Row: []record.Value{
				record.Int(key),
				record.Int(int64(1 + g.rng.Intn(customers))),
				record.Text(status),
				record.Float(total),
				record.Text(date),
				record.Text(g.pick(priorities)),
				record.Text(fmt.Sprintf("Clerk#%09d", 1+g.rng.Intn(1000))),
				record.Int(0),
				record.Text(g.comment(8)),
			},
			Lineitems: items,
		}
	}
	return out
}
